//! # fdi-exec — an executor handle that nothing reads
//!
//! Every engine in the workspace runs sequentially on the calling
//! thread; none forks. This crate stays a workspace member only because
//! the end-to-end benchmark (`bench_e2e/`, a workspace of its own)
//! depends on it: its replay passes an [`Executor`] to
//! `CompiledQuery::select_par_stats` and to `Writer::create`, and both
//! parameters are unread. The next change to the benchmark deletes this
//! crate, those two parameters, and the benchmark's `FDI_THREADS`
//! setting, which no code reads any more.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// An empty handle, kept only for the signatures the benchmark calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor;

impl Executor {
    /// The handle. It reads no environment: `FDI_THREADS` has no effect.
    pub fn from_env() -> Executor {
        Executor
    }
}
