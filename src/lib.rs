//! # fd-incomplete
//!
//! A complete, from-scratch Rust implementation of
//! *Yannis Vassiliou, "Functional Dependencies and Incomplete
//! Information", VLDB 1980*: functional dependency semantics over
//! relations with null values.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`logic`] (`fdi-logic`) — three-valued truth values and Bertram's
//!   System-C, the modal propositional logic for unknown outcomes that
//!   §5 of the paper reduces FD reasoning to;
//! * [`relation`] (`fdi-relation`) — the relational substrate: schemas,
//!   finite domains, marked nulls, NEC union–find, instances, and
//!   completion enumeration;
//! * [`core`] (`fdi-core`) — the paper's contribution: the extended FD
//!   interpretation (Proposition 1), strong/weak satisfiability, the
//!   TEST-FDs algorithm (Figure 3, Theorems 2–3), the NS-rule chase and
//!   its Church–Rosser extension (Theorem 4), Armstrong's system
//!   (Theorem 1), normalization, and least-extension queries;
//! * [`gen`] (`fdi-gen`) — seeded workload generators for the
//!   experiment harness;
//! * [`store`] (`fdi-store`) — the durability layer: a write-ahead op
//!   journal, crash recovery, and deterministic fault injection;
//! * [`serve`] (`fdi-serve`) — the epoch-split serving layer: immutable
//!   published snapshots under a single group-committing writer;
//! * [`obs`] (`fdi-obs`) — the zero-dependency observability layer:
//!   atomic counters and gauges, log₂ latency histograms and scoped
//!   span timers, all behind a cheap [`obs::Recorder`] handle.
//!
//! ## Quick start
//!
//! ```
//! use fd_incomplete::prelude::*;
//!
//! let schema = Schema::builder("R")
//!     .attribute("emp", ["e1", "e2", "e3"])
//!     .attribute("dept", ["d1", "d2"])
//!     .attribute("mgr", ["m1", "m2"])
//!     .build()
//!     .unwrap();
//! let fds = FdSet::parse(&schema, "emp -> dept\ndept -> mgr").unwrap();
//! // `-` is a null: e2's department is unknown.
//! let r = Instance::parse(schema, "e1 d1 m1\ne2 - m1\ne3 d2 m2").unwrap();
//!
//! // Not strongly satisfied (the null may collide with d2 under e3's
//! // manager), but weakly satisfiable: some completion obeys both FDs.
//! assert!(fd_incomplete::core::testfd::check_strong(&r, &fds).is_err());
//! assert!(fd_incomplete::core::chase::weakly_satisfiable_via_chase(&fds, &r));
//! ```
//!
//! ## Durability
//!
//! A maintained [`core::update::Database`] lives in memory; the
//! [`store`] layer makes its history durable. Hand it to a
//! [`serve::Writer`] and every **accepted** mutation joins a
//! group-commit batch (rejected ops journal nothing); a batch goes to
//! the write-ahead op journal as one [`store::Batch`] record under one
//! sync once it holds `max_batch` ops, at every publish, or early when
//! the next op would push it past the journal's record-size bound. With
//! `max_batch` 1, each accepted op is durable before
//! [`serve::Writer::stage`] returns. After a crash, [`store::Journal::recover`] replays the journal onto
//! its genesis snapshot and — because update execution is sequential
//! and deterministic — rebuilds the database bit-identically: same
//! `RowId`s, same null ids, same NEC classes. A torn final write is
//! detected and truncated; damage *inside* the synced log is a typed
//! [`store::RecoverError::Corrupt`] naming the byte offset, never a
//! panic and never a silently wrong database. An offline
//! [`store::Journal::checkpoint`] atomically collapses the log into a
//! fresh snapshot, bounding replay time. The exact guarantees — what
//! `sync` promises and what it does not — are documented in the
//! [`store`] crate root.
//!
//! ## Serving
//!
//! The [`serve`] layer splits the database into immutable **epochs**
//! for readers and a private successor state for a single
//! [`serve::Writer`]. Any number of threads hold [`serve::Reader`]
//! handles and query the current [`serve::Epoch`] through
//! [`serve::Epoch::select`]; the writer stages deltas invisibly,
//! **group-commits** them to the op journal (one batch record, one
//! sync), and only then publishes the next epoch with an atomic swap.
//! Readers never block the writer and can never observe a torn or FD-violating state: every snapshot
//! equals a sequential replay of some accepted-op prefix ending at a
//! batch boundary, deterministically — and crash
//! recovery restores exactly the last fully-synced boundary. The full
//! consistency contract (what a reader may and may not observe, the
//! publication ↔ durability mapping) is documented in the [`serve`]
//! crate root.
//!
//! ## Query compilation
//!
//! The reference query path walks the [`core::query::Query`] tree per
//! row and re-derives everything it needs — mentioned constants,
//! domain candidate sets, NEC class groupings — from scratch on every
//! evaluation. [`core::query::CompiledQuery`] moves all of that to
//! compile time: the tree is constant-folded and flattened into a
//! branch-light postfix op program, the per-attribute
//! mentioned-constant and fresh-representative candidate sets are
//! precomputed against the instance's domains, and a canonical encoding
//! keys plan caches. At evaluation time
//! ([`core::query::CompiledQuery::select_stats`], one pass over the
//! live rows on the calling thread), rows whose in-scope **signature**
//! (constants, NEC class roots, `nothing`s) repeats a previously seen
//! one replay the cached verdict from a [`core::query::SignatureMemo`]
//! — exact, because a verdict is a pure function of that signature.
//! Null-free rows skip everything and evaluate classically. The result
//! is bit-identical to [`core::query::eval_signature`] /
//! [`core::query::select`] — verdicts, answer ordering, and
//! first-error semantics — which the
//! `query_equiv` suite holds across randomized workloads.
//!
//! The serving layer wires the compiled plan in:
//! [`serve::Epoch::select`] answers through a per-epoch plan cache
//! keyed by the query's canonical encoding, so each published epoch
//! compiles a query once.
//!
//! ## Semantics
//!
//! The null-comparison behavior of TEST-FDs is **pluggable**: a
//! [`core::semantics::SemanticsKind`] value captures, as four boolean
//! axes, everything the engine needs to know about a convention — when
//! two values *agree* (trigger side), when they *positively disagree*
//! (violation side), whether a null on a determinant forces the
//! pairwise fallback, and whether nulls group solitarily. The engine
//! ([`core::testfd::check`]), its pairwise reference
//! ([`core::testfd::check_pairwise`]) and the pair predicate
//! ([`core::testfd::pair_violates`]) all take the convention as that
//! plain value.
//!
//! Four conventions are registered
//! ([`core::semantics::SemanticsKind::ALL`]), forming a lattice of
//! strictness:
//!
//! * **strong** — Vassiliou's pessimistic convention (Theorem 2): a
//!   null potentially matches anything;
//! * **null-marker** — the FDs-with-null-markers semantics in the
//!   style of *Badia & Lemire, "Functional dependencies with null
//!   markers"* (Comput. J. 2015; arXiv:1404.4963): marked nulls agree
//!   only within an NEC class, but a null still positively differs
//!   from every constant;
//! * **weak** — Vassiliou's optimistic convention (Theorem 3): nulls
//!   agree within a class and never positively disagree;
//! * **nfd** — an Atzeni–Morfuni-style literal reading (*Atzeni &
//!   Morfuni, "Functional dependencies and constraints on null values
//!   in database relations"*, Inf. & Control 1986): only total,
//!   constant-for-constant rows constrain anything.
//!
//! Strong satisfaction implies null-marker satisfaction implies weak
//! implies nfd — `tests/conventions.rs` holds the inclusions on random
//! workloads, and [`gen::disagreement_workload`] plants instances
//! separating every adjacent pair. [`core::semantics::compare`] runs
//! all four side by side with per-FD canonical witnesses (the
//! `fdi semantics` CLI verb and the serve-session `semantics` command
//! render it), and [`core::satisfy::report`] carries the per-semantics
//! verdicts alongside the paper's strong/weak pair.
//!
//! ## Observability
//!
//! Every layer is instrumented through [`obs`] (`fdi-obs`), a std-only
//! metrics and tracing facility in the engine's own idiom: no
//! background threads, no global state, no dependencies. An
//! [`obs::Recorder`] is a cloneable handle that is either **live**
//! (shared atomic counters, gauges, fixed-bucket log₂ latency
//! histograms) or the **noop**
//! ([`obs::Recorder::noop`], the default everywhere) whose record
//! methods are branch-predictable no-ops — engines pay nothing unless a
//! sink is installed, and the determinism suite holds that a noop
//! recorder changes no engine output.
//!
//! Wiring points: [`core::update::Database::set_recorder`] (op
//! acceptance, each write's extended chase), [`store::Journal::set_recorder`] (group-commit batch
//! records, sync latency), [`store::Journal::recover_with`] (torn-tail
//! truncations, replayed ops), [`serve::Writer::set_recorder`] (routes
//! into the writer's database and journal too, plus publish latency,
//! epoch gauges and the pending-batch gauge) /
//! [`serve::Reader::set_recorder`] (snapshot reads), and the `rec`
//! argument of each engine entry point: the extended chase
//! ([`core::chase::extended_chase`]), TEST-FDs
//! ([`core::testfd::check`]), and [`serve::Epoch::select`] (plan-cache,
//! NEC-signature memo, and classical-fast-path traffic).
//!
//! Metrics are split into a **deterministic** registry (bit-identical
//! across runs and reader counts for the same op stream — op tallies, journal record counts, extended-chase
//! round/union counts, epoch gauges) and a **nondeterministic** one
//! (wall-clock histograms and reader-driven traffic); the split is part
//! of the exposition format ([`obs::MetricsSnapshot::render_text`], a
//! stable Prometheus-style text form, and
//! [`obs::MetricsSnapshot::render_json`]) and is pinned by
//! `tests/obs_determinism.rs`. The `fdi stats <journal>` verb and the
//! `metrics` command of `fdi serve` expose both live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fdi_core as core;
pub use fdi_gen as gen;
pub use fdi_logic as logic;
pub use fdi_obs as obs;
pub use fdi_relation as relation;
pub use fdi_serve as serve;
pub use fdi_store as store;

/// The most common imports, for examples and downstream users.
///
/// A [`Database`](prelude::Database)'s whole maintenance policy is its
/// [`Enforcement`](prelude::Enforcement): `Weak` (the default) checks
/// weak satisfiability and always writes the closure back, `Strong`
/// checks strong satisfiability, `None` loads without checking.
pub mod prelude {
    pub use fdi_core::chase::{chase_plain, extended_chase};
    pub use fdi_core::fd::{Fd, FdSet};
    pub use fdi_core::prop1;
    pub use fdi_core::satisfy;
    pub use fdi_core::semantics::{self, SemanticsKind};
    pub use fdi_core::testfd;
    pub use fdi_core::update::{Database, Enforcement};
    pub use fdi_logic::truth::Truth;
    pub use fdi_obs::{MetricsSnapshot, Recorder};
    pub use fdi_relation::instance::Instance;
    pub use fdi_relation::schema::Schema;
    pub use fdi_relation::{AttrId, AttrSet, NullId, Value};
    pub use fdi_serve::{Epoch, Reader, ServeConfig, ServeOp, Writer};
    pub use fdi_store::Journal;
}
