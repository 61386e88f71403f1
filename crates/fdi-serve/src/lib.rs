//! # fdi-serve — epoch-split concurrent serving
//!
//! The serving layer over the fd-incomplete engine: any number of
//! reader threads query **immutable published epochs** while a single
//! [`Writer`] applies deltas against a private successor state and
//! atomically publishes the next epoch. Readers never block the writer;
//! the writer never blocks readers.
//!
//! ## The epoch/snapshot consistency contract
//!
//! An [`Epoch`] is an immutable, `Arc`-shared snapshot of the serving
//! state: the chased [`Instance`](fdi_relation::Instance) with its null
//! equivalence forest (inside the contained
//! [`Database`](fdi_core::update::Database)), stamped with a sequence
//! number and the count of accepted ops it reflects. What a reader
//! **may** observe:
//!
//! * Any published epoch, each equal to a **sequential replay of some
//!   accepted-op prefix** ending at a batch boundary: same `RowId`s,
//!   same canonical NEC classes. (Exactness is content-level: a rejected op is
//!   content-traceless but may advance the writer's null allocator, so
//!   only null *mark ids* can differ from an accepted-only replay — the
//!   same caveat the store layer documents for live-vs-recovered
//!   comparison. A replay of the full *attempted* stream, rejections
//!   included, is bit-identical, fingerprint and all.)
//! * A monotonically non-decreasing epoch sequence: successive
//!   [`Reader::snapshot`] calls on one handle never go backwards.
//! * FD-consistent state only: every published epoch satisfies
//!   whatever the writer's enforcement policy maintains (e.g. weak
//!   satisfiability under `Enforcement::Weak`), because enforcement ran
//!   *before* publication.
//!
//! What a reader can **never** observe:
//!
//! * A torn state — a half-applied op or a half-applied batch.
//!   Publication is one atomic pointer swap of a fully-built snapshot.
//! * Uncommitted work — ops staged by the writer but not yet published
//!   (and, under group commit, not yet durable).
//!
//! ## Publication ↔ durability mapping
//!
//! The [`Writer`] is the one write path to the journal, and group
//! commit is its only way there: accepted ops buffer in a pending
//! [`Batch`](fdi_store::Batch), and [`Writer::publish`] first
//! group-commits the batch (one CRC-framed journal record + one sync)
//! and only then swaps the epoch pointer — **durable before visible**.
//! A published epoch therefore always lies on a fully-synced batch
//! boundary, and crash recovery
//! ([`Journal::recover`](fdi_store::Journal::recover)) restores exactly
//! the last such boundary — never a partial batch, because a torn batch
//! record is truncated whole. (A pending batch also commits on its own
//! once it holds [`ServeConfig::max_batch`] ops, or early when the next
//! op would push its record past the journal's size bound — always
//! *before* publication, so the last synced boundary can lie ahead of
//! the last published epoch, but never inside a batch.) With
//! `max_batch` 1 every staged op is durable before
//! [`Writer::stage`] returns; `fdi journal-apply` stages its ops file
//! that way. A failed commit publishes nothing and **poisons** the
//! writer: its database is ahead of the journal, so every later stage
//! or publish returns [`ServeError::Poisoned`], and recovery from the
//! journal is the way back. [`Writer::create`] opens a fresh journal
//! and [`Writer::resume`] a recovered one; both publish epoch 0.
//! Checkpointing is offline: `fdi checkpoint` collapses a journal that
//! no writer holds
//! ([`Journal::checkpoint`](fdi_store::Journal::checkpoint)).
//!
//! ## Determinism
//!
//! The engine-wide contract extends to serving: the same accepted-op
//! stream with the same batch boundaries produces the same epoch
//! sequence — same sequence numbers, same op counts, same
//! [`Epoch::fingerprint`]s — under any number of concurrent readers.
//! Staging, publishing and selection all run on the calling thread, so
//! no thread count enters the result. The concurrency suite in
//! `tests/serve_consistency.rs` (repo root) holds this pinned.
//!
//! ## Observability
//!
//! Serving is instrumented through [`fdi_obs`]: install a live
//! [`Recorder`](fdi_obs::Recorder) with [`Writer::set_recorder`]
//! (routing the publish path, op acceptance, and journal commit/sync
//! metrics) and [`Reader::set_recorder`] (snapshot-read
//! count and acquisition latency). Pass the same recorder to
//! [`Epoch::select`] to tally plan-cache and memo traffic; one live
//! recorder per process is what the serve `metrics` command renders.
//!
//! The determinism contract above extends to the metrics themselves,
//! along the [`fdi_obs`] deterministic/nondeterministic split:
//!
//! * Writer-side **deterministic** metrics (op tallies, journal
//!   record/op counts, epochs published, epoch gauges) are
//!   bit-identical across reader counts for the same op stream and
//!   batch boundaries.
//! * Reader-driven metrics (snapshot reads, plan-cache and memo
//!   traffic, classical-row counts) and wall-clock histograms are
//!   **nondeterministic** — they depend on scheduling and on which
//!   reader asked what. Reader paths only ever touch nondeterministic
//!   metrics, which is what makes the first bullet a theorem rather
//!   than a hope; `tests/obs_determinism.rs` (repo root) holds it
//!   pinned, along with noop-purity (a
//!   [`Recorder::noop`](fdi_obs::Recorder::noop) changes no published
//!   state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod writer;

pub use epoch::{Epoch, EpochCell, Reader};
pub use writer::{EpochStamp, ServeConfig, ServeError, ServeOp, Staged, Writer};
