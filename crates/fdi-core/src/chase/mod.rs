//! The NS-rules of §6: null substitution, NEC introduction, and the
//! extended Church–Rosser system.
//!
//! Definition 2 of the paper: for an FD `X → Y` and two tuples `tᵢ, tⱼ`
//! agreeing on `X` (equal constants or NEC-equivalent nulls),
//!
//! * (a) if exactly one of `tᵢ[Y], tⱼ[Y]` is null, the null is
//!   substituted with the other's constant;
//! * (b) if both are null, the NEC `tᵢ[Y] := tⱼ[Y]` is introduced.
//!
//! [`ns`] implements this *plain* system, which terminates but is **not
//! confluent** — Figure 5's instance reaches different minimally
//! incomplete states depending on rule order.
//!
//! The **extended** system additionally merges two *distinct constants*
//! into the `nothing` element, propagating to "all constants that are
//! equal to them". [`cells`] implements it as a union–find over cell
//! occurrences and per-symbol constant nodes — precisely the congruence
//! closure construction ([Downey–Sethi–Tarjan], [Graham 80]) behind
//! Theorem 4: the result is unique (Church–Rosser), and weak
//! satisfiability holds iff no `nothing` remains.
//!
//! ## Engines and complexity
//!
//! The paper analyzes the NS-rules as multi-pass scans over all tuple
//! pairs — `O(|F|·n²)` agreement checks per pass, `O(|F|·n³)` in the
//! worst case once class-wide substitution costs are charged. This
//! module keeps that formulation as the executable definition
//! ([`ns::chase_naive`]) and makes the **indexed worklist engine** of
//! [`index`] the default behind [`chase_plain`]:
//!
//! * rows are hash-partitioned per FD by the NEC-canonical key of their
//!   determinant projection ([`crate::groupkey`]) — bucket co-membership
//!   *is* the NS-rule trigger condition, so no pairs are ever scanned;
//! * each class keeps its occurrence list, so substituting a class costs
//!   its occurrences, not an `O(n·p)` instance sweep;
//! * a bucket re-enters the worklist only when its membership changes
//!   (an NEC merge collapses buckets rather than triggering a rescan),
//!   so passes after the first touch only what moved.
//!
//! Rows are addressed by stable [`RowId`](fdi_relation::rowid::RowId)
//! slot handles throughout — bucket member lists, occurrence lists, and
//! [`NsEvent`] sites all carry slot ids that survive `Database` deletes
//! unchanged (the storage tombstones; nothing renumbers), so a chase
//! over an instance with interior tombstones simply never visits the
//! dead slots. Dense per-slot side tables are sized by
//! [`Instance::slot_bound`](fdi_relation::instance::Instance::slot_bound),
//! not [`len`](fdi_relation::instance::Instance::len).
//!
//! A chase pass is then `O(|F|·(n + moved))` instead of `O(|F|·n²)`, and
//! the engines produce identical results — same instance, events, and
//! pass counts — on instances whose NEC classes are **column-local** and
//! which contain no `nothing` values. That restriction is a first-class,
//! testable notion: [`order_replay_caveats`] reports every violating
//! condition as a typed [`ChaseIndexCaveat`], [`order_replay_exact`] is
//! the all-clear predicate, and the `fdi-gen` generators debug-assert
//! their workloads caveat-free (see [`index`] for the two exempt regimes
//! and the property suite for the proof by testing). At n = 10⁴ the
//! indexed engine is the difference between minutes and milliseconds
//! (see `BENCH_chase.json`).
//!
//! For the extended system, [`extended_chase`] runs in the spirit of
//! the `O(|F|·n·log(|F|·n))` congruence-closure bound — one initial
//! hash-grouping, then a dirty-bucket worklist — and
//! [`extended_chase_naive`] keeps the paper's pairwise `O(|F|·n³·p)`
//! pass analysis as the reference engine (experiment E12 measures the
//! gap — here order never matters, by Theorem 4(a)).
//!
//! Both production engines take an `fdi-exec` [`Executor`] and an
//! `fdi-obs` [`Recorder`]. [`chase_indexed`] shards its index build and
//! (with more than one thread) a read-only bucket classification, and
//! replays the sequential agenda exactly, order being the plain
//! system's semantics. [`extended_chase`] shards its discovery phases
//! with **no event-order replay at all**: Theorem 4(a) makes the
//! closure order-insensitive. Both are bit-identical at every thread
//! count; a 1-thread executor runs them inline, and the noop recorder
//! records nothing.
//!
//! [`Executor`]: fdi_exec::Executor
//! [`Recorder`]: fdi_obs::Recorder
//!
//! # Example — Theorem 4(b) as a one-liner
//!
//! ```
//! use fdi_core::chase;
//! use fdi_core::fixtures;
//!
//! // §6's instance: each FD alone is weakly satisfied, but A → B
//! // equates the two B-nulls and B → C then demands c1 = c2 — the
//! // extended chase derives `nothing`, so the set is not weakly
//! // satisfiable.
//! let r = fixtures::section6_instance();
//! let fds = fixtures::section6_fds();
//! assert!(!chase::weakly_satisfiable_via_chase(&fds, &r));
//!
//! // The plain chase instead stops at a minimally incomplete instance
//! // (Figure 5 shows the reached state is order-dependent).
//! let result = chase::chase_plain(&r, &fds);
//! assert!(chase::is_minimally_incomplete(&result.instance, &fds));
//! ```

pub mod cells;
pub mod index;
pub mod ns;

pub use cells::{extended_chase, extended_chase_naive, CellEngine, ChaseOutcome};
pub use index::{chase_indexed, order_replay_caveats, order_replay_exact, ChaseIndexCaveat};
pub use ns::{
    chase_naive, chase_plain, is_minimally_incomplete, is_minimally_incomplete_naive,
    NsChaseResult, NsEvent, NsEventKind,
};

use crate::fd::FdSet;
use fdi_relation::instance::Instance;

/// Theorem 4(b): `F` is weakly satisfiable in `r` iff the extended chase
/// leaves no `nothing` value.
///
/// Like the theorem itself, this is exact under the large-domain proviso
/// (no `[F2]` domain exhaustion): the chase treats domains as if a fresh
/// value were always available. Run
/// [`crate::subst::detect_domain_exhaustion`] to check the proviso when
/// domains are tight.
///
/// Runs [`extended_chase`]'s engine inline and reads the `nothing`
/// count off the fixpoint partition without materializing the chased
/// instance — this is the weak-enforcement check of every
/// [`crate::update::Database`] write.
pub fn weakly_satisfiable_via_chase(fds: &FdSet, instance: &Instance) -> bool {
    let exec = fdi_exec::Executor::with_threads(1);
    let mut engine = CellEngine::new(instance, &exec);
    engine.run(fds, &exec);
    engine.nothing_classes() == 0
}
