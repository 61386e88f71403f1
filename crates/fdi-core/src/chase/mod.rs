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
//! [`index`] the default behind [`chase_plain`].
//!
//! Both production engines run on one **dirty-bucket worklist** (the
//! crate-private `worklist` module), because the plain and the extended
//! rules fire on the same trigger — two rows that agree on `X`:
//!
//! * rows are hash-partitioned per FD by their determinant key, so
//!   bucket co-membership *is* the trigger and no pairs are ever
//!   scanned. The plain chase keys by NEC-canonical [`crate::groupkey`]
//!   atoms, the extended chase by union–find roots;
//! * the first pass sweeps every multi-row bucket; after that, only the
//!   buckets re-keyed since their last sweep, each agenda ordered by
//!   least member row;
//! * a rule application changes one class's atom in every cell of the
//!   class, and bucket co-members share their key, so whole buckets
//!   migrate *en bloc* to their new key — merging into an existing
//!   bucket there — and every migrated bucket re-enters the worklist;
//! * each engine keeps its class → member-cell lists, so a rule costs
//!   the class's cells, not an `O(n·p)` instance sweep.
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
//! which contain no `nothing` values. [`order_replay_exact`] tests an
//! instance for that restriction, and the `fdi-gen` generators
//! debug-assert their workloads satisfy it (see [`index`] for the two
//! exempt regimes and the property suite for the proof by testing). At
//! n = 10⁴ the indexed engine is the difference between minutes and
//! milliseconds (experiment E12 reproduces the comparison).
//!
//! For the extended system, [`extended_chase`] runs in the spirit of
//! the `O(|F|·n·log(|F|·n))` congruence-closure bound — one initial
//! hash-grouping, then the same worklist — and
//! [`extended_chase_naive`] keeps the paper's pairwise `O(|F|·n³·p)`
//! pass analysis as the reference engine (experiment E12 measures the
//! gap — here order never matters, by Theorem 4(a)).
//!
//! Each system has one entry point and one oracle: [`chase_plain`]
//! against [`chase_naive`], [`extended_chase`] against
//! [`extended_chase_naive`]. Both production engines are sequential.
//! [`chase_plain`] replays the naive agenda order exactly where
//! [`order_replay_exact`] holds, order being the plain system's
//! semantics. [`extended_chase`] needs **no event-order replay at
//! all**: Theorem 4(a) makes the closure order-insensitive, and it
//! keeps a discovery/apply phase alternation only so its round count is
//! a pure function of the engine state.
//!
//! The two systems part only where constants conflict: on a weakly
//! satisfiable instance every order of the plain rules reaches the
//! extended closure. So a [`crate::update::Database`] write runs the
//! extended chase's engine once, for its weak check and its internal
//! acquisition, and no plain chase; it is the one place that records
//! the engine's rounds and unions (`cell_chase_rounds`,
//! `cell_chase_unions`).
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
mod worklist;

use cells::CellEngine;
pub use cells::{extended_chase, extended_chase_naive, ChaseOutcome};
pub use index::{chase_plain, is_minimally_incomplete, order_replay_exact};
pub use ns::{chase_naive, is_minimally_incomplete_naive, NsChaseResult, NsEvent, NsEventKind};

use crate::fd::FdSet;
use fdi_relation::instance::Instance;

/// Theorem 4(b): `F` is weakly satisfiable in `r` iff the extended chase
/// leaves no `nothing` value.
///
/// Like the theorem itself, this is exact under the large-domain proviso:
/// the chase treats domains as if a fresh value were always available.
/// Under tight finite domains it can accept an instance that no
/// completion satisfies. [`crate::subst::detect_domain_exhaustion`]
/// finds the paper's `[F2]` sites, but finding none does not rule that
/// out (ROADMAP direction 5).
///
/// Runs [`extended_chase`]'s engine and reads the `nothing` count off
/// the fixpoint partition without materializing the chased instance.
/// A [`crate::update::Database`] write runs the same engine itself, so
/// that one run also supplies internal acquisition.
pub fn weakly_satisfiable_via_chase(fds: &FdSet, instance: &Instance) -> bool {
    let mut engine = CellEngine::new(instance);
    engine.run(fds);
    engine.nothing_classes() == 0
}
