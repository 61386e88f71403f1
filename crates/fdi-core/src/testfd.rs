//! TEST-FDs (Figure 3) with the null-comparison conventions of
//! Theorems 2 and 3.
//!
//! The algorithm: for every FD `X → Y`, sort the relation on `X`, scan
//! groups of `X`-equal tuples, and report a violation when a group
//! contains `Y`-unequal tuples. Null comparisons are governed by a
//! **convention**, a [`SemanticsKind`] value: the paper's
//! [`SemanticsKind::Strong`] and [`SemanticsKind::Weak`], and the
//! null-marker/NFD conventions as alternatives. The paper's two:
//!
//! * **strong** (Theorem 2, decides strong satisfiability on *any*
//!   instance): equality involving a null is positive; inequality
//!   involving a null is positive unless both are nulls of the same NEC
//!   class — i.e. every null is a *potential* matcher and a *potential*
//!   violator;
//! * **weak** (Theorem 3, decides weak satisfiability on a **minimally
//!   incomplete** instance): inequality involving a null is negative;
//!   equality involving a null is negative unless both are nulls of the
//!   same NEC class.
//!
//! Under the strong convention "equality" is not transitive (a null
//! matches two different constants that do not match each other), so
//! grouping is unsound when an FD's left side contains nulls; the
//! paper's own footnote proposes the pairwise `O(|F|·n²)` variant for
//! that case, and [`check`] falls back to it automatically. Under the
//! weak convention nulls group by NEC class, so grouping is always
//! sound.
//!
//! Variants implemented, matching Figure 3's complexity discussion:
//! hash-grouped (the bucket-sort analogue of the *Additional
//! Assumptions* paragraph, `O(|F|·n·p)` expected — [`check`]) and
//! pairwise (`O(|F|·n²)`, [`check_pairwise`]), the reference the
//! grouped engine is property-tested against. Experiment E10 times
//! both.
//!
//! ## The entry point
//!
//! [`check`] is the one engine the rest of the system goes through
//! (and what [`check_strong`] / [`check_weak`] call): the grouped
//! variant on the NEC-canonical keys of the indexed chase
//! ([`crate::groupkey`]) — one fully-compressed NEC snapshot per call,
//! packed `u64` key atoms, and a per-group linear representative scan,
//! reporting its work into a [`Recorder`]. [`pair_violates`] is the
//! pairwise predicate behind it, which strong inserts test directly.
//!
//! ## The deterministic witness contract
//!
//! [`check`] and [`check_pairwise`] report one **canonical witness** on
//! a violating instance: the least violating `(row, row)` pair
//! (ordered, lower id first) of the lowest-indexed violated FD. The
//! grouped scan gets this by folding every group's minimum (the
//! within-group representative scan returns the group's least pair)
//! instead of returning the first hit in `HashMap` iteration order, so
//! results are run-to-run deterministic and bit-identical to the
//! pairwise oracle — a `Violation` can be compared with `==` between
//! the two.

use crate::fd::{Fd, FdSet};
use crate::groupkey;
use crate::semantics::SemanticsKind;
use fdi_obs::{Counter, Recorder};
use fdi_relation::attrs::AttrSet;
use fdi_relation::instance::Instance;
use fdi_relation::nec::NecSnapshot;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use std::fmt;

/// A violation found by TEST-FDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated FD in the set.
    pub fd_index: usize,
    /// The two offending rows (stable ids, lower first).
    pub rows: (RowId, RowId),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fd#{} violated by rows {} and {}",
            self.fd_index, self.rows.0, self.rows.1
        )
    }
}

/// Projection equality on a set of attributes — the semantics'
/// agreement predicate ([`SemanticsKind::values_equal`]) folded over the
/// projection.
fn rows_equal_on(
    instance: &Instance,
    i: RowId,
    j: RowId,
    attrs: AttrSet,
    sem: SemanticsKind,
) -> bool {
    attrs
        .iter()
        .all(|a| sem.values_equal(instance.value(i, a), instance.value(j, a), instance))
}

/// Projection inequality (`∃` attribute positively unequal) — the
/// semantics' disagreement predicate ([`SemanticsKind::values_unequal`]),
/// which is NOT the negation of agreement.
fn rows_unequal_on(
    instance: &Instance,
    i: RowId,
    j: RowId,
    attrs: AttrSet,
    sem: SemanticsKind,
) -> bool {
    attrs
        .iter()
        .any(|a| sem.values_unequal(instance.value(i, a), instance.value(j, a), instance))
}

/// Pairwise TEST-FDs: every pair of tuples checked for every FD —
/// `O(|F|·n²)`, the footnoted variant that needs no sorting and is sound
/// under every semantics.
pub fn check_pairwise(
    instance: &Instance,
    fds: &FdSet,
    sem: SemanticsKind,
) -> Result<(), Violation> {
    let rows: Vec<RowId> = instance.row_ids().collect();
    for (fd_index, fd) in fds.iter().enumerate() {
        let fd = fd.normalized();
        if fd.is_trivial() {
            // Y ⊆ X holds in every instance; the conventions would
            // otherwise compare the same value for equality (in X) and
            // inequality (in Y), which Theorem 2's proof explicitly
            // excludes by assuming X ∩ Y = ∅.
            continue;
        }
        if let Some(rows) = pairwise_violation(instance, &rows, fd, sem) {
            return Err(Violation { fd_index, rows });
        }
    }
    Ok(())
}

/// The least violating pair of one non-trivial FD under the pairwise
/// predicate: pairs in ascending order (`rows` ascending), so the first
/// hit is the least — the per-FD loop of [`check_pairwise`] and the
/// strong-convention fallback of [`check`].
fn pairwise_violation(
    instance: &Instance,
    rows: &[RowId],
    fd: Fd,
    sem: SemanticsKind,
) -> Option<(RowId, RowId)> {
    for (p, &i) in rows.iter().enumerate() {
        for &j in &rows[(p + 1)..] {
            if rows_equal_on(instance, i, j, fd.lhs, sem)
                && rows_unequal_on(instance, i, j, fd.rhs, sem)
            {
                return Some((i, j));
            }
        }
    }
    None
}

/// The columns on which some live row holds a null — one `O(n·p)` scan
/// per call instead of a per-FD `instance.tuples().any(has_null_on)`:
/// an FD's determinant meets a null iff it intersects this set.
fn null_columns(instance: &Instance) -> AttrSet {
    let all = instance.schema().all_attrs();
    let mut cols = AttrSet::EMPTY;
    for t in instance.tuples() {
        for a in all.difference(cols).iter() {
            if t.get(a).is_null() {
                cols = cols.with(a);
            }
        }
        if cols == all {
            break;
        }
    }
    cols
}

/// [`null_columns`] when the semantics needs it — the scan feeds the
/// pairwise-fallback trigger, so it is gated on
/// [`SemanticsKind::needs_pairwise_fallback`]: conventions without the
/// fallback (everything but strong) get the empty set — never
/// intersecting anything — and pay nothing for the scan.
fn null_columns_for(instance: &Instance, sem: SemanticsKind) -> AttrSet {
    if sem.needs_pairwise_fallback() {
        null_columns(instance)
    } else {
        AttrSet::EMPTY
    }
}

/// Linear within-group violation scan: a group of `X`-equal rows is
/// violation-free iff, for every `Y`-attribute, its values are all one
/// constant (every convention) or all nulls of a single NEC class
/// (conventions where nulls conflict — strong and null-marker; under
/// the weak and nfd conventions nulls never violate). `nothing`
/// violates against any second row.
///
/// Returns the **least violating pair of the group** when `rows` is
/// ascending (every caller's groups are): per attribute, `nothing` rows
/// aside (see [`attr_violation`]), the scan stops at the first row `j`
/// in conflict with an earlier row, and every row before `j` is
/// conflict-free on that attribute — so the rows before `j` that `j`
/// conflicts with are mutually equivalent and the tracked
/// representative is the least of them; the per-attribute result is
/// therefore the attribute's least violating pair, and the fold takes
/// the minimum across attributes. This is the canonical-witness
/// contract of [`check`].
///
/// This is what keeps the grouped variant at `O(n·p)` per group sweep
/// instead of `O(group²)` — Figure 3's inner loop compares each tuple
/// against the group's representative, which this generalizes to the
/// null conventions.
fn group_violation(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    rhs: AttrSet,
    sem: SemanticsKind,
) -> Option<(RowId, RowId)> {
    if rows.len() < 2 {
        return None;
    }
    let mut best: Option<(RowId, RowId)> = None;
    for b in rhs.iter() {
        best = min_pair(best, attr_violation(instance, snapshot, rows, b, sem));
    }
    best
}

/// One attribute of [`group_violation`]'s scan: the least conflicting
/// pair on `b` among the (ascending, `X`-agreeing) `rows`, if any.
/// The conflict structure follows the semantics' axes: constants
/// conflict with differing constants always, with nulls when
/// [`SemanticsKind::null_const_conflicts`], and nulls conflict across NEC
/// classes when [`SemanticsKind::cross_class_nulls_conflict`].
///
/// `nothing` conflicts with every other row, so the least pair that
/// holds one is the group's first row with the first `nothing` row
/// (with the second row, if the first row holds `nothing` itself). The
/// scan of the other rows may stop at an earlier but larger pair, so
/// the result is the smaller of the two.
fn attr_violation(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    b: fdi_relation::attrs::AttrId,
    sem: SemanticsKind,
) -> Option<(RowId, RowId)> {
    let nothing = rows
        .iter()
        .position(|&r| instance.value(r, b) == Value::Nothing)
        .map(|k| (rows[0], rows[k.max(1)]));
    min_pair(nothing, value_violation(instance, snapshot, rows, b, sem))
}

/// [`attr_violation`]'s scan over the rows that do not hold `nothing`.
fn value_violation(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    b: fdi_relation::attrs::AttrId,
    sem: SemanticsKind,
) -> Option<(RowId, RowId)> {
    let pair = |a: RowId, b: RowId| Some((a.min(b), a.max(b)));
    let mut first_const: Option<(RowId, fdi_relation::symbol::Symbol)> = None;
    let mut first_null: Option<(RowId, fdi_relation::value::NullId)> = None;
    for &r in rows {
        match instance.value(r, b) {
            Value::Nothing => {}
            Value::Const(c) => {
                if let Some((r0, c0)) = first_const {
                    if c0 != c {
                        return pair(r0, r);
                    }
                } else {
                    first_const = Some((r, c));
                }
                if sem.null_const_conflicts() {
                    if let Some((rn, _)) = first_null {
                        return pair(rn, r);
                    }
                }
            }
            Value::Null(n) => {
                if sem.null_const_conflicts() {
                    if let Some((r0, _)) = first_const {
                        return pair(r0, r);
                    }
                }
                if sem.cross_class_nulls_conflict() {
                    match first_null {
                        Some((rn, m)) => {
                            if !snapshot.same_class(m, n) {
                                return pair(rn, r);
                            }
                        }
                        None => first_null = Some((r, n)),
                    }
                }
            }
        }
    }
    None
}

/// Does the pair `(i, j)` violate `fd` under `sem`? — the pairwise
/// predicate underlying every TEST-FDs variant, exposed so callers can
/// verify a reported [`Violation`] against first principles.
pub fn pair_violates(instance: &Instance, fd: Fd, i: RowId, j: RowId, sem: SemanticsKind) -> bool {
    let fd = fd.normalized();
    !fd.is_trivial()
        && rows_equal_on(instance, i, j, fd.lhs, sem)
        && rows_unequal_on(instance, i, j, fd.rhs, sem)
}

/// The smaller of two optional violating pairs (`None` = no violation;
/// `Option`'s ordering would put `None` first, hence the explicit fold).
fn min_pair(a: Option<(RowId, RowId)>, b: Option<(RowId, RowId)>) -> Option<(RowId, RowId)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Canonical violating pair of one grouped FD: every group is scanned
/// with [`group_violation`] (which returns the group's least violating
/// pair) and the least group result wins. Group iteration order does
/// not matter (min is order-insensitive), and since the groups are
/// exactly the FD's agreement classes, the fold yields the FD's least
/// violating pair outright — the same pair [`check_pairwise`]'s
/// ascending scan finds first.
fn min_grouped_violation(
    instance: &Instance,
    snapshot: &NecSnapshot,
    fd: Fd,
    sem: SemanticsKind,
) -> Option<(RowId, RowId)> {
    groupkey::group_rows(instance, fd.lhs, snapshot, sem.solitary_nulls())
        .values()
        .filter(|rows| rows.len() >= 2)
        .fold(None, |best, rows| {
            min_pair(best, group_violation(instance, snapshot, rows, fd.rhs, sem))
        })
}

/// TEST-FDs — the entry point every caller goes through: the
/// hash-grouped "bucket sort" variant of Figure 3's *Additional
/// Assumptions* paragraph on the NEC-canonical keys of
/// [`crate::groupkey`], expected `O(|F|·n·p)`.
///
/// Per FD, rows are partitioned by determinant key with
/// [`groupkey::group_rows`] and every group is scanned with the linear
/// representative check; strong-convention FDs whose determinant meets
/// a null fall back to the ascending pairwise scan (null "equality" is
/// not transitive there, so grouping would be unsound). FDs are visited
/// in set order and the first violating FD reports the **canonical
/// witness** — its least violating pair — so the result is a pure
/// function of the instance and the FD set, bit-identical to
/// [`check_pairwise`].
///
/// `rec` receives the invocation's work profile: `testfd_checks`
/// (total and per semantics), one `testfd_fallback_hits` per FD that
/// took the pairwise fallback, and `testfd_rows_scanned` as the proxy
/// `n` per non-trivial FD visited (stopping at the first violation).
/// All of them follow from the instance, the FD set and the verdict,
/// so they are deterministic.
///
/// # Example — the two conventions on Figure 1.3
///
/// ```
/// use fdi_core::fixtures;
/// use fdi_core::semantics::SemanticsKind::{Strong, Weak};
/// use fdi_core::testfd::check;
/// use fdi_obs::Recorder;
///
/// // e3's null D# *could* complete to d1, pairing its `part` contract
/// // against d1's `full` under f2: D# → CT — a potential violation the
/// // pessimistic convention reports (Theorem 2) …
/// let r = fixtures::figure1_null_instance();
/// let fds = fixtures::figure1_fds();
/// let rec = Recorder::noop();
/// let violation = check(&r, &fds, Strong, &rec).unwrap_err();
/// assert_eq!(violation.fd_index, 1);
/// // … while nothing *definitely* violates: the instance is minimally
/// // incomplete, so the optimistic convention decides weak
/// // satisfiability directly (Theorem 3).
/// assert!(check(&r, &fds, Weak, &rec).is_ok());
/// ```
pub fn check(
    instance: &Instance,
    fds: &FdSet,
    sem: SemanticsKind,
    rec: &Recorder,
) -> Result<(), Violation> {
    rec.incr(Counter::TestfdChecks);
    rec.incr(semantics_counter(sem));
    let null_cols = null_columns_for(instance, sem);
    let snapshot = instance.necs().canonical_snapshot();
    let mut all_rows: Option<Vec<RowId>> = None;
    for (fd_index, fd) in fds.iter().enumerate() {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue; // true in every instance
        }
        rec.add(Counter::TestfdRowsScanned, instance.len() as u64);
        let pair = if sem.needs_pairwise_fallback() && !fd.lhs.intersect(null_cols).is_empty() {
            rec.incr(Counter::TestfdFallbackHits);
            let rows = all_rows.get_or_insert_with(|| instance.row_ids().collect());
            pairwise_violation(instance, rows, fd, sem)
        } else {
            min_grouped_violation(instance, &snapshot, fd, sem)
        };
        if let Some(rows) = pair {
            return Err(Violation { fd_index, rows });
        }
    }
    Ok(())
}

/// The per-semantics `testfd_checks` counter of one registry kind —
/// what makes differential runs distinguishable in a
/// [`fdi_obs::MetricsSnapshot`].
fn semantics_counter(kind: SemanticsKind) -> Counter {
    match kind {
        SemanticsKind::Strong => Counter::TestfdChecksStrong,
        SemanticsKind::NullMarker => Counter::TestfdChecksNullMarker,
        SemanticsKind::Weak => Counter::TestfdChecksWeak,
        SemanticsKind::Nfd => Counter::TestfdChecksNfd,
    }
}

/// Theorem 2: strong satisfiability on any instance ([`check`], inline
/// and unrecorded).
pub fn check_strong(instance: &Instance, fds: &FdSet) -> Result<(), Violation> {
    check(instance, fds, SemanticsKind::Strong, &Recorder::noop())
}

/// Theorem 3: weak satisfiability — chases to a minimally incomplete
/// instance first (the indexed plain NS-rule engine), then applies the
/// weak convention via [`check`].
///
/// Exact under the large-domain proviso. Under tight finite domains it
/// can accept an instance that no completion satisfies, even where
/// [`crate::subst::detect_domain_exhaustion`] finds no `[F2]` site
/// (ROADMAP direction 5).
pub fn check_weak(instance: &Instance, fds: &FdSet) -> Result<(), Violation> {
    let chased = crate::chase::chase_plain(instance, fds);
    check(
        &chased.instance,
        fds,
        SemanticsKind::Weak,
        &Recorder::noop(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::interp::{
        strongly_satisfied_bruteforce, weakly_satisfiable_bruteforce, DEFAULT_BUDGET,
    };
    use fdi_relation::schema::Schema;
    use SemanticsKind::{Strong, Weak};

    fn abc(dom: usize, text: &str) -> Instance {
        Instance::parse(Schema::uniform("R", &["A", "B", "C"], dom).unwrap(), text).unwrap()
    }

    fn fds(r: &Instance, text: &str) -> FdSet {
        FdSet::parse(r.schema(), text).unwrap()
    }

    fn grouped(r: &Instance, f: &FdSet, sem: SemanticsKind) -> Result<(), Violation> {
        check(r, f, sem, &Recorder::noop())
    }

    #[test]
    fn classical_violations_found_by_all_variants() {
        let r = abc(2, "A_0 B_0 C_0\nA_0 B_1 C_0");
        let f = fds(&r, "A -> B");
        for conv in [Strong, Weak] {
            assert!(check_pairwise(&r, &f, conv).is_err());
            assert!(grouped(&r, &f, conv).is_err());
        }
    }

    #[test]
    fn strong_convention_flags_potential_violations() {
        // null B vs constant B under equal A: strongly unsatisfiable,
        // weakly fine.
        let r = abc(2, "A_0 -   C_0\nA_0 B_1 C_0");
        let f = fds(&r, "A -> B");
        assert!(check_strong(&r, &f).is_err());
        assert!(check_weak(&r, &f).is_ok());
        assert!(!strongly_satisfied_bruteforce(&f, &r, DEFAULT_BUDGET).unwrap());
        assert!(weakly_satisfiable_bruteforce(&f, &r, DEFAULT_BUDGET).unwrap());
    }

    #[test]
    fn strong_convention_matches_bruteforce_on_samples() {
        let cases = [
            (3, "A_0 B_0 C_0\nA_1 B_1 C_1", "A -> B", true),
            (3, "A_0 ?x C_0\nA_0 ?x C_0", "A -> B", true),
            (3, "A_0 -  C_0\nA_0 -  C_0", "A -> B", false),
            (3, "A_0 B_0 C_0\n-   B_1 C_0", "A -> B", false),
            (3, "A_0 B_0 C_0\nA_1 B_0 C_1", "B -> A", false),
        ];
        for (dom, text, fd_text, expected) in cases {
            let r = abc(dom, text);
            let f = fds(&r, fd_text);
            assert_eq!(
                check_strong(&r, &f).is_ok(),
                expected,
                "grouped/fallback on {text:?}"
            );
            assert_eq!(
                check_pairwise(&r, &f, Strong).is_ok(),
                expected,
                "pairwise on {text:?}"
            );
            assert_eq!(
                strongly_satisfied_bruteforce(&f, &r, DEFAULT_BUDGET).unwrap(),
                expected,
                "bruteforce on {text:?}"
            );
        }
    }

    #[test]
    fn weak_pipeline_detects_interaction_failures() {
        // §6's example: individually weak, jointly unsatisfiable — the
        // chase makes the interaction visible to the weak convention.
        let r = fixtures::section6_instance();
        let f = fixtures::section6_fds();
        assert!(check_weak(&r, &f).is_err());
        assert!(!weakly_satisfiable_bruteforce(&f, &r, DEFAULT_BUDGET).unwrap());
        // without the chase the weak convention would wrongly accept:
        assert!(check(&r, &f, SemanticsKind::Weak, &Recorder::noop()).is_ok());
    }

    #[test]
    fn weak_pipeline_accepts_satisfiable_instances() {
        let r = fixtures::figure1_null_instance();
        let f = fixtures::figure1_fds();
        assert!(check_weak(&r, &f).is_ok());
        assert!(
            check_strong(&r, &f).is_err(),
            "e2's salary could differ from e1's? \
            No — e2 is unique on E#; but D#-null of e3 can collide: check"
        );
    }

    #[test]
    fn nec_classes_equalize_nulls_in_both_conventions() {
        let r = abc(2, "A_0 ?x C_0\nA_0 ?x C_0");
        let f = fds(&r, "A -> B");
        assert!(check_strong(&r, &f).is_ok(), "same class never unequal");
        assert!(check_weak(&r, &f).is_ok());
        let r2 = abc(2, "A_0 - C_0\nA_0 - C_0");
        assert!(
            check_strong(&r2, &f).is_err(),
            "distinct classes are potential violators"
        );
    }

    #[test]
    fn figure2_r4_two_tuple_counterexample() {
        // §4: every two-tuple subrelation of r4 leaves f not-false under
        // the weak reading, but the three-tuple relation is false.
        let r4 = fixtures::figure2_r4();
        let f = FdSet::from_vec(vec![fixtures::figure2_fd(&r4)]);
        // whole relation: not weakly satisfiable (bruteforce agrees)
        assert!(!weakly_satisfiable_bruteforce(&f, &r4, DEFAULT_BUDGET).unwrap());
        // every 2-subset: weakly satisfiable
        for skip in 0..3 {
            let mut sub = Instance::new(r4.schema().clone());
            for (i, t) in r4.tuples().enumerate() {
                if i != skip {
                    sub.add_tuple(t.clone()).unwrap();
                }
            }
            assert!(
                weakly_satisfiable_bruteforce(&f, &sub, DEFAULT_BUDGET).unwrap(),
                "two-tuple subrelation skipping {skip}"
            );
        }
        // Note: check_weak (chase + weak convention) does NOT flag r4 —
        // this is exactly the [F2] domain-exhaustion blind spot the paper
        // accepts and we detect separately (subst::detect_domain_exhaustion).
        assert!(check_weak(&r4, &f).is_ok());
    }

    #[test]
    fn nothing_values_always_violate() {
        let r = abc(2, "A_0 #! C_0\nA_0 B_0 C_0");
        let f = fds(&r, "A -> B");
        assert!(check_pairwise(&r, &f, Weak).is_err());
        assert!(check_pairwise(&r, &f, Strong).is_err());
        assert!(grouped(&r, &f, Weak).is_err());
        assert!(grouped(&r, &f, Strong).is_err());
    }

    #[test]
    fn nothing_disagrees_with_a_null_under_every_convention() {
        // No completion of the null equals `nothing`, so the pair
        // violates A -> B even where nulls never conflict (weak, nfd):
        // the pairwise predicate and the grouped scan agree on it.
        let r = abc(2, "A_0 - C_0\nA_0 #! C_0");
        let f = fds(&r, "A -> B");
        for conv in SemanticsKind::ALL {
            let witness = Err(Violation {
                fd_index: 0,
                rows: (RowId(0), RowId(1)),
            });
            assert_eq!(check_pairwise(&r, &f, conv), witness, "{conv:?} pairwise");
            assert_eq!(grouped(&r, &f, conv), witness, "{conv:?} grouped");
        }
    }

    #[test]
    fn a_late_nothing_row_gives_the_least_witness() {
        // Under weak the null never conflicts, the constants conflict at
        // (1, 2), and the `nothing` at row 3 conflicts with row 0: the
        // least pair (0, 3) lies past the first constant conflict.
        let r = abc(3, "A_0 ?x C_0\nA_0 B_1 C_0\nA_0 B_2 C_0\nA_0 #! C_0");
        let f = fds(&r, "A -> B");
        let witness = Err(Violation {
            fd_index: 0,
            rows: (RowId(0), RowId(3)),
        });
        assert_eq!(check_pairwise(&r, &f, Weak), witness);
        assert_eq!(grouped(&r, &f, Weak), witness);
        for conv in SemanticsKind::ALL {
            let pairwise = check_pairwise(&r, &f, conv);
            assert_eq!(grouped(&r, &f, conv), pairwise, "{conv:?}");
        }
    }

    #[test]
    fn recorded_checks_tally_their_work() {
        // Two FDs, the first violated: the check stops there, so one
        // FD's worth of rows is scanned. Each check tallies its
        // convention's per-semantics slice as well as the total.
        let r = abc(2, "A_0 B_0 C_0\nA_0 B_1 C_0\nA_1 B_0 C_1");
        let f = fds(&r, "A -> B\nB -> C");
        let rec = Recorder::enabled();
        assert!(check(&r, &f, Strong, &rec).is_err());
        assert!(check(&r, &f, Weak, &rec).is_err());
        assert!(check(&r, &f, SemanticsKind::Nfd, &rec).is_err());
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::TestfdChecks), 3);
        assert_eq!(snap.counter(Counter::TestfdChecksStrong), 1);
        assert_eq!(snap.counter(Counter::TestfdChecksWeak), 1);
        assert_eq!(snap.counter(Counter::TestfdChecksNfd), 1);
        assert_eq!(snap.counter(Counter::TestfdRowsScanned), 3 * 3);
        assert_eq!(snap.counter(Counter::TestfdFallbackHits), 0);
    }

    #[test]
    fn nothing_on_determinants_never_groups() {
        // `nothing` matches nothing — two rows sharing `#!` on A do not
        // agree on A, so B may differ freely. The grouped variants must
        // key `nothing` per row, not as one shared atom.
        let r = abc(2, "#! B_0 C_0\n#! B_1 C_0");
        let f = fds(&r, "A -> B");
        for conv in [Strong, Weak] {
            assert!(check_pairwise(&r, &f, conv).is_ok(), "{conv:?} pairwise");
            assert!(grouped(&r, &f, conv).is_ok(), "{conv:?} grouped");
        }
    }

    #[test]
    fn grouped_agrees_with_pairwise_on_samples() {
        let samples = [
            "A_0 B_0 C_0\nA_0 B_0 C_1\nA_1 - C_0",
            "A_0 - C_0\nA_0 - C_1\n- B_1 C_0",
            "A_0 B_1 C_0\nA_1 B_1 C_1\nA_0 B_1 C_0",
            "?u B_0 C_0\n?u B_1 C_0\nA_0 B_0 C_1",
            "A_0 ?x C_0\nA_0 ?x C_0",
            "A_0 - C_0\nA_0 - C_0",
        ];
        for text in samples {
            let r = abc(2, text);
            for fd_text in ["A -> B", "A B -> C", "C -> A", "B -> C"] {
                let f = fds(&r, fd_text);
                for conv in [Strong, Weak] {
                    assert_eq!(
                        check_pairwise(&r, &f, conv).is_ok(),
                        grouped(&r, &f, conv).is_ok(),
                        "{text:?} {fd_text:?} {conv:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_witnesses_match_pairwise_and_are_genuine() {
        let samples = [
            "A_0 B_0 C_0\nA_0 B_0 C_1\nA_1 - C_0",
            "A_0 - C_0\nA_0 - C_1\n- B_1 C_0",
            "A_0 B_1 C_0\nA_1 B_1 C_1\nA_0 B_1 C_0",
            "?u B_0 C_0\n?u B_1 C_0\nA_0 B_0 C_1",
            "A_0 #! C_0\nA_0 B_0 C_0",
            "#! B_0 C_0\n#! B_1 C_0",
            "A_0 ?x C_0\nA_0 ?x C_0",
            // null determinants: the strong convention's pairwise
            // fallback
            "A_0 B_0 C_0\n- B_1 C_0\nA_1 B_0 C_1",
            "- B_0 C_0\n- B_1 C_1",
            "A_0 - C_0\nA_1 B_0 C_0",
        ];
        for text in samples {
            let r = abc(2, text);
            for fd_text in [
                "A -> B", "A -> C", "A B -> C", "B C -> A", "C -> A", "B -> C",
            ] {
                let f = fds(&r, fd_text);
                for conv in [Strong, Weak] {
                    let oracle = check_pairwise(&r, &f, conv);
                    let one = grouped(&r, &f, conv);
                    assert_eq!(oracle, one, "witness {text:?} {fd_text:?} {conv:?}");
                    // a reported violation is genuine under the
                    // pairwise predicate
                    if let Err(v) = one {
                        let fd = f.fds()[v.fd_index];
                        assert!(
                            pair_violates(&r, fd, v.rows.0, v.rows.1, conv),
                            "bogus violation {v} on {text:?}"
                        );
                    }
                }
            }
        }
    }
}
