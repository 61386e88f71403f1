//! TEST-FDs (Figure 3) with the null-comparison conventions of
//! Theorems 2 and 3.
//!
//! The algorithm: for every FD `X → Y`, sort the relation on `X`, scan
//! groups of `X`-equal tuples, and report a violation when a group
//! contains `Y`-unequal tuples. Null comparisons are governed by a
//! **convention** — every variant here is generic over
//! [`crate::semantics::Semantics`], with the zero-sized [`Strong`] and
//! [`Weak`] impls as the paper's instances and the null-marker/NFD
//! conventions as alternatives. The paper's two:
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
//! matches two different constants that do not match each other), so the
//! sorted variant is unsound when an FD's left side contains nulls; the
//! paper's own footnote proposes the pairwise `O(|F|·n²)` variant for
//! that case, and [`check_sorted`] falls back to it automatically. Under
//! the weak convention nulls sort as distinct atoms (classes kept
//! adjacent), so sorting is always sound.
//!
//! Variants implemented, matching Figure 3's complexity discussion:
//! pairwise (`O(|F|·n²)`), hash-grouped (the bucket-sort analogue,
//! `O(|F|·n·p)` expected — the production path behind [`check`]),
//! sorted (`O(|F|·n·log n)`, [`check_sorted`]), and the linear scan for
//! a single FD over a pre-sorted relation ([`check_single_presorted`]).
//! The sorted and presorted variants reproduce Figure 3 for the scaling
//! experiments; the pairwise one is the reference the others are
//! property-tested against.
//!
//! ## The entry point
//!
//! [`check`] is the one entry point the rest of the system goes through
//! (and what [`check_strong`] / [`check_weak`] call): the grouped
//! variant on the NEC-canonical keys of the indexed chase
//! ([`crate::groupkey`]) — one fully-compressed NEC snapshot per call,
//! packed `u64` key atoms, and a per-group linear representative scan,
//! reporting its work into a [`Recorder`]. The
//! strong-convention-with-null-determinant fallback to pairwise is
//! preserved — under the pessimistic convention null "equality" is not
//! transitive, so grouping is unsound there and the paper's footnoted
//! `O(|F|·n²)` variant is the only correct choice.
//!
//! ## The deterministic witness contract
//!
//! Every variant — pairwise, sorted, and [`check`] — reports one
//! **canonical witness** on a violating instance: the least
//! violating `(row, row)` pair (ordered, lower id first) of the
//! lowest-indexed violated FD. The grouped scans get this by folding
//! every group's minimum (the within-group representative scan returns
//! the group's least pair) instead of returning the first hit in
//! `HashMap` iteration order, so results are run-to-run deterministic
//! and bit-identical across variants — a `Violation` can be compared
//! with `==` between any two of them.

use crate::fd::{Fd, FdSet};
use crate::groupkey;
use crate::semantics::{Semantics, Strong, Weak};
use fdi_obs::{Counter, Recorder};
use fdi_relation::attrs::AttrSet;
use fdi_relation::instance::Instance;
use fdi_relation::nec::NecSnapshot;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use std::cmp::Ordering;
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
/// agreement predicate ([`Semantics::values_equal`]) folded over the
/// projection.
fn rows_equal_on<S: Semantics>(
    instance: &Instance,
    i: RowId,
    j: RowId,
    attrs: AttrSet,
    sem: S,
) -> bool {
    attrs
        .iter()
        .all(|a| sem.values_equal(instance.value(i, a), instance.value(j, a), instance))
}

/// Projection inequality (`∃` attribute positively unequal) — the
/// semantics' disagreement predicate ([`Semantics::values_unequal`]),
/// which is NOT the negation of agreement.
fn rows_unequal_on<S: Semantics>(
    instance: &Instance,
    i: RowId,
    j: RowId,
    attrs: AttrSet,
    sem: S,
) -> bool {
    attrs
        .iter()
        .any(|a| sem.values_unequal(instance.value(i, a), instance.value(j, a), instance))
}

/// Pairwise TEST-FDs: every pair of tuples checked for every FD —
/// `O(|F|·n²)`, the footnoted variant that needs no sorting and is sound
/// under every semantics.
pub fn check_pairwise<S: Semantics>(
    instance: &Instance,
    fds: &FdSet,
    sem: S,
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
fn pairwise_violation<S: Semantics>(
    instance: &Instance,
    rows: &[RowId],
    fd: Fd,
    sem: S,
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

/// Sort key for one value under a semantics' agreement classes:
/// constants order by symbol, null classes by representative; nulls
/// sort after constants ("null values have the lowest precedence" —
/// the paper sorts them first; either end works, the group structure is
/// what matters). `nothing` keys by row — the inconsistent element
/// matches nothing, so no two rows may ever be grouped through it —
/// and under semantics whose nulls never agree
/// ([`Semantics::solitary_nulls`]) a null keys by row too.
///
/// Null classes resolve through the caller's fully-compressed
/// [`NecSnapshot`] — one `O(1)` array read — rather than an
/// uncompressed parent-chain walk per value per comparison.
fn sort_key<S: Semantics>(v: Value, row: RowId, snapshot: &NecSnapshot, sem: S) -> (u8, u32) {
    match v {
        Value::Const(s) => (0, s.0),
        Value::Null(n) if sem.class_nulls_agree() => (1, snapshot.root(n).0),
        Value::Null(_) => (3, row.0),
        Value::Nothing => (2, row.0),
    }
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
/// [`Semantics::needs_pairwise_fallback`]: conventions without the
/// fallback (everything but strong) get the empty set — never
/// intersecting anything — and pay nothing for the scan.
fn null_columns_for<S: Semantics>(instance: &Instance, sem: S) -> AttrSet {
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
/// This is what keeps the sorted and grouped variants at `O(n·p)` per
/// group sweep instead of `O(group²)` — Figure 3's inner loop compares each
/// tuple against the group's representative, which this generalizes to
/// the null conventions.
fn group_violation<S: Semantics>(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    rhs: AttrSet,
    sem: S,
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
/// [`Semantics::null_const_conflicts`], and nulls conflict across NEC
/// classes when [`Semantics::cross_class_nulls_conflict`].
///
/// `nothing` conflicts with every other row, so the least pair that
/// holds one is the group's first row with the first `nothing` row
/// (with the second row, if the first row holds `nothing` itself). The
/// scan of the other rows may stop at an earlier but larger pair, so
/// the result is the smaller of the two.
fn attr_violation<S: Semantics>(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    b: fdi_relation::attrs::AttrId,
    sem: S,
) -> Option<(RowId, RowId)> {
    let nothing = rows
        .iter()
        .position(|&r| instance.value(r, b) == Value::Nothing)
        .map(|k| (rows[0], rows[k.max(1)]));
    min_pair(nothing, value_violation(instance, snapshot, rows, b, sem))
}

/// [`attr_violation`]'s scan over the rows that do not hold `nothing`.
fn value_violation<S: Semantics>(
    instance: &Instance,
    snapshot: &NecSnapshot,
    rows: &[RowId],
    b: fdi_relation::attrs::AttrId,
    sem: S,
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

/// Compares two rows on `X` by their agreement-class sort keys.
fn cmp_on<S: Semantics>(
    instance: &Instance,
    i: RowId,
    j: RowId,
    attrs: AttrSet,
    snapshot: &NecSnapshot,
    sem: S,
) -> Ordering {
    for a in attrs.iter() {
        let ka = sort_key(instance.value(i, a), i, snapshot, sem);
        let kb = sort_key(instance.value(j, a), j, snapshot, sem);
        match ka.cmp(&kb) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Sorted TEST-FDs — the literal Figure 3 algorithm, `O(|F|·n·log n)`.
///
/// Sound outright for every semantics whose determinant agreement is
/// transitive (weak, null-marker, nfd); for the strong convention it
/// automatically falls back to [`check_pairwise`] for any FD whose left
/// side contains a null somewhere in the instance (the paper's
/// footnote). Reports the canonical witness of [`check`]'s contract:
/// the least violating pair of the lowest violated FD.
pub fn check_sorted<S: Semantics>(
    instance: &Instance,
    fds: &FdSet,
    sem: S,
) -> Result<(), Violation> {
    let rows: Vec<RowId> = instance.row_ids().collect();
    let n = rows.len();
    let snapshot = instance.necs().canonical_snapshot();
    let null_cols = null_columns_for(instance, sem);
    let mut order: Vec<RowId> = Vec::with_capacity(n);
    for (fd_index, fd) in fds.iter().enumerate() {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue; // true in every instance
        }
        if sem.needs_pairwise_fallback() && !fd.lhs.intersect(null_cols).is_empty() {
            // Null "equality" is not transitive: grouping by sort is
            // unsound. Use the pairwise variant for this FD.
            check_pairwise(instance, &FdSet::from_vec(vec![fd]), sem).map_err(|v| Violation {
                fd_index,
                rows: v.rows,
            })?;
            continue;
        }
        order.clear();
        order.extend(rows.iter().copied());
        order.sort_by(|&i, &j| cmp_on(instance, i, j, fd.lhs, &snapshot, sem));
        // Scan each group of X-equal rows with the linear per-attribute
        // representative check, folding the per-group minima so the
        // reported pair is the FD's least (groups are ascending — the
        // sort is stable over the ascending `rows`).
        let mut best: Option<(RowId, RowId)> = None;
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n
                && cmp_on(instance, order[start], order[end], fd.lhs, &snapshot, sem)
                    == Ordering::Equal
            {
                end += 1;
            }
            best = min_pair(
                best,
                group_violation(instance, &snapshot, &order[start..end], fd.rhs, sem),
            );
            start = end;
        }
        if let Some(rows) = best {
            return Err(Violation { fd_index, rows });
        }
    }
    Ok(())
}

/// Does the pair `(i, j)` violate `fd` under `sem`? — the pairwise
/// predicate underlying every TEST-FDs variant, exposed so callers can
/// verify a reported [`Violation`] against first principles.
pub fn pair_violates<S: Semantics>(
    instance: &Instance,
    fd: Fd,
    i: RowId,
    j: RowId,
    sem: S,
) -> bool {
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
fn min_grouped_violation<S: Semantics>(
    instance: &Instance,
    snapshot: &NecSnapshot,
    fd: Fd,
    sem: S,
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
/// use fdi_core::semantics::{Strong, Weak};
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
pub fn check<S: Semantics>(
    instance: &Instance,
    fds: &FdSet,
    sem: S,
    rec: &Recorder,
) -> Result<(), Violation> {
    rec.incr(Counter::TestfdChecks);
    rec.incr(semantics_counter(sem.kind()));
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
fn semantics_counter(kind: crate::semantics::SemanticsKind) -> Counter {
    use crate::semantics::SemanticsKind;
    match kind {
        SemanticsKind::Strong => Counter::TestfdChecksStrong,
        SemanticsKind::NullMarker => Counter::TestfdChecksNullMarker,
        SemanticsKind::Weak => Counter::TestfdChecksWeak,
        SemanticsKind::Nfd => Counter::TestfdChecksNfd,
    }
}

/// Linear scan for a single FD over a relation already sorted on `X`
/// (Figure 3: "if there is only one dependency (e.g. BCNF with one key)
/// and the relation is already sorted, the test requires linear time").
///
/// `order` must sort the rows by `X` under the weak keys; adjacent rows
/// only are compared, which is exact when every `X`-group's `Y`-values
/// are constants (the BCNF-with-one-key regime) and conservative
/// otherwise.
pub fn check_single_presorted<S: Semantics>(
    instance: &Instance,
    fd: Fd,
    sem: S,
    order: &[RowId],
) -> Result<(), Violation> {
    let fd = fd.normalized();
    if fd.is_trivial() {
        return Ok(());
    }
    for w in order.windows(2) {
        let (i, j) = (w[0], w[1]);
        if rows_equal_on(instance, i, j, fd.lhs, sem)
            && rows_unequal_on(instance, i, j, fd.rhs, sem)
        {
            return Err(Violation {
                fd_index: 0,
                rows: (i.min(j), i.max(j)),
            });
        }
    }
    Ok(())
}

/// Produces an order sorting rows by `X` under the weak-convention
/// keys (for [`check_single_presorted`] and the benchmarks).
pub fn sort_order(instance: &Instance, fd: Fd) -> Vec<RowId> {
    let fd = fd.normalized();
    let snapshot = instance.necs().canonical_snapshot();
    let mut order: Vec<RowId> = instance.row_ids().collect();
    order.sort_by(|&i, &j| cmp_on(instance, i, j, fd.lhs, &snapshot, Weak));
    order
}

/// Theorem 2: strong satisfiability on any instance ([`check`], inline
/// and unrecorded).
pub fn check_strong(instance: &Instance, fds: &FdSet) -> Result<(), Violation> {
    check(instance, fds, Strong, &Recorder::noop())
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
    check(&chased.instance, fds, Weak, &Recorder::noop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::interp::{
        strongly_satisfied_bruteforce, weakly_satisfiable_bruteforce, DEFAULT_BUDGET,
    };
    use crate::semantics::SemanticsKind;
    use fdi_relation::schema::Schema;

    fn abc(dom: usize, text: &str) -> Instance {
        Instance::parse(Schema::uniform("R", &["A", "B", "C"], dom).unwrap(), text).unwrap()
    }

    fn fds(r: &Instance, text: &str) -> FdSet {
        FdSet::parse(r.schema(), text).unwrap()
    }

    fn grouped<S: Semantics>(r: &Instance, f: &FdSet, sem: S) -> Result<(), Violation> {
        check(r, f, sem, &Recorder::noop())
    }

    #[test]
    fn classical_violations_found_by_all_variants() {
        let r = abc(2, "A_0 B_0 C_0\nA_0 B_1 C_0");
        let f = fds(&r, "A -> B");
        for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
            assert!(check_pairwise(&r, &f, conv).is_err());
            assert!(check_sorted(&r, &f, conv).is_err());
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
                "sorted/fallback on {text:?}"
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
        assert!(check_sorted(&r, &f, Weak).is_ok());
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
    fn sorted_and_pairwise_and_grouped_agree_weak() {
        let samples = [
            "A_0 B_0 C_0\nA_0 B_0 C_1\nA_1 - C_0",
            "A_0 - C_0\nA_0 - C_1\n- B_1 C_0",
            "A_0 B_1 C_0\nA_1 B_1 C_1\nA_0 B_1 C_0",
            "?u B_0 C_0\n?u B_1 C_0\nA_0 B_0 C_1",
        ];
        for text in samples {
            let r = abc(2, text);
            for fd_text in ["A -> B", "A B -> C", "C -> A"] {
                let f = fds(&r, fd_text);
                let a = check_pairwise(&r, &f, Weak).is_ok();
                let b = check_sorted(&r, &f, Weak).is_ok();
                let c = grouped(&r, &f, Weak).is_ok();
                assert_eq!(a, b, "{text:?} {fd_text:?}");
                assert_eq!(a, c, "{text:?} {fd_text:?}");
            }
        }
    }

    #[test]
    fn sorted_and_pairwise_agree_strong_via_fallback() {
        let samples = [
            "A_0 B_0 C_0\n- B_1 C_0\nA_1 B_0 C_1",
            "- B_0 C_0\n- B_1 C_1",
            "A_0 - C_0\nA_1 B_0 C_0",
        ];
        for text in samples {
            let r = abc(2, text);
            for fd_text in ["A -> B", "A -> C", "B C -> A"] {
                let f = fds(&r, fd_text);
                let a = check_pairwise(&r, &f, Strong).is_ok();
                let b = check_sorted(&r, &f, Strong).is_ok();
                let c = grouped(&r, &f, Strong).is_ok();
                assert_eq!(a, b, "{text:?} {fd_text:?}");
                assert_eq!(a, c, "{text:?} {fd_text:?}");
            }
        }
    }

    #[test]
    fn single_presorted_linear_scan() {
        let r = abc(2, "A_0 B_0 C_0\nA_1 B_0 C_0\nA_0 B_0 C_1");
        let f = Fd::parse(r.schema(), "A -> C").unwrap();
        let order = sort_order(&r, f);
        assert!(check_single_presorted(&r, f, Weak, &order).is_err());
        let ok = abc(2, "A_0 B_0 C_0\nA_1 B_0 C_1");
        let order_ok = sort_order(&ok, f);
        assert!(check_single_presorted(&ok, f, Weak, &order_ok).is_ok());
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
        assert_eq!(check_sorted(&r, &f, Weak), witness);
        for conv in SemanticsKind::ALL {
            let pairwise = check_pairwise(&r, &f, conv);
            assert_eq!(grouped(&r, &f, conv), pairwise, "{conv:?}");
            assert_eq!(check_sorted(&r, &f, conv), pairwise, "{conv:?}");
        }
    }

    #[test]
    fn recorded_checks_tally_their_work() {
        // Two FDs, the first violated: the check stops there, so one
        // FD's worth of rows is scanned. The zero-sized conventions
        // tally the same per-semantics slices as their kinds.
        let r = abc(2, "A_0 B_0 C_0\nA_0 B_1 C_0\nA_1 B_0 C_1");
        let f = fds(&r, "A -> B\nB -> C");
        let rec = Recorder::enabled();
        assert!(check(&r, &f, Strong, &rec).is_err());
        assert!(check(&r, &f, SemanticsKind::Strong, &rec).is_err());
        assert!(check(&r, &f, Weak, &rec).is_err());
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::TestfdChecks), 3);
        assert_eq!(snap.counter(Counter::TestfdChecksStrong), 2);
        assert_eq!(snap.counter(Counter::TestfdChecksWeak), 1);
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
        for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
            assert!(check_pairwise(&r, &f, conv).is_ok(), "{conv:?} pairwise");
            assert!(grouped(&r, &f, conv).is_ok(), "{conv:?} grouped");
            assert!(check_sorted(&r, &f, conv).is_ok(), "{conv:?} sorted");
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
                for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
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
        ];
        for text in samples {
            let r = abc(2, text);
            for fd_text in ["A -> B", "A B -> C", "C -> A", "B -> C"] {
                let f = fds(&r, fd_text);
                for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
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
