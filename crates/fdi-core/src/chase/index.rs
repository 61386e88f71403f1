//! The indexed worklist engine for the plain NS-rules.
//!
//! The naive engine in [`super::ns`] re-scans every tuple pair for every
//! FD on every pass — `O(|F|·n²)` agreement checks per pass and an
//! `O(n·p)` full-instance scan per substitution, `O(|F|·n³)` in the
//! worst case. This engine runs instead on the shared dirty-bucket
//! worklist (see the [`super`] docs), keyed by the NEC-canonical atoms
//! of [`crate::groupkey`], plus an **occurrence list** per NEC class:
//! every `(row, attr)` cell holding a null of the class, so
//! substituting a class touches only its occurrences. Plain NS-rule
//! applications transform whole NEC classes at once, so whether a tuple
//! pair can fire (equal constants / distinct constants / one null / two
//! classes) does not change through events elsewhere — new work appears
//! only in buckets that the worklist re-keys.
//!
//! Within a bucket, a single ascending **representative sweep** per
//! dependent attribute applies every NS-rule the naive engine would
//! apply across all `O(|bucket|²)` pairs: nulls merge into the running
//! class, and the first constant promotes it (later nulls pair against
//! the earliest constant-bearing row, exactly as the pair scan does).
//!
//! # Order fidelity (the column-local-NEC restriction)
//!
//! The plain system is not confluent (Figure 5), so matching the naive
//! engine's *result* — not just reaching some minimally incomplete
//! instance — requires replaying its site order: passes, FDs in set
//! order within a pass, buckets by least member row, rows ascending
//! within a bucket. On instances whose NEC classes are **column-local**
//! and which contain no `nothing` values, the replay is exact: same
//! chased instance, same events at the same sites, same pass count (the
//! property suite compares full event lists). [`order_replay_exact`]
//! tests an instance for the restriction, and the `fdi-gen` generators
//! debug-assert their workloads satisfy it. Two regimes are exempt from
//! exact replay — in both, each engine still returns a legitimate chase
//! result (the fixpoint of *some* rule order, accepted by
//! [`is_minimally_incomplete`]), but the choice at contended sites may
//! differ:
//!
//! * an NEC class spanning **columns** (a marked null like `?z` reused
//!   across columns — `Instance::parse` allows this; every generator
//!   keeps classes column-local): a substitution can then re-key the
//!   very FD being swept mid-flight. The fixpoint still holds, since
//!   every re-keyed bucket re-enters the worklist (see the cross-column
//!   regression test);
//! * a **`nothing`** value in a bucket (the plain rules treat it as
//!   inert): the bucket's first applicable site may then involve later
//!   rows than its least member, so the least-member agenda order can
//!   interleave buckets differently than the global pair scan (see the
//!   nothing-divergence regression test). `nothing` belongs to the
//!   extended system; the plain chase merely tolerates it.

use crate::fd::FdSet;
use crate::groupkey::{self, GroupKey};
use fdi_relation::attrs::AttrId;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::value::{NullId, Value};
use std::collections::HashMap;

use super::ns::{NsChaseResult, NsEvent, NsEventKind};
use super::worklist::{BucketIndex, FdSlot, Site};

/// Chases `instance` with the plain NS-rules until no rule applies,
/// processing FDs in set order within each pass, on the indexed
/// worklist engine; [`super::ns::chase_naive`] is the all-pairs
/// reference implementation. The engine is sequential: the chased
/// instance, the events at their sites and the pass count are a pure
/// function of the instance and the FD order, whether or not
/// [`order_replay_exact`] holds (it governs fidelity to the *naive*
/// engine, not to this one).
pub fn chase_plain(instance: &Instance, fds: &FdSet) -> NsChaseResult {
    let mut engine = Engine::new(instance, fds);
    let passes = engine.run(instance);
    NsChaseResult {
        instance: engine.work,
        events: engine.events,
        passes,
    }
}

/// Is no plain NS-rule applicable — is `instance` minimally incomplete
/// under `fds`? Groups rows by their determinant key, `O(|F|·n·p)`,
/// where [`super::ns::is_minimally_incomplete_naive`] (the pairwise
/// definition) scans pairs: a bucket violates minimal incompleteness
/// iff some dependent column mixes a null with a constant or holds two
/// distinct null classes.
pub fn is_minimally_incomplete(instance: &Instance, fds: &FdSet) -> bool {
    let snapshot = instance.necs().canonical_snapshot();
    for fd in fds {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue; // agreement on X forces agreement on Y ⊆ X
        }
        let buckets = groupkey::group_rows(instance, fd.lhs, &snapshot, false);
        for rows in buckets.values() {
            if rows.len() < 2 {
                continue;
            }
            for b in fd.rhs.iter() {
                let mut seen_const: Option<Symbol> = None;
                let mut seen_class: Option<NullId> = None;
                for &row in rows {
                    match instance.value(row, b) {
                        Value::Nothing => {}
                        Value::Const(c) => {
                            if seen_class.is_some() {
                                return false; // rule (a): substitution applies
                            }
                            seen_const = seen_const.or(Some(c));
                        }
                        Value::Null(m) => {
                            if seen_const.is_some() {
                                return false; // rule (a)
                            }
                            let root = snapshot.root(m);
                            match seen_class {
                                Some(prior) if prior != root => return false, // rule (b)
                                _ => seen_class = Some(root),
                            }
                        }
                    }
                }
            }
        }
    }
    true
}

/// `true` iff [`chase_plain`] is guaranteed to replay
/// [`super::ns::chase_naive`] exactly on `instance` — same chased
/// instance, events, and pass count: every NEC class stays within one
/// column and no cell holds `nothing` (the two exempt regimes of the
/// module docs).
///
/// `false` does **not** make [`chase_plain`] wrong: both engines still
/// reach a fixpoint of the plain rules (a minimally incomplete
/// instance), but they may make different choices at contended sites
/// (Figure 5's order dependence).
pub fn order_replay_exact(instance: &Instance) -> bool {
    let snapshot = instance.necs().canonical_snapshot();
    let mut class_col: HashMap<NullId, AttrId> = HashMap::new();
    let all = instance.schema().all_attrs();
    for row in instance.row_ids() {
        for attr in all.iter() {
            match instance.value(row, attr) {
                Value::Nothing => return false,
                Value::Null(n) => {
                    if *class_col.entry(snapshot.root(n)).or_insert(attr) != attr {
                        return false;
                    }
                }
                Value::Const(_) => {}
            }
        }
    }
    true
}

struct Engine {
    work: Instance,
    index: BucketIndex,
    /// NEC class root → null occurrences `(row, attr)` of the class.
    occurrences: HashMap<u32, Vec<Site>>,
    events: Vec<NsEvent>,
}

impl Engine {
    /// Builds the engine over the live rows: each null joins its
    /// class's occurrence list (`(row, col)`-major), and each FD slot
    /// files every row under its NEC-canonical determinant key.
    fn new(instance: &Instance, fds: &FdSet) -> Engine {
        let mut work = instance.clone();
        let arity = work.arity();
        let snapshot = work.necs().canonical_snapshot();

        // Classes are keyed by snapshot root, which equals the
        // union–find root `find` would return (compression changes
        // parents, never roots).
        let mut occurrences: HashMap<u32, Vec<Site>> = HashMap::new();
        for (row, tuple) in work.iter_live() {
            for col in 0..arity {
                if let Value::Null(id) = tuple.get(AttrId(col as u16)) {
                    occurrences
                        .entry(snapshot.root(id).0)
                        .or_default()
                        .push((row, col as u16));
                }
            }
        }
        let live: Vec<RowId> = work.row_ids().collect();
        let index = BucketIndex::build(fds, arity, work.slot_bound(), &live, |row, a| {
            groupkey::atom(work.value(row, a), row, &snapshot)
        });

        // One `find` per live null compresses the working NEC forest,
        // so the root lookups of rule application stay one hop (the
        // compressed forest does not depend on the order of the finds).
        for occs in occurrences.values() {
            for &(row, col) in occs {
                if let Value::Null(id) = work.value(row, AttrId(col)) {
                    work.necs_mut().find(id);
                }
            }
        }
        Engine {
            work,
            index,
            occurrences,
            events: Vec::new(),
        }
    }

    /// Runs passes to the fixpoint; returns the pass count (the final
    /// pass applies nothing, mirroring the naive engine's counter).
    fn run(&mut self, original: &Instance) -> usize {
        let mut passes = 0;
        loop {
            passes += 1;
            let before = self.events.len();
            for si in 0..self.index.slots().len() {
                // Keys are re-checked on use: sweeps migrate buckets of
                // *other* FDs freely, and (with cross-column NEC classes)
                // occasionally this one.
                for (_, key) in &self.index.agenda(si, passes == 1) {
                    self.sweep_bucket(si, key);
                }
            }
            if self.events.len() == before {
                break;
            }
            assert!(
                passes <= original.null_count() + original.len() * original.arity() + 2,
                "indexed chase failed to terminate"
            );
        }
        passes
    }

    /// Applies every applicable NS-rule within one bucket: for each
    /// dependent attribute, an ascending sweep merging nulls into the
    /// running class and promoting on the first constant — the same
    /// events the naive pair scan fires at this bucket's sites.
    fn sweep_bucket(&mut self, si: usize, key: &GroupKey) {
        let Some(rows) = self.index.rows(si, key) else {
            return; // migrated away since the agenda was drawn
        };
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        let FdSlot { original_index, fd } = self.index.slots()[si];
        for attr in fd.rhs.iter() {
            let mut anchor_const: Option<RowId> = None;
            let mut pending_null: Option<(RowId, NullId)> = None;
            for &row in &rows {
                match self.work.value(row, attr) {
                    Value::Nothing => {}
                    Value::Const(value) => {
                        if anchor_const.is_none() {
                            anchor_const = Some(row);
                            if let Some((null_row, class)) = pending_null.take() {
                                self.substitute(class, value);
                                self.push_event(
                                    original_index,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::Substituted { class, value },
                                );
                                // The promoted pending row now holds the
                                // constant and precedes this row, so it is
                                // the site the naive pair scan pairs later
                                // nulls against.
                                anchor_const = Some(null_row);
                            }
                        }
                        // A second, distinct constant is where the plain
                        // system is stuck (the extended system's case).
                    }
                    Value::Null(id) => {
                        if let Some(const_row) = anchor_const {
                            let value = match self.work.value(const_row, attr) {
                                Value::Const(c) => c,
                                _ => unreachable!("anchor row holds a constant"),
                            };
                            self.substitute(id, value);
                            self.push_event(
                                original_index,
                                const_row,
                                row,
                                attr,
                                NsEventKind::Substituted { class: id, value },
                            );
                        } else if let Some((null_row, prior)) = pending_null {
                            if !self.work.necs().same_class(prior, id) {
                                self.merge(prior, id);
                                self.push_event(
                                    original_index,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::NecIntroduced { a: prior, b: id },
                                );
                            }
                        } else {
                            pending_null = Some((row, id));
                        }
                    }
                }
            }
        }
    }

    fn push_event(
        &mut self,
        fd_index: usize,
        row_a: RowId,
        row_b: RowId,
        attr: AttrId,
        kind: NsEventKind,
    ) {
        self.events.push(NsEvent {
            fd_index,
            rows: (row_a.min(row_b), row_a.max(row_b)),
            attr,
            kind,
        });
    }

    /// Rule (a): substitutes every occurrence of `id`'s class with
    /// `value`, then migrates the buckets whose keys mentioned the class.
    fn substitute(&mut self, id: NullId, value: Symbol) {
        let root = self.work.necs_mut().find(id);
        let occs = self.occurrences.remove(&root.0).unwrap_or_default();
        for &(row, col) in &occs {
            debug_assert!(matches!(self.work.value(row, AttrId(col)), Value::Null(_)));
            self.work.set_value(row, AttrId(col), Value::Const(value));
        }
        self.migrate(&occs);
    }

    /// Rule (b): introduces the NEC `a := b`, concatenates the loser
    /// class's occurrence list onto the winner's, and migrates buckets
    /// keyed by the loser class.
    fn merge(&mut self, a: NullId, b: NullId) {
        let root_a = self.work.necs_mut().find(a);
        let root_b = self.work.necs_mut().find(b);
        debug_assert_ne!(root_a, root_b);
        self.work.add_nec(a, b);
        let winner = self.work.necs_mut().find(a);
        let loser = if winner == root_a { root_b } else { root_a };
        let moved = self.occurrences.remove(&loser.0).unwrap_or_default();
        self.migrate(&moved);
        self.occurrences
            .entry(winner.0)
            .or_default()
            .extend_from_slice(&moved);
    }

    /// Re-files the buckets keyed by a class whose canonical atom just
    /// changed at the `moved` sites.
    fn migrate(&mut self, moved: &[Site]) {
        let work = &self.work;
        self.index.migrate(moved, |row, a| {
            groupkey::atom_with(work.value(row, a), row, |n| work.necs().find_readonly(n))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ns::{chase_naive, is_minimally_incomplete_naive};
    use crate::fixtures;

    fn assert_engines_agree(r: &Instance, fds: &FdSet) {
        assert!(
            order_replay_exact(r),
            "exact replay is only promised on column-local, nothing-free instances"
        );
        let naive = chase_naive(r, fds);
        let indexed = chase_plain(r, fds);
        assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "engines diverge on\n{}",
            r.render(true)
        );
        assert_eq!(naive.passes, indexed.passes, "pass counts");
        assert!(is_minimally_incomplete(&indexed.instance, fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, fds));
        // Event lists match site-for-site on single-attribute dependents;
        // multi-attribute dependents interleave attrs differently (the
        // sweep is attribute-major, the pair scan pair-major), so only
        // counts are compared there.
        if fds.iter().all(|fd| fd.normalized().rhs.len() == 1) {
            assert_eq!(naive.events, indexed.events, "event sites");
        } else {
            assert_eq!(naive.events.len(), indexed.events.len(), "event counts");
        }
    }

    #[test]
    fn engines_agree_on_every_fixture() {
        assert_engines_agree(&fixtures::figure5_instance(), &fixtures::figure5_fds());
        assert_engines_agree(
            &fixtures::figure5_instance(),
            &fixtures::figure5_fds().permuted(&[1, 0]),
        );
        assert_engines_agree(&fixtures::section6_instance(), &fixtures::section6_fds());
        assert_engines_agree(&fixtures::figure1_instance(), &fixtures::figure1_fds());
        assert_engines_agree(&fixtures::figure1_null_instance(), &fixtures::figure1_fds());
    }

    #[test]
    fn cascades_run_to_the_same_fixpoint() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_0
             A_0 B_1 -",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
        assert_engines_agree(&r, &fds);
        let result = chase_plain(&r, &fds);
        assert!(result.instance.is_complete());
    }

    #[test]
    fn class_wide_substitution_through_the_occurrence_index() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "a1 ?x c1
             a2 ?x c1
             a1 b1 c2",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert_engines_agree(&r, &fds);
        let result = chase_plain(&r, &fds);
        let b = AttrId(1);
        let r0 = result.instance.nth_row(0);
        let r1 = result.instance.nth_row(1);
        assert!(result.instance.value(r0, b).is_const());
        assert_eq!(result.instance.value(r0, b), result.instance.value(r1, b));
    }

    #[test]
    fn multi_attribute_dependents() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C", "D"], 5).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_1 -
             A_0 B_2 -   D_3
             A_1 B_0 C_0 D_0",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B, C, D").unwrap();
        assert_engines_agree(&r, &fds);
    }

    #[test]
    fn cross_column_classes_still_reach_a_fixpoint() {
        // `?z` spans columns A and B: substituting class z re-keys the
        // pending {?z, ?z} bucket of the same FD mid-pass. The engines
        // may legitimately diverge here (order choice at contended
        // sites), but the indexed engine must still reach a fixpoint —
        // a dropped re-keyed bucket once made it terminate early.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            !order_replay_exact(&r),
            "the ?z class spans columns and voids exact replay"
        );
        let indexed = chase_plain(&r, &fds);
        assert!(
            is_minimally_incomplete_naive(&indexed.instance, &fds),
            "indexed chase stopped before the fixpoint:\n{}",
            indexed.instance.render(true)
        );
        assert!(is_minimally_incomplete(&indexed.instance, &fds));
        let naive = chase_naive(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
    }

    #[test]
    fn nothing_buckets_still_reach_a_fixpoint() {
        // A `nothing` at a bucket's least row makes it inert there, so
        // the engines may pick different donors for a shared class (the
        // least-member agenda order vs the global pair order). Both
        // outcomes must be fixpoints of the plain rules.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 #!
             A_1 B_0
             A_1 ?w
             A_0 ?w
             A_0 B_1",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            !order_replay_exact(&r),
            "the `nothing` cell voids exact replay"
        );
        let naive = chase_naive(&r, &fds);
        let indexed = chase_plain(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, &fds));
        assert!(is_minimally_incomplete(&indexed.instance, &fds));
        // (The chased instances legitimately differ here: ?w gets B_0
        // from one engine and B_1 from the other — Figure 5's order
        // dependence, triggered by the inert `nothing` row.)
    }

    #[test]
    fn trivial_fds_are_inert() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 3).unwrap();
        let r = fdi_relation::Instance::parse(schema.clone(), "A_0 -\nA_0 B_1").unwrap();
        let fds = FdSet::parse(&schema, "A B -> B\nA -> B").unwrap();
        assert_engines_agree(&r, &fds);
    }
}
