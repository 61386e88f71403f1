//! The plain NS-rule engine (Definition 2): order-dependent null
//! substitution.
//!
//! Both engines work in passes, in the style of the paper's complexity
//! analysis ("the NS-rules are applied in several passes; in each pass,
//! all NS-rules are applied for as many tuples as possible"). Rule order
//! is the order of the FD set — permute the set (see
//! [`crate::fd::FdSet::permuted`]) to reproduce Figure 5's
//! non-confluence.
//!
//! Substituting a null replaces **every** occurrence of its NEC class
//! (the paper: "requires the equation of Y-values in possibly more than
//! one tuple (same equivalence class)").
//!
//! [`chase_plain`](super::chase_plain) and
//! [`is_minimally_incomplete`](super::is_minimally_incomplete) are backed
//! by the indexed worklist engine of [`super::index`]: rows are
//! hash-partitioned per FD by the NEC-canonical key of their determinant
//! ([`crate::groupkey`]), rule partners come from bucket co-membership
//! instead of pair scans, substitutions walk per-class occurrence lists
//! instead of the whole instance, and after the seeding pass only
//! buckets whose membership changed are re-swept. The historical
//! all-pairs engine is kept as [`chase_naive`] /
//! [`is_minimally_incomplete_naive`] — the executable definition the
//! indexed engine is property-tested against (identical instances,
//! events, and pass counts on column-local-NEC, `nothing`-free
//! instances; see the module docs of [`super::index`] for the two
//! exempt regimes, where each engine still returns a valid chase
//! result).

use crate::fd::FdSet;
use fdi_relation::attrs::AttrId;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::value::{NullId, Value};
use std::fmt;

/// What a single NS-rule application did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsEventKind {
    /// Rule (a): a null class was substituted with a constant.
    Substituted {
        /// Representative of the substituted class.
        class: NullId,
        /// The donated constant.
        value: Symbol,
    },
    /// Rule (b): two null classes were merged by a new NEC.
    NecIntroduced {
        /// One side of the constraint.
        a: NullId,
        /// The other side.
        b: NullId,
    },
}

/// One NS-rule application, for the chase trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsEvent {
    /// Index of the triggering FD in the set.
    pub fd_index: usize,
    /// The two rows that agreed on `X` (stable ids, lower first).
    pub rows: (RowId, RowId),
    /// The `Y`-attribute acted upon.
    pub attr: AttrId,
    /// The action taken.
    pub kind: NsEventKind,
}

impl fmt::Display for NsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NsEventKind::Substituted { class, value } => write!(
                f,
                "fd#{} rows ({},{}) attr {}: {class} := {value}",
                self.fd_index, self.rows.0, self.rows.1, self.attr.0
            ),
            NsEventKind::NecIntroduced { a, b } => write!(
                f,
                "fd#{} rows ({},{}) attr {}: NEC {a} := {b}",
                self.fd_index, self.rows.0, self.rows.1, self.attr.0
            ),
        }
    }
}

/// Result of a plain chase.
#[derive(Debug, Clone)]
pub struct NsChaseResult {
    /// The minimally incomplete instance reached.
    pub instance: Instance,
    /// Every rule application, in order.
    pub events: Vec<NsEvent>,
    /// Number of passes over the rule set (the last pass applies
    /// nothing).
    pub passes: usize,
}

/// Substitutes every null of `class` (NEC-equivalent occurrences
/// included) with `value`.
fn substitute_class(instance: &mut Instance, class: NullId, value: Symbol) {
    let arity = instance.arity();
    let rows: Vec<RowId> = instance.row_ids().collect();
    for row in rows {
        for col in 0..arity {
            let attr = AttrId(col as u16);
            if let Value::Null(n) = instance.value(row, attr) {
                if instance.necs().same_class(n, class) {
                    instance.set_value(row, attr, Value::Const(value));
                }
            }
        }
    }
}

/// Runs one pass: applies every applicable plain NS-rule once per
/// (fd, pair, attribute) site, re-reading the instance as it changes.
/// Returns the events of the pass.
fn pass(instance: &mut Instance, fds: &FdSet) -> Vec<NsEvent> {
    let mut events = Vec::new();
    let rows: Vec<RowId> = instance.row_ids().collect();
    let n = rows.len();
    for (fd_index, fd) in fds.iter().enumerate() {
        let fd = fd.normalized();
        for a in 0..n {
            for b in (a + 1)..n {
                let (i, j) = (rows[a], rows[b]);
                // Agreement must be re-checked against the live state.
                let agrees = {
                    let ti = instance.tuple(i);
                    let tj = instance.tuple(j);
                    ti.agrees_on(tj, fd.lhs, instance.necs())
                };
                if !agrees {
                    continue;
                }
                for attr in fd.rhs.iter() {
                    let vi = instance.value(i, attr);
                    let vj = instance.value(j, attr);
                    match (vi, vj) {
                        (Value::Null(m), Value::Const(c)) => {
                            substitute_class(instance, m, c);
                            events.push(NsEvent {
                                fd_index,
                                rows: (i, j),
                                attr,
                                kind: NsEventKind::Substituted { class: m, value: c },
                            });
                        }
                        (Value::Const(c), Value::Null(n)) => {
                            substitute_class(instance, n, c);
                            events.push(NsEvent {
                                fd_index,
                                rows: (i, j),
                                attr,
                                kind: NsEventKind::Substituted { class: n, value: c },
                            });
                        }
                        (Value::Null(m), Value::Null(n)) if !instance.necs().same_class(m, n) => {
                            instance.add_nec(m, n);
                            events.push(NsEvent {
                                fd_index,
                                rows: (i, j),
                                attr,
                                kind: NsEventKind::NecIntroduced { a: m, b: n },
                            });
                        }
                        // Distinct constants: the plain rule is stuck
                        // (the extended system handles this case);
                        // `nothing` is inert here.
                        _ => {}
                    }
                }
            }
        }
    }
    events
}

/// The historical all-pairs chase — `O(|F|·n²)` agreement checks per
/// pass and an `O(n·p)` scan per substitution. Kept as the executable
/// definition that the indexed engine is verified against.
pub fn chase_naive(instance: &Instance, fds: &FdSet) -> NsChaseResult {
    let mut work = instance.clone();
    let mut events = Vec::new();
    let mut passes = 0;
    loop {
        passes += 1;
        let new_events = pass(&mut work, fds);
        let done = new_events.is_empty();
        events.extend(new_events);
        if done {
            break;
        }
        // Safety net: each event consumes a null or merges two classes,
        // so the number of passes is bounded by nulls + classes + 1.
        assert!(
            passes <= instance.null_count() + instance.len() * instance.arity() + 2,
            "plain chase failed to terminate"
        );
    }
    NsChaseResult {
        instance: work,
        events,
        passes,
    }
}

/// The all-pairs definition of minimal incompleteness (the oracle).
pub fn is_minimally_incomplete_naive(instance: &Instance, fds: &FdSet) -> bool {
    let rows: Vec<RowId> = instance.row_ids().collect();
    let n = rows.len();
    for fd in fds {
        let fd = fd.normalized();
        for a in 0..n {
            for b in (a + 1)..n {
                let ti = instance.tuple(rows[a]);
                let tj = instance.tuple(rows[b]);
                if !ti.agrees_on(tj, fd.lhs, instance.necs()) {
                    continue;
                }
                for attr in fd.rhs.iter() {
                    match (ti.get(attr), tj.get(attr)) {
                        (Value::Null(_), Value::Const(_)) | (Value::Const(_), Value::Null(_)) => {
                            return false
                        }
                        (Value::Null(m), Value::Null(n2)) if !instance.necs().same_class(m, n2) => {
                            return false;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase_plain, is_minimally_incomplete};
    use crate::fixtures;
    use fdi_relation::attrs::AttrId;

    #[test]
    fn figure5_order_dependence() {
        let r = fixtures::figure5_instance();
        let fds = fixtures::figure5_fds();
        let b = AttrId(1);

        // A→B first: the null becomes b1 (donor row 1).
        let first = chase_plain(&r, &fds);
        let b_col: Vec<String> = first
            .instance
            .row_ids()
            .map(|i| {
                first
                    .instance
                    .value(i, b)
                    .render(first.instance.symbols(), false)
            })
            .collect();
        assert_eq!(b_col, vec!["b1", "b1", "b2"]);

        // C→B first: the null becomes b2 (donor row 2).
        let second = chase_plain(&r, &fds.permuted(&[1, 0]));
        let b_col2: Vec<String> = second
            .instance
            .row_ids()
            .map(|i| {
                second
                    .instance
                    .value(i, b)
                    .render(second.instance.symbols(), false)
            })
            .collect();
        assert_eq!(b_col2, vec!["b2", "b1", "b2"]);

        // Both results are minimally incomplete — and different.
        assert!(is_minimally_incomplete(&first.instance, &fds));
        assert!(is_minimally_incomplete(&second.instance, &fds));
        assert_ne!(
            first.instance.canonical_form(),
            second.instance.canonical_form()
        );
    }

    #[test]
    fn substitution_events_are_recorded() {
        let r = fixtures::figure5_instance();
        let fds = fixtures::figure5_fds();
        let result = chase_plain(&r, &fds);
        assert_eq!(result.events.len(), 1);
        assert!(matches!(
            result.events[0].kind,
            NsEventKind::Substituted { .. }
        ));
        assert_eq!(result.events[0].fd_index, 0);
        assert!(
            result.passes >= 2,
            "a final empty pass confirms the fixpoint"
        );
    }

    #[test]
    fn nec_introduction_on_two_nulls() {
        let r = fixtures::section6_instance();
        let fds = fixtures::section6_fds();
        // A→B sees two B-nulls under equal A: introduces an NEC.
        let result = chase_plain(&r, &fds);
        assert!(result
            .events
            .iter()
            .any(|e| matches!(e.kind, NsEventKind::NecIntroduced { .. })));
        let r0 = result.instance.nth_row(0);
        let r1 = result.instance.nth_row(1);
        let n1 = result.instance.value(r0, AttrId(1)).as_null().unwrap();
        let n2 = result.instance.value(r1, AttrId(1)).as_null().unwrap();
        assert!(result.instance.necs().same_class(n1, n2));
        assert!(is_minimally_incomplete(&result.instance, &fds));
    }

    #[test]
    fn substitution_propagates_through_nec_classes() {
        // Two tuples share a marked B-null; a third donates a constant.
        let r = fdi_relation::Instance::parse(
            fixtures::section6_schema(),
            "a1 ?x c1
             a2 ?x c1
             a1 b1 c2",
        )
        .unwrap();
        let schema = r.schema().clone();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B").unwrap();
        let result = chase_plain(&r, &fds);
        // rows 0 and 2 agree on A → ?x := b1, which must also fill row 1.
        let b = AttrId(1);
        let r0 = result.instance.nth_row(0);
        let r1 = result.instance.nth_row(1);
        assert!(result.instance.value(r0, b).is_const());
        assert_eq!(result.instance.value(r0, b), result.instance.value(r1, b));
    }

    #[test]
    fn complete_instances_are_fixpoints() {
        let r = fixtures::figure1_instance();
        let fds = fixtures::figure1_fds();
        let result = chase_plain(&r, &fds);
        assert!(result.events.is_empty());
        assert_eq!(result.passes, 1);
        assert_eq!(result.instance.canonical_form(), r.canonical_form());
        assert!(is_minimally_incomplete(&r, &fds));
    }

    #[test]
    fn figure1_null_instance_chases_to_fill_salary() {
        // e2's SL-null cannot be filled (e2 is unique), but chase must
        // terminate and change nothing else.
        let r = fixtures::figure1_null_instance();
        let fds = fixtures::figure1_fds();
        let result = chase_plain(&r, &fds);
        assert!(is_minimally_incomplete(&result.instance, &fds));
        // D#-null of e3: no other row with E#=e3 — stays null. CT-null of
        // e4: d2 appears only there … also stays. SL-null of e2 stays.
        assert_eq!(result.instance.null_count(), 3);
    }

    #[test]
    fn chase_enables_cascading_substitutions() {
        // Substituting B can enable a B→C substitution in a later pass.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_0
             A_0 B_1 -",
        )
        .unwrap();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
        let result = chase_plain(&r, &fds);
        assert!(
            result.instance.is_complete(),
            "both nulls filled:\n{}",
            result.instance.render(true)
        );
        assert_eq!(result.events.len(), 2);
    }
}
