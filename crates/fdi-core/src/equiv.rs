//! The FD ↔ System-C bridge: Lemmas 3 and 4, and Theorem 1.
//!
//! Lemma 3 pairs a three-valued assignment `a` with a two-tuple relation
//! `s = {t, t'}`:
//!
//! * `a(A) = true`    ⟺ `t[A] = t'[A]` (equal constants),
//! * `a(A) = false`   ⟺ `t[A] ≠ t'[A]` (distinct constants),
//! * `a(A) = unknown` ⟺ `t[A]` or `t'[A]` is null,
//!
//! and asserts that `X → Y` **strongly holds** in `s` iff
//! `V(X ⇒ Y, a) = true`. The correspondence requires the statement to be
//! [normalized](fdi_logic::implication::Statement::normalized)
//! (`X ∩ Y = ∅`, Proposition 1's standing assumption), attribute domains
//! of size ≥ 2, and independent (NEC-free) nulls; [`build_two_tuple`]
//! constructs exactly such relations.
//!
//! Lemma 4 lifts the correspondence to implication: in the world of
//! two-tuple relations, `F` implies `X → Y` iff `X ⇒ Y` is a logical
//! inference of `F` in C. Together with the closure characterization
//! this yields **Theorem 1**: Armstrong's rules are sound and complete
//! for FDs with nulls under strong satisfiability. The three decision
//! procedures —
//!
//! 1. [`crate::armstrong::implies`] (attribute closure),
//! 2. [`fdi_logic::implication::infers`] (System-C, `3^n` assignments),
//! 3. [`implies_via_two_tuple_worlds`] (relational: every assignment's
//!    two-tuple world, FDs evaluated by TEST-FDs under the strong
//!    convention — with completion enumeration retained as the per-world
//!    oracle, [`strongly_holds_in_world`])
//!
//! — must agree everywhere; experiment E5 and the property suite check
//! precisely that.

use crate::armstrong::{attrs_to_vars, vars_to_attrs};
use crate::fd::{Fd, FdSet};
use crate::interp;
use fdi_logic::implication::Statement;
use fdi_logic::truth::Truth;
use fdi_logic::var::Assignment;
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::schema::Schema;
use std::sync::Arc;

/// Converts an FD to its (normalized) implicational statement.
pub fn fd_to_statement(fd: Fd) -> Statement {
    Statement::new(attrs_to_vars(fd.lhs), attrs_to_vars(fd.rhs)).normalized()
}

/// Converts a statement back to an FD.
pub fn statement_to_fd(stmt: Statement) -> Fd {
    Fd::new(vars_to_attrs(stmt.lhs), vars_to_attrs(stmt.rhs))
}

/// A schema for Lemma-3 worlds: `n` single-letter attributes, each with
/// the two-value domain `{<attr>_0, <attr>_1}` (size ≥ 2 as the
/// correspondence requires — with only two tuples, exhaustion `[F2]`
/// then cannot fire).
pub fn lemma3_schema(n: usize) -> Arc<Schema> {
    let names: Vec<String> = (0..n)
        .map(|i| {
            char::from_u32('A' as u32 + (i as u32 % 26))
                .map(|c| {
                    if i < 26 {
                        c.to_string()
                    } else {
                        format!("{c}{}", i / 26)
                    }
                })
                .expect("alphabetic attribute name")
        })
        .collect();
    let mut builder = Schema::builder("W");
    for name in &names {
        builder = builder.attribute(name.clone(), [format!("{name}_0"), format!("{name}_1")]);
    }
    builder.build().expect("lemma-3 schema")
}

/// Builds the two-tuple world of an assignment over the first `n`
/// variables/attributes: `t` is all-`<attr>_0`; `t'[A]` equals `t[A]`
/// when `a(A) = true`, is the other constant when `a(A) = false`, and is
/// a fresh null when `a(A) = unknown`.
pub fn build_two_tuple(assignment: &Assignment) -> Instance {
    let n = assignment.len();
    let schema = lemma3_schema(n);
    let mut tokens_t = Vec::with_capacity(n);
    let mut tokens_u = Vec::with_capacity(n);
    for i in 0..n {
        let name = schema.attr_name(AttrId(i as u16)).to_string();
        tokens_t.push(format!("{name}_0"));
        tokens_u.push(match assignment.get(fdi_logic::var::VarId(i as u32)) {
            Truth::True => format!("{name}_0"),
            Truth::False => format!("{name}_1"),
            Truth::Unknown => "-".to_string(),
        });
    }
    let mut instance = Instance::new(schema);
    let t_refs: Vec<&str> = tokens_t.iter().map(String::as_str).collect();
    let u_refs: Vec<&str> = tokens_u.iter().map(String::as_str).collect();
    instance.add_row(&t_refs).expect("row t");
    instance.add_row(&u_refs).expect("row t'");
    instance
}

/// Reads the assignment back off a two-tuple relation (the inverse
/// direction of Lemma 3's encoding).
pub fn read_assignment(instance: &Instance) -> Assignment {
    assert_eq!(instance.len(), 2, "Lemma 3 worlds have two tuples");
    let n = instance.arity();
    let t0 = instance.nth_row(0);
    let t1 = instance.nth_row(1);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let a = AttrId(i as u16);
        let (x, y) = (instance.value(t0, a), instance.value(t1, a));
        values.push(match (x.as_const(), y.as_const()) {
            (Some(p), Some(q)) if p == q => Truth::True,
            (Some(_), Some(_)) => Truth::False,
            _ => Truth::Unknown,
        });
    }
    Assignment::new(values)
}

/// Does `fd` strongly hold in the two-tuple world? (Ground-truth
/// evaluation by completion enumeration.)
pub fn strongly_holds_in_world(fd: Fd, world: &Instance) -> Result<bool, RelationError> {
    for row in world.row_ids() {
        if interp::eval_least_extension(fd, row, world, 1 << 16)? != Truth::True {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Strong holding decided by TEST-FDs (Theorem 2 applied to the
/// singleton set `{fd}`) — no completion enumeration. Equivalent to
/// [`strongly_holds_in_world`] on every world (see the test suite);
/// [`implies_via_two_tuple_worlds`] uses it to keep the `3^n` world
/// sweep linear per world (with the singleton sets hoisted out of the
/// loop — this convenience wrapper allocates one per call).
pub fn strongly_holds_in_world_fast(fd: Fd, world: &Instance) -> bool {
    singleton_holds_in_world(&FdSet::from_vec(vec![fd]), world)
}

/// The allocation-free core of [`strongly_holds_in_world_fast`]:
/// `singleton` must hold exactly one dependency.
fn singleton_holds_in_world(singleton: &FdSet, world: &Instance) -> bool {
    debug_assert_eq!(singleton.len(), 1);
    crate::testfd::check(
        world,
        singleton,
        crate::testfd::Convention::Strong,
        &fdi_exec::Executor::with_threads(1),
        &fdi_obs::Recorder::noop(),
    )
    .is_ok()
}

/// Lemma 3, checked pointwise: `V(X ⇒ Y, a) = true` iff `X → Y`
/// strongly holds in `a`'s world.
pub fn lemma3_holds_at(fd: Fd, assignment: &Assignment) -> Result<bool, RelationError> {
    let world = build_two_tuple(assignment);
    let lhs = fd_to_statement(fd).eval(assignment).is_true();
    let rhs = strongly_holds_in_world(fd, &world)?;
    Ok(lhs == rhs)
}

/// Lemma 4 / observation \[2\]: implication decided in the world of
/// two-tuple relations — enumerate every assignment over the mentioned
/// attributes, build its world, and check "premises strongly hold ⟹
/// goal strongly holds" *relationally* (per world via
/// [`strongly_holds_in_world_fast`]).
///
/// # Panics
/// Panics if more than 10 attributes are mentioned (3^n two-tuple worlds
/// with completion enumeration inside).
///
/// # Example — Theorem 1, relationally
///
/// ```
/// use fdi_core::equiv;
/// use fdi_core::fd::{Fd, FdSet};
/// use fdi_core::fixtures;
/// use fdi_core::armstrong;
///
/// let schema = fixtures::section6_schema(); // R(A, B, C)
/// let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
/// // Transitivity: derivable by Armstrong's rules (sound and complete
/// // under strong satisfiability with nulls — Theorem 1) …
/// let goal = Fd::parse(&schema, "A -> C").unwrap();
/// assert!(armstrong::implies(&fds, goal));
/// // … and confirmed in the world of two-tuple relations (Lemma 4).
/// assert!(equiv::implies_via_two_tuple_worlds(&fds, goal).unwrap());
/// // A non-consequence fails in some world.
/// let non_goal = Fd::parse(&schema, "B -> A").unwrap();
/// assert!(!equiv::implies_via_two_tuple_worlds(&fds, non_goal).unwrap());
/// ```
pub fn implies_via_two_tuple_worlds(fds: &FdSet, goal: Fd) -> Result<bool, RelationError> {
    let attrs: AttrSet = fds.attrs().union(goal.attrs());
    let attr_list: Vec<AttrId> = attrs.iter().collect();
    let n = attr_list.len();
    assert!(
        n <= 10,
        "two-tuple world enumeration capped at 10 attributes"
    );
    // Compact the attributes to 0..n for world construction.
    let compact = |set: AttrSet| -> AttrSet {
        set.iter()
            .map(|a| {
                AttrId(
                    attr_list
                        .iter()
                        .position(|b| *b == a)
                        .expect("attr in list") as u16,
                )
            })
            .collect()
    };
    // Singleton sets built once: 3^n worlds each check every premise.
    let premises: Vec<FdSet> = fds
        .iter()
        .map(|f| FdSet::from_vec(vec![Fd::new(compact(f.lhs), compact(f.rhs))]))
        .collect();
    let goal = FdSet::from_vec(vec![Fd::new(compact(goal.lhs), compact(goal.rhs))]);
    for assignment in Assignment::enumerate_all(n) {
        let world = build_two_tuple(&assignment);
        let premises_hold = premises.iter().all(|p| singleton_holds_in_world(p, &world));
        if premises_hold && !singleton_holds_in_world(&goal, &world) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::armstrong;
    use fdi_logic::implication::infers;

    fn set(ids: &[u16]) -> AttrSet {
        ids.iter().map(|i| AttrId(*i)).collect()
    }

    fn fd(lhs: &[u16], rhs: &[u16]) -> Fd {
        Fd::new(set(lhs), set(rhs))
    }

    #[test]
    fn statement_round_trip() {
        let f = fd(&[0, 1], &[2]);
        let s = fd_to_statement(f);
        assert_eq!(statement_to_fd(s), f);
        // normalization applies
        let g = fd(&[0, 1], &[1, 2]);
        assert_eq!(statement_to_fd(fd_to_statement(g)), fd(&[0, 1], &[2]));
    }

    #[test]
    fn worlds_encode_assignments() {
        use fdi_logic::truth::Truth::*;
        let a = Assignment::new(vec![True, False, Unknown]);
        let world = build_two_tuple(&a);
        assert_eq!(world.len(), 2);
        assert_eq!(read_assignment(&world).values(), a.values());
    }

    #[test]
    fn lemma3_exhaustive_three_attributes() {
        // Every assignment over 3 attributes, a spread of dependencies.
        let dependencies = [
            fd(&[0], &[1]),
            fd(&[0, 1], &[2]),
            fd(&[0], &[1, 2]),
            fd(&[2], &[0]),
            fd(&[0, 2], &[1]),
        ];
        for f in dependencies {
            for a in Assignment::enumerate_all(3) {
                assert!(
                    lemma3_holds_at(f, &a).unwrap(),
                    "Lemma 3 fails for {f} at {:?}",
                    a.values()
                );
            }
        }
    }

    #[test]
    fn lemma3_holds_for_unnormalized_dependencies_after_normalization() {
        // AC → BC: the raw statement disagrees with the FD at
        // a = (U, T, U); the normalized statement (what fd_to_statement
        // produces) agrees everywhere.
        let f = fd(&[0, 2], &[1, 2]);
        for a in Assignment::enumerate_all(3) {
            assert!(lemma3_holds_at(f, &a).unwrap());
        }
    }

    #[test]
    fn theorem1_three_procedures_agree() {
        let universes: Vec<(FdSet, Vec<Fd>)> = vec![
            (
                FdSet::from_vec(vec![fd(&[0], &[1]), fd(&[1], &[2])]),
                vec![
                    fd(&[0], &[2]),
                    fd(&[0], &[1, 2]),
                    fd(&[2], &[0]),
                    fd(&[0, 2], &[1]),
                    fd(&[1], &[0]),
                ],
            ),
            (
                FdSet::from_vec(vec![fd(&[0, 1], &[2]), fd(&[2], &[0])]),
                vec![
                    fd(&[0, 1], &[0, 2]),
                    fd(&[1, 2], &[0]),
                    fd(&[1], &[2]),
                    fd(&[2, 1], &[0, 2]),
                ],
            ),
        ];
        for (premises, goals) in universes {
            for goal in goals {
                let via_closure = armstrong::implies(&premises, goal);
                let statements: Vec<Statement> =
                    premises.iter().map(|f| fd_to_statement(*f)).collect();
                let via_logic = infers(&statements, fd_to_statement(goal));
                let via_worlds = implies_via_two_tuple_worlds(&premises, goal).unwrap();
                assert_eq!(via_closure, via_logic, "closure vs C-logic for {goal}");
                assert_eq!(via_closure, via_worlds, "closure vs worlds for {goal}");
            }
        }
    }

    #[test]
    fn fast_world_check_matches_completion_enumeration() {
        // The TEST-FDs fast path must agree with the least-extension
        // ground truth on every world it will ever see.
        let dependencies = [
            fd(&[0], &[1]),
            fd(&[0, 1], &[2]),
            fd(&[0], &[1, 2]),
            fd(&[2], &[0]),
            fd(&[1], &[1]), // trivial
        ];
        for f in dependencies {
            for a in Assignment::enumerate_all(3) {
                let world = build_two_tuple(&a);
                assert_eq!(
                    strongly_holds_in_world_fast(f, &world),
                    strongly_holds_in_world(f, &world).unwrap(),
                    "fd {f} at {:?}",
                    a.values()
                );
            }
        }
    }

    #[test]
    fn non_contiguous_attributes_are_compacted() {
        // attributes 3 and 7 only
        let premises = FdSet::from_vec(vec![Fd::new(set(&[3]), set(&[7]))]);
        assert!(implies_via_two_tuple_worlds(&premises, Fd::new(set(&[3]), set(&[7]))).unwrap());
        assert!(!implies_via_two_tuple_worlds(&premises, Fd::new(set(&[7]), set(&[3]))).unwrap());
    }

    #[test]
    fn lemma3_schema_is_binary() {
        let s = lemma3_schema(4);
        assert_eq!(s.arity(), 4);
        for a in s.all_attrs().iter() {
            assert_eq!(s.attr(a).domain.size(), Some(2));
        }
    }
}
