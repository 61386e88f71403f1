//! Completion enumeration — the sets `AP(t, R)` and `AP(r, R)` of §4.
//!
//! A *completion* substitutes every null in scope with a constant from
//! the attribute's (finite) domain, giving NEC-equivalent nulls the same
//! constant. The paper: "The set of all completions AP of a tuple t on a
//! set of attributes R is well-defined … Similarly, we define AP(r, R),
//! the set of all completions of r projected on R." The footnote explains
//! the name: the completions of `t` are exactly the total tuples that `t`
//! approximates in the tuple lattice.
//!
//! [`CompletionSpace`] materializes the choice structure once — one slot
//! per NEC class in scope, with candidate symbols from the intersection
//! of the domains the class touches — and then iterates the Cartesian
//! product. [`CompletionSpace::count`] reports the product size without
//! enumeration, so callers can bound work before iterating (the paper
//! itself stresses that this evaluation rule has "unacceptable
//! complexity" — measured in experiment E13).

use crate::attrs::AttrSet;
use crate::error::RelationError;
use crate::instance::Instance;
use crate::rowid::RowId;
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::{NullId, Value};

/// One NEC class with its occurrences and candidate substitutions.
#[derive(Debug, Clone)]
struct ClassSlot {
    /// Occurrences as (row, attr) positions; rows identify instance rows.
    positions: Vec<(RowId, crate::attrs::AttrId)>,
    /// Candidate constants: the intersection of the domains of every
    /// attribute the class occurs under, sorted.
    candidates: Vec<Symbol>,
}

/// The completion space of a set of rows of an instance, restricted to a
/// scope of attributes.
#[derive(Debug, Clone)]
pub struct CompletionSpace<'a> {
    instance: &'a Instance,
    rows: Vec<RowId>,
    scope: AttrSet,
    classes: Vec<ClassSlot>,
}

impl<'a> CompletionSpace<'a> {
    /// The completion space `AP(r, scope)` over all rows of `instance`.
    pub fn for_instance(instance: &'a Instance, scope: AttrSet) -> Result<Self, RelationError> {
        Self::for_rows(instance, instance.row_ids().collect(), scope)
    }

    /// The completion space `AP(t, scope)` of a single row.
    pub fn for_tuple(
        instance: &'a Instance,
        row: RowId,
        scope: AttrSet,
    ) -> Result<Self, RelationError> {
        Self::for_rows(instance, vec![row], scope)
    }

    /// Completion space over an arbitrary set of rows.
    pub fn for_rows(
        instance: &'a Instance,
        rows: Vec<RowId>,
        scope: AttrSet,
    ) -> Result<Self, RelationError> {
        let mut classes: Vec<(NullId, ClassSlot)> = Vec::new();
        for &row in &rows {
            for (attr, null) in instance.tuple(row).nulls_on(scope) {
                let domain = instance.domain(attr);
                if !domain.is_finite() {
                    return Err(RelationError::UnboundedDomain {
                        attribute: instance.schema().attr_name(attr).to_string(),
                    });
                }
                let root = instance.necs().find_readonly(null);
                match classes.iter_mut().find(|(r, _)| *r == root) {
                    Some((_, slot)) => {
                        slot.positions.push((row, attr));
                        slot.candidates.retain(|s| domain.contains(*s));
                    }
                    None => classes.push((
                        root,
                        ClassSlot {
                            positions: vec![(row, attr)],
                            candidates: domain.members().to_vec(),
                        },
                    )),
                }
            }
        }
        Ok(CompletionSpace {
            instance,
            rows,
            scope,
            classes: classes.into_iter().map(|(_, slot)| slot).collect(),
        })
    }

    /// The number of completions (Cartesian product of candidate counts),
    /// saturating at `u128::MAX`. Zero means the space is inconsistent —
    /// some class has no candidate value (empty domain intersection).
    pub fn count(&self) -> u128 {
        let mut total: u128 = 1;
        for slot in &self.classes {
            total = total.saturating_mul(slot.candidates.len() as u128);
            if total == 0 {
                return 0;
            }
        }
        total
    }

    /// Errors when [`CompletionSpace::count`] exceeds `limit`.
    pub fn check_budget(&self, limit: u128) -> Result<(), RelationError> {
        let count = self.count();
        if count > limit {
            Err(RelationError::TooManyCompletions { count, limit })
        } else {
            Ok(())
        }
    }

    /// Iterates over all completions; each item maps the selected rows to
    /// completed tuples (attributes outside `scope` are untouched).
    ///
    /// Rows appear in the order given to the constructor.
    pub fn iter(&self) -> CompletionIter<'_, 'a> {
        CompletionIter {
            space: self,
            choice: vec![0; self.classes.len()],
            done: self.count() == 0,
        }
    }

    /// Convenience: all completions of a single-row space as tuples.
    ///
    /// # Panics
    /// Panics if the space was not built over exactly one row.
    pub fn tuples(&self) -> Vec<Tuple> {
        assert_eq!(self.rows.len(), 1, "tuples() requires a single-row space");
        self.iter()
            .map(|mut rows| rows.pop().expect("one row"))
            .collect()
    }

    fn materialize(&self, choice: &[usize]) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = self
            .rows
            .iter()
            .map(|&r| self.instance.tuple(r).clone())
            .collect();
        for (slot, &pick) in self.classes.iter().zip(choice) {
            let symbol = slot.candidates[pick];
            for &(row, attr) in &slot.positions {
                let pos = self
                    .rows
                    .iter()
                    .position(|r| *r == row)
                    .expect("row in space");
                rows[pos].set(attr, Value::Const(symbol));
            }
        }
        rows
    }

    /// The scope of the space.
    pub fn scope(&self) -> AttrSet {
        self.scope
    }
}

/// Iterator over the completions of a [`CompletionSpace`].
#[derive(Debug)]
pub struct CompletionIter<'s, 'a> {
    space: &'s CompletionSpace<'a>,
    choice: Vec<usize>,
    done: bool,
}

impl Iterator for CompletionIter<'_, '_> {
    type Item = Vec<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let result = self.space.materialize(&self.choice);
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == self.choice.len() {
                self.done = true;
                break;
            }
            self.choice[i] += 1;
            if self.choice[i] < self.space.classes[i].candidates.len() {
                break;
            }
            self.choice[i] = 0;
            i += 1;
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrId;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn schema_abc() -> Arc<Schema> {
        Schema::builder("R")
            .attribute("A", ["a1", "a2"])
            .attribute("B", ["b1", "b2", "b3"])
            .attribute("C", ["c1", "c2"])
            .build()
            .unwrap()
    }

    fn all(r: &Instance) -> AttrSet {
        r.schema().all_attrs()
    }

    #[test]
    fn complete_tuples_have_one_completion() {
        let r = Instance::parse(schema_abc(), "a1 b1 c1").unwrap();
        let space = CompletionSpace::for_tuple(&r, r.nth_row(0), all(&r)).unwrap();
        assert_eq!(space.count(), 1);
        assert_eq!(space.tuples().len(), 1);
        assert_eq!(space.tuples()[0], *r.tuple(r.nth_row(0)));
    }

    #[test]
    fn single_null_enumerates_its_domain() {
        let r = Instance::parse(schema_abc(), "a1 - c1").unwrap();
        let space = CompletionSpace::for_tuple(&r, r.nth_row(0), all(&r)).unwrap();
        assert_eq!(space.count(), 3, "dom(B) has 3 values");
        let tuples = space.tuples();
        assert_eq!(tuples.len(), 3);
        for t in &tuples {
            assert!(t.is_total_on(all(&r)));
            assert!(r.tuple(r.nth_row(0)).approximates(t));
        }
        // all distinct
        let set: std::collections::HashSet<_> = tuples.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn independent_nulls_multiply() {
        let r = Instance::parse(schema_abc(), "- - c1").unwrap();
        let space = CompletionSpace::for_tuple(&r, r.nth_row(0), all(&r)).unwrap();
        assert_eq!(space.count(), 2 * 3);
        assert_eq!(space.iter().count(), 6);
    }

    #[test]
    fn scope_restricts_enumeration() {
        let r = Instance::parse(schema_abc(), "- - c1").unwrap();
        let scope = AttrSet::singleton(AttrId(0));
        let space = CompletionSpace::for_tuple(&r, r.nth_row(0), scope).unwrap();
        assert_eq!(space.count(), 2, "only the A-null is in scope");
        for t in space.tuples() {
            assert!(t.get(AttrId(1)).is_null(), "B-null untouched");
        }
    }

    #[test]
    fn nec_classes_covary() {
        let r = Instance::parse(schema_abc(), "a1 ?x c1\na2 ?x c2").unwrap();
        let space = CompletionSpace::for_instance(&r, all(&r)).unwrap();
        assert_eq!(space.count(), 3, "one shared class over dom(B)");
        for rows in space.iter() {
            assert_eq!(rows[0].get(AttrId(1)), rows[1].get(AttrId(1)));
        }
    }

    #[test]
    fn cross_attribute_classes_use_domain_intersection() {
        // B's domain is {b1,b2,b3}, C's is {c1,c2}: a class spanning both
        // has an empty intersection, hence zero completions.
        let schema = schema_abc();
        let mut r = Instance::parse(schema, "a1 ?x c1").unwrap();
        let x = r.mark("x").unwrap();
        let c = r.fresh_null();
        let a1 = r.intern_constant(AttrId(0), "a1").unwrap();
        r.add_tuple(Tuple::new(vec![
            Value::Const(a1),
            Value::Null(x),
            Value::Null(c),
        ]))
        .unwrap();
        r.add_nec(x, c);
        let space = CompletionSpace::for_instance(&r, r.schema().all_attrs()).unwrap();
        assert_eq!(space.count(), 0, "empty domain intersection");
        assert_eq!(space.iter().count(), 0);
    }

    #[test]
    fn shared_domains_intersect_properly() {
        let schema = Schema::builder("R")
            .attribute("A", ["v1", "v2"])
            .attribute("B", ["v2", "v3"])
            .build()
            .unwrap();
        let mut r = Instance::parse(schema, "?x v2").unwrap();
        let x = r.mark("x").unwrap();
        let b = r.fresh_null();
        r.add_tuple(Tuple::new(vec![Value::Null(x), Value::Null(b)]))
            .unwrap();
        r.add_nec(x, b);
        let space = CompletionSpace::for_instance(&r, r.schema().all_attrs()).unwrap();
        // intersection {v2} → exactly one choice for the shared class
        assert_eq!(space.count(), 1);
        let rows = space.iter().next().unwrap();
        assert_eq!(rows[1].get(AttrId(0)), rows[1].get(AttrId(1)));
    }

    #[test]
    fn unbounded_domains_error() {
        let schema = Schema::builder("R")
            .attribute_unbounded("name")
            .attribute("status", ["m", "s"])
            .build()
            .unwrap();
        let mut r = Instance::new(schema);
        r.add_row(&["John", "-"]).unwrap();
        r.add_row(&["-", "m"]).unwrap();
        // null under the unbounded attribute → error
        let err = CompletionSpace::for_instance(&r, r.schema().all_attrs()).unwrap_err();
        assert!(matches!(err, RelationError::UnboundedDomain { .. }));
        // restricting scope to the finite attribute works
        let scope = AttrSet::singleton(AttrId(1));
        assert!(CompletionSpace::for_instance(&r, scope).is_ok());
    }

    #[test]
    fn budget_check() {
        let r = Instance::parse(schema_abc(), "- - -\n- - -").unwrap();
        let space = CompletionSpace::for_instance(&r, all(&r)).unwrap();
        assert_eq!(space.count(), (2 * 3 * 2u128).pow(2));
        assert!(space.check_budget(10).is_err());
        assert!(space.check_budget(1000).is_ok());
    }

    #[test]
    fn instance_completions_complete_every_row() {
        let r = Instance::parse(schema_abc(), "a1 - c1\n- b2 c2").unwrap();
        let space = CompletionSpace::for_instance(&r, all(&r)).unwrap();
        assert_eq!(space.count(), 6);
        let mut seen = 0;
        for rows in space.iter() {
            seen += 1;
            assert_eq!(rows.len(), 2);
            for (id, t) in r.row_ids().zip(rows.iter()) {
                assert!(t.is_total_on(all(&r)));
                assert!(r.tuple(id).approximates(t));
            }
        }
        assert_eq!(seen, 6);
    }
}
