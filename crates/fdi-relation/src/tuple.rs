//! Tuples: fixed-arity vectors of [`Value`]s.

use crate::attrs::{AttrId, AttrSet};
use crate::nec::NecStore;
use crate::value::{NullId, Value};
use std::fmt;

/// A tuple of a relation instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at attribute `a`.
    ///
    /// # Panics
    /// Panics when `a` is out of range.
    #[inline]
    pub fn get(&self, a: AttrId) -> Value {
        self.values[a.index()]
    }

    /// Replaces the value at attribute `a`.
    pub fn set(&mut self, a: AttrId, v: Value) {
        self.values[a.index()] = v;
    }

    /// All values in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projection onto an attribute set, in increasing attribute order.
    pub fn project(&self, attrs: AttrSet) -> impl Iterator<Item = Value> + '_ {
        attrs.iter().map(move |a| self.get(a))
    }

    /// Does the projection on `attrs` contain a null? This is the paper's
    /// `t[X] = null` convention (§6: "`t[X] = null` implies that one of
    /// the `Xᵢ` values is null").
    pub fn has_null_on(&self, attrs: AttrSet) -> bool {
        attrs.iter().any(|a| self.get(a).is_null())
    }

    /// Is the projection on `attrs` entirely constants?
    pub fn is_total_on(&self, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.get(a).is_const())
    }

    /// The attributes within `attrs` holding nulls, with their ids.
    pub fn nulls_on(&self, attrs: AttrSet) -> impl Iterator<Item = (AttrId, NullId)> + '_ {
        attrs.iter().filter_map(move |a| match self.get(a) {
            Value::Null(n) => Some((a, n)),
            _ => None,
        })
    }

    /// Definite equality of two projections: both total on `attrs` and
    /// symbol-equal everywhere. (Null-aware comparisons are convention
    /// dependent and live with the algorithms that define them.)
    pub fn definitely_equal_on(&self, other: &Tuple, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| {
            matches!(
                (self.get(a), other.get(a)),
                (Value::Const(x), Value::Const(y)) if x == y
            )
        })
    }

    /// Componentwise agreement on `attrs` where two values *agree* when
    /// they are equal constants or NEC-equivalent nulls. This is the
    /// trigger condition of the NS-rules (Definition 2:
    /// `tᵢ[X] = tⱼ[X] ≠ null` or `NEC: tᵢ[X] := tⱼ[X]`, read
    /// componentwise).
    pub fn agrees_on(&self, other: &Tuple, attrs: AttrSet, necs: &NecStore) -> bool {
        attrs.iter().all(|a| match (self.get(a), other.get(a)) {
            (Value::Const(x), Value::Const(y)) => x == y,
            (Value::Null(m), Value::Null(n)) => necs.same_class(m, n),
            _ => false,
        })
    }

    /// Information-ordering comparison ignoring null marks: `self ⊑
    /// other` componentwise (see [`Value::approximates`]).
    pub fn approximates(&self, other: &Tuple) -> bool {
        self.arity() == other.arity()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.approximates(*b))
    }

    /// Is `other` a completion of `self` on `attrs`? `other` must be
    /// total on `attrs`, agree with `self` on constants, and give
    /// NEC-equivalent nulls of `self` identical constants.
    pub fn is_completed_by(&self, other: &Tuple, attrs: AttrSet, necs: &NecStore) -> bool {
        if !other.is_total_on(attrs) {
            return false;
        }
        let mut class_values: Vec<(NullId, Value)> = Vec::new();
        for a in attrs.iter() {
            match (self.get(a), other.get(a)) {
                (Value::Const(x), Value::Const(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (Value::Null(n), substituted) => {
                    let root = necs.find_readonly(n);
                    match class_values.iter().find(|(r, _)| *r == root) {
                        Some((_, prior)) => {
                            if *prior != substituted {
                                return false;
                            }
                        }
                        None => class_values.push((root, substituted)),
                    }
                }
                (Value::Nothing, _) => return false,
                _ => unreachable!("other is total on attrs"),
            }
        }
        true
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn c(i: u32) -> Value {
        Value::Const(Symbol(i))
    }

    fn null(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    fn attrs(ids: &[u16]) -> AttrSet {
        ids.iter().map(|i| AttrId(*i)).collect()
    }

    #[test]
    fn projections_and_null_queries() {
        let t = Tuple::new(vec![c(0), null(0), c(2)]);
        assert_eq!(t.arity(), 3);
        assert!(t.has_null_on(attrs(&[0, 1])));
        assert!(!t.has_null_on(attrs(&[0, 2])));
        assert!(t.is_total_on(attrs(&[0, 2])));
        assert!(!t.is_total_on(attrs(&[1])));
        let nulls: Vec<_> = t.nulls_on(attrs(&[0, 1, 2])).collect();
        assert_eq!(nulls, vec![(AttrId(1), NullId(0))]);
        let proj: Vec<Value> = t.project(attrs(&[2, 0])).collect();
        assert_eq!(proj, vec![c(0), c(2)], "projection is in attribute order");
    }

    #[test]
    fn definite_equality_ignores_nulls() {
        let t1 = Tuple::new(vec![c(0), null(0)]);
        let t2 = Tuple::new(vec![c(0), null(0)]);
        assert!(t1.definitely_equal_on(&t2, attrs(&[0])));
        assert!(
            !t1.definitely_equal_on(&t2, attrs(&[0, 1])),
            "nulls are never definitely equal — even the same mark"
        );
    }

    #[test]
    fn agreement_uses_nec_classes() {
        let mut necs = NecStore::new();
        let t1 = Tuple::new(vec![c(0), null(0)]);
        let t2 = Tuple::new(vec![c(0), null(1)]);
        assert!(!t1.agrees_on(&t2, attrs(&[0, 1]), &necs));
        necs.union(NullId(0), NullId(1));
        assert!(t1.agrees_on(&t2, attrs(&[0, 1]), &necs));
        // same mark agrees trivially
        let t3 = Tuple::new(vec![c(0), null(7)]);
        assert!(t3.agrees_on(&t3.clone(), attrs(&[0, 1]), &NecStore::new()));
    }

    #[test]
    fn approximation_is_componentwise() {
        let partial = Tuple::new(vec![c(0), null(0)]);
        let total = Tuple::new(vec![c(0), c(5)]);
        assert!(partial.approximates(&total));
        assert!(!total.approximates(&partial));
        let wrong = Tuple::new(vec![c(1), c(5)]);
        assert!(!partial.approximates(&wrong));
    }

    #[test]
    fn completion_respects_nec_classes() {
        let mut necs = NecStore::new();
        necs.union(NullId(0), NullId(1));
        let t = Tuple::new(vec![null(0), null(1), c(9)]);
        let same = Tuple::new(vec![c(3), c(3), c(9)]);
        let diff = Tuple::new(vec![c(3), c(4), c(9)]);
        let all = attrs(&[0, 1, 2]);
        assert!(t.is_completed_by(&same, all, &necs));
        assert!(
            !t.is_completed_by(&diff, all, &necs),
            "NEC-equal nulls must receive the same constant"
        );
        // without the NEC, differing substitutions are fine
        assert!(t.is_completed_by(&diff, all, &NecStore::new()));
        // a non-total candidate is never a completion
        let partial = Tuple::new(vec![c(3), null(5), c(9)]);
        assert!(!t.is_completed_by(&partial, all, &necs));
        // constants must be preserved
        let clobbered = Tuple::new(vec![c(3), c(3), c(8)]);
        assert!(!t.is_completed_by(&clobbered, all, &necs));
    }

    #[test]
    fn set_replaces_values() {
        let mut t = Tuple::new(vec![c(0), null(0)]);
        t.set(AttrId(1), c(4));
        assert_eq!(t.get(AttrId(1)), c(4));
        assert!(t.is_total_on(attrs(&[0, 1])));
    }

    #[test]
    fn display_is_parenthesized() {
        let t = Tuple::new(vec![c(0), null(2), Value::Nothing]);
        assert_eq!(t.to_string(), "(s0, ?2, #!)");
    }
}
