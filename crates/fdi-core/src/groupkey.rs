//! NEC-canonical group keys — the shared grouping currency of the
//! indexed chase and the grouped TEST-FDs variants.
//!
//! Two tuples *agree* on an attribute set `X` (the trigger condition of
//! the NS-rules and the equality side of the TEST-FDs conventions) when,
//! componentwise, their values are equal constants or NEC-equivalent
//! nulls. That predicate is exactly equality of the **canonical key**
//! built here: constants are keyed by interned symbol id, nulls by NEC
//! class representative, and `nothing` by a row-unique atom (the
//! inconsistent element never agrees with anything — not even another
//! `nothing`). Hash-partitioning rows by canonical key therefore
//! partitions them into exact agreement classes, which is what turns the
//! all-pairs `O(n²)` scans into `O(n)` grouping passes.
//!
//! Each key component is packed into one `u64`: a tag in the upper bits
//! (constant / null class / nothing) and the 32-bit id below it, so keys
//! hash and compare as short `u64` slices.

use fdi_relation::attrs::AttrSet;
use fdi_relation::nec::NecSnapshot;
use fdi_relation::rowid::RowId;
use fdi_relation::value::{NullId, Value};
use std::collections::HashMap;

/// A canonical projection key: one packed atom per attribute of the
/// projection set, in attribute order.
pub type GroupKey = Vec<u64>;

const TAG_CONST: u64 = 0 << 32;
const TAG_CLASS: u64 = 1 << 32;
const TAG_NOTHING: u64 = 2 << 32;
const TAG_SOLO: u64 = 3 << 32;

/// Packs one value into its canonical atom. `row` disambiguates
/// `nothing` occurrences (the slot index is unique per live row);
/// `root_of` resolves a null id to its current NEC class representative.
#[inline]
pub fn atom_with(value: Value, row: RowId, root_of: impl FnOnce(NullId) -> NullId) -> u64 {
    match value {
        Value::Const(s) => TAG_CONST | s.0 as u64,
        Value::Null(n) => TAG_CLASS | root_of(n).0 as u64,
        Value::Nothing => TAG_NOTHING | row.0 as u64,
    }
}

/// Packs one value using a fully-compressed NEC snapshot.
#[inline]
pub fn atom(value: Value, row: RowId, snapshot: &NecSnapshot) -> u64 {
    atom_with(value, row, |n| snapshot.root(n))
}

/// [`atom`] under a semantics' null-keying policy: when
/// `solitary_nulls` is set (conventions where class nulls do not agree
/// — [`crate::semantics::SemanticsKind::solitary_nulls`]), a null keys by a
/// **row-unique** atom like `nothing` does, so no two rows ever group
/// through a null. With the flag clear this is exactly [`atom`].
#[inline]
fn atom_solitary(value: Value, row: RowId, snapshot: &NecSnapshot, solitary_nulls: bool) -> u64 {
    match value {
        Value::Null(_) if solitary_nulls => TAG_SOLO | row.0 as u64,
        _ => atom(value, row, snapshot),
    }
}

/// Partitions the live rows of `instance` into agreement classes on
/// `attrs`: two rows land in the same group iff they agree componentwise
/// (equal constants or NEC-equivalent nulls) — the one grouping loop
/// every indexed consumer shares, so key semantics can never drift
/// between them. Groups hold stable [`RowId`]s, in ascending order
/// (one pass over the live rows in slot order).
///
/// With `solitary_nulls` set (see `atom_solitary`), null-bearing rows
/// are singleton groups on the null components — the agreement classes
/// of conventions where nulls never trigger a dependency.
pub fn group_rows(
    instance: &fdi_relation::instance::Instance,
    attrs: AttrSet,
    snapshot: &NecSnapshot,
    solitary_nulls: bool,
) -> HashMap<GroupKey, Vec<RowId>> {
    let mut groups: HashMap<GroupKey, Vec<RowId>> = HashMap::with_capacity(instance.len());
    let mut key = GroupKey::new();
    for (row, tuple) in instance.iter_live() {
        key.clear();
        for a in attrs.iter() {
            key.push(atom_solitary(tuple.get(a), row, snapshot, solitary_nulls));
        }
        groups.entry(key.clone()).or_default().push(row);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_relation::attrs::AttrId;
    use fdi_relation::nec::NecStore;
    use fdi_relation::symbol::Symbol;
    use fdi_relation::tuple::Tuple;

    fn attrs(ids: &[u16]) -> AttrSet {
        ids.iter().map(|i| AttrId(*i)).collect()
    }

    fn key_of(tuple: &Tuple, row: RowId, attrs: AttrSet, snapshot: &NecSnapshot) -> GroupKey {
        attrs
            .iter()
            .map(|a| atom(tuple.get(a), row, snapshot))
            .collect()
    }

    #[test]
    fn keys_equal_iff_tuples_agree() {
        let mut necs = NecStore::new();
        necs.union(NullId(0), NullId(1));
        let snap = necs.canonical_snapshot();
        let scope = attrs(&[0, 1]);
        let t1 = Tuple::new(vec![Value::Const(Symbol(3)), Value::Null(NullId(0))]);
        let t2 = Tuple::new(vec![Value::Const(Symbol(3)), Value::Null(NullId(1))]);
        let t3 = Tuple::new(vec![Value::Const(Symbol(3)), Value::Null(NullId(2))]);
        let k1 = key_of(&t1, RowId(0), scope, &snap);
        let k2 = key_of(&t2, RowId(1), scope, &snap);
        let k3 = key_of(&t3, RowId(2), scope, &snap);
        assert_eq!(k1, k2, "NEC-equivalent nulls agree");
        assert_ne!(k1, k3, "independent nulls do not");
        assert!(t1.agrees_on(&t2, scope, &necs));
        assert!(!t1.agrees_on(&t3, scope, &necs));
    }

    #[test]
    fn nothing_atoms_are_row_unique() {
        let necs = NecStore::new();
        let snap = necs.canonical_snapshot();
        let scope = attrs(&[0]);
        let t = Tuple::new(vec![Value::Nothing]);
        let k_row0 = key_of(&t, RowId(0), scope, &snap);
        let k_row1 = key_of(&t, RowId(1), scope, &snap);
        assert_ne!(
            k_row0, k_row1,
            "nothing agrees with nothing — not even itself across rows"
        );
        assert!(!t.agrees_on(&t.clone(), scope, &necs));
    }

    #[test]
    fn constants_and_classes_never_collide() {
        let necs = NecStore::new();
        let snap = necs.canonical_snapshot();
        let scope = attrs(&[0]);
        let c = Tuple::new(vec![Value::Const(Symbol(7))]);
        let n = Tuple::new(vec![Value::Null(NullId(7))]);
        assert_ne!(
            key_of(&c, RowId(0), scope, &snap),
            key_of(&n, RowId(0), scope, &snap)
        );
    }
}
