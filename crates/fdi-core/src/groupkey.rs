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
use fdi_relation::tuple::Tuple;
use fdi_relation::value::{NullId, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

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
/// — [`crate::semantics::Semantics::solitary_nulls`]), a null keys by a
/// **row-unique** atom like `nothing` does, so no two rows ever group
/// through a null. With the flag clear this is exactly [`atom`].
#[inline]
pub fn atom_solitary(
    value: Value,
    row: RowId,
    snapshot: &NecSnapshot,
    solitary_nulls: bool,
) -> u64 {
    match value {
        Value::Null(_) if solitary_nulls => TAG_SOLO | row.0 as u64,
        _ => atom(value, row, snapshot),
    }
}

/// Writes the canonical key of `tuple[attrs]` into `key` (cleared
/// first). Reusing one buffer across rows avoids per-row allocation in
/// the grouping hot loops.
#[inline]
pub fn key_into(
    key: &mut GroupKey,
    tuple: &Tuple,
    row: RowId,
    attrs: AttrSet,
    snapshot: &NecSnapshot,
) {
    key.clear();
    for a in attrs.iter() {
        key.push(atom(tuple.get(a), row, snapshot));
    }
}

/// Writes the **constant-only** key of `tuple[attrs]` into `key`
/// (cleared first) and returns `true`, or returns `false` when some
/// attribute of the projection is not a constant (leaving `key` in an
/// unspecified partial state).
///
/// This is the currency of the determinant index on [`Database`]
/// updates ([`crate::update::LhsIndex`]): under the strong convention a
/// null on a determinant potentially matches *everything*, so only
/// constant-total projections are groupable — null-bearing rows go to
/// the per-FD wild list instead. Constant atoms here coincide with the
/// NEC-canonical atoms of [`key_into`], so the two indexes agree on
/// what "the same constant determinant" means.
///
/// [`Database`]: crate::update::Database
#[inline]
pub fn const_key_into(key: &mut GroupKey, tuple: &Tuple, attrs: AttrSet) -> bool {
    key.clear();
    for a in attrs.iter() {
        match tuple.get(a) {
            Value::Const(s) => key.push(TAG_CONST | s.0 as u64),
            _ => return false,
        }
    }
    true
}

/// The canonical key of `tuple[attrs]` as a fresh vector.
pub fn key_of(tuple: &Tuple, row: RowId, attrs: AttrSet, snapshot: &NecSnapshot) -> GroupKey {
    let mut key = Vec::with_capacity(attrs.len());
    key_into(&mut key, tuple, row, attrs, snapshot);
    key
}

/// Partitions the live rows of `instance` into agreement classes on
/// `attrs`: two rows land in the same group iff they agree componentwise
/// (equal constants or NEC-equivalent nulls) — the one grouping loop
/// every indexed consumer shares, so key semantics can never drift
/// between them. Groups hold stable [`RowId`]s, in ascending order.
///
/// With `solitary_nulls` set (see [`atom_solitary`]), null-bearing rows
/// are singleton groups on the null components — the agreement classes
/// of conventions where nulls never trigger a dependency.
///
/// The pass is sharded over [`RowId`] ranges on `exec`: each shard
/// builds a local partition of its live rows and the shard maps are
/// merged **in shard order**, so every group's row list is the
/// concatenation of ascending sub-lists of ascending shards — the same
/// map at every thread count.
pub fn group_rows(
    instance: &fdi_relation::instance::Instance,
    attrs: AttrSet,
    snapshot: &NecSnapshot,
    solitary_nulls: bool,
    exec: &fdi_exec::Executor,
) -> HashMap<GroupKey, Vec<RowId>> {
    let shards = instance.row_id_shards(exec.shard_count(4));
    let per_shard = instance.len() / shards.len() + 1;
    let locals = exec.map(&shards, |_, &shard| {
        let mut groups: HashMap<GroupKey, Vec<RowId>> = HashMap::with_capacity(per_shard);
        let mut key = GroupKey::new();
        for (row, tuple) in instance.iter_live_in(shard) {
            key.clear();
            for a in attrs.iter() {
                key.push(atom_solitary(tuple.get(a), row, snapshot, solitary_nulls));
            }
            groups.entry(key.clone()).or_default().push(row);
        }
        groups
    });
    merge_in_shard_order(locals)
}

/// Folds shard-local `key → list` maps into one, appending each list in
/// shard order — so when every local list is ascending and shards cover
/// ascending slot ranges, every merged list is ascending too. A single
/// local map (the inline executor's one shard) is returned as is.
pub(crate) fn merge_in_shard_order<K: Hash + Eq, V>(
    locals: Vec<HashMap<K, Vec<V>>>,
) -> HashMap<K, Vec<V>> {
    let mut locals = locals.into_iter();
    let mut out = locals.next().unwrap_or_default();
    for local in locals {
        for (key, mut items) in local {
            match out.entry(key) {
                Entry::Occupied(mut entry) => entry.get_mut().append(&mut items),
                Entry::Vacant(entry) => {
                    entry.insert(items);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_relation::attrs::AttrId;
    use fdi_relation::nec::NecStore;
    use fdi_relation::symbol::Symbol;

    fn attrs(ids: &[u16]) -> AttrSet {
        ids.iter().map(|i| AttrId(*i)).collect()
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
