//! The dirty-bucket worklist both chase engines run on (see "Engines
//! and complexity" in the [`super`] docs). An engine supplies the key
//! atom of a cell — NEC-canonical [`crate::groupkey`] atoms for the
//! plain chase, union–find roots for the extended one — and hands the
//! sites whose atom a rule changed to [`BucketIndex::migrate`].

use crate::fd::{Fd, FdSet};
use crate::groupkey::GroupKey;
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::rowid::RowId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// One cell: its row and its column index.
pub(crate) type Site = (RowId, u16);

/// One FD slot: its position in the original set plus the normalized
/// dependency (trivial members are dropped up front — agreement on `X`
/// makes every `Y ⊆ X` comparison inert).
#[derive(Clone, Copy)]
pub(crate) struct FdSlot {
    pub(crate) original_index: usize,
    pub(crate) fd: Fd,
}

/// Per non-trivial FD: the determinant buckets of the live rows and the
/// keys awaiting a (re-)sweep.
pub(crate) struct BucketIndex {
    slots: Vec<FdSlot>,
    /// column → slots with that column in their determinant.
    lhs_slots: Vec<Vec<usize>>,
    /// Per slot: determinant key → member rows, kept **unsorted** so a
    /// merge is an `O(moved)` append; the engines sort on sweep.
    buckets: Vec<HashMap<GroupKey, Vec<RowId>>>,
    /// Per slot, per row *slot*: the key its bucket is filed under
    /// (indexed by `RowId::index`; dead slots hold an unused default).
    row_keys: Vec<Vec<GroupKey>>,
    /// Per slot: keys whose bucket was re-keyed since the last draw.
    dirty: Vec<HashSet<GroupKey>>,
}

/// The determinant key of `row`: one atom per attribute of `lhs`, in
/// attribute order.
fn key_of(lhs: AttrSet, row: RowId, atom: &mut impl FnMut(RowId, AttrId) -> u64) -> GroupKey {
    let mut key = GroupKey::with_capacity(lhs.len());
    key.extend(lhs.iter().map(|a| atom(row, a)));
    key
}

impl BucketIndex {
    /// Files each of the `live` rows (ascending) under every non-trivial
    /// FD of `fds`, keyed by `atom(row, attr)` over the FD's
    /// determinant. `slot_bound` sizes the per-row key tables. Nothing
    /// is dirty yet: the first agenda draws every multi-row bucket.
    pub(crate) fn build(
        fds: &FdSet,
        arity: usize,
        slot_bound: usize,
        live: &[RowId],
        mut atom: impl FnMut(RowId, AttrId) -> u64,
    ) -> BucketIndex {
        let slots: Vec<FdSlot> = fds
            .iter()
            .enumerate()
            .map(|(original_index, fd)| FdSlot {
                original_index,
                fd: fd.normalized(),
            })
            .filter(|slot| !slot.fd.is_trivial())
            .collect();
        let mut lhs_slots = vec![Vec::new(); arity];
        let mut buckets = Vec::with_capacity(slots.len());
        let mut row_keys = Vec::with_capacity(slots.len());
        for (si, slot) in slots.iter().enumerate() {
            for a in slot.fd.lhs.iter() {
                lhs_slots[a.index()].push(si);
            }
            let mut fd_buckets: HashMap<GroupKey, Vec<RowId>> = HashMap::with_capacity(live.len());
            let mut fd_keys = vec![GroupKey::new(); slot_bound];
            for &row in live {
                let key = key_of(slot.fd.lhs, row, &mut atom);
                fd_buckets.entry(key.clone()).or_default().push(row);
                fd_keys[row.index()] = key;
            }
            buckets.push(fd_buckets);
            row_keys.push(fd_keys);
        }
        let dirty = vec![HashSet::new(); slots.len()];
        BucketIndex {
            slots,
            lhs_slots,
            buckets,
            row_keys,
            dirty,
        }
    }

    /// The non-trivial FDs, in set order; a slot's position is the `si`
    /// the other methods take.
    pub(crate) fn slots(&self) -> &[FdSlot] {
        &self.slots
    }

    /// Draws slot `si`'s agenda as `(least member, key)` pairs, sorted:
    /// every multi-row bucket on the `first` pass (clearing the dirty
    /// set), the drained dirty keys that are still multi-row after.
    pub(crate) fn agenda(&mut self, si: usize, first: bool) -> Vec<(RowId, GroupKey)> {
        let least = |rows: &[RowId]| rows.iter().copied().min().expect("non-empty");
        let mut agenda: Vec<(RowId, GroupKey)> = if first {
            self.dirty[si].clear();
            self.buckets[si]
                .iter()
                .filter(|(_, rows)| rows.len() > 1)
                .map(|(key, rows)| (least(rows), key.clone()))
                .collect()
        } else {
            std::mem::take(&mut self.dirty[si])
                .into_iter()
                .filter_map(|key| {
                    let rows = self.buckets[si].get(&key)?;
                    (rows.len() > 1).then(|| (least(rows), key))
                })
                .collect()
        };
        agenda.sort_unstable();
        agenda
    }

    /// The member rows (unsorted) of slot `si`'s bucket at `key`, or
    /// `None` when the bucket has migrated away.
    pub(crate) fn rows(&self, si: usize, key: &GroupKey) -> Option<&[RowId]> {
        self.buckets[si].get(key).map(Vec::as_slice)
    }

    /// Is no bucket awaiting a re-sweep?
    pub(crate) fn is_clean(&self) -> bool {
        self.dirty.iter().all(HashSet::is_empty)
    }

    /// Re-files, en bloc, every bucket whose key covers one of the
    /// `moved` sites, after a rule changed those sites' atom; `atom`
    /// reads the new state. Co-members share their key, so one member
    /// is re-keyed per bucket. A bucket landing on an existing key
    /// merges into it, and every new key is marked dirty — a pure
    /// rename too: the running pass's agenda holds the old key, so a
    /// renamed, not-yet-swept bucket (a cross-column NEC class renaming
    /// a bucket of the FD being swept) would otherwise be lost, and with
    /// it the fixpoint. A rename costs at most one no-op sweep.
    pub(crate) fn migrate(&mut self, moved: &[Site], mut atom: impl FnMut(RowId, AttrId) -> u64) {
        let mut touched: Vec<(usize, GroupKey)> = Vec::new();
        for &(row, col) in moved {
            for &si in &self.lhs_slots[col as usize] {
                touched.push((si, self.row_keys[si][row.index()].clone()));
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for (si, old_key) in touched {
            let Some(rows) = self.buckets[si].remove(&old_key) else {
                continue;
            };
            let new_key = key_of(self.slots[si].fd.lhs, rows[0], &mut atom);
            for &row in &rows {
                self.row_keys[si][row.index()] = new_key.clone();
            }
            self.dirty[si].remove(&old_key);
            match self.buckets[si].entry(new_key.clone()) {
                Entry::Occupied(mut entry) => entry.get_mut().extend_from_slice(&rows),
                Entry::Vacant(entry) => {
                    entry.insert(rows);
                }
            }
            self.dirty[si].insert(new_key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_relation::Schema;

    /// One `A -> B` index over rows `0..atoms.len()`, row `i` keyed by
    /// `atoms[i]` on `A`.
    fn index(atoms: &[u64]) -> BucketIndex {
        let schema = Schema::uniform("R", &["A", "B"], 4).unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let live: Vec<RowId> = (0..atoms.len() as u32).map(RowId).collect();
        BucketIndex::build(&fds, 2, atoms.len(), &live, |row, _| atoms[row.index()])
    }

    /// Re-keys the `A` cells of `rows` after their atoms became `atoms`.
    fn rekey(index: &mut BucketIndex, rows: &[u32], atoms: &[u64]) {
        let moved: Vec<Site> = rows.iter().map(|&r| (RowId(r), 0)).collect();
        index.migrate(&moved, |row, _| atoms[row.index()]);
    }

    #[test]
    fn first_draw_takes_every_multi_row_bucket_by_least_member() {
        let mut index = index(&[20, 10, 20, 30, 10, 40]);
        index.dirty[0].insert(vec![30]);
        assert_eq!(
            index.agenda(0, true),
            vec![(RowId(0), vec![20]), (RowId(1), vec![10])]
        );
        assert!(index.is_clean(), "the first draw clears the dirty set");
        assert_eq!(index.agenda(0, false), vec![]);
    }

    #[test]
    fn a_pure_rename_re_enters_the_dirty_set() {
        let mut index = index(&[10, 10, 20]);
        assert_eq!(index.agenda(0, true), vec![(RowId(0), vec![10])]);
        rekey(&mut index, &[0, 1], &[11, 11, 20]);
        assert_eq!(index.rows(0, &vec![10]), None);
        assert_eq!(index.rows(0, &vec![11]), Some(&[RowId(0), RowId(1)][..]));
        assert_eq!(index.agenda(0, false), vec![(RowId(0), vec![11])]);
        assert!(index.is_clean());
    }

    #[test]
    fn buckets_re_keyed_onto_one_key_merge_and_are_dirty_once() {
        let mut index = index(&[10, 20, 10, 20, 40]);
        index.agenda(0, true);
        rekey(&mut index, &[0, 1, 2, 3], &[30, 30, 30, 30, 40]);
        let mut merged = index.rows(0, &vec![30]).unwrap().to_vec();
        merged.sort_unstable();
        assert_eq!(merged, [0, 1, 2, 3].map(RowId));
        assert_eq!(index.rows(0, &vec![20]), None);
        assert_eq!(index.dirty[0], HashSet::from([vec![30]]));
        assert_eq!(index.agenda(0, false), vec![(RowId(0), vec![30])]);
    }
}
