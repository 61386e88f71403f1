//! Null-equality constraints (NECs) as a union–find over null ids.
//!
//! Definition 1 of the paper: *a null-equality constraint is a statement
//! to the effect that two null values are equal — they must take the same
//! value in any substitution.* NECs partition the nulls of an instance
//! into equivalence classes; the NS-rules of §6 introduce new NECs when
//! two nulls are forced to agree, and every satisfiability convention in
//! Theorems 2–3 consults these classes when comparing nulls.
//!
//! Implementation: a standard union–find with union by rank and path
//! compression, growing on demand as null ids are allocated.

use crate::serial::{self, DecodeError, Reader};
use crate::value::NullId;

/// Union–find over null equivalence classes.
///
/// Equality is **representation** equality (same parent pointers, ranks,
/// and merge count), which is what the durability layer's exact-state
/// round-trip asserts — two stores can describe the same partition yet
/// compare unequal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NecStore {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Number of union operations performed (distinct-class merges).
    merges: usize,
}

impl NecStore {
    /// An empty store.
    pub fn new() -> NecStore {
        NecStore::default()
    }

    fn ensure(&mut self, id: NullId) {
        let need = id.index() + 1;
        while self.parent.len() < need {
            self.parent.push(self.parent.len() as u32);
            self.rank.push(0);
        }
    }

    /// Representative of `id`'s class, with path compression.
    pub fn find(&mut self, id: NullId) -> NullId {
        self.ensure(id);
        let mut root = id.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = id.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        NullId(root)
    }

    /// Representative without mutation (no compression); ids never seen
    /// are their own class.
    pub fn find_readonly(&self, id: NullId) -> NullId {
        let mut cur = id.0;
        while (cur as usize) < self.parent.len() && self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
        }
        NullId(cur)
    }

    /// Introduces the NEC `a := b`. Returns `true` when the two classes
    /// were distinct (knowledge increased).
    pub fn union(&mut self, a: NullId, b: NullId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra.index()] >= self.rank[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo.index()] = hi.0;
        if self.rank[hi.index()] == self.rank[lo.index()] {
            self.rank[hi.index()] += 1;
        }
        self.merges += 1;
        true
    }

    /// Do `a` and `b` denote the same unknown value?
    pub fn same_class(&self, a: NullId, b: NullId) -> bool {
        a == b || self.find_readonly(a) == self.find_readonly(b)
    }

    /// Number of distinct-class merges performed so far.
    pub fn merge_count(&self) -> usize {
        self.merges
    }

    /// A fully-compressed, read-only view of the partition: every id maps
    /// directly to its class representative, so lookups are a single
    /// array read instead of a parent-chain walk.
    ///
    /// [`NecStore::find_readonly`] deliberately skips path compression
    /// (it takes `&self`), which makes it `O(chain)` per call — too slow
    /// for the grouping hot loops that compare every cell of an instance.
    /// Those loops take one snapshot up front and query it; the snapshot
    /// is invalidated by subsequent [`NecStore::union`] calls, so it is a
    /// per-pass structure, not a cache.
    pub fn canonical_snapshot(&self) -> NecSnapshot {
        const UNRESOLVED: u32 = u32::MAX;
        let n = self.parent.len();
        let mut roots = vec![UNRESOLVED; n];
        let mut chain = Vec::new();
        for id in 0..n {
            if roots[id] != UNRESOLVED {
                continue;
            }
            chain.clear();
            let mut cur = id;
            while roots[cur] == UNRESOLVED && self.parent[cur] as usize != cur {
                chain.push(cur);
                cur = self.parent[cur] as usize;
            }
            let root = if roots[cur] != UNRESOLVED {
                roots[cur]
            } else {
                cur as u32
            };
            roots[cur] = root;
            for &link in &chain {
                roots[link] = root;
            }
        }
        NecSnapshot { roots }
    }

    /// Serializes the exact union–find representation (parent pointers,
    /// ranks, merge count) — not just the partition it denotes — so a
    /// decoded store is indistinguishable from the original under any
    /// later sequence of operations (same compression paths, same union
    /// tie-breaks).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        serial::put_u32(out, self.parent.len() as u32);
        for &p in &self.parent {
            serial::put_u32(out, p);
        }
        for &r in &self.rank {
            serial::put_u8(out, r);
        }
        serial::put_u64(out, self.merges as u64);
    }

    /// Decodes a store serialized by [`NecStore::encode_state`],
    /// validating that every parent pointer is in range and keeps union
    /// by rank's invariants: a parent outranks its child (so `find`
    /// terminates), and a node of rank `r` heads at least `2^r` ids.
    pub fn decode_state(r: &mut Reader<'_>) -> Result<NecStore, DecodeError> {
        let n = r.u32()? as usize;
        let mut parent = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let p = r.u32()?;
            if p as usize >= n {
                return Err(r.err(format!("parent pointer {p} out of range (store size {n})")));
            }
            parent.push(p);
        }
        let mut rank = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            rank.push(r.u8()?);
        }
        let merges = r.u64()? as usize;
        for (i, (&p, &rk)) in parent.iter().zip(&rank).enumerate() {
            if (p as usize != i && rank[p as usize] <= rk) || rk >= 64 || 1u64 << rk > n as u64 {
                return Err(r.err(format!(
                    "id {i} (rank {rk}, parent {p}) breaks union by rank"
                )));
            }
        }
        Ok(NecStore {
            parent,
            rank,
            merges,
        })
    }
}

/// Read-only, fully-compressed view of a [`NecStore`] partition.
///
/// Built by [`NecStore::canonical_snapshot`]; stale after any later
/// `union`. Equality compares the fully-compressed root tables
/// entry-for-entry — two snapshots are equal exactly when their stores
/// tracked the same id range and partition it identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NecSnapshot {
    roots: Vec<u32>,
}

impl NecSnapshot {
    /// The class representative of `id`; ids never seen by the store are
    /// their own class.
    #[inline]
    pub fn root(&self, id: NullId) -> NullId {
        match self.roots.get(id.index()) {
            Some(&r) => NullId(r),
            None => id,
        }
    }

    /// Do `a` and `b` denote the same unknown value?
    #[inline]
    pub fn same_class(&self, a: NullId, b: NullId) -> bool {
        a == b || self.root(a) == self.root(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    #[test]
    fn snapshot_matches_find_readonly() {
        let mut store = NecStore::new();
        store.union(n(0), n(1));
        store.union(n(1), n(2));
        store.union(n(5), n(9));
        store.union(n(9), n(2));
        let snap = store.canonical_snapshot();
        for i in 0..12 {
            assert_eq!(snap.root(n(i)), store.find_readonly(n(i)), "id {i}");
        }
        assert!(snap.same_class(n(0), n(5)));
        assert!(!snap.same_class(n(0), n(3)));
        // ids beyond the tracked range are their own class
        assert_eq!(snap.root(n(1000)), n(1000));
        assert!(snap.same_class(n(1000), n(1000)));
        assert!(!snap.same_class(n(1000), n(1001)));
    }

    #[test]
    fn fresh_ids_are_their_own_class() {
        let store = NecStore::new();
        assert!(store.same_class(n(3), n(3)));
        assert!(!store.same_class(n(3), n(4)));
        assert_eq!(store.find_readonly(n(9)), n(9));
    }

    #[test]
    fn union_merges_classes() {
        let mut store = NecStore::new();
        assert!(store.union(n(0), n(1)));
        assert!(store.same_class(n(0), n(1)));
        assert!(!store.union(n(1), n(0)), "already merged");
        assert!(store.union(n(1), n(2)));
        assert!(store.same_class(n(0), n(2)), "transitivity");
        assert_eq!(store.merge_count(), 2);
    }

    #[test]
    fn unions_are_sparse_friendly() {
        let mut store = NecStore::new();
        store.union(n(100), n(5));
        assert!(store.same_class(n(5), n(100)));
        assert!(!store.same_class(n(5), n(99)));
    }

    #[test]
    fn exact_state_round_trips() {
        let mut store = NecStore::new();
        store.union(n(0), n(4));
        store.union(n(4), n(2));
        store.union(n(7), n(9));
        // compress some paths so parent/rank carry non-trivial structure
        store.find(n(2));
        let mut buf = Vec::new();
        store.encode_state(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = NecStore::decode_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(decoded, store, "representation-exact round trip");
        assert_eq!(decoded.merge_count(), store.merge_count());
        assert_eq!(decoded.canonical_snapshot(), store.canonical_snapshot());
    }

    #[test]
    fn decode_rejects_out_of_range_parents() {
        let mut buf = Vec::new();
        serial::put_u32(&mut buf, 2); // two ids …
        serial::put_u32(&mut buf, 0);
        serial::put_u32(&mut buf, 5); // … but a parent pointing at id 5
        serial::put_u8(&mut buf, 0);
        serial::put_u8(&mut buf, 0);
        serial::put_u64(&mut buf, 0);
        let err = NecStore::decode_state(&mut Reader::new(&buf)).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn decode_rejects_stores_union_by_rank_cannot_build() {
        let decode = |parent: &[u32], rank: &[u8], merges: u64| {
            let mut buf = Vec::new();
            serial::put_u32(&mut buf, parent.len() as u32);
            parent.iter().for_each(|&p| serial::put_u32(&mut buf, p));
            rank.iter().for_each(|&r| serial::put_u8(&mut buf, r));
            serial::put_u64(&mut buf, merges);
            NecStore::decode_state(&mut Reader::new(&buf)).map_err(|e| e.message)
        };
        assert!(decode(&[1, 1], &[0, 1], 1).is_ok());
        // a cycle `find` would never leave
        let err = decode(&[1, 0], &[1, 1], 2).unwrap_err();
        assert!(err.contains("breaks union by rank"), "{err}");
        // a rank a union would overflow
        let err = decode(&[0, 1], &[255, 255], 0).unwrap_err();
        assert!(err.contains("rank 255"), "{err}");
    }

    #[test]
    fn snapshot_equality_tracks_partitions() {
        let mut a = NecStore::new();
        let mut b = NecStore::new();
        a.union(n(0), n(1));
        b.union(n(0), n(1));
        assert_eq!(a.canonical_snapshot(), b.canonical_snapshot());
        b.union(n(2), n(3));
        assert_ne!(a.canonical_snapshot(), b.canonical_snapshot());
    }

    #[test]
    fn find_compresses_paths() {
        let mut store = NecStore::new();
        store.union(n(0), n(1));
        store.union(n(1), n(2));
        store.union(n(2), n(3));
        let root = store.find(n(3));
        for i in 0..4 {
            assert_eq!(store.find(n(i)), root);
        }
    }
}
