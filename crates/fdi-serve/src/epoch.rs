//! Published epochs and the reader side of the split.
//!
//! An [`Epoch`] is a self-contained, immutable snapshot; an
//! [`EpochCell`] is the single publication point the writer swaps and
//! readers load; a [`Reader`] is a cheap-to-clone handle that hands
//! any thread the current epoch as an `Arc`.

use fdi_core::query::plan::CompiledQuery;
use fdi_core::query::{Query, Selection};
use fdi_core::update::Database;
use fdi_obs::{Counter, Hist, Recorder};
use fdi_relation::RelationError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One immutable published state: the chased instance (with its NEC
/// forest, inside the [`Database`]), stamped with its position
/// in the epoch sequence. All query entry points take `&self` — an
/// epoch never changes after construction (the plan cache is
/// interior-mutable but semantically transparent), so any number of
/// threads may share one through an `Arc`.
#[derive(Debug)]
pub struct Epoch {
    seq: u64,
    ops_applied: u64,
    db: Database,
    fingerprint: u64,
    /// Compiled-plan cache, keyed by the query's canonical encoding
    /// (the fingerprint's preimage, so the cache is collision-proof).
    /// Populated lazily by [`Epoch::select`] / [`Epoch::compiled`];
    /// the lock is held only for a map probe or insert, never across
    /// an evaluation.
    plans: Mutex<HashMap<Vec<u8>, Arc<CompiledQuery>>>,
}

impl Epoch {
    /// Builds an epoch from a snapshot of the writer's database.
    pub(crate) fn new(seq: u64, ops_applied: u64, db: Database) -> Epoch {
        let mut state = Vec::new();
        db.instance().encode_state(&mut state);
        let fingerprint = fdi_store::crc::crc32(&state) as u64;
        Epoch {
            seq,
            ops_applied,
            db,
            fingerprint,
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// Position in the epoch sequence (0 = the state at open, before
    /// any publication).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of accepted ops this epoch reflects, counted from the
    /// journal's genesis — i.e. which accepted-op prefix a sequential
    /// replay needs to reproduce this state.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The snapshotted database (instance + FDs + enforcement).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// CRC-32 of the instance's exact encoded state ([`Instance::
    /// encode_state`](fdi_relation::Instance::encode_state): symbols,
    /// null allocator, NEC forest, slots, free list). Two epochs with
    /// equal fingerprints at equal `ops_applied` are replays of the
    /// same accepted-op prefix — the currency the bit-identical
    /// determinism tests compare across reader counts and runs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sure/maybe answer sets for `query` against this epoch, through
    /// the compiled path: the query is compiled **once per epoch**
    /// (encoding-keyed plan cache) and evaluated in one pass by
    /// [`CompiledQuery::select_stats`]. Equal to
    /// [`fdi_core::query::select`], errors included — the proptest
    /// suite holds both paths to the same answer.
    ///
    /// `rec` tallies plan-cache hits/misses, compiles, NEC-signature
    /// memo hits/misses, and classical (null-free fast-path) rows. All of those are **nondeterministic**
    /// metrics by the [`fdi_obs`] contract — they depend on which reader
    /// asked what, in which order — so recording here never perturbs
    /// the deterministic set, and the recorder never changes an answer.
    pub fn select(&self, query: &Query, rec: &Recorder) -> Result<Selection, RelationError> {
        let plan = self.plan_for(CompiledQuery::encode(query), query, rec);
        let live_rows = self.db.instance().len() as u64;
        let (selection, memo) = plan.select_stats(self.db.instance())?;
        rec.add(Counter::MemoHits, memo.hits);
        rec.add(Counter::MemoMisses, memo.misses);
        // Rows that never consulted the memo took the classical
        // (null-free, Codd-semantics) fast path.
        rec.add(
            Counter::ClassicalRows,
            live_rows.saturating_sub(memo.hits + memo.misses),
        );
        Ok(selection)
    }

    /// The compiled plan for `query` against this epoch, from the
    /// per-epoch cache (compiling on first use).
    pub fn compiled(&self, query: &Query) -> Arc<CompiledQuery> {
        self.plan_for(CompiledQuery::encode(query), query, &Recorder::noop())
    }

    fn plan_for(&self, key: Vec<u8>, query: &Query, rec: &Recorder) -> Arc<CompiledQuery> {
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = plans.get(&key) {
            rec.incr(Counter::PlanCacheHits);
            return Arc::clone(plan);
        }
        rec.incr(Counter::PlanCacheMisses);
        rec.incr(Counter::QueryCompiles);
        let plan = Arc::new(CompiledQuery::compile(query, self.db.instance()));
        plans.insert(key, Arc::clone(&plan));
        plan
    }

    /// Number of plans cached on this epoch so far.
    pub fn plan_cache_len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// The publication point: readers load the current epoch, the writer
/// swaps in the next one. The critical section on either side is O(1)
/// — an `Arc` clone or a pointer-sized store — so readers never wait on
/// epoch construction and the writer never waits on queries in flight
/// (they keep their own `Arc` to the old epoch, which stays alive until
/// its last holder drops it).
///
/// Implementation note: the cell is an `RwLock<Arc<Epoch>>` rather than
/// a raw atomic pointer because the workspace forbids `unsafe`; the
/// lock is held only for the `Arc` clone/store, never across a query,
/// which preserves the "readers never block writers" contract in
/// everything but the pointer-swap instant.
#[derive(Debug)]
pub struct EpochCell {
    cell: RwLock<Arc<Epoch>>,
}

impl EpochCell {
    pub(crate) fn new(epoch: Arc<Epoch>) -> EpochCell {
        EpochCell {
            cell: RwLock::new(epoch),
        }
    }

    /// The current epoch. (Lock poisoning cannot corrupt an `Arc`
    /// swap, so a poisoned lock is simply read through.)
    pub fn load(&self) -> Arc<Epoch> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub(crate) fn store(&self, epoch: Arc<Epoch>) {
        *self.cell.write().unwrap_or_else(PoisonError::into_inner) = epoch;
    }
}

/// A reader handle: clone one per thread, call [`Reader::snapshot`] as
/// often as desired. Each snapshot is the most recently published epoch
/// at that instant; holding it pins that epoch (not the writer).
#[derive(Debug, Clone)]
pub struct Reader {
    cell: Arc<EpochCell>,
    rec: Recorder,
}

impl Reader {
    pub(crate) fn new(cell: Arc<EpochCell>) -> Reader {
        Reader {
            cell,
            rec: Recorder::noop(),
        }
    }

    /// Routes this reader's observability (snapshot-read count and
    /// acquisition latency — both **nondeterministic** metrics) into
    /// `rec`. Clones made after this call inherit the sink; the default
    /// is the noop recorder.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The currently published epoch.
    pub fn snapshot(&self) -> Arc<Epoch> {
        self.rec.incr(Counter::SnapshotReads);
        let _span = self.rec.span(Hist::SnapshotAcquireNanos);
        self.cell.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole point of the split is sharing epochs across threads:
    // hold the Send + Sync requirement as a compile-time fact.
    #[test]
    fn epochs_and_readers_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Epoch>();
        assert_send_sync::<EpochCell>();
        assert_send_sync::<Reader>();
        assert_send_sync::<Arc<Epoch>>();
    }
}
