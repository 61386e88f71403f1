//! A [`Database`] paired with its op journal: every accepted mutation
//! is journaled before the call returns.
//!
//! Ordering is **apply, then journal**: the op runs against the live
//! database first (so rejections are decided by the real enforcement
//! machinery and journal *nothing*), then the accepted op — together
//! with the ids the database assigned — is appended. Under
//! [`SyncPolicy::EveryOp`] the append is followed by a sync, so an
//! `Ok` return means the op is durable.
//!
//! If journaling an accepted op **fails**, the pair is poisoned: the
//! live database has already applied (and possibly propagated) the op,
//! and un-propagating is not supported, so the in-memory state is ahead
//! of the durable state with no way to reconcile. Every later mutation
//! returns [`JournaledError::Poisoned`]; recovery from the journal is
//! the way back. Checkpoint failure does *not* poison — a failed
//! [`Storage::replace`] leaves the old journal fully valid.
//!
//! [`SyncPolicy::GroupCommit`] amortizes the sync barrier: accepted ops
//! accumulate in an in-memory pending batch and are flushed as **one**
//! batch record followed by **one** sync — when the batch fills or on
//! an explicit [`JournaledDatabase::commit`] — or are absorbed into the
//! snapshot by a [`JournaledDatabase::checkpoint`]. Because the batch
//! is a single CRC-framed record, it is durable all or nothing: a crash
//! can lose at most the not-yet-committed batch, and recovery always
//! lands exactly on a batch boundary — never inside one. A failed batch
//! append or sync poisons the pair just like [`SyncPolicy::EveryOp`]:
//! only the unacknowledged batch is lost, every earlier committed batch
//! recovers.

use crate::journal::{Journal, JournalOp};
use crate::storage::{Storage, StoreError};
use fdi_core::update::{Database, UpdateError, UpdateOutcome};
use fdi_relation::rowid::RowId;
use fdi_relation::AttrId;
use std::fmt;

/// When the journal syncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync after every accepted op: `Ok` means durable.
    #[default]
    EveryOp,
    /// Group commit: accepted ops buffer in memory and are flushed as
    /// one batch record + one sync when `max_batch` ops have
    /// accumulated (a `max_batch` of 0 behaves like 1) or at an
    /// explicit [`JournaledDatabase::commit`] barrier. A crash loses at
    /// most the pending batch; recovery lands exactly on a batch
    /// boundary.
    GroupCommit {
        /// Ops per batch before an automatic commit fires.
        max_batch: usize,
    },
}

/// Errors from a journaled mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournaledError {
    /// The database rejected the op (nothing was journaled; the pair is
    /// still consistent and usable).
    Update(UpdateError),
    /// The op was applied but journaling it failed — the pair is now
    /// poisoned (see the module docs).
    Journal(StoreError),
    /// A previous journal failure poisoned the pair; no further
    /// mutations are accepted.
    Poisoned,
}

impl fmt::Display for JournaledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournaledError::Update(e) => write!(f, "{e}"),
            JournaledError::Journal(e) => {
                write!(
                    f,
                    "op applied but journaling failed (database poisoned): {e}"
                )
            }
            JournaledError::Poisoned => write!(
                f,
                "database poisoned by an earlier journal failure; recover from the journal"
            ),
        }
    }
}

impl std::error::Error for JournaledError {}

impl From<UpdateError> for JournaledError {
    fn from(e: UpdateError) -> Self {
        JournaledError::Update(e)
    }
}

/// A database whose accepted mutations are journaled write-through.
#[derive(Debug)]
pub struct JournaledDatabase<S: Storage> {
    db: Database,
    journal: Journal<S>,
    sync_policy: SyncPolicy,
    poisoned: bool,
    /// Accepted-but-not-yet-committed ops under
    /// [`SyncPolicy::GroupCommit`]; always empty under
    /// [`SyncPolicy::EveryOp`].
    pending: Vec<JournalOp>,
    /// Metrics sink for the pairing-level `journal_pending_ops` gauge
    /// (noop unless [`JournaledDatabase::set_recorder`] routed one in).
    rec: fdi_obs::Recorder,
}

impl<S: Storage> JournaledDatabase<S> {
    /// Pairs `db` with a fresh journal created in empty `storage`
    /// (genesis = a snapshot of `db` as given).
    pub fn create(
        db: Database,
        storage: S,
        sync_policy: SyncPolicy,
    ) -> Result<JournaledDatabase<S>, crate::journal::CreateError> {
        let journal = Journal::create(storage, &db)?;
        Ok(JournaledDatabase {
            db,
            journal,
            sync_policy,
            poisoned: false,
            pending: Vec::new(),
            rec: fdi_obs::Recorder::noop(),
        })
    }

    /// Pairs an already-recovered database with its reopened journal
    /// (the [`Journal::recover`] result).
    pub fn resume(db: Database, journal: Journal<S>, sync_policy: SyncPolicy) -> Self {
        JournaledDatabase {
            db,
            journal,
            sync_policy,
            poisoned: false,
            pending: Vec::new(),
            rec: fdi_obs::Recorder::noop(),
        }
    }

    /// Routes the whole pairing's metrics into `rec`: the database's
    /// mutation counters ([`Database::set_recorder`]), the journal's
    /// record/sync metrics ([`Journal::set_recorder`]), and this
    /// level's `journal_pending_ops` gauge.
    pub fn set_recorder(&mut self, rec: fdi_obs::Recorder) {
        self.db.set_recorder(rec.clone());
        self.journal.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// The live database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The journal.
    pub fn journal(&self) -> &Journal<S> {
        &self.journal
    }

    /// `true` once a journal failure left durable state behind the
    /// in-memory state.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Unwraps into the live database and journal. Under
    /// [`SyncPolicy::GroupCommit`] any pending (uncommitted) ops are
    /// dropped from the durable log — call
    /// [`JournaledDatabase::commit`] first if they must survive.
    pub fn into_parts(self) -> (Database, Journal<S>) {
        (self.db, self.journal)
    }

    /// Ops accepted but not yet committed to the journal (always 0
    /// outside [`SyncPolicy::GroupCommit`]).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    fn journal_accepted(&mut self, op: JournalOp) -> Result<(), JournaledError> {
        if let SyncPolicy::GroupCommit { max_batch } = self.sync_policy {
            self.pending.push(op);
            self.rec
                .gauge_set(fdi_obs::Gauge::JournalPendingOps, self.pending.len() as u64);
            if self.pending.len() >= max_batch.max(1) {
                self.commit()?;
            }
            return Ok(());
        }
        if let Err(e) = self.journal.append(&op) {
            self.poisoned = true;
            return Err(JournaledError::Journal(e));
        }
        if let Err(e) = self.journal.sync() {
            self.poisoned = true;
            return Err(JournaledError::Journal(e));
        }
        Ok(())
    }

    /// Group-commit barrier: flushes the pending batch as one journal
    /// record under one sync, returning how many ops became durable (0
    /// when nothing was pending — always the case under
    /// [`SyncPolicy::EveryOp`], where every op is durable on return). A
    /// failed append or sync poisons the pair: the whole pending batch
    /// is the unacknowledged loss, every previously committed batch is
    /// already durable.
    pub fn commit(&mut self) -> Result<usize, JournaledError> {
        self.check_usable()?;
        if self.pending.is_empty() {
            return Ok(0);
        }
        if let Err(e) = self.journal.append_batch(&self.pending) {
            self.poisoned = true;
            return Err(JournaledError::Journal(e));
        }
        if let Err(e) = self.journal.sync() {
            self.poisoned = true;
            return Err(JournaledError::Journal(e));
        }
        let committed = self.pending.len();
        self.pending.clear();
        self.rec.gauge_set(fdi_obs::Gauge::JournalPendingOps, 0);
        Ok(committed)
    }

    fn check_usable(&self) -> Result<(), JournaledError> {
        if self.poisoned {
            Err(JournaledError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Journaled [`Database::insert`].
    pub fn insert(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, JournaledError> {
        self.check_usable()?;
        let outcome = self.db.insert(tokens)?;
        self.journal_accepted(JournalOp::Insert {
            row: outcome.row,
            tokens: tokens.iter().map(|t| t.to_string()).collect(),
        })?;
        Ok(outcome)
    }

    /// Journaled [`Database::delete`].
    pub fn delete(&mut self, row: RowId) -> Result<UpdateOutcome, JournaledError> {
        self.check_usable()?;
        let outcome = self.db.delete(row)?;
        self.journal_accepted(JournalOp::Delete { row })?;
        Ok(outcome)
    }

    /// Journaled [`Database::modify`].
    pub fn modify(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, JournaledError> {
        self.check_usable()?;
        let outcome = self.db.modify(row, attr, token)?;
        self.journal_accepted(JournalOp::Modify {
            row,
            attr,
            token: token.to_string(),
        })?;
        Ok(outcome)
    }

    /// Journaled [`Database::resolve_null`].
    pub fn resolve_null(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, JournaledError> {
        self.check_usable()?;
        let outcome = self.db.resolve_null(row, attr, token)?;
        self.journal_accepted(JournalOp::ResolveNull {
            row,
            attr,
            token: token.to_string(),
        })?;
        Ok(outcome)
    }

    /// Journaled [`Database::compact`]: the performed `(old → new)`
    /// remap is recorded so replay can verify it reproduces exactly.
    pub fn compact(&mut self) -> Result<Vec<(RowId, RowId)>, JournaledError> {
        self.check_usable()?;
        let moved = self.db.compact();
        self.journal_accepted(JournalOp::Compact {
            moved: moved.clone(),
        })?;
        Ok(moved)
    }

    /// Checkpoints the journal: atomically replaces it with a genesis
    /// snapshot of the current database. Failure does **not** poison —
    /// the old journal is still fully valid and covers every op, and a
    /// pending group-commit batch stays pending. On success any pending
    /// ops are absorbed into the snapshot (the current database already
    /// reflects them), so the batch needs no record of its own.
    pub fn checkpoint(&mut self) -> Result<(), JournaledError> {
        self.check_usable()?;
        self.journal
            .checkpoint(&self.db)
            .map_err(JournaledError::Journal)?;
        self.pending.clear();
        self.rec.gauge_set(fdi_obs::Gauge::JournalPendingOps, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultyStorage};
    use crate::journal::Journal;
    use crate::storage::MemStorage;
    use fdi_core::update::Policy;
    use fdi_core::FdSet;
    use fdi_relation::{Instance, Schema};
    use std::sync::Arc;

    fn fresh_db(enforcement: fdi_core::update::Enforcement) -> Database {
        let schema = Schema::builder("emp")
            .attribute("dept", ["d1", "d2", "d3"])
            .attribute("mgr", ["m1", "m2", "m3"])
            .build()
            .unwrap();
        let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
        let policy = Policy {
            enforcement,
            propagate: true,
        };
        Database::new(Instance::new(Arc::clone(&schema)), fds, policy).unwrap()
    }

    #[test]
    fn accepted_ops_round_trip_through_recovery() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let mut jdb =
            JournaledDatabase::create(db, MemStorage::new(), SyncPolicy::EveryOp).unwrap();
        let r1 = jdb.insert(&["d1", "m1"]).unwrap().row;
        let r2 = jdb.insert(&["d2", "-"]).unwrap().row;
        jdb.modify(r2, AttrId(1), "m2").unwrap();
        jdb.delete(r1).unwrap();
        jdb.compact().unwrap();
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage()).unwrap();
        assert_eq!(recovered.ops.len(), 5);
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }

    #[test]
    fn rejected_ops_journal_nothing() {
        let db = fresh_db(fdi_core::update::Enforcement::Strong);
        let mut jdb =
            JournaledDatabase::create(db, MemStorage::new(), SyncPolicy::EveryOp).unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        let len_before = jdb.journal().storage().len();
        // violates dept -> mgr under Strong: rejected by the database
        let err = jdb.insert(&["d1", "m2"]).unwrap_err();
        assert!(matches!(err, JournaledError::Update(_)));
        assert_eq!(
            jdb.journal().storage().len(),
            len_before,
            "a rejected op must leave no journal bytes"
        );
        // the pair is NOT poisoned: later ops work
        jdb.insert(&["d2", "m2"]).unwrap();
    }

    #[test]
    fn journal_failure_poisons_the_pair() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        // append 0 = create; append 1 = first op record
        let storage = FaultyStorage::new(MemStorage::new(), vec![Fault::FailWrite { write: 1 }]);
        let mut jdb = JournaledDatabase::create(db, storage, SyncPolicy::EveryOp).unwrap();
        let err = jdb.insert(&["d1", "m1"]).unwrap_err();
        assert!(matches!(err, JournaledError::Journal(_)));
        assert!(jdb.is_poisoned());
        assert_eq!(
            jdb.insert(&["d2", "m2"]).unwrap_err(),
            JournaledError::Poisoned
        );
        // recovery gets the genesis state (the op never became durable)
        let (_, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner().crash()).unwrap();
        assert_eq!(recovered.ops.len(), 0);
        assert_eq!(recovered.db.instance().len(), 0);
    }

    #[test]
    fn checkpoint_failure_does_not_poison() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let storage =
            FaultyStorage::new(MemStorage::new(), vec![Fault::FailReplace { replace: 0 }]);
        let mut jdb = JournaledDatabase::create(db, storage, SyncPolicy::EveryOp).unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        assert!(jdb.checkpoint().is_err());
        assert!(!jdb.is_poisoned(), "old journal is still fully valid");
        jdb.insert(&["d2", "m2"]).unwrap();
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner()).unwrap();
        assert_eq!(
            recovered.ops.len(),
            2,
            "both ops survived the failed checkpoint"
        );
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }

    #[test]
    fn group_commit_batches_ops_under_one_sync() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let storage = FaultyStorage::new(MemStorage::new(), vec![]);
        let mut jdb =
            JournaledDatabase::create(db, storage, SyncPolicy::GroupCommit { max_batch: 3 })
                .unwrap();
        let after_create = jdb.journal().storage().syncs();
        jdb.insert(&["d1", "m1"]).unwrap();
        jdb.insert(&["d2", "m2"]).unwrap();
        assert_eq!(jdb.pending_ops(), 2, "ops buffer until the batch fills");
        assert_eq!(
            jdb.journal().storage().syncs(),
            after_create,
            "no sync before the batch boundary"
        );
        jdb.insert(&["d3", "m3"]).unwrap(); // fills the batch
        assert_eq!(jdb.pending_ops(), 0);
        assert_eq!(
            jdb.journal().storage().syncs(),
            after_create + 1,
            "3 ops, exactly one sync"
        );
        // partial batch + explicit commit
        let r = jdb.insert(&["d1", "-"]).unwrap().row;
        jdb.delete(r).unwrap();
        assert_eq!(jdb.commit().unwrap(), 2);
        assert_eq!(jdb.commit().unwrap(), 0, "commit with nothing pending");
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner()).unwrap();
        assert_eq!(recovered.ops.len(), 5, "batches expand to their ops");
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }

    #[test]
    fn group_commit_crash_loses_only_the_pending_batch() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let mut jdb = JournaledDatabase::create(
            db,
            MemStorage::new(),
            SyncPolicy::GroupCommit { max_batch: 2 },
        )
        .unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        jdb.insert(&["d2", "m2"]).unwrap(); // batch 1 committed
        jdb.insert(&["d3", "m3"]).unwrap(); // pending, never committed
        assert_eq!(jdb.pending_ops(), 1);
        let (_, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().crash()).unwrap();
        assert_eq!(
            recovered.ops.len(),
            2,
            "recovery lands on the last committed batch boundary"
        );
        assert_eq!(recovered.db.instance().len(), 2);
    }

    #[test]
    fn failed_group_sync_poisons_and_loses_only_the_unacked_batch() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        // sync 0 = journal create; sync 1 = batch 1; sync 2 = batch 2 fails
        let storage = FaultyStorage::new(MemStorage::new(), vec![Fault::FailSync { sync: 2 }]);
        let mut jdb =
            JournaledDatabase::create(db, storage, SyncPolicy::GroupCommit { max_batch: 2 })
                .unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        jdb.insert(&["d2", "m2"]).unwrap(); // batch 1: durable
        jdb.insert(&["d3", "m3"]).unwrap();
        let err = jdb.insert(&["d1", "-"]).unwrap_err(); // batch 2: sync fails
        assert!(matches!(err, JournaledError::Journal(_)));
        assert!(jdb.is_poisoned());
        assert_eq!(
            jdb.insert(&["d2", "-"]).unwrap_err(),
            JournaledError::Poisoned
        );
        assert_eq!(jdb.commit().unwrap_err(), JournaledError::Poisoned);
        let (_, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner().crash()).unwrap();
        assert_eq!(recovered.ops.len(), 2, "batch 1 survives, batch 2 is lost");
        assert_eq!(recovered.db.instance().len(), 2);
    }

    #[test]
    fn group_commit_checkpoint_absorbs_the_pending_batch() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let mut jdb = JournaledDatabase::create(
            db,
            MemStorage::new(),
            SyncPolicy::GroupCommit { max_batch: 100 },
        )
        .unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        jdb.insert(&["d2", "m2"]).unwrap();
        assert_eq!(jdb.pending_ops(), 2);
        jdb.checkpoint().unwrap();
        assert_eq!(jdb.pending_ops(), 0, "snapshot absorbed the batch");
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage()).unwrap();
        assert_eq!(recovered.ops.len(), 0);
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }

    #[test]
    fn group_commit_failed_checkpoint_keeps_the_batch_pending() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let storage =
            FaultyStorage::new(MemStorage::new(), vec![Fault::FailReplace { replace: 0 }]);
        let mut jdb =
            JournaledDatabase::create(db, storage, SyncPolicy::GroupCommit { max_batch: 100 })
                .unwrap();
        jdb.insert(&["d1", "m1"]).unwrap();
        assert!(jdb.checkpoint().is_err());
        assert!(!jdb.is_poisoned());
        assert_eq!(jdb.pending_ops(), 1, "the batch is still owed to the log");
        jdb.commit().unwrap();
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner()).unwrap();
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }

    #[test]
    fn group_commit_of_one_matches_every_op_durability() {
        // max_batch 1 (and the 0 alias) must give EveryOp's guarantee:
        // Ok return ⇒ durable, nothing ever pending.
        for max_batch in [0, 1] {
            let db = fresh_db(fdi_core::update::Enforcement::Weak);
            let mut jdb = JournaledDatabase::create(
                db,
                MemStorage::new(),
                SyncPolicy::GroupCommit { max_batch },
            )
            .unwrap();
            jdb.insert(&["d1", "m1"]).unwrap();
            assert_eq!(jdb.pending_ops(), 0);
            let (_, journal) = jdb.into_parts();
            let recovered = Journal::recover(journal.into_storage().crash()).unwrap();
            assert_eq!(recovered.ops.len(), 1, "max_batch {max_batch}");
        }
    }
}
