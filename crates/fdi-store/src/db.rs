//! A [`Database`] paired with its op journal: every accepted mutation
//! is journaled in a group-commit batch.
//!
//! Ordering is **apply, then journal**: the op runs against the live
//! database first (so rejections are decided by the real enforcement
//! machinery and journal *nothing*), then the accepted op — together
//! with the ids the database assigned — joins the pending batch.
//!
//! **Group commit** is the only way an op reaches the journal. The
//! pending batch is flushed as **one** batch record followed by **one**
//! sync when it holds `max_batch` ops (0 counts as 1) or at an explicit
//! [`JournaledDatabase::commit`]. Because the batch is a single
//! CRC-framed record, it is durable all or nothing: a crash can lose at
//! most the not-yet-committed batch, and recovery always lands exactly
//! on a batch boundary — never inside one. With `max_batch` 1, every
//! accepted op is durable before the call that accepted it returns.
//!
//! A batch also commits early, before the op that would push its
//! payload past [`MAX_RECORD_LEN`] joins it, so no batch record outgrows
//! the bound recovery accepts. The journal itself refuses any longer
//! record ([`StoreError::RecordTooLarge`]) before a byte reaches
//! storage; only one op whose own record is over the bound can still
//! meet that refusal, and its commit then fails like any other.
//!
//! If committing a batch **fails**, the pair is poisoned: the live
//! database has already applied (and possibly propagated) the batch's
//! ops, and un-propagating is not supported, so the in-memory state is
//! ahead of the durable state with no way to reconcile. Only the
//! unacknowledged batch is lost — every earlier committed batch
//! recovers — and every later mutation returns
//! [`JournaledError::Poisoned`]; recovery from the journal is the way
//! back. Checkpointing is offline: take the pair apart with
//! [`JournaledDatabase::into_parts`], call [`Journal::checkpoint`], and
//! [`JournaledDatabase::resume`].

use crate::journal::{Journal, JournalOp, BATCH_HEADER_LEN};
use crate::record::MAX_RECORD_LEN;
use crate::storage::{Storage, StoreError};
use fdi_core::update::{Database, UpdateError, UpdateOutcome};
use fdi_relation::rowid::RowId;
use fdi_relation::AttrId;
use std::fmt;

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

/// A database whose accepted mutations are journaled in group-commit
/// batches.
#[derive(Debug)]
pub struct JournaledDatabase<S: Storage> {
    db: Database,
    journal: Journal<S>,
    /// Ops per batch before an automatic commit fires.
    max_batch: usize,
    poisoned: bool,
    /// Accepted-but-not-yet-committed ops.
    pending: Vec<JournalOp>,
    /// Encoded length of `pending`'s ops: the batch record's payload,
    /// less its [`BATCH_HEADER_LEN`].
    pending_len: usize,
    /// Metrics sink for the pairing-level `journal_pending_ops` gauge
    /// (noop unless [`JournaledDatabase::set_recorder`] routed one in).
    rec: fdi_obs::Recorder,
}

impl<S: Storage> JournaledDatabase<S> {
    /// Pairs `db` with a fresh journal created in empty `storage`
    /// (genesis = a snapshot of `db` as given); batches commit once
    /// they hold `max_batch` ops.
    pub fn create(
        db: Database,
        storage: S,
        max_batch: usize,
    ) -> Result<JournaledDatabase<S>, crate::journal::CreateError> {
        let journal = Journal::create(storage, &db)?;
        Ok(JournaledDatabase::resume(db, journal, max_batch))
    }

    /// Pairs an already-recovered database with its reopened journal
    /// (the [`Journal::recover`] result); batches commit once they hold
    /// `max_batch` ops.
    pub fn resume(db: Database, journal: Journal<S>, max_batch: usize) -> Self {
        JournaledDatabase {
            db,
            journal,
            max_batch,
            poisoned: false,
            pending: Vec::new(),
            pending_len: 0,
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

    /// Unwraps into the live database and journal. Any pending
    /// (uncommitted) ops are dropped from the durable log — call
    /// [`JournaledDatabase::commit`] first if they must survive.
    pub fn into_parts(self) -> (Database, Journal<S>) {
        (self.db, self.journal)
    }

    /// Ops accepted but not yet committed to the journal.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    fn journal_accepted(&mut self, op: JournalOp) -> Result<(), JournaledError> {
        let op_len = op.encode().len();
        if !self.pending.is_empty()
            && BATCH_HEADER_LEN + self.pending_len + op_len > MAX_RECORD_LEN as usize
        {
            self.commit()?;
        }
        self.pending.push(op);
        self.pending_len += op_len;
        self.rec
            .gauge_set(fdi_obs::Gauge::JournalPendingOps, self.pending.len() as u64);
        if self.pending.len() >= self.max_batch.max(1) {
            self.commit()?;
        }
        Ok(())
    }

    /// Group-commit barrier: flushes the pending batch as one journal
    /// record under one sync, returning how many ops became durable (0
    /// when nothing was pending). A failed append or sync — or a lone
    /// op whose record would exceed [`MAX_RECORD_LEN`] — poisons the
    /// pair: the whole pending batch is the unacknowledged loss, every
    /// previously committed batch is already durable.
    pub fn commit(&mut self) -> Result<usize, JournaledError> {
        self.check_usable()?;
        if self.pending.is_empty() {
            return Ok(0);
        }
        let written = self
            .journal
            .append_batch(&self.pending)
            .and_then(|()| self.journal.sync());
        if let Err(e) = written {
            self.poisoned = true;
            return Err(JournaledError::Journal(e));
        }
        let committed = self.pending.len();
        self.pending.clear();
        self.pending_len = 0;
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
        let mut jdb = JournaledDatabase::create(db, MemStorage::new(), 1).unwrap();
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
        let mut jdb = JournaledDatabase::create(db, MemStorage::new(), 1).unwrap();
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
        let mut jdb = JournaledDatabase::create(db, storage, 1).unwrap();
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
    fn group_commit_batches_ops_under_one_sync() {
        let db = fresh_db(fdi_core::update::Enforcement::Weak);
        let storage = FaultyStorage::new(MemStorage::new(), vec![]);
        let mut jdb = JournaledDatabase::create(db, storage, 3).unwrap();
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
        let mut jdb = JournaledDatabase::create(db, MemStorage::new(), 2).unwrap();
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
        let mut jdb = JournaledDatabase::create(db, storage, 2).unwrap();
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
    fn a_batch_of_one_is_durable_on_return() {
        // max_batch 1 (and the 0 alias): Ok return ⇒ durable, nothing
        // ever pending.
        for max_batch in [0, 1] {
            let db = fresh_db(fdi_core::update::Enforcement::Weak);
            let mut jdb = JournaledDatabase::create(db, MemStorage::new(), max_batch).unwrap();
            jdb.insert(&["d1", "m1"]).unwrap();
            assert_eq!(jdb.pending_ops(), 0);
            jdb.insert(&["d2", "m2"]).unwrap();
            let (_, journal) = jdb.into_parts();
            let recovered = Journal::recover(journal.into_storage().crash()).unwrap();
            assert_eq!(recovered.ops.len(), 2, "max_batch {max_batch}");
        }
    }

    #[test]
    fn a_batch_commits_early_rather_than_outgrow_the_record_bound() {
        let schema = Schema::builder("wide")
            .attribute_unbounded("v")
            .build()
            .unwrap();
        let db = Database::new(
            Instance::new(Arc::clone(&schema)),
            FdSet::new(),
            Policy::default(),
        )
        .unwrap();
        let storage = FaultyStorage::new(MemStorage::new(), vec![]);
        let mut jdb = JournaledDatabase::create(db, storage, usize::MAX).unwrap();
        // 17 inserts of just over 1 MiB each: 15 fill a batch to just
        // under 16 MiB, so the 16th commits them and opens a new batch
        for i in 0..17 {
            let value = format!("{i:03}{}", "x".repeat(1 << 20));
            jdb.insert(&[&value]).unwrap();
        }
        assert_eq!(jdb.pending_ops(), 2);
        assert_eq!(jdb.commit().unwrap(), 2);
        let appends = jdb.journal().storage().append_sizes().len();
        assert_eq!(appends, 3, "genesis, then two batch records");
        let (live, journal) = jdb.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner()).unwrap();
        assert_eq!(recovered.ops.len(), 17);
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }
}
