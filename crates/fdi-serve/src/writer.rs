//! The single-writer side: stage deltas, group-commit, publish.
//!
//! A [`Writer`] owns the private successor state (a [`Database`]), its
//! [`Journal`], the pending group-commit [`Batch`], and the publication
//! cell. Mutations are **staged** against the successor state — readers
//! cannot see them — and become visible only at [`Writer::publish`],
//! which first commits the pending batch (durable before visible) and
//! then swaps the epoch pointer.
//!
//! Staging is **apply, then journal**: the op runs against the live
//! database first, so rejections are decided by the real enforcement
//! machinery and journal *nothing*; the accepted op, with the ids the
//! database assigned, then joins the pending batch.
//!
//! **Group commit** is the only way an op reaches the journal. The
//! pending batch is written as **one** batch record followed by **one**
//! sync when it holds [`ServeConfig::max_batch`] ops (0 counts as 1)
//! and at every [`Writer::publish`]. Because the batch is a single
//! CRC-framed record, it is durable all or nothing: a crash can lose at
//! most the not-yet-committed batch, and recovery always lands exactly
//! on a batch boundary — never inside one. With `max_batch` 1, every
//! accepted op is durable before the [`Writer::stage`] that accepted it
//! returns. A batch also commits early, before the op that would push
//! its record past the journal's size bound joins it ([`Batch::fits`]);
//! only one op whose own record is over the bound can still be refused
//! by the journal, and its commit then fails like any other.
//!
//! If committing a batch **fails**, the writer is poisoned: the live
//! database has already applied (and possibly propagated) the batch's
//! ops, and un-propagating is not supported, so the in-memory state is
//! ahead of the durable state with no way to reconcile. Nothing of the
//! failed batch is published, every earlier committed batch recovers,
//! and every later [`Writer::stage`] or [`Writer::publish`] returns
//! [`ServeError::Poisoned`]; recovery from the journal is the way back.

use crate::epoch::{Epoch, EpochCell, Reader};
use fdi_core::update::{Database, UpdateError, UpdateOutcome};
use fdi_obs::{Counter, Gauge, Hist, Recorder};
use fdi_relation::rowid::RowId;
use fdi_relation::AttrId;
use fdi_store::{Batch, CreateError, Journal, JournalOp, Storage, StoreError};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Group-commit batch size: staged ops auto-commit to the journal
    /// (durably, as one batch record) once this many have accumulated,
    /// or earlier if the record would outgrow the journal's size bound;
    /// [`Writer::publish`] commits whatever is pending regardless. With
    /// 1, every staged op is durable before [`Writer::stage`] returns.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { max_batch: 64 }
    }
}

/// One requested mutation, in the same vocabulary as the CLI ops
/// grammar and [`fdi_store::JournalOp`] — except that inserts carry no
/// row id (the database assigns one on acceptance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    /// Insert a row given as text tokens (`-`, `?mark`, constants).
    Insert(Vec<String>),
    /// Delete a row.
    Delete(RowId),
    /// Replace one cell.
    Modify {
        /// Row to modify.
        row: RowId,
        /// Attribute to modify.
        attr: AttrId,
        /// New cell token.
        token: String,
    },
    /// Resolve a null occurrence to a constant (external acquisition).
    ResolveNull {
        /// Row of the occurrence.
        row: RowId,
        /// Attribute of the occurrence.
        attr: AttrId,
        /// The asserted constant.
        token: String,
    },
    /// Densify the slot arena.
    Compact,
}

/// What staging one op did.
#[derive(Debug, Clone)]
pub enum Staged {
    /// Accepted: the outcome the database reported.
    Applied(UpdateOutcome),
    /// An accepted compaction and the `(old → new)` remap it performed.
    Compacted(Vec<(RowId, RowId)>),
    /// The database rejected the op — nothing was journaled, nothing
    /// staged; the writer stays usable.
    Rejected(UpdateError),
}

/// One line of the publication log: the identity of a published epoch.
/// Two runs of the same accepted-op stream must produce equal stamp
/// sequences — this is the unit the determinism tests compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochStamp {
    /// Sequence number.
    pub seq: u64,
    /// Accepted ops reflected.
    pub ops_applied: u64,
    /// [`Epoch::fingerprint`] of the published state.
    pub fingerprint: u64,
}

/// Errors from the serving layer (distinct from per-op rejections,
/// which are data, not errors — see [`Staged::Rejected`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Committing a batch failed: its ops were applied but are not
    /// durable, and the writer is now poisoned (see the module docs).
    Journal(StoreError),
    /// An earlier failed commit poisoned the writer; no further
    /// mutations or publishes are accepted.
    Poisoned,
    /// Creating the journal failed.
    Create(CreateError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Journal(e) => write!(
                f,
                "op applied but journaling failed (database poisoned): {e}"
            ),
            ServeError::Poisoned => write!(
                f,
                "database poisoned by an earlier journal failure; recover from the journal"
            ),
            ServeError::Create(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CreateError> for ServeError {
    fn from(e: CreateError) -> Self {
        ServeError::Create(e)
    }
}

/// The single writer: owns the successor state, the journal, the
/// pending batch, and the publication cell. There is deliberately no
/// way to clone one.
#[derive(Debug)]
pub struct Writer<S: Storage> {
    db: Database,
    journal: Journal<S>,
    /// Accepted ops not yet committed to the journal.
    pending: Batch,
    max_batch: usize,
    /// Set by a failed commit; refuses every later stage and publish.
    poisoned: bool,
    cell: Arc<EpochCell>,
    seq: u64,
    ops_applied: u64,
    published: Vec<EpochStamp>,
    rec: Recorder,
}

impl<S: Storage> Writer<S> {
    /// Creates a serving pair over a fresh journal in empty `storage`
    /// (genesis = `db` as given) and publishes `db` as epoch 0.
    ///
    /// `_exec` is never read: the writer stages and publishes on the
    /// calling thread, and the parameter stays only because the
    /// end-to-end benchmark's replay passes one.
    pub fn create(
        db: Database,
        storage: S,
        cfg: ServeConfig,
        _exec: fdi_exec::Executor,
    ) -> Result<(Writer<S>, Reader), ServeError> {
        let journal = Journal::create(storage, &db)?;
        Ok(Writer::resume(db, journal, 0, cfg))
    }

    /// Opens a serving pair over an already-opened journal whose
    /// replay yields `db` after `ops_applied` accepted ops — a fresh
    /// journal (`ops_applied` 0) or a [`Journal::recover`] result —
    /// and publishes `db` as epoch 0. After a recovery that is exactly
    /// the last fully-synced batch boundary the crashed writer reached.
    pub fn resume(
        db: Database,
        journal: Journal<S>,
        ops_applied: u64,
        cfg: ServeConfig,
    ) -> (Writer<S>, Reader) {
        let epoch = Arc::new(Epoch::new(0, ops_applied, db.clone()));
        let stamp = EpochStamp {
            seq: 0,
            ops_applied,
            fingerprint: epoch.fingerprint(),
        };
        let cell = Arc::new(EpochCell::new(epoch));
        let writer = Writer {
            db,
            journal,
            pending: Batch::default(),
            max_batch: cfg.max_batch,
            poisoned: false,
            cell: Arc::clone(&cell),
            seq: 0,
            ops_applied,
            published: vec![stamp],
            rec: Recorder::noop(),
        };
        let reader = Reader::new(cell);
        (writer, reader)
    }

    /// Routes this writer's observability into `rec`: the publication
    /// path (epoch latency/batch-size histograms, epoch gauges), the
    /// `journal_pending_ops` gauge, the
    /// database's op tallies ([`Database::set_recorder`]) and the
    /// journal's record/sync metrics ([`Journal::set_recorder`]). The
    /// default is the noop recorder: serving is observability-free
    /// unless a sink is installed.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.db.set_recorder(rec.clone());
        self.journal.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// The private successor state (staged ops included — this is what
    /// readers will see *after* the next [`Writer::publish`]).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Sequence number of the most recently published epoch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Accepted ops applied so far (staged ones included), counted from
    /// the journal's genesis.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The publication log: one stamp per published epoch, epoch 0
    /// first. Same accepted-op stream + same batch boundaries ⇒ equal
    /// logs — the determinism tests compare these across runs.
    pub fn published_log(&self) -> &[EpochStamp] {
        &self.published
    }

    /// Stages one op against the successor state: applied and journaled
    /// (group-commit pending) but **not visible** to readers until
    /// [`Writer::publish`]. Rejections are reported as
    /// [`Staged::Rejected`] and change nothing. An `Err` is a failed
    /// commit (the op stays applied, the writer is poisoned) or an
    /// earlier poisoning.
    pub fn stage(&mut self, op: &ServeOp) -> Result<Staged, ServeError> {
        self.check_usable()?;
        let db = &mut self.db;
        let applied = match op {
            ServeOp::Insert(tokens) => {
                let toks: Vec<&str> = tokens.iter().map(|t| t.as_str()).collect();
                db.insert(&toks).map(|outcome| {
                    let row = outcome.row;
                    let tokens = tokens.clone();
                    (JournalOp::Insert { row, tokens }, Staged::Applied(outcome))
                })
            }
            ServeOp::Delete(row) => db
                .delete(*row)
                .map(|outcome| (JournalOp::Delete { row: *row }, Staged::Applied(outcome))),
            ServeOp::Modify { row, attr, token } => db.modify(*row, *attr, token).map(|outcome| {
                let (row, attr, token) = (*row, *attr, token.clone());
                (
                    JournalOp::Modify { row, attr, token },
                    Staged::Applied(outcome),
                )
            }),
            ServeOp::ResolveNull { row, attr, token } => {
                db.resolve_null(*row, *attr, token).map(|outcome| {
                    let (row, attr, token) = (*row, *attr, token.clone());
                    let op = JournalOp::ResolveNull { row, attr, token };
                    (op, Staged::Applied(outcome))
                })
            }
            ServeOp::Compact => {
                let moved = db.compact();
                Ok((
                    JournalOp::Compact {
                        moved: moved.clone(),
                    },
                    Staged::Compacted(moved),
                ))
            }
        };
        let (journal_op, staged) = match applied {
            Ok(applied) => applied,
            Err(e) => return Ok(Staged::Rejected(e)),
        };
        if !self.pending.fits(&journal_op) {
            self.commit()?;
        }
        self.pending.push(&journal_op);
        self.rec
            .gauge_set(Gauge::JournalPendingOps, self.pending.len() as u64);
        if self.pending.len() >= self.max_batch.max(1) {
            self.commit()?;
        }
        self.ops_applied += 1;
        Ok(staged)
    }

    /// Group-commit barrier: writes the pending batch as one journal
    /// record under one sync (nothing when no op is pending). A failed
    /// append or sync — or a lone op whose record is over the journal's
    /// size bound — poisons the writer: the whole pending batch is the
    /// unacknowledged loss, every previously committed batch is already
    /// durable.
    fn commit(&mut self) -> Result<(), ServeError> {
        self.check_usable()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self
            .journal
            .append_batch(&self.pending)
            .and_then(|()| self.journal.sync());
        if let Err(e) = written {
            self.poisoned = true;
            return Err(ServeError::Journal(e));
        }
        self.pending = Batch::default();
        self.rec.gauge_set(Gauge::JournalPendingOps, 0);
        Ok(())
    }

    fn check_usable(&self) -> Result<(), ServeError> {
        if self.poisoned {
            Err(ServeError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Publishes the successor state: group-commits the pending journal
    /// batch (one batch record, one sync — durable **before** visible),
    /// snapshots the database into a new [`Epoch`], and atomically
    /// swaps it into the cell. Publishing with nothing staged is
    /// permitted and yields an epoch with the same fingerprint and a
    /// bumped sequence number.
    pub fn publish(&mut self) -> Result<Arc<Epoch>, ServeError> {
        // Clock reads are gated on a live recorder so the noop path
        // stays exactly the pre-observability publish.
        let started = self.rec.is_enabled().then(Instant::now);
        self.commit()?;
        self.seq += 1;
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec.observe(Hist::PublishNanos, nanos);
        }
        let batch_ops = self
            .ops_applied
            .saturating_sub(self.published.last().map_or(0, |s| s.ops_applied));
        self.rec.observe(Hist::PublishBatchOps, batch_ops);
        self.rec.incr(Counter::EpochsPublished);
        self.rec.gauge_set(Gauge::EpochSeq, self.seq);
        self.rec.gauge_set(Gauge::EpochOpsApplied, self.ops_applied);
        let epoch = Arc::new(Epoch::new(self.seq, self.ops_applied, self.db.clone()));
        self.published.push(EpochStamp {
            seq: self.seq,
            ops_applied: self.ops_applied,
            fingerprint: epoch.fingerprint(),
        });
        self.cell.store(Arc::clone(&epoch));
        Ok(epoch)
    }

    /// Unwraps into the successor database and the journal.
    /// Staged-but-unpublished ops are **not** committed here — publish
    /// before unwrapping if the pending batch must be durable.
    pub fn into_parts(self) -> (Database, Journal<S>) {
        (self.db, self.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::update::Enforcement;
    use fdi_core::FdSet;
    use fdi_exec::Executor;
    use fdi_relation::{Instance, Schema};
    use fdi_store::{Fault, FaultyStorage, MemStorage};

    fn fresh_db(enforcement: Enforcement) -> Database {
        let schema = Schema::builder("emp")
            .attribute("dept", ["d1", "d2", "d3"])
            .attribute("mgr", ["m1", "m2", "m3"])
            .build()
            .unwrap();
        let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
        Database::new(
            Instance::new(std::sync::Arc::clone(&schema)),
            fds,
            enforcement,
        )
        .unwrap()
    }

    fn writer<S: Storage>(
        enforcement: Enforcement,
        storage: S,
        max_batch: usize,
    ) -> (Writer<S>, Reader) {
        let cfg = ServeConfig { max_batch };
        Writer::create(fresh_db(enforcement), storage, cfg, Executor).unwrap()
    }

    fn ins(tokens: &[&str]) -> ServeOp {
        ServeOp::Insert(tokens.iter().map(|t| t.to_string()).collect())
    }

    /// Stages every op of `batch`, then publishes: one client batch
    /// followed by `commit`.
    fn stage_and_publish<S: Storage>(
        writer: &mut Writer<S>,
        batch: &[ServeOp],
    ) -> (Vec<Staged>, Arc<Epoch>) {
        let staged = batch.iter().map(|op| writer.stage(op).unwrap()).collect();
        (staged, writer.publish().unwrap())
    }

    #[test]
    fn staged_ops_are_invisible_until_publish() {
        let (mut writer, reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig::default(),
            Executor,
        )
        .unwrap();
        let epoch0 = reader.snapshot();
        assert_eq!(epoch0.seq(), 0);
        writer.stage(&ins(&["d1", "m1"])).unwrap();
        writer.stage(&ins(&["d2", "-"])).unwrap();
        assert_eq!(
            reader.snapshot().fingerprint(),
            epoch0.fingerprint(),
            "staged ops must not leak to readers"
        );
        assert_eq!(writer.db().instance().len(), 2, "but the writer sees them");
        let epoch1 = writer.publish().unwrap();
        assert_eq!(epoch1.seq(), 1);
        assert_eq!(epoch1.ops_applied(), 2);
        assert_eq!(reader.snapshot().seq(), 1);
        assert_eq!(reader.snapshot().db().instance().len(), 2);
        // the old epoch is pinned by its Arc, untouched
        assert_eq!(epoch0.db().instance().len(), 0);
    }

    /// A rejected op is reported, journals nothing, and leaves the
    /// writer usable.
    #[test]
    fn rejected_ops_are_skipped_and_reported() {
        // batches of one: every accepted op reaches storage at once
        let (mut writer, reader) = writer(Enforcement::Strong, MemStorage::new(), 1);
        writer.stage(&ins(&["d1", "m1"])).unwrap();
        let len_before = writer.journal.storage().len();
        // violates dept -> mgr under Strong
        let staged = writer.stage(&ins(&["d1", "m2"])).unwrap();
        assert!(matches!(staged, Staged::Rejected(_)));
        assert_eq!(
            writer.journal.storage().len(),
            len_before,
            "a rejected op must leave no journal bytes"
        );
        assert!(writer.pending.is_empty());
        writer.stage(&ins(&["d2", "m2"])).unwrap();
        let epoch = writer.publish().unwrap();
        assert_eq!(epoch.ops_applied(), 2);
        // the published epoch equals a replay of the accepted subsequence
        let mut oracle = fresh_db(Enforcement::Strong);
        oracle.insert(&["d1", "m1"]).unwrap();
        oracle.insert(&["d2", "m2"]).unwrap();
        assert_eq!(
            reader.snapshot().db().instance().render(true),
            oracle.instance().render(true)
        );
    }

    /// An acquiring insert's extended-chase work reaches the writer's
    /// recorder, so a serving session's `metrics` shows it.
    #[test]
    fn propagation_records_its_chase_work() {
        let (mut writer, _reader) = writer(Enforcement::Weak, MemStorage::new(), 64);
        let rec = Recorder::enabled();
        writer.set_recorder(rec.clone());
        writer.stage(&ins(&["d1", "m1"])).unwrap();
        let staged = writer.stage(&ins(&["d1", "-"])).unwrap();
        assert!(
            matches!(&staged, Staged::Applied(outcome) if !outcome.propagated.is_empty()),
            "the null mgr is filled from d1's m1: {staged:?}"
        );
        let snap = rec.snapshot();
        assert!(snap.counter(Counter::CellUnions) >= 1);
        assert!(snap.counter(Counter::CellRounds) >= 1);
    }

    #[test]
    fn epoch_queries_match_the_sequential_paths() {
        let (mut writer, reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig::default(),
            Executor,
        )
        .unwrap();
        stage_and_publish(
            &mut writer,
            &[ins(&["d1", "m1"]), ins(&["d2", "-"]), ins(&["d3", "m3"])],
        );
        let epoch = reader.snapshot();
        let q = fdi_core::query::Query::eq_text(epoch.db().instance(), "mgr", "m1").unwrap();
        assert_eq!(epoch.plan_cache_len(), 0);
        let compiled = epoch.select(&q, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "first select compiles");
        let seq = fdi_core::query::select(&q, epoch.db().instance()).unwrap();
        assert_eq!(compiled, seq);
        let again = epoch.select(&q, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "second select reuses the plan");
        assert_eq!(again, seq);
        let db = epoch.db();
        let weak = fdi_core::semantics::SemanticsKind::Weak;
        assert!(fdi_core::testfd::check(db.instance(), db.fds(), weak, &Recorder::noop()).is_ok());
    }

    #[test]
    fn recover_lands_on_the_last_published_boundary() {
        let (mut writer, _reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig {
                max_batch: 100, // commit only at publish
            },
            Executor,
        )
        .unwrap();
        stage_and_publish(&mut writer, &[ins(&["d1", "m1"]), ins(&["d2", "m2"])]);
        let published = writer.published_log().last().copied().unwrap();
        // stage past the boundary, never publish
        writer.stage(&ins(&["d3", "m3"])).unwrap();
        let crashed = writer.into_parts().1.into_storage().crash();
        let recovered = Journal::recover(crashed).unwrap();
        let (rewriter, rereader) = Writer::resume(
            recovered.db,
            recovered.journal,
            recovered.ops.len() as u64,
            ServeConfig::default(),
        );
        assert_eq!(rewriter.ops_applied(), 2, "the staged op is gone");
        let epoch = rereader.snapshot();
        assert_eq!(epoch.ops_applied(), published.ops_applied);
        assert_eq!(
            epoch.fingerprint(),
            published.fingerprint,
            "recovered epoch 0 is bit-identical to the last published epoch"
        );
    }

    /// With `max_batch` 1 (and its 0 alias) every accepted op is durable
    /// when `stage` returns: nothing is ever pending, and a crash with
    /// no publish recovers every op, each kind round-tripping through
    /// the journal.
    #[test]
    fn a_batch_of_one_is_durable_when_stage_returns() {
        for max_batch in [0, 1] {
            let (mut writer, _reader) = writer(Enforcement::Weak, MemStorage::new(), max_batch);
            let r1 = match writer.stage(&ins(&["d1", "m1"])).unwrap() {
                Staged::Applied(outcome) => outcome.row,
                other => panic!("{other:?}"),
            };
            let r2 = match writer.stage(&ins(&["d2", "-"])).unwrap() {
                Staged::Applied(outcome) => outcome.row,
                other => panic!("{other:?}"),
            };
            let modify = ServeOp::Modify {
                row: r2,
                attr: AttrId(1),
                token: "m2".into(),
            };
            for op in [modify, ServeOp::Delete(r1), ServeOp::Compact] {
                writer.stage(&op).unwrap();
                assert!(writer.pending.is_empty(), "max_batch {max_batch}");
            }
            let (live, journal) = writer.into_parts();
            let recovered = Journal::recover(journal.into_storage().crash()).unwrap();
            assert_eq!(recovered.ops.len(), 5, "max_batch {max_batch}");
            assert_eq!(
                recovered.db.instance().render(true),
                live.instance().render(true)
            );
        }
    }

    /// A full batch commits under one sync; `publish` commits a partial
    /// one and syncs nothing when nothing is pending; a crash loses only
    /// the batch still pending.
    #[test]
    fn group_commit_batches_ops_under_one_sync() {
        let storage = FaultyStorage::new(MemStorage::new(), vec![]);
        let (mut writer, _reader) = writer(Enforcement::Weak, storage, 3);
        let syncs = |w: &Writer<FaultyStorage<MemStorage>>| w.journal.storage().syncs();
        let after_create = syncs(&writer);
        writer.stage(&ins(&["d1", "m1"])).unwrap();
        writer.stage(&ins(&["d2", "m2"])).unwrap();
        assert_eq!(writer.pending.len(), 2, "ops buffer until the batch fills");
        assert_eq!(syncs(&writer), after_create, "no sync before the boundary");
        writer.stage(&ins(&["d3", "m3"])).unwrap(); // fills the batch
        assert!(writer.pending.is_empty());
        assert_eq!(syncs(&writer), after_create + 1, "3 ops, exactly one sync");
        // a partial batch commits at publish
        writer.stage(&ins(&["d1", "-"])).unwrap();
        writer.stage(&ServeOp::Delete(RowId(3))).unwrap();
        writer.publish().unwrap();
        assert!(writer.pending.is_empty());
        assert_eq!(syncs(&writer), after_create + 2);
        writer.publish().unwrap();
        assert_eq!(syncs(&writer), after_create + 2, "nothing pending, no sync");
        // staged past the last boundary, never committed
        writer.stage(&ins(&["d2", "-"])).unwrap();
        let (_, journal) = writer.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner().crash()).unwrap();
        assert_eq!(recovered.ops.len(), 5, "batches expand to their ops");
        assert_eq!(recovered.db.instance().len(), 3);
    }

    /// A failed commit at `publish` is durable-before-visible in action:
    /// the epoch is not published, the writer is poisoned, and the
    /// journal still holds only what was durable before.
    #[test]
    fn a_failed_publish_commit_publishes_nothing_and_poisons_the_writer() {
        // sync 0 is the journal's creation; sync 1 is the first batch
        let storage = FaultyStorage::new(MemStorage::new(), vec![Fault::FailSync { sync: 1 }]);
        let (mut writer, reader) = writer(Enforcement::Weak, storage, 64);
        let epoch0 = reader.snapshot();
        writer.stage(&ins(&["d1", "m1"])).unwrap();
        writer.stage(&ins(&["d2", "m2"])).unwrap();
        assert!(matches!(writer.publish(), Err(ServeError::Journal(_))));
        let visible = reader.snapshot();
        assert_eq!(visible.seq(), 0, "a failed commit publishes nothing");
        assert_eq!(visible.fingerprint(), epoch0.fingerprint());
        assert_eq!(writer.seq(), 0);
        assert_eq!(writer.published_log().len(), 1);
        assert_eq!(
            writer.stage(&ins(&["d3", "m3"])).unwrap_err(),
            ServeError::Poisoned
        );
        assert_eq!(writer.publish().unwrap_err(), ServeError::Poisoned);
        assert_eq!(reader.snapshot().seq(), 0);
        let (_, journal) = writer.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner().crash()).unwrap();
        assert!(recovered.ops.is_empty(), "recovery yields the genesis");
        assert_eq!(recovered.db.instance().len(), 0);
    }

    /// A failed automatic commit inside `stage` — the batch record's
    /// write or its sync — poisons the writer; only that batch is lost.
    #[test]
    fn a_failed_commit_in_stage_poisons_the_writer() {
        // append/sync 0 is the journal's creation, 1 the first op's batch
        for fault in [Fault::FailWrite { write: 2 }, Fault::FailSync { sync: 2 }] {
            let storage = FaultyStorage::new(MemStorage::new(), vec![fault]);
            let (mut writer, reader) = writer(Enforcement::Weak, storage, 1);
            writer.stage(&ins(&["d1", "m1"])).unwrap();
            let err = writer.stage(&ins(&["d2", "m2"])).unwrap_err();
            assert!(matches!(err, ServeError::Journal(_)), "{fault:?}: {err}");
            assert_eq!(writer.ops_applied(), 1, "{fault:?}");
            assert_eq!(
                writer.stage(&ins(&["d3", "m3"])).unwrap_err(),
                ServeError::Poisoned
            );
            assert_eq!(writer.publish().unwrap_err(), ServeError::Poisoned);
            assert_eq!(reader.snapshot().seq(), 0);
            let (_, journal) = writer.into_parts();
            let crashed = journal.into_storage().into_inner().crash();
            let recovered = Journal::recover(crashed).unwrap();
            assert_eq!(
                recovered.ops.len(),
                1,
                "{fault:?}: the first batch survives"
            );
            assert_eq!(recovered.db.instance().len(), 1);
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
            Enforcement::Weak,
        )
        .unwrap();
        let storage = FaultyStorage::new(MemStorage::new(), vec![]);
        let cfg = ServeConfig {
            max_batch: usize::MAX,
        };
        let (mut writer, _reader) = Writer::create(db, storage, cfg, Executor).unwrap();
        // 17 inserts of just over 1 MiB each: 15 fill a batch to just
        // under 16 MiB, so the 16th commits them and opens a new batch
        for i in 0..17 {
            let value = format!("{i:03}{}", "x".repeat(1 << 20));
            writer.stage(&ServeOp::Insert(vec![value])).unwrap();
        }
        assert_eq!(writer.pending.len(), 2);
        writer.publish().unwrap();
        let appends = writer.journal.storage().append_sizes().len();
        assert_eq!(appends, 3, "genesis, then two batch records");
        let (live, journal) = writer.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner()).unwrap();
        assert_eq!(recovered.ops.len(), 17);
        assert_eq!(
            recovered.db.instance().render(true),
            live.instance().render(true)
        );
    }
}
