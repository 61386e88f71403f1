//! The single-writer side: stage deltas, group-commit, publish.
//!
//! A [`Writer`] owns the private successor state (a
//! [`JournaledDatabase`], which journals in group-commit batches) and
//! the publication cell. Mutations are **staged** against the successor
//! state — readers cannot see them — and become visible only at
//! [`Writer::publish`], which first commits the pending journal batch
//! (durable before visible) and then swaps the epoch pointer.

use crate::epoch::{Epoch, EpochCell, Reader};
use fdi_core::update::{Database, UpdateError, UpdateOutcome};
use fdi_exec::Executor;
use fdi_obs::{Counter, Gauge, Hist, Recorder};
use fdi_relation::rowid::RowId;
use fdi_relation::AttrId;
use fdi_store::{CreateError, Journal, JournaledDatabase, JournaledError, Storage};
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
    /// The journaled pair failed (poisoned journal, storage error).
    Journaled(JournaledError),
    /// Creating the journal failed.
    Create(CreateError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Journaled(e) => write!(f, "{e}"),
            ServeError::Create(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JournaledError> for ServeError {
    fn from(e: JournaledError) -> Self {
        ServeError::Journaled(e)
    }
}

impl From<CreateError> for ServeError {
    fn from(e: CreateError) -> Self {
        ServeError::Create(e)
    }
}

/// The single writer: owns the successor state, the journal, and the
/// publication cell. There is deliberately no way to clone one.
#[derive(Debug)]
pub struct Writer<S: Storage> {
    jdb: JournaledDatabase<S>,
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
    /// The writer stages and publishes on the calling thread, so it
    /// never reads `_exec`; queries take their executor at
    /// [`Epoch::select`].
    pub fn create(
        db: Database,
        storage: S,
        cfg: ServeConfig,
        _exec: Executor,
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
        let jdb = JournaledDatabase::resume(db, journal, cfg.max_batch);
        let epoch = Arc::new(Epoch::new(0, ops_applied, jdb.db().clone()));
        let stamp = EpochStamp {
            seq: 0,
            ops_applied,
            fingerprint: epoch.fingerprint(),
        };
        let cell = Arc::new(EpochCell::new(epoch));
        let writer = Writer {
            jdb,
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
    /// path (epoch latency/batch-size histograms, epoch gauges, the
    /// `epoch_published` event) plus — forwarded to the journaled pair
    /// via [`JournaledDatabase::set_recorder`] — op acceptance and
    /// journal commit/sync metrics. The default is the noop
    /// recorder: serving is observability-free unless a sink is
    /// installed.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.jdb.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// The private successor state (staged ops included — this is what
    /// readers will see *after* the next [`Writer::publish`]).
    pub fn db(&self) -> &Database {
        self.jdb.db()
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
    /// logs, at every thread count — the determinism tests compare
    /// these across runs.
    pub fn published_log(&self) -> &[EpochStamp] {
        &self.published
    }

    /// Stages one op against the successor state: applied and journaled
    /// (group-commit pending) but **not visible** to readers until
    /// [`Writer::publish`]. Rejections are reported as
    /// [`Staged::Rejected`] and change nothing.
    pub fn stage(&mut self, op: &ServeOp) -> Result<Staged, ServeError> {
        let result = match op {
            ServeOp::Insert(tokens) => {
                let toks: Vec<&str> = tokens.iter().map(|t| t.as_str()).collect();
                self.jdb.insert(&toks).map(Staged::Applied)
            }
            ServeOp::Delete(row) => self.jdb.delete(*row).map(Staged::Applied),
            ServeOp::Modify { row, attr, token } => {
                self.jdb.modify(*row, *attr, token).map(Staged::Applied)
            }
            ServeOp::ResolveNull { row, attr, token } => self
                .jdb
                .resolve_null(*row, *attr, token)
                .map(Staged::Applied),
            ServeOp::Compact => self.jdb.compact().map(Staged::Compacted),
        };
        match result {
            Ok(staged) => {
                self.ops_applied += 1;
                Ok(staged)
            }
            Err(JournaledError::Update(e)) => Ok(Staged::Rejected(e)),
            Err(e) => Err(ServeError::Journaled(e)),
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
        self.jdb.commit()?;
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
        self.rec.event("epoch_published", self.seq);
        let epoch = Arc::new(Epoch::new(
            self.seq,
            self.ops_applied,
            self.jdb.db().clone(),
        ));
        self.published.push(EpochStamp {
            seq: self.seq,
            ops_applied: self.ops_applied,
            fingerprint: epoch.fingerprint(),
        });
        self.cell.store(Arc::clone(&epoch));
        Ok(epoch)
    }

    /// Unwraps into the journaled pair. Staged-but-unpublished ops are
    /// **not** committed here — publish before unwrapping if the
    /// pending batch must be durable.
    pub fn into_journaled(self) -> JournaledDatabase<S> {
        self.jdb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::update::{Enforcement, Policy};
    use fdi_core::FdSet;
    use fdi_relation::{Instance, Schema};
    use fdi_store::MemStorage;

    fn fresh_db(enforcement: Enforcement) -> Database {
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
        Database::new(Instance::new(std::sync::Arc::clone(&schema)), fds, policy).unwrap()
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
            Executor::with_threads(1),
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

    #[test]
    fn rejected_ops_are_skipped_and_reported() {
        let (mut writer, reader) = Writer::create(
            fresh_db(Enforcement::Strong),
            MemStorage::new(),
            ServeConfig::default(),
            Executor::with_threads(1),
        )
        .unwrap();
        let (staged, epoch) = stage_and_publish(
            &mut writer,
            &[
                ins(&["d1", "m1"]),
                ins(&["d1", "m2"]), // violates dept -> mgr under Strong
                ins(&["d2", "m2"]),
            ],
        );
        let rejected: Vec<usize> = staged
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Staged::Rejected(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rejected, [1]);
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

    #[test]
    fn epoch_queries_match_the_sequential_paths() {
        let (mut writer, reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig::default(),
            Executor::with_threads(2),
        )
        .unwrap();
        stage_and_publish(
            &mut writer,
            &[ins(&["d1", "m1"]), ins(&["d2", "-"]), ins(&["d3", "m3"])],
        );
        let epoch = reader.snapshot();
        let exec = Executor::with_threads(2);
        let q = fdi_core::query::Query::eq_text(epoch.db().instance(), "mgr", "m1").unwrap();
        assert_eq!(epoch.plan_cache_len(), 0);
        let par = epoch.select(&q, &exec, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "first select compiles");
        let seq = fdi_core::query::select(&q, epoch.db().instance()).unwrap();
        assert_eq!(par, seq);
        let again = epoch.select(&q, &exec, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "second select reuses the plan");
        assert_eq!(again, seq);
        let db = epoch.db();
        let weak = fdi_core::semantics::Weak;
        assert!(
            fdi_core::testfd::check(db.instance(), db.fds(), weak, &exec, &Recorder::noop())
                .is_ok()
        );
    }

    #[test]
    fn recover_lands_on_the_last_published_boundary() {
        let (mut writer, _reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig {
                max_batch: 100, // commit only at publish
            },
            Executor::with_threads(1),
        )
        .unwrap();
        stage_and_publish(&mut writer, &[ins(&["d1", "m1"]), ins(&["d2", "m2"])]);
        let published = writer.published_log().last().copied().unwrap();
        // stage past the boundary, never publish
        writer.stage(&ins(&["d3", "m3"])).unwrap();
        let crashed = writer
            .into_journaled()
            .into_parts()
            .1
            .into_storage()
            .crash();
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

    #[test]
    fn published_log_is_identical_across_thread_counts() {
        let batches: Vec<Vec<ServeOp>> = vec![
            vec![ins(&["d1", "m1"]), ins(&["d2", "-"])],
            vec![ins(&["d1", "-"]), ServeOp::Compact],
            vec![ins(&["d3", "-"]), ins(&["d3", "m3"])],
            vec![ServeOp::Delete(RowId(1)), ServeOp::Compact],
        ];
        let mut logs = Vec::new();
        for threads in [1, 2, 4, 8] {
            let (mut writer, _reader) = Writer::create(
                fresh_db(Enforcement::Weak),
                MemStorage::new(),
                ServeConfig::default(),
                Executor::with_threads(threads),
            )
            .unwrap();
            for batch in &batches {
                stage_and_publish(&mut writer, batch);
            }
            logs.push(writer.published_log().to_vec());
        }
        for log in &logs[1..] {
            assert_eq!(log, &logs[0], "epoch sequence must not depend on threads");
        }
    }
}
