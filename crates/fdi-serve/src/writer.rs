//! The single-writer side: stage deltas, group-commit, publish.
//!
//! A [`Writer`] owns the private successor state (a
//! [`JournaledDatabase`] under [`SyncPolicy::GroupCommit`]) and the
//! publication cell. Mutations are **staged** against the successor
//! state — readers cannot see them — and become visible only at
//! [`Writer::publish`], which first commits the pending journal batch
//! (durable before visible) and then swaps the epoch pointer.

use crate::epoch::{Epoch, EpochCell, Reader};
use fdi_core::query::plan::CompiledQuery;
use fdi_core::query::{IncrementalSelection, Query, Selection};
use fdi_core::update::{Database, UpdateError, UpdateOutcome};
use fdi_exec::Executor;
use fdi_obs::{Counter, Gauge, Hist, Recorder};
use fdi_relation::rowid::RowId;
use fdi_relation::{AttrId, RelationError};
use fdi_store::{
    CreateError, Journal, JournaledDatabase, JournaledError, RecoverError, Storage, SyncPolicy,
};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Group-commit batch size: staged ops auto-commit to the journal
    /// (durably, as one batch record) once this many have accumulated;
    /// [`Writer::publish`] commits whatever is pending regardless.
    pub max_batch: usize,
    /// Checkpoint the journal every this many publications (`None` =
    /// never): publication k·n re-anchors the genesis snapshot at the
    /// just-published epoch, bounding recovery replay.
    pub checkpoint_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 64,
            checkpoint_every: None,
        }
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

/// The result of applying one batch: the epoch it published and the
/// per-op acceptance tally.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The epoch published at the batch boundary.
    pub epoch: Arc<Epoch>,
    /// Ops the database accepted (journaled and now visible).
    pub accepted: usize,
    /// Rejected ops as `(index into the batch, why)` — rejections are
    /// skipped, not fatal: the batch semantics are "sequential replay
    /// of the accepted subsequence".
    pub rejected: Vec<(usize, UpdateError)>,
}

/// Errors from the serving layer (distinct from per-op rejections,
/// which are data, not errors — see [`BatchOutcome::rejected`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The journaled pair failed (poisoned journal, storage error).
    Journaled(JournaledError),
    /// Creating the journal failed.
    Create(CreateError),
    /// Recovering the journal failed.
    Recover(RecoverError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Journaled(e) => write!(f, "{e}"),
            ServeError::Create(e) => write!(f, "{e}"),
            ServeError::Recover(e) => write!(f, "{e}"),
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

impl From<RecoverError> for ServeError {
    fn from(e: RecoverError) -> Self {
        ServeError::Recover(e)
    }
}

/// One watched query: a compiled plan plus its incrementally-maintained
/// answer set against the writer's successor state. Healthy watches are
/// materialized into every published epoch; a watch whose maintenance
/// errored (e.g. a null appeared on an unbounded-domain scope attribute)
/// goes stale — it stops being materialized (readers fall back to the
/// compiled path and see the same error) and self-heals by a full
/// refresh at the next publish if the instance permits.
#[derive(Debug)]
struct Watched {
    query: Query,
    encoding: Vec<u8>,
    inc: IncrementalSelection,
    stale: bool,
}

/// The single writer: owns the successor state, the journal, and the
/// publication cell. There is deliberately no way to clone one.
#[derive(Debug)]
pub struct Writer<S: Storage> {
    jdb: JournaledDatabase<S>,
    cell: Arc<EpochCell>,
    exec: Executor,
    cfg: ServeConfig,
    seq: u64,
    ops_applied: u64,
    published: Vec<EpochStamp>,
    publishes_since_checkpoint: u64,
    watched: Vec<Watched>,
    rec: Recorder,
}

impl<S: Storage> Writer<S> {
    /// Creates a serving pair over a fresh journal in empty `storage`
    /// (genesis = `db` as given) and publishes `db` as epoch 0.
    pub fn create(
        db: Database,
        storage: S,
        cfg: ServeConfig,
        exec: Executor,
    ) -> Result<(Writer<S>, Reader), ServeError> {
        let jdb = JournaledDatabase::create(
            db,
            storage,
            SyncPolicy::GroupCommit {
                max_batch: cfg.max_batch,
            },
        )?;
        Ok(Writer::open(jdb, cfg, exec, 0))
    }

    /// Recovers a serving pair from an existing journal
    /// ([`Journal::recover`], unchanged: genesis + every durable op,
    /// torn tail truncated) and publishes the recovered state as epoch
    /// 0. The recovered state is exactly the last fully-synced batch
    /// boundary the crashed writer reached.
    pub fn recover(
        storage: S,
        cfg: ServeConfig,
        exec: Executor,
    ) -> Result<(Writer<S>, Reader), ServeError> {
        let recovered = Journal::recover(storage)?;
        let ops_applied = recovered.ops.len() as u64;
        let jdb = JournaledDatabase::resume(
            recovered.db,
            recovered.journal,
            SyncPolicy::GroupCommit {
                max_batch: cfg.max_batch,
            },
        );
        Ok(Writer::open(jdb, cfg, exec, ops_applied))
    }

    fn open(
        jdb: JournaledDatabase<S>,
        cfg: ServeConfig,
        exec: Executor,
        ops_applied: u64,
    ) -> (Writer<S>, Reader) {
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
            exec,
            cfg,
            seq: 0,
            ops_applied,
            published: vec![stamp],
            publishes_since_checkpoint: 0,
            watched: Vec::new(),
            rec: Recorder::noop(),
        };
        let reader = Reader::new(cell);
        (writer, reader)
    }

    /// A fresh reader handle onto this writer's publication cell.
    pub fn reader(&self) -> Reader {
        Reader::new(Arc::clone(&self.cell))
    }

    /// Routes this writer's observability into `rec`: the publication
    /// path (epoch latency/batch-size histograms, epoch gauges, the
    /// `epoch_published` event) plus — forwarded to the journaled pair
    /// via [`JournaledDatabase::set_recorder`] — op acceptance, index
    /// deltas, and journal commit/sync metrics. Every published epoch
    /// thereafter carries `rec`'s frozen [`fdi_obs::MetricsSnapshot`]
    /// (see [`Epoch::metrics`]). The default is the noop recorder:
    /// serving is observability-free unless a sink is installed.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.jdb.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// The writer's current recorder handle (noop unless
    /// [`Writer::set_recorder`] installed a live sink).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The private successor state (staged ops included — this is what
    /// readers will see *after* the next [`Writer::publish`]).
    pub fn db(&self) -> &Database {
        self.jdb.db()
    }

    /// The journal.
    pub fn journal(&self) -> &Journal<S> {
        self.jdb.journal()
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

    /// Registers a query to watch: compiles it once against the
    /// successor state and materializes its answer set, which from then
    /// on is maintained **incrementally** under every staged op
    /// (re-evaluating only the rows each op touched) and published into
    /// every epoch — [`Epoch::select`] for a watched query is an O(1)
    /// lookup plus a clone of the answer. Returns the watch index.
    ///
    /// Errors if the initial scan cannot be evaluated (e.g. a null on
    /// an unbounded-domain attribute in the query's scope); nothing is
    /// registered in that case.
    pub fn watch(&mut self, query: &Query) -> Result<usize, RelationError> {
        let db = self.jdb.db();
        let plan = Arc::new(CompiledQuery::compile(query, db.instance()));
        let encoding = plan.encoding().to_vec();
        let inc = IncrementalSelection::new(plan, db.instance())?;
        self.watched.push(Watched {
            query: query.clone(),
            encoding,
            inc,
            stale: false,
        });
        Ok(self.watched.len() - 1)
    }

    /// Number of registered watches.
    pub fn watched_len(&self) -> usize {
        self.watched.len()
    }

    /// The query watch `i` answers.
    pub fn watched_query(&self, i: usize) -> &Query {
        &self.watched[i].query
    }

    /// The current (successor-state) answer set of watch `i`, or `None`
    /// if the watch is stale.
    pub fn watched_selection(&self, i: usize) -> Option<Selection> {
        let w = &self.watched[i];
        (!w.stale).then(|| w.inc.selection())
    }

    /// Row evaluations watch `i` has spent since registration — the
    /// number a full re-scan per op would dwarf.
    pub fn watched_evals(&self, i: usize) -> u64 {
        self.watched[i].inc.evals()
    }

    /// Feeds one accepted outcome to every healthy watch.
    fn maintain_watches(&mut self, outcome: &UpdateOutcome) {
        let instance = self.jdb.db().instance();
        for w in &mut self.watched {
            if !w.stale {
                w.stale = w.inc.apply_outcome(instance, outcome).is_err();
            }
        }
    }

    /// Remaps every healthy watch after a compaction.
    fn remap_watches(&mut self, moved: &[(RowId, RowId)]) {
        let instance = self.jdb.db().instance();
        for w in &mut self.watched {
            if !w.stale {
                w.inc.note_compacted(instance, moved);
            }
        }
    }

    /// Stages one op against the successor state: applied and journaled
    /// (group-commit pending) but **not visible** to readers until
    /// [`Writer::publish`]. Rejections are reported as
    /// [`Staged::Rejected`] and change nothing. Watched queries are
    /// maintained in the same step.
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
                match &staged {
                    Staged::Applied(outcome) => self.maintain_watches(outcome),
                    Staged::Compacted(moved) => self.remap_watches(moved),
                    Staged::Rejected(_) => {}
                }
                Ok(staged)
            }
            Err(JournaledError::Update(e)) => Ok(Staged::Rejected(e)),
            Err(e) => Err(ServeError::Journaled(e)),
        }
    }

    /// Publishes the successor state: group-commits the pending journal
    /// batch (one batch record, one sync — durable **before** visible),
    /// snapshots the database into a new [`Epoch`], and atomically
    /// swaps it into the cell. With [`ServeConfig::checkpoint_every`]
    /// set, every k-th publication also checkpoints the journal.
    /// Publishing with nothing staged is permitted and yields an epoch
    /// with the same fingerprint and a bumped sequence number.
    pub fn publish(&mut self) -> Result<Arc<Epoch>, ServeError> {
        // Clock reads are gated on a live recorder so the noop path
        // stays exactly the pre-observability publish.
        let started = self.rec.is_enabled().then(Instant::now);
        self.jdb.sync()?; // = commit() under GroupCommit
        self.seq += 1;
        // Heal stale watches if the instance permits, then materialize
        // every healthy watch's answer set into the epoch.
        let instance = self.jdb.db().instance();
        for w in &mut self.watched {
            if w.stale {
                w.stale = w.inc.refresh(instance).is_err();
            }
        }
        let materialized: Vec<(Vec<u8>, Selection)> = self
            .watched
            .iter()
            .filter(|w| !w.stale)
            .map(|w| (w.encoding.clone(), w.inc.selection()))
            .collect();
        // Observe *before* snapshotting the metrics into the epoch, so
        // the published snapshot includes this very publication.
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
        let epoch = Arc::new(Epoch::with_materialized(
            self.seq,
            self.ops_applied,
            self.jdb.db().clone(),
            materialized,
            self.rec.snapshot(),
        ));
        self.published.push(EpochStamp {
            seq: self.seq,
            ops_applied: self.ops_applied,
            fingerprint: epoch.fingerprint(),
        });
        self.cell.store(Arc::clone(&epoch));
        if let Some(every) = self.cfg.checkpoint_every {
            self.publishes_since_checkpoint += 1;
            if self.publishes_since_checkpoint >= every.max(1) {
                self.jdb.checkpoint()?;
                self.publishes_since_checkpoint = 0;
            }
        }
        Ok(epoch)
    }

    /// Stages a whole batch, then publishes: the serving unit of work.
    /// Rejected ops are skipped (reported per index), so the published
    /// epoch equals a sequential replay of the accepted subsequence.
    pub fn apply(&mut self, ops: &[ServeOp]) -> Result<BatchOutcome, ServeError> {
        let mut accepted = 0;
        let mut rejected = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match self.stage(op)? {
                Staged::Rejected(e) => rejected.push((i, e)),
                Staged::Applied(_) | Staged::Compacted(_) => accepted += 1,
            }
        }
        let epoch = self.publish()?;
        Ok(BatchOutcome {
            epoch,
            accepted,
            rejected,
        })
    }

    /// Bulk ingest, then publish: inserts the rows through the sharded
    /// batch path ([`Database::insert_batch`] — identical to looped
    /// inserts at every thread count) and journals the accepted rows in
    /// order, so replay and recovery cannot tell ingest from the per-op
    /// path.
    pub fn ingest(&mut self, rows: &[Vec<String>]) -> Result<BatchOutcome, ServeError> {
        let results = self.jdb.insert_batch(rows, &self.exec)?;
        let mut accepted = 0;
        let mut rejected = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(outcome) => {
                    accepted += 1;
                    self.ops_applied += 1;
                    self.maintain_watches(&outcome);
                }
                Err(e) => rejected.push((i, e)),
            }
        }
        let epoch = self.publish()?;
        Ok(BatchOutcome {
            epoch,
            accepted,
            rejected,
        })
    }

    /// Manually checkpoints the journal (also flushes the pending
    /// batch — see [`JournaledDatabase::checkpoint`]).
    pub fn checkpoint(&mut self) -> Result<(), ServeError> {
        self.jdb.checkpoint()?;
        self.publishes_since_checkpoint = 0;
        Ok(())
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
        let out = writer
            .apply(&[
                ins(&["d1", "m1"]),
                ins(&["d1", "m2"]), // violates dept -> mgr under Strong
                ins(&["d2", "m2"]),
            ])
            .unwrap();
        assert_eq!(out.accepted, 2);
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(out.rejected[0].0, 1);
        assert_eq!(out.epoch.ops_applied(), 2);
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
        writer
            .apply(&[ins(&["d1", "m1"]), ins(&["d2", "-"]), ins(&["d3", "m3"])])
            .unwrap();
        let epoch = reader.snapshot();
        let exec = Executor::with_threads(2);
        let q = fdi_core::query::Query::eq_text(epoch.db().instance(), "mgr", "m1").unwrap();
        let par = epoch.select(&q, &exec, &Recorder::noop()).unwrap();
        let seq = fdi_core::query::select(&q, epoch.db().instance()).unwrap();
        assert_eq!(par, seq);
        let db = epoch.db();
        let weak = fdi_core::testfd::Convention::Weak;
        assert!(
            fdi_core::testfd::check(db.instance(), db.fds(), weak, &exec, &Recorder::noop())
                .is_ok()
        );
    }

    #[test]
    fn watched_queries_stay_in_sync_and_materialize() {
        let (mut writer, reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig::default(),
            Executor::with_threads(2),
        )
        .unwrap();
        let q = {
            // build the query against a throwaway instance with the
            // same schema so the symbols resolve
            let mut db = fresh_db(Enforcement::Weak);
            db.insert(&["d1", "m1"]).unwrap();
            fdi_core::query::Query::eq_text(db.instance(), "mgr", "m1").unwrap()
        };
        let w = writer.watch(&q).unwrap();
        assert_eq!(writer.watched_len(), 1);
        assert_eq!(writer.watched_query(w), &q);
        let batches: Vec<Vec<ServeOp>> = vec![
            vec![ins(&["d1", "m1"]), ins(&["d2", "-"])],
            vec![ins(&["d1", "-"]), ServeOp::Compact],
            vec![ins(&["d3", "-"]), ins(&["d3", "m3"])],
            vec![ServeOp::Delete(RowId(1)), ServeOp::Compact],
        ];
        let exec = Executor::with_threads(2);
        for batch in &batches {
            writer.apply(batch).unwrap();
            let epoch = reader.snapshot();
            let oracle = fdi_core::query::select(&q, epoch.db().instance()).unwrap();
            // the epoch serves the watched query from the materialized set
            assert_eq!(epoch.materialized().len(), 1);
            assert_eq!(epoch.select(&q, &exec, &Recorder::noop()).unwrap(), oracle);
            assert_eq!(writer.watched_selection(w), Some(oracle));
        }
        // unwatched queries go through the per-epoch plan cache
        let epoch = reader.snapshot();
        let other = fdi_core::query::Query::eq_text(epoch.db().instance(), "dept", "d1").unwrap();
        assert_eq!(epoch.plan_cache_len(), 0);
        let a = epoch.select(&other, &exec, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "first select compiles");
        let b = epoch.select(&other, &exec, &Recorder::noop()).unwrap();
        assert_eq!(epoch.plan_cache_len(), 1, "second select reuses the plan");
        assert_eq!(a, b);
        assert_eq!(
            a,
            fdi_core::query::select(&other, epoch.db().instance()).unwrap()
        );
    }

    #[test]
    fn recover_lands_on_the_last_published_boundary() {
        let (mut writer, _reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig {
                max_batch: 100, // commit only at publish
                checkpoint_every: None,
            },
            Executor::with_threads(1),
        )
        .unwrap();
        writer
            .apply(&[ins(&["d1", "m1"]), ins(&["d2", "m2"])])
            .unwrap();
        let published = writer.published_log().last().copied().unwrap();
        // stage past the boundary, never publish
        writer.stage(&ins(&["d3", "m3"])).unwrap();
        let crashed = writer
            .into_journaled()
            .into_parts()
            .1
            .into_storage()
            .crash();
        let (rewriter, rereader) =
            Writer::recover(crashed, ServeConfig::default(), Executor::with_threads(1)).unwrap();
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
    fn ingest_equals_looped_inserts_at_every_thread_count() {
        let rows: Vec<Vec<String>> = (0..40)
            .map(|i| vec![format!("d{}", i % 3 + 1), "-".to_string()])
            .collect();
        let mut oracle = fresh_db(Enforcement::Weak);
        for row in &rows {
            let toks: Vec<&str> = row.iter().map(|t| t.as_str()).collect();
            oracle.insert(&toks).unwrap();
        }
        for threads in [1, 2, 4] {
            let (mut writer, reader) = Writer::create(
                fresh_db(Enforcement::Weak),
                MemStorage::new(),
                ServeConfig::default(),
                Executor::with_threads(threads),
            )
            .unwrap();
            let out = writer.ingest(&rows).unwrap();
            assert_eq!(out.accepted, rows.len());
            let epoch = reader.snapshot();
            assert_eq!(
                epoch.db().instance().render(true),
                oracle.instance().render(true),
                "threads={threads}"
            );
            assert!(epoch.db().index().same_buckets(oracle.index()));
            assert_eq!(epoch.nec(), &oracle.instance().necs().canonical_snapshot());
        }
    }

    #[test]
    fn published_log_is_identical_across_thread_counts() {
        let batches: Vec<Vec<ServeOp>> = vec![
            vec![ins(&["d1", "m1"]), ins(&["d2", "-"])],
            vec![ins(&["d1", "-"]), ServeOp::Compact],
            vec![ins(&["d3", "-"]), ins(&["d3", "m3"])],
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
                writer.apply(batch).unwrap();
            }
            logs.push(writer.published_log().to_vec());
        }
        for log in &logs[1..] {
            assert_eq!(log, &logs[0], "epoch sequence must not depend on threads");
        }
    }

    #[test]
    fn checkpoint_every_re_anchors_without_changing_recovery() {
        let (mut writer, _reader) = Writer::create(
            fresh_db(Enforcement::Weak),
            MemStorage::new(),
            ServeConfig {
                max_batch: 4,
                checkpoint_every: Some(2),
            },
            Executor::with_threads(1),
        )
        .unwrap();
        for i in 0..6 {
            let token = format!("d{}", i % 3 + 1);
            writer.apply(&[ins(&[&token, "-"])]).unwrap();
        }
        let last = writer.published_log().last().copied().unwrap();
        let live_render = writer.db().instance().render(true);
        let storage = writer.into_journaled().into_parts().1.into_storage();
        let (rewriter, rereader) = Writer::recover(
            storage.crash(),
            ServeConfig::default(),
            Executor::with_threads(1),
        )
        .unwrap();
        let epoch = rereader.snapshot();
        assert_eq!(epoch.fingerprint(), last.fingerprint);
        assert_eq!(epoch.db().instance().render(true), live_render);
        assert!(
            rewriter.ops_applied() <= 2,
            "checkpoints bounded the replay log (got {} replayed ops)",
            rewriter.ops_applied()
        );
    }
}
