//! The observability determinism suite — the executable form of the
//! deterministic/nondeterministic metric split documented in
//! `fdi-obs` and the facade:
//!
//! * every **deterministic-registered** metric (counters and gauges
//!   whose `deterministic()` flag is true) is bit-identical across
//!   reader counts (0 vs 3 snapshot-hammering threads) on the
//!   serve-consistency workload;
//! * a [`Recorder::noop`] changes **no engine output**: the same
//!   stream served with a live recorder and with the noop default
//!   produces bit-identical publication logs, final instances, and
//!   query answers.
//!
//! Nondeterministic metrics (memo traffic, plan-cache traffic, snapshot
//! reads, every histogram) are *excluded by construction* via
//! [`MetricsSnapshot::deterministic_pairs`] — this suite is the guard
//! that the registry's split stays honest as counters are added.

use fd_incomplete::core::update::{Database, Enforcement};
use fd_incomplete::gen::{
    satisfiable_workload, scaling_query, update_stream, UpdateMix, UpdateOp, WorkloadSpec,
};
use fd_incomplete::obs::{Counter, MetricsSnapshot, Recorder};
use fd_incomplete::serve::{Reader, ServeConfig, ServeOp, Staged, Writer};
use fd_incomplete::store::MemStorage;
use fdi_exec::Executor;
use fdi_relation::rowid::RowId;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn spec(rows: usize) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: 3,
        domain: 5,
        null_density: 0.2,
        nec_density: 0.2,
        collision_rate: 0.4,
    }
}

fn mix() -> UpdateMix {
    UpdateMix {
        resolve: 2,
        ..UpdateMix::default()
    }
}

fn base_db(seed: u64, rows: usize) -> Database {
    let w = satisfiable_workload(seed, &spec(rows), 2);
    Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Weak).expect("satisfiable base")
}

fn resolve_op(op: &UpdateOp, live: &[RowId]) -> Option<ServeOp> {
    match op {
        UpdateOp::Insert(tokens) => Some(ServeOp::Insert(tokens.clone())),
        UpdateOp::Delete(pos) => live.get(*pos).copied().map(ServeOp::Delete),
        UpdateOp::Modify { row, attr, token } => {
            live.get(*row).copied().map(|id| ServeOp::Modify {
                row: id,
                attr: *attr,
                token: token.clone(),
            })
        }
        UpdateOp::ResolveNull { row, attr, token } => {
            live.get(*row).copied().map(|id| ServeOp::ResolveNull {
                row: id,
                attr: *attr,
                token: token.clone(),
            })
        }
    }
}

/// Stages the stream in publish-batches of `batch`, maintaining the
/// positional live-row tracker exactly like the serving concurrency
/// suite does.
fn stage_stream(
    writer: &mut Writer<MemStorage>,
    live: &mut Vec<RowId>,
    stream: &[UpdateOp],
    batch: usize,
) {
    for chunk in stream.chunks(batch) {
        for op in chunk {
            let Some(resolved) = resolve_op(op, live) else {
                continue;
            };
            match writer.stage(&resolved).expect("no faults scheduled") {
                Staged::Applied(outcome) => match (&resolved, op) {
                    (ServeOp::Insert(_), _) => live.push(outcome.row),
                    (ServeOp::Delete(_), UpdateOp::Delete(pos)) => {
                        live.remove(*pos);
                    }
                    _ => {}
                },
                Staged::Compacted(_) | Staged::Rejected(_) => {}
            }
        }
        writer.publish().expect("publish");
    }
}

/// Spawns `count` reader threads hammering snapshots (and the recorded
/// query path) until `done` — pure nondeterministic-metric traffic that
/// must leave every deterministic tally untouched.
fn spawn_readers(
    reader: &Reader,
    rec: &Recorder,
    count: usize,
    done: &Arc<AtomicBool>,
) -> Vec<thread::JoinHandle<()>> {
    (0..count)
        .map(|_| {
            let handle = reader.clone();
            let rec = rec.clone();
            let done = Arc::clone(done);
            thread::spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                let epoch = handle.snapshot();
                let q = scaling_query(epoch.db().instance());
                let _ = epoch.select(&q, &rec).expect("select on a snapshot");
                if finished {
                    break;
                }
                thread::yield_now();
            })
        })
        .collect()
}

/// Runs the serve-consistency workload end to end with a live recorder
/// under the given reader count; returns the final metrics snapshot and
/// the publication log.
fn recorded_run(readers: usize) -> (MetricsSnapshot, Vec<fd_incomplete::serve::EpochStamp>) {
    const SEED: u64 = 0x0B5;
    let db = base_db(SEED, 6);
    let mut live: Vec<RowId> = db.instance().row_ids().collect();
    let stream = update_stream(0xFACE, &spec(6), live.len(), 48, mix());
    let (mut writer, mut reader) = Writer::create(
        db,
        MemStorage::new(),
        ServeConfig { max_batch: 6 },
        Executor,
    )
    .unwrap();
    let rec = Recorder::enabled();
    writer.set_recorder(rec.clone());
    reader.set_recorder(rec.clone());
    let done = Arc::new(AtomicBool::new(false));
    let handles = spawn_readers(&reader, &rec, readers, &done);
    stage_stream(&mut writer, &mut live, &stream, 6);
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().expect("a reader thread panicked");
    }
    (rec.snapshot(), writer.published_log().to_vec())
}

/// The headline invariance test: the deterministic slice of the
/// registry is bit-identical with 0 and with 3 reader threads, while
/// the readers genuinely vary the nondeterministic traffic.
#[test]
fn deterministic_metrics_are_bit_identical_across_threads_and_readers() {
    let (quiet, quiet_log) = recorded_run(0);
    let (busy, busy_log) = recorded_run(3);
    let reference = quiet.deterministic_pairs();
    assert!(
        !reference.is_empty(),
        "the deterministic registry slice must not be empty"
    );
    assert!(
        reference
            .iter()
            .any(|(name, v)| *name == "ops_applied" && *v > 0),
        "the workload must actually drive deterministic counters: {reference:?}"
    );
    assert!(
        reference
            .iter()
            .any(|(name, v)| *name == "epochs_published" && *v > 0),
        "publishes must be tallied: {reference:?}"
    );
    assert!(
        reference
            .iter()
            .any(|(name, v)| *name == "journal_syncs" && *v > 0),
        "journal syncs must be tallied: {reference:?}"
    );
    assert_eq!(
        busy.deterministic_pairs(),
        reference,
        "a deterministic-registered metric diverged with 3 readers"
    );
    assert_eq!(
        busy_log, quiet_log,
        "publication log diverged with 3 readers"
    );
    // The comparison is only meaningful if reader traffic really moved
    // the nondeterministic side: a 3-reader run must record snapshot reads.
    assert!(
        busy.counter(Counter::SnapshotReads) > 0,
        "reader threads must drive the nondeterministic counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Noop purity: serving the same random stream with a live recorder
    /// and with the noop default produces bit-identical publication
    /// logs, final instances, and query answers — observability is
    /// write-only with respect to engine state.
    #[test]
    fn noop_recorder_changes_no_engine_output(
        seed in 0u64..1 << 32,
        rows in 0usize..8,
        ops in 1usize..24,
        batch in 1usize..6,
    ) {
        let stream = {
            let db = base_db(seed, rows);
            let live: Vec<RowId> = db.instance().row_ids().collect();
            update_stream(seed ^ 0x0B5, &spec(rows), live.len(), ops, mix())
        };
        let mut finals = Vec::new();
        for instrumented in [false, true] {
            let db = base_db(seed, rows);
            let mut live: Vec<RowId> = db.instance().row_ids().collect();
            let (mut writer, mut reader) = Writer::create(
                db,
                MemStorage::new(),
                ServeConfig { max_batch: 4 },
                Executor,
            ).unwrap();
            let rec = if instrumented { Recorder::enabled() } else { Recorder::noop() };
            writer.set_recorder(rec.clone());
            reader.set_recorder(rec.clone());
            stage_stream(&mut writer, &mut live, &stream, batch);
            let epoch = reader.snapshot();
            let q = scaling_query(epoch.db().instance());
            let answer = epoch.select(&q, &rec).expect("select");
            prop_assert_eq!(
                &answer,
                &epoch.select(&q, &Recorder::noop()).expect("select"),
                "a live recorder changed a select answer on the same epoch"
            );
            finals.push((
                writer.published_log().to_vec(),
                writer.db().instance().render(true),
                answer,
            ));
        }
        let (noop_log, noop_render, noop_answer) = &finals[0];
        let (live_log, live_render, live_answer) = &finals[1];
        prop_assert_eq!(noop_log, live_log, "publication log differs under instrumentation");
        prop_assert_eq!(noop_render, live_render, "final instance differs under instrumentation");
        prop_assert_eq!(noop_answer, live_answer, "query answer differs under instrumentation");
    }
}
