//! Core of the `bench_serve` binary, factored into the library so the
//! CI smoke lane (`cargo test -p fdi-bench`) drives the exact serving
//! pipeline the benchmark times — writer, group commit, publication,
//! and concurrent snapshot reads — at n = 10² before the
//! artifact-upload step can bit-rot.
//!
//! Two metrics are measured per `(n, readers)` configuration, with the
//! reader threads genuinely live (real OS threads in a snapshot → query
//! loop) while the writer ingests:
//!
//! * **ingest** — nanoseconds per attempted op for the writer to stage
//!   a generated [`fdi_gen::update_stream`] in publish-batches of
//!   [`BATCH`] ops: stage → group-commit (one journal record + one
//!   sync per batch) → epoch publication, against a [`MemStorage`]
//!   journal so the number measures the serving layer, not a disk;
//! * **read latency** — per-snapshot latency of
//!   [`Epoch::select`](fdi_serve::Epoch::select) on the standard
//!   [`fdi_gen::scaling_query`], reported as p50/p99 over every read
//!   issued while the ingest ran.
//!
//! The writer runs [`Enforcement::None`] so ingest time measures the
//! serving machinery (index maintenance, group commit, snapshot
//! construction), not satisfiability checking — the enforcement cost
//! is `bench_update`'s subject. [`verify_serving`] re-asserts the
//! serving determinism contract (same stream ⇒ same stamp log at every
//! executor thread count, reads equal the sequential oracle) on the
//! exact workload being timed.

use fdi_core::query::{self, Query};
use fdi_core::update::{Database, Enforcement, Policy};
use fdi_exec::Executor;
use fdi_gen::{
    satisfiable_workload, scaling_query, update_stream, UpdateMix, UpdateOp, WorkloadSpec,
};
use fdi_relation::rowid::RowId;
use fdi_serve::{EpochStamp, Reader, ServeConfig, ServeOp, Staged, Writer};
use fdi_store::MemStorage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The benchmarked reader-thread counts.
pub const READER_GRID: [usize; 4] = [0, 1, 2, 4];

/// Ops per publish-batch (the group-commit granularity).
pub const BATCH: usize = 64;

const SEED: u64 = 11;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Base relation size (and attempted-op count of the stream).
    pub n: usize,
    /// Concurrent reader threads live during the ingest.
    pub readers: usize,
    /// Epochs published (one per batch).
    pub epochs: u64,
    /// Median-of-repeats nanoseconds per attempted op, whole pipeline
    /// (stage + group commit + publication).
    pub ingest_ns_per_op: u128,
    /// Snapshot reads completed across all readers during the timed
    /// ingest (0 when `readers == 0`).
    pub reads: u64,
    /// 50th-percentile per-read latency, nanoseconds (0 when no reads).
    pub read_p50_ns: u128,
    /// 99th-percentile per-read latency, nanoseconds (0 when no reads).
    pub read_p99_ns: u128,
}

/// The serving workload at size `n`: a guaranteed weakly-satisfiable
/// base (so the stream's deletes/modifies have substance to hit) and an
/// update stream of `n` attempted ops over the same spec.
pub fn serve_workload(n: usize) -> (Database, Vec<UpdateOp>, Query) {
    let spec = WorkloadSpec {
        rows: n,
        attrs: 4,
        domain: 16,
        null_density: 0.1,
        nec_density: 0.1,
        collision_rate: 0.3,
    };
    let w = satisfiable_workload(SEED, &spec, 3);
    let q = scaling_query(&w.instance);
    let stream = update_stream(SEED ^ 0x5E17E, &spec, n, n, UpdateMix::default());
    let db = Database::new(
        w.instance,
        w.fds,
        Policy {
            enforcement: Enforcement::None,
            propagate: false,
        },
    )
    .expect("generated base is well-formed");
    (db, stream, q)
}

/// Resolves a stream op's positional row reference through the
/// live-row tracker (out-of-range positions resolve to `None`).
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

/// Stages the whole stream in publish-batches of [`BATCH`], returning
/// the attempted-op count and the number of epochs published.
fn ingest(writer: &mut Writer<MemStorage>, stream: &[UpdateOp]) -> (u64, u64) {
    let mut live: Vec<RowId> = writer.db().instance().row_ids().collect();
    let mut attempted = 0u64;
    let mut epochs = 0u64;
    for chunk in stream.chunks(BATCH) {
        for op in chunk {
            let Some(resolved) = resolve_op(op, &live) else {
                continue;
            };
            attempted += 1;
            match writer.stage(&resolved).expect("MemStorage never faults") {
                Staged::Applied(outcome) => match (&resolved, op) {
                    (ServeOp::Insert(_), _) => live.push(outcome.row),
                    (ServeOp::Delete(_), UpdateOp::Delete(pos)) => {
                        live.remove(*pos);
                    }
                    _ => {}
                },
                Staged::Compacted(moved) => {
                    for id in live.iter_mut() {
                        if let Some((_, new)) = moved.iter().find(|(old, _)| old == id) {
                            *id = *new;
                        }
                    }
                }
                Staged::Rejected(_) => {}
            }
        }
        writer.publish().expect("MemStorage never faults");
        epochs += 1;
    }
    (attempted, epochs)
}

fn serving_pair(db: Database, threads: usize) -> (Writer<MemStorage>, Reader) {
    Writer::create(
        db,
        MemStorage::new(),
        ServeConfig { max_batch: BATCH },
        Executor::with_threads(threads),
    )
    .expect("MemStorage never faults")
}

/// Times one `(n, readers)` configuration: spawns `readers` live
/// snapshot-reading threads, ingests the whole stream once under them,
/// and reports per-op ingest time plus the read-latency distribution.
pub fn measure_point(n: usize, readers: usize) -> ServePoint {
    let (db, stream, q) = serve_workload(n);
    let (mut writer, reader) = serving_pair(db, 1);
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let handle = reader.clone();
            let done = Arc::clone(&done);
            let q = q.clone();
            std::thread::spawn(move || {
                let exec = Executor::with_threads(1);
                let mut latencies: Vec<u128> = Vec::new();
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let t0 = Instant::now();
                    let epoch = handle.snapshot();
                    let sel = epoch
                        .select(&q, &exec, &fdi_obs::Recorder::noop())
                        .expect("finite domains");
                    std::hint::black_box(sel.sure.len());
                    latencies.push(t0.elapsed().as_nanos());
                    if stop {
                        break;
                    }
                }
                latencies
            })
        })
        .collect();

    let t0 = Instant::now();
    let (attempted, epochs) = ingest(&mut writer, &stream);
    let ingest_ns = t0.elapsed().as_nanos();
    done.store(true, Ordering::Release);

    let mut latencies: Vec<u128> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("reader thread"));
    }
    latencies.sort_unstable();
    let percentile = |p: f64| -> u128 {
        if latencies.is_empty() {
            0
        } else {
            let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
            latencies[idx]
        }
    };
    ServePoint {
        n,
        readers,
        epochs,
        ingest_ns_per_op: ingest_ns / u128::from(attempted.max(1)),
        reads: latencies.len() as u64,
        read_p50_ns: percentile(0.50),
        read_p99_ns: percentile(0.99),
    }
}

/// Times every [`READER_GRID`] configuration at size `n`.
pub fn measure(n: usize) -> Vec<ServePoint> {
    READER_GRID.iter().map(|&r| measure_point(n, r)).collect()
}

/// Re-asserts the serving determinism contract on the timed workload
/// at size `n`: the same stream produces the same publication log —
/// same sequence numbers, op counts, and bit-exact fingerprints — at
/// every executor thread count, and the final epoch answers the timed
/// query exactly like the sequential oracle.
pub fn verify_serving(n: usize) {
    let mut logs: Vec<Vec<EpochStamp>> = Vec::new();
    for threads in [1, 2, 4] {
        let (db, stream, q) = serve_workload(n);
        let (mut writer, reader) = serving_pair(db, threads);
        ingest(&mut writer, &stream);
        let final_epoch = reader.snapshot();
        let seq = query::select(&q, final_epoch.db().instance()).expect("finite domains");
        let par = final_epoch
            .select(
                &q,
                &Executor::with_threads(threads),
                &fdi_obs::Recorder::noop(),
            )
            .expect("finite domains");
        assert_eq!(
            seq, par,
            "epoch select diverges from the sequential oracle at n = {n}, threads = {threads}"
        );
        logs.push(writer.published_log().to_vec());
    }
    assert!(
        logs.windows(2).all(|w| w[0] == w[1]),
        "publication log is not thread-invariant at n = {n}"
    );
}

/// Renders the artifact JSON. `host_threads` records the machine's
/// available parallelism — on a host with fewer cores than
/// `readers + 1`, read latencies include scheduling waits and the
/// ingest rate reflects core contention, not serving overhead.
pub fn render_json(points: &[ServePoint], host_threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"workload\": \"satisfiable_workload(seed={SEED}, attrs=4, domain=16, null=0.1, \
         nec=0.1, fds=3) + update_stream(n ops, default mix), batches of {BATCH}, \
         Enforcement::None, MemStorage journal; reads: scaling_query per snapshot\",\n",
    ));
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"host\": {},\n", crate::host_json()));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"readers\": {}, \"epochs\": {}, \"ingest_ns_per_op\": {}, \
             \"reads\": {}, \"read_p50_ns\": {}, \"read_p99_ns\": {}}}{}\n",
            p.n,
            p.readers,
            p.epochs,
            p.ingest_ns_per_op,
            p.reads,
            p.read_p50_ns,
            p.read_p99_ns,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke lane: the exact serving pipeline `bench_serve` times
    /// is deterministic and oracle-exact at n = 10², across executor
    /// thread counts, before any timing run is trusted.
    #[test]
    fn serving_pipeline_is_deterministic_at_small_n() {
        verify_serving(100);
    }

    #[test]
    fn measured_points_cover_the_reader_grid() {
        let points = measure(64);
        assert_eq!(points.len(), READER_GRID.len());
        for (p, &r) in points.iter().zip(READER_GRID.iter()) {
            assert_eq!(p.readers, r);
            assert!(p.epochs > 0 && p.ingest_ns_per_op > 0);
            if r == 0 {
                assert_eq!((p.reads, p.read_p50_ns, p.read_p99_ns), (0, 0, 0));
            } else {
                assert!(p.reads > 0, "live readers must complete at least one read");
                assert!(p.read_p50_ns > 0 && p.read_p99_ns >= p.read_p50_ns);
            }
        }
        let json = render_json(&points, 8);
        assert!(json.contains("\"host_threads\": 8"));
        assert!(json.contains("\"ingest_ns_per_op\""));
        assert!(json.contains("\"read_p99_ns\""));
    }
}
