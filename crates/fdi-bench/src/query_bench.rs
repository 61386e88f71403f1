//! Core of the `bench_query` binary, factored into the library so the
//! CI smoke lane (`cargo test -p fdi-bench`) exercises the exact
//! pipelines the benchmark times — at n = 10² — before the
//! artifact-upload step can bit-rot.
//!
//! Two lanes:
//!
//! * **compiled vs interpreted select** — the scaling query over
//!   [`fdi_gen::large_workload`] instances, answered by the sequential
//!   reference [`select`] walking the [`Query`] tree per row vs
//!   [`CompiledQuery::select_par_stats`] (flat op program, precomputed
//!   per-attribute candidate sets, per-shard signature memo) at each
//!   thread count. Both produce bit-identical selections, asserted
//!   before any timing.
//! * **incremental vs re-scan** — a generated update stream applied to
//!   a [`Database`], answered after *every* op either by an
//!   [`IncrementalSelection`] (re-evaluating only the rows the
//!   [`UpdateOutcome`](fdi_core::update::UpdateOutcome) reports
//!   changed) or by a full compiled re-scan. Same plan, same answers,
//!   asserted at the end of both runs.

use fdi_core::query::{select, CompiledQuery, IncrementalSelection, Query, Selection};
use fdi_core::update::{Database, Enforcement, Policy};
use fdi_exec::Executor;
use fdi_gen::{apply_op, LiveRows, UpdateMix, UpdateOp, Workload};
use fdi_relation::rowid::RowId;
use fdi_relation::Instance;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maintenance-only policy for the update-stream lane: the measured
/// gap is answer maintenance, not satisfiability checking.
pub const POLICY: Policy = Policy {
    enforcement: Enforcement::None,
    propagate: false,
};

/// One measured point of the compiled-vs-interpreted select lane.
pub struct SelectPoint {
    /// Relation size.
    pub n: usize,
    /// Executor thread count.
    pub threads: usize,
    /// Median wall time of the sequential interpreted [`select`],
    /// nanoseconds (the same at every thread count).
    pub interpreted_ns: u128,
    /// Median wall time of the compiled `select_par_stats`, nanoseconds.
    pub compiled_ns: u128,
    /// One-off plan compilation cost, nanoseconds (not part of either
    /// timed region — a plan is compiled once per epoch, not per scan).
    pub compile_ns: u128,
}

/// One measured point of the incremental-vs-re-scan lane.
pub struct IncrementalPoint {
    /// Starting relation size.
    pub n: usize,
    /// Ops applied (every op is followed by a full answer read-out).
    pub ops: usize,
    /// Median wall time answering after every op by full compiled
    /// re-scan, nanoseconds.
    pub rescan_ns: u128,
    /// Median wall time answering after every op through the
    /// maintained [`IncrementalSelection`], nanoseconds.
    pub incremental_ns: u128,
    /// Row evaluations the incremental run performed (initial full
    /// scan included) — the O(touched) evidence.
    pub evals: u64,
}

/// The benchmarked workload: shared-NEC instances from
/// [`fdi_gen::large_workload`] with the standard scaling query.
pub fn workload_for(n: usize) -> (Workload, Query) {
    let w = fdi_gen::large_workload(7, n, 0.25, 0.1, 4);
    let q = fdi_gen::scaling_query(&w.instance);
    (w, q)
}

/// Median over `repeats` runs of `f`, where `f` excludes its own setup.
pub fn median_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..repeats).map(|_| f()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The compiled plan's answer on `exec`, memo statistics dropped.
fn compiled_select(plan: &CompiledQuery, instance: &Instance, exec: &Executor) -> Selection {
    plan.select_par_stats(instance, exec)
        .expect("finite domains")
        .0
}

/// Asserts the compiled select returns the interpreted sequential
/// answer bit-identically at every benchmarked thread count — the
/// honesty check run before any timing.
pub fn verify_equivalence(n: usize) {
    let (w, q) = workload_for(n);
    let plan = CompiledQuery::compile(&q, &w.instance);
    let oracle = select(&q, &w.instance).expect("finite domains");
    for threads in [1usize, 4] {
        assert_eq!(
            oracle,
            compiled_select(&plan, &w.instance, &Executor::with_threads(threads)),
            "compiled select diverges at {threads} threads"
        );
    }
}

/// Times one select point: the interpreted sequential select vs the
/// compiled sharded select on `threads` threads.
pub fn run_select_point(n: usize, threads: usize, repeats: usize) -> SelectPoint {
    let (w, q) = workload_for(n);
    let exec = Executor::with_threads(threads);

    let compile_start = Instant::now();
    let plan = CompiledQuery::compile(&q, &w.instance);
    let compile_ns = compile_start.elapsed().as_nanos();

    let interpreted = median_of(repeats, || {
        let start = Instant::now();
        std::hint::black_box(select(&q, &w.instance).expect("finite domains"));
        start.elapsed()
    });
    let compiled = median_of(repeats, || {
        let start = Instant::now();
        std::hint::black_box(compiled_select(&plan, &w.instance, &exec));
        start.elapsed()
    });
    SelectPoint {
        n,
        threads,
        interpreted_ns: interpreted.as_nanos(),
        compiled_ns: compiled.as_nanos(),
        compile_ns,
    }
}

/// The update stream of the incremental lane (resolve ops off, so the
/// stream applies cleanly under [`POLICY`]).
pub fn stream_for(n: usize, ops: usize) -> Vec<UpdateOp> {
    let spec = fdi_gen::scaling_spec(n, 0.15, 0.1);
    fdi_gen::update_stream(11, &spec, n, ops, UpdateMix::default())
}

/// Applies the stream, answering after every op by a **full compiled
/// re-scan** (fresh scratch + memo per scan, as a stateless server
/// would). Returns the wall time and the final answer's set sizes.
pub fn run_rescan(db: &Database, plan: &CompiledQuery, ops: &[UpdateOp]) -> (Duration, usize) {
    let mut db = db.clone();
    let mut live = LiveRows::of(db.instance());
    let exec = Executor::with_threads(1);
    let start = Instant::now();
    let mut last = 0;
    for op in ops {
        apply_op(&mut db, &mut live, op);
        let sel = compiled_select(plan, db.instance(), &exec);
        last = std::hint::black_box(sel.sure.len() + sel.maybe.len());
    }
    (start.elapsed(), last)
}

/// Applies the stream, answering after every op through the
/// maintained [`IncrementalSelection`]. Returns the wall time, the
/// final answer's set sizes, and the total row evaluations performed.
pub fn run_incremental(
    db: &Database,
    plan: &Arc<CompiledQuery>,
    ops: &[UpdateOp],
) -> (Duration, usize, u64) {
    let mut db = db.clone();
    let mut live: Vec<RowId> = db.instance().row_ids().collect();
    let mut inc =
        IncrementalSelection::new(Arc::clone(plan), db.instance()).expect("finite domains");
    let start = Instant::now();
    let mut last = 0;
    for op in ops {
        let outcome = match op {
            UpdateOp::Insert(tokens) => {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                match db.insert(&refs) {
                    Ok(out) => {
                        live.push(out.row);
                        Some(out)
                    }
                    Err(_) => None,
                }
            }
            UpdateOp::Delete(pos) => match live.get(*pos).copied() {
                Some(row) => match db.delete(row) {
                    Ok(out) => {
                        live.remove(*pos);
                        Some(out)
                    }
                    Err(_) => None,
                },
                None => None,
            },
            UpdateOp::Modify { row, attr, token } => live
                .get(*row)
                .copied()
                .and_then(|id| db.modify(id, *attr, token).ok()),
            UpdateOp::ResolveNull { row, attr, token } => live
                .get(*row)
                .copied()
                .and_then(|id| db.resolve_null(id, *attr, token).ok()),
        };
        if let Some(outcome) = outcome {
            inc.apply_outcome(db.instance(), &outcome)
                .expect("finite domains");
        }
        let sel = inc.selection();
        last = std::hint::black_box(sel.sure.len() + sel.maybe.len());
    }
    (start.elapsed(), last, inc.evals())
}

/// Times one incremental point, asserting both lanes end on the same
/// answer before reporting.
pub fn run_incremental_point(n: usize, ops: usize, repeats: usize) -> IncrementalPoint {
    let (w, q) = workload_for(n);
    let db = Database::new(w.instance, w.fds.clone(), POLICY).expect("policy checks nothing");
    let plan = Arc::new(CompiledQuery::compile(&q, db.instance()));
    let stream = stream_for(n, ops);

    let (_, rescan_answer) = run_rescan(&db, &plan, &stream);
    let (_, inc_answer, evals) = run_incremental(&db, &plan, &stream);
    assert_eq!(
        rescan_answer, inc_answer,
        "incremental and re-scan lanes diverged"
    );

    let rescan = median_of(repeats, || run_rescan(&db, &plan, &stream).0);
    let incremental = median_of(repeats, || run_incremental(&db, &plan, &stream).0);
    IncrementalPoint {
        n,
        ops,
        rescan_ns: rescan.as_nanos(),
        incremental_ns: incremental.as_nanos(),
        evals,
    }
}

/// The instrumented-vs-noop honesty lane for the query path: the same
/// compiled select answered through [`fdi_serve::Epoch::select`] with
/// the noop recorder and with a live recorder tallying plan-cache,
/// NEC-signature-memo, and classical-fast-path traffic. Both paths return bit-identical
/// answers; the bench bins assert the wall-clock ratio stays bounded
/// before writing artifacts.
pub fn measure_obs_overhead(n: usize, repeats: usize) -> crate::ObsOverhead {
    let (w, q) = workload_for(n);
    let db = Database::new(w.instance, w.fds, POLICY).expect("policy checks nothing");
    let (_writer, reader) = fdi_serve::Writer::create(
        db,
        fdi_store::MemStorage::new(),
        fdi_serve::ServeConfig::default(),
        Executor::with_threads(1),
    )
    .expect("fresh in-memory storage is empty");
    let epoch = reader.snapshot();
    let exec = Executor::with_threads(1);
    let (noop_rec, rec) = (fdi_obs::Recorder::noop(), fdi_obs::Recorder::enabled());
    // warm the per-epoch plan cache so neither lane pays the compile
    let _ = epoch.select(&q, &exec, &noop_rec).expect("finite domains");
    let noop = median_of(repeats, || {
        let start = Instant::now();
        std::hint::black_box(epoch.select(&q, &exec, &noop_rec).expect("finite domains"));
        start.elapsed()
    });
    let enabled = median_of(repeats, || {
        let start = Instant::now();
        std::hint::black_box(epoch.select(&q, &exec, &rec).expect("finite domains"));
        start.elapsed()
    });
    crate::ObsOverhead {
        noop_ns: noop.as_nanos(),
        enabled_ns: enabled.as_nanos(),
    }
}

/// Renders the machine-readable artifact (`BENCH_query.json`).
pub fn render_json(
    selects: &[SelectPoint],
    incrementals: &[IncrementalPoint],
    obs: &crate::ObsOverhead,
) -> String {
    let mut out = String::from(
        "{\n  \"workload\": \"large_workload(seed=7, null=0.25, nec=0.1, fds=4) + \
         scaling_query; update_stream(seed=11)\",\n",
    );
    out.push_str(&format!("  \"host\": {},\n", crate::host_json()));
    out.push_str(&format!("  \"obs_overhead\": {},\n", obs.json()));
    out.push_str("  \"select\": [\n");
    for (i, p) in selects.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"threads\": {}, \"interpreted_ns\": {}, \"compiled_ns\": {}, \
             \"compile_ns\": {}, \"speedup\": {:.1}}}{}\n",
            p.n,
            p.threads,
            p.interpreted_ns,
            p.compiled_ns,
            p.compile_ns,
            p.interpreted_ns as f64 / p.compiled_ns as f64,
            if i + 1 == selects.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"incremental\": [\n");
    for (i, p) in incrementals.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"ops\": {}, \"rescan_ns\": {}, \"incremental_ns\": {}, \
             \"evals\": {}, \"speedup\": {:.1}}}{}\n",
            p.n,
            p.ops,
            p.rescan_ns,
            p.incremental_ns,
            p.evals,
            p.rescan_ns as f64 / p.incremental_ns as f64,
            if i + 1 == incrementals.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI smoke lane: every benchmarked pipeline runs end to end
    /// at n = 10² — equivalence pre-check, both select paths, both
    /// maintenance lanes (agreeing on the final answer), and the JSON
    /// renderer.
    #[test]
    fn smoke_all_lanes_at_small_n() {
        verify_equivalence(100);
        let s = run_select_point(100, 1, 1);
        assert!(s.compiled_ns > 0 && s.interpreted_ns > 0);
        let inc = run_incremental_point(100, 32, 1);
        assert!(inc.rescan_ns > 0 && inc.incremental_ns > 0);
        // O(touched): far fewer evals than 32 full re-scans
        assert!(
            inc.evals < 100 + 32 * 50,
            "incremental evals = {}",
            inc.evals
        );
        let obs = measure_obs_overhead(100, 3);
        assert!(obs.noop_ns > 0 && obs.enabled_ns > 0);
        assert!(obs.ratio().is_finite());
        let json = render_json(&[s], &[inc], &obs);
        assert!(json.contains("\"select\""));
        assert!(json.contains("\"incremental\""));
        assert!(json.contains("\"host\": {\"host_threads\": "));
        assert!(json.contains("\"obs_overhead\": {\"noop_ns\": "));
    }
}
