//! Core of the `bench_par` binary, factored into the library so the CI
//! smoke lane (`cargo test -p fdi-bench`) exercises the exact pipelines
//! the benchmark times — at n = 10², every thread count — before the
//! artifact-upload step can bit-rot.
//!
//! Four engines are timed on the `fdi-exec` executor across a thread
//! grid; the first three on the same `large_workload` the chase
//! benchmark uses, the fourth on the cross-column/conflict-bearing
//! [`fdi_gen::extended_workload`] built for it:
//!
//! * **testfd** — [`testfd::check`] under the weak convention
//!   (per-FD determinant grouping sharded over [`RowId`] ranges);
//! * **query** — [`CompiledQuery::select_par_stats`] with the standard
//!   [`fdi_gen::scaling_query`] (per-row compiled evaluation,
//!   embarrassingly parallel);
//! * **chase** — [`chase::chase_indexed`] (sharded index build +
//!   parallel per-pass violation discovery, sequential rule
//!   application);
//! * **extended** — [`chase::extended_chase`] (sharded initial
//!   partition + parallel discovery / sequential union phases; no
//!   order replay at all — Theorem 4(a)).
//!
//! Every engine is deterministic — bit-identical at any thread count —
//! so the benchmark's correctness check is plain equality against the
//! reference engines, which [`verify_equivalence`] asserts on the exact
//! workload being timed.
//!
//! [`RowId`]: fdi_relation::rowid::RowId

use fdi_core::chase;
use fdi_core::query::{self, CompiledQuery, Query, Selection};
use fdi_core::testfd::{self, Convention};
use fdi_exec::Executor;
use fdi_gen::{extended_workload, large_workload, scaling_query, Workload};
use fdi_obs::Recorder;

use crate::median_time;

/// The benchmarked thread counts.
pub const THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ParPoint {
    /// Relation size.
    pub n: usize,
    /// Executor thread count.
    pub threads: usize,
    /// Median wall time of `testfd::check` (weak convention),
    /// nanoseconds.
    pub testfd_ns: u128,
    /// Median wall time of the compiled scaling query's
    /// `select_par_stats`.
    pub query_ns: u128,
    /// Median wall time of `chase_indexed`.
    pub chase_ns: u128,
    /// Median wall time of `extended_chase` on the extended workload
    /// (cross-column NEC classes + planted conflicts).
    pub extended_ns: u128,
}

/// The benchmark workload at size `n` — same generator and parameters
/// as `bench_chase`, so the two artifacts describe one dataset.
pub fn par_workload(n: usize) -> (Workload, Query) {
    let w = large_workload(7, n, 0.25, 0.1, 4);
    let q = scaling_query(&w.instance);
    (w, q)
}

/// The extended-chase lane's workload at size `n`: cross-column NEC
/// classes (~0.5% of rows) and a handful of planted conflicts, so the
/// timed chase exercises class migration *and* `nothing` derivation.
pub fn extended_par_workload(n: usize) -> Workload {
    extended_workload(7, n, 4, (n / 200).max(4), 4)
}

/// The compiled scaling query's answer on `exec`.
fn compiled_select(plan: &CompiledQuery, w: &Workload, exec: &Executor) -> Selection {
    plan.select_par_stats(&w.instance, exec)
        .expect("finite domains")
        .0
}

/// Asserts that every engine reproduces its reference on the workload
/// at size `n`, at every grid thread count: TEST-FDs matches
/// [`testfd::check_pairwise`] (verdict and witness), the compiled
/// selection equals [`query::select`] exactly, the plain chase equals
/// [`chase::chase_plain`] exactly (instance, events, passes), and the
/// extended chase equals [`chase::extended_chase_naive`] (canonical
/// instance, `nothing` classes, unions).
pub fn verify_equivalence(n: usize) {
    let (w, q) = par_workload(n);
    let ext = extended_par_workload(n);
    let plan = CompiledQuery::compile(&q, &w.instance);
    let rec = Recorder::noop();
    let seq_testfd = testfd::check_pairwise(&w.instance, &w.fds, Convention::Weak);
    let seq_select: Selection = query::select(&q, &w.instance).expect("finite domains");
    let seq_chase = chase::chase_plain(&w.instance, &w.fds);
    let naive_extended = chase::extended_chase_naive(&ext.instance, &ext.fds);
    for threads in THREAD_GRID {
        let exec = Executor::with_threads(threads);
        assert_eq!(
            seq_testfd,
            testfd::check(&w.instance, &w.fds, Convention::Weak, &exec, &rec),
            "testfd diverges at n = {n}, threads = {threads}"
        );
        let extended = chase::extended_chase(&ext.instance, &ext.fds, &exec, &rec);
        assert_eq!(
            naive_extended.instance.canonical_form(),
            extended.instance.canonical_form(),
            "extended chase instance diverges at n = {n}, threads = {threads}"
        );
        assert_eq!(
            naive_extended.nothing_classes, extended.nothing_classes,
            "extended chase nothing_classes diverge at n = {n}, threads = {threads}"
        );
        assert_eq!(
            naive_extended.unions, extended.unions,
            "extended chase union count diverges at n = {n}, threads = {threads}"
        );
        assert_eq!(
            seq_select,
            compiled_select(&plan, &w, &exec),
            "compiled select diverges at n = {n}, threads = {threads}"
        );
        let par_chase = chase::chase_indexed(&w.instance, &w.fds, &exec, &rec);
        assert_eq!(
            seq_chase.instance.canonical_form(),
            par_chase.instance.canonical_form(),
            "chase instance diverges at n = {n}, threads = {threads}"
        );
        assert_eq!(
            seq_chase.events, par_chase.events,
            "chase events diverge at n = {n}, threads = {threads}"
        );
        assert_eq!(
            seq_chase.passes, par_chase.passes,
            "chase passes diverge at n = {n}, threads = {threads}"
        );
    }
}

/// Times the four engines at size `n` for every grid thread count.
pub fn measure(n: usize, repeats: usize) -> Vec<ParPoint> {
    let (w, q) = par_workload(n);
    let ext = extended_par_workload(n);
    let plan = CompiledQuery::compile(&q, &w.instance);
    let rec = Recorder::noop();
    THREAD_GRID
        .iter()
        .map(|&threads| {
            let exec = Executor::with_threads(threads);
            let testfd_ns = median_time(repeats, || {
                let verdict = testfd::check(&w.instance, &w.fds, Convention::Weak, &exec, &rec);
                std::hint::black_box(verdict.is_ok());
            })
            .as_nanos();
            let query_ns = median_time(repeats, || {
                std::hint::black_box(compiled_select(&plan, &w, &exec).sure.len());
            })
            .as_nanos();
            let chase_ns = median_time(repeats, || {
                std::hint::black_box(chase::chase_indexed(&w.instance, &w.fds, &exec, &rec));
            })
            .as_nanos();
            let extended_ns = median_time(repeats, || {
                let outcome = chase::extended_chase(&ext.instance, &ext.fds, &exec, &rec);
                std::hint::black_box(outcome.nothing_classes);
            })
            .as_nanos();
            ParPoint {
                n,
                threads,
                testfd_ns,
                query_ns,
                chase_ns,
                extended_ns,
            }
        })
        .collect()
}

/// Speedup of `threads = t` over `threads = 1` for one metric, over the
/// points of one size. `None` when either point is missing.
pub fn speedup(
    points: &[ParPoint],
    n: usize,
    t: usize,
    metric: fn(&ParPoint) -> u128,
) -> Option<f64> {
    let base = points.iter().find(|p| p.n == n && p.threads == 1)?;
    let at = points.iter().find(|p| p.n == n && p.threads == t)?;
    Some(metric(base) as f64 / metric(at) as f64)
}

/// Renders the artifact JSON. `host_threads` records the machine's
/// available parallelism so a reader can tell a genuine scaling result
/// from a run on fewer cores than the grid requests (speedups cannot
/// exceed the host's cores, whatever the thread count says).
pub fn render_json(points: &[ParPoint], host_threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"workload\": \"testfd/query/chase: large_workload(seed=7, null=0.25, nec=0.1, \
         fds=4) + compiled scaling_query; extended: extended_workload(seed=7, fds=4, \
         cross=n/200, conflicts=4)\",\n",
    );
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"host\": {},\n", crate::host_json()));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"threads\": {}, \"testfd_ns\": {}, \"query_ns\": {}, \
             \"chase_ns\": {}, \"extended_ns\": {}}}{}\n",
            p.n,
            p.threads,
            p.testfd_ns,
            p.query_ns,
            p.chase_ns,
            p.extended_ns,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"speedup_vs_1_thread\": [\n");
    let mut sizes: Vec<usize> = points.iter().map(|p| p.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for (si, &n) in sizes.iter().enumerate() {
        let fmt = |t: usize, metric: fn(&ParPoint) -> u128| {
            speedup(points, n, t, metric)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "null".to_string())
        };
        out.push_str(&format!(
            "    {{\"n\": {n}, \"threads\": 4, \"testfd\": {}, \"query\": {}, \"chase\": {}, \
             \"extended\": {}}}{}\n",
            fmt(4, |p| p.testfd_ns),
            fmt(4, |p| p.query_ns),
            fmt(4, |p| p.chase_ns),
            fmt(4, |p| p.extended_ns),
            if si + 1 == sizes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke lane: the exact pipelines `bench_par` times agree with
    /// their reference engines at n = 10², across the whole thread
    /// grid, before any timing run is trusted.
    #[test]
    fn parallel_pipelines_match_sequential_oracles_at_small_n() {
        verify_equivalence(100);
    }

    #[test]
    fn measured_points_cover_the_grid() {
        let points = measure(64, 1);
        assert_eq!(points.len(), THREAD_GRID.len());
        for (p, &t) in points.iter().zip(THREAD_GRID.iter()) {
            assert_eq!(p.threads, t);
            assert!(p.testfd_ns > 0 && p.query_ns > 0 && p.chase_ns > 0 && p.extended_ns > 0);
        }
        let json = render_json(&points, 8);
        assert!(json.contains("\"host_threads\": 8"));
        assert!(json.contains("\"speedup_vs_1_thread\""));
        assert!(json.contains("\"extended_ns\""));
        assert!(speedup(&points, 64, 4, |p| p.testfd_ns).is_some());
        assert!(speedup(&points, 64, 4, |p| p.extended_ns).is_some());
        assert!(speedup(&points, 999, 4, |p| p.testfd_ns).is_none());
    }
}
