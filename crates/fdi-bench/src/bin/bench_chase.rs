//! Chase engine benchmark: naive all-pairs vs indexed worklist, on the
//! `fdi-gen` large workloads. Writes `BENCH_chase.json` (medians in
//! nanoseconds plus speedups) to the current directory and prints a
//! table.
//!
//! Usage: `cargo run --release -p fdi-bench --bin bench_chase [--quick]`
//! — `--quick` drops the n = 100 000 indexed-only point.

use fdi_bench::{fmt_duration, median_time, Table};
use fdi_core::chase::{chase_naive, chase_plain};
use fdi_core::testfd::{self, Convention};
use fdi_exec::Executor;
use fdi_gen::large_workload;
use fdi_obs::Recorder;
use std::io::Write;

struct Point {
    n: usize,
    naive_ns: Option<u128>,
    indexed_ns: u128,
    testfd_pairwise_ns: Option<u128>,
    testfd_grouped_ns: u128,
    testfd_grouped_zst_ns: u128,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new([
        "n",
        "chase naive",
        "chase indexed",
        "speedup",
        "testfd pairwise",
        "testfd grouped",
        "grouped (zst)",
    ]);
    let mut points = Vec::new();
    for &n in sizes {
        let w = large_workload(7, n, 0.25, 0.1, 4);
        let repeats = if n >= 100_000 { 3 } else { 5 };
        let (exec, rec) = (Executor::with_threads(1), Recorder::noop());
        let t_indexed = median_time(repeats, || {
            std::hint::black_box(chase_plain(&w.instance, &w.fds));
        });
        // The naive engine is O(|F|·n²) per pass: skip it beyond 10k
        // where a single measurement would take minutes.
        let t_naive = (n <= 10_000).then(|| {
            median_time(if n >= 10_000 { 1 } else { 3 }, || {
                std::hint::black_box(chase_naive(&w.instance, &w.fds));
            })
        });
        let t_grouped = median_time(repeats, || {
            let verdict = testfd::check(&w.instance, &w.fds, Convention::Weak, &exec, &rec);
            std::hint::black_box(verdict.is_ok());
        });
        // The genericized engine through a zero-sized semantics: the
        // monomorphized twin of the enum-dispatched run above. The
        // guard below asserts the `Semantics` refactor stayed free.
        let t_grouped_zst = median_time(repeats, || {
            let verdict =
                testfd::check(&w.instance, &w.fds, fdi_core::semantics::Weak, &exec, &rec);
            std::hint::black_box(verdict.is_ok());
        });
        let ratio = t_grouped_zst.as_secs_f64() / t_grouped.as_secs_f64();
        assert!(
            ratio < 3.0 && ratio > 1.0 / 3.0,
            "generic TEST-FDs drifted from the Convention baseline at n = {n}: \
             zst/enum ratio {ratio:.2} outside the 3x noise bound"
        );
        let t_pairwise = (n <= 10_000).then(|| {
            median_time(1, || {
                let verdict = testfd::check_pairwise(&w.instance, &w.fds, Convention::Weak);
                std::hint::black_box(verdict.is_ok());
            })
        });
        // The measurement is only honest if both engines do the same work.
        if let Some(_t) = t_naive {
            let a = chase_naive(&w.instance, &w.fds);
            let b = chase_plain(&w.instance, &w.fds);
            assert_eq!(
                a.instance.canonical_form(),
                b.instance.canonical_form(),
                "engines disagree at n = {n}"
            );
        }
        let speedup = t_naive
            .map(|t| format!("×{:.1}", t.as_secs_f64() / t_indexed.as_secs_f64()))
            .unwrap_or_else(|| "-".to_string());
        table.row([
            n.to_string(),
            t_naive
                .map(fmt_duration)
                .unwrap_or_else(|| "(skipped)".into()),
            fmt_duration(t_indexed),
            speedup,
            t_pairwise
                .map(fmt_duration)
                .unwrap_or_else(|| "(skipped)".into()),
            fmt_duration(t_grouped),
            fmt_duration(t_grouped_zst),
        ]);
        points.push(Point {
            n,
            naive_ns: t_naive.map(|d| d.as_nanos()),
            indexed_ns: t_indexed.as_nanos(),
            testfd_pairwise_ns: t_pairwise.map(|d| d.as_nanos()),
            testfd_grouped_ns: t_grouped.as_nanos(),
            testfd_grouped_zst_ns: t_grouped_zst.as_nanos(),
        });
    }
    table.print();
    let json = render_json(&points);
    std::fs::File::create("BENCH_chase.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_chase.json");
    println!("wrote BENCH_chase.json");
}

fn render_json(points: &[Point]) -> String {
    let mut out =
        String::from("{\n  \"workload\": \"large_workload(seed=7, null=0.25, nec=0.1, fds=4)\",\n");
    out.push_str(&format!("  \"host\": {},\n", fdi_bench::host_json()));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let speedup = p
            .naive_ns
            .map(|naive| format!("{:.1}", naive as f64 / p.indexed_ns as f64))
            .unwrap_or_else(|| "null".to_string());
        let naive = p
            .naive_ns
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        let pairwise = p
            .testfd_pairwise_ns
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        out.push_str(&format!(
            "    {{\"n\": {}, \"chase_naive_ns\": {}, \"chase_indexed_ns\": {}, \
             \"chase_speedup\": {}, \"testfd_pairwise_ns\": {}, \"testfd_grouped_ns\": {}, \
             \"testfd_grouped_zst_ns\": {}}}{}\n",
            p.n,
            naive,
            p.indexed_ns,
            speedup,
            pairwise,
            p.testfd_grouped_ns,
            p.testfd_grouped_zst_ns,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
