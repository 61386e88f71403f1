//! Parallel-engine benchmark: TEST-FDs, query answering, the plain
//! chase, and the extended cell chase on the `fdi-exec` executor
//! across threads ∈ {1, 2, 4, 8}, at
//! n = 10⁴ and 10⁵. Writes `BENCH_par.json` (medians in nanoseconds
//! plus 4-thread speedups) to the current directory and prints a table.
//!
//! Usage: `cargo run --release -p fdi-bench --bin bench_par [--quick]`
//! — `--quick` drops the n = 100 000 point.
//!
//! The per-configuration results are bit-identical by construction
//! (the executors are deterministic); `verify_equivalence` re-asserts
//! that against the reference engines on the exact timed workload
//! before anything is measured. The JSON records the host's available
//! parallelism — on a machine with fewer cores than the grid requests,
//! thread counts above the core count measure scheduling overhead, not
//! scaling.

use fdi_bench::par_bench::{measure, render_json, speedup, verify_equivalence, THREAD_GRID};
use fdi_bench::{fmt_duration, Table};
use std::io::Write;
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {host_threads} thread(s)");
    println!("verifying every engine against its reference on the timed workload (n = 1000) …");
    verify_equivalence(1_000);

    let mut table = Table::new(["n", "threads", "testfd", "query", "chase", "extended"]);
    let mut points = Vec::new();
    for &n in sizes {
        let repeats = if n >= 100_000 { 3 } else { 5 };
        for p in measure(n, repeats) {
            table.row([
                p.n.to_string(),
                p.threads.to_string(),
                fmt_duration(Duration::from_nanos(p.testfd_ns as u64)),
                fmt_duration(Duration::from_nanos(p.query_ns as u64)),
                fmt_duration(Duration::from_nanos(p.chase_ns as u64)),
                fmt_duration(Duration::from_nanos(p.extended_ns as u64)),
            ]);
            points.push(p);
        }
    }
    table.print();
    for &n in sizes {
        for &t in &THREAD_GRID[1..] {
            let fmt = |m: fn(&fdi_bench::par_bench::ParPoint) -> u128| {
                speedup(&points, n, t, m)
                    .map(|s| format!("×{s:.2}"))
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "n = {n}, {t} threads vs 1: testfd {}, query {}, chase {}, extended {}",
                fmt(|p| p.testfd_ns),
                fmt(|p| p.query_ns),
                fmt(|p| p.chase_ns),
                fmt(|p| p.extended_ns)
            );
        }
    }
    let json = render_json(&points, host_threads);
    std::fs::File::create("BENCH_par.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_par.json");
    println!("wrote BENCH_par.json");
}
