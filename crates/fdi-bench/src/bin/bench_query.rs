//! Query-answering benchmark: the compiled plan path
//! ([`CompiledQuery`](fdi_core::query::CompiledQuery) — flat op
//! program, precomputed per-attribute candidate sets, per-shard
//! NEC-signature memo) vs the sequential interpreted
//! [`select`](fdi_core::query::select) walking the query tree per row,
//! plus the **incremental** lane: an
//! [`IncrementalSelection`](fdi_core::query::IncrementalSelection)
//! maintained under a 256-op update stream vs a full compiled re-scan
//! after every op. Writes `BENCH_query.json` (medians in nanoseconds
//! plus speedups) to the current directory and prints tables.
//!
//! All lanes are equivalence-checked before timing: the compiled select
//! bit-identical to the interpreted one at every measured thread count,
//! and both maintenance lanes ending on the same answer.
//!
//! Usage: `cargo run --release -p fdi-bench --bin bench_query
//! [--quick]` — `--quick` drops the n = 100 000 points.

use fdi_bench::query_bench::{
    measure_obs_overhead, render_json, run_incremental_point, run_select_point, verify_equivalence,
};
use fdi_bench::{fmt_duration, Table};
use std::io::Write;
use std::time::Duration;

const OPS: usize = 256;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };

    for &n in sizes {
        verify_equivalence(n.min(10_000));
    }
    println!("equivalence pre-check passed\n");

    let mut selects = Vec::new();
    let mut table = Table::new([
        "n",
        "threads",
        "interpreted",
        "compiled",
        "compile",
        "speedup",
    ]);
    for &n in sizes {
        for threads in [1usize, 4] {
            let repeats = if n >= 100_000 { 3 } else { 5 };
            let p = run_select_point(n, threads, repeats);
            table.row([
                p.n.to_string(),
                p.threads.to_string(),
                fmt_duration(Duration::from_nanos(p.interpreted_ns as u64)),
                fmt_duration(Duration::from_nanos(p.compiled_ns as u64)),
                fmt_duration(Duration::from_nanos(p.compile_ns as u64)),
                format!("×{:.1}", p.interpreted_ns as f64 / p.compiled_ns as f64),
            ]);
            selects.push(p);
        }
    }
    println!("select: interpreted (sequential) vs compiled (scaling query)");
    println!("{}", table.render());

    let mut incrementals = Vec::new();
    let mut table = Table::new(["n", "ops", "rescan", "incremental", "evals", "speedup"]);
    for &n in sizes {
        let repeats = if n >= 100_000 { 1 } else { 3 };
        let p = run_incremental_point(n, OPS, repeats);
        table.row([
            p.n.to_string(),
            p.ops.to_string(),
            fmt_duration(Duration::from_nanos(p.rescan_ns as u64)),
            fmt_duration(Duration::from_nanos(p.incremental_ns as u64)),
            p.evals.to_string(),
            format!("×{:.1}", p.rescan_ns as f64 / p.incremental_ns as f64),
        ]);
        incrementals.push(p);
    }
    println!("answer maintenance: full re-scan per op vs incremental");
    println!("{}", table.render());

    // Honesty lane: the same compiled select through `Epoch::select`
    // with the noop recorder vs a live one, asserted bounded before the
    // artifact is written.
    let obs = measure_obs_overhead(10_000, 5);
    obs.assert_bounded(3.0);
    println!(
        "obs honesty lane: enabled-recorder overhead ×{:.2}",
        obs.ratio()
    );

    let json = render_json(&selects, &incrementals, &obs);
    let mut f = std::fs::File::create("BENCH_query.json").expect("create BENCH_query.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_query.json");
    println!("wrote BENCH_query.json");
}
