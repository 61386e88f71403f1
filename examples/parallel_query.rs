//! Certain/possible query answering over a 100 000-row incomplete
//! instance, on the deterministic `fdi-exec` executor.
//!
//! The selection `(A = A_0 ∨ A = A_1) ∧ ¬(B = B_0)` is compiled once
//! and evaluated per row (least-extension semantics), splitting the
//! rows into **sure** answers (true under every completion), **maybe**
//! answers (true under some, false under another), and definite
//! non-answers. Each row's verdict is independent, so the rows shard
//! onto the executor; the shard-order merge makes the answer sets
//! bit-identical at every thread count — rerun with `FDI_THREADS=1`,
//! `=4`, … to see the wall time move while the answers stay fixed. The
//! interpreted reference evaluator checks the result.
//!
//! Run: `FDI_THREADS=4 cargo run --release --example parallel_query`

use fdi_core::query::{select, CompiledQuery};
use fdi_exec::Executor;
use fdi_gen::{large_workload, scaling_query};
use std::time::Instant;

fn main() {
    const N: usize = 100_000;
    let exec = Executor::from_env();
    println!(
        "executor: {} thread(s) (host reports {})",
        exec.threads(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    println!("generating a {N}-row workload (25% nulls, shared NEC classes) …");
    let start = Instant::now();
    let w = large_workload(7, N, 0.25, 0.1, 4);
    println!(
        "  {} rows, {} null cells in {:.2?}",
        w.instance.len(),
        w.instance.null_count(),
        start.elapsed()
    );

    let query = scaling_query(&w.instance);
    println!("query: (A = A_0 or A = A_1) and not (B = B_0)");

    let start = Instant::now();
    let plan = CompiledQuery::compile(&query, &w.instance);
    let (answers, _) = plan
        .select_par_stats(&w.instance, &exec)
        .expect("finite domains");
    let wall = start.elapsed();
    println!(
        "compiled answer sets in {wall:.2?}: {} sure, {} maybe, {} no",
        answers.sure.len(),
        answers.maybe.len(),
        answers.no.len()
    );

    let start = Instant::now();
    let sequential = select(&query, &w.instance).expect("finite domains");
    println!("interpreted reference in {:.2?}", start.elapsed());
    assert_eq!(
        answers, sequential,
        "the determinism contract: answers are bit-identical"
    );
    println!("compiled == interpreted, bit for bit ✓");
}
