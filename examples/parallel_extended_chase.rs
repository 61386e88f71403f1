//! Weak-satisfiability at scale: the parallel extended cell chase over
//! a 50 000-row instance with cross-column NEC classes and planted FD
//! conflicts.
//!
//! The extended NS-rule system (Theorem 4) is a congruence closure, so
//! its result is *order-insensitive* — unlike the plain chase, a
//! parallel engine needs no event-order replay at all. The engine
//! alternates a parallel read-only discovery phase (dirty buckets
//! sharded onto the `fdi-exec` executor) with a sequential
//! union/migration phase; the whole outcome is bit-identical at every
//! thread count, so the inline 1-thread run checks it here. `nothing_classes == 0` decides
//! weak satisfiability outright (Theorem 4(b)) — rerun with
//! `FDI_THREADS=1`, `=4`, … to see the wall time move while the
//! verdict stays fixed.
//!
//! Run: `FDI_THREADS=4 cargo run --release --example parallel_extended_chase`

use fdi_core::chase::extended_chase;
use fdi_exec::Executor;
use fdi_gen::extended_workload;
use fdi_obs::Recorder;
use std::time::Instant;

fn main() {
    const N: usize = 50_000;
    let exec = Executor::from_env();
    println!(
        "executor: {} thread(s) (host reports {})",
        exec.threads(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    println!(
        "generating a {N}-row extended workload (cross-column NEC classes, 4 planted conflicts) …"
    );
    let start = Instant::now();
    let w = extended_workload(7, N, 4, N / 200, 4);
    println!(
        "  {} rows, {} null cells in {:.2?}",
        w.instance.len(),
        w.instance.null_count(),
        start.elapsed()
    );

    let start = Instant::now();
    let par = extended_chase(&w.instance, &w.fds, &exec, &Recorder::noop());
    let wall = start.elapsed();
    println!(
        "parallel extended chase in {wall:.2?}: {} unions, {} nothing class(es), {} discovery phase(s)",
        par.unions, par.nothing_classes, par.rounds
    );
    println!(
        "weakly satisfiable: {} (Theorem 4(b): nothing_classes == 0)",
        par.nothing_classes == 0
    );

    let start = Instant::now();
    let inline = extended_chase(
        &w.instance,
        &w.fds,
        &Executor::with_threads(1),
        &Recorder::noop(),
    );
    println!("inline (1 thread) in {:.2?}", start.elapsed());
    assert_eq!(
        par.instance.canonical_form(),
        inline.instance.canonical_form(),
        "the determinism contract: canonical instances agree"
    );
    assert_eq!(par.nothing_classes, inline.nothing_classes);
    assert_eq!(par.unions, inline.unions);
    assert_eq!(par.rounds, inline.rounds);
    println!("parallel == inline (canonical instance, nothing classes, unions, phases) ✓");
}
