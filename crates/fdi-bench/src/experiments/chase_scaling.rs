//! E12: NS-rule chase complexity (§6) — the naive pairwise multi-pass
//! engine vs the congruence-closure-style hash-grouping engine
//! (the paper: `O(|F|·n³·p)` vs the Downey–Sethi–Tarjan
//! `O(|F|·n·log(|F|·n))` footnote).

use crate::{banner, fmt_duration, fmt_factor, growth_factors, median_time, Table};
use fdi_core::chase::{extended_chase, extended_chase_naive};
use fdi_exec::Executor;
use fdi_gen::{satisfiable_workload, WorkloadSpec};
use fdi_obs::Recorder;
use std::time::Duration;

/// Runs the experiment.
pub fn run(quick: bool) {
    banner(
        "E12",
        "chase engines: naive pairwise vs hash-grouped",
        "the naive multi-pass engine is superlinear (pairwise scans per \
         pass); the congruence-closure-style engine stays near-linear; \
         both produce the identical minimally incomplete instance",
    );
    let sizes: Vec<usize> = if quick {
        vec![128, 256, 512]
    } else {
        vec![256, 512, 1024, 2048, 4096]
    };
    let mut naive_times: Vec<Duration> = Vec::new();
    let mut fast_times: Vec<Duration> = Vec::new();
    let mut table = Table::new([
        "n", "naive", "growth", "fast", "growth", "speedup", "unions", "rounds",
    ]);
    for &n in &sizes {
        let spec = WorkloadSpec {
            rows: n,
            attrs: 4,
            domain: (n / 2).max(8),
            null_density: 0.25,
            nec_density: 0.1,
            collision_rate: 0.6,
        };
        let w = satisfiable_workload(7, &spec, 4);
        let repeats = if quick { 3 } else { 5 };
        let (exec, rec) = (Executor::with_threads(1), Recorder::noop());
        let t_fast = median_time(repeats, || {
            std::hint::black_box(extended_chase(&w.instance, &w.fds, &exec, &rec));
        });
        let t_naive = if n <= 2048 {
            median_time(repeats.min(3), || {
                std::hint::black_box(extended_chase_naive(&w.instance, &w.fds));
            })
        } else {
            Duration::ZERO
        };
        let fast = extended_chase(&w.instance, &w.fds, &exec, &rec);
        if !t_naive.is_zero() {
            let naive = extended_chase_naive(&w.instance, &w.fds);
            assert_eq!(
                fast.instance.canonical_form(),
                naive.instance.canonical_form(),
                "engines disagree at n = {n}"
            );
        }
        naive_times.push(t_naive);
        fast_times.push(t_fast);
        let gi = fast_times.len() - 1;
        let fmt_growth = |g: &[f64]| {
            if gi == 0 {
                "-".to_string()
            } else {
                fmt_factor(g[gi - 1])
            }
        };
        let speedup = if t_naive.is_zero() {
            "-".to_string()
        } else {
            format!("×{:.1}", t_naive.as_secs_f64() / t_fast.as_secs_f64())
        };
        table.row([
            n.to_string(),
            if t_naive.is_zero() {
                "(skipped)".to_string()
            } else {
                fmt_duration(t_naive)
            },
            fmt_growth(&growth_factors(&naive_times)),
            fmt_duration(t_fast),
            fmt_growth(&growth_factors(&fast_times)),
            speedup,
            fast.unions.to_string(),
            fast.rounds.to_string(),
        ]);
    }
    table.print();
    println!(
        "growth per doubling: naive approaches ×4+ (pairwise scans), the \
         hash-grouped engine stays near ×2 — the shape of the paper's \
         O(|F|·n³·p) vs O(|F|·n·log(|F|·n)) comparison.\n"
    );
}
