//! E10: TEST-FDs complexity (Figure 3) — pairwise `O(|F|·n²)` vs
//! hash-grouped ("bucket sort") `O(|F|·n·p)`, the production
//! [`testfd::check`], inline.

use crate::{banner, fmt_duration, fmt_factor, growth_factors, median_time, Table};
use fdi_core::semantics::SemanticsKind;
use fdi_core::testfd;
use fdi_gen::{satisfiable_workload, WorkloadSpec};
use std::time::Duration;

/// Runs the experiment.
pub fn run(quick: bool) {
    banner(
        "E10",
        "TEST-FDs scaling (Figure 3)",
        "the bucket-sort variant of Figure 3's additional assumptions \
         runs in O(|F|·n·p); the footnote's pairwise variant in \
         O(|F|·n²); growth factors per doubling should approach ×2 and \
         ×4 respectively",
    );
    let sizes: Vec<usize> = if quick {
        vec![256, 512, 1024]
    } else {
        vec![512, 1024, 2048, 4096, 8192]
    };
    let weak = SemanticsKind::Weak;
    let fd_counts = [1usize, 4];
    for &fd_count in &fd_counts {
        println!("|F| = {fd_count}:");
        let mut pairwise_times = Vec::new();
        let mut grouped_times = Vec::new();
        let mut table = Table::new(["n", "pairwise", "growth", "grouped", "growth"]);
        for &n in &sizes {
            let spec = WorkloadSpec {
                rows: n,
                attrs: 4,
                domain: (n / 4).max(8),
                null_density: 0.1,
                nec_density: 0.0,
                collision_rate: 0.4,
            };
            let w = satisfiable_workload(1234, &spec, fd_count);
            let repeats = if quick { 3 } else { 5 };
            // pairwise is quadratic: skip the largest size
            let t_pairwise = if n <= 4096 {
                median_time(repeats.min(3), || {
                    std::hint::black_box(testfd::check_pairwise(&w.instance, &w.fds, weak)).ok();
                })
            } else {
                Duration::ZERO
            };
            let rec = fdi_obs::Recorder::noop();
            let t_grouped = median_time(repeats, || {
                std::hint::black_box(testfd::check(&w.instance, &w.fds, weak, &rec)).ok();
            });
            pairwise_times.push(t_pairwise);
            grouped_times.push(t_grouped);
            let gi = grouped_times.len() - 1;
            let gp = growth_factors(&pairwise_times);
            let gh = growth_factors(&grouped_times);
            let fmt_growth = |g: &[f64]| {
                if gi == 0 {
                    "-".to_string()
                } else {
                    fmt_factor(g[gi - 1])
                }
            };
            let (pairwise, pairwise_growth) = if t_pairwise.is_zero() {
                ("(skipped)".to_string(), "-".to_string())
            } else {
                (fmt_duration(t_pairwise), fmt_growth(&gp))
            };
            table.row([
                n.to_string(),
                pairwise,
                pairwise_growth,
                fmt_duration(t_grouped),
                fmt_growth(&gh),
            ]);
        }
        table.print();
    }
}
