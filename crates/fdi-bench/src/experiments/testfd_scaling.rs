//! E10/E11: TEST-FDs complexity (Figure 3) — sorted `O(|F|·n·log n)` vs
//! pairwise `O(|F|·n²)` vs hash-grouped ("bucket sort") `O(|F|·n·p)`
//! — the production [`testfd::check`], inline — plus the linear
//! single-FD pre-sorted scan.

use crate::{banner, fmt_duration, fmt_factor, growth_factors, median_time, Table};
use fdi_core::semantics::Weak;
use fdi_core::testfd;
use fdi_gen::{satisfiable_workload, WorkloadSpec};
use std::time::Duration;

/// Runs the experiment.
pub fn run(quick: bool) {
    banner(
        "E10",
        "TEST-FDs scaling (Figure 3)",
        "the sorted algorithm runs in O(|F|·n·log n); the footnote's \
         pairwise variant in O(|F|·n²); growth factors per doubling \
         should approach ×2 and ×4 respectively",
    );
    let sizes: Vec<usize> = if quick {
        vec![256, 512, 1024]
    } else {
        vec![512, 1024, 2048, 4096, 8192]
    };
    let fd_counts = [1usize, 4];
    for &fd_count in &fd_counts {
        println!("|F| = {fd_count}:");
        let mut sorted_times = Vec::new();
        let mut pairwise_times = Vec::new();
        let mut grouped_times = Vec::new();
        let mut table = Table::new([
            "n", "sorted", "growth", "pairwise", "growth", "grouped", "growth",
        ]);
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
            let t_sorted = median_time(repeats, || {
                std::hint::black_box(testfd::check_sorted(&w.instance, &w.fds, Weak)).ok();
            });
            // pairwise is quadratic: skip the largest sizes in quick mode
            let t_pairwise = if n <= 4096 {
                median_time(repeats.min(3), || {
                    std::hint::black_box(testfd::check_pairwise(&w.instance, &w.fds, Weak)).ok();
                })
            } else {
                Duration::ZERO
            };
            let rec = fdi_obs::Recorder::noop();
            let t_grouped = median_time(repeats, || {
                std::hint::black_box(testfd::check(&w.instance, &w.fds, Weak, &rec)).ok();
            });
            sorted_times.push(t_sorted);
            pairwise_times.push(t_pairwise);
            grouped_times.push(t_grouped);
            let gi = sorted_times.len() - 1;
            let gs = growth_factors(&sorted_times);
            let gp = growth_factors(&pairwise_times);
            let gh = growth_factors(&grouped_times);
            let fmt_growth = |g: &[f64]| {
                if gi == 0 {
                    "-".to_string()
                } else {
                    fmt_factor(g[gi - 1])
                }
            };
            table.row([
                n.to_string(),
                fmt_duration(t_sorted),
                fmt_growth(&gs),
                if t_pairwise.is_zero() {
                    "(skipped)".to_string()
                } else {
                    fmt_duration(t_pairwise)
                },
                fmt_growth(&gp),
                fmt_duration(t_grouped),
                fmt_growth(&gh),
            ]);
        }
        table.print();
    }

    banner(
        "E11",
        "Figure 3's additional assumptions",
        "bucket sort gives O(n·p); a single FD on a pre-sorted relation \
         needs only a linear scan",
    );
    let mut table = Table::new([
        "n",
        "presorted linear scan",
        "growth",
        "sort itself",
        "growth",
    ]);
    let mut scan_times = Vec::new();
    let mut sort_times = Vec::new();
    for &n in &sizes {
        let spec = WorkloadSpec {
            rows: n,
            attrs: 4,
            domain: (n / 4).max(8),
            null_density: 0.1,
            nec_density: 0.0,
            collision_rate: 0.4,
        };
        let w = satisfiable_workload(99, &spec, 1);
        let fd = w.fds.fds()[0];
        let order = testfd::sort_order(&w.instance, fd);
        let t_scan = median_time(5, || {
            std::hint::black_box(testfd::check_single_presorted(
                &w.instance,
                fd,
                Weak,
                &order,
            ))
            .ok();
        });
        let t_sort = median_time(5, || {
            std::hint::black_box(testfd::sort_order(&w.instance, fd));
        });
        scan_times.push(t_scan);
        sort_times.push(t_sort);
        let gi = scan_times.len() - 1;
        let fmt_growth = |g: &[f64]| {
            if gi == 0 {
                "-".to_string()
            } else {
                fmt_factor(g[gi - 1])
            }
        };
        table.row([
            n.to_string(),
            fmt_duration(t_scan),
            fmt_growth(&growth_factors(&scan_times)),
            fmt_duration(t_sort),
            fmt_growth(&growth_factors(&sort_times)),
        ]);
    }
    table.print();
    println!(
        "the pre-sorted scan grows ~linearly (×2 per doubling) and is \
         dominated by the sort it avoids — Figure 3's point.\n"
    );
}
