//! Criterion microbenchmarks for TEST-FDs (E10/E11): sorted vs pairwise
//! vs hash-grouped, both conventions, across relation sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdi_core::testfd::{self, Convention};
use fdi_exec::Executor;
use fdi_gen::{satisfiable_workload, WorkloadSpec};
use fdi_obs::Recorder;

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("testfd");
    for &n in &[256usize, 1024, 4096] {
        let spec = WorkloadSpec {
            rows: n,
            attrs: 4,
            domain: (n / 4).max(8),
            null_density: 0.1,
            nec_density: 0.0,
            collision_rate: 0.4,
        };
        let w = satisfiable_workload(1234, &spec, 4);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sorted_weak", n), &w, |b, w| {
            b.iter(|| testfd::check_sorted(&w.instance, &w.fds, Convention::Weak))
        });
        group.bench_with_input(BenchmarkId::new("grouped_weak", n), &w, |b, w| {
            let (exec, rec) = (Executor::with_threads(1), Recorder::noop());
            b.iter(|| testfd::check(&w.instance, &w.fds, Convention::Weak, &exec, &rec))
        });
        if n <= 1024 {
            group.bench_with_input(BenchmarkId::new("pairwise_weak", n), &w, |b, w| {
                b.iter(|| testfd::check_pairwise(&w.instance, &w.fds, Convention::Weak))
            });
        }
        group.bench_with_input(BenchmarkId::new("sorted_strong", n), &w, |b, w| {
            b.iter(|| testfd::check_sorted(&w.instance, &w.fds, Convention::Strong))
        });
    }
    group.finish();
}

fn bench_presorted(c: &mut Criterion) {
    let mut group = c.benchmark_group("testfd_presorted");
    for &n in &[1024usize, 4096, 16384] {
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
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("linear_scan", n), &w, |b, w| {
            b.iter(|| testfd::check_single_presorted(&w.instance, fd, Convention::Weak, &order))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variants, bench_presorted);
criterion_main!(benches);
