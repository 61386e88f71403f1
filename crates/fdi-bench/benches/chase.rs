//! Criterion microbenchmarks for the chase engines (E12): plain NS
//! rules (naive all-pairs vs indexed worklist), extended naive, and
//! extended fast. The standalone `bench_chase` binary covers the
//! n ∈ {1k, 10k, 100k} scaling sweep and records `BENCH_chase.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdi_core::chase::{chase_naive, chase_plain, extended_chase, extended_chase_naive};
use fdi_exec::Executor;
use fdi_gen::{large_workload, satisfiable_workload, WorkloadSpec};
use fdi_obs::Recorder;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase");
    for &n in &[128usize, 512, 2048] {
        let spec = WorkloadSpec {
            rows: n,
            attrs: 4,
            domain: (n / 2).max(8),
            null_density: 0.25,
            nec_density: 0.1,
            collision_rate: 0.6,
        };
        let w = satisfiable_workload(7, &spec, 4);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("extended_fast", n), &w, |b, w| {
            let (exec, rec) = (Executor::with_threads(1), Recorder::noop());
            b.iter(|| extended_chase(&w.instance, &w.fds, &exec, &rec))
        });
        group.bench_with_input(BenchmarkId::new("plain_indexed", n), &w, |b, w| {
            b.iter(|| chase_plain(&w.instance, &w.fds))
        });
        if n <= 512 {
            group.bench_with_input(BenchmarkId::new("extended_naive", n), &w, |b, w| {
                b.iter(|| extended_chase_naive(&w.instance, &w.fds))
            });
            group.bench_with_input(BenchmarkId::new("plain_naive", n), &w, |b, w| {
                b.iter(|| chase_naive(&w.instance, &w.fds))
            });
        }
    }
    group.finish();
}

fn bench_worklist_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_worklist");
    for &n in &[1_000usize, 10_000] {
        let w = large_workload(7, n, 0.25, 0.1, 4);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("indexed", n), &w, |b, w| {
            b.iter(|| chase_plain(&w.instance, &w.fds))
        });
        if n <= 1_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &w, |b, w| {
                b.iter(|| chase_naive(&w.instance, &w.fds))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_worklist_scaling);
criterion_main!(benches);
