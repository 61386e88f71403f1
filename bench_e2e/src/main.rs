//! `bench_e2e`: the end-to-end benchmark of `fdi serve --tcp`.
//!
//! ```text
//! bench_e2e run   [--workload W|all] [--seed S] [--seconds T] [--runs R] [--trace 0|1] [--quick]
//! bench_e2e trace [same options]              (= run --trace 1)
//! bench_e2e compare <base.json> <new.json>
//! ```
//!
//! `run` builds the release `fdi` next to this binary, then per workload
//! and run: starts `fdi serve` several times to time set-up, drives the
//! last server with one closed-loop client over one TCP connection for
//! `--seconds`, and replays every request in-process to check every
//! reply. It prints each metric with its unit and sample count, writes
//! an artifact under `<target>/bench_e2e/` (not with `--quick`), and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (with `--trace 1`, the per-layer ones). It exits
//! non-zero if any reply disagrees with the replay. See README.md.

mod compare;
mod json;
mod replay;
mod script;
mod stats;
mod wire;

use json::Json;
use replay::Replay;
use script::{Class, Request, Script, Workload};
use stats::{median, percentile, supported_tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use wire::{Reply, Server};

/// End-to-end metrics, as a client sees them: (name, unit, higher is
/// better). `BENCHMARK.json` lists the same, with bounds.
pub const END_TO_END: [(&str, &str, bool); 10] = [
    ("setup_s", "s", false),
    ("throughput_rps", "1/s", true),
    ("latency_p50_ms", "ms", false),
    ("latency_p90_ms", "ms", false),
    ("write_p50_ms", "ms", false),
    ("read_p50_ms", "ms", false),
    ("commit_p50_ms", "ms", false),
    ("ping_p50_ms", "ms", false),
    ("peak_rss_mb", "MB", false),
    ("journal_bytes_per_write", "B", false),
];

/// Per-layer metrics from the traced replay. Timings are medians over
/// calls, except `store.sync_ms`, a mean.
pub const PER_LAYER: [(&str, &str, bool); 26] = [
    ("relation.parse_ms", "ms", false),
    ("core.db_new_ms", "ms", false),
    ("serve.writer_create_ms", "ms", false),
    ("serve.stage_ms", "ms", false),
    ("core.enforce_ms", "ms", false),
    ("core.propagate_ms", "ms", false),
    ("cli.row_resolve_ms", "ms", false),
    ("core.rejected_ops", "count", false),
    ("core.propagate_useful_ratio", "ratio", true),
    ("serve.publish_ms", "ms", false),
    ("store.sync_ms", "ms", false),
    ("serve.epoch_build_ms", "ms", false),
    ("store.bytes_per_commit", "B", false),
    ("serve.snapshot_acquire_us", "us", false),
    ("core.query_build_us", "us", false),
    ("serve.plan_lookup_us", "us", false),
    ("serve.plan_cache_hit_ratio", "ratio", true),
    ("core.eval_ms", "ms", false),
    ("core.memo_hit_ratio", "ratio", true),
    ("core.classical_row_frac", "ratio", true),
    ("relation.position_scan_ms", "ms", false),
    ("core.answer_rows_p50", "rows", false),
    ("session.ping_ms", "ms", false),
    ("session.unattributed_write_ms", "ms", false),
    ("session.unattributed_read_ms", "ms", false),
    ("session.unattributed_commit_ms", "ms", false),
];

/// Requests sent before timing starts, on both sides of a comparison.
const WARMUP: usize = 64;
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The client pauses a seeded 0–4 ms before each request. Without the
/// pause the closed loop locks onto the kernel's 4 ms timer tick (every
/// reply now waits on a delayed ACK), and every latency lands on that
/// grid, so medians jump a whole tick between runs.
const THINK_MICROS: usize = 4000;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String], trace: bool) -> Result<Options, String> {
        let mut opts = Options {
            workloads: Workload::ALL.to_vec(),
            seed: 11,
            seconds: 15.0,
            runs: 1,
            trace,
            quick: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                opts.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" if value == "all" => opts.workloads = Workload::ALL.to_vec(),
                "--workload" => opts.workloads = vec![Workload::from_name(value).ok_or_else(bad)?],
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
                "--runs" => opts.runs = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if opts.runs == 0 || opts.seconds.is_nan() || opts.seconds <= 0.0 {
            return Err("--runs and --seconds must be positive".to_string());
        }
        Ok(opts)
    }
}

/// Where the binaries and the output live: `fdi` is built into the
/// directory this binary runs from.
struct Paths {
    repo: PathBuf,
    target: PathBuf,
    fdi: PathBuf,
    out: PathBuf,
}

impl Paths {
    fn locate() -> Result<Paths, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.parent().ok_or("binary has no directory")?;
        let target = bin.parent().ok_or("binary directory has no parent")?;
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark directory has no parent")?;
        Ok(Paths {
            repo: repo.to_path_buf(),
            target: target.to_path_buf(),
            fdi: bin.join("fdi"),
            out: target.join("bench_e2e"),
        })
    }

    fn build_fdi(&self) -> Result<(), String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--quiet",
                "-p",
                "fd-incomplete",
                "--bin",
                "fdi",
            ])
            .arg("--manifest-path")
            .arg(self.repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&self.target)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("building fdi failed ({status})"))
        }
    }
}

/// One measured value and how many samples it summarizes.
type Values = BTreeMap<&'static str, (f64, usize)>;

/// The outcome of one run of one workload.
struct RunOutcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    e2e: Values,
    layers: Values,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The samples the client timed, by class, and the time it spent
/// waiting for replies.
struct Timed {
    samples: Vec<(Class, f64)>,
    busy: Duration,
}

impl Timed {
    fn of(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(c, _)| class.is_none_or(|k| k == *c))
            .map(|&(_, v)| v)
            .collect()
    }
}

fn run_once(
    workload: Workload,
    opts: &Options,
    paths: &Paths,
    threads: usize,
) -> Result<RunOutcome, String> {
    let dir = paths.out.join(format!(
        "run-{}-{}-{}",
        workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = drive(workload, opts, paths, threads, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn drive(
    workload: Workload,
    opts: &Options,
    paths: &Paths,
    threads: usize,
    dir: &Path,
) -> Result<RunOutcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let base_rows = if opts.quick {
        200
    } else {
        workload.base_rows()
    };
    let (setups, warmup, seconds) = if opts.quick {
        (1, 8, opts.seconds.min(1.0))
    } else {
        (SETUPS, WARMUP, opts.seconds)
    };
    let (desc, mut script) = Script::generate(workload, opts.seed, base_rows);
    let desc_path = dir.join("desc.fdi");
    std::fs::write(&desc_path, &desc).map_err(io)?;

    // Set-up, several times over: spawn until the hello line arrives.
    // The last server started serves the run.
    let mut setup_s = Vec::new();
    let mut journal = PathBuf::new();
    let mut session = None;
    for k in 0..setups {
        journal = dir.join(format!("serve-{k}.log"));
        let (server, mut client, took) =
            Server::start(&paths.fdi, &journal, &desc_path, threads).map_err(io)?;
        setup_s.push(took.as_secs_f64());
        if k + 1 < setups {
            client.request("shutdown").map_err(io)?;
            server.wait().map_err(io)?;
        } else {
            session = Some((server, client));
        }
    }
    let (server, mut client) = session.expect("at least one set-up");
    let genesis_bytes = std::fs::metadata(&journal).map_err(io)?.len();

    let mut sent: Vec<Request> = Vec::new();
    let mut replies: Vec<String> = Vec::new();
    let mut timed = Timed {
        samples: Vec::new(),
        busy: Duration::ZERO,
    };
    let mut broken = None;
    let mut think = script::Rng::new(opts.seed ^ 0x7417_6b00);
    let mut send = |req: Request, sent: &mut Vec<Request>| -> Option<Duration> {
        std::thread::sleep(Duration::from_micros(think.below(THINK_MICROS) as u64));
        let started = Instant::now();
        let reply = client.request(&req.line());
        let took = started.elapsed();
        sent.push(req);
        match reply {
            Ok(line) => {
                replies.push(line);
                Some(took)
            }
            Err(e) => {
                broken = Some(format!("request {}: {e}", sent.len() - 1));
                None
            }
        }
    };
    let mut healthy =
        (0..warmup).all(|_| send(script.next().expect("endless"), &mut sent).is_some());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while healthy && Instant::now() < deadline {
        let req = script.next().expect("endless");
        let class = req.class();
        match send(req, &mut sent) {
            Some(took) => {
                timed.samples.push((class, ms(took)));
                timed.busy += took;
            }
            None => healthy = false,
        }
    }

    let mut closing = None;
    let mut server_metrics = None;
    let mut peak_rss_mb = None;
    if healthy {
        server_metrics = Some(client.request("metrics json").map_err(io)?);
        peak_rss_mb = Some(server.peak_rss_mb().map_err(io)?);
        closing = Some(client.request("shutdown").map_err(io)?);
        let status = server.wait().map_err(io)?;
        if !status.success() {
            return Err(format!("fdi serve exited with {status}"));
        }
    }
    let journal_bytes = std::fs::metadata(&journal).map_err(io)?.len() - genesis_bytes;

    // The oracle: the same requests, replayed in-process.
    let mut replay = Replay::open(&desc, &dir.join("replay.log"), opts.trace)?;
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut fail = |problem: String| {
        failed += 1;
        if problems.len() < 5 {
            problems.push(problem);
        }
    };
    let mut accepted_writes = 0usize;
    for (i, (req, line)) in sent.iter().zip(&replies).enumerate() {
        let want = replay.apply(req)?;
        let got = Reply::parse(line);
        accepted_writes += usize::from(matches!(got, Reply::Staged { .. }));
        if got.is_failure() || got != want {
            fail(format!(
                "request {i} `{}`: server said {line:?}, replay expects {want:?}",
                req.line()
            ));
        }
    }
    if let Some(problem) = broken {
        fail(problem);
    }
    if let Some(text) = &server_metrics {
        let mismatched = mismatched_counters(text, &replay.deterministic_pairs());
        if !mismatched.is_empty() {
            fail(format!(
                "`metrics json` counters differ: {}",
                mismatched.join(", ")
            ));
        }
    }
    if let Some(line) = &closing {
        let want = replay.close()?;
        if Reply::parse(line) != want {
            fail(format!(
                "`shutdown`: server said {line:?}, replay expects {want:?}"
            ));
        }
    }

    let mut e2e = Values::new();
    let mut put = |name: &'static str, value: Option<f64>, n: usize| {
        if let Some(v) = value {
            e2e.insert(name, (v, n));
        }
    };
    put("setup_s", median(&setup_s), setup_s.len());
    let all = timed.of(None);
    put(
        "throughput_rps",
        Some(all.len() as f64 / timed.busy.as_secs_f64()),
        all.len(),
    );
    put("latency_p50_ms", median(&all), all.len());
    put("latency_p90_ms", percentile(&all, 90.0), all.len());
    for (name, class) in [
        ("write_p50_ms", Class::Write),
        ("read_p50_ms", Class::Read),
        ("commit_p50_ms", Class::Commit),
        ("ping_p50_ms", Class::Ping),
    ] {
        let samples = timed.of(Some(class));
        put(name, median(&samples), samples.len());
    }
    put("peak_rss_mb", peak_rss_mb, 1);
    put(
        "journal_bytes_per_write",
        (accepted_writes > 0).then(|| journal_bytes as f64 / accepted_writes as f64),
        accepted_writes,
    );
    for (stem, class) in [
        ("latency", None),
        ("write", Some(Class::Write)),
        ("read", Some(Class::Read)),
    ] {
        let samples = timed.of(class);
        if let Some(p) = supported_tail(samples.len()).filter(|&p| p > 90.0) {
            println!(
                "  {stem}_p{p}_ms: {:.3} ms ({} samples, tail shown only with 10 beyond it)",
                percentile(&samples, p).unwrap_or(f64::NAN),
                samples.len()
            );
        }
    }
    let layers = layer_values(&replay, &e2e);
    Ok(RunOutcome {
        attempted: (sent.len() + if healthy { 2 } else { 0 }) as u64,
        failed,
        problems,
        e2e,
        layers,
    })
}

/// Names of deterministic counters whose value in the server's
/// `metrics json` differs from the replay's (or is missing).
fn mismatched_counters(text: &str, want: &[(&'static str, u64)]) -> Vec<String> {
    let Ok(json) = Json::parse(text) else {
        return vec!["unparsable reply".to_string()];
    };
    want.iter()
        .filter(|(name, value)| {
            let got = ["counters", "gauges"]
                .iter()
                .find_map(|group| json.get(group)?.get(name)?.as_f64());
            got != Some(*value as f64)
        })
        .map(|(name, value)| format!("{name} (replay {value})"))
        .collect()
}

fn layer_values(replay: &Replay, e2e: &Values) -> Values {
    let l = &replay.layers;
    let p50 = |name: &str| l.series.get(name).and_then(|v| median(v));
    let count = |name: &str| l.series.get(name).map_or(0, Vec::len);
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    let mut out = Values::new();
    for (name, _, _) in PER_LAYER {
        if let Some(v) = p50(name) {
            out.insert(name, (v, count(name)));
        }
    }
    let writes = l.writes_accepted + l.writes_rejected;
    out.insert(
        "core.rejected_ops",
        (l.writes_rejected as f64, writes as usize),
    );
    let mut put_ratio = |name, value: Option<f64>, n: u64| {
        if let Some(v) = value {
            out.insert(name, (v, n as usize));
        }
    };
    put_ratio(
        "core.propagate_useful_ratio",
        ratio(l.writes_propagated, l.writes_accepted),
        l.writes_accepted,
    );
    let lookups = l.plan_hits + l.plan_misses;
    put_ratio(
        "serve.plan_cache_hit_ratio",
        ratio(l.plan_hits, lookups),
        lookups,
    );
    let memo = l.memo_hits + l.memo_misses;
    put_ratio("core.memo_hit_ratio", ratio(l.memo_hits, memo), memo);
    put_ratio(
        "core.classical_row_frac",
        ratio(l.classical_rows, l.rows_evaluated),
        l.rows_evaluated,
    );
    put_ratio(
        "store.bytes_per_commit",
        ratio(l.commit_bytes, l.commits),
        l.commits,
    );
    let (syncs, sync_nanos) = replay.sync_nanos();
    put_ratio(
        "store.sync_ms",
        ratio(sync_nanos, syncs).map(|n| n / 1e6),
        syncs,
    );

    // The client-side remainder of each class: its end-to-end median
    // less the ping floor and the medians of the layers it calls.
    let e2e_p50 = |name: &str| e2e.get(name).map(|&(v, _)| v);
    let sum = |names: &[&str], scale: f64| -> Option<f64> {
        names.iter().map(|n| p50(n).map(|v| v * scale)).sum()
    };
    if let Some(ping) = e2e_p50("ping_p50_ms") {
        out.insert("session.ping_ms", (ping, e2e["ping_p50_ms"].1));
        let classes: [(&str, &str, Option<f64>); 3] = [
            (
                "session.unattributed_write_ms",
                "write_p50_ms",
                sum(&["cli.row_resolve_ms", "serve.stage_ms"], 1.0),
            ),
            (
                "session.unattributed_read_ms",
                "read_p50_ms",
                sum(
                    &[
                        "serve.snapshot_acquire_us",
                        "core.query_build_us",
                        "serve.plan_lookup_us",
                    ],
                    1e-3,
                )
                .zip(sum(&["core.eval_ms", "relation.position_scan_ms"], 1.0))
                .map(|(a, b)| a + b),
            ),
            (
                "session.unattributed_commit_ms",
                "commit_p50_ms",
                sum(&["serve.publish_ms"], 1.0),
            ),
        ];
        for (name, class, layers) in classes {
            if let (Some(total), Some(layers)) = (e2e_p50(class), layers) {
                out.insert(name, (total - ping - layers, e2e[class].1));
            }
        }
    }
    out
}

/// Every run of one workload.
struct WorkloadRuns {
    workload: Workload,
    runs: Vec<RunOutcome>,
}

impl WorkloadRuns {
    /// The value and sample count of every run that measured `name`.
    fn measured<'a>(
        &'a self,
        name: &'a str,
        layer: bool,
    ) -> impl Iterator<Item = (f64, usize)> + 'a {
        self.runs
            .iter()
            .filter_map(move |r| (if layer { &r.layers } else { &r.e2e }).get(name).copied())
    }

    fn values(&self, name: &str, layer: bool) -> Vec<f64> {
        self.measured(name, layer).map(|(v, _)| v).collect()
    }

    fn samples(&self, name: &str, layer: bool) -> usize {
        self.measured(name, layer).map(|(_, n)| n).sum()
    }
}

fn metric_table(trace: bool) -> Vec<(&'static str, &'static str, bool, bool)> {
    let e2e = END_TO_END.iter().map(|&(n, u, h)| (n, u, h, false));
    let layers = PER_LAYER.iter().map(|&(n, u, h)| (n, u, h, true));
    if trace {
        e2e.chain(layers).collect()
    } else {
        e2e.collect()
    }
}

fn print_table(w: &WorkloadRuns, opts: &Options, threads: usize) {
    let base_rows = if opts.quick {
        200
    } else {
        w.workload.base_rows()
    };
    println!(
        "{} — base {} rows, seed {}, {} run(s) of {} s, FDI_THREADS={}",
        w.workload.name(),
        base_rows,
        opts.seed,
        w.runs.len(),
        opts.seconds,
        threads
    );
    println!(
        "  {:<32} {:>6} {:>8} {:>12} {:>12} {:>12}",
        "metric", "unit", "samples", "min", "median", "max"
    );
    for (name, unit, _, layer) in metric_table(opts.trace) {
        let values = w.values(name, layer);
        let (Some(lo), Some(mid), Some(hi)) = (
            percentile(&values, 0.0),
            median(&values),
            percentile(&values, 100.0),
        ) else {
            println!("  {name:<32} {unit:>6}   (not measured)");
            continue;
        };
        println!(
            "  {name:<32} {unit:>6} {:>8} {lo:>12.4} {mid:>12.4} {hi:>12.4}",
            w.samples(name, layer)
        );
    }
    for problem in w.runs.iter().flat_map(|r| &r.problems) {
        println!("  FAILED: {problem}");
    }
}

fn host_block(threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "os",
            Json::str(format!("{} {}", std::env::consts::OS, release.trim())),
        ),
        ("cpu_model", Json::str(cpu)),
        ("fdi_threads", Json::Num(threads as f64)),
    ])
}

fn git_rev(repo: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn artifact(all: &[WorkloadRuns], opts: &Options, paths: &Paths, threads: usize) -> Json {
    let workloads = all.iter().map(|w| {
        let metrics =
            metric_table(opts.trace)
                .into_iter()
                .filter_map(|(name, unit, higher, layer)| {
                    let values = w.values(name, layer);
                    let mid = median(&values)?;
                    Some((
                        name,
                        Json::obj([
                            ("unit", Json::str(unit)),
                            ("better", Json::str(if higher { "higher" } else { "lower" })),
                            ("samples", Json::Num(w.samples(name, layer) as f64)),
                            ("min", Json::Num(percentile(&values, 0.0)?)),
                            ("median", Json::Num(mid)),
                            ("max", Json::Num(percentile(&values, 100.0)?)),
                            (
                                "runs",
                                Json::Arr(values.into_iter().map(Json::Num).collect()),
                            ),
                        ]),
                    ))
                });
        (
            w.workload.name(),
            Json::obj([
                ("base_rows", Json::Num(w.workload.base_rows() as f64)),
                (
                    "attempted",
                    Json::Num(w.runs.iter().map(|r| r.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::Num(w.runs.iter().map(|r| r.failed).sum::<u64>() as f64),
                ),
                ("metrics", Json::obj(metrics)),
            ]),
        )
    });
    Json::obj([
        ("benchmark", Json::str("bench_e2e")),
        ("git_rev", Json::str(git_rev(&paths.repo))),
        ("host", host_block(threads)),
        ("seed", Json::Num(opts.seed as f64)),
        ("runs", Json::Num(opts.runs as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("warmup_requests", Json::Num(WARMUP as f64)),
        ("setups_per_run", Json::Num(SETUPS as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("workloads", Json::obj(workloads)),
    ])
}

/// The last line of output: the medians over runs of the end-to-end
/// metrics (with `--trace 1`, the per-layer ones), named
/// `<workload>.<metric>` when more than one workload ran.
fn result_line(all: &[WorkloadRuns], trace: bool) -> Json {
    let table: &[(&str, &str, bool)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for w in all {
        for &(name, unit, _) in table {
            if let Some(v) = median(&w.values(name, trace)) {
                let key = if all.len() == 1 {
                    name.to_string()
                } else {
                    format!("{}.{name}", w.workload.name())
                };
                metrics.push((
                    key,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                ));
            }
        }
    }
    let runs = all.iter().flat_map(|w| &w.runs);
    let attempted: u64 = runs.clone().map(|r| r.attempted).sum();
    let failed: u64 = runs.map(|r| r.failed).sum();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run_command(args: &[String], trace: bool) -> Result<bool, String> {
    let opts = Options::parse(args, trace)?;
    let paths = Paths::locate()?;
    paths.build_fdi()?;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    // The replay's executors read it too, as the server's do.
    std::env::set_var("FDI_THREADS", threads.to_string());
    let mut all = Vec::new();
    for &workload in &opts.workloads {
        let runs = (0..opts.runs)
            .map(|_| run_once(workload, &opts, &paths, threads))
            .collect::<Result<Vec<_>, _>>()?;
        let w = WorkloadRuns { workload, runs };
        print_table(&w, &opts, threads);
        all.push(w);
    }
    if !opts.quick {
        let name = format!(
            "bench_e2e-seed{}-{}.json",
            opts.seed,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis())
        );
        let path = paths.out.join(name);
        std::fs::write(
            &path,
            format!("{}\n", artifact(&all, &opts, &paths, threads)),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("artifact: {}", path.display());
    }
    let line = result_line(&all, opts.trace);
    println!("{line}");
    Ok(line.get("correct") == Some(&Json::Bool(true)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..], false),
        Some("trace") => run_command(&args[1..], true),
        Some("compare") => compare::command(&args[1..]),
        _ => Err(
            "usage: bench_e2e run|trace [--workload W|all] [--seed S] [--seconds T] \
                  [--runs R] [--trace 0|1] [--quick]\n       \
                  bench_e2e compare <base.json> <new.json>"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this binary emits, with
    /// the same units and directions.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, bool)> = json
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better") == "higher")
                })
                .collect();
            let emitted: Vec<(String, String, bool)> = table
                .iter()
                .map(|&(n, u, h)| (n.to_string(), u.to_string(), h))
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
    }

    #[test]
    fn counter_mismatches_are_named() {
        let text = r#"{"counters":{"ops_applied":3,"ops_rejected":1},"gauges":{"epoch_seq":2}}"#;
        assert!(mismatched_counters(text, &[("ops_applied", 3), ("epoch_seq", 2)]).is_empty());
        assert_eq!(
            mismatched_counters(text, &[("ops_rejected", 2), ("journal_syncs", 0)]),
            vec!["ops_rejected (replay 2)", "journal_syncs (replay 0)"]
        );
        assert_eq!(mismatched_counters("nope", &[]), vec!["unparsable reply"]);
    }
}
