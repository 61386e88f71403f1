//! The in-process replay: the calls `fdi serve` makes for each request,
//! made here on a database built from the same description text.
//!
//! It serves twice. As the oracle it predicts every reply the server
//! must give, since serving is deterministic at every thread count. As
//! the trace it times each public call from outside, so the server under
//! test carries no tracing at all.

use crate::script::Request;
use crate::wire::Reply;
use fdi_core::chase::{chase_plain, weakly_satisfiable_via_chase};
use fdi_core::fd::FdSet;
use fdi_core::query::Query;
use fdi_core::update::{Database, Policy};
use fdi_exec::Executor;
use fdi_obs::{Hist, Recorder};
use fdi_relation::rowid::RowId;
use fdi_relation::{Instance, Schema};
use fdi_serve::{Reader, ServeConfig, ServeOp, Staged, Writer};
use fdi_store::FileStorage;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Parses a description file the way `fdi serve` does: `%schema`
/// (`relation`, `attr` lines), `%fds`, `%instance`.
pub fn parse_description(text: &str) -> Result<(Instance, FdSet), String> {
    let mut section = "";
    let mut relation = "R";
    let mut attrs: Vec<(&str, Vec<&str>)> = Vec::new();
    let (mut fds, mut rows) = (Vec::new(), Vec::new());
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('%') {
            section = name.trim();
            continue;
        }
        match section {
            "schema" => {
                let mut words = line.split_whitespace();
                match (words.next(), words.next()) {
                    (Some("relation"), Some(name)) => relation = name,
                    (Some("attr"), Some(name)) => attrs.push((name, words.collect())),
                    _ => return Err(format!("bad schema line {line:?}")),
                }
            }
            "fds" => fds.push(line),
            "instance" => rows.push(line),
            other => return Err(format!("unknown section {other:?}")),
        }
    }
    let mut builder = Schema::builder(relation);
    for (name, values) in attrs {
        builder = if values.is_empty() {
            builder.attribute_unbounded(name)
        } else {
            builder.attribute(name, values)
        };
    }
    let schema = builder.build().map_err(|e| e.to_string())?;
    let fds = FdSet::parse(&schema, &fds.join("\n")).map_err(|e| e.to_string())?;
    let instance = Instance::parse(schema, &rows.join("\n")).map_err(|e| e.to_string())?;
    Ok((instance, fds))
}

/// What the replay saw, layer by layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Timings and sizes by metric name, one entry per call.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    pub writes_accepted: u64,
    pub writes_rejected: u64,
    /// Accepted writes whose internal acquisition substituted anything.
    pub writes_propagated: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub classical_rows: u64,
    pub rows_evaluated: u64,
    pub commit_bytes: u64,
    pub commits: u64,
}

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }
}

/// A serving pair driven request by request, as one `fdi serve`
/// session drives it.
pub struct Replay {
    writer: Writer<FileStorage>,
    reader: Reader,
    rec: Recorder,
    journal: PathBuf,
    /// Re-run enforcement and propagation outside `stage` to time them.
    trace: bool,
    pub layers: Layers,
}

impl Replay {
    /// Builds the database from `desc` and creates a fresh journal at
    /// `journal`, with the server's defaults: weak enforcement with
    /// propagation, group commits of 64, and a live recorder installed
    /// after creation.
    pub fn open(desc: &str, journal: &Path, trace: bool) -> Result<Replay, String> {
        let mut layers = Layers::default();
        let t = Instant::now();
        let (instance, fds) = parse_description(desc)?;
        layers.push("relation.parse_ms", ms(t));
        let t = Instant::now();
        let db = Database::new(instance, fds, Policy::default()).map_err(|e| e.to_string())?;
        layers.push("core.db_new_ms", ms(t));
        let _ = std::fs::remove_file(journal);
        let storage = FileStorage::open(journal).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (mut writer, mut reader) =
            Writer::create(db, storage, ServeConfig::default(), Executor::from_env())
                .map_err(|e| e.to_string())?;
        layers.push("serve.writer_create_ms", ms(t));
        let rec = Recorder::enabled();
        writer.set_recorder(rec.clone());
        reader.set_recorder(rec.clone());
        Ok(Replay {
            writer,
            reader,
            rec,
            journal: journal.to_path_buf(),
            trace,
            layers,
        })
    }

    /// The reply the server must give to `req`. `Err` is a failure the
    /// server would not survive either (a journal error).
    pub fn apply(&mut self, req: &Request) -> Result<Reply, String> {
        match req {
            Request::Commit => self.commit(),
            Request::Ping => {
                let epoch = self.reader.snapshot();
                Ok(Reply::Epoch {
                    seq: epoch.seq(),
                    ops: epoch.ops_applied(),
                    fingerprint: epoch.fingerprint(),
                })
            }
            Request::Select { attr, value } => Ok(self.select(attr, value)),
            Request::Insert(tokens) => self.stage(ServeOp::Insert(tokens.to_vec())),
            Request::Delete(pos) => match self.row_at(*pos) {
                Some(row) => self.stage(ServeOp::Delete(row)),
                None => Ok(Reply::Rejected),
            },
            Request::Modify { pos, attr, token } | Request::Resolve { pos, attr, token } => {
                let Some(row) = self.row_at(*pos) else {
                    return Ok(Reply::Rejected);
                };
                let Ok(attr) = self.writer.db().instance().schema().attr_id(attr) else {
                    return Ok(Reply::Rejected);
                };
                let token = token.clone();
                self.stage(if matches!(req, Request::Modify { .. }) {
                    ServeOp::Modify { row, attr, token }
                } else {
                    ServeOp::ResolveNull { row, attr, token }
                })
            }
        }
    }

    /// The session's final publish on `shutdown`.
    pub fn close(&mut self) -> Result<Reply, String> {
        let epoch = self.writer.publish().map_err(|e| e.to_string())?;
        Ok(Reply::Closed {
            seq: epoch.seq(),
            ops: epoch.ops_applied(),
        })
    }

    /// The recorder's deterministic counters and gauges, which the
    /// server's `metrics json` must match.
    pub fn deterministic_pairs(&self) -> Vec<(&'static str, u64)> {
        self.rec.snapshot().deterministic_pairs()
    }

    /// Journal syncs timed by the recorder since it was installed:
    /// (count, total nanoseconds).
    pub fn sync_nanos(&self) -> (u64, u64) {
        let snapshot = self.rec.snapshot();
        let hist = snapshot.hist(Hist::JournalSyncNanos);
        (hist.count, hist.sum)
    }

    fn journal_len(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    fn row_at(&mut self, pos: usize) -> Option<RowId> {
        let t = Instant::now();
        let row = self.writer.db().instance().row_ids().nth(pos - 1);
        self.layers.push("cli.row_resolve_ms", ms(t));
        row
    }

    fn stage(&mut self, op: ServeOp) -> Result<Reply, String> {
        if self.trace && !matches!(op, ServeOp::Delete(_)) {
            // Enforcement re-run on the pre-op state, one row or cell
            // away from the candidate the writer checks.
            let db = self.writer.db();
            let t = Instant::now();
            std::hint::black_box(weakly_satisfiable_via_chase(db.fds(), db.instance()));
            self.layers.push("core.enforce_ms", ms(t));
        }
        let t = Instant::now();
        let staged = self.writer.stage(&op).map_err(|e| e.to_string())?;
        self.layers.push("serve.stage_ms", ms(t));
        match staged {
            Staged::Rejected(_) => {
                self.layers.writes_rejected += 1;
                return Ok(Reply::Rejected);
            }
            Staged::Applied(outcome) => {
                self.layers.writes_propagated += u64::from(!outcome.propagated.is_empty());
                if self.trace {
                    let db = self.writer.db();
                    let t = Instant::now();
                    std::hint::black_box(chase_plain(db.instance(), db.fds()));
                    self.layers.push("core.propagate_ms", ms(t));
                }
            }
            Staged::Compacted(_) => {}
        }
        self.layers.writes_accepted += 1;
        let published = self
            .writer
            .published_log()
            .last()
            .map_or(0, |s| s.ops_applied);
        Ok(Reply::Staged {
            pending: self.writer.ops_applied() - published,
        })
    }

    fn commit(&mut self) -> Result<Reply, String> {
        let bytes = self.journal_len();
        let publish_nanos = self.rec.snapshot().hist(Hist::PublishNanos).sum;
        let t = Instant::now();
        let epoch = self.writer.publish().map_err(|e| e.to_string())?;
        let publish_ms = ms(t);
        let publish_nanos = self.rec.snapshot().hist(Hist::PublishNanos).sum - publish_nanos;
        self.layers.push("serve.publish_ms", publish_ms);
        self.layers.push(
            "serve.epoch_build_ms",
            publish_ms - publish_nanos as f64 / 1e6,
        );
        self.layers.commit_bytes += self.journal_len() - bytes;
        self.layers.commits += 1;
        Ok(Reply::Published {
            seq: epoch.seq(),
            ops: epoch.ops_applied(),
        })
    }

    /// `Reader::snapshot`, `Query::eq_text`, `Epoch::compiled` and
    /// `CompiledQuery::select_par_stats` — the steps of the session's
    /// `Epoch::select_recorded` — then the session's positional render.
    fn select(&mut self, attr: &str, value: &str) -> Reply {
        let t = Instant::now();
        let epoch = self.reader.snapshot();
        self.layers.push("serve.snapshot_acquire_us", us(t));
        let instance = epoch.db().instance();
        let t = Instant::now();
        let query = match Query::eq_text(instance, attr, value) {
            Ok(query) => query,
            Err(e) => return Reply::Error(e.to_string()),
        };
        self.layers.push("core.query_build_us", us(t));
        let cached = epoch.plan_cache_len();
        let t = Instant::now();
        let plan = epoch.compiled(&query);
        self.layers.push("serve.plan_lookup_us", us(t));
        if epoch.plan_cache_len() == cached {
            self.layers.plan_hits += 1;
        } else {
            self.layers.plan_misses += 1;
        }
        let exec = Executor::from_env();
        let t = Instant::now();
        let (selection, memo) = match plan.select_par_stats(instance, &exec) {
            Ok(answer) => answer,
            Err(e) => return Reply::Error(e.to_string()),
        };
        self.layers.push("core.eval_ms", ms(t));
        let live = instance.len() as u64;
        self.layers.memo_hits += memo.hits;
        self.layers.memo_misses += memo.misses;
        self.layers.classical_rows += live.saturating_sub(memo.hits + memo.misses);
        self.layers.rows_evaluated += live;
        let t = Instant::now();
        let positions = |rows: &[RowId]| -> Vec<usize> {
            rows.iter()
                .map(|&row| {
                    instance
                        .row_ids()
                        .position(|id| id == row)
                        .map_or(0, |p| p + 1)
                })
                .collect()
        };
        let (sure, maybe) = (positions(&selection.sure), positions(&selection.maybe));
        self.layers.push("relation.position_scan_ms", ms(t));
        self.layers
            .push("core.answer_rows_p50", (sure.len() + maybe.len()) as f64);
        Reply::Selection {
            sure,
            maybe,
            epoch: epoch.seq(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Script, Workload};

    /// Both sides in-process: two replays of the same script, each from
    /// its own copy of the description and its own journal, agree on
    /// every reply (fingerprints included) and every deterministic
    /// counter, and no request fails.
    #[test]
    fn two_replays_of_every_workload_agree() {
        let dir = std::env::temp_dir().join(format!("bench_e2e-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for workload in Workload::ALL {
            let (desc, script) = Script::generate(workload, 5, 200);
            let requests: Vec<Request> = script.take(400).collect();
            let name = workload.name();
            let mut a = Replay::open(&desc, &dir.join(format!("{name}-a.log")), true).unwrap();
            let mut b = Replay::open(&desc, &dir.join(format!("{name}-b.log")), false).unwrap();
            let mut pings = 0;
            for req in &requests {
                let (ra, rb) = (a.apply(req).unwrap(), b.apply(req).unwrap());
                assert!(!ra.is_failure(), "{name}: {} -> {ra:?}", req.line());
                assert_eq!(ra, rb, "{name}: {}", req.line());
                pings += usize::from(matches!(ra, Reply::Epoch { .. }));
            }
            assert_eq!(pings, 400 / 16);
            assert_eq!(a.close().unwrap(), b.close().unwrap());
            assert_eq!(a.deterministic_pairs(), b.deterministic_pairs());
            assert!(
                a.layers.writes_accepted > 0 && a.layers.commits > 0,
                "{name}"
            );
            for series in ["core.enforce_ms", "core.propagate_ms", "serve.publish_ms"] {
                assert!(a.layers.series.contains_key(series), "{name}: {series}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn planted_conflicts_are_rejected_and_propagation_fires() {
        let dir = std::env::temp_dir().join(format!("bench_e2e-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (desc, script) = Script::generate(Workload::Ingest, 9, 2000);
        let mut replay = Replay::open(&desc, &dir.join("j.log"), false).unwrap();
        for req in script.take(800) {
            replay.apply(&req).unwrap();
        }
        let layers = &replay.layers;
        let writes = layers.writes_accepted + layers.writes_rejected;
        assert!(layers.writes_rejected * 100 > writes * 3, "{layers:?}");
        assert!(layers.writes_propagated * 100 > writes * 3, "{layers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
