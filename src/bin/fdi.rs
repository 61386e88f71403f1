//! `fdi` — a command-line front end for fd-incomplete.
//!
//! Reads a database description file with three `%`-marked sections —
//! schema, dependencies, instance — and answers the paper's questions
//! about it:
//!
//! ```text
//! %schema
//! relation Staff
//! attr emp  ada bob cyd
//! attr dept sales eng
//! attr mgr  mia noa
//!
//! %fds
//! emp -> dept
//! dept -> mgr
//!
//! %instance
//! ada sales mia
//! bob -     mia
//! ```
//!
//! Analysis commands take a description file:
//! `fdi <report|strong|weak|chase|chase-extended|keys|normalize|exhaustion> <file>`.
//!
//! `fdi semantics <file-or-journal>` runs the differential TEST-FDs
//! comparison (`fdi_core::semantics::compare`) across every registered
//! null-comparison convention — strong, null-marker, weak, NFD — and
//! prints per-convention verdicts, per-FD canonical least-pair
//! witnesses, and the pairwise agree/disagree matrix. The path is
//! parsed as a description file first and recovered as an op journal
//! otherwise.
//!
//! Durability commands work a write-ahead op journal (see `fdi-store`):
//!
//! * `fdi journal-apply <journal> <ops-file> [desc-file]` — create the
//!   journal from the description (first run) or recover it, then apply
//!   the ops file: one op per line, `insert <tok>…`, `delete <row>`,
//!   `modify <row> <attr> <token>`, `resolve <row> <attr> <token>`,
//!   `compact`, with 1-based display-order row numbers. Rejected ops
//!   are reported and skipped; accepted ops are durable on exit.
//! * `fdi recover <journal>` — replay the journal and print the
//!   recovered table (truncating a torn tail; corruption is a hard
//!   error naming the byte offset).
//! * `fdi checkpoint <journal>` — recover, then atomically collapse the
//!   journal into a fresh snapshot, bounding future replay time.
//! * `fdi serve <journal> [desc-file] [--batch N] [--tcp ADDR]` — an
//!   interactive epoch-split serving session (see `fdi-serve`): the
//!   mutation verbs above **stage** against the writer's private
//!   successor state, `commit` group-commits and publishes the next
//!   epoch, and `table` / `select <attr> <value>` / `epoch` read the
//!   *published* snapshot — staged ops are invisible until committed.
//!   `quit` (or EOF) publishes pending work and ends the session;
//!   with `--tcp`, clients connect in turn (a dropped client or failed
//!   accept does not stop the server) and `shutdown` stops it.
//!   `--batch N` sets the group-commit width (default 64). The
//!   `metrics` command (`metrics json` for JSON) renders the session's
//!   live `fdi-obs` snapshot — epoch gauges, publish counters, journal
//!   sync counters, plan-cache/memo traffic — in the stable exposition
//!   format.
//! * `fdi stats <journal> [--json]` — recover the journal with a live
//!   recorder and print the observability snapshot of recovery plus a
//!   recorded TEST-FDs sweep (both conventions) over the recovered
//!   state: replayed-op and torn-tail counters, chase work if
//!   enforcement chased, TEST-FD row-scan tallies.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, corrupt journal,
//! unsatisfiable description), `2` usage or input-parse error.

use fd_incomplete::core::interp::DEFAULT_BUDGET;
use fd_incomplete::core::query::Query;
use fd_incomplete::core::semantics::{self, SemanticsKind};
use fd_incomplete::core::update::{Database, Policy};
use fd_incomplete::core::{armstrong, chase, normalize, satisfy, subst, testfd};
use fd_incomplete::obs::Recorder;
use fd_incomplete::prelude::*;
use fd_incomplete::relation::rowid::RowId;
use fd_incomplete::serve::{self, ServeOp, Staged};
use fd_incomplete::store::{
    FileStorage, Journal, JournaledDatabase, JournaledError, Storage, SyncPolicy,
};
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure, split by exit code: parse/usage problems exit `2`,
/// runtime failures exit `1`.
#[derive(Debug)]
enum CliError {
    /// Malformed user input (description, ops file, unknown command).
    Parse(String),
    /// A well-formed request that failed (I/O, corrupt journal, …).
    Runtime(String),
}

impl CliError {
    fn parse(msg: impl Into<String>) -> CliError {
        CliError::Parse(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }
}

/// A parsed database description file.
struct Description {
    schema: Arc<Schema>,
    fds: FdSet,
    instance: Instance,
}

fn parse_description(text: &str) -> Result<Description, String> {
    let mut section = String::new();
    let mut relation_name = "R".to_string();
    let mut attrs: Vec<(String, Vec<String>)> = Vec::new();
    let mut fd_lines: Vec<String> = Vec::new();
    let mut instance_lines: Vec<String> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('%') {
            section = name.trim().to_lowercase();
            continue;
        }
        match section.as_str() {
            "schema" => {
                let mut words = line.split_whitespace();
                match words.next() {
                    Some("relation") => {
                        relation_name = words
                            .next()
                            .ok_or_else(|| format!("line {}: relation needs a name", lineno + 1))?
                            .to_string();
                    }
                    Some("attr") => {
                        let name = words
                            .next()
                            .ok_or_else(|| format!("line {}: attr needs a name", lineno + 1))?
                            .to_string();
                        let values: Vec<String> = words.map(str::to_string).collect();
                        attrs.push((name, values));
                    }
                    other => {
                        return Err(format!(
                            "line {}: expected 'relation' or 'attr', found {other:?}",
                            lineno + 1
                        ))
                    }
                }
            }
            "fds" => fd_lines.push(line.to_string()),
            "instance" => instance_lines.push(line.to_string()),
            other => {
                return Err(format!(
                    "line {}: content before a %section (or unknown section {other:?})",
                    lineno + 1
                ))
            }
        }
    }
    if attrs.is_empty() {
        return Err("no attributes declared in %schema".to_string());
    }
    let mut builder = Schema::builder(relation_name);
    for (name, values) in attrs {
        builder = if values.is_empty() {
            builder.attribute_unbounded(name)
        } else {
            builder.attribute(name, values)
        };
    }
    let schema = builder.build().map_err(|e| e.to_string())?;
    let fds = FdSet::parse(&schema, &fd_lines.join("\n")).map_err(|e| e.to_string())?;
    let instance =
        Instance::parse(schema.clone(), &instance_lines.join("\n")).map_err(|e| e.to_string())?;
    Ok(Description {
        schema,
        fds,
        instance,
    })
}

fn run(command: &str, desc: &Description) -> Result<(), CliError> {
    let Description {
        schema,
        fds,
        instance,
    } = desc;
    match command {
        "report" => {
            println!("{}", instance.render(true));
            let report = satisfy::report(fds, instance, DEFAULT_BUDGET)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            println!("{}", satisfy::render_report(&report, fds, instance));
        }
        "strong" => match testfd::check_strong(instance, fds) {
            Ok(()) => println!("strongly satisfied"),
            Err(v) => println!("NOT strongly satisfied: {v}"),
        },
        "weak" => {
            if chase::weakly_satisfiable_via_chase(fds, instance) {
                println!("weakly satisfiable (some completion obeys every dependency)");
            } else {
                println!("NOT weakly satisfiable (every completion violates the dependencies)");
            }
        }
        "chase" => {
            let result = chase::chase_plain(instance, fds);
            for event in &result.events {
                println!("applied: {event}");
            }
            println!("{}", result.instance.render(true));
            println!(
                "minimally incomplete after {} passes, {} events",
                result.passes,
                result.events.len()
            );
        }
        "chase-extended" => {
            // The extended closure is order-insensitive (Theorem 4a),
            // so the FDI_THREADS-sized parallel engine is safe here —
            // same canonical result at every thread count.
            let outcome = chase::extended_chase(
                instance,
                fds,
                &fdi_exec::Executor::from_env(),
                &Recorder::noop(),
            );
            println!("{}", outcome.instance.render(true));
            if outcome.has_nothing() {
                println!(
                    "{} nothing class(es): the dependencies are contradicted (Theorem 4b)",
                    outcome.nothing_classes
                );
            } else {
                println!("no nothing values: weakly satisfiable (Theorem 4b)");
            }
        }
        "keys" => {
            let all = AttrSet::first_n(schema.arity());
            for key in armstrong::candidate_keys(all, fds) {
                println!("key: {}", schema.render_attrs(key));
            }
        }
        "normalize" => {
            let all = AttrSet::first_n(schema.arity());
            println!("BCNF: {}", normalize::is_bcnf(fds, all));
            let d = normalize::bcnf_decompose(fds, all);
            for c in &d {
                println!("component: {}", schema.render_attrs(*c));
            }
            println!("lossless: {}", normalize::is_lossless(fds, all, &d));
            println!(
                "dependency preserving: {}",
                normalize::preserves_dependencies(fds, &d)
            );
        }
        "exhaustion" => {
            let sites = subst::detect_domain_exhaustion(fds, instance)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if sites.is_empty() {
                println!("no [F2] domain-exhaustion sites: the weak pipelines are exact here");
            } else {
                for s in sites {
                    // displayed row numbers are 1-based positions in the
                    // printed table, not raw slot ids
                    let pos = instance
                        .row_ids()
                        .position(|id| id == s.row)
                        .ok_or_else(|| {
                            CliError::runtime(format!(
                                "internal inconsistency: [F2] site names {} (fd #{}), \
                                 which is not a live row of this instance",
                                s.row,
                                s.fd_index + 1
                            ))
                        })?;
                    println!("[F2] at row {} under fd #{}", pos + 1, s.fd_index + 1);
                }
            }
        }
        other => {
            return Err(CliError::parse(format!(
                "unknown command {other:?} (try: report, strong, weak, chase, chase-extended, \
                 keys, normalize, exhaustion, journal-apply, recover, checkpoint, stats, serve)"
            )))
        }
    }
    Ok(())
}

/// One line of a `journal-apply` ops file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpLine {
    Insert(Vec<String>),
    Delete(usize),
    Modify {
        pos: usize,
        attr: String,
        token: String,
    },
    Resolve {
        pos: usize,
        attr: String,
        token: String,
    },
    Compact,
}

/// Parses an ops file: one op per non-empty, non-`#` line. Row numbers
/// are 1-based positions in display order at application time.
fn parse_ops(text: &str) -> Result<Vec<OpLine>, String> {
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or_default();
        let parse_pos = |w: Option<&str>| -> Result<usize, String> {
            let text = w.ok_or_else(|| format!("line {}: missing row number", lineno + 1))?;
            let pos: usize = text
                .parse()
                .map_err(|_| format!("line {}: bad row number {text:?}", lineno + 1))?;
            if pos == 0 {
                return Err(format!("line {}: row numbers are 1-based", lineno + 1));
            }
            Ok(pos)
        };
        let op = match verb {
            "insert" => {
                let tokens: Vec<String> = words.map(str::to_string).collect();
                if tokens.is_empty() {
                    return Err(format!("line {}: insert needs tokens", lineno + 1));
                }
                OpLine::Insert(tokens)
            }
            "delete" => {
                let pos = parse_pos(words.next())?;
                if words.next().is_some() {
                    return Err(format!("line {}: trailing tokens", lineno + 1));
                }
                OpLine::Delete(pos)
            }
            "modify" | "resolve" => {
                let pos = parse_pos(words.next())?;
                let attr = words
                    .next()
                    .ok_or_else(|| format!("line {}: missing attribute name", lineno + 1))?
                    .to_string();
                let token = words
                    .next()
                    .ok_or_else(|| format!("line {}: missing value token", lineno + 1))?
                    .to_string();
                if verb == "modify" {
                    OpLine::Modify { pos, attr, token }
                } else {
                    OpLine::Resolve { pos, attr, token }
                }
            }
            "compact" => {
                if words.next().is_some() {
                    return Err(format!("line {}: trailing tokens", lineno + 1));
                }
                OpLine::Compact
            }
            other => {
                return Err(format!(
                    "line {}: unknown op {other:?} (insert, delete, modify, resolve, compact)",
                    lineno + 1
                ))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Opens the journal at `path`: recovers it if it holds bytes,
/// otherwise creates it from the description file (required on first
/// use). Reports what recovery did.
fn open_journal(
    path: &str,
    desc_path: Option<&str>,
) -> Result<(Database, Journal<FileStorage>), CliError> {
    let storage = FileStorage::open(path)
        .map_err(|e| CliError::runtime(format!("cannot open journal {path}: {e}")))?;
    if storage.is_empty() {
        let desc_path = desc_path.ok_or_else(|| {
            CliError::parse(format!(
                "journal {path} is empty: a description file is required to create it"
            ))
        })?;
        let text = std::fs::read_to_string(desc_path)
            .map_err(|e| CliError::runtime(format!("cannot read {desc_path}: {e}")))?;
        let desc = parse_description(&text).map_err(CliError::Parse)?;
        let db = Database::new(desc.instance, desc.fds, Policy::default()).map_err(|e| {
            CliError::runtime(format!("description is not a valid starting database: {e}"))
        })?;
        let journal = Journal::create(storage, &db)
            .map_err(|e| CliError::runtime(format!("cannot create journal {path}: {e}")))?;
        println!("created journal {path} from {desc_path}");
        Ok((db, journal))
    } else {
        let recovered = Journal::recover(storage)
            .map_err(|e| CliError::runtime(format!("cannot recover journal {path}: {e}")))?;
        if let Some(torn) = recovered.torn {
            println!(
                "truncated a torn tail at byte {} ({} bytes dropped)",
                torn.offset, torn.dropped
            );
        }
        println!("recovered {path}: {} op(s) replayed", recovered.ops.len());
        Ok((recovered.db, recovered.journal))
    }
}

/// The 1-based display-order row → RowId mapping of the live instance.
fn row_at(db: &Database, pos: usize) -> Option<RowId> {
    db.instance().row_ids().nth(pos - 1)
}

/// Applies parsed ops to a journaled database. Database rejections are
/// reported and skipped (the journal records accepted history only);
/// journal failures abort.
fn apply_ops(
    jdb: &mut JournaledDatabase<FileStorage>,
    ops: &[OpLine],
) -> Result<(usize, usize), CliError> {
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut reject = |line: usize, msg: String| {
        println!("op {line}: rejected: {msg}");
        rejected += 1;
    };
    for (i, op) in ops.iter().enumerate() {
        let line = i + 1;
        let attr_of = |jdb: &JournaledDatabase<FileStorage>, name: &str| {
            jdb.db().instance().schema().attr_id(name)
        };
        let outcome = match op {
            OpLine::Insert(tokens) => {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                jdb.insert(&refs).map(|_| ())
            }
            OpLine::Delete(pos) => match row_at(jdb.db(), *pos) {
                Some(row) => jdb.delete(row).map(|_| ()),
                None => {
                    reject(line, format!("no row {pos}"));
                    continue;
                }
            },
            OpLine::Modify { pos, attr, token } | OpLine::Resolve { pos, attr, token } => {
                let row = match row_at(jdb.db(), *pos) {
                    Some(row) => row,
                    None => {
                        reject(line, format!("no row {pos}"));
                        continue;
                    }
                };
                let attr = match attr_of(jdb, attr) {
                    Ok(a) => a,
                    Err(e) => {
                        reject(line, e.to_string());
                        continue;
                    }
                };
                if matches!(op, OpLine::Modify { .. }) {
                    jdb.modify(row, attr, token).map(|_| ())
                } else {
                    jdb.resolve_null(row, attr, token).map(|_| ())
                }
            }
            OpLine::Compact => jdb.compact().map(|_| ()),
        };
        match outcome {
            Ok(()) => accepted += 1,
            Err(JournaledError::Update(e)) => reject(line, e.to_string()),
            Err(e) => {
                return Err(CliError::runtime(format!(
                    "op {line}: journal failure, aborting: {e}"
                )))
            }
        }
    }
    Ok((accepted, rejected))
}

fn run_journal_apply(
    journal_path: &str,
    ops_path: &str,
    desc_path: Option<&str>,
) -> Result<(), CliError> {
    let ops_text = std::fs::read_to_string(ops_path)
        .map_err(|e| CliError::runtime(format!("cannot read {ops_path}: {e}")))?;
    let ops = parse_ops(&ops_text).map_err(CliError::Parse)?;
    let (db, journal) = open_journal(journal_path, desc_path)?;
    let mut jdb = JournaledDatabase::resume(db, journal, SyncPolicy::EveryOp);
    let (accepted, rejected) = apply_ops(&mut jdb, &ops)?;
    println!("{}", jdb.db().instance().render(true));
    println!("{accepted} op(s) applied and durable, {rejected} rejected");
    Ok(())
}

fn run_recover(journal_path: &str) -> Result<(), CliError> {
    let storage = FileStorage::open(journal_path)
        .map_err(|e| CliError::runtime(format!("cannot open journal {journal_path}: {e}")))?;
    let recovered = Journal::recover(storage)
        .map_err(|e| CliError::runtime(format!("cannot recover journal {journal_path}: {e}")))?;
    println!("{}", recovered.db.instance().render(true));
    match recovered.torn {
        Some(torn) => println!(
            "recovered {} op(s); truncated a torn tail at byte {} ({} bytes dropped)",
            recovered.ops.len(),
            torn.offset,
            torn.dropped
        ),
        None => println!("recovered {} op(s); journal is clean", recovered.ops.len()),
    }
    Ok(())
}

fn run_checkpoint(journal_path: &str) -> Result<(), CliError> {
    let (db, mut journal) = open_journal(journal_path, None)?;
    journal
        .checkpoint(&db)
        .map_err(|e| CliError::runtime(format!("checkpoint failed (journal unchanged): {e}")))?;
    println!(
        "checkpointed {journal_path}: {} live row(s) snapshotted, replay log cleared",
        db.instance().len()
    );
    Ok(())
}

/// The `stats` verb's payload: recovers the journal under a live
/// recorder, then runs a recorded TEST-FDs sweep over the recovered
/// state — one check per registered null-comparison semantics, in
/// lattice order — and renders the resulting snapshot (the
/// per-semantics tallies land on the labelled `testfd_checks`
/// counters).
fn stats_report(journal_path: &str, json: bool) -> Result<String, CliError> {
    let storage = FileStorage::open(journal_path)
        .map_err(|e| CliError::runtime(format!("cannot open journal {journal_path}: {e}")))?;
    if storage.is_empty() {
        return Err(CliError::runtime(format!(
            "journal {journal_path} is empty: nothing to report"
        )));
    }
    let rec = Recorder::enabled();
    let recovered = Journal::recover_with(storage, &rec)
        .map_err(|e| CliError::runtime(format!("cannot recover journal {journal_path}: {e}")))?;
    let db = recovered.db;
    // A recorded satisfiability sweep over the recovered state: the
    // verdicts are in the journal's history already, so only the
    // tallies (checks, rows scanned, fallback hits) are of interest.
    let exec = fdi_exec::Executor::with_threads(1);
    for kind in SemanticsKind::ALL {
        let _ = testfd::check(db.instance(), db.fds(), kind, &exec, &rec);
    }
    let snap = rec.snapshot();
    Ok(if json {
        let mut text = snap.render_json();
        text.push('\n');
        text
    } else {
        snap.render_text()
    })
}

fn run_stats(journal_path: &str, json: bool) -> Result<(), CliError> {
    print!("{}", stats_report(journal_path, json)?);
    Ok(())
}

/// Opens an epoch-split serving pair over the journal at `path`:
/// recovers it if it holds bytes, otherwise creates it from the
/// description file (required on first use).
fn open_writer(
    path: &str,
    desc_path: Option<&str>,
    max_batch: usize,
) -> Result<(serve::Writer<FileStorage>, serve::Reader), CliError> {
    let storage = FileStorage::open(path)
        .map_err(|e| CliError::runtime(format!("cannot open journal {path}: {e}")))?;
    let cfg = ServeConfig {
        max_batch,
        checkpoint_every: None,
    };
    let exec = fdi_exec::Executor::from_env();
    if storage.is_empty() {
        let desc_path = desc_path.ok_or_else(|| {
            CliError::parse(format!(
                "journal {path} is empty: a description file is required to create it"
            ))
        })?;
        let text = std::fs::read_to_string(desc_path)
            .map_err(|e| CliError::runtime(format!("cannot read {desc_path}: {e}")))?;
        let desc = parse_description(&text).map_err(CliError::Parse)?;
        let db = Database::new(desc.instance, desc.fds, Policy::default()).map_err(|e| {
            CliError::runtime(format!("description is not a valid starting database: {e}"))
        })?;
        let pair = serve::Writer::create(db, storage, cfg, exec)
            .map_err(|e| CliError::runtime(format!("cannot create journal {path}: {e}")))?;
        println!("created journal {path} from {desc_path}");
        Ok(pair)
    } else {
        let pair = serve::Writer::recover(storage, cfg, exec)
            .map_err(|e| CliError::runtime(format!("cannot recover journal {path}: {e}")))?;
        println!("recovered {path}: {} op(s) replayed", pair.0.ops_applied());
        Ok(pair)
    }
}

/// Stages one parsed mutation line against the writer's successor
/// state, resolving 1-based display positions and attribute names
/// against that state (staged inserts are addressable immediately).
fn stage_op_line<S: Storage, W: IoWrite>(
    writer: &mut serve::Writer<S>,
    op: &OpLine,
    out: &mut W,
) -> Result<(), CliError> {
    let resolve_row = |writer: &serve::Writer<S>, pos: usize| row_at(writer.db(), pos);
    let resolve_attr =
        |writer: &serve::Writer<S>, name: &str| writer.db().instance().schema().attr_id(name);
    let serve_op = match op {
        OpLine::Insert(tokens) => ServeOp::Insert(tokens.clone()),
        OpLine::Delete(pos) => match resolve_row(writer, *pos) {
            Some(row) => ServeOp::Delete(row),
            None => {
                writeln!(out, "rejected: no row {pos}").map_err(io_err)?;
                return Ok(());
            }
        },
        OpLine::Modify { pos, attr, token } | OpLine::Resolve { pos, attr, token } => {
            let Some(row) = resolve_row(writer, *pos) else {
                writeln!(out, "rejected: no row {pos}").map_err(io_err)?;
                return Ok(());
            };
            let attr = match resolve_attr(writer, attr) {
                Ok(a) => a,
                Err(e) => {
                    writeln!(out, "rejected: {e}").map_err(io_err)?;
                    return Ok(());
                }
            };
            if matches!(op, OpLine::Modify { .. }) {
                ServeOp::Modify {
                    row,
                    attr,
                    token: token.clone(),
                }
            } else {
                ServeOp::ResolveNull {
                    row,
                    attr,
                    token: token.clone(),
                }
            }
        }
        OpLine::Compact => ServeOp::Compact,
    };
    match writer
        .stage(&serve_op)
        .map_err(|e| CliError::runtime(format!("journal failure, aborting: {e}")))?
    {
        Staged::Applied(_) | Staged::Compacted(_) => {
            writeln!(
                out,
                "staged ({} op(s) await commit)",
                writer.ops_applied() - writer.published_log().last().map_or(0, |s| s.ops_applied)
            )
            .map_err(io_err)?;
        }
        Staged::Rejected(e) => writeln!(out, "rejected: {e}").map_err(io_err)?,
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::runtime(format!("i/o error: {e}"))
}

/// One interactive serving session over any line stream: mutations
/// stage, `commit` publishes, reads (`table`, `select`, `epoch`,
/// `metrics`) see only the published snapshot (except `metrics`, which
/// renders the live recorder). Returns `true` if the client asked the
/// whole server to shut down (`shutdown`); `quit` or EOF ends just this
/// session, publishing any pending staged work first (durable before
/// the prompt closes).
fn serve_session<S: Storage, R: BufRead, W: IoWrite>(
    writer: &mut serve::Writer<S>,
    reader: &serve::Reader,
    rec: &Recorder,
    input: R,
    out: &mut W,
) -> Result<bool, CliError> {
    let hello = reader.snapshot();
    writeln!(
        out,
        "serving epoch {} ({} row(s)); verbs: insert delete modify resolve compact \
         commit table select semantics epoch metrics quit shutdown",
        hello.seq(),
        hello.db().instance().len()
    )
    .map_err(io_err)?;
    let exec = fdi_exec::Executor::from_env();
    let mut shutdown = false;
    for line in input.lines() {
        let line = line.map_err(io_err)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next().unwrap_or_default() {
            "quit" => break,
            "shutdown" => {
                shutdown = true;
                break;
            }
            "commit" => {
                let epoch = writer
                    .publish()
                    .map_err(|e| CliError::runtime(format!("publish failed: {e}")))?;
                writeln!(
                    out,
                    "published epoch {} ({} op(s) applied, durable)",
                    epoch.seq(),
                    epoch.ops_applied()
                )
                .map_err(io_err)?;
            }
            "epoch" => {
                let epoch = reader.snapshot();
                writeln!(
                    out,
                    "epoch {} ({} op(s) applied, fingerprint {:016x})",
                    epoch.seq(),
                    epoch.ops_applied(),
                    epoch.fingerprint()
                )
                .map_err(io_err)?;
            }
            "table" => {
                let epoch = reader.snapshot();
                writeln!(out, "{}", epoch.db().instance().render(true)).map_err(io_err)?;
            }
            "semantics" => {
                let epoch = reader.snapshot();
                let db = epoch.db();
                let cmp = semantics::compare(db.instance(), db.fds());
                write!(
                    out,
                    "{}",
                    semantics::render_comparison(&cmp, db.fds(), db.instance())
                )
                .map_err(io_err)?;
            }
            "metrics" => {
                let snap = rec.snapshot();
                match (words.next(), words.next()) {
                    (None, _) => write!(out, "{}", snap.render_text()).map_err(io_err)?,
                    (Some("json"), None) => {
                        writeln!(out, "{}", snap.render_json()).map_err(io_err)?
                    }
                    _ => writeln!(out, "error: usage is `metrics [json]`").map_err(io_err)?,
                }
            }
            "select" => {
                let (Some(attr), Some(value), None) = (words.next(), words.next(), words.next())
                else {
                    writeln!(out, "error: usage is `select <attr> <value>`").map_err(io_err)?;
                    continue;
                };
                let epoch = reader.snapshot();
                match Query::eq_text(epoch.db().instance(), attr, value) {
                    Err(e) => writeln!(out, "error: {e}").map_err(io_err)?,
                    Ok(query) => {
                        let selection = match epoch.select(&query, &exec, rec) {
                            Ok(selection) => selection,
                            // An evaluation error answers this request only.
                            Err(e) => {
                                writeln!(out, "error: {e}").map_err(io_err)?;
                                continue;
                            }
                        };
                        let position = |row: RowId| {
                            epoch
                                .db()
                                .instance()
                                .row_ids()
                                .position(|id| id == row)
                                .map_or_else(|| "?".to_string(), |p| (p + 1).to_string())
                        };
                        let render = |rows: &[RowId]| {
                            rows.iter()
                                .map(|&r| position(r))
                                .collect::<Vec<_>>()
                                .join(" ")
                        };
                        writeln!(
                            out,
                            "sure: [{}]  maybe: [{}]  (epoch {})",
                            render(&selection.sure),
                            render(&selection.maybe),
                            epoch.seq()
                        )
                        .map_err(io_err)?;
                    }
                }
            }
            _ => match parse_ops(line) {
                Err(e) => writeln!(out, "error: {e}").map_err(io_err)?,
                Ok(ops) => {
                    for op in &ops {
                        stage_op_line(writer, op, out)?;
                    }
                }
            },
        }
    }
    // durable before the prompt closes: publish whatever is staged
    let epoch = writer
        .publish()
        .map_err(|e| CliError::runtime(format!("final publish failed: {e}")))?;
    writeln!(
        out,
        "session closed at epoch {} ({} op(s) durable)",
        epoch.seq(),
        epoch.ops_applied()
    )
    .map_err(io_err)?;
    Ok(shutdown)
}

/// Serves TCP clients one at a time over the shared writer (readers of
/// the published epoch are cheap; the single writer is the serializing
/// resource). A client's `shutdown` stops the listener. Per-client
/// failures — a refused accept, a connection dropped mid-session — are
/// reported and survived: the server stays up for the next connection,
/// and any work the dropped client staged-but-did-not-commit simply
/// rides along until the next publish. Only non-I/O runtime failures
/// (journal corruption, publish errors) stop the server.
fn serve_tcp<S: Storage>(
    listener: TcpListener,
    writer: &mut serve::Writer<S>,
    reader: &serve::Reader,
    rec: &Recorder,
) -> Result<(), CliError> {
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                println!("accept failed ({e}); still listening");
                continue;
            }
        };
        let input = match stream.try_clone() {
            Ok(half) => BufReader::new(half),
            Err(e) => {
                println!("client dropped at connect ({e}); still listening");
                continue;
            }
        };
        let mut out = stream;
        match serve_session(writer, reader, rec, input, &mut out) {
            Ok(true) => break,
            Ok(false) => {}
            Err(CliError::Runtime(msg)) if msg.starts_with("i/o error:") => {
                println!("client dropped mid-session ({msg}); still listening");
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut max_batch = 64usize;
    let mut tcp: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batch" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::parse("--batch needs a count"))?;
                max_batch = value
                    .parse()
                    .map_err(|_| CliError::parse(format!("bad --batch count {value:?}")))?;
            }
            "--tcp" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::parse("--tcp needs an address"))?;
                tcp = Some(value.clone());
            }
            other => positional.push(other),
        }
    }
    let (journal_path, desc_path) = match positional.as_slice() {
        [journal] => (*journal, None),
        [journal, desc] => (*journal, Some(*desc)),
        _ => return Err(CliError::parse(USAGE)),
    };
    let (mut writer, mut reader) = open_writer(journal_path, desc_path, max_batch)?;
    // One live recorder for the whole serving process: the writer's
    // publish/journal metrics, the reader's snapshot metrics, and the
    // query-path metrics of every `select` all land in the same sink,
    // which the `metrics` command renders.
    let rec = Recorder::enabled();
    writer.set_recorder(rec.clone());
    reader.set_recorder(rec.clone());
    match tcp {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            serve_session(&mut writer, &reader, &rec, stdin.lock(), &mut stdout)?;
            Ok(())
        }
        Some(addr) => {
            let listener = TcpListener::bind(&addr)
                .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
            let local = listener.local_addr().map_err(io_err)?;
            println!("listening on {local}");
            serve_tcp(listener, &mut writer, &reader, &rec)
        }
    }
}

/// The `semantics` verb: differential TEST-FDs across every registered
/// null-comparison convention. The path is tried as a description file
/// first; if it does not parse as one, it is recovered as an op
/// journal, so the verb works on both input kinds.
fn run_semantics(path: &str) -> Result<(), CliError> {
    let (instance, fds) = match std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_description(&text).ok())
    {
        Some(desc) => (desc.instance, desc.fds),
        None => {
            let (db, _journal) = open_journal(path, None)?;
            (db.instance().clone(), db.fds().clone())
        }
    };
    let cmp = semantics::compare(&instance, &fds);
    print!("{}", semantics::render_comparison(&cmp, &fds, &instance));
    Ok(())
}

const USAGE: &str = "usage:\n  \
    fdi <report|strong|weak|chase|chase-extended|keys|normalize|exhaustion> <file>\n  \
    fdi semantics <file-or-journal>\n  \
    fdi journal-apply <journal> <ops-file> [desc-file]\n  \
    fdi recover <journal>\n  \
    fdi checkpoint <journal>\n  \
    fdi stats <journal> [--json]\n  \
    fdi serve <journal> [desc-file] [--batch N] [--tcp ADDR]";

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let command = args.first().map(String::as_str).unwrap_or_default();
    match (command, args.len()) {
        ("journal-apply", 3) => run_journal_apply(&args[1], &args[2], None),
        ("journal-apply", 4) => run_journal_apply(&args[1], &args[2], Some(&args[3])),
        ("recover", 2) => run_recover(&args[1]),
        ("checkpoint", 2) => run_checkpoint(&args[1]),
        ("stats", 2) => run_stats(&args[1], false),
        ("stats", 3) if args[2] == "--json" => run_stats(&args[1], true),
        ("semantics", 2) => run_semantics(&args[1]),
        ("serve", n) if n >= 2 => run_serve(&args[1..]),
        ("journal-apply" | "recover" | "checkpoint" | "stats" | "semantics" | "serve", _) => {
            Err(CliError::parse(USAGE))
        }
        (_, 2) => {
            let text = std::fs::read_to_string(&args[1])
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", args[1])))?;
            let desc = parse_description(&text)
                .map_err(|e| CliError::Parse(format!("parse error: {e}")))?;
            run(command, &desc)
        }
        _ => Err(CliError::parse(USAGE)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(1)
        }
        Err(CliError::Parse(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
%schema
relation Staff
attr emp ada bob cyd
attr dept sales eng
attr mgr mia noa

%fds
emp -> dept
dept -> mgr

%instance
ada sales mia
bob -     mia
cyd eng   -
";

    /// [`SAMPLE`] plus an unbounded column `C` holding a null: a query
    /// on `C` cannot be evaluated on bob's row.
    const UNBOUNDED_C: &str = "
%schema
relation Staff
attr emp ada bob cyd
attr dept sales eng
attr mgr mia noa
attr C

%fds
emp -> dept
dept -> mgr

%instance
ada sales mia c1
bob -     mia -
cyd eng   -   c2
";

    #[test]
    fn parses_the_sample() {
        let d = parse_description(SAMPLE).expect("parse");
        assert_eq!(d.schema.arity(), 3);
        assert_eq!(d.fds.len(), 2);
        assert_eq!(d.instance.len(), 3);
        assert_eq!(d.instance.null_count(), 2);
    }

    #[test]
    fn commands_run_on_the_sample() {
        let d = parse_description(SAMPLE).expect("parse");
        for cmd in [
            "report",
            "strong",
            "weak",
            "chase",
            "chase-extended",
            "keys",
            "normalize",
            "exhaustion",
        ] {
            run(cmd, &d).unwrap_or_else(|e| panic!("command {cmd}: {e:?}"));
        }
        assert!(matches!(run("bogus", &d), Err(CliError::Parse(_))));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(
            parse_description("attr A a1").is_err(),
            "content before section"
        );
        assert!(parse_description("%schema\nrelation").is_err());
        assert!(parse_description("%schema\nfoo A").is_err());
        assert!(
            parse_description("%schema\nrelation R").is_err(),
            "no attrs"
        );
        let bad_fd = "%schema\nattr A a1\n%fds\nA -> ZZ\n%instance\n";
        assert!(parse_description(bad_fd).is_err());
    }

    #[test]
    fn unbounded_attrs_via_empty_value_list() {
        let text = "%schema\nattr name\nattr status m s\n%fds\n%instance\nJohn m\n";
        let d = parse_description(text).expect("parse");
        assert_eq!(d.instance.len(), 1);
    }

    #[test]
    fn ops_files_parse_and_reject_garbage() {
        let ops = parse_ops(
            "# comment\ninsert ada sales mia\ndelete 2\nmodify 1 dept eng\n\
             resolve 3 mgr noa\ncompact\n",
        )
        .expect("parse");
        assert_eq!(ops.len(), 5);
        assert_eq!(
            ops[0],
            OpLine::Insert(vec!["ada".into(), "sales".into(), "mia".into()])
        );
        assert_eq!(ops[1], OpLine::Delete(2));
        assert_eq!(ops[4], OpLine::Compact);
        for bad in [
            "insert",
            "delete",
            "delete zero",
            "delete 0",
            "delete 1 extra",
            "modify 1 dept",
            "resolve 1",
            "teleport 3",
            "compact now",
        ] {
            assert!(parse_ops(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn usage_and_unknown_commands_are_parse_errors() {
        assert!(matches!(dispatch(&[]), Err(CliError::Parse(_))));
        assert!(matches!(
            dispatch(&["report".to_string()]),
            Err(CliError::Parse(_))
        ));
        assert!(matches!(
            dispatch(&["journal-apply".to_string(), "x".to_string()]),
            Err(CliError::Parse(_))
        ));
        // a missing description file is a runtime error, not a panic
        assert!(matches!(
            dispatch(&["report".to_string(), "/no/such/file".to_string()]),
            Err(CliError::Runtime(_))
        ));
    }

    /// End-to-end journal verbs over a real temp file: create + apply,
    /// reopen + apply more, checkpoint, recover.
    #[test]
    fn journal_verbs_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let desc = dir.join("db.fdi");
        let ops1 = dir.join("ops1.txt");
        let ops2 = dir.join("ops2.txt");
        let journal = dir.join("staff.journal");
        std::fs::write(&desc, SAMPLE).unwrap();
        // "delete 4" targets the just-inserted 4th display row; all
        // three ops keep the instance weakly satisfiable → accepted
        std::fs::write(&ops1, "insert cyd eng noa\ndelete 4\nmodify 1 mgr noa\n").unwrap();
        // resolve bob's dept to eng (sales would clash ada/noa vs mia);
        // "delete 99" is an out-of-range rejection exercised on purpose
        std::fs::write(&ops2, "resolve 2 dept eng\ncompact\ndelete 99\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();

        run_journal_apply(&jpath, ops1.to_str().unwrap(), Some(desc.to_str().unwrap()))
            .expect("create + first batch");
        run_journal_apply(&jpath, ops2.to_str().unwrap(), None).expect("reopen + second batch");

        let storage = FileStorage::open(&journal).unwrap();
        let recovered = Journal::recover(storage).expect("journal recovers");
        assert!(recovered.torn.is_none());
        assert!(
            recovered.ops.len() >= 4,
            "accepted ops from both batches are durable: {:?}",
            recovered.ops
        );
        assert_eq!(recovered.db.instance().len(), 3);

        run_checkpoint(&jpath).expect("checkpoint");
        let after = Journal::recover(FileStorage::open(&journal).unwrap()).unwrap();
        assert_eq!(after.ops.len(), 0, "checkpoint cleared the replay log");
        assert_eq!(
            after.db.instance().render(true),
            recovered.db.instance().render(true)
        );

        run_recover(&jpath).expect("recover verb");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_serving_pair() -> (
        serve::Writer<fd_incomplete::store::MemStorage>,
        serve::Reader,
    ) {
        serving_pair(SAMPLE)
    }

    fn serving_pair(
        desc: &str,
    ) -> (
        serve::Writer<fd_incomplete::store::MemStorage>,
        serve::Reader,
    ) {
        let d = parse_description(desc).expect("parse");
        let db = Database::new(d.instance, d.fds, Policy::default()).expect("valid base");
        serve::Writer::create(
            db,
            fd_incomplete::store::MemStorage::new(),
            ServeConfig {
                max_batch: 4,
                checkpoint_every: None,
            },
            fdi_exec::Executor::with_threads(1),
        )
        .expect("create serving pair")
    }

    /// A scripted in-memory serving session: staged ops are invisible
    /// to `table` until `commit`, rejections are reported inline, and
    /// the final publish makes pending work durable.
    #[test]
    fn serve_session_stages_commits_and_reads_snapshots() {
        let (mut writer, reader) = sample_serving_pair();
        let script = "insert cyd eng noa\n\
                      table\n\
                      commit\n\
                      table\n\
                      select dept eng\n\
                      epoch\n\
                      delete 99\n\
                      insert ada eng mia\n\
                      bogus-verb\n\
                      quit\n";
        let mut out = Vec::new();
        let shutdown = serve_session(
            &mut writer,
            &reader,
            &Recorder::noop(),
            std::io::Cursor::new(script),
            &mut out,
        )
        .expect("session runs");
        assert!(!shutdown, "quit must not request server shutdown");
        let text = String::from_utf8(out).unwrap();

        assert!(text.contains("staged (1 op(s) await commit)"), "{text}");
        assert!(
            text.contains("published epoch 1 (1 op(s) applied, durable)"),
            "{text}"
        );
        // the first `table` (pre-commit) must not show the staged row,
        // the second (post-commit) must
        let first_table = text.find("emp").expect("rendered table header");
        let pre = &text[first_table..text.find("published").unwrap()];
        assert_eq!(
            pre.matches("cyd").count(),
            1,
            "staged insert leaked to a reader: {text}"
        );
        let post = &text[text.find("published").unwrap()..];
        assert_eq!(
            post.matches("cyd").count(),
            2,
            "committed insert must be visible: {text}"
        );
        assert!(
            text.contains("sure: [3 4]"),
            "both eng rows answer `dept = eng`: {text}"
        );
        assert!(
            text.contains("epoch 1 (1 op(s) applied, fingerprint"),
            "{text}"
        );
        assert!(text.contains("rejected: no row 99"), "{text}");
        // `ada eng mia` violates emp -> dept against the committed base
        assert!(text.contains("rejected:"), "{text}");
        assert!(
            text.contains("error:"),
            "bogus verb must be reported: {text}"
        );
        assert!(text.contains("session closed at epoch 2"), "{text}");

        // the rejected insert staged nothing; the violating insert was
        // reported — final durable state has exactly the 4 rows
        assert_eq!(writer.db().instance().len(), 4);
        assert_eq!(reader.snapshot().seq(), 2);

        // A query that cannot be evaluated (a null on an unbounded
        // column) answers one `error:` line and the session goes on.
        let (mut writer, reader) = serving_pair(UNBOUNDED_C);
        let mut out = Vec::new();
        serve_session(
            &mut writer,
            &reader,
            &Recorder::noop(),
            std::io::Cursor::new("select C c1\nepoch\nquit\n"),
            &mut out,
        )
        .expect("an evaluation error must not end the session");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("error:").count(), 1, "{text}");
        assert!(
            text.contains("error: attribute C has an unbounded domain"),
            "{text}"
        );
        assert!(text.contains("epoch 0 (0 op(s) applied"), "{text}");
        assert!(text.contains("session closed at epoch 1"), "{text}");
    }

    /// The TCP front end over a real socket: two clients in turn, the
    /// second sees the first's committed work; `shutdown` stops the
    /// listener and the final state is durable in the journal.
    #[test]
    fn serve_tcp_round_trips_over_a_socket() {
        use std::io::{Read as _, Write as _};

        let (mut writer, reader) = sample_serving_pair();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_tcp(listener, &mut writer, &reader, &Recorder::noop()).expect("server runs");
            writer
        });

        let talk = |script: &str| -> String {
            let mut conn = std::net::TcpStream::connect(addr).expect("connect");
            conn.write_all(script.as_bytes()).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        };

        let first = talk("insert cyd eng noa\ncommit\nquit\n");
        assert!(first.contains("published epoch 1"), "{first}");
        let second = talk("table\nshutdown\n");
        assert_eq!(
            second.matches("cyd").count(),
            2,
            "second client must see committed work: {second}"
        );

        let writer = server.join().expect("server thread");
        assert_eq!(writer.db().instance().len(), 4);
        // every session published on close: 1 commit + 2 session closes
        assert_eq!(writer.seq(), 3);
    }

    /// Pulls `<name> <value>` out of an exposition rendering, where
    /// `name` includes the label set (e.g. `fdi_ops_applied{det="true"}`).
    fn metric_value(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| {
                line.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse().ok())
            })
            .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
    }

    /// The acceptance path for the observability layer: a serving
    /// session with a live recorder answers `metrics` with exposition
    /// output covering the epoch gauges, publish counters, journal sync
    /// counters, and plan-cache/memo query traffic — and `metrics json`
    /// with the JSON form.
    #[test]
    fn serve_session_metrics_exposes_live_counters() {
        let (mut writer, mut reader) = sample_serving_pair();
        let rec = Recorder::enabled();
        writer.set_recorder(rec.clone());
        reader.set_recorder(rec.clone());
        let script = "insert cyd eng noa\n\
                      commit\n\
                      select dept eng\n\
                      select dept eng\n\
                      metrics\n\
                      metrics json\n\
                      quit\n";
        let mut out = Vec::new();
        serve_session(
            &mut writer,
            &reader,
            &rec,
            std::io::Cursor::new(script),
            &mut out,
        )
        .expect("session runs");
        let text = String::from_utf8(out).unwrap();

        // epoch gauges + publish counter reflect the one explicit commit
        assert_eq!(metric_value(&text, "fdi_epoch_seq{det=\"true\"}"), 1);
        assert_eq!(metric_value(&text, "fdi_epochs_published{det=\"true\"}"), 1);
        assert_eq!(metric_value(&text, "fdi_ops_applied{det=\"true\"}"), 1);
        // the publish group-committed and synced the journal
        assert!(metric_value(&text, "fdi_journal_syncs{det=\"true\"}") >= 1);
        assert!(metric_value(&text, "fdi_journal_ops_committed{det=\"true\"}") >= 1);
        // two identical selects: one compile (miss), one plan-cache hit
        assert_eq!(metric_value(&text, "fdi_query_compiles{det=\"false\"}"), 1);
        assert_eq!(
            metric_value(&text, "fdi_plan_cache_misses{det=\"false\"}"),
            1
        );
        assert_eq!(metric_value(&text, "fdi_plan_cache_hits{det=\"false\"}"), 1);
        // bob's null dept consulted the NEC-signature memo; the
        // null-free rows took the classical fast path
        assert!(metric_value(&text, "fdi_memo_misses{det=\"false\"}") >= 1);
        assert!(metric_value(&text, "fdi_classical_rows{det=\"false\"}") >= 1);
        assert!(text.contains("fdi_memo_hits{det=\"false\"}"), "{text}");
        // the session reader records its snapshot traffic
        assert!(metric_value(&text, "fdi_snapshot_reads{det=\"false\"}") >= 1);
        // publish latency histogram has one observation
        assert_eq!(
            metric_value(&text, "fdi_publish_nanos_count{det=\"false\"}"),
            1
        );
        // JSON form rides the same snapshot
        assert!(text.contains("\"counters\":{"), "{text}");
        assert!(text.contains("\"epochs_published\":1"), "{text}");
        assert!(text.contains("\"epoch_published\""), "event ring: {text}");
        // the published epoch carries the frozen snapshot
        let epoch = reader.snapshot();
        assert_eq!(
            epoch
                .metrics()
                .counter(fd_incomplete::obs::Counter::EpochsPublished),
            2,
            "session-close publish froze its own publication into the epoch"
        );
    }

    /// Sequential reconnects with an abrupt client: the first client
    /// disconnects without `quit` (bare EOF) and its staged work is
    /// still published durably; more clients reconnect in turn and see
    /// it; per-client failures — a dropped connection, a query that
    /// cannot be evaluated — never stop the listener.
    #[test]
    fn serve_tcp_survives_eof_clients_across_reconnects() {
        use std::io::{Read as _, Write as _};

        let (mut writer, reader) = serving_pair(UNBOUNDED_C);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_tcp(listener, &mut writer, &reader, &Recorder::noop()).expect("server runs");
            writer
        });

        let talk = |script: &str| -> String {
            let mut conn = std::net::TcpStream::connect(addr).expect("connect");
            conn.write_all(script.as_bytes()).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        };

        // client 1 stages an insert and vanishes without `quit`: the
        // session's close path still publishes it durably
        let first = talk("insert cyd eng noa c3\n");
        assert!(first.contains("staged (1 op(s) await commit)"), "{first}");
        assert!(first.contains("session closed at epoch 1"), "{first}");
        // client 2 reconnects and sees the abandoned client's work
        let second = talk("table\nquit\n");
        assert_eq!(
            second.matches("cyd").count(),
            2,
            "reconnected client must see the EOF client's published work: {second}"
        );
        // client 3's query cannot be evaluated (bob's null on the
        // unbounded column C): one `error:` reply, and the session and
        // the server carry on
        let third = talk("select C c1\nepoch\nquit\n");
        assert_eq!(third.matches("error:").count(), 1, "{third}");
        assert!(third.contains("epoch 2 ("), "{third}");
        // client 4 reconnects once more and stops the server
        let fourth = talk("epoch\nshutdown\n");
        assert!(fourth.contains("epoch 3 ("), "{fourth}");

        let writer = server.join().expect("server thread");
        assert_eq!(writer.db().instance().len(), 4);
        assert_eq!(writer.seq(), 4, "four session-close publishes");
    }

    /// The serve-session `semantics` command renders the differential
    /// comparison of the published epoch: per-convention verdicts,
    /// per-FD witnesses, and the pairwise agree/disagree matrix. On the
    /// sample, bob's null dept trips `dept -> mgr` under the strong
    /// convention only, so strong disagrees with every optimistic
    /// convention.
    #[test]
    fn serve_session_semantics_compares_conventions() {
        let (mut writer, reader) = sample_serving_pair();
        let rec = Recorder::noop();
        let mut out = Vec::new();
        serve_session(
            &mut writer,
            &reader,
            &rec,
            std::io::Cursor::new("semantics\nquit\n"),
            &mut out,
        )
        .expect("session runs");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("semantics comparison: 3 rows, 2 fds"),
            "{text}"
        );
        assert!(text.contains("strong       violated at"), "{text}");
        assert!(text.contains("nfd          satisfied"), "{text}");
        assert!(text.contains("per-fd witnesses"), "{text}");
        assert!(
            text.contains("strong vs weak: DISAGREE (strong violated at"),
            "{text}"
        );
        assert!(text.contains("weak vs nfd: agree"), "{text}");
    }

    /// The `semantics` verb accepts both input kinds: a description
    /// file, and an op journal recovered from disk.
    #[test]
    fn semantics_verb_runs_on_descriptions_and_journals() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-semantics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let desc = dir.join("db.fdi");
        std::fs::write(&desc, SAMPLE).unwrap();
        run_semantics(desc.to_str().unwrap()).expect("description input");

        let ops = dir.join("ops.txt");
        let journal = dir.join("staff.journal");
        std::fs::write(&ops, "insert cyd eng noa\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();
        run_journal_apply(&jpath, ops.to_str().unwrap(), Some(desc.to_str().unwrap()))
            .expect("create + apply");
        run_semantics(&jpath).expect("journal input");

        assert!(matches!(
            dispatch(&["semantics".to_string()]),
            Err(CliError::Parse(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `stats` verb end to end: build a journal on disk, then
    /// recover it under a live recorder — replayed-op counts and the
    /// recorded TEST-FDs sweep show up in both renderings.
    #[test]
    fn stats_verb_reports_recovery_and_testfd_tallies() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let desc = dir.join("db.fdi");
        let ops = dir.join("ops.txt");
        let journal = dir.join("staff.journal");
        std::fs::write(&desc, SAMPLE).unwrap();
        std::fs::write(&ops, "insert cyd eng noa\ndelete 4\nmodify 1 mgr noa\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();
        run_journal_apply(&jpath, ops.to_str().unwrap(), Some(desc.to_str().unwrap()))
            .expect("create + apply");

        let text = stats_report(&jpath, false).expect("stats");
        assert_eq!(
            metric_value(&text, "fdi_recovery_replayed_ops{det=\"true\"}"),
            3
        );
        assert_eq!(
            metric_value(&text, "fdi_journal_torn_truncations{det=\"true\"}"),
            0
        );
        // one recorded sweep per registered semantics, each tallied on
        // its labelled per-convention counter as well as the total
        assert_eq!(metric_value(&text, "fdi_testfd_checks{det=\"true\"}"), 4);
        for sem in ["strong", "null-marker", "weak", "nfd"] {
            assert_eq!(
                metric_value(
                    &text,
                    &format!("fdi_testfd_checks{{det=\"true\",semantics=\"{sem}\"}}")
                ),
                1
            );
        }
        assert!(metric_value(&text, "fdi_testfd_rows_scanned{det=\"false\"}") >= 1);

        let json = stats_report(&jpath, true).expect("stats --json");
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"recovery_replayed_ops\":3"), "{json}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
