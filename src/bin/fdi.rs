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
//! witnesses, and the pairwise agree/disagree matrix. A file that
//! starts with the journal header is recovered as an op journal;
//! anything else is parsed as a description file.
//!
//! Durability commands work a write-ahead op journal (see `fdi-store`):
//!
//! * `fdi journal-apply <journal> <ops-file> [desc-file]` — create the
//!   journal from the description (first run) or recover it, then apply
//!   the ops file: one op per line, `insert <tok>…`, `delete <row>`,
//!   `modify <row> <attr> <token>`, `resolve <row> <attr> <token>`,
//!   `compact`, with 1-based display-order row numbers. Rejected ops
//!   are reported and skipped; each accepted op is durable before the
//!   next is applied (it goes through the same writer as `serve`, as a
//!   group-commit batch of one).
//! * `fdi recover <journal>` — replay the journal and print the
//!   recovered table (corruption is a hard error naming the byte
//!   offset).
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
//!   A request line that is not UTF-8 or is longer than 64 KiB gets an
//!   `error:` reply, like an unknown verb, and the session goes on.
//!   `--batch N` sets the group-commit width (default 64). The
//!   `metrics` command (`metrics json` for JSON) renders the session's
//!   live `fdi-obs` snapshot — epoch gauges, publish counters, journal
//!   sync counters, the acquisition chase's work, plan-cache/memo
//!   traffic — in the stable exposition format.
//! * `fdi stats <journal> [--json]` — recover the journal with a live
//!   recorder and print the observability snapshot of recovery plus a
//!   recorded TEST-FDs sweep (both conventions) over the recovered
//!   state: replayed-op and torn-tail counters and TEST-FD tallies.
//!   Recovery replays through an unrecorded database, so no chase work
//!   shows.
//!
//! Every verb that recovers a journal truncates a torn tail and says so
//! (`truncated a torn tail at byte N (M bytes dropped)`; `stats` says it
//! on stderr). No verb creates a journal file it was asked to read: a
//! missing journal is a runtime error, and only `journal-apply` and
//! `serve` given a description create one, as they write its genesis.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, corrupt journal,
//! unsatisfiable description), `2` usage or input-parse error. Every
//! verb writes through one locked stdout; when its reader has gone
//! (`fdi recover j.log | head -1`), the verb stops with `0` and says
//! nothing on stderr.

use fd_incomplete::core::interp::DEFAULT_BUDGET;
use fd_incomplete::core::query::Query;
use fd_incomplete::core::semantics::{self, SemanticsKind};
use fd_incomplete::core::update::{Database, UpdateError};
use fd_incomplete::core::{armstrong, chase, normalize, satisfy, subst, testfd};
use fd_incomplete::obs::Recorder;
use fd_incomplete::prelude::*;
use fd_incomplete::relation::instance::is_comment;
use fd_incomplete::relation::rowid::RowId;
use fd_incomplete::serve::{self, ServeError, ServeOp, Staged};
use fd_incomplete::store::record::FILE_HEADER;
use fd_incomplete::store::{FileStorage, Journal, Recovered, Storage, StoreError};
use std::io::{BufRead, BufReader, Read, Write as IoWrite};
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
    /// Writing the verb's output, or reading from or writing to a serve
    /// client's stream, failed. Over `--tcp` a client's failure ends
    /// only that client's session; a closed output (`BrokenPipe`) ends
    /// the process quietly.
    Io(std::io::Error),
}

impl CliError {
    fn parse(msg: impl Into<String>) -> CliError {
        CliError::Parse(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
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
        if line.is_empty() || is_comment(line) {
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

/// Reads and parses the description file at `path`.
fn read_description(path: &str) -> Result<Description, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    parse_description(&text).map_err(|e| CliError::Parse(format!("parse error: {e}")))
}

fn run(command: &str, desc: &Description, out: &mut impl IoWrite) -> Result<(), CliError> {
    let Description {
        schema,
        fds,
        instance,
    } = desc;
    match command {
        "report" => {
            writeln!(out, "{}", instance.render(true))?;
            let report = satisfy::report(fds, instance, DEFAULT_BUDGET)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            writeln!(out, "{}", satisfy::render_report(&report, fds, instance))?;
        }
        "strong" => match testfd::check_strong(instance, fds) {
            Ok(()) => writeln!(out, "strongly satisfied")?,
            Err(v) => writeln!(out, "NOT strongly satisfied: {v}")?,
        },
        "weak" => {
            if chase::weakly_satisfiable_via_chase(fds, instance) {
                writeln!(
                    out,
                    "weakly satisfiable (some completion obeys every dependency)"
                )?;
            } else {
                writeln!(
                    out,
                    "NOT weakly satisfiable (every completion violates the dependencies)"
                )?;
            }
        }
        "chase" => {
            let result = chase::chase_plain(instance, fds);
            for event in &result.events {
                writeln!(out, "applied: {event}")?;
            }
            writeln!(out, "{}", result.instance.render(true))?;
            writeln!(
                out,
                "minimally incomplete after {} passes, {} events",
                result.passes,
                result.events.len()
            )?;
        }
        "chase-extended" => {
            let outcome = chase::extended_chase(instance, fds, &Recorder::noop());
            writeln!(out, "{}", outcome.instance.render(true))?;
            if outcome.has_nothing() {
                writeln!(
                    out,
                    "{} nothing class(es): the dependencies are contradicted (Theorem 4b)",
                    outcome.nothing_classes
                )?;
            } else {
                writeln!(out, "no nothing values: weakly satisfiable (Theorem 4b)")?;
            }
        }
        "keys" => {
            let all = AttrSet::first_n(schema.arity());
            for key in armstrong::candidate_keys(all, fds) {
                writeln!(out, "key: {}", schema.render_attrs(key))?;
            }
        }
        "normalize" => {
            let all = AttrSet::first_n(schema.arity());
            writeln!(out, "BCNF: {}", normalize::is_bcnf(fds, all))?;
            let d = normalize::bcnf_decompose(fds, all);
            for c in &d {
                writeln!(out, "component: {}", schema.render_attrs(*c))?;
            }
            writeln!(out, "lossless: {}", normalize::is_lossless(fds, all, &d))?;
            writeln!(
                out,
                "dependency preserving: {}",
                normalize::preserves_dependencies(fds, &d)
            )?;
        }
        "exhaustion" => {
            let sites = subst::detect_domain_exhaustion(fds, instance)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if sites.is_empty() {
                writeln!(out, "no [F2] domain-exhaustion sites")?;
            } else {
                // displayed row numbers are 1-based positions in the
                // printed table, not raw slot ids; each FD's sites come
                // out in ascending slot order
                let rows: Vec<Vec<RowId>> = sites
                    .chunk_by(|a, b| a.fd_index == b.fd_index)
                    .map(|run| run.iter().map(|s| s.row).collect())
                    .collect();
                let positions = display_positions(instance, &rows);
                for (s, pos) in sites.iter().zip(positions.iter().flatten()) {
                    let pos = pos.ok_or_else(|| {
                        CliError::runtime(format!(
                            "internal inconsistency: [F2] site names {} (fd #{}), \
                             which is not a live row of this instance",
                            s.row,
                            s.fd_index + 1
                        ))
                    })?;
                    writeln!(out, "[F2] at row {pos} under fd #{}", s.fd_index + 1)?;
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
                if words.next().is_some() {
                    return Err(format!("line {}: trailing tokens", lineno + 1));
                }
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

/// The 1-based display-order row → RowId mapping of the live instance.
fn row_at(db: &Database, pos: usize) -> Option<RowId> {
    db.instance().row_ids().nth(pos - 1)
}

/// The 1-based display positions of every row in `lists`, found in one
/// walk over the live rows. Each list must be in ascending slot order,
/// the order `row_ids()` walks (selections and the per-FD runs of
/// `[F2]` sites come out that way); a row the walk does not meet as live
/// maps to `None`.
fn display_positions<L: AsRef<[RowId]>>(
    instance: &Instance,
    lists: &[L],
) -> Vec<Vec<Option<usize>>> {
    let lists: Vec<&[RowId]> = lists.iter().map(AsRef::as_ref).collect();
    let mut found: Vec<Vec<Option<usize>>> =
        lists.iter().map(|l| Vec::with_capacity(l.len())).collect();
    let mut pending: usize = lists.iter().map(|l| l.len()).sum();
    for (pos, id) in instance.row_ids().enumerate() {
        if pending == 0 {
            break;
        }
        for (list, out) in lists.iter().zip(&mut found) {
            while let Some(&row) = list.get(out.len()) {
                if row > id {
                    break;
                }
                out.push((row == id).then_some(pos + 1));
                pending -= 1;
            }
        }
    }
    for (list, out) in lists.iter().zip(&mut found) {
        out.resize(list.len(), None);
    }
    found
}

fn run_journal_apply(
    journal_path: &str,
    ops_path: &str,
    desc_path: Option<&str>,
    out: &mut impl IoWrite,
) -> Result<(), CliError> {
    let ops_text = std::fs::read_to_string(ops_path)
        .map_err(|e| CliError::runtime(format!("cannot read {ops_path}: {e}")))?;
    let ops = parse_ops(&ops_text).map_err(CliError::Parse)?;
    // batches of one: each accepted op is durable before the next stages
    let (mut writer, _reader) = open_writer(journal_path, desc_path, 1, out)?;
    let mut rejected = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let staged = stage_line(&mut writer, op).map_err(|e| {
            CliError::runtime(format!("op {}: journal failure, aborting: {e}", i + 1))
        })?;
        if let Err(reason) = staged {
            writeln!(out, "op {}: rejected: {reason}", i + 1)?;
            rejected += 1;
        }
    }
    writeln!(out, "{}", writer.db().instance().render(true))?;
    writeln!(
        out,
        "{} op(s) applied and durable, {rejected} rejected",
        ops.len() - rejected
    )?;
    Ok(())
}

fn run_recover(journal_path: &str, out: &mut impl IoWrite) -> Result<(), CliError> {
    let recovered = recover_journal(
        journal_path,
        open_storage(journal_path)?,
        &Recorder::noop(),
        out,
    )?;
    writeln!(out, "{}", recovered.db.instance().render(true))?;
    Ok(())
}

fn run_checkpoint(journal_path: &str, out: &mut impl IoWrite) -> Result<(), CliError> {
    let Recovered {
        db, mut journal, ..
    } = recover_journal(
        journal_path,
        open_storage(journal_path)?,
        &Recorder::noop(),
        out,
    )?;
    journal
        .checkpoint(&db)
        .map_err(|e| CliError::runtime(format!("checkpoint failed (journal unchanged): {e}")))?;
    writeln!(
        out,
        "checkpointed {journal_path}: {} live row(s) snapshotted, replay log cleared",
        db.instance().len()
    )?;
    Ok(())
}

/// The `stats` verb's payload: recovers the journal under a live
/// recorder, then runs a recorded TEST-FDs sweep over the recovered
/// state — one check per registered null-comparison semantics, in
/// lattice order — and renders the resulting snapshot (the
/// per-semantics tallies land on the labelled `testfd_checks`
/// counters).
fn stats_report(journal_path: &str, json: bool) -> Result<String, CliError> {
    let storage = open_storage(journal_path)?;
    if storage.is_empty() {
        return Err(CliError::runtime(format!(
            "journal {journal_path} is empty: nothing to report"
        )));
    }
    let rec = Recorder::enabled();
    // stdout carries the exposition; the recovery report goes to stderr
    let recovered = recover_journal(journal_path, storage, &rec, &mut std::io::stderr())?;
    let db = recovered.db;
    // A recorded satisfiability sweep over the recovered state: the
    // verdicts are in the journal's history already, so only the
    // tallies (checks, rows scanned, fallback hits) are of interest.
    for kind in SemanticsKind::ALL {
        let _ = testfd::check(db.instance(), db.fds(), kind, &rec);
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

fn run_stats(journal_path: &str, json: bool, out: &mut impl IoWrite) -> Result<(), CliError> {
    write!(out, "{}", stats_report(journal_path, json)?)?;
    Ok(())
}

/// Opens the existing journal file at `path`. A missing file is a
/// runtime error: a verb never creates the journal it was asked to read.
fn open_storage(path: &str) -> Result<FileStorage, CliError> {
    std::fs::metadata(path)
        .map_err(StoreError::from)
        .and_then(|_| FileStorage::open(path))
        .map_err(|e| CliError::runtime(format!("cannot open journal {path}: {e}")))
}

/// Recovers the journal in `storage` into `rec` and reports to `out`
/// what recovery did: a torn tail it truncated, then the replay count.
fn recover_journal<W: IoWrite>(
    path: &str,
    storage: FileStorage,
    rec: &Recorder,
    out: &mut W,
) -> Result<Recovered<FileStorage>, CliError> {
    let recovered = Journal::recover_with(storage, rec)
        .map_err(|e| CliError::runtime(format!("cannot recover journal {path}: {e}")))?;
    if let Some(torn) = recovered.torn {
        writeln!(
            out,
            "truncated a torn tail at byte {} ({} bytes dropped)",
            torn.offset, torn.dropped
        )?;
    }
    writeln!(
        out,
        "recovered {path}: {} op(s) replayed",
        recovered.ops.len()
    )?;
    Ok(recovered)
}

/// Opens an epoch-split serving pair over the journal at `path`:
/// recovers it if it holds bytes, otherwise creates it from the
/// description file (required on first use; the file is created only
/// once the description has built a valid database). Reports what it
/// did to `out`. Staged ops commit to the journal in batches of
/// `max_batch`.
fn open_writer<W: IoWrite>(
    path: &str,
    desc_path: Option<&str>,
    max_batch: usize,
    out: &mut W,
) -> Result<(serve::Writer<FileStorage>, serve::Reader), CliError> {
    let cfg = ServeConfig { max_batch };
    let holds_bytes = std::fs::metadata(path).is_ok_and(|m| m.len() > 0);
    if let Some(desc_path) = desc_path.filter(|_| !holds_bytes) {
        let desc = read_description(desc_path)?;
        let db = Database::new(desc.instance, desc.fds, Enforcement::Weak).map_err(|e| {
            CliError::runtime(format!("description is not a valid starting database: {e}"))
        })?;
        let storage = FileStorage::open(path)
            .map_err(|e| CliError::runtime(format!("cannot open journal {path}: {e}")))?;
        let journal = Journal::create(storage, &db)
            .map_err(|e| CliError::runtime(format!("cannot create journal {path}: {e}")))?;
        writeln!(out, "created journal {path} from {desc_path}")?;
        return Ok(serve::Writer::resume(db, journal, 0, cfg));
    }
    let storage = open_storage(path)?;
    if storage.is_empty() {
        return Err(CliError::parse(format!(
            "journal {path} is empty: a description file is required to create it"
        )));
    }
    let recovered = recover_journal(path, storage, &Recorder::noop(), out)?;
    let ops_applied = recovered.ops.len() as u64;
    Ok(serve::Writer::resume(
        recovered.db,
        recovered.journal,
        ops_applied,
        cfg,
    ))
}

/// Resolves a parsed mutation line's 1-based display position and
/// attribute name against `db`, or says why it cannot.
fn resolve_line(db: &Database, op: &OpLine) -> Result<ServeOp, String> {
    let row = |pos: usize| row_at(db, pos).ok_or_else(|| format!("no row {pos}"));
    let attr_id = |name: &str| {
        db.instance()
            .schema()
            .attr_id(name)
            .map_err(|e| e.to_string())
    };
    Ok(match op {
        OpLine::Insert(tokens) => ServeOp::Insert(tokens.clone()),
        OpLine::Delete(pos) => ServeOp::Delete(row(*pos)?),
        OpLine::Modify { pos, attr, token } => ServeOp::Modify {
            row: row(*pos)?,
            attr: attr_id(attr)?,
            token: token.clone(),
        },
        OpLine::Resolve { pos, attr, token } => ServeOp::ResolveNull {
            row: row(*pos)?,
            attr: attr_id(attr)?,
            token: token.clone(),
        },
        OpLine::Compact => ServeOp::Compact,
    })
}

/// Stages one parsed mutation line against the writer's successor
/// state, resolving it against that state (staged inserts are
/// addressable immediately). `Ok(Err(reason))` is a rejection in the
/// terms the line used; `Err` is a journal failure.
fn stage_line<S: Storage>(
    writer: &mut serve::Writer<S>,
    op: &OpLine,
) -> Result<Result<(), String>, ServeError> {
    let serve_op = match resolve_line(writer.db(), op) {
        Ok(serve_op) => serve_op,
        Err(reason) => return Ok(Err(reason)),
    };
    Ok(match writer.stage(&serve_op)? {
        Staged::Applied(_) | Staged::Compacted(_) => Ok(()),
        Staged::Rejected(e) => Err(rejection(&e, op)),
    })
}

/// Renders a rejected op in the terms its line used: a `resolve` of a
/// cell that holds no null names the 1-based row and the attribute
/// name, not the internal slot and attribute ids.
fn rejection(e: &UpdateError, op: &OpLine) -> String {
    match (e, op) {
        (UpdateError::NotANull { .. }, OpLine::Resolve { pos, attr, .. }) => {
            format!("cell ({pos}, {attr}) is not a null")
        }
        _ => e.to_string(),
    }
}

/// The longest request line a serve session reads, newline excluded.
/// A longer line is discarded up to its newline and answered with an
/// `error:` line, so one request never buffers more than this.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One interactive serving session over any line stream: mutations
/// stage, `commit` publishes, reads (`table`, `select`, `epoch`,
/// `metrics`) see only the published snapshot (except `metrics`, which
/// renders the live recorder). Returns `true` if the client asked the
/// whole server to shut down (`shutdown`); `quit` or EOF ends just this
/// session, publishing any pending staged work first (durable before
/// the prompt closes). A line longer than [`MAX_LINE_BYTES`] or not
/// valid UTF-8 is answered with an `error:` line and the session goes
/// on.
fn serve_session<S: Storage, R: BufRead, W: IoWrite>(
    writer: &mut serve::Writer<S>,
    reader: &serve::Reader,
    rec: &Recorder,
    mut input: R,
    out: &mut W,
) -> Result<bool, CliError> {
    let hello = reader.snapshot();
    writeln!(
        out,
        "serving epoch {} ({} row(s)); verbs: insert delete modify resolve compact \
         commit table select semantics epoch metrics quit shutdown",
        hello.seq(),
        hello.db().instance().len()
    )?;
    let mut shutdown = false;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = std::io::Read::take(&mut input, MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if read == 0 {
            break;
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            input.skip_until(b'\n')?;
            writeln!(out, "error: line longer than {MAX_LINE_BYTES} bytes")?;
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            writeln!(out, "error: line is not valid UTF-8")?;
            continue;
        };
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
                )?;
            }
            "epoch" => {
                let epoch = reader.snapshot();
                writeln!(
                    out,
                    "epoch {} ({} op(s) applied, fingerprint {:016x})",
                    epoch.seq(),
                    epoch.ops_applied(),
                    epoch.fingerprint()
                )?;
            }
            "table" => {
                let epoch = reader.snapshot();
                writeln!(out, "{}", epoch.db().instance().render(true))?;
            }
            "semantics" => {
                let epoch = reader.snapshot();
                let db = epoch.db();
                let cmp = semantics::compare(db.instance(), db.fds());
                write!(
                    out,
                    "{}",
                    semantics::render_comparison(&cmp, db.fds(), db.instance())
                )?;
            }
            "metrics" => {
                let snap = rec.snapshot();
                match (words.next(), words.next()) {
                    (None, _) => write!(out, "{}", snap.render_text())?,
                    (Some("json"), None) => writeln!(out, "{}", snap.render_json())?,
                    _ => writeln!(out, "error: usage is `metrics [json]`")?,
                }
            }
            "select" => {
                let (Some(attr), Some(value), None) = (words.next(), words.next(), words.next())
                else {
                    writeln!(out, "error: usage is `select <attr> <value>`")?;
                    continue;
                };
                let epoch = reader.snapshot();
                match Query::eq_text(epoch.db().instance(), attr, value) {
                    Err(e) => writeln!(out, "error: {e}")?,
                    Ok(query) => {
                        let selection = match epoch.select(&query, rec) {
                            Ok(selection) => selection,
                            // An evaluation error answers this request only.
                            Err(e) => {
                                writeln!(out, "error: {e}")?;
                                continue;
                            }
                        };
                        // both lists are in ascending slot order, so one
                        // walk over the live rows finds every position
                        let positions = display_positions(
                            epoch.db().instance(),
                            &[&selection.sure, &selection.maybe],
                        );
                        let render = |found: &[Option<usize>]| {
                            found
                                .iter()
                                .map(|p| p.map_or_else(|| "?".to_string(), |p| p.to_string()))
                                .collect::<Vec<_>>()
                                .join(" ")
                        };
                        writeln!(
                            out,
                            "sure: [{}]  maybe: [{}]  (epoch {})",
                            render(&positions[0]),
                            render(&positions[1]),
                            epoch.seq()
                        )?;
                    }
                }
            }
            _ => match parse_ops(line) {
                Err(e) => writeln!(out, "error: {e}")?,
                Ok(ops) => {
                    for op in &ops {
                        let staged = stage_line(writer, op).map_err(|e| {
                            CliError::runtime(format!("journal failure, aborting: {e}"))
                        })?;
                        match staged {
                            Ok(()) => writeln!(
                                out,
                                "staged ({} op(s) await commit)",
                                writer.ops_applied()
                                    - writer.published_log().last().map_or(0, |s| s.ops_applied)
                            ),
                            Err(reason) => writeln!(out, "rejected: {reason}"),
                        }?;
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
    )?;
    Ok(shutdown)
}

/// Serves TCP clients one at a time over the shared writer (readers of
/// the published epoch are cheap; the single writer is the serializing
/// resource). A client's `shutdown` stops the listener. Per-client
/// failures — a refused accept, a connection dropped mid-session — are
/// reported and survived: the server stays up for the next connection,
/// and any work the dropped client staged-but-did-not-commit simply
/// rides along until the next publish. The server's own notices go to
/// `out`. Only failures outside the client's stream (journal
/// corruption, publish errors, a failed `out`) stop the server.
fn serve_tcp<S: Storage>(
    listener: TcpListener,
    writer: &mut serve::Writer<S>,
    reader: &serve::Reader,
    rec: &Recorder,
    out: &mut impl IoWrite,
) -> Result<(), CliError> {
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                writeln!(out, "accept failed ({e}); still listening")?;
                continue;
            }
        };
        let input = match stream.try_clone() {
            Ok(half) => BufReader::new(half),
            Err(e) => {
                writeln!(out, "client dropped at connect ({e}); still listening")?;
                continue;
            }
        };
        match serve_session(writer, reader, rec, input, &mut stream) {
            Ok(true) => break,
            Ok(false) => {}
            Err(CliError::Io(e)) => {
                writeln!(
                    out,
                    "client dropped mid-session (i/o error: {e}); still listening"
                )?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn run_serve(args: &[String], out: &mut impl IoWrite) -> Result<(), CliError> {
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
    let (mut writer, mut reader) = open_writer(journal_path, desc_path, max_batch, out)?;
    // One live recorder for the whole serving process: the writer's
    // publish/journal metrics, the reader's snapshot metrics, and the
    // query-path metrics of every `select` all land in the same sink,
    // which the `metrics` command renders.
    let rec = Recorder::enabled();
    writer.set_recorder(rec.clone());
    reader.set_recorder(rec.clone());
    match tcp {
        None => {
            serve_session(&mut writer, &reader, &rec, std::io::stdin().lock(), out)?;
            Ok(())
        }
        Some(addr) => {
            let listener = TcpListener::bind(&addr)
                .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
            let local = listener
                .local_addr()
                .map_err(|e| CliError::runtime(format!("cannot read the bound address: {e}")))?;
            writeln!(out, "listening on {local}")?;
            serve_tcp(listener, &mut writer, &reader, &rec, out)
        }
    }
}

/// The `semantics` verb: differential TEST-FDs across every registered
/// null-comparison convention. A file that starts with the journal
/// header is recovered as an op journal; anything else is parsed as a
/// description file, whose parse error is reported as such.
fn run_semantics(path: &str, out: &mut impl IoWrite) -> Result<(), CliError> {
    let render = |instance: &Instance, fds: &FdSet| {
        let cmp = semantics::compare(instance, fds);
        semantics::render_comparison(&cmp, fds, instance)
    };
    let mut head = [0u8; FILE_HEADER.len()];
    let is_journal = std::fs::File::open(path)
        .and_then(|mut file| file.read_exact(&mut head))
        .is_ok()
        && head == FILE_HEADER;
    let text = if is_journal {
        let storage = open_storage(path)?;
        let db = recover_journal(path, storage, &Recorder::noop(), out)?.db;
        render(db.instance(), db.fds())
    } else {
        let desc = read_description(path)?;
        render(&desc.instance, &desc.fds)
    };
    write!(out, "{text}")?;
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

/// Runs the verb `args` names, writing its output to `out`, and
/// flushes `out`.
fn dispatch(args: &[String], out: &mut impl IoWrite) -> Result<(), CliError> {
    let command = args.first().map(String::as_str).unwrap_or_default();
    match (command, args.len()) {
        ("journal-apply", 3) => run_journal_apply(&args[1], &args[2], None, out),
        ("journal-apply", 4) => run_journal_apply(&args[1], &args[2], Some(&args[3]), out),
        ("recover", 2) => run_recover(&args[1], out),
        ("checkpoint", 2) => run_checkpoint(&args[1], out),
        ("stats", 2) => run_stats(&args[1], false, out),
        ("stats", 3) if args[2] == "--json" => run_stats(&args[1], true, out),
        ("semantics", 2) => run_semantics(&args[1], out),
        ("serve", n) if n >= 2 => run_serve(&args[1..], out),
        ("journal-apply" | "recover" | "checkpoint" | "stats" | "semantics" | "serve", _) => {
            Err(CliError::parse(USAGE))
        }
        (_, 2) => run(command, &read_description(&args[1])?, out),
        _ => Err(CliError::parse(USAGE)),
    }?;
    Ok(out.flush()?)
}

/// The exit code for a verb's `result`, with any failure reported to
/// `err`. A closed output (`BrokenPipe`, e.g. `fdi recover j.log | head
/// -1`) is no failure: the reader has what it wanted, so the process
/// ends quietly with 0.
fn exit_code(result: Result<(), CliError>, err: &mut impl IoWrite) -> u8 {
    let (code, msg) = match result {
        Ok(()) => return 0,
        Err(CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => return 0,
        Err(CliError::Runtime(msg)) => (1, msg),
        Err(CliError::Io(e)) => (1, format!("i/o error: {e}")),
        Err(CliError::Parse(msg)) => (2, msg),
    };
    // nothing is left to report a failure to if stderr fails too
    let _ = writeln!(err, "{msg}");
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = dispatch(&args, &mut std::io::stdout().lock());
    ExitCode::from(exit_code(result, &mut std::io::stderr()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn a_leading_nothing_row_is_parsed_not_skipped() {
        let text = format!("#!/usr/bin/env fdi\n{SAMPLE}#! eng noa\n# a comment\n");
        let d = parse_description(&text).expect("parse");
        assert_eq!(d.instance.len(), 4);
        assert_eq!(d.instance.nothing_count(), 1);
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
            let mut out = Vec::new();
            run(cmd, &d, &mut out).unwrap_or_else(|e| panic!("command {cmd}: {e:?}"));
            assert!(!out.is_empty(), "command {cmd} printed nothing");
        }
        assert!(matches!(
            run("bogus", &d, &mut std::io::sink()),
            Err(CliError::Parse(_))
        ));
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
            "modify 1 dept eng extra",
            "resolve 1",
            "resolve 1 mgr noa extra",
            "teleport 3",
            "compact now",
        ] {
            assert!(parse_ops(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// The pieces both file grammars are made of, so random sequences
    /// of them get past the first line's checks into the schema, FD,
    /// instance and op parsers.
    const GRAMMAR_TOKENS: &[&str] = &[
        "%schema",
        "%fds",
        "%instance",
        "relation",
        "attr",
        "->",
        "-",
        "?m",
        "#!",
        "insert",
        "delete",
        "modify",
        "resolve",
        "compact",
        "A",
        "B",
        "a",
        "b",
        "0",
        "1",
        "2",
        "9",
        "\n",
    ];

    /// Arbitrary bytes, made text the way a lossy reader would.
    fn arb_lossy_text() -> impl Strategy<Value = String> {
        collection::vec(0..256u16, 0..256).prop_map(|bytes| {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    /// Valid openings that put the tokens that follow into the FD or
    /// the instance parser (or, empty, anywhere).
    const HEADS: &[&str] = &[
        "",
        "%schema\nattr A a b 1\nattr B a b\n%fds\n",
        "%schema\nattr A a b 1\nattr B\n%instance\n",
    ];

    /// A head, then grammar tokens, each followed by a space or nothing.
    fn arb_token_text() -> impl Strategy<Value = String> {
        let picks = collection::vec((0..GRAMMAR_TOKENS.len(), 0..3usize), 0..96);
        (0..HEADS.len(), picks).prop_map(|(head, picks)| {
            let mut text = HEADS[head].to_string();
            for (i, gap) in picks {
                text.push_str(GRAMMAR_TOKENS[i]);
                if gap > 0 {
                    text.push(' ');
                }
            }
            text
        })
    }

    /// Neither file parser panics: each answers `Ok` or `Err` on any
    /// text. An accepted ops file holds at most one op per line, and a
    /// rejection always says why.
    fn assert_parsers_total(text: &str) {
        if let Err(e) = parse_description(text) {
            assert!(!e.is_empty(), "empty description error on {text:?}");
        }
        match parse_ops(text) {
            Ok(ops) => assert!(ops.len() <= text.lines().count(), "{text:?}"),
            Err(e) => assert!(!e.is_empty(), "empty ops error on {text:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsers_never_panic_on_arbitrary_bytes(text in arb_lossy_text()) {
            assert_parsers_total(&text);
        }

        #[test]
        fn parsers_never_panic_on_grammar_token_soup(text in arb_token_text()) {
            assert_parsers_total(&text);
        }
    }

    #[test]
    fn usage_and_unknown_commands_are_parse_errors() {
        assert!(matches!(
            dispatch(&[], &mut std::io::sink()),
            Err(CliError::Parse(_))
        ));
        assert!(matches!(
            dispatch(&["report".to_string()], &mut std::io::sink()),
            Err(CliError::Parse(_))
        ));
        assert!(matches!(
            dispatch(
                &["journal-apply".to_string(), "x".to_string()],
                &mut std::io::sink()
            ),
            Err(CliError::Parse(_))
        ));
        // a missing description file is a runtime error, not a panic
        assert!(matches!(
            dispatch(
                &["report".to_string(), "/no/such/file".to_string()],
                &mut std::io::sink()
            ),
            Err(CliError::Runtime(_))
        ));
    }

    /// A writer whose reader has gone, like stdout piped into `head -1`
    /// once `head` has exited.
    struct ClosedPipe;

    impl IoWrite for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A closed output ends a verb quietly: exit 0 and nothing on
    /// stderr. Other failures still exit non-zero and say why.
    #[test]
    fn a_closed_output_ends_a_verb_quietly() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (desc, ops, journal) = (dir.join("db.fdi"), dir.join("ops.txt"), dir.join("j.log"));
        std::fs::write(&desc, SAMPLE).unwrap();
        std::fs::write(&ops, "insert cyd eng noa\n").unwrap();
        let (desc, ops, journal) = (
            desc.to_str().unwrap(),
            ops.to_str().unwrap(),
            journal.to_str().unwrap(),
        );
        run_journal_apply(journal, ops, Some(desc), &mut std::io::sink()).unwrap();
        for args in [
            vec!["weak", desc],
            vec!["report", desc],
            vec!["recover", journal],
            vec!["checkpoint", journal],
            vec!["journal-apply", journal, ops],
            vec!["semantics", journal],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let result = dispatch(&args, &mut ClosedPipe);
            assert!(
                matches!(&result, Err(CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe),
                "{args:?}: {result:?}"
            );
            let mut err = Vec::new();
            assert_eq!(exit_code(result, &mut err), 0, "{args:?}");
            assert!(
                err.is_empty(),
                "{args:?}: {}",
                String::from_utf8_lossy(&err)
            );
        }
        let mut err = Vec::new();
        let missing = vec![
            "recover".to_string(),
            dir.join("missing.log").display().to_string(),
        ];
        assert_eq!(exit_code(dispatch(&missing, &mut ClosedPipe), &mut err), 1);
        assert!(String::from_utf8(err)
            .unwrap()
            .contains("cannot open journal"));
        let mut err = Vec::new();
        let full = CliError::Io(std::io::ErrorKind::StorageFull.into());
        assert_eq!(exit_code(Err(full), &mut err), 1);
        assert!(String::from_utf8(err).unwrap().starts_with("i/o error: "));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// No verb creates a journal it was only asked to read: on a missing
    /// path each fails at runtime and leaves no file behind. Neither does
    /// `journal-apply` when its description does not parse.
    #[test]
    fn verbs_never_create_a_missing_journal() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops = dir.join("ops.txt");
        std::fs::write(&ops, "insert cyd eng noa\n").unwrap();
        let bad = dir.join("bad.fdi");
        std::fs::write(&bad, "%schema\nrelation\n").unwrap();
        let missing = dir.join("missing.log");
        let (journal, ops, bad) = (
            missing.to_str().unwrap(),
            ops.to_str().unwrap(),
            bad.to_str().unwrap(),
        );
        for args in [
            vec!["recover", journal],
            vec!["checkpoint", journal],
            vec!["stats", journal],
            vec!["stats", journal, "--json"],
            vec!["semantics", journal],
            vec!["journal-apply", journal, ops],
            vec!["serve", journal],
            vec!["journal-apply", journal, ops, bad],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let result = dispatch(&args, &mut std::io::sink());
            if args.len() < 4 {
                match &result {
                    Err(CliError::Runtime(msg)) => assert!(msg.contains(journal), "{msg}"),
                    other => panic!("{args:?}: expected a runtime error, got {other:?}"),
                }
            }
            assert!(result.is_err(), "{args:?}");
            assert!(!missing.exists(), "{args:?} created {journal}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        std::fs::write(&ops1, "insert cyd eng noa\ndelete 4\nmodify 3 mgr mia\n").unwrap();
        // resolve bob's dept to eng (eng's manager is now mia, like
        // bob's) → accepted, as is the compaction; "delete 99" is an
        // out-of-range rejection exercised on purpose
        std::fs::write(&ops2, "resolve 2 dept eng\ncompact\ndelete 99\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();
        let mut sink = std::io::sink();

        run_journal_apply(
            &jpath,
            ops1.to_str().unwrap(),
            Some(desc.to_str().unwrap()),
            &mut sink,
        )
        .expect("create + first batch");
        run_journal_apply(&jpath, ops2.to_str().unwrap(), None, &mut sink)
            .expect("reopen + second batch");

        // each accepted op is its own synced record: genesis + 5, and
        // nothing for the rejected `delete 99`
        use fd_incomplete::store::record::{Scanned, Scanner, FILE_HEADER};
        let mut bytes = Vec::new();
        let mut storage = FileStorage::open(&journal).unwrap();
        storage.read_all(&mut bytes).unwrap();
        let mut scanner = Scanner::new(&bytes[FILE_HEADER.len()..], FILE_HEADER.len() as u64);
        let mut records = 0;
        while let Some(Scanned::Record { .. }) = scanner.next() {
            records += 1;
        }
        assert_eq!(records, 1 + 5);

        let recovered = Journal::recover(storage).expect("journal recovers");
        assert!(recovered.torn.is_none());
        assert_eq!(
            recovered.ops.len(),
            5,
            "accepted ops from both batches are durable: {:?}",
            recovered.ops
        );
        assert_eq!(recovered.db.instance().len(), 3);

        run_checkpoint(&jpath, &mut sink).expect("checkpoint");
        let after = Journal::recover(FileStorage::open(&journal).unwrap()).unwrap();
        assert_eq!(after.ops.len(), 0, "checkpoint cleared the replay log");
        assert_eq!(
            after.db.instance().render(true),
            recovered.db.instance().render(true)
        );

        let mut out = Vec::new();
        run_recover(&jpath, &mut out).expect("recover verb");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with(&format!("recovered {jpath}: 0 op(s) replayed")),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Opening a journal whose last record tore reports the truncation,
    /// for `serve` as for every other verb that recovers.
    #[test]
    fn open_writer_reports_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("fdi-cli-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let desc = dir.join("db.fdi");
        let ops = dir.join("ops.txt");
        let journal = dir.join("staff.journal");
        std::fs::write(&desc, SAMPLE).unwrap();
        std::fs::write(&ops, "insert cyd eng noa\nmodify 1 mgr noa\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();
        run_journal_apply(
            &jpath,
            ops.to_str().unwrap(),
            Some(desc.to_str().unwrap()),
            &mut std::io::sink(),
        )
        .expect("create + apply");
        let len = std::fs::metadata(&journal).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let mut out = Vec::new();
        let (writer, _reader) = open_writer(&jpath, None, 64, &mut out).expect("recovers");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("truncated a torn tail at byte "),
            "torn tail must be reported: {text}"
        );
        assert!(
            text.contains(&format!("recovered {jpath}: 1 op(s) replayed")),
            "{text}"
        );
        assert_eq!(writer.ops_applied(), 1);
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
        let db = Database::new(d.instance, d.fds, Enforcement::Weak).expect("valid base");
        serve::Writer::create(
            db,
            fd_incomplete::store::MemStorage::new(),
            ServeConfig { max_batch: 4 },
            fdi_exec::Executor,
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
                      resolve 2 mgr noa\n\
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
        // a rejection names the row and attribute the client gave
        assert!(
            text.contains("rejected: cell (2, mgr) is not a null"),
            "{text}"
        );
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

        // A line that is not UTF-8 and a line over the cap each answer
        // one `error:` line; the staged insert survives both and is
        // published when the session closes.
        let (mut writer, reader) = sample_serving_pair();
        let mut script = b"insert cyd eng noa\n\xff\n".to_vec();
        script.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        script.extend(b"\nepoch\nquit\n");
        let mut out = Vec::new();
        serve_session(
            &mut writer,
            &reader,
            &Recorder::noop(),
            std::io::Cursor::new(script),
            &mut out,
        )
        .expect("bad input lines must not end the session");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("error:").count(), 2, "{text}");
        assert!(text.contains("error: line is not valid UTF-8"), "{text}");
        assert!(
            text.contains(&format!("error: line longer than {MAX_LINE_BYTES} bytes")),
            "{text}"
        );
        assert!(text.contains("epoch 0 (0 op(s) applied"), "{text}");
        assert!(
            text.contains("session closed at epoch 1 (1 op(s) durable)"),
            "{text}"
        );

        // After committed deletes and no `compact`, `select` answers
        // with live-row ranks, not slot ids: ada and bob (slots 0 and 1)
        // are gone, so cyd (slot 2) and the new ada row (slot 3) print
        // as rows 1 and 2.
        let (mut writer, reader) = sample_serving_pair();
        let mut out = Vec::new();
        serve_session(
            &mut writer,
            &reader,
            &Recorder::noop(),
            std::io::Cursor::new(
                "delete 1\ndelete 1\ninsert ada eng noa\ncommit\nselect dept eng\nquit\n",
            ),
            &mut out,
        )
        .expect("session runs");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("published epoch 1 (3 op(s) applied, durable)"),
            "{text}"
        );
        assert!(text.contains("sure: [1 2]  maybe: []  (epoch 1)"), "{text}");
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
            serve_tcp(
                listener,
                &mut writer,
                &reader,
                &Recorder::noop(),
                &mut std::io::sink(),
            )
            .expect("server runs");
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
        // the insert's extended chase filled cyd's null mgr with noa
        assert!(metric_value(&text, "fdi_cell_chase_unions{det=\"true\"}") >= 1);
        assert!(metric_value(&text, "fdi_cell_chase_rounds{det=\"true\"}") >= 1);
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
            serve_tcp(
                listener,
                &mut writer,
                &reader,
                &Recorder::noop(),
                &mut std::io::sink(),
            )
            .expect("server runs");
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
        run_semantics(desc.to_str().unwrap(), &mut std::io::sink()).expect("description input");

        let ops = dir.join("ops.txt");
        let journal = dir.join("staff.journal");
        std::fs::write(&ops, "insert cyd eng noa\n").unwrap();
        let jpath = journal.to_str().unwrap().to_string();
        run_journal_apply(
            &jpath,
            ops.to_str().unwrap(),
            Some(desc.to_str().unwrap()),
            &mut std::io::sink(),
        )
        .expect("create + apply");
        run_semantics(&jpath, &mut std::io::sink()).expect("journal input");

        // a description that does not parse is reported as a parse error,
        // not as a file that is no journal
        let bad = dir.join("bad.fdi");
        std::fs::write(&bad, SAMPLE.replace("dept -> mgr", "emp -> dep")).unwrap();
        match run_semantics(bad.to_str().unwrap(), &mut std::io::sink()) {
            Err(CliError::Parse(msg)) => assert!(msg.contains("unknown attribute"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }

        assert!(matches!(
            dispatch(&["semantics".to_string()], &mut std::io::sink()),
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
        run_journal_apply(
            &jpath,
            ops.to_str().unwrap(),
            Some(desc.to_str().unwrap()),
            &mut std::io::sink(),
        )
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
        assert!(metric_value(&text, "fdi_testfd_rows_scanned{det=\"true\"}") >= 1);

        let json = stats_report(&jpath, true).expect("stats --json");
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"recovery_replayed_ops\":3"), "{json}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
