//! The crash-point matrix: for every prefix of a generated update
//! stream staged through a [`Writer`] and every deterministic failure
//! mode, recovery must yield
//! **exactly** the database obtained by applying the longest fully
//! synced op prefix live — verified bit-identically (rendered tableau,
//! canonical form, NEC classes), with mid-log corruption
//! surfacing as a typed error naming the byte offset, never a panic and
//! never a silently wrong database.
//!
//! The matrix is driven twice: an exhaustive deterministic sweep over
//! *every* crash point of a fixed stream (every append, every sync,
//! every short-write, one bit flip per byte of the journal image), and
//! a proptest sweep over random streams, policies, and fault
//! parameters. All schedules are explicit — a failing case prints the
//! exact plan that reproduces it.

use fdi_core::update::{Database, Enforcement};
use fdi_exec::Executor;
use fdi_gen::{satisfiable_workload, update_stream, UpdateMix, UpdateOp, Workload, WorkloadSpec};
use fdi_relation::rowid::RowId;
use fdi_serve::{ServeConfig, ServeError, ServeOp, Staged, Writer};
use fdi_store::record::{Scanned, Scanner, FILE_HEADER};
use fdi_store::{Fault, FaultyStorage, Journal, JournalOp, MemStorage, RecoverError, Storage};
use proptest::prelude::*;

fn spec(rows: usize) -> WorkloadSpec {
    spec_with_nulls(rows, 0.25)
}

fn spec_with_nulls(rows: usize, null_density: f64) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: 4,
        domain: 6,
        null_density,
        nec_density: 0.3,
        collision_rate: 0.5,
    }
}

fn mix() -> UpdateMix {
    UpdateMix {
        resolve: 2,
        ..UpdateMix::default()
    }
}

fn base_db(w: &Workload, enforcement: Enforcement) -> Database {
    Database::new(w.instance.clone(), w.fds.clone(), enforcement).unwrap()
}

/// A writer over a fresh journal in `storage`, committing every
/// `max_batch` staged ops.
fn writer<S: Storage>(
    w: &Workload,
    enforcement: Enforcement,
    storage: S,
    max_batch: usize,
) -> Writer<S> {
    let cfg = ServeConfig { max_batch };
    let exec = Executor::with_threads(1);
    Writer::create(base_db(w, enforcement), storage, cfg, exec)
        .expect("create is append 0 / sync 0; plans never target it here")
        .0
}

/// Stages one stream op, resolving positional row references like
/// `fdi_gen::apply_op` against `live`. Database rejections (and
/// positions past the live rows) are a clean `Ok(false)`; journal
/// failures surface as `Err`.
fn stage_op<S: Storage>(
    writer: &mut Writer<S>,
    live: &mut Vec<RowId>,
    op: &UpdateOp,
) -> Result<bool, ServeError> {
    let row = |pos: &usize| live.get(*pos).copied();
    let serve_op = match op {
        UpdateOp::Insert(tokens) => ServeOp::Insert(tokens.clone()),
        UpdateOp::Delete(pos) => match row(pos) {
            Some(row) => ServeOp::Delete(row),
            None => return Ok(false),
        },
        UpdateOp::Modify {
            row: pos,
            attr,
            token,
        } => match row(pos) {
            Some(row) => ServeOp::Modify {
                row,
                attr: *attr,
                token: token.clone(),
            },
            None => return Ok(false),
        },
        UpdateOp::ResolveNull {
            row: pos,
            attr,
            token,
        } => match row(pos) {
            Some(row) => ServeOp::ResolveNull {
                row,
                attr: *attr,
                token: token.clone(),
            },
            None => return Ok(false),
        },
    };
    let Staged::Applied(outcome) = writer.stage(&serve_op)? else {
        return Ok(false);
    };
    match op {
        UpdateOp::Insert(_) => live.push(outcome.row),
        UpdateOp::Delete(pos) => {
            live.remove(*pos);
        }
        _ => {}
    }
    Ok(true)
}

/// Replays one journaled op onto an oracle database (mirrors the
/// recovery replayer, asserting the journaled ids reproduce).
fn oracle_apply(db: &mut Database, op: &JournalOp) {
    match op {
        JournalOp::Insert { row, tokens } => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let out = db.insert(&refs).expect("oracle replays accepted ops");
            assert_eq!(out.row, *row, "oracle insert landed on a different row");
        }
        JournalOp::Delete { row } => {
            db.delete(*row).expect("oracle replays accepted deletes");
        }
        JournalOp::Modify { row, attr, token } => {
            db.modify(*row, *attr, token)
                .expect("oracle replays accepted modifies");
        }
        JournalOp::ResolveNull { row, attr, token } => {
            db.resolve_null(*row, *attr, token)
                .expect("oracle replays accepted resolves");
        }
        JournalOp::Compact { moved } => {
            assert_eq!(&db.compact(), moved, "oracle compaction remap diverged");
        }
    }
}

/// Full bit-level database equality: rendered tableau with marks,
/// canonical form, and canonical NEC classes.
fn assert_same_db(recovered: &Database, oracle: &Database) {
    assert_eq!(
        recovered.instance().render(true),
        oracle.instance().render(true),
        "recovered tableau differs from the live oracle"
    );
    assert_eq!(
        recovered.instance().canonical_form(),
        oracle.instance().canonical_form()
    );
    assert_eq!(
        recovered.instance().necs().canonical_snapshot(),
        oracle.instance().necs().canonical_snapshot()
    );
}

/// What a clean (fault-free) journaled run of the stream produces.
struct DryRun {
    /// The accepted ops, as the journal recorded them.
    oracle_ops: Vec<JournalOp>,
    /// Byte length of every append (index 0 is header+genesis).
    append_sizes: Vec<usize>,
    /// The full durable journal image.
    clean_bytes: Vec<u8>,
}

fn dry_run(w: &Workload, enforcement: Enforcement, stream: &[UpdateOp]) -> DryRun {
    let faulty = FaultyStorage::new(MemStorage::new(), vec![]);
    let mut writer = writer(w, enforcement, faulty, 1);
    let mut live: Vec<_> = writer.db().instance().row_ids().collect();
    for op in stream {
        stage_op(&mut writer, &mut live, op).expect("no faults scheduled");
    }
    let (_, journal) = writer.into_parts();
    let faulty = journal.into_storage();
    let append_sizes = faulty.append_sizes().to_vec();
    let mut clean_bytes = Vec::new();
    let mut mem = faulty.into_inner().crash();
    mem.read_all(&mut clean_bytes).unwrap();
    let recovered = Journal::recover(mem).expect("clean journal recovers");
    assert!(recovered.torn.is_none());
    DryRun {
        oracle_ops: recovered.ops,
        append_sizes,
        clean_bytes,
    }
}

/// Runs the stream against a faulty journal, crashes, recovers, and
/// checks the recovered database equals the live oracle for the first
/// `expected_ops` accepted ops. `make_tail_durable` models an OS that
/// flushed a torn append's prefix before the power was cut.
fn crash_and_verify(
    w: &Workload,
    enforcement: Enforcement,
    stream: &[UpdateOp],
    dry: &DryRun,
    plan: Vec<Fault>,
    expected_ops: usize,
    make_tail_durable: bool,
) {
    let faulty = FaultyStorage::new(MemStorage::new(), plan.clone());
    let mut writer = writer(w, enforcement, faulty, 1);
    let mut live: Vec<_> = writer.db().instance().row_ids().collect();
    for op in stream {
        if stage_op(&mut writer, &mut live, op).is_err() {
            break; // the fault fired; the writer is poisoned
        }
    }
    let (_, journal) = writer.into_parts();
    let mut inner = journal.into_storage().into_inner();
    if make_tail_durable {
        // everything before the torn append was already synced; this
        // flushes only the torn prefix — the short-write crash model
        inner.sync().unwrap();
    }
    let recovered = Journal::recover(inner.crash())
        .unwrap_or_else(|e| panic!("recovery failed under plan {plan:?}: {e}"));
    assert_eq!(
        recovered.ops.len(),
        expected_ops,
        "plan {plan:?} must leave exactly the fully-synced op prefix"
    );
    assert_eq!(&recovered.ops[..], &dry.oracle_ops[..expected_ops]);
    let mut oracle = base_db(w, enforcement);
    for op in &dry.oracle_ops[..expected_ops] {
        oracle_apply(&mut oracle, op);
    }
    assert_same_db(&recovered.db, &oracle);
    // recovery is idempotent: a second pass over the (possibly
    // truncated) storage lands on the same database
    let again = Journal::recover(recovered.journal.into_storage()).unwrap();
    assert!(
        again.torn.is_none(),
        "first recovery's truncation is durable"
    );
    assert_same_db(&again.db, &oracle);
}

/// Record start offsets of a clean journal image, in order.
fn record_offsets(clean: &[u8]) -> Vec<u64> {
    let mut scanner = Scanner::new(&clean[FILE_HEADER.len()..], FILE_HEADER.len() as u64);
    let mut offsets = Vec::new();
    while let Some(item) = scanner.next() {
        match item {
            Scanned::Record { offset, .. } => offsets.push(offset),
            other => panic!("clean journal must scan clean, got {other:?}"),
        }
    }
    offsets
}

/// Exhaustive sweep: one fixed stream, every crash point, every timing
/// mode, and one bit flip in every byte of the journal image.
#[test]
fn crash_matrix_exhaustive_small_stream() {
    let w = satisfiable_workload(0xD15C, &spec(8), 2);
    let enforcement = Enforcement::Weak;
    let stream = update_stream(0x5EED, &spec(8), w.instance.len(), 14, mix());
    let dry = dry_run(&w, enforcement, &stream);
    let appends = dry.append_sizes.len();
    assert!(appends > 3, "stream too rejective to exercise the matrix");

    for k in 1..=appends {
        // ops with append index < k are durable (each is a synced
        // batch of one)
        let expected = k - 1;
        // fail the k-th append outright: nothing of op k-1 lands
        crash_and_verify(
            &w,
            enforcement,
            &stream,
            &dry,
            vec![Fault::FailWrite { write: k }],
            expected.min(dry.oracle_ops.len()),
            false,
        );
        // fail the k-th sync: op k-1 appended but never durable
        crash_and_verify(
            &w,
            enforcement,
            &stream,
            &dry,
            vec![Fault::FailSync { sync: k }],
            expected.min(dry.oracle_ops.len()),
            false,
        );
        // tear the k-th append mid-record, prefix flushed to disk
        if k < appends {
            for keep in [1, dry.append_sizes[k] / 2, dry.append_sizes[k] - 1] {
                crash_and_verify(
                    &w,
                    enforcement,
                    &stream,
                    &dry,
                    vec![Fault::ShortWrite { write: k, keep }],
                    expected,
                    true,
                );
            }
        }
    }
}

/// Every single-bit flip in the journal image is caught: header flips
/// are `BadHeader`, record flips are `Corrupt` at exactly the damaged
/// record's byte offset. Never a torn-tail misclassification, never a
/// successfully-but-wrongly recovered database.
#[test]
fn bit_flips_are_always_typed_corruption() {
    let w = satisfiable_workload(0xF11B, &spec(6), 2);
    let enforcement = Enforcement::Weak;
    let stream = update_stream(0xB175, &spec(6), w.instance.len(), 10, mix());
    let dry = dry_run(&w, enforcement, &stream);
    let offsets = record_offsets(&dry.clean_bytes);
    for byte in 0..dry.clean_bytes.len() {
        let bit = (byte % 8) as u8;
        let mut damaged = dry.clean_bytes.clone();
        damaged[byte] ^= 1 << bit;
        let err = Journal::recover(MemStorage::from_bytes(damaged))
            .expect_err("a flipped bit must never recover silently");
        if byte < FILE_HEADER.len() {
            assert_eq!(err, RecoverError::BadHeader, "flip in byte {byte}");
        } else {
            let expected = *offsets
                .iter()
                .rev()
                .find(|&&o| o <= byte as u64)
                .expect("every journal byte belongs to a record");
            assert_eq!(
                err,
                RecoverError::Corrupt { offset: expected },
                "flip in byte {byte} must name its record"
            );
        }
    }
}

/// Truncating a clean journal at any record boundary recovers cleanly
/// to exactly the ops before the cut — the "crash right after a sync"
/// line of the matrix, including the empty-tail and genesis-only edges.
/// The last cut is the whole clean image: recovery rebuilds the live
/// oracle bit for bit, at whatever `FDI_THREADS` the suite runs under.
#[test]
fn exact_record_boundary_cuts_recover_the_prefix() {
    let w = satisfiable_workload(0xB0DA, &spec(8), 2);
    let enforcement = Enforcement::Weak;
    let stream = update_stream(0xCAFE, &spec(8), w.instance.len(), 12, mix());
    let dry = dry_run(&w, enforcement, &stream);
    let mut boundaries = record_offsets(&dry.clean_bytes);
    boundaries.push(dry.clean_bytes.len() as u64);
    // boundaries[0] is the genesis record; cutting there leaves a bare
    // header — NoGenesis, not a recoverable journal
    assert_eq!(boundaries[0], FILE_HEADER.len() as u64);
    let bare = dry.clean_bytes[..FILE_HEADER.len()].to_vec();
    assert_eq!(
        Journal::recover(MemStorage::from_bytes(bare)).unwrap_err(),
        RecoverError::NoGenesis
    );
    for (i, &cut) in boundaries.iter().enumerate().skip(1) {
        let prefix = dry.clean_bytes[..cut as usize].to_vec();
        let recovered = Journal::recover(MemStorage::from_bytes(prefix)).unwrap();
        assert!(recovered.torn.is_none(), "a boundary cut is not a tear");
        let expected = i - 1; // records before the cut, minus genesis
        assert_eq!(recovered.ops.len(), expected);
        let mut oracle = base_db(&w, enforcement);
        for op in &dry.oracle_ops[..expected] {
            oracle_apply(&mut oracle, op);
        }
        assert_same_db(&recovered.db, &oracle);
    }
}

/// Checkpoints mid-stream, the offline way `fdi checkpoint` takes:
/// unwrap the writer, [`Journal::checkpoint`], resume. A successful
/// checkpoint absorbs the prefix into a new genesis (recovery replays
/// only the tail); a checkpoint whose atomic replace fails leaves the
/// old journal complete and usable — crash-before-rename loses nothing.
#[test]
fn checkpoint_bounds_replay_and_fails_safe() {
    let w = satisfiable_workload(0xC4EC, &spec(8), 2);
    let enforcement = Enforcement::Weak;
    let stream = update_stream(0x6A77, &spec(8), w.instance.len(), 16, mix());
    let (head, tail) = stream.split_at(8);

    for fail_replace in [false, true] {
        let plan = if fail_replace {
            vec![Fault::FailReplace { replace: 0 }]
        } else {
            vec![]
        };
        let faulty = FaultyStorage::new(MemStorage::new(), plan);
        let mut writer = writer(&w, enforcement, faulty, 1);
        let mut live: Vec<_> = writer.db().instance().row_ids().collect();
        let mut head_accepted = 0usize;
        for op in head {
            if stage_op(&mut writer, &mut live, op).unwrap() {
                head_accepted += 1;
            }
        }
        let (db, mut journal) = writer.into_parts();
        let checkpoint = journal.checkpoint(&db);
        assert_eq!(checkpoint.is_err(), fail_replace);
        // a failed checkpoint leaves a journal the tail can extend
        let cfg = ServeConfig { max_batch: 1 };
        let (mut writer, _reader) = Writer::resume(db, journal, head_accepted as u64, cfg);
        let mut tail_accepted = 0usize;
        for op in tail {
            if stage_op(&mut writer, &mut live, op).unwrap() {
                tail_accepted += 1;
            }
        }
        let (live_db, journal) = writer.into_parts();
        let recovered = Journal::recover(journal.into_storage().into_inner().crash()).unwrap();
        let expected_replayed = if fail_replace {
            head_accepted + tail_accepted // old journal: every op
        } else {
            tail_accepted // new genesis: only the tail
        };
        assert_eq!(recovered.ops.len(), expected_replayed);
        // content-level equality against the live process: rejected ops
        // legitimately leave null-allocator residue in the live database
        // (rejection is content-traceless, not allocator-traceless), so
        // the comparison is canonical form + markless tableau, not raw
        // mark ids —
        // the bit-identical invariant lives in the replay-oracle matrix
        assert_eq!(
            recovered.db.instance().canonical_form(),
            live_db.instance().canonical_form()
        );
        assert_eq!(
            recovered.db.instance().render(false),
            live_db.instance().render(false)
        );
    }
}

/// Runs the stream with automatic commits off, publishing every
/// `batch` accepted ops (the serving layer's commit cadence) and once
/// more at stream end, against a fault plan. Returns the storage, the
/// successful commits as `(append index, cumulative accepted ops)`, and
/// the total accepted count. A failed commit poisons the writer and
/// ends the run — exactly the crashed-server shape.
fn run_group_commit(
    w: &Workload,
    enforcement: Enforcement,
    stream: &[UpdateOp],
    batch: usize,
    plan: Vec<Fault>,
) -> (FaultyStorage<MemStorage>, Vec<(usize, usize)>, usize) {
    let faulty = FaultyStorage::new(MemStorage::new(), plan);
    // auto-commit off: the cadence below is the only commit source
    let mut writer = writer(w, enforcement, faulty, usize::MAX);
    let mut live: Vec<_> = writer.db().instance().row_ids().collect();
    // append 0 is header + genesis; each commit is one more append
    let mut commits: Vec<(usize, usize)> = Vec::new();
    let mut accepted = 0usize;
    let mut committed = 0usize;
    let mut failed = false;
    for op in stream {
        if stage_op(&mut writer, &mut live, op).expect("ops touch no storage before publish") {
            accepted += 1;
        }
        if accepted - committed >= batch {
            if writer.publish().is_err() {
                failed = true;
                break;
            }
            committed = accepted;
            commits.push((commits.len() + 1, committed));
        }
    }
    if !failed && accepted > committed && writer.publish().is_ok() {
        commits.push((commits.len() + 1, accepted));
    }
    let (_, journal) = writer.into_parts();
    (journal.into_storage(), commits, accepted)
}

/// Crashes a group-commit run's storage and checks recovery lands on
/// exactly `expected` ops — the last fully-synced batch boundary —
/// equal to the accepted-op replay oracle, bit-identically.
fn group_verify(
    w: &Workload,
    enforcement: Enforcement,
    dry_ops: &[JournalOp],
    storage: FaultyStorage<MemStorage>,
    expected: usize,
    make_tail_durable: bool,
) {
    let mut inner = storage.into_inner();
    if make_tail_durable {
        inner.sync().unwrap();
    }
    let recovered = Journal::recover(inner.crash()).expect("group-commit crashes recover cleanly");
    assert_eq!(
        recovered.ops.len(),
        expected,
        "recovery must land on the last fully-synced batch boundary — never a partial batch"
    );
    assert_eq!(&recovered.ops[..], &dry_ops[..expected]);
    let mut oracle = base_db(w, enforcement);
    for op in &dry_ops[..expected] {
        oracle_apply(&mut oracle, op);
    }
    assert_same_db(&recovered.db, &oracle);
}

/// The serving crash matrix: for every batch record of a group-commit
/// run, fail its write, fail its sync, and tear it mid-write with the
/// torn prefix flushed to disk. Recovery must always restore exactly
/// the previous batch boundary — a torn batch record is dropped whole,
/// so a partial batch is unobservable even when most of it hit disk.
#[test]
fn group_commit_crash_matrix_lands_on_batch_boundaries() {
    let w = satisfiable_workload(0x6B0B, &spec(8), 2);
    let enforcement = Enforcement::Weak;
    let stream = update_stream(0x6B0C, &spec(8), w.instance.len(), 18, mix());
    for batch in [1usize, 3, 5] {
        let (dry_storage, dry_commits, dry_accepted) =
            run_group_commit(&w, enforcement, &stream, batch, vec![]);
        assert!(
            dry_commits.len() > 1,
            "batch {batch}: stream too rejective to exercise the matrix"
        );
        let dry_sizes = dry_storage.append_sizes().to_vec();
        let dry = Journal::recover(dry_storage.into_inner().crash()).unwrap();
        assert!(dry.torn.is_none());
        assert_eq!(
            dry.ops.len(),
            dry_accepted,
            "a clean run makes every accepted op durable"
        );
        assert_eq!(dry_commits.last().unwrap().1, dry_accepted);

        for (i, &(append_idx, _)) in dry_commits.iter().enumerate() {
            let expected = if i == 0 { 0 } else { dry_commits[i - 1].1 };
            // the whole batch record never lands
            let (storage, commits, _) = run_group_commit(
                &w,
                enforcement,
                &stream,
                batch,
                vec![Fault::FailWrite { write: append_idx }],
            );
            assert_eq!(commits.last().map_or(0, |c| c.1), expected);
            group_verify(&w, enforcement, &dry.ops, storage, expected, false);
            // the batch record lands in the page cache but never syncs
            let (storage, _, _) = run_group_commit(
                &w,
                enforcement,
                &stream,
                batch,
                vec![Fault::FailSync { sync: append_idx }],
            );
            group_verify(&w, enforcement, &dry.ops, storage, expected, false);
            // the batch record tears mid-write, torn prefix flushed
            let size = dry_sizes[append_idx];
            for keep in [1, size / 2, size - 1] {
                let (storage, _, _) = run_group_commit(
                    &w,
                    enforcement,
                    &stream,
                    batch,
                    vec![Fault::ShortWrite {
                        write: append_idx,
                        keep,
                    }],
                );
                group_verify(&w, enforcement, &dry.ops, storage, expected, true);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The randomized matrix: arbitrary streams and policies, one fault
    /// drawn per case, recovery equals the longest fully-synced prefix.
    #[test]
    fn crash_matrix_random_streams(
        seed in 0u64..1 << 32,
        rows in 0usize..16,
        ops in 1usize..28,
        mode in 0u8..3,
        raw_k in 0usize..64,
        raw_keep in 0usize..4096,
        strong in 0u8..2,
    ) {
        let enforcement = if strong == 1 { Enforcement::Strong } else { Enforcement::Weak };
        // a complete classically-satisfying base is strongly satisfied,
        // so it seeds either notion; the stream still carries nulls
        let base_nulls = if strong == 1 { 0.0 } else { 0.25 };
        let w = satisfiable_workload(seed, &spec_with_nulls(rows, base_nulls), 2);
        let stream = update_stream(seed ^ 0xD00D, &spec(rows), w.instance.len(), ops, mix());
        let dry = dry_run(&w, enforcement, &stream);
        let appends = dry.append_sizes.len();
        prop_assume!(appends > 1); // need at least one accepted op to crash on
        let k = 1 + raw_k % (appends - 1);
        let expected = k - 1;
        match mode {
            0 => crash_and_verify(&w, enforcement, &stream, &dry,
                vec![Fault::FailWrite { write: k }], expected, false),
            1 => crash_and_verify(&w, enforcement, &stream, &dry,
                vec![Fault::FailSync { sync: k }], expected, false),
            _ => {
                let keep = raw_keep % dry.append_sizes[k];
                crash_and_verify(&w, enforcement, &stream, &dry,
                    vec![Fault::ShortWrite { write: k, keep }], expected, true);
            }
        }
    }

    /// Randomized flips: any damaged byte in any journal image is a
    /// typed error at the damaged record's offset.
    #[test]
    fn random_bit_flips_never_recover_silently(
        seed in 0u64..1 << 32,
        rows in 0usize..12,
        ops in 1usize..20,
        raw_offset in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let enforcement = Enforcement::Weak;
        let w = satisfiable_workload(seed, &spec(rows), 2);
        let stream = update_stream(seed ^ 0xF1F1, &spec(rows), w.instance.len(), ops, mix());
        let dry = dry_run(&w, enforcement, &stream);
        let byte = raw_offset % dry.clean_bytes.len();
        let mut damaged = dry.clean_bytes.clone();
        damaged[byte] ^= 1 << bit;
        let err = Journal::recover(MemStorage::from_bytes(damaged)).unwrap_err();
        if byte < FILE_HEADER.len() {
            prop_assert_eq!(err, RecoverError::BadHeader);
        } else {
            let offsets = record_offsets(&dry.clean_bytes);
            let expected = *offsets.iter().rev().find(|&&o| o <= byte as u64).unwrap();
            prop_assert_eq!(err, RecoverError::Corrupt { offset: expected });
        }
    }

    /// Randomized group-commit crashes: any fault on any batch record
    /// under any commit cadence recovers to exactly the previous batch
    /// boundary — the randomized half of the serving crash matrix.
    #[test]
    fn group_commit_random_crashes_land_on_boundaries(
        seed in 0u64..1 << 32,
        rows in 0usize..12,
        ops in 1usize..24,
        batch in 1usize..6,
        mode in 0u8..3,
        raw_k in 0usize..32,
        raw_keep in 0usize..4096,
    ) {
        let enforcement = Enforcement::Weak;
        let w = satisfiable_workload(seed, &spec(rows), 2);
        let stream = update_stream(seed ^ 0x66CC, &spec(rows), w.instance.len(), ops, mix());
        let (dry_storage, dry_commits, _) = run_group_commit(&w, enforcement, &stream, batch, vec![]);
        prop_assume!(!dry_commits.is_empty());
        let dry_sizes = dry_storage.append_sizes().to_vec();
        let dry = Journal::recover(dry_storage.into_inner().crash()).unwrap();
        let i = raw_k % dry_commits.len();
        let (append_idx, _) = dry_commits[i];
        let expected = if i == 0 { 0 } else { dry_commits[i - 1].1 };
        match mode {
            0 => {
                let (storage, _, _) = run_group_commit(&w, enforcement, &stream, batch,
                    vec![Fault::FailWrite { write: append_idx }]);
                group_verify(&w, enforcement, &dry.ops, storage, expected, false);
            }
            1 => {
                let (storage, _, _) = run_group_commit(&w, enforcement, &stream, batch,
                    vec![Fault::FailSync { sync: append_idx }]);
                group_verify(&w, enforcement, &dry.ops, storage, expected, false);
            }
            _ => {
                let keep = raw_keep % dry_sizes[append_idx];
                let (storage, _, _) = run_group_commit(&w, enforcement, &stream, batch,
                    vec![Fault::ShortWrite { write: append_idx, keep }]);
                group_verify(&w, enforcement, &dry.ops, storage, expected, true);
            }
        }
    }
}
