//! The serving concurrency suite: concurrent readers against a live
//! writer must never observe a torn or FD-violating epoch, every
//! observed snapshot must be one the writer actually published, every
//! published epoch must equal a **sequential replay of its accepted-op
//! prefix** (checked bit-identically by fingerprint against an oracle),
//! and the epoch sequence must not depend on the thread count or on how
//! many readers are hammering the publication cell.
//!
//! The suite drives real OS threads: reader threads snapshot in a tight
//! loop while the writer stages, group-commits, and publishes batches
//! of a generated update stream. Readers assert per-handle monotonicity
//! and, for every *newly seen* epoch, full internal consistency
//! (instance vs published fingerprint, weak satisfiability, sharded
//! select vs sequential select); the main thread then checks every observed stamp against
//! the publication log and replays the log against the oracle.

use fd_incomplete::core::chase;
use fd_incomplete::core::query;
use fd_incomplete::core::update::{Database, Enforcement};
use fd_incomplete::gen::{
    satisfiable_workload, scaling_query, update_stream, UpdateMix, UpdateOp, WorkloadSpec,
};
use fd_incomplete::serve::{Epoch, EpochStamp, Reader, ServeConfig, ServeOp, Staged, Writer};
use fd_incomplete::store::{Journal, MemStorage};
use fdi_exec::Executor;
use fdi_obs::Recorder;
use fdi_relation::rowid::RowId;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const ATTRS: usize = 3;

fn spec(rows: usize) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: ATTRS,
        domain: 5,
        null_density: 0.2,
        nec_density: 0.2,
        collision_rate: 0.4,
    }
}

fn mix() -> UpdateMix {
    UpdateMix {
        resolve: 2,
        ..UpdateMix::default()
    }
}

/// A weakly-enforcing database over a guaranteed-satisfiable base —
/// deterministic in `seed`, so calling this twice yields bit-identical
/// twins (one to serve, one to replay the oracle on).
fn base_db(seed: u64, rows: usize) -> Database {
    let w = satisfiable_workload(seed, &spec(rows), 2);
    Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Weak).expect("satisfiable base")
}

/// The epoch fingerprint, recomputed independently of the serving
/// layer: CRC-32 of the instance's exact encoded state.
fn fingerprint_of(db: &Database) -> u64 {
    let mut state = Vec::new();
    db.instance().encode_state(&mut state);
    fd_incomplete::store::crc::crc32(&state) as u64
}

/// Resolves a stream op's positional row reference to a concrete
/// [`ServeOp`] through the live-row tracker (out-of-range positions —
/// possible once a rejecting policy bounced an insert — resolve to
/// `None` and are skipped, mirroring `fdi_gen::apply_op`).
fn resolve_op(op: &UpdateOp, live: &[RowId]) -> Option<ServeOp> {
    match op {
        UpdateOp::Insert(tokens) => Some(ServeOp::Insert(tokens.clone())),
        UpdateOp::Delete(pos) => live.get(*pos).copied().map(ServeOp::Delete),
        UpdateOp::Modify { row, attr, token } => {
            live.get(*row).copied().map(|id| ServeOp::Modify {
                row: id,
                attr: *attr,
                token: token.clone(),
            })
        }
        UpdateOp::ResolveNull { row, attr, token } => {
            live.get(*row).copied().map(|id| ServeOp::ResolveNull {
                row: id,
                attr: *attr,
                token: token.clone(),
            })
        }
    }
}

/// Applies one compaction remap to the tracker.
fn remap(live: &mut [RowId], moved: &[(RowId, RowId)]) {
    for id in live.iter_mut() {
        if let Some((_, new)) = moved.iter().find(|(old, _)| old == id) {
            *id = *new;
        }
    }
}

/// Stages the stream in publish-batches of `batch`, maintaining the
/// positional tracker. Returns the **attempted** resolved ops of each
/// batch paired with whether the database accepted them — the material
/// both oracles consume — plus the epoch each publish produced. One
/// epoch is published per batch (empty publishes included).
#[allow(clippy::type_complexity)]
fn stage_stream(
    writer: &mut Writer<MemStorage>,
    live: &mut Vec<RowId>,
    stream: &[UpdateOp],
    batch: usize,
) -> (Vec<Vec<(ServeOp, bool)>>, Vec<Arc<Epoch>>) {
    let mut attempted_batches = Vec::new();
    let mut epochs = Vec::new();
    for chunk in stream.chunks(batch) {
        let mut attempted = Vec::new();
        for op in chunk {
            let Some(resolved) = resolve_op(op, live) else {
                continue;
            };
            let accepted = match writer.stage(&resolved).expect("no faults scheduled") {
                Staged::Applied(outcome) => {
                    match (&resolved, op) {
                        (ServeOp::Insert(_), _) => live.push(outcome.row),
                        (ServeOp::Delete(_), UpdateOp::Delete(pos)) => {
                            live.remove(*pos);
                        }
                        _ => {}
                    }
                    true
                }
                Staged::Compacted(moved) => {
                    remap(live, &moved);
                    true
                }
                Staged::Rejected(_) => false,
            };
            attempted.push((resolved, accepted));
        }
        epochs.push(writer.publish().expect("publish"));
        attempted_batches.push(attempted);
    }
    (attempted_batches, epochs)
}

/// Applies one resolved op to an oracle database, returning whether the
/// oracle accepted it.
fn oracle_apply(db: &mut Database, op: &ServeOp) -> bool {
    match op {
        ServeOp::Insert(tokens) => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            db.insert(&refs).is_ok()
        }
        ServeOp::Delete(row) => db.delete(*row).is_ok(),
        ServeOp::Modify { row, attr, token } => db.modify(*row, *attr, token).is_ok(),
        ServeOp::ResolveNull { row, attr, token } => db.resolve_null(*row, *attr, token).is_ok(),
        ServeOp::Compact => {
            db.compact();
            true
        }
    }
}

/// Checks the publication log against a sequential replay of the
/// **attempted** batches on a twin of the initial database: the twin
/// must make the same per-op acceptance decisions, and stamp `k+1` must
/// carry the cumulative accepted-op count and the twin's bit-exact
/// fingerprint after batch `k` (the twin re-lives the same rejections,
/// so even the null-allocator residue rejections leave behind matches).
/// Returns the twin in its final state.
fn assert_log_replays(
    initial: Database,
    published: &[EpochStamp],
    attempted_batches: &[Vec<(ServeOp, bool)>],
) -> Database {
    let mut oracle = initial;
    assert_eq!(published.len(), attempted_batches.len() + 1);
    assert_eq!(published[0].ops_applied, 0);
    assert_eq!(published[0].fingerprint, fingerprint_of(&oracle));
    let mut total = 0u64;
    for (k, batch) in attempted_batches.iter().enumerate() {
        for (op, was_accepted) in batch {
            let accepted = oracle_apply(&mut oracle, op);
            assert_eq!(
                accepted, *was_accepted,
                "batch {k}: oracle acceptance diverged on {op:?}"
            );
            if accepted {
                total += 1;
            }
        }
        assert_eq!(published[k + 1].ops_applied, total, "batch {k}");
        assert_eq!(
            published[k + 1].fingerprint,
            fingerprint_of(&oracle),
            "batch {k}: the published epoch is not the sequential replay of its op prefix"
        );
    }
    oracle
}

/// Content-level form of the contract: the **accepted subsequence
/// alone** reproduces every published epoch. Rejections are
/// content-traceless but advance the writer's null allocator, so the
/// comparison is canonical form and markless tableau — the same
/// currency the store layer uses for live-vs-replay equality.
fn assert_accepted_subsequence_reproduces(
    initial: Database,
    attempted_batches: &[Vec<(ServeOp, bool)>],
    epochs: &[Arc<Epoch>],
) {
    let mut content = initial;
    assert_eq!(attempted_batches.len(), epochs.len());
    for (k, (batch, epoch)) in attempted_batches.iter().zip(epochs.iter()).enumerate() {
        for (op, was_accepted) in batch {
            if *was_accepted {
                assert!(
                    oracle_apply(&mut content, op),
                    "batch {k}: accepted op {op:?} bounced on the accepted-only replay"
                );
            }
        }
        assert_eq!(
            epoch.db().instance().canonical_form(),
            content.instance().canonical_form(),
            "batch {k}"
        );
        assert_eq!(
            epoch.db().instance().render(false),
            content.instance().render(false),
            "batch {k}"
        );
    }
}

/// Spawns `count` reader threads hammering `reader` until `done`. Each
/// thread asserts per-handle monotonicity on every snapshot and, for
/// each *newly seen* epoch: the instance matches the fingerprint it was
/// published with (no torn epoch), the enforcement invariant holds
/// (no FD-violating epoch), and the sharded select equals the
/// sequential select on the shared snapshot. Returns the distinct
/// stamps each thread observed.
fn spawn_readers(
    reader: &Reader,
    count: usize,
    done: &Arc<AtomicBool>,
) -> Vec<thread::JoinHandle<Vec<EpochStamp>>> {
    (0..count)
        .map(|_| {
            let handle = reader.clone();
            let done = Arc::clone(done);
            thread::spawn(move || {
                let exec = Executor::with_threads(2);
                let mut last_seq = 0u64;
                let mut seen_seqs = HashSet::new();
                let mut seen = Vec::new();
                loop {
                    // read the flag *before* the snapshot so the final
                    // epoch published before `done` is still examined
                    let finished = done.load(Ordering::Acquire);
                    let epoch = handle.snapshot();
                    assert!(
                        epoch.seq() >= last_seq,
                        "epoch sequence went backwards: {} after {}",
                        epoch.seq(),
                        last_seq
                    );
                    last_seq = epoch.seq();
                    if seen_seqs.insert(epoch.seq()) {
                        seen.push(EpochStamp {
                            seq: epoch.seq(),
                            ops_applied: epoch.ops_applied(),
                            fingerprint: epoch.fingerprint(),
                        });
                        assert_eq!(
                            epoch.fingerprint(),
                            fingerprint_of(epoch.db()),
                            "epoch {} was observed with an instance that does not match its fingerprint",
                            epoch.seq()
                        );
                        assert!(
                            chase::weakly_satisfiable_via_chase(
                                epoch.db().fds(),
                                epoch.db().instance()
                            ),
                            "epoch {} was observed violating the enforcement invariant",
                            epoch.seq()
                        );
                        let q = scaling_query(epoch.db().instance());
                        let par = epoch
                            .select(&q, &exec, &Recorder::noop())
                            .expect("select on a snapshot");
                        let sequential =
                            query::select(&q, epoch.db().instance()).expect("sequential select");
                        assert_eq!(par, sequential, "epoch {}", epoch.seq());
                    }
                    if finished {
                        break;
                    }
                    thread::yield_now();
                }
                seen
            })
        })
        .collect()
}

/// The headline test: four reader threads against a live writer. No
/// observed epoch may be torn, FD-violating, or unpublished; the
/// publication log must replay; the final served state must equal the
/// oracle's.
#[test]
fn concurrent_readers_observe_only_published_batch_boundaries() {
    const SEED: u64 = 0x5E11;
    let db = base_db(SEED, 8);
    let mut live: Vec<RowId> = db.instance().row_ids().collect();
    let stream = update_stream(0xAB1E, &spec(8), live.len(), 80, mix());
    let (mut writer, reader) = Writer::create(
        db,
        MemStorage::new(),
        ServeConfig { max_batch: 4 },
        Executor::with_threads(2),
    )
    .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&reader, 4, &done);
    let (attempted, epochs) = stage_stream(&mut writer, &mut live, &stream, 5);
    done.store(true, Ordering::Release);

    let log: HashSet<EpochStamp> = writer.published_log().iter().copied().collect();
    for handle in readers {
        let seen = handle.join().expect("a reader thread panicked");
        assert!(!seen.is_empty(), "readers must observe at least one epoch");
        for stamp in seen {
            assert!(
                log.contains(&stamp),
                "a reader observed {stamp:?}, which was never published"
            );
        }
    }
    let oracle = assert_log_replays(base_db(SEED, 8), writer.published_log(), &attempted);
    assert_accepted_subsequence_reproduces(base_db(SEED, 8), &attempted, &epochs);
    assert_eq!(
        writer.db().instance().render(true),
        oracle.instance().render(true),
        "final served state diverged from the sequential oracle"
    );
    assert_eq!(
        reader.snapshot().fingerprint(),
        writer.published_log().last().unwrap().fingerprint
    );
}

/// Determinism across the grid: the same op stream produces the same
/// publication log — same seqs, same op counts, same fingerprints — at
/// every thread count and whether 0 or 3 readers are hammering the
/// cell. A mid-stream compaction exercises the remap path on every run.
#[test]
fn epoch_log_is_bit_identical_across_thread_and_reader_counts() {
    const SEED: u64 = 0xD0E;
    let rows = base_db(SEED, 6).instance().len();
    let stream = update_stream(0xFEED, &spec(6), rows, 48, mix());
    let (head, tail) = stream.split_at(24);
    let mut logs: Vec<(usize, usize, Vec<EpochStamp>)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for readers in [0usize, 3] {
            let db = base_db(SEED, 6);
            let mut live: Vec<RowId> = db.instance().row_ids().collect();
            let (mut writer, reader) = Writer::create(
                db,
                MemStorage::new(),
                ServeConfig { max_batch: 6 },
                Executor::with_threads(threads),
            )
            .unwrap();
            let done = Arc::new(AtomicBool::new(false));
            let handles = spawn_readers(&reader, readers, &done);
            stage_stream(&mut writer, &mut live, head, 6);
            match writer.stage(&ServeOp::Compact).unwrap() {
                Staged::Compacted(moved) => remap(&mut live, &moved),
                other => panic!("compaction must be accepted, got {other:?}"),
            }
            writer.publish().unwrap();
            stage_stream(&mut writer, &mut live, tail, 6);
            done.store(true, Ordering::Release);
            for h in handles {
                h.join().expect("a reader thread panicked");
            }
            logs.push((threads, readers, writer.published_log().to_vec()));
        }
    }
    let (_, _, reference) = &logs[0];
    for (threads, readers, log) in &logs[1..] {
        assert_eq!(
            log, reference,
            "publication log diverged at threads={threads} readers={readers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized contract check: arbitrary streams, publish cadences,
    /// and group-commit widths. Every published epoch replays; a crash
    /// with staged-but-unpublished work recovers to exactly the last
    /// fully-synced batch boundary (the last published epoch plus any
    /// whole auto-committed groups — never a partial batch).
    #[test]
    fn random_streams_publish_replayable_epochs(
        seed in 0u64..1 << 32,
        rows in 0usize..10,
        ops in 1usize..32,
        batch in 1usize..7,
        max_batch in 1usize..9,
    ) {
        let db = base_db(seed, rows);
        let mut live: Vec<RowId> = db.instance().row_ids().collect();
        let stream = update_stream(seed ^ 0x517E, &spec(rows), live.len(), ops, mix());
        let (mut writer, _reader) = Writer::create(
            db,
            MemStorage::new(),
            ServeConfig { max_batch },
            Executor::with_threads(2),
        ).unwrap();
        let (attempted, epochs) = stage_stream(&mut writer, &mut live, &stream, batch);
        let published = writer.published_log().to_vec();
        assert_log_replays(base_db(seed, rows), &published, &attempted);

        // stage an insert-only suffix past the last publication, then
        // crash: whole groups of `max_batch` ops auto-committed durably,
        // the remainder is the pending (lost) batch
        let suffix = update_stream(
            seed ^ 0xDEAD,
            &spec(rows),
            live.len(),
            5,
            UpdateMix { insert: 1, delete: 0, modify: 0, resolve: 0 },
        );
        let mut accepted_suffix = Vec::new();
        for op in &suffix {
            let resolved = resolve_op(op, &live).expect("inserts always resolve");
            if let Staged::Applied(outcome) = writer.stage(&resolved).unwrap() {
                live.push(outcome.row);
                accepted_suffix.push(resolved);
            }
        }
        let last = *published.last().unwrap();
        let storage = writer.into_parts().1.into_storage().crash();
        let recovered = Journal::recover(storage).unwrap();
        let (rewriter, rereader) = Writer::resume(
            recovered.db,
            recovered.journal,
            recovered.ops.len() as u64,
            ServeConfig::default(),
        );

        // recovery = genesis + the journaled (accepted) ops up to the
        // last synced boundary: replay exactly those on a fresh twin
        let durable_suffix = (accepted_suffix.len() / max_batch) * max_batch;
        let mut journal_oracle = base_db(seed, rows);
        for batch_ops in &attempted {
            for (op, was_accepted) in batch_ops {
                if *was_accepted {
                    prop_assert!(oracle_apply(&mut journal_oracle, op));
                }
            }
        }
        for op in &accepted_suffix[..durable_suffix] {
            prop_assert!(oracle_apply(&mut journal_oracle, op));
        }
        let epoch = rereader.snapshot();
        prop_assert_eq!(epoch.ops_applied(), last.ops_applied + durable_suffix as u64);
        prop_assert_eq!(rewriter.ops_applied(), last.ops_applied + durable_suffix as u64);
        prop_assert_eq!(epoch.fingerprint(), fingerprint_of(&journal_oracle));
        // and content-wise, when no whole group auto-committed, that is
        // exactly the last *published* epoch
        if durable_suffix == 0 {
            prop_assert_eq!(
                epoch.db().instance().canonical_form(),
                epochs.last().unwrap().db().instance().canonical_form()
            );
        }
    }
}
