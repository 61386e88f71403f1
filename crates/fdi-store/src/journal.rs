//! The op journal: one batch record per group commit, genesis-anchored.
//!
//! A journal's first record is the **genesis**: the schema, the FD set,
//! the database's [`Enforcement`] (written as two policy bytes: the
//! enforcement tag, then an acquisition flag that is 1 exactly under
//! weak enforcement), and an exact [`Instance`] state snapshot
//! (symbol table, null allocator, NEC forest, slots, free list — see
//! [`Instance::encode_state`]). Every later record is a **batch**: the
//! accepted mutations of one group commit, in order
//! ([`Journal::append_batch`]). Because update execution is
//! deterministic at every thread count, replaying the ops onto the
//! genesis database rebuilds the pre-crash database **bit-identically**
//! — same `RowId`s, same null ids, same NEC representation — which is
//! what lets recovery be verified against live oracles instead of
//! merely "looking right".
//!
//! Journals written before every write went through group commit also
//! hold **single-op records** (one bare op encoding per record).
//! Nothing writes them any more, but recovery still reads each one as a
//! batch of one, so those journals keep recovering.
//!
//! No record is longer than [`MAX_RECORD_LEN`]: [`frame`] refuses a
//! longer payload with [`StoreError::RecordTooLarge`] before a byte
//! reaches storage, so the journal never writes a record its own
//! recovery would call corrupt, and [`Batch::fits`] tells a writer when
//! to commit a batch early so that it never meets that refusal.
//!
//! [`Journal::checkpoint`] re-anchors: it atomically replaces the whole
//! journal with a fresh genesis snapshot of the current database,
//! bounding replay time by the number of ops since the last checkpoint.
//!
//! Recovery ([`Journal::recover`]) classifies damage exactly (see
//! [`crate::record`] for the soundness argument):
//!
//! * a torn final record → truncated in place, recovery succeeds and
//!   reports the [`TornTail`];
//! * mid-log corruption → [`RecoverError::Corrupt`] naming the byte
//!   offset — never a panic, never a silently wrong database.

use crate::record::{frame, Scanned, Scanner, FILE_HEADER, MAX_RECORD_LEN};
use crate::storage::{Storage, StoreError};
use fdi_core::update::{Database, Enforcement};
use fdi_core::{Fd, FdSet};
use fdi_relation::rowid::RowId;
use fdi_relation::serial::{self, Reader};
use fdi_relation::{AttrId, AttrSet, Instance, Schema};
use std::fmt;
use std::sync::Arc;

/// One journaled mutation. Ops carry the ids the live database assigned
/// (`Insert::row`, `Compact::moved`) so replay can *verify* determinism
/// instead of assuming it: a replay that allocates differently is a
/// detected error, not silent divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// An accepted insert and the row id it was assigned.
    Insert {
        /// Row id the live database allocated.
        row: RowId,
        /// The tokens as given (`-`, `?mark`, constants).
        tokens: Vec<String>,
    },
    /// An accepted delete.
    Delete {
        /// The deleted row.
        row: RowId,
    },
    /// An accepted single-cell modify.
    Modify {
        /// The modified row.
        row: RowId,
        /// The modified attribute.
        attr: AttrId,
        /// The new cell token.
        token: String,
    },
    /// An accepted null resolution (external acquisition).
    ResolveNull {
        /// Row of the resolved occurrence.
        row: RowId,
        /// Attribute of the resolved occurrence.
        attr: AttrId,
        /// The asserted constant.
        token: String,
    },
    /// A compaction and the exact `(old → new)` remap it performed.
    Compact {
        /// Every row that moved, as `(old, new)` pairs.
        moved: Vec<(RowId, RowId)>,
    },
}

const TAG_GENESIS: u8 = 0;
const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_MODIFY: u8 = 3;
const TAG_RESOLVE: u8 = 4;
const TAG_COMPACT: u8 = 5;
/// A group-committed batch: one record holding several ops. Because a
/// record is CRC-framed as a unit, a batch is durable **all or
/// nothing** — a crash mid-write tears the whole record and recovery
/// truncates it entirely, so no prefix of a batch can ever replay.
const TAG_BATCH: u8 = 6;

impl JournalOp {
    /// Serializes the op into a record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalOp::Insert { row, tokens } => {
                serial::put_u8(&mut out, TAG_INSERT);
                serial::put_u32(&mut out, row.0);
                serial::put_u32(&mut out, tokens.len() as u32);
                for t in tokens {
                    serial::put_str(&mut out, t);
                }
            }
            JournalOp::Delete { row } => {
                serial::put_u8(&mut out, TAG_DELETE);
                serial::put_u32(&mut out, row.0);
            }
            JournalOp::Modify { row, attr, token } => {
                serial::put_u8(&mut out, TAG_MODIFY);
                serial::put_u32(&mut out, row.0);
                serial::put_u32(&mut out, attr.0 as u32);
                serial::put_str(&mut out, token);
            }
            JournalOp::ResolveNull { row, attr, token } => {
                serial::put_u8(&mut out, TAG_RESOLVE);
                serial::put_u32(&mut out, row.0);
                serial::put_u32(&mut out, attr.0 as u32);
                serial::put_str(&mut out, token);
            }
            JournalOp::Compact { moved } => {
                serial::put_u8(&mut out, TAG_COMPACT);
                serial::put_u32(&mut out, moved.len() as u32);
                for &(old, new) in moved {
                    serial::put_u32(&mut out, old.0);
                    serial::put_u32(&mut out, new.0);
                }
            }
        }
        out
    }

    /// Decodes exactly one op without requiring the reader to be
    /// exhausted — batch records concatenate several op bodies.
    fn decode(r: &mut Reader<'_>) -> Result<JournalOp, serial::DecodeError> {
        let tag = r.u8()?;
        let op = match tag {
            TAG_INSERT => {
                let row = RowId(r.u32()?);
                let n = r.u32()? as usize;
                let mut tokens = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tokens.push(r.str()?.to_string());
                }
                JournalOp::Insert { row, tokens }
            }
            TAG_DELETE => JournalOp::Delete {
                row: RowId(r.u32()?),
            },
            TAG_MODIFY => JournalOp::Modify {
                row: RowId(r.u32()?),
                attr: decode_attr(r)?,
                token: r.str()?.to_string(),
            },
            TAG_RESOLVE => JournalOp::ResolveNull {
                row: RowId(r.u32()?),
                attr: decode_attr(r)?,
                token: r.str()?.to_string(),
            },
            TAG_COMPACT => {
                let n = r.u32()? as usize;
                let mut moved = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    moved.push((RowId(r.u32()?), RowId(r.u32()?)));
                }
                JournalOp::Compact { moved }
            }
            other => return Err(r.err(format!("unknown op tag {other}"))),
        };
        Ok(op)
    }
}

/// The ops of one group commit, encoded as the batch record that will
/// carry them: the batch tag, the op count, then each op's encoding
/// back to back (op encodings are self-delimiting, so no per-op length
/// prefix is needed). [`Batch::fits`] is the record-size decision: a
/// writer commits the batch early rather than let an op push its
/// payload past [`MAX_RECORD_LEN`], so a batch record never outgrows
/// the bound recovery accepts.
#[derive(Debug, Default)]
pub struct Batch {
    /// The record payload; empty until the first op joins.
    payload: Vec<u8>,
    /// Ops pushed, kept equal to the count field in `payload`.
    ops: u32,
}

impl Batch {
    /// Ops in the batch.
    pub fn len(&self) -> usize {
        self.ops as usize
    }

    /// `true` when no op has joined.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// `true` when `op` can join without pushing the payload past
    /// [`MAX_RECORD_LEN`]. An empty batch takes any op: one op whose own
    /// record is over the bound is refused when the batch is appended
    /// ([`StoreError::RecordTooLarge`]).
    pub fn fits(&self, op: &JournalOp) -> bool {
        self.is_empty() || self.payload.len() + op.encode().len() <= MAX_RECORD_LEN as usize
    }

    /// Adds `op` at the end of the batch.
    pub fn push(&mut self, op: &JournalOp) {
        if self.payload.is_empty() {
            serial::put_u8(&mut self.payload, TAG_BATCH);
            serial::put_u32(&mut self.payload, 0);
        }
        self.payload.extend_from_slice(&op.encode());
        self.ops += 1;
        // the count follows the one-byte batch tag
        self.payload[1..5].copy_from_slice(&self.ops.to_le_bytes());
    }
}

/// Decodes an op record into its ops, in order. A batch record expands
/// to its ops; a legacy single-op record (a bare op encoding, no batch
/// tag) is a batch of one.
fn decode_ops(payload: &[u8]) -> Result<Vec<JournalOp>, serial::DecodeError> {
    let mut r = Reader::new(payload);
    let ops = if payload.first() == Some(&TAG_BATCH) {
        r.u8()?;
        let count = r.u32()? as usize;
        let mut ops = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            ops.push(JournalOp::decode(&mut r)?);
        }
        ops
    } else {
        vec![JournalOp::decode(&mut r)?]
    };
    r.expect_end()?;
    Ok(ops)
}

fn decode_attr(r: &mut Reader<'_>) -> Result<AttrId, serial::DecodeError> {
    let raw = r.u32()?;
    if raw > u16::MAX as u32 {
        return Err(r.err(format!("attribute id {raw} out of range")));
    }
    Ok(AttrId(raw as u16))
}

/// Serializes the genesis payload: schema + FDs + policy bytes + exact
/// instance state.
fn genesis_payload(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    serial::put_u8(&mut out, TAG_GENESIS);
    let schema = db.instance().schema();
    serial::put_str(&mut out, schema.name());
    serial::put_u32(&mut out, schema.arity() as u32);
    for attr in schema.attrs() {
        serial::put_str(&mut out, &attr.name);
        match &attr.domain {
            fdi_relation::DomainSpec::Finite(values) => {
                serial::put_u8(&mut out, 0);
                serial::put_u32(&mut out, values.len() as u32);
                for v in values {
                    serial::put_str(&mut out, v);
                }
            }
            fdi_relation::DomainSpec::Unbounded => serial::put_u8(&mut out, 1),
        }
    }
    serial::put_u32(&mut out, db.fds().len() as u32);
    for fd in db.fds().iter() {
        serial::put_u64(&mut out, fd.lhs.0);
        serial::put_u64(&mut out, fd.rhs.0);
    }
    // The policy bytes: the enforcement tag, then the acquisition flag,
    // 1 exactly under weak enforcement, the only notion that acquires.
    let (tag, acquires) = match db.enforcement() {
        Enforcement::Strong => (0, 0),
        Enforcement::Weak => (1, 1),
        Enforcement::None => (2, 0),
    };
    serial::put_u8(&mut out, tag);
    serial::put_u8(&mut out, acquires);
    db.instance().encode_state(&mut out);
    out
}

/// The whole file image of a fresh journal anchored at `db`: the file
/// header, then the framed genesis record.
fn genesis_file(db: &Database) -> Result<Vec<u8>, StoreError> {
    let mut bytes = FILE_HEADER.to_vec();
    bytes.extend_from_slice(&frame(&genesis_payload(db))?);
    Ok(bytes)
}

/// Rebuilds the genesis database from the first record's payload, read
/// at byte `offset`.
fn decode_genesis(payload: &[u8], offset: u64) -> Result<Database, RecoverError> {
    let decode_err = |e: serial::DecodeError| RecoverError::Decode {
        offset,
        message: e.to_string(),
    };
    let r = &mut Reader::new(payload);
    let (schema, fds) = decode_schema(r).map_err(decode_err)?;
    // The policy bytes `genesis_payload` writes. Strong enforcement
    // never acquires, so either flag means the same database. Weak
    // enforcement without acquisition and load mode with it are retired
    // policies.
    let retired = |enforcement| RecoverError::RetiredPolicy {
        offset,
        enforcement,
    };
    let enforcement = match (r.u8().map_err(decode_err)?, r.u8().map_err(decode_err)?) {
        (0, 0 | 1) => Enforcement::Strong,
        (1, 1) => Enforcement::Weak,
        (2, 0) => Enforcement::None,
        (1, 0) => return Err(retired(Enforcement::Weak)),
        (2, 1) => return Err(retired(Enforcement::None)),
        (0..=2, flag) => return Err(decode_err(r.err(format!("bad acquisition flag {flag}")))),
        (tag, _) => return Err(decode_err(r.err(format!("unknown enforcement tag {tag}")))),
    };
    let instance = Instance::decode_state(schema, r).map_err(decode_err)?;
    r.expect_end().map_err(decode_err)?;
    Ok(Database::resume(instance, fds, enforcement))
}

/// Reads the genesis tag, the schema and the FD set.
fn decode_schema(r: &mut Reader<'_>) -> Result<(Arc<Schema>, FdSet), serial::DecodeError> {
    let tag = r.u8()?;
    if tag != TAG_GENESIS {
        return Err(r.err(format!("first record must be genesis, found op tag {tag}")));
    }
    let name = r.str()?.to_string();
    let arity = r.u32()? as usize;
    if arity > fdi_relation::attrs::ATTR_LIMIT {
        return Err(r.err(format!("arity {arity} exceeds the attribute limit")));
    }
    let mut builder = Schema::builder(name);
    for _ in 0..arity {
        let attr_name = r.str()?.to_string();
        match r.u8()? {
            0 => {
                let n = r.u32()? as usize;
                let mut values = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    values.push(r.str()?.to_string());
                }
                builder = builder.attribute(attr_name, values);
            }
            1 => builder = builder.attribute_unbounded(attr_name),
            other => return Err(r.err(format!("unknown domain tag {other}"))),
        }
    }
    let schema = builder
        .build()
        .map_err(|e| r.err(format!("schema rebuild failed: {e}")))?;
    let fd_count = r.u32()? as usize;
    let legal = if arity == 64 {
        u64::MAX
    } else {
        (1u64 << arity) - 1
    };
    let mut fds = Vec::with_capacity(fd_count.min(4096));
    for _ in 0..fd_count {
        let lhs = r.u64()?;
        let rhs = r.u64()?;
        if lhs & !legal != 0 || rhs & !legal != 0 {
            return Err(r.err(format!(
                "FD mask ({lhs:#x} -> {rhs:#x}) names attributes outside arity {arity}"
            )));
        }
        fds.push(Fd::new(AttrSet(lhs), AttrSet(rhs)));
    }
    Ok((schema, FdSet::from_vec(fds)))
}

/// A torn final write that recovery cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset the journal was truncated back to.
    pub offset: u64,
    /// Bytes dropped by the truncation.
    pub dropped: u64,
}

/// Why recovery refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The storage holds no bytes at all — no journal was ever created
    /// (or its creating write never became durable).
    Empty,
    /// The storage does not begin with a complete, valid journal file
    /// header.
    BadHeader,
    /// The journal has a header but no complete genesis record — the
    /// creating write tore before any op could exist. Nothing to
    /// recover.
    NoGenesis,
    /// The record at byte `offset` is damaged in place (checksum
    /// mismatch). Refusing is deliberate: later records may be intact,
    /// and truncating here would silently lose acknowledged ops.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
    },
    /// The record at byte `offset` has valid checksums but its payload
    /// does not deserialize — a format bug or adversarial bytes, not a
    /// crash artifact.
    Decode {
        /// Byte offset of the undecodable record.
        offset: u64,
        /// What failed inside the payload.
        message: String,
    },
    /// Replaying the op at byte `offset` onto the genesis database did
    /// not reproduce the journaled outcome (a rejected op, a missing
    /// row, or a compaction remap mismatch). The journal and the
    /// database semantics disagree — refuse rather than guess.
    Replay {
        /// Byte offset of the failing op record.
        offset: u64,
        /// 0-based index of the op among the journal's replayed ops.
        op_index: usize,
        /// What went wrong.
        message: String,
    },
    /// The genesis at byte `offset` records a retired policy: weak
    /// enforcement without internal acquisition, or load mode with it.
    /// A database acquires exactly under weak enforcement, so
    /// replaying the journal's ops would not rebuild the state its
    /// writer published — refuse rather than diverge.
    RetiredPolicy {
        /// Byte offset of the genesis record.
        offset: u64,
        /// The enforcement the genesis names.
        enforcement: Enforcement,
    },
    /// The storage backend itself failed.
    Storage(StoreError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Empty => write!(f, "no journal: storage is empty"),
            RecoverError::BadHeader => write!(f, "not a journal: bad file header"),
            RecoverError::NoGenesis => {
                write!(
                    f,
                    "journal has no complete genesis record; nothing to recover"
                )
            }
            RecoverError::Corrupt { offset } => {
                write!(f, "journal corrupt at byte {offset}: checksum mismatch")
            }
            RecoverError::Decode { offset, message } => {
                write!(f, "journal record at byte {offset} undecodable: {message}")
            }
            RecoverError::Replay {
                offset,
                op_index,
                message,
            } => write!(
                f,
                "journal op #{op_index} at byte {offset} failed to replay: {message}"
            ),
            RecoverError::RetiredPolicy {
                offset,
                enforcement,
            } => write!(
                f,
                "journal genesis at byte {offset} records {}, a retired policy: \
                 its ops would not replay to the state they were written from",
                match enforcement {
                    Enforcement::Weak => "weak enforcement without internal acquisition",
                    _ => "load mode with internal acquisition",
                }
            ),
            RecoverError::Storage(e) => write!(f, "journal storage failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<StoreError> for RecoverError {
    fn from(e: StoreError) -> Self {
        RecoverError::Storage(e)
    }
}

/// Errors from creating a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CreateError {
    /// The storage already holds bytes — refusing to overwrite what may
    /// be a live journal.
    NotEmpty {
        /// Existing byte length.
        len: u64,
    },
    /// The storage backend failed.
    Storage(StoreError),
}

impl fmt::Display for CreateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CreateError::NotEmpty { len } => write!(
                f,
                "refusing to create a journal over {len} existing bytes (recover it instead)"
            ),
            CreateError::Storage(e) => write!(f, "journal storage failed: {e}"),
        }
    }
}

impl std::error::Error for CreateError {}

impl From<StoreError> for CreateError {
    fn from(e: StoreError) -> Self {
        CreateError::Storage(e)
    }
}

/// The result of a successful recovery.
#[derive(Debug)]
pub struct Recovered<S: Storage> {
    /// The journal, reopened for further appends.
    pub journal: Journal<S>,
    /// The recovered database (genesis + every durable op replayed).
    pub db: Database,
    /// The replayed ops, in order.
    pub ops: Vec<JournalOp>,
    /// The torn tail that was truncated, if any.
    pub torn: Option<TornTail>,
}

/// A write-ahead op journal over a [`Storage`].
#[derive(Debug)]
pub struct Journal<S: Storage> {
    storage: S,
    /// Metrics sink (noop unless [`Journal::set_recorder`] routed one
    /// in, or recovery via [`Journal::recover_with`] carried one over).
    rec: fdi_obs::Recorder,
}

impl<S: Storage> Journal<S> {
    /// Creates a journal in empty `storage`, anchored at a genesis
    /// snapshot of `db`. Header and genesis go down as **one append**
    /// followed by one sync, so a crash anywhere inside creation leaves
    /// either a complete journal or recognizably nothing. A snapshot
    /// longer than [`MAX_RECORD_LEN`] is refused
    /// ([`StoreError::RecordTooLarge`]) and `storage` stays empty.
    pub fn create(mut storage: S, db: &Database) -> Result<Journal<S>, CreateError> {
        if !storage.is_empty() {
            return Err(CreateError::NotEmpty { len: storage.len() });
        }
        let bytes = genesis_file(db)?;
        storage.append(&bytes)?;
        storage.sync()?;
        Ok(Journal {
            storage,
            rec: fdi_obs::Recorder::noop(),
        })
    }

    /// Routes this journal's metrics (`journal_batch_records`,
    /// `journal_ops_committed`,
    /// `journal_syncs`, and the `journal_sync_nanos` /
    /// `journal_batch_ops` histograms) into `rec`. The counts are
    /// deterministic (the journal is writer-serial); the histograms,
    /// like all histograms, are not.
    pub fn set_recorder(&mut self, rec: fdi_obs::Recorder) {
        self.rec = rec;
    }

    /// Appends a group-commit batch as **one** record (visible, not yet
    /// durable — call [`Journal::sync`] to commit). Because the record
    /// is CRC-framed as a unit, the batch is durable all or nothing: a
    /// crash mid-write tears the whole record and recovery truncates it
    /// entirely, so no partial batch can ever replay. An empty batch
    /// appends nothing; a batch whose payload would exceed
    /// [`MAX_RECORD_LEN`] appends nothing and fails with
    /// [`StoreError::RecordTooLarge`].
    pub fn append_batch(&mut self, batch: &Batch) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let record = frame(&batch.payload)?;
        let ops = batch.len() as u64;
        self.rec.incr(fdi_obs::Counter::JournalBatchRecords);
        self.rec.add(fdi_obs::Counter::JournalOpsCommitted, ops);
        self.rec.observe(fdi_obs::Hist::JournalBatchOps, ops);
        self.storage.append(&record)
    }

    /// Durability barrier: after this returns `Ok`, every appended op
    /// survives a crash.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.rec.incr(fdi_obs::Counter::JournalSyncs);
        let _span = self.rec.span(fdi_obs::Hist::JournalSyncNanos);
        self.storage.sync()
    }

    /// Atomically replaces the whole journal with a fresh genesis
    /// snapshot of `db`, discarding the replay log. On failure the old
    /// journal is untouched (the replace never renamed, or — for a
    /// snapshot over [`MAX_RECORD_LEN`] — never started), so a failed
    /// checkpoint loses nothing.
    pub fn checkpoint(&mut self, db: &Database) -> Result<(), StoreError> {
        let bytes = genesis_file(db)?;
        self.storage.replace(&bytes)
    }

    /// The underlying storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Unwraps the storage.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Recovers the database from `storage`: validates the header,
    /// decodes the genesis snapshot, replays every complete op record,
    /// and truncates a torn final write in place. Recovery is
    /// idempotent — recovering the same storage twice yields the same
    /// database (the first pass's truncation makes the second pass
    /// clean).
    pub fn recover(storage: S) -> Result<Recovered<S>, RecoverError> {
        Self::recover_with(storage, &fdi_obs::Recorder::noop())
    }

    /// [`Journal::recover`] plus metrics: records
    /// `recovery_replayed_ops` and `journal_torn_truncations` into
    /// `rec` (both deterministic — pure functions of the bytes on
    /// disk), and the reopened journal keeps recording into `rec`.
    /// The recovered database does **not** tally its replay mutations:
    /// replay reconstructs state, it is not new traffic.
    pub fn recover_with(
        mut storage: S,
        rec: &fdi_obs::Recorder,
    ) -> Result<Recovered<S>, RecoverError> {
        if storage.is_empty() {
            return Err(RecoverError::Empty);
        }
        let mut bytes = Vec::new();
        storage.read_all(&mut bytes)?;
        if bytes.len() < FILE_HEADER.len() || bytes[..FILE_HEADER.len()] != FILE_HEADER {
            return Err(RecoverError::BadHeader);
        }
        let base = FILE_HEADER.len() as u64;
        let mut scanner = Scanner::new(&bytes[FILE_HEADER.len()..], base);
        let mut db: Option<Database> = None;
        let mut ops: Vec<JournalOp> = Vec::new();
        let mut torn: Option<TornTail> = None;
        while let Some(item) = scanner.next() {
            match item {
                Scanned::Corrupt { offset } => return Err(RecoverError::Corrupt { offset }),
                Scanned::Torn { offset } => {
                    torn = Some(TornTail {
                        offset,
                        dropped: bytes.len() as u64 - offset,
                    });
                }
                Scanned::Record { offset, payload } => {
                    let decode_err = |e: serial::DecodeError| RecoverError::Decode {
                        offset,
                        message: e.to_string(),
                    };
                    let Some(db) = db.as_mut() else {
                        db = Some(decode_genesis(payload, offset)?);
                        continue;
                    };
                    for op in decode_ops(payload).map_err(decode_err)? {
                        let op_index = ops.len();
                        replay_op(db, &op).map_err(|message| RecoverError::Replay {
                            offset,
                            op_index,
                            message,
                        })?;
                        ops.push(op);
                    }
                }
            }
        }
        let Some(db) = db else {
            return Err(RecoverError::NoGenesis);
        };
        if let Some(t) = torn {
            storage.truncate(t.offset)?;
            rec.incr(fdi_obs::Counter::JournalTornTruncations);
        }
        rec.add(fdi_obs::Counter::RecoveryReplayedOps, ops.len() as u64);
        Ok(Recovered {
            journal: Journal {
                storage,
                rec: rec.clone(),
            },
            db,
            ops,
            torn,
        })
    }
}

/// Applies one journaled op to the database, verifying the journaled
/// outcome (row ids, compaction remap) matches what the database does.
fn replay_op(db: &mut Database, op: &JournalOp) -> Result<(), String> {
    match op {
        JournalOp::Insert { row, tokens } => {
            let toks: Vec<&str> = tokens.iter().map(|s| s.as_str()).collect();
            let outcome = db.insert(&toks).map_err(|e| e.to_string())?;
            if outcome.row != *row {
                return Err(format!(
                    "insert replayed to row {} but the journal recorded row {}",
                    outcome.row, row
                ));
            }
            Ok(())
        }
        JournalOp::Delete { row } => db.delete(*row).map(|_| ()).map_err(|e| e.to_string()),
        JournalOp::Modify { row, attr, token } => db
            .modify(*row, *attr, token)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        JournalOp::ResolveNull { row, attr, token } => db
            .resolve_null(*row, *attr, token)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        JournalOp::Compact { moved } => {
            let got = db.compact();
            if got != *moved {
                return Err(format!(
                    "compaction replayed {} moves but the journal recorded {}",
                    got.len(),
                    moved.len()
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MAX_RECORD_LEN;
    use crate::storage::MemStorage;
    use std::sync::Arc;

    fn small_db() -> Database {
        let schema = Schema::builder("emp")
            .attribute("dept", ["d1", "d2", "d3"])
            .attribute("mgr", ["m1", "m2", "m3"])
            .build()
            .unwrap();
        let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
        let instance = Instance::new(Arc::clone(&schema));
        Database::new(instance, fds, Enforcement::Weak).unwrap()
    }

    fn batch_of(ops: &[JournalOp]) -> Batch {
        let mut batch = Batch::default();
        for op in ops {
            batch.push(op);
        }
        batch
    }

    fn db_states_match(a: &Database, b: &Database) {
        assert_eq!(a.instance().render(true), b.instance().render(true));
        assert_eq!(a.instance().canonical_form(), b.instance().canonical_form());
        assert_eq!(
            a.instance().necs().canonical_snapshot(),
            b.instance().necs().canonical_snapshot()
        );
    }

    #[test]
    fn ops_round_trip_through_bytes() {
        let ops = vec![
            JournalOp::Insert {
                row: RowId(7),
                tokens: vec!["d1".into(), "-".into()],
            },
            JournalOp::Delete { row: RowId(3) },
            JournalOp::Modify {
                row: RowId(0),
                attr: AttrId(1),
                token: "m2".into(),
            },
            JournalOp::ResolveNull {
                row: RowId(2),
                attr: AttrId(0),
                token: "d3".into(),
            },
            JournalOp::Compact {
                moved: vec![(RowId(9), RowId(1)), (RowId(8), RowId(2))],
            },
            JournalOp::Compact { moved: vec![] },
        ];
        for op in &ops {
            // a bare op encoding (a legacy single-op record) is a batch
            // of one
            assert_eq!(decode_ops(&op.encode()).unwrap(), std::slice::from_ref(op));
        }
        assert_eq!(decode_ops(&batch_of(&ops).payload).unwrap(), ops);
        // every truncation of an op payload is a typed decode error
        let bytes = ops[0].encode();
        for cut in 0..bytes.len() {
            assert!(decode_ops(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn create_then_recover_reproduces_the_database() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        db.insert(&["d2", "-"]).unwrap();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        // journal two more ops against the live db, one batch each
        let out = db.insert(&["d3", "-"]).unwrap();
        journal
            .append_batch(&batch_of(&[JournalOp::Insert {
                row: out.row,
                tokens: vec!["d3".into(), "-".into()],
            }]))
            .unwrap();
        db.modify(out.row, AttrId(1), "m3").unwrap();
        journal
            .append_batch(&batch_of(&[JournalOp::Modify {
                row: out.row,
                attr: AttrId(1),
                token: "m3".into(),
            }]))
            .unwrap();
        journal.sync().unwrap();
        let recovered = Journal::recover(journal.into_storage()).unwrap();
        assert_eq!(recovered.ops.len(), 2);
        assert!(recovered.torn.is_none());
        db_states_match(&recovered.db, &db);
    }

    #[test]
    fn create_refuses_nonempty_storage() {
        let db = small_db();
        let mut s = MemStorage::new();
        s.append(b"junk").unwrap();
        match Journal::create(s, &db) {
            Err(CreateError::NotEmpty { len: 4 }) => {}
            other => panic!("expected NotEmpty, got {other:?}"),
        }
    }

    #[test]
    fn recover_classifies_empty_and_bad_headers() {
        assert_eq!(
            Journal::recover(MemStorage::new()).unwrap_err(),
            RecoverError::Empty
        );
        assert_eq!(
            Journal::recover(MemStorage::from_bytes(b"NOTJRNL1rest".to_vec())).unwrap_err(),
            RecoverError::BadHeader
        );
        // a truncated header is also BadHeader (can't even check magic)
        assert_eq!(
            Journal::recover(MemStorage::from_bytes(b"FDIJ".to_vec())).unwrap_err(),
            RecoverError::BadHeader
        );
        // header but zero complete records: nothing to recover
        assert_eq!(
            Journal::recover(MemStorage::from_bytes(FILE_HEADER.to_vec())).unwrap_err(),
            RecoverError::NoGenesis
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let out = db.insert(&["d2", "-"]).unwrap();
        journal
            .append_batch(&batch_of(&[JournalOp::Insert {
                row: out.row,
                tokens: vec!["d2".into(), "-".into()],
            }]))
            .unwrap();
        journal.sync().unwrap();
        let clean_len = journal.storage().len();
        // tear: half an op record dangles at the end
        let mut storage = journal.into_storage();
        let record = frame(&batch_of(&[JournalOp::Delete { row: out.row }]).payload).unwrap();
        storage.append(&record[..5]).unwrap();
        storage.sync().unwrap();
        let first = Journal::recover(storage).unwrap();
        assert_eq!(
            first.torn,
            Some(TornTail {
                offset: clean_len,
                dropped: 5
            })
        );
        assert_eq!(first.ops.len(), 1);
        db_states_match(&first.db, &db);
        // the truncation was durable: a second recovery is clean
        let second = Journal::recover(first.journal.into_storage()).unwrap();
        assert!(second.torn.is_none());
        db_states_match(&second.db, &db);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error_with_the_offset() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let genesis_end = journal.storage().len();
        let out = db.insert(&["d2", "m2"]).unwrap();
        journal
            .append_batch(&batch_of(&[JournalOp::Insert {
                row: out.row,
                tokens: vec!["d2".into(), "m2".into()],
            }]))
            .unwrap();
        journal
            .append_batch(&batch_of(&[JournalOp::Delete { row: out.row }]))
            .unwrap();
        journal.sync().unwrap();
        let mut bytes = Vec::new();
        let mut storage = journal.into_storage();
        storage.read_all(&mut bytes).unwrap();
        // flip one payload bit inside the first op record (not the last)
        bytes[genesis_end as usize + 12] ^= 0x10;
        let err = Journal::recover(MemStorage::from_bytes(bytes)).unwrap_err();
        assert_eq!(
            err,
            RecoverError::Corrupt {
                offset: genesis_end
            }
        );
    }

    #[test]
    fn checkpoint_discards_the_replay_log() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        for i in 0..3 {
            let token = format!("d{}", i % 3 + 1);
            let out = db.insert(&[&token, "-"]).unwrap();
            journal
                .append_batch(&batch_of(&[JournalOp::Insert {
                    row: out.row,
                    tokens: vec![token, "-".into()],
                }]))
                .unwrap();
        }
        journal.sync().unwrap();
        journal.checkpoint(&db).unwrap();
        let recovered = Journal::recover(journal.into_storage()).unwrap();
        assert_eq!(recovered.ops.len(), 0, "checkpoint absorbed the ops");
        db_states_match(&recovered.db, &db);
    }

    /// Batch records expand to their ops in order. A legacy single-op
    /// record — a bare op encoding, as journals hold from when each
    /// accepted op was its own record — reads as a batch of one.
    #[test]
    fn batch_records_round_trip_through_recovery() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let a = db.insert(&["d2", "-"]).unwrap().row;
        let b = db.insert(&["d3", "-"]).unwrap().row;
        db.modify(a, AttrId(1), "m2").unwrap();
        db.delete(b).unwrap();
        let ops = vec![
            JournalOp::Insert {
                row: a,
                tokens: vec!["d2".into(), "-".into()],
            },
            JournalOp::Insert {
                row: b,
                tokens: vec!["d3".into(), "-".into()],
            },
            JournalOp::Modify {
                row: a,
                attr: AttrId(1),
                token: "m2".into(),
            },
            JournalOp::Delete { row: b },
            JournalOp::Compact {
                moved: db.compact(),
            },
        ];
        // a batch of two, a legacy record, then a batch of two
        journal.append_batch(&batch_of(&ops[..2])).unwrap();
        let mut storage = journal.into_storage();
        storage.append(&frame(&ops[2].encode()).unwrap()).unwrap();
        let last = frame(&batch_of(&ops[3..]).payload).unwrap();
        storage.append(&last).unwrap();
        storage.sync().unwrap();
        let recovered = Journal::recover(storage).unwrap();
        assert_eq!(recovered.ops, ops);
        assert!(recovered.torn.is_none());
        db_states_match(&recovered.db, &db);
    }

    #[test]
    fn empty_batch_appends_nothing() {
        let db = small_db();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let len = journal.storage().len();
        journal.append_batch(&Batch::default()).unwrap();
        assert_eq!(journal.storage().len(), len);
    }

    #[test]
    fn torn_batch_record_is_dropped_whole() {
        let mut db = small_db();
        db.insert(&["d1", "m1"]).unwrap();
        let journal = Journal::create(MemStorage::new(), &db).unwrap();
        let clean_len = journal.storage().len();
        let mut oracle = db.clone();
        let a = db.insert(&["d2", "-"]).unwrap().row;
        let b = db.insert(&["d3", "-"]).unwrap().row;
        let batch = frame(
            &batch_of(&[
                JournalOp::Insert {
                    row: a,
                    tokens: vec!["d2".into(), "-".into()],
                },
                JournalOp::Insert {
                    row: b,
                    tokens: vec!["d3".into(), "-".into()],
                },
            ])
            .payload,
        )
        .unwrap();
        let mut storage = journal.into_storage();
        // every proper prefix of the batch record tears the WHOLE
        // batch: recovery never replays just its first op
        for cut in 0..batch.len() {
            let mut torn_storage = storage.clone();
            torn_storage.append(&batch[..cut]).unwrap();
            torn_storage.sync().unwrap();
            let recovered = Journal::recover(torn_storage).unwrap();
            assert_eq!(
                recovered.ops.len(),
                0,
                "cut at {cut}: a torn batch must contribute no ops"
            );
            if cut > 0 {
                assert_eq!(
                    recovered.torn,
                    Some(TornTail {
                        offset: clean_len,
                        dropped: cut as u64
                    })
                );
            }
            db_states_match(&recovered.db, &oracle);
        }
        // and the complete record replays both ops
        storage.append(&batch).unwrap();
        storage.sync().unwrap();
        let recovered = Journal::recover(storage).unwrap();
        assert_eq!(recovered.ops.len(), 2);
        oracle.insert(&["d2", "-"]).unwrap();
        oracle.insert(&["d3", "-"]).unwrap();
        db_states_match(&recovered.db, &oracle);
    }

    #[test]
    fn batch_with_lying_count_is_a_typed_decode_error() {
        let mut db = small_db();
        let journal = Journal::create(MemStorage::new(), &db).unwrap();
        let offset = journal.storage().len();
        let a = db.insert(&["d1", "m1"]).unwrap().row;
        let mut payload = batch_of(&[JournalOp::Insert {
            row: a,
            tokens: vec!["d1".into(), "m1".into()],
        }])
        .payload;
        // claim two ops while carrying one
        payload[1..5].copy_from_slice(&2u32.to_le_bytes());
        let mut storage = journal.into_storage();
        storage.append(&frame(&payload).unwrap()).unwrap();
        storage.sync().unwrap();
        match Journal::recover(storage) {
            Err(RecoverError::Decode { offset: at, .. }) => assert_eq!(at, offset),
            other => panic!("expected Decode error, got {other:?}"),
        }
    }

    #[test]
    fn replay_verifies_journaled_row_ids() {
        let mut db = small_db();
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let out = db.insert(&["d1", "m1"]).unwrap();
        // journal a LYING row id
        journal
            .append_batch(&batch_of(&[JournalOp::Insert {
                row: RowId(out.row.0 + 41),
                tokens: vec!["d1".into(), "m1".into()],
            }]))
            .unwrap();
        journal.sync().unwrap();
        match Journal::recover(journal.into_storage()) {
            Err(RecoverError::Replay { op_index: 0, .. }) => {}
            other => panic!("expected Replay error, got {other:?}"),
        }
    }

    /// A database on one unbounded column holding `rows` distinct
    /// values of just over 1 MiB: its snapshot is over 16 MiB from 16
    /// rows on.
    fn wide_db(rows: usize) -> Database {
        let schema = Schema::builder("wide")
            .attribute_unbounded("v")
            .build()
            .unwrap();
        let instance = Instance::new(Arc::clone(&schema));
        let mut db = Database::new(instance, FdSet::new(), Enforcement::Weak).unwrap();
        for i in 0..rows {
            db.insert(&[&wide_value(i)]).unwrap();
        }
        db
    }

    fn wide_value(i: usize) -> String {
        format!("{i:03}{}", "x".repeat(1 << 20))
    }

    #[test]
    fn oversized_records_are_refused_before_a_byte_is_written() {
        let refused = |r: Result<(), StoreError>| matches!(r, Err(StoreError::RecordTooLarge { len }) if len > MAX_RECORD_LEN as usize);
        let genesis = Journal::create(MemStorage::new(), &wide_db(17)).map(|_| ());
        assert!(refused(genesis.map_err(|e| match e {
            CreateError::Storage(e) => e,
            other => panic!("{other:?}"),
        })));
        // under the bound, a snapshot journals; then the checkpoint and
        // an oversized batch are refused and the journal is intact
        let mut db = wide_db(15);
        let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
        let ops: Vec<JournalOp> = (15..17)
            .map(|i| {
                let value = wide_value(i);
                let row = db.insert(&[&value]).unwrap().row;
                let tokens = vec![value];
                JournalOp::Insert { row, tokens }
            })
            .collect();
        journal.append_batch(&batch_of(&ops)).unwrap();
        journal.sync().unwrap();
        let len = journal.storage().len();
        assert!(refused(journal.checkpoint(&db)));
        assert!(refused(
            journal.append_batch(&batch_of(&vec![ops[0].clone(); 16]))
        ));
        assert_eq!(journal.storage().len(), len, "nothing was written");
        let recovered = Journal::recover(journal.into_storage()).unwrap();
        assert_eq!(recovered.ops, ops);
        db_states_match(&recovered.db, &db);
    }
}
