//! # fdi-store — durable op journal + crash recovery
//!
//! A std-only durability layer for [`fdi_core::update::Database`]: the
//! write-ahead **op journal** format ([`Journal`], one CRC-framed
//! [`Batch`] record per group commit), the crash-consistent
//! **recovery** path ([`Journal::recover`]), the [`Storage`] barrier
//! model with an in-memory and a file backend, and **deterministic
//! fault injection** ([`FaultyStorage`]) that makes the crash claims
//! testable instead of aspirational.
//!
//! The stateful write path — applying an op, batching it, committing
//! the batch, and refusing further writes after a failed commit — is
//! `fdi_serve::Writer`. This crate gives it the record-size decision
//! ([`Batch::fits`]) and, on the journal side, refuses any record over
//! [`record::MAX_RECORD_LEN`] ([`StoreError::RecordTooLarge`]) before a
//! byte reaches storage, so it never writes a record its recovery would
//! call corrupt. Checkpointing ([`Journal::checkpoint`]) is offline: it
//! takes a recovered database and its journal.
//!
//! ## The durability contract
//!
//! All guarantees are phrased against the [`Storage`] barrier model
//! (`append` = visible, `sync` = durable, `replace` = atomic + durable):
//!
//! **Guaranteed after `sync` returns `Ok`:**
//!
//! * Every op appended before the sync survives a crash, in order.
//! * Recovery ([`Journal::recover`]) rebuilds the database from the
//!   genesis snapshot plus exactly those ops — **bit-identically**:
//!   same `RowId` assignments, same null ids, same NEC representation.
//!   This leans on the engine's determinism contract; replay *verifies* it (journaled
//!   row ids and compaction remaps are checked, mismatch is a typed
//!   [`RecoverError::Replay`]).
//! * A crash mid-append leaves a **torn tail**, which recovery detects
//!   by construction (missing bytes can only be a torn final write —
//!   see [`record`] for why the framing makes this sound), truncates
//!   durably, and reports as [`TornTail`]. Recovering twice is
//!   idempotent.
//! * Damage *inside* the synced region (a flipped bit, a damaged
//!   length field) is a typed [`RecoverError::Corrupt`] naming the byte
//!   offset of the damaged record — never a panic, never a silently
//!   wrong database, and never misclassified as a torn tail.
//! * A genesis whose policy bytes name a retired policy (weak
//!   enforcement without internal acquisition, or load mode with it)
//!   is refused as a typed [`RecoverError::RetiredPolicy`]: today's
//!   replay would not rebuild the state its writer published.
//!
//! **Not guaranteed:**
//!
//! * Ops still pending in a group-commit batch may vanish in a crash —
//!   recovery yields the last committed batch boundary, nothing more.
//! * Rejected ops are never journaled; the journal records *accepted*
//!   history only.
//! * After a batch commit fails, the in-memory database is ahead of
//!   the durable log; the writer refuses to widen the gap, and recovery
//!   from the journal is the way back. (A failed [`Journal::checkpoint`]
//!   loses nothing: a refused snapshot or a failed atomic `replace`
//!   leaves the old journal complete.)
//!
//! ## Fault model
//!
//! [`FaultyStorage`] fails a wrapped storage by **explicit schedule** —
//! fail the k-th write, persist a short prefix of the k-th write, fail
//! the k-th sync, flip one bit at a byte offset. No RNG anywhere: every
//! crash-matrix counterexample is replayable from its schedule alone.
//! The crash matrix (fdi-serve's `tests/recovery.rs`) drives generated
//! update streams through the writer under every failure mode and
//! asserts recovery equals the live database that applied the longest
//! fully-synced op prefix.

pub mod crc;
pub mod fault;
pub mod journal;
pub mod record;
pub mod storage;

pub use fault::{Fault, FaultyStorage};
pub use journal::{Batch, CreateError, Journal, JournalOp, RecoverError, Recovered, TornTail};
pub use storage::{FileStorage, MemStorage, Storage, StoreError};
