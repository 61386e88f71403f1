//! # fdi-store — durable op journal + crash recovery
//!
//! A std-only durability layer for [`fdi_core::update::Database`]: a
//! write-ahead **op journal** ([`Journal`]), a crash-consistent
//! **recovery** path ([`Journal::recover`]), a write-through pairing of
//! database and journal ([`JournaledDatabase`]), and **deterministic
//! fault injection** ([`FaultyStorage`]) that makes the crash claims
//! testable instead of aspirational.
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
//!   same `RowId` assignments, same null ids, same NEC representation,
//!   at any `FDI_THREADS` setting. This leans on
//!   the engine's determinism contract; replay *verifies* it (journaled
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
//!
//! **Not guaranteed:**
//!
//! * Ops still pending in a group-commit batch (under
//!   [`SyncPolicy::GroupCommit`]) may vanish in a crash — recovery
//!   yields the last committed batch boundary, nothing more.
//! * Rejected ops are never journaled; the journal records *accepted*
//!   history only.
//! * After a journal write fails on an *accepted* op, the live pair is
//!   poisoned ([`JournaledError::Poisoned`]) — the in-memory database
//!   is ahead of the durable log and the layer refuses to widen the
//!   gap. (Checkpoint failure does not poison: a failed atomic
//!   `replace` leaves the old journal complete.)
//!
//! ## Fault model
//!
//! [`FaultyStorage`] fails a wrapped storage by **explicit schedule** —
//! fail the k-th write, persist a short prefix of the k-th write, fail
//! the k-th sync, flip one bit at a byte offset. No RNG anywhere: every
//! crash-matrix counterexample is replayable from its schedule alone.
//! The crash matrix (in `tests/recovery.rs`) drives generated update
//! streams through every failure mode and asserts recovery equals the
//! live database that applied the longest fully-synced op prefix.

pub mod crc;
pub mod db;
pub mod fault;
pub mod journal;
pub mod record;
pub mod storage;

pub use db::{JournaledDatabase, JournaledError, SyncPolicy};
pub use fault::{Fault, FaultyStorage};
pub use journal::{CreateError, Journal, JournalOp, RecoverError, Recovered, TornTail};
pub use storage::{FileStorage, MemStorage, Storage, StoreError};
