//! Modification operations over constrained, incomplete relations —
//! §7's on-going-work programme, built out.
//!
//! The paper closes: "more research is needed on the semantics of the
//! ways a database *acquires* information. This acquisition may be
//! internal (non-ambiguous substitution of nulls), or external
//! (modification operations by the users)." This module implements that
//! programme on top of the paper's machinery:
//!
//! * a [`Database`] couples an instance with its FD set and a
//!   maintenance [`Policy`] — reject updates that break **strong**
//!   satisfiability (Theorem 2: no completion may violate `F`), reject
//!   updates that break **weak** satisfiability (Theorem 4: some
//!   completion must satisfy `F`), or accept everything;
//! * **external acquisition**: [`Database::insert`],
//!   [`Database::delete`], [`Database::modify`], and
//!   [`Database::resolve_null`] (a user replaces a null with a value,
//!   checked against the constraints — "the only value a user can
//!   insert without the creation of an inconsistency", §4);
//! * **internal acquisition**: after an accepted update, the NS-rules
//!   fire ([`Policy::propagate`]) so the instance stays minimally
//!   incomplete — the non-ambiguous substitutions of §6;
//! * an [`LhsIndex`] (hash index on each FD's determinant) makes the
//!   strong-convention insert check `O(|F| · group)` instead of
//!   `O(|F| · n)`; tuples carrying nulls on a determinant live on a
//!   *wild list*, since under the pessimistic convention they
//!   potentially match everything. Experiment E19 measures the gap.
//!
//! ## Incremental maintenance
//!
//! Updates are the paper's primary workload for FD maintenance under
//! nulls, so every mutation path is **incremental end-to-end**: the
//! [`LhsIndex`] is maintained by delta operations
//! ([`LhsIndex::insert_row`], [`LhsIndex::remove_row`],
//! [`LhsIndex::rekey_row`]) that re-bucket only the touched rows —
//! never rebuilt from scratch — and no mutation clones the instance
//! (rejected updates are rolled back cell-by-cell instead). Rows are
//! addressed by stable [`RowId`] slot handles throughout, so a delete
//! is a tombstone plus one unfiling — **no survivor is renumbered**,
//! in the instance or in the index ([`Database::delete`] is
//! `O(|F| · bucket)` total). Internal acquisition runs the **indexed
//! worklist chase** ([`chase::chase_plain`]) and then delta-rekeys
//! exactly the rows the chase substituted into; full revalidations go
//! through TEST-FDs ([`crate::testfd::check`]).
//! The property suite (`tests/update_equiv.rs`) proves the
//! delta-maintained index bucket-identical to a fresh build after
//! arbitrary update sequences, and experiment E19 (`exp_updates`)
//! times incremental against full validation.
//!
//! A *rejected* update leaves no tuple behind and changes no cell —
//! a rejected insert's slot is released outright (the arena truncates
//! its trailing slot), so the next insert re-occupies the same
//! [`RowId`] and the instance is byte-identical to one that never saw
//! the rejected update. Token parsing may still intern symbols,
//! register null marks, or advance the null-id allocator — all
//! invisible to the relational semantics (ids are never reused,
//! unreferenced symbols are inert). Long churn leaves interior
//! tombstones in the slot arena; [`Database::compact`] densifies them
//! and remaps the index in `O(moved)` instead of rebuilding it.
//!
//! # Example — §7's programme end to end
//!
//! ```
//! use fdi_core::fixtures;
//! use fdi_core::update::{Database, Enforcement, Policy};
//!
//! // Figure 1.2 under f1: E# → SL,D# and f2: D# → CT, weakly enforced
//! // with internal acquisition on.
//! let mut db = Database::new(
//!     fixtures::figure1_instance(),
//!     fixtures::figure1_fds(),
//!     Policy { enforcement: Enforcement::Weak, propagate: true },
//! )
//! .unwrap();
//! // e1 already earns 10K in d1, so a definitely-conflicting salary is
//! // rejected even under the optimistic notion …
//! assert!(db.insert(&["e1", "20K", "d1", "full"]).is_err());
//! // … while a new d1 employee with an unknown contract is accepted,
//! // and internal acquisition (the NS-rules) immediately resolves the
//! // null: d1's contract type is known to be `full`.
//! let out = db.insert(&["e5", "20K", "d1", "-"]).unwrap();
//! assert_eq!(out.propagated.len(), 1);
//! assert!(db.instance().tuple(out.row).is_total_on(
//!     db.instance().schema().all_attrs()
//! ));
//! ```

use crate::chase;
use crate::fd::FdSet;
use crate::groupkey::{self, GroupKey};
use crate::semantics::{self, Semantics, SemanticsKind};
use crate::testfd::{self, Violation};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::Value;
use std::collections::HashMap;
use std::fmt;

/// What a maintained database enforces on every modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Every update must leave the instance strongly satisfied
    /// (Theorem 2's test): no completion may violate `F`.
    Strong,
    /// Every update must leave the instance weakly satisfiable
    /// (Theorem 4's test): some completion must satisfy `F`.
    Weak,
    /// No checking (load mode).
    None,
}

/// Maintenance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// The satisfiability notion to enforce.
    pub enforcement: Enforcement,
    /// Run the NS-rules after accepted updates (internal acquisition).
    pub propagate: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            enforcement: Enforcement::Weak,
            propagate: true,
        }
    }
}

/// Errors raised by modifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The update would break the enforced satisfiability notion.
    Rejected {
        /// The violated dependency and rows (where known).
        violation: Option<Violation>,
        /// The enforcement that rejected it.
        enforcement: Enforcement,
    },
    /// `resolve_null` was pointed at a non-null cell.
    NotANull {
        /// Row of the cell.
        row: RowId,
        /// Attribute of the cell.
        attr: AttrId,
    },
    /// The row id names no live row (deleted, or never allocated).
    NoSuchRow(RowId),
    /// Forwarded relational error (domain membership, arity, …).
    Relation(RelationError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Rejected {
                violation,
                enforcement,
            } => match violation {
                Some(v) => write!(f, "update rejected ({enforcement:?} enforcement): {v}"),
                None => write!(f, "update rejected ({enforcement:?} enforcement)"),
            },
            UpdateError::NotANull { row, attr } => {
                write!(f, "cell ({row}, {attr}) is not a null")
            }
            UpdateError::NoSuchRow(row) => write!(f, "no row {row}"),
            UpdateError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<RelationError> for UpdateError {
    fn from(e: RelationError) -> Self {
        UpdateError::Relation(e)
    }
}

/// Outcome of an accepted modification.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The row affected (for inserts: the new row's id).
    pub row: RowId,
    /// NS-rule events fired by internal acquisition.
    pub propagated: Vec<chase::NsEvent>,
}

/// Below this row count [`LhsIndex::build`] builds in one shard
/// regardless of the executor: a cold build of a few thousand rows is
/// microseconds of hashing, and OS thread spawn/join would cost more
/// than it saves. (Thread-count *determinism* is unaffected — every
/// shard count produces the identical index; the property suite drives
/// `build` across thread counts directly.)
pub const PAR_BUILD_SMALL_N: usize = 4096;

/// Hash index on each FD's determinant: constant-only left-hand
/// projections map to row lists; rows with a null (or `nothing`) on the
/// determinant go to the per-FD wild list.
///
/// Keys are the packed constant atoms of [`crate::groupkey`]
/// ([`groupkey::const_key_into`]) — the same currency as the indexed
/// chase — and rows are held as stable [`RowId`]s with per-row filing
/// records (the key each row is bucketed under), which make the index
/// **incrementally maintainable**:
/// [`insert_row`](LhsIndex::insert_row) files one row,
/// [`remove_row`](LhsIndex::remove_row) unfiles one row *and stops* —
/// row ids are slot handles, so nothing shifts and no other entry is
/// touched — and [`rekey_row`](LhsIndex::rekey_row) re-buckets one row
/// after its cells changed. Every delta therefore costs
/// `O(|F| · bucket)` instead of the `O(n·|F|)` hash-and-allocate of a
/// [`build`](LhsIndex::build) from scratch, deletes included. After an
/// [`Instance::compact`], [`remap`](LhsIndex::remap) rewrites the
/// stored ids in `O(moved)`.
#[derive(Debug, Clone, Default)]
pub struct LhsIndex {
    /// Normalized determinant of each FD, fixed at build time.
    lhs: Vec<AttrSet>,
    /// Per FD: packed constant-determinant key → member rows.
    groups: Vec<HashMap<GroupKey, Vec<RowId>>>,
    /// Per FD: rows with a non-constant value on the determinant.
    wild: Vec<Vec<RowId>>,
    /// Per FD, per filed row: the group key the row is bucketed under
    /// (`None` = wild list) — the record that makes unfiling a direct
    /// lookup instead of key recomputation against possibly
    /// already-changed cells.
    filed: Vec<HashMap<RowId, Option<GroupKey>>>,
    rows: usize,
}

impl LhsIndex {
    /// Builds the index for `instance` under `fds`, with the grouping
    /// pass sharded over [`RowId`] ranges on `exec` — the cold-build
    /// path of [`Database::new`]. Each shard files its live rows into a
    /// shard-local index; the locals are folded **in shard order**, so
    /// every bucket, wild list, and filing record comes out exactly as
    /// an ascending-row build produces it
    /// ([`same_buckets`](LhsIndex::same_buckets)-identical and
    /// list-order identical at every thread count). Below
    /// [`PAR_BUILD_SMALL_N`] rows, where thread spawn/join would dwarf
    /// the build itself, one shard does all the work.
    pub fn build(instance: &Instance, fds: &FdSet, exec: &fdi_exec::Executor) -> LhsIndex {
        let lhs: Vec<AttrSet> = fds.iter().map(|fd| fd.normalized().lhs).collect();
        let empty = || LhsIndex {
            lhs: lhs.clone(),
            groups: vec![HashMap::new(); lhs.len()],
            wild: vec![Vec::new(); lhs.len()],
            filed: vec![HashMap::new(); lhs.len()],
            rows: 0,
        };
        let shards = if instance.len() < PAR_BUILD_SMALL_N {
            1
        } else {
            exec.shard_count(2)
        };
        let locals = exec.map(&instance.row_id_shards(shards), |_, &shard| {
            let mut local = empty();
            for (row, _) in instance.iter_live_in(shard) {
                local.insert_row(instance, row);
            }
            local
        });
        let mut locals = locals.into_iter();
        let mut index = locals.next().unwrap_or_else(empty);
        for local in locals {
            for (i, groups) in local.groups.into_iter().enumerate() {
                let merged = std::mem::take(&mut index.groups[i]);
                index.groups[i] = groupkey::merge_in_shard_order(vec![merged, groups]);
            }
            for (i, mut wild) in local.wild.into_iter().enumerate() {
                index.wild[i].append(&mut wild);
            }
            for (i, filed) in local.filed.into_iter().enumerate() {
                index.filed[i].extend(filed);
            }
            index.rows += local.rows;
        }
        index
    }

    /// Number of rows the index currently covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Delta insert: files the live row `row` of `instance`.
    ///
    /// # Panics
    /// Panics when `row` is already filed.
    pub fn insert_row(&mut self, instance: &Instance, row: RowId) {
        let tuple = instance.tuple(row);
        let mut key = GroupKey::new();
        for i in 0..self.lhs.len() {
            let record = if groupkey::const_key_into(&mut key, tuple, self.lhs[i]) {
                Self::file(&mut self.groups[i], &key, row);
                Some(key.clone())
            } else {
                self.wild[i].push(row);
                None
            };
            let prior = self.filed[i].insert(row, record);
            assert!(prior.is_none(), "insert_row: row {row} already filed");
        }
        self.rows += 1;
    }

    /// Appends `row` to the bucket at `key`, with a borrowed probe
    /// first so only novel keys pay for an owned allocation.
    fn file(groups: &mut HashMap<GroupKey, Vec<RowId>>, key: &[u64], row: RowId) {
        match groups.get_mut(key) {
            Some(bucket) => bucket.push(row),
            None => {
                groups.insert(key.to_vec(), vec![row]);
            }
        }
    }

    /// Delta delete: unfiles `row` and stops — `O(|F| · bucket)`.
    /// Row ids are stable slot handles, so no other entry changes: no
    /// shift pass, no key recomputation, no rehash.
    ///
    /// # Panics
    /// Panics when `row` is not filed or the index is inconsistent with
    /// its filing records.
    pub fn remove_row(&mut self, row: RowId) {
        for i in 0..self.lhs.len() {
            self.unfile(i, row);
        }
        self.rows -= 1;
    }

    /// Delta re-key: re-buckets `row` after some of its cells changed
    /// (a modify, a null resolution, or a chase substitution). Rows
    /// whose determinant key is unchanged are left untouched.
    ///
    /// # Panics
    /// Panics when `row` is not filed.
    pub fn rekey_row(&mut self, instance: &Instance, row: RowId) {
        let tuple = instance.tuple(row);
        let mut key = GroupKey::new();
        for i in 0..self.lhs.len() {
            let new_key = groupkey::const_key_into(&mut key, tuple, self.lhs[i]);
            let record = self.filed[i]
                .get(&row)
                .unwrap_or_else(|| panic!("rekey_row: row {row} not filed"));
            let same = match (record, new_key) {
                (Some(old), true) => old.as_slice() == key.as_slice(),
                (None, false) => true,
                _ => false,
            };
            if same {
                continue;
            }
            self.unfile(i, row);
            let record = if new_key {
                Self::file(&mut self.groups[i], &key, row);
                Some(key.clone())
            } else {
                self.wild[i].push(row);
                None
            };
            self.filed[i].insert(row, record);
        }
    }

    /// Removes `row` from the bucket (or wild list) it is filed under
    /// for FD `i`, dropping its filing record.
    fn unfile(&mut self, i: usize, row: RowId) {
        let record = self.filed[i]
            .remove(&row)
            .unwrap_or_else(|| panic!("unfile: row {row} not filed"));
        match record {
            Some(old_key) => {
                let bucket = self.groups[i].get_mut(&old_key).expect("filed bucket");
                let pos = bucket.iter().position(|&r| r == row).expect("filed row");
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.groups[i].remove(&old_key);
                }
            }
            None => {
                let pos = self.wild[i]
                    .iter()
                    .position(|&r| r == row)
                    .expect("wild row");
                self.wild[i].swap_remove(pos);
            }
        }
    }

    /// Applies the old → new id pairs returned by
    /// [`Instance::compact`]: every stored occurrence of a moved id is
    /// rewritten in place — `O(moved · |F|)` plus filing-record
    /// re-hashes, no key recomputation, no rebuild.
    pub fn remap(&mut self, moved: &[(RowId, RowId)]) {
        // Pairs must be applied in the order compact() reports them
        // (ascending old slot): chains like (2→1),(3→2) re-use a just-
        // vacated id, so processing out of order would rewrite the
        // wrong row.
        for i in 0..self.lhs.len() {
            for &(old, new) in moved {
                let Some(record) = self.filed[i].remove(&old) else {
                    continue; // id not filed (never inserted here)
                };
                match &record {
                    Some(key) => {
                        let bucket = self.groups[i]
                            .get_mut(key.as_slice())
                            .expect("filed bucket");
                        let pos = bucket.iter().position(|&r| r == old).expect("filed row");
                        bucket[pos] = new;
                    }
                    None => {
                        let pos = self.wild[i]
                            .iter()
                            .position(|&r| r == old)
                            .expect("wild row");
                        self.wild[i][pos] = new;
                    }
                }
                self.filed[i].insert(new, record);
            }
        }
    }

    /// The candidate rows a new tuple must be checked against for FD
    /// `fd_index` under the strong convention: the exact group (when the
    /// tuple's determinant is total) plus the wild list; a wild tuple
    /// must check against every live row of `instance`. The group lookup
    /// is borrowed — no key allocation on the probe path. (The probe
    /// tuple's own row, if it is already live but not yet filed, is the
    /// caller's to exclude.)
    pub fn candidates(&self, fd_index: usize, tuple: &Tuple, instance: &Instance) -> Vec<RowId> {
        let mut key = GroupKey::new();
        if groupkey::const_key_into(&mut key, tuple, self.lhs[fd_index]) {
            let mut out: Vec<RowId> = self.groups[fd_index]
                .get(key.as_slice())
                .cloned()
                .unwrap_or_default();
            out.extend(self.wild[fd_index].iter().copied());
            out
        } else {
            instance.row_ids().collect()
        }
    }

    /// Number of indexed groups for FD `fd_index`.
    pub fn group_count(&self, fd_index: usize) -> usize {
        self.groups[fd_index].len()
    }

    /// Order-insensitive bucket equality: same determinants, same
    /// key → row-set mapping, same wild sets. This is the equivalence
    /// the property suite uses to prove a delta-maintained index
    /// identical to a fresh [`build`](LhsIndex::build).
    pub fn same_buckets(&self, other: &LhsIndex) -> bool {
        /// Sorted bucket lists, one per FD.
        type CanonGroups = Vec<Vec<(GroupKey, Vec<RowId>)>>;
        fn canon(ix: &LhsIndex) -> (CanonGroups, Vec<Vec<RowId>>) {
            let groups = ix
                .groups
                .iter()
                .map(|m| {
                    let mut v: Vec<(GroupKey, Vec<RowId>)> = m
                        .iter()
                        .map(|(k, rows)| {
                            let mut rows = rows.clone();
                            rows.sort_unstable();
                            (k.clone(), rows)
                        })
                        .collect();
                    v.sort();
                    v
                })
                .collect();
            let wild = ix
                .wild
                .iter()
                .map(|w| {
                    let mut w = w.clone();
                    w.sort_unstable();
                    w
                })
                .collect();
            (groups, wild)
        }
        self.lhs == other.lhs && self.rows == other.rows && canon(self) == canon(other)
    }
}

/// A relation instance maintained under a dependency set.
#[derive(Debug, Clone)]
pub struct Database {
    instance: Instance,
    fds: FdSet,
    policy: Policy,
    index: LhsIndex,
    /// Metrics sink (defaults to noop; see [`Database::set_recorder`]).
    /// Clones share the same sink, matching the epoch-snapshot model:
    /// a published clone keeps reporting into the node's recorder.
    rec: fdi_obs::Recorder,
}

impl Database {
    /// Wraps an existing instance. Fails (per policy) if the starting
    /// instance already violates the enforced notion.
    ///
    /// The cold index build is the one `O(n·|F|)` moment of a
    /// database's life, so it runs sharded on the ambient executor
    /// ([`fdi_exec::Executor::from_env`] — `FDI_THREADS` or the
    /// available parallelism); every later mutation is an incremental
    /// delta. The built index is identical at every thread count.
    pub fn new(instance: Instance, fds: FdSet, policy: Policy) -> Result<Database, UpdateError> {
        check_instance(&instance, &fds, policy.enforcement)?;
        let index = LhsIndex::build(&instance, &fds, &fdi_exec::Executor::from_env());
        let mut db = Database {
            instance,
            fds,
            policy,
            index,
            rec: fdi_obs::Recorder::noop(),
        };
        db.propagate_all();
        Ok(db)
    }

    /// Wraps an instance whose state is *already known valid* under the
    /// policy — the log-replay/recovery constructor. Unlike
    /// [`Database::new`] it neither re-runs the satisfiability check nor
    /// fires internal acquisition: a durability layer's snapshot was
    /// taken from a database that had both already applied, so
    /// re-deciding either here would at best waste a chase and at worst
    /// *mutate* the restored state before replay begins. Only the
    /// determinant index is (re)built — it is derived data, and
    /// [`LhsIndex::build`] produces the identical index at every
    /// thread count.
    pub fn resume(instance: Instance, fds: FdSet, policy: Policy) -> Database {
        let index = LhsIndex::build(&instance, &fds, &fdi_exec::Executor::from_env());
        Database {
            instance,
            fds,
            policy,
            index,
            rec: fdi_obs::Recorder::noop(),
        }
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The dependency set.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The determinant index (for inspection/benchmarks).
    pub fn index(&self) -> &LhsIndex {
        &self.index
    }

    /// Routes this database's mutation metrics (`ops_applied`,
    /// `ops_rejected`, the `index_rows_*` delta counters) into `rec`.
    /// All of them are deterministic: mutations are writer-serial and
    /// their accept/reject decisions are thread-count-invariant.
    pub fn set_recorder(&mut self, rec: fdi_obs::Recorder) {
        self.rec = rec;
    }

    /// Tallies one mutation's outcome into the recorder.
    fn record_op<T, E>(&self, result: &Result<T, E>) {
        self.rec.incr(match result {
            Ok(_) => fdi_obs::Counter::OpsApplied,
            Err(_) => fdi_obs::Counter::OpsRejected,
        });
    }

    /// Internal acquisition, when [`Policy::propagate`] asks for it:
    /// runs the indexed worklist chase, swaps the chased instance in,
    /// and delta-rekeys exactly the rows the chase changed. Only
    /// substitutions (null → constant) can re-bucket a row: NEC merges
    /// leave cell values untouched, and the index files every
    /// null-bearing determinant wild regardless of class — so a
    /// cell-level diff is a complete change record. Returns the NS-rule
    /// events the chase fired.
    fn propagate_all(&mut self) -> Vec<chase::NsEvent> {
        if !self.policy.propagate {
            return Vec::new();
        }
        let chase::NsChaseResult {
            instance: chased,
            events,
            ..
        } = chase::chase_plain(&self.instance, &self.fds);
        if !events.is_empty() {
            let all = self.instance.schema().all_attrs();
            let changed: Vec<RowId> = self
                .instance
                .row_ids()
                .filter(|&row| {
                    let before = self.instance.tuple(row);
                    let after = chased.tuple(row);
                    all.iter().any(|a| before.get(a) != after.get(a))
                })
                .collect();
            self.instance = chased;
            for &row in &changed {
                self.index.rekey_row(&self.instance, row);
            }
            self.rec
                .add(fdi_obs::Counter::IndexRowsRekeyed, changed.len() as u64);
        }
        events
    }

    /// Incremental strong check of the tuple at `row` (the candidate
    /// insert, already parsed into the instance but not yet indexed)
    /// against the preexisting rows, via the index. Returns the first
    /// violation.
    fn incremental_strong_check(&self, tuple: &Tuple, row: RowId) -> Option<Violation> {
        for (i, fd) in self.fds.iter().enumerate() {
            let fd = fd.normalized();
            for other_row in self.index.candidates(i, tuple, &self.instance) {
                if other_row == row {
                    continue; // the candidate itself (live, not yet filed)
                }
                let other = self.instance.tuple(other_row);
                let x_match = fd
                    .lhs
                    .iter()
                    .all(|a| strong_eq(tuple.get(a), other.get(a), &self.instance));
                if !x_match {
                    continue;
                }
                let y_conflict = fd
                    .rhs
                    .iter()
                    .any(|a| strong_neq(tuple.get(a), other.get(a), &self.instance));
                if y_conflict {
                    return Some(Violation {
                        fd_index: i,
                        rows: (other_row, row),
                    });
                }
            }
        }
        None
    }

    /// Inserts a row given as text tokens (`-`, `?mark`, constants).
    /// The accepted row is filed into the index by a delta insert; a
    /// rejected row is removed again (leaving no tuple trace — see the
    /// module docs for what token parsing may intern).
    pub fn insert(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let result = self.insert_inner(tokens);
        self.record_op(&result);
        result
    }

    fn insert_inner(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let row = self.instance.add_row(tokens)?;
        let rejection = match self.policy.enforcement {
            Enforcement::Strong => {
                let tuple = self.instance.tuple(row).clone();
                self.incremental_strong_check(&tuple, row)
                    .map(|v| UpdateError::Rejected {
                        violation: Some(v),
                        enforcement: Enforcement::Strong,
                    })
            }
            Enforcement::Weak => (!chase::weakly_satisfiable_via_chase(&self.fds, &self.instance))
                .then_some(UpdateError::Rejected {
                    violation: None,
                    enforcement: Enforcement::Weak,
                }),
            Enforcement::None => None,
        };
        if let Some(err) = rejection {
            self.instance.remove_row(row);
            return Err(err);
        }
        self.index.insert_row(&self.instance, row);
        self.rec.incr(fdi_obs::Counter::IndexRowsInserted);
        Ok(UpdateOutcome {
            row,
            propagated: self.propagate_all(),
        })
    }

    /// Deletes a row. Deletion can never break satisfiability (both
    /// notions are anti-monotone in the tuple set), so it always
    /// succeeds. The instance tombstones the slot and the index unfiles
    /// one row — `O(|F| · bucket)` total, with **no survivor
    /// renumbering anywhere** (every other [`RowId`] stays valid).
    pub fn delete(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        let result = self.delete_inner(row);
        self.record_op(&result);
        result
    }

    fn delete_inner(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        self.instance.remove_row(row);
        self.index.remove_row(row);
        self.rec.incr(fdi_obs::Counter::IndexRowsRemoved);
        Ok(UpdateOutcome {
            row,
            propagated: Vec::new(),
        })
    }

    /// Densifies the slot arena after heavy churn: compacts the
    /// instance ([`Instance::compact`]) and remaps the index
    /// ([`LhsIndex::remap`]) in `O(moved)`. Returns the old → new id
    /// pairs of every row that moved — previously held [`RowId`]s for
    /// those rows are invalidated.
    pub fn compact(&mut self) -> Vec<(RowId, RowId)> {
        let moved = self.instance.compact();
        self.index.remap(&moved);
        self.rec.incr(fdi_obs::Counter::OpsApplied);
        self.rec
            .add(fdi_obs::Counter::IndexRowsRemapped, moved.len() as u64);
        moved
    }

    /// Replaces the value of one cell (checked like an insert). On
    /// rejection the cell is restored; on acceptance the row is re-keyed
    /// in place — one delta, no rebuild.
    pub fn modify(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.modify_inner(row, attr, token);
        self.record_op(&result);
        result
    }

    fn modify_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        let value = parse_token(&mut self.instance, attr, token)?;
        let old = self.instance.value(row, attr);
        self.instance.set_value(row, attr, value);
        if let Err(e) = check_instance(&self.instance, &self.fds, self.policy.enforcement) {
            self.instance.set_value(row, attr, old);
            return Err(e);
        }
        self.index.rekey_row(&self.instance, row);
        self.rec.incr(fdi_obs::Counter::IndexRowsRekeyed);
        Ok(UpdateOutcome {
            row,
            propagated: self.propagate_all(),
        })
    }

    /// External acquisition: the user asserts the actual value of a
    /// null. Every occurrence of the null's NEC class receives the
    /// value, and the result is checked under the policy — "the only
    /// value a user can insert without the creation of an inconsistency"
    /// (§4) is exactly a value this method accepts. On rejection every
    /// substituted cell is restored; on acceptance only the rows that
    /// held an occurrence are re-keyed.
    pub fn resolve_null(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.resolve_null_inner(row, attr, token);
        self.record_op(&result);
        result
    }

    fn resolve_null_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        let Value::Null(id) = self.instance.value(row, attr) else {
            return Err(UpdateError::NotANull { row, attr });
        };
        let symbol = match parse_token(&mut self.instance, attr, token)? {
            Value::Const(s) => s,
            _ => {
                return Err(UpdateError::Relation(RelationError::Parse {
                    line: 0,
                    message: format!("resolve_null needs a constant, got {token:?}"),
                }))
            }
        };
        // Substitute the whole class, remembering each change for the
        // rollback and the per-row re-key.
        let all = self.instance.schema().all_attrs();
        let rows: Vec<RowId> = self.instance.row_ids().collect();
        let mut changed: Vec<(RowId, AttrId, Value)> = Vec::new();
        for r in rows {
            for a in all.iter() {
                if let Value::Null(n) = self.instance.value(r, a) {
                    if self.instance.necs().same_class(n, id) {
                        changed.push((r, a, Value::Null(n)));
                        self.instance.set_value(r, a, Value::Const(symbol));
                    }
                }
            }
        }
        if let Err(e) = check_instance(&self.instance, &self.fds, self.policy.enforcement) {
            for &(r, a, old) in &changed {
                self.instance.set_value(r, a, old);
            }
            return Err(e);
        }
        let mut touched: Vec<RowId> = changed.iter().map(|&(r, _, _)| r).collect();
        touched.dedup(); // changes were recorded in ascending row order
        for &r in &touched {
            self.index.rekey_row(&self.instance, r);
        }
        self.rec
            .add(fdi_obs::Counter::IndexRowsRekeyed, touched.len() as u64);
        Ok(UpdateOutcome {
            row,
            propagated: self.propagate_all(),
        })
    }
}

/// Strong-convention equality for the incremental check. One guard on
/// top of [`semantics::Strong`]'s trait predicate: the incremental
/// check pins `nothing` as matching *nothing* even against a null
/// (TEST-FDs' pessimistic equality lets a null potentially match the
/// inconsistent element), so index triggers never fire through an
/// already-inconsistent cell.
fn strong_eq(a: Value, b: Value, instance: &Instance) -> bool {
    match (a, b) {
        (Value::Nothing, _) | (_, Value::Nothing) => false,
        _ => semantics::Strong.values_equal(a, b, instance),
    }
}

/// Strong-convention inequality for the incremental check — exactly
/// [`semantics::Strong`]'s trait predicate.
fn strong_neq(a: Value, b: Value, instance: &Instance) -> bool {
    semantics::Strong.values_unequal(a, b, instance)
}

fn check_instance(
    instance: &Instance,
    fds: &FdSet,
    enforcement: Enforcement,
) -> Result<(), UpdateError> {
    match enforcement {
        Enforcement::Strong => {
            testfd::check_strong(instance, fds).map_err(|v| UpdateError::Rejected {
                violation: Some(v),
                enforcement: Enforcement::Strong,
            })
        }
        Enforcement::Weak => {
            if chase::weakly_satisfiable_via_chase(fds, instance) {
                Ok(())
            } else {
                Err(UpdateError::Rejected {
                    violation: None,
                    enforcement: Enforcement::Weak,
                })
            }
        }
        Enforcement::None => Ok(()),
    }
}

fn parse_token(instance: &mut Instance, attr: AttrId, token: &str) -> Result<Value, UpdateError> {
    if token == "-" {
        Ok(Value::Null(instance.fresh_null()))
    } else if token == "#!" {
        Ok(Value::Nothing)
    } else if let Some(mark) = token.strip_prefix('?') {
        match instance.mark(mark) {
            Some(id) => Ok(Value::Null(id)),
            None => Ok(Value::Null(instance.fresh_null())),
        }
    } else {
        Ok(Value::Const(instance.intern_constant(attr, token)?))
    }
}

/// Full revalidation insert (no index): the baseline experiment E19
/// compares [`Database::insert`] against.
///
/// Generic over the null-comparison [`Semantics`]: acceptance is
/// [`semantics::decide`] on the scratch instance (chase-then-test for
/// the weak convention, direct TEST-FDs otherwise), so the two
/// [`testfd::Convention`] values behave exactly as before and the alternative
/// semantics slot in without touching the journal. The [`Enforcement`]
/// tag on a rejection maps the strong convention to
/// [`Enforcement::Strong`] and every optimistic-family semantics to
/// [`Enforcement::Weak`] — the journal's enforcement vocabulary is
/// frozen at two values.
pub fn insert_with_full_recheck<S: Semantics>(
    instance: &mut Instance,
    fds: &FdSet,
    tokens: &[&str],
    sem: S,
) -> Result<RowId, UpdateError> {
    let mut scratch = instance.clone();
    let row = scratch.add_row(tokens)?;
    match semantics::decide(&scratch, fds, sem) {
        Ok(()) => {
            *instance = scratch;
            Ok(row)
        }
        Err(v) => Err(UpdateError::Rejected {
            violation: Some(v),
            enforcement: match sem.kind() {
                SemanticsKind::Strong => Enforcement::Strong,
                _ => Enforcement::Weak,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn strong_db() -> Database {
        Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Strong,
                propagate: true,
            },
        )
        .expect("figure 1.2 is strongly satisfied")
    }

    /// The invariant behind every delta operation: the maintained index
    /// is bucket-identical to a fresh build.
    fn assert_index_fresh(db: &Database) {
        assert!(
            db.index().same_buckets(&LhsIndex::build(
                db.instance(),
                db.fds(),
                &fdi_exec::Executor::with_threads(1)
            )),
            "delta-maintained index diverged from a fresh build"
        );
    }

    #[test]
    fn inserts_respecting_fds_are_accepted() {
        let mut db = strong_db();
        let n = db.instance().len();
        let out = db
            .insert(&["e4", "20K", "d3", "part"])
            .expect("clean insert");
        assert!(db.instance().is_live(out.row));
        assert_eq!(db.instance().nth_row(n), out.row);
        assert_eq!(db.instance().len(), n + 1);
        assert_index_fresh(&db);
    }

    #[test]
    fn conflicting_inserts_are_rejected_under_strong() {
        let mut db = strong_db();
        // e1 already earns 10K in d1: a different salary must be rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Strong,
                ..
            }
        ));
        // nulls are also rejected under strong when they *could* collide
        let err = db.insert(&["e1", "-", "d1", "full"]).unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        assert_eq!(db.instance().len(), 3, "rejected inserts leave no trace");
        assert_index_fresh(&db);
    }

    #[test]
    fn weak_policy_accepts_possibly_consistent_inserts() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        // the null salary may later turn out to equal e1's: weakly fine
        db.insert(&["e1", "-", "d1", "full"]).expect("weakly fine");
        // a definite contradiction is still rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Weak,
                ..
            }
        ));
        assert_index_fresh(&db);
    }

    #[test]
    fn internal_acquisition_fills_nulls_on_insert() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: true,
            },
        )
        .unwrap();
        // d1's contract type is known (full): inserting (e5, 20K, d1, -)
        // lets the NS-rule resolve the null immediately.
        let out = db.insert(&["e5", "20K", "d1", "-"]).expect("insert");
        assert_eq!(out.propagated.len(), 1);
        let ct = db.instance().value(out.row, AttrId(3));
        assert_eq!(
            ct.render(db.instance().symbols(), false),
            "full",
            "internal acquisition: the only consistent value was substituted"
        );
        assert_index_fresh(&db);
    }

    #[test]
    fn resolve_null_checks_consistency() {
        let mut db = Database::new(
            fixtures::figure1_null_instance(),
            fixtures::figure1_fds(),
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        // e3's D# is null; resolving it to d1 forces CT=full vs e3's
        // part — contradiction, rejected.
        let e3 = db.instance().nth_row(2);
        let err = db.resolve_null(e3, AttrId(2), "d1").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        assert_index_fresh(&db);
        // resolving to d3 is fine (no other d3 row)
        db.resolve_null(e3, AttrId(2), "d3")
            .expect("consistent value");
        assert_eq!(
            db.instance()
                .value(e3, AttrId(2))
                .render(db.instance().symbols(), false),
            "d3"
        );
        assert_index_fresh(&db);
        // pointing at a non-null errs
        let e1 = db.instance().nth_row(0);
        let err = db.resolve_null(e1, AttrId(0), "e1").unwrap_err();
        assert!(matches!(err, UpdateError::NotANull { .. }));
    }

    #[test]
    fn resolve_null_substitutes_the_whole_class() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(schema.clone(), "a1 ?x c1\na2 ?x c2").unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut db = Database::new(
            r,
            fds,
            Policy {
                enforcement: Enforcement::Weak,
                propagate: false,
            },
        )
        .unwrap();
        let r0 = db.instance().nth_row(0);
        let r1 = db.instance().nth_row(1);
        db.resolve_null(r0, AttrId(1), "b1").expect("consistent");
        assert!(
            db.instance().value(r1, AttrId(1)).is_const(),
            "class-wide substitution"
        );
        assert_index_fresh(&db);
    }

    #[test]
    fn deletes_always_succeed_and_reindex() {
        let mut db = strong_db();
        let victim = db.instance().nth_row(1);
        db.delete(victim).expect("delete");
        assert_eq!(db.instance().len(), 2);
        assert!(db.delete(victim).is_err(), "the slot is dead now");
        assert!(db.delete(fdi_relation::RowId(99)).is_err());
        assert_index_fresh(&db);
        // still insertable after the delta remove
        db.insert(&["e2", "25K", "d3", "part"]).expect("reinsert");
        assert_index_fresh(&db);
    }

    #[test]
    fn modify_is_policy_checked() {
        let mut db = strong_db();
        let e1 = db.instance().nth_row(0);
        let e2 = db.instance().nth_row(1);
        // moving e2 into d2 would pair its `full` contract with e3's
        // `part` under D# → CT: rejected.
        let err = db.modify(e2, AttrId(2), "d2").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }), "d2 is part");
        assert_index_fresh(&db);
        // d3 is unused: fine.
        db.modify(e2, AttrId(2), "d3").expect("no d3 rows yet");
        // and with e2 out of d1, e1's contract can change freely.
        db.modify(e1, AttrId(3), "part")
            .expect("d1 now has one member");
        assert_index_fresh(&db);
    }

    #[test]
    fn incremental_and_full_checks_agree() {
        // randomized agreement: incremental-indexed insert decision ≡
        // full TEST-FDs revalidation decision, under strong enforcement.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let spec = fdi_gen_spec();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
            let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
            let mut db = Database::new(
                fdi_relation::Instance::new(schema.clone()),
                fds.clone(),
                Policy {
                    enforcement: Enforcement::Strong,
                    propagate: false,
                },
            )
            .unwrap();
            let mut plain = fdi_relation::Instance::new(schema.clone());
            for _ in 0..spec {
                let tokens: Vec<String> = ["A", "B", "C"]
                    .iter()
                    .map(|attr| {
                        if rng.gen_bool(0.15) {
                            "-".to_string()
                        } else {
                            format!("{attr}_{}", rng.gen_range(0..4))
                        }
                    })
                    .collect();
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let incremental = db.insert(&refs).is_ok();
                let full =
                    insert_with_full_recheck(&mut plain, &fds, &refs, testfd::Convention::Strong)
                        .is_ok();
                assert_eq!(incremental, full, "seed {seed}, tokens {tokens:?}");
            }
            assert_index_fresh(&db);
        }
    }

    fn fdi_gen_spec() -> usize {
        24
    }

    #[test]
    fn index_candidates_shrink_with_groups() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 16).unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut r = fdi_relation::Instance::new(schema);
        for i in 0..16 {
            r.add_row(&[&format!("A_{i}"), "B_0"]).unwrap();
        }
        let index = LhsIndex::build(&r, &fds, &fdi_exec::Executor::with_threads(1));
        assert_eq!(index.group_count(0), 16);
        let probe = r.tuple(r.nth_row(0)).clone();
        let candidates = index.candidates(0, &probe, &r);
        assert_eq!(candidates.len(), 1, "exact group only, no wild tuples");
    }
}
