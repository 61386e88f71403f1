//! The indexed worklist engine for the plain NS-rules.
//!
//! The naive engine in [`super::ns`] re-scans every tuple pair for every
//! FD on every pass — `O(|F|·n²)` agreement checks per pass and an
//! `O(n·p)` full-instance scan per substitution, `O(|F|·n³)` in the
//! worst case. This module replaces both scans with indexes:
//!
//! * a **group index** per FD: rows hash-partitioned by the
//!   NEC-canonical key of their determinant projection
//!   ([`crate::groupkey`]), so a tuple's NS-rule partners are exactly
//!   its bucket co-members — no pair scans;
//! * an **occurrence index** per NEC class: every `(row, attr)` cell
//!   holding a null of the class, merged small-into-large union-find
//!   style, so substituting a class touches only its occurrences — no
//!   instance scans;
//! * a **bucket worklist**: the first pass seeds every bucket; after
//!   that, only buckets whose *membership* changed are re-swept. Plain
//!   NS-rule applications transform whole NEC classes at once, so the
//!   applicability status of a tuple pair (equal constants / distinct
//!   constants / one null / two classes) is invariant under events
//!   elsewhere — new work can only appear where buckets gain members.
//!   Bucket keys change *en bloc* (every member of a bucket shares the
//!   key), so re-keying migrates whole buckets and re-enqueues only
//!   merged ones.
//!
//! Within a bucket, a single ascending **representative sweep** per
//! dependent attribute applies every NS-rule the naive engine would
//! apply across all `O(|bucket|²)` pairs: nulls merge into the running
//! class, and the first constant promotes it (later nulls pair against
//! the earliest constant-bearing row, exactly as the pair scan does).
//!
//! # Order fidelity (the column-local-NEC restriction)
//!
//! The plain system is not confluent (Figure 5), so matching the naive
//! engine's *result* — not just reaching some minimally incomplete
//! instance — requires replaying its site order: passes, FDs in set
//! order within a pass, buckets by least member row, rows ascending
//! within a bucket. On instances whose NEC classes are **column-local**
//! and which contain no `nothing` values, the replay is exact: same
//! chased instance, same events at the same sites, same pass count (the
//! property suite compares full event lists). Use
//! [`order_replay_caveats`] / [`order_replay_exact`] to test an
//! instance for the restriction — every condition that voids exact
//! replay is reported as a typed [`ChaseIndexCaveat`], and the `fdi-gen`
//! generators debug-assert their workloads free of them. Two regimes
//! are exempt from exact replay — in both, each engine still returns a
//! legitimate chase result (the fixpoint of *some* rule order, accepted
//! by [`super::ns::is_minimally_incomplete`]), but the choice at
//! contended sites may differ:
//!
//! * an NEC class spanning **columns** (a marked null like `?z` reused
//!   across columns — `Instance::parse` allows this; every generator
//!   keeps classes column-local): a substitution can then re-key the
//!   very FD being swept mid-flight. The worklist still guarantees the
//!   fixpoint — every re-keyed bucket re-enters it, so the engine never
//!   terminates while a rule applies (see the cross-column regression
//!   test);
//! * a **`nothing`** value in a bucket (the plain rules treat it as
//!   inert): the bucket's first applicable site may then involve later
//!   rows than its least member, so the least-member agenda order can
//!   interleave buckets differently than the global pair scan (see the
//!   nothing-divergence regression test). `nothing` belongs to the
//!   extended system; the plain chase merely tolerates it.

use crate::fd::{Fd, FdSet};
use crate::groupkey::{self, GroupKey};
use fdi_exec::Executor;
use fdi_obs::{Counter, Gauge, Recorder};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::instance::Instance;
use fdi_relation::nec::NecSnapshot;
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::value::{NullId, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use super::ns::{NsChaseResult, NsEvent, NsEventKind};

/// Runs the indexed worklist chase — the engine behind
/// [`super::ns::chase_plain`], with its **read phases sharded** onto
/// `exec` and its work profile recorded into `rec`. The result (chased
/// instance, events at their sites, pass count) is **bit-identical at
/// every thread count** — with or without [`ChaseIndexCaveat`]s present;
/// the caveats govern fidelity to the *naive* engine, not to this one.
///
/// Parallelism never touches rule application. Two phases shard:
///
/// * the **index build** (per-FD determinant buckets, the occurrence
///   index): shard-local maps merged in shard order, so every bucket
///   and occurrence list equals its single-shard counterpart;
/// * with more than one thread, per pass and FD, the **agenda
///   classification**: every agenda bucket is scanned read-only against
///   the pass-start state and flagged *clean* (no NS-rule applicable)
///   or *dirty*.
///
/// Application then replays the agenda **sequentially in agenda
/// order**, sweeping dirty buckets and skipping clean ones — which is
/// sound because a clean bucket can only become sweepable through a
/// *membership* change (plain-rule events transform whole NEC classes,
/// so they never turn an all-one-class or all-one-constant dependent
/// column into a mixed one; only bucket migration adds members), and
/// every migration target is tracked and re-checked. Skipped sweeps
/// are therefore provably no-ops, and the surviving sweeps run in
/// exactly the inline engine's order against exactly its state.
///
/// Records `chase_passes`, `chase_bucket_sweeps` (agenda entries
/// scheduled — identical at every thread count; the classified path may
/// *skip* provably-no-op sweeps but schedules the same agenda),
/// `chase_substitutions`, `chase_unions`, and the `chase_worklist_peak`
/// high-watermark. All recording happens in the sequential application
/// path, so every recorded value is deterministic (see [`fdi_obs`]).
pub fn chase_indexed(
    instance: &Instance,
    fds: &FdSet,
    exec: &Executor,
    rec: &Recorder,
) -> NsChaseResult {
    let mut engine = Engine::new(instance, fds, exec);
    engine.rec = rec.clone();
    let passes = engine.run(instance, exec);
    NsChaseResult {
        instance: engine.work,
        events: engine.events,
        passes,
    }
}

/// Is no plain NS-rule applicable? Group-indexed equivalent of the
/// pairwise definition: a bucket violates minimal incompleteness iff
/// some dependent column mixes a null with a constant or holds two
/// distinct null classes.
pub(crate) fn is_minimally_incomplete_indexed(instance: &Instance, fds: &FdSet) -> bool {
    let snapshot = instance.necs().canonical_snapshot();
    for fd in fds {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue; // agreement on X forces agreement on Y ⊆ X
        }
        let buckets = groupkey::group_rows(
            instance,
            fd.lhs,
            &snapshot,
            false,
            &Executor::with_threads(1),
        );
        for rows in buckets.values() {
            if rows.len() < 2 {
                continue;
            }
            for b in fd.rhs.iter() {
                let mut seen_const: Option<Symbol> = None;
                let mut seen_class: Option<NullId> = None;
                for &row in rows {
                    match instance.value(row, b) {
                        Value::Nothing => {}
                        Value::Const(c) => {
                            if seen_class.is_some() {
                                return false; // rule (a): substitution applies
                            }
                            seen_const = seen_const.or(Some(c));
                        }
                        Value::Null(m) => {
                            if seen_const.is_some() {
                                return false; // rule (a)
                            }
                            let root = snapshot.root(m);
                            match seen_class {
                                Some(prior) if prior != root => return false, // rule (b)
                                _ => seen_class = Some(root),
                            }
                        }
                    }
                }
            }
        }
    }
    true
}

/// A condition voiding the indexed chase's *exact replay* of the naive
/// engine — the order-fidelity restriction of the module docs, as a
/// typed, testable value instead of a buried comment.
///
/// A caveat does **not** make [`chase_indexed`] wrong: both engines
/// still reach a fixpoint of the plain rules (a minimally incomplete
/// instance), but on a caveat-bearing instance they may make different
/// choices at contended sites (Figure 5's order dependence), so their
/// chased instances, event lists, and pass counts are no longer
/// guaranteed identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseIndexCaveat {
    /// An NEC class spans more than one column (a marked null like `?z`
    /// reused across columns — `Instance::parse` allows this; every
    /// generator keeps classes column-local). A substitution can then
    /// re-key the very FD being swept mid-flight, and the engines may
    /// order the contended sites differently.
    CrossColumnNecClass {
        /// A null of the offending class.
        null: NullId,
        /// Two distinct columns the class occurs under.
        columns: (AttrId, AttrId),
    },
    /// A `nothing` value occupies a cell. The plain rules treat
    /// `nothing` as inert, so a bucket's first applicable site may
    /// involve later rows than its least member and the least-member
    /// agenda can interleave buckets differently than the global pair
    /// scan. (`nothing` belongs to the extended system of
    /// [`super::cells`]; the plain chase merely tolerates it.)
    NothingValue {
        /// Row of the cell.
        row: RowId,
        /// Attribute of the cell.
        attr: AttrId,
    },
}

impl std::fmt::Display for ChaseIndexCaveat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseIndexCaveat::CrossColumnNecClass { null, columns } => write!(
                f,
                "NEC class of {null} spans columns {} and {}: indexed chase order \
                 may diverge from the naive engine",
                columns.0, columns.1
            ),
            ChaseIndexCaveat::NothingValue { row, attr } => write!(
                f,
                "`nothing` at ({row}, {attr}): indexed chase order may diverge \
                 from the naive engine"
            ),
        }
    }
}

/// Scans `instance` for every condition voiding exact naive-order
/// replay (see [`ChaseIndexCaveat`]): one caveat per cross-column NEC
/// class and one per `nothing` cell, in row-major order of first
/// detection.
pub fn order_replay_caveats(instance: &Instance) -> Vec<ChaseIndexCaveat> {
    let mut caveats = Vec::new();
    let snapshot = instance.necs().canonical_snapshot();
    let mut class_col: HashMap<NullId, AttrId> = HashMap::new();
    let mut flagged: HashSet<NullId> = HashSet::new();
    let all = instance.schema().all_attrs();
    for row in instance.row_ids() {
        for attr in all.iter() {
            match instance.value(row, attr) {
                Value::Nothing => caveats.push(ChaseIndexCaveat::NothingValue { row, attr }),
                Value::Null(n) => {
                    let root = snapshot.root(n);
                    match class_col.get(&root) {
                        Some(&col) if col != attr => {
                            if flagged.insert(root) {
                                caveats.push(ChaseIndexCaveat::CrossColumnNecClass {
                                    null: n,
                                    columns: (col, attr),
                                });
                            }
                        }
                        Some(_) => {}
                        None => {
                            class_col.insert(root, attr);
                        }
                    }
                }
                Value::Const(_) => {}
            }
        }
    }
    caveats
}

/// `true` iff [`chase_indexed`] is guaranteed to replay
/// [`super::ns::chase_naive`] exactly on `instance` — same chased
/// instance, events, and pass count (no [`ChaseIndexCaveat`] present).
pub fn order_replay_exact(instance: &Instance) -> bool {
    order_replay_caveats(instance).is_empty()
}

/// One FD slot: its position in the original set plus the normalized
/// dependency (trivial members are dropped up front — agreement on `X`
/// makes every `Y ⊆ X` comparison inert).
struct FdSlot {
    original_index: usize,
    fd: Fd,
}

struct Engine {
    work: Instance,
    fds: Vec<FdSlot>,
    /// Per FD slot: canonical determinant key → member rows. Lists are
    /// kept **unsorted** so bucket merges are `O(moved)` appends —
    /// sorting happens once per sweep instead (collision-skewed
    /// workloads produce heavy buckets, and per-migration merge-sorts
    /// into a heavy bucket would cost `O(|bucket|)` per event).
    buckets: Vec<HashMap<GroupKey, Vec<RowId>>>,
    /// Per FD slot, per row *slot*: the key its bucket is filed under
    /// (dense side table indexed by `RowId::index`, sized
    /// `slot_bound`; dead slots hold an unused default).
    row_keys: Vec<Vec<GroupKey>>,
    /// NEC class root → null occurrences `(row, attr)` of the class.
    occurrences: HashMap<u32, Vec<(RowId, u16)>>,
    /// attr index → FD slots with that attribute in their determinant.
    lhs_slots: Vec<Vec<usize>>,
    /// Per FD slot: bucket keys whose membership changed (the worklist).
    dirty: Vec<HashSet<GroupKey>>,
    /// Per FD slot: bucket keys migrated *into* since the slot's agenda
    /// was classified this pass — the keys whose clean verdicts are
    /// stale (membership grew). Only maintained and consulted on the
    /// parallel run path (`parallel`); cleared per (pass, slot).
    touched: Vec<HashSet<GroupKey>>,
    /// Was the engine built for a multi-thread executor? Gates the
    /// classification phase and the `touched` bookkeeping so the inline
    /// path pays nothing for them.
    parallel: bool,
    events: Vec<NsEvent>,
    /// Metrics sink, set by [`chase_indexed`]. Only ever touched from
    /// the sequential application path, so recorded values are
    /// thread-count-invariant.
    rec: Recorder,
}

/// The non-trivial FDs of the set, with their original indexes.
fn fd_slots(fds: &FdSet) -> Vec<FdSlot> {
    fds.iter()
        .enumerate()
        .map(|(original_index, fd)| FdSlot {
            original_index,
            fd: fd.normalized(),
        })
        .filter(|slot| !slot.fd.is_trivial())
        .collect()
}

/// Is no plain NS-rule applicable within this bucket? Read-only twin of
/// [`Engine::sweep_bucket`]'s trigger conditions, for the parallel
/// classification phase: a bucket is *clean* iff every dependent column
/// holds (besides inert `nothing`s) only one constant or only nulls of
/// one NEC class.
fn bucket_clean(work: &Instance, snapshot: &NecSnapshot, rows: &[RowId], rhs: AttrSet) -> bool {
    for attr in rhs.iter() {
        let mut seen_const = false;
        let mut seen_class: Option<NullId> = None;
        for &row in rows {
            match work.value(row, attr) {
                Value::Nothing => {}
                Value::Const(_) => {
                    if seen_class.is_some() {
                        return false; // rule (a): null + constant
                    }
                    seen_const = true;
                }
                Value::Null(n) => {
                    if seen_const {
                        return false; // rule (a)
                    }
                    let root = snapshot.root(n);
                    match seen_class {
                        Some(prior) if prior != root => return false, // rule (b)
                        _ => seen_class = Some(root),
                    }
                }
            }
        }
    }
    true
}

impl Engine {
    /// Builds the engine with the index construction sharded over
    /// [`RowId`] ranges: per-FD buckets, the per-slot key table, and
    /// the occurrence index are each assembled from shard-local pieces
    /// merged in shard order, so bucket member lists and occurrence
    /// lists stay ascending / row-major at every thread count.
    fn new(instance: &Instance, fds: &FdSet, exec: &Executor) -> Engine {
        let mut work = instance.clone();
        let slots = fd_slots(fds);
        let bound = work.slot_bound();
        let arity = work.arity();
        let snapshot = work.necs().canonical_snapshot();
        let shards = work.row_id_shards(exec.shard_count(2));

        // Occurrence index: shard-local row-major scans, merged in
        // shard order — each class's list stays (row, col)-major.
        // Classes are keyed by snapshot root, which equals the
        // union–find root `find` would return (compression changes
        // parents, never roots).
        let occurrences = groupkey::merge_in_shard_order(exec.map(&shards, |_, &shard| {
            let mut occ: HashMap<u32, Vec<(RowId, u16)>> = HashMap::new();
            for (row, tuple) in work.iter_live_in(shard) {
                for col in 0..arity {
                    if let Value::Null(id) = tuple.get(AttrId(col as u16)) {
                        occ.entry(snapshot.root(id).0)
                            .or_default()
                            .push((row, col as u16));
                    }
                }
            }
            occ
        }));

        // Per-FD determinant buckets and the dense per-slot key table:
        // every shard covers a disjoint slot range, so its key segment
        // writes into disjoint positions of the table.
        let per_shard = work.len() / shards.len() + 1;
        let mut buckets = Vec::with_capacity(slots.len());
        let mut row_keys = Vec::with_capacity(slots.len());
        for slot in &slots {
            let lhs = slot.fd.lhs;
            let locals = exec.map(&shards, |_, &shard| {
                let mut fd_buckets: HashMap<GroupKey, Vec<RowId>> =
                    HashMap::with_capacity(per_shard);
                let mut keys: Vec<(RowId, GroupKey)> = Vec::with_capacity(per_shard);
                let mut key = GroupKey::new();
                for (row, tuple) in work.iter_live_in(shard) {
                    groupkey::key_into(&mut key, tuple, row, lhs, &snapshot);
                    fd_buckets.entry(key.clone()).or_default().push(row);
                    keys.push((row, key.clone()));
                }
                (fd_buckets, keys)
            });
            let mut fd_keys: Vec<GroupKey> = vec![GroupKey::new(); bound];
            let mut shard_buckets = Vec::with_capacity(locals.len());
            for (local_buckets, keys) in locals {
                shard_buckets.push(local_buckets);
                for (row, key) in keys {
                    fd_keys[row.index()] = key;
                }
            }
            buckets.push(groupkey::merge_in_shard_order(shard_buckets));
            row_keys.push(fd_keys);
        }

        // One `find` per live null compresses the working NEC forest,
        // so the root lookups of rule application stay one hop (the
        // compressed forest does not depend on the order of the finds).
        for occs in occurrences.values() {
            for &(row, col) in occs {
                if let Value::Null(id) = work.value(row, AttrId(col)) {
                    work.necs_mut().find(id);
                }
            }
        }

        let mut lhs_slots = vec![Vec::new(); arity];
        for (si, slot) in slots.iter().enumerate() {
            for a in slot.fd.lhs.iter() {
                lhs_slots[a.index()].push(si);
            }
        }
        let dirty = vec![HashSet::new(); slots.len()];
        let touched = vec![HashSet::new(); slots.len()];
        Engine {
            work,
            fds: slots,
            buckets,
            row_keys,
            occurrences,
            lhs_slots,
            dirty,
            touched,
            parallel: exec.threads() > 1,
            events: Vec::new(),
            rec: Recorder::noop(),
        }
    }

    /// Runs passes to the fixpoint; returns the pass count (the final
    /// pass applies nothing, mirroring the naive engine's counter).
    ///
    /// With a multi-thread executor, each (pass, FD) agenda is first
    /// **classified in parallel** (read-only: is any rule applicable in
    /// this bucket?) and the sequential application loop then skips the
    /// clean buckets — unless a migration has since grown their
    /// membership (`touched`), the one way a clean verdict can go
    /// stale. Skipped sweeps are provably no-ops, so events, states,
    /// and pass counts are identical at every thread count.
    fn run(&mut self, original: &Instance, exec: &Executor) -> usize {
        let parallel = self.parallel;
        let mut passes = 0;
        loop {
            passes += 1;
            self.rec.incr(Counter::ChasePasses);
            let before = self.events.len();
            for si in 0..self.fds.len() {
                // Keys collected up front and re-checked on use: sweeps
                // migrate buckets of *other* FDs freely, and (with
                // cross-column NEC classes) occasionally this one.
                let min_row = |rows: &[RowId]| rows.iter().copied().min().expect("non-empty");
                let mut agenda: Vec<(RowId, GroupKey)> = if passes == 1 {
                    self.buckets[si]
                        .iter()
                        .filter(|(_, rows)| rows.len() > 1)
                        .map(|(key, rows)| (min_row(rows), key.clone()))
                        .collect()
                } else {
                    std::mem::take(&mut self.dirty[si])
                        .into_iter()
                        .filter_map(|key| {
                            let rows = self.buckets[si].get(&key)?;
                            (rows.len() > 1).then(|| (min_row(rows), key))
                        })
                        .collect()
                };
                if passes == 1 {
                    self.dirty[si].clear();
                }
                agenda.sort_unstable();
                self.rec
                    .add(Counter::ChaseBucketSweeps, agenda.len() as u64);
                self.rec
                    .gauge_max(Gauge::ChaseWorklistPeak, agenda.len() as u64);
                let clean: Vec<bool> = if parallel && agenda.len() > 1 {
                    let snapshot = self.work.necs().canonical_snapshot();
                    let work = &self.work;
                    let buckets = &self.buckets[si];
                    let rhs = self.fds[si].fd.rhs;
                    exec.map(&agenda, |_, (_, key)| match buckets.get(key) {
                        Some(rows) => bucket_clean(work, &snapshot, rows, rhs),
                        None => true, // unreachable: nothing ran since the draw
                    })
                } else {
                    vec![false; agenda.len()]
                };
                // Clean verdicts hold from here on unless a migration
                // grows a bucket — start tracking those now.
                if parallel {
                    self.touched[si].clear();
                }
                for (idx, (_, key)) in agenda.iter().enumerate() {
                    if clean[idx] && !self.touched[si].contains(key) {
                        continue; // provably a no-op sweep
                    }
                    self.sweep_bucket(si, key);
                }
            }
            if self.events.len() == before {
                break;
            }
            assert!(
                passes <= original.null_count() + original.len() * original.arity() + 2,
                "indexed chase failed to terminate"
            );
        }
        passes
    }

    /// Applies every applicable NS-rule within one bucket: for each
    /// dependent attribute, an ascending sweep merging nulls into the
    /// running class and promoting on the first constant — the same
    /// events the naive pair scan fires at this bucket's sites.
    fn sweep_bucket(&mut self, si: usize, key: &GroupKey) {
        let Some(mut rows) = self.buckets[si].get(key).cloned() else {
            return; // migrated away since the agenda was drawn
        };
        rows.sort_unstable();
        let (fd, original_index) = (self.fds[si].fd, self.fds[si].original_index);
        for attr in fd.rhs.iter() {
            let mut anchor_const: Option<RowId> = None;
            let mut pending_null: Option<(RowId, NullId)> = None;
            for &row in &rows {
                match self.work.value(row, attr) {
                    Value::Nothing => {}
                    Value::Const(value) => {
                        if anchor_const.is_none() {
                            anchor_const = Some(row);
                            if let Some((null_row, class)) = pending_null.take() {
                                self.substitute(class, value);
                                self.push_event(
                                    original_index,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::Substituted { class, value },
                                );
                                // The promoted pending row now holds the
                                // constant and precedes this row, so it is
                                // the site the naive pair scan pairs later
                                // nulls against.
                                anchor_const = Some(null_row);
                            }
                        }
                        // A second, distinct constant is where the plain
                        // system is stuck (the extended system's case).
                    }
                    Value::Null(id) => {
                        if let Some(const_row) = anchor_const {
                            let value = match self.work.value(const_row, attr) {
                                Value::Const(c) => c,
                                _ => unreachable!("anchor row holds a constant"),
                            };
                            self.substitute(id, value);
                            self.push_event(
                                original_index,
                                const_row,
                                row,
                                attr,
                                NsEventKind::Substituted { class: id, value },
                            );
                        } else if let Some((null_row, prior)) = pending_null {
                            if !self.work.necs().same_class(prior, id) {
                                self.merge(prior, id);
                                self.push_event(
                                    original_index,
                                    null_row,
                                    row,
                                    attr,
                                    NsEventKind::NecIntroduced { a: prior, b: id },
                                );
                            }
                        } else {
                            pending_null = Some((row, id));
                        }
                    }
                }
            }
        }
    }

    fn push_event(
        &mut self,
        fd_index: usize,
        row_a: RowId,
        row_b: RowId,
        attr: AttrId,
        kind: NsEventKind,
    ) {
        self.events.push(NsEvent {
            fd_index,
            rows: (row_a.min(row_b), row_a.max(row_b)),
            attr,
            kind,
        });
    }

    /// Rule (a): substitutes every occurrence of `id`'s class with
    /// `value`, then migrates the buckets whose keys mentioned the class.
    fn substitute(&mut self, id: NullId, value: Symbol) {
        self.rec.incr(Counter::ChaseSubstitutions);
        let root = self.work.necs_mut().find(id);
        let occs = self.occurrences.remove(&root.0).unwrap_or_default();
        for &(row, col) in &occs {
            debug_assert!(matches!(self.work.value(row, AttrId(col)), Value::Null(_)));
            self.work.set_value(row, AttrId(col), Value::Const(value));
        }
        self.migrate(&occs);
    }

    /// Rule (b): introduces the NEC `a := b`, concatenates the loser
    /// class's occurrence list onto the winner's, and migrates buckets
    /// keyed by the loser class.
    fn merge(&mut self, a: NullId, b: NullId) {
        self.rec.incr(Counter::ChaseUnions);
        let root_a = self.work.necs_mut().find(a);
        let root_b = self.work.necs_mut().find(b);
        debug_assert_ne!(root_a, root_b);
        self.work.add_nec(a, b);
        let winner = self.work.necs_mut().find(a);
        let loser = if winner == root_a { root_b } else { root_a };
        let moved = self.occurrences.remove(&loser.0).unwrap_or_default();
        self.migrate(&moved);
        self.occurrences
            .entry(winner.0)
            .or_default()
            .extend_from_slice(&moved);
    }

    /// Re-files the buckets referencing a class whose canonical atom
    /// just changed. Every member of such a bucket shares the key, so
    /// whole buckets move: a pure re-name keeps its sweep status, while
    /// a merge with an existing bucket re-enters the worklist (new
    /// members mean possible new rule sites).
    fn migrate(&mut self, occs: &[(RowId, u16)]) {
        let mut affected: HashSet<(usize, RowId)> = HashSet::new();
        for &(row, col) in occs {
            for &si in &self.lhs_slots[col as usize] {
                affected.insert((si, row));
            }
        }
        let mut touched: Vec<(usize, GroupKey)> = Vec::new();
        let mut seen: HashSet<(usize, GroupKey)> = HashSet::new();
        for (si, row) in affected {
            let key = self.row_keys[si][row.index()].clone();
            if seen.insert((si, key.clone())) {
                touched.push((si, key));
            }
        }
        for (si, old_key) in touched {
            let Some(rows) = self.buckets[si].remove(&old_key) else {
                continue; // already migrated via another occurrence
            };
            let lhs = self.fds[si].fd.lhs;
            let sample = rows[0];
            let mut new_key = GroupKey::with_capacity(lhs.len());
            for a in lhs.iter() {
                let work = &self.work;
                new_key.push(groupkey::atom_with(work.value(sample, a), sample, |n| {
                    work.necs().find_readonly(n)
                }));
            }
            for &row in &rows {
                self.row_keys[si][row.index()] = new_key.clone();
            }
            self.dirty[si].remove(&old_key);
            match self.buckets[si].entry(new_key.clone()) {
                Entry::Occupied(mut entry) => {
                    entry.get_mut().extend_from_slice(&rows);
                }
                Entry::Vacant(entry) => {
                    entry.insert(rows);
                }
            }
            // Every re-keyed bucket re-enters the worklist — not only
            // merged ones. A pure rename can strand a *pending* sweep:
            // the running pass's agenda holds the old key, so the sweep
            // would silently vanish (a cross-column NEC class renaming
            // a not-yet-swept bucket of the very FD being processed).
            // Re-enqueueing renames costs at most one no-op sweep next
            // pass in the common case; dropping one loses the fixpoint.
            // The migration target also voids any same-pass clean
            // verdict for that key (the parallel run path's `touched` —
            // the sequential path sweeps everything, so it skips the
            // bookkeeping).
            if self.parallel {
                self.touched[si].insert(new_key.clone());
            }
            self.dirty[si].insert(new_key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ns::{chase_naive, is_minimally_incomplete_naive};
    use crate::fixtures;

    fn indexed_on(r: &Instance, fds: &FdSet, threads: usize) -> NsChaseResult {
        chase_indexed(r, fds, &Executor::with_threads(threads), &Recorder::noop())
    }

    fn indexed(r: &Instance, fds: &FdSet) -> NsChaseResult {
        indexed_on(r, fds, 1)
    }

    fn assert_engines_agree(r: &Instance, fds: &FdSet) {
        assert!(
            order_replay_exact(r),
            "exact replay is only promised on caveat-free instances: {:?}",
            order_replay_caveats(r)
        );
        let naive = chase_naive(r, fds);
        let indexed = indexed(r, fds);
        assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "engines diverge on\n{}",
            r.render(true)
        );
        assert_eq!(naive.passes, indexed.passes, "pass counts");
        assert!(is_minimally_incomplete_indexed(&indexed.instance, fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, fds));
        // Event lists match site-for-site on single-attribute dependents;
        // multi-attribute dependents interleave attrs differently (the
        // sweep is attribute-major, the pair scan pair-major), so only
        // counts are compared there.
        if fds.iter().all(|fd| fd.normalized().rhs.len() == 1) {
            assert_eq!(naive.events, indexed.events, "event sites");
        } else {
            assert_eq!(naive.events.len(), indexed.events.len(), "event counts");
        }
    }

    #[test]
    fn engines_agree_on_every_fixture() {
        assert_engines_agree(&fixtures::figure5_instance(), &fixtures::figure5_fds());
        assert_engines_agree(
            &fixtures::figure5_instance(),
            &fixtures::figure5_fds().permuted(&[1, 0]),
        );
        assert_engines_agree(&fixtures::section6_instance(), &fixtures::section6_fds());
        assert_engines_agree(&fixtures::figure1_instance(), &fixtures::figure1_fds());
        assert_engines_agree(&fixtures::figure1_null_instance(), &fixtures::figure1_fds());
    }

    #[test]
    fn cascades_run_to_the_same_fixpoint() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_0
             A_0 B_1 -",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
        assert_engines_agree(&r, &fds);
        let result = indexed(&r, &fds);
        assert!(result.instance.is_complete());
    }

    #[test]
    fn class_wide_substitution_through_the_occurrence_index() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "a1 ?x c1
             a2 ?x c1
             a1 b1 c2",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert_engines_agree(&r, &fds);
        let result = indexed(&r, &fds);
        let b = AttrId(1);
        let r0 = result.instance.nth_row(0);
        let r1 = result.instance.nth_row(1);
        assert!(result.instance.value(r0, b).is_const());
        assert_eq!(result.instance.value(r0, b), result.instance.value(r1, b));
    }

    #[test]
    fn multi_attribute_dependents() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C", "D"], 5).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_1 -
             A_0 B_2 -   D_3
             A_1 B_0 C_0 D_0",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B, C, D").unwrap();
        assert_engines_agree(&r, &fds);
    }

    #[test]
    fn cross_column_classes_still_reach_a_fixpoint() {
        // `?z` spans columns A and B: substituting class z re-keys the
        // pending {?z, ?z} bucket of the same FD mid-pass. The engines
        // may legitimately diverge here (order choice at contended
        // sites), but the indexed engine must still reach a fixpoint —
        // a dropped re-keyed bucket once made it terminate early.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            matches!(
                order_replay_caveats(&r).as_slice(),
                [ChaseIndexCaveat::CrossColumnNecClass { .. }]
            ),
            "the ?z class spans columns and must be reported"
        );
        let indexed = indexed(&r, &fds);
        assert!(
            is_minimally_incomplete_naive(&indexed.instance, &fds),
            "indexed chase stopped before the fixpoint:\n{}",
            indexed.instance.render(true)
        );
        assert!(is_minimally_incomplete_indexed(&indexed.instance, &fds));
        let naive = chase_naive(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
    }

    #[test]
    fn nothing_buckets_still_reach_a_fixpoint() {
        // A `nothing` at a bucket's least row makes it inert there, so
        // the engines may pick different donors for a shared class (the
        // least-member agenda order vs the global pair order). Both
        // outcomes must be fixpoints of the plain rules.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 #!
             A_1 B_0
             A_1 ?w
             A_0 ?w
             A_0 B_1",
        )
        .unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        assert!(
            order_replay_caveats(&r)
                .iter()
                .any(|c| matches!(c, ChaseIndexCaveat::NothingValue { row: RowId(0), .. })),
            "the `nothing` cell must be reported"
        );
        let naive = chase_naive(&r, &fds);
        let indexed = indexed(&r, &fds);
        assert!(is_minimally_incomplete_naive(&naive.instance, &fds));
        assert!(is_minimally_incomplete_naive(&indexed.instance, &fds));
        assert!(is_minimally_incomplete_indexed(&indexed.instance, &fds));
        // (The chased instances legitimately differ here: ?w gets B_0
        // from one engine and B_1 from the other — Figure 5's order
        // dependence, triggered by the inert `nothing` row.)
    }

    #[test]
    fn parallel_engine_is_bit_identical_even_on_caveat_instances() {
        // chase_indexed promises identity across thread counts
        // *unconditionally* — caveats only relax fidelity
        // to the naive engine. Exercise fixture instances plus both
        // caveat regimes (cross-column class, `nothing` bucket).
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let cross = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w",
        )
        .unwrap();
        let nothing = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 #!
             A_1 B_0
             A_1 ?w
             A_0 ?w
             A_0 B_1",
        )
        .unwrap();
        let ab_fds = FdSet::parse(&schema, "A -> B").unwrap();
        let cases: Vec<(Instance, FdSet)> = vec![
            (fixtures::figure5_instance(), fixtures::figure5_fds()),
            (fixtures::section6_instance(), fixtures::section6_fds()),
            (fixtures::figure1_null_instance(), fixtures::figure1_fds()),
            (cross, ab_fds.clone()),
            (nothing, ab_fds),
        ];
        for (r, fds) in &cases {
            let sequential = indexed(r, fds);
            for threads in [2, 3, 8] {
                let parallel = indexed_on(r, fds, threads);
                assert_eq!(
                    sequential.instance.canonical_form(),
                    parallel.instance.canonical_form(),
                    "threads = {threads} on\n{}",
                    r.render(true)
                );
                assert_eq!(sequential.events, parallel.events, "threads = {threads}");
                assert_eq!(sequential.passes, parallel.passes, "threads = {threads}");
            }
        }
    }

    #[test]
    fn trivial_fds_are_inert() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 3).unwrap();
        let r = fdi_relation::Instance::parse(schema.clone(), "A_0 -\nA_0 B_1").unwrap();
        let fds = FdSet::parse(&schema, "A B -> B\nA -> B").unwrap();
        assert_engines_agree(&r, &fds);
    }
}
