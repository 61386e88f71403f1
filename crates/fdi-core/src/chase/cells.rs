//! The extended NS-rule system as congruence closure over cells.
//!
//! Model (following the [Downey–Sethi–Tarjan] construction the paper's
//! Theorem 4 proof uses): every cell occurrence `(row, attr)` is a node,
//! and every constant *symbol* is a node labelled with itself. A cell
//! holding constant `c` starts unified with `c`'s node; NEC-equivalent
//! nulls start unified with each other. An FD `X → Y` demands that rows
//! whose `X`-cells are classwise equal have their `Y`-cells unified.
//! A class containing two distinct constant nodes is **inconsistent**:
//! all of its members materialize as `nothing` — which is exactly the
//! paper's "replacement with nothing of all constants that are equal to
//! them".
//!
//! Because the final partition is a closure (least congruence containing
//! the initial equalities), it does not depend on the order in which
//! rules fire — Theorem 4(a)'s Church–Rosser property. Two engines reach
//! it:
//!
//! * [`extended_chase_naive`] compares all row pairs per FD per round —
//!   the paper's multi-pass `O(|F|·n³·p)`-flavoured engine, kept as the
//!   reference the production engine is property-tested against;
//! * [`extended_chase`] hash-groups rows by `X`-signature (the union–find
//!   roots of the row's determinant cells) **once** and then runs the
//!   shared dirty-bucket worklist of [`super`]: buckets that no union
//!   re-keys are never re-grouped — the congruence-closure-flavoured
//!   quasi-linear engine.
//!
//! ## The phase loop
//!
//! [`extended_chase`] alternates two phases until no dirty work is
//! left:
//!
//! * a **read-only discovery phase**: the current agenda (all multi-row
//!   buckets on the first phase, the dirty buckets after) is visited in
//!   agenda order against the frozen engine — the compression-free
//!   `find_readonly`, no engine mutation — and yields the candidate
//!   union edges of every agenda bucket;
//! * an **apply phase**: the edges are applied one by one, in discovery
//!   order, through `union_reporting`/`migrate`.
//!
//! The agenda draw, the discovery output and the apply order are all
//! pure functions of the engine state, so the whole run — union count,
//! `nothing` classes, phase count, even the union–find internals — is
//! reproducible; and because the closure is unique, the materialized
//! instance (canonical form), `nothing_classes`, and `union_count`
//! equal the naive oracle's. [`ChaseOutcome::rounds`] counts discovery
//! phases there and full rounds for the oracle, so it is not comparable
//! across engines.

use super::worklist::{BucketIndex, Site};
use crate::fd::FdSet;
use crate::groupkey::GroupKey;
use fdi_obs::{Counter, Recorder};
use fdi_relation::attrs::AttrId;
use fdi_relation::instance::Instance;
use fdi_relation::nec::NecStore;
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::value::{NullId, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Union–find over cell occurrences and constant-symbol nodes.
#[derive(Debug, Clone)]
pub struct CellEngine {
    /// Slot bound of the source instance: cell nodes are addressed by
    /// slot index, so tombstoned slots own (inert, never-unified) nodes.
    rows: usize,
    /// Live rows, ascending.
    live: Vec<RowId>,
    arity: usize,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Constant label of each class root, if any.
    label: Vec<Option<Symbol>>,
    /// Inconsistency flag of each class root (two distinct labels met).
    inconsistent: Vec<bool>,
    unions: usize,
}

/// The node-arena layout: cell `(row, attr)` lives at
/// `row · arity + attr`, with symbol nodes above all cells. A free
/// function so [`CellEngine::cell_node`] and the borrow-free iterator
/// of [`CellEngine::nothing_classes`] share one formula.
#[inline]
fn cell_node_at(arity: usize, row: RowId, attr: AttrId) -> usize {
    row.index() * arity + attr.index()
}

/// Node arena size of an instance, or `None` when the arithmetic
/// overflows or the count exceeds the `u32` node-id space ([`CellEngine`]
/// stores parent links and member-cell sites as `u32`, so an arena
/// beyond `u32::MAX` nodes would silently truncate ids).
fn checked_node_count(rows: usize, arity: usize, symbols: usize) -> Option<usize> {
    let cells = rows.checked_mul(arity)?;
    let nodes = cells.checked_add(symbols)?;
    u32::try_from(nodes).ok().map(|_| nodes)
}

impl CellEngine {
    /// The discrete partition over an instance's node arena: every cell
    /// and symbol node its own class, symbol nodes labelled, no unions
    /// applied yet.
    ///
    /// # Panics
    /// Panics when the arena would exceed the `u32` node-id space (see
    /// [`checked_node_count`]) — ids are stored as `u32` throughout, so
    /// proceeding would silently truncate them.
    fn blank(instance: &Instance) -> CellEngine {
        let rows = instance.slot_bound();
        let arity = instance.arity();
        let symbols = instance.symbols().len();
        let nodes = checked_node_count(rows, arity, symbols).unwrap_or_else(|| {
            panic!(
                "cell arena overflow: {rows} slots x {arity} columns + {symbols} symbols \
                 exceeds the u32 node-id space of the extended chase engine"
            )
        });
        let mut engine = CellEngine {
            rows,
            live: instance.row_ids().collect(),
            arity,
            parent: (0..nodes as u32).collect(),
            rank: vec![0; nodes],
            label: vec![None; nodes],
            inconsistent: vec![false; nodes],
            unions: 0,
        };
        for s in 0..symbols {
            let node = engine.symbol_node(Symbol(s as u32));
            engine.label[node] = Some(Symbol(s as u32));
        }
        engine
    }

    /// Builds the initial partition from an instance in one row-major
    /// pass: constants unify with their symbol node, NEC-equivalent
    /// nulls unify with the first cell seen of their class, and a
    /// preexisting `nothing` marks its cell inconsistent.
    pub fn new(instance: &Instance) -> CellEngine {
        let mut engine = CellEngine::blank(instance);
        let arity = engine.arity;
        // Null occurrences group by NEC class through one
        // fully-compressed snapshot instead of a parent-chain walk per
        // cell.
        let snapshot = instance.necs().canonical_snapshot();
        let mut class_first: HashMap<NullId, usize> = HashMap::new();
        for (row, tuple) in instance.iter_live() {
            for col in 0..arity {
                let attr = AttrId(col as u16);
                let cell = cell_node_at(arity, row, attr);
                match tuple.get(attr) {
                    Value::Const(s) => {
                        let sym = engine.symbol_node(s);
                        engine.union(cell, sym);
                    }
                    Value::Null(n) => match class_first.entry(snapshot.root(n)) {
                        Entry::Occupied(first) => {
                            engine.union(cell, *first.get());
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(cell);
                        }
                    },
                    Value::Nothing => engine.inconsistent[cell] = true,
                }
            }
        }
        // Initial unions are structural, not chase work.
        engine.unions = 0;
        engine
    }

    #[inline]
    fn cell_node(&self, row: RowId, attr: AttrId) -> usize {
        cell_node_at(self.arity, row, attr)
    }

    #[inline]
    fn symbol_node(&self, s: Symbol) -> usize {
        self.rows * self.arity + s.index()
    }

    /// Class representative with path compression.
    fn find(&mut self, mut node: usize) -> usize {
        let mut root = node;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        while self.parent[node] as usize != root {
            let next = self.parent[node] as usize;
            self.parent[node] = root as u32;
            node = next;
        }
        root
    }

    /// Read-only representative (no compression).
    fn find_readonly(&self, mut node: usize) -> usize {
        while self.parent[node] as usize != node {
            node = self.parent[node] as usize;
        }
        node
    }

    /// Unifies two classes, merging labels and inconsistency. Returns
    /// `true` if the classes were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        // Merge class metadata.
        let merged_inconsistent = self.inconsistent[hi]
            || self.inconsistent[lo]
            || matches!(
                (self.label[hi], self.label[lo]),
                (Some(x), Some(y)) if x != y
            );
        self.label[hi] = self.label[hi].or(self.label[lo]);
        self.inconsistent[hi] = merged_inconsistent;
        self.unions += 1;
        true
    }

    /// One naive fixpoint round; returns `true` when any union happened.
    fn round_naive(&mut self, fds: &FdSet) -> bool {
        let mut changed = false;
        let live = self.live.clone();
        for fd in fds {
            let fd = fd.normalized();
            for (p, &i) in live.iter().enumerate() {
                for &j in &live[(p + 1)..] {
                    let agree = fd.lhs.iter().all(|a| {
                        let x = self.cell_node(i, a);
                        let y = self.cell_node(j, a);
                        self.find(x) == self.find(y)
                    });
                    if agree {
                        for b in fd.rhs.iter() {
                            let x = self.cell_node(i, b);
                            let y = self.cell_node(j, b);
                            changed |= self.union(x, y);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Runs to the fixpoint by alternating read-only discovery with
    /// union/migration (see the module docs) and returns the
    /// **discovery-phase count**.
    pub fn run(&mut self, fds: &FdSet) -> usize {
        Worklist::new(self, fds).run(self)
    }

    /// The naive fixpoint loop of [`extended_chase_naive`]: full pairwise
    /// rounds until one applies nothing; returns the round count.
    fn run_naive(&mut self, fds: &FdSet) -> usize {
        let mut rounds = 1;
        while self.round_naive(fds) {
            rounds += 1;
        }
        rounds
    }

    /// Unifies two classes like [`CellEngine::union`] and additionally
    /// reports which root lost its identity, so the worklist can migrate
    /// the loser's member cells. Returns `None` when the classes were
    /// already one.
    fn union_reporting(&mut self, a: usize, b: usize) -> Option<(usize, usize)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        self.union(a, b);
        let winner = self.find(a);
        let loser = if winner == ra { rb } else { ra };
        Some((winner, loser))
    }

    /// Materializes the partition back into an instance shaped like
    /// `template` (which must be the instance the engine was built from).
    ///
    /// Null classes materialize as a shared [`NullId`] per class (so the
    /// NEC structure is carried by id equality, with a fresh empty NEC
    /// store).
    pub fn materialize(&mut self, template: &Instance) -> Instance {
        let mut out = template.clone();
        for row in self.live.clone() {
            for col in 0..self.arity {
                let attr = AttrId(col as u16);
                let root = self.find(self.cell_node(row, attr));
                let value = if self.inconsistent[root] {
                    Value::Nothing
                } else if let Some(s) = self.label[root] {
                    Value::Const(s)
                } else {
                    Value::Null(NullId(root as u32))
                };
                if let Value::Null(id) = value {
                    out.reserve_null_ids(id);
                }
                out.set_value(row, attr, value);
            }
        }
        out.replace_necs(NecStore::new());
        out
    }

    /// Materializes with inconsistent classes *resolved* to their stored
    /// representative constant instead of `nothing`.
    ///
    /// After the chase has reached its fixpoint, every pair of rows
    /// agreeing on some FD's left side has its right-side cells in one
    /// class — so writing one constant per class yields an instance that
    /// **classically satisfies** the dependencies. Used by the workload
    /// generator to repair planted conflicts; not part of the paper's
    /// semantics (the paper keeps the contradiction visible as
    /// `nothing`).
    ///
    /// # Panics
    /// Panics if some class has no constant label at all (a null-only
    /// class cannot be resolved; run on complete instances).
    pub fn materialize_resolved(&mut self, template: &Instance) -> Instance {
        let mut out = template.clone();
        for row in self.live.clone() {
            for col in 0..self.arity {
                let attr = AttrId(col as u16);
                let root = self.find(self.cell_node(row, attr));
                let symbol = self.label[root]
                    .expect("materialize_resolved requires every class to hold a constant");
                out.set_value(row, attr, Value::Const(symbol));
            }
        }
        out.replace_necs(NecStore::new());
        out
    }

    /// Internal acquisition: writes the closure back into `instance` —
    /// the instance the engine was built from and run on — in place.
    /// Every consistent class that holds a constant writes it into its
    /// null cells; every null-only class NEC-unions its nulls with its
    /// first null in row-major order. Unlike [`CellEngine::materialize`],
    /// no null is renamed and the NEC store is extended, not replaced,
    /// so a `?mark` keeps naming its class.
    ///
    /// Only a weakly satisfiable closure is acquired (weak enforcement
    /// rejects a write whose closure has a `nothing` class), so no live
    /// null cell sits in an inconsistent class.
    ///
    /// Returns the changed cells, row-major: each null cell filled, and
    /// each null cell whose NEC class joined an earlier cell's class.
    pub(crate) fn acquire(&mut self, instance: &mut Instance) -> Vec<(RowId, AttrId)> {
        let mut changed = Vec::new();
        if self.unions == 0 {
            // The initial partition only joins a constant with its symbol
            // and a null with its NEC class: nothing to acquire.
            return changed;
        }
        // Each null-only class's first null.
        let mut first: HashMap<usize, NullId> = HashMap::new();
        for i in 0..self.live.len() {
            let row = self.live[i];
            for col in 0..self.arity {
                let attr = AttrId(col as u16);
                let Value::Null(id) = instance.value(row, attr) else {
                    continue;
                };
                let root = self.find(self.cell_node(row, attr));
                debug_assert!(!self.inconsistent[root], "acquiring a `nothing` class");
                if let Some(s) = self.label[root] {
                    instance.set_value(row, attr, Value::Const(s));
                } else if !instance.add_nec(*first.entry(root).or_insert(id), id) {
                    continue;
                }
                changed.push((row, attr));
            }
        }
        changed
    }

    /// Number of distinct inconsistent classes with at least one live
    /// cell.
    pub fn nothing_classes(&self) -> usize {
        let mut roots: Vec<usize> = self
            .live
            .iter()
            .flat_map(|&row| {
                (0..self.arity).map(move |col| cell_node_at(self.arity, row, AttrId(col as u16)))
            })
            .map(|n| self.find_readonly(n))
            .filter(|r| self.inconsistent[*r])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Total unions performed by the chase (excluding initial structure).
    pub fn union_count(&self) -> usize {
        self.unions
    }
}

/// The worklist state of [`extended_chase`]: the shared
/// [`BucketIndex`], keyed by the union–find roots of each row's
/// determinant cells (bucket co-membership *is* the extended rule's
/// trigger), and per class root the member cells, so a union knows
/// which sites changed their root.
struct Worklist {
    index: BucketIndex,
    /// Per class root: member cell sites (symbol nodes carry no site).
    members: HashMap<u32, Vec<Site>>,
}

impl Worklist {
    fn new(engine: &mut CellEngine, fds: &FdSet) -> Worklist {
        let live = engine.live.clone();
        let mut members: HashMap<u32, Vec<Site>> = HashMap::new();
        for &row in &live {
            for col in 0..engine.arity as u16 {
                let root = engine.find(engine.cell_node(row, AttrId(col))) as u32;
                members.entry(root).or_default().push((row, col));
            }
        }
        let (arity, rows) = (engine.arity, engine.rows);
        let index = BucketIndex::build(fds, arity, rows, &live, |row, a| {
            engine.find(engine.cell_node(row, a)) as u64
        });
        Worklist { index, members }
    }

    /// Drains the worklist to the fixpoint by phase alternation —
    /// read-only discovery over the agenda buckets, then application of
    /// the discovered edges in agenda order — and returns the
    /// discovery-phase count. See the module docs for why no order
    /// replay is needed (Theorem 4(a)).
    fn run(mut self, engine: &mut CellEngine) -> usize {
        let mut phases = 0;
        loop {
            phases += 1;
            // Every slot's agenda, in slot order: the whole agenda — and
            // with it the discovery output and the apply order — is a
            // pure function of the engine state.
            let mut agenda: Vec<(usize, GroupKey)> = Vec::new();
            for si in 0..self.index.slots().len() {
                let drawn = self.index.agenda(si, phases == 1);
                agenda.extend(drawn.into_iter().map(|(_, key)| (si, key)));
            }
            if agenda.is_empty() {
                break;
            }
            // Discovery reads the frozen engine (`find_readonly`, no
            // mutation); the edges are applied only after every agenda
            // bucket has been read.
            let edges: Vec<(u32, u32)> = agenda
                .iter()
                .flat_map(|(si, key)| self.candidate_edges(engine, *si, key))
                .collect();
            for (a, b) in edges {
                if let Some((winner, loser)) = engine.union_reporting(a as usize, b as usize) {
                    self.migrate(engine, winner, loser);
                }
            }
            if self.index.is_clean() {
                break;
            }
            assert!(
                phases <= engine.rows * engine.arity + engine.label.len() + 2,
                "worklist chase failed to terminate"
            );
        }
        phases
    }

    /// Read-only discovery of one agenda bucket: the union edges a
    /// sweep of the bucket would attempt, against the frozen engine.
    /// Edges whose endpoints already share a class are filtered with
    /// the compression-free `find_readonly`; redundant edges that
    /// remain (because an earlier batch of the same phase merges them
    /// first) are dropped by `union_reporting` at apply time.
    fn candidate_edges(&self, engine: &CellEngine, si: usize, key: &GroupKey) -> Vec<(u32, u32)> {
        // Discovery runs strictly between the agenda draw and the apply
        // loop — nothing migrates buckets in that window, so every
        // agenda key still resolves.
        let mut rows = self
            .index
            .rows(si, key)
            .expect("discovery reads a frozen worklist")
            .to_vec();
        rows.sort_unstable();
        let fd = self.index.slots()[si].fd;
        let mut edges = Vec::new();
        for b in fd.rhs.iter() {
            let first = engine.cell_node(rows[0], b);
            let root = engine.find_readonly(first);
            for &row in &rows[1..] {
                let other = engine.cell_node(row, b);
                if engine.find_readonly(other) != root {
                    edges.push((first as u32, other as u32));
                }
            }
        }
        edges
    }

    /// After a union, re-files every bucket whose key held the loser
    /// root and moves the loser's member cells to the winner.
    fn migrate(&mut self, engine: &mut CellEngine, winner: usize, loser: usize) {
        let moved = self.members.remove(&(loser as u32)).unwrap_or_default();
        self.index.migrate(&moved, |row, a| {
            engine.find(engine.cell_node(row, a)) as u64
        });
        self.members
            .entry(winner as u32)
            .or_default()
            .extend_from_slice(&moved);
    }
}

/// Result of an extended chase.
#[derive(Debug, Clone)]
pub struct ChaseOutcome {
    /// The unique chased instance (nulls carried by shared ids).
    pub instance: Instance,
    /// Fixpoint rounds. For [`extended_chase`] this counts **discovery
    /// phases** (the final phase usually does apply unions — the loop
    /// exits when no dirty work remains *after* applying); for
    /// [`extended_chase_naive`] it counts full rounds, the last one
    /// applying nothing. Do not compare it across engines.
    pub rounds: usize,
    /// Unions performed.
    pub unions: usize,
    /// Number of inconsistent (`nothing`) classes; `0` iff weakly
    /// satisfiable by Theorem 4(b).
    pub nothing_classes: usize,
}

impl ChaseOutcome {
    /// Did the chase derive a contradiction?
    pub fn has_nothing(&self) -> bool {
        self.nothing_classes > 0
    }
}

/// Runs the extended chase of `instance` under `fds`: the initial
/// partition of [`CellEngine::new`], then the phase loop of
/// [`CellEngine::run`] (see the module docs).
///
/// **Contract** (property-tested against [`extended_chase_naive`],
/// including cross-column NEC classes, preexisting `nothing` cells,
/// planted conflicts, and tombstone-heavy arenas): the materialized
/// instance (canonical form), `nothing_classes`, and `unions` equal the
/// oracle's — the closure is unique (Theorem 4(a)) and the union count
/// is order-invariant (initial classes − final classes).
///
/// Records `cell_chase_rounds` and `cell_chase_unions` into `rec` —
/// both a pure function of the instance and the FD order, so they
/// belong to [`fdi_obs`]'s deterministic slice.
pub fn extended_chase(instance: &Instance, fds: &FdSet, rec: &Recorder) -> ChaseOutcome {
    let mut engine = CellEngine::new(instance);
    let rounds = engine.run(fds);
    rec.add(Counter::CellRounds, rounds as u64);
    rec.add(Counter::CellUnions, engine.union_count() as u64);
    outcome(engine, instance, rounds)
}

/// The extended chase by naive pairwise rounds — the reference engine
/// [`extended_chase`] is verified against.
pub fn extended_chase_naive(instance: &Instance, fds: &FdSet) -> ChaseOutcome {
    let mut engine = CellEngine::new(instance);
    let rounds = engine.run_naive(fds);
    outcome(engine, instance, rounds)
}

fn outcome(mut engine: CellEngine, instance: &Instance, rounds: usize) -> ChaseOutcome {
    let nothing_classes = engine.nothing_classes();
    ChaseOutcome {
        instance: engine.materialize(instance),
        rounds,
        unions: engine.union_count(),
        nothing_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn ext(r: &Instance, fds: &FdSet) -> ChaseOutcome {
        extended_chase(r, fds, &Recorder::noop())
    }

    #[test]
    fn figure5_extended_chase_is_order_independent_and_all_nothing() {
        let r = fixtures::figure5_instance();
        let fds = fixtures::figure5_fds();
        let forward = ext(&r, &fds);
        let backward = ext(&r, &fds.permuted(&[1, 0]));
        assert_eq!(
            forward.instance.canonical_form(),
            backward.instance.canonical_form(),
            "Theorem 4(a): unique result"
        );
        // "all values in the B column equal to nothing"
        let b = AttrId(1);
        for row in forward.instance.row_ids() {
            assert!(forward.instance.value(row, b).is_nothing());
        }
        assert!(forward.has_nothing());
        assert_eq!(forward.nothing_classes, 1);
    }

    /// [`extended_chase`] equals the naive oracle (canonical instance,
    /// `nothing` classes, unions).
    fn assert_matches_oracle(r: &Instance, fds: &FdSet) {
        let naive = extended_chase_naive(r, fds);
        let fast = ext(r, fds);
        assert_eq!(
            fast.instance.canonical_form(),
            naive.instance.canonical_form()
        );
        assert_eq!(fast.nothing_classes, naive.nothing_classes);
        assert_eq!(
            fast.unions, naive.unions,
            "union counts are order-invariant"
        );
    }

    #[test]
    fn engine_matches_the_naive_oracle_on_the_fixture_cases() {
        let cases = [
            (fixtures::figure5_instance(), fixtures::figure5_fds()),
            (fixtures::section6_instance(), fixtures::section6_fds()),
            (fixtures::figure1_null_instance(), fixtures::figure1_fds()),
            (fixtures::figure2_r4(), {
                let s = fixtures::figure2_schema();
                crate::fd::FdSet::parse(&s, "A B -> C").unwrap()
            }),
        ];
        for (r, fds) in cases {
            assert_matches_oracle(&r, &fds);
        }
    }

    #[test]
    fn engine_handles_cross_column_classes_and_nothing() {
        // The regimes exempt from *plain*-chase order fidelity are
        // irrelevant here (Theorem 4(a) — the closure is unique), but
        // they stress the worklist: `?z` spans columns A and B, so a
        // union re-keys buckets of the very FD being swept, and the
        // preexisting `nothing` seeds an inconsistent class.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_1 ?z
             A_1 B_2
             ?z  B_1
             ?z  ?w
             A_0 #!",
        )
        .unwrap();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B").unwrap();
        assert_matches_oracle(&r, &fds);
    }

    #[test]
    fn node_count_guard_catches_boundary_arithmetic() {
        // In range: the exact u32 ceiling.
        assert_eq!(
            checked_node_count(u32::MAX as usize, 1, 0),
            Some(u32::MAX as usize)
        );
        assert_eq!(checked_node_count(0, 0, 0), Some(0));
        assert_eq!(checked_node_count(10, 4, 7), Some(47));
        // One past the ceiling: representable as usize, not as u32.
        assert_eq!(checked_node_count(u32::MAX as usize, 1, 1), None);
        assert_eq!(checked_node_count(1 << 31, 2, 0), None);
        // Multiplication / addition overflow of usize itself.
        assert_eq!(checked_node_count(usize::MAX, 2, 0), None);
        assert_eq!(checked_node_count(usize::MAX, 1, 1), None);
    }

    #[test]
    fn section6_contradiction_is_detected() {
        // A→B equates the two B-nulls; B→C then demands c1 = c2 →
        // nothing. Theorem 4(b): not weakly satisfiable.
        let r = fixtures::section6_instance();
        let fds = fixtures::section6_fds();
        let outcome = ext(&r, &fds);
        assert!(outcome.has_nothing());
        assert!(!crate::chase::weakly_satisfiable_via_chase(&fds, &r));
    }

    #[test]
    fn satisfiable_instances_stay_nothing_free() {
        let r = fixtures::figure1_null_instance();
        let fds = fixtures::figure1_fds();
        let outcome = ext(&r, &fds);
        assert!(!outcome.has_nothing());
        assert!(crate::chase::weakly_satisfiable_via_chase(&fds, &r));
    }

    #[test]
    fn chase_substitutes_like_the_plain_rules_when_consistent() {
        let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "A_0 -   C_0
             A_0 B_1 -",
        )
        .unwrap();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
        let outcome = ext(&r, &fds);
        assert!(outcome.instance.is_complete());
        let plain = crate::chase::chase_plain(&r, &fds);
        assert_eq!(
            outcome.instance.canonical_form(),
            plain.instance.canonical_form()
        );
    }

    #[test]
    fn extended_chase_equates_nulls_via_shared_ids() {
        let r = fixtures::section6_instance();
        let schema = r.schema().clone();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B").unwrap();
        let outcome = ext(&r, &fds);
        let b = AttrId(1);
        let n0 = outcome
            .instance
            .value(outcome.instance.nth_row(0), b)
            .as_null()
            .unwrap();
        let n1 = outcome
            .instance
            .value(outcome.instance.nth_row(1), b)
            .as_null()
            .unwrap();
        assert_eq!(n0, n1, "merged class carried by a shared null id");
    }

    #[test]
    fn preexisting_nothing_survives() {
        let r = fdi_relation::Instance::parse(fixtures::section6_schema(), "a1 #! c1").unwrap();
        let fds = fixtures::section6_fds();
        let outcome = ext(&r, &fds);
        assert!(outcome.has_nothing());
        assert!(outcome
            .instance
            .value(outcome.instance.nth_row(0), AttrId(1))
            .is_nothing());
    }

    #[test]
    fn global_constant_nodes_propagate_nothing_to_equal_constants() {
        // Literal reading of §6: when b1 and b2 are merged into nothing,
        // *every* occurrence of b1/b2 becomes nothing — even in a row not
        // involved in the conflict.
        let schema = fdi_relation::Schema::builder("R")
            .attribute("A", ["a1", "a2", "a3"])
            .attribute("B", ["b1", "b2"])
            .build()
            .unwrap();
        let r = fdi_relation::Instance::parse(
            schema.clone(),
            "a1 b1
             a1 b2
             a3 b1",
        )
        .unwrap();
        let fds = crate::fd::FdSet::parse(&schema, "A -> B").unwrap();
        let outcome = ext(&r, &fds);
        let b = AttrId(1);
        assert!(outcome
            .instance
            .value(outcome.instance.nth_row(0), b)
            .is_nothing());
        assert!(outcome
            .instance
            .value(outcome.instance.nth_row(1), b)
            .is_nothing());
        assert!(
            outcome
                .instance
                .value(outcome.instance.nth_row(2), b)
                .is_nothing(),
            "row 2's b1 equals a destroyed constant"
        );
    }
}
