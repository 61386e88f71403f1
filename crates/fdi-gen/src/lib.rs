//! # fdi-gen — seeded workload generators
//!
//! The paper specifies no dataset (VLDB 1980 theory), so the experiment
//! harness synthesizes instances whose parameters — tuple count,
//! attribute count, domain sizes, null density, NEC density — span the
//! regimes the paper reasons about: "carefully designed databases" with
//! domains much larger than relations, overconstrained schemas, nearly
//! complete vs. heavily incomplete instances, and planted FD structure
//! so that satisfiability is neither trivially true nor trivially false.
//!
//! Everything is deterministic given a seed (`StdRng`), so every
//! `fdi-bench` experiment is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fdi_core::fd::{Fd, FdSet};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::schema::Schema;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::{NullId, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parameters of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of tuples.
    pub rows: usize,
    /// Number of attributes (≤ 26 for single-letter names).
    pub attrs: usize,
    /// Domain size of every attribute.
    pub domain: usize,
    /// Fraction of cells that are nulls, in `[0, 1]`.
    pub null_density: f64,
    /// Fraction of nulls that join an existing null's NEC class (within
    /// the same column — a class must have a non-empty domain).
    pub nec_density: f64,
    /// Fraction of rows duplicated from an earlier row on a random FD's
    /// left side (planting groups so FDs actually interact).
    pub collision_rate: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            rows: 64,
            attrs: 4,
            domain: 16,
            null_density: 0.1,
            nec_density: 0.1,
            collision_rate: 0.3,
        }
    }
}

/// Attribute names `A`, `B`, …, `Z` (then `A1`, `B1`, … beyond 26).
pub fn attr_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let c = char::from_u32('A' as u32 + (i % 26) as u32).expect("letter");
            if i < 26 {
                c.to_string()
            } else {
                format!("{c}{}", i / 26)
            }
        })
        .collect()
}

/// Builds the uniform schema of a spec.
pub fn schema_for(spec: &WorkloadSpec) -> Arc<Schema> {
    let names = attr_names(spec.attrs);
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Schema::uniform("R", &refs, spec.domain).expect("workload schema")
}

/// A generated workload: schema, FDs, and instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The schema.
    pub schema: Arc<Schema>,
    /// The dependency set.
    pub fds: FdSet,
    /// The instance.
    pub instance: Instance,
}

/// Generates a random FD set over `attrs` attributes: `count`
/// dependencies with left sides of 1–2 attributes and singleton right
/// sides, non-trivial and deduplicated.
pub fn random_fds(rng: &mut StdRng, attrs: usize, count: usize) -> FdSet {
    let mut set = FdSet::new();
    let mut guard = 0;
    while set.len() < count && guard < count * 20 + 20 {
        guard += 1;
        let lhs_size = if rng.gen_bool(0.6) { 1 } else { 2 };
        let mut lhs = AttrSet::EMPTY;
        while lhs.len() < lhs_size {
            lhs = lhs.with(AttrId(rng.gen_range(0..attrs) as u16));
        }
        let rhs_attr = AttrId(rng.gen_range(0..attrs) as u16);
        if lhs.contains(rhs_attr) {
            continue;
        }
        set.push(Fd::new(lhs, AttrSet::singleton(rhs_attr)));
    }
    set
}

/// Generates an instance per the spec. `fds` guides collision planting:
/// duplicated left sides create the groups on which the dependencies
/// (and the NS-rules) actually fire.
pub fn random_instance(rng: &mut StdRng, spec: &WorkloadSpec, fds: &FdSet) -> Instance {
    let schema = schema_for(spec);
    let mut instance = Instance::new(schema.clone());
    // per-column pools of reusable null ids (NEC classes are
    // column-local so class domains are never empty)
    let mut null_pools: Vec<Vec<NullId>> = vec![Vec::new(); spec.attrs];
    let names = attr_names(spec.attrs);
    let mut inserted: Vec<RowId> = Vec::with_capacity(spec.rows);
    for row in 0..spec.rows {
        let mut values: Vec<Value> = (0..spec.attrs)
            .map(|col| {
                let attr = AttrId(col as u16);
                let k = rng.gen_range(0..spec.domain);
                let name = format!("{}_{k}", names[col]);
                Value::Const(
                    instance
                        .intern_constant(attr, &name)
                        .expect("domain constant"),
                )
            })
            .collect();
        // Plant a collision: copy an earlier row's X-values for a random
        // FD so the dependency constrains something.
        if row > 0 && !fds.is_empty() && rng.gen_bool(spec.collision_rate) {
            let donor = inserted[rng.gen_range(0..row)];
            let fd = fds.fds()[rng.gen_range(0..fds.len())];
            for a in fd.lhs.iter() {
                values[a.index()] = instance.tuple(donor).get(a);
            }
        }
        // Poke nulls.
        for (col, value) in values.iter_mut().enumerate() {
            if rng.gen_bool(spec.null_density) {
                let pool = &mut null_pools[col];
                let id = if !pool.is_empty() && rng.gen_bool(spec.nec_density) {
                    *pool.choose(rng).expect("non-empty")
                } else {
                    let id = instance.fresh_null();
                    pool.push(id);
                    id
                };
                *value = Value::Null(id);
            }
        }
        inserted.push(instance.add_tuple(Tuple::new(values)).expect("arity"));
    }
    instance
}

/// Generates a full workload from a seed.
pub fn workload(seed: u64, spec: &WorkloadSpec, fd_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let fds = random_fds(&mut rng, spec.attrs, fd_count);
    let instance = random_instance(&mut rng, spec, &fds);
    debug_assert!(
        fdi_core::chase::order_replay_exact(&instance),
        "generated workloads promise column-local NEC classes and no `nothing`"
    );
    Workload {
        schema: schema_for(spec),
        fds,
        instance,
    }
}

/// Builds the complete, classically-satisfying base instance of the
/// "repairable" workloads: random rows with planted collisions, then a
/// cell-engine repair writing one constant per equality class, so every
/// pair of rows agreeing on some FD's left side agrees on its right
/// side by construction.
fn satisfiable_base(rng: &mut StdRng, spec: &WorkloadSpec, fds: &FdSet) -> Instance {
    let schema = schema_for(spec);
    let mut instance = Instance::new(schema.clone());
    let names = attr_names(spec.attrs);
    let mut inserted: Vec<RowId> = Vec::with_capacity(spec.rows);
    for row in 0..spec.rows {
        let mut values: Vec<Value> = (0..spec.attrs)
            .map(|col| {
                let attr = AttrId(col as u16);
                let k = rng.gen_range(0..spec.domain);
                let name = format!("{}_{k}", names[col]);
                Value::Const(
                    instance
                        .intern_constant(attr, &name)
                        .expect("domain constant"),
                )
            })
            .collect();
        if row > 0 && !fds.is_empty() && rng.gen_bool(spec.collision_rate) {
            let donor = inserted[rng.gen_range(0..row)];
            let fd = fds.fds()[rng.gen_range(0..fds.len())];
            for a in fd.lhs.union(fd.rhs).iter() {
                values[a.index()] = instance.tuple(donor).get(a);
            }
        }
        inserted.push(instance.add_tuple(Tuple::new(values)).expect("arity"));
    }
    let mut engine = fdi_core::chase::CellEngine::new(&instance);
    engine.run(fds);
    engine.materialize_resolved(&instance)
}

/// Generates an instance that **classically satisfies** `fds` before
/// nulls are poked (see `satisfiable_base`). With fresh-id nulls
/// added afterwards the instance stays weakly satisfiable (its pre-null
/// state is a witness completion) — the "repairable" workload for the
/// chase benchmarks.
pub fn satisfiable_instance(rng: &mut StdRng, spec: &WorkloadSpec, fds: &FdSet) -> Instance {
    let mut instance = satisfiable_base(rng, spec, fds);
    // Poke nulls (fresh ids only: shared classes could break the
    // witness).
    let rows: Vec<RowId> = instance.row_ids().collect();
    for row in rows {
        for col in 0..spec.attrs {
            if rng.gen_bool(spec.null_density) {
                let id = instance.fresh_null();
                instance.set_value(row, AttrId(col as u16), Value::Null(id));
            }
        }
    }
    instance
}

/// A workload guaranteed weakly satisfiable (see
/// [`satisfiable_instance`]).
pub fn satisfiable_workload(seed: u64, spec: &WorkloadSpec, fd_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let fds = random_fds(&mut rng, spec.attrs, fd_count);
    let instance = satisfiable_instance(&mut rng, spec, &fds);
    Workload {
        schema: schema_for(spec),
        fds,
        instance,
    }
}

/// The spec preset for large-instance scaling runs (n ∈ {1k, 10k,
/// 100k}): 4 attributes, domain scaled with `rows` so determinant
/// groups stay small but non-trivial, and a collision rate high enough
/// that the planted FDs keep firing.
pub fn scaling_spec(rows: usize, null_density: f64, nec_density: f64) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: 4,
        domain: (rows / 4).max(8),
        null_density,
        nec_density,
        collision_rate: 0.5,
    }
}

/// A deterministic large workload for the chase and TEST-FDs
/// benchmarks: `fd_count` dependencies over [`scaling_spec`], with the
/// instance guaranteed weakly satisfiable so chase runs measure
/// propagation, not contradiction discovery.
///
/// Nulls are poked into the classically-satisfying base instance; with
/// probability `nec_density` a null joins the NEC class of earlier
/// nulls that replaced the **same constant in the same column**.
/// Assigning that constant class-wide reproduces the base instance, so
/// the witness completion survives NEC sharing — the class merges are
/// real (union–find unions, not shared ids), which is exactly what
/// exercises the NEC-collapse path of the indexed engines at scale.
pub fn large_workload(
    seed: u64,
    rows: usize,
    null_density: f64,
    nec_density: f64,
    fd_count: usize,
) -> Workload {
    let spec = scaling_spec(rows, null_density, nec_density);
    let mut rng = StdRng::seed_from_u64(seed);
    let fds = random_fds(&mut rng, spec.attrs, fd_count);
    let mut instance = satisfiable_base(&mut rng, &spec, &fds);
    let mut class_reps: std::collections::HashMap<(usize, fdi_relation::Symbol), NullId> =
        std::collections::HashMap::new();
    let rows: Vec<RowId> = instance.row_ids().collect();
    for row in rows {
        for col in 0..spec.attrs {
            let attr = AttrId(col as u16);
            if !rng.gen_bool(null_density) {
                continue;
            }
            let prior = instance.value(row, attr);
            let id = instance.fresh_null();
            if let Value::Const(symbol) = prior {
                if rng.gen_bool(nec_density) {
                    match class_reps.entry((col, symbol)) {
                        std::collections::hash_map::Entry::Occupied(rep) => {
                            instance.add_nec(id, *rep.get());
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(id);
                        }
                    }
                }
            }
            instance.set_value(row, attr, Value::Null(id));
        }
    }
    debug_assert!(
        fdi_core::chase::order_replay_exact(&instance),
        "large workloads promise column-local NEC classes and no `nothing`"
    );
    Workload {
        schema: schema_for(&spec),
        fds,
        instance,
    }
}

/// A scale workload for the **extended** chase: a [`large_workload`]
/// base (weakly satisfiable, column-local classes) deliberately pushed
/// into the regimes only the extended engine handles —
///
/// * `cross_classes` NEC classes spliced **across columns** (one fresh
///   null id written into two cells of different columns), the regime
///   the plain indexed chase's order-replay guarantee excludes but the
///   extended closure is indifferent to (Theorem 4(a));
/// * `conflicts` planted FD violations (two rows agreeing on a random
///   FD's determinant with distinct constants on its dependent), each
///   of which the extended chase resolves into a `nothing` class
///   (Theorem 4(b): the instance stops being weakly satisfiable).
///
/// Deterministic given `seed`; no `order_replay_exact` promise is made
/// (that is the point). The extended-chase oracle suite and the query
/// equivalence suite run on this shape.
pub fn extended_workload(
    seed: u64,
    rows: usize,
    fd_count: usize,
    cross_classes: usize,
    conflicts: usize,
) -> Workload {
    let mut w = large_workload(seed, rows, 0.2, 0.2, fd_count);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0e7e_4ded_c4a5_e5eb);
    let ids: Vec<RowId> = w.instance.row_ids().collect();
    let attrs = w.schema.all_attrs().len();
    if ids.len() >= 2 && attrs >= 2 {
        for _ in 0..cross_classes {
            let id = w.instance.fresh_null();
            let r0 = ids[rng.gen_range(0..ids.len())];
            let r1 = ids[rng.gen_range(0..ids.len())];
            let c0 = rng.gen_range(0..attrs);
            let mut c1 = rng.gen_range(0..attrs);
            while c1 == c0 {
                c1 = rng.gen_range(0..attrs);
            }
            w.instance.set_value(r0, AttrId(c0 as u16), Value::Null(id));
            w.instance.set_value(r1, AttrId(c1 as u16), Value::Null(id));
        }
    }
    for _ in 0..conflicts {
        if w.fds.is_empty() {
            break;
        }
        let fd = w.fds.fds()[rng.gen_range(0..w.fds.len())];
        plant_violation(&mut rng, &mut w.instance, &FdSet::from_vec(vec![fd]));
    }
    w
}

/// The standard selection query of the selection equivalence suites,
/// over a [`scaling_spec`]-style instance (attributes `A`, `B`, …, and
/// constants `A_0`, `A_1`, `B_0`, … — present in every uniform domain,
/// whose size [`scaling_spec`] floors at 8):
///
/// ```text
/// (A = A_0 ∨ A = A_1) ∧ ¬(B = B_0)
/// ```
///
/// The shape is chosen to exercise every answer set: constant rows
/// split into sure/not-selected on the predicate, null-bearing rows go through
/// the signature evaluator's mentioned-constants analysis (`A_0`,
/// `A_1`, `B_0` are *mentioned*, the rest of the domain is summarized
/// by fresh representatives), and NEC-shared nulls exercise the class
/// grouping.
pub fn scaling_query(instance: &Instance) -> fdi_core::query::Query {
    use fdi_core::query::Query;
    let a0 = Query::eq_text(instance, "A", "A_0").expect("A_0 in a uniform domain");
    let a1 = Query::eq_text(instance, "A", "A_1").expect("A_1 in a uniform domain");
    let b0 = Query::eq_text(instance, "B", "B_0").expect("B_0 in a uniform domain");
    a0.or(a1).and(b0.not())
}

/// One single-row operation of a generated update stream — the unit
/// the incremental [`fdi_core::update::Database`] maintenance is
/// benchmarked and property-tested on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a fresh row, given as parse tokens (`-` for nulls).
    Insert(Vec<String>),
    /// Delete the `i`-th live row in display order at application time
    /// (valid when ops are applied in stream order; [`apply_op`]
    /// resolves the position to a stable [`RowId`] via [`LiveRows`]).
    Delete(usize),
    /// Overwrite one cell with the token.
    Modify {
        /// Row to modify.
        row: usize,
        /// Attribute to overwrite.
        attr: AttrId,
        /// Replacement token (`-` for a fresh null, or a constant).
        token: String,
    },
    /// Resolve the cell at (`row`, `attr`) to the constant token —
    /// external acquisition. Targets are drawn *blind* (the generator
    /// does not track where nulls are), so most applications hit a
    /// constant cell and reject cleanly with `NotANull`; the hits
    /// exercise class-wide substitution.
    ResolveNull {
        /// Row of the targeted cell.
        row: usize,
        /// Attribute of the targeted cell.
        attr: AttrId,
        /// The asserted constant.
        token: String,
    },
}

/// Relative operation weights of an update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMix {
    /// Weight of [`UpdateOp::Insert`].
    pub insert: u32,
    /// Weight of [`UpdateOp::Delete`].
    pub delete: u32,
    /// Weight of [`UpdateOp::Modify`].
    pub modify: u32,
    /// Weight of [`UpdateOp::ResolveNull`]. Defaults to 0 — resolve
    /// targets are blind, so streams meant to apply cleanly end to end
    /// (benchmark baselines replaying ops without a `Database`) keep
    /// them off; the property suites opt in.
    pub resolve: u32,
}

impl Default for UpdateMix {
    fn default() -> Self {
        UpdateMix {
            insert: 2,
            delete: 1,
            modify: 2,
            resolve: 0,
        }
    }
}

/// Generates `count` single-row update operations valid against an
/// instance that starts with `start_rows` rows over `spec`'s schema:
/// the generator tracks the live row count as inserts and deletes are
/// (assumed) applied in stream order, so every *positional* row
/// reference (resolved to a stable [`RowId`] by [`apply_op`] via
/// [`LiveRows`]) is in range at application time. Inserted and modified
/// cells draw constants from the spec's domains, with
/// `spec.null_density` fresh (column-local, class-free) nulls; resolve
/// tokens are always constants.
///
/// When the live count reaches zero, an [`UpdateOp::Insert`] is emitted
/// regardless of the mix (the only applicable operation) — a
/// delete-heavy mix with few starting rows therefore contains more
/// inserts than its weights suggest.
///
/// The in-range guarantee holds when every insert lands (e.g. under
/// [`fdi_core::update::Enforcement::None`]); under a rejecting policy
/// later positions may fall out of range, which [`apply_op`] reports as
/// a clean `false` without touching the database.
pub fn update_stream(
    seed: u64,
    spec: &WorkloadSpec,
    start_rows: usize,
    count: usize,
    mix: UpdateMix,
) -> Vec<UpdateOp> {
    let total = mix.insert + mix.delete + mix.modify + mix.resolve;
    assert!(total > 0, "update_stream needs a non-empty mix");
    let mut rng = StdRng::seed_from_u64(seed);
    let names = attr_names(spec.attrs);
    let token = |rng: &mut StdRng, col: usize| {
        if rng.gen_bool(spec.null_density) {
            "-".to_string()
        } else {
            format!("{}_{}", names[col], rng.gen_range(0..spec.domain))
        }
    };
    let mut live = start_rows;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let pick = rng.gen_range(0..total);
        let op = if pick < mix.insert || live == 0 {
            live += 1;
            UpdateOp::Insert((0..spec.attrs).map(|col| token(&mut rng, col)).collect())
        } else if pick < mix.insert + mix.delete {
            let row = rng.gen_range(0..live);
            live -= 1;
            UpdateOp::Delete(row)
        } else if pick < mix.insert + mix.delete + mix.modify {
            let col = rng.gen_range(0..spec.attrs);
            UpdateOp::Modify {
                row: rng.gen_range(0..live),
                attr: AttrId(col as u16),
                token: token(&mut rng, col),
            }
        } else {
            let col = rng.gen_range(0..spec.attrs);
            UpdateOp::ResolveNull {
                row: rng.gen_range(0..live),
                attr: AttrId(col as u16),
                token: format!("{}_{}", names[col], rng.gen_range(0..spec.domain)),
            }
        };
        ops.push(op);
    }
    ops
}

/// Stream-side tracker of live rows, in display order: the bridge from
/// an [`UpdateOp`]'s *positional* row reference (the `i`-th live row at
/// application time — what the blind generator can talk about) to the
/// stable [`RowId`] the database operates on. Maintained by
/// [`apply_op`]: accepted inserts append their new id, accepted deletes
/// remove theirs; rejected operations leave it untouched, mirroring the
/// database.
#[derive(Debug, Clone, Default)]
pub struct LiveRows {
    ids: Vec<RowId>,
}

impl LiveRows {
    /// Captures the current live rows of `instance` in display order.
    pub fn of(instance: &Instance) -> LiveRows {
        LiveRows {
            ids: instance.row_ids().collect(),
        }
    }

    /// Number of tracked live rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of the `pos`-th live row, if in range.
    pub fn get(&self, pos: usize) -> Option<RowId> {
        self.ids.get(pos).copied()
    }
}

/// Applies one stream operation to a maintained database, resolving the
/// op's positional row reference through `live`; returns whether the
/// database accepted it (rejections, `NotANull` misses, and
/// out-of-range positions leave database and tracker untouched, so a
/// stream stays applicable).
pub fn apply_op(db: &mut fdi_core::update::Database, live: &mut LiveRows, op: &UpdateOp) -> bool {
    match op {
        UpdateOp::Insert(tokens) => {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            match db.insert(&refs) {
                Ok(outcome) => {
                    live.ids.push(outcome.row);
                    true
                }
                Err(_) => false,
            }
        }
        UpdateOp::Delete(pos) => match live.get(*pos) {
            Some(row) if db.delete(row).is_ok() => {
                live.ids.remove(*pos);
                true
            }
            _ => false,
        },
        UpdateOp::Modify { row, attr, token } => match live.get(*row) {
            Some(id) => db.modify(id, *attr, token).is_ok(),
            None => false,
        },
        UpdateOp::ResolveNull { row, attr, token } => match live.get(*row) {
            Some(id) => db.resolve_null(id, *attr, token).is_ok(),
            None => false,
        },
    }
}

/// Plants a definite violation of the first FD: two rows equal on its
/// left side with distinct constants on its right side.
pub fn plant_violation(rng: &mut StdRng, instance: &mut Instance, fds: &FdSet) {
    let Some(fd) = fds.fds().first().copied() else {
        return;
    };
    if instance.len() < 2 {
        return;
    }
    let rows: Vec<RowId> = instance.row_ids().collect();
    let a = rows[rng.gen_range(0..rows.len())];
    let mut b = rows[rng.gen_range(0..rows.len())];
    while b == a {
        b = rows[rng.gen_range(0..rows.len())];
    }
    for attr in fd.lhs.iter() {
        let v = instance.tuple(a).get(attr);
        let v = if v.is_const() {
            v
        } else {
            let name = format!("{}_0", instance.schema().attr_name(attr));
            Value::Const(instance.intern_constant(attr, &name).expect("constant"))
        };
        instance.set_value(a, attr, v);
        instance.set_value(b, attr, v);
    }
    if let Some(attr) = fd.rhs.iter().next() {
        let name0 = format!("{}_0", instance.schema().attr_name(attr));
        let name1 = format!("{}_1", instance.schema().attr_name(attr));
        let s0 = instance.intern_constant(attr, &name0).expect("constant");
        let s1 = instance.intern_constant(attr, &name1).expect("constant");
        instance.set_value(a, attr, Value::Const(s0));
        instance.set_value(b, attr, Value::Const(s1));
    }
}

/// A workload planted to make the null-comparison semantics
/// **disagree** — the differential-testing generator behind
/// `fdi_core::semantics::compare` and the cross-convention proptests.
///
/// The schema is `R(A, B, C)` with the single FD `A → B`; rows 0 and 1
/// carry one of four planted patterns (selected by `seed % 4`), the
/// rest are constant filler rows with column-unique values that trigger
/// nothing. Which conventions reject each pattern walks the semantics
/// lattice one step at a time:
///
/// | `seed % 4` | rows 0–1 on `(A, B)`        | rejected by               |
/// |------------|-----------------------------|---------------------------|
/// | 0          | `(⊥, B_0)`, `(A_1, B_1)`    | strong                    |
/// | 1          | `(A_0, ⊥)`, `(A_0, B_1)`    | strong, null-marker       |
/// | 2          | `(?m, B_0)`, `(?m, B_1)`    | strong, null-marker, weak |
/// | 3          | `(A_0, B_0)`, `(A_0, B_1)`  | all four                  |
///
/// Pattern 0 needs the pessimistic null-matches-everything determinant;
/// pattern 1 needs null-vs-constant to conflict on the dependent;
/// pattern 2 needs NEC-class nulls to agree on the determinant (`?m` is
/// one shared null id); pattern 3 is a classical violation every
/// convention flags with the **identical** canonical witness `(0, 1)`.
/// Cycling `seed` over any four consecutive values therefore exhibits a
/// disagreeing instance for every unordered pair of conventions, and an
/// all-agree-on-`Err` instance for the witness-identity checks.
pub fn disagreement_workload(seed: u64) -> Workload {
    let spec = WorkloadSpec {
        rows: 8,
        attrs: 3,
        domain: 16,
        null_density: 0.0,
        nec_density: 0.0,
        collision_rate: 0.0,
    };
    let schema = schema_for(&spec);
    let mut instance = Instance::new(schema.clone());
    let mut fds = FdSet::new();
    fds.push(Fd::new(
        AttrSet::singleton(AttrId(0)),
        AttrSet::singleton(AttrId(1)),
    ));
    let names = attr_names(spec.attrs);
    fn konst(instance: &mut Instance, names: &[String], col: usize, k: usize) -> Value {
        let name = format!("{}_{k}", names[col]);
        Value::Const(
            instance
                .intern_constant(AttrId(col as u16), &name)
                .expect("domain constant"),
        )
    }
    let (row0, row1) = match seed % 4 {
        0 => {
            let null = instance.fresh_null();
            (
                vec![
                    Value::Null(null),
                    konst(&mut instance, &names, 1, 0),
                    konst(&mut instance, &names, 2, 0),
                ],
                vec![
                    konst(&mut instance, &names, 0, 1),
                    konst(&mut instance, &names, 1, 1),
                    konst(&mut instance, &names, 2, 1),
                ],
            )
        }
        1 => {
            let null = instance.fresh_null();
            (
                vec![
                    konst(&mut instance, &names, 0, 0),
                    Value::Null(null),
                    konst(&mut instance, &names, 2, 0),
                ],
                vec![
                    konst(&mut instance, &names, 0, 0),
                    konst(&mut instance, &names, 1, 1),
                    konst(&mut instance, &names, 2, 1),
                ],
            )
        }
        2 => {
            let shared = instance.fresh_null();
            (
                vec![
                    Value::Null(shared),
                    konst(&mut instance, &names, 1, 0),
                    konst(&mut instance, &names, 2, 0),
                ],
                vec![
                    Value::Null(shared),
                    konst(&mut instance, &names, 1, 1),
                    konst(&mut instance, &names, 2, 1),
                ],
            )
        }
        _ => (
            vec![
                konst(&mut instance, &names, 0, 0),
                konst(&mut instance, &names, 1, 0),
                konst(&mut instance, &names, 2, 0),
            ],
            vec![
                konst(&mut instance, &names, 0, 0),
                konst(&mut instance, &names, 1, 1),
                konst(&mut instance, &names, 2, 1),
            ],
        ),
    };
    instance.add_tuple(Tuple::new(row0)).expect("arity");
    instance.add_tuple(Tuple::new(row1)).expect("arity");
    for i in 2..spec.rows {
        let filler: Vec<Value> = (0..spec.attrs)
            .map(|col| konst(&mut instance, &names, col, i))
            .collect();
        instance.add_tuple(Tuple::new(filler)).expect("arity");
    }
    Workload {
        schema,
        fds,
        instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::chase;
    use fdi_core::interp;
    use fdi_core::semantics::Semantics;
    use fdi_core::testfd;

    fn check<S: Semantics>(w: &Workload, sem: S) -> Result<(), testfd::Violation> {
        testfd::check(&w.instance, &w.fds, sem, &fdi_obs::Recorder::noop())
    }

    #[test]
    fn workloads_are_deterministic() {
        let spec = WorkloadSpec::default();
        let w1 = workload(42, &spec, 3);
        let w2 = workload(42, &spec, 3);
        assert_eq!(w1.fds, w2.fds);
        assert_eq!(w1.instance.canonical_form(), w2.instance.canonical_form());
        let w3 = workload(43, &spec, 3);
        assert_ne!(w1.instance.canonical_form(), w3.instance.canonical_form());
    }

    #[test]
    fn null_density_is_respected() {
        let spec = WorkloadSpec {
            rows: 200,
            null_density: 0.25,
            ..WorkloadSpec::default()
        };
        let w = workload(7, &spec, 2);
        let cells = (spec.rows * spec.attrs) as f64;
        let density = w.instance.null_count() as f64 / cells;
        assert!(
            (0.18..0.32).contains(&density),
            "density {density} far from 0.25"
        );
    }

    #[test]
    fn zero_density_means_complete() {
        let spec = WorkloadSpec {
            null_density: 0.0,
            ..WorkloadSpec::default()
        };
        let w = workload(3, &spec, 2);
        assert!(w.instance.is_complete());
    }

    #[test]
    fn satisfiable_workloads_are_weakly_satisfiable() {
        for seed in 0..8 {
            let spec = WorkloadSpec {
                rows: 24,
                null_density: 0.15,
                ..WorkloadSpec::default()
            };
            let w = satisfiable_workload(seed, &spec, 3);
            assert!(
                chase::weakly_satisfiable_via_chase(&w.fds, &w.instance),
                "seed {seed} produced an unsatisfiable 'satisfiable' workload"
            );
        }
    }

    #[test]
    fn satisfiable_without_nulls_is_classically_satisfied() {
        for seed in 0..8 {
            let spec = WorkloadSpec {
                rows: 32,
                null_density: 0.0,
                ..WorkloadSpec::default()
            };
            let w = satisfiable_workload(seed, &spec, 3);
            assert!(
                interp::all_hold_classical(&w.fds, &w.instance.tuples_vec()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn planted_violations_are_found() {
        for seed in 0..8 {
            let spec = WorkloadSpec {
                rows: 16,
                null_density: 0.0,
                ..WorkloadSpec::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let fds = random_fds(&mut rng, spec.attrs, 2);
            if fds.is_empty() {
                continue;
            }
            let mut instance = satisfiable_instance(&mut rng, &spec, &fds);
            plant_violation(&mut rng, &mut instance, &fds);
            assert!(
                testfd::check_strong(&instance, &fds).is_err(),
                "seed {seed}: planted violation missed"
            );
        }
    }

    #[test]
    fn random_fds_are_nontrivial_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let fds = random_fds(&mut rng, 5, 6);
        assert!(fds.len() <= 6);
        assert!(!fds.is_empty());
        for fd in &fds {
            assert!(!fd.is_trivial());
            assert!(fd.lhs.len() <= 2);
            assert_eq!(fd.rhs.len(), 1);
        }
    }

    #[test]
    fn nec_density_creates_shared_classes() {
        let spec = WorkloadSpec {
            rows: 100,
            null_density: 0.4,
            nec_density: 0.5,
            ..WorkloadSpec::default()
        };
        let w = workload(11, &spec, 2);
        let mut ids: Vec<NullId> = Vec::new();
        for t in w.instance.tuples() {
            for (_, n) in t.nulls_on(w.instance.schema().all_attrs()) {
                ids.push(n);
            }
        }
        let occurrences = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() < occurrences,
            "expected shared null ids at nec_density 0.5"
        );
    }

    #[test]
    fn shared_nulls_stay_within_columns() {
        let spec = WorkloadSpec {
            rows: 60,
            null_density: 0.4,
            nec_density: 0.6,
            ..WorkloadSpec::default()
        };
        let w = workload(13, &spec, 2);
        // a null id must appear under exactly one attribute
        let mut seen: std::collections::HashMap<NullId, AttrId> = std::collections::HashMap::new();
        for t in w.instance.tuples() {
            for (a, n) in t.nulls_on(w.instance.schema().all_attrs()) {
                let prior = seen.insert(n, a);
                if let Some(p) = prior {
                    assert_eq!(p, a, "null {n} spans columns {p} and {a}");
                }
            }
        }
    }

    #[test]
    fn update_streams_are_deterministic_and_in_range() {
        let spec = WorkloadSpec {
            rows: 12,
            null_density: 0.2,
            ..WorkloadSpec::default()
        };
        let mix = UpdateMix {
            resolve: 1,
            ..UpdateMix::default()
        };
        let s1 = update_stream(5, &spec, 12, 80, mix);
        let s2 = update_stream(5, &spec, 12, 80, mix);
        assert_eq!(s1, s2, "streams are seed-deterministic");
        assert_ne!(s1, update_stream(6, &spec, 12, 80, mix));
        // Replay the live row count: every Delete/Modify/ResolveNull
        // index must be in range at its application point.
        let mut live = 12usize;
        for op in &s1 {
            match op {
                UpdateOp::Insert(tokens) => {
                    assert_eq!(tokens.len(), spec.attrs);
                    live += 1;
                }
                UpdateOp::Delete(row) => {
                    assert!(*row < live, "delete out of range");
                    live -= 1;
                }
                UpdateOp::Modify { row, attr, .. } => {
                    assert!(*row < live, "modify out of range");
                    assert!(attr.index() < spec.attrs);
                }
                UpdateOp::ResolveNull { row, attr, token } => {
                    assert!(*row < live, "resolve out of range");
                    assert!(attr.index() < spec.attrs);
                    assert_ne!(token, "-", "resolve tokens are constants");
                }
            }
        }
    }

    #[test]
    fn update_streams_respect_the_mix_and_apply_cleanly() {
        use fdi_core::update::{Database, Enforcement};
        let spec = WorkloadSpec {
            rows: 16,
            null_density: 0.15,
            ..WorkloadSpec::default()
        };
        let w = workload(9, &spec, 3);
        let inserts_only = update_stream(
            9,
            &spec,
            16,
            40,
            UpdateMix {
                insert: 1,
                delete: 0,
                modify: 0,
                resolve: 0,
            },
        );
        assert!(inserts_only
            .iter()
            .all(|op| matches!(op, UpdateOp::Insert(_))));
        let mut db =
            Database::new(w.instance.clone(), w.fds.clone(), Enforcement::None).expect("load mode");
        let mut live = LiveRows::of(db.instance());
        let stream = update_stream(10, &spec, 16, 60, UpdateMix::default());
        for op in &stream {
            assert!(
                apply_op(&mut db, &mut live, op),
                "load mode accepts in-range ops"
            );
        }
        // Half the weight on deletes yields at least 40% deletes while
        // rows remain; an insert + delete mix yields plenty of both.
        let spec = scaling_spec(100, 0.15, 0.1);
        let count_deletes = |ops: &[UpdateOp]| {
            ops.iter()
                .filter(|op| matches!(op, UpdateOp::Delete(_)))
                .count()
        };
        let delete_heavy = UpdateMix {
            insert: 1,
            delete: 2,
            modify: 1,
            resolve: 0,
        };
        let ops = update_stream(11, &spec, 100, 64, delete_heavy);
        let deletes = count_deletes(&ops);
        assert!(deletes * 5 >= ops.len() * 2, "only {deletes}/64 deletes");
        let churn = UpdateMix {
            insert: 1,
            delete: 1,
            modify: 0,
            resolve: 0,
        };
        let ops = update_stream(11, &spec, 100, 64, churn);
        let deletes = count_deletes(&ops);
        assert!(deletes > 10 && ops.len() - deletes > 10, "churn mixes both");
    }

    /// A tombstoned-then-reinserted instance keeps the dense display
    /// order: it prints exactly like a twin built densely from its live
    /// tuples, and serializing the live rows back through the parse
    /// format round-trips the content (NEC classes carried by shared
    /// `?mark`s keyed on class roots).
    #[test]
    fn churned_instances_print_densely_and_round_trip_the_text_format() {
        use fdi_core::update::{Database, Enforcement};
        let spec = WorkloadSpec {
            rows: 20,
            null_density: 0.25,
            nec_density: 0.4,
            ..WorkloadSpec::default()
        };
        let w = workload(17, &spec, 3);
        let mut db =
            Database::new(w.instance.clone(), w.fds.clone(), Enforcement::None).expect("load mode");
        let mut live = LiveRows::of(db.instance());
        let churn = UpdateMix {
            insert: 1,
            delete: 1,
            modify: 0,
            resolve: 0,
        };
        for op in &update_stream(18, &spec, 20, 48, churn) {
            apply_op(&mut db, &mut live, op);
        }
        let churned = db.instance();
        assert!(
            churned.slot_bound() > churned.len(),
            "the churn stream must actually leave interior tombstones"
        );

        // Display order == dense order: a twin built from the live
        // tuples in iter_live order renders identically.
        let mut dense = Instance::new(churned.schema().clone());
        for (_, t) in churned.iter_live() {
            dense.add_tuple(t.clone()).expect("arity");
        }
        dense.replace_necs(churned.necs().clone());
        assert_eq!(churned.render(false), dense.render(false));
        assert_eq!(churned.canonical_form(), dense.canonical_form());

        // Text-format round trip: serialize live rows (constants by
        // name, nulls as class-root marks, display order) and re-parse.
        let all = churned.schema().all_attrs();
        let mut text = String::new();
        for (_, t) in churned.iter_live() {
            let line: Vec<String> = all
                .iter()
                .map(|a| match t.get(a) {
                    Value::Const(s) => churned.symbols().resolve(s).to_string(),
                    Value::Null(n) => format!("?c{}", churned.necs().find_readonly(n).0),
                    Value::Nothing => "#!".to_string(),
                })
                .collect();
            text.push_str(&line.join(" "));
            text.push('\n');
        }
        let reparsed = Instance::parse(churned.schema().clone(), &text).expect("round trip");
        assert_eq!(reparsed.canonical_form(), churned.canonical_form());
    }

    #[test]
    fn attr_names_are_letters() {
        assert_eq!(attr_names(3), vec!["A", "B", "C"]);
        assert_eq!(attr_names(27)[26], "A1");
    }

    #[test]
    fn large_workloads_scale_and_stay_satisfiable() {
        let w = large_workload(11, 1000, 0.2, 0.3, 4);
        assert_eq!(w.instance.len(), 1000);
        let density = w.instance.null_count() as f64 / (1000.0 * 4.0);
        assert!((0.15..0.26).contains(&density), "density {density}");
        // NEC post-pass produced shared classes
        assert!(w.instance.necs().merge_count() > 0, "expected NEC merges");
        assert!(
            chase::weakly_satisfiable_via_chase(&w.fds, &w.instance),
            "large workloads must stay weakly satisfiable"
        );
        // determinism
        let w2 = large_workload(11, 1000, 0.2, 0.3, 4);
        assert_eq!(w.instance.canonical_form(), w2.instance.canonical_form());
        let w3 = large_workload(12, 1000, 0.2, 0.3, 4);
        assert_ne!(w.instance.canonical_form(), w3.instance.canonical_form());
    }

    #[test]
    fn extended_workloads_cross_columns_and_plant_conflicts() {
        let w = extended_workload(19, 400, 4, 6, 3);
        assert_eq!(w.instance.len(), 400);
        // determinism
        let w2 = extended_workload(19, 400, 4, 6, 3);
        assert_eq!(w.instance.canonical_form(), w2.instance.canonical_form());
        // at least one null id spans two columns
        let mut seen: std::collections::HashMap<NullId, AttrId> = std::collections::HashMap::new();
        let mut crossing = false;
        for t in w.instance.tuples() {
            for (a, n) in t.nulls_on(w.instance.schema().all_attrs()) {
                let root = w.instance.necs().find_readonly(n);
                if let Some(p) = seen.insert(root, a) {
                    crossing |= p != a;
                }
            }
        }
        assert!(crossing, "expected a cross-column NEC class");
        // the planted conflicts are real: the extended chase derives
        // `nothing`, i.e. the instance is no longer weakly satisfiable
        assert!(
            !chase::weakly_satisfiable_via_chase(&w.fds, &w.instance),
            "planted conflicts must bite"
        );
        // with nothing planted, the base's witness completion survives
        // (cross-column splices *may* create conflicts of their own, so
        // only the unspliced variant promises satisfiability)
        let clean = extended_workload(19, 120, 4, 0, 0);
        assert!(chase::weakly_satisfiable_via_chase(
            &clean.fds,
            &clean.instance
        ));
    }

    #[test]
    fn disagreement_workloads_walk_the_semantics_lattice() {
        use fdi_core::semantics::SemanticsKind;
        // Per pattern, exactly the first `k` conventions of the lattice
        // order reject — so four consecutive seeds disagree on every
        // unordered pair of conventions.
        for (seed, rejecting) in [(0u64, 1usize), (1, 2), (2, 3), (3, 4)] {
            let w = disagreement_workload(seed);
            for (i, kind) in SemanticsKind::ALL.iter().enumerate() {
                let verdict = check(&w, *kind);
                assert_eq!(
                    verdict.is_err(),
                    i < rejecting,
                    "seed {seed}: unexpected verdict under {kind}"
                );
            }
        }
        // Determinism, and the planted pair is the canonical witness of
        // the all-reject pattern under every convention.
        let w = disagreement_workload(3);
        let w2 = disagreement_workload(3);
        assert_eq!(w.instance.canonical_form(), w2.instance.canonical_form());
        for kind in SemanticsKind::ALL {
            let v = check(&w, kind).unwrap_err();
            assert_eq!(v.rows, (RowId(0), RowId(1)), "under {kind}");
        }
    }

    #[test]
    fn scaling_spec_scales_domains() {
        let s = scaling_spec(100_000, 0.1, 0.1);
        assert_eq!(s.rows, 100_000);
        assert_eq!(s.domain, 25_000);
        assert_eq!(scaling_spec(16, 0.1, 0.1).domain, 8, "floor for tiny n");
    }
}
