//! Update-sequence properties for `Database` maintenance: after
//! *every* operation of an arbitrary interleaved
//! insert/delete/modify/resolve stream — accepted or rejected — the
//! enforced notion still holds (`testfd::check_strong` under `Strong`,
//! `weakly_satisfiable_via_chase` under `Weak`), the instance is
//! minimally incomplete under both (`chase::is_minimally_incomplete`),
//! and a mirror twin fed the same stream is bit-identical.
//!
//! Rows are stable `RowId` slots: deletes tombstone and never renumber
//! survivors, so the stream tracker (`fdi_gen::LiveRows`) resolves each
//! op's positional reference to the id it means. A second property
//! covers `compact()`: densifying the slot arena preserves content, and
//! the compacted database keeps enforcing its notion.
//!
//! Streams come from `fdi_gen::update_stream`; bases from the workload
//! generators (weakly/classically satisfiable where the enforcement demands
//! a valid starting point).
//!
//! A weak database is also held to a reference model of
//! internal acquisition by the plain chase ([`ChaseThenSwap`]): both
//! must decide every op alike and land on the same canonical instance.

use fdi_core::chase::{chase_plain, is_minimally_incomplete, weakly_satisfiable_via_chase};
use fdi_core::testfd;
use fdi_core::update::{Database, Enforcement};
use fdi_gen::{
    apply_op, satisfiable_workload, update_stream, workload, LiveRows, UpdateMix, UpdateOp,
    WorkloadSpec,
};
use fdi_relation::attrs::AttrId;
use fdi_relation::rowid::RowId;
use fdi_relation::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The default mix plus blind resolve ops: most miss (clean `NotANull`
/// rejections), the hits exercise class-wide substitution.
fn mix_with_resolves() -> UpdateMix {
    UpdateMix {
        resolve: 2,
        ..UpdateMix::default()
    }
}

/// The load-mode mixes: [`mix_with_resolves`], then the stress mixes
/// delete-heavy (half the weight on deletes) and churn (delete +
/// reinsert cycles), which leave many interior tombstones.
fn load_mode_mix(pick: usize) -> UpdateMix {
    let mix = |insert, delete, modify| UpdateMix {
        insert,
        delete,
        modify,
        resolve: 0,
    };
    [mix_with_resolves(), mix(1, 2, 1), mix(1, 1, 0)][pick]
}

fn spec(rows: usize, null_density: f64) -> WorkloadSpec {
    WorkloadSpec {
        rows,
        attrs: 4,
        domain: 6, // small domains force collisions and rejections
        null_density,
        nec_density: 0.3,
        collision_rate: 0.5,
    }
}

/// The invariant the enforcement promises, checked after every single
/// operation: strongly satisfied under `Strong`, weakly satisfiable
/// under `Weak`, and minimally incomplete under both — weak writes
/// acquire their closure, and a strongly satisfied instance has no
/// applicable NS-rule (load mode promises nothing).
fn assert_enforced(db: &Database) {
    let holds = match db.enforcement() {
        Enforcement::Strong => testfd::check_strong(db.instance(), db.fds()).is_ok(),
        Enforcement::Weak => weakly_satisfiable_via_chase(db.fds(), db.instance()),
        Enforcement::None => return,
    };
    assert!(
        holds,
        "{:?} enforcement broken on\n{}",
        db.enforcement(),
        db.instance().render(true)
    );
    assert!(
        is_minimally_incomplete(db.instance(), db.fds()),
        "{:?} database left applicable NS-rules on\n{}",
        db.enforcement(),
        db.instance().render(true)
    );
}

/// A database and its mirror twin, fed the identical op stream.
struct Twins {
    db: Database,
    live: LiveRows,
    mirror: Database,
    mirror_live: LiveRows,
}

impl Twins {
    fn new(db: Database) -> Twins {
        let live = LiveRows::of(db.instance());
        Twins {
            mirror: db.clone(),
            mirror_live: live.clone(),
            db,
            live,
        }
    }

    /// Applies `op` to both twins, then checks that they decided alike
    /// and stayed bit-identical — same marked render, same `NecStore`
    /// representation (the determinism the op journal's crash recovery
    /// relies on) — and that the enforced notion still holds. Returns whether
    /// the op was accepted.
    fn apply(&mut self, op: &UpdateOp) -> bool {
        let accepted = apply_op(&mut self.db, &mut self.live, op);
        let mirror_accepted = apply_op(&mut self.mirror, &mut self.mirror_live, op);
        assert_eq!(accepted, mirror_accepted, "twins must decide identically");
        assert_eq!(
            self.db.instance().render(true),
            self.mirror.instance().render(true)
        );
        assert!(
            self.db.instance().necs() == self.mirror.instance().necs(),
            "mirror NEC representation must stay in lockstep"
        );
        assert_enforced(&self.db);
        accepted
    }
}

/// Reference model of a weak write (check, then acquisition) by the
/// plain chase: apply the op in load mode, decide weak satisfiability
/// with `weakly_satisfiable_via_chase` (rolling back a rejected op),
/// then swap in `chase_plain`'s result.
struct ChaseThenSwap {
    db: Database,
    live: LiveRows,
}

impl ChaseThenSwap {
    fn new(db: Database) -> ChaseThenSwap {
        let live = LiveRows::of(db.instance());
        let mut model = ChaseThenSwap { db, live };
        model.swap_in_chase();
        model
    }

    fn swap_in_chase(&mut self) {
        let chased = chase_plain(self.db.instance(), self.db.fds()).instance;
        self.db = Database::resume(chased, self.db.fds().clone(), Enforcement::None);
    }

    fn apply(&mut self, op: &UpdateOp) -> bool {
        let before = (self.db.clone(), self.live.clone());
        if !apply_op(&mut self.db, &mut self.live, op) {
            return false;
        }
        if !weakly_satisfiable_via_chase(self.db.fds(), self.db.instance()) {
            (self.db, self.live) = before;
            return false;
        }
        self.swap_in_chase();
        true
    }
}

/// Rewrites about a third of a stream's `-` tokens into three shared
/// marks `?m0`–`?m2`, which land in any column: NEC classes that span
/// rows and columns.
fn with_marks(seed: u64, mut stream: Vec<UpdateOp>) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mark = |token: &mut String| {
        if token == "-" && rng.gen_bool(0.35) {
            *token = format!("?m{}", rng.gen_range(0..3));
        }
    };
    for op in &mut stream {
        match op {
            UpdateOp::Insert(tokens) => tokens.iter_mut().for_each(&mut mark),
            UpdateOp::Modify { token, .. } => mark(token),
            UpdateOp::Delete(_) | UpdateOp::ResolveNull { .. } => {}
        }
    }
    stream
}

proptest! {
    /// A weak database and the [`ChaseThenSwap`] model,
    /// fed one op stream with shared and cross-column marks, accept the
    /// same ops and hold the same canonical instance after every op.
    #[test]
    fn weak_acquisition_matches_chase_then_swap(
        seed in 0u64..1 << 32,
        rows in 2usize..24,
        ops in 1usize..40,
    ) {
        let spec = spec(rows, 0.3);
        let w = satisfiable_workload(seed, &spec, 3);
        let mut db = Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Weak)
            .expect("satisfiable base");
        let mut live = LiveRows::of(db.instance());
        let mut model = ChaseThenSwap::new(Database::resume(w.instance.clone(), w.fds.clone(), Enforcement::None));
        prop_assert_eq!(db.instance().canonical_form(), model.db.instance().canonical_form());
        let stream = update_stream(seed ^ 0xacc, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &with_marks(seed ^ 0x3a7c, stream) {
            let accepted = apply_op(&mut db, &mut live, op);
            prop_assert_eq!(accepted, model.apply(op), "{:?}", op);
            prop_assert_eq!(
                db.instance().canonical_form(),
                model.db.instance().canonical_form(),
                "after {:?} on\n{}",
                op,
                db.instance().render(true)
            );
        }
    }

    /// Load mode (no checking, no acquisition) over arbitrary
    /// interleavings of every load-mode mix, including empty starting
    /// instances.
    #[test]
    fn load_mode_streams_replay_identically(
        seed in 0u64..1 << 32,
        rows in 0usize..40,
        ops in 1usize..60,
        mix in 0usize..3,
    ) {
        let spec = spec(rows, 0.2);
        let w = workload(seed, &spec, 3);
        let db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Enforcement::None,
        )
        .expect("load mode accepts anything");
        let mut twins = Twins::new(db);
        let stream = update_stream(seed ^ 0x5eed, &spec, w.instance.len(), ops, load_mode_mix(mix));
        for op in &stream {
            let accepted = twins.apply(op);
            // Blind resolves may miss a null; everything else lands.
            if !matches!(op, UpdateOp::ResolveNull { .. }) {
                prop_assert!(accepted, "load mode accepts every in-range op");
            }
            prop_assert_eq!(twins.live.len(), twins.db.instance().len(), "tracker mirrors the instance");
        }
    }

    /// Weak enforcement with internal acquisition: accepted updates may
    /// trigger chase substitutions, rejected ones must roll back, and
    /// every state stays weakly satisfiable.
    #[test]
    fn weak_propagation_streams_stay_weakly_satisfiable(
        seed in 0u64..1 << 32,
        rows in 2usize..24,
        ops in 1usize..40,
    ) {
        let spec = spec(rows, 0.15);
        let w = satisfiable_workload(seed, &spec, 3);
        let db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Enforcement::Weak,
        )
        .expect("satisfiable base");
        let mut twins = Twins::new(db);
        let stream = update_stream(seed ^ 0xbeef, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            twins.apply(op); // rejections are part of the property
        }
    }

    /// Strong enforcement over a complete base: the reject path fires
    /// often (nulls on determinants are potential violators), and every
    /// state stays strongly satisfied.
    #[test]
    fn strong_rollback_streams_stay_strongly_satisfied(
        seed in 0u64..1 << 32,
        rows in 2usize..24,
        ops in 1usize..40,
    ) {
        let base_spec = spec(rows, 0.0);
        let w = satisfiable_workload(seed, &base_spec, 3);
        let db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Enforcement::Strong,
        )
        .expect("a complete classically-satisfying base is strongly satisfied");
        // Stream with nulls: frequent strong-convention rejections.
        let stream_spec = spec(rows, 0.25);
        let mut twins = Twins::new(db);
        let stream =
            update_stream(seed ^ 0xf00d, &stream_spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            twins.apply(op);
        }
    }

    /// Interleavings with rejected ops (Strong rollbacks), checked
    /// against two twin rebuilds after every operation:
    ///
    /// * a **mirror** twin fed the identical op sequence must stay
    ///   bit-identical — same marked render, same `NecStore`
    ///   representation (the determinism the op journal's crash
    ///   recovery relies on);
    /// * an **accepted-only** twin — what recovery actually replays —
    ///   must match every piece of visible state, with NEC classes in
    ///   positional correspondence (a rejected attempt may burn null
    ///   *allocator* ids, but must never leak content or class
    ///   structure).
    #[test]
    fn rejected_interleavings_match_twin_rebuilds(
        seed in 0u64..1 << 32,
        rows in 2usize..20,
        ops in 1usize..32,
    ) {
        let base_spec = spec(rows, 0.0);
        let w = satisfiable_workload(seed, &base_spec, 3);
        let fresh = || {
            Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Strong)
                .expect("a complete classically-satisfying base is strongly satisfied")
        };
        let mut twins = Twins::new(fresh());
        let mut twin = fresh();
        let mut twin_live = LiveRows::of(twin.instance());
        // streams with nulls against a Strong policy reject often
        let stream_spec = spec(rows, 0.25);
        let stream =
            update_stream(seed ^ 0x5713, &stream_spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            if twins.apply(op) {
                prop_assert!(
                    apply_op(&mut twin, &mut twin_live, op),
                    "an op the database accepted must replay on the accepted-only twin"
                );
            }
            let db = &twins.db;
            prop_assert_eq!(db.instance().render(false), twin.instance().render(false));
            prop_assert_eq!(
                db.instance().canonical_form(),
                twin.instance().canonical_form()
            );
        }
        let db = &twins.db;
        // NEC class structure corresponds over the live null
        // occurrences (ids may differ by allocator residue; the
        // partition they induce on cells may not)
        let arity = db.instance().schema().arity();
        let mut pairs = Vec::new();
        for row in db.instance().row_ids() {
            for a in 0..arity {
                let attr = AttrId(a as u16);
                match (db.instance().value(row, attr), twin.instance().value(row, attr)) {
                    (Value::Null(x), Value::Null(y)) => pairs.push((x, y)),
                    (v, t) => prop_assert_eq!(v, t, "non-null cells must agree exactly"),
                }
            }
        }
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                prop_assert_eq!(
                    db.instance().necs().same_class(pairs[i].0, pairs[j].0),
                    twin.instance().necs().same_class(pairs[i].1, pairs[j].1),
                    "NEC partition must correspond positionally"
                );
            }
        }
    }

    /// `compact()` after an arbitrary op stream: the arena becomes
    /// dense, the instance content is unchanged, and the compacted
    /// database keeps enforcing its notion on further ops.
    #[test]
    fn compact_preserves_content_and_enforcement(
        seed in 0u64..1 << 32,
        rows in 0usize..32,
        ops in 1usize..60,
    ) {
        let spec = spec(rows, 0.2);
        let w = workload(seed, &spec, 3);
        let db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Enforcement::None,
        )
        .expect("load mode");
        let mut twins = Twins::new(db);
        let stream = update_stream(seed ^ 0xc0de, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            twins.apply(op);
        }
        let mut db = twins.db;
        let before = db.instance().canonical_form();
        let moved = db.compact();
        prop_assert_eq!(db.instance().canonical_form(), before, "compaction preserves content");
        prop_assert_eq!(db.instance().slot_bound(), db.instance().len(), "arena is dense");
        // every reported move packs downward onto a live slot (the old
        // slot may be re-occupied by a later row moving down in turn)
        for &(old, new) in &moved {
            prop_assert!(new < old, "compaction only moves rows down");
            prop_assert!(db.instance().is_live(new));
        }
        // and the compacted database keeps working incrementally
        let mut twins = Twins::new(db);
        let tail = update_stream(seed ^ 0xd1ce, &spec, twins.db.instance().len(), 8, mix_with_resolves());
        for op in &tail {
            twins.apply(op);
        }
    }
}

/// Regression: delete a row participating in a shared NEC class, then
/// re-insert a row reusing the same mark. The class binding survives
/// deletion (marks persist), the re-inserted row rejoins the class, and
/// every state stays weakly satisfiable — under stable slots the
/// surviving row keeps its `RowId` across the delete.
#[test]
fn delete_then_reinsert_row_in_shared_nec_class() {
    let schema = fdi_core::fixtures::section6_schema();
    let r = fdi_relation::Instance::parse(schema.clone(), "a1 ?x c1\na2 ?x c2").unwrap();
    let fds = fdi_core::FdSet::parse(&schema, "A -> B").unwrap();
    let mut db = Database::new(r, fds, Enforcement::Weak).unwrap();
    let b = AttrId(1);

    let first = db.instance().nth_row(0);
    let survivor = db.instance().nth_row(1);
    db.delete(first).expect("deletes always succeed");
    assert_enforced(&db);
    assert_eq!(db.instance().len(), 1);
    assert!(
        db.instance().is_live(survivor),
        "stable slots: the survivor keeps its id"
    );

    // Re-insert with the same mark: `?x` must rejoin the surviving
    // occurrence's class.
    let out = db.insert(&["a1", "?x", "c1"]).expect("weakly fine");
    assert_enforced(&db);
    let n0 = db.instance().value(survivor, b).as_null().unwrap();
    let n1 = db.instance().value(out.row, b).as_null().unwrap();
    assert!(
        db.instance().necs().same_class(n0, n1),
        "the mark's NEC class must survive delete-then-reinsert"
    );

    // Resolving either occurrence now fills both.
    db.resolve_null(survivor, b, "b1").expect("consistent");
    assert_enforced(&db);
    assert!(db.instance().value(survivor, b).is_const());
    assert!(db.instance().value(out.row, b).is_const());
}

/// Strong-policy rollback re-occupies the freed slot: a rejected insert
/// leaves the database byte-identical to one that never saw it — same
/// render, same slot bound, and the next accepted insert lands on the
/// very `RowId` the rejected one briefly held.
#[test]
fn strong_rollback_reoccupies_the_freed_slot() {
    let base = fdi_core::fixtures::figure1_instance();
    let fds = fdi_core::fixtures::figure1_fds();
    let mut db = Database::new(base.clone(), fds.clone(), Enforcement::Strong).unwrap();
    let twin = Database::new(base, fds, Enforcement::Strong).unwrap();

    let bound_before = db.instance().slot_bound();
    // e1 earns 10K in d1: a conflicting salary is rejected under Strong.
    let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
    assert!(matches!(
        err,
        fdi_core::update::UpdateError::Rejected { .. }
    ));
    assert_eq!(
        db.instance().slot_bound(),
        bound_before,
        "the rejected insert's slot was released, not tombstoned"
    );
    assert_eq!(
        db.instance().render(true),
        twin.instance().render(true),
        "rollback is byte-identical to never-applied"
    );
    assert_enforced(&db);

    // The next accepted insert re-occupies the slot the rejected one
    // briefly held.
    let out = db.insert(&["e4", "20K", "d3", "part"]).expect("clean");
    assert_eq!(out.row, RowId(bound_before as u32));
    assert_eq!(db.instance().slot_bound(), bound_before + 1);
    assert_enforced(&db);
}

/// Deleting dead or never-allocated rows (possible when a rejecting
/// policy makes the generator's live-count optimistic) is a clean error
/// that leaves the database untouched.
#[test]
fn out_of_range_ops_leave_no_trace() {
    let w = satisfiable_workload(3, &spec(4, 0.0), 2);
    let mut db = Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Strong).unwrap();
    let ghost = RowId(99);
    assert!(db.delete(ghost).is_err());
    assert!(db.modify(ghost, AttrId(0), "A_0").is_err());
    assert!(db.resolve_null(ghost, AttrId(0), "A_0").is_err());
    // a tombstoned id is just as dead as a never-allocated one
    let victim = db.instance().nth_row(1);
    db.delete(victim).expect("live row");
    assert!(db.delete(victim).is_err(), "double delete is a clean error");
    assert!(db.modify(victim, AttrId(0), "A_0").is_err());
    assert_enforced(&db);
    assert_eq!(db.instance().len(), 3);
}
