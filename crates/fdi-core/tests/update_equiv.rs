//! Update-sequence properties for the incremental index maintenance:
//! after *every* operation of an arbitrary interleaved
//! insert/delete/modify stream — accepted or rejected, with or without
//! NS-rule propagation — the delta-maintained `LhsIndex` must be
//! bucket-identical to a fresh `LhsIndex::build` of the live instance.
//!
//! Rows are stable `RowId` slots: deletes tombstone and never renumber
//! survivors, so the stream tracker (`fdi_gen::LiveRows`) resolves each
//! op's positional reference to the id it means. A second family of
//! properties covers `compact()`: densifying the slot arena and
//! remapping the delta-maintained index must land exactly where a fresh
//! rebuild of the compacted instance lands.
//!
//! Streams come from `fdi_gen::update_stream`; bases from the workload
//! generators (weakly/classically satisfiable where the policy demands
//! a valid starting point).

use fdi_core::update::{Database, Enforcement, LhsIndex, Policy};
use fdi_gen::{
    apply_op, satisfiable_workload, update_stream, workload, LiveRows, UpdateMix, UpdateOp,
    WorkloadSpec,
};
use fdi_relation::attrs::AttrId;
use fdi_relation::rowid::RowId;
use fdi_relation::Value;
use proptest::prelude::*;

/// The default mix plus blind resolve ops: most miss (clean `NotANull`
/// rejections), the hits exercise class-wide substitution + re-key.
fn mix_with_resolves() -> UpdateMix {
    UpdateMix {
        resolve: 2,
        ..UpdateMix::default()
    }
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

/// The invariant under test, checked after every single operation.
fn assert_index_fresh(db: &Database) {
    assert!(
        db.index().same_buckets(&LhsIndex::build(
            db.instance(),
            db.fds(),
            &fdi_exec::Executor::with_threads(1)
        )),
        "delta-maintained index diverged from a fresh build on\n{}",
        db.instance().render(true)
    );
}

proptest! {
    /// Load mode (no checking, no propagation): pure delta maintenance
    /// over arbitrary interleavings, including empty starting instances.
    #[test]
    fn delta_index_equals_rebuild_in_load_mode(
        seed in 0u64..1 << 32,
        rows in 0usize..40,
        ops in 1usize..60,
    ) {
        let spec = spec(rows, 0.2);
        let w = workload(seed, &spec, 3);
        let mut db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Policy { enforcement: Enforcement::None, propagate: false },
        )
        .expect("load mode accepts anything");
        let mut live = LiveRows::of(db.instance());
        let stream = update_stream(seed ^ 0x5eed, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            let accepted = apply_op(&mut db, &mut live, op);
            // Blind resolves may miss a null; everything else lands.
            if !matches!(op, UpdateOp::ResolveNull { .. }) {
                prop_assert!(accepted, "load mode accepts every in-range op");
            }
            prop_assert_eq!(live.len(), db.instance().len(), "tracker mirrors the instance");
            assert_index_fresh(&db);
        }
    }

    /// Weak enforcement with internal acquisition: accepted updates may
    /// trigger chase substitutions (delta re-keys), rejected ones must
    /// roll back without leaving index residue.
    #[test]
    fn delta_index_equals_rebuild_under_weak_propagation(
        seed in 0u64..1 << 32,
        rows in 2usize..24,
        ops in 1usize..40,
    ) {
        let spec = spec(rows, 0.15);
        let w = satisfiable_workload(seed, &spec, 3);
        let mut db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Policy { enforcement: Enforcement::Weak, propagate: true },
        )
        .expect("satisfiable base");
        let mut live = LiveRows::of(db.instance());
        let stream = update_stream(seed ^ 0xbeef, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            apply_op(&mut db, &mut live, op); // rejections are part of the property
            assert_index_fresh(&db);
        }
    }

    /// Strong enforcement over a complete base: the reject path fires
    /// often (nulls on determinants are potential violators), and every
    /// rollback must leave the index exactly as a rebuild would.
    #[test]
    fn delta_index_equals_rebuild_under_strong_rollbacks(
        seed in 0u64..1 << 32,
        rows in 2usize..24,
        ops in 1usize..40,
    ) {
        let base_spec = spec(rows, 0.0);
        let w = satisfiable_workload(seed, &base_spec, 3);
        let mut db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Policy { enforcement: Enforcement::Strong, propagate: false },
        )
        .expect("a complete classically-satisfying base is strongly satisfied");
        // Stream with nulls: frequent strong-convention rejections.
        let stream_spec = spec(rows, 0.25);
        let mut live = LiveRows::of(db.instance());
        let stream =
            update_stream(seed ^ 0xf00d, &stream_spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            apply_op(&mut db, &mut live, op);
            assert_index_fresh(&db);
        }
    }

    /// Interleavings with rejected ops (Strong rollbacks), checked
    /// against two twin rebuilds after every operation:
    ///
    /// * a **mirror** twin fed the identical op sequence must stay
    ///   bit-identical — same marked render, same `LhsIndex` buckets,
    ///   same `NecStore` representation (the determinism the op
    ///   journal's crash recovery relies on);
    /// * an **accepted-only** twin — what recovery actually replays —
    ///   must match every piece of visible state, with NEC classes in
    ///   positional correspondence (a rejected attempt may burn null
    ///   *allocator* ids, but must never leak content, index residue,
    ///   or class structure).
    #[test]
    fn rejected_interleavings_match_twin_rebuilds(
        seed in 0u64..1 << 32,
        rows in 2usize..20,
        ops in 1usize..32,
    ) {
        let base_spec = spec(rows, 0.0);
        let w = satisfiable_workload(seed, &base_spec, 3);
        let policy = Policy { enforcement: Enforcement::Strong, propagate: false };
        let fresh = || {
            Database::new(w.instance.clone(), w.fds.clone(), policy)
                .expect("a complete classically-satisfying base is strongly satisfied")
        };
        let mut db = fresh();
        let mut mirror = fresh();
        let mut twin = fresh();
        let mut live = LiveRows::of(db.instance());
        let mut mirror_live = LiveRows::of(mirror.instance());
        let mut twin_live = LiveRows::of(twin.instance());
        // streams with nulls against a Strong policy reject often
        let stream_spec = spec(rows, 0.25);
        let stream =
            update_stream(seed ^ 0x5713, &stream_spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            let accepted = apply_op(&mut db, &mut live, op);
            let mirror_accepted = apply_op(&mut mirror, &mut mirror_live, op);
            prop_assert_eq!(accepted, mirror_accepted, "twins must decide identically");
            if accepted {
                prop_assert!(
                    apply_op(&mut twin, &mut twin_live, op),
                    "an op the database accepted must replay on the accepted-only twin"
                );
            }
            prop_assert_eq!(db.instance().render(true), mirror.instance().render(true));
            prop_assert!(
                db.instance().necs() == mirror.instance().necs(),
                "mirror NEC representation must stay in lockstep"
            );
            prop_assert!(db.index().same_buckets(mirror.index()));
            prop_assert_eq!(db.instance().render(false), twin.instance().render(false));
            prop_assert_eq!(
                db.instance().canonical_form(),
                twin.instance().canonical_form()
            );
            prop_assert!(
                db.index().same_buckets(twin.index()),
                "rejected ops must leave no index residue vs the accepted-only twin"
            );
            assert_index_fresh(&db);
        }
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

    /// `compact()` remap correctness: after an arbitrary op stream,
    /// densifying the arena and *remapping* the delta-maintained index
    /// yields buckets identical to a from-scratch `LhsIndex::build` of
    /// the compacted instance — and the instance content is unchanged.
    #[test]
    fn compact_remap_equals_fresh_rebuild(
        seed in 0u64..1 << 32,
        rows in 0usize..32,
        ops in 1usize..60,
    ) {
        let spec = spec(rows, 0.2);
        let w = workload(seed, &spec, 3);
        let mut db = Database::new(
            w.instance.clone(),
            w.fds.clone(),
            Policy { enforcement: Enforcement::None, propagate: false },
        )
        .expect("load mode");
        let mut live = LiveRows::of(db.instance());
        let stream = update_stream(seed ^ 0xc0de, &spec, w.instance.len(), ops, mix_with_resolves());
        for op in &stream {
            apply_op(&mut db, &mut live, op);
        }
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
        assert_index_fresh(&db);
        // and the compacted database keeps working incrementally
        let spec2 = spec.clone();
        let mut live = LiveRows::of(db.instance());
        let tail = update_stream(seed ^ 0xd1ce, &spec2, db.instance().len(), 8, mix_with_resolves());
        for op in &tail {
            apply_op(&mut db, &mut live, op);
            assert_index_fresh(&db);
        }
    }
}

/// Regression: delete a row participating in a shared NEC class, then
/// re-insert a row reusing the same mark. The class binding survives
/// deletion (marks persist), the re-inserted row rejoins the class, and
/// the index stays bucket-identical to a rebuild throughout — under
/// stable slots the surviving row keeps its `RowId` across the delete.
#[test]
fn delete_then_reinsert_row_in_shared_nec_class() {
    let schema = fdi_core::fixtures::section6_schema();
    let r = fdi_relation::Instance::parse(schema.clone(), "a1 ?x c1\na2 ?x c2").unwrap();
    let fds = fdi_core::FdSet::parse(&schema, "A -> B").unwrap();
    let mut db = Database::new(
        r,
        fds,
        Policy {
            enforcement: Enforcement::Weak,
            propagate: false,
        },
    )
    .unwrap();
    let b = AttrId(1);

    let first = db.instance().nth_row(0);
    let survivor = db.instance().nth_row(1);
    db.delete(first).expect("deletes always succeed");
    assert_index_fresh(&db);
    assert_eq!(db.instance().len(), 1);
    assert!(
        db.instance().is_live(survivor),
        "stable slots: the survivor keeps its id"
    );

    // Re-insert with the same mark: `?x` must rejoin the surviving
    // occurrence's class.
    let out = db.insert(&["a1", "?x", "c1"]).expect("weakly fine");
    assert_index_fresh(&db);
    let n0 = db.instance().value(survivor, b).as_null().unwrap();
    let n1 = db.instance().value(out.row, b).as_null().unwrap();
    assert!(
        db.instance().necs().same_class(n0, n1),
        "the mark's NEC class must survive delete-then-reinsert"
    );

    // Resolving either occurrence now fills both, and the re-keys keep
    // the index fresh.
    db.resolve_null(survivor, b, "b1").expect("consistent");
    assert_index_fresh(&db);
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
    let policy = Policy {
        enforcement: Enforcement::Strong,
        propagate: false,
    };
    let mut db = Database::new(base.clone(), fdi_core::fixtures::figure1_fds(), policy).unwrap();
    let twin = Database::new(base, fdi_core::fixtures::figure1_fds(), policy).unwrap();

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
    assert_index_fresh(&db);

    // The next accepted insert re-occupies the slot the rejected one
    // briefly held.
    let out = db.insert(&["e4", "20K", "d3", "part"]).expect("clean");
    assert_eq!(out.row, RowId(bound_before as u32));
    assert_eq!(db.instance().slot_bound(), bound_before + 1);
    assert_index_fresh(&db);
}

/// Deleting dead or never-allocated rows (possible when a rejecting
/// policy makes the generator's live-count optimistic) is a clean error
/// that leaves the database and index untouched.
#[test]
fn out_of_range_ops_leave_no_trace() {
    let w = satisfiable_workload(3, &spec(4, 0.0), 2);
    let mut db = Database::new(
        w.instance.clone(),
        w.fds.clone(),
        Policy {
            enforcement: Enforcement::Strong,
            propagate: false,
        },
    )
    .unwrap();
    let ghost = RowId(99);
    assert!(db.delete(ghost).is_err());
    assert!(db.modify(ghost, AttrId(0), "A_0").is_err());
    assert!(db.resolve_null(ghost, AttrId(0), "A_0").is_err());
    // a tombstoned id is just as dead as a never-allocated one
    let victim = db.instance().nth_row(1);
    db.delete(victim).expect("live row");
    assert!(db.delete(victim).is_err(), "double delete is a clean error");
    assert!(db.modify(victim, AttrId(0), "A_0").is_err());
    assert_index_fresh(&db);
    assert_eq!(db.instance().len(), 3);
}
