//! Equivalence properties for the indexed engines against their
//! oracles: the worklist chase must reproduce the naive pair-scan chase
//! exactly (same promoted constants, same NEC partition up to
//! representative choice, same event and pass counts), the extended
//! chase must reach the naive oracle's closure, group-indexed TEST-FDs
//! must report the pairwise oracle's canonical witness under both
//! conventions, and compiled selection must equal the interpreted
//! `select`.
//!
//! Instances come from the `fdi-gen` workload generators (column-local
//! NEC classes — the regime where the chase engines are order-identical;
//! see `fdi_core::chase::index`) across a grid of null/NEC densities,
//! including adversarial planted violations, and from the adversarial
//! mutations of `common::arb_adversarial` (`nothing` cells, cross-column
//! NEC classes, nulls on determinants) and tombstone-heavy arenas.

mod common;

use common::{arb_adversarial, arb_spec, tombstone_heavy_workload, DENSITIES};
use fdi_core::chase::{
    chase_naive, chase_plain, extended_chase, extended_chase_naive, is_minimally_incomplete,
    is_minimally_incomplete_naive, order_replay_exact, weakly_satisfiable_via_chase,
};
use fdi_core::fd::FdSet;
use fdi_core::query::{self, CompiledQuery, Query, Selection};
use fdi_core::semantics::SemanticsKind;
use fdi_core::testfd::{self, Violation};
use fdi_gen::{
    large_workload, plant_violation, random_fds, satisfiable_workload, scaling_query, workload,
    Workload, WorkloadSpec,
};
use fdi_obs::Recorder;
use fdi_relation::attrs::AttrId;
use fdi_relation::rowid::RowId;
use fdi_relation::Instance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check(r: &Instance, fds: &FdSet, conv: SemanticsKind) -> Result<(), Violation> {
    testfd::check(r, fds, conv, &Recorder::noop())
}

fn compiled_select(q: &Query, r: &Instance) -> Selection {
    CompiledQuery::compile(q, r)
        .select_stats(r)
        .expect("uniform domains are finite")
        .0
}

/// [`extended_chase`] equals the naive oracle — canonical instance,
/// `nothing` classes, unions.
fn assert_extended_matches_oracle(r: &Instance, fds: &FdSet) {
    let naive = extended_chase_naive(r, fds);
    let ext = extended_chase(r, fds);
    assert_eq!(
        naive.instance.canonical_form(),
        ext.instance.canonical_form(),
        "on\n{}",
        r.render(true)
    );
    assert_eq!(naive.nothing_classes, ext.nothing_classes);
    assert_eq!(naive.unions, ext.unions);
}

/// The plain chase on `r` reaches a fixpoint, and where exact replay is
/// promised ([`order_replay_exact`]) it is the naive engine's.
fn assert_plain_chase_matches_oracle(r: &Instance, fds: &FdSet) {
    let indexed = chase_plain(r, fds);
    assert!(
        is_minimally_incomplete_naive(&indexed.instance, fds),
        "stopped before the fixpoint on\n{}",
        r.render(true)
    );
    if order_replay_exact(r) {
        let naive = chase_naive(r, fds);
        assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "on\n{}",
            r.render(true)
        );
        assert_eq!(naive.events, indexed.events);
        assert_eq!(naive.passes, indexed.passes);
    }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        0u64..1 << 32,
        arb_spec(),
        1usize..5,
        proptest::collection::vec(0usize..24, 0..2),
    )
        .prop_map(|(seed, spec, fd_count, violations)| {
            let mut w = workload(seed, &spec, fd_count);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
            for _ in violations {
                plant_violation(&mut rng, &mut w.instance, &w.fds);
            }
            w
        })
}

/// A satisfiable workload with `?marks` spliced in: up to two marks
/// shared by three cells of one column each, then one mark `?z` shared
/// by two cells of different columns — so every draw sits in the
/// cross-column regime where [`fdi_core::chase::order_replay_exact`]
/// fails.
fn arb_marked_satisfiable() -> impl Strategy<Value = Workload> {
    (0u64..1 << 32, arb_spec(), 1usize..5, 0usize..3).prop_map(
        |(seed, spec, fd_count, local_marks)| {
            let mut w = satisfiable_workload(seed, &spec, fd_count);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7c);
            let rows: Vec<RowId> = w.instance.row_ids().collect();
            let mut mark = |rng: &mut StdRng, name: &str, col: usize| {
                let attr = AttrId(col as u16);
                let row = rows[rng.gen_range(0..rows.len())];
                let null = w.instance.parse_value(attr, name).unwrap();
                w.instance.set_value(row, attr, null);
            };
            for m in 0..local_marks {
                let col = rng.gen_range(0..spec.attrs);
                for _ in 0..3 {
                    mark(&mut rng, &format!("?m{m}"), col);
                }
            }
            let col = rng.gen_range(0..spec.attrs);
            let other = (col + rng.gen_range(1..spec.attrs)) % spec.attrs;
            mark(&mut rng, "?z", col);
            mark(&mut rng, "?z", other);
            w
        },
    )
}

proptest! {
    /// The plain rules fail to be confluent only where constants
    /// conflict: on a weakly satisfiable instance every rule order
    /// reaches the extended chase's closure — the identity `Database`
    /// relies on when a write's weak check also supplies its internal
    /// acquisition. Checked in the given FD order and a permuted one,
    /// on instances with cross-column marks.
    #[test]
    fn plain_chase_reaches_the_extended_closure_when_weakly_satisfiable(
        w in arb_marked_satisfiable(),
        rot in 1usize..4,
    ) {
        prop_assert!(!order_replay_exact(&w.instance), "?z spans two columns");
        prop_assume!(weakly_satisfiable_via_chase(&w.fds, &w.instance));
        let closure = extended_chase(&w.instance, &w.fds).instance;
        let mut order: Vec<usize> = (0..w.fds.len()).collect();
        order.rotate_left(rot % w.fds.len());
        for fds in [w.fds.clone(), w.fds.permuted(&order)] {
            prop_assert_eq!(
                chase_plain(&w.instance, &fds).instance.canonical_form(),
                closure.canonical_form(),
                "plain chase and closure diverge on\n{}\nfds:\n{}",
                w.instance.render(true),
                fds.render(&w.schema)
            );
        }
    }

    /// The worklist chase and the naive pair-scan chase are the same
    /// function: identical chased instance (constants and NEC partition
    /// up to representative choice — that is what `canonical_form`
    /// quotients by), identical event and pass counts, and a result
    /// both minimality oracles accept.
    #[test]
    fn worklist_chase_equals_naive_chase(w in arb_workload()) {
        // The exactness claim below is only made where
        // `order_replay_exact` holds — which the generators promise.
        prop_assert!(order_replay_exact(&w.instance));
        let naive = chase_naive(&w.instance, &w.fds);
        let indexed = chase_plain(&w.instance, &w.fds);
        prop_assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "chase results diverge on\n{}\nfds:\n{}",
            w.instance.render(true),
            w.fds.render(&w.schema)
        );
        // Full event-list equality (sites, classes, donors): workloads
        // use singleton dependents and no `nothing` values, the regime
        // where the engines replay each other exactly.
        prop_assert_eq!(&naive.events, &indexed.events);
        prop_assert_eq!(naive.passes, indexed.passes);
        prop_assert!(is_minimally_incomplete(&indexed.instance, &w.fds));
        prop_assert!(is_minimally_incomplete_naive(&indexed.instance, &w.fds));
        prop_assert_eq!(
            indexed.instance.necs().merge_count(),
            naive.instance.necs().merge_count(),
            "NEC merge counts diverge"
        );
    }

    /// FD order is rule order (the plain system is order-dependent), so
    /// the engines must agree under every permutation, not just the
    /// given one.
    #[test]
    fn engines_agree_under_fd_permutations(w in arb_workload(), rot in 0usize..6) {
        let k = w.fds.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.rotate_left(rot % k.max(1));
        if rot % 2 == 1 {
            order.reverse();
        }
        let fds = w.fds.permuted(&order);
        let naive = chase_naive(&w.instance, &fds);
        let indexed = chase_plain(&w.instance, &fds);
        prop_assert_eq!(
            naive.instance.canonical_form(),
            indexed.instance.canonical_form(),
            "order {:?} diverges on\n{}",
            order,
            w.instance.render(true)
        );
        prop_assert_eq!(naive.events.len(), indexed.events.len());
    }

    /// The minimality oracles agree on arbitrary (un-chased) instances,
    /// not only on fixpoints.
    #[test]
    fn minimality_oracles_agree(w in arb_workload()) {
        prop_assert_eq!(
            is_minimally_incomplete(&w.instance, &w.fds),
            is_minimally_incomplete_naive(&w.instance, &w.fds),
        );
    }

    /// Group-indexed TEST-FDs is the pairwise oracle, under both
    /// conventions, violation or no violation — including on chased
    /// instances (shared NEC classes).
    #[test]
    fn indexed_testfds_agrees_with_pairwise(w in arb_workload()) {
        for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
            prop_assert_eq!(
                check(&w.instance, &w.fds, conv).is_ok(),
                testfd::check_pairwise(&w.instance, &w.fds, conv).is_ok(),
                "grouped vs pairwise ({conv:?}) on\n{}",
                w.instance.render(true)
            );
        }
        let chased = chase_plain(&w.instance, &w.fds).instance;
        for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
            prop_assert_eq!(
                check(&chased, &w.fds, conv).is_ok(),
                testfd::check_pairwise(&chased, &w.fds, conv).is_ok(),
                "grouped vs pairwise ({conv:?}) on chased instance"
            );
        }
    }

    /// The extended engines are the same function (Theorem 4(a)): the
    /// worklist engine reaches the identical least congruence as the
    /// naive pairwise oracle — same partition, same `nothing` classes,
    /// and same union count (every rule order performs exactly
    /// initial-classes − final-classes unions).
    #[test]
    fn worklist_engine_equals_naive_oracle(w in arb_workload()) {
        let naive = extended_chase_naive(&w.instance, &w.fds);
        let fast = extended_chase(&w.instance, &w.fds);
        prop_assert_eq!(
            naive.instance.canonical_form(),
            fast.instance.canonical_form(),
            "schedulers diverge on\n{}\nfds:\n{}",
            w.instance.render(true),
            w.fds.render(&w.schema)
        );
        prop_assert_eq!(naive.nothing_classes, fast.nothing_classes);
        prop_assert_eq!(naive.unions, fast.unions, "union counts are order-invariant");
    }

    /// No plain NS-rule applies to a strongly satisfied instance — the
    /// reason `Database` runs no acquisition under strong enforcement.
    /// Each adversarial instance (nulls on determinants, `nothing`
    /// cells, cross-column classes) sheds the higher row of its strong
    /// witness until it is strongly satisfied.
    #[test]
    fn strongly_satisfied_instances_are_minimally_incomplete(w in arb_adversarial()) {
        let mut r = w.instance.clone();
        while let Err(v) = testfd::check_strong(&r, &w.fds) {
            r.remove_row(v.rows.1);
        }
        prop_assert!(is_minimally_incomplete(&r, &w.fds), "on\n{}", r.render(true));
        prop_assert!(is_minimally_incomplete_naive(&r, &w.fds));
    }

    /// Satisfiable large-ish workloads stay weakly satisfiable through
    /// the indexed pipeline (chase + grouped weak check), and the
    /// indexed chase resolves them without leaving applicable rules.
    #[test]
    fn satisfiable_workloads_survive_the_indexed_pipeline(
        seed in 0u64..1 << 16,
        nd in 0usize..4,
        necd in 0usize..4,
    ) {
        let w = large_workload(seed, 96, DENSITIES[nd], DENSITIES[necd], 3);
        prop_assert!(testfd::check_weak(&w.instance, &w.fds).is_ok());
        let chased = chase_plain(&w.instance, &w.fds);
        prop_assert!(is_minimally_incomplete_naive(&chased.instance, &w.fds));
    }

    /// On the adversarial instances the indexed chase still reaches a
    /// fixpoint, and it replays the naive engine exactly wherever
    /// `order_replay_exact` holds.
    #[test]
    fn indexed_chase_matches_naive_chase_on_adversarial_instances(w in arb_adversarial()) {
        assert_plain_chase_matches_oracle(&w.instance, &w.fds);
    }

    /// `testfd::check` and `check_pairwise` return one bit-identical
    /// `Result` — the least violating pair of the lowest
    /// violated FD — under both conventions, and a reported violation
    /// is genuine under the pairwise predicate. The adversarial
    /// instances cover `nothing`-bearing buckets, planted violations
    /// (so witness equality is exercised on violating instances, not
    /// just where witnesses happen to coincide), and the
    /// strong-null-determinant fallback.
    #[test]
    fn testfd_witnesses_are_canonical_and_genuine(w in arb_adversarial()) {
        for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
            let pairwise = testfd::check_pairwise(&w.instance, &w.fds, conv);
            let grouped = check(&w.instance, &w.fds, conv);
            prop_assert_eq!(
                pairwise, grouped,
                "check under {:?} on\n{}", conv, w.instance.render(true)
            );
            if let Err(v) = grouped {
                let fd = w.fds.fds()[v.fd_index];
                prop_assert!(
                    testfd::pair_violates(&w.instance, fd, v.rows.0, v.rows.1, conv),
                    "reported violation {} is not genuine under {:?}",
                    v,
                    conv
                );
            }
        }
    }

    /// Compiled selection equals the interpreted `select` exactly (the
    /// same rows in the same order in both answer sets) on null-free,
    /// null-bearing, NEC-sharing and `nothing`-bearing rows: for the
    /// scaling query, and for an attribute comparison across two
    /// columns, which exercises multi-class signatures.
    #[test]
    fn compiled_select_matches_select_on_adversarial_instances(w in arb_adversarial()) {
        let r = &w.instance;
        let q = scaling_query(r);
        prop_assert_eq!(query::select(&q, r).expect("finite"), compiled_select(&q, r));
        let schema = r.schema();
        let q2 = Query::eq_attrs(r, schema.attr_name(AttrId(0)), schema.attr_name(AttrId(1)))
            .expect("attrs exist");
        prop_assert_eq!(query::select(&q2, r).expect("finite"), compiled_select(&q2, r), "eq_attrs");
    }

    /// `extended_chase` equals the naive oracle across the adversarial
    /// regimes (cross-column NEC classes, preexisting `nothing` cells,
    /// planted conflicts), and the no-materialize weak-satisfiability
    /// check reads the same verdict (Theorem 4(b)).
    #[test]
    fn extended_chase_matches_naive_oracle_on_adversarial_instances(w in arb_adversarial()) {
        assert_extended_matches_oracle(&w.instance, &w.fds);
        prop_assert_eq!(
            weakly_satisfiable_via_chase(&w.fds, &w.instance),
            extended_chase_naive(&w.instance, &w.fds).nothing_classes == 0
        );
    }

    /// The extended chase (the naive oracle and the worklist engine) is
    /// invariant under delete-then-`compact()`: tombstoning rows and
    /// densifying the arena afterwards must not change the outcome on
    /// the surviving rows — canonical instance, `nothing` classes, and
    /// union count all agree between the tombstoned instance and its
    /// compacted twin.
    #[test]
    fn extended_chase_is_invariant_under_delete_then_compact(
        w in arb_adversarial(),
        delete_mask in 0u64..u64::MAX,
    ) {
        let mut tombstoned = w.instance.clone();
        let rows: Vec<RowId> = tombstoned.row_ids().collect();
        for (i, &row) in rows.iter().enumerate() {
            // keep at least two rows so FDs still have pairs to fire on
            if delete_mask & (1 << (i % 64)) != 0 && tombstoned.len() > 2 {
                tombstoned.remove_row(row);
            }
        }
        let mut compacted = tombstoned.clone();
        compacted.compact();
        prop_assert_eq!(compacted.slot_bound(), compacted.len());
        let a = extended_chase_naive(&tombstoned, &w.fds);
        let b = extended_chase_naive(&compacted, &w.fds);
        prop_assert_eq!(
            a.instance.canonical_form(),
            b.instance.canonical_form(),
            "naive oracle diverges under compact() on\n{}",
            tombstoned.render(true)
        );
        prop_assert_eq!(a.nothing_classes, b.nothing_classes);
        prop_assert_eq!(a.unions, b.unions);
        assert_extended_matches_oracle(&tombstoned, &w.fds);
        assert_extended_matches_oracle(&compacted, &w.fds);
    }
}

/// A deterministic, non-proptest sweep across the density grid at a
/// row count above the proptest range — cheap insurance that the
/// properties above also hold on larger, denser instances.
#[test]
fn dense_grid_at_65_rows() {
    for seed in 0..8u64 {
        for &nd in &DENSITIES[1..] {
            let spec = WorkloadSpec {
                rows: 65,
                attrs: 4,
                domain: 8,
                null_density: nd,
                nec_density: 0.4,
                collision_rate: 0.7,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let fds = random_fds(&mut rng, spec.attrs, 3);
            let w = workload(seed.wrapping_mul(31), &spec, 3);
            let naive = chase_naive(&w.instance, &w.fds);
            let indexed = chase_plain(&w.instance, &w.fds);
            assert_eq!(
                naive.instance.canonical_form(),
                indexed.instance.canonical_form(),
                "seed {seed} nd {nd}"
            );
            for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
                assert_eq!(
                    check(&w.instance, &fds, conv).is_ok(),
                    testfd::check_pairwise(&w.instance, &fds, conv).is_ok(),
                    "seed {seed} nd {nd} {conv:?}"
                );
            }
        }
    }
}

/// A heavily tombstoned arena (interior tombstones, nearly empty
/// leading slot ranges): every engine still equals its oracle.
#[test]
fn engines_survive_tombstone_heavy_arenas() {
    let w = tombstone_heavy_workload();
    assert_plain_chase_matches_oracle(&w.instance, &w.fds);
    assert_extended_matches_oracle(&w.instance, &w.fds);
    for conv in [SemanticsKind::Strong, SemanticsKind::Weak] {
        assert_eq!(
            testfd::check_pairwise(&w.instance, &w.fds, conv),
            check(&w.instance, &w.fds, conv),
            "{conv:?}"
        );
    }
    let q = scaling_query(&w.instance);
    assert_eq!(
        query::select(&q, &w.instance).unwrap(),
        compiled_select(&q, &w.instance)
    );
}

/// Live rows above a large tombstone gap (`slot_bound() >> len()`): the
/// extended chase's per-slot side tables are sized by the slot bound,
/// and the leading slots are entirely dead — the worklist engine and
/// the naive oracle must still agree, with the planted conflict among
/// the survivors detected.
#[test]
fn extended_chase_handles_live_rows_above_large_tombstone_gaps() {
    let spec = WorkloadSpec {
        rows: 120,
        attrs: 4,
        domain: 8,
        null_density: 0.25,
        nec_density: 0.4,
        collision_rate: 0.6,
    };
    let mut w = workload(31, &spec, 3);
    let mut rng = StdRng::seed_from_u64(31);
    // tombstone everything except the last 6 slots, then plant the
    // conflict among the survivors so it is guaranteed live
    let rows: Vec<RowId> = w.instance.row_ids().collect();
    for &row in &rows[..rows.len() - 6] {
        w.instance.remove_row(row);
    }
    plant_violation(&mut rng, &mut w.instance, &w.fds);
    assert!(
        w.instance.slot_bound() >= w.instance.len() * 10,
        "gap regime: slot_bound {} vs len {}",
        w.instance.slot_bound(),
        w.instance.len()
    );
    assert!(
        extended_chase_naive(&w.instance, &w.fds).nothing_classes > 0,
        "planted conflict must be found"
    );
    assert_extended_matches_oracle(&w.instance, &w.fds);
}

/// `extended_chase` on the scale generator built for it: cross-column
/// NEC classes and planted conflicts at n = 300, against the naive
/// oracle.
#[test]
fn extended_chase_matches_naive_oracle_on_extended_workloads() {
    for (seed, conflicts) in [(3u64, 0usize), (4, 4)] {
        let w = fdi_gen::extended_workload(seed, 300, 4, 8, conflicts);
        if conflicts > 0 {
            assert!(
                !weakly_satisfiable_via_chase(&w.fds, &w.instance),
                "seed {seed}: conflicts must bite"
            );
        }
        assert_extended_matches_oracle(&w.instance, &w.fds);
    }
}

/// A marked null reused across columns *in the text format* (the way a
/// user would write a cross-column class) — the regression shape for
/// the chase's mid-sweep re-keying: the plain chase still reaches a
/// fixpoint, and the extended chase still equals its oracle.
#[test]
fn cross_column_marks_reach_a_fixpoint() {
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
    assert!(!order_replay_exact(&r));
    assert_plain_chase_matches_oracle(&r, &fds);
    assert_extended_matches_oracle(&r, &fds);
}

/// Strong-convention TEST-FDs on an instance whose *every* determinant
/// carries a null: the whole check runs through the pairwise fallback,
/// which must report the pairwise scan's canonical witness.
#[test]
fn pairwise_fallback_reports_the_canonical_witness() {
    let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
    let r = fdi_relation::Instance::parse(
        schema.clone(),
        "-   B_0 C_0
         A_0 -   C_1
         -   B_1 C_0
         A_1 B_0 -
         A_0 B_1 C_1",
    )
    .unwrap();
    for fd_text in ["A -> B", "B -> C", "A B -> C", "C -> A"] {
        let fds = FdSet::parse(&schema, fd_text).unwrap();
        let oracle = testfd::check_pairwise(&r, &fds, SemanticsKind::Strong);
        let grouped = check(&r, &fds, SemanticsKind::Strong);
        assert_eq!(oracle, grouped, "{fd_text}");
        if let Err(v) = grouped {
            assert!(testfd::pair_violates(
                &r,
                fds.fds()[v.fd_index],
                v.rows.0,
                v.rows.1,
                SemanticsKind::Strong
            ));
        }
    }
}
