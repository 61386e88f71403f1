//! Equivalence properties for the indexed engines: the worklist chase
//! must reproduce the naive pair-scan chase exactly (same promoted
//! constants, same NEC partition up to representative choice, same
//! event and pass counts), and group-indexed TEST-FDs must agree with
//! the pairwise oracle under both conventions.
//!
//! Instances come from the `fdi-gen` workload generators (column-local
//! NEC classes — the regime where the engines are order-identical; see
//! `fdi_core::chase::index`) across a grid of null/NEC densities,
//! including adversarial planted violations.

use fdi_core::chase::{
    chase_naive, chase_plain, extended_chase, extended_chase_naive, is_minimally_incomplete,
    is_minimally_incomplete_naive, order_replay_exact,
};
use fdi_core::fd::FdSet;
use fdi_core::testfd::{self, Convention, Violation};
use fdi_exec::Executor;
use fdi_gen::{large_workload, plant_violation, random_fds, workload, Workload, WorkloadSpec};
use fdi_obs::Recorder;
use fdi_relation::Instance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.6];

fn check(r: &Instance, fds: &FdSet, conv: Convention) -> Result<(), Violation> {
    testfd::check(r, fds, conv, &Executor::with_threads(1), &Recorder::noop())
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..40, 0usize..4, 0usize..4, 0usize..3).prop_map(|(rows, nd, necd, coll)| WorkloadSpec {
        rows,
        attrs: 4,
        domain: 6, // small domains force collisions, nulls, and cascades
        null_density: DENSITIES[nd],
        nec_density: DENSITIES[necd],
        collision_rate: [0.2, 0.5, 0.9][coll],
    })
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

proptest! {
    /// The worklist chase and the naive pair-scan chase are the same
    /// function: identical chased instance (constants and NEC partition
    /// up to representative choice — that is what `canonical_form`
    /// quotients by), identical event and pass counts, and a result
    /// both minimality oracles accept.
    #[test]
    fn worklist_chase_equals_naive_chase(w in arb_workload()) {
        // The exactness claim below is only made on caveat-free
        // instances — which the generators promise to produce.
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
        for conv in [Convention::Strong, Convention::Weak] {
            prop_assert_eq!(
                check(&w.instance, &w.fds, conv).is_ok(),
                testfd::check_pairwise(&w.instance, &w.fds, conv).is_ok(),
                "grouped vs pairwise ({conv:?}) on\n{}",
                w.instance.render(true)
            );
        }
        let chased = chase_plain(&w.instance, &w.fds).instance;
        for conv in [Convention::Strong, Convention::Weak] {
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
        let fast = extended_chase(&w.instance, &w.fds, &Executor::with_threads(1), &Recorder::noop());
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
            for conv in [Convention::Strong, Convention::Weak] {
                assert_eq!(
                    check(&w.instance, &fds, conv).is_ok(),
                    testfd::check_pairwise(&w.instance, &fds, conv).is_ok(),
                    "seed {seed} nd {nd} {conv:?}"
                );
            }
        }
    }
}
