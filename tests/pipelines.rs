//! Cross-crate pipeline tests on generated workloads: the fast
//! satisfiability procedures against the brute-force ground truth, and
//! the chase engines against each other, at sizes the enumeration can
//! still certify.

use fd_incomplete::core::interp::{self};
use fd_incomplete::core::{chase, subst, testfd};
use fd_incomplete::gen::{
    plant_violation, random_fds, satisfiable_instance, workload, WorkloadSpec,
};
use fd_incomplete::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: u128 = 1 << 16;

fn certifiable(w: &fd_incomplete::gen::Workload) -> bool {
    fdi_relation::completion::CompletionSpace::for_instance(&w.instance, w.fds.attrs())
        .map(|s| s.count() <= BUDGET)
        .unwrap_or(false)
}

#[test]
fn strong_pipeline_matches_ground_truth_across_seeds() {
    let spec = WorkloadSpec {
        rows: 8,
        attrs: 4,
        domain: 8,
        null_density: 0.2,
        nec_density: 0.2,
        collision_rate: 0.4,
    };
    let mut checked = 0;
    for seed in 0..60 {
        let w = workload(seed, &spec, 3);
        if !certifiable(&w) {
            continue;
        }
        checked += 1;
        let truth = interp::strongly_satisfied_bruteforce(&w.fds, &w.instance, BUDGET).unwrap();
        assert_eq!(
            testfd::check_strong(&w.instance, &w.fds).is_ok(),
            truth,
            "seed {seed}"
        );
    }
    assert!(checked >= 20, "only {checked} seeds were certifiable");
}

#[test]
fn weak_pipelines_match_ground_truth_across_seeds() {
    let spec = WorkloadSpec {
        rows: 8,
        attrs: 4,
        domain: 8,
        null_density: 0.2,
        nec_density: 0.2,
        collision_rate: 0.4,
    };
    let mut checked = 0;
    for seed in 0..60 {
        let w = workload(seed, &spec, 3);
        if !certifiable(&w) {
            continue;
        }
        // the pipelines are exact only under the large-domain proviso
        if !subst::detect_domain_exhaustion(&w.fds, &w.instance)
            .unwrap()
            .is_empty()
        {
            continue;
        }
        checked += 1;
        let truth = interp::weakly_satisfiable_bruteforce(&w.fds, &w.instance, BUDGET).unwrap();
        assert_eq!(
            chase::weakly_satisfiable_via_chase(&w.fds, &w.instance),
            truth,
            "Theorem 4 pipeline, seed {seed}"
        );
        assert_eq!(
            testfd::check_weak(&w.instance, &w.fds).is_ok(),
            truth,
            "Theorem 3 pipeline, seed {seed}"
        );
    }
    assert!(checked >= 20, "only {checked} seeds were certifiable");
}

#[test]
fn chase_schedulers_and_orders_agree_at_scale() {
    let spec = WorkloadSpec {
        rows: 40,
        attrs: 5,
        domain: 12,
        null_density: 0.25,
        nec_density: 0.3,
        collision_rate: 0.5,
    };
    let rec = Recorder::noop();
    for seed in 0..12 {
        let w = workload(seed, &spec, 4);
        let naive = chase::extended_chase_naive(&w.instance, &w.fds);
        let fast = chase::extended_chase(&w.instance, &w.fds, &rec);
        assert_eq!(
            fast.instance.canonical_form(),
            naive.instance.canonical_form(),
            "seed {seed}"
        );
        assert_eq!(fast.nothing_classes, naive.nothing_classes, "seed {seed}");
        assert_eq!(fast.unions, naive.unions, "seed {seed}");
        // permuted FD order
        let mut order: Vec<usize> = (0..w.fds.len()).collect();
        order.reverse();
        let permuted = chase::extended_chase(&w.instance, &w.fds.permuted(&order), &rec);
        assert_eq!(
            naive.instance.canonical_form(),
            permuted.instance.canonical_form(),
            "seed {seed} permuted"
        );
    }
}

#[test]
fn satisfiable_workloads_pass_and_planted_violations_fail() {
    let spec = WorkloadSpec {
        rows: 30,
        attrs: 4,
        domain: 10,
        null_density: 0.15,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let fds = random_fds(&mut rng, spec.attrs, 3);
        let clean = satisfiable_instance(&mut rng, &spec, &fds);
        assert!(
            chase::weakly_satisfiable_via_chase(&fds, &clean),
            "seed {seed}: satisfiable workload rejected"
        );
        let mut dirty = clean.clone();
        plant_violation(&mut rng, &mut dirty, &fds);
        assert!(
            testfd::check_strong(&dirty, &fds).is_err(),
            "seed {seed}: planted violation missed by the strong test"
        );
        assert!(
            !chase::weakly_satisfiable_via_chase(&fds, &dirty),
            "seed {seed}: planted constant-constant violation must kill weak satisfiability"
        );
    }
}

#[test]
fn plain_chase_reaches_fixpoints_that_extended_chase_refines() {
    let spec = WorkloadSpec {
        rows: 24,
        attrs: 4,
        domain: 10,
        null_density: 0.3,
        nec_density: 0.2,
        collision_rate: 0.5,
    };
    for seed in 0..12 {
        let w = workload(seed, &spec, 3);
        let plain = chase::chase_plain(&w.instance, &w.fds);
        assert!(chase::is_minimally_incomplete(&plain.instance, &w.fds));
        // the extended chase agrees wherever the plain chase resolved a
        // value (unless the cell was destroyed by an inconsistency)
        let extended = chase::extended_chase(&w.instance, &w.fds, &Recorder::noop());
        let all = w.instance.schema().all_attrs();
        for row in w.instance.row_ids() {
            for attr in all.iter() {
                let p = plain.instance.value(row, attr);
                let e = extended.instance.value(row, attr);
                if p.is_const() && !e.is_nothing() && w.instance.value(row, attr).is_null() {
                    assert_eq!(p, e, "seed {seed} row {row} attr {attr}");
                }
            }
        }
    }
}

#[test]
fn report_is_consistent_with_pipelines() {
    let spec = WorkloadSpec {
        rows: 6,
        attrs: 3,
        domain: 6,
        null_density: 0.25,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    for seed in 0..20 {
        let w = workload(seed, &spec, 2);
        if !certifiable(&w) {
            continue;
        }
        let report = fd_incomplete::core::satisfy::report(&w.fds, &w.instance, BUDGET).unwrap();
        assert_eq!(
            report.strong,
            testfd::check_strong(&w.instance, &w.fds).is_ok(),
            "seed {seed}"
        );
        assert_eq!(
            report.weak,
            chase::weakly_satisfiable_via_chase(&w.fds, &w.instance),
            "seed {seed}"
        );
        // strong ⊆ weak
        if report.strong {
            assert!(report.weak, "seed {seed}: strong implies weak");
        }
    }
}
