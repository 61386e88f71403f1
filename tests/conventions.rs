//! The null-comparison conventions of Theorems 2 and 3, pinned down
//! pair-by-pair: for every combination of value kinds on a shared
//! determinant, the TEST-FDs verdicts must match the table derived from
//! the paper's wording, and (where the ground truth is computable) the
//! semantics.

use fd_incomplete::core::interp::{
    strongly_satisfied_bruteforce, weakly_satisfiable_bruteforce, DEFAULT_BUDGET,
};
use fd_incomplete::core::testfd;
use fd_incomplete::gen::{disagreement_workload, workload, Workload, WorkloadSpec};
use fd_incomplete::prelude::*;
use std::sync::Arc;

/// TEST-FDs, unrecorded.
fn check(w: &Workload, sem: SemanticsKind) -> Result<(), testfd::Violation> {
    testfd::check(&w.instance, &w.fds, sem, &Recorder::noop())
}

fn schema() -> Arc<Schema> {
    Schema::builder("R")
        .attribute("A", ["a0", "a1", "a2", "a3"])
        .attribute("B", ["b0", "b1", "b2", "b3"])
        .build()
        .unwrap()
}

/// Builds the two-row instance (`a0 <y1>` / `<x2> <y2>`) and returns the
/// strong/weak verdicts of `A -> B` from TEST-FDs and from brute force.
fn verdicts(x2: &str, y1: &str, y2: &str) -> (bool, bool, bool, bool) {
    let text = format!("a0 {y1}\n{x2} {y2}");
    let r = Instance::parse(schema(), &text).unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    let strong_fast = testfd::check_strong(&r, &fds).is_ok();
    let weak_fast = testfd::check_weak(&r, &fds).is_ok();
    let strong_truth = strongly_satisfied_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap();
    let weak_truth = weakly_satisfiable_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap();
    (strong_fast, weak_fast, strong_truth, weak_truth)
}

#[test]
fn convention_table_for_shared_determinant() {
    // rows: (x2, y1, y2, strong expected, weak expected)
    // X-side: "a0" = matching constant, "a1" = different constant,
    // "-" = null (potential match under the strong convention only).
    // NEC-equal nulls use a shared mark "?m".
    let cases: &[(&str, &str, &str, bool, bool)] = &[
        // definite X match, definite Y
        ("a0", "b0", "b0", true, true),
        ("a0", "b0", "b1", false, false),
        // definite X mismatch: anything goes
        ("a1", "b0", "b1", true, true),
        ("a1", "-", "b1", true, true),
        // X match, one Y null: could disagree → not strong; weakly fine
        ("a0", "-", "b0", false, true),
        ("a0", "b0", "-", false, true),
        // X match, two independent Y nulls: same
        ("a0", "-", "-", false, true),
        // X match, NEC-equal Y nulls: always equal → strong
        ("a0", "?m", "?m", true, true),
        // null on X vs constant: potential match; Y constants differ
        ("-", "b0", "b1", false, true),
        // null on X, Y constants equal: even a match satisfies
        ("-", "b0", "b0", true, true),
        // null on X, one Y null
        ("-", "b0", "-", false, true),
    ];
    for (x2, y1, y2, strong_expected, weak_expected) in cases {
        let (strong_fast, weak_fast, strong_truth, weak_truth) = verdicts(x2, y1, y2);
        assert_eq!(
            strong_fast, *strong_expected,
            "strong TEST-FDs on (a0 {y1} / {x2} {y2})"
        );
        assert_eq!(
            weak_fast, *weak_expected,
            "weak pipeline on (a0 {y1} / {x2} {y2})"
        );
        assert_eq!(
            strong_truth, *strong_expected,
            "strong ground truth on (a0 {y1} / {x2} {y2})"
        );
        assert_eq!(
            weak_truth, *weak_expected,
            "weak ground truth on (a0 {y1} / {x2} {y2})"
        );
    }
}

#[test]
fn strong_equality_is_not_transitive_but_the_fallback_handles_it() {
    // a null X between two distinct constants: the null potentially
    // matches both, the constants never match each other. A sorted
    // grouping would have to place the null with one of them; the
    // pairwise fallback examines all pairs.
    let r = Instance::parse(schema(), "a0 b0\n- b1\na1 b2").unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    // the null row conflicts with both constant rows under strong
    assert!(testfd::check_strong(&r, &fds).is_err());
    assert!(!strongly_satisfied_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
    // weakly fine: complete the null to a2
    assert!(testfd::check_weak(&r, &fds).is_ok());
    assert!(weakly_satisfiable_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
}

#[test]
fn three_way_nec_chains_compare_equal_everywhere() {
    // ?m in three rows: one class; all conventions treat them equal.
    let r = Instance::parse(schema(), "a0 ?m\na0 ?m\na0 ?m").unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    assert!(testfd::check_strong(&r, &fds).is_ok());
    assert!(testfd::check_weak(&r, &fds).is_ok());
    assert!(strongly_satisfied_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
}

#[test]
fn mixed_marks_and_constants_in_one_group() {
    // group of a0: {?m, ?m, b0}. Strong: the class could differ from b0
    // → not strong; the chase substitutes b0 into the class → weak ok.
    let r = Instance::parse(schema(), "a0 ?m\na0 ?m\na0 b0").unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    assert!(testfd::check_strong(&r, &fds).is_err());
    assert!(testfd::check_weak(&r, &fds).is_ok());
    // and the chase indeed writes b0 into both marked cells
    let chased = fd_incomplete::core::chase::chase_plain(&r, &fds);
    for row in 0..2 {
        assert_eq!(
            chased
                .instance
                .value(chased.instance.nth_row(row), AttrId(1))
                .render(chased.instance.symbols(), false),
            "b0"
        );
    }
}

// ---------------------------------------------------------------------
// Differential suites across the full semantics lattice (strong ⊨ ⇒
// null-marker ⊨ ⇒ weak ⊨ ⇒ nfd ⊨ — see `fdi_core::semantics`).
// ---------------------------------------------------------------------

fn diff_spec() -> WorkloadSpec {
    WorkloadSpec {
        rows: 28,
        null_density: 0.25,
        nec_density: 0.3,
        ..WorkloadSpec::default()
    }
}

/// Every convention's violation set contains the next one's, so an `Ok`
/// verdict propagates down the lattice on arbitrary instances.
#[test]
fn verdicts_respect_the_semantics_lattice_on_random_workloads() {
    for seed in 0..32u64 {
        let w = workload(seed, &diff_spec(), 3);
        let mut prev: Option<(SemanticsKind, bool)> = None;
        for kind in SemanticsKind::ALL {
            let ok = check(&w, kind).is_ok();
            if let Some((prev_kind, prev_ok)) = prev {
                assert!(
                    !prev_ok || ok,
                    "seed {seed}: {prev_kind} satisfied but {kind} violated — lattice broken"
                );
            }
            prev = Some((kind, ok));
        }
    }
}

/// Every reported witness is a genuine violating pair under its own
/// semantics, checkable from first principles via
/// [`testfd::pair_violates`].
#[test]
fn err_witnesses_are_real_violations_under_their_own_semantics() {
    for seed in 0..32u64 {
        let w = workload(seed, &diff_spec(), 3);
        for kind in SemanticsKind::ALL {
            if let Err(v) = check(&w, kind) {
                let fd = w.fds.fds()[v.fd_index];
                assert!(
                    testfd::pair_violates(&w.instance, fd, v.rows.0, v.rows.1, kind),
                    "seed {seed}: {kind} witness {v} does not violate"
                );
            }
        }
    }
}

/// Four consecutive seeds of the planted generator exhibit, for every
/// unordered pair of conventions, at least one instance where they
/// agree and at least one where they disagree.
#[test]
fn disagreement_generator_covers_every_convention_pair() {
    let mut agree = std::collections::HashSet::new();
    let mut disagree = std::collections::HashSet::new();
    for seed in 0..4u64 {
        let w = disagreement_workload(seed);
        let verdicts: Vec<bool> = SemanticsKind::ALL
            .iter()
            .map(|&k| check(&w, k).is_ok())
            .collect();
        for i in 0..verdicts.len() {
            for j in i + 1..verdicts.len() {
                if verdicts[i] == verdicts[j] {
                    agree.insert((i, j));
                } else {
                    disagree.insert((i, j));
                }
            }
        }
    }
    for i in 0..SemanticsKind::ALL.len() {
        for j in i + 1..SemanticsKind::ALL.len() {
            let pair = (SemanticsKind::ALL[i], SemanticsKind::ALL[j]);
            assert!(agree.contains(&(i, j)), "no agreeing seed for {pair:?}");
            assert!(
                disagree.contains(&(i, j)),
                "no disagreeing seed for {pair:?}"
            );
        }
    }
}

/// On complete instances every convention degenerates to the classical
/// FD test: identical verdicts and identical canonical witnesses.
#[test]
fn complete_instances_collapse_every_convention_to_one_verdict() {
    for seed in 0..16u64 {
        let spec = WorkloadSpec {
            rows: 24,
            null_density: 0.0,
            collision_rate: 0.5,
            ..WorkloadSpec::default()
        };
        let w = workload(seed, &spec, 3);
        let base = check(&w, SemanticsKind::Strong);
        for kind in SemanticsKind::ALL {
            assert_eq!(
                check(&w, kind),
                base,
                "seed {seed}: {kind} diverges on a complete instance"
            );
        }
    }
}

/// The grouped engine and the pairwise oracle return bit-identical
/// results — verdicts and canonical least-pair witnesses — under every
/// registered convention.
#[test]
fn grouped_and_pairwise_witnesses_are_bit_identical() {
    for seed in 0..16u64 {
        let w = workload(seed, &diff_spec(), 3);
        for kind in SemanticsKind::ALL {
            assert_eq!(
                check(&w, kind),
                testfd::check_pairwise(&w.instance, &w.fds, kind),
                "seed {seed}: {kind}"
            );
        }
    }
}
