//! End-to-end reproduction of every worked figure in the paper
//! (experiments E1–E3, E7, E8 of `fdi_bench::experiments`, as
//! assertions).

use fd_incomplete::core::fixtures;
use fd_incomplete::core::interp::{self, DEFAULT_BUDGET};
use fd_incomplete::core::prop1::{self, RuleTag};
use fd_incomplete::core::{chase, satisfy, testfd};
use fd_incomplete::prelude::*;

#[test]
fn e1_figure_1_2_both_dependencies_hold() {
    let r = fixtures::figure1_instance();
    let fds = fixtures::figure1_fds();
    assert!(r.is_complete());
    assert!(interp::all_hold_classical(&fds, &r.tuples_vec()));
    assert!(testfd::check_strong(&r, &fds).is_ok());
    assert!(testfd::check_weak(&r, &fds).is_ok());
    // "It is trivial to verify that E# → SL,D# and D# → CT hold" — and
    // the three-valued machinery agrees with the classical one.
    let report = satisfy::report(&fds, &r, DEFAULT_BUDGET).unwrap();
    assert!(report.table.iter().flatten().all(|t| t.is_true()));
}

#[test]
fn e2_figure_1_3_null_instance_verdicts() {
    let r = fixtures::figure1_null_instance();
    let fds = fixtures::figure1_fds();
    let report = satisfy::report(&fds, &r, DEFAULT_BUDGET).unwrap();
    // f1 — every E# unique: strongly holds even with the SL-null ([T2]).
    assert!(report.strong_per_fd[0]);
    // f2 — the D#-null may collide: not strong, but weakly held.
    assert!(!report.strong_per_fd[1]);
    assert!(report.weak_per_fd[1]);
    // Set-level: weakly satisfiable, not strongly satisfied.
    assert!(!report.strong);
    assert!(report.weak);
}

#[test]
fn e3_figure_2_classification_table() {
    // The table the paper prints under Figure 2, with rule tags.
    let expected = [
        (RuleTag::T2, Truth::True),
        (RuleTag::T3, Truth::True),
        (RuleTag::T3, Truth::True),
        (RuleTag::F2, Truth::False),
    ];
    for (i, (r, paper_truth)) in fixtures::figure2_all().into_iter().enumerate() {
        let fd = fixtures::figure2_fd(&r);
        let outcome = prop1::proposition1(fd, r.nth_row(0), &r).unwrap();
        assert_eq!(outcome.rule, expected[i].0, "r{} rule", i + 1);
        assert_eq!(outcome.verdict, expected[i].1, "r{} verdict", i + 1);
        assert_eq!(outcome.verdict, paper_truth);
        // the classification equals the least-extension ground truth
        let ground = interp::eval_least_extension(fd, r.nth_row(0), &r, DEFAULT_BUDGET).unwrap();
        assert_eq!(ground, paper_truth, "r{} ground truth", i + 1);
    }
}

#[test]
fn e4_two_tuple_observations() {
    // Strong satisfiability is decidable two-tuple-locally; weak is not:
    // r4 is the paper's counterexample.
    let r4 = fixtures::figure2_r4();
    let f = FdSet::from_vec(vec![fixtures::figure2_fd(&r4)]);
    // every 2-tuple subrelation: weakly satisfiable
    for skip in 0..r4.len() {
        let mut sub = Instance::new(r4.schema().clone());
        for (i, t) in r4.tuples().enumerate() {
            if i != skip {
                sub.add_tuple(t.clone()).unwrap();
            }
        }
        assert!(
            interp::weakly_satisfiable_bruteforce(&f, &sub, DEFAULT_BUDGET).unwrap(),
            "subrelation without t{}",
            skip + 1
        );
    }
    // the full relation is not
    assert!(!interp::weakly_satisfiable_bruteforce(&f, &r4, DEFAULT_BUDGET).unwrap());

    // Strong locality: on a spread of instances, strong satisfiability
    // equals strong satisfiability of every 2-tuple subrelation.
    let samples = [
        fixtures::figure2_r1(),
        fixtures::figure2_r2(),
        fixtures::figure2_r3(),
        fixtures::figure2_r4(),
        fixtures::figure1_null_instance(),
    ];
    for r in samples {
        let schema = r.schema().clone();
        let fds = if schema.arity() == 3 {
            FdSet::parse(&schema, "A B -> C").unwrap()
        } else {
            fixtures::figure1_fds()
        };
        let whole = testfd::check_strong(&r, &fds).is_ok();
        let mut all_pairs = true;
        let rows: Vec<_> = r.row_ids().collect();
        for (p, &i) in rows.iter().enumerate() {
            for &j in &rows[(p + 1)..] {
                let mut sub = Instance::new(schema.clone());
                sub.add_tuple(r.tuple(i).clone()).unwrap();
                sub.add_tuple(r.tuple(j).clone()).unwrap();
                all_pairs &= testfd::check_strong(&sub, &fds).is_ok();
            }
        }
        assert_eq!(whole, all_pairs, "strong two-tuple locality");
    }
}

#[test]
fn e7_section6_interaction() {
    let r = fixtures::section6_instance();
    let fds = fixtures::section6_fds();
    // individually weak, jointly unsatisfiable
    assert!(interp::weakly_holds_each_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
    assert!(!interp::weakly_satisfiable_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
    // both fast pipelines see it
    assert!(testfd::check_weak(&r, &fds).is_err());
    assert!(!chase::weakly_satisfiable_via_chase(&fds, &r));
}

#[test]
fn e8_figure5_nonconfluence_and_theorem4() {
    let r = fixtures::figure5_instance();
    let fds = fixtures::figure5_fds();

    // plain rules: two different minimally incomplete states
    let forward = chase::chase_plain(&r, &fds);
    let backward = chase::chase_plain(&r, &fds.permuted(&[1, 0]));
    assert!(chase::is_minimally_incomplete(&forward.instance, &fds));
    assert!(chase::is_minimally_incomplete(&backward.instance, &fds));
    assert_ne!(
        forward.instance.canonical_form(),
        backward.instance.canonical_form()
    );

    // extended rules: unique result, B column all nothing
    let e1 = chase::extended_chase(&r, &fds);
    let e2 = chase::extended_chase_naive(&r, &fds.permuted(&[1, 0]));
    assert_eq!(e1.instance.canonical_form(), e2.instance.canonical_form());
    let b = AttrId(1);
    for row in r.row_ids() {
        assert!(e1.instance.value(row, b).is_nothing());
    }
    // Theorem 4(b): nothing present ⟺ not weakly satisfiable
    assert!(!chase::weakly_satisfiable_via_chase(&fds, &r));
    assert!(!interp::weakly_satisfiable_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
}
