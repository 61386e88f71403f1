//! Cross-module property tests: the fast paths against the
//! least-extension ground truth, the chase pipelines against each other,
//! and the three implication engines against each other.

use fdi_core::armstrong;
use fdi_core::chase::{self, extended_chase, extended_chase_naive};
use fdi_core::equiv;
use fdi_core::fd::{Fd, FdSet};
use fdi_core::interp;
use fdi_core::normalize;
use fdi_core::prop1;
use fdi_core::query::{self, Query};
use fdi_core::semantics::SemanticsKind;
use fdi_core::testfd;
use fdi_core::Truth;
use fdi_logic::implication::{infers, Statement};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::instance::Instance;
use fdi_relation::lattice::instance_approximates;
use fdi_relation::schema::Schema;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::{NullId, Value};
use proptest::prelude::*;
use std::sync::Arc;

const ATTRS: usize = 3;
/// Domain size 6 with at most 4 rows keeps `[F2]` exhaustion out of
/// reach for single-attribute determinants, which is the large-domain
/// proviso the chase pipelines assume.
const DOM: usize = 6;
const BUDGET: u128 = 1 << 14;

fn schema() -> Arc<Schema> {
    Schema::uniform("R", &["A", "B", "C"], DOM).unwrap()
}

#[derive(Debug, Clone, Copy)]
enum CellPlan {
    Const(usize),
    Null(usize),
}

fn arb_cell() -> impl Strategy<Value = CellPlan> {
    prop_oneof![
        3 => (0..3usize).prop_map(CellPlan::Const), // constants from a small range: collisions likely
        1 => (0usize..4).prop_map(CellPlan::Null),
    ]
}

fn arb_rows() -> impl Strategy<Value = Vec<Vec<CellPlan>>> {
    proptest::collection::vec(proptest::collection::vec(arb_cell(), ATTRS), 1..5)
}

fn build_instance(rows: &[Vec<CellPlan>]) -> Instance {
    let schema = schema();
    let mut r = Instance::new(schema.clone());
    // Marks are column-local: a null is "one of the regular values in the
    // domain" of its attribute, so an NEC class spanning attributes with
    // disjoint domains (as the uniform schema's are) would denote an
    // impossible value — a degenerate case outside the paper's setting.
    let mut marks: Vec<Vec<Option<NullId>>> = vec![vec![None; 4]; ATTRS];
    for row in rows {
        let mut values = Vec::with_capacity(ATTRS);
        for (i, cell) in row.iter().enumerate() {
            let attr = AttrId(i as u16);
            match cell {
                CellPlan::Const(k) => {
                    let name = format!("{}_{k}", schema.attr_name(attr));
                    values.push(Value::Const(r.intern_constant(attr, &name).unwrap()));
                }
                CellPlan::Null(mark) => {
                    let id = *marks[i][*mark].get_or_insert_with(|| r.fresh_null());
                    values.push(Value::Null(id));
                }
            }
        }
        r.add_tuple(Tuple::new(values)).unwrap();
    }
    r
}

fn arb_attrset() -> impl Strategy<Value = AttrSet> {
    (1u64..(1 << ATTRS)).prop_map(AttrSet)
}

fn arb_fd() -> impl Strategy<Value = Fd> {
    (arb_attrset(), arb_attrset())
        .prop_filter("non-trivial", |(l, r)| !r.is_subset(*l))
        .prop_map(|(l, r)| Fd::new(l, r).normalized())
}

fn arb_fdset() -> impl Strategy<Value = FdSet> {
    proptest::collection::vec(arb_fd(), 1..4).prop_map(FdSet::from_vec)
}

fn completions_in_budget(r: &Instance, scope: AttrSet) -> bool {
    fdi_relation::completion::CompletionSpace::for_instance(r, scope)
        .map(|s| s.count() <= BUDGET)
        .unwrap_or(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Proposition 1's evaluator always information-approximates the
    /// least-extension ground truth: a definite verdict is correct, and
    /// `unknown` may stand for anything.
    #[test]
    fn prop1_approximates_ground_truth(rows in arb_rows(), fd in arb_fd()) {
        let r = build_instance(&rows);
        prop_assume!(completions_in_budget(&r, fd.attrs()));
        for row in r.row_ids() {
            let fast = prop1::evaluate(fd, row, &r, BUDGET).unwrap();
            let truth = interp::eval_least_extension(fd, row, &r, BUDGET).unwrap();
            prop_assert!(
                fast.approximates(truth),
                "row {row}: prop1 gave {fast}, ground truth {truth}\n{}",
                r.render(true)
            );
        }
    }

    /// On the paper's regime — at most one null in `t[XY]`, the rest of
    /// the relation null-free there, singleton Y when the null is in Y —
    /// Proposition 1 is exact.
    #[test]
    fn prop1_exact_on_paper_regime(rows in arb_rows(), fd in arb_fd()) {
        let r = build_instance(&rows);
        prop_assume!(completions_in_budget(&r, fd.attrs()));
        let scope = fd.attrs();
        for row in r.row_ids() {
            let t = r.tuple(row);
            let nulls_in_t = t.nulls_on(scope).count();
            let rest_null_free = r
                .row_ids()
                .filter(|i| *i != row)
                .all(|i| !r.tuple(i).has_null_on(scope));
            let y_ok = !t.has_null_on(fd.rhs) || fd.rhs.len() == 1;
            // No classical violation among the total tuples (the prose's
            // implicit assumption for the Y-null discussion).
            let total_ok = testfd::check_pairwise(
                &restrict_to_total(&r, scope),
                &FdSet::from_vec(vec![fd]),
                SemanticsKind::Weak,
            )
            .is_ok();
            if nulls_in_t <= 1 && rest_null_free && y_ok && total_ok {
                let fast = prop1::evaluate(fd, row, &r, BUDGET).unwrap();
                let truth = interp::eval_least_extension(fd, row, &r, BUDGET).unwrap();
                prop_assert_eq!(
                    fast, truth,
                    "row {} of\n{}\nfd {}", row, r.render(true), fd
                );
            }
        }
    }

    /// Theorem 2: TEST-FDs under the strong convention decides strong
    /// satisfiability, on any instance.
    #[test]
    fn theorem2_testfds_strong(rows in arb_rows(), fds in arb_fdset()) {
        let r = build_instance(&rows);
        prop_assume!(completions_in_budget(&r, fds.attrs()));
        let fast = testfd::check_strong(&r, &fds).is_ok();
        let truth = interp::strongly_satisfied_bruteforce(&fds, &r, BUDGET).unwrap();
        prop_assert_eq!(fast, truth, "instance:\n{}\nfds:\n{:?}", r.render(true), fds);
        // all TEST-FDs variants agree
        prop_assert_eq!(
            testfd::check_pairwise(&r, &fds, SemanticsKind::Strong).is_ok(),
            fast
        );
    }

    /// Theorems 3 and 4: the chase pipelines decide joint weak
    /// satisfiability (under the large-domain proviso, which the
    /// generator guarantees), and agree with each other.
    #[test]
    fn theorems34_weak_pipelines(rows in arb_rows(), fds in arb_fdset()) {
        let r = build_instance(&rows);
        prop_assume!(completions_in_budget(&r, fds.attrs()));
        // the proviso must actually hold for the equivalence to be exact
        prop_assume!(fdi_core::subst::detect_domain_exhaustion(&fds, &r).unwrap().is_empty());
        let truth = interp::weakly_satisfiable_bruteforce(&fds, &r, BUDGET).unwrap();
        let via_nothing = chase::weakly_satisfiable_via_chase(&fds, &r);
        let via_weak_convention = testfd::check_weak(&r, &fds).is_ok();
        prop_assert_eq!(
            via_nothing, truth,
            "Theorem 4(b) pipeline on\n{}\n{:?}", r.render(true), fds
        );
        prop_assert_eq!(
            via_weak_convention, truth,
            "Theorem 3 pipeline on\n{}\n{:?}", r.render(true), fds
        );
    }

    /// Theorem 4(a): the extended chase is Church–Rosser — neither FD
    /// order nor engine changes the result.
    #[test]
    fn theorem4_confluence(rows in arb_rows(), fds in arb_fdset(), seed in 0usize..24) {
        let r = build_instance(&rows);
        // a permutation of the FD order derived from the seed
        let mut order: Vec<usize> = (0..fds.len()).collect();
        if fds.len() > 1 {
            let k = seed % fds.len();
            order.rotate_left(k);
            if seed % 2 == 1 {
                order.reverse();
            }
        }
        let permuted = extended_chase_naive(&r, &fds.permuted(&order));
        let chased = extended_chase(&r, &fds);
        prop_assert_eq!(
            chased.instance.canonical_form(),
            permuted.instance.canonical_form()
        );
        prop_assert_eq!(chased.nothing_classes, permuted.nothing_classes);
        prop_assert_eq!(chased.unions, permuted.unions);
    }

    /// The plain chase terminates at a minimally incomplete instance
    /// that the original approximates, and it never destroys weak
    /// satisfiability.
    #[test]
    fn plain_chase_refines(rows in arb_rows(), fds in arb_fdset()) {
        let r = build_instance(&rows);
        prop_assume!(completions_in_budget(&r, fds.attrs()));
        let result = chase::chase_plain(&r, &fds);
        prop_assert!(chase::is_minimally_incomplete(&result.instance, &fds));
        prop_assert!(instance_approximates(&r, &result.instance)
            || r.canonical_form() == result.instance.canonical_form());
        prop_assume!(fdi_core::subst::detect_domain_exhaustion(&fds, &r).unwrap().is_empty());
        let before = interp::weakly_satisfiable_bruteforce(&fds, &r, BUDGET).unwrap();
        prop_assume!(completions_in_budget(&result.instance, fds.attrs()));
        let after = interp::weakly_satisfiable_bruteforce(&fds, &result.instance, BUDGET).unwrap();
        prop_assert_eq!(before, after, "chase changed weak satisfiability:\n{}\n→\n{}",
            r.render(true), result.instance.render(true));
    }

    /// Theorem 1 / Lemma 4: the three implication engines agree.
    #[test]
    fn theorem1_engines_agree(fds in arb_fdset(), goal in arb_fd()) {
        let via_closure = armstrong::implies(&fds, goal);
        let statements: Vec<Statement> =
            fds.iter().map(|f| equiv::fd_to_statement(*f)).collect();
        let via_logic = infers(&statements, equiv::fd_to_statement(goal));
        let via_worlds = equiv::implies_via_two_tuple_worlds(&fds, goal).unwrap();
        prop_assert_eq!(via_closure, via_logic);
        prop_assert_eq!(via_closure, via_worlds);
        // and the derivation engine is sound+complete against them
        let derivation = armstrong::derive(&fds, goal);
        prop_assert_eq!(derivation.is_some(), via_closure);
    }

    /// Lemma 3 pointwise, on random dependencies and assignments.
    #[test]
    fn lemma3_pointwise(fd in arb_fd(), code in 0u64..27) {
        let mut values = Vec::with_capacity(ATTRS);
        let mut c = code;
        for _ in 0..ATTRS {
            values.push(Truth::ALL[(c % 3) as usize]);
            c /= 3;
        }
        let assignment = fdi_logic::var::Assignment::new(values);
        prop_assert!(equiv::lemma3_holds_at(fd, &assignment).unwrap());
    }

    /// BCNF decomposition always yields BCNF components and a lossless
    /// join; 3NF synthesis additionally preserves dependencies.
    #[test]
    fn normalization_invariants(fds in arb_fdset()) {
        let all = AttrSet::first_n(ATTRS);
        let bcnf = normalize::bcnf_decompose(&fds, all);
        for c in &bcnf {
            prop_assert!(normalize::is_bcnf(&fds, *c), "component {c} of {fds:?}");
        }
        prop_assert!(normalize::is_lossless(&fds, all, &bcnf));
        let tnf = normalize::synthesize_3nf(&fds, all);
        prop_assert!(normalize::preserves_dependencies(&fds, &tnf));
        prop_assert!(normalize::is_lossless(&fds, all, &tnf), "3NF {tnf:?} of {fds:?}");
    }

    /// The signature query evaluator equals the least extension.
    #[test]
    fn query_signature_exact(rows in arb_rows(), qseed in 0u8..64) {
        let r = build_instance(&rows);
        let q = build_query(&r, qseed);
        prop_assume!(
            fdi_relation::completion::CompletionSpace::for_tuple(&r, r.nth_row(0), q.attrs())
                .map(|s| s.count() <= BUDGET)
                .unwrap_or(false)
        );
        for row in r.row_ids() {
            let sig = query::eval_signature(&q, row, &r).unwrap();
            let truth = query::eval_least_extension(&q, row, &r, BUDGET).unwrap();
            prop_assert_eq!(sig, truth, "query {:?} row {}\n{}", q, row, r.render(true));
            // Kleene approximates both
            let kleene = query::eval_kleene(&q, r.tuple(row), &r);
            prop_assert!(kleene.approximates(truth));
        }
    }
}

/// Restricts an instance to its tuples that are total on `scope`.
fn restrict_to_total(r: &Instance, scope: AttrSet) -> Instance {
    let mut out = Instance::new(r.schema().clone());
    for t in r.tuples() {
        if t.is_total_on(scope) {
            out.add_tuple(t.clone()).unwrap();
        }
    }
    out
}

/// Deterministically builds a small query from a seed.
fn build_query(r: &Instance, seed: u8) -> Query {
    let sym = |attr: &str, k: usize| {
        Query::eq_text(r, attr, &format!("{attr}_{k}")).expect("domain constant")
    };
    let a0 = sym("A", (seed % 3) as usize);
    let b0 = sym("B", ((seed / 3) % 3) as usize);
    let eq_ab = Query::eq_attrs(r, "A", "B").unwrap();
    match seed % 5 {
        0 => a0,
        1 => a0.or(b0),
        2 => a0.clone().or(a0.not()),
        3 => a0.and(b0.not()).or(eq_ab),
        _ => eq_ab.and(b0.or(a0.not())),
    }
}
