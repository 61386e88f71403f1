//! Boundary-condition tests: empty instances, single tuples, all-null
//! rows, trivial dependencies, empty dependency sets, arity-1 schemas.
//! Every public pipeline must behave sensibly at the edges.

use fd_incomplete::core::interp::{self, DEFAULT_BUDGET};
use fd_incomplete::core::{armstrong, chase, normalize, prop1, satisfy, testfd};
use fd_incomplete::prelude::*;
use std::sync::Arc;

fn schema_ab(dom: usize) -> Arc<Schema> {
    Schema::uniform("R", &["A", "B"], dom).unwrap()
}

#[test]
fn empty_instance_satisfies_everything() {
    let schema = schema_ab(2);
    let fds = FdSet::parse(&schema, "A -> B").unwrap();
    let r = Instance::new(schema);
    assert!(testfd::check_strong(&r, &fds).is_ok());
    assert!(testfd::check_weak(&r, &fds).is_ok());
    assert!(chase::weakly_satisfiable_via_chase(&fds, &r));
    assert!(interp::strongly_satisfied_bruteforce(&fds, &r, DEFAULT_BUDGET).unwrap());
    assert!(chase::is_minimally_incomplete(&r, &fds));
    let report = satisfy::report(&fds, &r, DEFAULT_BUDGET).unwrap();
    assert!(report.strong && report.weak);
}

#[test]
fn empty_fd_set_is_always_satisfied() {
    let r = Instance::parse(schema_ab(2), "A_0 -\n- B_1").unwrap();
    let fds = FdSet::new();
    assert!(testfd::check_strong(&r, &fds).is_ok());
    assert!(chase::weakly_satisfiable_via_chase(&fds, &r));
    let chased = chase::chase_plain(&r, &fds);
    assert!(chased.events.is_empty());
    assert_eq!(chased.instance.canonical_form(), r.canonical_form());
}

#[test]
fn single_tuple_instances() {
    let r = Instance::parse(schema_ab(2), "A_0 -").unwrap();
    let fd = Fd::parse(r.schema(), "A -> B").unwrap();
    let fds = FdSet::from_vec(vec![fd]);
    // one tuple can never violate an FD
    assert!(testfd::check_strong(&r, &fds).is_ok());
    assert_eq!(
        interp::eval_least_extension(fd, r.nth_row(0), &r, DEFAULT_BUDGET).unwrap(),
        Truth::True
    );
    // Proposition 1's literal classifier says [T2] here (unique X)
    let o = prop1::proposition1(fd, r.nth_row(0), &r).unwrap();
    assert_eq!(o.verdict, Truth::True);
}

#[test]
fn all_null_tuple() {
    let r = Instance::parse(schema_ab(3), "- -\nA_0 B_0").unwrap();
    let fd = Fd::parse(r.schema(), "A -> B").unwrap();
    let fds = FdSet::from_vec(vec![fd]);
    // ground truth: completing (-,-) to (A_0, B_0) matches; to (A_0, B_1)
    // violates → unknown; instance not strongly satisfied, weakly fine.
    assert!(testfd::check_strong(&r, &fds).is_err());
    assert!(chase::weakly_satisfiable_via_chase(&fds, &r));
    let truth = interp::eval_least_extension(fd, r.nth_row(0), &r, DEFAULT_BUDGET).unwrap();
    assert_eq!(truth, Truth::Unknown);
    // prop-1 literal verdict: nulls on both sides → unknown (approximates)
    let o = prop1::proposition1(fd, r.nth_row(0), &r).unwrap();
    assert!(o.verdict.approximates(truth));
}

#[test]
fn trivial_dependencies_hold_everywhere() {
    let r = Instance::parse(schema_ab(2), "- -\nA_1 -").unwrap();
    let trivial = Fd::parse(r.schema(), "A B -> A").unwrap();
    assert!(trivial.is_trivial());
    let fds = FdSet::from_vec(vec![trivial]);
    assert!(testfd::check_strong(&r, &fds).is_ok());
    for row in r.row_ids() {
        assert_eq!(
            interp::eval_least_extension(trivial, row, &r, DEFAULT_BUDGET).unwrap(),
            Truth::True
        );
    }
    // normalized() keeps trivial FDs intact and FdSet::normalized drops them
    assert_eq!(trivial.normalized(), trivial);
    assert!(fds.normalized().is_empty());
}

#[test]
fn arity_one_schema() {
    let schema = Schema::uniform("R", &["A"], 2).unwrap();
    let r = Instance::parse(schema, "A_0\n-\nA_1").unwrap();
    // no non-trivial FD exists over one attribute; chase with the
    // trivial one is a no-op
    let fds = FdSet::from_vec(vec![Fd::new(AttrSet(1), AttrSet(1))]);
    assert!(testfd::check_strong(&r, &fds).is_ok());
    let chased = chase::chase_plain(&r, &fds);
    assert!(chased.events.is_empty());
}

#[test]
fn closure_of_empty_set_under_empty_fds() {
    assert_eq!(
        armstrong::closure(AttrSet::EMPTY, &FdSet::new()),
        AttrSet::EMPTY
    );
    assert!(armstrong::implies(
        &FdSet::new(),
        Fd::new(AttrSet(0b11), AttrSet(0b01))
    ));
    assert!(!armstrong::implies(
        &FdSet::new(),
        Fd::new(AttrSet(0b01), AttrSet(0b10))
    ));
}

#[test]
fn normalization_of_degenerate_schemas() {
    // single attribute: trivially BCNF, decomposition is the scheme
    let fds = FdSet::new();
    let one = AttrSet(0b1);
    assert!(normalize::is_bcnf(&fds, one));
    assert_eq!(normalize::bcnf_decompose(&fds, one), vec![one]);
    assert!(normalize::is_lossless(&fds, one, &[one]));
    let synth = normalize::synthesize_3nf(&fds, one);
    assert_eq!(synth, vec![one]);
}

#[test]
fn duplicate_tuples_are_harmless() {
    let r = Instance::parse(schema_ab(2), "A_0 B_0\nA_0 B_0\nA_0 B_0").unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    assert!(testfd::check_strong(&r, &fds).is_ok());
    let outcome = chase::extended_chase(&r, &fds, &Executor::with_threads(1), &Recorder::noop());
    assert!(!outcome.has_nothing());
    // the cell engine unifies the duplicate Y cells without complaint
    assert_eq!(outcome.instance.len(), 3);
}

#[test]
fn nothing_everywhere_is_stable() {
    let schema = schema_ab(2);
    let mut r = Instance::new(schema);
    r.add_row(&["#!", "#!"]).unwrap();
    r.add_row(&["#!", "#!"]).unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    // nothing never matches, so no trigger fires; the instance is
    // trivially minimally incomplete but NOT weakly satisfiable
    assert!(chase::is_minimally_incomplete(&r, &fds));
    let outcome = chase::extended_chase(&r, &fds, &Executor::with_threads(1), &Recorder::noop());
    assert!(outcome.has_nothing());
    assert!(!chase::weakly_satisfiable_via_chase(&fds, &r));
}

#[test]
fn whole_schema_as_lhs_or_rhs() {
    let r = Instance::parse(schema_ab(2), "A_0 B_0\nA_1 B_1").unwrap();
    let all = r.schema().all_attrs();
    // R → R is trivial; A → R normalizes to A → B
    let to_all = Fd::new(AttrSet(0b01), all);
    assert_eq!(to_all.normalized(), Fd::new(AttrSet(0b01), AttrSet(0b10)));
    let fds = FdSet::from_vec(vec![to_all]);
    assert!(testfd::check_strong(&r, &fds).is_ok());
}

#[test]
fn report_on_instance_with_only_nulls_in_one_column() {
    let r = Instance::parse(schema_ab(2), "A_0 -\nA_1 -\nA_0 -").unwrap();
    let fds = FdSet::parse(r.schema(), "A -> B").unwrap();
    let report = satisfy::report(&fds, &r, DEFAULT_BUDGET).unwrap();
    // rows 0 and 2 share A_0 with independent B nulls: not strong
    assert!(!report.strong);
    assert!(report.weak);
    // the chase must introduce an NEC between those two nulls
    let chased = chase::chase_plain(&r, &fds);
    let n0 = chased
        .instance
        .value(chased.instance.nth_row(0), AttrId(1))
        .as_null()
        .unwrap();
    let n2 = chased
        .instance
        .value(chased.instance.nth_row(2), AttrId(1))
        .as_null()
        .unwrap();
    assert!(chased.instance.necs().same_class(n0, n2));
}
