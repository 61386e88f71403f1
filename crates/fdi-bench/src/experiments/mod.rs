//! The paper's experiments, one module per experiment id.
//!
//! Every module exposes `run(quick: bool)`; `quick` shrinks the sweeps
//! for smoke-testing. The binaries in `src/bin/` are thin wrappers, and
//! `run_all` executes the whole battery in experiment order.
//!
//! # Experiment index
//!
//! | id | module | paper claim |
//! |----|--------|-------------|
//! | E1/E2 | [`figures`] | Figures 1.1–1.3: the employee relation |
//! | E3 | [`figures`] | Figure 2: the classification examples |
//! | E4 | [`two_tuple`] | two-tuple observations under nulls |
//! | E5 | [`implication`] | Theorem 1: Armstrong ≡ System-C ≡ two-tuple worlds |
//! | E6 | [`implication`] | Lemma 3, exhaustively |
//! | E7 | [`interaction`] | FD interaction under weak satisfiability (§6) |
//! | E8 | [`church_rosser`] | Figure 5: plain NS-rules are order-dependent |
//! | E9 | [`church_rosser`] | Theorem 4: confluence counts over random orders |
//! | E10 | [`testfd_scaling`] | TEST-FDs scaling (Figure 3): pairwise vs bucket-sort grouping |
//! | E12 | [`chase_scaling`] | chase engines: naive pairwise vs hash-grouped |
//! | E13 | [`query`] | least-extension query evaluation (§2) |
//! | E14 | [`satisfiability_rates`] | satisfiability rates vs null density |
//! | E15 | [`overconstraint`] | overconstrained databases (§7) |
//! | E16 | [`substitution`] | X-side substitutions (conditions (1) and (2)) |
//! | E17 | [`substitution`] | \[F2\] exhaustion vs domain size |
//! | E18 | [`universal`] | the weak universal relation assumption |
//! | E19 | [`updates`] | modification operations: incremental vs full validation |
//!
//! E11 (the pre-sorted single-FD scan) is retired along with the sorted
//! TEST-FDs variants; the ids of the others are unchanged.

pub mod chase_scaling;
pub mod church_rosser;
pub mod figures;
pub mod implication;
pub mod interaction;
pub mod overconstraint;
pub mod query;
pub mod satisfiability_rates;
pub mod substitution;
pub mod testfd_scaling;
pub mod two_tuple;
pub mod universal;
pub mod updates;

/// Runs every experiment in id order.
pub fn run_all(quick: bool) {
    figures::run(quick);
    two_tuple::run(quick);
    implication::run(quick);
    interaction::run(quick);
    church_rosser::run(quick);
    testfd_scaling::run(quick);
    chase_scaling::run(quick);
    query::run(quick);
    satisfiability_rates::run(quick);
    overconstraint::run(quick);
    substitution::run(quick);
    universal::run(quick);
    updates::run(quick);
}
