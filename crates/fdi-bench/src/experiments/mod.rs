//! The paper's experiments, one module per experiment id.
//!
//! Every module exposes `run(quick: bool)`; `quick` shrinks the sweeps
//! for smoke-testing. [`ALL`] lists them by module name in id order, and
//! the one binary, `run_all [--quick] [name…]`, runs the named modules
//! (`run_all --quick chase_scaling updates`), or the whole battery when
//! no name is given.
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

/// An experiment module's name and its `run`.
pub type Experiment = (&'static str, fn(bool));

/// Every experiment, keyed by its module name, in id order.
pub const ALL: [Experiment; 13] = [
    ("figures", figures::run),
    ("two_tuple", two_tuple::run),
    ("implication", implication::run),
    ("interaction", interaction::run),
    ("church_rosser", church_rosser::run),
    ("testfd_scaling", testfd_scaling::run),
    ("chase_scaling", chase_scaling::run),
    ("query", query::run),
    ("satisfiability_rates", satisfiability_rates::run),
    ("overconstraint", overconstraint::run),
    ("substitution", substitution::run),
    ("universal", universal::run),
    ("updates", updates::run),
];
