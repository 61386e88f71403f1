//! Satisfiability orchestration and reporting.
//!
//! §4 defines, for a single FD, *strong* holding (`f(t,r) = true` for
//! every tuple) and *weak* holding (`f(t,r) ≠ false` for every tuple).
//! §6 shows that for a *set* of FDs the per-dependency weak notion is not
//! compositional, and the operative notion becomes joint weak
//! satisfiability (some completion satisfies all of `F`), decided by the
//! chase pipelines. This module ties the pieces together and produces
//! the per-tuple truth tables the examples and the harness print.
//!
//! Set-level verdicts ride the indexed fast paths: the strong check is
//! [`testfd::check_strong`] (grouped TEST-FDs) and the
//! weak check is the extended chase — so [`report`] stays usable at
//! instance sizes where the per-tuple Proposition-1 table is the only
//! remaining enumeration-bound piece.

use crate::fd::{Fd, FdSet};
use crate::prop1;
use crate::semantics::SemanticsKind;
use crate::testfd::{self, Violation};
use fdi_logic::truth::Truth;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;

/// Default completion budget for report generation.
pub const REPORT_BUDGET: u128 = 1 << 16;

/// A full satisfiability report for one FD set over one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Truth value of `f(t, r)` for every FD (outer) and tuple (inner).
    pub table: Vec<Vec<Truth>>,
    /// Per-FD strong holding (`∀t: true`).
    pub strong_per_fd: Vec<bool>,
    /// Per-FD weak holding (`∀t: ≠ false`).
    pub weak_per_fd: Vec<bool>,
    /// Joint strong satisfiability of the whole set.
    pub strong: bool,
    /// Joint weak satisfiability of the whole set.
    pub weak: bool,
    /// Raw TEST-FDs verdict per registered null-comparison semantics
    /// (in [`SemanticsKind::ALL`] lattice order), each with its
    /// canonical least-pair witness on `Err`. These are the *direct*
    /// convention checks on the instance as given — no chase — so the
    /// weak row differs from [`weak`](Report::weak) on instances that
    /// are not minimally incomplete (Theorem 3's proviso).
    pub semantics: Vec<(SemanticsKind, Result<(), Violation>)>,
}

/// Builds the per-tuple truth table with the Proposition-1 evaluator and
/// decides set-level satisfiability with the fast pipelines.
///
/// # Example — Figure 1.3's verdicts
///
/// ```
/// use fdi_core::{fixtures, satisfy};
///
/// let r = fixtures::figure1_null_instance();
/// let fds = fixtures::figure1_fds();
/// let report = satisfy::report(&fds, &r, satisfy::REPORT_BUDGET).unwrap();
/// // Some completion violates F (strong fails), some satisfies it
/// // (weak holds) — §4's split in one report.
/// assert!(!report.strong);
/// assert!(report.weak);
/// // Per-tuple, no f(t, r) is definitely false (Proposition 1).
/// assert!(report.table.iter().flatten().all(|t| t.is_not_false()));
/// ```
pub fn report(fds: &FdSet, instance: &Instance, budget: u128) -> Result<Report, RelationError> {
    let mut table = Vec::with_capacity(fds.len());
    for fd in fds {
        let mut row = Vec::with_capacity(instance.len());
        for t in instance.row_ids() {
            let v = prop1::evaluate(*fd, t, instance, budget).map_err(|e| match e {
                prop1::Prop1Error::Relation(e) => e,
                prop1::Prop1Error::RestHasNulls { .. } => unreachable!("evaluate handles nulls"),
            })?;
            row.push(v);
        }
        table.push(row);
    }
    let strong_per_fd: Vec<bool> = table
        .iter()
        .map(|row| row.iter().all(|t| t.is_true()))
        .collect();
    let weak_per_fd: Vec<bool> = table
        .iter()
        .map(|row| row.iter().all(|t| t.is_not_false()))
        .collect();
    Ok(Report {
        strong: testfd::check_strong(instance, fds).is_ok(),
        weak: crate::chase::weakly_satisfiable_via_chase(fds, instance),
        semantics: SemanticsKind::ALL
            .iter()
            .map(|&kind| {
                let verdict = testfd::check(instance, fds, kind, &fdi_obs::Recorder::noop());
                (kind, verdict)
            })
            .collect(),
        table,
        strong_per_fd,
        weak_per_fd,
    })
}

/// Strong holding of a single dependency (per-tuple evaluation).
pub fn strongly_holds(fd: Fd, instance: &Instance, budget: u128) -> Result<bool, RelationError> {
    for t in instance.row_ids() {
        let v = prop1::evaluate(fd, t, instance, budget).map_err(unwrap_relation)?;
        if v != Truth::True {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Weak holding of a single dependency (per-tuple evaluation).
pub fn weakly_holds(fd: Fd, instance: &Instance, budget: u128) -> Result<bool, RelationError> {
    for t in instance.row_ids() {
        let v = prop1::evaluate(fd, t, instance, budget).map_err(unwrap_relation)?;
        if v == Truth::False {
            return Ok(false);
        }
    }
    Ok(true)
}

fn unwrap_relation(e: prop1::Prop1Error) -> RelationError {
    match e {
        prop1::Prop1Error::Relation(e) => e,
        prop1::Prop1Error::RestHasNulls { .. } => unreachable!("evaluate handles nulls"),
    }
}

/// Renders a report as the kind of table the paper's figures use.
pub fn render_report(report: &Report, fds: &FdSet, instance: &Instance) -> String {
    let mut out = String::new();
    let schema = instance.schema();
    for (i, fd) in fds.iter().enumerate() {
        out.push_str(&format!("f{}: {}\n", i + 1, fd.render(schema)));
        for (t, v) in report.table[i].iter().enumerate() {
            out.push_str(&format!("  f(t{}, r) = {}\n", t + 1, v));
        }
        out.push_str(&format!(
            "  strongly holds: {}   weakly holds: {}\n",
            report.strong_per_fd[i], report.weak_per_fd[i]
        ));
    }
    out.push_str(&format!(
        "set: strongly satisfied = {}   weakly satisfiable = {}\n",
        report.strong, report.weak
    ));
    for (kind, verdict) in &report.semantics {
        match verdict {
            Ok(()) => out.push_str(&format!("semantics {}: ok\n", kind)),
            Err(v) => out.push_str(&format!("semantics {}: violated ({})\n", kind, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn figure1_report() {
        let r = fixtures::figure1_instance();
        let fds = fixtures::figure1_fds();
        let rep = report(&fds, &r, REPORT_BUDGET).unwrap();
        assert!(rep.strong);
        assert!(rep.weak);
        assert!(rep.strong_per_fd.iter().all(|b| *b));
        assert!(rep.table.iter().flatten().all(|t| t.is_true()));
    }

    #[test]
    fn figure1_null_report() {
        let r = fixtures::figure1_null_instance();
        let fds = fixtures::figure1_fds();
        let rep = report(&fds, &r, REPORT_BUDGET).unwrap();
        assert!(!rep.strong, "the D#-null can collide with d1");
        assert!(rep.weak);
        // f1 (E# → SL,D#): all E# unique → every tuple true.
        assert!(rep.strong_per_fd[0]);
        // f2 (D# → CT): e3's D#-null makes some evaluations unknown.
        assert!(!rep.strong_per_fd[1]);
        assert!(rep.weak_per_fd[1]);
        // The per-semantics rows follow the lattice: the strong
        // convention flags the D#-null, every optimistic convention
        // accepts, and the rows come in ALL (lattice) order.
        let kinds: Vec<_> = rep.semantics.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, SemanticsKind::ALL.to_vec());
        assert!(rep.semantics[0].1.is_err(), "strong rejects");
        assert!(rep.semantics[1..].iter().all(|(_, v)| v.is_ok()));
    }

    #[test]
    fn section6_report_shows_the_interaction() {
        let r = fixtures::section6_instance();
        let fds = fixtures::section6_fds();
        let rep = report(&fds, &r, REPORT_BUDGET).unwrap();
        assert!(
            rep.weak_per_fd[0] && rep.weak_per_fd[1],
            "each weakly holds"
        );
        assert!(!rep.weak, "… but not simultaneously (§6)");
        assert!(!rep.strong);
    }

    #[test]
    fn single_fd_helpers() {
        let r = fixtures::figure2_r1();
        let f = fixtures::figure2_fd(&r);
        assert!(strongly_holds(f, &r, REPORT_BUDGET).unwrap());
        assert!(weakly_holds(f, &r, REPORT_BUDGET).unwrap());
        let r4 = fixtures::figure2_r4();
        let f4 = fixtures::figure2_fd(&r4);
        assert!(!strongly_holds(f4, &r4, REPORT_BUDGET).unwrap());
        assert!(
            !weakly_holds(f4, &r4, REPORT_BUDGET).unwrap(),
            "[F2] is false"
        );
    }

    #[test]
    fn report_renders() {
        let r = fixtures::section6_instance();
        let fds = fixtures::section6_fds();
        let rep = report(&fds, &r, REPORT_BUDGET).unwrap();
        let text = render_report(&rep, &fds, &r);
        assert!(text.contains("A -> B"));
        assert!(text.contains("weakly satisfiable = false"));
        assert!(text.contains("semantics strong:"));
        assert!(text.contains("semantics nfd:"));
    }
}
