//! Pluggable null-comparison semantics — the conventions behind TEST-FDs.
//!
//! Vassiliou's Theorems 2 and 3 define two conventions for comparing
//! values in the presence of nulls ([`SemanticsKind::Strong`] and
//! [`SemanticsKind::Weak`]). The literature defines more: Badia–Lemire's
//! null-marker FDs (arXiv 1404.4963) treat marked nulls as syntactic
//! objects that must match exactly, and Atzeni–Morfuni's NFDs restrict
//! a dependency's scope to the tuples that are *total* on its left
//! side. All of them fit one shape: an **agreement** predicate (when do
//! two values count as equal on a determinant?) and a **disagreement**
//! predicate (when do two values count as a violation on a dependent?)
//! — which are *not* each other's negations; that asymmetry is the
//! whole point of null conventions.
//!
//! [`SemanticsKind`] captures a convention as four independent boolean
//! axes, from which every engine-relevant predicate and policy is
//! derived:
//!
//! | axis | strong | null-marker | weak | nfd |
//! |---|---|---|---|---|
//! | [`null_matches_everything`] | ✓ | – | – | – |
//! | [`class_nulls_agree`]       | ✓ | ✓ | ✓ | – |
//! | [`null_const_conflicts`]    | ✓ | ✓ | – | – |
//! | [`cross_class_nulls_conflict`] | ✓ | ✓ | – | – |
//!
//! [`null_matches_everything`]: SemanticsKind::null_matches_everything
//! [`class_nulls_agree`]: SemanticsKind::class_nulls_agree
//! [`null_const_conflicts`]: SemanticsKind::null_const_conflicts
//! [`cross_class_nulls_conflict`]: SemanticsKind::cross_class_nulls_conflict
//!
//! * **Strong** (Theorem 2): every null is a potential matcher and a
//!   potential violator — equality involving a null is positive,
//!   inequality involving a null is positive unless both are nulls of
//!   one NEC class.
//! * **Null-marker** (after Badia–Lemire, arXiv 1404.4963): marked
//!   nulls are compared *syntactically by class* — a null agrees
//!   exactly with its own NEC class, and any mismatch (null vs
//!   constant, or nulls of distinct classes) is a violation. Agreement
//!   is the weak predicate, disagreement the strong one.
//! * **Weak** (Theorem 3): only definite values act — nulls agree only
//!   within their NEC class and never violate.
//! * **Nfd** (after Atzeni–Morfuni's no-information NFDs): a
//!   dependency only constrains tuples **total** on its determinant —
//!   nulls never trigger (not even NEC-equal ones) and never violate.
//!
//! Because agreement shrinks and disagreement shrinks monotonically
//! down that table, the satisfaction verdicts form a lattice chain on
//! every instance:
//!
//! ```text
//! strong ⊨  ⇒  null-marker ⊨  ⇒  weak ⊨  ⇒  nfd ⊨
//! ```
//!
//! (each convention's violation set contains the next one's). The
//! differential suite in `tests/conventions.rs` asserts exactly this
//! chain on generated instances, and [`compare`] reports where the
//! conventions agree and disagree on a concrete instance, with the
//! canonical least-pair witness on each side.
//!
//! ## Engine policies
//!
//! Two derived policies tell TEST-FDs how to stay sound:
//!
//! * [`SemanticsKind::needs_pairwise_fallback`] — when nulls match
//!   *everything*, determinant "equality" is not transitive, so
//!   grouping is unsound on null-bearing determinants and the engine
//!   falls back to the paper's footnoted `O(n²)` pairwise variant. Only
//!   the strong convention pays this (and only it pays the
//!   null-column scan that feeds the trigger — see
//!   `testfd::null_columns_for`).
//! * [`SemanticsKind::solitary_nulls`] — when class nulls do not agree
//!   (nfd), group keys treat a null like `nothing`: a row-unique atom
//!   that never groups two rows together.
//!
//! Every engine takes the convention as a plain [`SemanticsKind`] value,
//! so `fdi stats` and [`compare`] iterate [`SemanticsKind::ALL`] through
//! the same calls that name one convention.

use crate::fd::FdSet;
use crate::testfd::{self, Violation};
use fdi_obs::Recorder;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use std::fmt;

/// The registry of implemented semantics, in lattice order (strongest
/// first): each kind's violation set contains the next one's. A kind
/// carries its four axes and the predicates and engine policies derived
/// from them (see the module docs for the per-kind truth table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SemanticsKind {
    /// Theorem 2's pessimistic convention.
    Strong,
    /// Badia–Lemire-style syntactic marker matching.
    NullMarker,
    /// Theorem 3's optimistic convention.
    Weak,
    /// Atzeni–Morfuni-style total-determinant NFDs.
    Nfd,
}

impl SemanticsKind {
    /// Every registered semantics, in lattice order. Iterating this is
    /// how the CLI, `fdi stats`, and the comparison harness stay in
    /// sync with the implemented set.
    pub const ALL: [SemanticsKind; 4] = [
        SemanticsKind::Strong,
        SemanticsKind::NullMarker,
        SemanticsKind::Weak,
        SemanticsKind::Nfd,
    ];

    /// Stable lowercase name (used in metrics labels and renderings).
    pub fn name(self) -> &'static str {
        match self {
            SemanticsKind::Strong => "strong",
            SemanticsKind::NullMarker => "null-marker",
            SemanticsKind::Weak => "weak",
            SemanticsKind::Nfd => "nfd",
        }
    }

    /// Parses a [`name`](Self::name) back to a kind.
    pub fn parse(text: &str) -> Option<SemanticsKind> {
        SemanticsKind::ALL.into_iter().find(|k| k.name() == text)
    }

    /// Does a null potentially match *any* value (strong convention)?
    /// This is what makes determinant equality non-transitive.
    #[inline]
    pub fn null_matches_everything(self) -> bool {
        matches!(self, SemanticsKind::Strong)
    }

    /// Do nulls of one NEC class agree with each other (everything but
    /// nfd, whose dependencies ignore non-total tuples)?
    #[inline]
    pub fn class_nulls_agree(self) -> bool {
        !matches!(self, SemanticsKind::Nfd)
    }

    /// Is a null against a constant a violation on a dependent?
    #[inline]
    pub fn null_const_conflicts(self) -> bool {
        matches!(self, SemanticsKind::Strong | SemanticsKind::NullMarker)
    }

    /// Are nulls of distinct NEC classes a violation on a dependent?
    #[inline]
    pub fn cross_class_nulls_conflict(self) -> bool {
        matches!(self, SemanticsKind::Strong | SemanticsKind::NullMarker)
    }

    /// Must group-based engines fall back to the pairwise scan when a
    /// determinant meets a null? True exactly when
    /// [`null_matches_everything`](Self::null_matches_everything):
    /// a match-anything null makes agreement non-transitive, so
    /// partitioning into agreement classes is unsound. Conventions
    /// without the fallback also skip the null-column scan feeding it.
    #[inline]
    pub fn needs_pairwise_fallback(self) -> bool {
        self.null_matches_everything()
    }

    /// Do nulls key like `nothing` in group/sort keys (row-unique,
    /// never grouping two rows)? True exactly when class nulls do not
    /// agree.
    #[inline]
    pub fn solitary_nulls(self) -> bool {
        !self.class_nulls_agree()
    }

    /// `t[A] = t'[A]` — the agreement predicate (determinant side).
    #[inline]
    pub fn values_equal(self, a: Value, b: Value, instance: &Instance) -> bool {
        match (a, b) {
            (Value::Const(x), Value::Const(y)) => x == y,
            (Value::Null(m), Value::Null(n)) => {
                self.null_matches_everything()
                    || (self.class_nulls_agree() && instance.necs().same_class(m, n))
            }
            (Value::Null(_), _) | (_, Value::Null(_)) => self.null_matches_everything(),
            // `nothing` is the inconsistent element; it matches nothing.
            (Value::Nothing, _) | (_, Value::Nothing) => false,
        }
    }

    /// `t[A] ≠ t'[A]` — the disagreement predicate (dependent side).
    /// NOT the negation of [`values_equal`](Self::values_equal).
    /// `nothing` disagrees with every value, a null included, under
    /// every convention: no completion makes it equal to anything.
    #[inline]
    pub fn values_unequal(self, a: Value, b: Value, instance: &Instance) -> bool {
        match (a, b) {
            (Value::Nothing, _) | (_, Value::Nothing) => true,
            (Value::Const(x), Value::Const(y)) => x != y,
            (Value::Null(m), Value::Null(n)) => {
                self.cross_class_nulls_conflict() && !instance.necs().same_class(m, n)
            }
            (Value::Null(_), _) | (_, Value::Null(_)) => self.null_const_conflicts(),
        }
    }
}

impl fmt::Display for SemanticsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One semantics' verdicts in a [`Comparison`]: the instance-level
/// result of [`testfd::check`] plus, per FD, the canonical least
/// violating pair (if that FD is violated at all — the instance-level
/// check stops at the first violated FD, the per-FD column does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticsVerdict {
    /// Which semantics.
    pub kind: SemanticsKind,
    /// Instance-level verdict with the canonical witness on `Err`.
    pub result: Result<(), Violation>,
    /// Per-FD canonical least violating pair, index-aligned with the
    /// FD set.
    pub per_fd: Vec<Option<(RowId, RowId)>>,
}

/// The differential report of [`compare`]: every registered semantics'
/// verdict on one instance, raw (no chase preprocessing — this
/// compares the conventions themselves, which is also what the lattice
/// chain in the module docs is stated for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Verdicts in [`SemanticsKind::ALL`] (lattice) order.
    pub verdicts: Vec<SemanticsVerdict>,
}

impl Comparison {
    /// The verdict of one kind (`ALL` always contains every kind).
    pub fn verdict(&self, kind: SemanticsKind) -> &SemanticsVerdict {
        self.verdicts
            .iter()
            .find(|v| v.kind == kind)
            .expect("compare covers every registered kind")
    }

    /// Do two semantics agree on this instance — same verdict *and*
    /// same canonical witness on the violating side?
    pub fn agree(&self, a: SemanticsKind, b: SemanticsKind) -> bool {
        self.verdict(a).result == self.verdict(b).result
    }

    /// Every unordered pair of registered semantics with their
    /// agreement flag, in lattice order.
    pub fn pairs(&self) -> Vec<(SemanticsKind, SemanticsKind, bool)> {
        let mut out = Vec::new();
        for (i, a) in SemanticsKind::ALL.into_iter().enumerate() {
            for b in SemanticsKind::ALL.into_iter().skip(i + 1) {
                out.push((a, b, self.agree(a, b)));
            }
        }
        out
    }
}

/// Runs every registered semantics over one instance and FD set,
/// collecting instance-level verdicts and per-FD canonical witnesses.
pub fn compare(instance: &Instance, fds: &FdSet) -> Comparison {
    let rec = Recorder::noop();
    let verdicts = SemanticsKind::ALL
        .into_iter()
        .map(|kind| {
            let per_fd = fds
                .iter()
                .map(|fd| {
                    let single = FdSet::from_vec(vec![*fd]);
                    testfd::check(instance, &single, kind, &rec)
                        .err()
                        .map(|v| v.rows)
                })
                .collect();
            SemanticsVerdict {
                kind,
                result: testfd::check(instance, fds, kind, &rec),
                per_fd,
            }
        })
        .collect();
    Comparison { verdicts }
}

/// Renders a [`Comparison`] as the CLI's `semantics` report: one
/// verdict line per semantics, the per-FD witness table, and the
/// pairwise agree/disagree matrix with the witness on each side.
pub fn render_comparison(cmp: &Comparison, fds: &FdSet, instance: &Instance) -> String {
    let schema = instance.schema();
    let side = |result: &Result<(), Violation>| match result {
        Ok(()) => "satisfied".to_string(),
        Err(v) => format!("violated at {v}"),
    };
    let mut out = format!(
        "semantics comparison: {} rows, {} fds\n",
        instance.len(),
        fds.len()
    );
    for v in &cmp.verdicts {
        out.push_str(&format!("  {:<12} {}\n", v.kind.name(), side(&v.result)));
    }
    if !fds.is_empty() {
        out.push_str("per-fd witnesses (least violating pair):\n");
        for (i, fd) in fds.iter().enumerate() {
            out.push_str(&format!("  f{}: {}:", i + 1, fd.render(schema)));
            for v in &cmp.verdicts {
                match v.per_fd[i] {
                    Some((a, b)) => {
                        out.push_str(&format!(" {}=({a},{b})", v.kind.name()));
                    }
                    None => out.push_str(&format!(" {}=ok", v.kind.name())),
                }
            }
            out.push('\n');
        }
    }
    out.push_str("pairwise agreement:\n");
    for (a, b, agree) in cmp.pairs() {
        if agree {
            out.push_str(&format!("  {} vs {}: agree\n", a.name(), b.name()));
        } else {
            out.push_str(&format!(
                "  {} vs {}: DISAGREE ({} {}; {} {})\n",
                a.name(),
                b.name(),
                a.name(),
                side(&cmp.verdict(a).result),
                b.name(),
                side(&cmp.verdict(b).result),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_relation::schema::Schema;

    use SemanticsKind::{Nfd, NullMarker, Strong, Weak};

    fn check(r: &Instance, f: &FdSet, sem: SemanticsKind) -> Result<(), Violation> {
        testfd::check(r, f, sem, &Recorder::noop())
    }

    fn abc(text: &str) -> Instance {
        Instance::parse(Schema::uniform("R", &["A", "B", "C"], 4).unwrap(), text).unwrap()
    }

    fn fd_a_b(r: &Instance) -> FdSet {
        FdSet::parse(r.schema(), "A -> B").unwrap()
    }

    #[test]
    fn axes_match_the_module_truth_table() {
        let rows: [(SemanticsKind, [bool; 4]); 4] = [
            (Strong, [true, true, true, true]),
            (NullMarker, [false, true, true, true]),
            (Weak, [false, true, false, false]),
            (Nfd, [false, false, false, false]),
        ];
        for (kind, [nme, cna, ncc, ccnc]) in rows {
            assert_eq!(kind.null_matches_everything(), nme, "{kind} nme");
            assert_eq!(kind.class_nulls_agree(), cna, "{kind} cna");
            assert_eq!(kind.null_const_conflicts(), ncc, "{kind} ncc");
            assert_eq!(kind.cross_class_nulls_conflict(), ccnc, "{kind} ccnc");
            assert_eq!(SemanticsKind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn null_marker_separates_strong_from_weak() {
        // Null determinant, differing constants dependent: the strong
        // convention's match-anything null fires, the marker and weak
        // conventions see no agreement, nfd sees no total trigger.
        let r = abc("-   B_0 C_0\nA_1 B_1 C_0");
        let f = fd_a_b(&r);
        assert!(check(&r, &f, Strong).is_err());
        assert!(check(&r, &f, NullMarker).is_ok());
        assert!(check(&r, &f, Weak).is_ok());
        assert!(check(&r, &f, Nfd).is_ok());
        // Equal constants on A, null vs constant on B: a syntactic
        // marker mismatch — the marker convention violates with the
        // strong one, while weak and nfd accept.
        let r = abc("A_0 -   C_0\nA_0 B_1 C_0");
        let f = fd_a_b(&r);
        assert!(check(&r, &f, Strong).is_err());
        assert!(check(&r, &f, NullMarker).is_err());
        assert!(check(&r, &f, Weak).is_ok());
        assert!(check(&r, &f, Nfd).is_ok());
    }

    #[test]
    fn nfd_ignores_non_total_triggers_weak_does_not() {
        // NEC-equal nulls on the determinant, differing constants on
        // the dependent: weak (and everything above it) violates, nfd's
        // total-tuple restriction does not even trigger.
        let r = abc("?m B_0 C_0\n?m B_1 C_0");
        let f = fd_a_b(&r);
        assert!(check(&r, &f, Strong).is_err());
        assert!(check(&r, &f, NullMarker).is_err());
        assert!(check(&r, &f, Weak).is_err());
        assert!(check(&r, &f, Nfd).is_ok());
        // But a classical constant violation is seen by all four.
        let r = abc("A_0 B_0 C_0\nA_0 B_1 C_0");
        let f = fd_a_b(&r);
        for kind in SemanticsKind::ALL {
            assert!(check(&r, &f, kind).is_err(), "{kind}");
        }
    }

    #[test]
    fn compare_reports_the_full_matrix_with_witnesses() {
        let r = abc("A_0 -   C_0\nA_0 B_1 C_0");
        let f = fd_a_b(&r);
        let cmp = compare(&r, &f);
        assert!(cmp.agree(SemanticsKind::Strong, SemanticsKind::NullMarker));
        assert!(!cmp.agree(SemanticsKind::NullMarker, SemanticsKind::Weak));
        assert!(cmp.agree(SemanticsKind::Weak, SemanticsKind::Nfd));
        let strong = cmp.verdict(SemanticsKind::Strong);
        assert_eq!(strong.per_fd[0], strong.result.err().map(|v| v.rows));
        let text = render_comparison(&cmp, &f, &r);
        assert!(text.contains("null-marker vs weak: DISAGREE"), "{text}");
        assert!(text.contains("weak vs nfd: agree"), "{text}");
        assert!(text.contains("per-fd witnesses"), "{text}");
    }
}
