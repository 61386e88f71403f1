//! Normalization over incomplete information.
//!
//! §5's payoff: "with this result [Theorem 1] we may safely talk about
//! decompositions and the theory of normalization applying even when
//! nulls are allowed in relation instances." This module supplies that
//! theory: BCNF analysis and decomposition, 3NF synthesis from a minimal
//! cover, dependency preservation, and the lossless-join test.
//!
//! The lossless-join test is the classical tableau chase — and the
//! tableau is *itself* an instance with marked nulls, chased with the
//! very NS-rule engine of §6 ([`crate::chase`]): distinguished variables
//! are constants, non-distinguished variables are marked nulls, and the
//! decomposition is lossless iff some row chases to all-constants. The
//! paper's machinery closes over itself here, which is exactly the point
//! of [Graham 80]'s "tableau chase" reference.

use crate::armstrong::{closure, is_superkey, minimal_cover, project};
use crate::chase::extended_chase;
use crate::fd::{Fd, FdSet};
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::instance::Instance;
use fdi_relation::schema::Schema;

/// A BCNF violation: a non-trivial projected dependency whose left side
/// is not a superkey of the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcnfViolation {
    /// The offending dependency (within the component).
    pub fd: Fd,
    /// The component it violates.
    pub component: AttrSet,
}

/// Finds a BCNF violation of `component` under the *projection* of
/// `fds`, or `None` when the component is in BCNF.
pub fn bcnf_violation(fds: &FdSet, component: AttrSet) -> Option<BcnfViolation> {
    let projected = project(fds, component);
    for fd in &projected {
        let fd = fd.normalized();
        if fd.is_trivial() {
            continue;
        }
        if !is_superkey(fd.lhs, component, &projected) {
            // Inflate the right side to the full closure within the
            // component: the decomposition step peels off X⁺ ∩ R.
            let rhs = closure(fd.lhs, &projected)
                .intersect(component)
                .difference(fd.lhs);
            return Some(BcnfViolation {
                fd: Fd::new(fd.lhs, rhs),
                component,
            });
        }
    }
    None
}

/// Is the whole scheme (or a component) in BCNF under `fds`?
pub fn is_bcnf(fds: &FdSet, component: AttrSet) -> bool {
    bcnf_violation(fds, component).is_none()
}

/// Classical BCNF decomposition by successive violation splitting;
/// always lossless, not necessarily dependency-preserving.
pub fn bcnf_decompose(fds: &FdSet, attrs: AttrSet) -> Vec<AttrSet> {
    let mut result = Vec::new();
    let mut stack = vec![attrs];
    while let Some(component) = stack.pop() {
        match bcnf_violation(fds, component) {
            None => {
                if !result.contains(&component) {
                    result.push(component);
                }
            }
            Some(v) => {
                // Split into (X ∪ Y) and (R \ Y).
                let xy = v.fd.lhs.union(v.fd.rhs);
                let rest = component.difference(v.fd.rhs);
                stack.push(xy);
                stack.push(rest);
            }
        }
    }
    // Drop components subsumed by others.
    result.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut minimal: Vec<AttrSet> = Vec::new();
    for c in result {
        if !minimal.iter().any(|m| c.is_subset(*m)) {
            minimal.push(c);
        }
    }
    minimal
}

/// 3NF synthesis (Bernstein): minimal cover, one component per distinct
/// left side, plus a key component when none contains a candidate key.
pub fn synthesize_3nf(fds: &FdSet, attrs: AttrSet) -> Vec<AttrSet> {
    let cover = minimal_cover(fds);
    // One component per distinct determinant, merging the cover's
    // dependencies that share a left side.
    let mut grouped: Vec<(AttrSet, AttrSet)> = Vec::new();
    for fd in &cover {
        match grouped.iter_mut().find(|(lhs, _)| *lhs == fd.lhs) {
            Some((_, c)) => *c = c.union(fd.attrs()),
            None => grouped.push((fd.lhs, fd.attrs())),
        }
    }
    let mut result: Vec<AttrSet> = grouped.into_iter().map(|(_, c)| c).collect();
    // Attributes mentioned in no dependency must still be covered.
    let uncovered = attrs.difference(result.iter().fold(AttrSet::EMPTY, |acc, c| acc.union(*c)));
    if !uncovered.is_empty() {
        result.push(uncovered);
    }
    // Ensure some component contains a candidate key.
    let has_key = result.iter().any(|c| is_superkey(*c, attrs, fds));
    if !has_key {
        let key = crate::armstrong::minimize_key(attrs, attrs, fds);
        result.push(key);
    }
    // Remove subsumed components.
    result.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut minimal: Vec<AttrSet> = Vec::new();
    for c in result {
        if !minimal.iter().any(|m| c.is_subset(*m)) {
            minimal.push(c);
        }
    }
    minimal
}

/// Is every dependency of `fds` preserved by the decomposition (implied
/// by the union of the projections)?
pub fn preserves_dependencies(fds: &FdSet, decomposition: &[AttrSet]) -> bool {
    let mut union = FdSet::new();
    for component in decomposition {
        for fd in &project(fds, *component) {
            union.push(*fd);
        }
    }
    fds.iter().all(|fd| crate::armstrong::implies(&union, *fd))
}

/// The lossless-join (tableau chase) test: one tableau row per
/// component, distinguished constants where the component has the
/// attribute, marked nulls elsewhere; lossless iff some row chases to
/// all-constants under `fds`.
pub fn is_lossless(fds: &FdSet, attrs: AttrSet, decomposition: &[AttrSet]) -> bool {
    // Tableau schema: the relevant attributes with singleton domains
    // {a_<attr>} — the distinguished variables.
    let attr_list: Vec<AttrId> = attrs.iter().collect();
    let mut builder = Schema::builder("tableau");
    for a in &attr_list {
        builder = builder.attribute(format!("A{}", a.0), [format!("a{}", a.0)]);
    }
    let schema = builder.build().expect("tableau schema");
    let mut tableau = Instance::new(schema);
    for component in decomposition {
        let tokens: Vec<String> = attr_list
            .iter()
            .map(|a| {
                if component.contains(*a) {
                    format!("a{}", a.0)
                } else {
                    "-".to_string()
                }
            })
            .collect();
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        tableau.add_row(&refs).expect("tableau row");
    }
    // Re-index the FDs onto the tableau's compacted attribute space.
    let compact = |set: AttrSet| -> AttrSet {
        set.intersect(attrs)
            .iter()
            .map(|a| AttrId(attr_list.iter().position(|b| *b == a).expect("attr") as u16))
            .collect()
    };
    let tableau_fds = FdSet::from_vec(
        fds.iter()
            .filter(|fd| !fd.lhs.intersect(attrs).is_empty())
            .map(|fd| Fd::new(compact(fd.lhs), compact(fd.rhs)))
            .filter(|fd| !fd.rhs.is_empty())
            .collect(),
    );
    let outcome = extended_chase(&tableau, &tableau_fds);
    debug_assert_eq!(
        outcome.nothing_classes, 0,
        "tableaux have one constant per column; conflicts are impossible"
    );
    let all = tableau.schema().all_attrs();
    let has_total = outcome.instance.tuples().any(|t| t.is_total_on(all));
    has_total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u16]) -> AttrSet {
        ids.iter().map(|i| AttrId(*i)).collect()
    }

    fn fd(lhs: &[u16], rhs: &[u16]) -> Fd {
        Fd::new(set(lhs), set(rhs))
    }

    #[test]
    fn bcnf_detection() {
        // R(A,B,C) with A→B: violated (A is not a key of ABC).
        let fds = FdSet::from_vec(vec![fd(&[0], &[1])]);
        assert!(!is_bcnf(&fds, set(&[0, 1, 2])));
        // R(A,B) with A→B: A is a key — BCNF.
        assert!(is_bcnf(&fds, set(&[0, 1])));
        // no dependencies: BCNF trivially.
        assert!(is_bcnf(&FdSet::new(), set(&[0, 1, 2])));
    }

    #[test]
    fn bcnf_decomposition_classic() {
        // R(A,B,C), A→B: decomposes into {A,B} and {A,C}.
        let fds = FdSet::from_vec(vec![fd(&[0], &[1])]);
        let mut d = bcnf_decompose(&fds, set(&[0, 1, 2]));
        d.sort();
        assert_eq!(d, vec![set(&[0, 1]), set(&[0, 2])]);
        for c in &d {
            assert!(is_bcnf(&fds, *c));
        }
        assert!(is_lossless(&fds, set(&[0, 1, 2]), &d));
    }

    #[test]
    fn bcnf_decomposition_transitive() {
        // R(A,B,C), A→B, B→C.
        let fds = FdSet::from_vec(vec![fd(&[0], &[1]), fd(&[1], &[2])]);
        let d = bcnf_decompose(&fds, set(&[0, 1, 2]));
        for c in &d {
            assert!(is_bcnf(&fds, *c), "component {c} not BCNF");
        }
        assert!(is_lossless(&fds, set(&[0, 1, 2]), &d));
        assert!(preserves_dependencies(&fds, &d));
    }

    #[test]
    fn bcnf_can_lose_dependencies() {
        // The classic non-preserving case: R(A,B,C), AB→C, C→A? hmm — use
        // the textbook SJT example: R(S,J,T), SJ→T, T→J.
        let fds = FdSet::from_vec(vec![fd(&[0, 1], &[2]), fd(&[2], &[1])]);
        let d = bcnf_decompose(&fds, set(&[0, 1, 2]));
        for c in &d {
            assert!(is_bcnf(&fds, *c));
        }
        assert!(is_lossless(&fds, set(&[0, 1, 2]), &d));
        assert!(
            !preserves_dependencies(&fds, &d),
            "SJ→T cannot be checked within any component"
        );
    }

    #[test]
    fn lossless_tableau_test() {
        // R(A,B,C), B→C: {AB, BC} lossless; {AB, AC} not.
        let fds = FdSet::from_vec(vec![fd(&[1], &[2])]);
        let all = set(&[0, 1, 2]);
        assert!(is_lossless(&fds, all, &[set(&[0, 1]), set(&[1, 2])]));
        assert!(!is_lossless(&fds, all, &[set(&[0, 1]), set(&[0, 2])]));
        // no FDs: only the full scheme joins losslessly
        assert!(!is_lossless(
            &FdSet::new(),
            all,
            &[set(&[0, 1]), set(&[1, 2])]
        ));
        assert!(is_lossless(&FdSet::new(), all, &[all]));
    }

    #[test]
    fn threenf_synthesis_preserves_and_is_lossless() {
        // R(City, Street, Zip): CS→Z, Z→C — the canonical 3NF-not-BCNF
        // scheme.
        let fds = FdSet::from_vec(vec![fd(&[0, 1], &[2]), fd(&[2], &[0])]);
        let all = set(&[0, 1, 2]);
        let d = synthesize_3nf(&fds, all);
        assert!(preserves_dependencies(&fds, &d), "3NF synthesis preserves");
        assert!(is_lossless(&fds, all, &d), "decomposition {d:?}");
    }

    #[test]
    fn threenf_covers_stray_attributes_and_keys() {
        // D is mentioned by no FD: it must appear in some component, and
        // a key component must exist.
        let fds = FdSet::from_vec(vec![fd(&[0], &[1])]);
        let all = set(&[0, 1, 2, 3]);
        let d = synthesize_3nf(&fds, all);
        let covered = d.iter().fold(AttrSet::EMPTY, |acc, c| acc.union(*c));
        assert_eq!(covered, all);
        assert!(d.iter().any(|c| is_superkey(*c, all, &fds)));
        assert!(is_lossless(&fds, all, &d));
    }

    #[test]
    fn paper_schema_decomposes_cleanly() {
        // Figure 1.1: E#→SL,D# and D#→CT on R(E#,SL,D#,CT).
        let r = crate::fixtures::figure1_schema();
        let fds = crate::fixtures::figure1_fds();
        let all = AttrSet::first_n(r.arity());
        assert!(!is_bcnf(&fds, all), "D#→CT is transitive via E#");
        let d = bcnf_decompose(&fds, all);
        for c in &d {
            assert!(is_bcnf(&fds, *c));
        }
        assert!(is_lossless(&fds, all, &d));
        assert!(preserves_dependencies(&fds, &d));
    }
}
