//! The domain-dependent substitution rules for nulls in `t[X]`
//! (§4, conditions (1) and (2)) and the `[F2]` exhaustion detector.
//!
//! §4: a null may be substituted only when exactly one option keeps the
//! dependency true. For a null in `t[Y]` that is the NS-rule of §6
//! ([`crate::chase::ns`]). For a null in `t[X]` the rule is
//! domain-dependent; one of:
//!
//! 1. all completions of `t[X]` appear in `r`, `t[Y]` is total, and
//!    exactly one completing tuple `t'` agrees with `t` on `Y` — the null
//!    takes `t'[X]`'s value;
//! 2. all completions of `t[X]` appear in `r` *except one*, `t[Y]` is
//!    total, and every completing tuple disagrees with `t` on `Y` — the
//!    null takes the absent domain value.
//!
//! The paper notes both conditions "are not easy to test … and seem
//! unlikely to occur", recommending in practice that nulls in `t[X]`
//! stay unresolved; experiment E16 measures exactly how rarely they
//! fire.
//!
//! The same completion census also decides the `[F2]` case — all
//! completions appear and *every* one of them disagrees on `Y` — which is
//! one domain-exhaustion blind spot of the Theorem 3/4 pipelines;
//! [`detect_domain_exhaustion`] lists those sites. Finding none does not
//! make the pipelines exact under finite domains: the census counts only
//! completions that appear as constants in other rows, so a tight domain
//! can still leave every completion violating `F` while the chase says
//! "weakly satisfiable" (ROADMAP direction 5).

use crate::fd::{Fd, FdSet};
use fdi_relation::attrs::AttrId;
use fdi_relation::completion::CompletionSpace;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;

/// A substitution licensed by condition (1) or (2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XSubstitution {
    /// The row whose `X`-nulls are resolved.
    pub row: RowId,
    /// Which condition licensed it (1 or 2).
    pub condition: u8,
    /// The values to write: one `(attr, value)` per null position.
    pub writes: Vec<(AttrId, Value)>,
}

/// A detected `[F2]` (domain exhaustion) site: `f(t, r) = false` forced
/// purely by domain size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustionSite {
    /// Index of the FD.
    pub fd_index: usize,
    /// The row whose evaluation is false.
    pub row: RowId,
}

/// The completion census of `t[X]` against `r`: the total number of
/// completions, the distinct ones appearing in `r`, and how the
/// completing tuples relate to `t[Y]`.
struct Census {
    total: u128,
    appearing: Vec<Vec<Value>>,
    agreeing: Vec<RowId>,
    disagreeing: Vec<RowId>,
}

fn census(fd: Fd, row: RowId, instance: &Instance) -> Result<Option<Census>, RelationError> {
    let t = instance.tuple(row);
    if !t.has_null_on(fd.lhs) || t.has_null_on(fd.rhs) {
        return Ok(None);
    }
    let total = match CompletionSpace::for_rows(instance, vec![row], fd.lhs) {
        Ok(space) => space.count(),
        Err(RelationError::UnboundedDomain { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut appearing: Vec<Vec<Value>> = Vec::new();
    let mut agreeing = Vec::new();
    let mut disagreeing = Vec::new();
    for (j, other) in instance.iter_live() {
        if j == row || !t.is_completed_by(other, fd.lhs, instance.necs()) {
            continue;
        }
        let proj: Vec<Value> = other.project(fd.lhs).collect();
        if !appearing.contains(&proj) {
            appearing.push(proj);
        }
        if other.definitely_equal_on(t, fd.rhs) {
            agreeing.push(j);
        } else {
            disagreeing.push(j);
        }
    }
    Ok(Some(Census {
        total,
        appearing,
        agreeing,
        disagreeing,
    }))
}

/// Finds every substitution licensed by conditions (1) and (2) for one
/// dependency. The instance is not modified.
pub fn find_x_substitutions(
    fd: Fd,
    instance: &Instance,
) -> Result<Vec<XSubstitution>, RelationError> {
    let fd = fd.normalized();
    let mut out = Vec::new();
    for row in instance.row_ids().collect::<Vec<_>>() {
        let Some(census) = census(fd, row, instance)? else {
            continue;
        };
        let t = instance.tuple(row);
        let all_appear = census.appearing.len() as u128 == census.total;
        let all_but_one = census.appearing.len() as u128 + 1 == census.total;
        if all_appear && census.agreeing.len() == 1 {
            // Condition (1): copy the unique agreeing completion's X.
            let donor = instance.tuple(census.agreeing[0]);
            let writes = t.nulls_on(fd.lhs).map(|(a, _)| (a, donor.get(a))).collect();
            out.push(XSubstitution {
                row,
                condition: 1,
                writes,
            });
        } else if all_but_one && census.agreeing.is_empty() && !census.disagreeing.is_empty() {
            // Condition (2): take the one absent completion. Requires
            // every completing tuple to disagree on Y with total Y values
            // (guaranteed: `definitely_equal_on` failed and the
            // completing tuples are total on X; Y-nulls in others mean
            // the disagreement is not definite — skip those).
            let all_disagree_definitely = census
                .disagreeing
                .iter()
                .all(|&j| instance.tuple(j).is_total_on(fd.rhs));
            if !all_disagree_definitely {
                continue;
            }
            if let Some(missing) = find_missing_completion(fd, row, instance, &census.appearing)? {
                let writes = t
                    .nulls_on(fd.lhs)
                    .map(|(a, _)| {
                        let idx = fd.lhs.iter().position(|b| b == a).expect("attr in lhs");
                        (a, missing[idx])
                    })
                    .collect();
                out.push(XSubstitution {
                    row,
                    condition: 2,
                    writes,
                });
            }
        }
    }
    Ok(out)
}

/// Enumerates the completions of `t[X]` and returns the unique one not
/// in `appearing` (`None` if zero or several are absent).
fn find_missing_completion(
    fd: Fd,
    row: RowId,
    instance: &Instance,
    appearing: &[Vec<Value>],
) -> Result<Option<Vec<Value>>, RelationError> {
    let space = CompletionSpace::for_rows(instance, vec![row], fd.lhs)?;
    space.check_budget(1 << 16)?;
    let mut missing = None;
    for completed in space.iter() {
        let proj: Vec<Value> = completed[0].project(fd.lhs).collect();
        if !appearing.contains(&proj) {
            if missing.is_some() {
                return Ok(None);
            }
            missing = Some(proj);
        }
    }
    Ok(missing)
}

/// Applies a substitution (writes the resolved constants).
pub fn apply_substitution(instance: &mut Instance, subst: &XSubstitution) {
    for (attr, value) in &subst.writes {
        instance.set_value(subst.row, *attr, *value);
    }
}

/// Detects every `[F2]` site: rows whose FD evaluation is false by
/// domain exhaustion (all completions of `t[X]` appear and every
/// completing tuple definitely disagrees on `Y`).
///
/// This is the "very hard, domain-dependent" test the paper warns about
/// (§4). It checks only for `[F2]` sites in the paper's sense; an empty
/// result does not certify the Theorem 3/4 weak-satisfiability
/// pipelines exact on the instance (see the module docs). Experiment
/// E17 measures the paper's claim that exhaustion vanishes once domains
/// outgrow relations.
pub fn detect_domain_exhaustion(
    fds: &FdSet,
    instance: &Instance,
) -> Result<Vec<ExhaustionSite>, RelationError> {
    let mut out = Vec::new();
    for (fd_index, fd) in fds.iter().enumerate() {
        let fd = fd.normalized();
        for row in instance.row_ids() {
            let Some(census) = census(fd, row, instance)? else {
                continue;
            };
            let all_appear = census.appearing.len() as u128 == census.total;
            let all_disagree = census.agreeing.is_empty()
                && census
                    .disagreeing
                    .iter()
                    .all(|&j| instance.tuple(j).is_total_on(fd.rhs));
            if all_appear && all_disagree && !census.disagreeing.is_empty() {
                out.push(ExhaustionSite { fd_index, row });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use fdi_relation::schema::Schema;

    fn abc(dom: usize, text: &str) -> Instance {
        Instance::parse(Schema::uniform("R", &["A", "B", "C"], dom).unwrap(), text).unwrap()
    }

    #[test]
    fn condition_one_unique_agreeing_completion() {
        // dom(A) = {A_0, A_1}; both appear; exactly one agrees on Y.
        let r = abc(2, "- B_0 C_0\nA_0 B_0 C_1\nA_1 B_1 C_1");
        let f = Fd::parse(r.schema(), "A -> B").unwrap();
        let subs = find_x_substitutions(f, &r).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].condition, 1);
        assert_eq!(subs[0].row, r.nth_row(0));
        let mut r2 = r.clone();
        apply_substitution(&mut r2, &subs[0]);
        assert_eq!(
            r2.value(r2.nth_row(0), AttrId(0)),
            r2.value(r2.nth_row(1), AttrId(0)),
            "takes A_0"
        );
    }

    #[test]
    fn condition_two_missing_completion() {
        // dom(A) = {A_0, A_1, A_2}; A_0 and A_1 appear, both disagree on
        // Y; the null must be the absent A_2.
        let r = abc(3, "- B_0 C_0\nA_0 B_1 C_1\nA_1 B_2 C_1");
        let f = Fd::parse(r.schema(), "A -> B").unwrap();
        let subs = find_x_substitutions(f, &r).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].condition, 2);
        let mut r2 = r.clone();
        apply_substitution(&mut r2, &subs[0]);
        let written = r2.value(r2.nth_row(0), AttrId(0));
        let a2 = r2.symbols().lookup("A_2").unwrap();
        assert_eq!(written, Value::Const(a2));
    }

    #[test]
    fn no_substitution_when_ambiguous() {
        // two agreeing completions → condition (1) fails.
        let r = abc(2, "- B_0 C_0\nA_0 B_0 C_1\nA_1 B_0 C_1");
        let f = Fd::parse(r.schema(), "A -> B").unwrap();
        assert!(find_x_substitutions(f, &r).unwrap().is_empty());
        // a completion missing and another agreeing → both fail.
        let r2 = abc(3, "- B_0 C_0\nA_0 B_0 C_1");
        assert!(find_x_substitutions(f, &r2).unwrap().is_empty());
    }

    #[test]
    fn substitutions_preserve_satisfiability() {
        let r = abc(2, "- B_0 C_0\nA_0 B_0 C_1\nA_1 B_1 C_1");
        let f = Fd::parse(r.schema(), "A -> B").unwrap();
        let fds = FdSet::from_vec(vec![f]);
        let subs = find_x_substitutions(f, &r).unwrap();
        let mut r2 = r.clone();
        apply_substitution(&mut r2, &subs[0]);
        // The substituted instance still (weakly) satisfies F — the rule
        // only ever picks "the only value a user can insert without
        // creating an inconsistency".
        assert!(crate::chase::weakly_satisfiable_via_chase(&fds, &r2));
        assert!(crate::interp::weakly_satisfiable_bruteforce(&fds, &r2, 1 << 16).unwrap());
    }

    #[test]
    fn exhaustion_detected_on_figure2_r4() {
        let r4 = fixtures::figure2_r4();
        let f = FdSet::from_vec(vec![fixtures::figure2_fd(&r4)]);
        let sites = detect_domain_exhaustion(&f, &r4).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].row, r4.nth_row(0));
    }

    #[test]
    fn exhaustion_vanishes_with_larger_domains() {
        // Same shape as r4 but dom(A) has a third value: no exhaustion.
        let r = abc(3, "- B_0 C_0\nA_0 B_0 C_1\nA_1 B_0 C_2");
        let f = FdSet::from_vec(vec![Fd::parse(r.schema(), "A B -> C").unwrap()]);
        assert!(detect_domain_exhaustion(&f, &r).unwrap().is_empty());
    }

    #[test]
    fn no_exhaustion_without_nulls() {
        let r = fixtures::figure1_instance();
        let fds = fixtures::figure1_fds();
        assert!(detect_domain_exhaustion(&fds, &r).unwrap().is_empty());
    }

    #[test]
    fn unbounded_domains_never_exhaust() {
        let schema = Schema::builder("R")
            .attribute_unbounded("A")
            .attribute("B", ["b0", "b1"])
            .build()
            .unwrap();
        let mut r = Instance::new(schema);
        r.add_row(&["-", "b0"]).unwrap();
        r.add_row(&["x", "b1"]).unwrap();
        let f = FdSet::from_vec(vec![Fd::parse(r.schema(), "A -> B").unwrap()]);
        assert!(detect_domain_exhaustion(&f, &r).unwrap().is_empty());
    }
}
