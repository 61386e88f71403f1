//! §2: queries on tuples with nulls, under the least-extension rule.
//!
//! A query is "a function from relation tuples to truth values". The
//! least-extension rule evaluates it under every substitution of the
//! tuple's nulls and returns the lub — the paper's marital-status
//! example: with `dom(status) = {married, single}` and a null status,
//!
//! * "Is John married?"            → `lub{yes, no}  = unknown`;
//! * "Is John married or single?"  → `lub{yes, yes} = yes`.
//!
//! Three evaluators are provided:
//!
//! * [`eval_least_extension`] — the definition: enumerate all
//!   completions (exponential in nulls × domain size; the paper calls
//!   this "unacceptable complexity for practical considerations");
//! * [`eval_signature`] — the syntactic-transformation idea of
//!   [Vassiliou 79]: a completion's verdict depends on a null only
//!   through (i) which *mentioned* constant it equals and (ii) its
//!   equality pattern with other nulls, so it suffices to enumerate the
//!   mentioned constants plus a bounded set of fresh representatives —
//!   polynomial, domain-size independent, and exactly equal to the least
//!   extension (property-tested);
//! * [`eval_kleene`] — truth-functional three-valued logic: cheap but
//!   *incomplete* (it answers `unknown` on "married or single").
//!
//! The [`plan`] submodule builds a performance layer on top of the
//! evaluators, without changing any verdict: [`CompiledQuery`] is a
//! query compiled once into a flat op program with resolved domain
//! handles, per-attribute mentioned-constant sets, a canonical
//! fingerprint, and per-NEC-signature memoization. It is bit-identical
//! to [`eval_signature`] and [`select`], errors included.

pub mod plan;

pub use plan::{CompiledQuery, EvalScratch, SignatureMemo};

use fdi_logic::truth::Truth;
use fdi_relation::attrs::{AttrId, AttrSet};
use fdi_relation::completion::CompletionSpace;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::symbol::Symbol;
use fdi_relation::tuple::Tuple;
use fdi_relation::value::Value;

/// An atomic predicate over one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// `t[attr] = constant`.
    Eq(AttrId, Symbol),
    /// `t[attr] ∈ {constants}`.
    In(AttrId, Vec<Symbol>),
    /// `t[a] = t[b]` (attribute comparison within the tuple).
    EqAttr(AttrId, AttrId),
}

/// A query: a Boolean combination of atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// An atomic predicate.
    Atom(Atom),
    /// Negation.
    Not(Box<Query>),
    /// Conjunction.
    And(Box<Query>, Box<Query>),
    /// Disjunction.
    Or(Box<Query>, Box<Query>),
}

impl Query {
    /// `t[attr] = constant` (constant given as text, resolved against
    /// the instance's symbols).
    pub fn eq_text(
        instance: &Instance,
        attr: &str,
        constant: &str,
    ) -> Result<Query, RelationError> {
        let a = instance.schema().attr_id(attr)?;
        let sym = instance.symbols().lookup(constant).ok_or_else(|| {
            RelationError::ConstantNotInDomain {
                constant: constant.to_string(),
                attribute: attr.to_string(),
            }
        })?;
        Ok(Query::Atom(Atom::Eq(a, sym)))
    }

    /// `t[a] = t[b]`.
    pub fn eq_attrs(instance: &Instance, a: &str, b: &str) -> Result<Query, RelationError> {
        Ok(Query::Atom(Atom::EqAttr(
            instance.schema().attr_id(a)?,
            instance.schema().attr_id(b)?,
        )))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Query {
        Query::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, rhs: Query) -> Query {
        Query::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Query) -> Query {
        Query::Or(Box::new(self), Box::new(rhs))
    }

    /// The attributes the query mentions.
    pub fn attrs(&self) -> AttrSet {
        match self {
            Query::Atom(Atom::Eq(a, _)) | Query::Atom(Atom::In(a, _)) => AttrSet::singleton(*a),
            Query::Atom(Atom::EqAttr(a, b)) => AttrSet::singleton(*a).with(*b),
            Query::Not(q) => q.attrs(),
            Query::And(p, q) | Query::Or(p, q) => p.attrs().union(q.attrs()),
        }
    }

    /// Pushes every constant the query mentions on attribute `attr`,
    /// duplicates included — callers sort + dedup once at the end
    /// instead of paying an O(m²) `contains` scan per push.
    fn mentioned_raw(&self, attr: AttrId, out: &mut Vec<Symbol>) {
        match self {
            Query::Atom(Atom::Eq(a, s)) => {
                if *a == attr {
                    out.push(*s);
                }
            }
            Query::Atom(Atom::In(a, ss)) => {
                if *a == attr {
                    out.extend_from_slice(ss);
                }
            }
            Query::Atom(Atom::EqAttr(..)) => {}
            Query::Not(q) => q.mentioned_raw(attr, out),
            Query::And(p, q) | Query::Or(p, q) => {
                p.mentioned_raw(attr, out);
                q.mentioned_raw(attr, out);
            }
        }
    }

    /// The constants the query mentions on attribute `attr`, sorted and
    /// deduplicated (so membership is a binary search).
    pub(crate) fn mentioned_constants(&self, attr: AttrId) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.mentioned_raw(attr, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Classical evaluation on a tuple total on the query's attributes.
pub fn eval_classical(query: &Query, tuple: &Tuple) -> bool {
    match query {
        Query::Atom(Atom::Eq(a, s)) => tuple.get(*a) == Value::Const(*s),
        Query::Atom(Atom::In(a, ss)) => match tuple.get(*a) {
            Value::Const(c) => ss.contains(&c),
            _ => false,
        },
        Query::Atom(Atom::EqAttr(a, b)) => tuple.get(*a) == tuple.get(*b),
        Query::Not(q) => !eval_classical(q, tuple),
        Query::And(p, q) => eval_classical(p, tuple) && eval_classical(q, tuple),
        Query::Or(p, q) => eval_classical(p, tuple) || eval_classical(q, tuple),
    }
}

/// Kleene (truth-functional) evaluation: atoms touching a null are
/// `unknown`, except that NEC-equivalent nulls compare equal under
/// [`Atom::EqAttr`].
pub fn eval_kleene(query: &Query, tuple: &Tuple, instance: &Instance) -> Truth {
    match query {
        Query::Atom(Atom::Eq(a, s)) => match tuple.get(*a) {
            Value::Const(c) => Truth::from(c == *s),
            Value::Null(_) => Truth::Unknown,
            Value::Nothing => Truth::False,
        },
        Query::Atom(Atom::In(a, ss)) => match tuple.get(*a) {
            Value::Const(c) => Truth::from(ss.contains(&c)),
            Value::Null(_) => Truth::Unknown,
            Value::Nothing => Truth::False,
        },
        Query::Atom(Atom::EqAttr(a, b)) => match (tuple.get(*a), tuple.get(*b)) {
            (Value::Const(x), Value::Const(y)) => Truth::from(x == y),
            (Value::Null(m), Value::Null(n)) if instance.necs().same_class(m, n) => Truth::True,
            _ => Truth::Unknown,
        },
        Query::Not(q) => eval_kleene(q, tuple, instance).not(),
        Query::And(p, q) => eval_kleene(p, tuple, instance).and(eval_kleene(q, tuple, instance)),
        Query::Or(p, q) => eval_kleene(p, tuple, instance).or(eval_kleene(q, tuple, instance)),
    }
}

/// The least-extension evaluation, by full completion enumeration.
pub fn eval_least_extension(
    query: &Query,
    row: fdi_relation::rowid::RowId,
    instance: &Instance,
    budget: u128,
) -> Result<Truth, RelationError> {
    let space = CompletionSpace::for_tuple(instance, row, query.attrs())?;
    space.check_budget(budget)?;
    let outcomes = space
        .iter()
        .map(|mut rows| Truth::from(eval_classical(query, &rows.pop().expect("one row"))));
    Ok(Truth::lub(outcomes).unwrap_or(Truth::Unknown))
}

/// The signature-class evaluation: per null class, only the query's
/// *mentioned* constants plus a bounded set of fresh representatives are
/// substituted. Exact (equal to [`eval_least_extension`]) because a
/// completion's verdict depends on each null only through which
/// mentioned constant it equals and its equality pattern with the other
/// nulls — `k` fresh representatives realize every such pattern for `k`
/// classes.
pub fn eval_signature(
    query: &Query,
    row: fdi_relation::rowid::RowId,
    instance: &Instance,
) -> Result<Truth, RelationError> {
    let scope = query.attrs();
    let tuple = instance.tuple(row);
    // Group the tuple's nulls in scope by NEC class.
    let necs = instance.necs();
    let mut classes: Vec<(fdi_relation::value::NullId, Vec<AttrId>)> = Vec::new();
    for (attr, null) in tuple.nulls_on(scope) {
        let root = necs.find_readonly(null);
        match classes.iter_mut().find(|(r, _)| *r == root) {
            Some((_, attrs)) => attrs.push(attr),
            None => classes.push((root, vec![attr])),
        }
    }
    if classes.is_empty() {
        return Ok(Truth::from(eval_classical(query, tuple)));
    }
    let k = classes.len();
    // Candidate symbols per class: mentioned constants within the
    // class's domain intersection, plus up to k unmentioned values.
    let mut candidates: Vec<Vec<Symbol>> = Vec::with_capacity(k);
    for (_, attrs) in &classes {
        let mut domain: Vec<Symbol> = instance.domain(attrs[0]).members().to_vec();
        if !instance.domain(attrs[0]).is_finite() {
            return Err(RelationError::UnboundedDomain {
                attribute: instance.schema().attr_name(attrs[0]).to_string(),
            });
        }
        for attr in &attrs[1..] {
            domain.retain(|s| instance.domain(*attr).contains(*s));
        }
        let mut mentioned = Vec::new();
        for attr in attrs {
            query.mentioned_raw(*attr, &mut mentioned);
        }
        mentioned.sort_unstable();
        mentioned.dedup();
        let mut cand: Vec<Symbol> = domain
            .iter()
            .copied()
            .filter(|s| mentioned.binary_search(s).is_ok())
            .collect();
        let fresh = domain
            .iter()
            .copied()
            .filter(|s| mentioned.binary_search(s).is_err())
            .take(k);
        cand.extend(fresh);
        candidates.push(cand);
    }
    // Odometer over the (small) candidate sets.
    let mut choice = vec![0usize; k];
    if candidates.iter().any(Vec::is_empty) {
        return Ok(Truth::Unknown); // inconsistent class: no completion
    }
    // One scratch tuple, written in place: after incrementing digit i
    // only digits 0..=i changed, so only those classes are rewritten.
    let mut completed = tuple.clone();
    for ((_, attrs), cands) in classes.iter().zip(candidates.iter()) {
        for attr in attrs {
            completed.set(*attr, Value::Const(cands[0]));
        }
    }
    let mut acc: Option<Truth> = None;
    loop {
        let verdict = Truth::from(eval_classical(query, &completed));
        acc = Some(match acc {
            None => verdict,
            Some(prev) => prev.combine(verdict),
        });
        if acc == Some(Truth::Unknown) {
            return Ok(Truth::Unknown);
        }
        // increment odometer
        let mut i = 0;
        loop {
            if i == k {
                return Ok(acc.unwrap_or(Truth::Unknown));
            }
            choice[i] += 1;
            let pick = if choice[i] < candidates[i].len() {
                Some(choice[i])
            } else {
                choice[i] = 0;
                None
            };
            let value = Value::Const(candidates[i][pick.unwrap_or(0)]);
            for attr in &classes[i].1 {
                completed.set(*attr, value);
            }
            if pick.is_some() {
                break;
            }
            i += 1;
        }
    }
}

/// The answer sets of a selection over an incomplete instance, in the
/// style the paper cites [Lipski 79] for: rows that **surely** satisfy
/// the query (true under every completion) and rows that **maybe**
/// satisfy it (true under some completion, false under another). Rows
/// that surely do not satisfy it are in neither set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Rows with `least-extension = true`.
    pub sure: Vec<fdi_relation::rowid::RowId>,
    /// Rows with `least-extension = unknown`.
    pub maybe: Vec<fdi_relation::rowid::RowId>,
}

/// Evaluates `query` on every row with the (exact) signature evaluator
/// and splits the rows into sure / maybe answer sets.
pub fn select(query: &Query, instance: &Instance) -> Result<Selection, RelationError> {
    let mut out = Selection::default();
    for row in instance.row_ids() {
        match eval_signature(query, row, instance)? {
            Truth::True => out.sure.push(row),
            Truth::Unknown => out.maybe.push(row),
            Truth::False => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_relation::schema::Schema;

    fn people() -> Instance {
        let schema = Schema::builder("People")
            .attribute("name", ["John", "Mary"])
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        Instance::parse(schema, "John -\nMary married").unwrap()
    }

    #[test]
    fn the_papers_marital_status_example() {
        let r = people();
        let married = Query::eq_text(&r, "status", "married").unwrap();
        let single = Query::eq_text(&r, "status", "single").unwrap();
        // "Is John married?" → unknown.
        assert_eq!(
            eval_least_extension(&married, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::Unknown
        );
        // "Is John married or single?" → yes (all substitutions agree).
        let either = married.clone().or(single);
        assert_eq!(
            eval_least_extension(&either, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::True
        );
        // Kleene misses the tautological disjunction:
        assert_eq!(
            eval_kleene(&either, r.tuple(r.nth_row(0)), &r),
            Truth::Unknown,
            "truth-functional evaluation cannot see domain coverage"
        );
        // Mary's row is definite either way.
        assert_eq!(
            eval_least_extension(&married, r.nth_row(1), &r, 1 << 10).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn signature_evaluation_matches_least_extension_on_examples() {
        let r = people();
        let married = Query::eq_text(&r, "status", "married").unwrap();
        let single = Query::eq_text(&r, "status", "single").unwrap();
        let queries = [
            married.clone(),
            single.clone(),
            married.clone().or(single.clone()),
            married.clone().and(single.clone()),
            married.clone().not(),
            married.clone().not().and(single.not()),
        ];
        for q in &queries {
            for row in r.row_ids() {
                assert_eq!(
                    eval_signature(q, row, &r).unwrap(),
                    eval_least_extension(q, row, &r, 1 << 10).unwrap(),
                    "query {q:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn signature_is_domain_size_independent() {
        // A large domain where only one constant is mentioned: the
        // signature evaluator inspects mentioned + k fresh values, not
        // the whole domain.
        let schema = Schema::uniform("R", &["A", "B"], 64).unwrap();
        let r = Instance::parse(schema, "- -").unwrap();
        let q = Query::eq_text(&r, "A", "A_7").unwrap();
        assert_eq!(
            eval_signature(&q, r.nth_row(0), &r).unwrap(),
            Truth::Unknown
        );
        let tautology = q.clone().or(q.clone().not());
        assert_eq!(
            eval_signature(&tautology, r.nth_row(0), &r).unwrap(),
            Truth::True
        );
        assert_eq!(
            eval_least_extension(&tautology, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn eq_attr_with_nec_classes() {
        let schema = Schema::builder("R")
            .attribute("A", ["v1", "v2", "v3"])
            .attribute("B", ["v1", "v2", "v3"])
            .build()
            .unwrap();
        // shared mark: A and B are the same unknown.
        let r = Instance::parse(schema.clone(), "?x ?x").unwrap();
        let q = Query::eq_attrs(&r, "A", "B").unwrap();
        assert_eq!(
            eval_least_extension(&q, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::True
        );
        assert_eq!(eval_signature(&q, r.nth_row(0), &r).unwrap(), Truth::True);
        assert_eq!(eval_kleene(&q, r.tuple(r.nth_row(0)), &r), Truth::True);
        // independent nulls: unknown.
        let r2 = Instance::parse(schema, "- -").unwrap();
        assert_eq!(
            eval_least_extension(&q, r2.nth_row(0), &r2, 1 << 10).unwrap(),
            Truth::Unknown
        );
        assert_eq!(
            eval_signature(&q, r2.nth_row(0), &r2).unwrap(),
            Truth::Unknown
        );
    }

    #[test]
    fn eq_attr_needs_multiple_fresh_representatives() {
        // dom = {v1, v2}: two independent nulls compared for equality —
        // completions give both "equal" (v1,v1) and "unequal" (v1,v2):
        // unknown. With a singleton domain they are forcibly equal: true.
        let schema = Schema::builder("R")
            .attribute("A", ["v1"])
            .attribute("B", ["v1"])
            .build()
            .unwrap();
        let r = Instance::parse(schema, "- -").unwrap();
        let q = Query::eq_attrs(&r, "A", "B").unwrap();
        assert_eq!(
            eval_least_extension(&q, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::True
        );
        assert_eq!(eval_signature(&q, r.nth_row(0), &r).unwrap(), Truth::True);
    }

    #[test]
    fn in_atoms() {
        let r = people();
        let status = r.schema().attr_id("status").unwrap();
        let both = vec![
            r.symbols().lookup("married").unwrap(),
            r.symbols().lookup("single").unwrap(),
        ];
        let q = Query::Atom(Atom::In(status, both));
        // covers the whole domain → true even on the null.
        assert_eq!(
            eval_least_extension(&q, r.nth_row(0), &r, 1 << 10).unwrap(),
            Truth::True
        );
        assert_eq!(eval_signature(&q, r.nth_row(0), &r).unwrap(), Truth::True);
    }

    #[test]
    fn selection_splits_sure_and_maybe_answers() {
        let schema = Schema::builder("People")
            .attribute("name", ["John", "Mary", "Ann"])
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        let r = Instance::parse(schema, "John -\nMary married\nAnn single").unwrap();
        let married = Query::eq_text(&r, "status", "married").unwrap();
        let sel = select(&married, &r).unwrap();
        assert_eq!(sel.maybe, vec![r.nth_row(0)], "John's status is unknown");
        assert_eq!(sel.sure, vec![r.nth_row(1)]);
        // Ann is surely not married: in neither set
        // the tautological coverage query surely selects everyone
        let single = Query::eq_text(&r, "status", "single").unwrap();
        let either = married.or(single);
        let sel = select(&either, &r).unwrap();
        assert_eq!(sel.sure, r.row_ids().collect::<Vec<_>>());
        assert!(sel.maybe.is_empty());
    }

    #[test]
    fn nothing_fails_atoms() {
        let schema = Schema::builder("R")
            .attribute("A", ["v1", "v2"])
            .build()
            .unwrap();
        let r = Instance::parse(schema, "#!").unwrap();
        let q = Query::eq_text(&r, "A", "v1").unwrap();
        assert_eq!(eval_kleene(&q, r.tuple(r.nth_row(0)), &r), Truth::False);
    }
}
