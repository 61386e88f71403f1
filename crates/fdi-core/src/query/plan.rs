//! Compiled query plans: the per-row work of
//! [`eval_signature`](super::eval_signature) hoisted
//! to compile time.
//!
//! [`eval_signature`](super::eval_signature) is exact but re-derives,
//! for *every row*, the query's attribute set, the mentioned-constant
//! set of each attribute, and each null class's domain intersection —
//! and its odometer used to clone the full tuple per iteration. A
//! [`CompiledQuery`] performs all of that once:
//!
//! * the Boolean structure is flattened into a postfix **op program**
//!   over a reusable bool stack — no tree walk, no recursion, and `In`
//!   sets become binary searches over a sorted constant pool;
//! * constant subtrees are folded away at compile time (`t[a] = t[a]`
//!   is provably certain, `t[a] ∈ ∅` provably impossible, and Boolean
//!   short-circuiting propagates both upward), so provably-decided
//!   atoms never touch a tuple;
//! * per scope attribute, the **mentioned constants** (sorted), the
//!   **resolved domain handle**, the mentioned-constants-within-domain
//!   list, and a prefix of fresh (unmentioned) domain values are
//!   precomputed — the common single-attribute null class builds its
//!   candidate list by slicing, with zero per-row allocation;
//! * a canonical byte **encoding** of the query plus an FNV-1a 64-bit
//!   **fingerprint** key plan caches (e.g. the per-epoch cache in
//!   `fdi-serve`).
//!
//! # Per-NEC-signature memoization — why it is exact
//!
//! The verdict of [`eval_signature`](super::eval_signature) on a row is
//! a pure function of the row's **in-scope signature**: for each scope
//! attribute, either the constant sitting there, `nothing`, or the NEC
//! class root of the null sitting there. Two rows with equal signatures
//! present the evaluator with identical inputs — the same class
//! grouping (roots determine which attrs share a class), the same
//! domain intersections (domains are per-attribute and fixed), the same
//! mentioned-constant sets (a property of the query), hence the same
//! candidate lists, the same completions, and the same verdict. A
//! [`SignatureMemo`] therefore caches `signature → verdict` and replays
//! verdicts for free; on shared-NEC workloads this collapses thousands
//! of odometer runs into one. Memo contents are valid only while the NEC
//! classes stay unchanged (roots are only stable between merges), so
//! each selection starts from empty memos.
//!
//! Every path here is bit-identical to the uncompiled evaluators —
//! verdicts, answer-set ordering, and first-error semantics included —
//! which the `query_equiv` proptest suite enforces at every thread
//! count.

use std::collections::HashMap;

use fdi_logic::truth::Truth;
use fdi_relation::attrs::AttrId;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::symbol::Symbol;
use fdi_relation::value::{NullId, Value};

use super::{Atom, Query, Selection};

/// One instruction of the flat postfix program. Atom ops push a bool
/// computed from the (completed) tuple; connective ops pop and push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanOp {
    /// `t[attr] = sym`.
    EqConst(AttrId, Symbol),
    /// `t[attr] ∈ pool[lo..hi]` (sorted slice of the constant pool).
    InPool(AttrId, u32, u32),
    /// `t[a] = t[b]`.
    EqAttr(AttrId, AttrId),
    /// A compile-time-folded subtree.
    Const(bool),
    /// Logical negation of the top of stack.
    Not,
    /// Conjunction of the top two stack slots.
    And,
    /// Disjunction of the top two stack slots.
    Or,
}

/// Intermediate tree used by the constant-folding pass. After folding,
/// `Const` survives only at the root (a constant operand of a
/// connective folds into its parent).
enum FoldNode {
    Const(bool),
    Eq(AttrId, Symbol),
    In(AttrId, Vec<Symbol>),
    EqAttr(AttrId, AttrId),
    Not(Box<FoldNode>),
    And(Box<FoldNode>, Box<FoldNode>),
    Or(Box<FoldNode>, Box<FoldNode>),
}

/// Reusable per-evaluator scratch space. All per-row buffers live here
/// so the row loop of [`CompiledQuery::eval`] allocates nothing after
/// warm-up; [`CompiledQuery::select_stats`] uses one for its whole
/// pass.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// NEC class roots, in first-seen (ascending-attribute) order.
    roots: Vec<NullId>,
    /// Per scope position: index into `roots`, or `NO_CLASS`.
    class_of: Vec<u8>,
    /// Flattened candidate lists (`cand_start` delimits classes).
    cand: Vec<Symbol>,
    cand_start: Vec<u32>,
    /// Domain-intersection scratch for cross-column classes.
    inter: Vec<Symbol>,
    /// Merged mentioned-constant scratch for cross-column classes.
    ment: Vec<Symbol>,
    /// Odometer digits.
    choice: Vec<u32>,
    /// The completed tuple's values (full arity).
    completed: Vec<Value>,
    /// Bool stack for the op program.
    stack: Vec<bool>,
    /// Signature key scratch.
    key: Vec<u64>,
}

const NO_CLASS: u8 = u8::MAX;

/// A `signature → verdict` cache for [`CompiledQuery`] evaluation, with
/// hit statistics. Verdicts are pure functions of the signature (see
/// the module docs), so sharing a memo across rows — or reusing it
/// across calls while the NEC store is unchanged — never changes a
/// verdict. **Clear it whenever NEC classes merge or null ids are
/// renumbered** (roots are only stable between merges). Hit/miss
/// counts depend on evaluation order and are not part of the
/// determinism contract; verdicts are.
#[derive(Debug, Default)]
pub struct SignatureMemo {
    map: HashMap<Vec<u64>, Truth>,
    hits: u64,
    misses: u64,
}

impl SignatureMemo {
    /// An empty memo.
    pub fn new() -> SignatureMemo {
        SignatureMemo::default()
    }

    /// Number of cached signatures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of verdicts replayed from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of verdicts computed and inserted.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Memo statistics from one compiled selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Verdicts replayed from the memo.
    pub hits: u64,
    /// Verdicts computed.
    pub misses: u64,
}

/// A [`Query`] compiled against an instance's schema: flat op program,
/// resolved domains, precomputed candidate material, and a fingerprint.
/// See the module docs for what is precomputed and why memoization is
/// exact.
///
/// A plan is tied to the instance's *schema* (attribute ids, domains,
/// interned query constants), so it may be evaluated against any
/// instance with that schema, whatever its rows or NEC state.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    ops: Vec<PlanOp>,
    /// Constant pool for `InPool` ops (each slice sorted).
    pool: Vec<Symbol>,
    /// Scope attributes, ascending.
    scope_attrs: Vec<AttrId>,
    /// Per scope position: sorted mentioned constants.
    mentioned: Vec<Vec<Symbol>>,
    /// Per scope position: resolved domain members (`None` = unbounded).
    domains: Vec<Option<Vec<Symbol>>>,
    /// Per scope position: mentioned constants within the domain, in
    /// domain order.
    mentioned_in_dom: Vec<Vec<Symbol>>,
    /// Per scope position: the first `|scope|` unmentioned domain
    /// values (enough fresh representatives for any class count).
    fresh_prefix: Vec<Vec<Symbol>>,
    /// Per scope position: attribute name (for error payloads).
    attr_names: Vec<String>,
    arity: usize,
    fingerprint: u64,
    /// Number of atoms decided at compile time.
    folded_atoms: usize,
}

impl CompiledQuery {
    /// Compiles `query` against `instance`'s schema.
    pub fn compile(query: &Query, instance: &Instance) -> CompiledQuery {
        let mut folded_atoms = 0usize;
        let node = fold(query, &mut folded_atoms);
        let mut ops = Vec::new();
        let mut pool = Vec::new();
        flatten(&node, &mut ops, &mut pool);

        let scope = query.attrs();
        let scope_attrs: Vec<AttrId> = scope.iter().collect();
        let scope_len = scope_attrs.len();
        let mut mentioned = Vec::with_capacity(scope_len);
        let mut domains = Vec::with_capacity(scope_len);
        let mut mentioned_in_dom = Vec::with_capacity(scope_len);
        let mut fresh_prefix = Vec::with_capacity(scope_len);
        let mut attr_names = Vec::with_capacity(scope_len);
        for &attr in &scope_attrs {
            let ment = query.mentioned_constants(attr);
            let dom = instance.domain(attr);
            let members: Option<Vec<Symbol>> = dom.is_finite().then(|| dom.members().to_vec());
            let (in_dom, fresh) = match &members {
                Some(ms) => (
                    ms.iter()
                        .copied()
                        .filter(|s| ment.binary_search(s).is_ok())
                        .collect(),
                    ms.iter()
                        .copied()
                        .filter(|s| ment.binary_search(s).is_err())
                        .take(scope_len)
                        .collect(),
                ),
                None => (Vec::new(), Vec::new()),
            };
            mentioned.push(ment);
            domains.push(members);
            mentioned_in_dom.push(in_dom);
            fresh_prefix.push(fresh);
            attr_names.push(instance.schema().attr_name(attr).to_string());
        }

        let fingerprint = fnv1a64(&encode_query(query));
        CompiledQuery {
            ops,
            pool,
            scope_attrs,
            mentioned,
            domains,
            mentioned_in_dom,
            fresh_prefix,
            attr_names,
            arity: instance.arity(),
            fingerprint,
            folded_atoms,
        }
    }

    /// The canonical byte encoding of a query — the collision-proof
    /// plan-cache key ([`CompiledQuery::fingerprint`] is its hash).
    /// `In` sets are sorted, so order-permuted `In` atoms encode
    /// identically.
    pub fn encode(query: &Query) -> Vec<u8> {
        encode_query(query)
    }

    /// FNV-1a 64-bit hash of the canonical encoding.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of atoms decided at compile time (certain / impossible).
    pub fn folded_atoms(&self) -> usize {
        self.folded_atoms
    }

    /// Number of ops in the flat program.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Runs the op program on a value accessor. Postfix over a bool
    /// stack; the stack is reused across rows.
    #[inline]
    fn run_ops(&self, stack: &mut Vec<bool>, get: impl Fn(AttrId) -> Value) -> bool {
        stack.clear();
        for op in &self.ops {
            let v = match *op {
                PlanOp::EqConst(a, s) => get(a) == Value::Const(s),
                PlanOp::InPool(a, lo, hi) => match get(a) {
                    Value::Const(c) => self.pool[lo as usize..hi as usize]
                        .binary_search(&c)
                        .is_ok(),
                    _ => false,
                },
                PlanOp::EqAttr(a, b) => get(a) == get(b),
                PlanOp::Const(b) => b,
                PlanOp::Not => {
                    let x = stack.pop().expect("plan stack underflow");
                    !x
                }
                PlanOp::And => {
                    let r = stack.pop().expect("plan stack underflow");
                    let l = stack.pop().expect("plan stack underflow");
                    l && r
                }
                PlanOp::Or => {
                    let r = stack.pop().expect("plan stack underflow");
                    let l = stack.pop().expect("plan stack underflow");
                    l || r
                }
            };
            stack.push(v);
        }
        stack.pop().expect("empty plan program")
    }

    /// Evaluates the plan on one row — bit-identical to
    /// [`eval_signature`](super::eval_signature) on the original query,
    /// verdicts and errors included. `memo` optionally caches verdicts
    /// by in-scope signature (see the module docs for exactness; pass
    /// `None` to disable).
    pub fn eval(
        &self,
        row: RowId,
        instance: &Instance,
        scratch: &mut EvalScratch,
        mut memo: Option<&mut SignatureMemo>,
    ) -> Result<Truth, RelationError> {
        let tuple = instance.tuple(row);
        let necs = instance.necs();

        // Group in-scope nulls by NEC class, in ascending-attr order.
        scratch.roots.clear();
        scratch.class_of.clear();
        scratch.class_of.resize(self.scope_attrs.len(), NO_CLASS);
        for (pos, &attr) in self.scope_attrs.iter().enumerate() {
            if let Value::Null(id) = tuple.get(attr) {
                let root = necs.find_readonly(id);
                let ci = match scratch.roots.iter().position(|r| *r == root) {
                    Some(ci) => ci,
                    None => {
                        scratch.roots.push(root);
                        scratch.roots.len() - 1
                    }
                };
                scratch.class_of[pos] = ci as u8;
            }
        }
        let k = scratch.roots.len();

        // Null-free fast path: the classical evaluator, straight off
        // the stored tuple. No signature, no memo probe.
        if k == 0 {
            return Ok(Truth::from(
                self.run_ops(&mut scratch.stack, |a| tuple.get(a)),
            ));
        }

        // Signature probe.
        if let Some(m) = memo.as_deref_mut() {
            scratch.key.clear();
            for (pos, &attr) in self.scope_attrs.iter().enumerate() {
                scratch.key.push(match tuple.get(attr) {
                    Value::Const(s) => s.0 as u64,
                    Value::Null(_) => {
                        (1u64 << 32) | scratch.roots[scratch.class_of[pos] as usize].0 as u64
                    }
                    Value::Nothing => 2u64 << 32,
                });
            }
            if let Some(&verdict) = m.map.get(scratch.key.as_slice()) {
                m.hits += 1;
                return Ok(verdict);
            }
        }

        // Candidate symbols per class: mentioned constants within the
        // class's domain intersection, plus up to k fresh values —
        // sliced from the precomputed per-attribute material for
        // single-attribute classes, intersected in scratch otherwise.
        scratch.cand.clear();
        scratch.cand_start.clear();
        scratch.cand_start.push(0);
        for ci in 0..k {
            let first_pos = scratch
                .class_of
                .iter()
                .position(|&c| c == ci as u8)
                .expect("class has a member");
            let members = scratch.class_of.iter().filter(|&&c| c == ci as u8).count();
            let Some(dom0) = self.domains[first_pos].as_deref() else {
                return Err(RelationError::UnboundedDomain {
                    attribute: self.attr_names[first_pos].clone(),
                });
            };
            if members == 1 {
                scratch
                    .cand
                    .extend_from_slice(&self.mentioned_in_dom[first_pos]);
                let fresh = &self.fresh_prefix[first_pos];
                scratch.cand.extend_from_slice(&fresh[..k.min(fresh.len())]);
            } else {
                // Cross-column class: intersect the member domains and
                // merge the member mentioned sets, in scratch buffers.
                scratch.inter.clear();
                scratch.inter.extend_from_slice(dom0);
                scratch.ment.clear();
                scratch.ment.extend_from_slice(&self.mentioned[first_pos]);
                for pos in first_pos + 1..self.scope_attrs.len() {
                    if scratch.class_of[pos] != ci as u8 {
                        continue;
                    }
                    if let Some(dom) = self.domains[pos].as_deref() {
                        let inter = &mut scratch.inter;
                        inter.retain(|s| dom.binary_search(s).is_ok());
                    }
                    scratch.ment.extend_from_slice(&self.mentioned[pos]);
                }
                scratch.ment.sort_unstable();
                scratch.ment.dedup();
                let (inter, ment) = (&scratch.inter, &scratch.ment);
                scratch.cand.extend(
                    inter
                        .iter()
                        .copied()
                        .filter(|s| ment.binary_search(s).is_ok()),
                );
                scratch.cand.extend(
                    inter
                        .iter()
                        .copied()
                        .filter(|s| ment.binary_search(s).is_err())
                        .take(k),
                );
            }
            scratch.cand_start.push(scratch.cand.len() as u32);
        }

        let class_range = |ci: usize| {
            (
                scratch.cand_start[ci] as usize,
                scratch.cand_start[ci + 1] as usize,
            )
        };
        if (0..k).any(|ci| {
            let (lo, hi) = class_range(ci);
            lo == hi
        }) {
            // Inconsistent class: no completion exists.
            if let Some(m) = memo {
                m.misses += 1;
                m.map.insert(scratch.key.clone(), Truth::Unknown);
            }
            return Ok(Truth::Unknown);
        }

        // Odometer over the candidate sets, on one scratch value
        // buffer; after incrementing digit i only digits 0..=i changed.
        scratch.completed.clear();
        scratch.completed.extend_from_slice(tuple.values());
        scratch.choice.clear();
        scratch.choice.resize(k, 0);
        for (pos, &attr) in self.scope_attrs.iter().enumerate() {
            let ci = scratch.class_of[pos];
            if ci != NO_CLASS {
                let (lo, _) = class_range(ci as usize);
                scratch.completed[attr.index()] = Value::Const(scratch.cand[lo]);
            }
        }
        let mut acc: Option<Truth> = None;
        let verdict = 'outer: loop {
            let completed = &scratch.completed;
            let classical = self.run_ops(&mut scratch.stack, |a| completed[a.index()]);
            let v = Truth::from(classical);
            acc = Some(match acc {
                None => v,
                Some(prev) => prev.combine(v),
            });
            if acc == Some(Truth::Unknown) {
                break 'outer Truth::Unknown;
            }
            let mut i = 0;
            loop {
                if i == k {
                    break 'outer acc.unwrap_or(Truth::Unknown);
                }
                let (lo, hi) = class_range(i);
                scratch.choice[i] += 1;
                let wrapped = lo + scratch.choice[i] as usize == hi;
                if wrapped {
                    scratch.choice[i] = 0;
                }
                let value = Value::Const(scratch.cand[lo + scratch.choice[i] as usize]);
                for (pos, &attr) in self.scope_attrs.iter().enumerate() {
                    if scratch.class_of[pos] == i as u8 {
                        scratch.completed[attr.index()] = value;
                    }
                }
                if !wrapped {
                    break;
                }
                i += 1;
            }
        };
        if let Some(m) = memo {
            m.misses += 1;
            m.map.insert(scratch.key.clone(), verdict);
        }
        Ok(verdict)
    }

    /// [`select`](super::select) through the compiled plan: one
    /// ascending pass over the live rows with one [`EvalScratch`] and
    /// one [`SignatureMemo`]. The `Selection` equals
    /// [`select`](super::select)'s, errors included (the reported error
    /// is the lowest erroring row's); the memo's hit/miss counts are
    /// diagnostics.
    pub fn select_stats(
        &self,
        instance: &Instance,
    ) -> Result<(Selection, MemoStats), RelationError> {
        let mut scratch = EvalScratch::default();
        let mut memo = SignatureMemo::new();
        let mut out = Selection::default();
        for (row, _) in instance.iter_live() {
            match self.eval(row, instance, &mut scratch, Some(&mut memo))? {
                Truth::True => out.sure.push(row),
                Truth::Unknown => out.maybe.push(row),
                Truth::False => {}
            }
        }
        let stats = MemoStats {
            hits: memo.hits(),
            misses: memo.misses(),
        };
        Ok((out, stats))
    }

    /// [`CompiledQuery::select_stats`]. `_exec` is never read: the
    /// parameter stays only because the end-to-end benchmark's replay
    /// passes one.
    pub fn select_par_stats(
        &self,
        instance: &Instance,
        _exec: &fdi_exec::Executor,
    ) -> Result<(Selection, MemoStats), RelationError> {
        self.select_stats(instance)
    }

    /// The arity the plan was compiled against.
    pub fn arity(&self) -> usize {
        self.arity
    }
}

/// Constant folding: decides provably-certain / provably-impossible
/// atoms (`t[a] = t[a]`, `t[a] ∈ ∅`) and short-circuits connectives
/// over them. Sound for both the classical evaluator and the
/// least-extension rule: a subtree that evaluates to the same Boolean
/// on *every* completed tuple contributes that Boolean to every
/// completion.
fn fold(query: &Query, folded: &mut usize) -> FoldNode {
    match query {
        Query::Atom(Atom::Eq(a, s)) => FoldNode::Eq(*a, *s),
        Query::Atom(Atom::In(a, ss)) => {
            let mut sorted = ss.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.is_empty() {
                *folded += 1;
                FoldNode::Const(false)
            } else {
                FoldNode::In(*a, sorted)
            }
        }
        Query::Atom(Atom::EqAttr(a, b)) => {
            if a == b {
                *folded += 1;
                FoldNode::Const(true)
            } else {
                FoldNode::EqAttr(*a, *b)
            }
        }
        Query::Not(q) => match fold(q, folded) {
            FoldNode::Const(b) => FoldNode::Const(!b),
            node => FoldNode::Not(Box::new(node)),
        },
        Query::And(p, q) => match (fold(p, folded), fold(q, folded)) {
            (FoldNode::Const(false), _) | (_, FoldNode::Const(false)) => FoldNode::Const(false),
            (FoldNode::Const(true), node) | (node, FoldNode::Const(true)) => node,
            (l, r) => FoldNode::And(Box::new(l), Box::new(r)),
        },
        Query::Or(p, q) => match (fold(p, folded), fold(q, folded)) {
            (FoldNode::Const(true), _) | (_, FoldNode::Const(true)) => FoldNode::Const(true),
            (FoldNode::Const(false), node) | (node, FoldNode::Const(false)) => node,
            (l, r) => FoldNode::Or(Box::new(l), Box::new(r)),
        },
    }
}

/// Flattens a folded tree into the postfix op program.
fn flatten(node: &FoldNode, ops: &mut Vec<PlanOp>, pool: &mut Vec<Symbol>) {
    match node {
        FoldNode::Const(b) => ops.push(PlanOp::Const(*b)),
        FoldNode::Eq(a, s) => ops.push(PlanOp::EqConst(*a, *s)),
        FoldNode::In(a, ss) => {
            let lo = pool.len() as u32;
            pool.extend_from_slice(ss);
            ops.push(PlanOp::InPool(*a, lo, pool.len() as u32));
        }
        FoldNode::EqAttr(a, b) => ops.push(PlanOp::EqAttr(*a, *b)),
        FoldNode::Not(q) => {
            flatten(q, ops, pool);
            ops.push(PlanOp::Not);
        }
        FoldNode::And(p, q) => {
            flatten(p, ops, pool);
            flatten(q, ops, pool);
            ops.push(PlanOp::And);
        }
        FoldNode::Or(p, q) => {
            flatten(p, ops, pool);
            flatten(q, ops, pool);
            ops.push(PlanOp::Or);
        }
    }
}

/// Canonical byte encoding of the *original* (unfolded) query tree.
/// `In` sets are sorted + deduplicated so semantically-identical `In`
/// atoms encode identically; everything else is structural.
fn encode_query(query: &Query) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(query, &mut out);
    out
}

fn encode_into(query: &Query, out: &mut Vec<u8>) {
    match query {
        Query::Atom(Atom::Eq(a, s)) => {
            out.push(0x01);
            out.extend_from_slice(&a.0.to_le_bytes());
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        Query::Atom(Atom::In(a, ss)) => {
            let mut sorted = ss.clone();
            sorted.sort_unstable();
            sorted.dedup();
            out.push(0x02);
            out.extend_from_slice(&a.0.to_le_bytes());
            out.extend_from_slice(&(sorted.len() as u32).to_le_bytes());
            for s in sorted {
                out.extend_from_slice(&s.0.to_le_bytes());
            }
        }
        Query::Atom(Atom::EqAttr(a, b)) => {
            out.push(0x03);
            out.extend_from_slice(&a.0.to_le_bytes());
            out.extend_from_slice(&b.0.to_le_bytes());
        }
        Query::Not(q) => {
            out.push(0x10);
            encode_into(q, out);
        }
        Query::And(p, q) => {
            out.push(0x11);
            encode_into(p, out);
            encode_into(q, out);
        }
        Query::Or(p, q) => {
            out.push(0x12);
            encode_into(p, out);
            encode_into(q, out);
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::super::{eval_signature, select};
    use super::*;
    use fdi_relation::schema::Schema;

    fn select_on(plan: &CompiledQuery, r: &Instance) -> Result<Selection, RelationError> {
        plan.select_stats(r).map(|(selection, _)| selection)
    }

    fn people() -> Instance {
        let schema = Schema::builder("People")
            .attribute("name", ["John", "Mary", "Ann"])
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        Instance::parse(schema, "John -\nMary married\nAnn single\nJohn ?x\n- -").unwrap()
    }

    #[test]
    fn compiled_eval_matches_eval_signature_row_by_row() {
        let r = people();
        let married = Query::eq_text(&r, "status", "married").unwrap();
        let single = Query::eq_text(&r, "status", "single").unwrap();
        let queries = [
            married.clone(),
            married.clone().or(single.clone()),
            married.clone().and(single.clone().not()),
            Query::eq_attrs(&r, "name", "status").unwrap(),
            married.clone().not(),
        ];
        for q in &queries {
            let plan = CompiledQuery::compile(q, &r);
            let mut scratch = EvalScratch::default();
            let mut memo = SignatureMemo::new();
            for row in r.row_ids() {
                assert_eq!(
                    plan.eval(row, &r, &mut scratch, Some(&mut memo)).unwrap(),
                    eval_signature(q, row, &r).unwrap(),
                    "query {q:?} row {row}"
                );
                // and without memo
                assert_eq!(
                    plan.eval(row, &r, &mut scratch, None).unwrap(),
                    eval_signature(q, row, &r).unwrap(),
                );
            }
        }
    }

    #[test]
    fn compiled_select_is_bit_identical() {
        let r = people();
        let married = Query::eq_text(&r, "status", "married").unwrap();
        let single = Query::eq_text(&r, "status", "single").unwrap();
        let q = married.or(single.not());
        let plan = CompiledQuery::compile(&q, &r);
        assert_eq!(select_on(&plan, &r).unwrap(), select(&q, &r).unwrap());
    }

    #[test]
    fn compiled_first_error_matches_select() {
        let schema = Schema::builder("R")
            .attribute_unbounded("name")
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        let mut r = Instance::new(schema);
        r.add_row(&["John", "married"]).unwrap();
        r.add_row(&["-", "single"]).unwrap();
        r.add_row(&["-", "married"]).unwrap();
        let q = Query::eq_text(&r, "name", "John").unwrap();
        let plan = CompiledQuery::compile(&q, &r);
        let baseline = select(&q, &r).unwrap_err();
        let err = select_on(&plan, &r).unwrap_err();
        assert_eq!(format!("{err}"), format!("{baseline}"));
    }

    #[test]
    fn memo_replays_shared_signatures() {
        // Two rows share the same NEC class (same ?x mark) and the same
        // constants on the scope attr: one odometer run, one replay.
        let schema = Schema::builder("R")
            .attribute("A", ["v1", "v2", "v3"])
            .build()
            .unwrap();
        let r = Instance::parse(schema, "?x\n?x\n?x").unwrap();
        let q = Query::eq_text(&r, "A", "v1").unwrap();
        let plan = CompiledQuery::compile(&q, &r);
        let mut scratch = EvalScratch::default();
        let mut memo = SignatureMemo::new();
        for row in r.row_ids() {
            plan.eval(row, &r, &mut scratch, Some(&mut memo)).unwrap();
        }
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn folding_decides_constant_atoms() {
        let r = people();
        let name = r.schema().attr_id("name").unwrap();
        let tautology = Query::Atom(Atom::EqAttr(name, name));
        let plan = CompiledQuery::compile(&tautology, &r);
        assert_eq!(plan.folded_atoms(), 1);
        assert_eq!(plan.op_count(), 1, "whole program folded to a constant");
        let baseline = select(&tautology, &r).unwrap();
        assert_eq!(select_on(&plan, &r).unwrap(), baseline);
        assert_eq!(baseline.sure.len(), 5, "t[a]=t[a] holds on every row");

        let impossible = Query::Atom(Atom::In(name, vec![]));
        let plan = CompiledQuery::compile(&impossible, &r);
        assert_eq!(plan.folded_atoms(), 1);
        assert_eq!(
            select_on(&plan, &r).unwrap(),
            select(&impossible, &r).unwrap()
        );
    }

    #[test]
    fn fingerprint_is_canonical_for_in_sets() {
        let r = people();
        let status = r.schema().attr_id("status").unwrap();
        let a = r.symbols().lookup("married").unwrap();
        let b = r.symbols().lookup("single").unwrap();
        let q1 = Query::Atom(Atom::In(status, vec![a, b]));
        let q2 = Query::Atom(Atom::In(status, vec![b, a, b]));
        assert_eq!(CompiledQuery::encode(&q1), CompiledQuery::encode(&q2));
        assert_eq!(
            CompiledQuery::compile(&q1, &r).fingerprint(),
            CompiledQuery::compile(&q2, &r).fingerprint()
        );
        let q3 = Query::Atom(Atom::In(status, vec![a]));
        assert_ne!(CompiledQuery::encode(&q1), CompiledQuery::encode(&q3));
    }

    #[test]
    fn cross_column_nec_class_intersects_domains() {
        // ?x spans A and B whose domains overlap on {v2}: the class
        // candidate set is the intersection.
        let schema = Schema::builder("R")
            .attribute("A", ["v1", "v2"])
            .attribute("B", ["v2", "v3"])
            .build()
            .unwrap();
        let r = Instance::parse(schema, "?x ?x").unwrap();
        let q = Query::eq_text(&r, "A", "v2")
            .unwrap()
            .and(Query::eq_text(&r, "B", "v2").unwrap());
        let plan = CompiledQuery::compile(&q, &r);
        let mut scratch = EvalScratch::default();
        for row in r.row_ids() {
            assert_eq!(
                plan.eval(row, &r, &mut scratch, None).unwrap(),
                eval_signature(&q, row, &r).unwrap(),
            );
        }
    }
}
