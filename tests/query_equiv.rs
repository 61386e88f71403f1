//! The query-compilation equivalence suite: the compiled evaluator
//! ([`CompiledQuery`]) must be **bit-identical** to the reference
//! signature evaluator on every path — per-row verdicts, whole-instance
//! answer sets (ordering included), and first-error semantics — at
//! every thread count from 1 to 8, with and without memoization, on
//! workloads that exercise shared NEC classes, cross-column classes,
//! `nothing`-bearing tuples, post-`compact()` arenas, and unbounded
//! domains. The update-stream lane holds plans compiled once to the
//! same answer as a fresh `select` after **every** op of randomized
//! update streams (compactions included).

use fd_incomplete::core::chase;
use fd_incomplete::core::query::{
    self, eval_least_extension, eval_signature, select, Atom, CompiledQuery, Query, Selection,
};
use fd_incomplete::gen::{
    extended_workload, large_workload, scaling_query, scaling_spec, update_stream, UpdateMix,
    UpdateOp, Workload,
};
use fd_incomplete::prelude::*;
use fdi_exec::Executor;
use fdi_relation::error::RelationError;
use fdi_relation::rowid::RowId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random query tree over the instance's schema: `Eq` / `In` /
/// `EqAttr` atoms (including degenerate shapes the planner folds —
/// `t[a] = t[a]`, empty and single-member `In` sets) under random
/// `Not` / `And` / `Or` connectives.
fn random_query(rng: &mut StdRng, instance: &Instance, depth: usize) -> Query {
    let arity = instance.arity();
    if depth == 0 || rng.gen_bool(0.4) {
        let attr = AttrId(rng.gen_range(0..arity) as u16);
        return match rng.gen_range(0..4) {
            0 => {
                let members = instance.domain(attr).members();
                if members.is_empty() {
                    Query::Atom(Atom::EqAttr(attr, attr))
                } else {
                    Query::Atom(Atom::Eq(attr, members[rng.gen_range(0..members.len())]))
                }
            }
            1 => {
                let members = instance.domain(attr).members();
                let take = rng.gen_range(0..=members.len().min(4));
                let mut set = Vec::new();
                for _ in 0..take {
                    set.push(members[rng.gen_range(0..members.len())]);
                }
                Query::Atom(Atom::In(attr, set))
            }
            _ => {
                let b = AttrId(rng.gen_range(0..arity) as u16);
                Query::Atom(Atom::EqAttr(attr, b))
            }
        };
    }
    let lhs = random_query(rng, instance, depth - 1);
    match rng.gen_range(0..3) {
        0 => lhs.not(),
        1 => lhs.and(random_query(rng, instance, depth - 1)),
        _ => lhs.or(random_query(rng, instance, depth - 1)),
    }
}

/// The compiled plan's whole-instance answer at `threads` threads.
fn compiled_select(
    plan: &CompiledQuery,
    instance: &Instance,
    threads: usize,
) -> Result<Selection, RelationError> {
    plan.select_par_stats(instance, &Executor::with_threads(threads))
        .map(|(selection, _)| selection)
}

/// Holds the compiled plan to the reference evaluators on one
/// instance: per-row (memoized and memo-free) against
/// [`eval_signature`], and whole-instance against [`select`] at thread
/// counts 1–8 — `Result`-level equality, so errors (payload included)
/// must match too.
fn assert_equiv(label: &str, q: &Query, instance: &Instance) {
    let plan = CompiledQuery::compile(q, instance);
    let mut scratch = query::EvalScratch::default();
    let mut memo = query::SignatureMemo::default();
    for row in instance.row_ids() {
        let reference = eval_signature(q, row, instance);
        let bare = plan.eval(row, instance, &mut scratch, None);
        assert_eq!(reference, bare, "{label}: row {row:?} (no memo)");
        let memoized = plan.eval(row, instance, &mut scratch, Some(&mut memo));
        assert_eq!(reference, memoized, "{label}: row {row:?} (memo)");
    }

    let oracle = select(q, instance);
    for threads in 1..=8 {
        assert_eq!(
            oracle,
            compiled_select(&plan, instance, threads),
            "{label}: compiled select @ {threads} threads"
        );
    }
}

/// Spot-checks [`eval_signature`] (and therefore the compiled path,
/// already held equal to it) against the brute-force
/// [`eval_least_extension`] on rows whose completion space fits the
/// budget.
fn assert_least_extension_agrees(label: &str, q: &Query, instance: &Instance) {
    const BUDGET: u128 = 1 << 14;
    for row in instance.row_ids().take(8) {
        // Err = over budget or unbounded — nothing to certify there.
        if let Ok(truth) = eval_least_extension(q, row, instance, BUDGET) {
            assert_eq!(
                Ok(truth),
                eval_signature(q, row, instance),
                "{label}: row {row:?} vs least-extension"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-NEC workloads: compiled ≡ signature ≡ select across
    /// thread counts, on the scaling query and random trees.
    #[test]
    fn compiled_matches_reference_on_large_workloads(
        seed in 0u64..1 << 32,
        rows in 10usize..48,
    ) {
        let w = large_workload(seed, rows, 0.3, 0.4, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_0000_0001);
        let mut queries = vec![scaling_query(&w.instance)];
        for _ in 0..3 {
            queries.push(random_query(&mut rng, &w.instance, 3));
        }
        for (i, q) in queries.iter().enumerate() {
            assert_equiv(&format!("large seed={seed} q{i}"), q, &w.instance);
        }
        assert_least_extension_agrees(&format!("large seed={seed}"), &queries[0], &w.instance);
    }

    /// Cross-column NEC classes and `nothing`-bearing tuples (planted
    /// conflicts pushed through the extended chase), then the same
    /// instance again after deletions and a `compact()` — verdicts must
    /// survive the arena reshuffle.
    #[test]
    fn compiled_matches_reference_on_extended_and_compacted(seed in 0u64..1 << 32) {
        let w: Workload = extended_workload(seed, 32, 3, 5, 2);
        let chased =
            chase::extended_chase(&w.instance, &w.fds, &Recorder::noop());
        let mut instance = chased.instance;
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<Query> = (0..3).map(|_| random_query(&mut rng, &instance, 3)).collect();
        for (i, q) in queries.iter().enumerate() {
            assert_equiv(&format!("extended seed={seed} q{i}"), q, &instance);
        }

        // Delete a third of the rows, compact, and re-hold equivalence
        // on the moved arena.
        let ids: Vec<RowId> = instance.row_ids().collect();
        for id in ids.iter().step_by(3) {
            instance.remove_row(*id);
        }
        let moved = instance.compact();
        prop_assert!(instance.row_ids().count() > 0);
        let _ = moved;
        for (i, q) in queries.iter().enumerate() {
            assert_equiv(&format!("compacted seed={seed} q{i}"), q, &instance);
        }
    }

    /// The update-stream lane: plans compiled once against the starting
    /// instance answer exactly like a fresh `select` after every
    /// accepted op of a randomized update stream (and after periodic
    /// compactions), at 1 and 4 threads — the database's chase, NEC
    /// merges and slot reuse never invalidate a plan.
    #[test]
    fn compiled_selection_matches_select_under_update_streams(seed in 0u64..1 << 32) {
        let start_rows = 24usize;
        let w = large_workload(seed, start_rows, 0.25, 0.3, 3);
        let mut db = Database::new(w.instance.clone(), w.fds.clone(), Enforcement::Weak)
            .expect("large_workload is weakly satisfiable");

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let queries = [scaling_query(db.instance()), random_query(&mut rng, db.instance(), 2)];
        let plans: Vec<CompiledQuery> = queries
            .iter()
            .map(|q| CompiledQuery::compile(q, db.instance()))
            .collect();
        let execs = [Executor::with_threads(1), Executor::with_threads(4)];
        let check = |db: &Database, when: &str| {
            for (q, plan) in queries.iter().zip(&plans) {
                let oracle = select(q, db.instance()).expect("finite domains");
                for exec in &execs {
                    let (compiled, _) = plan
                        .select_par_stats(db.instance(), exec)
                        .expect("finite domains");
                    assert_eq!(compiled, oracle, "{when} at {} threads", exec.threads());
                }
            }
        };

        let spec = scaling_spec(start_rows, 0.25, 0.3);
        let mix = UpdateMix { resolve: 2, ..UpdateMix::default() };
        let ops = update_stream(seed ^ 0xabcd, &spec, start_rows, 48, mix);

        // Display-order live tracker resolving the stream's positional
        // row references, mirroring `fdi_gen::apply_op`.
        let mut live: Vec<RowId> = db.instance().row_ids().collect();
        let mut applied = 0u32;
        for op in &ops {
            let outcome = match op {
                UpdateOp::Insert(tokens) => {
                    let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                    match db.insert(&refs) {
                        Ok(out) => {
                            live.push(out.row);
                            Some(out)
                        }
                        Err(_) => None,
                    }
                }
                UpdateOp::Delete(pos) => match live.get(*pos).copied() {
                    Some(row) => match db.delete(row) {
                        Ok(out) => {
                            live.remove(*pos);
                            Some(out)
                        }
                        Err(_) => None,
                    },
                    None => None,
                },
                UpdateOp::Modify { row, attr, token } => live
                    .get(*row)
                    .copied()
                    .and_then(|id| db.modify(id, *attr, token).ok()),
                UpdateOp::ResolveNull { row, attr, token } => live
                    .get(*row)
                    .copied()
                    .and_then(|id| db.resolve_null(id, *attr, token).ok()),
            };
            if outcome.is_none() {
                continue;
            }
            applied += 1;
            check(&db, &format!("after op {op:?}"));
            if applied.is_multiple_of(16) {
                let moved = db.compact();
                for &(from, to) in &moved {
                    for slot in live.iter_mut() {
                        if *slot == from {
                            *slot = to;
                        }
                    }
                }
                check(&db, "after compact");
            }
        }
    }
}

/// The memo must actually fire on workloads with shared NEC classes:
/// rows whose in-scope signatures coincide replay the cached verdict.
#[test]
fn memo_hit_rate_positive_on_shared_nec_workload() {
    let w = large_workload(7, 2000, 0.25, 0.3, 4);
    let q = scaling_query(&w.instance);
    let plan = CompiledQuery::compile(&q, &w.instance);
    let exec = Executor::with_threads(1);
    let (sel, stats) = plan
        .select_par_stats(&w.instance, &exec)
        .expect("finite domains");
    assert_eq!(sel, select(&q, &w.instance).expect("finite domains"));
    assert!(
        stats.hits > 0,
        "expected memo hits on a shared-NEC workload, got {stats:?}"
    );
    assert!(stats.misses > 0, "a fresh memo must miss at least once");
}

/// First-error semantics on unbounded domains: the compiled path must
/// report the same error (attribute payload included) as the reference,
/// from the lowest erroring row, at every thread count.
#[test]
fn unbounded_domain_first_error_is_identical() {
    let schema = Schema::builder("People")
        .attribute("dept", ["sales", "eng"])
        .attribute_unbounded("name")
        .build()
        .unwrap();
    let instance = Instance::parse(
        schema,
        "sales alice\n\
         -     bob\n\
         eng   ?x\n\
         -     ?y",
    )
    .unwrap();
    let name = instance.schema().attr_id("name").unwrap();
    let q = Query::Atom(Atom::EqAttr(name, name))
        .not()
        .or(Query::eq_text(&instance, "dept", "sales").unwrap());

    let plan = CompiledQuery::compile(&q, &instance);
    let oracle = select(&q, &instance);
    assert!(
        oracle.is_err(),
        "nulls on an unbounded attribute must error"
    );
    for threads in 1..=8 {
        assert_eq!(oracle, compiled_select(&plan, &instance, threads));
    }

    // Rows 0–1 are null-free on scope and evaluate fine; the first
    // error comes from row 2, not row 3.
    let mut scratch = query::EvalScratch::default();
    assert!(plan
        .eval(instance.nth_row(0), &instance, &mut scratch, None)
        .is_ok());
    assert_eq!(
        eval_signature(&q, instance.nth_row(2), &instance),
        plan.eval(instance.nth_row(2), &instance, &mut scratch, None)
    );
}

/// `nothing`-bearing tuples written directly in source text: the
/// compiled evaluator must agree with the reference on every mixed
/// row, including `nothing` inside and outside the query scope.
#[test]
fn nothing_tuples_match_reference() {
    let schema = Schema::builder("R")
        .attribute("A", ["a1", "a2"])
        .attribute("B", ["b1", "b2"])
        .attribute("C", ["c1", "c2"])
        .build()
        .unwrap();
    let instance = Instance::parse(
        schema,
        "a1 b1 c1\n\
         #! b1 c1\n\
         a1 #! c2\n\
         #! #! #!\n\
         ?x #! c1\n\
         a2 ?y #!",
    )
    .unwrap();
    let a = instance.schema().attr_id("A").unwrap();
    let b = instance.schema().attr_id("B").unwrap();
    let queries = [
        Query::eq_text(&instance, "A", "a1").unwrap(),
        Query::eq_text(&instance, "B", "b1").unwrap().not(),
        Query::Atom(Atom::EqAttr(a, b)),
        Query::eq_text(&instance, "A", "a2")
            .unwrap()
            .and(Query::eq_text(&instance, "C", "c1").unwrap().not()),
    ];
    for (i, q) in queries.iter().enumerate() {
        assert_equiv(&format!("nothing q{i}"), q, &instance);
    }
}
