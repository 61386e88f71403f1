//! Thread invariance of compiled selection, the one engine that takes an
//! `fdi-exec` executor: `CompiledQuery::select_par_stats` must be
//! **bit-identical at every thread count 1–8** and reproduce the
//! interpreted `select`.
//!
//! Coverage is deliberately adversarial for the determinism contract:
//! besides the column-local workloads of the `fdi-gen` generators, the
//! instances here are mutated to contain `nothing`-bearing rows,
//! cross-column NEC classes and nulls on determinants, and one case
//! runs over a tombstone-heavy slot arena whose leading shards are
//! nearly empty.

mod common;

use common::{arb_adversarial, tombstone_heavy_workload};
use fdi_core::query::{self, CompiledQuery, Query, Selection};
use fdi_exec::Executor;
use fdi_gen::scaling_query;
use fdi_relation::attrs::AttrId;
use fdi_relation::Instance;
use proptest::prelude::*;

/// Thread counts every property sweeps. 1 is the sequential execution
/// (the executor runs inline); the rest exercise real interleavings.
const THREADS: std::ops::RangeInclusive<usize> = 1..=8;

fn select_at(q: &Query, r: &Instance, threads: usize) -> Selection {
    CompiledQuery::compile(q, r)
        .select_par_stats(r, &Executor::with_threads(threads))
        .expect("uniform domains are finite")
        .0
}

proptest! {
    /// The compiled selection equals the interpreted `select` exactly —
    /// same rows in the same order in every answer set — at every
    /// thread count, across null-free, null-bearing, NEC-sharing, and
    /// `nothing`-bearing rows.
    #[test]
    fn parallel_select_is_bit_identical(w in arb_adversarial()) {
        let q = scaling_query(&w.instance);
        let sequential = query::select(&q, &w.instance).expect("uniform domains are finite");
        for threads in THREADS {
            prop_assert_eq!(&sequential, &select_at(&q, &w.instance, threads), "threads = {}", threads);
        }
        // a second query shape: attribute comparison across two
        // columns, exercising NEC classes and multi-class signatures
        let schema = w.instance.schema();
        let q2 = Query::eq_attrs(&w.instance, schema.attr_name(AttrId(0)), schema.attr_name(AttrId(1)))
            .expect("attrs exist");
        let sequential = query::select(&q2, &w.instance).expect("finite");
        for threads in [2usize, 5, 8] {
            prop_assert_eq!(&sequential, &select_at(&q2, &w.instance, threads), "eq_attrs, threads = {}", threads);
        }
    }
}

/// Shards over a heavily tombstoned arena still merge to the
/// interpreted result.
#[test]
fn parallel_select_survives_tombstone_heavy_arenas() {
    let w = tombstone_heavy_workload();
    let q = scaling_query(&w.instance);
    let sequential = query::select(&q, &w.instance).unwrap();
    for threads in THREADS {
        assert_eq!(
            sequential,
            select_at(&q, &w.instance, threads),
            "threads = {threads}"
        );
    }
}
