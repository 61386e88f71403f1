//! Incrementally-maintained answer sets: a materialized [`Selection`]
//! kept current under [`Database`](crate::update::Database) update
//! deltas.
//!
//! A full [`select`](super::select) re-evaluates every live row. But an
//! accepted update reports, in
//! [`UpdateOutcome::changed_rows`](crate::update::UpdateOutcome::changed_rows),
//! exactly the rows whose cells changed — and a row's verdict is a
//! function of its own in-scope cells, the per-attribute domains
//! (fixed), the query (fixed), and the NEC partition. So after an
//! update it suffices to re-evaluate:
//!
//! 1. the changed rows (delete = drop the verdict, anything else =
//!    re-run the compiled evaluator on the row), and
//! 2. **only if NEC classes merged**
//!    ([`UpdateOutcome::nec_merges`](crate::update::UpdateOutcome::nec_merges)
//!    ≠ 0): every live row holding an in-scope null — a merge can
//!    change a verdict without touching a cell (two independent nulls
//!    becoming equal flips `t[a] = t[b]` from `unknown` to `true`), but
//!    it can only affect rows whose in-scope signature contains a null.
//!    Rows that are null-free on the scope evaluate classically and
//!    cannot be affected. The signature memo is dropped at the same
//!    time, because memo keys embed class roots.
//!
//! Verdicts are stored per slot, so maintenance is O(touched) and
//! [`IncrementalSelection::selection`] reads out the answer sets in
//! ascending row order — bit-identical to what a fresh
//! [`select`](super::select) would return, which the `query_equiv`
//! suite asserts after every op of randomized update streams.

use fdi_logic::truth::Truth;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;

use super::plan::{CompiledQuery, EvalScratch, SharedPlan, SignatureMemo};
use super::Selection;
use crate::update::UpdateOutcome;

/// A materialized sure / maybe / no answer set for one compiled query,
/// maintained under update deltas. See the module docs for the
/// maintenance rules and why they are exact.
#[derive(Debug)]
pub struct IncrementalSelection {
    plan: SharedPlan,
    /// Per slot: the row's verdict, `None` for dead slots.
    verdicts: Vec<Option<Truth>>,
    scratch: EvalScratch,
    memo: SignatureMemo,
    /// NEC merge count at the last synchronization point.
    merge_count: usize,
    /// Row evaluations performed since construction (the efficiency
    /// counter maintenance is judged by).
    evals: u64,
}

impl IncrementalSelection {
    /// Builds the initial materialization with one full scan.
    pub fn new(
        plan: SharedPlan,
        instance: &Instance,
    ) -> Result<IncrementalSelection, RelationError> {
        let mut this = IncrementalSelection {
            plan,
            verdicts: Vec::new(),
            scratch: EvalScratch::default(),
            memo: SignatureMemo::new(),
            merge_count: instance.necs().merge_count(),
            evals: 0,
        };
        this.refresh(instance)?;
        Ok(this)
    }

    /// The compiled plan this materialization answers.
    pub fn plan(&self) -> &CompiledQuery {
        &self.plan
    }

    /// Rebuilds the materialization from scratch (full scan).
    pub fn refresh(&mut self, instance: &Instance) -> Result<(), RelationError> {
        self.memo.clear();
        self.merge_count = instance.necs().merge_count();
        self.verdicts.clear();
        self.verdicts.resize(instance.slot_bound(), None);
        for row in instance.row_ids() {
            self.verdicts[row.index()] = Some(self.eval_row(row, instance)?);
        }
        Ok(())
    }

    fn eval_row(&mut self, row: RowId, instance: &Instance) -> Result<Truth, RelationError> {
        self.evals += 1;
        self.plan
            .eval(row, instance, &mut self.scratch, Some(&mut self.memo))
    }

    /// If NEC classes merged since the last synchronization, drops the
    /// signature memo and re-evaluates every live row with an in-scope
    /// null (the only rows a merge can affect).
    fn sync_necs(&mut self, instance: &Instance) -> Result<(), RelationError> {
        let now = instance.necs().merge_count();
        if now == self.merge_count {
            return Ok(());
        }
        self.merge_count = now;
        self.memo.clear();
        let scope = self.plan.scope();
        let null_rows: Vec<RowId> = instance
            .row_ids()
            .filter(|&row| instance.tuple(row).nulls_on(scope).next().is_some())
            .collect();
        for row in null_rows {
            self.ensure_slot(row);
            self.verdicts[row.index()] = Some(self.eval_row(row, instance)?);
        }
        Ok(())
    }

    fn ensure_slot(&mut self, row: RowId) {
        if row.index() >= self.verdicts.len() {
            self.verdicts.resize(row.index() + 1, None);
        }
    }

    /// Re-evaluates the given rows (dead rows drop their verdict).
    /// Callers that apply [`Database`](crate::update::Database) ops
    /// should prefer [`IncrementalSelection::apply_outcome`], which also
    /// handles NEC merges.
    pub fn note_rows_changed(
        &mut self,
        instance: &Instance,
        rows: &[RowId],
    ) -> Result<(), RelationError> {
        for &row in rows {
            self.ensure_slot(row);
            self.verdicts[row.index()] = if instance.is_live(row) {
                Some(self.eval_row(row, instance)?)
            } else {
                None
            };
        }
        Ok(())
    }

    /// Remaps the stored verdicts after an
    /// [`Instance::compact`] / [`Database::compact`](crate::update::Database::compact)
    /// (rows move to lower slots; null ids and NEC classes are
    /// untouched, so verdicts and the memo stay valid — they just
    /// change address).
    pub fn note_compacted(&mut self, instance: &Instance, moved: &[(RowId, RowId)]) {
        let old = std::mem::take(&mut self.verdicts);
        let mut verdicts = vec![None; instance.slot_bound()];
        for row in instance.row_ids() {
            verdicts[row.index()] = old.get(row.index()).copied().flatten();
        }
        // moved pairs overwrite the identity mapping
        for &(from, to) in moved {
            verdicts[to.index()] = old.get(from.index()).copied().flatten();
        }
        self.verdicts = verdicts;
    }

    /// Applies one accepted update: NEC-merge handling first (see the
    /// module docs), then re-evaluation of exactly the changed rows.
    pub fn apply_outcome(
        &mut self,
        instance: &Instance,
        outcome: &UpdateOutcome,
    ) -> Result<(), RelationError> {
        self.sync_necs(instance)?;
        self.note_rows_changed(instance, &outcome.changed_rows)
    }

    /// Reads out the materialized answer sets, ascending by row id —
    /// bit-identical to [`select`](super::select) on the current
    /// instance.
    pub fn selection(&self) -> Selection {
        let mut out = Selection::default();
        for (slot, verdict) in self.verdicts.iter().enumerate() {
            let row = RowId(slot as u32);
            match verdict {
                Some(Truth::True) => out.sure.push(row),
                Some(Truth::Unknown) => out.maybe.push(row),
                Some(Truth::False) => out.no.push(row),
                None => {}
            }
        }
        out
    }

    /// Row evaluations performed since construction (full scans
    /// included). The incremental savings claim is exactly that this
    /// grows by `O(|changed|)` per op instead of `O(n)`.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Memo statistics for the internal signature cache.
    pub fn memo(&self) -> &SignatureMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::super::{select, Query};
    use super::*;
    use crate::fd::FdSet;
    use crate::update::{Database, Policy};
    use fdi_relation::schema::Schema;
    use std::sync::Arc;

    fn db() -> Database {
        let schema = Schema::builder("People")
            .attribute("name", ["John", "Mary", "Ann"])
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        let instance =
            Instance::parse(schema, "John -\nMary married\nAnn single\nJohn ?x").unwrap();
        let fds = FdSet::parse(instance.schema(), "name -> status").unwrap();
        Database::new(instance, fds, Policy::default()).unwrap()
    }

    #[test]
    fn tracks_inserts_modifies_deletes_and_compaction() {
        let mut db = db();
        let q = Query::eq_text(db.instance(), "status", "married").unwrap();
        let plan = Arc::new(CompiledQuery::compile(&q, db.instance()));
        let mut inc = IncrementalSelection::new(plan, db.instance()).unwrap();
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());
        let full_scan = inc.evals();

        let out = db.insert(&["Mary", "married"]).unwrap();
        inc.apply_outcome(db.instance(), &out).unwrap();
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());

        let out = db.delete(db.instance().nth_row(1)).unwrap();
        inc.apply_outcome(db.instance(), &out).unwrap();
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());

        let moved = db.compact();
        inc.note_compacted(db.instance(), &moved);
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());

        let status = db.instance().schema().attr_id("status").unwrap();
        let row0 = db.instance().nth_row(0);
        let out = db.resolve_null(row0, status, "single").unwrap();
        inc.apply_outcome(db.instance(), &out).unwrap();
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());

        // maintenance stayed O(touched): far fewer evals than four more
        // full scans would cost
        assert!(inc.evals() < full_scan * 4, "evals = {}", inc.evals());
    }

    #[test]
    fn nec_merge_reevaluates_null_rows() {
        // name -> status with propagation: inserting ("John", "-")
        // twice NEC-merges the two status nulls; an EqAttr-free query's
        // verdicts still must stay in sync.
        let schema = Schema::builder("R")
            .attribute("A", ["a1", "a2"])
            .attribute("B", ["b1", "b2"])
            .build()
            .unwrap();
        let instance = Instance::parse(schema, "a1 -").unwrap();
        let fds = FdSet::parse(instance.schema(), "A -> B").unwrap();
        let mut db = Database::new(instance, fds, Policy::default()).unwrap();
        let q = Query::eq_text(db.instance(), "B", "b1").unwrap();
        let plan = Arc::new(CompiledQuery::compile(&q, db.instance()));
        let mut inc = IncrementalSelection::new(plan, db.instance()).unwrap();

        let out = db.insert(&["a1", "-"]).unwrap();
        assert!(out.nec_merges > 0, "chase merges the two B-nulls");
        inc.apply_outcome(db.instance(), &out).unwrap();
        assert_eq!(inc.selection(), select(&q, db.instance()).unwrap());
    }
}
