//! Modification operations over constrained, incomplete relations —
//! §7's on-going-work programme, built out.
//!
//! The paper closes: "more research is needed on the semantics of the
//! ways a database *acquires* information. This acquisition may be
//! internal (non-ambiguous substitution of nulls), or external
//! (modification operations by the users)." This module implements that
//! programme on top of the paper's machinery:
//!
//! * a [`Database`] couples an instance with its FD set and one
//!   maintenance switch, its [`Enforcement`] — reject updates that break
//!   **strong** satisfiability (Theorem 2: no completion may violate
//!   `F`), reject updates that break **weak** satisfiability (Theorem 4:
//!   some completion must satisfy `F`), or accept everything (load
//!   mode);
//! * **external acquisition**: [`Database::insert`],
//!   [`Database::delete`], [`Database::modify`], and
//!   [`Database::resolve_null`] (a user replaces a null with a value,
//!   checked against the constraints — "the only value a user can
//!   insert without the creation of an inconsistency", §4);
//! * **internal acquisition**: under [`Enforcement::Weak`], every
//!   accepted update writes the closure of the NS-rules back into the
//!   instance, so it stays minimally incomplete — the non-ambiguous
//!   substitutions of §6. A strongly satisfied instance is minimally
//!   incomplete already ([`Enforcement::Strong`]), and load mode
//!   ([`Enforcement::None`]) stores what it is given;
//! * a strong-convention insert is checked as a **single-tuple scan**:
//!   the new tuple against every live row, one FD at a time, under
//!   TEST-FDs' own pair predicate ([`testfd::pair_violates`]) —
//!   `O(|F| · n)` instead of a full TEST-FDs pass. Experiment E19
//!   measures the gap.
//!
//! ## Incremental maintenance
//!
//! No mutation clones the instance: rejected updates are rolled back
//! cell-by-cell instead. Rows are addressed by stable [`RowId`] slot
//! handles throughout, so a delete is a tombstone — **no survivor is
//! renumbered**. Every write ends in one check-and-acquire step that
//! runs at most one chase: one [`CellEngine`] (Theorem 4's extended
//! chase) decides weak satisfiability and supplies internal
//! acquisition, written back in place so a `?mark` keeps naming its
//! class. On a weakly satisfiable instance every order of the plain
//! NS-rules reaches that closure, so no plain chase runs. Strong
//! revalidations go through TEST-FDs ([`crate::testfd::check`]) and
//! need no acquisition (see [`Enforcement::Strong`]). The property suite
//! (`tests/update_equiv.rs`) checks after every op of arbitrary update
//! sequences that the enforced notion still holds, that a strong or weak
//! instance is minimally incomplete, and that a replay twin lands on the
//! same instance, and experiment E19 (`exp_updates`)
//! times the single-tuple scan against full revalidation.
//!
//! A *rejected* update leaves no tuple behind and changes no cell —
//! a rejected insert's slot is released outright (the arena truncates
//! its trailing slot), so the next insert re-occupies the same
//! [`RowId`] and the instance is byte-identical to one that never saw
//! the rejected update. Token parsing may still intern symbols,
//! register null marks, or advance the null-id allocator — all
//! invisible to the relational semantics (ids are never reused,
//! unreferenced symbols are inert). Long churn leaves interior
//! tombstones in the slot arena; [`Database::compact`] densifies them.
//!
//! # Example — §7's programme end to end
//!
//! ```
//! use fdi_core::fixtures;
//! use fdi_core::update::{Database, Enforcement};
//!
//! // Figure 1.2 under f1: E# → SL,D# and f2: D# → CT, weakly enforced
//! // (which always brings internal acquisition).
//! let mut db = Database::new(
//!     fixtures::figure1_instance(),
//!     fixtures::figure1_fds(),
//!     Enforcement::Weak,
//! )
//! .unwrap();
//! // e1 already earns 10K in d1, so a definitely-conflicting salary is
//! // rejected even under the optimistic notion …
//! assert!(db.insert(&["e1", "20K", "d1", "full"]).is_err());
//! // … while a new d1 employee with an unknown contract is accepted,
//! // and internal acquisition immediately fills the null cell: d1's
//! // contract type is known to be `full`.
//! let out = db.insert(&["e5", "20K", "d1", "-"]).unwrap();
//! assert_eq!(out.propagated.len(), 1);
//! assert!(db.instance().tuple(out.row).is_total_on(
//!     db.instance().schema().all_attrs()
//! ));
//! ```

use crate::chase::CellEngine;
use crate::fd::FdSet;
use crate::semantics::{self, SemanticsKind};
use crate::testfd::{self, Violation};
use fdi_relation::attrs::AttrId;
use fdi_relation::error::RelationError;
use fdi_relation::instance::Instance;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use std::fmt;

/// What a maintained database enforces on every modification — its
/// whole maintenance policy. Each notion fixes internal acquisition too:
/// `Weak` always writes the closure back, `Strong` needs none, `None`
/// does none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Enforcement {
    /// Every update must leave the instance strongly satisfied
    /// (Theorem 2's test): no completion may violate `F`.
    ///
    /// Internal acquisition has nothing to do here, so none runs. Two
    /// rows that agree on `X` in the plain rules' sense (equal
    /// constants, NEC-equivalent nulls) also agree on `X` under the
    /// strong convention, whose nulls match everything. In a strongly
    /// satisfied instance such a pair therefore never disagrees on `Y`
    /// in the strong sense: its `Y` cells are never a null beside a
    /// constant, nor two nulls of different NEC classes. Those are the
    /// only cells the plain NS-rules act on, so no rule applies.
    Strong,
    /// Every update must leave the instance weakly satisfiable
    /// (Theorem 4's test): some completion must satisfy `F`. An
    /// accepted update's closure is written back (internal
    /// acquisition), so the stored instance stays minimally incomplete.
    #[default]
    Weak,
    /// No checking and no acquisition (load mode).
    None,
}

/// The former name of a database's policy, which is now just its
/// [`Enforcement`]. Kept only for callers outside this workspace that
/// still write `Policy::default()`.
pub type Policy = Enforcement;

/// Errors raised by modifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The update would break the enforced satisfiability notion.
    Rejected {
        /// The violated dependency and rows (where known).
        violation: Option<Violation>,
        /// The enforcement that rejected it.
        enforcement: Enforcement,
    },
    /// `resolve_null` was pointed at a non-null cell.
    NotANull {
        /// Row of the cell.
        row: RowId,
        /// Attribute of the cell.
        attr: AttrId,
    },
    /// The row id names no live row (deleted, or never allocated).
    NoSuchRow(RowId),
    /// Forwarded relational error (domain membership, arity, …).
    Relation(RelationError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Rejected {
                violation,
                enforcement,
            } => match violation {
                Some(v) => write!(f, "update rejected ({enforcement:?} enforcement): {v}"),
                None => write!(f, "update rejected ({enforcement:?} enforcement)"),
            },
            UpdateError::NotANull { row, attr } => {
                write!(f, "cell ({row}, {attr}) is not a null")
            }
            UpdateError::NoSuchRow(row) => write!(f, "no row {row}"),
            UpdateError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<RelationError> for UpdateError {
    fn from(e: RelationError) -> Self {
        UpdateError::Relation(e)
    }
}

/// Outcome of an accepted modification.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The row affected (for inserts: the new row's id).
    pub row: RowId,
    /// The cells internal acquisition changed, row-major: null cells
    /// that received a constant, and null cells whose NEC class joined
    /// an earlier cell's class.
    pub propagated: Vec<(RowId, AttrId)>,
}

/// A relation instance maintained under a dependency set.
#[derive(Debug, Clone)]
pub struct Database {
    instance: Instance,
    fds: FdSet,
    enforcement: Enforcement,
    /// Metrics sink (defaults to noop; see [`Database::set_recorder`]).
    /// Clones share the same sink, matching the epoch-snapshot model:
    /// a published clone keeps reporting into the node's recorder.
    rec: fdi_obs::Recorder,
}

impl Database {
    /// Wraps an existing instance. Fails if the starting instance
    /// already violates the enforced notion; under weak enforcement the
    /// accepted instance is closed by internal acquisition.
    pub fn new(
        instance: Instance,
        fds: FdSet,
        enforcement: Enforcement,
    ) -> Result<Database, UpdateError> {
        let mut db = Database::resume(instance, fds, enforcement);
        db.enforce(None)?;
        Ok(db)
    }

    /// Wraps an instance whose state is *already known valid* under
    /// `enforcement` — the log-replay/recovery constructor. Unlike
    /// [`Database::new`] it neither re-runs the satisfiability check nor
    /// fires internal acquisition: a durability layer's snapshot was
    /// taken from a database that had both already applied, so
    /// re-deciding either here would at best waste a chase and at worst
    /// *mutate* the restored state before replay begins.
    pub fn resume(instance: Instance, fds: FdSet, enforcement: Enforcement) -> Database {
        Database {
            instance,
            fds,
            enforcement,
            rec: fdi_obs::Recorder::noop(),
        }
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The dependency set.
    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// The enforced notion (and with it, internal acquisition).
    pub fn enforcement(&self) -> Enforcement {
        self.enforcement
    }

    /// Routes this database's mutation metrics (`ops_applied`,
    /// `ops_rejected`) and its extended chase's work profile
    /// (`cell_chase_rounds`, `cell_chase_unions`) into `rec`. All are
    /// deterministic: mutations are writer-serial and the chase is
    /// sequential.
    pub fn set_recorder(&mut self, rec: fdi_obs::Recorder) {
        self.rec = rec;
    }

    /// Tallies one mutation's outcome into the recorder.
    fn record_op<T, E>(&self, result: Result<T, E>) -> Result<T, E> {
        self.rec.incr(match result {
            Ok(_) => fdi_obs::Counter::OpsApplied,
            Err(_) => fdi_obs::Counter::OpsRejected,
        });
        result
    }

    /// The one check-and-acquire step every write ends in: decides the
    /// enforced notion and, on acceptance under [`Enforcement::Weak`],
    /// applies internal acquisition in place from the same
    /// [`CellEngine`] run. On `Err` the instance is untouched, so the
    /// caller's rollback of its own edit restores it. `inserted` names a
    /// just-inserted row, the only one the strong check must scan.
    fn enforce(&mut self, inserted: Option<RowId>) -> Result<Vec<(RowId, AttrId)>, UpdateError> {
        let enforcement = self.enforcement;
        let rejected = |violation| UpdateError::Rejected {
            violation,
            enforcement,
        };
        match enforcement {
            Enforcement::Strong => {
                let violation = match inserted {
                    Some(row) => self.incremental_strong_check(row),
                    None => testfd::check_strong(&self.instance, &self.fds).err(),
                };
                violation.map_or(Ok(Vec::new()), |v| Err(rejected(Some(v))))
            }
            Enforcement::None => Ok(Vec::new()),
            Enforcement::Weak => {
                let mut engine = CellEngine::new(&self.instance);
                let rounds = engine.run(&self.fds);
                self.rec.add(fdi_obs::Counter::CellRounds, rounds as u64);
                self.rec
                    .add(fdi_obs::Counter::CellUnions, engine.union_count() as u64);
                if engine.nothing_classes() > 0 {
                    return Err(rejected(None));
                }
                Ok(engine.acquire(&mut self.instance))
            }
        }
    }

    /// Fails unless `(row, attr)` names a cell of a live row.
    fn check_cell(&self, row: RowId, attr: AttrId) -> Result<(), UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        if attr.index() >= self.instance.arity() {
            return Err(RelationError::UnknownAttribute(attr.to_string()).into());
        }
        Ok(())
    }

    /// Strong check of the candidate insert at `row`: the tuple against
    /// every other live row, one FD at a time, under TEST-FDs' own pair
    /// predicate — `O(|F| · n)`. The rest of the instance is strongly
    /// satisfied already, so every violating pair involves `row`;
    /// scanning the others in ascending order and ordering the pair
    /// (lower id, higher id) yields exactly the canonical witness
    /// [`testfd::check_strong`] reports on the whole instance.
    fn incremental_strong_check(&self, row: RowId) -> Option<Violation> {
        self.fds.iter().enumerate().find_map(|(fd_index, &fd)| {
            self.instance
                .row_ids()
                .find(|&other| {
                    other != row
                        && testfd::pair_violates(
                            &self.instance,
                            fd,
                            other,
                            row,
                            SemanticsKind::Strong,
                        )
                })
                .map(|other| Violation {
                    fd_index,
                    rows: (other.min(row), other.max(row)),
                })
        })
    }

    /// Inserts a row given as text tokens (`-`, `?mark`, `#!`,
    /// constants). A rejected row is removed again (leaving no tuple
    /// trace — see the module docs for what token parsing may intern).
    pub fn insert(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let result = self.insert_inner(tokens);
        self.record_op(result)
    }

    fn insert_inner(&mut self, tokens: &[&str]) -> Result<UpdateOutcome, UpdateError> {
        let row = self.instance.add_row(tokens)?;
        let propagated = self.enforce(Some(row)).inspect_err(|_| {
            self.instance.remove_row(row);
        })?;
        Ok(UpdateOutcome { row, propagated })
    }

    /// Deletes a row. Deletion can never break satisfiability (both
    /// notions are anti-monotone in the tuple set), so it always
    /// succeeds. The instance tombstones the slot — **no survivor is
    /// renumbered** (every other [`RowId`] stays valid).
    pub fn delete(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        let result = self.delete_inner(row);
        self.record_op(result)
    }

    fn delete_inner(&mut self, row: RowId) -> Result<UpdateOutcome, UpdateError> {
        if !self.instance.is_live(row) {
            return Err(UpdateError::NoSuchRow(row));
        }
        self.instance.remove_row(row);
        Ok(UpdateOutcome {
            row,
            propagated: Vec::new(),
        })
    }

    /// Densifies the slot arena after heavy churn
    /// ([`Instance::compact`]). Returns the old → new id pairs of every
    /// row that moved — previously held [`RowId`]s for those rows are
    /// invalidated.
    pub fn compact(&mut self) -> Vec<(RowId, RowId)> {
        let moved = self.instance.compact();
        self.rec.incr(fdi_obs::Counter::OpsApplied);
        moved
    }

    /// Replaces the value of one cell, revalidating the instance under
    /// the enforced notion. On rejection the cell is restored; a dead row
    /// or an attribute outside the schema is refused before anything
    /// changes.
    pub fn modify(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.modify_inner(row, attr, token);
        self.record_op(result)
    }

    fn modify_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        self.check_cell(row, attr)?;
        let value = self.instance.parse_value(attr, token)?;
        let old = self.instance.value(row, attr);
        self.instance.set_value(row, attr, value);
        let propagated = self
            .enforce(None)
            .inspect_err(|_| self.instance.set_value(row, attr, old))?;
        Ok(UpdateOutcome { row, propagated })
    }

    /// External acquisition: the user asserts the actual value of a
    /// null. Every occurrence of the null's NEC class receives the
    /// value, and the result is checked under the enforced notion — "the
    /// only value a user can insert without the creation of an
    /// inconsistency" (§4) is exactly a value this method accepts. On rejection every
    /// substituted cell is restored; a dead row or an attribute outside
    /// the schema is refused before anything changes.
    pub fn resolve_null(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        let result = self.resolve_null_inner(row, attr, token);
        self.record_op(result)
    }

    fn resolve_null_inner(
        &mut self,
        row: RowId,
        attr: AttrId,
        token: &str,
    ) -> Result<UpdateOutcome, UpdateError> {
        self.check_cell(row, attr)?;
        let Value::Null(id) = self.instance.value(row, attr) else {
            return Err(UpdateError::NotANull { row, attr });
        };
        let symbol = match self.instance.parse_value(attr, token)? {
            Value::Const(s) => s,
            _ => {
                return Err(UpdateError::Relation(RelationError::Parse {
                    line: 0,
                    message: format!("resolve_null needs a constant, got {token:?}"),
                }))
            }
        };
        // Substitute the whole class, remembering each change for the
        // rollback.
        let all = self.instance.schema().all_attrs();
        let rows: Vec<RowId> = self.instance.row_ids().collect();
        let mut changed: Vec<(RowId, AttrId, Value)> = Vec::new();
        for r in rows {
            for a in all.iter() {
                if let Value::Null(n) = self.instance.value(r, a) {
                    if self.instance.necs().same_class(n, id) {
                        changed.push((r, a, Value::Null(n)));
                        self.instance.set_value(r, a, Value::Const(symbol));
                    }
                }
            }
        }
        let propagated = self.enforce(None).inspect_err(|_| {
            for &(r, a, old) in &changed {
                self.instance.set_value(r, a, old);
            }
        })?;
        Ok(UpdateOutcome { row, propagated })
    }
}

/// Full revalidation insert: the baseline experiment E19 compares
/// [`Database::insert`] against.
///
/// Takes any null-comparison [`SemanticsKind`]: acceptance is
/// [`semantics::decide`] on the scratch instance (chase-then-test for
/// [`SemanticsKind::Weak`], direct TEST-FDs otherwise), so the alternative
/// semantics slot in without touching the journal. The [`Enforcement`]
/// tag on a rejection maps the strong convention to
/// [`Enforcement::Strong`] and every optimistic-family semantics to
/// [`Enforcement::Weak`] — the journal's enforcement vocabulary is
/// frozen at two values.
pub fn insert_with_full_recheck(
    instance: &mut Instance,
    fds: &FdSet,
    tokens: &[&str],
    sem: SemanticsKind,
) -> Result<RowId, UpdateError> {
    let mut scratch = instance.clone();
    let row = scratch.add_row(tokens)?;
    match semantics::decide(&scratch, fds, sem) {
        Ok(()) => {
            *instance = scratch;
            Ok(row)
        }
        Err(v) => Err(UpdateError::Rejected {
            violation: Some(v),
            enforcement: match sem {
                SemanticsKind::Strong => Enforcement::Strong,
                _ => Enforcement::Weak,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn strong_db() -> Database {
        Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Enforcement::Strong,
        )
        .expect("figure 1.2 is strongly satisfied")
    }

    #[test]
    fn inserts_respecting_fds_are_accepted() {
        let mut db = strong_db();
        let n = db.instance().len();
        let out = db
            .insert(&["e4", "20K", "d3", "part"])
            .expect("clean insert");
        assert!(db.instance().is_live(out.row));
        assert_eq!(db.instance().nth_row(n), out.row);
        assert_eq!(db.instance().len(), n + 1);
    }

    #[test]
    fn conflicting_inserts_are_rejected_under_strong() {
        let mut db = strong_db();
        // e1 already earns 10K in d1: a different salary must be rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Strong,
                ..
            }
        ));
        // nulls are also rejected under strong when they *could* collide
        let err = db.insert(&["e1", "-", "d1", "full"]).unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        assert_eq!(db.instance().len(), 3, "rejected inserts leave no trace");
    }

    #[test]
    fn weak_policy_accepts_possibly_consistent_inserts() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Enforcement::Weak,
        )
        .unwrap();
        // the null salary may later turn out to equal e1's: weakly fine
        db.insert(&["e1", "-", "d1", "full"]).expect("weakly fine");
        // a definite contradiction is still rejected
        let err = db.insert(&["e1", "20K", "d1", "full"]).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Rejected {
                enforcement: Enforcement::Weak,
                ..
            }
        ));
    }

    #[test]
    fn internal_acquisition_fills_nulls_on_insert() {
        let mut db = Database::new(
            fixtures::figure1_instance(),
            fixtures::figure1_fds(),
            Enforcement::Weak,
        )
        .unwrap();
        // d1's contract type is known (full): inserting (e5, 20K, d1, -)
        // lets the NS-rule resolve the null immediately.
        let out = db.insert(&["e5", "20K", "d1", "-"]).expect("insert");
        assert_eq!(out.propagated.len(), 1);
        let ct = db.instance().value(out.row, AttrId(3));
        assert_eq!(
            ct.render(db.instance().symbols(), false),
            "full",
            "internal acquisition: the only consistent value was substituted"
        );
    }

    #[test]
    fn resolve_null_checks_consistency() {
        let mut db = Database::new(
            fixtures::figure1_null_instance(),
            fixtures::figure1_fds(),
            Enforcement::Weak,
        )
        .unwrap();
        // e3's D# is null; resolving it to d1 forces CT=full vs e3's
        // part — contradiction, rejected.
        let e3 = db.instance().nth_row(2);
        let err = db.resolve_null(e3, AttrId(2), "d1").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }));
        // resolving to d3 is fine (no other d3 row)
        db.resolve_null(e3, AttrId(2), "d3")
            .expect("consistent value");
        assert_eq!(
            db.instance()
                .value(e3, AttrId(2))
                .render(db.instance().symbols(), false),
            "d3"
        );
        // pointing at a non-null errs
        let e1 = db.instance().nth_row(0);
        let err = db.resolve_null(e1, AttrId(0), "e1").unwrap_err();
        assert!(matches!(err, UpdateError::NotANull { .. }));
    }

    #[test]
    fn resolve_null_substitutes_the_whole_class() {
        let schema = fixtures::section6_schema();
        let r = fdi_relation::Instance::parse(schema.clone(), "a1 ?x c1\na2 ?x c2").unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut db = Database::new(r, fds, Enforcement::Weak).unwrap();
        let r0 = db.instance().nth_row(0);
        let r1 = db.instance().nth_row(1);
        db.resolve_null(r0, AttrId(1), "b1").expect("consistent");
        assert!(
            db.instance().value(r1, AttrId(1)).is_const(),
            "class-wide substitution"
        );
    }

    #[test]
    fn deletes_always_succeed_and_reindex() {
        let mut db = strong_db();
        let victim = db.instance().nth_row(1);
        db.delete(victim).expect("delete");
        assert_eq!(db.instance().len(), 2);
        assert!(db.delete(victim).is_err(), "the slot is dead now");
        assert!(db.delete(fdi_relation::RowId(99)).is_err());
        // still insertable after the delta remove
        db.insert(&["e2", "25K", "d3", "part"]).expect("reinsert");
    }

    #[test]
    fn modify_is_policy_checked() {
        let mut db = strong_db();
        let e1 = db.instance().nth_row(0);
        let e2 = db.instance().nth_row(1);
        // moving e2 into d2 would pair its `full` contract with e3's
        // `part` under D# → CT: rejected.
        let err = db.modify(e2, AttrId(2), "d2").unwrap_err();
        assert!(matches!(err, UpdateError::Rejected { .. }), "d2 is part");
        // d3 is unused: fine.
        db.modify(e2, AttrId(2), "d3").expect("no d3 rows yet");
        // and with e2 out of d1, e1's contract can change freely.
        db.modify(e1, AttrId(3), "part")
            .expect("d1 now has one member");
    }

    #[test]
    fn modify_shares_marked_nulls_with_inserts() {
        let schema = fdi_relation::Schema::builder("Staff")
            .attribute("emp", ["ada", "bob", "cyd"])
            .attribute("dept", ["sales", "eng"])
            .attribute("mgr", ["mia", "noa"])
            .build()
            .unwrap();
        let fds = FdSet::parse(&schema, "emp -> dept").unwrap();
        let base = fdi_relation::Instance::parse(schema, "ada sales mia\nbob eng noa").unwrap();
        let mut db = Database::new(base, fds, Enforcement::Weak).unwrap();
        let (ada, bob, mgr) = (RowId(0), RowId(1), AttrId(2));
        db.modify(ada, mgr, "?x").unwrap();
        db.modify(bob, mgr, "?x").unwrap();
        let cyd = db.insert(&["cyd", "eng", "?x"]).unwrap().row;
        let x = db.instance().value(ada, mgr);
        assert!(x.is_null());
        assert_eq!(db.instance().value(bob, mgr), x, "one mark, one null");
        assert_eq!(db.instance().value(cyd, mgr), x, "insert joins the mark");
        // A mark needs a name, as in a row; the cell keeps its value.
        let err = db.modify(ada, mgr, "?").unwrap_err();
        assert!(matches!(err, UpdateError::Relation(_)), "{err}");
        assert_eq!(db.instance().value(ada, mgr), x);
    }

    #[test]
    fn a_bound_mark_keeps_naming_its_class_through_acquisition() {
        // One weak insert both NEC-joins the new B null to ?x's class
        // (A -> B) and fills r0's C null with c1 (A -> C).
        let schema = fixtures::section6_schema();
        let base = fdi_relation::Instance::parse(schema.clone(), "a1 ?x -").unwrap();
        let fds = FdSet::parse(&schema, "A -> B\nA -> C").unwrap();
        let mut db = Database::new(base, fds, Enforcement::Weak).unwrap();
        let (b, c) = (AttrId(1), AttrId(2));
        let r0 = db.instance().nth_row(0);
        let x = db.instance().mark("x").expect("?x is bound");
        let r1 = db.insert(&["a1", "-", "c1"]).unwrap();
        assert_eq!(r1.propagated, vec![(r0, c), (r1.row, b)]);
        let inst = db.instance();
        assert_eq!(inst.mark("x"), Some(x), "the mark is not rebound");
        assert_eq!(inst.value(r0, b), Value::Null(x), "no null is renamed");
        let joined = inst.value(r1.row, b).as_null().unwrap();
        assert!(inst.necs().same_class(x, joined), "NEC union, not a new id");
        assert_eq!(inst.value(r0, c).render(inst.symbols(), false), "c1");
        // A later `?x` joins the merged class …
        let r2 = db.insert(&["a2", "?x", "c2"]).unwrap().row;
        assert_eq!(db.instance().value(r2, b), Value::Null(x));
        // … and a constant for any member fills every cell of the class.
        let r3 = db.insert(&["a2", "b1", "c2"]).unwrap();
        assert_eq!(r3.propagated, vec![(r0, b), (r1.row, b), (r2, b)]);
        for row in [r0, r1.row, r2] {
            let v = db.instance().value(row, b);
            assert_eq!(v.render(db.instance().symbols(), false), "b1");
        }
        assert_eq!(db.instance().mark("x"), Some(x));
    }

    #[test]
    fn out_of_range_attributes_are_refused_before_any_change() {
        let mut db = Database::new(
            fixtures::figure1_null_instance(),
            fixtures::figure1_fds(),
            Enforcement::Weak,
        )
        .unwrap();
        let state = |db: &Database| {
            let mut bytes = Vec::new();
            db.instance().encode_state(&mut bytes);
            bytes
        };
        let before = state(&db);
        let row = db.instance().nth_row(1);
        let wide = AttrId(db.instance().arity() as u16);
        let unknown = UpdateError::Relation(RelationError::UnknownAttribute(wide.to_string()));
        assert_eq!(db.modify(row, wide, "-").unwrap_err(), unknown);
        assert_eq!(db.modify(row, wide, "?m").unwrap_err(), unknown);
        assert_eq!(db.resolve_null(row, wide, "10K").unwrap_err(), unknown);
        assert!(db.modify(row, AttrId(u16::MAX), "10K").is_err());
        assert_eq!(state(&db), before, "no token parsed, no null minted");
    }

    #[test]
    fn strong_insert_lets_a_null_match_nothing() {
        // TEST-FDs' strong convention lets a null potentially match the
        // inconsistent element, so `(-, B_1)` conflicts with `(#!, B_0)`
        // under A → B exactly as `Database::new` would judge the result.
        let schema = fdi_relation::Schema::uniform("R", &["A", "B"], 2).unwrap();
        let fds = FdSet::parse(&schema, "A -> B").unwrap();
        let mut base = fdi_relation::Instance::new(schema);
        base.add_row(&["#!", "B_0"]).unwrap();
        let mut db = Database::new(base.clone(), fds.clone(), Enforcement::Strong).unwrap();
        let err = db.insert(&["-", "B_1"]).unwrap_err();
        let witness = Violation {
            fd_index: 0,
            rows: (RowId(0), RowId(1)),
        };
        assert_eq!(
            err,
            UpdateError::Rejected {
                violation: Some(witness),
                enforcement: Enforcement::Strong,
            }
        );
        assert_eq!(db.instance().len(), 1, "rejected insert leaves no trace");
        base.add_row(&["-", "B_1"]).unwrap();
        assert_eq!(testfd::check_strong(&base, &fds), Err(witness));
    }

    #[test]
    fn incremental_and_full_checks_agree() {
        // randomized agreement: the incremental insert check ≡ a full
        // TEST-FDs revalidation under strong enforcement — the whole
        // result, canonical witness included, `nothing` tokens too.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = fdi_relation::Schema::uniform("R", &["A", "B", "C"], 4).unwrap();
            let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
            let mut db = Database::new(
                fdi_relation::Instance::new(schema.clone()),
                fds.clone(),
                Enforcement::Strong,
            )
            .unwrap();
            let mut plain = fdi_relation::Instance::new(schema.clone());
            for _ in 0..24 {
                let tokens: Vec<String> = ["A", "B", "C"]
                    .iter()
                    .map(|attr| {
                        if rng.gen_bool(0.15) {
                            "-".to_string()
                        } else if rng.gen_bool(0.05) {
                            "#!".to_string()
                        } else {
                            format!("{attr}_{}", rng.gen_range(0..4))
                        }
                    })
                    .collect();
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let incremental = db.insert(&refs).map(|out| out.row);
                let full = insert_with_full_recheck(&mut plain, &fds, &refs, SemanticsKind::Strong);
                assert_eq!(incremental, full, "seed {seed}, tokens {tokens:?}");
            }
            assert_eq!(db.instance().canonical_form(), plain.canonical_form());
        }
    }
}
