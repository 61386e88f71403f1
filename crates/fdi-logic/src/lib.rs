//! # fdi-logic — three-valued logic and System-C for unknown outcomes
//!
//! Logical substrate for the reproduction of *Vassiliou, "Functional
//! Dependencies and Incomplete Information", VLDB 1980*. Section 5 of the
//! paper reduces reasoning about functional dependencies over null values
//! to reasoning about **implicational statements** in *System-C*, Bertram's
//! modal propositional logic for unknown outcomes. This crate implements
//! that logic from scratch:
//!
//! * [`truth`] — the three-valued truth lattice (`true` / `false` /
//!   `unknown`) with the paper's least-upper-bound combiner and the Kleene
//!   connectives;
//! * [`var`] — propositional variables, 64-bit variable sets, and
//!   three-valued assignments (with exhaustive enumeration);
//! * [`formula`] — System-C well-formed formulas, including the modal
//!   necessity operator `∇`;
//! * [`parser`] — a text syntax for formulas;
//! * [`eval`] — the non-truth-functional evaluation scheme `V`
//!   (tautology-first rule 1), C-tautology checking, and a compiled
//!   evaluator for repeated evaluation;
//! * [`implication`] — implicational statements `X ⇒ Y`, closed-form
//!   evaluation, and strong/weak logical inference;
//! * [`mod@derive`] — the I1–I4 derivation system with explicit, verifiable
//!   proof trees (Lemma 2), including the admissibility of Armstrong's
//!   augmentation rule;
//! * [`axioms`] — a Hilbert-style axiomatization of C (classical core +
//!   modal K/T/4/5 and necessitation, per the paper's description of
//!   [Bertram 73]) with machine-checked proof objects, sound for
//!   C-validity.
//!
//! The crate is dependency-free and usable on its own; `fdi-core` builds
//! the FD ↔ System-C bridge (Lemmas 3 and 4, Theorem 1) on top of it,
//! together with the attribute closure of relations
//! (`fdi_core::armstrong::closure`), which is the same fixpoint as
//! [`derive::closure`] over attribute sets.
//!
//! ## Example
//!
//! ```
//! use fdi_logic::parser::parse_standalone;
//! use fdi_logic::eval::{eval_c, is_c_tautology};
//! use fdi_logic::truth::Truth;
//! use fdi_logic::var::Assignment;
//!
//! // Rule 1 of the evaluation scheme: a classical tautology is true in
//! // System-C even when its variables are unknown.
//! let (formula, table) = parse_standalone("married | !married").unwrap();
//! let nothing_known = Assignment::unknown(table.len());
//! assert_eq!(eval_c(&formula, &nothing_known), Truth::True);
//! assert!(is_c_tautology(&formula));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod derive;
pub mod eval;
pub mod formula;
pub mod implication;
pub mod parser;
pub mod truth;
pub mod var;

pub use eval::{eval_c, is_c_tautology, is_tautology_2v, Compiled};
pub use formula::Formula;
pub use implication::{infers, weakly_infers, InferenceMode, Statement};
pub use truth::Truth;
pub use var::{Assignment, VarId, VarSet, VarTable};
