//! # fdi-core — functional dependencies over incomplete information
//!
//! The primary contribution of *Vassiliou, "Functional Dependencies and
//! Incomplete Information", VLDB 1980*, implemented in full:
//!
//! * [`fd`] — functional dependencies and FD sets;
//! * [`interp`] — the classical FD predicate (§3) and the
//!   least-extension ground-truth evaluator (§4 definition);
//! * [`prop1`] — Proposition 1's efficient case analysis
//!   (`[T1] [T2] [T3] / [F1] [F2]` / unknown);
//! * [`satisfy`] — strong and weak satisfiability, per-FD and per-set;
//! * [`armstrong`] — attribute closure, implication, candidate keys,
//!   minimal covers, and Armstrong derivations (Theorem 1);
//! * [`equiv`] — the System-C bridge of Lemmas 3 and 4;
//! * [`groupkey`] — NEC-canonical key atoms and the one row-grouping
//!   loop: the plain chase keys its worklist buckets by these atoms,
//!   and grouped TEST-FDs groups rows with them;
//! * [`chase`] — the NS-rules of §6: the plain order-dependent engine
//!   (indexed worklist by default, all-pairs oracle retained), the
//!   extended (`nothing`) Church–Rosser engine, and the
//!   congruence-closure fast path of Theorem 4;
//! * [`testfd`] — the TEST-FDs algorithm of Figure 3 with the strong and
//!   weak null-comparison conventions of Theorems 2 and 3;
//! * [`semantics`] — the pluggable null-comparison semantics behind
//!   TEST-FDs: [`semantics::SemanticsKind`], one value per convention
//!   (the paper's strong and weak ones, the Badia–Lemire null-marker
//!   and Atzeni–Morfuni NFD alternatives) carrying its axes and derived
//!   predicates, and the differential comparison harness
//!   ([`semantics::compare`]);
//! * [`subst`] — the domain-dependent substitution rules for nulls in
//!   `t[X]` (§4 conditions (1)–(2)) and the `[F2]` exhaustion detector;
//! * [`normalize`] — BCNF/3NF decomposition and the tableau lossless-join
//!   test, which Theorem 1 licenses in the presence of nulls;
//! * [`query`] — §2's least-extension query evaluation with the
//!   exponential, signature-class, and Kleene evaluators, plus the
//!   compiled path: [`query::CompiledQuery`] (flat op programs with
//!   precomputed candidate sets and an exact NEC-signature memo);
//! * [`update`] — §7's programme of modification operations: insert,
//!   delete, modify and external null resolution, checked under one
//!   switch, the database's [`update::Enforcement`]. Weak writes run one
//!   extended chase that both decides the write and supplies internal
//!   acquisition (its closure, written back in place); strong writes
//!   use a single-tuple insert check and need no acquisition; load mode
//!   does neither;
//! * [`universal`] — the weaker universal relation assumption of §7:
//!   decompose/reconstruct round trips over instances with nulls;
//! * [`fixtures`] — every worked figure of the paper as a ready-made
//!   instance.
//!
//! # Engines
//!
//! Each engine has one entry point, and it takes (where it has work to
//! report) an `fdi-obs` [`Recorder`](fdi_obs::Recorder):
//! [`testfd::check`], [`chase::chase_plain`], [`chase::extended_chase`]
//! and [`groupkey::group_rows`]. TEST-FDs takes its null convention as
//! a plain [`semantics::SemanticsKind`] value; its pairwise variant
//! [`testfd::check_pairwise`] is the oracle it is tested against. Every
//! engine runs sequentially on the calling thread. Compiled selection,
//! [`query::CompiledQuery::select_stats`], is one ascending pass over
//! the live rows. `select_par_stats` is the same pass with an `fdi-exec`
//! executor parameter that it never reads, kept because the end-to-end
//! benchmark's replay passes one.
//! The noop recorder records nothing, so recorded and unrecorded runs
//! are one function called with different arguments.
//!
//! The extended chase needs no order replay: its closure is
//! order-insensitive (Theorem 4(a)), so [`chase::extended_chase`]
//! promises equality of the canonical materialized instance, `nothing`
//! classes, and union count with the naive oracle
//! [`chase::extended_chase_naive`]. TEST-FDs additionally promises a
//! **canonical violation witness** — the least violating pair of the
//! lowest violated FD — identical to the pairwise reference
//! [`testfd::check_pairwise`] (see [`testfd`]'s module docs). The
//! property suite (`tests/chase_equiv.rs`) enforces these contracts
//! against the oracles and holds compiled selection to the interpreted
//! `select`.
//!
//! # The two satisfaction notions, in one place
//!
//! Everything downstream hinges on §4's split (refined by the later
//! literature — Badia & Lemire's "Functional dependencies with null
//! markers" and the desirable-semantics survey keep the same axis):
//!
//! * an FD **strongly holds** when *every* completion of the nulls
//!   satisfies it — decided on any instance by TEST-FDs under the
//!   pessimistic convention ([`testfd::check_strong`], Theorem 2);
//! * a set of FDs is **weakly satisfiable** when *some* completion
//!   satisfies all of it jointly — decided by the extended chase's
//!   `nothing` test ([`chase::weakly_satisfiable_via_chase`],
//!   Theorem 4(b)); on an already minimally incomplete instance,
//!   TEST-FDs under the optimistic convention suffices
//!   ([`testfd::check_weak`], Theorem 3).
//!
//! # An index-order caveat to know about
//!
//! The plain NS-rule system is order-dependent (Figure 5), and the
//! default chase engine ([`chase::chase_plain`]) is the *indexed
//! worklist* engine: it replays the naive pair-scan engine exactly —
//! same instance, events, and pass counts — only on instances whose
//! NEC classes are **column-local** and which contain no `nothing`
//! values. On other instances both engines still return legitimate
//! minimally incomplete results, but possibly *different* ones. The
//! restriction is typed and testable: see
//! [`chase::ChaseIndexCaveat`] and [`chase::order_replay_caveats`].
//!
//! # Example — deciding both notions on a paper figure
//!
//! ```
//! use fdi_core::{chase, fixtures, testfd};
//!
//! // Figure 1.3: the employee relation with nulls, under
//! // f1: E# → SL,D# and f2: D# → CT.
//! let r = fixtures::figure1_null_instance();
//! let fds = fixtures::figure1_fds();
//!
//! // Not strongly satisfied: completing e3's null D# with d1 pairs its
//! // `part` contract against d1's `full` under f2 — some completion
//! // violates F, so the pessimistic test reports a violation …
//! assert!(testfd::check_strong(&r, &fds).is_err());
//! // … but another completion (e.g. D# := d3) satisfies everything,
//! // so F is weakly satisfiable (Theorem 4(b) via the extended chase).
//! assert!(chase::weakly_satisfiable_via_chase(&fds, &r));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod armstrong;
pub mod chase;
pub mod equiv;
pub mod fd;
pub mod fixtures;
pub mod groupkey;
pub mod interp;
pub mod normalize;
pub mod prop1;
pub mod query;
pub mod satisfy;
pub mod semantics;
pub mod subst;
pub mod testfd;
pub mod universal;
pub mod update;

pub use fd::{Fd, FdSet};
pub use fdi_logic::truth::Truth;
pub use fdi_relation::{AttrId, AttrSet, Instance, Schema};
