//! # matchrules-core
//!
//! Matching dependencies (MDs), relative candidate keys (RCKs) and their
//! reasoning — the core of a from-scratch reproduction of
//!
//! > Wenfei Fan, Xibei Jia, Jianzhong Li, Shuai Ma.
//! > *Reasoning about Record Matching Rules.* VLDB 2009.
//!
//! ## What this crate provides
//!
//! * **MDs** ([`dependency`]): rules `⋀ R1[X1[j]] ≈j R2[X2[j]] → R1[Z1] ⇌
//!   R2[Z2]` — *if these attributes of two records are pairwise similar,
//!   identify those attributes*. Unlike FDs, MDs have a **dynamic** semantics
//!   over pairs of unreliable relations and use arbitrary similarity
//!   operators obeying three generic axioms (reflexivity, symmetry,
//!   subsumption of equality).
//! * **RCKs** ([`relative_key`]): minimal keys relative to attribute lists
//!   `(Y1, Y2)` — what to compare and how, to decide whether two records
//!   refer to the same real-world entity.
//! * **Deduction** ([`deduction`], [`closure`]): the paper's `Σ |=m ϕ`
//!   relation, decided by the **MDClosure** algorithm in `O(n² + h³)` time
//!   (here with the Beeri–Bernstein rule index the paper suggests for its
//!   `O(n + h³)` refinement, built once per Σ by a [`Reasoner`] that then
//!   answers any number of questions).
//! * **findRCKs** ([`rck`], [`cost`]): deduce `m` quality RCKs under the
//!   diversity/statistics cost model of §5.
//! * **Axioms** ([`axioms`]): the executable inference steps of Lemmas
//!   3.1–3.4, cross-checked against the algorithmic deduction.
//! * **Parser** ([`parser`]): a textual MD syntax.
//! * **Negation** ([`negation`]): the §8 "cannot match" extension.
//! * **Paper settings** ([`paper`]): the running example (Example 1.1) and
//!   the §6 evaluation schemas, ready-built.
//!
//! ## Quickstart
//!
//! ```
//! use matchrules_core::paper;
//! use matchrules_core::rck::find_rcks;
//! use matchrules_core::cost::CostModel;
//!
//! // The paper's Example 1.1: credit/billing with Σc = {ϕ1, ϕ2, ϕ3}.
//! let setting = paper::example_1_1();
//! let mut cost = CostModel::uniform();
//! let outcome = find_rcks(&setting.sigma, &setting.target, 10, &mut cost);
//! assert!(outcome.complete, "small Σ is fully enumerated");
//! // Among them: ([email, tel], [email, phn] || [=, =]) — the deduced key
//! // that matches tuples whose names and addresses are full of errors.
//! for key in &outcome.keys {
//!     println!("{}", key.display(&setting.pair, &setting.ops));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod closure;
pub mod cost;
pub mod deduction;
pub mod dependency;
pub mod error;
pub mod negation;
pub mod operators;
pub mod paper;
pub mod parser;
pub mod rck;
pub mod relative_key;
pub mod schema;

pub use closure::{Closure, Reasoner};
pub use cost::CostModel;
pub use deduction::deduces;
pub use dependency::{IdentPair, MatchingDependency, SimilarityAtom};
pub use error::{CoreError, Result};
pub use operators::{OperatorId, OperatorTable};
pub use rck::{find_rcks, RckOutcome};
pub use relative_key::{RelativeKey, Target};
pub use schema::{AttrId, AttrKind, AttrRef, Attribute, Domain, Schema, SchemaPair, Side};
