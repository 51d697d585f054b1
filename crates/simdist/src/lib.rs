//! Similarity metrics and similarity *operators* for record matching.
//!
//! This crate is the metric substrate of the `matchrules` workspace, which
//! reproduces Fan, Jia, Li and Ma, *"Reasoning about Record Matching Rules"*
//! (VLDB 2009). Matching dependencies (MDs) are defined over a fixed set Θ of
//! domain-specific **similarity operators** (§2.1 of the paper). Every
//! operator `≈` must obey the paper's *generic axioms*:
//!
//! * **reflexive** — `x ≈ x`;
//! * **symmetric** — `x ≈ y` implies `y ≈ x`;
//! * **subsumes equality** — `x = y` implies `x ≈ y`;
//! * transitivity is *not* assumed (except for `=` itself), but `x ≈ y` and
//!   `y = z` imply `x ≈ z`.
//!
//! The concrete metrics provided here are those used by the paper's
//! experimental study and by the record-matching literature it cites:
//!
//! * [`edit`] — Levenshtein and Damerau–Levenshtein edit distances. The
//!   paper's experiments (§6.2) use the DL metric with the threshold rule
//!   `a ≈θ b ⇔ dl(a, b) ≤ (1 − θ) · max(|a|, |b|)`, θ = 0.8. The
//!   thresholded kernels ([`edit::levenshtein_within`],
//!   [`edit::damerau_levenshtein_within`]) are banded with early exit;
//!   the exact distances serve as their test oracles.
//! * [`filters`] — length, character-bag and positional q-gram count
//!   filters that reject non-matches before any DP runs, all sound for
//!   the OSA Damerau–Levenshtein distance.
//! * [`jaro`] — Jaro and Jaro–Winkler similarity (Fellegi–Sunter lineage).
//! * [`qgram`] — q-gram profiles with Dice / Jaccard / overlap coefficients.
//! * [`phonetic`] — Soundex, used by §6 Exp-4 to encode names for blocking.
//! * [`token`] — token-set similarity for multi-word fields such as
//!   addresses.
//! * [`ops`] — the [`ops::SimilarityOp`] trait with each operator's
//!   [`ops::OpClass`] (how it is evaluated and indexed), thresholded
//!   operator wrappers, synonym-table operators (the paper's §8 "constant
//!   transformation" extension), and the runtime [`ops::OpRegistry`]
//!   that maps the symbolic operators of the reasoning core to executable
//!   predicates.
//! * [`normalize`] — light data standardization (case folding, whitespace and
//!   punctuation normalization), which the paper assumes has been applied
//!   before matching (§2.1).
//!
//! # Quick example
//!
//! ```
//! use matchrules_simdist::edit::damerau_levenshtein;
//! use matchrules_simdist::ops::{DamerauOp, SimilarityOp};
//!
//! assert_eq!(damerau_levenshtein("Mark", "Marx"), 1);
//! let op = DamerauOp::with_threshold(0.8);
//! assert!(op.matches("Clifford", "Cliford"));
//! assert!(!op.matches("Clifford", "Smith"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edit;
pub mod filters;
pub mod jaro;
pub mod normalize;
pub mod ops;
pub mod phonetic;
pub mod qgram;
pub mod token;

pub use ops::{OpRegistry, SimilarityOp};
