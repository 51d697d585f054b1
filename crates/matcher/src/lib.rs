//! # matchrules-matcher
//!
//! Record matching methods on top of the `matchrules` reasoning core,
//! reproducing the §6 evaluation of Fan et al., *"Reasoning about Record
//! Matching Rules"* (VLDB 2009):
//!
//! * [`key`] — executable match keys (unions of RCKs, negative-rule vetoes);
//! * [`index`] — RCK-driven inverted indices ([`MatchIndex`]): exact
//!   buckets for equality atoms, q-gram posting lists for edit atoms —
//!   sub-quadratic candidate generation, point-query serving and
//!   incremental insert/remove on top of the same compiled keys;
//! * [`em`] / [`fellegi_sunter`] — the statistical matcher of Exp-2:
//!   Fellegi–Sunter with EM-estimated parameters;
//! * [`rules`] / [`sorted_neighborhood`](mod@sorted_neighborhood) — the rule-based matcher of Exp-3:
//!   merge/purge with an equational rule set (25 hand rules vs deduced
//!   RCKs) and union-find transitive closure;
//! * [`sortkey`] / [`blocking`] / [`windowing`] — the comparison-space
//!   reduction of Exp-4 (Soundex-encoded keys, multi-pass unions);
//! * [`scoring`] — calibrated ranked matching on top of the boolean
//!   candidates: EM-weighted graded agreement features folded into a
//!   `[0, 1]` match confidence ([`ScoreModel`]), plus a bipartite
//!   one-to-one assignment resolver ([`resolve_one_to_one`]);
//! * [`metrics`] — precision/recall/F1 and pairs-completeness /
//!   reduction-ratio accounting;
//! * [`pipeline`] — the shared experiment wiring (data statistics → cost
//!   model → RCKs → keys).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod discovery;
pub mod em;
pub mod fellegi_sunter;
pub mod index;
pub mod key;
pub mod metrics;
pub mod pipeline;
pub mod postings;
pub mod rules;
pub mod scoring;
pub mod sorted_neighborhood;
pub mod sortkey;
pub mod windowing;

pub use fellegi_sunter::{FsConfig, FsError, FsMatcher};
pub use index::{IndexError, IndexStats, MatchIndex, QueryHit, QueryOutcome};
pub use key::KeyMatcher;
pub use metrics::{evaluate_pairs, BlockingQuality, MatchQuality};
pub use scoring::{
    resolve_one_to_one, resolve_one_to_one_shared, ScoreConfig, ScoreModel, ScoredEdge,
};
pub use sorted_neighborhood::{sorted_neighborhood, SnConfig, SnOutcome};
pub use sortkey::{Encoding, KeyField, SortKey};
