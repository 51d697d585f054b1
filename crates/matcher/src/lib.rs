//! # matchrules-matcher
//!
//! Record matching on top of the `matchrules` reasoning core (Fan et al.,
//! *"Reasoning about Record Matching Rules"*, VLDB 2009):
//!
//! * [`key`] — executable match keys (unions of RCKs, negative-rule vetoes);
//! * [`index`] — RCK-driven inverted indices ([`MatchIndex`]) over each
//!   anchor's distinct values (a value dictionary per atom; key, q-gram or
//!   element posting lists over its value ids) — sub-quadratic candidate
//!   generation, point-query serving and incremental insert/remove on top
//!   of the same compiled keys;
//! * [`sortkey`] / [`windowing`] — windowed candidate generation over
//!   Soundex-encoded sort keys (multi-pass unions);
//! * [`em`] / [`scoring`] — Fellegi–Sunter with EM-estimated parameters,
//!   applied as ranked matching on top of the boolean candidates: graded
//!   agreement features folded into a `[0, 1]` match confidence
//!   ([`ScoreModel`]), plus a bipartite one-to-one assignment resolver
//!   ([`resolve_one_to_one`]);
//! * [`metrics`] — precision/recall/F1 and pairs-completeness /
//!   reduction-ratio accounting;
//! * [`pipeline`] — data statistics for the cost model and the
//!   kind-driven sort keys derived from RCKs.
//!
//! The §6 baselines the paper compares against (sorted neighbourhood with
//! hand rules, Fellegi–Sunter over an equality vector, manual blocking
//! keys) live with the experiments in `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod em;
pub mod index;
pub mod key;
pub mod metrics;
pub mod pipeline;
pub mod postings;
pub mod scoring;
pub mod sortkey;
pub mod windowing;

pub use index::{IndexError, IndexStats, MatchIndex, QueryHit, QueryOutcome};
pub use key::{KeyMatcher, PairSide};
pub use metrics::{evaluate_pairs, BlockingQuality, MatchQuality};
pub use scoring::{resolve_one_to_one, resolve_one_to_one_shared, FsError, ScoreModel, ScoredEdge};
pub use sortkey::{Encoding, KeyField, SortKey};
