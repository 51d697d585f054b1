//! The schema-agnostic match engine: **compile once, match anywhere**.
//!
//! The paper's reasoning (MDClosure → relative candidate keys) is generic
//! over schemas and similarity operators; this module packages it as a
//! configurable rule engine:
//!
//! 1. [`EngineBuilder`] collects a schema pair (with per-attribute
//!    [`AttrKind`](matchrules_core::schema::AttrKind) metadata), an
//!    operator registry, MDs (textual or programmatic), and the target
//!    identity lists;
//! 2. [`EngineBuilder::compile`] runs the reasoning **once**, producing an
//!    immutable [`MatchPlan`] — the deduced top-k RCKs, the sort keys
//!    derived from them via attribute kinds, and the cost model's
//!    provenance;
//! 3. a cheap, reusable [`MatchEngine`] executes the plan over any
//!    [`Relation`](matchrules_data::relation::Relation) pair instantiating
//!    the schemas — [`MatchEngine::match_pairs`], [`MatchEngine::dedup`],
//!    [`MatchEngine::window`] — returning structured [`MatchReport`]s.
//!
//! Next to batch matching and dedup there is a third execution mode:
//! [`MatchEngine::index`] compiles the plan's RCKs into a [`MatchIndex`]
//! (per-RCK inverted indices — key buckets for equality, phonetic and
//! normalizing atoms, q-gram posting lists for edit atoms, and element
//! posting lists with a sound size-ratio prefilter for token, q-gram and
//! Jaro–Winkler atoms; every operator declares its [`OpClass`], reported
//! per plan via [`MatchPlan::atom_class`]), which answers point queries
//! ([`MatchIndex::query`]: matched ids plus which RCK fired), supports
//! incremental [`MatchIndex::insert`]/[`MatchIndex::remove`], and backs
//! [`MatchEngine::match_pairs_indexed`] — batch matching whose candidates
//! come from the index instead of sorted-neighborhood windows.
//!
//! Execution is parallel by default: the engine runs windowing, index
//! builds and pairwise key evaluation on a std-only work pool
//! (`matchrules-runtime`), configured through [`ExecConfig`] on the
//! builder ([`EngineBuilder::exec`]/[`EngineBuilder::threads`]) or per
//! engine via [`MatchEngine::with_exec`]. Parallel output is
//! **byte-identical** to serial; reports carry per-stage timings and the
//! thread count ([`MatchReport::stages`], [`MatchReport::threads`]).
//!
//! Every mode decides its candidate pairs with one verifier,
//! [`KeyMatcher`](matchrules_matcher::key::KeyMatcher), over a compiled
//! hot path: the `"prep"` stage extracts one signature cache per relation
//! for the attributes edit atoms compare, and each pair then runs cheap
//! length/bag/q-gram filters and banded edit-distance kernels on it
//! instead of per-pair dynamic dispatch. [`MatchReport::filter_stats`]
//! reports how many evaluations each filter stage rejected versus how
//! many reached the DP ([`FilterStats`]).
//!
//! The paper's own settings are just two [`Preset`] configurations of this
//! engine; nothing in the pipeline dispatches on the paper's attribute
//! names.

mod builder;
mod plan;
mod report;

/// The paper's ready-made configurations, expressed through the builder.
pub mod preset;

pub(crate) use builder::schemas_compatible;

pub use builder::{EngineBuilder, EngineError};
pub use matchrules_data::eval::{AtomStage, AtomTrace, FilterStats};
pub use matchrules_matcher::index::{
    IndexError, IndexStats, KeyTrace, MatchIndex, PairTrace, QueryHit, QueryOutcome,
};
pub use matchrules_matcher::scoring::{
    resolve_one_to_one, resolve_one_to_one_shared, ScoreModel, ScoredEdge,
};
pub use matchrules_runtime::{ExecConfig, Threads};
pub use matchrules_simdist::ops::OpClass;
pub use plan::MatchPlan;
pub use preset::Preset;
pub use report::{
    DedupReport, MatchEngine, MatchReport, MatchedPair, ResolvedDedupReport, ScoredLink, Stage,
};
