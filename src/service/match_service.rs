//! The id and response types every serving call speaks: [`RecordId`],
//! [`RuleVersion`], and the answers of
//! [`MatchServer::query`](crate::server::MatchServer::query) and
//! [`MatchServer::query_ranked`](crate::server::MatchServer::query_ranked).

use crate::engine::FilterStats;
use std::fmt;

/// Stable external identifier of a stored record. Ids are chosen by the
/// caller, never recycled by the server, and survive rule hot-swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Monotone version of the server's rule set: `v1` at construction,
/// bumped by every successful
/// [`MatchServer::swap_rules`](crate::server::MatchServer::swap_rules).
/// Stamped on every [`QueryResponse`] and
/// [`MatchExplanation`](crate::service::MatchExplanation) so callers can
/// tell which rules produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleVersion(pub(crate) u64);

impl RuleVersion {
    /// The version number (1-based).
    pub fn number(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RuleVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One query hit: a stored record the probe matches, and the RCK that
/// fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHit {
    /// Id of the matched record.
    pub id: RecordId,
    /// Index (into [`MatchPlan::rcks`](crate::engine::MatchPlan::rcks))
    /// of the first key that accepted the pair — render it with
    /// `plan.rcks()[key].display(plan.pair(), plan.ops())`.
    pub key: usize,
}

/// One ranked query hit: a stored record the probe matches, the RCK
/// that fired, and the calibrated match confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredHit {
    /// Id of the matched record.
    pub id: RecordId,
    /// Index (into [`MatchPlan::rcks`](crate::engine::MatchPlan::rcks))
    /// of the first key that accepted the pair.
    pub key: usize,
    /// Calibrated match confidence in `[0, 1]` — the plan's
    /// [`ScoreModel`](crate::engine::ScoreModel) posterior for the
    /// (probe, record) pair. Never NaN.
    pub score: f64,
}

/// The stamped answer of one
/// [`MatchServer::query_ranked`](crate::server::MatchServer::query_ranked).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResponse {
    /// The surviving hits, sorted by score descending (ties keep store
    /// order), truncated to the requested `top_k`.
    pub hits: Vec<ScoredHit>,
    /// Candidate records the index retrieved and verified for this
    /// probe (deduplicated across RCKs).
    pub candidates: usize,
    /// Key evaluations the verification ran.
    pub key_evals: usize,
    /// The rule version that produced this answer.
    pub version: RuleVersion,
}

/// The stamped answer of one
/// [`MatchServer::query`](crate::server::MatchServer::query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// The matched records, in stored (slot) order.
    pub hits: Vec<ServiceHit>,
    /// Candidate records the index retrieved and verified for this probe
    /// (deduplicated across RCKs).
    pub candidates: usize,
    /// Key evaluations the verification ran — per candidate, only the
    /// RCKs whose retrieval produced it are tried.
    pub key_evals: usize,
    /// Filter-effectiveness counters of the verification pass.
    pub stats: FilterStats,
    /// The rule version that produced this answer.
    pub version: RuleVersion,
}
