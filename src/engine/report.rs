//! [`MatchEngine`]: execute a compiled [`MatchPlan`] over relation pairs;
//! [`MatchReport`]: what came back.

use crate::engine::builder::EngineError;
use crate::engine::plan::MatchPlan;
use matchrules_core::schema::Side;
use matchrules_data::dirty::GroundTruth;
use matchrules_data::enforce::{enforce, EnforceOutcome};
use matchrules_data::eval::{FilterStats, RuntimeOps};
use matchrules_data::relation::{InstancePair, Relation, TupleId};
use matchrules_data::unionfind::UnionFind;
use matchrules_matcher::index::{MatchIndex, QueryHit};
use matchrules_matcher::key::{KeyMatcher, PairSide, PAR_MATCH_MIN_CHUNK};
use matchrules_matcher::metrics::{evaluate_pairs, MatchQuality};
use matchrules_matcher::scoring::{resolve_one_to_one, resolve_one_to_one_shared, ScoredEdge};
use matchrules_matcher::windowing::multi_pass_window_in;
use matchrules_runtime::{ordered_reduce, ExecConfig, WorkPool};
use matchrules_simdist::ops::OpRegistry;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum probes per chunk when the indexed batch path runs over the
/// pool: one probe (retrieval plus verification) is tens of
/// microseconds, so smaller chunks would be claiming overhead.
const PROBE_MIN_CHUNK: usize = 16;

/// One matched tuple pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedPair {
    /// Position of the left tuple in its relation.
    pub left: usize,
    /// Position of the right tuple in its relation.
    pub right: usize,
    /// Id of the left tuple.
    pub left_id: TupleId,
    /// Id of the right tuple.
    pub right_id: TupleId,
    /// Index (into the plan's RCK list) of the first key that matched.
    pub key: usize,
}

/// Wall-clock timing of one named stage of an engine run (candidate
/// generation, pairwise matching, transitive closure…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Stage name (`"window"`, `"prep"`, `"match"`, `"closure"`…).
    pub name: &'static str,
    /// Wall-clock time the stage took.
    pub elapsed: Duration,
}

/// The structured result of one engine run.
#[derive(Debug, Clone)]
pub struct MatchReport {
    pairs: Vec<MatchedPair>,
    candidates: usize,
    comparisons: usize,
    total_pairs: usize,
    elapsed: Duration,
    plan_rcks: usize,
    stages: Vec<Stage>,
    threads: usize,
    filters: FilterStats,
}

impl MatchReport {
    /// The matched pairs.
    pub fn pairs(&self) -> &[MatchedPair] {
        &self.pairs
    }

    /// The matched pairs as `(left, right)` position pairs — the shape the
    /// metrics helpers consume.
    pub fn index_pairs(&self) -> Vec<(usize, usize)> {
        self.pairs.iter().map(|p| (p.left, p.right)).collect()
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Candidate pairs the reduction strategy produced.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Pairs actually compared (= candidates for the engine's methods).
    pub fn comparisons(&self) -> usize {
        self.comparisons
    }

    /// Size of the full comparison space `|I1| · |I2|`.
    pub fn total_pairs(&self) -> usize {
        self.total_pairs
    }

    /// `1 − candidates / total`: how much of the comparison space the
    /// plan's keys skipped.
    pub fn reduction_ratio(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            1.0 - self.candidates as f64 / self.total_pairs as f64
        }
    }

    /// Wall-clock time of the whole run — candidate generation included;
    /// the plan was compiled beforehand.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Per-stage wall-clock breakdown of the run, in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Execution provenance: how many runtime threads the engine's pool
    /// was configured with for this run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of RCKs in the plan that produced this report.
    pub fn plan_rcks(&self) -> usize {
        self.plan_rcks
    }

    /// Filter-effectiveness counters of the compiled similarity hot
    /// path: how many thresholded edit-distance atom evaluations the
    /// length / character-bag / q-gram filters rejected, and how many
    /// survived to the banded DP. Deterministic for a fixed candidate
    /// set, independent of the thread count.
    pub fn filter_stats(&self) -> FilterStats {
        self.filters
    }

    /// Scores the report against generator-held ground truth.
    pub fn score(&self, truth: &GroundTruth) -> MatchQuality {
        evaluate_pairs(&self.index_pairs(), truth)
    }
}

impl fmt::Display for MatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} matches from {} candidates ({} possible pairs, {:.1}% skipped) in {:?} via {} keys on {} thread{}",
            self.pairs.len(),
            self.candidates,
            self.total_pairs,
            self.reduction_ratio() * 100.0,
            self.elapsed,
            self.plan_rcks,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        )
    }
}

/// A deduplication result: matched pairs plus their transitive closure
/// into entity clusters.
#[derive(Debug, Clone)]
pub struct DedupReport {
    /// The pairwise report (`left`/`right` are positions in the one
    /// relation; `left < right`).
    pub report: MatchReport,
    /// Entity clusters (every tuple position appears in exactly one).
    pub clusters: Vec<Vec<usize>>,
}

impl DedupReport {
    /// Number of distinct entities after merging.
    pub fn entity_count(&self) -> usize {
        self.clusters.len()
    }
}

/// One link of a one-to-one resolution: a matched pair plus its
/// calibrated score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredLink {
    /// Position of the left tuple in its relation.
    pub left: usize,
    /// Position of the right tuple in its relation.
    pub right: usize,
    /// Id of the left tuple.
    pub left_id: TupleId,
    /// Id of the right tuple.
    pub right_id: TupleId,
    /// Index (into the plan's RCK list) of the first key that matched.
    pub key: usize,
    /// Calibrated match confidence in `[0, 1]` from the plan's
    /// [`ScoreModel`](matchrules_matcher::scoring::ScoreModel).
    pub score: f64,
}

/// A scored one-to-one deduplication result — the resolved counterpart of
/// [`DedupReport`]: instead of transitively closing every rule-matched
/// pair into clusters, the pairs are scored and resolved into a matching
/// where **each record appears in at most one link**.
#[derive(Debug, Clone)]
pub struct ResolvedDedupReport {
    /// The pairwise report (all rule-matched pairs, before resolution).
    pub report: MatchReport,
    /// The selected one-to-one links (a subset of the report's pairs),
    /// in ascending `(left, right)` pair order.
    pub links: Vec<ScoredLink>,
}

impl ResolvedDedupReport {
    /// The links as `(left, right)` position pairs.
    pub fn index_pairs(&self) -> Vec<(usize, usize)> {
        self.links.iter().map(|l| (l.left, l.right)).collect()
    }
}

/// The reusable executor of one [`MatchPlan`]: resolved similarity
/// operators, the runtime pool, plus the plan — cheap to clone and
/// share.
#[derive(Clone)]
pub struct MatchEngine {
    plan: Arc<MatchPlan>,
    runtime: Arc<RuntimeOps>,
    registry: OpRegistry,
    pool: WorkPool,
}

impl fmt::Debug for MatchEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatchEngine")
            .field("plan", &self.plan)
            .field("operators", &self.runtime.len())
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl MatchEngine {
    /// Resolves the plan's symbolic operators against `registry`; the
    /// runtime pool follows the plan's [`ExecConfig`].
    pub fn from_plan(plan: MatchPlan, registry: &OpRegistry) -> Result<Self, EngineError> {
        let runtime = RuntimeOps::resolve(plan.ops(), registry)?;
        let pool = WorkPool::new(plan.exec());
        Ok(MatchEngine {
            plan: Arc::new(plan),
            runtime: Arc::new(runtime),
            registry: registry.clone(),
            pool,
        })
    }

    /// The same engine (shared plan and operators) with a different
    /// execution configuration — no recompilation, so thread sweeps
    /// reuse one reasoning pass. Parallel output is byte-identical to
    /// serial, only [`MatchReport::threads`] and timings change.
    #[must_use]
    pub fn with_exec(&self, exec: ExecConfig) -> MatchEngine {
        MatchEngine {
            plan: self.plan.clone(),
            runtime: self.runtime.clone(),
            registry: self.registry.clone(),
            pool: WorkPool::new(exec),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &MatchPlan {
        &self.plan
    }

    /// The compiled plan as a shared handle — stays valid (and keeps
    /// describing the same rule version) however long the caller holds
    /// it, which is what concurrent serving layers need.
    pub fn plan_arc(&self) -> Arc<MatchPlan> {
        self.plan.clone()
    }

    /// The resolved operator bindings.
    pub fn runtime(&self) -> &RuntimeOps {
        &self.runtime
    }

    /// The operator registry the engine's plan was resolved against —
    /// what a rule hot-swap recompiles new rule text with, so custom
    /// operator bindings survive the swap.
    pub fn registry(&self) -> &OpRegistry {
        &self.registry
    }

    /// The runtime pool's thread count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn check_side(&self, side: Side, relation: &Relation) -> Result<(), EngineError> {
        let expected = self.plan.pair().schema_of(side);
        let got = relation.schema();
        // Structural check (attribute names, order and domains): a
        // same-named, same-arity schema with reordered attributes would
        // otherwise silently compare the wrong columns.
        if !Arc::ptr_eq(got, expected) && !crate::engine::builder::schemas_compatible(got, expected)
        {
            return Err(EngineError::SchemaMismatch {
                expected: format!("{}/{}", expected.name(), expected.arity()),
                got: format!("{}/{}", got.name(), got.arity()),
            });
        }
        Ok(())
    }

    fn matcher(&self) -> KeyMatcher<'_> {
        KeyMatcher::new(self.plan.rcks(), &self.runtime).with_negatives(self.plan.negatives())
    }

    /// Pairwise key evaluation over the candidates through the one pair
    /// verifier, [`KeyMatcher`]: filter signatures are extracted once per
    /// relation (the `"prep"` stage), then evaluation is chunked on the
    /// pool with per-chunk results concatenated in chunk order — the
    /// matched pairs come back exactly as a serial scan would produce
    /// them, and the per-chunk filter counters fold into one
    /// deterministic total.
    fn run(
        &self,
        left: &Relation,
        right: &Relation,
        candidates: Vec<(usize, usize)>,
        started: Instant,
        mut stages: Vec<Stage>,
    ) -> MatchReport {
        let matcher = self.matcher();
        let (left_prep, right_prep) =
            Self::staged("prep", &mut stages, || matcher.prepare_in(&self.pool, left, right));
        let match_started = Instant::now();
        let (pairs, filters) = ordered_reduce(
            &self.pool,
            &candidates,
            PAR_MATCH_MIN_CHUNK,
            |_, chunk| {
                let mut stats = FilterStats::default();
                let mut out = Vec::new();
                for &(l, r) in chunk {
                    let a = PairSide::new(&left.tuples()[l], left_prep.row(l));
                    let b = PairSide::new(&right.tuples()[r], right_prep.row(r));
                    if let Some(key) = matcher.decide(a, b, None, &mut stats) {
                        let (left_id, right_id) = (a.tuple.id(), b.tuple.id());
                        out.push(MatchedPair { left: l, right: r, left_id, right_id, key });
                    }
                }
                (out, stats)
            },
            (Vec::new(), FilterStats::default()),
            |(mut pairs, mut filters): (Vec<MatchedPair>, FilterStats), (chunk, chunk_stats)| {
                pairs.extend(chunk);
                filters.merge(&chunk_stats);
                (pairs, filters)
            },
        );
        stages.push(Stage { name: "match", elapsed: match_started.elapsed() });
        MatchReport {
            pairs,
            candidates: candidates.len(),
            comparisons: candidates.len(),
            total_pairs: left.len() * right.len(),
            elapsed: started.elapsed(),
            plan_rcks: self.plan.rcks().len(),
            stages,
            threads: self.pool.threads(),
            filters,
        }
    }

    /// Times one candidate-generation closure as a named stage.
    fn staged<T>(name: &'static str, stages: &mut Vec<Stage>, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        stages.push(Stage { name, elapsed: started.elapsed() });
        out
    }

    /// Matches a relation pair using the plan's windowed candidate
    /// generation (multi-pass over the RCK-derived sort keys). Falls back
    /// to the exhaustive comparison when the plan has no sort keys.
    pub fn match_pairs(
        &self,
        left: &Relation,
        right: &Relation,
    ) -> Result<MatchReport, EngineError> {
        self.check_side(Side::Left, left)?;
        self.check_side(Side::Right, right)?;
        if self.plan.sort_keys().is_empty() {
            return self.match_all(left, right);
        }
        let started = Instant::now();
        let mut stages = Vec::new();
        let candidates = Self::staged("window", &mut stages, || {
            multi_pass_window_in(&self.pool, left, right, self.plan.sort_keys(), self.plan.window())
        });
        Ok(self.run(left, right, candidates, started, stages))
    }

    /// Matches every pair of the cross product (small instances,
    /// correctness baselines).
    pub fn match_all(&self, left: &Relation, right: &Relation) -> Result<MatchReport, EngineError> {
        self.check_side(Side::Left, left)?;
        self.check_side(Side::Right, right)?;
        let started = Instant::now();
        let candidates: Vec<(usize, usize)> =
            (0..left.len()).flat_map(|l| (0..right.len()).map(move |r| (l, r))).collect();
        Ok(self.run(left, right, candidates, started, Vec::new()))
    }

    /// Shared front half of the dedup modes: windowed (or exhaustive)
    /// `i < j` candidates over the reflexive plan, pairwise matching,
    /// corrected pair-space accounting.
    fn dedup_matched(
        &self,
        relation: &Relation,
        started: Instant,
    ) -> Result<MatchReport, EngineError> {
        self.check_side(Side::Left, relation)?;
        self.check_side(Side::Right, relation)?;
        let mut stages = Vec::new();
        // Name the stage by what actually runs: a key-less plan has no
        // window to slide, it enumerates the full pair space.
        let stage_name = if self.plan.sort_keys().is_empty() { "exhaustive" } else { "window" };
        let candidates: Vec<(usize, usize)> = Self::staged(stage_name, &mut stages, || {
            if self.plan.sort_keys().is_empty() {
                (0..relation.len())
                    .flat_map(|i| (i + 1..relation.len()).map(move |j| (i, j)))
                    .collect()
            } else {
                multi_pass_window_in(
                    &self.pool,
                    relation,
                    relation,
                    self.plan.sort_keys(),
                    self.plan.window(),
                )
                .into_iter()
                .filter_map(|(i, j)| match i.cmp(&j) {
                    std::cmp::Ordering::Less => Some((i, j)),
                    std::cmp::Ordering::Greater => Some((j, i)),
                    std::cmp::Ordering::Equal => None,
                })
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
            }
        });
        let mut report = self.run(relation, relation, candidates, started, stages);
        // The cross product of a dedup run is the unordered pair count.
        report.total_pairs = relation.len() * relation.len().saturating_sub(1) / 2;
        Ok(report)
    }

    /// Deduplicates one relation over a reflexive plan: windowed candidate
    /// pairs `i < j`, pairwise matching, then transitive closure into
    /// entity clusters (merge/purge).
    pub fn dedup(&self, relation: &Relation) -> Result<DedupReport, EngineError> {
        let started = Instant::now();
        let mut report = self.dedup_matched(relation, started)?;
        // Closure in matched-pair order: the clusters (and their member
        // order) are identical however many threads matched the pairs.
        let closure_started = Instant::now();
        let mut uf = UnionFind::new(relation.len());
        for p in report.pairs() {
            uf.union(p.left, p.right);
        }
        let clusters = uf.groups();
        report.stages.push(Stage { name: "closure", elapsed: closure_started.elapsed() });
        report.elapsed = started.elapsed();
        Ok(DedupReport { clusters, report })
    }

    /// Scored one-to-one deduplication — the resolved counterpart of
    /// [`MatchEngine::dedup`]: the same rule-matched pairs, scored by the
    /// plan's [`ScoreModel`](matchrules_matcher::scoring::ScoreModel) and
    /// resolved into a matching where each record appears in **at most one
    /// link** (the `"resolve"` stage replaces `"closure"`). Links below
    /// `min_score` are dropped; pass `0.0` to keep every rule match
    /// eligible and let the assignment alone arbitrate conflicts.
    pub fn dedup_resolved(
        &self,
        relation: &Relation,
        min_score: f64,
    ) -> Result<ResolvedDedupReport, EngineError> {
        let started = Instant::now();
        let mut report = self.dedup_matched(relation, started)?;
        let resolve_started = Instant::now();
        let links =
            self.scored_links(relation, relation, &report, resolve_one_to_one_shared, min_score)?;
        report.stages.push(Stage { name: "resolve", elapsed: resolve_started.elapsed() });
        report.elapsed = started.elapsed();
        Ok(ResolvedDedupReport { report, links })
    }

    /// Scores and one-to-one-resolves the matched pairs of a
    /// **cross-relation** report (e.g. from
    /// [`MatchEngine::match_pairs_indexed`]): each left and each right
    /// record ends up in at most one link. This is the scored alternative
    /// to transitively closing matched pairs into clusters.
    ///
    /// # Errors
    ///
    /// [`EngineError::PairOutOfRange`] when the report names a position
    /// past the end of `left` or `right` (a report from other relations).
    pub fn resolve_links(
        &self,
        left: &Relation,
        right: &Relation,
        report: &MatchReport,
        min_score: f64,
    ) -> Result<Vec<ScoredLink>, EngineError> {
        self.check_side(Side::Left, left)?;
        self.check_side(Side::Right, right)?;
        self.scored_links(left, right, report, resolve_one_to_one, min_score)
    }

    /// Scores `report`'s matched pairs under the plan's
    /// [`ScoreModel`](matchrules_matcher::scoring::ScoreModel) and keeps
    /// the links `resolve` selects, in its order.
    fn scored_links(
        &self,
        left: &Relation,
        right: &Relation,
        report: &MatchReport,
        resolve: fn(&[ScoredEdge], f64) -> Vec<usize>,
        min_score: f64,
    ) -> Result<Vec<ScoredLink>, EngineError> {
        let model = self.plan.score_model();
        let edges = report
            .pairs()
            .iter()
            .map(|p| match (left.tuples().get(p.left), right.tuples().get(p.right)) {
                (Some(t1), Some(t2)) => Ok(ScoredEdge {
                    left: p.left,
                    right: p.right,
                    score: model.score(&self.runtime, t1, t2),
                }),
                _ => Err(EngineError::PairOutOfRange {
                    pair: (p.left, p.right),
                    lens: (left.len(), right.len()),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(resolve(&edges, min_score)
            .into_iter()
            .map(|i| {
                let p = &report.pairs()[i];
                ScoredLink {
                    left: p.left,
                    right: p.right,
                    left_id: p.left_id,
                    right_id: p.right_id,
                    key: p.key,
                    score: edges[i].score,
                }
            })
            .collect())
    }

    /// Calibrated match confidence of one tuple pair under the plan's
    /// compiled [`ScoreModel`](matchrules_matcher::scoring::ScoreModel):
    /// always in `[0, 1]`, never NaN, and a pure function of the pair —
    /// identical across thread counts.
    pub fn score_pair(
        &self,
        t1: &matchrules_data::relation::Tuple,
        t2: &matchrules_data::relation::Tuple,
    ) -> f64 {
        self.plan.score_model().score(&self.runtime, t1, t2)
    }

    /// Builds a [`MatchIndex`] over `relation` (which plays the plan's
    /// *right* side; probes instantiate the left schema) — the third
    /// execution mode next to batch matching and dedup: build once, then
    /// answer point queries and maintain the index incrementally instead
    /// of rescanning windows per batch. The build runs on the engine's
    /// pool; see [`MatchIndex`] for the per-RCK anchor design.
    ///
    /// The index carries no retrieval plan: every probe orders each
    /// key's atoms by the posting volumes that probe meets, so a rebuild
    /// (rule swap, compaction) is this same call and needs no state
    /// from the index it replaces.
    ///
    /// ```
    /// use matchrules::engine::Preset;
    /// use matchrules::data::fig1;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let engine = Preset::Example11.builder().build()?;
    /// let inst = fig1::instance_for_pair(engine.plan().pair());
    /// let mut index = engine.index(inst.right())?;
    ///
    /// // Point lookup: which billing tuples match this credit record,
    /// // and which RCK fired?
    /// let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
    /// let outcome = index.query(t1);
    /// assert_eq!(outcome.hits.len(), 4);
    ///
    /// // Incremental maintenance: removed tuples stop matching at once.
    /// let gone = outcome.hits[0].id;
    /// index.remove(gone)?;
    /// assert!(index.query(t1).hits.iter().all(|h| h.id != gone));
    /// # Ok(()) }
    /// ```
    pub fn index(&self, relation: &Relation) -> Result<MatchIndex, EngineError> {
        self.check_side(Side::Right, relation)?;
        MatchIndex::build_in(
            &self.pool,
            self.plan.pair().left().arity(),
            relation,
            self.plan.rcks(),
            self.plan.negatives(),
            self.runtime.clone(),
        )
        .map_err(EngineError::from)
    }

    /// Matches a relation pair through an RCK-driven [`MatchIndex`]
    /// instead of sorted-neighborhood windows: the index is built over
    /// `right` (the `"index"` stage), then the left tuples are answered
    /// as [`MatchIndex::query_batch`] calls, one per chunk of the pool
    /// (the `"probe"` stage). This is the served read path run over a
    /// relation: each candidate is verified once, against the keys that
    /// retrieved it, and the report holds exactly the hits, candidate
    /// counts and filter counters (retrieval counters included) of
    /// querying the index with every left tuple in turn.
    ///
    /// The matched-pair *set* equals
    /// [`MatchEngine::match_pairs`]'s whenever the windowed path has full
    /// recall, and is a superset otherwise (the index retrieves every
    /// pair its keys accept; windows can miss pairs that never share a
    /// window). Candidate counts are typically far smaller — the
    /// benchmark's `batch_link` workload reports both paths' candidates
    /// and F1 side by side.
    pub fn match_pairs_indexed(
        &self,
        left: &Relation,
        right: &Relation,
    ) -> Result<MatchReport, EngineError> {
        self.check_side(Side::Left, left)?;
        let started = Instant::now();
        let mut stages = Vec::new();
        // `index` checks `right`'s schema.
        let index = Self::staged("index", &mut stages, || self.index(right))?;
        let outcomes = Self::staged("probe", &mut stages, || {
            self.pool
                .par_chunks(left.tuples(), PROBE_MIN_CHUNK, |_, probes| index.query_batch(probes))
        });
        let (mut pairs, mut candidates, mut filters) = (Vec::new(), 0, FilterStats::default());
        for (l, outcome) in outcomes.into_iter().flatten().enumerate() {
            candidates += outcome.candidates;
            filters.merge(&outcome.stats);
            let left_id = left.tuples()[l].id();
            for QueryHit { id: right_id, slot: right, key } in outcome.hits {
                pairs.push(MatchedPair { left: l, right, left_id, right_id, key });
            }
        }
        Ok(MatchReport {
            pairs,
            candidates,
            comparisons: candidates,
            total_pairs: left.len() * right.len(),
            elapsed: started.elapsed(),
            plan_rcks: self.plan.rcks().len(),
            stages,
            threads: self.pool.threads(),
            filters,
        })
    }

    /// Candidate `(left, right)` pairs from multi-pass windowing over the
    /// plan's RCK-derived sort keys.
    pub fn window(
        &self,
        left: &Relation,
        right: &Relation,
    ) -> Result<Vec<(usize, usize)>, EngineError> {
        self.check_side(Side::Left, left)?;
        self.check_side(Side::Right, right)?;
        if self.plan.sort_keys().is_empty() {
            return Err(EngineError::NoKeys);
        }
        Ok(multi_pass_window_in(&self.pool, left, right, self.plan.sort_keys(), self.plan.window()))
    }

    /// Enforces the plan's MDs on an instance pair — the paper's dynamic
    /// semantics (chase to a stable instance).
    pub fn enforce(&self, d: &InstancePair) -> EnforceOutcome {
        enforce(d, self.plan.sigma(), &self.runtime)
    }
}
