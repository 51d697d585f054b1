//! Rule refinement: close the loop from labeled pairs to a selected,
//! θ-tuned, hot-swappable rule set.
//!
//! The paper's reasoning core deduces *how to evaluate* a rule set
//! (RCKs, §4); nothing upstream of this module improves the rule set
//! itself. Following Kolaitis, Popa & Qian's knowledge-refinement
//! framing — given candidate rules and labeled positive/negative pairs,
//! select the subset maximizing match quality — the refinement loop is:
//!
//! 1. **Label** — a [`LabelStore`] holds deduplicated positive/negative
//!    record pairs: generated from [`GroundTruth`] (the §6.2 noise
//!    ladder becomes a labeled-data factory via
//!    [`LabelStore::from_truth`]) and/or appended from live feedback
//!    ([`LabelStore::insert`], the wire's `SubmitLabels`).
//! 2. **Pool** — a [`CandidatePool`] seeds from the serving plan's
//!    rules, adds hand-written MDs and
//!    [`discovery`](matchrules_matcher::discovery) proposals mined from
//!    the labeled sample, and θ-sweeps every fuzzy atom into a grid of
//!    threshold variants (aliased operators like `≈dl@0.70`, interned
//!    into an *extension* of the plan's operator table).
//! 3. **Evaluate** — [`evaluate`] probes a candidate-keyed
//!    [`MatchIndex`](crate::engine::MatchIndex) with the labeled
//!    records and attributes every hit to every fired candidate via the
//!    per-key explain trace, yielding one coverage bitset per candidate.
//! 4. **Select** — [`select`] runs deterministic greedy marginal-F_β
//!    selection (exact exhaustive search below a small cutoff; stable
//!    tie-breaks; identical at any thread count).
//! 5. **Deploy** — the resulting [`Refinement`] carries the chosen
//!    rules *plus* the extended operator table/registry, and hot-swaps
//!    into a running server through
//!    [`MatchServer::swap_rules_refined`](crate::server::MatchServer::swap_rules_refined)
//!    (also reachable over the wire via the `SubmitLabels`/`Refine`
//!    frames) with a
//!    [`RefinementReport`] of before/after quality, per-rule marginal
//!    gains and the chosen θ per swept atom.
//!
//! [`GroundTruth`]: matchrules_data::dirty::GroundTruth

mod evaluate;
mod labels;
mod pool;
mod select;

pub use evaluate::{evaluate, Coverage};
pub use labels::{LabelError, LabelStore, LabeledPair};
pub use pool::{CandidateOrigin, CandidatePool, CandidateRule};
pub use select::{select, Selection, SelectionConfig};

use crate::engine::MatchPlan;
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::error::CoreError;
use matchrules_core::operators::OperatorTable;
use matchrules_core::relative_key::Target;
use matchrules_core::schema::Side;
use matchrules_data::eval::RuntimeOps;
use matchrules_data::relation::{Relation, Tuple};
use matchrules_data::value::Value;
use matchrules_matcher::discovery::{discover, DiscoveryConfig, DiscoveryError};
use matchrules_matcher::index::IndexError;
use matchrules_matcher::metrics::MatchQuality;
use matchrules_simdist::ops::OpRegistry;
use std::collections::HashMap;
use std::fmt;

/// Errors raised by the refinement loop.
#[derive(Debug)]
pub enum RefineError {
    /// The label store holds no pairs — there is nothing to select
    /// against.
    EmptyLabels,
    /// The candidate pool is empty.
    NoCandidates,
    /// Selection chose the empty set (no candidate has positive F_β on
    /// the labels, e.g. a label set without positives) — deploying no
    /// rules would stop matching entirely, so the refinement is refused.
    NothingSelected,
    /// The label store's schemas do not instantiate the pool's pair.
    SchemaMismatch {
        /// Which side mismatched.
        side: Side,
        /// Schema name the pool expects.
        expected: String,
        /// Schema name the labels carry.
        got: String,
    },
    /// A reasoning-core error (MD parsing/validation, operator
    /// resolution).
    Core(CoreError),
    /// Building or probing the evaluation index failed.
    Index(IndexError),
    /// The candidate miner rejected its configuration.
    Discovery(DiscoveryError),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::EmptyLabels => write!(f, "refinement needs at least one labeled pair"),
            RefineError::NoCandidates => write!(f, "refinement needs at least one candidate rule"),
            RefineError::NothingSelected => write!(
                f,
                "no candidate rule scores positively on the labels (are there positive pairs?); \
                 refusing to deploy an empty rule set"
            ),
            RefineError::SchemaMismatch { side, expected, got } => write!(
                f,
                "label store's {} schema {got} does not instantiate the pool schema {expected}",
                match side {
                    Side::Left => "left",
                    Side::Right => "right",
                }
            ),
            RefineError::Core(e) => write!(f, "{e}"),
            RefineError::Index(e) => write!(f, "{e}"),
            RefineError::Discovery(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RefineError {}

impl From<CoreError> for RefineError {
    fn from(e: CoreError) -> Self {
        RefineError::Core(e)
    }
}

impl From<IndexError> for RefineError {
    fn from(e: IndexError) -> Self {
        RefineError::Index(e)
    }
}

impl From<DiscoveryError> for RefineError {
    fn from(e: DiscoveryError) -> Self {
        RefineError::Discovery(e)
    }
}

/// Tuning knobs of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// The β of the F_β selection objective (1.0 = F1).
    pub beta: f64,
    /// Candidate-count bound for exact exhaustive selection.
    pub exhaustive_cutoff: usize,
    /// θ grid every fuzzy atom is swept over (empty disables sweeping).
    pub thetas: Vec<f64>,
    /// Whether to mine additional candidates from the labeled sample.
    pub mine: bool,
    /// Confidence floor for mined candidates.
    pub min_confidence: f64,
    /// At most this many mined candidates join the pool (best first).
    pub max_mined: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            beta: 1.0,
            exhaustive_cutoff: 10,
            thetas: vec![0.70, 0.75, 0.85, 0.90],
            mine: true,
            min_confidence: 0.9,
            max_mined: 12,
        }
    }
}

/// One selected rule in the [`RefinementReport`].
#[derive(Debug, Clone)]
pub struct SelectedRule {
    /// Index into the candidate pool.
    pub pool_index: usize,
    /// The rule rendered with relation/attribute/operator names.
    pub rendered: String,
    /// Where the rule came from.
    pub origin: CandidateOrigin,
    /// `F_β(S) − F_β(S ∖ {rule})` on the labeled sample.
    pub marginal_gain: f64,
}

/// What a refinement run measured and chose.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Quality of the seed (serving) rules on the labeled sample.
    pub before: MatchQuality,
    /// Quality of the selected rules on the labeled sample.
    pub after: MatchQuality,
    /// The β the selection optimized.
    pub beta: f64,
    /// Number of candidates evaluated.
    pub pool_size: usize,
    /// Positive labels in the sample.
    pub labeled_positives: usize,
    /// Negative labels in the sample.
    pub labeled_negatives: usize,
    /// Whether exact exhaustive selection ran (vs greedy).
    pub exhaustive: bool,
    /// The selected rules with provenance and marginal gains.
    pub selected: Vec<SelectedRule>,
    /// Chosen θ per swept atom among the selected rules: the rendered
    /// atom (e.g. `credit[FN] ≈dl@0.70 billing[FN]`) and its threshold.
    pub chosen_thetas: Vec<(String, f64)>,
}

impl RefinementReport {
    /// How many selected rules are θ-sweep variants.
    pub fn theta_variants_selected(&self) -> usize {
        self.selected
            .iter()
            .filter(|r| matches!(r.origin, CandidateOrigin::ThetaSweep { .. }))
            .count()
    }
}

/// The deployable outcome of a refinement run: the selected rules
/// together with the operator world they were compiled against — an
/// *extension* of the serving plan's table, which
/// [`MatchServer::swap_rules_refined`](crate::server::MatchServer::swap_rules_refined)
/// validates before swapping.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// The selected rules (compiled against [`Refinement::ops`]).
    pub rules: Vec<MatchingDependency>,
    /// The extended operator table the rules' ids resolve against.
    pub ops: OperatorTable,
    /// The extended registry binding every symbol (θ aliases included).
    pub registry: OpRegistry,
    /// What was measured and chosen.
    pub report: RefinementReport,
}

impl Refinement {
    /// Whether this refinement's operator table extends `base`: every id
    /// of `base` names the same operator in both tables. This is what
    /// makes the refinement safe to hot-swap over a plan using `base` —
    /// existing rules, records and probes keep their meaning.
    pub fn extends(&self, base: &OperatorTable) -> bool {
        self.ops.len() >= base.len() && base.ids().all(|id| self.ops.name(id) == base.name(id))
    }
}

/// The refinement driver: owns a [`CandidatePool`] seeded from a serving
/// plan and turns a [`LabelStore`] into a deployable [`Refinement`].
#[derive(Debug, Clone)]
pub struct Refiner {
    pool: CandidatePool,
    target: Target,
    config: RefineConfig,
}

impl Refiner {
    /// A refiner seeded with `plan`'s rules, operator table and target,
    /// executing operators through `registry` (pass the serving engine's
    /// registry so custom operators keep their bindings).
    pub fn new(plan: &MatchPlan, registry: &OpRegistry) -> Self {
        let pool = CandidatePool::new(
            plan.pair().clone(),
            plan.ops().clone(),
            registry.clone(),
            plan.sigma(),
        );
        Refiner { pool, target: plan.target().clone(), config: RefineConfig::default() }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: RefineConfig) -> Self {
        self.config = config;
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &RefineConfig {
        &self.config
    }

    /// Adds hand-written candidate MDs in the textual syntax; returns
    /// how many parsed rules were new to the pool.
    pub fn add_rule_text(&mut self, text: &str) -> Result<usize, RefineError> {
        self.pool.add_text(text)
    }

    /// Adds programmatic candidate MDs (built against the pool's
    /// operator table); returns how many were new.
    pub fn add_rules(&mut self, mds: impl IntoIterator<Item = MatchingDependency>) -> usize {
        self.pool.add_rules(mds)
    }

    /// The candidate pool as grown so far (before mining and sweeping,
    /// which happen per [`Refiner::refine`] run).
    pub fn pool(&self) -> &CandidatePool {
        &self.pool
    }

    /// Runs the full loop against `labels`: mine → θ-sweep → evaluate →
    /// select, returning the deployable [`Refinement`]. The run is
    /// read-only on `self`, so one refiner can serve successive label
    /// batches.
    pub fn refine(&self, labels: &LabelStore) -> Result<Refinement, RefineError> {
        if labels.is_empty() {
            return Err(RefineError::EmptyLabels);
        }
        let mut pool = self.pool.clone();

        if self.config.mine {
            let mined = mine_from_labels(&pool, &self.target, labels, &self.config)?;
            pool.add_discovered(&mined[..mined.len().min(self.config.max_mined)]);
        }
        if !self.config.thetas.is_empty() {
            pool.sweep_thetas(&self.config.thetas);
        }

        let coverage = evaluate(&pool, labels)?;
        let seed = pool.seed_indices();
        let selection = select(
            &coverage,
            &seed,
            &SelectionConfig {
                beta: self.config.beta,
                exhaustive_cutoff: self.config.exhaustive_cutoff,
            },
        );
        if selection.chosen.is_empty() {
            return Err(RefineError::NothingSelected);
        }

        let before = coverage.quality_of(&seed);
        let selected: Vec<SelectedRule> = selection
            .marginal_gains
            .iter()
            .map(|&(pool_index, marginal_gain)| SelectedRule {
                pool_index,
                rendered: pool.describe(pool_index),
                origin: pool.rules()[pool_index].origin.clone(),
                marginal_gain,
            })
            .collect();
        let mut chosen_thetas: Vec<(String, f64)> = Vec::new();
        for rule in &selected {
            if let CandidateOrigin::ThetaSweep { theta, .. } = rule.origin {
                let md = &pool.rules()[rule.pool_index].md;
                for atom in md.lhs() {
                    let name = pool.ops().name(atom.op);
                    if name.ends_with(&format!("@{theta:.2}")) {
                        let atom_str = pool.atom_label(atom);
                        if !chosen_thetas.iter().any(|(a, _)| *a == atom_str) {
                            chosen_thetas.push((atom_str, theta));
                        }
                    }
                }
            }
        }

        let report = RefinementReport {
            before,
            after: selection.quality,
            beta: self.config.beta,
            pool_size: pool.len(),
            labeled_positives: labels.positives(),
            labeled_negatives: labels.negatives(),
            exhaustive: selection.exhaustive,
            selected,
            chosen_thetas,
        };
        Ok(Refinement {
            rules: selection.chosen.iter().map(|&i| pool.rules()[i].md.clone()).collect(),
            ops: pool.ops().clone(),
            registry: pool.registry().clone(),
            report,
        })
    }
}

/// Mines candidate MDs from the labeled sample itself: the labeled pairs
/// are exactly the dense near-match sample the miner wants, and the
/// negatives keep its confidence estimates honest.
fn mine_from_labels(
    pool: &CandidatePool,
    target: &Target,
    labels: &LabelStore,
    config: &RefineConfig,
) -> Result<Vec<matchrules_matcher::discovery::DiscoveredMd>, RefineError> {
    let mut credit = Relation::new(pool.pair().left().clone());
    let mut billing = Relation::new(pool.pair().right().clone());
    let mut left_ids: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut right_ids: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut sample: Vec<(usize, usize)> = Vec::new();
    for pair in labels.pairs() {
        let lv = pair.left.values().to_vec();
        let next = left_ids.len();
        let li = *left_ids.entry(lv.clone()).or_insert_with(|| {
            credit.push(Tuple::new(next as u64, lv));
            next
        });
        let rv = pair.right.values().to_vec();
        let next = right_ids.len();
        let ri = *right_ids.entry(rv.clone()).or_insert_with(|| {
            billing.push(Tuple::new(next as u64, rv));
            next
        });
        sample.push((li, ri));
    }
    let attr_pairs: Vec<(usize, usize)> =
        target.y1().iter().zip(target.y2()).map(|(&l, &r)| (l, r)).collect();
    let runtime = RuntimeOps::resolve(pool.ops(), pool.registry())?;
    let cfg = DiscoveryConfig {
        min_support: (labels.positives() / 10).max(2),
        min_confidence: config.min_confidence,
        max_lhs: 2,
        lhs_ops: pool.op_ids(),
    };
    Ok(discover(&credit, &billing, &attr_pairs, &sample, &runtime, &cfg)?)
}
