//! Rule refinement: close the loop from labeled pairs to a selected,
//! θ-tuned, hot-swappable rule set in one call, [`refine`], whose one
//! knob is the β of the F_β objective.
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
//! 2. **Pool** — the serving plan's rules seed a candidate pool; MDs
//!    mined from the labeled sample join it (a levelwise miner, the
//!    paper's §8 "discovering MDs from sample data"), and every fuzzy
//!    atom is θ-swept into a grid of threshold variants (aliased
//!    operators like `≈dl@0.70`, interned into an *extension* of the
//!    plan's operator table).
//! 3. **Evaluate** — a candidate-keyed
//!    [`MatchIndex`](crate::engine::MatchIndex) is probed with the
//!    labeled records, and every hit is attributed to every fired
//!    candidate via the per-key explain trace, yielding one coverage
//!    bitset per candidate.
//! 4. **Select** — deterministic greedy marginal-F_β selection (exact
//!    exhaustive search below a small cutoff; stable tie-breaks;
//!    identical at any thread count).
//! 5. **Deploy** — the resulting [`Refinement`] carries the chosen
//!    rules *plus* the extended operator table/registry, and hot-swaps
//!    into a running server through
//!    [`MatchServer::swap_rules_refined`](crate::server::MatchServer::swap_rules_refined)
//!    with a [`RefinementReport`] of before/after quality, per-rule
//!    marginal gains and the chosen θ per swept atom.
//!    [`MatchServer::refine`](crate::server::MatchServer::refine) runs
//!    refine-then-swap on the labels a server has collected, also over
//!    the wire via the `SubmitLabels`/`Refine` frames.
//!
//! [`GroundTruth`]: matchrules_data::dirty::GroundTruth

mod evaluate;
mod labels;
mod mine;
mod pool;
mod select;

pub use labels::{LabelError, LabelStore, LabeledPair};
pub use pool::CandidateOrigin;

use crate::engine::{schemas_compatible, MatchPlan};
use evaluate::evaluate;
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::error::CoreError;
use matchrules_core::operators::OperatorTable;
use matchrules_core::schema::{AttrId, Side};
use matchrules_data::eval::RuntimeOps;
use matchrules_matcher::index::IndexError;
use matchrules_matcher::metrics::MatchQuality;
use matchrules_simdist::ops::OpRegistry;
use pool::CandidatePool;
use select::select;
use std::fmt;

/// θ grid every fuzzy LHS atom is swept over.
const THETAS: [f64; 4] = [0.70, 0.75, 0.85, 0.90];
/// At most this many mined candidates join the pool, best first.
const MAX_MINED: usize = 12;

/// Errors raised by the refinement loop.
#[derive(Debug)]
pub enum RefineError {
    /// β is NaN, infinite or not positive: F_β is undefined.
    InvalidBeta(f64),
    /// The label store holds no pairs — there is nothing to select
    /// against.
    EmptyLabels,
    /// The candidate pool is empty.
    NoCandidates,
    /// Selection chose the empty set (no candidate has positive F_β on
    /// the labels, e.g. a label set without positives) — deploying no
    /// rules would stop matching entirely, so the refinement is refused.
    NothingSelected,
    /// The label store's schemas do not instantiate the plan's pair.
    SchemaMismatch {
        /// Which side mismatched.
        side: Side,
        /// Schema name the plan expects.
        expected: String,
        /// Schema name the labels carry.
        got: String,
    },
    /// A reasoning-core error (operator resolution).
    Core(CoreError),
    /// Building or probing the evaluation index failed.
    Index(IndexError),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::InvalidBeta(beta) => {
                write!(f, "refinement needs a finite, positive beta (got {beta})")
            }
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

/// Runs the refinement loop of the module docs against `labels`: seeds
/// a candidate pool with `plan`'s rules, executing operators through
/// `registry` (pass the serving engine's registry so custom operators
/// keep their bindings), mines and θ-sweeps candidates, evaluates them,
/// and selects the subset maximizing F_β (`beta` = 1.0 is F1; a larger
/// β favors recall). Fails with [`RefineError::InvalidBeta`] unless
/// `beta` is finite and positive.
pub fn refine(
    plan: &MatchPlan,
    registry: &OpRegistry,
    labels: &LabelStore,
    beta: f64,
) -> Result<Refinement, RefineError> {
    if !(beta.is_finite() && beta > 0.0) {
        return Err(RefineError::InvalidBeta(beta));
    }
    if labels.is_empty() {
        return Err(RefineError::EmptyLabels);
    }
    for (schema, expected, side) in [
        (labels.probe_schema(), plan.pair().left(), Side::Left),
        (labels.store_schema(), plan.pair().right(), Side::Right),
    ] {
        if !schemas_compatible(schema, expected) {
            return Err(RefineError::SchemaMismatch {
                side,
                expected: expected.name().to_owned(),
                got: schema.name().to_owned(),
            });
        }
    }
    let records = labels.relations();
    let mut pool = CandidatePool::new(plan, registry);

    // Mine from the labeled sample itself: the labeled pairs are exactly
    // the dense near-match sample the miner wants, and the negatives keep
    // its confidence estimates honest.
    let target = plan.target();
    let attr_pairs: Vec<(AttrId, AttrId)> =
        target.y1().iter().copied().zip(target.y2().iter().copied()).collect();
    let runtime = RuntimeOps::resolve(pool.ops(), pool.registry())?;
    let min_support = (labels.positives() / 10).max(2);
    let mined = mine::discover(
        &records.left,
        &records.right,
        &attr_pairs,
        &records.pairs,
        &runtime,
        min_support,
        &pool.op_ids(),
    );
    pool.add_discovered(&mined[..mined.len().min(MAX_MINED)]);
    pool.sweep_thetas(&THETAS);
    if pool.is_empty() {
        return Err(RefineError::NoCandidates);
    }

    let coverage = evaluate(&pool, labels, &records)?;
    let seed = pool.seed_indices();
    let selection = select(&coverage, &seed, beta);
    if selection.chosen.is_empty() {
        return Err(RefineError::NothingSelected);
    }

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
        before: coverage.quality_of(&seed),
        after: selection.quality,
        beta,
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
