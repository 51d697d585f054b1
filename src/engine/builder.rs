//! [`EngineBuilder`]: collect configuration, compile a [`MatchPlan`].

use crate::engine::plan::MatchPlan;
use crate::engine::report::MatchEngine;
use matchrules_core::cost::CostModel;
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::error::CoreError;
use matchrules_core::negation::NegativeRule;
use matchrules_core::operators::{OperatorId, OperatorTable};
use matchrules_core::parser::parse_md_set;
use matchrules_core::rck::find_rcks;
use matchrules_core::relative_key::Target;
use matchrules_core::schema::{AttrKind, Schema, SchemaPair, Side};
use matchrules_data::eval::{paper_registry, RuntimeOps};
use matchrules_data::relation::Relation;
use matchrules_matcher::pipeline::{apply_length_stats, rck_sort_keys};
use matchrules_matcher::scoring::{rck_comparison_vector, ScoreModel};
use matchrules_matcher::windowing::multi_pass_window;
use matchrules_runtime::{ExecConfig, Threads};
use matchrules_simdist::ops::OpRegistry;
use std::fmt;
use std::sync::Arc;

/// Errors raised while building or executing a match engine.
#[derive(Debug)]
pub enum EngineError {
    /// A reasoning-core error (schema, parser, operator resolution…).
    Core(CoreError),
    /// The builder was compiled without schemas.
    MissingSchemas,
    /// The builder was compiled without target identity lists.
    MissingTarget,
    /// A relation handed to the engine does not instantiate the plan's
    /// schemas.
    SchemaMismatch {
        /// Name/arity of the schema the plan expects.
        expected: String,
        /// Name/arity of the schema the relation carries.
        got: String,
    },
    /// The plan deduced no keys, so the requested derived artifact
    /// (sort key) does not exist.
    NoKeys,
    /// A configuration value is out of its valid range.
    InvalidConfig {
        /// Human-readable description.
        message: String,
    },
    /// Building or maintaining a [`MatchIndex`](crate::engine::MatchIndex)
    /// failed (duplicate tuple ids, arity mismatch…).
    Index(matchrules_matcher::index::IndexError),
    /// A report handed back to the engine names a tuple position past the
    /// end of the relations it was given (a report from other relations).
    PairOutOfRange {
        /// The offending `(left, right)` positions.
        pair: (usize, usize),
        /// The given relations' lengths.
        lens: (usize, usize),
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::MissingSchemas => {
                write!(f, "engine builder needs schemas (schemas/schema_pair/dedup_schema)")
            }
            EngineError::MissingTarget => {
                write!(f, "engine builder needs target identity lists (target)")
            }
            EngineError::SchemaMismatch { expected, got } => {
                write!(f, "relation schema {got} does not instantiate the plan schema {expected}")
            }
            EngineError::NoKeys => {
                write!(f, "the plan deduced no RCKs, so no derived keys exist")
            }
            EngineError::InvalidConfig { message } => {
                write!(f, "invalid engine configuration: {message}")
            }
            EngineError::Index(e) => write!(f, "{e}"),
            EngineError::PairOutOfRange { pair, lens } => write!(
                f,
                "report pair {pair:?} lies outside the given relations ({} x {} tuples)",
                lens.0, lens.1
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<matchrules_matcher::index::IndexError> for EngineError {
    fn from(e: matchrules_matcher::index::IndexError) -> Self {
        EngineError::Index(e)
    }
}

/// Whether a relation's schema instantiates a plan schema: same name and
/// the same attributes (names and domains, in order). `AttrKind` metadata
/// is deliberately ignored — kinds steer plan *compilation* (key
/// encodings), not column indexing, and may legitimately differ between a
/// measured relation and a pair rebuilt by kind overrides.
pub(crate) fn schemas_compatible(a: &Schema, b: &Schema) -> bool {
    a.name() == b.name()
        && a.arity() == b.arity()
        && a.attributes()
            .iter()
            .zip(b.attributes())
            .all(|(x, y)| x.name() == y.name() && x.domain() == y.domain())
}

/// Per-attribute average lengths measured on concrete relations, kept
/// with the schemas they were measured on for compile-time validation —
/// plus a bounded deterministic tuple sample of each relation, retained
/// so `compile()` can fit the plan's [`ScoreModel`] (and a rule hot-swap
/// can refit it on the *same* sample).
struct MeasuredStats {
    left_schema: Arc<Schema>,
    left_lens: Vec<f64>,
    right_schema: Arc<Schema>,
    right_lens: Vec<f64>,
    left_sample: Relation,
    right_sample: Relation,
}

/// Per-side cap on the retained scoring sample. Sampling is a
/// deterministic stride (every k-th tuple), so recompiles see the same
/// sample and produce byte-identical score models.
const SCORE_SAMPLE_CAP: usize = 512;

fn sample_relation(rel: &Relation) -> Relation {
    let step = (rel.len() / SCORE_SAMPLE_CAP).max(1);
    let mut out = Relation::new(rel.schema().clone());
    for t in rel.tuples().iter().step_by(step).take(SCORE_SAMPLE_CAP) {
        out.push(t.clone());
    }
    out
}

/// Builder collecting everything the reasoning needs, compiled once into a
/// [`MatchPlan`] via [`EngineBuilder::compile`] (or straight into a
/// [`MatchEngine`] via [`EngineBuilder::build`]).
pub struct EngineBuilder {
    pair: Option<SchemaPair>,
    ops: OperatorTable,
    registry: OpRegistry,
    md_texts: Vec<String>,
    mds: Vec<MatchingDependency>,
    target_names: Option<(Vec<String>, Vec<String>)>,
    target: Option<Target>,
    negatives: Vec<NegativeRule>,
    kind_overrides: Vec<(Side, String, AttrKind)>,
    top_k: usize,
    window: usize,
    weights: (f64, f64, f64),
    stats: Option<MeasuredStats>,
    exec: ExecConfig,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// An empty builder with the standard operator registry, top-k = 5 and
    /// window = 10 (the paper's experimental defaults).
    pub fn new() -> Self {
        EngineBuilder {
            pair: None,
            ops: OperatorTable::new(),
            registry: paper_registry(),
            md_texts: Vec::new(),
            mds: Vec::new(),
            target_names: None,
            target: None,
            negatives: Vec::new(),
            kind_overrides: Vec::new(),
            top_k: 5,
            window: 10,
            weights: (1.0, 1.0, 1.0),
            stats: None,
            exec: ExecConfig::default(),
        }
    }

    /// Seeds the builder from an already-compiled reasoning setting —
    /// how the paper presets route through the builder.
    pub fn from_parts(
        pair: SchemaPair,
        ops: OperatorTable,
        sigma: Vec<MatchingDependency>,
        target: Target,
    ) -> Self {
        let mut b = Self::new();
        b.pair = Some(pair);
        b.ops = ops;
        b.mds = sigma;
        b.target = Some(target);
        b
    }

    /// Seeds a builder from an already-compiled plan, **without** its MD
    /// set: the schema pair, the interned operator table, the target, the
    /// negative rules and the tuning knobs (`top_k`, window, cost
    /// weights, exec) are preserved, while the rules are expected to
    /// arrive fresh via [`EngineBuilder::md_text`] /
    /// [`EngineBuilder::mds`]. This is the rule hot-swap hook: recompile
    /// a *new* rule set against the *existing* schema/operator world, so
    /// serving state keyed to the schemas (record stores, indices)
    /// survives rule iteration.
    ///
    /// Measured length statistics
    /// ([`EngineBuilder::statistics_from`]) are carried over from the
    /// plan, so the recompile ranks keys under the same cost model as
    /// the original. The operator *registry* is the standard one — pass
    /// the original through [`EngineBuilder::operators`] when it was
    /// customized (as
    /// [`MatchServer::swap_rules`](crate::server::MatchServer::swap_rules)
    /// does).
    pub fn from_plan(plan: &MatchPlan) -> Self {
        let mut b = Self::new();
        b.pair = Some(plan.pair().clone());
        b.ops = plan.ops().clone();
        b.target = Some(plan.target().clone());
        b.negatives = plan.negatives().to_vec();
        b.top_k = plan.top_k();
        b.window = plan.window();
        b.weights = plan.cost_weights();
        b.exec = plan.exec();
        if let Some((left_lens, right_lens)) = plan.measured_lengths() {
            let (left_sample, right_sample) = match plan.score_sample() {
                Some((l, r)) => (l.clone(), r.clone()),
                None => (
                    Relation::new(plan.pair().left().clone()),
                    Relation::new(plan.pair().right().clone()),
                ),
            };
            b.stats = Some(MeasuredStats {
                left_schema: plan.pair().left().clone(),
                left_lens: left_lens.to_vec(),
                right_schema: plan.pair().right().clone(),
                right_lens: right_lens.to_vec(),
                left_sample,
                right_sample,
            });
        }
        b
    }

    /// Sets the two (distinct) relation schemas.
    #[must_use]
    pub fn schemas(mut self, left: Schema, right: Schema) -> Self {
        self.pair = Some(SchemaPair::new(Arc::new(left), Arc::new(right)));
        self
    }

    /// Sets an existing schema pair.
    #[must_use]
    pub fn schema_pair(mut self, pair: SchemaPair) -> Self {
        self.pair = Some(pair);
        self
    }

    /// Deduplication within one relation: the reflexive pair `(R, R)`.
    #[must_use]
    pub fn dedup_schema(mut self, schema: Schema) -> Self {
        self.pair = Some(SchemaPair::reflexive(Arc::new(schema)));
        self
    }

    /// Replaces the operator registry binding symbolic operators to
    /// executable metrics (defaults to the standard registry plus `≈d`).
    #[must_use]
    pub fn operators(mut self, registry: OpRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Replaces the interned operator *table* the plan's `OperatorId`s
    /// resolve against. The refinement loop uses this to deploy θ-variant
    /// rules: it extends the serving plan's table (interning is
    /// append-only, so existing ids keep their meaning) and compiles the
    /// selected MDs against the extension. Every symbol must still have an
    /// executable binding in the registry — [`EngineBuilder::compile`]
    /// validates that.
    #[must_use]
    pub fn operator_table(mut self, ops: OperatorTable) -> Self {
        self.ops = ops;
        self
    }

    /// Adds MDs in the textual syntax (may be called repeatedly; operator
    /// symbols are interned on compile).
    #[must_use]
    pub fn md_text(mut self, text: &str) -> Self {
        self.md_texts.push(text.to_owned());
        self
    }

    /// Adds one programmatic MD.
    #[must_use]
    pub fn md(mut self, md: MatchingDependency) -> Self {
        self.mds.push(md);
        self
    }

    /// Adds programmatic MDs.
    #[must_use]
    pub fn mds(mut self, mds: impl IntoIterator<Item = MatchingDependency>) -> Self {
        self.mds.extend(mds);
        self
    }

    /// Sets the target identity lists `(Y1, Y2)` by attribute name.
    #[must_use]
    pub fn target(mut self, y1: &[&str], y2: &[&str]) -> Self {
        self.target_names = Some((
            y1.iter().map(|s| (*s).to_owned()).collect(),
            y2.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Sets an already-resolved target.
    #[must_use]
    pub fn target_ids(mut self, target: Target) -> Self {
        self.target = Some(target);
        self
    }

    /// Adds a §8 negative rule (vetoed pairs never match).
    #[must_use]
    pub fn negative_rule(mut self, rule: NegativeRule) -> Self {
        self.negatives.push(rule);
        self
    }

    /// Overrides the [`AttrKind`] of one attribute (applied at compile).
    #[must_use]
    pub fn attr_kind(mut self, side: Side, attr: &str, kind: AttrKind) -> Self {
        self.kind_overrides.push((side, attr.to_owned(), kind));
        self
    }

    /// Number of RCKs to deduce (the match key union size).
    #[must_use]
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Sliding-window size for windowed candidate generation.
    #[must_use]
    pub fn window(mut self, w: usize) -> Self {
        self.window = w;
        self
    }

    /// Cost-model weights `(w1, w2, w3)` — diversity, length, accuracy.
    #[must_use]
    pub fn cost_weights(mut self, w1: f64, w2: f64, w3: f64) -> Self {
        self.weights = (w1, w2, w3);
        self
    }

    /// Execution configuration: how many threads the engine's runtime
    /// pool uses (defaults to `Threads::Auto`, the hardware
    /// parallelism). Parallel output is byte-identical to serial.
    #[must_use]
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Shorthand for [`EngineBuilder::exec`] with a fixed thread count.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.exec = ExecConfig { threads: Threads::Fixed(n) };
        self
    }

    /// Measures per-attribute average lengths on concrete instances,
    /// feeding the cost model's `lt` term (optional — the plan compiles
    /// with uniform statistics otherwise). The relations must instantiate
    /// the builder's schemas; this is validated at compile.
    #[must_use]
    pub fn statistics_from(mut self, left: &Relation, right: &Relation) -> Self {
        self.stats = Some(MeasuredStats {
            left_schema: left.schema().clone(),
            left_lens: left.avg_lengths(),
            right_schema: right.schema().clone(),
            right_lens: right.avg_lengths(),
            left_sample: sample_relation(left),
            right_sample: sample_relation(right),
        });
        self
    }

    /// Compiles the plan: applies kind overrides, parses MDs, validates
    /// operator bindings, builds the cost model, runs `findRCKs`, and
    /// derives the kind-driven sort keys.
    pub fn compile(self) -> Result<MatchPlan, EngineError> {
        if self.window < 2 {
            return Err(EngineError::InvalidConfig {
                message: format!("window must hold at least two tuples, got {}", self.window),
            });
        }
        if self.exec.threads == Threads::Fixed(0) {
            return Err(EngineError::InvalidConfig {
                message: "threads must be at least 1 (use Threads::Auto for the hardware \
                          parallelism)"
                    .to_owned(),
            });
        }
        if self.top_k == 0 {
            return Err(EngineError::InvalidConfig {
                message: "top_k must be at least 1: a plan with no RCKs derives no match \
                          or sort keys and silently matches nothing (for the schema \
                          pair and target alone, use Preset::paper_setting or keep the \
                          builder uncompiled)"
                    .to_owned(),
            });
        }
        let (w1, w2, w3) = self.weights;
        if [w1, w2, w3].iter().any(|w| !(w.is_finite() && *w >= 0.0)) {
            return Err(EngineError::InvalidConfig {
                message: format!(
                    "cost weights must be finite and non-negative, got ({w1}, {w2}, {w3})"
                ),
            });
        }
        let mut pair = self.pair.ok_or(EngineError::MissingSchemas)?;

        // Apply kind overrides by rebuilding the affected schemas.
        if !self.kind_overrides.is_empty() {
            let mut left = pair.left().as_ref().clone();
            let mut right = pair.right().as_ref().clone();
            let reflexive = Arc::ptr_eq(pair.left(), pair.right());
            for (side, attr, kind) in &self.kind_overrides {
                match side {
                    Side::Left => left = left.with_attr_kind(attr, *kind)?,
                    Side::Right => right = right.with_attr_kind(attr, *kind)?,
                }
                if reflexive {
                    // Keep both sides of a dedup pair identical.
                    match side {
                        Side::Left => right = right.with_attr_kind(attr, *kind)?,
                        Side::Right => left = left.with_attr_kind(attr, *kind)?,
                    }
                }
            }
            pair = SchemaPair::new(Arc::new(left), Arc::new(right));
        }

        // Parse textual MDs (interning operators) and collect programmatic
        // ones, re-validated against the (possibly rebuilt) pair.
        let mut ops = self.ops;
        let mut sigma: Vec<MatchingDependency> = Vec::new();
        for text in &self.md_texts {
            sigma.extend(parse_md_set(text, &pair, &mut ops)?);
        }
        for md in self.mds {
            // Programmatic MDs carry raw `OperatorId`s that are only
            // meaningful against *this* builder's operator table; an MD
            // interned into a foreign table would silently evaluate the
            // wrong operator (or index out of bounds at query time).
            // Ids can't be semantically verified, but out-of-range ones
            // are certain misuse — fail here, not in a hot loop.
            for atom in md.lhs() {
                if atom.op.0 as usize >= ops.len() {
                    return Err(EngineError::InvalidConfig {
                        message: format!(
                            "MD atom uses operator id {} but the plan's operator table holds \
                             only {} operators — programmatic MDs must be built against the \
                             plan's own operator table (e.g. via MatchPlan::ops or md_text)",
                            atom.op.0,
                            ops.len()
                        ),
                    });
                }
            }
            sigma.push(MatchingDependency::new(&pair, md.lhs().to_vec(), md.rhs().to_vec())?);
        }

        // Resolve the target.
        let target = match (self.target, &self.target_names) {
            (Some(t), _) => t,
            (None, Some((y1, y2))) => {
                let y1: Vec<&str> = y1.iter().map(String::as_str).collect();
                let y2: Vec<&str> = y2.iter().map(String::as_str).collect();
                Target::by_names(&pair, &y1, &y2)?
            }
            (None, None) => return Err(EngineError::MissingTarget),
        };

        // Fail at compile time when a symbolic operator has no executable
        // binding — not at the first match call. The resolved runtime also
        // drives the score-model fit below.
        let runtime = RuntimeOps::resolve(&ops, &self.registry)?;
        // Per-operator classes, frozen into the plan: `describe()` reports
        // the anchor kinds `MatchIndex` builds from them.
        let atom_classes = (0..ops.len()).map(|i| runtime.class(OperatorId(i as u16))).collect();

        // Cost model: configured weights plus measured `lt` statistics
        // (after checking the measured relations instantiate the schemas —
        // mismatched statistics would silently mis-rank RCKs).
        let mut cost = CostModel::new(w1, w2, w3);
        if let Some(stats) = &self.stats {
            for (measured, expected) in
                [(&stats.left_schema, pair.left()), (&stats.right_schema, pair.right())]
            {
                if !schemas_compatible(measured, expected) {
                    return Err(EngineError::SchemaMismatch {
                        expected: format!("{}/{}", expected.name(), expected.arity()),
                        got: format!("{}/{}", measured.name(), measured.arity()),
                    });
                }
            }
            apply_length_stats(&mut cost, &sigma, &target, &stats.left_lens, &stats.right_lens);
        }

        let outcome = find_rcks(&sigma, &target, self.top_k, &mut cost);
        let sort_keys = rck_sort_keys(&pair, &outcome.keys);
        // Per-key cost under the final model state (the `ct` counters as
        // findRCKs left them) — the ranking evidence `describe()` and
        // match explanations report.
        let rck_costs: Vec<f64> = outcome
            .keys
            .iter()
            .map(|key| key.atoms().iter().map(|a| cost.cost(a.left, a.right)).sum())
            .collect();

        // Compile the calibrated score model alongside the keys: the
        // comparison vector is the union of the RCK atoms; when the
        // builder measured statistics, EM fits m/u on windowed candidate
        // pairs from the retained sample (serial and deterministic), and
        // degenerate samples fall back to the clamped prior.
        let score_atoms = rck_comparison_vector(&outcome.keys);
        let (score_model, score_sample) = match &self.stats {
            Some(stats) if !stats.left_sample.is_empty() && !stats.right_sample.is_empty() => {
                let candidates = multi_pass_window(
                    &stats.left_sample,
                    &stats.right_sample,
                    &sort_keys,
                    self.window,
                );
                let model = ScoreModel::fit_or_prior(
                    score_atoms,
                    &stats.left_sample,
                    &stats.right_sample,
                    &candidates,
                    &runtime,
                );
                (model, Some((stats.left_sample.clone(), stats.right_sample.clone())))
            }
            _ => (ScoreModel::prior(score_atoms), None),
        };

        Ok(MatchPlan::new(
            pair,
            ops,
            sigma,
            target,
            outcome.keys,
            rck_costs,
            atom_classes,
            outcome.complete,
            self.negatives,
            sort_keys,
            self.window,
            self.top_k,
            self.weights,
            self.stats.map(|s| (s.left_lens, s.right_lens)),
            score_model,
            score_sample,
            self.exec,
        ))
    }

    /// Compiles the plan and resolves its operators into a ready
    /// [`MatchEngine`].
    pub fn build(self) -> Result<MatchEngine, EngineError> {
        let registry = self.registry.clone();
        let plan = self.compile()?;
        MatchEngine::from_plan(plan, &registry)
    }
}
