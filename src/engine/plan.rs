//! [`MatchPlan`]: the immutable artifact of compiling MDs into keys.

use matchrules_core::dependency::MatchingDependency;
use matchrules_core::negation::NegativeRule;
use matchrules_core::operators::{OperatorId, OperatorTable};
use matchrules_core::relative_key::{RelativeKey, Target};
use matchrules_core::schema::SchemaPair;
use matchrules_data::relation::Relation;
use matchrules_matcher::index::anchor_of;
use matchrules_matcher::scoring::ScoreModel;
use matchrules_matcher::sortkey::SortKey;
use matchrules_runtime::ExecConfig;
use matchrules_simdist::ops::OpClass;
use std::fmt;
use std::fmt::Write as _;

/// The compiled match plan: schemas, the MD set, the deduced top-k RCKs,
/// and the sort keys derived from them via attribute kinds.
///
/// A plan is immutable and carries no references to instance data; compile
/// it once (an `O(closure)` reasoning step) and execute it over any number
/// of relation pairs through a
/// [`MatchEngine`](crate::engine::MatchEngine). One compiled plan drives
/// all three execution modes — batch matching over windowed candidates,
/// single-relation dedup, and the RCK-driven
/// [`MatchIndex`](crate::engine::MatchIndex) (point queries and
/// index-backed batch matching): the RCK list in [`MatchPlan::rcks`] is
/// simultaneously the match predicate, the source of the derived sort
/// keys, and the source of the index's retrieval anchors.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    pair: SchemaPair,
    ops: OperatorTable,
    sigma: Vec<MatchingDependency>,
    target: Target,
    rcks: Vec<RelativeKey>,
    rck_costs: Vec<f64>,
    /// Per-operator class (indexed by `OperatorId`), as each resolved
    /// operator declared it at compile time.
    atom_classes: Vec<OpClass>,
    complete: bool,
    negatives: Vec<NegativeRule>,
    sort_keys: Vec<SortKey>,
    window: usize,
    top_k: usize,
    weights: (f64, f64, f64),
    avg_lengths: Option<(Vec<f64>, Vec<f64>)>,
    score_model: ScoreModel,
    score_sample: Option<(Relation, Relation)>,
    exec: ExecConfig,
}

impl MatchPlan {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pair: SchemaPair,
        ops: OperatorTable,
        sigma: Vec<MatchingDependency>,
        target: Target,
        rcks: Vec<RelativeKey>,
        rck_costs: Vec<f64>,
        atom_classes: Vec<OpClass>,
        complete: bool,
        negatives: Vec<NegativeRule>,
        sort_keys: Vec<SortKey>,
        window: usize,
        top_k: usize,
        weights: (f64, f64, f64),
        avg_lengths: Option<(Vec<f64>, Vec<f64>)>,
        score_model: ScoreModel,
        score_sample: Option<(Relation, Relation)>,
        exec: ExecConfig,
    ) -> Self {
        MatchPlan {
            pair,
            ops,
            sigma,
            target,
            rcks,
            rck_costs,
            atom_classes,
            complete,
            negatives,
            sort_keys,
            window,
            top_k,
            weights,
            avg_lengths,
            score_model,
            score_sample,
            exec,
        }
    }

    /// The schema pair the plan was compiled for.
    pub fn pair(&self) -> &SchemaPair {
        &self.pair
    }

    /// The symbolic operator table (for rendering keys and MDs).
    pub fn ops(&self) -> &OperatorTable {
        &self.ops
    }

    /// The given MD set Σ.
    pub fn sigma(&self) -> &[MatchingDependency] {
        &self.sigma
    }

    /// The target identity lists `(Y1, Y2)`.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The deduced relative candidate keys, in quality order.
    pub fn rcks(&self) -> &[RelativeKey] {
        &self.rcks
    }

    /// The cost-model cost of each deduced key (summed per-atom pair
    /// costs, parallel to [`MatchPlan::rcks`]), evaluated under the
    /// model's **final post-selection state**: `findRCKs` bumps the
    /// diversity (`ct`) counters as it selects, so these are comparable
    /// snapshots of all keys under one state — not the exact values each
    /// key minimized at its own selection step, and not necessarily
    /// ascending.
    pub fn rck_costs(&self) -> &[f64] {
        &self.rck_costs
    }

    /// Whether the RCK enumeration was exhaustive (Proposition 5.1: the
    /// plan then holds *every* key deducible from Σ).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The class of `op` — how atoms under it are evaluated, and how (and
    /// whether) the RCK-driven index can anchor them — as the resolved
    /// operator declared it at compile time.
    pub fn atom_class(&self, op: OperatorId) -> OpClass {
        self.atom_classes[op.0 as usize]
    }

    /// Whether every RCK of the plan has at least one indexable atom —
    /// i.e. a [`MatchIndex`](crate::engine::MatchIndex) built from this
    /// plan probes entirely through its anchors, with zero scan-fallback
    /// keys.
    pub fn fully_indexable(&self) -> bool {
        self.rcks
            .iter()
            .all(|key| key.atoms().iter().any(|a| anchor_of(self.atom_class(a.op)).is_some()))
    }

    /// The `top_k` bound the plan was compiled with (how many RCKs
    /// `findRCKs` was asked for) — preserved so a rule hot-swap
    /// ([`EngineBuilder::from_plan`](crate::engine::EngineBuilder::from_plan))
    /// recompiles under the same configuration.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// The cost-model weights `(w1, w2, w3)` the plan was compiled with.
    pub fn cost_weights(&self) -> (f64, f64, f64) {
        self.weights
    }

    /// The measured per-attribute average lengths
    /// ([`EngineBuilder::statistics_from`](crate::engine::EngineBuilder::statistics_from))
    /// the cost model saw, when any — preserved so a rule hot-swap
    /// recompiles under the *same* cost ranking as the original plan.
    pub fn measured_lengths(&self) -> Option<(&[f64], &[f64])> {
        self.avg_lengths.as_ref().map(|(l, r)| (l.as_slice(), r.as_slice()))
    }

    /// The calibrated pair-scoring model compiled alongside the keys:
    /// Fellegi–Sunter weights over the union of the RCK atoms, EM-fitted
    /// on the builder's measured sample when one was supplied
    /// ([`EngineBuilder::statistics_from`](crate::engine::EngineBuilder::statistics_from)),
    /// otherwise the clamped prior. Scoring through it is a pure function
    /// of the tuple pair, so ranked results are identical across thread
    /// counts.
    pub fn score_model(&self) -> &ScoreModel {
        &self.score_model
    }

    /// The retained scoring sample (when statistics were measured) —
    /// preserved so a rule hot-swap refits the score model on the *same*
    /// sample, keeping post-swap scores deterministic.
    pub(crate) fn score_sample(&self) -> Option<&(Relation, Relation)> {
        self.score_sample.as_ref()
    }

    /// The §8 negative rules guarding the match keys.
    pub fn negatives(&self) -> &[NegativeRule] {
        &self.negatives
    }

    /// Sort keys derived from the top RCKs (multi-pass windowing).
    pub fn sort_keys(&self) -> &[SortKey] {
        &self.sort_keys
    }

    /// The configured sliding-window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The execution configuration (thread policy) the plan was compiled
    /// with; [`MatchEngine::with_exec`](crate::engine::MatchEngine::with_exec)
    /// can override it per engine without recompiling.
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// Human-readable provenance: schemas, Σ, and the deduced keys with
    /// their cost-model costs and per-atom index anchors — what a report
    /// means by "plan". [`MatchPlan`]'s `Display` implementation
    /// delegates here.
    ///
    /// ```
    /// use matchrules::engine::Preset;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let engine = Preset::Example11.builder().build()?;
    /// let text = engine.plan().describe();
    /// assert!(text.contains("3 MDs -> 5 RCKs"));
    /// // Every deduced key is listed with its cost-model cost and the
    /// // anchor kinds the MatchIndex will probe it through…
    /// assert!(text.contains("[cost "));
    /// assert!(text.contains("[anchors: "));
    /// // …and Display renders the same provenance.
    /// assert_eq!(engine.plan().to_string(), text);
    /// # Ok(()) }
    /// ```
    ///
    /// A key none of whose operators declares a retrieval strategy falls
    /// off the index onto a per-probe scan; `describe` warns per key,
    /// naming the offending operator(s):
    ///
    /// ```
    /// use matchrules::core::schema::Schema;
    /// use matchrules::engine::EngineBuilder;
    /// use matchrules::simdist::ops::{EqualityOp, SynonymOp};
    /// use matchrules_data::eval::paper_registry;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // A synonym operator with a fallback declares OpClass::Scan.
    /// let mut registry = paper_registry();
    /// registry.register(Arc::new(
    ///     SynonymOp::from_groups("≈nick", [["Bob", "Robert"].as_slice()])
    ///         .with_fallback(Arc::new(EqualityOp)),
    /// ));
    /// let engine = EngineBuilder::new()
    ///     .schemas(Schema::text("a", &["name"])?, Schema::text("b", &["name"])?)
    ///     .md_text("a[name] ~nick b[name] -> a[name] <=> b[name]")
    ///     .target(&["name"], &["name"])
    ///     .operators(registry)
    ///     .build()?;
    /// let text = engine.plan().describe();
    /// assert!(text.contains("scan fallback"));
    /// assert!(text.contains("≈nick"));
    /// assert!(!engine.plan().fully_indexable());
    /// # Ok(()) }
    /// ```
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan over ({}/{} attrs, {}/{} attrs): {} MDs -> {} RCKs{}",
            self.pair.left().name(),
            self.pair.left().arity(),
            self.pair.right().name(),
            self.pair.right().arity(),
            self.sigma.len(),
            self.rcks.len(),
            if self.complete { " (complete)" } else { "" },
        );
        for (i, key) in self.rcks.iter().enumerate() {
            // Anchor kinds the index gives this key's atoms, in atom
            // order; operators with no retrieval strategy are collected
            // for the scan warning below.
            let mut kinds: Vec<&'static str> = Vec::new();
            let mut unindexable: Vec<&str> = Vec::new();
            for atom in key.atoms() {
                match anchor_of(self.atom_class(atom.op)) {
                    Some(anchor) => {
                        let kind = anchor.name();
                        if !kinds.contains(&kind) {
                            kinds.push(kind);
                        }
                    }
                    None => {
                        let name = self.ops.name(atom.op);
                        if !unindexable.contains(&name) {
                            unindexable.push(name);
                        }
                    }
                }
            }
            let _ = writeln!(
                out,
                "  [cost {:.2}] {} [anchors: {}]",
                self.rck_costs.get(i).copied().unwrap_or(f64::NAN),
                key.display(&self.pair, &self.ops),
                if kinds.is_empty() { "none".to_owned() } else { kinds.join(", ") },
            );
            if kinds.is_empty() {
                let _ = writeln!(
                    out,
                    "    !! scan fallback: every probe scans all live tuples for this key \
                     (operator{} {} declare{} no retrieval strategy)",
                    if unindexable.len() == 1 { "" } else { "s" },
                    unindexable.join(", "),
                    if unindexable.len() == 1 { "s" } else { "" },
                );
            }
        }
        let _ = writeln!(
            out,
            "  derived: {} sort key(s), window {}, threads {}",
            self.sort_keys.len(),
            self.window,
            self.exec.threads,
        );
        out
    }
}

impl fmt::Display for MatchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}
