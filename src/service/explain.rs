//! [`MatchExplanation`]: *why* a (probe, record) pair matched — or
//! didn't.
//!
//! An explanation has two halves, mirroring the paper's split between
//! reasoning and matching:
//!
//! * the **evaluation trace** — per key, per atom: which operator
//!   compared which attributes, the θ-derived edit bound, the exact edit
//!   distance computed, which pipeline stage decided, and pass/fail —
//!   threaded up from the compiled kernel path
//!   ([`AtomTrace`](crate::engine::AtomTrace)), so the explanation
//!   describes the *actual* decision procedure, not a re-implementation
//!   of it;
//! * the **deduction path** — for the key that fired, the given MDs of Σ
//!   that MDClosure applies (in firing order) to deduce that the key
//!   identifies the target at all
//!   ([`deduction_path`](matchrules_core::deduction::deduction_path)).

use crate::engine::{AtomStage, MatchPlan, PairTrace};
use crate::service::match_service::{RecordId, RuleVersion};
use matchrules_core::deduction::deduction_path;
use std::fmt;

/// One atom of one key, as evaluated on the explained pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomExplanation {
    /// Name of the compared attribute on the probe (left) side.
    pub left: String,
    /// Name of the compared attribute on the stored (right) side.
    pub right: String,
    /// The operator's symbolic name (`"="`, `"≈d"`, …).
    pub op: String,
    /// Whether the atom held.
    pub passed: bool,
    /// Which stage of the compiled pipeline decided it.
    pub stage: AtomStage,
    /// The θ-derived edit bound (edit operators only).
    pub bound: Option<usize>,
    /// The exact edit distance of the pair (edit operators only).
    pub distance: Option<usize>,
}

impl fmt::Display for AtomExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}: {}",
            self.left,
            self.op,
            self.right,
            if self.passed { "pass" } else { "fail" },
        )?;
        match (self.distance, self.bound) {
            (Some(d), Some(b)) => {
                write!(
                    f,
                    " (dist {d} {} bound {b}, via {})",
                    if d <= b { "≤" } else { ">" },
                    self.stage.name()
                )
            }
            _ => write!(f, " (via {})", self.stage.name()),
        }
    }
}

/// One key of the plan, as evaluated on the explained pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyExplanation {
    /// Index into [`MatchPlan::rcks`].
    pub key: usize,
    /// The key in the paper's `(X1, X2 ‖ C)` notation.
    pub rendered: String,
    /// The key's cost under the plan's final cost-model state (see
    /// [`MatchPlan::rck_costs`](crate::engine::MatchPlan::rck_costs)).
    pub cost: f64,
    /// Whether every atom held (the key accepted the pair).
    pub matched: bool,
    /// Per-atom outcomes, in the key's canonical atom order.
    pub atoms: Vec<AtomExplanation>,
}

/// One step of the deduction path: a given MD of Σ that fired during
/// MDClosure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeductionStep {
    /// Index into [`MatchPlan::sigma`].
    pub md: usize,
    /// The MD in the parser's textual syntax.
    pub rendered: String,
}

/// The full explanation of one `(probe, stored record)` decision at one
/// rule version. Produced by
/// [`MatchServer::explain`](crate::server::MatchServer::explain);
/// `Display` renders a multi-line human-readable trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchExplanation {
    /// Id of the explained stored record.
    pub id: RecordId,
    /// The final decision: some key accepted and no negative rule
    /// vetoed — exactly when a query for the probe returns `id`.
    pub matched: bool,
    /// The first key that accepted the pair (the key a query hit
    /// reports), independent of vetoes.
    pub fired_key: Option<usize>,
    /// Whether a §8 negative rule vetoes the pair.
    pub vetoed: bool,
    /// The rule version the explanation was computed under.
    pub version: RuleVersion,
    /// Every key's evaluation, in plan order.
    pub keys: Vec<KeyExplanation>,
    /// For the fired key: the given MDs (first-firing order,
    /// deduplicated) whose closure makes it a key relative to the
    /// target. Empty when no key fired or the key is not deducible from
    /// Σ (hand-pinned key lists).
    pub deduction: Vec<DeductionStep>,
}

impl MatchExplanation {
    pub(crate) fn from_trace(
        trace: PairTrace,
        id: RecordId,
        plan: &MatchPlan,
        version: RuleVersion,
    ) -> MatchExplanation {
        let pair = plan.pair();
        let ops = plan.ops();
        let keys: Vec<KeyExplanation> = trace
            .keys
            .iter()
            .map(|kt| {
                let key = &plan.rcks()[kt.key];
                KeyExplanation {
                    key: kt.key,
                    rendered: key.display(pair, ops).to_string(),
                    cost: plan.rck_costs().get(kt.key).copied().unwrap_or(f64::NAN),
                    matched: kt.matched,
                    atoms: kt
                        .atoms
                        .iter()
                        .map(|(atom, t)| AtomExplanation {
                            left: pair.left().attr_name(atom.left).to_owned(),
                            right: pair.right().attr_name(atom.right).to_owned(),
                            op: ops.name(atom.op).to_owned(),
                            passed: t.matched,
                            stage: t.stage,
                            bound: t.bound,
                            distance: t.distance,
                        })
                        .collect(),
                }
            })
            .collect();
        let deduction = trace
            .matched_key
            .and_then(|k| {
                let md = plan.rcks()[k].to_md(plan.target());
                deduction_path(plan.sigma(), &md)
            })
            .map(|path| {
                // The closure trace lists one firing per normalized rule;
                // keep each source MD's first firing.
                let mut seen = vec![false; plan.sigma().len()];
                path.into_iter()
                    .filter(|&i| !std::mem::replace(&mut seen[i], true))
                    .map(|i| DeductionStep {
                        md: i,
                        rendered: plan.sigma()[i].display(pair, ops).to_string(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        MatchExplanation {
            id,
            matched: trace.matched(),
            fired_key: trace.matched_key,
            vetoed: trace.vetoed,
            version,
            keys,
            deduction,
        }
    }
}

impl fmt::Display for MatchExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record {} ({}): ", self.id, self.version)?;
        match (self.fired_key, self.vetoed) {
            (Some(k), false) => writeln!(f, "MATCH via key {k}")?,
            (Some(k), true) => {
                writeln!(f, "NO MATCH — key {k} accepted but a negative rule vetoes")?
            }
            (None, _) => writeln!(f, "NO MATCH — no key accepted")?,
        }
        for key in &self.keys {
            writeln!(
                f,
                "  key {} [cost {:.2}] {}: {}",
                key.key,
                key.cost,
                key.rendered,
                if key.matched { "accepted" } else { "rejected" },
            )?;
            for atom in &key.atoms {
                writeln!(f, "    {atom}")?;
            }
        }
        if !self.deduction.is_empty() {
            writeln!(f, "  key deduced from Σ by firing:")?;
            for step in &self.deduction {
                writeln!(f, "    ϕ{}: {}", step.md, step.rendered)?;
            }
        }
        Ok(())
    }
}
