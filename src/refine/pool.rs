//! [`CandidatePool`]: the rule candidates a refinement run selects from,
//! together with the operator world they are compiled against.
//!
//! A pool starts from the serving plan's rule set (the *seed*) and its
//! interned [`OperatorTable`], then grows two ways:
//!
//! * **mined proposals** — [`DiscoveredMd`]s from the labeled sample
//!   (see [`mine`](super::mine));
//! * **θ-threshold sweeps** — every fuzzy LHS atom of every candidate is
//!   expanded into a small grid of threshold variants. A variant operator
//!   is an [`AliasOp`] (e.g. `≈dl@0.70` wrapping Damerau–Levenshtein at
//!   θ = 0.70) interned into the pool's table and registered in the
//!   pool's registry, so selected variants deploy like any other rule.
//!
//! Interning is append-only, so the pool's table is always a superset of
//! the plan's: existing `OperatorId`s keep their meaning, which is what
//! lets the selected set hot-swap into a running server.

use matchrules_core::dependency::{MatchingDependency, SimilarityAtom};
use matchrules_core::operators::{OperatorId, OperatorTable};
use matchrules_core::schema::SchemaPair;
use matchrules_simdist::ops::{
    AliasOp, DamerauOp, JaroWinklerOp, LevenshteinOp, OpRegistry, QgramOp, SimilarityOp,
    TokenJaccardOp,
};
use std::sync::Arc;

use super::mine::DiscoveredMd;
use crate::engine::MatchPlan;

/// Where a candidate rule came from — kept for the refinement report.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOrigin {
    /// Part of the serving plan's rule set refinement started from.
    Seed,
    /// Mined from the labeled sample.
    Discovered {
        /// Sample pairs matching the rule's LHS.
        support: usize,
        /// Fraction of those whose RHS values agree.
        confidence: f64,
    },
    /// A θ-threshold variant of another candidate's fuzzy atom.
    ThetaSweep {
        /// Pool index of the candidate the variant was derived from.
        base: usize,
        /// The threshold the swept atom runs at.
        theta: f64,
    },
}

/// One candidate rule with its provenance.
#[derive(Debug, Clone)]
pub(super) struct CandidateRule {
    /// The rule, compiled against the pool's operator table.
    pub(super) md: MatchingDependency,
    /// Where it came from.
    pub(super) origin: CandidateOrigin,
}

/// The candidate rules of one refinement run plus their operator world.
#[derive(Debug, Clone)]
pub(super) struct CandidatePool {
    pair: SchemaPair,
    ops: OperatorTable,
    registry: OpRegistry,
    rules: Vec<CandidateRule>,
    seed_len: usize,
}

/// The executable θ-variant of a fuzzy operator, by base-operator name.
/// `None` for operators without a tunable threshold (equality, Soundex,
/// digit projection…).
fn theta_variant(base: &str, theta: f64) -> Option<Arc<dyn SimilarityOp>> {
    match base {
        "≈d" | "≈dl" => Some(Arc::new(DamerauOp::with_threshold(theta))),
        "≈lev" => Some(Arc::new(LevenshteinOp::with_threshold(theta))),
        "≈jw" => Some(Arc::new(JaroWinklerOp::with_min(theta))),
        "≈qg" => Some(Arc::new(QgramOp::new(2, theta))),
        "≈tok" => Some(Arc::new(TokenJaccardOp::with_min(theta))),
        _ => None,
    }
}

impl CandidatePool {
    /// A pool seeded with `plan`'s rules against copies of its operator
    /// table and of `registry`, so the pool's world extends the plan's.
    pub(super) fn new(plan: &MatchPlan, registry: &OpRegistry) -> Self {
        let rules = (plan.sigma().iter())
            .map(|md| CandidateRule { md: md.clone(), origin: CandidateOrigin::Seed })
            .collect::<Vec<_>>();
        let seed_len = rules.len();
        CandidatePool {
            pair: plan.pair().clone(),
            ops: plan.ops().clone(),
            registry: registry.clone(),
            rules,
            seed_len,
        }
    }

    /// Adds miner proposals with their sample statistics. Duplicates of
    /// existing candidates are skipped.
    pub(super) fn add_discovered(&mut self, mined: &[DiscoveredMd]) {
        for d in mined {
            let origin =
                CandidateOrigin::Discovered { support: d.support, confidence: d.confidence };
            self.push_unique(d.md.clone(), origin);
        }
    }

    /// Expands every fuzzy LHS atom of every current candidate into one
    /// variant per threshold in `grid`: the swept atom's operator is
    /// replaced by an aliased θ-variant (`≈dl@0.70`, …), interned and
    /// registered in the pool's world. Non-fuzzy atoms (equality,
    /// phonetic codes) are left alone.
    pub(super) fn sweep_thetas(&mut self, grid: &[f64]) {
        let base_len = self.rules.len();
        for rule_idx in 0..base_len {
            // Sweeping a sweep would square the grid; only originals.
            if matches!(self.rules[rule_idx].origin, CandidateOrigin::ThetaSweep { .. }) {
                continue;
            }
            let md = self.rules[rule_idx].md.clone();
            for atom_idx in 0..md.lhs().len() {
                let base_name = self.ops.name(md.lhs()[atom_idx].op).to_owned();
                for &theta in grid {
                    let Some(inner) = theta_variant(&base_name, theta) else { break };
                    let alias = format!("{base_name}@{theta:.2}");
                    let op_id = self.ops.intern(&alias);
                    if self.registry.get(&alias).is_none() {
                        self.registry.register(Arc::new(AliasOp::new(&alias, inner)));
                    }
                    let mut lhs: Vec<SimilarityAtom> = md.lhs().to_vec();
                    lhs[atom_idx] =
                        SimilarityAtom::new(lhs[atom_idx].left, lhs[atom_idx].right, op_id);
                    let variant = MatchingDependency::from_validated_parts(lhs, md.rhs().to_vec());
                    let origin = CandidateOrigin::ThetaSweep { base: rule_idx, theta };
                    self.push_unique(variant, origin);
                }
            }
        }
    }

    fn push_unique(&mut self, md: MatchingDependency, origin: CandidateOrigin) {
        if !self.rules.iter().any(|r| r.md == md) {
            self.rules.push(CandidateRule { md, origin });
        }
    }

    /// The candidate rules, seed first, in insertion order.
    pub(super) fn rules(&self) -> &[CandidateRule] {
        &self.rules
    }

    /// Number of candidates.
    pub(super) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the pool holds no candidates.
    pub(super) fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Indices of the seed rules (always `0..seed_len`).
    pub(super) fn seed_indices(&self) -> Vec<usize> {
        (0..self.seed_len).collect()
    }

    /// The pool's (extended) operator table.
    pub(super) fn ops(&self) -> &OperatorTable {
        &self.ops
    }

    /// The pool's (extended) operator registry.
    pub(super) fn registry(&self) -> &OpRegistry {
        &self.registry
    }

    /// Renders candidate `idx` with relation/attribute/operator names.
    pub(super) fn describe(&self, idx: usize) -> String {
        self.rules[idx].md.display(&self.pair, &self.ops).to_string()
    }

    /// Renders one LHS atom with relation/attribute/operator names, e.g.
    /// `credit[FN] ≈dl@0.70 billing[FN]`.
    pub(super) fn atom_label(&self, atom: &SimilarityAtom) -> String {
        format!(
            "{}[{}] {} {}[{}]",
            self.pair.left().name(),
            self.pair.left().attr_name(atom.left),
            self.ops.name(atom.op),
            self.pair.right().name(),
            self.pair.right().attr_name(atom.right),
        )
    }

    /// All operator ids currently interned — what mining over the pool's
    /// world tries as LHS operators.
    pub(super) fn op_ids(&self) -> Vec<OperatorId> {
        self.ops.ids().collect()
    }
}
