//! [`CandidatePool`]: the rule candidates a refinement run selects from,
//! together with the operator world they are compiled against.
//!
//! A pool starts from the serving plan's rule set (the *seed*) and its
//! interned [`OperatorTable`], then grows three ways:
//!
//! * **hand-written MDs** — parsed from the textual syntax or added
//!   programmatically;
//! * **discovery proposals** — [`DiscoveredMd`]s from the
//!   [`matcher::discovery`](matchrules_matcher::discovery) miner;
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
use matchrules_core::parser::parse_md_set;
use matchrules_core::schema::SchemaPair;
use matchrules_matcher::discovery::DiscoveredMd;
use matchrules_simdist::ops::{
    AliasOp, DamerauOp, JaroWinklerOp, LevenshteinOp, OpRegistry, QgramOp, SimilarityOp,
    TokenJaccardOp,
};
use std::sync::Arc;

use super::RefineError;

/// Where a candidate rule came from — kept for the refinement report.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOrigin {
    /// Part of the serving plan's rule set the refiner started from.
    Seed,
    /// Hand-written (textual or programmatic) addition.
    Handwritten,
    /// Proposed by the [`matchrules_matcher::discovery`] miner.
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
pub struct CandidateRule {
    /// The rule, compiled against the pool's operator table.
    pub md: MatchingDependency,
    /// Where it came from.
    pub origin: CandidateOrigin,
}

/// The candidate rules of one refinement run plus their operator world.
#[derive(Debug, Clone)]
pub struct CandidatePool {
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
    /// A pool seeded with `seed` rules against (a copy of) `ops` and
    /// `registry` — in practice the serving plan's table/registry, so the
    /// pool's world extends the plan's.
    pub fn new(
        pair: SchemaPair,
        ops: OperatorTable,
        registry: OpRegistry,
        seed: &[MatchingDependency],
    ) -> Self {
        let rules = seed
            .iter()
            .map(|md| CandidateRule { md: md.clone(), origin: CandidateOrigin::Seed })
            .collect::<Vec<_>>();
        let seed_len = rules.len();
        CandidatePool { pair, ops, registry, rules, seed_len }
    }

    /// Adds hand-written MDs in the textual syntax (newline-separated;
    /// operator symbols are interned into the pool's table). Returns how
    /// many rules were added.
    pub fn add_text(&mut self, text: &str) -> Result<usize, RefineError> {
        let mds = parse_md_set(text, &self.pair, &mut self.ops)?;
        Ok(self.add_rules(mds))
    }

    /// Adds programmatic MDs built against the pool's operator table
    /// (out-of-range operator ids are rejected). Duplicates of existing
    /// candidates are skipped; returns how many were added.
    pub fn add_rules(&mut self, mds: impl IntoIterator<Item = MatchingDependency>) -> usize {
        let mut added = 0;
        for md in mds {
            if md.lhs().iter().any(|a| a.op.0 as usize >= self.ops.len()) {
                continue;
            }
            if self.push_unique(md, CandidateOrigin::Handwritten) {
                added += 1;
            }
        }
        added
    }

    /// Adds miner proposals with their sample statistics. Duplicates of
    /// existing candidates are skipped; returns how many were added.
    pub fn add_discovered(&mut self, mined: &[DiscoveredMd]) -> usize {
        let mut added = 0;
        for d in mined {
            let origin =
                CandidateOrigin::Discovered { support: d.support, confidence: d.confidence };
            if self.push_unique(d.md.clone(), origin) {
                added += 1;
            }
        }
        added
    }

    /// Expands every fuzzy LHS atom of every current candidate into one
    /// variant per threshold in `grid`: the swept atom's operator is
    /// replaced by an aliased θ-variant (`≈dl@0.70`, …), interned and
    /// registered in the pool's world. Non-fuzzy atoms (equality,
    /// phonetic codes) are left alone. Returns how many variants were
    /// added.
    pub fn sweep_thetas(&mut self, grid: &[f64]) -> usize {
        let base_len = self.rules.len();
        let mut added = 0;
        for rule_idx in 0..base_len {
            // Sweeping a sweep would square the grid; only originals.
            if matches!(self.rules[rule_idx].origin, CandidateOrigin::ThetaSweep { .. }) {
                continue;
            }
            let md = self.rules[rule_idx].md.clone();
            for atom_idx in 0..md.lhs().len() {
                let base_name = self.ops.name(md.lhs()[atom_idx].op).to_owned();
                for &theta in grid {
                    if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
                        continue;
                    }
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
                    if self.push_unique(variant, origin) {
                        added += 1;
                    }
                }
            }
        }
        added
    }

    fn push_unique(&mut self, md: MatchingDependency, origin: CandidateOrigin) -> bool {
        if self.rules.iter().any(|r| r.md == md) {
            return false;
        }
        self.rules.push(CandidateRule { md, origin });
        true
    }

    /// The candidate rules, seed first, in insertion order.
    pub fn rules(&self) -> &[CandidateRule] {
        &self.rules
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the pool holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Indices of the seed rules (always `0..seed_len`).
    pub fn seed_indices(&self) -> Vec<usize> {
        (0..self.seed_len).collect()
    }

    /// The pool's (extended) operator table.
    pub fn ops(&self) -> &OperatorTable {
        &self.ops
    }

    /// The pool's (extended) operator registry.
    pub fn registry(&self) -> &OpRegistry {
        &self.registry
    }

    /// The schema pair candidates are validated against.
    pub fn pair(&self) -> &SchemaPair {
        &self.pair
    }

    /// Renders candidate `idx` with relation/attribute/operator names.
    pub fn describe(&self, idx: usize) -> String {
        self.rules[idx].md.display(&self.pair, &self.ops).to_string()
    }

    /// Renders one LHS atom with relation/attribute/operator names, e.g.
    /// `credit[FN] ≈dl@0.70 billing[FN]`.
    pub fn atom_label(&self, atom: &SimilarityAtom) -> String {
        format!(
            "{}[{}] {} {}[{}]",
            self.pair.left().name(),
            self.pair.left().attr_name(atom.left),
            self.ops.name(atom.op),
            self.pair.right().name(),
            self.pair.right().attr_name(atom.right),
        )
    }

    /// All operator ids currently interned — what a discovery run over
    /// the pool's world may try as LHS operators.
    pub fn op_ids(&self) -> Vec<OperatorId> {
        self.ops.ids().collect()
    }
}
