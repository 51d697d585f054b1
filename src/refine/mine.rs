//! Discovering MDs from sample data — the paper's final §8 future-work
//! item ("develop algorithms for discovering MDs from sample data, along
//! the same lines as discovery of FDs").
//!
//! The miner is a levelwise (apriori-style) search over candidate LHS atom
//! sets, scored on a sample of tuple pairs:
//!
//! * **support** — how many sample pairs match the LHS;
//! * **confidence** — among those, the fraction whose RHS values are
//!   already equal. A high-confidence rule is evidence that "LHS-similar
//!   pairs agree on RHS", i.e. a plausible MD to hand to the reasoning
//!   core (which then deduces RCKs from it).
//!
//! Only *minimal* rules are emitted: an LHS is not extended once it already
//! yields the RHS at the confidence threshold.
//!
//! Refinement is the one caller: it mines the labeled pairs, with the
//! support floor and the LHS operators derived from the labels and the
//! serving plan, at a fixed confidence floor and LHS depth.

use matchrules_core::dependency::{IdentPair, MatchingDependency, SimilarityAtom};
use matchrules_core::operators::OperatorId;
use matchrules_core::schema::AttrId;
use matchrules_data::eval::RuntimeOps;
use matchrules_data::relation::Relation;

/// Minimum fraction of LHS-matching pairs whose RHS values agree.
const MIN_CONFIDENCE: f64 = 0.9;
/// Maximum LHS length explored (levelwise depth).
const MAX_LHS: usize = 2;

/// A mined MD with its sample statistics.
#[derive(Debug, Clone)]
pub(super) struct DiscoveredMd {
    /// The rule, in normal form (single RHS pair).
    pub(super) md: MatchingDependency,
    /// Number of sample pairs matching the LHS.
    pub(super) support: usize,
    /// Fraction of those pairs whose RHS values agree.
    pub(super) confidence: f64,
}

/// Mines MDs over the given comparable attribute pairs from a sample of
/// `(credit, billing)` tuple pairs, trying every operator of `lhs_ops` on
/// every attribute pair. Empty `attr_pairs`, `lhs_ops` or `sample` mine
/// nothing.
pub(super) fn discover(
    credit: &Relation,
    billing: &Relation,
    attr_pairs: &[(AttrId, AttrId)],
    sample: &[(usize, usize)],
    ops: &RuntimeOps,
    min_support: usize,
    lhs_ops: &[OperatorId],
) -> Vec<DiscoveredMd> {
    // Pre-evaluate every (attribute pair, operator) predicate on the sample.
    let atoms: Vec<SimilarityAtom> = attr_pairs
        .iter()
        .flat_map(|&(l, r)| lhs_ops.iter().map(move |&op| SimilarityAtom::new(l, r, op)))
        .collect();
    let bits: Vec<Vec<bool>> = atoms
        .iter()
        .map(|atom| {
            sample
                .iter()
                .map(|&(c, b)| ops.atom_matches(atom, &credit.tuples()[c], &billing.tuples()[b]))
                .collect()
        })
        .collect();
    // RHS agreement = the equality bits of each attribute pair.
    let rhs_bits: Vec<(IdentPair, &Vec<bool>)> = atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| a.op.is_eq())
        .map(|(i, a)| (a.pair(), &bits[i]))
        .collect();

    let mut out: Vec<DiscoveredMd> = Vec::new();
    // Levelwise frontier: (sorted atom indices, conjunction bitmap).
    let mut frontier: Vec<(Vec<usize>, Vec<bool>)> =
        (0..atoms.len()).map(|i| (vec![i], bits[i].clone())).collect();

    for _level in 0..MAX_LHS {
        let mut next: Vec<(Vec<usize>, Vec<bool>)> = Vec::new();
        for (idxs, mask) in &frontier {
            let support = mask.iter().filter(|&&b| b).count();
            if support < min_support {
                continue; // anti-monotone prune
            }
            let mut saturated = false;
            for (rhs, eq_bits) in &rhs_bits {
                // Skip trivial rules whose RHS pair is already an LHS atom.
                if idxs.iter().any(|&i| atoms[i].pair() == *rhs) {
                    continue;
                }
                let hits = mask.iter().zip(eq_bits.iter()).filter(|(&m, &e)| m && e).count();
                let confidence = hits as f64 / support as f64;
                if confidence >= MIN_CONFIDENCE {
                    let lhs: Vec<SimilarityAtom> = idxs.iter().map(|&i| atoms[i]).collect();
                    out.push(DiscoveredMd {
                        md: MatchingDependency::from_validated_parts(lhs, vec![*rhs]),
                        support,
                        confidence,
                    });
                    saturated = true;
                }
            }
            // Minimality: only extend LHSs that have not yet produced rules.
            if !saturated && idxs.len() < MAX_LHS {
                let last = *idxs.last().expect("non-empty");
                for j in (last + 1)..atoms.len() {
                    // Avoid conjoining two operators on the same pair.
                    if idxs.iter().any(|&i| atoms[i].pair() == atoms[j].pair()) {
                        continue;
                    }
                    let conj: Vec<bool> =
                        mask.iter().zip(&bits[j]).map(|(&a, &b)| a && b).collect();
                    let mut ext = idxs.clone();
                    ext.push(j);
                    next.push((ext, conj));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    // Highest-confidence, highest-support rules first.
    out.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite confidence")
            .then(b.support.cmp(&a.support))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::paper;
    use matchrules_data::dirty::{generate_dirty, NoiseConfig};
    use matchrules_data::eval::paper_registry;

    fn setup() -> (paper::PaperSetting, matchrules_data::DirtyData, RuntimeOps) {
        let setting = paper::extended();
        let data = generate_dirty(
            &setting.pair,
            &setting.target,
            250,
            &NoiseConfig { duplicate_rate: 0.8, attr_error_prob: 0.3, seed: 0xD15C },
        );
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        (setting, data, ops)
    }

    fn pairs_of(setting: &paper::PaperSetting) -> Vec<(AttrId, AttrId)> {
        setting.target.y1().iter().zip(setting.target.y2()).map(|(&l, &r)| (l, r)).collect()
    }

    /// Mines with equality as the only LHS operator.
    fn mine_eq(
        setting: &paper::PaperSetting,
        data: &matchrules_data::DirtyData,
        ops: &RuntimeOps,
        sample: &[(usize, usize)],
        min_support: usize,
    ) -> Vec<DiscoveredMd> {
        let pairs = pairs_of(setting);
        discover(&data.credit, &data.billing, &pairs, sample, ops, min_support, &[OperatorId::EQ])
    }

    #[test]
    fn discovers_email_implies_name() {
        let (setting, data, ops) = setup();
        let sample: Vec<(usize, usize)> = (0..data.credit.len())
            .flat_map(|c| (0..data.billing.len()).step_by(7).map(move |b| (c, b)))
            .take(40_000)
            .collect();
        let mined = mine_eq(&setting, &data, &ops, &sample, 5);
        assert!(!mined.is_empty());
        // email= → LN⇌LN must be among the mined rules (emails are unique
        // per person in the generator).
        let email = setting.pair.left().attr("email").unwrap();
        let ln_l = setting.pair.left().attr("LN").unwrap();
        let found = mined.iter().any(|d| {
            d.md.lhs().len() == 1 && d.md.lhs()[0].left == email && d.md.rhs()[0].left == ln_l
        });
        assert!(found, "email → LN not mined: {:?}", mined.iter().take(8).collect::<Vec<_>>());
    }

    #[test]
    fn mined_rules_respect_thresholds() {
        let (setting, data, ops) = setup();
        let sample: Vec<(usize, usize)> = (0..data.credit.len())
            .flat_map(|c| (0..data.billing.len()).step_by(13).map(move |b| (c, b)))
            .take(20_000)
            .collect();
        let mined = mine_eq(&setting, &data, &ops, &sample, 10);
        for d in mined {
            assert!(d.support >= 10);
            assert!(d.confidence >= MIN_CONFIDENCE);
            assert!(d.md.lhs().len() <= MAX_LHS);
            assert!(d.md.is_normal());
            // No trivial self-rules.
            assert!(d.md.lhs().iter().all(|a| a.pair() != d.md.rhs()[0]));
        }
    }

    #[test]
    fn mined_mds_feed_the_reasoning_core() {
        let (setting, data, ops) = setup();
        let sample: Vec<(usize, usize)> = (0..data.credit.len())
            .map(|c| {
                // base billing tuples were generated aligned with persons,
                // but shuffled; use truth to align a clean sample.
                let b = (0..data.billing.len()).find(|&b| data.truth.is_match(c, b)).unwrap();
                (c, b)
            })
            .collect();
        let mined = mine_eq(&setting, &data, &ops, &sample, 20);
        assert!(!mined.is_empty());
        let sigma: Vec<MatchingDependency> = mined.iter().map(|d| d.md.clone()).collect();
        // The mined Σ admits RCK deduction.
        let mut cost = matchrules_core::cost::CostModel::uniform();
        let outcome = matchrules_core::rck::find_rcks(&sigma, &setting.target, 8, &mut cost);
        assert!(!outcome.keys.is_empty());
    }

    #[test]
    fn empty_inputs_mine_nothing() {
        let (setting, data, ops) = setup();
        let pairs = pairs_of(&setting);
        // One true pair: a rule over it has support 1 and confidence 1.
        let b = (0..data.billing.len()).find(|&b| data.truth.is_match(0, b)).unwrap();
        let sample = [(0, b)];
        let (credit, billing) = (&data.credit, &data.billing);
        assert!(discover(credit, billing, &[], &sample, &ops, 1, &[OperatorId::EQ]).is_empty());
        assert!(discover(credit, billing, &pairs, &sample, &ops, 1, &[]).is_empty());
        assert!(mine_eq(&setting, &data, &ops, &[], 0).is_empty());
        // The same inputs with the empty one filled in do mine.
        assert!(!discover(credit, billing, &pairs, &sample, &ops, 1, &[OperatorId::EQ]).is_empty());
    }
}
