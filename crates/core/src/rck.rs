//! **findRCKs** — computing `m` quality relative candidate keys (§5, Fig. 7).
//!
//! Enumerating *all* RCKs is infeasible (exponentially many candidate keys
//! exist already for traditional FDs [Lucchesi & Osborn 1978]); instead the
//! algorithm greedily deduces up to `m` keys built from low-cost attribute
//! pairs under the `CostModel`:
//!
//! 1. start from the trivial key `(Y1, Y2 ‖ =,…,=)`, minimized;
//! 2. repeatedly `apply` MDs of Σ (cheapest LHS first) to keys already in Γ,
//!    minimizing each result, until Γ holds `m` keys or no application
//!    yields a key that is not already covered (`⪯`) by Γ;
//! 3. by Proposition 5.1, when the loop exhausts without reaching `m`, Γ is
//!    *complete*: it contains every RCK deducible from Σ.
//!
//! `minimize` (Fig. 7) drops atoms in descending cost order as long as the
//! remainder still deduces the target — so surviving keys keep their
//! cheapest attributes and are subset-minimal (removing any single atom
//! breaks them; by monotonicity of the closure this implies no sub-key
//! works).
//!
//! **What a call pays for once.** One call builds one [`Reasoner`] over Σ
//! and asks it every `minimize` question; each question stops as soon as
//! the target pairs are identified. It also builds Fig. 7 line 1's
//! `pairing(Σ, Y1, Y2)` once, as a table of dense pair ids with each MD's
//! LHS stored as a list of those ids, and a column holding each pair's
//! current cost from the [`CostModel`]. A selection moves the `ct`
//! counters of its key's pairs only (line 14), so only their column
//! entries are refreshed.
//!
//! **`sortMD` (line 6), lazily.** The MDs wait in a min-heap keyed by
//! `(lhs_cost, index)`: an MD's LHS cost is the sum of its pairs' column
//! entries in LHS order, ties break by position in Σ. A pop recomputes the
//! popped MD's cost; if it moved, the MD goes back with its new cost,
//! otherwise it is visited. This visits MDs in exactly the order a full
//! re-sort of the unvisited MDs after every selection gives, because costs
//! only grow: `ct` only increments and the weights are non-negative, so
//! every pair's cost, and (floating-point addition being monotone) every
//! LHS sum, is at least what it was when the MD was pushed. An MD whose
//! stored cost is current therefore precedes every other MD's current
//! `(cost, index)` as well as its stored one. A call pays for the MDs it
//! pops, not for re-costing Σ after every selection.

use crate::closure::Reasoner;
use crate::cost::CostModel;
use crate::dependency::{IdentPair, MatchingDependency};
use crate::relative_key::{RelativeKey, Target};
use crate::schema::AttrId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The result of [`find_rcks`].
#[derive(Debug, Clone)]
pub struct RckOutcome {
    /// The deduced keys, in selection order. The first entry is the
    /// minimized trivial key; later entries come from MD applications.
    pub keys: Vec<RelativeKey>,
    /// `true` when the enumeration exhausted before reaching `m`: by
    /// Proposition 5.1, `keys` then contains **all** RCKs deducible from Σ.
    pub complete: bool,
    /// The deduction questions (`minimize` steps) the call asked its
    /// [`Reasoner`].
    pub questions: usize,
    /// The rules of Σ (normalized to one RHS pair each) those questions
    /// fired, summed over the questions.
    pub rules_fired: usize,
}

impl RckOutcome {
    /// The top `k` keys (selection order is quality order).
    pub fn top(&self, k: usize) -> &[RelativeKey] {
        &self.keys[..k.min(self.keys.len())]
    }
}

/// Runs findRCKs: returns at most `m` quality RCKs relative to `target`,
/// deduced from `sigma`.
///
/// The cost model's `ct` counters are reset at entry and updated as keys are
/// selected, exactly as in Fig. 7 (lines 2, 4, 14).
///
/// ```
/// use matchrules_core::{paper, cost::CostModel, rck::find_rcks};
///
/// let setting = paper::example_1_1();
/// let mut cost = CostModel::uniform();
/// let outcome = find_rcks(&setting.sigma, &setting.target, 10, &mut cost);
/// assert!(outcome.complete, "3 MDs admit only a handful of keys");
/// // The deduced ([email, tel], [email, phn] || [=, =]) key is among them:
/// let rck4 = &paper::example_2_4_rcks(&setting)[3];
/// assert!(outcome.keys.contains(rck4));
/// ```
pub fn find_rcks(
    sigma: &[MatchingDependency],
    target: &Target,
    m: usize,
    cost: &mut CostModel,
) -> RckOutcome {
    cost.reset_counters();
    if m == 0 {
        return RckOutcome { keys: Vec::new(), complete: false, questions: 0, rules_fired: 0 };
    }
    let mut reasoner = Reasoner::new(sigma);
    let rhs = target.ident_pairs();
    let mut pairs = PairTable::new(sigma, target);
    pairs.price(cost);
    let outcome = |keys, complete, reasoner: &Reasoner| {
        let (questions, rules_fired) = reasoner.work();
        RckOutcome { keys, complete, questions, rules_fired }
    };

    // Γ := { minimize((Y1, Y2 ‖ =,…,=)) }   (Fig. 7, lines 3–4)
    let first = minimize_with(&mut reasoner, target.trivial_key(), &rhs, cost);
    pairs.select(cost, &first);
    let mut gamma: Vec<RelativeKey> = vec![first];
    if gamma.len() == m {
        return outcome(gamma, false, &reasoner);
    }

    // Worklist over Γ: every (γ, φ) combination is inspected once — exactly
    // the completeness condition of Proposition 5.1.
    let mut heap = BinaryHeap::with_capacity(sigma.len());
    let mut i = 0usize;
    while i < gamma.len() {
        let key = gamma[i].clone();
        // LΣ := sortMD(Σ), ascending by summed LHS cost (line 6), kept as
        // a lazy heap (see the module docs).
        let mut order = heap.into_vec();
        order.clear();
        order.extend((0..sigma.len()).map(|md| Pending { cost: pairs.lhs_cost(md), md }));
        heap = BinaryHeap::from(order);
        while let Some(Pending { cost: pushed, md: phi_idx }) = heap.pop() {
            let now = pairs.lhs_cost(phi_idx);
            if now != pushed {
                // A selection since the push raised this MD's cost.
                heap.push(Pending { cost: now, md: phi_idx });
                continue;
            }
            let applied = key.apply(&sigma[phi_idx]);
            if applied.is_empty() || covered(&gamma, &applied) {
                continue;
            }
            let minimized = minimize_with(&mut reasoner, applied, &rhs, cost);
            // The published pseudo-code only ⪯-checks before minimize; we
            // also check after, so Γ stays an antichain set (minimize can
            // collapse distinct candidates onto an existing key).
            if covered(&gamma, &minimized) {
                continue;
            }
            pairs.select(cost, &minimized);
            gamma.push(minimized);
            if gamma.len() == m {
                return outcome(gamma, false, &reasoner);
            }
        }
        i += 1;
    }
    outcome(gamma, true, &reasoner)
}

/// `minimize` (Fig. 7): removes atoms in descending cost order while the
/// remainder still deduces `R1[Y1] ⇌ R2[Y2]` from Σ.
pub fn minimize(
    key: RelativeKey,
    sigma: &[MatchingDependency],
    target: &Target,
    cost: &CostModel,
) -> RelativeKey {
    minimize_with(&mut Reasoner::new(sigma), key, &target.ident_pairs(), cost)
}

/// [`minimize`] asking `reasoner` (built over Σ) whether a key identifies
/// the target pairs `rhs`.
fn minimize_with(
    reasoner: &mut Reasoner,
    key: RelativeKey,
    rhs: &[IdentPair],
    cost: &CostModel,
) -> RelativeKey {
    let mut order: Vec<_> = key.atoms().to_vec();
    order.sort_by(|a, b| {
        cost.cost(b.left, b.right)
            .partial_cmp(&cost.cost(a.left, a.right))
            .expect("costs are finite")
    });
    let mut current = key;
    for atom in order {
        let candidate = current.without(&atom);
        if candidate.is_empty() {
            continue;
        }
        if reasoner.implies(candidate.atoms(), rhs) {
            current = candidate;
        }
    }
    current
}

/// `pairing(Σ, Y1, Y2)` (Fig. 7, line 1): the attribute pairs occurring in
/// the target or anywhere in Σ — the universe the cost counters range over.
pub fn pairing(sigma: &[MatchingDependency], target: &Target) -> Vec<(AttrId, AttrId)> {
    PairTable::new(sigma, target).pairs
}

/// `pairing(Σ, Y1, Y2)` as dense pair ids, with every MD's LHS as a list of
/// those ids and every pair's current cost: what `sortMD` needs to cost an
/// MD without asking the [`CostModel`].
struct PairTable {
    /// The distinct pairs, in first-occurrence order (target, then Σ).
    pairs: Vec<(AttrId, AttrId)>,
    /// Indexed by left attribute (schema position): the right attribute
    /// and id of each of its pairs.
    partners: Vec<Vec<(AttrId, u32)>>,
    /// MD `i`'s LHS pairs are `lhs[lhs_start[i]..lhs_start[i + 1]]`, in LHS
    /// order.
    lhs_start: Vec<usize>,
    lhs: Vec<u32>,
    /// The current cost of each pair.
    pair_cost: Vec<f64>,
}

impl PairTable {
    fn new(sigma: &[MatchingDependency], target: &Target) -> PairTable {
        let mut table = PairTable {
            pairs: Vec::new(),
            partners: Vec::new(),
            lhs_start: Vec::with_capacity(sigma.len() + 1),
            lhs: Vec::new(),
            pair_cost: Vec::new(),
        };
        for (&l, &r) in target.y1().iter().zip(target.y2()) {
            table.id(l, r);
        }
        for md in sigma {
            table.lhs_start.push(table.lhs.len());
            for atom in md.lhs() {
                let id = table.id(atom.left, atom.right);
                table.lhs.push(id);
            }
            for ident in md.rhs() {
                table.id(ident.left, ident.right);
            }
        }
        table.lhs_start.push(table.lhs.len());
        table
    }

    /// The id of `(l, r)`, assigning the next one if the pair is new.
    fn id(&mut self, l: AttrId, r: AttrId) -> u32 {
        if self.partners.len() <= l {
            self.partners.resize_with(l + 1, Vec::new);
        }
        let partners = &mut self.partners[l];
        if let Some(&(_, id)) = partners.iter().find(|&&(right, _)| right == r) {
            return id;
        }
        let id = self.pairs.len() as u32;
        partners.push((r, id));
        self.pairs.push((l, r));
        id
    }

    /// Reads every pair's cost from `cost`.
    fn price(&mut self, cost: &CostModel) {
        self.pair_cost = self.pairs.iter().map(|&(l, r)| cost.cost(l, r)).collect();
    }

    /// MD `md`'s summed LHS cost, in LHS order, under the current `ct`
    /// counters.
    fn lhs_cost(&self, md: usize) -> f64 {
        let ids = &self.lhs[self.lhs_start[md]..self.lhs_start[md + 1]];
        ids.iter().map(|&id| self.pair_cost[id as usize]).sum()
    }

    /// `incrementCt` for every pair of the selected `key` (Fig. 7, line
    /// 14), refreshing their costs. A key's pairs come from the target and
    /// Σ's LHSs, so each already has an id.
    fn select(&mut self, cost: &mut CostModel, key: &RelativeKey) {
        for atom in key.atoms() {
            cost.increment(atom.left, atom.right);
        }
        for atom in key.atoms() {
            let id = self.id(atom.left, atom.right);
            self.pair_cost[id as usize] = cost.cost(atom.left, atom.right);
        }
    }
}

/// An MD waiting in `sortMD`'s heap with the LHS cost it had when pushed.
/// Ordered so the max-heap pops the lowest `(cost, md)` first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    cost: f64,
    md: usize,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.partial_cmp(&self.cost).expect("costs are finite").then(other.md.cmp(&self.md))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn covered(gamma: &[RelativeKey], candidate: &RelativeKey) -> bool {
    gamma.iter().any(|existing| existing.covers(candidate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduction::deduces;
    use crate::dependency::{IdentPair, SimilarityAtom};
    use crate::operators::OperatorTable;
    use crate::schema::{Schema, SchemaPair};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Example 2.1's Σc over the credit/billing schemas.
    fn paper_setting() -> (SchemaPair, OperatorTable, Vec<MatchingDependency>, Target) {
        let credit = Arc::new(
            Schema::text(
                "credit",
                &["c#", "SSN", "FN", "LN", "addr", "tel", "email", "gender", "type"],
            )
            .unwrap(),
        );
        let billing = Arc::new(
            Schema::text(
                "billing",
                &["c#", "FN", "LN", "post", "phn", "email", "gender", "item", "price"],
            )
            .unwrap(),
        );
        let pair = SchemaPair::new(credit, billing);
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈d");
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let target = Target::by_names(
            &pair,
            &["FN", "LN", "addr", "tel", "gender"],
            &["FN", "LN", "post", "phn", "gender"],
        )
        .unwrap();
        let phi1 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("LN"), r("LN")),
                SimilarityAtom::eq(l("addr"), r("post")),
                SimilarityAtom::new(l("FN"), r("FN"), dl),
            ],
            target.ident_pairs(),
        )
        .unwrap();
        let phi2 = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("tel"), r("phn"))],
            vec![IdentPair::new(l("addr"), r("post"))],
        )
        .unwrap();
        let phi3 = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("email"), r("email"))],
            vec![IdentPair::new(l("FN"), r("FN")), IdentPair::new(l("LN"), r("LN"))],
        )
        .unwrap();
        (pair, ops, vec![phi1, phi2, phi3], target)
    }

    /// Every produced key must be a key (deduces the target) and minimal
    /// (dropping any atom breaks it).
    #[test]
    fn outcome_keys_are_minimal_keys() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 16, &mut cost);
        assert!(!outcome.keys.is_empty());
        for key in &outcome.keys {
            assert!(deduces(&sigma, &key.to_md(&target)), "not a key: {key:?}");
            for atom in key.atoms() {
                let sub = key.without(atom);
                assert!(
                    sub.is_empty() || !deduces(&sigma, &sub.to_md(&target)),
                    "not minimal: {key:?} minus {atom:?}"
                );
            }
        }
    }

    /// Example 5.1's deduced keys appear in Γ (the paper finds rck1..rck4;
    /// with per-attribute granularity the =-variant of rck1 also counts —
    /// see DESIGN.md §3).
    #[test]
    fn example_5_1_keys_found() {
        let (pair, ops, sigma, target) = paper_setting();
        let dl = ops.get("≈d").unwrap();
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let mut cost = CostModel::diversity_only();
        let outcome = find_rcks(&sigma, &target, 16, &mut cost);
        assert!(outcome.complete, "small Σ must be exhausted");

        let rck2 = RelativeKey::new(vec![
            SimilarityAtom::eq(l("LN"), r("LN")),
            SimilarityAtom::eq(l("tel"), r("phn")),
            SimilarityAtom::new(l("FN"), r("FN"), dl),
        ]);
        let rck3 = RelativeKey::new(vec![
            SimilarityAtom::eq(l("email"), r("email")),
            SimilarityAtom::eq(l("addr"), r("post")),
        ]);
        let rck4 = RelativeKey::new(vec![
            SimilarityAtom::eq(l("email"), r("email")),
            SimilarityAtom::eq(l("tel"), r("phn")),
        ]);
        for (name, want) in [("rck2", &rck2), ("rck3", &rck3), ("rck4", &rck4)] {
            assert!(
                outcome.keys.contains(want),
                "{name} missing from {:?}",
                outcome.keys.iter().map(|k| k.display(&pair, &ops).to_string()).collect::<Vec<_>>()
            );
        }
        // rck1 appears either with ≈d or as its =-strengthened variant.
        let rck1 = RelativeKey::new(vec![
            SimilarityAtom::eq(l("LN"), r("LN")),
            SimilarityAtom::eq(l("addr"), r("post")),
            SimilarityAtom::new(l("FN"), r("FN"), dl),
        ]);
        let rck1_eq = RelativeKey::new(vec![
            SimilarityAtom::eq(l("LN"), r("LN")),
            SimilarityAtom::eq(l("addr"), r("post")),
            SimilarityAtom::eq(l("FN"), r("FN")),
        ]);
        assert!(outcome.keys.contains(&rck1) || outcome.keys.contains(&rck1_eq));
    }

    /// Requesting fewer keys stops early and flags incompleteness.
    #[test]
    fn m_caps_the_enumeration() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 2, &mut cost);
        assert_eq!(outcome.keys.len(), 2);
        assert!(!outcome.complete);
        assert_eq!(outcome.top(1).len(), 1);
        assert_eq!(outcome.top(99).len(), 2);
    }

    /// m = 1 returns the minimized trivial key alone, not everything the
    /// enumeration reaches after it.
    #[test]
    fn one_key_is_the_minimized_trivial_key() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 1, &mut cost);
        assert!(!outcome.complete);
        let trivial = minimize(target.trivial_key(), &sigma, &target, &CostModel::uniform());
        assert_eq!(outcome.keys, [trivial]);
        let total: u32 = pairing(&sigma, &target).iter().map(|&(a, b)| cost.counter(a, b)).sum();
        assert_eq!(total as usize, outcome.keys[0].len());
    }

    /// m = 0 returns nothing.
    #[test]
    fn zero_keys() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 0, &mut cost);
        assert!(outcome.keys.is_empty());
    }

    /// With an empty Σ the only key is the trivial one, and Γ is complete.
    #[test]
    fn empty_sigma_gives_trivial_key() {
        let (_pair, _ops, _sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&[], &target, 10, &mut cost);
        assert_eq!(outcome.keys.len(), 1);
        assert!(outcome.complete);
        assert_eq!(outcome.keys[0], target.trivial_key());
    }

    /// The keys in Γ form an antichain under ⪯ (no key covers another) —
    /// our post-minimize guard guarantees set semantics.
    #[test]
    fn gamma_is_an_antichain() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 32, &mut cost);
        for (i, a) in outcome.keys.iter().enumerate() {
            for (j, b) in outcome.keys.iter().enumerate() {
                if i != j {
                    assert!(!a.covers(b), "key {i} covers key {j}");
                }
            }
        }
    }

    /// Proposition 5.1: when complete, for every γ ∈ Γ and φ ∈ Σ, some key
    /// in Γ covers apply(γ, φ).
    #[test]
    fn completeness_condition_holds() {
        let (_pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, usize::MAX, &mut cost);
        assert!(outcome.complete);
        for key in &outcome.keys {
            for phi in &sigma {
                let applied = key.apply(phi);
                assert!(
                    outcome.keys.iter().any(|k| k.covers(&applied)),
                    "apply({key:?}, {phi:?}) not covered"
                );
            }
        }
    }

    /// pairing() collects target pairs plus every pair in Σ, no duplicates.
    #[test]
    fn pairing_universe() {
        let (pair, _ops, sigma, target) = paper_setting();
        let pairs = pairing(&sigma, &target);
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        assert!(pairs.contains(&(l("email"), r("email"))));
        assert!(pairs.contains(&(l("tel"), r("phn"))));
        assert!(pairs.contains(&(l("gender"), r("gender"))));
        let unique: HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len());
    }

    /// Diversity: with w1 = 1, selecting a key bumps its pairs' costs, so
    /// later keys prefer fresh attributes. We check the counters moved.
    #[test]
    fn counters_track_selected_keys() {
        let (pair, _ops, sigma, target) = paper_setting();
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&sigma, &target, 8, &mut cost);
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let total: u32 = pairing(&sigma, &target).iter().map(|&(a, b)| cost.counter(a, b)).sum();
        let expected: usize = outcome.keys.iter().map(RelativeKey::len).sum();
        assert_eq!(total as usize, expected);
        // The email pair participates in at least one selected key.
        assert!(cost.counter(l("email"), r("email")) >= 1);
    }
}
