//! Property-based tests (proptest) for the cross-crate invariants:
//! similarity axioms, closure soundness against the executable dynamic
//! semantics, findRCKs minimality/completeness, and parser round-trips.

use matchrules::core::closure::{Closure, Reasoner};
use matchrules::core::cost::CostModel;
use matchrules::core::deduction::deduces;
use matchrules::core::dependency::{IdentPair, MatchingDependency, SimilarityAtom};
use matchrules::core::operators::{OperatorId, OperatorTable};
use matchrules::core::parser::parse_md;
use matchrules::core::rck::{find_rcks, minimize};
use matchrules::core::relative_key::{RelativeKey, Target};
use matchrules::core::schema::{Schema, SchemaPair};
use matchrules::data::enforce::{enforce, is_stable, satisfies};
use matchrules::data::eval::{paper_registry, RuntimeOps};
use matchrules::data::mdgen::{generate, MdGenConfig};
use matchrules::data::relation::{InstancePair, Relation, Tuple};
use matchrules::data::value::Value;
use matchrules::simdist::ops::{OpRegistry, SimilarityOp};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Similarity-operator generic axioms (§2.1) on arbitrary inputs.
// ---------------------------------------------------------------------

fn standard_ops() -> Vec<Arc<dyn SimilarityOp>> {
    let reg = OpRegistry::standard();
    reg.names().iter().map(|n| reg.get(n).unwrap().clone()).collect()
}

proptest! {
    #[test]
    fn operators_are_reflexive(s in ".{0,24}") {
        for op in standard_ops() {
            prop_assert!(op.matches(&s, &s), "{} not reflexive on {s:?}", op.name());
        }
    }

    #[test]
    fn operators_are_symmetric(a in ".{0,16}", b in ".{0,16}") {
        for op in standard_ops() {
            prop_assert_eq!(
                op.matches(&a, &b),
                op.matches(&b, &a),
                "{} not symmetric on {:?}/{:?}", op.name(), &a, &b
            );
        }
    }

    #[test]
    fn equality_implies_similarity(a in ".{0,16}") {
        let b = a.clone();
        for op in standard_ops() {
            prop_assert!(op.matches(&a, &b), "{} rejects equal values", op.name());
        }
    }

    #[test]
    fn similarity_scores_in_unit_interval(a in ".{0,16}", b in ".{0,16}") {
        for op in standard_ops() {
            let s = op.similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{} score {s}", op.name());
        }
    }

    #[test]
    fn edit_distance_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
        use matchrules::simdist::edit::levenshtein;
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn damerau_is_at_most_levenshtein(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
        use matchrules::simdist::edit::{damerau_levenshtein, levenshtein};
        prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
    }
}

// ---------------------------------------------------------------------
// Deduction: monotonicity, self-deduction, soundness against the chase.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every MD of a generated Σ deduces itself, and deduction is
    /// monotone under enlarging Σ.
    #[test]
    fn deduction_reflexive_and_monotone(seed in 0u64..5000, card in 2usize..20) {
        let setting = generate(&MdGenConfig::fig8(card, 4, seed));
        for phi in &setting.sigma {
            prop_assert!(deduces(&setting.sigma, phi));
        }
        let half = &setting.sigma[..setting.sigma.len() / 2];
        for phi in half {
            prop_assert!(deduces(half, phi));
            prop_assert!(deduces(&setting.sigma, phi), "monotonicity violated");
        }
    }

    /// Augmenting the LHS of a deduced MD keeps it deduced (Lemma 3.1).
    #[test]
    fn deduction_closed_under_augmentation(seed in 0u64..5000, card in 2usize..16) {
        let setting = generate(&MdGenConfig::fig8(card, 4, seed));
        let phi = &setting.sigma[0];
        let mut lhs = phi.lhs().to_vec();
        lhs.push(SimilarityAtom::eq(0, 0));
        let stronger =
            MatchingDependency::new(&setting.pair, lhs, phi.rhs().to_vec()).unwrap();
        prop_assert!(deduces(&setting.sigma, &stronger));
    }
}

/// Builds a small random instance pair over schemas (R1(a0..), R2(b0..))
/// with values drawn from a tiny alphabet so equalities actually occur.
fn tiny_instance(pair: &SchemaPair, values: &[u8], rows: usize) -> InstancePair {
    let arity_l = pair.left().arity();
    let arity_r = pair.right().arity();
    let mut left = Relation::new(pair.left().clone());
    let mut right = Relation::new(pair.right().clone());
    let mut k = 0usize;
    let mut next = || {
        let v = values[k % values.len()];
        k += 1;
        Value::str(format!("v{v}"))
    };
    for i in 0..rows {
        left.push(Tuple::new(i as u64, (0..arity_l).map(|_| next()).collect()));
        right.push(Tuple::new(i as u64, (0..arity_r).map(|_| next()).collect()));
    }
    InstancePair::new(pair.clone(), left, right)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness of MDClosure w.r.t. the dynamic semantics: with
    /// equality-only MDs (where enforcement preserves every LHS), any
    /// deduced MD holds on (D, enforce(D)) for arbitrary instances.
    #[test]
    fn deduced_mds_hold_on_stable_instances(
        seed in 0u64..2000,
        card in 1usize..8,
        values in proptest::collection::vec(0u8..3, 8..40),
    ) {
        let mut cfg = MdGenConfig::fig8(card, 3, seed);
        cfg.arity = 5;
        cfg.sim_ops = 0; // equality-only Σ
        let setting = generate(&cfg);
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let d = tiny_instance(&setting.pair, &values, 3);
        let outcome = enforce(&d, &setting.sigma, &ops);
        prop_assert!(is_stable(&outcome.result, &setting.sigma, &ops));

        // Candidate MDs: the trivial key and every single-pair projection.
        let mut candidates = vec![setting.target.trivial_key().to_md(&setting.target)];
        for i in 0..3usize {
            candidates.push(
                MatchingDependency::new(
                    &setting.pair,
                    vec![SimilarityAtom::eq(i, i)],
                    vec![IdentPair::new((i + 1) % 3, (i + 1) % 3)],
                )
                .unwrap(),
            );
        }
        for phi in &candidates {
            if deduces(&setting.sigma, phi) {
                prop_assert!(
                    satisfies(&d, &outcome.result, phi, &ops),
                    "deduced MD violated on a stable instance: {phi:?}"
                );
            }
        }
    }

    /// The chase is idempotent: enforcing on a stable instance changes
    /// nothing.
    #[test]
    fn chase_is_idempotent(
        seed in 0u64..2000,
        card in 1usize..8,
        values in proptest::collection::vec(0u8..3, 8..40),
    ) {
        let mut cfg = MdGenConfig::fig8(card, 3, seed);
        cfg.arity = 5;
        cfg.sim_ops = 0;
        let setting = generate(&cfg);
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let d = tiny_instance(&setting.pair, &values, 3);
        let first = enforce(&d, &setting.sigma, &ops);
        let second = enforce(&first.result, &setting.sigma, &ops);
        prop_assert_eq!(second.merges, 0);
    }
}

// ---------------------------------------------------------------------
// findRCKs: minimality, completeness, antichain.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every key returned by findRCKs deduces the target and is minimal;
    /// Γ is an antichain; a complete Γ satisfies Proposition 5.1.
    #[test]
    fn find_rcks_invariants(seed in 0u64..2000, card in 1usize..24) {
        let setting = generate(&MdGenConfig::fig8(card, 5, seed));
        let mut cost = CostModel::uniform();
        let outcome = find_rcks(&setting.sigma, &setting.target, 64, &mut cost);
        prop_assert!(!outcome.keys.is_empty());
        for key in &outcome.keys {
            prop_assert!(deduces(&setting.sigma, &key.to_md(&setting.target)));
            for atom in key.atoms() {
                let sub = key.without(atom);
                prop_assert!(
                    sub.is_empty() || !deduces(&setting.sigma, &sub.to_md(&setting.target))
                );
            }
        }
        for (i, a) in outcome.keys.iter().enumerate() {
            for (j, b) in outcome.keys.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.covers(b), "Γ is not an antichain");
                }
            }
        }
        if outcome.complete {
            for key in &outcome.keys {
                for phi in &setting.sigma {
                    let applied = key.apply(phi);
                    prop_assert!(
                        outcome.keys.iter().any(|k| k.covers(&applied)),
                        "Proposition 5.1 violated"
                    );
                }
            }
        }
    }

    /// minimize is sound (result still deduces) and produces a subset of
    /// the input key.
    #[test]
    fn minimize_soundness(seed in 0u64..2000, card in 1usize..16) {
        let setting = generate(&MdGenConfig::fig8(card, 5, seed));
        let cost = CostModel::uniform();
        let trivial = setting.target.trivial_key();
        let minimized = minimize(trivial.clone(), &setting.sigma, &setting.target, &cost);
        prop_assert!(deduces(&setting.sigma, &minimized.to_md(&setting.target)));
        prop_assert!(minimized.covers(&trivial), "minimize must not invent atoms");
    }
}

// ---------------------------------------------------------------------
// RelativeKey algebra.
// ---------------------------------------------------------------------

fn arb_key() -> impl Strategy<Value = RelativeKey> {
    proptest::collection::vec((0usize..4, 0usize..4, 0u16..3), 1..6).prop_map(|atoms| {
        RelativeKey::new(
            atoms
                .into_iter()
                .map(|(l, r, op)| SimilarityAtom::new(l, r, matchrules::core::OperatorId(op)))
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn covers_is_a_partial_order(a in arb_key(), b in arb_key(), c in arb_key()) {
        prop_assert!(a.covers(&a), "reflexive");
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c), "transitive");
        }
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(&a, &b, "antisymmetric");
        }
    }

    #[test]
    fn without_shrinks_by_one(a in arb_key()) {
        for atom in a.atoms() {
            let sub = a.without(atom);
            prop_assert_eq!(sub.len(), a.len() - 1);
            prop_assert!(sub.covers(&a));
        }
    }
}

// ---------------------------------------------------------------------
// Parser round-trip on generated MDs.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parser_roundtrips_generated_mds(seed in 0u64..5000, card in 1usize..12) {
        let setting = generate(&MdGenConfig::fig8(card, 4, seed));
        let mut ops = setting.ops.clone();
        for md in &setting.sigma {
            let text = md.display(&setting.pair, &ops).to_string();
            let reparsed = parse_md(&text, &setting.pair, &mut ops).unwrap();
            prop_assert_eq!(md, &reparsed, "round-trip failed for {}", text);
        }
    }
}

// ---------------------------------------------------------------------
// Union-find invariants.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn union_find_partitions(
        n in 1usize..40,
        unions in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        use matchrules::data::unionfind::UnionFind;
        let mut uf = UnionFind::new(n);
        for (a, b) in unions {
            let (a, b) = (a % n, b % n);
            uf.union(a, b);
            prop_assert!(uf.same(a, b));
        }
        let groups = uf.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
        prop_assert_eq!(groups.len(), uf.class_count());
    }
}

// ---------------------------------------------------------------------
// Closure over hand-built chains: a = chain of k MDs reaches the end.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn chained_mds_deduce_transitively(k in 1usize..12) {
        let names: Vec<String> = (0..=k).map(|i| format!("a{i}")).collect();
        let schema = Arc::new(
            Schema::text("R", &names.iter().map(String::as_str).collect::<Vec<_>>()).unwrap(),
        );
        let pair = SchemaPair::reflexive(schema);
        let sigma: Vec<MatchingDependency> = (0..k)
            .map(|i| {
                MatchingDependency::new(
                    &pair,
                    vec![SimilarityAtom::eq(i, i)],
                    vec![IdentPair::new(i + 1, i + 1)],
                )
                .unwrap()
            })
            .collect();
        let phi = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(0, 0)],
            vec![IdentPair::new(k, k)],
        )
        .unwrap();
        prop_assert!(deduces(&sigma, &phi));
        // And the reverse direction is NOT deducible.
        let rev = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(k, k)],
            vec![IdentPair::new(0, 0)],
        )
        .unwrap();
        prop_assert!(k == 0 || !deduces(&sigma, &rev));
        let _ = OperatorTable::new();
        let _ = Target::new(&pair, vec![0], vec![0]).unwrap();
    }
}

// ---------------------------------------------------------------------
// Reasoning: keys pinned, and a reused Reasoner forgets each question.
// ---------------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct KeyDigest(u64);

impl KeyDigest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Digests findRCKs on `MdGenConfig::fig8(card, y_len, seed)` under
    /// the uniform cost model: every key's atoms (left, right, op), then
    /// the `complete` flag.
    fn find_rcks(&mut self, card: usize, y_len: usize, seed: u64, m: usize) {
        let setting = generate(&MdGenConfig::fig8(card, y_len, seed));
        let outcome = find_rcks(&setting.sigma, &setting.target, m, &mut CostModel::uniform());
        self.word(outcome.keys.len() as u64);
        for key in &outcome.keys {
            self.word(key.len() as u64);
            for atom in key.atoms() {
                self.word(atom.left as u64);
                self.word(atom.right as u64);
                self.word(u64::from(atom.op.0));
            }
        }
        self.word(u64::from(outcome.complete));
    }
}

/// findRCKs returns exactly the keys (and the `complete` flag) it returned
/// before MD ordering and deduction were rebuilt around one `Reasoner` per
/// call: Fig. 8's card-2,000 sets at m = 20 (3 seeds), and exhaustive runs
/// at cards 50 and 200 (6 seeds each). The pinned digest was computed by
/// this same test on the code before the rebuild.
#[test]
fn reason_keys_match_parent() {
    let mut d = KeyDigest(0xcbf2_9ce4_8422_2325);
    for seed in 0..3 {
        d.find_rcks(2_000, 12, seed, 20);
    }
    for card in [50, 200] {
        for seed in 0..6 {
            d.find_rcks(card, 7, seed, usize::MAX);
        }
    }
    assert_eq!(d.0, 0x2d62_bd5d_5fa3_7aea, "findRCKs keys moved: digest {:#018x}", d.0);
}

/// One question for a reused `Reasoner`, drawn from `((kind, i), (l, r), op)`:
/// an MD of Σ (deduced), the trivial key (deduced, the longest cascade), a
/// random one-atom MD (mostly refuted), or a question whose seed reaches
/// outside Σ's universe — a left attribute past the schema, equal to an
/// attribute Σ mentions, and an operator Σ never uses.
fn question(
    setting: &matchrules::data::mdgen::GeneratedSetting,
    ((kind, i), (l, r), op): ((u8, usize), (usize, usize), u16),
) -> (Vec<SimilarityAtom>, Vec<IdentPair>) {
    let arity = setting.pair.left().arity();
    let (l, r) = (l % arity, r % arity);
    let phi = &setting.sigma[i % setting.sigma.len()];
    match kind {
        0 => (phi.lhs().to_vec(), phi.rhs().to_vec()),
        1 => (setting.target.trivial_key().atoms().to_vec(), setting.target.ident_pairs()),
        2 => (
            vec![SimilarityAtom::new(l, r, OperatorId(op % 5))],
            vec![IdentPair::new((l + 1) % arity, (r + 1) % arity)],
        ),
        _ => {
            let inside = phi.lhs()[0];
            let outside = arity + l % 3;
            (
                vec![
                    inside,
                    SimilarityAtom::eq(outside, inside.right),
                    SimilarityAtom::new(outside, r, OperatorId(50 + op)),
                ],
                vec![IdentPair::new(outside, phi.rhs()[0].right), phi.rhs()[0]],
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One `Reasoner` asked a sequence of questions answers each exactly as
    /// a fresh `compute_naive` does — the question's own RHS, each of its
    /// pairs alone, and every pair over the schema plus the seed's outside
    /// attribute — so nothing one question deduces leaks into the next,
    /// and seeds outside Σ's universe extend it without a wrong `false`.
    #[test]
    fn reason_reused_reasoner_equals_fresh_closure(
        seed in 0u64..5000,
        card in 1usize..24,
        questions in proptest::collection::vec(
            ((0u8..4, 0usize..64), (0usize..32, 0usize..32), 0u16..5),
            1..16,
        ),
    ) {
        let setting = generate(&MdGenConfig::fig8(card, 4, seed));
        let mut reasoner = Reasoner::new(&setting.sigma);
        let arity = setting.pair.left().arity();
        for q in questions {
            let (lhs, rhs) = question(&setting, q);
            let fresh = Closure::compute_naive(&setting.sigma, &lhs, &[]);
            let want = |rhs: &[IdentPair]| {
                rhs.iter().all(|p| fresh.holds(p.left, p.right, OperatorId::EQ))
            };
            prop_assert_eq!(reasoner.implies(&lhs, &rhs), want(&rhs), "verdict for {:?}", q);
            let singles = rhs.iter().map(|&p| vec![p]);
            let grid = (0..arity + 3)
                .flat_map(|l| (0..arity).map(move |r| vec![IdentPair::new(l, r)]));
            for probe in singles.chain(grid) {
                prop_assert_eq!(
                    reasoner.implies(&lhs, &probe),
                    want(&probe),
                    "verdict for {:?} asking {:?}",
                    q,
                    probe
                );
            }
        }
    }
}

/// `Closure::compute` fires Σc's rules in the same order as before it
/// became a one-shot `Reasoner` (the sequences were recorded on that
/// code), so deduction paths and explanations are unchanged.
#[test]
fn reason_fired_order_matches_parent() {
    use matchrules::core::paper;
    let setting = paper::example_1_1();
    let expected: [&[usize]; 4] = [
        &[0, 0, 0, 0, 0, 1],
        &[1, 0, 0, 0, 0, 0],
        &[2, 2, 0, 0, 0, 0, 0, 1],
        &[2, 2, 1, 0, 0, 0, 0, 0],
    ];
    for (key, want) in paper::example_2_4_rcks(&setting).iter().zip(expected) {
        assert_eq!(Closure::compute(&setting.sigma, key.atoms(), &[]).fired(), want);
    }
}

/// findRCKs' counted work on Fig. 8's card-2,000 sets at m = 20: the
/// deduction questions a call asks and the rules those questions fire.
/// Both are exact counts, so they gate the reasoning cost without a
/// clock. A question stops once the target pairs hold, so it fires the
/// rules it needs, not every rule of Σ the seed reaches (the code before
/// the early stop fired 32,252, 32,450 and 32,296 rules on seeds 0–2,
/// over the same 11 questions each).
#[test]
fn reason_work_budget() {
    // (questions, rules fired) per seed, as recorded: the questions are
    // pinned, the rules fired are a budget.
    let recorded = [(11, 451), (11, 561), (11, 692)];
    for (seed, (questions, fired)) in recorded.into_iter().enumerate() {
        let setting = generate(&MdGenConfig::fig8(2_000, 12, seed as u64));
        let outcome = find_rcks(&setting.sigma, &setting.target, 20, &mut CostModel::uniform());
        assert_eq!(outcome.keys.len(), 20);
        assert_eq!(outcome.questions, questions, "seed {seed}: questions moved");
        assert!(
            outcome.rules_fired <= fired,
            "seed {seed}: {} rules fired, budget {fired}",
            outcome.rules_fired
        );
    }
}

/// Fig. 7 written out from the paper, as slowly as it reads: `sortMD`
/// re-sorts the unvisited MDs by summed LHS cost (ties by position in Σ)
/// after every selection, and `minimize` decides each question with a
/// fresh `deduction::deduces`. Returns the keys and the `complete` flag;
/// `m` is at least 1.
fn reference_find_rcks(
    sigma: &[MatchingDependency],
    target: &Target,
    m: usize,
    cost: &mut CostModel,
) -> (Vec<RelativeKey>, bool) {
    cost.reset_counters();
    let minimize = |key: RelativeKey, cost: &CostModel| {
        let mut order = key.atoms().to_vec();
        order.sort_by(|a, b| {
            cost.cost(b.left, b.right).partial_cmp(&cost.cost(a.left, a.right)).unwrap()
        });
        let mut current = key;
        for atom in order {
            let candidate = current.without(&atom);
            if !candidate.is_empty() && deduces(sigma, &candidate.to_md(target)) {
                current = candidate;
            }
        }
        current
    };
    let select = |key: &RelativeKey, cost: &mut CostModel| {
        key.atoms().iter().for_each(|a| cost.increment(a.left, a.right));
    };
    let sort_md = |order: &mut [usize], cost: &CostModel| {
        let lhs_cost =
            |md: usize| -> f64 { sigma[md].lhs().iter().map(|a| cost.cost(a.left, a.right)).sum() };
        order.sort_by(|&a, &b| lhs_cost(a).partial_cmp(&lhs_cost(b)).unwrap().then(a.cmp(&b)));
    };
    let first = minimize(target.trivial_key(), cost);
    select(&first, cost);
    let mut gamma = vec![first];
    if gamma.len() == m {
        return (gamma, false);
    }
    let covered = |gamma: &[RelativeKey], k: &RelativeKey| gamma.iter().any(|g| g.covers(k));
    let mut i = 0;
    while i < gamma.len() {
        let key = gamma[i].clone();
        let mut order: Vec<usize> = (0..sigma.len()).collect();
        sort_md(&mut order, cost);
        let mut next = 0;
        while next < order.len() {
            let phi = order[next];
            next += 1;
            let applied = key.apply(&sigma[phi]);
            if applied.is_empty() || covered(&gamma, &applied) {
                continue;
            }
            let minimized = minimize(applied, cost);
            if covered(&gamma, &minimized) {
                continue;
            }
            select(&minimized, cost);
            gamma.push(minimized);
            if gamma.len() == m {
                return (gamma, false);
            }
            sort_md(&mut order[next..], cost);
        }
        i += 1;
    }
    (gamma, true)
}

/// A cost model for the reference check: `uniform`, `diversity_only`,
/// `new(0, 1, 1)` (costs never move), or random weights with random
/// per-pair statistics — fractional lengths and accuracies drawn from
/// short lists, so non-integer costs and ties both occur.
fn reference_cost_model(
    kind: u8,
    weights: (usize, usize, usize),
    stats: &[(usize, usize)],
) -> CostModel {
    use matchrules::core::cost::PairStats;
    const WEIGHTS: [f64; 4] = [0.0, 0.5, 1.0, 1.75];
    const LENGTHS: [f64; 4] = [0.0, 0.25, 1.5, 3.125];
    const ACCURACIES: [f64; 4] = [0.2, 0.5, 0.75, 1.0];
    match kind {
        0 => CostModel::uniform(),
        1 => CostModel::diversity_only(),
        2 => CostModel::new(0.0, 1.0, 1.0),
        _ => {
            let mut model =
                CostModel::new(WEIGHTS[weights.0], WEIGHTS[weights.1], WEIGHTS[weights.2]);
            for (attr, &(len, acc)) in stats.iter().enumerate() {
                let stats = PairStats { avg_len: LENGTHS[len], accuracy: ACCURACIES[acc] };
                model.set_stats(attr, attr, stats);
            }
            model
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `find_rcks` (one `Reasoner` whose questions stop early, a lazy
    /// `sortMD` heap) returns the keys of the reference Fig. 7 above, key
    /// for key and in order, the same `complete` flag and the same final
    /// `ct` counters, under every kind of cost model and m ∈ {1, 3, ∞}.
    #[test]
    fn reason_find_rcks_matches_reference(
        seed in 0u64..5000,
        card in 1usize..60,
        y_len in 2usize..7,
        kind in 0u8..6,
        weights in (0usize..4, 0usize..4, 0usize..4),
        stats in proptest::collection::vec((0usize..4, 0usize..4), 16..17),
    ) {
        let setting = generate(&MdGenConfig::fig8(card, y_len, seed));
        let model = reference_cost_model(kind, weights, &stats);
        for m in [1, 3, usize::MAX] {
            let (mut fast, mut slow) = (model.clone(), model.clone());
            let outcome = find_rcks(&setting.sigma, &setting.target, m, &mut fast);
            let (keys, complete) = reference_find_rcks(&setting.sigma, &setting.target, m, &mut slow);
            prop_assert_eq!(&outcome.keys, &keys, "keys differ at m = {}", m);
            prop_assert_eq!(outcome.complete, complete, "complete differs at m = {}", m);
            for (l, r) in matchrules::core::rck::pairing(&setting.sigma, &setting.target) {
                prop_assert_eq!(fast.counter(l, r), slow.counter(l, r));
            }
        }
    }
}
