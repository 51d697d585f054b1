//! The §6 baselines the paper compares RCKs against — experiment code, not
//! library. Each is the library's own machinery plus the paper's fixed,
//! hand-chosen configuration:
//!
//! * **FS** (Exp-2): Fellegi–Sunter with EM is the library's
//!   [`ScoreModel`] fitted on windowed candidates; a pair matches when the
//!   boolean posterior `model.em().posterior(γ)` reaches [`FS_THRESHOLD`]
//!   ([`fs_matches`]). FS compares the identity lists with equality
//!   ([`equality_comparison_vector`]); FSrck uses the union of the RCK
//!   atoms (`matchrules_matcher::scoring::rck_comparison_vector`).
//! * **SN** (Exp-3): [`sorted_neighborhood`] — multi-pass windowing under
//!   the fixed [`standard_sort_keys`], a rule set (the 25 hand rules of
//!   [`hernandez_stolfo_25`], or the RCKs) decided by the library's one
//!   pair verifier, [`KeyMatcher`], then union-find transitive closure.
//! * **Blocking** (Exp-4): [`block_candidates`] under the manual key
//!   ([`manual_block_key`]) or the RCK-derived one ([`rck_block_key`]).
//!
//! The hand-written configurations are inherently tied to the extended
//! preset's attribute names.

use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::operators::OperatorId;
use matchrules_core::relative_key::{RelativeKey, Target};
use matchrules_core::schema::SchemaPair;
use matchrules_data::eval::{FilterStats, RuntimeOps};
use matchrules_data::relation::Relation;
use matchrules_data::unionfind::UnionFind;
use matchrules_matcher::key::{KeyMatcher, PairSide};
use matchrules_matcher::pipeline::field_for;
use matchrules_matcher::scoring::ScoreModel;
use matchrules_matcher::sortkey::{KeyField, SortKey};
use matchrules_matcher::windowing::multi_pass_window;
use matchrules_runtime::WorkPool;
use std::collections::BTreeMap;

/// Posterior probability at or above which the FS baseline declares a
/// match.
pub const FS_THRESHOLD: f64 = 0.9;

/// Builds the FS baseline comparison vector: every target pair compared
/// with equality (EM weighting then decides what matters).
pub fn equality_comparison_vector(target: &Target) -> Vec<SimilarityAtom> {
    target.y1().iter().zip(target.y2()).map(|(&l, &r)| SimilarityAtom::eq(l, r)).collect()
}

/// The FS classifier: the candidates whose boolean comparison vector over
/// `model`'s atoms has a posterior of at least [`FS_THRESHOLD`].
pub fn fs_matches(
    model: &ScoreModel,
    credit: &Relation,
    billing: &Relation,
    candidates: &[(usize, usize)],
    ops: &RuntimeOps,
) -> Vec<(usize, usize)> {
    candidates
        .iter()
        .copied()
        .filter(|&(c, b)| {
            let (t1, t2) = (&credit.tuples()[c], &billing.tuples()[b]);
            let gamma: Vec<bool> =
                model.atoms().iter().map(|a| ops.atom_matches(a, t1, t2)).collect();
            model.em().posterior(&gamma) >= FS_THRESHOLD
        })
        .collect()
}

/// Sorted neighbourhood (merge/purge, \[20\]): window candidates under
/// `keys`, pairwise decisions by `rules`, then the transitive closure of
/// those decisions over credit ⊎ billing. Returns the matched
/// (credit, billing) pairs and the number of window pairs compared.
pub fn sorted_neighborhood(
    credit: &Relation,
    billing: &Relation,
    rules: &KeyMatcher<'_>,
    keys: &[SortKey],
    window: usize,
) -> (Vec<(usize, usize)>, usize) {
    let candidates = multi_pass_window(credit, billing, keys, window);
    let (credit_prep, billing_prep) = rules.prepare_in(&WorkPool::serial(), credit, billing);
    let mut stats = FilterStats::default();
    // Credit i ↦ i, billing j ↦ |C| + j.
    let n_credit = credit.len();
    let mut uf = UnionFind::new(n_credit + billing.len());
    for &(c, b) in &candidates {
        let left = PairSide::new(&credit.tuples()[c], credit_prep.row(c));
        let right = PairSide::new(&billing.tuples()[b], billing_prep.row(b));
        if rules.decide(left, right, None, &mut stats).is_some() {
            uf.union(c, n_credit + b);
        }
    }
    let mut pairs = Vec::new();
    for group in uf.groups() {
        let (credits, billings): (Vec<usize>, Vec<usize>) =
            group.into_iter().partition(|&x| x < n_credit);
        for &c in &credits {
            pairs.extend(billings.iter().map(|&b| (c, b - n_credit)));
        }
    }
    (pairs, candidates.len())
}

/// Candidate (credit, billing) pairs sharing a block key, block by block
/// in ascending key order. Tuples whose key is entirely empty (all fields
/// null) are skipped — an all-null key would otherwise create one giant
/// junk block.
pub fn block_candidates(
    credit: &Relation,
    billing: &Relation,
    key: &SortKey,
) -> Vec<(usize, usize)> {
    let empty_key_len = key.fields().len(); // separators only
    let mut blocks: BTreeMap<String, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, t) in credit.tuples().iter().enumerate() {
        let k = key.render_left(t);
        if k.chars().count() > empty_key_len {
            blocks.entry(k).or_default().0.push(i);
        }
    }
    for (i, t) in billing.tuples().iter().enumerate() {
        let k = key.render_right(t);
        if k.chars().count() > empty_key_len {
            blocks.entry(k).or_default().1.push(i);
        }
    }
    let mut out = Vec::new();
    for (credits, billings) in blocks.into_values() {
        for &c in &credits {
            out.extend(billings.iter().map(|&b| (c, b)));
        }
    }
    out
}

/// The fixed windowing keys used by Exp-2 and Exp-3 ("the same set of
/// windowing keys were used in these experiments to make the evaluation
/// fair"): one name/zip pass and one phone/e-mail pass, over the extended
/// preset pair.
pub fn standard_sort_keys(pair: &SchemaPair) -> Vec<SortKey> {
    let l = |n: &str| pair.left().attr(n).expect("extended preset schema");
    let r = |n: &str| pair.right().attr(n).expect("extended preset schema");
    vec![
        SortKey::new(vec![
            KeyField::soundex(l("LN"), r("LN")),
            KeyField::text(l("FN"), r("FN"), 2),
            KeyField::text(l("zip"), r("zip"), 3),
        ]),
        SortKey::new(vec![
            KeyField::digits(l("tel"), r("phn"), 0),
            KeyField::text(l("email"), r("email"), 6),
        ]),
    ]
}

/// The Exp-4 manual blocking key: "three attributes manually chosen", one
/// being the Soundex-encoded name — a plausible expert choice of name +
/// city + state, over the extended preset pair.
pub fn manual_block_key(pair: &SchemaPair) -> SortKey {
    let l = |n: &str| pair.left().attr(n).expect("extended preset schema");
    let r = |n: &str| pair.right().attr(n).expect("extended preset schema");
    SortKey::new(vec![
        KeyField::soundex(l("LN"), r("LN")),
        KeyField::text(l("city"), r("city"), 6),
        KeyField::text(l("state"), r("state"), 2),
    ])
}

/// The Exp-4 RCK blocking key: three attributes drawn from the top two
/// RCKs, name components Soundex-encoded.
pub fn rck_block_key(pair: &SchemaPair, rcks: &[RelativeKey]) -> SortKey {
    let mut fields: Vec<KeyField> = Vec::new();
    for key in rcks.iter().take(2) {
        for atom in key.atoms() {
            let f = field_for(pair, atom.left, atom.right);
            if !fields.iter().any(|x| x.left == f.left && x.right == f.right) {
                fields.push(f);
            }
            if fields.len() == 3 {
                return SortKey::new(fields);
            }
        }
    }
    SortKey::new(fields)
}

/// Builds the 25-rule baseline over the extended schemas.
///
/// The paper runs Sorted Neighborhood with "the 25 rules used in \[20\]"
/// (Hernández & Stolfo's merge/purge). Those rules are described in prose,
/// not published as a machine-readable artifact, so this is a faithful
/// stand-in: 25 expert-plausible person-matching rules over the extended
/// credit/billing schemas, centred (like \[20\]) on names and addresses,
/// with a spread of strictness. Being hand-written, the set both *misses*
/// the phone/e-mail combinations that MD deduction discovers and
/// *includes* looser rules that cost precision — the Fig. 10 contrast.
///
/// `pair` must be the extended `(credit, billing)` preset pair and `dl` the
/// interned `≈d` operator; the rule texts are inherently tied to the
/// paper's attribute names (they are the *hand-written* baseline).
///
/// Rules never mention `c#` or `SSN`: in the fraud-detection task the card
/// number is the join condition under test, not evidence of identity.
pub fn hernandez_stolfo_25(pair: &SchemaPair, dl: OperatorId) -> Vec<RelativeKey> {
    let l = |n: &str| pair.left().attr(n).expect("extended schema attribute");
    let r = |n: &str| pair.right().attr(n).expect("extended schema attribute");
    let eq = |a: &str, b: &str| SimilarityAtom::eq(l(a), r(b));
    let sim = |a: &str, b: &str| SimilarityAtom::new(l(a), r(b), dl);

    let rules: Vec<Vec<SimilarityAtom>> = vec![
        // --- tight name + full address rules ---
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("street", "street"), eq("city", "city")],
        vec![sim("FN", "FN"), eq("LN", "LN"), eq("street", "street"), eq("zip", "zip")],
        vec![eq("FN", "FN"), sim("LN", "LN"), eq("street", "street"), eq("city", "city")],
        vec![sim("FN", "FN"), sim("LN", "LN"), eq("street", "street"), eq("zip", "zip")],
        vec![eq("FN", "FN"), eq("LN", "LN"), sim("street", "street"), eq("zip", "zip")],
        // --- name + partial address ---
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("zip", "zip")],
        vec![sim("FN", "FN"), eq("LN", "LN"), eq("city", "city"), eq("state", "state")],
        vec![eq("FN", "FN"), sim("LN", "LN"), eq("zip", "zip")],
        vec![eq("MN", "MN"), eq("LN", "LN"), eq("street", "street")],
        vec![sim("FN", "FN"), sim("LN", "LN"), eq("city", "city"), eq("county", "county")],
        // --- address-dominant rules (households) ---
        vec![eq("LN", "LN"), eq("street", "street"), eq("city", "city")],
        vec![sim("LN", "LN"), eq("street", "street"), eq("zip", "zip")],
        vec![eq("LN", "LN"), sim("street", "street"), eq("city", "city"), eq("state", "state")],
        // --- phone-assisted (the expert set uses the phone sparingly) ---
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("tel", "phn")],
        vec![sim("FN", "FN"), eq("LN", "LN"), eq("tel", "phn")],
        // --- e-mail-assisted ---
        vec![eq("email", "email"), eq("LN", "LN")],
        vec![eq("email", "email"), sim("FN", "FN")],
        // --- looser rules that a pragmatic expert adds for recall ---
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("city", "city")],
        vec![sim("FN", "FN"), sim("LN", "LN"), eq("zip", "zip")],
        vec![eq("LN", "LN"), eq("zip", "zip"), eq("gender", "gender")],
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("state", "state")],
        vec![sim("LN", "LN"), eq("city", "city"), eq("gender", "gender"), eq("state", "state")],
        vec![eq("LN", "LN"), eq("street", "street")],
        vec![eq("FN", "FN"), eq("LN", "LN"), eq("gender", "gender")],
        vec![sim("FN", "FN"), sim("LN", "LN"), eq("county", "county"), eq("gender", "gender")],
    ];
    assert_eq!(rules.len(), 25);
    rules.into_iter().map(RelativeKey::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        exp4_windowing, fig10_sn, fig9_fs, fig9d_10d_blocking, workload, Workload, WINDOW,
    };
    use matchrules_core::cost::CostModel;
    use matchrules_core::paper;
    use matchrules_core::rck::find_rcks;
    use matchrules_data::dirty::{generate_dirty, DirtyData, NoiseConfig};
    use matchrules_data::eval::paper_registry;
    use matchrules_data::fig1;
    use matchrules_matcher::metrics::{evaluate_pairs, BlockingQuality, MatchQuality};
    use matchrules_matcher::scoring::rck_comparison_vector;
    use std::collections::HashSet;

    /// The seeded Extended workload the pinned figures and quality gates
    /// run on (400 persons, top-5 RCKs, window 10).
    fn seeded() -> Workload {
        workload(400, 0xE2E)
    }

    fn quality(tp: usize, fp: usize, fn_: usize) -> MatchQuality {
        MatchQuality { true_positives: tp, false_positives: fp, false_negatives: fn_ }
    }

    fn reduction(s_m: usize, s_u: usize) -> BlockingQuality {
        BlockingQuality {
            surviving_matches: s_m,
            surviving_non_matches: s_u,
            total_matches: 720,
            total_non_matches: 287_280,
        }
    }

    /// The figures of the seeded workload, pinned at the values the
    /// baselines produced as library modules (`FsMatcher`, the pooled
    /// sorted neighbourhood, `MatchPlan::block_key`): rebuilding FS on
    /// `ScoreModel` and SN/blocking on the serial path moved no figure.
    #[test]
    fn pinned_figures_on_the_seeded_extended_workload() {
        let w = seeded();
        let (fs, fs_rck) = fig9_fs(&w);
        for (row, q) in [(fs, quality(403, 156, 317)), (fs_rck, quality(645, 213, 75))] {
            assert_eq!((row.precision, row.recall), (q.precision(), q.recall()));
        }
        let (sn, sn_rck) = fig10_sn(&w);
        for (row, q) in [(sn, quality(511, 240, 209)), (sn_rck, quality(544, 0, 176))] {
            assert_eq!((row.precision, row.recall), (q.precision(), q.recall()));
        }
        let plan = w.engine.plan();
        let keys = standard_sort_keys(plan.pair());
        let matcher = KeyMatcher::new(plan.rcks(), w.engine.runtime());
        let (_, comparisons) =
            sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, WINDOW);
        assert_eq!(comparisons, 8_933);

        let blocking = fig9d_10d_blocking(&w);
        let windowing = exp4_windowing(&w);
        for ((manual, rck), (manual_q, rck_q)) in [
            (blocking, (reduction(409, 206), reduction(452, 0))),
            (windowing, (reduction(575, 4_224), reduction(685, 8_291))),
        ] {
            assert_eq!(
                (manual.pc, manual.rr),
                (manual_q.pairs_completeness(), manual_q.reduction_ratio())
            );
            assert_eq!((rck.pc, rck.rr), (rck_q.pairs_completeness(), rck_q.reduction_ratio()));
        }
    }

    /// The full Exp-3 pipeline hits paper-grade quality: SNrck precision
    /// ≥ 0.95 and recall ≥ 0.7, beating the 25-rule baseline on F1.
    #[test]
    fn sn_pipeline_quality_gates() {
        let w = seeded();
        let plan = w.engine.plan();
        let ops = w.engine.runtime();
        let keys = standard_sort_keys(plan.pair());
        let run = |rules: &[RelativeKey]| {
            let matcher = KeyMatcher::new(rules, ops);
            let (pairs, _) =
                sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, WINDOW);
            evaluate_pairs(&pairs, &w.data.truth)
        };
        let rck_q = run(plan.rcks());
        let base_q = run(&hernandez_stolfo_25(plan.pair(), plan.ops().get("≈d").unwrap()));
        assert!(rck_q.precision() >= 0.95, "SNrck precision {}", rck_q.precision());
        assert!(rck_q.recall() >= 0.70, "SNrck recall {}", rck_q.recall());
        assert!(rck_q.f1() > base_q.f1(), "{} vs {}", rck_q.f1(), base_q.f1());
    }

    /// The full Exp-2 pipeline: FSrck recall ≥ 0.85 at precision ≥ 0.6.
    #[test]
    fn fs_pipeline_quality_gates() {
        let (_, fs_rck) = fig9_fs(&seeded());
        assert!(fs_rck.recall >= 0.85, "recall {}", fs_rck.recall);
        assert!(fs_rck.precision >= 0.6, "precision {}", fs_rck.precision);
    }

    /// Exp-4 blocking: the RCK key's PC beats the manual key's at
    /// comparable RR, and both reduce the space by > 99%.
    #[test]
    fn blocking_quality_gates() {
        let (manual, rck) = fig9d_10d_blocking(&seeded());
        assert!(rck.pc > manual.pc);
        assert!(rck.rr > 0.99 && manual.rr > 0.99);
    }

    /// Exp-4 windowing: the engine's RCK sort keys dominate the manual
    /// key's PC.
    #[test]
    fn windowing_quality_gates() {
        let (manual, rck) = exp4_windowing(&seeded());
        assert!(rck.pc > manual.pc);
        assert!(rck.rr > 0.9);
    }

    /// Scaling the workload preserves the SNrck ≥ SN ordering (the "less
    /// sensitive to K" claim, in miniature).
    #[test]
    fn ordering_stable_across_sizes() {
        for (k, seed) in [(150usize, 7u64), (500, 8)] {
            let (sn, sn_rck) = fig10_sn(&workload(k, seed));
            assert!(sn_rck.precision > sn.precision, "K={k}");
        }
    }

    fn extended_data(persons: usize, seed: u64) -> (paper::PaperSetting, DirtyData, RuntimeOps) {
        let setting = paper::extended();
        let data = generate_dirty(
            &setting.pair,
            &setting.target,
            persons,
            &NoiseConfig { seed, ..Default::default() },
        );
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        (setting, data, ops)
    }

    fn top5(setting: &paper::PaperSetting) -> Vec<RelativeKey> {
        find_rcks(&setting.sigma, &setting.target, 5, &mut CostModel::uniform()).keys
    }

    #[test]
    fn fs_with_rck_vector_beats_equality_vector() {
        let (setting, data, ops) = extended_data(300, 21);
        let candidates = multi_pass_window(
            &data.credit,
            &data.billing,
            &standard_sort_keys(&setting.pair)[..1],
            WINDOW,
        );
        let run = |atoms: Vec<SimilarityAtom>| {
            let model = ScoreModel::fit(atoms, &data.credit, &data.billing, &candidates, &ops)
                .expect("EM fit on windowed candidates");
            evaluate_pairs(
                &fs_matches(&model, &data.credit, &data.billing, &candidates, &ops),
                &data.truth,
            )
        };
        let base_q = run(equality_comparison_vector(&setting.target));
        let rck_q = run(rck_comparison_vector(&top5(&setting)));
        // The Fig. 9 shape: the similarity-operator fields of the RCK
        // vector recover the injected noise (the gain lands mostly on
        // recall in these synthetic families).
        assert!(
            rck_q.f1() > base_q.f1() + 0.05,
            "FSrck F1 {} vs FS F1 {}",
            rck_q.f1(),
            base_q.f1()
        );
        assert!(rck_q.recall() > base_q.recall(), "FSrck recall must dominate");
        assert!(
            rck_q.precision() + 0.03 >= base_q.precision(),
            "FSrck precision {} must not trail FS {}",
            rck_q.precision(),
            base_q.precision()
        );
        assert!(rck_q.recall() > 0.8, "recall {}", rck_q.recall());
        assert!(rck_q.precision() > 0.6, "precision {}", rck_q.precision());
    }

    #[test]
    fn equality_comparison_vector_covers_the_identity_lists() {
        let setting = paper::extended();
        let atoms = equality_comparison_vector(&setting.target);
        assert_eq!(atoms.len(), 11);
        assert!(atoms.iter().all(|a| a.op.is_eq()));
    }

    fn ln_soundex(setting: &paper::PaperSetting) -> SortKey {
        let l = setting.pair.left().attr("LN").unwrap();
        let r = setting.pair.right().attr("LN").unwrap();
        SortKey::new(vec![KeyField::soundex(l, r)])
    }

    #[test]
    fn sn_fig1_smoke_with_rcks() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = paper::example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let (mut pairs, comparisons) =
            sorted_neighborhood(inst.left(), inst.right(), &matcher, &[ln_soundex(&setting)], 6);
        // All four billing tuples link to t1 (credit index 0).
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
        assert!(comparisons >= 4);
    }

    #[test]
    fn sn_transitive_closure_adds_cluster_pairs() {
        // Two credit tuples of the same person (re-issued card) both match
        // one billing tuple → closure links both.
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let mut credit2 = inst.left().clone();
        let mut values = inst.left().by_id(fig1::ids::T1).unwrap().values().to_vec();
        values[0] = matchrules_data::value::Value::str("333");
        credit2.push(matchrules_data::relation::Tuple::new(99, values));
        let rcks = paper::example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let (pairs, _) =
            sorted_neighborhood(&credit2, inst.right(), &matcher, &[ln_soundex(&setting)], 8);
        // Both credit 0 and credit 2 (the clone) pair with all 4 billings.
        assert_eq!(pairs.iter().filter(|&&(c, _)| c == 2).count(), 4);
    }

    /// The Fig. 10 shape: SN with RCK rules beats SN with the 25 hand
    /// rules on F1, with a smaller rule set.
    #[test]
    fn snrck_beats_sn25() {
        let (setting, data, ops) = extended_data(300, 31);
        let keys = standard_sort_keys(&setting.pair);
        let run = |rules: &[RelativeKey]| {
            let matcher = KeyMatcher::new(rules, &ops);
            let (pairs, _) =
                sorted_neighborhood(&data.credit, &data.billing, &matcher, &keys, WINDOW);
            evaluate_pairs(&pairs, &data.truth)
        };
        let rcks = top5(&setting);
        let rules25 = hernandez_stolfo_25(&setting.pair, setting.dl);
        assert!(rcks.len() <= 5 && rules25.len() == 25);
        let (rck_q, base_q) = (run(&rcks), run(&rules25));
        assert!(
            rck_q.f1() > base_q.f1(),
            "SNrck F1 {} must beat SN F1 {}",
            rck_q.f1(),
            base_q.f1()
        );
        assert!(rck_q.precision() > 0.9, "SNrck precision {}", rck_q.precision());
    }

    #[test]
    fn soundex_blocking_groups_fig1() {
        let (setting, inst) = fig1::setting_and_instance();
        let pairs = block_candidates(inst.left(), inst.right(), &ln_soundex(&setting));
        // Clifford (t1) blocks with Clifford/Clivord (t3..t6): 4 pairs; David
        // Smith blocks with nothing.
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|&(c, _)| c == 0));
    }

    #[test]
    fn exact_blocking_misses_typod_keys() {
        let (setting, inst) = fig1::setting_and_instance();
        let ln_l = setting.pair.left().attr("LN").unwrap();
        let ln_r = setting.pair.right().attr("LN").unwrap();
        let key = SortKey::new(vec![KeyField::text(ln_l, ln_r, 0)]);
        // Without Soundex, "Clivord" (t5, t6) falls out of the block.
        assert_eq!(block_candidates(inst.left(), inst.right(), &key).len(), 2);
    }

    #[test]
    fn null_keys_do_not_form_blocks() {
        let (setting, inst) = fig1::setting_and_instance();
        let g_l = setting.pair.left().attr("gender").unwrap();
        let g_r = setting.pair.right().attr("gender").unwrap();
        // All billing genders are null: no (credit, billing) block forms.
        let key = SortKey::new(vec![KeyField::text(g_l, g_r, 0)]);
        assert!(block_candidates(inst.left(), inst.right(), &key).is_empty());
    }

    #[test]
    fn blocking_reduces_comparisons_substantially() {
        let (setting, data, _) = extended_data(200, 6);
        let l = |n: &str| setting.pair.left().attr(n).unwrap();
        let r = |n: &str| setting.pair.right().attr(n).unwrap();
        let key = SortKey::new(vec![
            KeyField::soundex(l("LN"), r("LN")),
            KeyField::text(l("city"), r("city"), 4),
        ]);
        let q = BlockingQuality::from_candidates(
            block_candidates(&data.credit, &data.billing, &key),
            &data.truth,
        );
        assert!(q.reduction_ratio() > 0.9);
        assert!(q.pairs_completeness() > 0.3);
    }

    #[test]
    fn paper_keys_build_over_the_extended_pair() {
        let setting = paper::extended();
        assert_eq!(standard_sort_keys(&setting.pair).len(), 2);
        assert_eq!(manual_block_key(&setting.pair).fields().len(), 3);
        let block = rck_block_key(&setting.pair, &top5(&setting));
        assert!(!block.fields().is_empty() && block.fields().len() <= 3);
    }

    #[test]
    fn exactly_25_distinct_rules() {
        let setting = paper::extended();
        let rules = hernandez_stolfo_25(&setting.pair, setting.dl);
        assert_eq!(rules.len(), 25);
        let distinct: HashSet<_> = rules.iter().map(|k| k.atoms().to_vec()).collect();
        assert_eq!(distinct.len(), 25, "rules must be pairwise distinct");
    }

    #[test]
    fn rules_avoid_join_attributes() {
        let setting = paper::extended();
        let cn = setting.pair.left().attr("c#").unwrap();
        let ssn = setting.pair.left().attr("SSN").unwrap();
        for rule in hernandez_stolfo_25(&setting.pair, setting.dl) {
            for atom in rule.atoms() {
                assert_ne!(atom.left, cn, "c# must not appear");
                assert_ne!(atom.left, ssn, "SSN must not appear");
            }
        }
    }

    #[test]
    fn rules_are_well_formed_over_the_schemas() {
        let setting = paper::extended();
        for rule in hernandez_stolfo_25(&setting.pair, setting.dl) {
            assert!(!rule.is_empty());
            assert!(rule.len() <= 4);
            for atom in rule.atoms() {
                assert!(setting.pair.check_comparable(atom.left, atom.right).is_ok());
            }
        }
    }

    #[test]
    fn rule_set_uses_similarity_operators() {
        let setting = paper::extended();
        let rules = hernandez_stolfo_25(&setting.pair, setting.dl);
        let with_sim = rules.iter().filter(|k| k.atoms().iter().any(|a| !a.op.is_eq())).count();
        assert!(with_sim >= 8, "expert rules mix equality and similarity");
    }
}
