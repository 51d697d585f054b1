//! The §6 experiments as pure point functions.
//!
//! Every figure of the paper maps to one function here; the `fig*` binaries
//! sweep the paper's parameter ranges and print the series, the criterion
//! benches sample reduced points. See DESIGN.md §2 for the index.
//!
//! Workloads run through the schema-agnostic engine API: the `Extended`
//! preset is compiled once into a `MatchPlan` (with data-calibrated cost
//! statistics) and the experiments read its RCKs, derived keys and resolved
//! operators — no `PaperSetting` internals, no hardcoded attribute names.

use matchrules::engine::preset::{manual_block_key, standard_sort_keys};
use matchrules::engine::{EngineBuilder, MatchEngine, Preset};
use matchrules_core::cost::CostModel;
use matchrules_core::rck::find_rcks;
use matchrules_core::schema::{AttrKind, Schema};
use matchrules_data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules_data::gen::generate_persons;
use matchrules_data::mdgen::{generate, MdGenConfig};
use matchrules_data::relation::Relation;
use matchrules_matcher::blocking::block_candidates;
use matchrules_matcher::fellegi_sunter::{
    equality_comparison_vector, rck_comparison_vector, FsConfig, FsMatcher,
};
use matchrules_matcher::key::KeyMatcher;
use matchrules_matcher::metrics::{evaluate_pairs, BlockingQuality, MatchQuality};
use matchrules_matcher::rules::hernandez_stolfo_25;
use matchrules_matcher::sorted_neighborhood::{sorted_neighborhood, SnConfig};
use matchrules_matcher::windowing::multi_pass_window;

/// Fixed window size of Exp-2/Exp-3 (§6.2).
pub const WINDOW: usize = 10;

/// Fig. 8(a)/(b) point: seconds to deduce `m` RCKs from `card` random MDs
/// with `|Y1| = y_len`.
pub fn fig8_findrcks_seconds(card: usize, y_len: usize, m: usize, seed: u64) -> f64 {
    let setting = generate(&MdGenConfig::fig8(card, y_len, seed));
    let mut cost = CostModel::uniform();
    let start = std::time::Instant::now();
    let outcome = find_rcks(&setting.sigma, &setting.target, m, &mut cost);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(outcome.keys.len());
    secs
}

/// Fig. 8(c) point: total number of RCKs deducible from `card` random MDs.
pub fn fig8c_total_rcks(card: usize, y_len: usize, seed: u64) -> usize {
    let setting = generate(&MdGenConfig::fig8(card, y_len, seed));
    let mut cost = CostModel::uniform();
    let outcome = find_rcks(&setting.sigma, &setting.target, usize::MAX, &mut cost);
    debug_assert!(outcome.complete);
    outcome.keys.len()
}

/// A prepared §6 matching workload: dirty data plus the compiled engine.
pub struct Workload {
    /// The compiled, data-calibrated match engine over the `Extended`
    /// preset (top-5 RCKs, the paper's union size).
    pub engine: MatchEngine,
    /// Generated instances + truth.
    pub data: DirtyData,
}

/// Builds the §6 workload for `k` base tuples per relation: generate the
/// dirty data over the preset's schemas, then compile the plan with `lt`
/// statistics measured on that data.
pub fn workload(k: usize, seed: u64) -> Workload {
    // Shapes only: the preset's schema pair and target, no compiled plan.
    let shape = Preset::Extended.paper_setting();
    let data =
        generate_dirty(&shape.pair, &shape.target, k, &NoiseConfig { seed, ..Default::default() });
    let engine = Preset::Extended
        .builder()
        .top_k(5)
        .window(WINDOW)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("preset engine builds");
    Workload { engine, data }
}

/// A prepared person-name serving workload: probe and record relations
/// over a names schema whose RCKs retrieve exclusively through the
/// non-equality anchors — jaro-winkler and tokens (element postings)
/// and soundex (key buckets), with one equality tie-breaker on the
/// phone.
pub struct NamesWorkload {
    /// The compiled engine; its `MatchIndex` must report zero scan keys.
    pub engine: MatchEngine,
    /// Clean roster rows (the probe side).
    pub left: Relation,
    /// Perturbed signup rows (the indexed side), one per roster row:
    /// first-name typo + city word rotation, surname and phone intact.
    pub right: Relation,
}

/// splitmix64: the deterministic, dependency-free hash driving the
/// perturbations below (the bench library has no rand dependency).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Swaps two adjacent interior characters of `s` (a classic keyboard
/// transposition), leaving short strings alone.
fn transpose(s: &str, h: u64) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 4 {
        let i = 1 + (h as usize) % (chars.len() - 2);
        chars.swap(i, i + 1);
    }
    chars.into_iter().collect()
}

/// Rotates the word order of `s` ("New York" → "York New") — a
/// token-set-preserving corruption (Jaccard 1) that defeats plain
/// equality and prefix-sorted windows alike.
fn rotate_words(s: &str) -> String {
    let words: Vec<&str> = s.split_whitespace().collect();
    match words.split_first() {
        Some((first, rest)) if !rest.is_empty() => format!("{} {}", rest.join(" "), first),
        _ => s.to_owned(),
    }
}

/// Builds the person-name serving workload for `k` persons: roster rows
/// are clean, signup rows carry a deterministic first-name typo and city
/// word rotation (seeded by splitmix64 — no rand in this crate), so the
/// true pairs are reachable only through the fuzzy anchors.
pub fn names_workload(k: usize, seed: u64) -> NamesWorkload {
    let roster = Schema::kinded(
        "roster",
        &[
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("city", AttrKind::City),
            ("phone", AttrKind::Phone),
        ],
    )
    .expect("roster schema");
    let signup = Schema::kinded(
        "signup",
        &[
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("city", AttrKind::City),
            ("phone", AttrKind::Phone),
        ],
    )
    .expect("signup schema");
    let engine = EngineBuilder::new()
        .schemas(roster, signup)
        .md_text(
            "roster[first] ~jw signup[first] /\\ roster[last] ~sx signup[last] /\\ \
             roster[city] ~tok signup[city] -> \
             roster[first,last,city] <=> signup[first,last,city]\n\
             roster[phone] = signup[phone] /\\ roster[last] ~sx signup[last] -> \
             roster[first,last,city] <=> signup[first,last,city]\n",
        )
        .target(&["first", "last", "city"], &["first", "last", "city"])
        .window(WINDOW)
        .build()
        .expect("names engine builds");

    let persons = generate_persons(k, seed);
    let mut left = Relation::new(engine.plan().pair().left().clone());
    let mut right = Relation::new(engine.plan().pair().right().clone());
    for (i, p) in persons.iter().enumerate() {
        let id = i as u64 + 1;
        left.push_strs(id, &[&p.first, &p.last, &p.city, &p.tel]);
        let h = mix(seed ^ id);
        right.push_strs(id, &[&transpose(&p.first, h), &p.last, &rotate_words(&p.city), &p.tel]);
    }
    NamesWorkload { engine, left, right }
}

/// One method's quality and runtime at one K.
#[derive(Debug, Clone, Copy)]
pub struct MethodRow {
    /// Precision in `\[0, 1\]`.
    pub precision: f64,
    /// Recall in `\[0, 1\]`.
    pub recall: f64,
    /// Wall-clock seconds for the matching phase (excludes data
    /// generation and plan compilation, includes model fitting).
    pub seconds: f64,
}

impl MethodRow {
    fn new(q: MatchQuality, seconds: f64) -> Self {
        MethodRow { precision: q.precision(), recall: q.recall(), seconds }
    }
}

/// Fig. 9(a–c) point: Fellegi–Sunter with the EM-picked equality vector
/// (`FS`) vs the top-5-RCK vector (`FSrck`).
pub fn fig9_fs(w: &Workload) -> (MethodRow, MethodRow) {
    let plan = w.engine.plan();
    let ops = w.engine.runtime();
    let keys = standard_sort_keys(plan.pair());
    let cfg = FsConfig::default();

    let start = std::time::Instant::now();
    let candidates = multi_pass_window(&w.data.credit, &w.data.billing, &keys, WINDOW);
    let candidate_secs = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    let base = FsMatcher::fit(
        equality_comparison_vector(plan.target()),
        &w.data.credit,
        &w.data.billing,
        &candidates,
        ops,
        &cfg,
    )
    .expect("EM fit on windowed candidates");
    let base_pairs = base.classify(&w.data.credit, &w.data.billing, &candidates, ops);
    let base_secs = candidate_secs + start.elapsed().as_secs_f64();
    let base_q = evaluate_pairs(&base_pairs, &w.data.truth);

    let start = std::time::Instant::now();
    let rck = FsMatcher::fit(
        rck_comparison_vector(plan.rcks()),
        &w.data.credit,
        &w.data.billing,
        &candidates,
        ops,
        &cfg,
    )
    .expect("EM fit on windowed candidates");
    let rck_pairs = rck.classify(&w.data.credit, &w.data.billing, &candidates, ops);
    let rck_secs = candidate_secs + start.elapsed().as_secs_f64();
    let rck_q = evaluate_pairs(&rck_pairs, &w.data.truth);

    (MethodRow::new(base_q, base_secs), MethodRow::new(rck_q, rck_secs))
}

/// Fig. 10(a–c) point: Sorted Neighborhood with the 25 hand rules (`SN`)
/// vs the top-5 RCK rule set (`SNrck`).
pub fn fig10_sn(w: &Workload) -> (MethodRow, MethodRow) {
    let plan = w.engine.plan();
    let ops = w.engine.runtime();
    let cfg = SnConfig { window: WINDOW, keys: standard_sort_keys(plan.pair()) };

    let dl = plan.ops().get("≈d").expect("preset interns ≈d");
    let rules25 = hernandez_stolfo_25(plan.pair(), dl);
    let start = std::time::Instant::now();
    let matcher = KeyMatcher::new(rules25.iter(), ops);
    let base_out = sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &cfg);
    let base_secs = start.elapsed().as_secs_f64();
    let base_q = evaluate_pairs(&base_out.pairs, &w.data.truth);

    let start = std::time::Instant::now();
    let matcher = KeyMatcher::new(plan.rcks().iter(), ops);
    let rck_out = sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &cfg);
    let rck_secs = start.elapsed().as_secs_f64();
    let rck_q = evaluate_pairs(&rck_out.pairs, &w.data.truth);

    (MethodRow::new(base_q, base_secs), MethodRow::new(rck_q, rck_secs))
}

/// One blocking/windowing configuration's PC and RR.
#[derive(Debug, Clone, Copy)]
pub struct ReductionRow {
    /// Pairs completeness.
    pub pc: f64,
    /// Reduction ratio.
    pub rr: f64,
}

/// Fig. 9(d)/10(d) point: blocking with the plan's RCK-derived key vs the
/// manual key (both three attributes, name Soundex-encoded).
pub fn fig9d_10d_blocking(w: &Workload) -> (ReductionRow, ReductionRow) {
    let plan = w.engine.plan();
    let rck_key = plan.block_key().expect("preset plan has keys");
    let manual_key = manual_block_key(plan.pair());
    let rck_q = BlockingQuality::from_candidates(
        block_candidates(&w.data.credit, &w.data.billing, rck_key),
        &w.data.truth,
    );
    let manual_q = BlockingQuality::from_candidates(
        block_candidates(&w.data.credit, &w.data.billing, &manual_key),
        &w.data.truth,
    );
    (
        ReductionRow { pc: manual_q.pairs_completeness(), rr: manual_q.reduction_ratio() },
        ReductionRow { pc: rck_q.pairs_completeness(), rr: rck_q.reduction_ratio() },
    )
}

/// Exp-4 windowing point: PC/RR of window candidates under manual vs
/// RCK-derived sort keys.
pub fn exp4_windowing(w: &Workload) -> (ReductionRow, ReductionRow) {
    let plan = w.engine.plan();
    let manual_keys = vec![manual_block_key(plan.pair())];
    let rck_q = BlockingQuality::from_candidates(
        w.engine.window(&w.data.credit, &w.data.billing).expect("plan has sort keys"),
        &w.data.truth,
    );
    let manual_q = BlockingQuality::from_candidates(
        multi_pass_window(&w.data.credit, &w.data.billing, &manual_keys, WINDOW),
        &w.data.truth,
    );
    (
        ReductionRow { pc: manual_q.pairs_completeness(), rr: manual_q.reduction_ratio() },
        ReductionRow { pc: rck_q.pairs_completeness(), rr: rck_q.reduction_ratio() },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules::engine::OpClass;
    use std::collections::HashSet;

    #[test]
    fn fig8_point_runs() {
        let secs = fig8_findrcks_seconds(50, 6, 10, 1);
        assert!((0.0..30.0).contains(&secs));
        let total = fig8c_total_rcks(20, 6, 2);
        assert!(total >= 1);
    }

    #[test]
    fn matching_points_run_and_keep_paper_shape() {
        let w = workload(200, 77);
        let (fs, fs_rck) = fig9_fs(&w);
        assert!(fs_rck.recall >= fs.recall, "FSrck recall dominates");
        let (sn, sn_rck) = fig10_sn(&w);
        assert!(sn_rck.precision > sn.precision, "SNrck precision dominates");
        let (manual, rck) = fig9d_10d_blocking(&w);
        assert!(rck.pc >= manual.pc - 0.02, "RCK blocking PC competitive");
        assert!(manual.rr > 0.5 && rck.rr > 0.5);
        let (wm, wr) = exp4_windowing(&w);
        assert!(wr.pc >= wm.pc - 0.05);
        assert!(wm.rr > 0.5 && wr.rr > 0.5);
    }

    #[test]
    fn names_workload_is_fully_indexed_and_indexed_equals_scan() {
        let w = names_workload(120, 0xA11CE);
        assert!(w.engine.plan().fully_indexable(), "names plan must carry no scan key");
        let index = w.engine.index(&w.right).expect("index builds");
        let stats = index.stats();
        assert_eq!(stats.scan_keys, 0, "no scan fallback: {stats:?}");
        // One key anchor per distinct equality atom, plus soundex's; element
        // anchors for jaro-winkler and tokens.
        let plan = w.engine.plan();
        let atoms = plan.rcks().iter().flat_map(|key| key.atoms());
        let equality = atoms.filter(|a| plan.atom_class(a.op) == OpClass::Equality);
        let equality = equality.collect::<HashSet<_>>().len();
        assert_eq!(stats.key_anchors, equality + 1, "soundex must land on a key anchor");
        assert!(stats.element_anchors >= 2);
        // Index hit set == exhaustive scan hit set, probe by probe, and
        // every true (same-id) pair is found through the fuzzy anchors.
        let batch = w.engine.match_all(&w.left, &w.right).expect("batch run");
        for (l, probe) in w.left.tuples().iter().enumerate() {
            let mut got: Vec<(u64, usize)> =
                index.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            got.sort_unstable();
            let mut expected: Vec<(u64, usize)> =
                batch.pairs().iter().filter(|p| p.left == l).map(|p| (p.right_id, p.key)).collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "probe {l} diverged from the scan path");
            assert!(
                got.iter().any(|&(id, _)| id == probe.id()),
                "true partner of probe {l} not found"
            );
        }
        // And the fuzzy anchors retrieve fewer candidates than the
        // sorted-neighborhood windows examine.
        let windowed = w.engine.match_pairs(&w.left, &w.right).expect("windowed run");
        let indexed = w.engine.match_pairs_indexed(&w.left, &w.right).expect("indexed run");
        assert!(
            indexed.candidates() < windowed.candidates(),
            "index must examine strictly fewer candidates ({} vs {})",
            indexed.candidates(),
            windowed.candidates()
        );
    }

    #[test]
    fn engine_report_matches_on_the_workload() {
        let w = workload(150, 9);
        let report = w.engine.match_pairs(&w.data.credit, &w.data.billing).unwrap();
        let q = report.score(&w.data.truth);
        assert!(q.precision() >= 0.9, "engine precision {}", q.precision());
        assert!(q.recall() >= 0.5, "engine recall {}", q.recall());
        assert!(report.reduction_ratio() > 0.5);
    }
}
