//! The §6 experiments as pure point functions.
//!
//! Every figure of the paper maps to one function here; the `fig*` binaries
//! sweep the paper's parameter ranges and print the series, the criterion
//! benches sample reduced points. See DESIGN.md §2 for the index.
//!
//! Workloads run through the schema-agnostic engine API: the `Extended`
//! preset is compiled once into a `MatchPlan` (with data-calibrated cost
//! statistics) and the experiments read its RCKs, derived keys and resolved
//! operators; the hand-chosen baselines they compare against come from
//! [`crate::baselines`].

use crate::baselines::{
    block_candidates, equality_comparison_vector, fs_matches, hernandez_stolfo_25,
    manual_block_key, rck_block_key, sorted_neighborhood, standard_sort_keys,
};
use matchrules::engine::{MatchEngine, Preset};
use matchrules_core::cost::CostModel;
use matchrules_core::rck::find_rcks;
use matchrules_data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules_data::mdgen::{generate, MdGenConfig};
use matchrules_matcher::key::KeyMatcher;
use matchrules_matcher::metrics::{evaluate_pairs, BlockingQuality, MatchQuality};
use matchrules_matcher::scoring::{rck_comparison_vector, ScoreModel};
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

    let start = std::time::Instant::now();
    let candidates = multi_pass_window(&w.data.credit, &w.data.billing, &keys, WINDOW);
    let candidate_secs = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    let base = ScoreModel::fit(
        equality_comparison_vector(plan.target()),
        &w.data.credit,
        &w.data.billing,
        &candidates,
        ops,
    )
    .expect("EM fit on windowed candidates");
    let base_pairs = fs_matches(&base, &w.data.credit, &w.data.billing, &candidates, ops);
    let base_secs = candidate_secs + start.elapsed().as_secs_f64();
    let base_q = evaluate_pairs(&base_pairs, &w.data.truth);

    let start = std::time::Instant::now();
    let rck = ScoreModel::fit(
        rck_comparison_vector(plan.rcks()),
        &w.data.credit,
        &w.data.billing,
        &candidates,
        ops,
    )
    .expect("EM fit on windowed candidates");
    let rck_pairs = fs_matches(&rck, &w.data.credit, &w.data.billing, &candidates, ops);
    let rck_secs = candidate_secs + start.elapsed().as_secs_f64();
    let rck_q = evaluate_pairs(&rck_pairs, &w.data.truth);

    (MethodRow::new(base_q, base_secs), MethodRow::new(rck_q, rck_secs))
}

/// Fig. 10(a–c) point: Sorted Neighborhood with the 25 hand rules (`SN`)
/// vs the top-5 RCK rule set (`SNrck`).
pub fn fig10_sn(w: &Workload) -> (MethodRow, MethodRow) {
    let plan = w.engine.plan();
    let ops = w.engine.runtime();
    let keys = standard_sort_keys(plan.pair());

    let dl = plan.ops().get("≈d").expect("preset interns ≈d");
    let rules25 = hernandez_stolfo_25(plan.pair(), dl);
    let start = std::time::Instant::now();
    let matcher = KeyMatcher::new(&rules25, ops);
    let (base_pairs, _) =
        sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, WINDOW);
    let base_secs = start.elapsed().as_secs_f64();
    let base_q = evaluate_pairs(&base_pairs, &w.data.truth);

    let start = std::time::Instant::now();
    let matcher = KeyMatcher::new(plan.rcks(), ops);
    let (rck_pairs, _) =
        sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, WINDOW);
    let rck_secs = start.elapsed().as_secs_f64();
    let rck_q = evaluate_pairs(&rck_pairs, &w.data.truth);

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

/// Fig. 9(d)/10(d) point: blocking with the key derived from the plan's
/// RCKs vs the manual key (both three attributes, name Soundex-encoded).
pub fn fig9d_10d_blocking(w: &Workload) -> (ReductionRow, ReductionRow) {
    let plan = w.engine.plan();
    let rck_key = rck_block_key(plan.pair(), plan.rcks());
    let manual_key = manual_block_key(plan.pair());
    let rck_q = BlockingQuality::from_candidates(
        block_candidates(&w.data.credit, &w.data.billing, &rck_key),
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
    fn engine_report_matches_on_the_workload() {
        let w = workload(150, 9);
        let report = w.engine.match_pairs(&w.data.credit, &w.data.billing).unwrap();
        let q = report.score(&w.data.truth);
        assert!(q.precision() >= 0.9, "engine precision {}", q.precision());
        assert!(q.recall() >= 0.5, "engine recall {}", q.recall());
        assert!(report.reduction_ratio() > 0.5);
    }
}
