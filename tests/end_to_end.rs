//! End-to-end pipeline tests on generated dirty data: MDs → RCKs → the
//! compiled engine plan → windowed candidates, matched pairs and scores,
//! with quality gates on each. The §6 baseline comparisons (SN, FS and
//! manual blocking/windowing against the RCKs) run in `crates/bench`
//! (`baselines`).

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::DirtyData;
use matchrules::engine::{MatchEngine, Preset};
use matchrules::matcher::metrics::{evaluate_pairs, BlockingQuality};

fn workload() -> (MatchEngine, DirtyData) {
    workload_seeded(400, 0xE2E)
}

fn workload_seeded(k: usize, seed: u64) -> (MatchEngine, DirtyData) {
    // Shapes only: the preset's schema pair and target, no compiled plan.
    let shape = Preset::Extended.paper_setting();
    let data =
        generate_dirty(&shape.pair, &shape.target, k, &NoiseConfig { seed, ..Default::default() });
    let engine = Preset::Extended
        .builder()
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .unwrap();
    (engine, data)
}

/// Determinism: the whole engine pipeline is reproducible from the seed.
#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let (engine, data) = workload();
        let report = engine.match_pairs(&data.credit, &data.billing).unwrap();
        let mut pairs = report.index_pairs();
        pairs.sort_unstable();
        pairs
    };
    assert_eq!(run(), run());
}

/// The engine's windowing over the RCK-derived sort keys keeps 685 of the
/// 720 true pairs while discarding 97% of the pair space — the RCK row of
/// the Exp-4 windowing figure, which `crates/bench` pins against the
/// manual key on this same workload.
#[test]
fn windowing_quality_gates() {
    let (engine, data) = workload();
    let q = BlockingQuality::from_candidates(
        engine.window(&data.credit, &data.billing).unwrap(),
        &data.truth,
    );
    assert_eq!((q.surviving_matches, q.surviving_non_matches), (685, 8_291), "{q:?}");
    assert_eq!((q.total_matches, q.total_non_matches), (720, 287_280), "{q:?}");
    assert!(q.pairs_completeness() > 0.95, "PC {}", q.pairs_completeness());
    assert!(q.reduction_ratio() > 0.95, "RR {}", q.reduction_ratio());
}

/// Windowed RCK matching hits paper-grade quality: precision ≥ 0.95 and
/// recall ≥ 0.7.
#[test]
fn windowed_matching_quality_gates() {
    let (engine, data) = workload();
    let q = engine.match_pairs(&data.credit, &data.billing).unwrap().score(&data.truth);
    assert!(q.precision() >= 0.95, "precision {}", q.precision());
    assert!(q.recall() >= 0.70, "recall {}", q.recall());
}

/// The plan's fitted score model, thresholded at 0.5 over the windowed
/// candidates, recovers true pairs the boolean RCKs miss at precision
/// ≥ 0.85.
#[test]
fn score_model_quality_gates() {
    let (engine, data) = workload();
    let candidates = engine.window(&data.credit, &data.billing).unwrap();
    let scored: Vec<(usize, usize)> = candidates
        .into_iter()
        .filter(|&(c, b)| {
            engine.score_pair(&data.credit.tuples()[c], &data.billing.tuples()[b]) >= 0.5
        })
        .collect();
    let q = evaluate_pairs(&scored, &data.truth);
    let rules = engine.match_pairs(&data.credit, &data.billing).unwrap().score(&data.truth);
    assert!(q.recall() >= 0.8, "recall {}", q.recall());
    assert!(q.precision() >= 0.85, "precision {}", q.precision());
    assert!(q.true_positives > rules.true_positives, "{q:?} vs rules {rules:?}");
}

/// Windowing and matching quality hold as the workload grows (the "less
/// sensitive to K" claim, in miniature).
#[test]
fn quality_stable_across_sizes() {
    for (k, seed) in [(150usize, 7u64), (500, 8)] {
        let (engine, data) = workload_seeded(k, seed);
        let window = BlockingQuality::from_candidates(
            engine.window(&data.credit, &data.billing).unwrap(),
            &data.truth,
        );
        assert!(window.pairs_completeness() > 0.9, "K={k}: PC {}", window.pairs_completeness());
        assert!(window.reduction_ratio() > 0.9, "K={k}: RR {}", window.reduction_ratio());
        let q = engine.match_pairs(&data.credit, &data.billing).unwrap().score(&data.truth);
        assert!(q.precision() >= 0.95, "K={k}: precision {}", q.precision());
        assert!(q.recall() >= 0.70, "K={k}: recall {}", q.recall());
    }
}
