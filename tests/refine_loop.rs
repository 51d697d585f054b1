//! The refinement loop, end to end:
//!
//! * the selected rule set's F_β on the labeled sample is **never below
//!   the seed's** — the serving rules are one of the greedy starting
//!   points, so refinement can only hold or improve (proptest over
//!   noise seeds and β);
//! * every selected rule has **strictly positive marginal gain**: no
//!   freeloaders survive selection (proptest);
//! * the whole run is deterministic across engine thread counts, and
//!   `refine → swap_rules_refined` answers **hit-for-hit identically**
//!   to a fresh engine compiled directly from the selected rules — at
//!   1, 2 and 8 threads (proptest);
//! * a running `MatchServer` accepts `SubmitLabels` and `Refine` over
//!   the TCP wire, hot-swaps the selected rules with zero downtime, and
//!   keeps answering.

use matchrules::data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules::data::value::Value;
use matchrules::engine::{EngineBuilder, MatchEngine, Preset};
use matchrules::matcher::metrics::MatchQuality;
use matchrules::refine::{self, LabelStore, RefineError, Refinement, RefinementReport};
use matchrules::server::net::serve;
use matchrules::server::wire::{Request, Response, WireLabel};
use matchrules::server::{MatchClient, MatchServer};
use matchrules::service::{Record, RecordId, ServiceError};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// A deliberately weak serving rule set for the extended pair: one exact
/// key and one over-strict fuzzy key. Refinement has headroom — mined
/// candidates and looser θ-variants of the `≈d` atoms can recover the
/// recall the seed leaves on the table.
const WEAK_RULES: &str = "\
    credit[email] = billing[email] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n\
    credit[LN] ~d billing[LN] /\\ credit[FN] ~d billing[FN] /\\ credit[zip] = billing[zip] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

fn dirty(persons: usize, seed: u64) -> DirtyData {
    let shape = Preset::Extended.paper_setting();
    generate_dirty(
        &shape.pair,
        &shape.target,
        persons,
        &NoiseConfig { seed, ..NoiseConfig::default() },
    )
}

fn weak_engine(data: &DirtyData, threads: usize) -> MatchEngine {
    let shape = Preset::Extended.paper_setting();
    EngineBuilder::new()
        .schema_pair(shape.pair)
        .md_text(WEAK_RULES)
        .target_ids(shape.target)
        .top_k(5)
        .threads(threads)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("weak engine builds")
}

fn labels_for(data: &DirtyData) -> LabelStore {
    LabelStore::from_truth(&data.credit, &data.billing, &data.truth, 2)
        .expect("generated truth labels cleanly")
}

fn refine_once(data: &DirtyData, threads: usize, beta: f64) -> Refinement {
    let engine = weak_engine(data, threads);
    refine::refine(engine.plan(), engine.registry(), &labels_for(data), beta)
        .expect("refinement selects a rule set")
}

/// A server over `engine` holding every billing tuple.
fn filled_server(engine: MatchEngine, data: &DirtyData) -> MatchServer {
    let server = MatchServer::new(engine);
    for t in data.billing.tuples() {
        let record = Record::from_values(server.store_schema(), t.values().to_vec()).unwrap();
        server.upsert(RecordId(t.id()), &record).unwrap();
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The floor guarantee: F_β(selected) ≥ F_β(seed) on the labeled
    /// sample, for skewed β as well as F1 — and no selected rule rides
    /// for free (every marginal gain strictly positive).
    #[test]
    fn refined_fbeta_never_below_seed_and_gains_positive(
        seed in 0u64..1024,
        beta_case in 0usize..3,
    ) {
        let beta = [0.5, 1.0, 2.0][beta_case];
        let data = dirty(60, seed);
        let refinement = refine_once(&data, 1, beta);
        let report = &refinement.report;
        prop_assert!(
            report.after.f_beta(beta) >= report.before.f_beta(beta),
            "refined F_{beta} {} fell below seed {}",
            report.after.f_beta(beta),
            report.before.f_beta(beta)
        );
        prop_assert!(!report.selected.is_empty());
        for rule in &report.selected {
            prop_assert!(
                rule.marginal_gain > 0.0,
                "rule #{} ({}) selected with non-positive marginal gain {}",
                rule.pool_index, rule.rendered, rule.marginal_gain
            );
        }
    }

    /// The same labels produce the same refinement at every engine
    /// thread count, and deploying it via `swap_rules_refined` answers
    /// hit-for-hit identically to a fresh engine compiled directly from
    /// the selected rules — at 1, 2 and 8 threads.
    #[test]
    fn refine_swap_equals_fresh_build_across_threads(seed in 0u64..1024) {
        let data = dirty(50, seed);
        let baseline = refine_once(&data, 1, 1.0);
        let shape = Preset::Extended.paper_setting();

        // The fresh build: selected rules + extended operator world,
        // compiled from scratch, probing a direct index over billing.
        let fresh_engine = EngineBuilder::new()
            .schema_pair(shape.pair)
            .operator_table(baseline.ops.clone())
            .operators(baseline.registry.clone())
            .mds(baseline.rules.clone())
            .target_ids(shape.target)
            .top_k(5)
            .statistics_from(&data.credit, &data.billing)
            .build()
            .expect("fresh engine compiles from the selected rules");
        let fresh = fresh_engine.index(&data.billing).expect("billing indexes");
        let direct: Vec<Vec<(u64, usize)>> = (data.credit.tuples().iter())
            .map(|t| fresh.query(t).hits.iter().map(|h| (h.id, h.key)).collect())
            .collect();
        let served = |server: &MatchServer| -> Vec<Vec<(u64, usize)>> {
            (data.credit.tuples().iter())
                .map(|t| {
                    let probe =
                        Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap();
                    server.query(&probe).unwrap().hits.iter().map(|h| (h.id.0, h.key)).collect()
                })
                .collect()
        };

        for threads in THREAD_SWEEP {
            let refinement = refine_once(&data, threads, 1.0);
            let rendered =
                |r: &Refinement| r.report.selected.iter().map(|s| s.rendered.clone()).collect::<Vec<_>>();
            prop_assert_eq!(rendered(&refinement), rendered(&baseline), "threads={}", threads);
            prop_assert_eq!(refinement.report.after, baseline.report.after);
            prop_assert_eq!(refinement.report.before, baseline.report.before);

            // refine → swap ≡ fresh build.
            let server = filled_server(weak_engine(&data, threads), &data);
            let version = server.swap_rules_refined(&refinement).unwrap();
            prop_assert_eq!(version.number(), 2);
            prop_assert_eq!(served(&server), direct.clone(), "threads={}", threads);
        }
    }
}

/// On every rung of the noise ladder the refined rules' F1 is at least
/// the seed's, and across the ladder the θ-sweep earns its place: at
/// least one selected rule is a swept variant. The seed is an exact key
/// that dies with noisy emails plus a fuzzy name key at the registry's
/// tight base threshold (`≈jw` is registered at 0.90) — typo'd positives
/// land just below it, which is the headroom looser variants recover.
#[test]
fn refined_f1_holds_on_every_noise_rung_and_the_theta_sweep_contributes() {
    const JW_SEED_RULES: &str = "\
        credit[email] = billing[email] -> \
        credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
        billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n\
        credit[LN] ~jw billing[LN] /\\ credit[FN] ~jw billing[FN] -> \
        credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
        billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";
    let shape = Preset::Extended.paper_setting();
    let mut theta_variants = 0;
    for attr_error_prob in [0.2, 0.5, 0.8] {
        let data = generate_dirty(
            &shape.pair,
            &shape.target,
            100,
            &NoiseConfig { attr_error_prob, seed: 0xF1DE, ..NoiseConfig::default() },
        );
        let engine = EngineBuilder::new()
            .schema_pair(shape.pair.clone())
            .md_text(JW_SEED_RULES)
            .target_ids(shape.target.clone())
            .top_k(5)
            .statistics_from(&data.credit, &data.billing)
            .build()
            .expect("seed rules compile");
        let refinement = refine::refine(engine.plan(), engine.registry(), &labels_for(&data), 1.0)
            .expect("refinement selects a rule set");
        let report = &refinement.report;
        assert!(
            report.after.f1() >= report.before.f1(),
            "refined F1 {:.4} fell below seed F1 {:.4} at error {attr_error_prob}",
            report.after.f1(),
            report.before.f1(),
        );
        theta_variants += report.theta_variants_selected();
    }
    assert!(theta_variants >= 1, "no θ-sweep variant was selected on any rung");
}

/// A served refinement round-trip: a server accumulates labels through
/// its API, refines, hot-swaps, and keeps answering at the bumped
/// version — with the report's quality floor intact.
#[test]
fn server_submit_labels_then_refine_swaps_live() {
    let data = dirty(60, 0xBEEF);
    let server = filled_server(weak_engine(&data, 2), &data);

    let labels = labels_for(&data);
    let pairs: Vec<(Record, Record, bool)> = labels
        .pairs()
        .iter()
        .map(|p| {
            (
                Record::from_values(server.probe_schema(), p.left.values().to_vec()).unwrap(),
                Record::from_values(server.store_schema(), p.right.values().to_vec()).unwrap(),
                p.is_match,
            )
        })
        .collect();
    let summary = server.submit_labels(&pairs).unwrap();
    assert_eq!(summary.added, labels.len());
    assert_eq!(summary.positives, labels.positives());
    // Resubmitting the same batch is idempotent.
    let again = server.submit_labels(&pairs).unwrap();
    assert_eq!(again.added, 0);
    assert_eq!(again.total, labels.len());

    let before_version = server.version().number();
    let (version, report) = server.refine(1.0).unwrap();
    assert_eq!(version.number(), before_version + 1);
    assert!(report.after.f1() >= report.before.f1());
    assert!(!report.selected.is_empty());

    // Still serving, at the new version.
    let probe =
        Record::from_values(server.probe_schema(), data.credit.tuples()[0].values().to_vec())
            .unwrap();
    assert_eq!(server.query(&probe).unwrap().version, version);
}

/// A refine whose selection is the rule set already serving publishes
/// nothing: no rebuild, and neither the version nor the epoch moves.
#[test]
fn second_refine_with_unchanged_labels_publishes_nothing() {
    let data = dirty(60, 0xC0FFEE);
    let server = filled_server(weak_engine(&data, 2), &data);
    let pairs: Vec<(Record, Record, bool)> = (labels_for(&data).pairs().iter())
        .map(|p| (p.left.clone(), p.right.clone(), p.is_match))
        .collect();
    server.submit_labels(&pairs).unwrap();
    let (first, _) = server.refine(1.0).unwrap();
    assert_eq!(first.number(), 2, "the first refine swaps the selection in");
    let epoch = server.epoch();

    let (second, report) = server.refine(1.0).unwrap();
    assert_eq!(second, first, "the reselected rules are the serving version");
    assert_eq!(server.version(), first);
    assert_eq!(server.epoch(), epoch, "nothing was published");
    assert_eq!(report.selected.len(), server.engine().plan().sigma().len());
}

/// A conflicting label rejects its whole batch atomically: nothing from
/// the batch sticks, and the store still refines from the prior state.
#[test]
fn conflicting_label_batch_is_rejected_atomically() {
    let data = dirty(30, 7);
    let server = MatchServer::new(weak_engine(&data, 1));
    let left =
        Record::from_values(server.probe_schema(), data.credit.tuples()[0].values().to_vec())
            .unwrap();
    let right =
        Record::from_values(server.store_schema(), data.billing.tuples()[0].values().to_vec())
            .unwrap();
    server.submit_labels(&[(left.clone(), right.clone(), true)]).unwrap();

    let fresh_left =
        Record::from_values(server.probe_schema(), data.credit.tuples()[1].values().to_vec())
            .unwrap();
    let err = server
        .submit_labels(&[(fresh_left, right.clone(), true), (left, right, false)])
        .unwrap_err();
    assert!(err.to_string().contains("refinement rejected"), "{err}");
    // The conflicting batch left no trace — not even its first item.
    assert_eq!(server.label_summary().total, 1);
}

/// The wire front serves the whole loop: `SubmitLabels` and `Refine`
/// frames from a `MatchClient` drive a zero-downtime refined swap on a
/// live TCP server.
#[test]
fn wire_submit_labels_and_refine_end_to_end() {
    let data = dirty(60, 0xC0FFEE);
    let server = Arc::new(filled_server(weak_engine(&data, 2), &data));
    let handle = serve(server.clone(), "127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(handle.addr()).unwrap();

    // Ship every generated label as positional wire values.
    let to_wire = |values: &[Value]| -> Vec<Option<String>> {
        values.iter().map(|v| v.as_str().map(str::to_owned)).collect()
    };
    let items: Vec<WireLabel> = labels_for(&data)
        .pairs()
        .iter()
        .map(|p| (to_wire(p.left.values()), to_wire(p.right.values()), p.is_match))
        .collect();
    let total = items.len() as u64;
    match client.request(&Request::SubmitLabels { items }).unwrap() {
        Response::SubmitLabels { added, total: held, .. } => {
            assert_eq!(added, total);
            assert_eq!(held, total);
        }
        other => panic!("expected a label summary, got {other:?}"),
    }

    let report = client.refine(1.0).unwrap();
    assert_eq!(report.version, 2, "refine bumps the serving version");
    assert!(
        f64::from_bits(report.after_f1_bits) >= f64::from_bits(report.before_f1_bits),
        "served refinement lost quality"
    );
    assert!(!report.rules.is_empty());

    // The swapped rules serve immediately over the same connection.
    let probe = &data.credit.tuples()[0];
    let answer = client.request(&Request::Query { values: to_wire(probe.values()) }).unwrap();
    match answer {
        Response::Query(q) => assert_eq!(q.version, 2),
        other => panic!("expected a query answer, got {other:?}"),
    }

    // A second refine with no new labels reselects the rules now
    // serving, so it publishes nothing and answers at the same version.
    let second = client.refine(1.0).unwrap();
    assert_eq!(second.version, 2);

    handle.shutdown();
}

/// β is checked once, at refinement's entry: a NaN, zero, negative or
/// infinite β is a typed error from the library, and the server — called
/// directly or through a `Refine` frame — refuses it and publishes
/// nothing.
#[test]
fn invalid_beta_is_rejected_at_every_entry() {
    let data = dirty(30, 7);
    let labels = labels_for(&data);
    let server = Arc::new(filled_server(weak_engine(&data, 1), &data));
    let pairs: Vec<(Record, Record, bool)> =
        labels.pairs().iter().map(|p| (p.left.clone(), p.right.clone(), p.is_match)).collect();
    server.submit_labels(&pairs).unwrap();
    let handle = serve(server.clone(), "127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(handle.addr()).unwrap();
    let engine = server.engine();

    for beta in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let err = refine::refine(engine.plan(), engine.registry(), &labels, beta).unwrap_err();
        assert!(
            matches!(err, RefineError::InvalidBeta(got) if got.to_bits() == beta.to_bits()),
            "beta {beta}: {err}"
        );

        let err = server.refine(beta).unwrap_err();
        assert!(matches!(err, ServiceError::Refinement { .. }), "beta {beta}: {err}");
        assert!(err.to_string().contains("beta"), "{err}");
        assert_eq!(server.version().number(), 1, "beta {beta} moved the version");

        match client.request(&Request::Refine { beta_bits: beta.to_bits() }).unwrap() {
            Response::Error { message } => assert!(message.contains("beta"), "{message}"),
            other => panic!("beta {beta}: expected an error frame, got {other:?}"),
        }
        assert_eq!(server.version().number(), 1, "beta {beta} over the wire moved the version");
    }
    // The same labels refine at a valid β.
    assert_eq!(server.refine(1.0).unwrap().0.number(), 2);
    handle.shutdown();
}

/// The noise-rung test's seed rules: an exact key plus a `≈jw` name key
/// at the registry's tight base threshold, where θ-sweep variants win.
const JW_RULES: &str = "\
    credit[email] = billing[email] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n\
    credit[LN] ~jw billing[LN] /\\ credit[FN] ~jw billing[FN] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

/// 100 persons at one rung of the attribute-error ladder.
fn noise_rung(attr_error_prob: f64) -> DirtyData {
    let shape = Preset::Extended.paper_setting();
    generate_dirty(
        &shape.pair,
        &shape.target,
        100,
        &NoiseConfig { attr_error_prob, seed: 0xF1DE, ..NoiseConfig::default() },
    )
}

fn jw_engine(data: &DirtyData) -> MatchEngine {
    let shape = Preset::Extended.paper_setting();
    EngineBuilder::new()
        .schema_pair(shape.pair)
        .md_text(JW_RULES)
        .target_ids(shape.target)
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("seed rules compile")
}

/// The RHS of a rule identifying the whole target tuple, as rendered.
const WHOLE_TARGET: &str = "credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
                            billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]";

/// The parent's refinement reports on the pinned cases (see
/// [`refine_report_matches_parent`]), one line per case header, selected
/// rule and chosen θ. `<=> (all)` abbreviates the identification of the
/// whole target tuple.
const PARENT_REPORTS: &[&str] = &[
    "seed=0xbeef beta=0.5 pool=30 exhaustive=false before=80/0/28 after=82/0/26",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[county] = billing[county] -> credit[gender] <=> billing[gender] | Discovered { support: 62, confidence: 1.0 }",
    "seed=0xbeef beta=1 pool=30 exhaustive=false before=80/0/28 after=83/1/25",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "  rule credit[zip] = billing[zip] /\\ credit[tel] = billing[phn] -> credit[street] <=> billing[street] | Discovered { support: 63, confidence: 1.0 }",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[county] = billing[county] -> credit[gender] <=> billing[gender] | Discovered { support: 62, confidence: 1.0 }",
    "seed=0xbeef beta=2 pool=30 exhaustive=false before=80/0/28 after=83/1/25",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "  rule credit[zip] = billing[zip] /\\ credit[tel] = billing[phn] -> credit[street] <=> billing[street] | Discovered { support: 63, confidence: 1.0 }",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[county] = billing[county] -> credit[gender] <=> billing[gender] | Discovered { support: 62, confidence: 1.0 }",
    "seed=0x7 beta=0.5 pool=46 exhaustive=false before=74/0/34 after=74/0/34",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "seed=0x7 beta=1 pool=46 exhaustive=false before=74/0/34 after=74/0/34",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "seed=0x7 beta=2 pool=46 exhaustive=false before=74/0/34 after=74/0/34",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[FN] ≈d billing[FN] /\\ credit[LN] ≈d billing[LN] /\\ credit[zip] = billing[zip] -> <=> (all) | Seed",
    "jw error=0.2 beta=1 pool=58 exhaustive=false before=179/0/1 after=180/0/0",
    "  rule credit[FN] ≈jw billing[FN] /\\ credit[LN] ≈jw billing[LN] -> <=> (all) | Seed",
    "  rule credit[state] = billing[state] /\\ credit[email] ≈jw billing[email] -> credit[gender] <=> billing[gender] | Discovered { support: 161, confidence: 0.9503105590062112 }",
    "jw error=0.5 beta=1 pool=46 exhaustive=false before=173/0/7 after=176/0/4",
    "  rule credit[email] = billing[email] -> <=> (all) | Seed",
    "  rule credit[MN] = billing[MN] /\\ credit[tel] = billing[phn] -> credit[city] <=> billing[city] | Discovered { support: 71, confidence: 0.971830985915493 }",
    "  rule credit[FN] ≈jw billing[FN] /\\ credit[LN] ≈jw@0.70 billing[LN] -> <=> (all) | ThetaSweep { base: 1, theta: 0.7 }",
    "  theta credit[LN] ≈jw@0.70 billing[LN] @ 0.7",
    "jw error=0.8 beta=1 pool=26 exhaustive=false before=155/0/25 after=163/0/17",
    "  rule credit[FN] ≈jw@0.85 billing[FN] /\\ credit[LN] ≈jw billing[LN] -> <=> (all) | ThetaSweep { base: 1, theta: 0.85 }",
    "  rule credit[FN] ≈jw billing[FN] /\\ credit[LN] ≈jw@0.70 billing[LN] -> <=> (all) | ThetaSweep { base: 1, theta: 0.7 }",
    "  theta credit[FN] ≈jw@0.85 billing[FN] @ 0.85",
    "  theta credit[LN] ≈jw@0.70 billing[LN] @ 0.7",
];

/// One refinement report rendered as the values the parent pin compares:
/// pool size, regime, before/after confusion counts, each selected rule's
/// text and origin, and the chosen θ per swept atom.
fn report_lines(case: String, report: &RefinementReport) -> Vec<String> {
    let counts = |q: &MatchQuality| {
        format!("{}/{}/{}", q.true_positives, q.false_positives, q.false_negatives)
    };
    let mut lines = vec![format!(
        "{case} pool={} exhaustive={} before={} after={}",
        report.pool_size,
        report.exhaustive,
        counts(&report.before),
        counts(&report.after)
    )];
    for rule in &report.selected {
        let rendered = rule.rendered.replace(WHOLE_TARGET, "<=> (all)");
        lines.push(format!("  rule {rendered} | {:?}", rule.origin));
    }
    for (atom, theta) in &report.chosen_thetas {
        lines.push(format!("  theta {atom} @ {theta}"));
    }
    lines
}

/// Refinement's observable choices are pinned at the values recorded
/// before the refinement module was cut down to one `refine` call: two
/// noise seeds of the weak rule set at β ∈ {0.5, 1, 2}, plus the three
/// `≈jw` noise rungs (the cases where θ-sweep variants win).
#[test]
fn refine_report_matches_parent() {
    let mut got = Vec::new();
    for seed in [0xBEEF, 7] {
        for beta in [0.5, 1.0, 2.0] {
            let report = refine_once(&dirty(60, seed), 1, beta).report;
            got.extend(report_lines(format!("seed={seed:#x} beta={beta}"), &report));
        }
    }
    for attr_error_prob in [0.2, 0.5, 0.8] {
        let data = noise_rung(attr_error_prob);
        let engine = jw_engine(&data);
        let report = refine::refine(engine.plan(), engine.registry(), &labels_for(&data), 1.0)
            .expect("refinement selects a rule set")
            .report;
        got.extend(report_lines(format!("jw error={attr_error_prob} beta=1"), &report));
    }
    assert_eq!(got, PARENT_REPORTS);
}
