//! The ranked-matching contract, end to end:
//!
//! * `query_ranked` returns exactly the boolean `query` hit set — at
//!   every rule version, before and after a hot swap — with calibrated
//!   scores in `[0, 1]`, sorted descending, never NaN (proptest);
//! * scores are **byte-identical** (`f64::to_bits`) across 1/2/8
//!   threads, and every server's ranked answers equal a direct
//!   `MatchIndex` + `ScoreModel` pass over the same records;
//! * `top_k` / `min_score` only truncate and filter (never reorder),
//!   a NaN threshold is a typed error, and a smaller `top_k` serves a
//!   prefix of a larger one;
//! * the one-to-one resolver never assigns a record twice — bipartite
//!   and shared-node variants (proptest over random edge sets);
//! * `dedup_resolved` emits a valid matching: every record in at most
//!   one link, links a subset of the rule-matched pairs.

use matchrules::data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules::data::relation::Tuple;
use matchrules::engine::{
    resolve_one_to_one, resolve_one_to_one_shared, EngineBuilder, ExecConfig, MatchEngine,
    MatchIndex, Preset, ScoredEdge,
};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId, ServiceError};
use proptest::prelude::*;
use std::collections::BTreeSet;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// A genuinely different rule set for the extended pair, so a swap
/// changes the deduced RCKs (and refits the score model).
const SWAPPED_RULES: &str = "\
    credit[email] = billing[email] -> credit[FN,MN,LN] <=> billing[FN,MN,LN]\n\
    credit[tel] = billing[phn] -> \
    credit[street,city,county,state,zip] <=> billing[street,city,county,state,zip]\n\
    credit[zip] = billing[zip] -> credit[city,county,state] <=> billing[city,county,state]\n\
    credit[LN] ~d billing[LN] /\\ credit[tel] = billing[phn] /\\ credit[FN] ~d billing[FN] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

fn dirty(seed: u64, persons: usize) -> DirtyData {
    let shape = Preset::Extended.paper_setting();
    generate_dirty(&shape.pair, &shape.target, persons, &NoiseConfig { seed, ..Default::default() })
}

/// The extended engine with a fitted score model (statistics measured
/// from the generated data, exactly like the bench workload).
fn fitted_engine(data: &DirtyData, threads: usize) -> MatchEngine {
    Preset::Extended
        .builder()
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .threads(threads)
        .build()
        .expect("preset engine builds")
}

fn filled_server(data: &DirtyData, threads: usize) -> MatchServer {
    let server = MatchServer::with_config(
        fitted_engine(data, threads),
        ServerConfig { exec: ExecConfig::fixed(threads), ..ServerConfig::default() },
    );
    let batch: Vec<(RecordId, Record)> = data
        .billing
        .tuples()
        .iter()
        .map(|t| {
            let record = Record::from_values(server.store_schema(), t.values().to_vec()).unwrap();
            (RecordId(t.id()), record)
        })
        .collect();
    server.upsert_batch(&batch).unwrap();
    server
}

fn probe_for(server: &MatchServer, t: &Tuple) -> Record {
    Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap()
}

/// `(id, fired key, score bits)` of every ranked hit, in answer order.
fn ranked_bits(server: &MatchServer, t: &Tuple) -> Vec<(u64, usize, u64)> {
    let ranked = server.query_ranked(&probe_for(server, t), usize::MAX, 0.0).unwrap();
    ranked.hits.iter().map(|h| (h.id.0, h.key, h.score.to_bits())).collect()
}

/// The ranked answer computed without a server: every boolean hit of a
/// directly built `index`, scored by the plan's model, stable-sorted by
/// score descending (ties keep store order).
fn reference_bits(engine: &MatchEngine, index: &MatchIndex, t: &Tuple) -> Vec<(u64, usize, u64)> {
    let model = engine.plan().score_model();
    let mut hits: Vec<(u64, usize, f64)> = (index.query(t).hits.iter())
        .map(|h| {
            let stored = index.get(h.id).expect("query hits are live records");
            (h.id, h.key, model.score(engine.runtime(), t, stored))
        })
        .collect();
    hits.sort_by(|a, b| b.2.total_cmp(&a.2));
    hits.into_iter().map(|(id, key, score)| (id, key, score.to_bits())).collect()
}

/// Asserts the ranked contract for one server at its current rule
/// version: same hit set as boolean, monotone scores in `[0, 1]`, no
/// NaN — and bit for bit the answer of a direct index over its store.
fn assert_ranked_contract(server: &MatchServer, data: &DirtyData) {
    let engine = server.engine();
    let index = engine.index(&server.snapshot()).expect("the store indexes");
    for t in data.credit.tuples() {
        assert_eq!(ranked_bits(server, t), reference_bits(&engine, &index, t));
        let probe = probe_for(server, t);
        let boolean = server.query(&probe).unwrap();
        let ranked = server.query_ranked(&probe, usize::MAX, f64::NEG_INFINITY).unwrap();
        let boolean_ids: BTreeSet<u64> = boolean.hits.iter().map(|h| h.id.0).collect();
        let ranked_ids: BTreeSet<u64> = ranked.hits.iter().map(|h| h.id.0).collect();
        assert_eq!(ranked_ids, boolean_ids, "ranked hit set diverged for probe {}", t.id());
        assert_eq!(ranked.version, boolean.version);
        for pair in ranked.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score, "scores must be sorted descending");
        }
        for h in &ranked.hits {
            assert!(!h.score.is_nan(), "a score must never be NaN");
            assert!((0.0..=1.0).contains(&h.score), "score {} out of [0,1]", h.score);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The ranked hit set equals the boolean hit set at every rule
    /// version — v1, and v2 after a hot swap refits the score model.
    #[test]
    fn ranked_hit_set_equals_boolean_at_every_version(
        seed in 0u64..100_000,
        persons in 8usize..20,
    ) {
        let data = dirty(seed, persons);
        let server = filled_server(&data, 2);
        assert_ranked_contract(&server, &data);
        let v2 = server.swap_rules(SWAPPED_RULES).unwrap();
        prop_assert_eq!(v2.number(), 2);
        assert_ranked_contract(&server, &data);
    }

    /// Scores are byte-identical across 1/2/8 engine and server threads:
    /// every configuration equals, hit for hit and bit for bit, one
    /// serial `MatchIndex` + `ScoreModel` pass over the billing
    /// relation.
    #[test]
    fn scores_identical_across_threads(
        seed in 0u64..100_000,
        persons in 8usize..16,
    ) {
        let data = dirty(seed, persons);
        let engine = fitted_engine(&data, 1);
        let index = engine.index(&data.billing).expect("billing indexes");
        let reference: Vec<Vec<(u64, usize, u64)>> =
            data.credit.tuples().iter().map(|t| reference_bits(&engine, &index, t)).collect();
        for threads in THREAD_SWEEP {
            let server = filled_server(&data, threads);
            for (t, expected) in data.credit.tuples().iter().zip(&reference) {
                let got = ranked_bits(&server, t);
                prop_assert_eq!(&got, expected, "scores diverged at {} threads", threads);
            }
        }
    }

    /// The resolver emits a matching: no record index appears twice —
    /// per side in the bipartite variant, across both sides in the
    /// shared-node (dedup) variant. Selected indices always point into
    /// the input edge list.
    #[test]
    fn resolver_never_assigns_a_record_twice(
        edges in proptest::collection::vec(
            (0usize..12, 0usize..12, 0u32..1000),
            0..40,
        ),
        threshold in 0u32..500,
    ) {
        let edges: Vec<ScoredEdge> = edges
            .into_iter()
            .map(|(l, r, s)| ScoredEdge { left: l, right: r, score: s as f64 / 1000.0 })
            .collect();
        let min_score = threshold as f64 / 1000.0;

        let selected = resolve_one_to_one(&edges, min_score);
        let mut lefts = BTreeSet::new();
        let mut rights = BTreeSet::new();
        for &i in &selected {
            let e = &edges[i];
            prop_assert!(e.score >= min_score);
            prop_assert!(lefts.insert(e.left), "left {} assigned twice", e.left);
            prop_assert!(rights.insert(e.right), "right {} assigned twice", e.right);
        }

        let selected = resolve_one_to_one_shared(&edges, min_score);
        let mut nodes = BTreeSet::new();
        for &i in &selected {
            let e = &edges[i];
            prop_assert!(e.score >= min_score);
            prop_assert!(nodes.insert(e.left), "record {} assigned twice", e.left);
            prop_assert!(nodes.insert(e.right), "record {} assigned twice", e.right);
        }
    }

    /// `dedup_resolved` emits a valid matching over the rule-matched
    /// pairs: links are a subset of the report's pairs, every record is
    /// in at most one link, and every link clears the threshold.
    #[test]
    fn dedup_resolved_is_a_valid_matching(seed in 0u64..100_000, persons in 10usize..40) {
        let data = dirty(seed, persons);
        let shape = Preset::Extended.paper_setting();
        let billing = shape.pair.right().as_ref().clone();
        let engine = EngineBuilder::new()
            .dedup_schema(billing)
            .md_text(
                "billing[phn] = billing[phn] /\\ billing[LN] ~d billing[LN] -> \
                 billing[FN,LN,phn] <=> billing[FN,LN,phn]\n\
                 billing[email] = billing[email] /\\ billing[zip] = billing[zip] -> \
                 billing[FN,LN,phn] <=> billing[FN,LN,phn]\n",
            )
            .target(&["FN", "LN", "phn"], &["FN", "LN", "phn"])
            .build()
            .expect("reflexive billing engine builds");
        let resolved = engine.dedup_resolved(&data.billing, 0.0).expect("dedup resolves");
        let matched: BTreeSet<(usize, usize)> =
            resolved.report.pairs().iter().map(|p| (p.left, p.right)).collect();
        let mut seen = BTreeSet::new();
        for link in &resolved.links {
            prop_assert!(
                matched.contains(&(link.left, link.right)),
                "link ({}, {}) is not a rule-matched pair", link.left, link.right
            );
            prop_assert!(!link.score.is_nan());
            prop_assert!(seen.insert(link.left), "record {} linked twice", link.left);
            prop_assert!(seen.insert(link.right), "record {} linked twice", link.right);
        }
        // The boolean dedup finds the same pairs; resolution only selects.
        let plain = engine.dedup(&data.billing).expect("plain dedup");
        let plain_pairs: BTreeSet<(usize, usize)> =
            plain.report.pairs().iter().map(|p| (p.left, p.right)).collect();
        prop_assert_eq!(matched, plain_pairs);
    }
}

/// `top_k` truncates the ranked order (prefix property), `min_score`
/// filters it, and a NaN threshold is a typed error.
#[test]
fn top_k_truncates_and_nan_threshold_is_an_error() {
    let data = dirty(7, 12);
    let server = filled_server(&data, 2);
    let mut exercised = false;
    for t in data.credit.tuples() {
        let probe = probe_for(&server, t);
        let full = server.query_ranked(&probe, usize::MAX, 0.0).unwrap();
        let one = server.query_ranked(&probe, 1, 0.0).unwrap();
        assert_eq!(one.hits.as_slice(), &full.hits[..full.hits.len().min(1)]);
        if full.hits.len() > 1 {
            exercised = true;
            // A threshold above the best score empties the answer.
            let strict = server.query_ranked(&probe, usize::MAX, 1.1).unwrap();
            assert!(strict.hits.is_empty());
            // The smaller request serves a prefix of the larger
            // answer.
            let wide = server.query_ranked(&probe, 8, 0.0).unwrap();
            let narrow = server.query_ranked(&probe, 5, 0.0).unwrap();
            assert_eq!(narrow.hits.as_slice(), &wide.hits[..wide.hits.len().min(5)]);
        }
        assert!(matches!(
            server.query_ranked(&probe, 5, f64::NAN),
            Err(ServiceError::InvalidThreshold)
        ));
    }
    assert!(exercised, "at least one probe should have multiple hits");
}

/// `resolve_links` on a cross-relation report emits a one-to-one
/// matching over the rule-matched pairs, and that matching is at least
/// as precise as closing the same pairs transitively into clusters — on
/// every rung of the noise ladder.
#[test]
fn one_to_one_links_are_a_matching_at_least_as_precise_as_closure() {
    use matchrules::data::unionfind::UnionFind;
    use matchrules::matcher::metrics::evaluate_pairs;

    let shape = Preset::Extended.paper_setting();
    for attr_error_prob in [0.2, 0.5, 0.8] {
        let data = generate_dirty(
            &shape.pair,
            &shape.target,
            150,
            &NoiseConfig { attr_error_prob, seed: 0xACE5, ..Default::default() },
        );
        let engine = fitted_engine(&data, 2);
        let report = engine.match_pairs_indexed(&data.credit, &data.billing).expect("indexed run");
        let matched = report.index_pairs();
        let links =
            engine.resolve_links(&data.credit, &data.billing, &report, 0.0).expect("links resolve");
        let (mut lefts, mut rights) = (BTreeSet::new(), BTreeSet::new());
        for link in &links {
            assert!(matched.contains(&(link.left, link.right)), "a link must be a matched pair");
            assert!(lefts.insert(link.left), "credit row {} linked twice", link.left);
            assert!(rights.insert(link.right), "billing row {} linked twice", link.right);
        }

        // The closure baseline: every cross pair of every cluster the
        // matched pairs connect.
        let n_left = data.credit.len();
        let mut clusters = UnionFind::new(n_left + data.billing.len());
        for &(l, r) in &matched {
            clusters.union(l, n_left + r);
        }
        let mut closure = Vec::new();
        for cluster in clusters.groups() {
            let split = cluster.partition_point(|&x| x < n_left);
            for &l in &cluster[..split] {
                closure.extend(cluster[split..].iter().map(|&r| (l, r - n_left)));
            }
        }
        let one_to_one: Vec<(usize, usize)> = links.iter().map(|l| (l.left, l.right)).collect();
        let (one_q, closure_q) =
            (evaluate_pairs(&one_to_one, &data.truth), evaluate_pairs(&closure, &data.truth));
        assert!(!links.is_empty() && closure.len() >= matched.len());
        assert!(
            one_q.precision() >= closure_q.precision() - 1e-9,
            "one-to-one precision {:.4} fell below closure {:.4} at error {attr_error_prob}",
            one_q.precision(),
            closure_q.precision(),
        );
    }
}

/// The ranked path round-trips over TCP: `MatchClient::query_ranked`
/// returns the server's answer bit-exactly (ids, fired keys, score
/// bits, counters, version), and a NaN threshold comes back as a typed
/// server error without poisoning the connection.
#[test]
fn ranked_round_trips_over_tcp() {
    use matchrules::server::net::serve;
    use matchrules::server::{ClientError, MatchClient};
    use std::sync::Arc;

    let data = dirty(0xD00D, 60);
    let server = Arc::new(filled_server(&data, 1));
    let handle = serve(server.clone(), "127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(handle.addr()).unwrap();

    let attrs: Vec<String> = client.probe_schema().attributes.clone();
    let mut exercised = 0usize;
    for t in data.credit.tuples().iter().take(40) {
        let fields: Vec<(&str, &str)> = attrs
            .iter()
            .zip(t.values())
            .filter_map(|(a, v)| v.as_str().map(|v| (a.as_str(), v)))
            .collect();
        let wire = client.query_ranked(&fields, 3, 0.0).unwrap();
        let probe = Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap();
        let direct = server.query_ranked(&probe, 3, 0.0).unwrap();
        assert_eq!(wire.version, direct.version.number());
        assert_eq!(wire.candidates, direct.candidates as u64);
        assert_eq!(wire.key_evals, direct.key_evals as u64);
        assert_eq!(wire.hits.len(), direct.hits.len());
        for (w, d) in wire.hits.iter().zip(&direct.hits) {
            assert_eq!(w.id, d.id.0);
            assert_eq!(w.key as usize, d.key);
            assert_eq!(w.score_bits, d.score.to_bits(), "scores travel bit-exact");
        }
        exercised += wire.hits.len();
    }
    assert!(exercised > 0, "some probes should rank hits over the wire");

    // A NaN threshold is a typed server error, not a dead connection.
    let t = &data.credit.tuples()[0];
    let fields: Vec<(&str, &str)> = attrs
        .iter()
        .zip(t.values())
        .filter_map(|(a, v)| v.as_str().map(|v| (a.as_str(), v)))
        .collect();
    let err = client.query_ranked(&fields, 3, f64::NAN).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    assert!(client.query_ranked(&fields, 3, 0.0).is_ok());
    handle.shutdown();
}
