//! The differential harness pinning the probe hot path:
//!
//! * **every path == the oracle** — `match_all`, `match_pairs_indexed`,
//!   `MatchIndex::query`, `query_batch` and `MatchServer::query` answer
//!   exactly like the nested-loop [`common::Oracle`] (uncompiled
//!   evaluation of every pair) on an Extended catalog and on the names
//!   plan, and provenance pruning only ever skips key evaluations the
//!   oracle's unpruned count would have spent;
//! * **compressed == exhaustive** — `MatchIndex::query` (per-probe plan,
//!   compressed postings, galloping intersection, per-entry prefilters,
//!   provenance pruning) returns exactly the pairs `match_all` (the
//!   compiled verifier on every pair) reports for each probe, at 1, 2 and
//!   8 build threads, on a catalog where every branch of the plan runs;
//! * **pinned work** — the verifier's filter counters on the probe and
//!   batch paths stay at their pinned values;
//! * **cheapest anchor first** — decoding work is bounded by the atom
//!   with the smallest posting volume, whatever the atom order;
//! * **batched == sequential** — `query_batch` is byte-for-byte
//!   identical (hits, candidates, every work counter) to one-by-one
//!   `query` calls;
//! * **server** — `MatchServer::query_batch` agrees response-for-response
//!   with per-probe `query`, and both with the batch path;
//! * **tombstone hygiene** — block-level purging keeps a half-removed
//!   index probing within 1.5x of a freshly built one (by deterministic
//!   work counters), and posting-list block invariants survive
//!   insert → remove → insert churn.

mod common;

use common::Oracle;
use matchrules::core::dependency::SimilarityAtom;
use matchrules::core::operators::OperatorTable;
use matchrules::core::paper;
use matchrules::core::relative_key::RelativeKey;
use matchrules::core::schema::Schema;
use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::eval::{paper_registry, RuntimeOps};
use matchrules::data::fig1;
use matchrules::data::relation::{InstancePair, Relation, Tuple};
use matchrules::data::Value;
use matchrules::engine::{
    EngineBuilder, ExecConfig, FilterStats, MatchEngine, MatchIndex, MatchReport, Preset,
    QueryOutcome,
};
use matchrules::matcher::postings::{PostingList, BLOCK_LEN};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId};
use matchrules::simdist::filters::{QgramSig, FILTER_Q};
use matchrules::simdist::ops::{EqualityOp, SynonymOp};
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Persons behind the compressed == reference catalog (1.8 stored
/// records each).
const PLAN_CATALOG_PERSONS: usize = 1000;

/// The Extended-preset synthetic catalog: equality, edit and derived
/// anchors, nulls and near-misses included.
fn catalog(persons: usize, seed: u64) -> (MatchEngine, Relation, Relation) {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        persons,
        &NoiseConfig { seed, ..Default::default() },
    );
    let engine = Preset::Extended
        .builder()
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("preset engine builds");
    (engine, data.credit, data.billing)
}

/// A names plan over the serving-shaped anchors (jaro-winkler and token
/// element postings, soundex and phone key buckets).
fn names_engine() -> MatchEngine {
    let a = Schema::text("a", &["first", "last", "city", "phone"]).expect("schema a");
    let b = Schema::text("b", &["first", "last", "city", "phone"]).expect("schema b");
    EngineBuilder::new()
        .schemas(a, b)
        .md_text(
            "a[first] ~jw b[first] /\\ a[last] ~sx b[last] /\\ a[city] ~tok b[city] \
             -> a[first,last] <=> b[first,last]\n\
             a[phone] = b[phone] /\\ a[last] ~sx b[last] -> a[last,phone] <=> b[last,phone]\n",
        )
        .target(&["first", "last", "city", "phone"], &["first", "last", "city", "phone"])
        .build()
        .expect("names engine builds")
}

fn names_rows() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        ("robert", "smith", "new york", "555-0001"),
        ("roberta", "smyth", "york new", "555-0001"),
        ("bob", "smith", "boston", "555-0002"),
        ("umberto", "schmidt", "new york city", "555-0003"),
        ("robert", "smit", "new york", "555-0004"),
        ("roberto", "smith", "new  york", "555-0001"),
        ("", "", "", ""),
        ("rupert", "smeeth", "newyork", "555-0005"),
    ]
}

fn names_relation(schema: &Arc<Schema>, rows: &[(&str, &str, &str, &str)]) -> Relation {
    let mut rel = Relation::new(schema.clone());
    for (i, (f, l, c, p)) in rows.iter().enumerate() {
        rel.push(Tuple::new(
            i as u64 + 1,
            vec![Value::str(f), Value::str(l), Value::str(c), Value::str(p)],
        ));
    }
    rel
}

fn hit_ids(outcome: &QueryOutcome) -> Vec<(u64, usize)> {
    outcome.hits.iter().map(|h| (h.id, h.key)).collect()
}

/// The deterministic work-counter total of one outcome — what the
/// tombstone budget below is measured in (no wall clocks in tests).
fn work_of(outcome: &QueryOutcome) -> u64 {
    outcome.candidates as u64
        + outcome.stats.blocks_decoded
        + outcome.stats.blocks_skipped
        + outcome.stats.gallop_steps
        + outcome.stats.linear_steps
        + outcome.stats.retrieval_rejects
}

#[test]
fn probe_compressed_equals_brute_force_reference_at_every_thread_count() {
    // Large enough that common grams seal posting blocks, so the plan's
    // branches all run: folds that stop at an atom too large for the
    // running bitmap, membership cursors, and materialize-and-gallop.
    // The reference is the exhaustive batch run (the compiled verifier
    // on all 1.8M pairs; the uncompiled oracle would be too slow here).
    let (engine, credit, billing) = catalog(PLAN_CATALOG_PERSONS, 42);
    let exhaustive = engine.match_all(&credit, &billing).expect("exhaustive run");
    let mut expected: Vec<Vec<(u64, usize)>> = vec![Vec::new(); credit.len()];
    for pair in exhaustive.pairs() {
        expected[pair.left].push((pair.right_id, pair.key));
    }
    assert!(expected.iter().any(|h| !h.is_empty()), "the catalog must exercise a match");
    let mut work = FilterStats::default();
    for threads in THREAD_SWEEP {
        let index = engine.with_exec(ExecConfig::fixed(threads)).index(&billing).expect("builds");
        for (probe, expected) in credit.tuples().iter().zip(&expected) {
            let fast = index.query(probe);
            assert_eq!(
                &hit_ids(&fast),
                expected,
                "compressed probe diverged from the exhaustive run at {threads} threads"
            );
            work.merge(&fast.stats);
        }
    }
    assert!(work.blocks_skipped > 0, "no membership cursor skipped a block: {work:?}");
    assert!(work.gallop_steps > 0, "no atom was materialized and galloped against: {work:?}");
}

/// The verification counters of `MatchIndex::query` summed over a fixed
/// Extended probe sample, pinned at the values the index produced when
/// it still kept a signature row per stored record. Verification now
/// extracts a candidate's signatures on demand; it must run the same
/// filters on the same signatures, so every stage counts exactly what it
/// counted then. (A verifier that silently fell back to uncached
/// evaluation would answer alike but zero these counters.)
#[test]
fn probe_verify_counters_match_parent() {
    let (engine, credit, billing) = catalog(PLAN_CATALOG_PERSONS, 42);
    let index = engine.index(&billing).expect("index builds");
    let mut stats = FilterStats::default();
    let mut key_evals = 0u64;
    for probe in credit.tuples() {
        let outcome = index.query(probe);
        stats.merge(&outcome.stats);
        key_evals += outcome.key_evals as u64;
    }
    let totals = [
        ("equal_fast", stats.equal_fast),
        ("length_rejects", stats.length_rejects),
        ("bag_rejects", stats.bag_rejects),
        ("qgram_rejects", stats.qgram_rejects),
        ("dp_runs", stats.dp_runs),
        ("key_evals", key_evals),
    ];
    let pinned = [
        ("equal_fast", 313),
        ("length_rejects", 0),
        ("bag_rejects", 2),
        ("qgram_rejects", 3),
        ("dp_runs", 890),
        ("key_evals", 1395),
    ];
    assert_eq!(totals, pinned, "verification ran different filter stages");
}

/// The batch twin of `probe_verify_counters_match_parent`: the filter
/// counters and matched-pair counts of the windowed and the indexed batch
/// run over the same catalog, pinned at the values the batch verifier
/// produced before the index and the batch path shared one. Verifying on
/// the same cached signatures, every stage must count exactly what it
/// counted then; a verifier that fell back to uncached evaluation would
/// answer alike but zero these counters.
#[test]
fn batch_verify_counters_match_parent() {
    let (engine, credit, billing) = catalog(PLAN_CATALOG_PERSONS, 42);
    let windowed = engine.match_pairs(&credit, &billing).expect("windowed run");
    let indexed = engine.match_pairs_indexed(&credit, &billing).expect("indexed run");
    let mut stats = windowed.filter_stats();
    stats.merge(&indexed.filter_stats());
    let totals = [
        ("equal_fast", stats.equal_fast),
        ("length_rejects", stats.length_rejects),
        ("bag_rejects", stats.bag_rejects),
        ("qgram_rejects", stats.qgram_rejects),
        ("dp_runs", stats.dp_runs),
        ("windowed_pairs", windowed.len() as u64),
        ("indexed_pairs", indexed.len() as u64),
    ];
    let pinned = [
        ("equal_fast", 9582),
        ("length_rejects", 17218),
        ("bag_rejects", 23918),
        ("qgram_rejects", 128),
        ("dp_runs", 5688),
        ("windowed_pairs", 1338),
        ("indexed_pairs", 1390),
    ];
    assert_eq!(totals, pinned, "batch verification ran different filter stages");
}

/// Checks every matching path against the oracle: the exhaustive and the
/// indexed batch runs, single and batched index queries, and a server
/// holding `store` as records.
fn assert_every_path_equals_the_oracle(engine: MatchEngine, probes: &Relation, store: &Relation) {
    let oracle = Oracle::of(&engine);
    let expected = oracle.match_all(probes, store);
    assert!(!expected.is_empty(), "the instance must exercise a match");
    let positions = |report: &MatchReport| -> Vec<(usize, usize, usize)> {
        report.pairs().iter().map(|p| (p.left, p.right, p.key)).collect()
    };
    let exhaustive = engine.match_all(probes, store).expect("exhaustive run");
    assert_eq!(positions(&exhaustive), expected, "match_all diverged from the oracle");
    let indexed = engine.match_pairs_indexed(probes, store).expect("indexed run");
    assert_eq!(positions(&indexed), expected, "match_pairs_indexed diverged from the oracle");

    let hits: Vec<Vec<(u64, usize)>> =
        probes.tuples().iter().map(|probe| oracle.query(probe, store.tuples())).collect();
    let index = engine.index(store).expect("index builds");
    let batched = index.query_batch(probes.tuples());
    for ((probe, from_batch), want) in probes.tuples().iter().zip(&batched).zip(&hits) {
        assert_eq!(&hit_ids(&index.query(probe)), want, "query of probe #{}", probe.id());
        assert_eq!(&hit_ids(from_batch), want, "query_batch of probe #{}", probe.id());
    }

    let server = MatchServer::with_config(
        engine,
        ServerConfig { exec: ExecConfig::fixed(2), ..ServerConfig::default() },
    );
    let items: Vec<_> = (store.tuples().iter())
        .map(|t| {
            let record = Record::from_values(server.store_schema(), t.values().to_vec());
            (RecordId(t.id()), record.expect("store record"))
        })
        .collect();
    server.upsert_batch(&items).expect("upsert batch");
    for (probe, want) in probes.tuples().iter().zip(hits) {
        let record = Record::from_values(server.probe_schema(), probe.values().to_vec());
        let served = server.query(&record.expect("probe record")).expect("served query");
        let mut got: Vec<(u64, usize)> = served.hits.iter().map(|h| (h.id.0, h.key)).collect();
        let mut want = want;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "served query of probe #{}", probe.id());
    }
}

#[test]
fn probe_every_path_equals_the_oracle_on_extended() {
    let (engine, credit, billing) = catalog(150, 42);
    assert_every_path_equals_the_oracle(engine, &credit, &billing);
}

#[test]
fn probe_every_path_equals_the_oracle_on_the_names_plan() {
    let engine = names_engine();
    let store = names_relation(&engine.plan().pair().right().clone(), &names_rows());
    let probes = names_relation(&engine.plan().pair().left().clone(), &names_rows());
    assert_every_path_equals_the_oracle(engine, &probes, &store);
}

fn fig1_index() -> (InstancePair, Vec<RelativeKey>, Arc<RuntimeOps>, MatchIndex) {
    let (setting, inst) = fig1::setting_and_instance();
    let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).expect("resolves"));
    let rcks = paper::example_2_4_rcks(&setting);
    let index =
        MatchIndex::build(setting.pair.left().arity(), inst.right(), &rcks, &[], ops.clone())
            .expect("index builds");
    (inst, rcks, ops, index)
}

#[test]
fn provenance_pruning_is_byte_identical_and_cheaper() {
    let (inst, rcks, ops, index) = fig1_index();
    let oracle = Oracle::new(&rcks, &[], &ops);
    let mut pruned_evals = 0usize;
    let mut full_evals = 0usize;
    for probe in inst.left().tuples() {
        let pruned = index.query(probe);
        assert_eq!(hit_ids(&pruned), oracle.query(probe, inst.right().tuples()));
        let candidates = index.candidates_for(probe);
        assert_eq!(pruned.candidates, candidates.len());
        let full = oracle
            .unpruned_key_evals(probe, candidates.iter().map(|&slot| &inst.right().tuples()[slot]));
        assert!(pruned.key_evals <= full, "probe #{}", probe.id());
        pruned_evals += pruned.key_evals;
        full_evals += full;
    }
    assert!(
        pruned_evals < full_evals,
        "pruning must skip some key evaluations ({pruned_evals} vs {full_evals})"
    );
}

#[test]
fn scan_fallback_disables_pruning() {
    // Key 0 is indexable, key 1 declares Scan (a synonym table with a
    // fallback): every live slot must still be verified against *both*
    // keys — a hit through the scan key must not be lost to pruning.
    let schema = Arc::new(Schema::text("R", &["name", "alias"]).expect("schema"));
    let mut rel = Relation::new(schema);
    rel.push_strs(1, &["Jones", "JJ"]);
    rel.push_strs(2, &["Smith", "Slim"]);
    let mut registry = paper_registry();
    registry.register(Arc::new(
        SynonymOp::from_groups("≈opaque", Vec::<Vec<&str>>::new())
            .with_fallback(Arc::new(EqualityOp)),
    ));
    let mut table = OperatorTable::new();
    let eq = table.intern("=");
    let op = table.intern("≈opaque");
    let ops = Arc::new(RuntimeOps::resolve(&table, &registry).expect("resolves"));
    let keys = vec![
        RelativeKey::new(vec![SimilarityAtom::new(0, 0, eq)]),
        RelativeKey::new(vec![SimilarityAtom::new(1, 1, op)]),
    ];
    let index = MatchIndex::build(2, &rel, &keys, &[], ops.clone()).expect("index builds");
    assert_eq!(index.stats().scan_keys, 1);
    // "Slim" matches only via the opaque alias key; the name key's exact
    // bucket never retrieves slot 1.
    let probe = Tuple::new(9, vec![Value::str("nobody"), Value::str("Slim")]);
    let outcome = index.query(&probe);
    let oracle = Oracle::new(&keys, &[], &ops);
    assert_eq!(hit_ids(&outcome), vec![(2, 1)]);
    assert_eq!(hit_ids(&outcome), oracle.query(&probe, rel.tuples()));
    assert_eq!(outcome.key_evals, oracle.unpruned_key_evals(&probe, rel.tuples()));
}

#[test]
fn probe_decoding_is_bounded_by_the_cheapest_atom() {
    // Key `street ≈d ∧ name ≈d`, street interned first. Every street
    // ends in " Street", " Avenue" or " Road", so the probe's suffix
    // grams each hold a third of the store and seal as delta blocks;
    // names are distinct, so their grams are rare.
    const ROWS: u64 = 1536;
    let schema = Arc::new(Schema::text("R", &["street", "name"]).expect("schema"));
    let mut rel = Relation::new(schema);
    for i in 0..ROWS {
        let suffix = ["Street", "Avenue", "Road"][(i % 3) as usize];
        let street = format!("{} {suffix}", letters(i ^ 0x5157, 6));
        rel.push(Tuple::new(i + 1, vec![Value::str(&street), Value::str(letters(i, 7))]));
    }
    let mut table = OperatorTable::new();
    let d = table.intern("≈d");
    let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).expect("≈d resolves"));
    let keys = [RelativeKey::new(vec![SimilarityAtom::new(0, 0, d), SimilarityAtom::new(1, 1, d)])];
    let index = MatchIndex::build(2, &rel, &keys, &[], ops.clone()).expect("index builds");

    let probe = Tuple::new(9_999, rel.tuples()[999].values().to_vec());
    let outcome = index.query(&probe);
    assert_eq!(hit_ids(&outcome), Oracle::new(&keys, &[], &ops).query(&probe, rel.tuples()));
    assert!(!outcome.hits.is_empty(), "the probe copies a stored row");

    // Sealed blocks on the posting lists of the probe's name grams.
    let grams = |s: &str| -> HashSet<u64> {
        let chars: Vec<char> = s.chars().collect();
        QgramSig::of_chars(&chars, FILTER_Q).distinct_hashes().collect()
    };
    let probe_grams = grams(probe.get(1).as_str().expect("name"));
    let name_blocks: usize = probe_grams
        .iter()
        .map(|g| {
            let on_list = rel
                .tuples()
                .iter()
                .filter(|t| grams(t.get(1).as_str().expect("name")).contains(g))
                .count();
            on_list / BLOCK_LEN
        })
        .sum();
    assert!(
        outcome.stats.blocks_decoded <= name_blocks as u64,
        "decoded {} blocks; the name lists hold {name_blocks}",
        outcome.stats.blocks_decoded
    );
}

/// `len` lowercase letters drawn from a splitmix64 stream seeded by `i`.
fn letters(i: u64, len: usize) -> String {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            char::from(b'a' + ((z ^ (z >> 31)) % 26) as u8)
        })
        .collect()
}

#[test]
fn probe_batched_equals_sequential_byte_for_byte() {
    let (engine, credit, billing) = catalog(70, 7);
    let index = engine.index(&billing).expect("index builds");
    let probes: Vec<Tuple> = credit.tuples().to_vec();
    let sequential: Vec<QueryOutcome> = probes.iter().map(|p| index.query(p)).collect();

    // One shared-prep batch: identical outcomes, counters included.
    assert_eq!(index.query_batch(&probes), sequential, "batched != sequential");
}

#[test]
fn probe_server_batches_agree_with_sequential_queries() {
    let engine = names_engine();
    let store_rows = names_relation(&engine.plan().pair().right().clone(), &names_rows());
    let probe_rows = names_relation(&engine.plan().pair().left().clone(), &names_rows());
    let server = MatchServer::with_config(
        engine,
        ServerConfig { exec: ExecConfig::fixed(2), ..ServerConfig::default() },
    );
    let items: Vec<_> = store_rows
        .tuples()
        .iter()
        .map(|t| {
            let record = Record::from_values(server.store_schema(), t.values().to_vec())
                .expect("store record");
            (RecordId(t.id()), record)
        })
        .collect();
    server.upsert_batch(&items).expect("upsert batch");
    let probes: Vec<Record> = (probe_rows.tuples().iter())
        .map(|t| {
            Record::from_values(server.probe_schema(), t.values().to_vec()).expect("probe record")
        })
        .collect();

    // Batch first, then singles — every response must agree exactly, and
    // the hits must be the batch path's over the server's snapshot.
    let batched = server.query_batch(&probes).expect("batch query");
    let report =
        server.engine().match_pairs_indexed(&probe_rows, &server.snapshot()).expect("batch run");
    for (l, (probe, from_batch)) in probes.iter().zip(&batched).enumerate() {
        let single = server.query(probe).expect("single query");
        assert_eq!(&single, from_batch, "batched response diverged for probe {l}");
        let hits: Vec<(u64, usize)> = single.hits.iter().map(|h| (h.id.0, h.key)).collect();
        let expected: Vec<(u64, usize)> =
            report.pairs().iter().filter(|p| p.left == l).map(|p| (p.right_id, p.key)).collect();
        assert_eq!(hits, expected, "probe {l} diverged from the batch path");
        assert_eq!(single.version, server.version());
    }
    assert_eq!(server.stats().batch_queries, 1);
    assert!(
        batched.iter().any(|r| !r.hits.is_empty()),
        "the names instance must exercise at least one match"
    );
}

#[test]
fn probe_half_removed_index_within_budget_of_fresh() {
    let (engine, credit, billing) = catalog(120, 99);
    let mut churned = engine.index(&billing).expect("index builds");
    // Tombstone every other stored tuple — worst-case fragmentation for
    // posting blocks.
    let victims: Vec<u64> = billing
        .tuples()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, t)| t.id())
        .collect();
    for id in &victims {
        churned.remove(*id).expect("remove");
    }
    // A fresh index over the surviving tuples is the budget's baseline.
    let fresh = engine.index(&churned.live_relation()).expect("fresh rebuild");

    let mut churned_work = 0u64;
    let mut fresh_work = 0u64;
    for probe in credit.tuples() {
        let a = churned.query(probe);
        let b = fresh.query(probe);
        assert_eq!(hit_ids(&a), hit_ids(&b), "churned and fresh indices must answer alike");
        churned_work += work_of(&a);
        fresh_work += work_of(&b);
    }
    assert!(
        churned_work as f64 <= fresh_work as f64 * 1.5 + 64.0,
        "half-removed index works too hard: {churned_work} vs fresh {fresh_work}"
    );

    // Compression must actually be on for this to mean anything.
    let stats = churned.stats();
    assert!(stats.postings_bytes > 0);
    assert!(stats.postings_bytes <= stats.postings_uncompressed_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Posting-list block invariants survive arbitrary
    /// insert → remove → insert churn: every sealed block stays
    /// internally consistent (checked by `check_invariants`), decoded
    /// contents stay sorted and unique, every never-removed slot
    /// remains present, and a galloping cursor still finds exactly the
    /// decoded entries.
    #[test]
    fn probe_posting_blocks_survive_insert_remove_insert(
        first_draws in collection::vec(0u32..4000, 1..600),
        removed_picks in collection::vec(0u64..1_000_000, 0..300),
        second_draws in collection::vec(4000u32..8000, 0..300),
    ) {
        let dedup_sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let first: Vec<u32> = dedup_sorted(first_draws);
        let second: Vec<u32> = dedup_sorted(second_draws);

        let mut list = PostingList::default();
        for &slot in &first {
            list.push(slot);
        }
        list.check_invariants();

        // Remove a subset (tombstones + threshold-triggered rewrites).
        let mut alive = vec![true; 8000];
        let mut removed = std::collections::BTreeSet::new();
        for pick in &removed_picks {
            let slot = first[(*pick as usize) % first.len()];
            if removed.insert(slot) {
                alive[slot as usize] = false;
                list.note_removed(slot, &alive);
                list.check_invariants();
            }
        }

        // Insert again: strictly larger slots (slots are never reused).
        for &slot in &second {
            list.push(slot);
        }
        list.check_invariants();

        let mut decoded = Vec::new();
        list.decode_all_into(&mut decoded);
        let mut sorted = decoded.clone();
        sorted.dedup();
        prop_assert_eq!(&sorted, &decoded, "decoded entries must be sorted and unique");
        prop_assert!(decoded.windows(2).all(|w| w[0] < w[1]));

        // Every surviving slot is still present; nothing foreign crept in.
        for &slot in first.iter().chain(second.iter()) {
            if !removed.contains(&slot) {
                prop_assert!(decoded.binary_search(&slot).is_ok(), "slot {} vanished", slot);
            }
        }
        for &slot in &decoded {
            prop_assert!(
                first.contains(&slot) || second.contains(&slot),
                "slot {} appeared from nowhere", slot
            );
        }

        // A cursor galloping over the blocks agrees with the decode.
        let mut cursor = list.cursor();
        for &slot in &decoded {
            prop_assert_eq!(cursor.advance_to(slot), Some(slot));
        }
    }
}
