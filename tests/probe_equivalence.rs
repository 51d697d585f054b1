//! The differential harness pinning the probe hot path:
//!
//! * **compressed == reference** — `MatchIndex::query` (per-probe plan,
//!   compressed postings, galloping intersection, per-entry prefilters,
//!   provenance pruning) returns exactly the hits of `query_reference`
//!   (brute-force verification of every live tuple) on every probe, at
//!   1, 2 and 8 build threads, on a catalog where every branch of the
//!   plan runs;
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

use matchrules::core::dependency::SimilarityAtom;
use matchrules::core::operators::OperatorTable;
use matchrules::core::relative_key::RelativeKey;
use matchrules::core::schema::Schema;
use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::eval::{paper_registry, RuntimeOps};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::Value;
use matchrules::engine::{
    EngineBuilder, ExecConfig, FilterStats, MatchEngine, MatchIndex, Preset, QueryOutcome,
};
use matchrules::matcher::postings::{PostingList, BLOCK_LEN};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId};
use matchrules::simdist::filters::{QgramSig, FILTER_Q};
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
    let (engine, credit, billing) = catalog(PLAN_CATALOG_PERSONS, 42);
    let reference = engine.index(&billing).expect("index builds");
    let expected: Vec<Vec<(u64, usize)>> =
        credit.tuples().iter().map(|p| hit_ids(&reference.query_reference(p))).collect();
    assert!(expected.iter().any(|h| !h.is_empty()), "the catalog must exercise a match");
    let mut work = FilterStats::default();
    for threads in THREAD_SWEEP {
        let index = engine.with_exec(ExecConfig::fixed(threads)).index(&billing).expect("builds");
        for (probe, expected) in credit.tuples().iter().zip(&expected) {
            let fast = index.query(probe);
            assert_eq!(
                &hit_ids(&fast),
                expected,
                "compressed probe diverged from the brute-force reference at {threads} threads"
            );
            assert_eq!(hit_ids(&fast), hit_ids(&index.query_unpruned(probe)));
            work.merge(&fast.stats);
        }
    }
    assert!(work.blocks_skipped > 0, "no membership cursor skipped a block: {work:?}");
    assert!(work.gallop_steps > 0, "no atom was materialized and galloped against: {work:?}");
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
    let key = RelativeKey::new(vec![SimilarityAtom::new(0, 0, d), SimilarityAtom::new(1, 1, d)]);
    let index = MatchIndex::build(2, &rel, &[key], &[], ops).expect("index builds");

    let probe = Tuple::new(9_999, rel.tuples()[999].values().to_vec());
    let outcome = index.query(&probe);
    assert_eq!(hit_ids(&outcome), hit_ids(&index.query_reference(&probe)));
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
