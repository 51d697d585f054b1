//! The MatchIndex contract, end to end through the engine:
//!
//! * `match_pairs_indexed` finds exactly the pairs the sorted-neighborhood
//!   path finds on the paper presets (same `MatchedPair`s — ids, key
//!   provenance and all — once both are put in `(left, right)` order,
//!   which is the indexed path's native order);
//! * `MatchIndex::query` after `insert` of tuple *t* returns exactly the
//!   pairs the batch path reports for *t*, and `remove` then `query`
//!   never returns the removed id — at 1, 2 and 8 threads (the
//!   determinism harness of `parallel_determinism.rs`, pointed at the
//!   index).

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::fig1;
use matchrules::data::relation::{Relation, Tuple};
use matchrules::engine::{ExecConfig, MatchedPair, Preset};
use proptest::prelude::*;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Sorts a report's pairs into the indexed path's native order.
fn by_position(mut pairs: Vec<MatchedPair>) -> Vec<MatchedPair> {
    pairs.sort_by_key(|p| (p.left, p.right));
    pairs
}

#[test]
fn indexed_matches_equal_windowed_matches_on_example11() {
    let engine = Preset::Example11.builder().build().expect("preset engine builds");
    let inst = fig1::instance_for_pair(engine.plan().pair());
    let windowed = engine.match_pairs(inst.left(), inst.right()).expect("windowed run");
    let indexed = engine.match_pairs_indexed(inst.left(), inst.right()).expect("indexed run");
    assert_eq!(
        indexed.pairs().to_vec(),
        by_position(windowed.pairs().to_vec()),
        "indexed and windowed matches must be identical on Fig. 1"
    );
    assert!(!indexed.is_empty());
    // The indexed path reports its own stages: the probe stage both
    // retrieves and verifies.
    let names: Vec<&str> = indexed.stages().iter().map(|s| s.name).collect();
    assert_eq!(names, vec!["index", "probe"]);
}

#[test]
fn indexed_matches_equal_windowed_matches_on_extended_catalog() {
    // An instance where the sorted-neighborhood path has full recall
    // (pinned by seed: every true pair shares a window under some pass),
    // so the two paths must agree byte for byte. On noisier instances the
    // index finds strictly *more* — see
    // `indexed_matches_superset_windowed_matches` below.
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        150,
        &NoiseConfig { seed: 31, ..Default::default() },
    );
    let engine = Preset::Extended
        .builder()
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("preset engine builds");
    let windowed = engine.match_pairs(&data.credit, &data.billing).expect("windowed run");
    let indexed = engine.match_pairs_indexed(&data.credit, &data.billing).expect("indexed run");
    assert_eq!(
        indexed.pairs().to_vec(),
        by_position(windowed.pairs().to_vec()),
        "indexed and windowed matches must be identical on the synthetic catalog"
    );
    assert!(
        indexed.candidates() < windowed.candidates(),
        "the index must examine fewer candidates ({} vs {})",
        indexed.candidates(),
        windowed.candidates()
    );
}

#[test]
fn indexed_matches_are_a_superset_of_windowed_matches() {
    // The general contract: the index retrieves every pair its keys
    // accept, while a fixed-size window can miss pairs whose sort-key
    // attributes are corrupted in every pass — so indexed ⊇ windowed,
    // with identical decisions (key provenance included) on shared pairs,
    // and still strictly fewer candidates examined.
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        250,
        &NoiseConfig { seed: 0xBEEF, ..Default::default() },
    );
    let engine = Preset::Extended
        .builder()
        .top_k(5)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("preset engine builds");
    let windowed = engine.match_pairs(&data.credit, &data.billing).expect("windowed run");
    let indexed = engine.match_pairs_indexed(&data.credit, &data.billing).expect("indexed run");
    for pair in windowed.pairs() {
        assert!(
            indexed.pairs().contains(pair),
            "windowed pair {pair:?} missing from the indexed run"
        );
    }
    assert!(indexed.len() >= windowed.len());
    assert!(indexed.candidates() < windowed.candidates());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serving contract: after inserting tuple *t*, a point query returns
    /// exactly the pairs the batch (exhaustive) path reports for *t* —
    /// same partners, same key provenance — however many threads built
    /// the index.
    #[test]
    fn query_after_insert_equals_batch(seed in 0u64..100_000, persons in 10usize..40) {
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
        // Ground truth: the exhaustive batch run over the full pair.
        let batch = engine
            .with_exec(ExecConfig::serial())
            .match_all(&data.credit, &data.billing)
            .expect("batch run");

        // Hold out the last few billing tuples and insert them after the
        // build — queries must not care how a tuple entered the index.
        let held_out = 3.min(data.billing.len());
        let split = data.billing.len() - held_out;
        let mut base = Relation::new(data.billing.schema().clone());
        for t in &data.billing.tuples()[..split] {
            base.push(Tuple::new(t.id(), t.values().to_vec()));
        }

        for threads in THREAD_SWEEP {
            let engine = engine.with_exec(ExecConfig::fixed(threads));
            let mut index = engine.index(&base).expect("index builds");
            for t in &data.billing.tuples()[split..] {
                index.insert(Tuple::new(t.id(), t.values().to_vec())).expect("insert");
            }
            for (l, probe) in data.credit.tuples().iter().enumerate() {
                let outcome = index.query(probe);
                let mut expected: Vec<(u64, usize)> = batch
                    .pairs()
                    .iter()
                    .filter(|p| p.left == l)
                    .map(|p| (p.right_id, p.key))
                    .collect();
                expected.sort_unstable();
                let mut got: Vec<(u64, usize)> =
                    outcome.hits.iter().map(|h| (h.id, h.key)).collect();
                got.sort_unstable();
                prop_assert_eq!(
                    got, expected,
                    "probe {} diverged from the batch path at {} threads (seed {})",
                    l, threads, seed
                );
            }
        }
    }

    /// `remove` then `query` never returns the removed id, and everything
    /// else keeps matching exactly as before.
    #[test]
    fn removed_ids_never_come_back(seed in 0u64..100_000, persons in 10usize..40) {
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
        for threads in THREAD_SWEEP {
            let engine = engine.with_exec(ExecConfig::fixed(threads));
            let mut index = engine.index(&data.billing).expect("index builds");
            // Remove the partner of the first matching probe (if any pair
            // matches at all on this instance).
            let victim = data.credit.tuples().iter().find_map(|probe| {
                index.query(probe).hits.first().map(|h| h.id)
            });
            let Some(victim) = victim else { continue };
            let before: Vec<Vec<_>> = data
                .credit
                .tuples()
                .iter()
                .map(|p| index.query(p).hits)
                .collect();
            index.remove(victim).expect("remove");
            for (probe, before_hits) in data.credit.tuples().iter().zip(before) {
                let after = index.query(probe).hits;
                prop_assert!(
                    after.iter().all(|h| h.id != victim),
                    "removed id {} still returned at {} threads (seed {})",
                    victim, threads, seed
                );
                let expect: Vec<_> =
                    before_hits.into_iter().filter(|h| h.id != victim).collect();
                prop_assert_eq!(after, expect);
            }
        }
    }
}
