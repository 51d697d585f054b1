//! MatchIndex tombstone behavior under insert → remove → insert cycles:
//! removed ids never resurface, re-inserted ids come back, and
//! `stats()` / query results stay consistent with a fresh index built
//! over the live records — at 1, 2 and 8 threads, on the Extended plan
//! (q-gram and key anchors) and on the roster plan (Jaro–Winkler and
//! token element anchors, soundex and phone key anchors). After every
//! phase the index passes `check_invariants`, whose value-index half
//! checks the q-gram and element dictionaries: values dying with their
//! last slot, and re-inserts opening fresh ones.

mod roster;

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::engine::{ExecConfig, MatchEngine, Preset};
use proptest::prelude::*;
use proptest::TestCaseError;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Cycles every `store` tuple through insert → remove → insert (the
/// removal pattern keyed by `modulus`), at every thread count, and checks:
/// * no removed id is ever returned by any query;
/// * re-inserted ids are returned again, with the same key;
/// * `stats()` counts live/tombstoned slots exactly;
/// * every query answers like a fresh, tombstone-free index over the
///   live records (ids and key provenance).
fn cycle(
    engine: &MatchEngine,
    store: &Relation,
    probes: &Relation,
    seed: u64,
    modulus: u64,
) -> Result<(), TestCaseError> {
    let empty = Relation::new(store.schema().clone());
    for threads in THREAD_SWEEP {
        let engine = engine.with_exec(ExecConfig::fixed(threads));
        let mut index = engine.index(&empty).unwrap();

        // Insert everything.
        for t in store.tuples() {
            index.insert(Tuple::new(t.id(), t.values().to_vec())).unwrap();
        }
        let total = store.len();
        prop_assert_eq!(index.len(), total);
        prop_assert_eq!(index.stats().tombstones, 0);
        index.check_invariants();

        // Remove a seed-keyed subset…
        let removed: Vec<u64> = store
            .tuples()
            .iter()
            .map(|t| t.id())
            .filter(|id| id % modulus == seed % modulus)
            .collect();
        for &id in &removed {
            index.remove(id).unwrap();
        }
        prop_assert_eq!(index.len(), total - removed.len());
        prop_assert_eq!(index.stats().tombstones, removed.len());
        index.check_invariants();
        for probe in probes.tuples() {
            let hits = index.query(probe).hits;
            prop_assert!(
                hits.iter().all(|h| !removed.contains(&h.id)),
                "a removed id resurfaced at {} threads",
                threads
            );
        }

        // …then re-insert every other removed tuple (a second
        // insert → remove → insert cycle for those ids).
        let back: Vec<u64> = removed.iter().copied().step_by(2).collect();
        for &id in &back {
            let t = store.by_id(id).unwrap();
            index.insert(Tuple::new(id, t.values().to_vec())).unwrap();
        }
        let still_gone: Vec<u64> =
            removed.iter().copied().filter(|id| !back.contains(id)).collect();
        prop_assert_eq!(index.len(), total - still_gone.len());
        // Re-insertion appends a fresh slot; the old tombstones stay
        // until a rebuild compacts them.
        prop_assert_eq!(index.stats().tombstones, removed.len());
        prop_assert_eq!(index.stats().live + index.stats().tombstones, index.slots());
        index.check_invariants();

        // The cycled index answers exactly like a fresh index over its
        // live records.
        let live = index.live_relation();
        prop_assert_eq!(live.len(), index.len());
        let fresh = engine.index(&live).unwrap();
        prop_assert_eq!(fresh.stats().tombstones, 0);
        fresh.check_invariants();
        prop_assert_eq!(fresh.stats().distinct_values, index.stats().distinct_values);
        for probe in probes.tuples() {
            let cycled: Vec<(u64, usize)> =
                index.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            let clean: Vec<(u64, usize)> =
                fresh.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            prop_assert!(
                cycled.iter().all(|(id, _)| !still_gone.contains(id)),
                "a removed id resurfaced after re-inserts at {} threads",
                threads
            );
            prop_assert_eq!(
                cycled,
                clean,
                "cycled index diverges from a fresh build at {} threads (seed {})",
                threads,
                seed
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn insert_remove_insert_cycles_stay_consistent(
        seed in 0u64..100_000,
        persons in 8usize..28,
        modulus in 2u64..5,
    ) {
        let shape = Preset::Extended.paper_setting();
        let data = generate_dirty(
            &shape.pair,
            &shape.target,
            persons,
            &NoiseConfig { seed, ..Default::default() },
        );
        let engine = Preset::Extended.builder().top_k(5).build().unwrap();
        cycle(&engine, &data.billing, &data.credit, seed, modulus)?;
    }

    /// The same cycles on element anchors: the signup rows are stored
    /// twice, so values die only with their last copy.
    #[test]
    fn insert_remove_insert_cycles_stay_consistent_on_element_anchors(
        seed in 0u64..100_000,
        persons in 8usize..40,
        modulus in 2u64..5,
    ) {
        let (probes, store) = roster::roster_data(persons, seed, 2);
        cycle(&roster::roster_engine(1), &store, &probes, seed, modulus)?;
    }
}
