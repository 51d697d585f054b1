//! Snapshot isolation of the structurally-shared write path.
//!
//! A published `MatchIndex` snapshot shares chunks, stripes, tuples
//! and sealed posting payloads with its successors; the
//! invariant under test is *a published snapshot is never mutated* —
//! writers copy what they touch:
//!
//! * a held `MatchIndex` clone answers every probe **byte-identically**
//!   (hits *and* work counters) to before a long stream of inserts,
//!   replacements and removes hit its successor — including enough
//!   removes to push sealed posting blocks past half dead, so blocks are
//!   rewritten while the held clone still shares their old payloads;
//! * the mutated index answers exactly like an index freshly built over
//!   its live records, and both sides keep every structural invariant
//!   (`MatchIndex::check_invariants`, which runs
//!   `PostingList::check_invariants` on every posting list);
//! * the same at the server, with a `ServerReader`
//!   pinning the pre-stream view for the whole stream (so every write
//!   copies against a shared snapshot, never in place): afterwards the
//!   server answers — boolean and ranked — exactly like a server freshly
//!   loaded from its own `snapshot()`, and the refreshed reader answers
//!   — boolean and ranked — exactly like the server.

use matchrules::data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules::data::relation::Tuple;
use matchrules::engine::{ExecConfig, MatchEngine, Preset, QueryOutcome};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Ids of records the stream adds (the generated ones are dense from 0).
const FRESH_BASE: u64 = 1_000_000;

fn dirty(seed: u64, persons: usize) -> DirtyData {
    let shape = Preset::Extended.paper_setting();
    generate_dirty(
        &shape.pair,
        &shape.target,
        persons,
        &NoiseConfig { seed, ..NoiseConfig::default() },
    )
}

fn engine() -> MatchEngine {
    Preset::Extended.builder().top_k(5).threads(1).build().unwrap()
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One write of the stream.
enum Write {
    /// Insert under a fresh id, or replace the record under a live id,
    /// with the values of billing row `row`.
    Upsert {
        id: u64,
        row: usize,
    },
    Remove {
        id: u64,
    },
}

/// A seeded stream over a store that starts as `billing`: ~60% of the
/// original records removed (in random order, interleaved), fresh
/// records added, live records — original and fresh — replaced, some
/// fresh ones removed again.
fn write_stream(data: &DirtyData, seed: u64) -> Vec<Write> {
    let mut rng = SplitMix(seed);
    let rows = data.billing.len();
    let mut originals: Vec<u64> = data.billing.tuples().iter().map(Tuple::id).collect();
    let mut fresh: Vec<u64> = Vec::new();
    let mut next_fresh = FRESH_BASE;
    let mut doomed = rows * 3 / 5;
    let mut stream = Vec::new();
    while doomed > 0 {
        match rng.below(10) {
            0..=5 => {
                let id = originals.swap_remove(rng.below(originals.len()));
                stream.push(Write::Remove { id });
                doomed -= 1;
            }
            6 | 7 => {
                fresh.push(next_fresh);
                stream.push(Write::Upsert { id: next_fresh, row: rng.below(rows) });
                next_fresh += 1;
            }
            8 => {
                // Replace a live record: an original, or a fresh one.
                let pool = if fresh.is_empty() || rng.below(2) == 0 { &originals } else { &fresh };
                let id = pool[rng.below(pool.len())];
                stream.push(Write::Upsert { id, row: rng.below(rows) });
            }
            _ if !fresh.is_empty() => {
                let id = fresh.swap_remove(rng.below(fresh.len()));
                stream.push(Write::Remove { id });
            }
            _ => {}
        }
    }
    stream
}

fn hits_of(outcome: &QueryOutcome) -> Vec<(u64, usize)> {
    outcome.hits.iter().map(|h| (h.id, h.key)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn cow_index_clone_is_isolated_from_its_successors_writes(seed in 0u64..100_000) {
        let data = dirty(seed, 400);
        let engine = engine();
        let mut index = engine.index(&data.billing).unwrap();
        let before_stats = index.stats();
        prop_assert!(
            before_stats.postings_bytes < before_stats.postings_uncompressed_bytes,
            "the store must be big enough to seal (compress) posting blocks"
        );

        let held = index.clone();
        let before: Vec<QueryOutcome> =
            data.credit.tuples().iter().map(|p| held.query(p)).collect();
        let held_is_untouched = |step: usize| -> Result<(), TestCaseError> {
            held.check_invariants();
            prop_assert_eq!(held.stats(), before_stats);
            for (probe, want) in data.credit.tuples().iter().zip(&before) {
                prop_assert_eq!(&held.query(probe), want, "held clone moved by step {}", step);
            }
            Ok(())
        };

        let values = |row: usize| data.billing.tuples()[row].values().to_vec();
        for (step, write) in write_stream(&data, seed).into_iter().enumerate() {
            match write {
                Write::Upsert { id, row } => {
                    if index.contains(id) {
                        index.remove(id).unwrap();
                    }
                    index.insert(Tuple::new(id, values(row))).unwrap();
                }
                Write::Remove { id } => index.remove(id).unwrap(),
            }
            if step % 97 == 0 {
                held_is_untouched(step)?;
            }
        }
        held_is_untouched(usize::MAX)?;

        // Removing 60% of the store pushes its sealed blocks past half
        // dead, so they were rewritten (the held clone kept the old
        // payloads): dead entries are physically gone, not just hidden.
        index.check_invariants();
        let after = index.stats();
        prop_assert!(after.tombstones > 0);
        prop_assert!(
            after.postings_uncompressed_bytes * 10 < before_stats.postings_uncompressed_bytes * 9
        );

        // The mutated index answers like a fresh build over its records.
        let fresh = engine.index(&index.live_relation()).unwrap();
        fresh.check_invariants();
        for probe in data.credit.tuples() {
            prop_assert_eq!(hits_of(&index.query(probe)), hits_of(&fresh.query(probe)));
        }

        // A clone taken *after* the churn (tombstones, rewritten blocks)
        // is isolated too, from a further wave of removes.
        let held_late = index.clone();
        let late: Vec<QueryOutcome> =
            data.credit.tuples().iter().map(|p| held_late.query(p)).collect();
        let live_ids: Vec<u64> = index.live_tuples().map(|(_, t)| t.id()).collect();
        for id in live_ids.into_iter().step_by(2) {
            index.remove(id).unwrap();
        }
        index.check_invariants();
        held_late.check_invariants();
        for (probe, want) in data.credit.tuples().iter().zip(&late) {
            prop_assert_eq!(&held_late.query(probe), want);
        }
    }

    #[test]
    fn cow_server_stream_under_a_pinned_reader_equals_a_fresh_load(seed in 0u64..100_000) {
        let data = dirty(seed, 120);
        let stream = write_stream(&data, seed);
        let config = ServerConfig { exec: ExecConfig::fixed(2), ..ServerConfig::default() };
        let server = MatchServer::with_config(engine(), config);
        let record = |row: usize| {
            let values = data.billing.tuples()[row].values().to_vec();
            Record::from_values(server.store_schema(), values).unwrap()
        };
        let initial: Vec<(RecordId, Record)> = (0..data.billing.len())
            .map(|row| (RecordId(data.billing.tuples()[row].id()), record(row)))
            .collect();
        server.upsert_batch(&initial).unwrap();
        let probes: Vec<Record> = (data.credit.tuples().iter())
            .map(|t| Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap())
            .collect();

        // Pins the loaded view: until it refreshes, every write
        // below mutates a clone of a snapshot somebody still holds.
        let mut pinned = server.reader();
        pinned.query(&probes[0]).unwrap();

        // Singles and batches both go through the one write path.
        let mut pending_removes: Vec<RecordId> = Vec::new();
        for write in &stream {
            match *write {
                Write::Upsert { id, row } => {
                    server.remove_batch(&pending_removes).unwrap();
                    pending_removes.clear();
                    server.upsert(RecordId(id), &record(row)).unwrap();
                }
                Write::Remove { id } if id % 3 == 0 => pending_removes.push(RecordId(id)),
                Write::Remove { id } => server.remove(RecordId(id)).unwrap(),
            }
        }
        server.remove_batch(&pending_removes).unwrap();

        // A server freshly loaded from the snapshot, in store order.
        let snapshot = server.snapshot();
        let fresh = MatchServer::with_config(engine(), config);
        let reload: Vec<(RecordId, Record)> = (snapshot.tuples().iter())
            .map(|t| {
                let record = Record::from_values(fresh.store_schema(), t.values().to_vec());
                (RecordId(t.id()), record.unwrap())
            })
            .collect();
        fresh.upsert_batch(&reload).unwrap();
        prop_assert_eq!(server.len(), fresh.len());
        let ids = |s: &MatchServer| -> Vec<u64> {
            s.snapshot().tuples().iter().map(Tuple::id).collect()
        };
        prop_assert_eq!(ids(&server), ids(&fresh), "store order");

        for probe in &probes {
            let live = server.query(probe).unwrap();
            prop_assert_eq!(&live.hits, &fresh.query(probe).unwrap().hits);
            // The reader refreshes to the published view on use.
            prop_assert_eq!(&pinned.query(probe).unwrap(), &live);
            let ranked = server.query_ranked(probe, 5, 0.0).unwrap();
            prop_assert_eq!(&pinned.query_ranked(probe, 5, 0.0).unwrap(), &ranked);
            prop_assert_eq!(ranked.hits, fresh.query_ranked(probe, 5, 0.0).unwrap().hits);
        }
    }
}
