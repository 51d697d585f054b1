//! The serving contract of `MatchServer`, end to end, at 1, 2 and 8
//! shards (one shard is the single-owner configuration):
//!
//! * `query` over an upserted store returns **exactly** the hits of
//!   `match_pairs_indexed` on the equivalent relation — at every rule
//!   version (before and after `swap_rules`), with tombstones in the
//!   store and after `compact`;
//! * after `swap_rules`, answers are identical to a fresh server built
//!   with the new rules over the same records (proptest);
//! * a failed swap leaves the old version serving, byte for byte;
//! * `explain`'s per-atom pass/fail agrees with `lhs_matches` for every
//!   atom of every key, and its verdict with `query`;
//! * schema mismatches are typed errors.

use matchrules::core::schema::Schema;
use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::value::Value;
use matchrules::engine::{EngineBuilder, ExecConfig, MatchEngine, Preset, Threads};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId, ServiceError};
use proptest::prelude::*;
use std::sync::Arc;

const SHARD_SWEEP: [usize; 3] = [1, 2, 8];

/// A genuinely different rule set for the extended pair: MDs 1, 6 and 7
/// of the §6 setting are dropped, so the deduced RCKs change.
const SWAPPED_RULES: &str = "\
    credit[email] = billing[email] -> credit[FN,MN,LN] <=> billing[FN,MN,LN]\n\
    credit[tel] = billing[phn] -> \
    credit[street,city,county,state,zip] <=> billing[street,city,county,state,zip]\n\
    credit[zip] = billing[zip] -> credit[city,county,state] <=> billing[city,county,state]\n\
    credit[LN] ~d billing[LN] /\\ credit[tel] = billing[phn] /\\ credit[FN] ~d billing[FN] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

fn server_over(engine: MatchEngine, shards: usize, threads: usize) -> MatchServer {
    MatchServer::with_config(
        engine,
        ServerConfig {
            shards,
            cache_capacity: 32,
            exec: ExecConfig { threads: Threads::Fixed(threads) },
        },
    )
}

fn probe_record(server: &MatchServer, t: &Tuple) -> Record {
    Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap()
}

fn null_record(schema: Arc<Schema>) -> Record {
    let values = vec![Value::Null; schema.arity()];
    Record::from_values(schema, values).unwrap()
}

/// Builds a `shards`-shard server over the extended preset and bulk
/// loads every billing tuple (ids become `RecordId`s), returning the
/// server plus the credit (probe-side) relation.
fn extended_server(persons: usize, seed: u64, shards: usize) -> (MatchServer, Relation) {
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
        .threads(2)
        .statistics_from(&data.credit, &data.billing)
        .build()
        .expect("preset engine builds");
    let server = server_over(engine, shards, 2);
    let batch: Vec<(RecordId, Record)> = (data.billing.tuples().iter())
        .map(|t| {
            let record = Record::from_values(server.store_schema(), t.values().to_vec()).unwrap();
            (RecordId(t.id()), record)
        })
        .collect();
    let replaced = server.upsert_batch(&batch).unwrap();
    assert!(replaced.iter().all(|&r| !r), "ids are fresh");
    assert_eq!(server.len(), data.billing.len());
    (server, data.credit)
}

/// `query` per probe must return exactly the `match_pairs_indexed` hits
/// on the server's snapshot relation — the independent batch path, in
/// the same (store) order at every shard count.
fn assert_query_equals_batch(server: &MatchServer, credit: &Relation) {
    let snapshot = server.snapshot();
    let report = server.engine().match_pairs_indexed(credit, &snapshot).expect("batch run");
    for (l, probe_tuple) in credit.tuples().iter().enumerate() {
        let response = server.query(&probe_record(server, probe_tuple)).unwrap();
        let expected: Vec<(u64, usize)> =
            report.pairs().iter().filter(|p| p.left == l).map(|p| (p.right_id, p.key)).collect();
        let got: Vec<(u64, usize)> = response.hits.iter().map(|h| (h.id.0, h.key)).collect();
        assert_eq!(got, expected, "probe {l} diverged from the batch path");
        assert!(response.candidates >= response.hits.len());
        assert_eq!(response.version, server.version());
    }
}

#[test]
fn query_equals_batch_at_every_rule_version() {
    for shards in SHARD_SWEEP {
        let (server, credit) = extended_server(60, 0xA11CE, shards);
        assert_eq!(server.version().number(), 1);
        assert_query_equals_batch(&server, &credit);
        let hits_of = |server: &MatchServer| -> Vec<_> {
            (credit.tuples().iter())
                .map(|t| server.query(&probe_record(server, t)).unwrap().hits)
                .collect()
        };
        let v1_hits = hits_of(&server);

        let v2 = server.swap_rules(SWAPPED_RULES).expect("swap compiles");
        assert_eq!(v2.number(), 2);
        assert_eq!(server.version(), v2);
        assert_eq!(server.plan().sigma().len(), 4, "the swapped rule set has 4 MDs");
        assert_query_equals_batch(&server, &credit);

        // Swapping back to the original (programmatic) rules keeps
        // working and keeps bumping.
        let original = Preset::Extended.paper_setting().sigma;
        let v3 = server.swap_rules_with(original).expect("swap back");
        assert_eq!(v3.number(), 3);
        assert_query_equals_batch(&server, &credit);
        // The same rules give the same answers, fired keys included: a
        // swap carries the plan's measured cost statistics, so the
        // recompiled key list is the original one.
        assert_eq!(hits_of(&server), v1_hits);
    }
}

#[test]
fn failed_swap_leaves_the_service_untouched() {
    for shards in SHARD_SWEEP {
        let (server, credit) = extended_server(20, 7, shards);
        let before: Vec<_> = (credit.tuples().iter())
            .map(|t| server.query(&probe_record(&server, t)).unwrap())
            .collect();
        // Unknown attribute: the recompile fails, the old version keeps
        // serving, byte for byte.
        let err = server.swap_rules("credit[nope] = billing[email] -> credit[FN] <=> billing[FN]");
        assert!(matches!(err, Err(ServiceError::Engine(_))), "{err:?}");
        assert_eq!(server.version().number(), 1);
        for (t, expect) in credit.tuples().iter().zip(before) {
            assert_eq!(server.query(&probe_record(&server, t)).unwrap(), expect);
        }
    }
}

#[test]
fn swap_with_foreign_operator_ids_fails_the_compile() {
    use matchrules::core::dependency::{IdentPair, MatchingDependency, SimilarityAtom};
    use matchrules::core::operators::OperatorId;
    for shards in SHARD_SWEEP {
        let (server, _credit) = extended_server(10, 3, shards);
        let pair = server.plan().pair().clone();
        let l = pair.left().attr("email").unwrap();
        let r = pair.right().attr("email").unwrap();
        // An MD whose atom carries an operator id no table this size
        // holds — the signature of interning against a foreign (larger)
        // table.
        let foreign = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::new(l, r, OperatorId(99))],
            vec![IdentPair::new(pair.left().attr("FN").unwrap(), pair.right().attr("FN").unwrap())],
        )
        .unwrap();
        let err = server.swap_rules_with(vec![foreign]);
        assert!(matches!(err, Err(ServiceError::Engine(_))), "{err:?}");
        assert!(err.unwrap_err().to_string().contains("operator table"));
        assert_eq!(server.version().number(), 1, "the failed swap changed nothing");
    }
}

#[test]
fn upsert_remove_get_roundtrip() {
    for shards in SHARD_SWEEP {
        let (server, credit) = extended_server(20, 99, shards);
        let first = server.snapshot().tuples()[0].clone();
        let id = RecordId(first.id());
        assert_eq!(server.get(id).expect("live record").values(), first.values());

        // Replacing a record moves it to the freshest position and
        // changes the answers to whatever the new values imply.
        let len_before = server.len();
        let blank = null_record(server.store_schema());
        assert!(server.upsert(id, &blank).unwrap(), "an existing id reports replacement");
        assert_eq!(server.len(), len_before, "a replacement does not grow the store");
        assert_eq!(server.snapshot().tuples().last().map(Tuple::id), Some(id.0));
        assert!(server.get(id).expect("still live").values().iter().all(|v| v.is_null()));
        // An all-null record matches nothing.
        for t in credit.tuples() {
            let response = server.query(&probe_record(&server, t)).unwrap();
            assert!(response.hits.iter().all(|h| h.id != id));
        }

        server.remove(id).expect("live record removes");
        assert!(!server.contains(id));
        assert!(server.get(id).is_none());
        assert!(matches!(
            server.remove(id),
            Err(ServiceError::UnknownRecord { id: gone }) if gone == id
        ));
        // Query equivalence still holds with tombstones in the store.
        assert_query_equals_batch(&server, &credit);
        // Compaction republishes the same records under the same rules:
        // no answer, order or version moves (that it reclaims the
        // tombstoned slots is pinned next to the shard internals, in
        // `server::core`'s unit tests).
        let (store_before, epoch_before) = (server.snapshot(), server.epoch());
        server.compact().unwrap();
        assert_eq!(server.version().number(), 1, "compaction is not a rule change");
        assert!(server.epoch() > epoch_before, "compaction publishes");
        assert_eq!(server.snapshot().tuples(), store_before.tuples());
        assert_query_equals_batch(&server, &credit);
    }
}

#[test]
fn explain_agrees_with_query_and_lhs_matches() {
    for shards in SHARD_SWEEP {
        let (server, credit) = extended_server(30, 0xE1, shards);
        let engine = server.engine();
        let (plan, ops) = (engine.plan(), engine.runtime());
        let snapshot = server.snapshot();
        let mut explained = 0usize;
        for probe_tuple in credit.tuples().iter().take(10) {
            let probe = probe_record(&server, probe_tuple);
            let hits = server.query(&probe).unwrap().hits;
            for stored in snapshot.tuples().iter().take(15) {
                let id = RecordId(stored.id());
                let why = server.explain(&probe, id).unwrap();
                assert_eq!(why.matched, hits.iter().any(|h| h.id == id), "verdict vs query");
                assert_eq!(why.version, server.version());
                assert_eq!(why.keys.len(), plan.rcks().len());
                let probe_t = Tuple::new(0, probe.values().to_vec());
                for (key, kx) in plan.rcks().iter().zip(&why.keys) {
                    assert_eq!(
                        kx.matched,
                        ops.lhs_matches(key.atoms(), &probe_t, stored),
                        "key verdict vs lhs_matches"
                    );
                    assert_eq!(kx.atoms.len(), key.atoms().len());
                    for (atom, ax) in key.atoms().iter().zip(&kx.atoms) {
                        assert_eq!(
                            ax.passed,
                            ops.atom_matches(atom, &probe_t, stored),
                            "atom pass/fail vs atom_matches ({} {} {})",
                            ax.left,
                            ax.op,
                            ax.right,
                        );
                        // Edit atoms carry their own evidence: matched
                        // iff the exact distance fits the bound.
                        if let (Some(d), Some(b)) = (ax.distance, ax.bound) {
                            assert_eq!(ax.passed, d <= b);
                        }
                    }
                }
                // The fired key matches query provenance, and a match
                // comes with its deduction path (the preset keys are
                // deduced).
                if let Some(hit) = hits.iter().find(|h| h.id == id) {
                    assert_eq!(why.fired_key, Some(hit.key));
                    assert!(!why.deduction.is_empty(), "deduced keys explain their deduction");
                    assert!(why.to_string().contains("MATCH via key"));
                }
                explained += 1;
            }
        }
        assert!(explained > 0);
        // Unknown ids are typed errors.
        assert!(matches!(
            server.explain(&probe_record(&server, &credit.tuples()[0]), RecordId(u64::MAX)),
            Err(ServiceError::UnknownRecord { .. })
        ));
    }
}

#[test]
fn schema_mismatch_is_a_typed_error() {
    for shards in SHARD_SWEEP {
        let (server, _credit) = extended_server(10, 5, shards);
        // A record built against the probe schema cannot be stored (the
        // extended schemas have different arities), and vice versa.
        let len_before = server.len();
        assert!(matches!(
            server.upsert(RecordId(10_000), &null_record(server.probe_schema())),
            Err(ServiceError::SchemaMismatch { .. })
        ));
        assert_eq!(server.len(), len_before);
        assert!(matches!(
            server.query(&null_record(server.store_schema())),
            Err(ServiceError::SchemaMismatch { .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// After `swap_rules`, the long-lived server answers byte-identically
    /// to a fresh server compiled with the new rules over the same
    /// records — hits, candidate counts and filter stats — at 1, 2 and 8
    /// shards and threads (the post-swap index is a clean rebuild shard
    /// by shard, so even the work accounting must line up).
    #[test]
    fn post_swap_equals_fresh_service(seed in 0u64..100_000, persons in 10usize..32) {
        let shape = Preset::Extended.paper_setting();
        let data = generate_dirty(
            &shape.pair,
            &shape.target,
            persons,
            &NoiseConfig { seed, ..Default::default() },
        );
        for n in SHARD_SWEEP {
            // Long-lived server: built on the original rules, loaded
            // record by record, then hot-swapped.
            let engine = Preset::Extended.builder().top_k(5).threads(n).build().unwrap();
            let swapped = server_over(engine, n, n);
            for t in data.billing.tuples() {
                let record =
                    Record::from_values(swapped.store_schema(), t.values().to_vec()).unwrap();
                prop_assert!(!swapped.upsert(RecordId(t.id()), &record).unwrap());
            }
            swapped.swap_rules(SWAPPED_RULES).unwrap();
            prop_assert_eq!(swapped.version().number(), 2);

            // Fresh server: compiled with the new rules from scratch
            // (independent construction path), same records, same order.
            let fresh_engine = EngineBuilder::from_parts(
                shape.pair.clone(),
                matchrules::core::operators::OperatorTable::new(),
                Vec::new(),
                shape.target.clone(),
            )
            .md_text(SWAPPED_RULES)
            .top_k(5)
            .threads(n)
            .build()
            .unwrap();
            let fresh = server_over(fresh_engine, n, n);
            for t in data.billing.tuples() {
                let record =
                    Record::from_values(fresh.store_schema(), t.values().to_vec()).unwrap();
                fresh.upsert(RecordId(t.id()), &record).unwrap();
            }

            for t in data.credit.tuples() {
                let a = swapped.query(&probe_record(&swapped, t)).unwrap();
                let b = fresh.query(&probe_record(&fresh, t)).unwrap();
                prop_assert_eq!(&a.hits, &b.hits,
                    "hits diverge at {} shards (seed {})", n, seed);
                prop_assert_eq!(a.candidates, b.candidates);
                prop_assert_eq!(a.stats, b.stats);
            }
        }
    }

    /// Query answers are exactly the batch answers at both rule versions,
    /// whatever the data (the plain-test version pins one instance; this
    /// sweeps seeds).
    #[test]
    fn query_equals_batch_prop(seed in 0u64..100_000, persons in 8usize..24) {
        for shards in SHARD_SWEEP {
            let (server, credit) = extended_server(persons, seed, shards);
            assert_query_equals_batch(&server, &credit);
            server.swap_rules(SWAPPED_RULES).unwrap();
            assert_query_equals_batch(&server, &credit);
        }
    }
}
