//! The MatchServer contract, end to end:
//!
//! * sharded servers (1/2/8 shards; one shard is the single owner)
//!   answer every probe hit-for-hit identically to the batch
//!   `match_pairs_indexed` path over their store, and keep the store in
//!   arrival order — including across a mid-stream `swap_rules`,
//!   replacements and removals (proptest);
//! * `swap_rules` has zero read downtime: readers hammering the server
//!   during repeated swaps never fail, never block on the rebuild, and
//!   observe only monotonically non-decreasing rule versions;
//! * the TCP front round-trips upsert/query/explain/swap/stats/remove
//!   through `MatchClient`, with service errors typed, not fatal;
//! * over TCP, a frame that does not decode gets one error frame and a
//!   close, while a wrong-arity probe and an answer too large for one
//!   frame are errors on a connection that keeps serving, and a client
//!   that hangs up mid-frame frees its worker.

use matchrules::core::schema::Schema;
use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::Relation;
use matchrules::engine::{EngineBuilder, ExecConfig, Preset, Threads};
use matchrules::server::net::{serve, serve_with};
use matchrules::server::wire::{read_response, write_frame};
use matchrules::server::{ClientError, MatchClient, MatchServer, Request, Response, ServerConfig};
use matchrules::service::{Record, RecordId};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const SHARD_SWEEP: [usize; 3] = [1, 2, 8];

/// A genuinely different rule set for the extended pair (MDs 1, 6 and 7
/// of the §6 setting dropped), so a swap changes the deduced RCKs.
const SWAPPED_RULES: &str = "\
    credit[email] = billing[email] -> credit[FN,MN,LN] <=> billing[FN,MN,LN]\n\
    credit[tel] = billing[phn] -> \
    credit[street,city,county,state,zip] <=> billing[street,city,county,state,zip]\n\
    credit[zip] = billing[zip] -> credit[city,county,state] <=> billing[city,county,state]\n\
    credit[LN] ~d billing[LN] /\\ credit[tel] = billing[phn] /\\ credit[FN] ~d billing[FN] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

fn extended_server(shards: usize, threads: usize) -> MatchServer {
    let engine = Preset::Extended.builder().top_k(5).threads(threads).build().unwrap();
    MatchServer::with_config(
        engine,
        ServerConfig {
            shards,
            exec: ExecConfig { threads: Threads::Fixed(threads) },
            ..ServerConfig::default()
        },
    )
}

fn store_record(server: &MatchServer, t: &matchrules::data::relation::Tuple) -> Record {
    Record::from_values(server.store_schema(), t.values().to_vec()).unwrap()
}

/// Every probe must get hit-for-hit the answer (ids, fired keys, order)
/// the batch `match_pairs_indexed` path reports over the server's
/// store, and the store must hold exactly `expected_ids`, in that order.
/// Aggregate counters (`candidates`, `key_evals`, `stats`) are *not*
/// compared: each shard prunes its own retrieval independently, so the
/// work accounting legitimately depends on the shard count — the
/// answers may not.
fn assert_equivalent(server: &MatchServer, credit: &Relation, expected_ids: &[u64]) {
    let snapshot = server.snapshot();
    let ids: Vec<u64> = snapshot.tuples().iter().map(|t| t.id()).collect();
    assert_eq!(ids, expected_ids, "store order diverged");
    let report = server.engine().match_pairs_indexed(credit, &snapshot).expect("batch run");
    for (l, t) in credit.tuples().iter().enumerate() {
        let probe = Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap();
        let response = server.query(&probe).unwrap();
        let expected: Vec<(u64, usize)> =
            report.pairs().iter().filter(|p| p.left == l).map(|p| (p.right_id, p.key)).collect();
        let got: Vec<(u64, usize)> = response.hits.iter().map(|h| (h.id.0, h.key)).collect();
        assert_eq!(got, expected, "hits diverged for probe {}", t.id());
        assert_eq!(response.version, server.version());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 1-, 2- and 8-shard servers answer byte-identically to the batch
    /// path — and so to each other, the 1-shard single owner included —
    /// through a full lifecycle: bulk upsert, rule swap, more upserts, a
    /// replacement and a removal.
    #[test]
    fn sharded_answers_equal_single_owner(seed in 0u64..100_000, persons in 8usize..20) {
        let shape = Preset::Extended.paper_setting();
        let data = generate_dirty(
            &shape.pair,
            &shape.target,
            persons,
            &NoiseConfig { seed, ..Default::default() },
        );
        let tuples = data.billing.tuples();
        let mid = tuples.len() / 2;
        let mut explanations = Vec::new();
        for shards in SHARD_SWEEP {
            let server = extended_server(shards, 2);
            // The store order the operations below must produce: an
            // upsert (re-)enters at the end, a removal leaves a gap.
            let mut order: Vec<u64> = Vec::new();

            // Phase 1: bulk upsert the first half as one batch.
            let batch: Vec<(RecordId, Record)> = tuples[..mid]
                .iter()
                .map(|t| (RecordId(t.id()), store_record(&server, t)))
                .collect();
            let replaced = server.upsert_batch(&batch).unwrap();
            prop_assert!(replaced.iter().all(|&r| !r), "fresh ids never report replacement");
            order.extend(tuples[..mid].iter().map(|t| t.id()));
            assert_equivalent(&server, &data.credit, &order);

            // Phase 2: swap rules mid-stream.
            prop_assert_eq!(server.swap_rules(SWAPPED_RULES).unwrap().number(), 2);
            assert_equivalent(&server, &data.credit, &order);

            // Phase 3: the second half arrives under the new rules,
            // plus a replacement (an old id re-upserted with the first
            // new tuple's values) and a removal.
            let replaced_id = tuples[0].id();
            prop_assert!(server
                .upsert(RecordId(replaced_id), &store_record(&server, &tuples[mid]))
                .unwrap());
            order.retain(|&id| id != replaced_id);
            order.push(replaced_id);
            for t in &tuples[mid..] {
                prop_assert!(!server.upsert(RecordId(t.id()), &store_record(&server, t)).unwrap());
                order.push(t.id());
            }
            let removed_id = tuples[1].id();
            server.remove(RecordId(removed_id)).unwrap();
            prop_assert!(!server.contains(RecordId(removed_id)));
            order.retain(|&id| id != removed_id);
            assert_equivalent(&server, &data.credit, &order);

            // Explanations (rendered form included) agree across shard
            // counts; their agreement with `query` and `lhs_matches` is
            // `service_api`'s.
            let probe = Record::from_values(
                server.probe_schema(), data.credit.tuples()[0].values().to_vec()).unwrap();
            let why = server.explain(&probe, RecordId(tuples[2].id())).unwrap();
            explanations.push((why.matched, why.fired_key, why.to_string()));
        }
        prop_assert!(explanations.windows(2).all(|w| w[0] == w[1]), "explanations diverged");
    }
}

/// The pinned zero-downtime contract: while `swap_rules` rebuilds and
/// republishes every shard, concurrent readers keep getting answers —
/// no errors, no torn versions, versions only ever move forward — and
/// some reads demonstrably complete *during* swap windows.
#[test]
fn swap_rules_has_zero_read_downtime() {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        120,
        &NoiseConfig { seed: 0xD0C5, ..Default::default() },
    );
    let server = Arc::new(extended_server(4, 2));
    let batch: Vec<(RecordId, Record)> = data
        .billing
        .tuples()
        .iter()
        .map(|t| (RecordId(t.id()), store_record(&server, t)))
        .collect();
    server.upsert_batch(&batch).unwrap();

    let probes: Vec<Record> = data
        .credit
        .tuples()
        .iter()
        .take(16)
        .map(|t| Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap())
        .collect();

    let stop = AtomicBool::new(false);
    let swapping = AtomicBool::new(false);
    let reads_during_swap = AtomicU64::new(0);
    let total_reads = AtomicU64::new(0);
    let mut swaps = 0u64;

    thread::scope(|scope| {
        for reader_id in 0..3usize {
            let server = &server;
            let stop = &stop;
            let swapping = &swapping;
            let reads_during_swap = &reads_during_swap;
            let total_reads = &total_reads;
            let probes = &probes;
            scope.spawn(move || {
                let mut reader = server.reader();
                let mut last_version = 0u64;
                let mut i = reader_id;
                while !stop.load(Ordering::Relaxed) {
                    let in_window = swapping.load(Ordering::Relaxed);
                    let response = reader
                        .query(&probes[i % probes.len()])
                        .expect("a read must never fail, swap or no swap");
                    assert!(
                        response.version.number() >= last_version,
                        "rule versions must never move backwards for a reader"
                    );
                    last_version = response.version.number();
                    total_reads.fetch_add(1, Ordering::Relaxed);
                    // Only count reads fully inside the swap window: the
                    // flag was up before the read began and still is.
                    if in_window && swapping.load(Ordering::Relaxed) {
                        reads_during_swap.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }

        // Alternate between the two rule sets until reads provably
        // landed inside swap windows (each swap rebuilds 4 shards over
        // 120+ records, a wide-open window; a handful of rounds is
        // plenty even on one core).
        let original = Preset::Extended.paper_setting().sigma;
        for round in 0..5 {
            thread::sleep(Duration::from_millis(20));
            swapping.store(true, Ordering::Relaxed);
            let version = if round % 2 == 0 {
                server.swap_rules(SWAPPED_RULES).unwrap()
            } else {
                server.swap_rules_with(original.clone()).unwrap()
            };
            swapping.store(false, Ordering::Relaxed);
            swaps += 1;
            assert_eq!(version.number(), 1 + swaps);
            if round >= 1 && reads_during_swap.load(Ordering::Relaxed) > 0 {
                break;
            }
        }
        thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
    });

    assert!(total_reads.load(Ordering::Relaxed) > 0, "readers actually ran");
    assert!(
        reads_during_swap.load(Ordering::Relaxed) > 0,
        "reads must complete during swap windows, not queue behind them"
    );
    assert_eq!(server.version().number(), 1 + swaps, "every swap bumped the version exactly once");
}

/// A 2-shard server deduplicating `people(name, phone, email)` on email.
fn people_server() -> Arc<MatchServer> {
    let people = Schema::text("people", &["name", "phone", "email"]).unwrap();
    let engine = EngineBuilder::new()
        .dedup_schema(people)
        .md_text("people[email] = people[email] -> people[name,phone] <=> people[name,phone]")
        .target(&["name", "phone"], &["name", "phone"])
        .build()
        .unwrap();
    Arc::new(MatchServer::with_config(
        engine,
        ServerConfig {
            shards: 2,
            exec: ExecConfig { threads: Threads::Fixed(1) },
            ..ServerConfig::default()
        },
    ))
}

/// A raw connection that gives up on a silent server instead of hanging
/// the test.
fn raw_connection(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
}

/// End-to-end over TCP: connect, learn schemas, upsert, query (with
/// fired-RCK provenance), explain, swap rules, stats, remove — then a
/// service error that leaves the connection usable.
#[test]
fn tcp_front_round_trips_and_swaps() {
    let server = people_server();
    let handle = serve(server.clone(), "127.0.0.1:0").unwrap();

    let mut client = MatchClient::connect(handle.addr()).unwrap();
    assert_eq!(client.store_schema().name, "people");
    assert_eq!(client.store_schema().attributes, ["name", "phone", "email"]);

    assert!(!client
        .upsert(
            1,
            &[("name", "Ada Lovelace"), ("phone", "020-7946-0001"), ("email", "ada@example.org")]
        )
        .unwrap());
    assert!(!client
        .upsert(
            2,
            &[("name", "Alan Turing"), ("phone", "020-7946-0002"), ("email", "alan@example.org")]
        )
        .unwrap());

    // Query with fired-RCK provenance, stamped v1.
    let answer = client.query(&[("name", "A. Lovelace"), ("email", "ada@example.org")]).unwrap();
    assert_eq!(answer.version, 1);
    assert_eq!(answer.hits.len(), 1);
    assert_eq!(answer.hits[0].id, 1);

    // Explanations render over the wire.
    let (matched, rendered) =
        client.explain(&[("name", "A. Lovelace"), ("email", "ada@example.org")], 1).unwrap();
    assert!(matched);
    assert!(rendered.contains("MATCH"));

    // Stats reflect both sides of the conversation so far.
    let stats = client.stats().unwrap();
    assert_eq!(stats.version, 1);
    assert_eq!(stats.shard_records.iter().sum::<u64>(), 2);
    assert!(stats.queries >= 1);

    // Hot-swap to phone-keyed rules: the email probe stops matching,
    // a phone probe starts, everything stamped v2.
    let v2 = client
        .swap_rules("people[phone] = people[phone] -> people[name,phone] <=> people[name,phone]")
        .unwrap();
    assert_eq!(v2, 2);
    let stale = client.query(&[("email", "ada@example.org")]).unwrap();
    assert_eq!(stale.version, 2);
    assert!(stale.hits.is_empty(), "the email rule is gone");
    let fresh = client.query(&[("phone", "020-7946-0002")]).unwrap();
    assert_eq!(fresh.hits.len(), 1);
    assert_eq!(fresh.hits[0].id, 2);

    // Removal over the wire; a second client sees the same state.
    client.remove(&[1]).unwrap();
    let mut second = MatchClient::connect(handle.addr()).unwrap();
    assert_eq!(second.stats().unwrap().shard_records.iter().sum::<u64>(), 1);

    // Service errors are typed and do not poison the connection.
    let err = client.explain(&[("phone", "020-7946-0002")], 999).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    assert!(err.to_string().contains("#999"));
    assert_eq!(client.query(&[("phone", "020-7946-0002")]).unwrap().hits.len(), 1);

    // Unknown client-side fields fail before anything hits the wire.
    assert!(matches!(client.query(&[("nope", "x")]), Err(ClientError::UnknownField { .. })));

    handle.shutdown();
    // The server object itself is untouched by the front shutting down.
    assert_eq!(server.len(), 1);
}

/// A frame that does not decode is answered with exactly one error
/// frame, and then the server closes the connection: its framing state
/// is unknown.
#[test]
fn tcp_garbage_frame_gets_one_error_then_the_connection_closes() {
    let handle = serve(people_server(), "127.0.0.1:0").unwrap();
    let mut stream = raw_connection(handle.addr());
    write_frame(&mut stream, &[0xEE, 1, 2]).unwrap();
    match read_response(&mut stream).unwrap() {
        Some(Response::Error { message }) => assert!(message.contains("unknown tag"), "{message}"),
        other => panic!("expected one error frame, got {other:?}"),
    }
    assert!(read_response(&mut stream).unwrap().is_none(), "then a clean close");
}

/// A probe of the wrong arity is a service error: it is answered, and
/// the same connection goes on serving.
#[test]
fn tcp_wrong_arity_probe_is_answered_and_the_connection_stays_usable() {
    let handle = serve(people_server(), "127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(handle.addr()).unwrap();
    client.upsert(1, &[("name", "Ada"), ("email", "ada@example.org")]).unwrap();
    let short = Request::Query { values: vec![Some("ada@example.org".into())] };
    assert!(matches!(client.request(&short).unwrap(), Response::Error { .. }));
    let answer = client.query(&[("email", "ada@example.org")]).unwrap();
    assert_eq!(answer.hits.iter().map(|h| h.id).collect::<Vec<_>>(), [1]);
}

/// With one worker, a client that sends half a frame and hangs up frees
/// that worker: the next client connects and is served.
#[test]
fn tcp_half_frame_then_close_frees_the_only_worker() {
    let handle = serve_with(people_server(), "127.0.0.1:0", 1).unwrap();
    let mut half = raw_connection(handle.addr());
    half.write_all(&[0, 0, 0, 9, b'x']).unwrap();
    drop(half);
    // The next client runs on a thread, so a worker that is never freed
    // fails the test instead of hanging it.
    let addr = handle.addr();
    let (served, answer) = mpsc::channel();
    let next = thread::spawn(move || {
        let stats = MatchClient::connect(addr).and_then(|mut client| client.stats());
        served.send(stats.map(|stats| stats.version)).unwrap();
    });
    let version = answer.recv_timeout(Duration::from_secs(30)).expect("the next client is served");
    assert_eq!(version.unwrap(), 1);
    next.join().unwrap();
}

/// An answer that encodes past `MAX_FRAME` is refused before a byte of it
/// is written, so it is answered as an error and the connection keeps
/// serving — not dropped. 500 records share one email, so each probe on
/// it answers 500 hits (28 + 500 × 12 bytes), and a legal batch of 3 000
/// such probes (87 kB of request) asks for 18 MB of answer.
#[test]
fn tcp_oversized_answer_is_an_error_frame_not_a_disconnect() {
    let handle = serve(people_server(), "127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(handle.addr()).unwrap();
    let email = Some("shared@example.org".to_owned());
    let items = (0..500).map(|id| (id, vec![None, None, email.clone()])).collect();
    assert!(matches!(
        client.request(&Request::UpsertBatch { items }).unwrap(),
        Response::UpsertBatch { .. }
    ));
    let probes = vec![vec![None, None, email]; 3_000];
    match client.request(&Request::QueryBatch { probes }).unwrap() {
        Response::Error { message } => assert!(message.contains("exceeds"), "{message}"),
        Response::QueryBatch(answers) => panic!("{} answers fit in one frame", answers.len()),
        _ => panic!("expected an error frame"),
    }
    assert_eq!(client.stats().unwrap().version, 1, "the connection still answers");
}
