//! The MatchServer contract, end to end:
//!
//! * the server answers every probe hit-for-hit identically to the batch
//!   `match_pairs_indexed` path over its store, at 1, 2 and 8 threads,
//!   and keeps the store in arrival order — including across a
//!   mid-stream `swap_rules`, replacements and removals (proptest);
//! * every served answer is byte-identical, work counters included, to
//!   a `MatchIndex` built over the server's own snapshot;
//! * two concurrent writers racing a swapper lose no update;
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
use matchrules::data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::engine::{EngineBuilder, ExecConfig, Preset};
use matchrules::server::net::{serve, serve_with};
use matchrules::server::wire::{read_response, write_frame};
use matchrules::server::{ClientError, MatchClient, MatchServer, Request, Response, ServerConfig};
use matchrules::service::{Record, RecordId};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

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

fn extended_server(threads: usize) -> MatchServer {
    let engine = Preset::Extended.builder().top_k(5).threads(threads).build().unwrap();
    MatchServer::with_config(
        engine,
        ServerConfig { exec: ExecConfig::fixed(threads), ..ServerConfig::default() },
    )
}

fn dirty(persons: usize, seed: u64) -> DirtyData {
    let shape = Preset::Extended.paper_setting();
    generate_dirty(&shape.pair, &shape.target, persons, &NoiseConfig { seed, ..Default::default() })
}

fn store_record(server: &MatchServer, t: &Tuple) -> Record {
    Record::from_values(server.store_schema(), t.values().to_vec()).unwrap()
}

/// Every probe must get hit-for-hit the answer (ids, fired keys, order)
/// the batch `match_pairs_indexed` path reports over the server's
/// store, and the store must hold exactly `expected_ids`, in that order.
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

    /// Servers on 1, 2 and 8 threads answer hit-for-hit like the batch
    /// path — and so like each other — through a full lifecycle: bulk
    /// upsert, rule swap, more upserts, a replacement and a removal.
    #[test]
    fn served_answers_equal_the_batch_path(seed in 0u64..100_000, persons in 8usize..20) {
        let data = dirty(persons, seed);
        let tuples = data.billing.tuples();
        let mid = tuples.len() / 2;
        let mut explanations = Vec::new();
        for threads in THREAD_SWEEP {
            let server = extended_server(threads);
            // The store order the operations below must produce: an
            // upsert (re-)enters at the end, a removal leaves a gap.
            let mut order: Vec<u64> = Vec::new();

            // Phase 1: bulk upsert the first half as one batch.
            let replaced = server.upsert_batch(&store_batch(&server, &tuples[..mid])).unwrap();
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

            // Explanations (rendered form included) agree across thread
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

fn store_batch(server: &MatchServer, tuples: &[Tuple]) -> Vec<(RecordId, Record)> {
    tuples.iter().map(|t| (RecordId(t.id()), store_record(server, t))).collect()
}

/// Every probe's served answer — single and batched — equals, byte for
/// byte and work counters included, a direct `MatchIndex` built over
/// `snapshot()`.
fn assert_served_equals_direct_index(server: &MatchServer, credit: &Relation) {
    let index = server.engine().index(&server.snapshot()).expect("the store indexes");
    let probes: Vec<Record> = (credit.tuples().iter())
        .map(|t| Record::from_values(server.probe_schema(), t.values().to_vec()).unwrap())
        .collect();
    let batched = server.query_batch(&probes).unwrap();
    for ((t, probe), from_batch) in credit.tuples().iter().zip(&probes).zip(&batched) {
        let direct = index.query(t);
        let served = server.query(probe).unwrap();
        let hits: Vec<(u64, usize)> = served.hits.iter().map(|h| (h.id.0, h.key)).collect();
        let expected: Vec<(u64, usize)> = direct.hits.iter().map(|h| (h.id, h.key)).collect();
        assert_eq!(hits, expected, "hits diverged for probe {}", t.id());
        assert_eq!(
            (served.candidates, served.key_evals, &served.stats),
            (direct.candidates, direct.key_evals, &direct.stats),
            "work counters diverged for probe {}",
            t.id()
        );
        assert_eq!(served.version, server.version());
        assert_eq!(&served, from_batch);
    }
}

/// The served work counters are the index's own: after a bulk load, and
/// again after churn (replacements, removals, fresh records) and
/// `compact()`, every answer equals a direct index over the snapshot.
#[test]
fn served_counters_equal_a_direct_index() {
    let data = dirty(60, 0xC0DE);
    let server = extended_server(2);
    let tuples = data.billing.tuples();
    server.upsert_batch(&store_batch(&server, tuples)).unwrap();
    assert_served_equals_direct_index(&server, &data.credit);

    for (k, t) in tuples.iter().enumerate().step_by(3) {
        let id = RecordId(t.id());
        match k % 2 {
            0 => server.remove(id).unwrap(),
            _ => assert!(server.upsert(id, &store_record(&server, &tuples[k / 2])).unwrap()),
        }
    }
    let fresh: Vec<(RecordId, Record)> = (tuples.iter().take(10).enumerate())
        .map(|(k, t)| (RecordId(1_000_000 + k as u64), store_record(&server, t)))
        .collect();
    server.upsert_batch(&fresh).unwrap();
    server.compact().unwrap();
    assert_served_equals_direct_index(&server, &data.credit);
}

/// Two writers upsert disjoint id sets one record at a time while a
/// third thread swaps the rules twice: no upsert is lost or doubled, the
/// counters add up, and the answers still equal the batch path.
#[test]
fn concurrent_writers_lose_no_update() {
    let data = dirty(80, 0x2417E);
    let server = extended_server(2);
    let tuples = data.billing.tuples();
    let (evens, odds): (Vec<&Tuple>, Vec<&Tuple>) = tuples.iter().partition(|t| t.id() % 2 == 0);
    let original = Preset::Extended.paper_setting().sigma;

    // Each writer sends its share in thirds; the barrier before the second
    // and third thirds releases a swap together with both writers, so
    // each swap starts while upserts are still to come.
    let barrier = Barrier::new(3);
    thread::scope(|scope| {
        for share in [&evens, &odds] {
            let (server, barrier) = (&server, &barrier);
            scope.spawn(move || {
                for third in 0..3 {
                    if third > 0 {
                        barrier.wait();
                    }
                    for t in &share[third * share.len() / 3..(third + 1) * share.len() / 3] {
                        let record = store_record(server, t);
                        assert!(!server.upsert(RecordId(t.id()), &record).unwrap());
                    }
                }
            });
        }
        barrier.wait();
        assert_eq!(server.swap_rules(SWAPPED_RULES).unwrap().number(), 2);
        barrier.wait();
        assert_eq!(server.swap_rules_with(original).unwrap().number(), 3);
    });

    let mut stored: Vec<u64> = server.snapshot().tuples().iter().map(Tuple::id).collect();
    let order = stored.clone();
    stored.sort_unstable();
    let mut sent: Vec<u64> = tuples.iter().map(Tuple::id).collect();
    sent.sort_unstable();
    assert_eq!(stored, sent, "every id present exactly once");
    assert_eq!(server.len(), tuples.len());
    assert_eq!(server.stats().upserts, tuples.len() as u64);
    assert_equivalent(&server, &data.credit, &order);
}

/// The pinned zero-downtime contract: while `swap_rules` rebuilds and
/// republishes the index, concurrent readers keep getting answers —
/// no errors, no torn versions, versions only ever move forward — and
/// some reads demonstrably complete *during* swap windows.
#[test]
fn swap_rules_has_zero_read_downtime() {
    let data = dirty(120, 0xD0C5);
    let server = Arc::new(extended_server(2));
    server.upsert_batch(&store_batch(&server, data.billing.tuples())).unwrap();

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
        // landed inside swap windows (each swap rebuilds the index over
        // 200+ records, a wide-open window; a handful of rounds is
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

/// A server deduplicating `people(name, phone, email)` on email.
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
        ServerConfig { exec: ExecConfig::fixed(1), ..ServerConfig::default() },
    ))
}

/// A raw connection that gives up on a silent server instead of hanging
/// the test.
fn raw_connection(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
}

/// Connects, retrying while the server refuses for want of a free
/// worker, until `within` has passed.
fn connect_within(addr: SocketAddr, within: Duration) -> MatchClient {
    let deadline = Instant::now() + within;
    loop {
        match MatchClient::connect(addr) {
            Ok(client) => return client,
            Err(ClientError::Server { .. }) if Instant::now() < deadline => {}
            Err(e) => panic!("no worker freed up within {within:?}: {e}"),
        }
    }
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
    assert_eq!(stats.shard_records, [2], "one entry: the record count");
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
    assert_eq!(second.stats().unwrap().shard_records, [1]);

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
/// that worker: the next client connects (refused only until the worker
/// has noticed the hang-up) and is served.
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
        let stats = connect_within(addr, Duration::from_secs(30)).stats();
        served.send(stats.map(|stats| stats.version)).unwrap();
    });
    let version = answer.recv_timeout(Duration::from_secs(30)).expect("the next client is served");
    assert_eq!(version.unwrap(), 1);
    next.join().unwrap();
}

/// With one worker taken, another client is refused at once with an
/// error naming the cap — not left waiting on its handshake — and is
/// served once the first client disconnects.
#[test]
fn tcp_client_beyond_the_cap_is_refused_then_served_after_a_disconnect() {
    let handle = serve_with(people_server(), "127.0.0.1:0", 1).unwrap();
    let first = MatchClient::connect(handle.addr()).unwrap();
    // The refused client runs on a thread, so a handshake that hangs
    // fails the test instead of hanging it.
    let addr = handle.addr();
    let (refused, answer) = mpsc::channel();
    let second = thread::spawn(move || refused.send(MatchClient::connect(addr).map(drop)).unwrap());
    match answer.recv_timeout(Duration::from_secs(30)).expect("the refusal is prompt") {
        Err(ClientError::Server { message }) => {
            assert!(message.contains("all 1 connection workers"), "{message}")
        }
        other => panic!("expected a busy refusal, got {other:?}"),
    }
    second.join().unwrap();
    drop(first);
    let mut client = connect_within(addr, Duration::from_secs(30));
    assert_eq!(client.stats().unwrap().version, 1);
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
