//! The five serving workloads: `wire_read`, `big_read`, `names_batch`,
//! `mixed_rw`, `rule_swap`. All loops are closed: a client issues its
//! next request only when the previous one has been answered.

use crate::batch::parser_layer;
use crate::harness::{
    execute, repetition, set_layers, warm_up, Ctx, Layers, Rep, WindowOut, Workload,
    WorkloadResult, INLINE,
};
use crate::inputs::{
    exec, extended_serving, names_serving, perturbed, prefix, ServingInputs, Skewed, HOT_SET,
    ORACLE_SAMPLE, RULES_A, RULES_B,
};
use crate::stats::{median_ns, percentile, SplitMix};
use crate::trace::{self_times, Tracer};
use matchrules::data::value::Value;
use matchrules::engine::{EngineBuilder, MatchEngine, MatchIndex};
use matchrules::server::net::serve_with;
use matchrules::server::wire::{WireHit, WireQuery};
use matchrules::server::{MatchClient, MatchServer, Request, Response, ServerConfig, ServerHandle};
use matchrules::service::{QueryResponse, Record, RecordId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Probes per pool: enough distinct probes that a window never cycles a
/// handful of hot posting lists and the pool's mean cost barely moves
/// with the seed, few enough to precompute every answer. The 36 000-record
/// store of `big_read` answers 4x slower, so its pool is half the size.
const POOL: usize = 4096;
const BIG_POOL: usize = 2048;
/// Probes the traced pass replays through the layers one by one: all of
/// `big_read`'s pool, so the replay draws from the probes its window does.
const LAYER_SAMPLE: usize = 2048;
/// Span of the layer probe that queries through a `T`-thread executor.
const FANNED: &str = "server.core.query.fanned";
/// Ids at and above this are written during `mixed_rw`; answers are
/// compared on the base (never-written) records below it.
const FRESH_BASE: u64 = 1 << 40;

/// An order-independent digest of a hit list restricted to base records:
/// equal hit sets (id + fired key) give equal digests.
fn hits_digest(hits: impl Iterator<Item = (u64, usize)>) -> u64 {
    hits.filter(|&(id, _)| id < FRESH_BASE)
        .map(|(id, key)| SplitMix(id ^ (key as u64).rotate_left(48)).next_u64() | 1)
        .fold(0u64, u64::wrapping_add)
}

fn sorted_hits(hits: impl Iterator<Item = (u64, usize)>) -> Vec<(u64, usize)> {
    let mut hits: Vec<_> = hits.collect();
    hits.sort_unstable();
    hits
}

/// What every repetition and probe of one serving workload shares.
struct Fixture {
    inputs: ServingInputs,
    /// Compiled once, for the gate and the layer probes; repetitions
    /// compile their own.
    engine: MatchEngine,
    /// The harness-built single index over the whole store: the
    /// reference every server answer is compared to, and the traced
    /// pass's view of `matcher::index` without `server::core` around it.
    index: MatchIndex,
    /// Per pool probe, the digest of its expected hits.
    expected: Vec<u64>,
}

impl Fixture {
    fn new(inputs: ServingInputs, threads: usize) -> Fixture {
        let engine = inputs.plan.compile(threads);
        let index = engine.index(&inputs.store.relation).expect("store ids are unique");
        let expected = expected_digests(&index, &inputs);
        Fixture { inputs, engine, index, expected }
    }

    fn pool(&self) -> usize {
        self.inputs.probes.len()
    }

    /// Compile plan + bulk load: the measured part of every set-up.
    fn fresh_server(&self, shards: usize, cache: usize) -> MatchServer {
        let engine = self.inputs.plan.compile(INLINE);
        let config = ServerConfig { shards, cache_capacity: cache, exec: exec(INLINE) };
        let server = MatchServer::with_config(engine, config);
        server.upsert_batch(&self.inputs.store.batch).expect("fresh ids insert");
        server
    }

    /// The correctness gate: on the fixed oracle sample, the nested-loop
    /// `match_all` (no candidate generation), the single index and the
    /// workload's own server must agree hit for hit (id + fired key).
    fn gate(
        &self,
        engine: &MatchEngine,
        index: &MatchIndex,
        server: &MatchServer,
    ) -> Result<String, String> {
        let probes = &self.inputs.probes;
        let sample = prefix(&probes.relation, ORACLE_SAMPLE);
        let n = sample.len();
        let report =
            engine.match_all(&sample, &self.inputs.store.relation).map_err(|e| e.to_string())?;
        let mut oracle: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n];
        for p in report.pairs() {
            oracle[p.left].push((p.right_id, p.key));
        }
        let mut hits = 0;
        for (i, want) in oracle.iter_mut().enumerate() {
            want.sort_unstable();
            hits += want.len();
            let indexed =
                sorted_hits(index.query(probes.tuple(i)).hits.iter().map(|h| (h.id, h.key)));
            if &indexed != want {
                return Err(format!("probe {i}: index {indexed:?} != match_all {want:?}"));
            }
            let response = server.query(&probes.records[i]).map_err(|e| e.to_string())?;
            let served = sorted_hits(response.hits.iter().map(|h| (h.id.0, h.key)));
            if &served != want {
                return Err(format!("probe {i}: server {served:?} != match_all {want:?}"));
            }
        }
        Ok(format!("{n} probes, {hits} hits agree with match_all"))
    }
}

fn expected_digests(index: &MatchIndex, inputs: &ServingInputs) -> Vec<u64> {
    (0..inputs.probes.len())
        .map(|i| {
            hits_digest(index.query(inputs.probes.tuple(i)).hits.iter().map(|h| (h.id, h.key)))
        })
        .collect()
}

/// Whether a served answer's base-record hits are the expected ones.
fn agrees(response: &QueryResponse, want: u64) -> bool {
    hits_digest(response.hits.iter().map(|h| (h.id.0, h.key))) == want
}

fn pin(fx: &Fixture, extra: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let mut config = vec![
        ("records", fx.inputs.store.batch.len() as f64),
        ("probe_pool", fx.pool() as f64),
        ("rcks", fx.engine.plan().rcks().len() as f64),
        ("server_threads", INLINE as f64),
    ];
    config.extend_from_slice(extra);
    config
}

// ---------------------------------------------------------------------
// Layer probes shared by the serving workloads (traced pass only)
// ---------------------------------------------------------------------

/// Per-class latencies of the traced repetition.
fn read_class(table: &mut Layers, tracer: &Tracer, read: &str) {
    let sorted = tracer.sorted(read);
    if sorted.is_empty() {
        return;
    }
    set_layers(table, &[("op.read_p50_us", median_ns(&sorted) / 1e3)]);
    if let Some(p99) = percentile(&sorted, 0.99) {
        set_layers(table, &[("op.read_p99_us", p99 as f64 / 1e3)]);
    }
}

/// `matcher::index` and `server::core` from outside: retrieval alone
/// (`candidates_for`), retrieval + verify (`query`) on the single index,
/// then the same probes through a fresh server of the workload's shape,
/// and — with more than one shard and hardware thread — through one
/// whose executor fans out over `hardware` threads. Returns
/// `server.core.query_us`.
fn index_layers(
    fx: &Fixture,
    table: &mut Layers,
    t: &mut Tracer,
    shards: usize,
    hardware: usize,
) -> f64 {
    let inputs = &fx.inputs;
    t.time("engine.compile", 0, None, || inputs.plan.compile(INLINE));
    let index = t.time("matcher.index.build", 0, None, || {
        fx.engine.index(&inputs.store.relation).expect("store ids are unique")
    });
    let server_with = |threads: usize| {
        let config = ServerConfig { shards, cache_capacity: 0, exec: exec(threads) };
        MatchServer::with_config(inputs.plan.compile(threads), config)
    };
    let server = server_with(INLINE);
    t.time("server.core.upsert_batch", 0, None, || {
        server.upsert_batch(&inputs.store.batch).expect("fresh ids insert")
    });

    let fanned = (shards > 1 && hardware > 1).then(|| {
        let fanned = server_with(hardware);
        fanned.upsert_batch(&inputs.store.batch).expect("fresh ids insert");
        fanned
    });
    // One pass per call over the whole sample, so each call meets a
    // probe as cold as the timed window's random draws do (back-to-back
    // calls on one probe would hand the second a warm cache).
    let n = LAYER_SAMPLE.min(fx.pool());
    let (mut candidates, mut hits) = (0usize, 0usize);
    let mut stats = matchrules::engine::FilterStats::default();
    for i in 0..n {
        t.time("matcher.index.retrieve", i as u64, None, || {
            index.candidates_for(inputs.probes.tuple(i))
        });
    }
    for i in 0..n {
        let outcome =
            t.time("matcher.index.query", i as u64, None, || index.query(inputs.probes.tuple(i)));
        candidates += outcome.candidates;
        hits += outcome.hits.len();
        stats.merge(&outcome.stats);
    }
    for (name, server) in [("server.core.query", Some(&server)), (FANNED, fanned.as_ref())] {
        let Some(server) = server else { continue };
        for i in 0..n {
            t.time(name, i as u64, None, || server.query(&inputs.probes.records[i]))
                .expect("probe schema checked");
        }
    }
    let us = |name: &str| t.median_us(name).expect("span ran");
    let (retrieve, query, core) =
        (us("matcher.index.retrieve"), us("matcher.index.query"), us("server.core.query"));
    let shape = index.stats();
    let blocks = (stats.blocks_decoded + stats.blocks_skipped).max(1);
    let per_query = |count: u64| count as f64 / n as f64;
    set_layers(
        table,
        &[
            ("engine.compile_ms", us("engine.compile") / 1e3),
            ("matcher.index.build_s", us("matcher.index.build") / 1e6),
            (
                "server.core.bulk_load_records_per_s",
                inputs.store.batch.len() as f64 / (us("server.core.upsert_batch") / 1e6),
            ),
            ("matcher.index.retrieve_us", retrieve),
            ("matcher.index.query_us", query),
            ("matcher.index.verify_us", (query - retrieve).max(0.0)),
            ("matcher.index.candidates_per_query", candidates as f64 / n as f64),
            ("matcher.index.hits_per_candidate", hits as f64 / candidates.max(1) as f64),
            ("matcher.index.gallop_steps_per_query", per_query(stats.gallop_steps)),
            ("matcher.index.retrieval_rejects_per_query", per_query(stats.retrieval_rejects)),
            ("matcher.postings.blocks_decoded_per_query", per_query(stats.blocks_decoded)),
            ("matcher.postings.blocks_skipped_frac", stats.blocks_skipped as f64 / blocks as f64),
            (
                "matcher.postings.bytes_per_record",
                shape.postings_bytes as f64 / shape.live.max(1) as f64,
            ),
            ("server.core.query_us", core),
            ("server.core.self_us", core - query),
        ],
    );
    // Absent with one shard or one hardware thread: there is no fan-out
    // to compare, and a made-up 1.0 would read as "shards cost nothing".
    if let Some(fanned) = t.median_us(FANNED) {
        set_layers(table, &[("server.core.fanout_ratio", fanned / query)]);
    }
    core
}

/// `1 − Σ layer self-times ÷ end-to-end p50`: how much of the measured
/// latency no layer span accounts for.
fn unattributed(table: &mut Layers, untraced: &Rep, primary: &str, attributed_us: f64) {
    let p50_us = median_ns(&untraced.tracer.sorted(primary)) / 1e3;
    set_layers(table, &[("trace.unattributed_frac", 1.0 - attributed_us / p50_us)]);
}

// ---------------------------------------------------------------------
// wire_read
// ---------------------------------------------------------------------

fn request_of(probe: &Record) -> Request {
    Request::Query {
        values: probe.values().iter().map(|v| v.as_str().map(str::to_owned)).collect(),
    }
}

fn wire_digest(response: &Response) -> Option<u64> {
    match response {
        Response::Query(q) => Some(hits_digest(q.hits.iter().map(|h| (h.id, h.key as usize)))),
        _ => None,
    }
}

/// Serves `server` on a loopback port and connects `clients` blocking
/// clients. A connection holds its server worker for as long as it is
/// open and `connect` waits for a worker's handshake answer, so the
/// worker cap must exceed the client count — `serve`'s default of
/// `max(4, 2 × executor threads)` would leave the fifth client of an
/// [`INLINE`] server waiting forever. Two spare workers take the traced
/// pass's connect probes.
fn open_wire(server: Arc<MatchServer>, clients: usize) -> (ServerHandle, Vec<MatchClient>) {
    let handle = serve_with(server, "127.0.0.1:0", clients + 2).expect("loopback binds");
    let conns = (0..clients)
        .map(|_| MatchClient::connect(handle.addr()).expect("loopback connects"))
        .collect();
    (handle, conns)
}

pub fn wire_read(ctx: &Ctx) -> WorkloadResult {
    let fx = Fixture::new(extended_serving(5_000, POOL, ctx.seed), ctx.threads);
    // One blocking client per hardware thread. Each waits while its
    // connection worker computes the answer, so at most T threads are
    // ever busy — and all T stay busy. With the issue's T/2 clients a core
    // idles between requests and every hop pays an idle wake-up: ten seeds
    // of one client on two threads spread (IQR / median) by 27 % in
    // `ops_per_s` and 22 % in `p50_us`, against 3-6 % saturated.
    let clients = ctx.threads;
    let requests: Vec<Request> = fx.inputs.probes.records.iter().map(request_of).collect();
    let gate = {
        let server = fx.fresh_server(1, 0);
        fx.gate(&fx.engine, &fx.index, &server)
    };

    let open = || {
        let server = Arc::new(fx.fresh_server(1, 0));
        let (handle, conns) = open_wire(server.clone(), clients);
        (server, handle, conns)
    };
    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let (server, handle, mut conns) = open();
                warm_up(|i| {
                    conns[0]
                        .request(&requests[i as usize % requests.len()])
                        .expect("warm-up answer");
                });
                (server, handle, conns)
            },
            |(_server, handle, conns), tracer| {
                let window = ctx.window();
                let per_client: Vec<(Tracer, u64, u64)> = thread::scope(|scope| {
                    let handles: Vec<_> = conns
                        .into_iter()
                        .enumerate()
                        .map(|(c, mut client)| {
                            let (requests, expected) = (&requests, &fx.expected);
                            scope.spawn(move || {
                                let mut t = Tracer::new(traced);
                                let mut rng = SplitMix(ctx.seed ^ ((c as u64) << 32));
                                let (mut attempted, mut failed) = (0u64, 0u64);
                                let deadline = Instant::now() + window;
                                while Instant::now() < deadline {
                                    let i = rng.below(requests.len());
                                    let op = ((c as u64) << 32) | attempted;
                                    let answer = t.time("client.request", op, None, || {
                                        client.request(&requests[i])
                                    });
                                    let ok = answer
                                        .ok()
                                        .and_then(|r| wire_digest(&r))
                                        .is_some_and(|d| d == expected[i]);
                                    attempted += 1;
                                    failed += !ok as u64;
                                }
                                (t, attempted, failed)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("client thread")).collect()
                });
                handle.shutdown();
                let mut out = WindowOut::default();
                for (t, attempted, failed) in per_client {
                    tracer.absorb(t);
                    out.attempted += attempted;
                    out.failed += failed;
                }
                out.ops = (out.attempted - out.failed) as f64;
                out
            },
        )
    };

    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, probes: &mut Tracer| {
        read_class(table, &traced.tracer, "client.request");
        index_layers(&fx, table, probes, 1, ctx.threads);
        let round_trip_us = traced.tracer.median_us("client.request").expect("window ran");
        // net + the four codec steps + the in-process query (which
        // index_layers splits into core.self + index retrieve + verify).
        let budget_us = wire_layers(&requests, round_trip_us, table, probes, &open);
        unattributed(table, untraced, "client.request", budget_us);
    };

    execute(
        ctx,
        Workload {
            name: "wire_read",
            inputs_digest: fx.inputs.digest,
            config: pin(&fx, &[("clients", clients as f64), ("shards", 1.0), ("cache", 0.0)]),
            primary: "client.request",
            quality: Vec::new(),
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}

/// Replays sampled requests step by step in-process: encode → decode →
/// query → encode → decode, the steps a round trip makes on both ends.
/// The traced window's median round trip minus the median of the
/// replayed steps is what `server::net` (sockets, framing, the worker
/// hand-off) costs under the window's own load. Returns net + codec +
/// replayed query µs — the wire budget of one round trip.
fn wire_layers(
    requests: &[Request],
    round_trip_us: f64,
    table: &mut Layers,
    t: &mut Tracer,
    open: &dyn Fn() -> (Arc<MatchServer>, ServerHandle, Vec<MatchClient>),
) -> f64 {
    let (server, handle, conns) = open();
    // Free the window's connections first: each connect below needs a
    // worker of its own for the handshake.
    drop(conns);
    for op in 0..20 {
        t.time("server.net.connect", op, None, || {
            MatchClient::connect(handle.addr()).expect("loopback connects")
        });
    }
    handle.shutdown();

    let n = LAYER_SAMPLE.min(requests.len());
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (i, request) in requests.iter().enumerate().take(n) {
        let op = i as u64;
        let replay = t.open("wire.replay", op, None);
        let body = t.time("server.wire.encode_req", op, Some(replay), || request.encode());
        let decoded = t.time("server.wire.decode_req", op, Some(replay), || {
            Request::decode(&body).expect("own encoding decodes")
        });
        let answer = t.time("wire.replay.query", op, Some(replay), || {
            let Request::Query { values } = decoded else { unreachable!("a query was encoded") };
            let values = values.into_iter().map(|v| v.map_or(Value::Null, Value::from)).collect();
            let probe =
                Record::from_values(server.probe_schema(), values).expect("arity travels intact");
            server.query(&probe).expect("probe schema checked")
        });
        let response = Response::Query(WireQuery {
            hits: answer.hits.iter().map(|h| WireHit { id: h.id.0, key: h.key as u32 }).collect(),
            candidates: answer.candidates as u64,
            key_evals: answer.key_evals as u64,
            version: answer.version.number(),
        });
        let out = t.time("server.wire.encode_resp", op, Some(replay), || response.encode());
        t.time("server.wire.decode_resp", op, Some(replay), || {
            Response::decode(&out).expect("own encoding decodes")
        });
        t.close("wire.replay", replay);
        req_bytes += body.len();
        resp_bytes += out.len();
    }

    // The replayed steps are the replay span's children: its duration
    // minus its self time (harness glue, which belongs to no layer).
    let mut steps_ns: Vec<u64> = t
        .spans
        .iter()
        .zip(self_times(&t.spans))
        .filter(|(span, _)| span.name == "wire.replay")
        .map(|(span, own)| span.end_ns - span.start_ns - own)
        .collect();
    steps_ns.sort_unstable();
    let steps_us = median_ns(&steps_ns) / 1e3;
    let net_us = round_trip_us - steps_us;
    let us = |name: &str| t.median_us(name).expect("span ran");
    set_layers(
        table,
        &[
            ("server.net.self_us", net_us),
            ("server.net.connect_us", us("server.net.connect")),
            ("server.wire.encode_req_us", us("server.wire.encode_req")),
            ("server.wire.decode_req_us", us("server.wire.decode_req")),
            ("server.wire.encode_resp_us", us("server.wire.encode_resp")),
            ("server.wire.decode_resp_us", us("server.wire.decode_resp")),
            ("server.wire.req_bytes", req_bytes as f64 / n as f64),
            ("server.wire.resp_bytes", resp_bytes as f64 / n as f64),
        ],
    );
    net_us + steps_us
}

// ---------------------------------------------------------------------
// big_read and names_batch
// ---------------------------------------------------------------------

pub fn big_read(ctx: &Ctx) -> WorkloadResult {
    let fx = Fixture::new(extended_serving(20_000, BIG_POOL, ctx.seed), ctx.threads);
    let shards = ctx.threads;
    let gate = {
        let server = fx.fresh_server(shards, 0);
        fx.gate(&fx.engine, &fx.index, &server)
    };
    let probes = &fx.inputs.probes.records;
    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let server = fx.fresh_server(shards, 0);
                warm_up(|i| {
                    server.query(&probes[i as usize % probes.len()]).expect("warm-up answer");
                });
                server
            },
            |server, t| {
                let mut rng = SplitMix(ctx.seed);
                let mut out = WindowOut::default();
                let deadline = Instant::now() + ctx.window();
                while Instant::now() < deadline {
                    let i = rng.below(probes.len());
                    let answer = t.time("server.core.query", out.attempted, None, || {
                        server.query(&probes[i])
                    });
                    let ok = answer.is_ok_and(|r| agrees(&r, fx.expected[i]));
                    out.attempted += 1;
                    out.failed += !ok as u64;
                }
                out.ops = (out.attempted - out.failed) as f64;
                out
            },
        )
    };
    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, probes: &mut Tracer| {
        read_class(table, &traced.tracer, "server.core.query");
        let core_us = index_layers(&fx, table, probes, shards, ctx.threads);
        unattributed(table, untraced, "server.core.query", core_us);
    };
    execute(
        ctx,
        Workload {
            name: "big_read",
            inputs_digest: fx.inputs.digest,
            config: pin(&fx, &[("clients", 1.0), ("shards", shards as f64), ("cache", 0.0)]),
            primary: "server.core.query",
            quality: Vec::new(),
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}

/// Probes per `query_batch` call.
const BATCH: usize = 64;

pub fn names_batch(ctx: &Ctx) -> WorkloadResult {
    let fx = Fixture::new(names_serving(20_000, POOL, ctx.seed), ctx.threads);
    let gate = {
        let server = fx.fresh_server(1, 0);
        fx.gate(&fx.engine, &fx.index, &server)
    };
    // Batches are consecutive pool slices starting at a drawn offset (the
    // pool is already a seeded shuffle); the pool's head is repeated at
    // its tail so a batch that wraps is still one slice.
    let pool = fx.pool();
    let ring: Vec<Record> =
        fx.inputs.probes.records.iter().cycle().take(pool + BATCH).cloned().collect();
    let batch_at = |start: usize| (0..BATCH).map(move |k| (start + k) % pool);
    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let server = fx.fresh_server(1, 0);
                warm_up(|_| {
                    server.query_batch(&ring[..BATCH]).expect("warm-up answer");
                });
                server
            },
            |server, t| {
                let mut rng = SplitMix(ctx.seed);
                let mut out = WindowOut::default();
                let deadline = Instant::now() + ctx.window();
                while Instant::now() < deadline {
                    let start = rng.below(pool);
                    let call = out.attempted / BATCH as u64;
                    let answers = t.time("server.core.query_batch", call, None, || {
                        server.query_batch(&ring[start..start + BATCH])
                    });
                    out.attempted += BATCH as u64;
                    match answers {
                        Ok(answers) if answers.len() == BATCH => {
                            for (r, i) in answers.iter().zip(batch_at(start)) {
                                out.failed += !agrees(r, fx.expected[i]) as u64;
                            }
                        }
                        _ => out.failed += BATCH as u64,
                    }
                }
                out.ops = (out.attempted - out.failed) as f64;
                out
            },
        )
    };
    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, probes: &mut Tracer| {
        read_class(table, &traced.tracer, "server.core.query_batch");
        // A batch call is 64 probes through one shared prep: attribute
        // it to 64 single-probe queries and read the rest as batching.
        let single_us = index_layers(&fx, table, probes, 1, ctx.threads);
        unattributed(table, untraced, "server.core.query_batch", single_us * BATCH as f64);
    };
    execute(
        ctx,
        Workload {
            name: "names_batch",
            inputs_digest: fx.inputs.digest,
            config: pin(
                &fx,
                &[("clients", 1.0), ("shards", 1.0), ("cache", 0.0), ("batch", BATCH as f64)],
            ),
            primary: "server.core.query_batch",
            quality: Vec::new(),
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}

// ---------------------------------------------------------------------
// mixed_rw
// ---------------------------------------------------------------------

/// Fresh records kept alive before removes start: the store stays at its
/// base size plus at most this many.
const FRESH_WINDOW: usize = 32;
const CACHE: usize = 4096;

pub fn mixed_rw(ctx: &Ctx) -> WorkloadResult {
    let fx = Fixture::new(extended_serving(5_000, POOL, ctx.seed), ctx.threads);
    let shards = ctx.threads;
    let gate = {
        let server = fx.fresh_server(shards, CACHE);
        fx.gate(&fx.engine, &fx.index, &server)
    };
    let probes = &fx.inputs.probes.records;
    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let server = fx.fresh_server(shards, CACHE);
                warm_up(|i| {
                    server.query(&probes[i as usize % HOT_SET]).expect("warm-up answer");
                });
                server
            },
            |server, t| {
                let mut skew = Skewed::new(ctx.seed, probes.len());
                let mut rng = SplitMix(ctx.seed ^ 0x3717E);
                let mut fresh: VecDeque<u64> = VecDeque::new();
                let mut next_fresh = FRESH_BASE;
                let mut upsert_next = true;
                let mut out = WindowOut::default();
                let before = server.stats();
                let deadline = Instant::now() + ctx.window();
                while Instant::now() < deadline {
                    // A fixed schedule, not a drawn one: exactly every
                    // 50th op writes (2 %), reads alternate query/ranked.
                    // Writes are most of the time, so a drawn 2 % would
                    // move ops_per_s by its own sampling error.
                    let op = out.attempted;
                    let ok = if op % 50 == 49 {
                        // Alternate upsert / remove once the fresh window is full.
                        if upsert_next || fresh.len() < FRESH_WINDOW {
                            let record = perturbed(&fx.inputs.store, &mut rng);
                            let id = next_fresh;
                            next_fresh += 1;
                            fresh.push_back(id);
                            upsert_next = false;
                            t.time("server.core.upsert", op, None, || {
                                server.upsert(RecordId(id), &record)
                            })
                            .is_ok_and(|replaced| !replaced)
                        } else {
                            let id = fresh.pop_front().expect("window is full");
                            upsert_next = true;
                            t.time("server.core.remove", op, None, || server.remove(RecordId(id)))
                                .is_ok()
                        }
                    } else {
                        let (i, _) = skew.draw();
                        if op % 2 == 0 {
                            t.time("server.core.query", op, None, || server.query(&probes[i]))
                                .is_ok_and(|r| agrees(&r, fx.expected[i]))
                        } else {
                            // min_score 0 keeps every hit; top-10 may cut
                            // a long list, so compare only shorter ones.
                            t.time("server.core.query_ranked", op, None, || {
                                server.query_ranked(&probes[i], 10, 0.0)
                            })
                            .is_ok_and(|r| {
                                r.hits.len() >= 10
                                    || hits_digest(r.hits.iter().map(|h| (h.id.0, h.key)))
                                        == fx.expected[i]
                            })
                        }
                    };
                    out.attempted += 1;
                    out.failed += !ok as u64;
                }
                let after = server.stats();
                let writes = (after.upserts - before.upserts) + (after.removes - before.removes);
                let lookups = (after.cache_hits - before.cache_hits)
                    + (after.cache_misses - before.cache_misses);
                out.extra = vec![
                    (
                        "cache_hit_frac",
                        (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
                    ),
                    (
                        "invalidations_per_write",
                        (after.cache_invalidations - before.cache_invalidations) as f64
                            / writes.max(1) as f64,
                    ),
                ];
                out.ops = (out.attempted - out.failed) as f64;
                out
            },
        )
    };
    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, probes: &mut Tracer| {
        let t = &traced.tracer;
        read_class(table, t, "server.core.query");
        let mut writes = t.sorted("server.core.upsert");
        writes.extend(t.sorted("server.core.remove"));
        writes.sort_unstable();
        for (name, span) in [
            ("op.ranked_p50_us", "server.core.query_ranked"),
            ("server.core.upsert_us", "server.core.upsert"),
            ("server.core.remove_us", "server.core.remove"),
        ] {
            if let Some(us) = t.median_us(span) {
                set_layers(table, &[(name, us)]);
            }
        }
        if !writes.is_empty() {
            set_layers(table, &[("op.write_p50_us", median_ns(&writes) / 1e3)]);
        }
        if let Some(p90) = percentile(&writes, 0.90) {
            set_layers(table, &[("op.write_p90_us", p90 as f64 / 1e3)]);
        }
        set_layers(
            table,
            &[
                ("server.cache.hit_frac", traced.extra("cache_hit_frac").unwrap_or(0.0)),
                (
                    "server.cache.invalidations_per_write",
                    traced.extra("invalidations_per_write").unwrap_or(0.0),
                ),
            ],
        );
        let core_us = index_layers(&fx, table, probes, shards, ctx.threads);
        cache_layers(&fx, table, probes, shards);
        // The median op of the mix is a read: attribute it as one.
        unattributed(table, untraced, MIXED_OP, core_us);
    };
    execute(
        ctx,
        Workload {
            name: "mixed_rw",
            inputs_digest: fx.inputs.digest,
            config: pin(
                &fx,
                &[("clients", 1.0), ("shards", shards as f64), ("cache", CACHE as f64)],
            ),
            primary: MIXED_OP,
            quality: Vec::new(),
            gate,
            rep: &|traced| merge_classes(rep(traced)),
            layers: &layers,
        },
    )
}

/// The span name the mixed workload's ops are pooled under for `p50_us`.
const MIXED_OP: &str = "mixed_rw.op";

/// Pools every class of the mix under [`MIXED_OP`], so `p50_us` is the
/// median over all ops of the mix (reads, ranked reads and writes).
fn merge_classes(mut rep: Rep) -> Rep {
    let all: Vec<u64> = rep.tracer.lat.values().flatten().copied().collect();
    rep.tracer.lat.insert(MIXED_OP, all);
    rep
}

/// Cache hit and miss cost, and what ranking adds, on a cached server:
/// after one write strands every entry, the sample is queried (all
/// misses), ranked (all misses in the ranked cache, probes as cold as in
/// the first pass), then queried again (all hits).
fn cache_layers(fx: &Fixture, table: &mut Layers, t: &mut Tracer, shards: usize) {
    let server = fx.fresh_server(shards, CACHE);
    let sample = &fx.inputs.probes.records[..LAYER_SAMPLE.min(CACHE / 2).min(fx.pool())];
    let mut rng = SplitMix(1);
    server.upsert(RecordId(FRESH_BASE), &perturbed(&fx.inputs.store, &mut rng)).expect("fresh id");
    for (op, probe) in sample.iter().enumerate() {
        t.time("server.cache.miss", op as u64, None, || server.query(probe))
            .expect("schema checked");
    }
    for (op, probe) in sample.iter().enumerate() {
        t.time("server.cache.ranked_miss", op as u64, None, || server.query_ranked(probe, 10, 0.0))
            .expect("schema checked");
    }
    for (op, probe) in sample.iter().enumerate() {
        t.time("server.cache.hit", op as u64, None, || server.query(probe))
            .expect("schema checked");
    }
    let us = |name: &str| t.median_us(name).expect("span ran");
    set_layers(
        table,
        &[
            ("server.cache.miss_us", us("server.cache.miss")),
            ("server.cache.hit_us", us("server.cache.hit")),
            (
                "matcher.scoring.ranked_extra_us",
                us("server.cache.ranked_miss") - us("server.cache.miss"),
            ),
        ],
    );
}

// ---------------------------------------------------------------------
// rule_swap
// ---------------------------------------------------------------------

/// Cadence of the control thread's `swap_rules` calls.
const SWAP_EVERY: Duration = Duration::from_millis(250);

pub fn rule_swap(ctx: &Ctx) -> WorkloadResult {
    let fx = Fixture::new(extended_serving(5_000, POOL, ctx.seed), ctx.threads);
    let shards = ctx.threads;
    // Rule set B as the server will compile it: the serving plan's
    // schema/operator world, fresh rules.
    let engine_b = EngineBuilder::from_plan(fx.engine.plan())
        .operators(fx.engine.registry().clone())
        .md_text(RULES_B)
        .build()
        .expect("rule set B compiles");
    let index_b = engine_b.index(&fx.inputs.store.relation).expect("store ids are unique");
    let expected_b = expected_digests(&index_b, &fx.inputs);
    let probes = &fx.inputs.probes.records;
    let gate = {
        let server = fx.fresh_server(shards, 0);
        fx.gate(&fx.engine, &fx.index, &server).and_then(|a| {
            server.swap_rules(RULES_B).map_err(|e| e.to_string())?;
            let b = fx.gate(&engine_b, &index_b, &server)?;
            server.swap_rules(RULES_A).map_err(|e| e.to_string())?;
            fx.gate(&fx.engine, &fx.index, &server)?;
            Ok(format!("rules A: {a}; rules B: {b}; A again after two swaps"))
        })
    };

    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let server = fx.fresh_server(shards, 0);
                warm_up(|i| {
                    server.query(&probes[i as usize % probes.len()]).expect("warm-up answer");
                });
                server
            },
            |server, t| {
                let swapping = AtomicBool::new(false);
                let window = ctx.window();
                let (control, mut out) = thread::scope(|scope| {
                    let control = scope.spawn(|| {
                        let mut t = Tracer::new(traced);
                        let started = Instant::now();
                        let mut swaps = 0u64;
                        let mut refused = 0u64;
                        loop {
                            // Absolute schedule: a slow swap delays the
                            // next one, it does not shift the cadence.
                            let due = SWAP_EVERY * (swaps as u32 + 1);
                            if due >= window {
                                break;
                            }
                            thread::sleep(due.saturating_sub(started.elapsed()));
                            // Versions: 1 = A (initial), 2 = B, 3 = A, …
                            let text = if swaps.is_multiple_of(2) { RULES_B } else { RULES_A };
                            swapping.store(true, Ordering::SeqCst);
                            let version = t.time("server.core.swap_rules", swaps, None, || {
                                server.swap_rules(text)
                            });
                            swapping.store(false, Ordering::SeqCst);
                            swaps += 1;
                            refused += !version.is_ok_and(|v| v.number() == swaps + 1) as u64;
                        }
                        (t, swaps, refused)
                    });
                    let mut rng = SplitMix(ctx.seed);
                    let mut out = WindowOut::default();
                    let mut in_swap: Vec<u64> = Vec::new();
                    let deadline = Instant::now() + window;
                    while Instant::now() < deadline {
                        let i = rng.below(probes.len());
                        let during = swapping.load(Ordering::SeqCst);
                        let span = t.open("server.core.query", out.attempted, None);
                        let answer = server.query(&probes[i]);
                        let ns = t.close("server.core.query", span);
                        if during && swapping.load(Ordering::SeqCst) {
                            in_swap.push(ns);
                        }
                        // Odd versions serve rules A, even ones rules B.
                        let ok = answer.is_ok_and(|r| {
                            let want = if r.version.number() % 2 == 1 {
                                &fx.expected
                            } else {
                                &expected_b
                            };
                            agrees(&r, want[i])
                        });
                        out.attempted += 1;
                        out.failed += !ok as u64;
                    }
                    in_swap.sort_unstable();
                    out.extra.push(("reads_in_swap", in_swap.len() as f64));
                    if let Some(p99) = percentile(&in_swap, 0.99) {
                        out.extra.push(("read_p99_in_swap_us", p99 as f64 / 1e3));
                    }
                    (control.join().expect("control thread"), out)
                });
                let (control_tracer, swaps, refused) = control;
                t.absorb(control_tracer);
                out.ops = (out.attempted - out.failed) as f64;
                out.attempted += swaps;
                out.failed += refused;
                out.extra.push(("swaps", swaps as f64));
                out
            },
        )
    };
    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, probes: &mut Tracer| {
        let t = &traced.tracer;
        read_class(table, t, "server.core.query");
        if let Some(us) = t.median_us("server.core.swap_rules") {
            set_layers(table, &[("op.swap_p50_ms", us / 1e3), ("server.core.swap_s", us / 1e6)]);
        }
        for (name, key) in [
            ("server.core.reads_in_swap", "reads_in_swap"),
            ("server.core.read_p99_in_swap_us", "read_p99_in_swap_us"),
        ] {
            if let Some(v) = traced.extra(key) {
                set_layers(table, &[(name, v)]);
            }
        }
        let core_us = index_layers(&fx, table, probes, shards, ctx.threads);
        unattributed(table, untraced, "server.core.query", core_us);
        parser_layer(table, probes);
        refine_layer(&fx, table, probes, shards);
    };
    execute(
        ctx,
        Workload {
            name: "rule_swap",
            inputs_digest: fx.inputs.digest,
            config: pin(
                &fx,
                &[
                    ("clients", 1.0),
                    ("control_threads", 1.0),
                    ("shards", shards as f64),
                    ("cache", 0.0),
                    ("swap_every_ms", SWAP_EVERY.as_millis() as f64),
                ],
            ),
            primary: "server.core.query",
            quality: Vec::new(),
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}

/// Labeled pairs handed to `submit_labels` before the one `refine`.
const REFINE_LABELS: usize = 1_500;

/// One `submit_labels` + `refine` on labels from the generator's truth.
/// Informational: no end-to-end metric moves with it.
fn refine_layer(fx: &Fixture, table: &mut Layers, t: &mut Tracer, shards: usize) {
    let crate::inputs::PlanSource::Extended { data, .. } = &fx.inputs.plan else { return };
    let server = fx.fresh_server(shards, 0);
    let labels: Vec<(Record, Record, bool)> = data
        .truth
        .labeled_pairs(2)
        .into_iter()
        .take(REFINE_LABELS)
        .map(|(c, b, is_match)| {
            let left = Record::from_values(
                server.probe_schema(),
                data.credit.tuples()[c].values().to_vec(),
            );
            let right = Record::from_values(
                server.store_schema(),
                data.billing.tuples()[b].values().to_vec(),
            );
            (left.expect("credit row"), right.expect("billing row"), is_match)
        })
        .collect();
    let refined = t.time("refine.run", 0, None, || {
        server.submit_labels(&labels).and_then(|_| server.refine(1.0))
    });
    if refined.is_ok() {
        set_layers(table, &[("refine.run_s", t.median_us("refine.run").expect("ran") / 1e6)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `serve`'s default worker cap is 4 for an [`INLINE`] server; the
    /// fixture server must take more clients than that, all answered.
    #[test]
    fn wire_fixture_serves_more_than_four_clients() {
        let fx = Fixture::new(extended_serving(60, 40, 7), 1);
        let server = Arc::new(fx.fresh_server(1, 0));
        let (handle, mut conns) = open_wire(server, 6);
        assert_eq!(conns.len(), 6);
        for (i, client) in conns.iter_mut().enumerate() {
            let answer = client.request(&request_of(&fx.inputs.probes.records[i])).unwrap();
            assert_eq!(wire_digest(&answer), Some(fx.expected[i]));
        }
        // The traced pass's connect probes run after the window's
        // connections are dropped, one at a time.
        drop(conns);
        for _ in 0..8 {
            MatchClient::connect(handle.addr()).expect("a spare worker takes the handshake");
        }
        handle.shutdown();
    }
}
