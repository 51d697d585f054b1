//! [`MatchServer`]: the one serving core — sharded, concurrent, and at
//! one shard the single-owner service.

use crate::engine::{
    schemas_compatible, EngineBuilder, FilterStats, MatchEngine, MatchIndex, MatchPlan,
    QueryOutcome,
};
use crate::refine::{LabelStore, RefineConfig, Refinement, RefinementReport, Refiner};
use crate::service::{
    MatchExplanation, QueryResponse, RankedResponse, Record, RecordBuilder, RecordId, RuleVersion,
    ScoredHit, ServiceError, ServiceHit,
};
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::schema::Schema;
use matchrules_data::relation::{Relation, Tuple};
use matchrules_runtime::{CowVec, EpochCell, EpochReader, ExecConfig, WorkPool};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Construction knobs of a [`MatchServer`]. The default is one shard per
/// executor thread on the default executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Number of shards the store and index are split into; `0` resolves
    /// to the executor's thread count (at least 1). More shards mean
    /// more mutation concurrency (writers serialize per shard), at the
    /// cost of fanning every probe out further; a write's own cost does
    /// not depend on shard size (snapshots are structurally shared).
    pub shards: usize,
    /// Inert: the server keeps no answer cache, so this is ignored. The
    /// field stays only because the benchmark harness still sets it.
    pub cache_capacity: usize,
    /// Thread budget for shard fan-out (probes, batch mutations, swap
    /// rebuilds) and for the TCP front's connection workers.
    pub exec: ExecConfig,
}

/// Routes a record id to its shard: a splitmix64 finalizer over the raw
/// id, reduced modulo the shard count. Dense sequential ids (the common
/// external-id shape) spread uniformly instead of striping.
fn shard_of(id: RecordId, shards: usize) -> usize {
    let mut x = id.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

fn check_schema(record: &Record, expected: &Arc<Schema>) -> Result<(), ServiceError> {
    if Arc::ptr_eq(record.schema(), expected) || schemas_compatible(record.schema(), expected) {
        Ok(())
    } else {
        Err(ServiceError::SchemaMismatch {
            expected: format!("{}/{}", expected.name(), expected.arity()),
            got: format!("{}/{}", record.schema().name(), record.schema().arity()),
        })
    }
}

/// Whether `refinement` may replace the rules of `serving`.
fn check_deployable(refinement: &Refinement, serving: &MatchPlan) -> Result<(), ServiceError> {
    if !refinement.extends(serving.ops()) {
        return Err(ServiceError::Refinement {
            message: "refinement's operator table does not extend the serving plan's \
                      (was it produced against a different server?)"
                .to_owned(),
        });
    }
    if refinement.rules.is_empty() {
        return Err(ServiceError::Refinement {
            message: "refinement selected no rules; refusing to deploy an empty rule set"
                .to_owned(),
        });
    }
    Ok(())
}

/// One shard's immutable state: its slice of the store inside a
/// [`MatchIndex`], plus — aligned with the index's slots — the global
/// arrival number of every record (assigned at upsert, across all
/// shards): what lets a fan-out query merge per-shard hits back into
/// store order.
///
/// A published snapshot is never mutated. A writer clones it (both
/// fields are structurally shared: refcounted spines, no data) and
/// mutates the clone, copying only the chunks and stripes it touches.
#[derive(Clone)]
struct ShardSnapshot {
    index: MatchIndex,
    seq: CowVec<u64>,
}

impl ShardSnapshot {
    /// Inserts or replaces `record` under `id`, stamped with arrival
    /// number `seq`; returns whether a replacement happened.
    fn upsert(&mut self, id: RecordId, record: &Record, seq: u64) -> Result<bool, ServiceError> {
        let replaced = self.index.contains(id.0);
        if replaced {
            self.index.remove(id.0)?;
        }
        self.index.insert(record.to_tuple(id.0))?;
        self.seq.push(seq);
        Ok(replaced)
    }

    /// The same live records, order and stamps re-indexed under `engine`
    /// (slots compacted).
    fn rebuilt(&self, engine: &MatchEngine) -> Result<ShardSnapshot, ServiceError> {
        let index = engine.index(&self.index.live_relation())?;
        let seq = self.index.live_tuples().map(|(slot, _)| self.seq[slot]).collect();
        Ok(ShardSnapshot { index, seq })
    }
}

/// One compiled rule set with its version stamp.
struct RuleEpoch {
    engine: MatchEngine,
    version: RuleVersion,
}

/// The whole server state as one immutable value: the current rules and
/// every shard snapshot. Published through a single [`EpochCell`], so
/// one load observes a *consistent* cross-shard view — a reader can
/// never see shard 0 at version 2 next to shard 1 at version 1.
struct ServerView {
    rules: Arc<RuleEpoch>,
    shards: Vec<Arc<ShardSnapshot>>,
}

impl ServerView {
    /// Merges one probe's per-shard outcomes (in shard order) into one
    /// answer: counters summed, hits in store order. Over one shard this
    /// is the identity on the shard's own (slot) order.
    fn merge<'a>(&self, outcomes: impl Iterator<Item = &'a QueryOutcome>) -> QueryResponse {
        let mut hits: Vec<(u64, ServiceHit)> = Vec::new();
        let mut candidates = 0;
        let mut key_evals = 0;
        let mut stats = FilterStats::default();
        for (shard, outcome) in self.shards.iter().zip(outcomes) {
            candidates += outcome.candidates;
            key_evals += outcome.key_evals;
            stats.merge(&outcome.stats);
            for h in &outcome.hits {
                hits.push((shard.seq[h.slot], ServiceHit { id: RecordId(h.id), key: h.key }));
            }
        }
        // Per-shard hits arrive in shard-local slot order; the global
        // arrival stamp restores the store order.
        hits.sort_unstable_by_key(|&(seq, _)| seq);
        let hits = hits.into_iter().map(|(_, h)| h).collect();
        QueryResponse { hits, candidates, key_evals, stats, version: self.rules.version }
    }
}

/// Which anchor kinds the serving plan's [`MatchIndex`] compiled, via
/// [`ServerStats::index`]: how many RCK atoms retrieve through key
/// buckets, q-gram postings or element postings — and how many keys fell
/// back to scans.
///
/// Every shard compiles the same plan, so the anchor composition is a
/// property of the rule version, not of any shard's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexKinds {
    /// Equality, phonetic and normalizing atoms indexed as key buckets.
    pub key_anchors: u64,
    /// Edit-distance atoms indexed as q-gram posting lists.
    pub qgram_anchors: u64,
    /// Token, q-gram and Jaro–Winkler atoms indexed as element posting
    /// lists.
    pub element_anchors: u64,
    /// Keys with no indexable atom: every probe scans all live tuples.
    pub scan_keys: u64,
}

/// Aggregate counters of a [`MatchServer`], via [`MatchServer::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// The rule version currently serving.
    pub version: RuleVersion,
    /// The publish epoch — bumps on every mutation and every swap.
    pub epoch: u64,
    /// Live records per shard (the shard count is the length).
    pub shard_records: Vec<usize>,
    /// Total live records.
    pub records: usize,
    /// Probes answered since construction.
    pub queries: u64,
    /// Batched query calls served since construction (each batch also
    /// adds its probe count to `queries`).
    pub batch_queries: u64,
    /// Records upserted since construction.
    pub upserts: u64,
    /// Records removed since construction.
    pub removes: u64,
    /// Inert, always 0: the server keeps no answer cache. Kept, like
    /// `cache_misses` and `cache_invalidations`, only because the
    /// benchmark harness still reads it.
    pub cache_hits: u64,
    /// Inert, always 0 (see `cache_hits`).
    pub cache_misses: u64,
    /// Inert, always 0 (see `cache_hits`).
    pub cache_invalidations: u64,
    /// Anchor-kind composition of the serving rule version's index.
    pub index: IndexKinds,
}

/// The serving core: a record store with stable external
/// [`RecordId`]s behind incrementally maintained
/// [`MatchIndex`](crate::engine::MatchIndex)es, versioned rule hot-swap
/// and per-pair match explanations, built for many threads.
///
/// * **Store** — [`MatchServer::upsert`] / [`MatchServer::remove`] /
///   [`MatchServer::get`] maintain records of the plan's *right* schema
///   (for a dedup/reflexive plan, the only schema); every record is
///   immediately visible to queries. [`MatchServer::compact`] reclaims
///   the slots removals and replacements leave behind.
/// * **Query** — [`MatchServer::query`] takes a probe [`Record`] of the
///   plan's *left* schema and returns exactly the hits a batch
///   [`MatchEngine::match_pairs_indexed`] run over
///   [`MatchServer::snapshot`] would report for that probe: matched id,
///   the RCK that fired, filter stats, and the current [`RuleVersion`].
/// * **Sharding** — records are routed by a hash of their [`RecordId`]
///   to one of N shards, each holding its own
///   [`MatchIndex`](crate::engine::MatchIndex). Mutations on different
///   shards run concurrently (per-shard writer locks); a probe fans out
///   over all shards and merges hits back into global arrival order, so
///   answers are hit-for-hit identical at every shard count. One shard
///   (`ServerConfig { shards: 1, .. }`) is the single-owner
///   configuration: the fan-out runs inline on the calling thread and
///   the merge is the identity.
/// * **Lock-free reads** — the entire state (rules + all shard
///   snapshots) is one immutable `ServerView` behind an
///   [`EpochCell`]; writers build replacements off to the side and swap
///   a pointer. Steady-state readers (see [`MatchServer::reader`])
///   revalidate with one atomic load and touch no lock. Boolean,
///   batched and ranked reads share one shard fan-out; nothing is
///   memoised, so every answer is computed against the view it loaded.
/// * **Zero-downtime swap** — [`MatchServer::swap_rules`] recompiles,
///   rebuilds every shard's index at version v+1 off to the side, then
///   publishes the whole view in one store. Readers serve v until the
///   instant they serve v+1; no read ever blocks or fails. Mutations
///   are briefly gated (they would race the rebuild), reads never.
///
/// The server takes `&self` everywhere and is `Send + Sync`: share it
/// behind an `Arc` and call it from as many threads as you like.
pub struct MatchServer {
    view: EpochCell<ServerView>,
    /// Writer gates, one per shard: serialize mutations *within* a
    /// shard while different shards proceed concurrently.
    shard_locks: Vec<Mutex<()>>,
    /// Mutators take `read`, [`MatchServer::swap_rules`] takes `write`:
    /// a swap sees a frozen store, mutations never interleave a
    /// rebuild. Queries take neither.
    swap_gate: RwLock<()>,
    pool: WorkPool,
    /// Labeled pairs accumulated from [`MatchServer::submit_labels`] —
    /// the training set [`MatchServer::refine`] selects against.
    labels: Mutex<LabelStore>,
    /// Global arrival counter; each upserted record is stamped with the
    /// next value so cross-shard hits can be merged in store order.
    seq: AtomicU64,
    queries: AtomicU64,
    batch_queries: AtomicU64,
    upserts: AtomicU64,
    removes: AtomicU64,
}

impl fmt::Debug for MatchServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (view, epoch) = self.view.load();
        f.debug_struct("MatchServer")
            .field("version", &view.rules.version)
            .field("epoch", &epoch)
            .field("shards", &view.shards.len())
            .field("records", &view.shards.iter().map(|s| s.index.len()).sum::<usize>())
            .finish()
    }
}

impl MatchServer {
    /// A server over `engine`'s compiled plan with [`ServerConfig`]
    /// defaults: one shard per executor thread, empty store, rule
    /// version `v1`.
    pub fn new(engine: MatchEngine) -> MatchServer {
        Self::with_config(engine, ServerConfig::default())
    }

    /// A server with explicit sharding/threading knobs.
    pub fn with_config(engine: MatchEngine, config: ServerConfig) -> MatchServer {
        let pool = WorkPool::new(config.exec);
        let shards = if config.shards == 0 { pool.threads().max(1) } else { config.shards };
        let empty = Relation::new(engine.plan().pair().right().clone());
        let snapshots: Vec<Arc<ShardSnapshot>> = (0..shards)
            .map(|_| {
                let index = engine.index(&empty).expect("an empty relation has no duplicate ids");
                Arc::new(ShardSnapshot { index, seq: CowVec::new() })
            })
            .collect();
        let labels = Mutex::new(LabelStore::new(
            engine.plan().pair().left().clone(),
            engine.plan().pair().right().clone(),
        ));
        let rules = Arc::new(RuleEpoch { engine, version: RuleVersion(1) });
        MatchServer {
            view: EpochCell::new(Arc::new(ServerView { rules, shards: snapshots })),
            shard_locks: (0..shards).map(|_| Mutex::new(())).collect(),
            swap_gate: RwLock::new(()),
            pool,
            labels,
            seq: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            upserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shards(&self) -> usize {
        self.shard_locks.len()
    }

    /// The executor's resolved thread count — shard fan-out width, and
    /// what the TCP front sizes its connection-worker cap from.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The rule version currently serving.
    pub fn version(&self) -> RuleVersion {
        self.view.load().0.rules.version
    }

    /// The publish epoch: bumps on every mutation and every swap.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// The schema stored records instantiate (the plan's right side).
    pub fn store_schema(&self) -> Arc<Schema> {
        self.view.load().0.rules.engine.plan().pair().right().clone()
    }

    /// The schema probe records instantiate (the plan's left side).
    pub fn probe_schema(&self) -> Arc<Schema> {
        self.view.load().0.rules.engine.plan().pair().left().clone()
    }

    /// A [`RecordBuilder`] over the store schema.
    pub fn record_builder(&self) -> RecordBuilder {
        Record::builder(self.store_schema())
    }

    /// A [`RecordBuilder`] over the probe schema.
    pub fn probe_builder(&self) -> RecordBuilder {
        Record::builder(self.probe_schema())
    }

    /// Total live records across all shards.
    pub fn len(&self) -> usize {
        self.view.load().0.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a live record carries `id`.
    pub fn contains(&self, id: RecordId) -> bool {
        let (view, _) = self.view.load();
        view.shards[shard_of(id, view.shards.len())].index.contains(id.0)
    }

    /// The live record stored under `id`.
    pub fn get(&self, id: RecordId) -> Option<Record> {
        let (view, _) = self.view.load();
        let schema = view.rules.engine.plan().pair().right().clone();
        view.shards[shard_of(id, view.shards.len())]
            .index
            .get(id.0)
            .map(|t| Record::from_tuple(schema, t))
    }

    /// The live store as one relation, in global arrival (store) order
    /// whatever the shard count, ids as tuple ids — what batch runs and
    /// equivalence tests consume.
    pub fn snapshot(&self) -> Relation {
        let (view, _) = self.view.load();
        let mut rows: Vec<(u64, _)> = Vec::new();
        for shard in &view.shards {
            rows.extend(shard.index.live_tuples().map(|(slot, t)| (shard.seq[slot], t.clone())));
        }
        rows.sort_unstable_by_key(|&(seq, _)| seq);
        let mut rel = Relation::new(view.rules.engine.plan().pair().right().clone());
        for (_, tuple) in rows {
            rel.push(tuple);
        }
        rel
    }

    /// Aggregate counters: version, epoch, per-shard sizes, query and
    /// mutation totals, index anchor kinds.
    pub fn stats(&self) -> ServerStats {
        let (view, epoch) = self.view.load();
        let shard_records: Vec<usize> = view.shards.iter().map(|s| s.index.len()).collect();
        // Anchor kinds are identical across shards (same compiled plan);
        // read shard 0's composition rather than summing duplicates.
        let index = match view.shards.first() {
            Some(shard) => {
                let s = shard.index.stats();
                IndexKinds {
                    key_anchors: s.key_anchors as u64,
                    qgram_anchors: s.qgram_anchors as u64,
                    element_anchors: s.element_anchors as u64,
                    scan_keys: s.scan_keys as u64,
                }
            }
            None => IndexKinds::default(),
        };
        ServerStats {
            version: view.rules.version,
            epoch,
            records: shard_records.iter().sum(),
            shard_records,
            queries: self.queries.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
            index,
        }
    }

    /// A per-thread read handle whose steady-state query path takes no
    /// lock at all: it revalidates its cached `ServerView` with one
    /// atomic load and only refreshes after a publish.
    pub fn reader(&self) -> ServerReader<'_> {
        ServerReader { server: self, cached: EpochReader::new(&self.view) }
    }

    /// Every live record the probe matches (some RCK accepts, no
    /// negative rule vetoes), with the RCK that fired — exactly the hits
    /// a batch [`MatchEngine::match_pairs_indexed`] run over
    /// [`MatchServer::snapshot`] reports for this probe, hit-for-hit
    /// identical (ids, keys, order, version) at every shard count.
    /// Aggregate counters ([`QueryResponse::candidates`],
    /// [`QueryResponse::key_evals`], [`QueryResponse::stats`]) are
    /// summed across shards and depend on the shard count: each shard
    /// prunes its own candidate retrieval independently.
    pub fn query(&self, probe: &Record) -> Result<QueryResponse, ServiceError> {
        self.query_in(&self.view.load().0, probe)
    }

    /// [`MatchServer::query`] for a batch of probes, all answered
    /// against one consistent view (no mutation or swap can interleave
    /// *within* the returned vector). The batch goes through each
    /// shard's [`query_batch`](crate::engine::MatchIndex::query_batch)
    /// at once, sharing signature extraction and scratch — answers stay
    /// response-for-response identical to [`MatchServer::query`] per
    /// probe. Schemas are validated up front; one malformed probe fails
    /// the batch before any work runs.
    pub fn query_batch(&self, probes: &[Record]) -> Result<Vec<QueryResponse>, ServiceError> {
        let (view, _) = self.view.load();
        let tuples = self.admit(&view, probes)?;
        self.batch_queries.fetch_add(1, Ordering::Relaxed);
        Ok(self.answer(&view, &tuples))
    }

    /// [`MatchServer::query`], ranked: the same hit set the boolean
    /// query reports, scored by the plan's compiled
    /// [`ScoreModel`](crate::engine::ScoreModel), sorted by score
    /// descending (ties keep store order), filtered to
    /// `score >= min_score` and truncated to `top_k` — answer-for-answer
    /// identical (ids, keys, scores, order) at any shard count. The
    /// rules stay the sound candidate generator: scores never add or
    /// drop a hit, and `min_score <= 0.0` with `top_k >= hits` returns
    /// the full boolean hit set. `min_score` must not be NaN
    /// ([`ServiceError::InvalidThreshold`]). Scoring is a pure function
    /// of the immutable plan, so scores are byte-identical across thread
    /// counts and repeat queries at one rule version.
    pub fn query_ranked(
        &self,
        probe: &Record,
        top_k: usize,
        min_score: f64,
    ) -> Result<RankedResponse, ServiceError> {
        self.query_ranked_in(&self.view.load().0, probe, top_k, min_score)
    }

    fn query_in(&self, view: &ServerView, probe: &Record) -> Result<QueryResponse, ServiceError> {
        let tuples = self.admit(view, std::slice::from_ref(probe))?;
        Ok(self.answer(view, &tuples).pop().expect("one answer per probe"))
    }

    fn query_ranked_in(
        &self,
        view: &ServerView,
        probe: &Record,
        top_k: usize,
        min_score: f64,
    ) -> Result<RankedResponse, ServiceError> {
        if min_score.is_nan() {
            return Err(ServiceError::InvalidThreshold);
        }
        let tuples = self.admit(view, std::slice::from_ref(probe))?;
        let boolean = self.answer(view, &tuples).pop().expect("one answer per probe");
        let engine = &view.rules.engine;
        let model = engine.plan().score_model();
        let mut hits: Vec<ScoredHit> = (boolean.hits.iter())
            .map(|h| {
                let shard = &view.shards[shard_of(h.id, view.shards.len())];
                let stored = shard.index.get(h.id.0).expect("query hits are live records");
                let score = model.score(engine.runtime(), &tuples[0], stored);
                ScoredHit { id: h.id, key: h.key, score }
            })
            .collect();
        // The merged hits are in store order; a *stable* sort by score
        // keeps that order among equal scores.
        hits.sort_by(|a, b| b.score.total_cmp(&a.score));
        hits.retain(|h| h.score >= min_score);
        hits.truncate(top_k);
        let QueryResponse { candidates, key_evals, version, .. } = boolean;
        Ok(RankedResponse { hits, candidates, key_evals, version })
    }

    /// Validates every probe against `view`'s probe schema — one
    /// malformed probe fails the call before any work runs — counts them
    /// as answered, and converts them to tuples.
    fn admit(&self, view: &ServerView, probes: &[Record]) -> Result<Vec<Tuple>, ServiceError> {
        let schema = view.rules.engine.plan().pair().left();
        for probe in probes {
            check_schema(probe, schema)?;
        }
        self.queries.fetch_add(probes.len() as u64, Ordering::Relaxed);
        Ok(probes.iter().map(|probe| probe.to_tuple(0)).collect())
    }

    /// The one read path: every probe goes through each shard's
    /// [`MatchIndex::query_batch`] (shards fanned out on the pool), and
    /// each probe's per-shard outcomes merge into one answer in store
    /// order.
    fn answer(&self, view: &ServerView, probes: &[Tuple]) -> Vec<QueryResponse> {
        let per_shard =
            self.pool.par_tasks(view.shards.len(), |s| view.shards[s].index.query_batch(probes));
        (0..probes.len())
            .map(|k| view.merge(per_shard.iter().map(|outcomes| &outcomes[k])))
            .collect()
    }

    /// Explains the decision for `(probe, stored record id)` under the
    /// current rules: every key's every atom (operator, deciding stage,
    /// θ-bound, exact edit distance, pass/fail), the veto outcome, and —
    /// when a key fired — the MD deduction path that makes that key a
    /// key. Decisions agree exactly with [`MatchServer::query`].
    pub fn explain(&self, probe: &Record, id: RecordId) -> Result<MatchExplanation, ServiceError> {
        let (view, _) = self.view.load();
        check_schema(probe, view.rules.engine.plan().pair().left())?;
        let trace = view.shards[shard_of(id, view.shards.len())]
            .index
            .explain(&probe.to_tuple(0), id.0)
            .map_err(|_| ServiceError::UnknownRecord { id })?;
        Ok(MatchExplanation::from_trace(trace, id, view.rules.engine.plan(), view.rules.version))
    }

    /// Inserts or replaces one record; returns whether a replacement
    /// happened. Equivalent to a one-element
    /// [`MatchServer::upsert_batch`].
    pub fn upsert(&self, id: RecordId, record: &Record) -> Result<bool, ServiceError> {
        let _gate = self.swap_gate.read().unwrap_or_else(|e| e.into_inner());
        check_schema(record, &self.store_schema())?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let replaced =
            self.mutate_shard(shard_of(id, self.shards()), |shard| shard.upsert(id, record, seq))?;
        self.upserts.fetch_add(1, Ordering::Relaxed);
        Ok(replaced)
    }

    /// Inserts or replaces a batch of records, stamping each with the
    /// next global arrival number in input order; returns per-item
    /// replacement flags. Items are grouped by shard and the shard
    /// groups applied concurrently; every record is visible to queries
    /// as soon as its shard publishes. Mutations on the *same* shard
    /// serialize; a concurrent [`MatchServer::swap_rules`] is excluded
    /// for the duration. Schemas are validated up front, so a failed
    /// batch mutates nothing.
    pub fn upsert_batch(&self, items: &[(RecordId, Record)]) -> Result<Vec<bool>, ServiceError> {
        let _gate = self.swap_gate.read().unwrap_or_else(|e| e.into_inner());
        // Rules cannot change while the gate is held, so one check per
        // item against the current store schema suffices.
        let schema = self.store_schema();
        for (_, record) in items {
            check_schema(record, &schema)?;
        }
        let shards = self.shards();
        let base = self.seq.fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (pos, (id, _)) in items.iter().enumerate() {
            groups[shard_of(*id, shards)].push(pos);
        }
        let occupied: Vec<usize> = (0..shards).filter(|&s| !groups[s].is_empty()).collect();
        let applied = self.pool.par_tasks(occupied.len(), |k| {
            self.mutate_shard(occupied[k], |shard| {
                (groups[occupied[k]].iter())
                    .map(|&pos| shard.upsert(items[pos].0, &items[pos].1, base + pos as u64))
                    .collect::<Result<Vec<bool>, _>>()
            })
        });
        let mut replaced = vec![false; items.len()];
        for (flags, &s) in applied.into_iter().zip(&occupied) {
            for (flag, &pos) in flags?.into_iter().zip(&groups[s]) {
                replaced[pos] = flag;
            }
        }
        self.upserts.fetch_add(items.len() as u64, Ordering::Relaxed);
        Ok(replaced)
    }

    /// The one write path: clone shard `s`'s snapshot, apply `mutate` to
    /// the clone, publish it. Holds the shard's writer lock so same-shard
    /// writes serialize; the publish itself is a pointer swap on the
    /// shared view. When `mutate` fails nothing is published.
    fn mutate_shard<R>(
        &self,
        s: usize,
        mutate: impl FnOnce(&mut ShardSnapshot) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        let _shard = self.shard_locks[s].lock().unwrap_or_else(|e| e.into_inner());
        // Loaded under the shard lock: sees every earlier publish for
        // this shard (writers publish before releasing the lock).
        let (view, _) = self.view.load();
        let mut next = ShardSnapshot::clone(&view.shards[s]);
        let out = mutate(&mut next)?;
        let snapshot = Arc::new(next);
        self.view.update(|v| {
            let mut shards = v.shards.clone();
            shards[s] = snapshot.clone();
            Arc::new(ServerView { rules: v.rules.clone(), shards })
        });
        Ok(out)
    }

    /// Removes one record from query visibility. Equivalent to a
    /// one-element [`MatchServer::remove_batch`].
    pub fn remove(&self, id: RecordId) -> Result<(), ServiceError> {
        self.remove_batch(&[id])
    }

    /// Removes a batch of records, shard groups applied concurrently.
    /// An unknown id fails its *shard's* group wholesale before that
    /// shard publishes anything; other shards' groups still apply
    /// (mutation batches are atomic per shard, not across shards).
    pub fn remove_batch(&self, ids: &[RecordId]) -> Result<(), ServiceError> {
        let _gate = self.swap_gate.read().unwrap_or_else(|e| e.into_inner());
        let shards = self.shards();
        let mut groups: Vec<Vec<RecordId>> = vec![Vec::new(); shards];
        for &id in ids {
            groups[shard_of(id, shards)].push(id);
        }
        let occupied: Vec<usize> = (0..shards).filter(|&s| !groups[s].is_empty()).collect();
        let applied = self.pool.par_tasks(occupied.len(), |k| {
            let group = &groups[occupied[k]];
            self.mutate_shard(occupied[k], |shard| {
                // (A tombstoned slot keeps its stamp; nothing reads it.)
                group.iter().try_for_each(|&id| {
                    shard.index.remove(id.0).map_err(|_| ServiceError::UnknownRecord { id })
                })
            })?;
            // Counted per published group: a failure on another shard
            // does not undo this one.
            self.removes.fetch_add(group.len() as u64, Ordering::Relaxed);
            Ok(())
        });
        applied.into_iter().collect()
    }

    /// Replaces the rule set with MDs parsed from `md_text` (the
    /// [`crate::core::parser`] syntax, against the existing schema pair
    /// and operator table), with **zero read downtime**: the new plan is
    /// compiled and every shard's index rebuilt at version v+1 entirely
    /// off to the side (reads keep serving v throughout, never blocking
    /// or failing), then the whole view — rules plus all shards — is
    /// published in one atomic store. Mutations are gated for the
    /// duration so the rebuild sees a frozen store. On error (parse,
    /// compile, resolution) the old version keeps serving untouched. The
    /// rebuild also reclaims tombstoned slots (it doubles as a
    /// [`MatchServer::compact`]).
    pub fn swap_rules(&self, md_text: &str) -> Result<RuleVersion, ServiceError> {
        self.swap_with_registry(None, |b| b.md_text(md_text))
    }

    /// [`MatchServer::swap_rules`] for programmatic MDs. Attribute pairs
    /// are revalidated against the schema pair at compile, but the
    /// atoms' `OperatorId`s are only meaningful against **the serving
    /// plan's** operator table ([`MatchPlan::ops`]) — pass MDs taken from
    /// [`MatchPlan::sigma`] or built against that table, not ones
    /// interned into a foreign table (out-of-range ids fail the compile;
    /// in-range foreign ids would rebind to whatever operator happens to
    /// hold that id here).
    pub fn swap_rules_with(
        &self,
        mds: Vec<MatchingDependency>,
    ) -> Result<RuleVersion, ServiceError> {
        self.swap_with_registry(None, move |b| b.mds(mds))
    }

    /// Deploys a [`Refinement`] with the same zero-downtime mechanics as
    /// [`MatchServer::swap_rules`]: the refinement's selected rules swap
    /// in together with the extended operator table/registry they were
    /// compiled against (θ-sweep aliases included). The refinement's
    /// table must *extend* the serving plan's — every existing
    /// `OperatorId` keeps its meaning — otherwise the swap is refused
    /// with [`ServiceError::Refinement`] and the old version keeps
    /// serving.
    pub fn swap_rules_refined(&self, refinement: &Refinement) -> Result<RuleVersion, ServiceError> {
        self.swap_with_registry(Some(refinement), |b| {
            b.operator_table(refinement.ops.clone()).mds(refinement.rules.clone())
        })
    }

    /// The one swap path behind the three `swap_rules*` fronts: compile
    /// `add_rules` against the serving plan, rebuild, publish at v+1.
    /// With a `refinement`, the new engine compiles *and runs* against
    /// its registry — which is how a refined swap carries its θ-alias
    /// bindings into the serving runtime (not just its table) — after
    /// the refinement is checked against the plan it is about to
    /// replace: the check reads the same view as the rebuild, under the
    /// gate, so no other swap can land in between.
    fn swap_with_registry(
        &self,
        refinement: Option<&Refinement>,
        add_rules: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> Result<RuleVersion, ServiceError> {
        let _gate = self.swap_gate.write().unwrap_or_else(|e| e.into_inner());
        let (view, _) = self.view.load();
        let serving = &view.rules.engine;
        let registry = match refinement {
            Some(refinement) => {
                check_deployable(refinement, serving.plan())?;
                refinement.registry.clone()
            }
            None => serving.registry().clone(),
        };
        let builder = EngineBuilder::from_plan(serving.plan()).operators(registry.clone());
        let plan = add_rules(builder).compile()?;
        let engine = MatchEngine::from_plan(plan, &registry)?;
        let version = RuleVersion(view.rules.version.0 + 1);
        self.republish(&view, Arc::new(RuleEpoch { engine, version }))?;
        Ok(version)
    }

    /// Rebuilds every shard of `view` under `rules` off to the side
    /// (slots compacted) and publishes rules plus shards in one store. The caller
    /// holds the swap gate's write side, so `view` is the frozen store.
    fn republish(&self, view: &ServerView, rules: Arc<RuleEpoch>) -> Result<(), ServiceError> {
        let shards = (self.pool)
            .par_tasks(view.shards.len(), |s| view.shards[s].rebuilt(&rules.engine).map(Arc::new))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        self.view.store(Arc::new(ServerView { rules, shards }));
        Ok(())
    }

    /// Rebuilds every shard's index over its live records under the
    /// *current* rules, reclaiming the tombstoned slots removals and
    /// replacements leave behind. Query answers are
    /// unchanged and the rule version does not move; reads keep serving
    /// throughout, mutations are gated like for a swap.
    pub fn compact(&self) -> Result<(), ServiceError> {
        let _gate = self.swap_gate.write().unwrap_or_else(|e| e.into_inner());
        let (view, _) = self.view.load();
        self.republish(&view, view.rules.clone())
    }

    /// Appends labeled pairs (probe record, stored-shape record, is a
    /// match) to the server's label store — the training set
    /// [`MatchServer::refine`] selects against. Duplicate pairs with the
    /// same label are idempotent; a pair re-submitted with the
    /// *opposite* label is a conflict and rejects the whole batch with
    /// [`ServiceError::Refinement`] (nothing from the batch is kept).
    /// Returns the label counts after the append.
    pub fn submit_labels(
        &self,
        pairs: &[(Record, Record, bool)],
    ) -> Result<LabelSummary, ServiceError> {
        let mut store = self.labels.lock().unwrap_or_else(|e| e.into_inner());
        // Stage on a copy so a mid-batch conflict leaves the store as it
        // was — the caller can fix the batch and resubmit it whole.
        let mut staged = store.clone();
        let mut added = 0usize;
        for (left, right, is_match) in pairs {
            let fresh = staged
                .insert(left.clone(), right.clone(), *is_match)
                .map_err(|e| ServiceError::Refinement { message: e.to_string() })?;
            if fresh {
                added += 1;
            }
        }
        *store = staged;
        Ok(LabelSummary {
            added,
            total: store.len(),
            positives: store.positives(),
            negatives: store.negatives(),
        })
    }

    /// Labels accumulated so far, without mutating anything.
    pub fn label_summary(&self) -> LabelSummary {
        let store = self.labels.lock().unwrap_or_else(|e| e.into_inner());
        LabelSummary {
            added: 0,
            total: store.len(),
            positives: store.positives(),
            negatives: store.negatives(),
        }
    }

    /// Runs the full refinement loop against the labels submitted so far
    /// — mine candidates, θ-sweep fuzzy atoms, evaluate through the
    /// indexed engine, select the F_β-maximizing subset — and hot-swaps
    /// the selected rules in with zero read downtime. Returns the new
    /// rule version and the [`RefinementReport`] (before/after quality,
    /// per-rule marginal gains, chosen θ per atom). On any error
    /// (no labels, nothing selected, compile failure) the old version
    /// keeps serving untouched.
    pub fn refine(&self, beta: f64) -> Result<(RuleVersion, RefinementReport), ServiceError> {
        self.refine_with(RefineConfig { beta, ..RefineConfig::default() })
    }

    /// [`MatchServer::refine`] with explicit [`RefineConfig`] knobs.
    pub fn refine_with(
        &self,
        config: RefineConfig,
    ) -> Result<(RuleVersion, RefinementReport), ServiceError> {
        let labels = self.labels.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let (view, _) = self.view.load();
        let refiner = Refiner::new(view.rules.engine.plan(), view.rules.engine.registry())
            .with_config(config);
        let refinement = refiner
            .refine(&labels)
            .map_err(|e| ServiceError::Refinement { message: e.to_string() })?;
        let version = self.swap_rules_refined(&refinement)?;
        Ok((version, refinement.report))
    }

    /// The engine executing the current rule version — a cheap clone
    /// (plan and operators are shared) that keeps describing the version
    /// it was loaded at. Its [`MatchEngine::registry`] is what a
    /// [`Refiner`] seeds from so custom and θ-alias operators keep their
    /// bindings.
    pub fn engine(&self) -> MatchEngine {
        self.view.load().0.rules.engine.clone()
    }

    /// The currently compiled plan, for rendering keys and inspecting
    /// rules. The plan is part of the immutable view: the returned
    /// `Arc` stays valid (and stays describing the version it was
    /// loaded at) across concurrent swaps.
    pub fn plan(&self) -> Arc<MatchPlan> {
        self.view.load().0.rules.engine.plan_arc()
    }
}

/// Label counts reported by [`MatchServer::submit_labels`] and
/// [`MatchServer::label_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelSummary {
    /// How many pairs of the submitted batch were new (0 for
    /// [`MatchServer::label_summary`]).
    pub added: usize,
    /// Total deduplicated labeled pairs held.
    pub total: usize,
    /// Positive pairs held.
    pub positives: usize,
    /// Negative pairs held.
    pub negatives: usize,
}

/// A per-thread read handle over a [`MatchServer`]
/// (via [`MatchServer::reader`]): caches the last published
/// `ServerView` and revalidates it with a single atomic load, so a
/// saturated query loop takes no lock while no writer publishes.
pub struct ServerReader<'a> {
    server: &'a MatchServer,
    cached: EpochReader<ServerView>,
}

impl fmt::Debug for ServerReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerReader").finish_non_exhaustive()
    }
}

impl ServerReader<'_> {
    /// [`MatchServer::query`] through the cached view: lock-free while
    /// the epoch is unchanged, one refresh after a publish.
    pub fn query(&mut self, probe: &Record) -> Result<QueryResponse, ServiceError> {
        self.server.query_in(self.cached.get(&self.server.view), probe)
    }

    /// [`MatchServer::query_ranked`] through the cached view.
    pub fn query_ranked(
        &mut self,
        probe: &Record,
        top_k: usize,
        min_score: f64,
    ) -> Result<RankedResponse, ServiceError> {
        self.server.query_ranked_in(self.cached.get(&self.server.view), probe, top_k, min_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 8] {
            let mut seen = vec![false; shards];
            for id in 0..512u64 {
                let s = shard_of(RecordId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(RecordId(id), shards), "routing must be deterministic");
                seen[s] = true;
            }
            assert!(seen.iter().all(|&s| s), "512 sequential ids should touch every shard");
        }
    }

    fn people_server(shards: usize) -> MatchServer {
        let people = Schema::text("people", &["name", "email"]).unwrap();
        let engine = EngineBuilder::new()
            .dedup_schema(people)
            .md_text("people[email] = people[email] -> people[name] <=> people[name]")
            .target(&["name"], &["name"])
            .build()
            .unwrap();
        MatchServer::with_config(
            engine,
            ServerConfig { shards, exec: ExecConfig::serial(), ..ServerConfig::default() },
        )
    }

    fn person(server: &MatchServer, n: u64) -> Record {
        let email = format!("p{n}@example.org");
        server.record_builder().field("name", "Ada").field("email", email.as_str()).build().unwrap()
    }

    #[test]
    fn remove_batch_counts_the_groups_that_published() {
        let server = people_server(2);
        let known = RecordId(1);
        // Routed to the other shard, and never stored.
        let unknown = (2..)
            .map(RecordId)
            .find(|&id| shard_of(id, 2) != shard_of(known, 2))
            .expect("some id routes to the other shard");
        server.upsert(known, &person(&server, 1)).unwrap();
        server.upsert(RecordId(0), &person(&server, 0)).unwrap();

        let err = server.remove_batch(&[known, unknown]);
        assert!(matches!(err, Err(ServiceError::UnknownRecord { id }) if id == unknown), "{err:?}");
        assert_eq!(server.len(), 1, "the known id's shard group still applied");
        assert!(!server.contains(known));
        assert_eq!(server.stats().removes, 1, "and was counted");
    }

    #[test]
    fn compact_reclaims_tombstones_without_moving_the_version() {
        for shards in [1, 2] {
            let server = people_server(shards);
            for n in 0..8 {
                server.upsert(RecordId(n), &person(&server, n)).unwrap();
            }
            server.upsert(RecordId(0), &person(&server, 100)).unwrap();
            server.remove(RecordId(1)).unwrap();
            let tombstones = || -> usize {
                server.view.load().0.shards.iter().map(|s| s.index.stats().tombstones).sum()
            };
            assert_eq!(tombstones(), 2, "a replacement and a removal each leave one");
            server.compact().unwrap();
            assert_eq!(tombstones(), 0);
            assert_eq!(server.version(), RuleVersion(1));
            assert_eq!(server.len(), 7);
        }
    }

    #[test]
    fn default_config_resolves_shards_from_the_pool() {
        let config = ServerConfig::default();
        assert_eq!(config.shards, 0, "0 means auto");
    }

    /// A server holding twelve people, all named "Ada", over three emails
    /// (`p0`..`p2`, by id mod 3), upserted in an arrival order that is
    /// not id order, so store order and id order disagree.
    fn filled_people_server(shards: usize) -> MatchServer {
        let server = people_server(shards);
        for id in [9u64, 3, 11, 0, 7, 1, 10, 4, 6, 2, 8, 5] {
            server.upsert(RecordId(id), &person(&server, id % 3)).unwrap();
        }
        server
    }

    fn ids(response: &QueryResponse) -> Vec<u64> {
        response.hits.iter().map(|h| h.id.0).collect()
    }

    fn foreign_probe() -> Record {
        let other = Arc::new(Schema::text("other", &["x"]).unwrap());
        Record::builder(other).field("x", "y").build().unwrap()
    }

    #[test]
    fn every_read_path_counts_each_probe_once() {
        let server = filled_people_server(2);
        let probe = person(&server, 0);
        let before = server.stats();
        server.query(&probe).unwrap();
        server.query_ranked(&probe, 3, 0.0).unwrap();
        server.reader().query(&probe).unwrap();
        server.reader().query_ranked(&probe, 3, 0.0).unwrap();
        server.query_batch(&[probe.clone(), probe.clone(), probe]).unwrap();
        let after = server.stats();
        assert_eq!(after.queries - before.queries, 7, "4 single probes + a batch of 3");
        assert_eq!(after.batch_queries - before.batch_queries, 1);
    }

    #[test]
    fn a_rejected_read_fails_before_counting_anything() {
        let server = filled_people_server(2);
        let good = person(&server, 0);
        let bad = foreign_probe();
        let mismatch =
            |r: Result<_, ServiceError>| matches!(r, Err(ServiceError::SchemaMismatch { .. }));
        assert!(mismatch(server.query(&bad).map(drop)));
        assert!(mismatch(server.query_ranked(&bad, 3, 0.0).map(drop)));
        assert!(mismatch(server.reader().query(&bad).map(drop)));
        assert!(mismatch(server.query_batch(&[good.clone(), bad]).map(drop)));
        assert!(matches!(
            server.query_ranked(&good, 3, f64::NAN),
            Err(ServiceError::InvalidThreshold)
        ));
        let stats = server.stats();
        assert_eq!((stats.queries, stats.batch_queries), (0, 0), "no failed read is counted");
    }

    #[test]
    fn an_empty_batch_answers_nothing() {
        for shards in [1, 2] {
            let server = filled_people_server(shards);
            assert_eq!(server.query_batch(&[]).unwrap(), Vec::new());
            let stats = server.stats();
            assert_eq!((stats.queries, stats.batch_queries), (0, 1));
        }
    }

    #[test]
    fn repeated_probes_in_one_batch_answer_like_single_queries() {
        for shards in [1, 2, 3] {
            let server = filled_people_server(shards);
            let unmatched = server.record_builder().field("email", "nobody@example.org").build();
            let probes = vec![
                person(&server, 0),
                person(&server, 1),
                person(&server, 0),
                unmatched.unwrap(),
                person(&server, 0),
            ];
            let batch = server.query_batch(&probes).unwrap();
            let singles: Vec<QueryResponse> =
                probes.iter().map(|p| server.query(p).unwrap()).collect();
            assert_eq!(batch, singles, "{shards} shards");
            assert_eq!(batch[0], batch[2]);
            assert_eq!(batch[0], batch[4]);
            assert!(batch[3].hits.is_empty(), "a probe with no name or email match has no hits");
        }
    }

    #[test]
    fn ranked_ties_keep_store_order_and_top_k_serves_a_prefix() {
        for shards in [1, 2, 3] {
            let server = filled_people_server(shards);
            let probe = person(&server, 0);
            let boolean = server.query(&probe).unwrap();
            assert_eq!(boolean.hits.len(), 12, "every record shares the name: {:?}", ids(&boolean));
            let mut by_id = ids(&boolean);
            by_id.sort_unstable();
            assert_ne!(ids(&boolean), by_id, "store order is arrival order, not id order");

            let full = server.query_ranked(&probe, usize::MAX, f64::NEG_INFINITY).unwrap();
            assert_eq!(
                (full.candidates, full.key_evals, full.version),
                (boolean.candidates, boolean.key_evals, boolean.version)
            );
            // The expected answer: the boolean hits (store order) stable-
            // sorted by score, so each score tier keeps store order.
            let mut expected: Vec<(u64, usize)> =
                boolean.hits.iter().map(|h| (h.id.0, h.key)).collect();
            let score_of = |id: u64| full.hits.iter().find(|h| h.id.0 == id).unwrap().score;
            expected.sort_by(|a, b| score_of(b.0).total_cmp(&score_of(a.0)));
            let ranked: Vec<(u64, usize)> = full.hits.iter().map(|h| (h.id.0, h.key)).collect();
            assert_eq!(ranked, expected, "{shards} shards: ties keep store order");
            // The best tier is the records identical to the probe.
            let best = full.hits[0].score;
            let top_tier: Vec<u64> =
                full.hits.iter().take_while(|h| h.score == best).map(|h| h.id.0).collect();
            let exact: Vec<u64> = ids(&boolean).into_iter().filter(|id| id % 3 == 0).collect();
            assert_eq!(top_tier, exact);

            let top = server.query_ranked(&probe, 2, f64::NEG_INFINITY).unwrap();
            assert_eq!(top.hits.as_slice(), &full.hits[..2]);
            assert!(server.query_ranked(&probe, 0, 0.0).unwrap().hits.is_empty());
            let above_rest = server.query_ranked(&probe, usize::MAX, best).unwrap();
            assert_eq!(above_rest.hits.as_slice(), &full.hits[..top_tier.len()]);
            assert!(server.query_ranked(&probe, usize::MAX, best + 0.5).unwrap().hits.is_empty());
        }
    }

    #[test]
    fn a_reader_sees_every_publish_on_its_next_read() {
        let server = filled_people_server(2);
        let probe = person(&server, 0);
        let mut reader = server.reader();
        assert_eq!(reader.query(&probe).unwrap(), server.query(&probe).unwrap());

        server.upsert(RecordId(100), &person(&server, 0)).unwrap();
        let after_upsert = reader.query(&probe).unwrap();
        assert!(ids(&after_upsert).contains(&100), "the reader refreshed after the upsert");
        assert_eq!(after_upsert, server.query(&probe).unwrap());

        server.remove(RecordId(100)).unwrap();
        assert!(!ids(&reader.query(&probe).unwrap()).contains(&100));
        let ranked = reader.query_ranked(&probe, usize::MAX, 0.0).unwrap();
        assert!(ranked.hits.iter().all(|h| h.id != RecordId(100)));
        assert_eq!(ranked, server.query_ranked(&probe, usize::MAX, 0.0).unwrap());
    }

    #[test]
    fn inert_cache_fields_stay_zero_through_reads_writes_and_swaps() {
        let server = filled_people_server(2);
        let probe = person(&server, 0);
        let inert = |stats: &ServerStats| {
            (stats.cache_hits, stats.cache_misses, stats.cache_invalidations) == (0, 0, 0)
        };
        for _ in 0..2 {
            server.query(&probe).unwrap();
            server.query_ranked(&probe, 3, 0.0).unwrap();
            server.query_batch(std::slice::from_ref(&probe)).unwrap();
        }
        assert!(inert(&server.stats()));
        server.upsert(RecordId(100), &person(&server, 0)).unwrap();
        server.remove(RecordId(100)).unwrap();
        server.query(&probe).unwrap();
        assert!(inert(&server.stats()));
        let v2 = server
            .swap_rules("people[email] = people[email] -> people[name] <=> people[name]")
            .unwrap();
        assert_eq!(server.query(&probe).unwrap().version, v2);
        assert!(inert(&server.stats()));
    }
}
