//! [`MatchServer`]: the one serving core — one published (rules,
//! [`MatchIndex`]) view that readers load without a lock and one writer
//! at a time replaces.

use crate::engine::{
    schemas_compatible, EngineBuilder, MatchEngine, MatchIndex, MatchPlan, QueryOutcome,
};
use crate::refine::{LabelStore, RefineConfig, Refinement, RefinementReport, Refiner};
use crate::service::{
    MatchExplanation, QueryResponse, RankedResponse, Record, RecordBuilder, RecordId, RuleVersion,
    ScoredHit, ServiceError, ServiceHit,
};
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::schema::Schema;
use matchrules_data::relation::{Relation, Tuple};
use matchrules_runtime::{EpochCell, EpochReader, ExecConfig};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction knobs of a [`MatchServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Inert: the server holds one index, so this is ignored. The field
    /// stays only because the benchmark harness still sets it.
    pub shards: usize,
    /// Inert: the server keeps no answer cache, so this is ignored. The
    /// field stays only because the benchmark harness still sets it.
    pub cache_capacity: usize,
    /// Thread budget the TCP front sizes its connection-worker cap from
    /// (see [`MatchServer::threads`]). Index builds run on the engine's
    /// own pool.
    pub exec: ExecConfig,
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

/// One compiled rule set with its version stamp.
struct RuleEpoch {
    engine: MatchEngine,
    version: RuleVersion,
}

/// The whole server state as one immutable value: the current rules and
/// the index holding the store, in store (slot) order. Published through
/// a single [`EpochCell`], so one load observes rules and records of the
/// same moment.
///
/// A published view is never mutated. A writer clones the index (its
/// containers are structurally shared: refcounted spines, no data) and
/// mutates the clone, copying only the chunks and stripes it touches.
struct ServerView {
    rules: Arc<RuleEpoch>,
    index: MatchIndex,
}

impl ServerView {
    /// The same live records, in the same order, indexed under `rules`
    /// (slots compacted).
    fn rebuilt(&self, rules: Arc<RuleEpoch>) -> Result<ServerView, ServiceError> {
        let index = rules.engine.index(&self.index.live_relation())?;
        Ok(ServerView { rules, index })
    }

    /// The one read path: every probe goes through
    /// [`MatchIndex::query_batch`], and each outcome is stamped with the
    /// rule version.
    fn answer(&self, probes: &[Tuple]) -> Vec<QueryResponse> {
        let version = self.rules.version;
        (self.index.query_batch(probes).into_iter())
            .map(|QueryOutcome { hits, candidates, key_evals, stats }| {
                let hits = hits.iter().map(|h| ServiceHit { id: RecordId(h.id), key: h.key });
                QueryResponse { hits: hits.collect(), candidates, key_evals, stats, version }
            })
            .collect()
    }
}

/// Which anchor kinds the serving plan's [`MatchIndex`] compiled, via
/// [`ServerStats::index`]: how many RCK atoms retrieve through key
/// buckets, q-gram postings or element postings — and how many keys fell
/// back to scans.
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
/// [`RecordId`]s behind one incrementally maintained
/// [`MatchIndex`](crate::engine::MatchIndex), versioned rule hot-swap
/// and per-pair match explanations, built for many threads.
///
/// * **Store** — [`MatchServer::upsert`] / [`MatchServer::remove`] /
///   [`MatchServer::get`] maintain records of the plan's *right* schema
///   (for a dedup/reflexive plan, the only schema); every record is
///   immediately visible to queries. Store order is arrival order: a
///   replacement re-enters at the end. [`MatchServer::compact`]
///   reclaims the slots removals and replacements leave behind.
/// * **Query** — [`MatchServer::query`] takes a probe [`Record`] of the
///   plan's *left* schema and returns exactly the answer a
///   [`MatchIndex`](crate::engine::MatchIndex) built over
///   [`MatchServer::snapshot`] gives for that probe — and so the hits a
///   batch [`MatchEngine::match_pairs_indexed`] run reports: matched id,
///   the RCK that fired, filter stats, and the current [`RuleVersion`].
/// * **One writer** — mutations serialize on one writer lock. Each
///   clones the published index (structurally shared, so a write costs
///   what it touches, not the store), mutates the clone and publishes
///   it. A batch publishes once, and a batch that fails publishes
///   nothing: [`MatchServer::upsert_batch`] and
///   [`MatchServer::remove_batch`] are atomic.
/// * **Lock-free reads** — the entire state (rules + index) is one
///   immutable `ServerView` behind an [`EpochCell`]; writers build
///   replacements off to the side and swap a pointer. Steady-state
///   readers (see [`MatchServer::reader`]) revalidate with one atomic
///   load and touch no lock. Boolean, batched and ranked reads share one
///   path; nothing is memoised, so every answer is computed against the
///   view it loaded.
/// * **Zero-downtime swap** — [`MatchServer::swap_rules`] recompiles,
///   rebuilds the index at version v+1 off to the side (on the engine's
///   own pool), then publishes rules and index in one store. Readers
///   serve v until the instant they serve v+1; no read ever blocks or
///   fails. The swap holds the writer lock, so mutations wait for it;
///   reads never do.
///
/// The server takes `&self` everywhere and is `Send + Sync`: share it
/// behind an `Arc` and call it from as many threads as you like.
pub struct MatchServer {
    view: EpochCell<ServerView>,
    /// Held by every mutation, swap and compaction from loading the view
    /// to publishing its successor, so no publish is lost to a
    /// concurrent one. Queries never take it. A writer that panics
    /// publishes nothing, so a poisoned lock is safe to reuse.
    writer: Mutex<()>,
    /// The executor's resolved thread count (see [`MatchServer::threads`]).
    threads: usize,
    /// Labeled pairs accumulated from [`MatchServer::submit_labels`] —
    /// the training set [`MatchServer::refine`] selects against.
    labels: Mutex<LabelStore>,
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
            .field("records", &view.index.len())
            .finish()
    }
}

impl MatchServer {
    /// A server over `engine`'s compiled plan with [`ServerConfig`]
    /// defaults: empty store, rule version `v1`.
    pub fn new(engine: MatchEngine) -> MatchServer {
        Self::with_config(engine, ServerConfig::default())
    }

    /// A server with an explicit executor for its TCP front.
    pub fn with_config(engine: MatchEngine, config: ServerConfig) -> MatchServer {
        let empty = Relation::new(engine.plan().pair().right().clone());
        let index = engine.index(&empty).expect("an empty relation has no duplicate ids");
        let labels = Mutex::new(LabelStore::new(
            engine.plan().pair().left().clone(),
            engine.plan().pair().right().clone(),
        ));
        let rules = Arc::new(RuleEpoch { engine, version: RuleVersion(1) });
        MatchServer {
            view: EpochCell::new(Arc::new(ServerView { rules, index })),
            writer: Mutex::new(()),
            threads: config.exec.resolve(),
            labels,
            queries: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            upserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
        }
    }

    /// The executor's resolved thread count — what the TCP front sizes
    /// its connection-worker cap from.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Total live records.
    pub fn len(&self) -> usize {
        self.view.load().0.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a live record carries `id`.
    pub fn contains(&self, id: RecordId) -> bool {
        self.view.load().0.index.contains(id.0)
    }

    /// The live record stored under `id`.
    pub fn get(&self, id: RecordId) -> Option<Record> {
        let (view, _) = self.view.load();
        let schema = view.rules.engine.plan().pair().right().clone();
        view.index.get(id.0).map(|t| Record::from_tuple(schema, t))
    }

    /// The live store as one relation, in store order, ids as tuple ids —
    /// what batch runs and equivalence tests consume.
    pub fn snapshot(&self) -> Relation {
        self.view.load().0.index.live_relation()
    }

    /// Aggregate counters: version, epoch, record count, query and
    /// mutation totals, index anchor kinds.
    pub fn stats(&self) -> ServerStats {
        let (view, epoch) = self.view.load();
        let s = view.index.stats();
        ServerStats {
            version: view.rules.version,
            epoch,
            records: view.index.len(),
            queries: self.queries.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
            index: IndexKinds {
                key_anchors: s.key_anchors as u64,
                qgram_anchors: s.qgram_anchors as u64,
                element_anchors: s.element_anchors as u64,
                scan_keys: s.scan_keys as u64,
            },
        }
    }

    /// A per-thread read handle whose steady-state query path takes no
    /// lock at all: it revalidates its cached `ServerView` with one
    /// atomic load and only refreshes after a publish.
    pub fn reader(&self) -> ServerReader<'_> {
        ServerReader { server: self, cached: EpochReader::new(&self.view) }
    }

    /// Every live record the probe matches (some RCK accepts, no
    /// negative rule vetoes), with the RCK that fired — byte-identical,
    /// work counters ([`QueryResponse::candidates`],
    /// [`QueryResponse::key_evals`], [`QueryResponse::stats`]) included,
    /// to a [`MatchIndex::query`](crate::engine::MatchIndex::query) on an
    /// index built over [`MatchServer::snapshot`] when the store holds no
    /// tombstones; the hits (ids, keys, order) are those of a batch
    /// [`MatchEngine::match_pairs_indexed`] run over the snapshot.
    pub fn query(&self, probe: &Record) -> Result<QueryResponse, ServiceError> {
        self.query_in(&self.view.load().0, probe)
    }

    /// [`MatchServer::query`] for a batch of probes, all answered
    /// against one consistent view (no mutation or swap can interleave
    /// *within* the returned vector). The batch goes through the index's
    /// [`query_batch`](crate::engine::MatchIndex::query_batch) at once,
    /// sharing signature extraction and scratch — answers stay
    /// response-for-response identical to [`MatchServer::query`] per
    /// probe. Schemas are validated up front; one malformed probe fails
    /// the batch before any work runs.
    pub fn query_batch(&self, probes: &[Record]) -> Result<Vec<QueryResponse>, ServiceError> {
        let (view, _) = self.view.load();
        let tuples = self.admit(&view, probes)?;
        self.batch_queries.fetch_add(1, Ordering::Relaxed);
        Ok(view.answer(&tuples))
    }

    /// [`MatchServer::query`], ranked: the same hit set the boolean
    /// query reports, scored by the plan's compiled
    /// [`ScoreModel`](crate::engine::ScoreModel), sorted by score
    /// descending (ties keep store order), filtered to
    /// `score >= min_score` and truncated to `top_k`. The rules stay the
    /// sound candidate generator: scores never add or drop a hit, and
    /// `min_score <= 0.0` with `top_k >= hits` returns the full boolean
    /// hit set. `min_score` must not be NaN
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
        Ok(view.answer(&tuples).pop().expect("one answer per probe"))
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
        let boolean = view.answer(&tuples).pop().expect("one answer per probe");
        let engine = &view.rules.engine;
        let model = engine.plan().score_model();
        let mut hits: Vec<ScoredHit> = (boolean.hits.iter())
            .map(|h| {
                let stored = view.index.get(h.id.0).expect("query hits are live records");
                let score = model.score(engine.runtime(), &tuples[0], stored);
                ScoredHit { id: h.id, key: h.key, score }
            })
            .collect();
        // The hits are in store order; a *stable* sort by score keeps
        // that order among equal scores.
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

    /// Explains the decision for `(probe, stored record id)` under the
    /// current rules: every key's every atom (operator, deciding stage,
    /// θ-bound, exact edit distance, pass/fail), the veto outcome, and —
    /// when a key fired — the MD deduction path that makes that key a
    /// key. Decisions agree exactly with [`MatchServer::query`].
    pub fn explain(&self, probe: &Record, id: RecordId) -> Result<MatchExplanation, ServiceError> {
        let (view, _) = self.view.load();
        check_schema(probe, view.rules.engine.plan().pair().left())?;
        let trace = (view.index.explain(&probe.to_tuple(0), id.0))
            .map_err(|_| ServiceError::UnknownRecord { id })?;
        Ok(MatchExplanation::from_trace(trace, id, view.rules.engine.plan(), view.rules.version))
    }

    /// The one publish path: under the writer lock, `next` builds the
    /// successor of the current view, which is then stored. When `next`
    /// fails nothing is published.
    fn publish<R>(
        &self,
        next: impl FnOnce(&ServerView) -> Result<(ServerView, R), ServiceError>,
    ) -> Result<R, ServiceError> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Loaded under the lock: sees every earlier publish.
        let (view, _) = self.view.load();
        let (successor, out) = next(&view)?;
        self.view.store(Arc::new(successor));
        Ok(out)
    }

    /// A mutation: `apply` runs on a clone of the published index, and
    /// the clone is published under the same rules.
    fn mutate<R>(
        &self,
        apply: impl FnOnce(&mut MatchIndex) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        self.publish(|view| {
            let mut index = view.index.clone();
            let out = apply(&mut index)?;
            Ok((ServerView { rules: view.rules.clone(), index }, out))
        })
    }

    /// Inserts or replaces one record; returns whether a replacement
    /// happened. Equivalent to a one-element
    /// [`MatchServer::upsert_batch`].
    pub fn upsert(&self, id: RecordId, record: &Record) -> Result<bool, ServiceError> {
        Ok(self.upsert_all(&[(id, record)])?[0])
    }

    /// Inserts or replaces a batch of records in input order (each new
    /// or replaced record enters at the end of the store); returns
    /// per-item replacement flags. The batch is atomic: it is published
    /// once, after every item applied, and a failed batch — a schema
    /// mismatch included — publishes nothing. So does an empty one.
    pub fn upsert_batch(&self, items: &[(RecordId, Record)]) -> Result<Vec<bool>, ServiceError> {
        let items: Vec<(RecordId, &Record)> = items.iter().map(|(id, r)| (*id, r)).collect();
        self.upsert_all(&items)
    }

    fn upsert_all(&self, items: &[(RecordId, &Record)]) -> Result<Vec<bool>, ServiceError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // A swap keeps the schema pair, so the store schema is fixed.
        let schema = self.store_schema();
        for (_, record) in items {
            check_schema(record, &schema)?;
        }
        let replaced = self.mutate(|index| {
            (items.iter())
                .map(|&(id, record)| {
                    let replaced = index.contains(id.0);
                    if replaced {
                        index.remove(id.0)?;
                    }
                    index.insert(record.to_tuple(id.0))?;
                    Ok(replaced)
                })
                .collect()
        })?;
        self.upserts.fetch_add(items.len() as u64, Ordering::Relaxed);
        Ok(replaced)
    }

    /// Removes one record from query visibility. Equivalent to a
    /// one-element [`MatchServer::remove_batch`].
    pub fn remove(&self, id: RecordId) -> Result<(), ServiceError> {
        self.remove_batch(&[id])
    }

    /// Removes a batch of records. The batch is atomic: an unknown id
    /// fails it with [`ServiceError::UnknownRecord`] and nothing is
    /// published. An empty batch publishes nothing either.
    pub fn remove_batch(&self, ids: &[RecordId]) -> Result<(), ServiceError> {
        if ids.is_empty() {
            return Ok(());
        }
        self.mutate(|index| {
            (ids.iter()).try_for_each(|&id| {
                index.remove(id.0).map_err(|_| ServiceError::UnknownRecord { id })
            })
        })?;
        self.removes.fetch_add(ids.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Replaces the rule set with MDs parsed from `md_text` (the
    /// [`crate::core::parser`] syntax, against the existing schema pair
    /// and operator table), with **zero read downtime**: the new plan is
    /// compiled and the index rebuilt at version v+1 entirely off to the
    /// side (reads keep serving v throughout, never blocking or failing),
    /// then rules and index are published in one atomic store. The swap
    /// holds the writer lock, so the rebuild sees a frozen store. On
    /// error (parse, compile, resolution) the old version keeps serving
    /// untouched. The rebuild also reclaims tombstoned slots (it doubles
    /// as a [`MatchServer::compact`]).
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
    /// writer lock, so no other swap can land in between.
    fn swap_with_registry(
        &self,
        refinement: Option<&Refinement>,
        add_rules: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> Result<RuleVersion, ServiceError> {
        self.publish(|view| {
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
            Ok((view.rebuilt(Arc::new(RuleEpoch { engine, version }))?, version))
        })
    }

    /// Rebuilds the index over its live records under the *current*
    /// rules, reclaiming the tombstoned slots removals and replacements
    /// leave behind. Query answers and store order are unchanged and the
    /// rule version does not move; reads keep serving throughout,
    /// mutations wait like for a swap.
    pub fn compact(&self) -> Result<(), ServiceError> {
        self.publish(|view| Ok((view.rebuilt(view.rules.clone())?, ())))
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

    fn people_server_on(exec: ExecConfig) -> MatchServer {
        let people = Schema::text("people", &["name", "email"]).unwrap();
        let engine = EngineBuilder::new()
            .dedup_schema(people)
            .md_text("people[email] = people[email] -> people[name] <=> people[name]")
            .target(&["name"], &["name"])
            .build()
            .unwrap();
        MatchServer::with_config(engine, ServerConfig { exec, ..ServerConfig::default() })
    }

    fn people_server() -> MatchServer {
        people_server_on(ExecConfig::serial())
    }

    fn person(server: &MatchServer, n: u64) -> Record {
        let email = format!("p{n}@example.org");
        server.record_builder().field("name", "Ada").field("email", email.as_str()).build().unwrap()
    }

    fn store_ids(server: &MatchServer) -> Vec<u64> {
        server.snapshot().tuples().iter().map(|t| t.id()).collect()
    }

    #[test]
    fn a_failed_remove_batch_publishes_nothing() {
        let server = people_server_on(ExecConfig::fixed(2));
        for n in 0..8 {
            server.upsert(RecordId(n), &person(&server, n)).unwrap();
        }
        let before = (server.len(), store_ids(&server), server.stats().removes, server.epoch());
        let unknown = RecordId(100);
        let batch: Vec<RecordId> =
            (0..4).map(RecordId).chain([unknown]).chain((4..8).map(RecordId)).collect();

        let err = server.remove_batch(&batch);
        assert!(matches!(err, Err(ServiceError::UnknownRecord { id }) if id == unknown), "{err:?}");
        let after = (server.len(), store_ids(&server), server.stats().removes, server.epoch());
        assert_eq!(after, before, "the failed batch removed, counted or published nothing");
    }

    #[test]
    fn compact_reclaims_tombstones_without_moving_the_version() {
        let server = people_server();
        for n in 0..8 {
            server.upsert(RecordId(n), &person(&server, n)).unwrap();
        }
        server.upsert(RecordId(0), &person(&server, 100)).unwrap();
        server.remove(RecordId(1)).unwrap();
        let tombstones = || server.view.load().0.index.stats().tombstones;
        assert_eq!(tombstones(), 2, "a replacement and a removal each leave one");
        let order = store_ids(&server);
        server.compact().unwrap();
        assert_eq!(tombstones(), 0);
        assert_eq!(store_ids(&server), order, "compaction keeps store order");
        assert_eq!(server.version(), RuleVersion(1));
        assert_eq!(server.len(), 7);
    }

    /// A server holding twelve people, all named "Ada", over three emails
    /// (`p0`..`p2`, by id mod 3), upserted in an arrival order that is
    /// not id order, so store order and id order disagree.
    fn filled_people_server() -> MatchServer {
        let server = people_server();
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
        let server = filled_people_server();
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
        let server = filled_people_server();
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
        let server = filled_people_server();
        assert_eq!(server.query_batch(&[]).unwrap(), Vec::new());
        let stats = server.stats();
        assert_eq!((stats.queries, stats.batch_queries), (0, 1));
    }

    #[test]
    fn repeated_probes_in_one_batch_answer_like_single_queries() {
        let server = filled_people_server();
        let unmatched = server.record_builder().field("email", "nobody@example.org").build();
        let probes = vec![
            person(&server, 0),
            person(&server, 1),
            person(&server, 0),
            unmatched.unwrap(),
            person(&server, 0),
        ];
        let batch = server.query_batch(&probes).unwrap();
        let singles: Vec<QueryResponse> = probes.iter().map(|p| server.query(p).unwrap()).collect();
        assert_eq!(batch, singles);
        assert_eq!(batch[0], batch[2]);
        assert_eq!(batch[0], batch[4]);
        assert!(batch[3].hits.is_empty(), "a probe with no name or email match has no hits");
    }

    #[test]
    fn ranked_ties_keep_store_order_and_top_k_serves_a_prefix() {
        let server = filled_people_server();
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
        assert_eq!(ranked, expected, "ties keep store order");
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

    #[test]
    fn a_reader_sees_every_publish_on_its_next_read() {
        let server = filled_people_server();
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
        let server = filled_people_server();
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
