//! [`MatchIndex`]: RCK-driven inverted indices for sub-quadratic candidate
//! generation and point-query serving.
//!
//! The paper's central argument (§4–5) is that a *small* set of key
//! attribute pairs — the deduced relative candidate keys — suffices to
//! decide matches. That makes RCKs the natural source of **index keys**,
//! not merely sort/block keys: the index builds one inverted index per
//! distinct *indexable atom* appearing in the compiled RCKs (shared when
//! several keys mention the same atom). [`anchor_of`] picks one of three
//! anchor kinds from the operator's declared [`OpClass`], so an operator
//! becomes index-ready by declaring its class, with no change here.
//!
//! Every anchor indexes its attribute's **distinct values**, through one
//! kind of per-atom *value dictionary*: each distinct string gets a value
//! id (handed out in first-occurrence order, never reused), the hot
//! columns a prefilter reads (char length and presence mask, or
//! element-set size; none for key anchors), and the live slots holding
//! it as one ascending *run* (inline when it is a single slot). Posting
//! lists hold value ids, so a value repeated across many records is
//! described, listed, decoded and prefiltered once, and a retrieval
//! expands the surviving values to their runs. The anchors differ only
//! in the posting keys a value is listed under:
//!
//! * **keys** for equality and key-deriving atoms. Under `=` a value's
//!   one key is the value itself, and the dictionary's own hash lookup is
//!   the bucket: the atom keeps no postings, and a probe retrieves every
//!   value filed under its string's hash (a collision only widens that). Otherwise a value is
//!   listed under the hash of each key the operator derives for it
//!   (soundex codes, digit strings or synonym classes). Matching values
//!   share a key by the operator's contract, so the union of the probe's
//!   lists is a superset of the atom's match set; two keys whose hashes
//!   collide only share a list, which widens a retrieval and keeps it
//!   sound;
//! * **q-gram posting lists** for thresholded edit-distance atoms, keyed
//!   by the grams of each value's [`StringSig`] filter signature. A
//!   posting list alone would be unsound for short strings (a
//!   within-bound pair need not share a gram when `max(|a|, |b|)` is
//!   small), so every value shorter than a per-atom *safe length* also
//!   goes into a **sparse list** that short probes always scan; the safe
//!   length is derived from the same `θ`-bound arithmetic that makes the
//!   q-gram count filter sound (see [`qgram_safe_len`]);
//! * **element posting lists** for operators that decompose values into
//!   elements — word tokens (Jaccard), padded q-grams (Dice), the
//!   distinct characters of a sorted-character prefix (Jaro–Winkler
//!   above 0.8) — one list of value ids per distinct element, each
//!   value's element-set size stored once, with candidates filtered by
//!   the operator's sound size-ratio bound (Jaccard ≥ s forces the
//!   smaller set to hold ≥ s·|larger| elements), plus an **empty list**
//!   of the element-less values, retrieved only by element-less probes
//!   (∅ ≈ ∅ holds under every such operator; a one-sided ∅ never
//!   matches).
//!
//! Because an RCK is a *conjunction*, a key's candidates are the
//! **intersection** of its indexed atoms' retrievals (each retrieval is a
//! superset of the tuples satisfying that atom, so the intersection is a
//! superset of the tuples satisfying the key — and usually a far smaller
//! one than any single atom's list). A key none of whose atoms is
//! indexable (all operators opaque) falls back to scanning every live
//! tuple, so correctness never depends on indexability.
//!
//! How a key's intersection is computed is planned **per probe**, from
//! the exact posting volume each atom's lists hold for that probe (value
//! entries, read off list headers, no decoding): the cheapest atom is
//! retrieved first — the only atom of a key ever expanded from values to
//! slots, by copying each surviving value's run — every remaining atom's
//! prefilter (length window, presence mask, size ratio, `Null`; one test
//! per value, an edit atom's reading a bound table built once per probe)
//! runs on the survivors before any of its lists is touched, and the
//! survivors are tested against the rest over value ids by membership
//! cursors or against the atom's whole union — whichever walks fewer
//! entries. The index stores no plan and learns nothing from traffic; a
//! plan is a pure function of the probe and the index version, and any
//! plan yields the same hits, because every intersection prefix is a
//! superset of what the key accepts.
//!
//! A candidate set is the union over the plan's RCKs — deduplicated
//! across keys, with each candidate remembering *which* keys retrieved
//! it — always a superset of the tuples any key accepts. Every candidate
//! is then verified by the pair verifier the batch engine uses,
//! [`KeyMatcher`], which extracts the candidate's signatures as its edit
//! atoms compare them — the index keeps none per record — passing the
//! candidate's key-provenance mask so only the keys that retrieved it are
//! evaluated (a key whose retrieval missed the slot cannot accept it).
//! Query answers are therefore *exactly* the batch answers, at a fraction
//! of the verification work ([`QueryOutcome::key_evals`]).
//! The index supports incremental [`MatchIndex::insert`] /
//! [`MatchIndex::remove`] (tombstoned slots; rebuild to compact), which
//! turns the batch reproduction into a serving core: build once, then
//! answer "which tuples match this record?" per point query instead of
//! rescanning sorted-neighborhood windows per batch.
//!
//! ```
//! use matchrules_core::paper::example_2_4_rcks;
//! use matchrules_data::eval::{paper_registry, RuntimeOps};
//! use matchrules_data::fig1;
//! use matchrules_matcher::index::MatchIndex;
//! use std::sync::Arc;
//!
//! let (setting, inst) = fig1::setting_and_instance();
//! let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
//! let rcks = example_2_4_rcks(&setting);
//! let index =
//!     MatchIndex::build(setting.pair.left().arity(), inst.right(), &rcks, &[], ops).unwrap();
//! // t1 matches all four billing tuples, t2 none — same answers as the
//! // batch path, without scanning the relation.
//! let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
//! assert_eq!(index.query(t1).hits.len(), 4);
//! let t2 = inst.left().by_id(fig1::ids::T2).unwrap();
//! assert!(index.query(t2).hits.is_empty());
//! ```
//!
//! [`OpClass`]: matchrules_simdist::ops::OpClass
//! [`StringSig`]: matchrules_simdist::filters::StringSig

mod anchor;
mod atom;
mod dict;
mod probe;

pub use anchor::{anchor_of, qgram_safe_len, Anchor};

use crate::key::{mask_allows, KeyMatcher, PairSide};
use anchor::AnchorScratch;
use atom::ValueIndex;
use dict::Runs;
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::negation::NegativeRule;
use matchrules_core::relative_key::RelativeKey;
use matchrules_core::schema::Schema;
use matchrules_data::eval::{AtomTrace, FilterStats, RuntimeOps};
use matchrules_data::prep::{RelationPrep, SigNeeds};
use matchrules_data::relation::{Relation, Tuple, TupleId};
use matchrules_runtime::{CowMap, CowVec, WorkPool};
use probe::{candidate_masks, PROBE_SCRATCH};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Minimum tuples per chunk when anchor indices are built over a pool:
/// one tuple contributes a handful of hash insertions, so smaller chunks
/// would be all claiming overhead.
const BUILD_MIN_CHUNK: usize = 256;

/// Errors raised while building or maintaining a [`MatchIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Two tuples carry the same id — incremental maintenance addresses
    /// tuples by id, so ids must be unique within the indexed relation.
    DuplicateId {
        /// The offending id.
        id: TupleId,
    },
    /// An inserted tuple's arity does not match the indexed schema.
    ArityMismatch {
        /// Arity of the indexed relation's schema.
        expected: usize,
        /// Arity of the offered tuple.
        got: usize,
    },
    /// A removal named an id that is not (or no longer) indexed.
    UnknownId {
        /// The unresolved id.
        id: TupleId,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DuplicateId { id } => {
                write!(f, "tuple id {id} is already indexed (ids must be unique)")
            }
            IndexError::ArityMismatch { expected, got } => {
                write!(f, "tuple has {got} values but the indexed schema has {expected}")
            }
            IndexError::UnknownId { id } => {
                write!(f, "tuple id {id} is not indexed")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// One query answer: a tuple the probe matches, and the key that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryHit {
    /// Id of the matched tuple.
    pub id: TupleId,
    /// Slot (position in the indexed relation) of the matched tuple.
    pub slot: usize,
    /// Index (into the key list) of the first key that accepted the pair.
    pub key: usize,
}

/// The result of one [`MatchIndex::query`]: the verified hits plus the
/// work accounting (how many candidates the anchors retrieved, and how
/// the similarity filter pipeline decided them). Comparable wholesale
/// (`PartialEq`) so differential tests can assert byte-for-byte
/// equality of outcomes, counters included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The matched tuples, in ascending slot order.
    pub hits: Vec<QueryHit>,
    /// Candidate slots the anchors retrieved (the pairs verified),
    /// deduplicated across keys — the per-query analogue of a batch
    /// report's candidate count.
    pub candidates: usize,
    /// Key evaluations the verification pass ran: per candidate, only
    /// the keys whose retrieval produced the candidate are tried
    /// (a key that did not retrieve a slot cannot accept it — retrieval
    /// is a superset of acceptance), so this is at most
    /// `candidates × keys` and usually far less.
    pub key_evals: usize,
    /// Filter-effectiveness counters of the verification pass.
    pub stats: FilterStats,
}

/// The evaluation trace of one key against one `(probe, indexed tuple)`
/// pair: every atom's outcome, in the key's canonical atom order.
#[derive(Debug, Clone)]
pub struct KeyTrace {
    /// Index of the key in the compiled key list.
    pub key: usize,
    /// Whether every atom held (the key accepted the pair).
    pub matched: bool,
    /// Per-atom outcomes: the atom and how it was decided.
    pub atoms: Vec<(SimilarityAtom, AtomTrace)>,
}

/// The full decision trace of one pair — what [`MatchIndex::explain`]
/// returns: every key's every atom, traced through the same compiled
/// kernels the hot path uses (decisions are identical), plus the veto
/// outcome.
#[derive(Debug, Clone)]
pub struct PairTrace {
    /// One trace per key, in key order.
    pub keys: Vec<KeyTrace>,
    /// The first key that accepted the pair, if any — the key
    /// [`MatchIndex::query`] reports for a hit.
    pub matched_key: Option<usize>,
    /// Whether a negative rule vetoes the pair (a vetoed pair never
    /// matches even when a key accepts).
    pub vetoed: bool,
}

impl PairTrace {
    /// The final decision: some key accepted and no negative rule vetoed.
    pub fn matched(&self) -> bool {
        self.matched_key.is_some() && !self.vetoed
    }
}

/// Aggregate shape of a built index (for reports and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of keys.
    pub keys: usize,
    /// Distinct atoms indexed by key (equality, soundex, digits, synonym
    /// tables).
    pub key_anchors: usize,
    /// Distinct edit atoms indexed (q-gram postings + sparse list).
    pub qgram_anchors: usize,
    /// Distinct atoms indexed as element postings (tokens, q-gram Dice,
    /// Jaro–Winkler).
    pub element_anchors: usize,
    /// Keys with no indexable atom (full scan per probe).
    pub scan_keys: usize,
    /// Live (queryable) tuples.
    pub live: usize,
    /// Removed tuples still occupying slots (rebuild to compact).
    pub tombstones: usize,
    /// Distinct posting lists across all anchors (an equality anchor
    /// keeps none).
    pub posting_lists: usize,
    /// Entries on side lists, one per distinct value: values shorter than
    /// an edit atom's safe length, and element-less values under element
    /// anchors.
    pub sparse_entries: usize,
    /// Live distinct values summed over the anchors: each anchor indexes
    /// its attribute's values, not its records, so `live /
    /// distinct_values` (per anchor) is the repeat factor its postings,
    /// prefilter and build work are divided by.
    pub distinct_values: usize,
    /// Resident bytes of the compressed posting lists (delta blocks,
    /// bitset blocks, unsealed tails) across all anchors.
    pub postings_bytes: usize,
    /// Bytes the same postings would occupy as plain `u32` slot lists —
    /// `postings_bytes / postings_uncompressed_bytes` is the compression
    /// ratio.
    pub postings_uncompressed_bytes: usize,
}

/// The key-provenance mask of a candidate slot when pruning is off
/// (more than 64 keys, or a scan-fallback key): every key must be
/// verified.
const NO_PRUNE: u64 = u64::MAX;

/// An RCK-driven inverted index over one relation: sub-quadratic
/// candidate generation, point-query serving, incremental maintenance.
///
/// Built from the same compiled artifacts the batch engine uses (the key
/// list, the negative rules, the resolved operators), and guaranteed to
/// answer exactly like the batch path: candidates are a superset of every
/// key's accepted pairs, and each candidate is verified by the full
/// compiled disjunction. See the [module docs](self) for the anchor
/// design.
///
/// The index is `Clone`, and a clone is **structurally shared** with its
/// source: every per-slot sequence is a [`CowVec`], every anchor map a
/// [`CowMap`], every immutable leaf (tuple values, sealed posting
/// payloads, the compiled keys) an `Arc`. Cloning copies spines of
/// refcounts, and [`MatchIndex::insert`] / [`MatchIndex::remove`] on the
/// clone copy only the chunks and stripes they touch — the source never
/// changes. Serving layers rely on exactly that: they publish an index
/// as an immutable snapshot and build its successor from a clone, paying
/// per write for what the write touches, not for the store. An index
/// nobody cloned mutates fully in place.
#[derive(Clone)]
pub struct MatchIndex {
    keys: Arc<[RelativeKey]>,
    negatives: Arc<[NegativeRule]>,
    ops: Arc<RuntimeOps>,
    schema: Arc<Schema>,
    /// The indexed tuples; slots are positions, removals leave tombstones.
    tuples: CowVec<Tuple>,
    alive: CowVec<bool>,
    live: usize,
    /// Signature needs of the probe side (probes are prepared per query;
    /// the stored side keeps no signatures: verification extracts a
    /// candidate's as its edit atoms compare them).
    probe_needs: SigNeeds,
    /// Inverted indices over the distinct indexable atoms of the keys.
    atom_indices: Vec<ValueIndex>,
    /// Per key: positions into `atom_indices` of the key's indexed atoms.
    /// An empty list means the key is unindexable and scans.
    key_atoms: Arc<[Vec<usize>]>,
    by_id: CowMap<TupleId, u32>,
}

impl fmt::Debug for MatchIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("MatchIndex")
            .field("keys", &stats.keys)
            .field("live", &stats.live)
            .field("tombstones", &stats.tombstones)
            .field("key_anchors", &stats.key_anchors)
            .field("qgram_anchors", &stats.qgram_anchors)
            .field("element_anchors", &stats.element_anchors)
            .field("scan_keys", &stats.scan_keys)
            .field("distinct_values", &stats.distinct_values)
            .finish()
    }
}

impl MatchIndex {
    /// Serial build — see [`MatchIndex::build_in`].
    pub fn build(
        probe_arity: usize,
        relation: &Relation,
        keys: &[RelativeKey],
        negatives: &[NegativeRule],
        ops: Arc<RuntimeOps>,
    ) -> Result<Self, IndexError> {
        Self::build_in(&WorkPool::serial(), probe_arity, relation, keys, negatives, ops)
    }

    /// Builds the index over `relation` (the index holds its own handles
    /// on the tuples — sharing their values — so it can be maintained
    /// incrementally), anchoring each key as
    /// described in the [module docs](self). `probe_arity` is the arity
    /// of the probe side's schema — for a reflexive (dedup) setting it
    /// equals the relation's own arity.
    ///
    /// Anchor population is chunked over `pool`, with per-chunk partial
    /// indices merged in chunk order, so a parallel build is identical to
    /// a serial one.
    ///
    /// Fails with [`IndexError::DuplicateId`] when the relation carries
    /// two tuples with one id (incremental maintenance addresses tuples
    /// by id).
    ///
    /// # Panics
    ///
    /// Panics when the relation holds more than `u32::MAX` tuples (slots
    /// are stored as `u32` for posting-list compactness).
    pub fn build_in(
        pool: &WorkPool,
        probe_arity: usize,
        relation: &Relation,
        keys: &[RelativeKey],
        negatives: &[NegativeRule],
        ops: Arc<RuntimeOps>,
    ) -> Result<Self, IndexError> {
        assert!(
            relation.len() <= u32::MAX as usize,
            "match index supports at most u32::MAX tuples"
        );
        let matcher = KeyMatcher::new(keys, &ops).with_negatives(negatives);
        let (probe_needs, _) = matcher.sig_needs(probe_arity, relation.schema().arity());

        // One inverted index per distinct indexable atom (several keys
        // often share an atom — email equality, say — and pay for one
        // index); each key records which of them constrain it.
        let mut anchors: Vec<(SimilarityAtom, Anchor)> = Vec::new();
        let mut atom_of: HashMap<SimilarityAtom, usize> = HashMap::new();
        let mut key_atoms: Vec<Vec<usize>> = Vec::with_capacity(keys.len());
        for key in keys {
            let mut refs = Vec::new();
            for atom in key.atoms() {
                let Some(anchor) = anchor_of(ops.class(atom.op)) else {
                    continue;
                };
                let pos = *atom_of.entry(*atom).or_insert_with(|| {
                    anchors.push((*atom, anchor));
                    anchors.len() - 1
                });
                refs.push(pos);
            }
            // By position: each probe orders the atoms by its own posting
            // volumes, and position breaks volume ties.
            refs.sort_unstable();
            refs.dedup();
            key_atoms.push(refs);
        }

        // Populate every atom index: per-chunk partial indices, folded in
        // chunk order so value ids and lists come out as a serial build's. A one-thread pool
        // gets one chunk: partials it would only fold back together
        // serially are pure overhead.
        let empty = |base: usize| -> Vec<ValueIndex> {
            let base = base as u32;
            anchors.iter().map(|(atom, anchor)| ValueIndex::new(atom, *anchor, base)).collect()
        };
        let tuples = relation.tuples();
        let min_chunk = if pool.threads() == 1 { tuples.len() } else { BUILD_MIN_CHUNK };
        let partials: Vec<Vec<ValueIndex>> =
            pool.par_ranges(tuples.len(), min_chunk, |_, range| {
                let mut partial = empty(range.start);
                let mut scratch = AnchorScratch::default();
                for pos in range {
                    for atom in &mut partial {
                        atom.add(
                            pos as u32,
                            &tuples[pos],
                            tuples,
                            &ops,
                            &mut scratch,
                            Runs::Deferred,
                        );
                    }
                }
                partial
            });
        let mut partials = partials.into_iter();
        // The first chunk's partial *is* the index so far; folding it
        // into empty shapes would re-insert every entry.
        let mut atom_indices = partials.next().unwrap_or_else(|| empty(0));
        for chunk in partials {
            for (atom, partial) in atom_indices.iter_mut().zip(chunk) {
                atom.merge(partial, tuples);
            }
        }
        // Every value's slots are known now: fill each run once.
        atom_indices.iter_mut().for_each(ValueIndex::fill_runs);

        let mut by_id = CowMap::new();
        for (pos, tuple) in tuples.iter().enumerate() {
            if by_id.insert(tuple.id(), pos as u32).is_some() {
                return Err(IndexError::DuplicateId { id: tuple.id() });
            }
        }

        Ok(MatchIndex {
            keys: keys.into(),
            negatives: negatives.into(),
            ops,
            schema: relation.schema().clone(),
            tuples: tuples.iter().cloned().collect(),
            alive: tuples.iter().map(|_| true).collect(),
            live: tuples.len(),
            probe_needs,
            atom_indices,
            key_atoms: key_atoms.into(),
            by_id,
        })
    }

    /// Number of live (queryable) tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots allocated so far, tombstoned ones included: every
    /// [`QueryHit::slot`] is below this, and slots are handed out in
    /// insertion order and never reused.
    pub fn slots(&self) -> usize {
        self.tuples.len()
    }

    /// The live tuples with their slots, in slot (= insertion) order.
    pub fn live_tuples(&self) -> impl Iterator<Item = (usize, &Tuple)> {
        (self.tuples.iter().zip(self.alive.iter()).enumerate())
            .filter_map(|(slot, (tuple, &alive))| alive.then_some((slot, tuple)))
    }

    /// Whether `id` is indexed and live.
    pub fn contains(&self, id: TupleId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The live tuple with `id` — `None` for unknown *and* for removed
    /// ids.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        self.by_id.get(&id).map(|&slot| &self.tuples[slot as usize])
    }

    /// Checks the structural invariants (tests only): every per-slot
    /// sequence covers exactly the allocated slots, `by_id` and the
    /// liveness flags describe the same live set, and every anchor passes
    /// its own check: its value dictionary is exact (per-value columns,
    /// runs, collision chains) and its posting lists hold exactly its live
    /// values, counting the dead ones as tombstones.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let slots = self.tuples.len();
        assert_eq!(self.alive.len(), slots, "one liveness flag per slot");
        assert_eq!(self.live_tuples().count(), self.live, "live count matches the flags");
        assert_eq!(self.by_id.len(), self.live, "one id entry per live tuple");
        for (slot, tuple) in self.live_tuples() {
            assert_eq!(self.by_id.get(&tuple.id()), Some(&(slot as u32)), "id maps to its slot");
        }
        for atom in &self.atom_indices {
            atom.check(&self.tuples, &self.alive, &self.ops);
        }
    }

    /// Aggregate shape counters.
    pub fn stats(&self) -> IndexStats {
        let mut stats = IndexStats {
            keys: self.key_atoms.len(),
            key_anchors: 0,
            qgram_anchors: 0,
            element_anchors: 0,
            scan_keys: self.key_atoms.iter().filter(|refs| refs.is_empty()).count(),
            live: self.live,
            tombstones: self.tuples.len() - self.live,
            posting_lists: 0,
            sparse_entries: 0,
            distinct_values: 0,
            postings_bytes: 0,
            postings_uncompressed_bytes: 0,
        };
        self.atom_indices.iter().for_each(|atom| atom.count_into(&mut stats));
        stats
    }

    /// The candidate slots for one probe tuple: per key, the
    /// intersection of its indexed atoms' retrievals (a key is a
    /// conjunction); across keys, the union (the matcher is a
    /// disjunction) — ascending, deduplicated, live slots only. Always a
    /// superset of the slots whose tuples the key disjunction accepts —
    /// the retrieval contract everything else rests on.
    ///
    /// # Panics
    ///
    /// Panics when the probe's arity is smaller than the probe-side
    /// schema the keys were compiled for.
    pub fn candidates_for(&self, probe: &Tuple) -> Vec<usize> {
        let mut stats = FilterStats::default();
        let prep = self.probe_prep(std::slice::from_ref(probe));
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            candidate_masks(self, PairSide::new(probe, prep.row(0)), scratch, &mut stats);
            scratch.masked.iter().map(|&(slot, _)| slot as usize).collect()
        })
    }

    /// Point query: every live tuple the probe matches (some key accepts,
    /// no negative rule vetoes), with the key that fired, in ascending
    /// slot order — exactly the pairs a batch run over
    /// `({probe}, relation)` would report for this probe.
    ///
    /// Candidates are deduplicated across keys before verification
    /// (verifications saved by the fold are counted in
    /// [`FilterStats::dedup_saved`]), and each candidate is verified by
    /// the same [`KeyMatcher`] as the batch path, only against the keys
    /// that retrieved it (sound because a key's retrieval is a superset
    /// of its acceptance); [`QueryOutcome::key_evals`] counts the
    /// evaluations actually run.
    pub fn query(&self, probe: &Tuple) -> QueryOutcome {
        let prep = self.probe_prep(std::slice::from_ref(probe));
        self.query_side(PairSide::new(probe, prep.row(0)))
    }

    /// Queries a batch of probes, sharing signature extraction and
    /// per-thread scratch across the whole batch. Outcomes are
    /// byte-identical — hits, counters and all — to mapping
    /// [`MatchIndex::query`] over the probes one by one; only the
    /// amortized preparation cost differs.
    pub fn query_batch(&self, probes: &[Tuple]) -> Vec<QueryOutcome> {
        let prep = self.probe_prep(probes);
        let query = |(row, probe)| self.query_side(PairSide::new(probe, prep.row(row)));
        probes.iter().enumerate().map(query).collect()
    }

    fn query_side(&self, probe: PairSide<'_>) -> QueryOutcome {
        let mut stats = FilterStats::default();
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            candidate_masks(self, probe, scratch, &mut stats);
            self.verify(probe, &scratch.masked, stats)
        })
    }

    /// Verifies the candidates `masked` retrieved for `probe` (each with
    /// its key-provenance mask) into the query's outcome.
    fn verify(
        &self,
        probe: PairSide<'_>,
        masked: &[(u32, u64)],
        mut stats: FilterStats,
    ) -> QueryOutcome {
        let candidates = masked.len();
        let matcher = self.matcher();
        let mut key_evals = 0usize;
        let mut hits = Vec::new();
        for &(slot, mask) in masked {
            let slot = slot as usize;
            let record = PairSide::bare(&self.tuples[slot]);
            let key = matcher.first_key(probe, record, Some(mask), &mut stats);
            // `first_key` evaluated every key the mask allows, up to the
            // one that fired.
            let tried = key.map_or(self.keys.len(), |key| key + 1);
            key_evals += (0..tried).filter(|&key| mask_allows(Some(mask), key)).count();
            if let Some(key) = key.filter(|_| !matcher.vetoed(probe, record, &mut stats)) {
                hits.push(QueryHit { id: record.tuple.id(), slot, key });
            }
        }
        QueryOutcome { hits, candidates, key_evals, stats }
    }

    /// The pair verifier over the index's keys and negative rules.
    fn matcher(&self) -> KeyMatcher<'_> {
        KeyMatcher::new(&self.keys, &self.ops).with_negatives(&self.negatives)
    }

    /// The signatures of a probe batch (or of one probe).
    fn probe_prep(&self, probes: &[Tuple]) -> RelationPrep {
        RelationPrep::build(probes, &self.probe_needs)
    }

    /// The compiled keys the index retrieves and verifies with.
    pub fn keys(&self) -> &[RelativeKey] {
        &self.keys
    }

    /// A compacted snapshot of the live tuples, in slot order — the
    /// relation an index rebuild (rule swap, tombstone compaction) starts
    /// from. Building a fresh index over this snapshot answers every
    /// query exactly like `self`.
    pub fn live_relation(&self) -> Relation {
        let mut rel = Relation::new(self.schema.clone());
        for (_, tuple) in self.live_tuples() {
            rel.push(tuple.clone());
        }
        rel
    }

    /// Explains the decision for `(probe, tuple with id)`: every key's
    /// every atom traced through the compiled kernels (operator outcome,
    /// deciding stage, θ-bound and exact edit distance — see
    /// [`AtomTrace`]), plus the veto outcome. Decisions agree exactly
    /// with [`MatchIndex::query`]: `trace.matched()` iff the query
    /// returns the id, and `trace.matched_key` is the hit's key.
    ///
    /// Fails with [`IndexError::UnknownId`] when `id` is not live.
    pub fn explain(&self, probe: &Tuple, id: TupleId) -> Result<PairTrace, IndexError> {
        let &slot = self.by_id.get(&id).ok_or(IndexError::UnknownId { id })?;
        let probe_prep = self.probe_prep(std::slice::from_ref(probe));
        let probe = PairSide::new(probe, probe_prep.row(0));
        let record = PairSide::bare(&self.tuples[slot as usize]);
        let keys: Vec<KeyTrace> = (self.keys.iter().enumerate())
            .map(|(key, k)| {
                let atoms: Vec<(SimilarityAtom, AtomTrace)> = (k.atoms().iter())
                    .map(|atom| {
                        let (sa, sb) = (probe.sigs.sig(atom.left), record.sigs.sig(atom.right));
                        (*atom, self.ops.atom_trace(atom, probe.tuple, record.tuple, sa, sb))
                    })
                    .collect();
                KeyTrace { key, matched: atoms.iter().all(|(_, t)| t.matched), atoms }
            })
            .collect();
        let matched_key = keys.iter().find(|k| k.matched).map(|k| k.key);
        let vetoed = self.matcher().vetoed(probe, record, &mut FilterStats::default());
        Ok(PairTrace { keys, matched_key, vetoed })
    }

    /// Inserts one tuple, indexing it under every anchor; returns its
    /// slot. The tuple is immediately visible to queries.
    pub fn insert(&mut self, tuple: Tuple) -> Result<usize, IndexError> {
        let expected = self.schema.arity();
        if tuple.values().len() != expected {
            return Err(IndexError::ArityMismatch { expected, got: tuple.values().len() });
        }
        if self.by_id.contains_key(&tuple.id()) {
            return Err(IndexError::DuplicateId { id: tuple.id() });
        }
        assert!(
            self.tuples.len() < u32::MAX as usize,
            "match index supports at most u32::MAX tuples"
        );
        let slot = self.tuples.len() as u32;
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            for atom in &mut self.atom_indices {
                atom.add(slot, &tuple, &self.tuples, &self.ops, &mut scratch.anchor, Runs::Append);
            }
        });
        self.by_id.insert(tuple.id(), slot);
        self.alive.push(true);
        self.live += 1;
        self.tuples.push(tuple);
        Ok(slot as usize)
    }

    /// Removes the tuple with `id` from query visibility. The slot is
    /// tombstoned and purged from every anchor, each of which indexes
    /// distinct values: the slot leaves its value's run, and a value
    /// whose last slot goes leaves the dictionary and is tombstoned on
    /// its lists, which count it dead and rewrite each block in place once
    /// half its entries are dead — so a heavily-churned index keeps
    /// probing at near-fresh cost without a rebuild. (The slot still holds
    /// the tuple's handle and its per-slot retrieval data; rebuild to
    /// reclaim that space.)
    pub fn remove(&mut self, id: TupleId) -> Result<(), IndexError> {
        let slot = self.by_id.remove(&id).ok_or(IndexError::UnknownId { id })?;
        *self.alive.get_mut(slot as usize) = false;
        self.live -= 1;
        let tuple = &self.tuples[slot as usize];
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            for atom in &mut self.atom_indices {
                atom.remove_slot(slot, tuple, &self.ops, &mut scratch.anchor);
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::dependency::SimilarityAtom;
    use matchrules_core::operators::OperatorTable;
    use matchrules_core::paper::example_2_4_rcks;
    use matchrules_core::schema::Schema;
    use matchrules_data::eval::paper_registry;
    use matchrules_data::fig1;
    use matchrules_data::value::Value;
    use matchrules_simdist::ops::{EqualityOp, OpClass, SimilarityOp, SynonymOp};

    fn fig1_index(
    ) -> (matchrules_core::paper::PaperSetting, matchrules_data::relation::InstancePair, MatchIndex)
    {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rcks = example_2_4_rcks(&setting);
        let index =
            MatchIndex::build(setting.pair.left().arity(), inst.right(), &rcks, &[], ops).unwrap();
        (setting, inst, index)
    }

    #[test]
    fn query_agrees_with_key_matcher_on_the_cross_product() {
        let (setting, inst, index) = fig1_index();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let mut stats = FilterStats::default();
        for probe in inst.left().tuples() {
            let outcome = index.query(probe);
            for (slot, tuple) in inst.right().tuples().iter().enumerate() {
                let (a, b) = (PairSide::bare(probe), PairSide::bare(tuple));
                let expect = matcher.first_key(a, b, None, &mut stats);
                let got = outcome.hits.iter().find(|h| h.slot == slot).map(|h| h.key);
                assert_eq!(got, expect, "probe #{} vs slot {slot}", probe.id());
            }
            assert!(outcome.candidates >= outcome.hits.len());
        }
    }

    /// Builds `rel` serially and at 2 and 8 threads: every build passes
    /// the invariants, and the parallel ones retrieve the serial build's
    /// candidate set for every probe, answer it with the serial build's
    /// whole outcome (counters included) and report its stats.
    fn assert_parallel_build_is_serial(
        probe_arity: usize,
        rel: &Relation,
        probes: &[Tuple],
        keys: &[RelativeKey],
        ops: &Arc<RuntimeOps>,
    ) {
        let serial = MatchIndex::build(probe_arity, rel, keys, &[], ops.clone()).unwrap();
        serial.check_invariants();
        for threads in [2, 8] {
            let pool = WorkPool::with_threads(threads);
            let parallel =
                MatchIndex::build_in(&pool, probe_arity, rel, keys, &[], ops.clone()).unwrap();
            parallel.check_invariants();
            assert_eq!(parallel.stats(), serial.stats(), "stats at {threads} threads");
            for probe in probes {
                let at = format!("probe #{} at {threads} threads", probe.id());
                assert_eq!(parallel.candidates_for(probe), serial.candidates_for(probe), "{at}");
                assert_eq!(parallel.query(probe), serial.query(probe), "{at}");
            }
        }
    }

    #[test]
    fn parallel_build_answers_like_serial() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rcks = example_2_4_rcks(&setting);
        let arity = setting.pair.left().arity();
        assert_parallel_build_is_serial(arity, inst.right(), inst.left().tuples(), &rcks, &ops);

        // Several build chunks over repeating values: partial
        // dictionaries must merge into the serial one.
        let setting = matchrules_core::paper::extended();
        let data = matchrules_data::dirty::generate_dirty(
            &setting.pair,
            &setting.target,
            700,
            &matchrules_data::dirty::NoiseConfig { seed: 3, ..Default::default() },
        );
        assert!(data.billing.len() > 4 * BUILD_MIN_CHUNK, "the build must run in chunks");
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let (d, eq) = (setting.ops.get("≈d").unwrap(), setting.ops.get("=").unwrap());
        let atom = |l: &str, r: &str, op| {
            let (l, r) =
                (setting.pair.left().attr(l).unwrap(), setting.pair.right().attr(r).unwrap());
            SimilarityAtom::new(l, r, op)
        };
        let keys = [
            RelativeKey::new(["FN", "LN", "street", "city"].map(|a| atom(a, a, d)).to_vec()),
            RelativeKey::new(vec![atom("tel", "phn", eq), atom("FN", "FN", d)]),
        ];
        let arity = setting.pair.left().arity();
        assert_parallel_build_is_serial(arity, &data.billing, data.credit.tuples(), &keys, &ops);

        // The names plan's element anchors over generated persons, whose
        // first names and cities repeat across chunks.
        let schema = Arc::new(Schema::text("R", &["first", "last", "city", "phone"]).unwrap());
        let mut rel = Relation::new(schema);
        for (i, p) in matchrules_data::gen::generate_persons(1_500, 11).iter().enumerate() {
            rel.push_strs(i as u64 + 1, &[&p.first, &p.last, &p.city, &p.tel]);
        }
        let mut table = OperatorTable::new();
        let [jw, sx, tok, eq] = ["≈jw", "≈sx", "≈tok", "="].map(|op| table.intern(op));
        let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).unwrap());
        let atom = |attr, op| SimilarityAtom::new(attr, attr, op);
        let keys = [
            RelativeKey::new(vec![atom(0, jw), atom(1, sx), atom(2, tok)]),
            RelativeKey::new(vec![atom(3, eq), atom(1, sx)]),
        ];
        let probes: Vec<Tuple> = rel.tuples().iter().step_by(3).cloned().collect();
        assert_parallel_build_is_serial(4, &rel, &probes, &keys, &ops);
    }

    /// Every anchor counts its live values — q-gram, element, derived-key
    /// and equality alike: a repeated string once, a value while any slot
    /// holds it, and a dead value's string comes back under a fresh id;
    /// the invariants hold after each step.
    #[test]
    fn distinct_values_count_live_values_per_qgram_anchor() {
        let values = ["Clifford", "Jones", "Clifford", "Cliford", "Clifford", "Jones"];
        let distinct = |index: &MatchIndex| {
            index.check_invariants();
            index.stats().distinct_values
        };
        // Per operator, the hits of a "Clifford" probe once "Cliford" is
        // back: the edit and soundex anchors retrieve it, the token and
        // equality anchors do not.
        let cases: [(&str, &[u64]); 4] =
            [("≈dl", &[3, 5, 7]), ("≈tok", &[3, 5]), ("≈sx", &[3, 5, 7]), ("=", &[3, 5])];
        for (op, hits) in cases {
            let (mut index, _ops) = single_atom_index(op, &values);
            assert_eq!(distinct(&index), 3, "{op}");
            assert!(format!("{index:?}").contains("distinct_values: 3"), "{op}: {index:?}");
            index.remove(1).unwrap();
            assert_eq!(distinct(&index), 3, "{op}: Clifford is still held");
            index.remove(4).unwrap();
            assert_eq!(distinct(&index), 2, "{op}: Cliford left with its one slot");
            let slot = index.insert(Tuple::new(7, vec![Value::str("Cliford")])).unwrap();
            assert_eq!(distinct(&index), 3, "{op}");
            let dict = index.atom_indices[0].dict();
            assert_eq!(
                (dict.len(), dict.value_of(slot as u32)),
                (4, 3),
                "{op}: Cliford came back under a fresh id"
            );
            let probe = Tuple::new(9, vec![Value::str("Clifford")]);
            let ids: Vec<u64> = index.query(&probe).hits.iter().map(|h| h.id).collect();
            assert_eq!(ids, hits, "{op}");
        }
    }

    #[test]
    fn insert_makes_a_tuple_queryable_and_remove_hides_it() {
        let (_setting, inst, mut index) = fig1_index();
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        assert_eq!(index.len(), 4);
        // A fifth billing tuple: t5's twin under a fresh id.
        let twin = inst.right().by_id(fig1::ids::T5).unwrap();
        let inserted = Tuple::new(99, twin.values().to_vec());
        let slot = index.insert(inserted).unwrap();
        assert_eq!(index.len(), 5);
        assert!(index.contains(99));
        let hits = index.query(t1).hits;
        assert!(hits.iter().any(|h| h.id == 99 && h.slot == slot), "{hits:?}");

        index.remove(99).unwrap();
        assert_eq!(index.len(), 4);
        assert!(!index.contains(99));
        assert!(index.query(t1).hits.iter().all(|h| h.id != 99));
        assert_eq!(index.stats().tombstones, 1);
        // Removing again is an error; so is removing the never-indexed.
        assert_eq!(index.remove(99), Err(IndexError::UnknownId { id: 99 }));
    }

    #[test]
    fn insert_validates_arity_and_id() {
        let (_setting, inst, mut index) = fig1_index();
        let bad = Tuple::new(100, vec![Value::str("x")]);
        assert!(matches!(index.insert(bad), Err(IndexError::ArityMismatch { got: 1, .. })));
        let dup_id = inst.right().tuples()[0].id();
        let dup = Tuple::new(dup_id, inst.right().tuples()[0].values().to_vec());
        assert_eq!(index.insert(dup), Err(IndexError::DuplicateId { id: dup_id }));
    }

    #[test]
    fn duplicate_ids_fail_the_build() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rcks = example_2_4_rcks(&setting);
        let mut rel = inst.right().clone();
        rel.push(Tuple::new(
            inst.right().tuples()[0].id(),
            inst.right().tuples()[0].values().to_vec(),
        ));
        let err = MatchIndex::build(setting.pair.left().arity(), &rel, &rcks, &[], ops);
        assert!(matches!(err, Err(IndexError::DuplicateId { .. })));
    }

    #[test]
    fn negative_rules_veto_query_hits() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rcks = example_2_4_rcks(&setting);
        let email_l = setting.pair.left().attr("email").unwrap();
        let email_r = setting.pair.right().attr("email").unwrap();
        let g_l = setting.pair.left().attr("gender").unwrap();
        let g_r = setting.pair.right().attr("gender").unwrap();
        let negatives = vec![NegativeRule::same_but_different(
            &setting.pair,
            "email-gender",
            (email_l, email_r),
            (g_l, g_r),
        )
        .unwrap()];
        let index = MatchIndex::build(
            setting.pair.left().arity(),
            inst.right(),
            &rcks,
            &negatives,
            ops.clone(),
        )
        .unwrap();
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        let t5_slot = inst.right().tuples().iter().position(|t| t.id() == fig1::ids::T5).unwrap();
        let hits = index.query(t1).hits;
        // Same veto outcome as the KeyMatcher test: t5 vetoed, t4 kept.
        assert!(hits.iter().all(|h| h.slot != t5_slot), "{hits:?}");
        let t4_slot = inst.right().tuples().iter().position(|t| t.id() == fig1::ids::T4).unwrap();
        assert!(hits.iter().any(|h| h.slot == t4_slot));
    }

    /// A registry whose `≈opaque` operator declares `OpClass::Scan`
    /// (a synonym table with a fallback — the one standard shape retrieval
    /// cannot cover) but still matches like plain equality.
    fn scan_registry() -> matchrules_simdist::ops::OpRegistry {
        let mut reg = paper_registry();
        reg.register(Arc::new(
            SynonymOp::from_groups("≈opaque", Vec::<Vec<&str>>::new())
                .with_fallback(Arc::new(EqualityOp)),
        ));
        reg
    }

    #[test]
    fn unindexable_keys_fall_back_to_scanning() {
        // A key whose only operator declares Scan: the key gets no
        // anchor, and every live tuple becomes a candidate.
        let schema = Arc::new(Schema::text("R", &["name"]).unwrap());
        let mut rel = Relation::new(schema);
        rel.push_strs(1, &["Jones"]);
        rel.push_strs(2, &["Johnson"]);
        let mut table = OperatorTable::new();
        let op = table.intern("≈opaque");
        let ops = Arc::new(RuntimeOps::resolve(&table, &scan_registry()).unwrap());
        let key = RelativeKey::new(vec![SimilarityAtom::new(0, 0, op)]);
        let index = MatchIndex::build(1, &rel, std::slice::from_ref(&key), &[], ops).unwrap();
        assert_eq!(index.stats().scan_keys, 1);
        let probe = Tuple::new(7, vec![Value::str("Jones")]);
        assert_eq!(index.candidates_for(&probe), vec![0, 1]);
        let hits = index.query(&probe).hits;
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn qgram_anchor_retrieves_near_matches_and_sparse_short_strings() {
        // One key, one edit atom: the anchor is a q-gram posting index.
        let schema = Arc::new(Schema::text("R", &["name"]).unwrap());
        let mut rel = Relation::new(schema);
        rel.push_strs(1, &["Clifford"]);
        rel.push_strs(2, &["Cliford"]); // 1 edit from Clifford
        rel.push_strs(3, &["Z"]); // one char: no grams, below the safe length
        rel.push_strs(4, &["Washington"]);
        let mut table = OperatorTable::new();
        let dl = table.intern("≈dl"); // θ = 0.8
        let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).unwrap());
        let key = RelativeKey::new(vec![SimilarityAtom::new(0, 0, dl)]);
        let index = MatchIndex::build(1, &rel, std::slice::from_ref(&key), &[], ops).unwrap();
        let stats = index.stats();
        assert_eq!(stats.qgram_anchors, 1);
        assert!(stats.sparse_entries >= 1, "short strings live on the sparse list");

        let probe = Tuple::new(9, vec![Value::str("Clifford")]);
        let hits = index.query(&probe).hits;
        assert_eq!(
            hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![1, 2],
            "both Clifford variants, nothing else"
        );
        // A gram-less probe can only be reached through the sparse list
        // (at θ = 0.8 a length-1 pair matches only on equality).
        let short = Tuple::new(10, vec![Value::str("Z")]);
        let hits = index.query(&short).hits;
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3]);
        // A null probe matches nothing.
        let null = Tuple::new(11, vec![Value::Null]);
        assert!(index.query(&null).hits.is_empty());
        assert!(index.candidates_for(&null).is_empty());
    }

    /// One single-atom key over a one-column relation, with the hit sets
    /// checked against a brute-force scan through the same operator.
    fn single_atom_index(op_name: &str, values: &[&str]) -> (MatchIndex, Arc<RuntimeOps>) {
        let schema = Arc::new(Schema::text("R", &["v"]).unwrap());
        let mut rel = Relation::new(schema);
        for (i, v) in values.iter().enumerate() {
            // Not push_strs: "" must stay a real empty string here (the
            // empty-bucket behaviour under set/bag anchors is under test).
            rel.push(Tuple::new(i as u64 + 1, vec![Value::str(v)]));
        }
        let mut table = OperatorTable::new();
        let op = table.intern(op_name);
        let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).unwrap());
        let key = RelativeKey::new(vec![SimilarityAtom::new(0, 0, op)]);
        let index =
            MatchIndex::build(1, &rel, std::slice::from_ref(&key), &[], ops.clone()).unwrap();
        (index, ops)
    }

    /// Asserts that the index's hit set for each probe equals the scan
    /// answer, and that candidates are a superset of the hits.
    fn assert_matches_scan(index: &MatchIndex, ops: &RuntimeOps, op_name: &str, probes: &[&str]) {
        let mut table = OperatorTable::new();
        let op = table.intern(op_name);
        let ops2 = RuntimeOps::resolve(&table, &paper_registry()).unwrap();
        let _ = ops; // decisions below run through the rebuilt table
        for (i, p) in probes.iter().enumerate() {
            let probe = Tuple::new(1000 + i as u64, vec![Value::str(p)]);
            let hits: Vec<u64> = index.query(&probe).hits.iter().map(|h| h.id).collect();
            let scan: Vec<u64> = index
                .live_tuples()
                .filter(|(_, t)| ops2.value_matches(op, probe.get(0), t.get(0)))
                .map(|(_, t)| t.id())
                .collect();
            assert_eq!(hits, scan, "{op_name} probe {p:?}");
            let cands = index.candidates_for(&probe);
            for hit in &hits {
                let (slot, _) = index.live_tuples().find(|(_, t)| t.id() == *hit).unwrap();
                assert!(cands.contains(&slot), "{op_name} probe {p:?} missed {hit}");
            }
        }
    }

    #[test]
    fn key_anchor_buckets_soundex_codes() {
        let values = ["Robert", "Rupert", "Smith", "Smyth", "", "908-1111", "Smith", "Robert"];
        let (index, ops) = single_atom_index("≈sx", &values);
        index.check_invariants();
        let stats = index.stats();
        assert_eq!(stats.key_anchors, 1);
        assert_eq!(stats.scan_keys, 0);
        // The anchor indexes the six distinct names, not the eight rows.
        assert_eq!((stats.live, stats.distinct_values), (8, 6));
        assert_matches_scan(&index, &ops, "≈sx", &["Robert", "Smith", "smith", "", "none"]);
        // Soundex twins are retrieved through one key's list, not a scan.
        let probe = Tuple::new(50, vec![Value::str("Robert")]);
        let cands = index.candidates_for(&probe);
        assert!(cands.len() < values.len(), "the key list should prune: {cands:?}");
    }

    #[test]
    fn token_anchor_retrieves_by_shared_tokens_with_ratio_filter() {
        let values = [
            "10 Oak Street",
            "Oak Street 10",
            "10 Maple Avenue",
            "!!!", // token-less: empty-elements bucket
            "Oak",
        ];
        let (index, ops) = single_atom_index("≈tok", &values);
        let stats = index.stats();
        assert_eq!(stats.element_anchors, 1);
        assert_eq!(stats.scan_keys, 0);
        assert!(stats.sparse_entries >= 1, "token-less value on the empty list");
        assert_matches_scan(
            &index,
            &ops,
            "≈tok",
            &["10 Oak Street", "oak street", "???", "Maple", ""],
        );
        // A token-less probe retrieves only the empty bucket, never the
        // full relation.
        let probe = Tuple::new(60, vec![Value::str("...")]);
        assert_eq!(index.candidates_for(&probe), vec![3]);
    }

    #[test]
    fn qgram_dice_anchor_uses_element_postings() {
        let values = ["Clifford", "Cliford", "Washington", ""];
        let (index, ops) = single_atom_index("≈qg", &values);
        let stats = index.stats();
        assert_eq!(stats.element_anchors, 1, "Dice anchors through element postings");
        assert_eq!(stats.qgram_anchors, 0);
        assert_matches_scan(&index, &ops, "≈qg", &["Clifford", "Washingtan", "", "zzz"]);
    }

    #[test]
    fn element_anchor_is_sound_for_jaro_winkler() {
        let values = ["Clifford", "Cliford", "martha", "marhta", "Jones", ""];
        let (index, ops) = single_atom_index("≈jw", &values);
        let stats = index.stats();
        assert_eq!(stats.element_anchors, 1);
        assert_eq!(stats.scan_keys, 0, "jw at 0.9 must be indexable");
        assert_matches_scan(&index, &ops, "≈jw", &["Clifford", "marhta", "Jonse", "", "xyz"]);
        // An empty probe only reaches the empty-string bucket.
        let probe = Tuple::new(70, vec![Value::str("")]);
        assert_eq!(index.candidates_for(&probe), vec![5]);
    }

    #[test]
    fn new_anchors_support_insert_and_remove() {
        for op_name in ["≈sx", "≈tok", "≈jw", "≈qg", "≈num"] {
            let (mut index, _ops) = single_atom_index(op_name, &["Robert", "Oak Street"]);
            let probe = Tuple::new(90, vec![Value::str("Robert")]);
            let before = index.query(&probe).hits.len();
            index.insert(Tuple::new(42, vec![Value::str("Robert")])).unwrap();
            let hits = index.query(&probe).hits;
            assert_eq!(hits.len(), before + 1, "{op_name}: insert not visible");
            assert!(hits.iter().any(|h| h.id == 42));
            index.remove(42).unwrap();
            let hits = index.query(&probe).hits;
            assert_eq!(hits.len(), before, "{op_name}: remove not hidden");
            assert!(hits.iter().all(|h| h.id != 42));
        }
    }

    #[test]
    fn dedup_saved_counts_folded_candidates() {
        // Two keys over the same attribute: every value retrieved by both
        // keys is folded into one candidate, and the fold is counted.
        let schema = Arc::new(Schema::text("R", &["name"]).unwrap());
        let mut rel = Relation::new(schema);
        rel.push_strs(1, &["Jones"]);
        rel.push_strs(2, &["Jonse"]);
        let mut table = OperatorTable::new();
        let eq = table.intern("=");
        let sx = table.intern("≈sx");
        let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).unwrap());
        let keys = vec![
            RelativeKey::new(vec![SimilarityAtom::new(0, 0, eq)]),
            RelativeKey::new(vec![SimilarityAtom::new(0, 0, sx)]),
        ];
        let index = MatchIndex::build(1, &rel, &keys, &[], ops).unwrap();
        let probe = Tuple::new(9, vec![Value::str("Jones")]);
        let outcome = index.query(&probe);
        // "Jones" is retrieved by the equality key AND the soundex key:
        // one duplicate folded; "Jonse" only by soundex.
        assert_eq!(outcome.candidates, 2);
        assert_eq!(outcome.stats.dedup_saved, 1);
        assert_eq!(outcome.hits.len(), 2);
    }

    /// An `Equality`-class operator that keeps the trait's panicking
    /// default `derived_keys`.
    #[derive(Debug)]
    struct BareEquality;

    impl SimilarityOp for BareEquality {
        fn name(&self) -> &str {
            "≈same"
        }
        fn matches(&self, a: &str, b: &str) -> bool {
            a == b
        }
        fn class(&self) -> OpClass {
            OpClass::Equality
        }
    }

    #[test]
    fn equality_class_keys_on_the_value_without_asking_the_operator() {
        let mut registry = paper_registry();
        registry.register(Arc::new(BareEquality));
        let mut table = OperatorTable::new();
        let op = table.intern("≈same");
        let ops = Arc::new(RuntimeOps::resolve(&table, &registry).unwrap());
        let schema = Arc::new(Schema::text("R", &["v"]).unwrap());
        let mut rel = Relation::new(schema);
        for (i, v) in ["Mark", "Marx", "Mark"].iter().enumerate() {
            rel.push(Tuple::new(i as u64 + 1, vec![Value::str(v)]));
        }
        let key = RelativeKey::new(vec![SimilarityAtom::new(0, 0, op)]);
        // Build, probe and remove would each panic if they asked the operator.
        let mut index = MatchIndex::build(1, &rel, &[key], &[], ops).unwrap();
        assert_eq!(index.stats().key_anchors, 1);
        let probe = Tuple::new(9, vec![Value::str("Mark")]);
        let ids = |index: &MatchIndex| -> Vec<u64> {
            index.query(&probe).hits.iter().map(|h| h.id).collect()
        };
        assert_eq!(ids(&index), vec![1, 3]);
        index.remove(1).unwrap();
        assert_eq!(ids(&index), vec![3]);
    }

    #[test]
    fn explain_agrees_with_query_and_key_matcher() {
        let (setting, inst, index) = fig1_index();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let mut stats = FilterStats::default();
        for probe in inst.left().tuples() {
            let hits = index.query(probe).hits;
            for tuple in inst.right().tuples() {
                let trace = index.explain(probe, tuple.id()).unwrap();
                // Final decision and key provenance match the query path.
                let hit = hits.iter().find(|h| h.id == tuple.id());
                assert_eq!(trace.matched(), hit.is_some());
                let (a, b) = (PairSide::bare(probe), PairSide::bare(tuple));
                assert_eq!(trace.matched_key, matcher.first_key(a, b, None, &mut stats));
                // Every atom of every key agrees with the dynamic path.
                assert_eq!(trace.keys.len(), rcks.len());
                for (key, kt) in rcks.iter().zip(&trace.keys) {
                    assert_eq!(kt.atoms.len(), key.atoms().len());
                    assert_eq!(kt.matched, ops.lhs_matches(key.atoms(), probe, tuple));
                    for (atom, at) in &kt.atoms {
                        assert_eq!(at.matched, ops.atom_matches(atom, probe, tuple));
                    }
                }
            }
        }
        // Unknown (and removed) ids are errors.
        assert!(matches!(
            index.explain(inst.left().tuples().first().unwrap(), 999),
            Err(IndexError::UnknownId { id: 999 })
        ));
    }

    #[test]
    fn live_relation_snapshot_rebuilds_identically() {
        let (setting, inst, mut index) = fig1_index();
        let removed = inst.right().tuples()[1].id();
        index.remove(removed).unwrap();
        let live = index.live_relation();
        assert_eq!(live.len(), index.len());
        assert!(live.by_id(removed).is_none());
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rebuilt =
            MatchIndex::build(setting.pair.left().arity(), &live, index.keys(), &[], ops).unwrap();
        assert_eq!(rebuilt.stats().tombstones, 0);
        for probe in inst.left().tuples() {
            let a: Vec<_> = index.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            let b: Vec<_> = rebuilt.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            assert_eq!(a, b, "rebuilt index diverges for probe #{}", probe.id());
        }
    }

    #[test]
    fn empty_key_list_matches_nothing() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let index =
            MatchIndex::build(setting.pair.left().arity(), inst.right(), &[], &[], ops).unwrap();
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        assert!(index.query(t1).hits.is_empty());
        assert!(!index.is_empty());
        assert_eq!(index.stats().keys, 0);
    }
}
