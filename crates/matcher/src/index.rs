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
//! becomes index-ready by declaring its class, with no change here:
//!
//! * **key buckets** for equality and key-deriving atoms — a hash map
//!   from each key the operator derives for the attribute's value (the
//!   value itself under `=`; soundex codes, digit strings or synonym
//!   classes otherwise) to the tuple slots deriving it. Matching values
//!   share a key by the operator's contract, so the union of the probe's
//!   buckets is a superset of the atom's match set;
//! * **q-gram posting lists** for thresholded edit-distance atoms —
//!   keyed by the grams of each value's
//!   [`StringSig`](matchrules_simdist::filters::StringSig) filter
//!   signature. A posting list alone would be unsound for short strings
//!   (a within-bound pair need not share a gram when `max(|a|, |b|)` is
//!   small), so every tuple whose
//!   anchor string is shorter than a per-atom *safe length* also goes
//!   into a **sparse list** that short probes always scan; the safe
//!   length is derived from the same `θ`-bound arithmetic that makes the
//!   q-gram count filter sound (see [`qgram_safe_len`]);
//! * **element posting lists** for operators that decompose values into
//!   elements — word tokens (Jaccard), padded q-grams (Dice), the
//!   distinct characters of a sorted-character prefix (Jaro–Winkler
//!   above 0.8) — one list per distinct element, with candidates
//!   filtered by the operator's sound size-ratio bound (Jaccard ≥ s
//!   forces the smaller set to hold ≥ s·|larger| elements), plus an
//!   **empty list** retrieved only by element-less probes (∅ ≈ ∅ holds
//!   under every such operator; a one-sided ∅ never matches).
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
//! the exact posting volume each atom's lists hold for that probe (read
//! off list headers, no decoding): the cheapest atom is retrieved first,
//! further atoms are AND'ed in at the bitmap level only while they are
//! small against the running set, every remaining atom's per-entry
//! prefilter (length window, presence mask, size ratio) runs before any
//! of its lists is touched, and the survivors are tested against the
//! rest by membership cursors or against a materialized union —
//! whichever walks fewer entries. The index stores no plan and learns
//! nothing from traffic; a plan is a pure function of the probe and
//! the index version, and any plan yields the same hits, because every
//! intersection prefix is a superset of what the key accepts.
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

use crate::key::{mask_allows, KeyMatcher, PairSide};
use crate::postings::PostingList;
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::negation::NegativeRule;
use matchrules_core::operators::OperatorId;
use matchrules_core::relative_key::RelativeKey;
use matchrules_core::schema::{AttrId, Schema};
use matchrules_data::eval::{AtomTrace, FilterStats, RuntimeOps};
use matchrules_data::prep::{AttrSig, RelationPrep, SigNeeds};
use matchrules_data::relation::{Relation, Tuple, TupleId};
use matchrules_runtime::{CowMap, CowVec, WorkPool, CHUNK_LEN};
use matchrules_simdist::edit::theta_bound;
use matchrules_simdist::filters::FILTER_Q;
use matchrules_simdist::ops::OpClass;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Minimum tuples per chunk when anchor indices are built over a pool:
/// one tuple contributes a handful of hash insertions, so smaller chunks
/// would be all claiming overhead.
const BUILD_MIN_CHUNK: usize = 256;

/// Minimum probes per chunk when a probe batch runs over a pool: one
/// probe is tens of microseconds, so smaller chunks would be claiming
/// overhead.
const BATCH_MIN_CHUNK: usize = 16;

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

/// The smallest length `L₀` such that for **every** `max(|a|, |b|) ≥ L₀`,
/// a pair within the edit bound `⌊(1 − θ)·max(|a|, |b|)⌋` is guaranteed
/// to share at least one q-gram — i.e. the length above which a posting
/// list alone retrieves every true match. `None` when no such length
/// exists (θ so low that one string can be edited past all of the other's
/// grams at any length), in which case gram indexing is unusable for the
/// operator.
///
/// Soundness: a string of `n ≥ q` characters has `n − q + 1` unpadded
/// grams and one OSA edit destroys at most `q + 1` of them (the same
/// bound the q-gram count filter uses), so `dist ≤ k` forces at least
/// `max(|Gₐ|, |G_b|) − k·(q + 1)` shared grams; with `L = max(|a|, |b|)`
/// that is `(L − q + 1) − ⌊(1 − θ)L⌋·(q + 1)`, and `L₀` is the point
/// past which this stays ≥ 1.
pub fn qgram_safe_len(theta: f64, q: usize) -> Option<usize> {
    let per_edit = q + 1;
    // Tail bound: (L − q + 1) − (1 − θ)·L·(q + 1) = L·c − q + 1 with
    // c = 1 − (1 − θ)(q + 1). For c ≤ 0 the guarantee never holds.
    let c = 1.0 - (1.0 - theta) * per_edit as f64;
    if c <= 0.0 {
        return None;
    }
    // Past this cap the (floor-free) tail bound is ≥ 1; the floor in
    // theta_bound only strengthens it. Scan below the cap for the last
    // unguaranteed length.
    let cap = (q as f64 / c).ceil() as usize + q + 1;
    let mut safe = 1usize;
    for len in 1..=cap {
        let grams = (len + 1).saturating_sub(q) as i64;
        if grams - ((theta_bound(theta, len) * per_edit) as i64) < 1 {
            safe = len + 1;
        }
    }
    Some(safe)
}

/// Float slack absorbing rounding error in ratio arithmetic. Always
/// applied in the permissive direction, so a filter can only get
/// *weaker* than the exact real-arithmetic bound — never unsound.
const RATIO_EPS: f64 = 1e-9;

/// Sentinel in per-slot aligned arrays (`sizes` / `lens`) for slots
/// whose anchor value is `Null`. Such slots appear on no posting or
/// empty list, so the sentinel is never read by a ratio filter.
const NULL_SLOT: u32 = u32::MAX;

/// The element anchors' size-ratio filter: keeps a pair iff
/// `min(a, b) ≥ ratio·max(a, b)` up to float slack.
fn ratio_ok(ratio: f64, a: u32, b: u32) -> bool {
    let (min, max) = if a <= b { (a, b) } else { (b, a) };
    min as f64 + RATIO_EPS >= ratio * max as f64
}

/// The kind of inverted index an atom gets — what [`anchor_of`] maps an
/// operator's [`OpClass`] to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anchor {
    /// Buckets over the keys the operator derives (the raw value for
    /// equality).
    Keys,
    /// q-gram posting lists, plus a sparse list of the values shorter
    /// than `safe_len` ([`qgram_safe_len`]).
    Grams {
        /// The threshold θ of the operator's edit bound.
        theta: f64,
        /// The length from which a within-bound pair shares a gram.
        safe_len: usize,
    },
    /// Element posting lists with a size-ratio prefilter, plus a list of
    /// the element-less values.
    Elements {
        /// The sound lower bound on `min(size) / max(size)` of a match.
        min_ratio: f64,
    },
}

impl Anchor {
    /// A short name for reports: `"keys"`, `"qgram"` or `"elements"`.
    pub fn name(self) -> &'static str {
        match self {
            Anchor::Keys => "keys",
            Anchor::Grams { .. } => "qgram",
            Anchor::Elements { .. } => "elements",
        }
    }
}

/// The anchor atoms under an operator of `class` get — `None` when such
/// atoms cannot anchor retrieval, so a key made only of them scans:
/// [`OpClass::Scan`] operators, and edit thresholds too loose for gram
/// sharing to be guaranteed at any length (see [`qgram_safe_len`]). The
/// one place a class turns into an anchor: [`MatchIndex::build_in`]
/// builds from it, and a compiled plan reports from it.
pub fn anchor_of(class: OpClass) -> Option<Anchor> {
    match class {
        OpClass::Equality | OpClass::Keys => Some(Anchor::Keys),
        OpClass::Edit { theta, .. } => {
            qgram_safe_len(theta, FILTER_Q).map(|safe_len| Anchor::Grams { theta, safe_len })
        }
        OpClass::Elements { min_ratio } => Some(Anchor::Elements { min_ratio }),
        OpClass::Scan => None,
    }
}

/// Reusable buffers for what an operator derives from one value — its
/// keys and its elements. Index maintenance and probe preparation both
/// fill them, so neither allocates a fresh list per tuple.
#[derive(Default)]
struct AnchorScratch {
    keys: Vec<String>,
    elems: Vec<u64>,
}

impl AnchorScratch {
    /// Calls `f` once per distinct key `op` derives from `s`. An equality
    /// operator keys on the value itself, which is passed straight
    /// through: no call into the operator, no copy.
    fn for_each_key(&mut self, ops: &RuntimeOps, op: OperatorId, s: &str, mut f: impl FnMut(&str)) {
        if ops.class(op) == OpClass::Equality {
            return f(s);
        }
        self.keys.clear();
        ops.derived_keys_into(op, s, &mut self.keys);
        self.keys.sort_unstable();
        self.keys.dedup();
        self.keys.iter().for_each(|key| f(key));
    }

    /// `op`'s elements for `s`, sorted and deduplicated, into
    /// `self.elems`; returns the size the ratio bound applies to.
    fn elements_of(&mut self, ops: &RuntimeOps, op: OperatorId, s: &str) -> u32 {
        self.elems.clear();
        let size = ops.index_elements_into(op, s, &mut self.elems);
        self.elems.sort_unstable();
        self.elems.dedup();
        size as u32
    }
}

/// An inverted index over one indexable atom, shared by every key that
/// mentions the atom: one variant per [`Anchor`]; see the [module
/// docs](self) for the per-kind soundness argument.
#[derive(Clone)]
enum AtomIndex {
    /// Key atom (equality, soundex, digit equality, synonym tables):
    /// key → slots deriving it. Matching values share a key and every
    /// non-null value derives at least one, so the union of the probe's
    /// key buckets is a superset of the atom's match set. `Null` values
    /// derive nothing: null matches nothing.
    Keys { left: AttrId, right: AttrId, op: OperatorId, buckets: CowMap<String, Vec<u32>> },
    /// Thresholded edit atom: gram hash → compressed posting list of
    /// slots whose string contains the gram, plus the sparse list of
    /// slots whose string is shorter than `safe_len` (scanned whenever
    /// the probe itself is short, because gram sharing is only
    /// guaranteed above the safe length). `lens` / `masks` hold one
    /// entry per slot (char length and char-bag presence mask,
    /// [`NULL_SLOT`]/0 for nulls) backing the retrieval-time length
    /// window and presence-mask prefilters — both sound because each
    /// lower-bounds the OSA distance the verification kernel would
    /// compute.
    Grams {
        left: AttrId,
        right: AttrId,
        theta: f64,
        safe_len: usize,
        postings: CowMap<u64, PostingList>,
        sparse: Arc<Vec<u32>>,
        lens: CowVec<u32>,
        masks: CowVec<u64>,
    },
    /// Element atom (token Jaccard, q-gram Dice, Jaro–Winkler): element
    /// → slots containing it, with per-slot sizes for the
    /// `min ≥ min_ratio·max` filter. Slots whose value produces no
    /// elements live on `empty`, retrieved only by element-less probes.
    Elements {
        left: AttrId,
        right: AttrId,
        op: OperatorId,
        min_ratio: f64,
        postings: CowMap<u64, PostingList>,
        sizes: CowVec<u32>,
        empty: Arc<Vec<u32>>,
    },
}

impl AtomIndex {
    /// An empty index anchoring `atom` as `anchor`.
    fn new(atom: &SimilarityAtom, anchor: Anchor) -> AtomIndex {
        let (left, right, op) = (atom.left, atom.right, atom.op);
        match anchor {
            Anchor::Keys => AtomIndex::Keys { left, right, op, buckets: CowMap::new() },
            Anchor::Grams { theta, safe_len } => AtomIndex::Grams {
                left,
                right,
                theta,
                safe_len,
                postings: CowMap::new(),
                sparse: Arc::default(),
                lens: CowVec::new(),
                masks: CowVec::new(),
            },
            Anchor::Elements { min_ratio } => AtomIndex::Elements {
                left,
                right,
                op,
                min_ratio,
                postings: CowMap::new(),
                sizes: CowVec::new(),
                empty: Arc::default(),
            },
        }
    }

    /// Indexes one tuple (slot ids arrive in ascending order, so every
    /// bucket/posting/sparse list stays sorted; variants with per-slot
    /// aligned arrays push exactly one entry per call). Gram signatures
    /// are extracted from the value here and dropped once indexed; keys
    /// and elements come from the operator via `ops`, through `scratch`.
    fn add(&mut self, slot: u32, tuple: &Tuple, ops: &RuntimeOps, scratch: &mut AnchorScratch) {
        match self {
            AtomIndex::Keys { right, op, buckets, .. } => {
                if let Some(s) = tuple.get(*right).as_str() {
                    scratch.for_each_key(ops, *op, s, |key| {
                        buckets.or_default(key.to_owned()).push(slot);
                    });
                }
            }
            AtomIndex::Grams { right, safe_len, postings, sparse, lens, masks, .. } => {
                let sig = AttrSig::of_value(tuple.get(*right));
                if sig.is_null() {
                    // Null slots still need aligned metadata entries; they
                    // never appear on a posting or sparse list, so the
                    // sentinel is never consulted by the prefilter.
                    lens.push(NULL_SLOT);
                    masks.push(0);
                    return;
                }
                lens.push(sig.sig().char_len() as u32);
                masks.push(sig.sig().bag().presence_mask());
                if sig.sig().char_len() < *safe_len {
                    Arc::make_mut(sparse).push(slot);
                }
                for hash in sig.sig().qgrams().distinct_hashes() {
                    postings.or_default(hash).push(slot);
                }
            }
            AtomIndex::Elements { right, op, postings, sizes, empty, .. } => {
                match tuple.get(*right).as_str() {
                    None => sizes.push(NULL_SLOT),
                    Some(s) => {
                        sizes.push(scratch.elements_of(ops, *op, s));
                        if scratch.elems.is_empty() {
                            Arc::make_mut(empty).push(slot);
                        }
                        for &elem in &scratch.elems {
                            postings.or_default(elem).push(slot);
                        }
                    }
                }
            }
        }
    }

    /// Folds another (partial, higher-slot) index of the same shape in —
    /// the deterministic merge step of the parallel build.
    fn merge(&mut self, other: AtomIndex) {
        let mut scratch = Vec::new();
        match (self, other) {
            (AtomIndex::Keys { buckets, .. }, AtomIndex::Keys { buckets: partial, .. }) => {
                for (key, slots) in partial.into_entries() {
                    buckets.or_default(key).extend(slots);
                }
            }
            (
                AtomIndex::Grams { postings, sparse, lens, masks, .. },
                AtomIndex::Grams { postings: p2, sparse: s2, lens: l2, masks: m2, .. },
            ) => {
                for (hash, list) in p2.iter() {
                    postings.or_default(*hash).extend_from(list, &mut scratch);
                }
                Arc::make_mut(sparse).extend_from_slice(&s2);
                lens.extend(l2.iter().copied());
                masks.extend(m2.iter().copied());
            }
            (
                AtomIndex::Elements { postings, sizes, empty, .. },
                AtomIndex::Elements { postings: p2, sizes: s2, empty: e2, .. },
            ) => {
                for (elem, list) in p2.iter() {
                    postings.or_default(*elem).extend_from(list, &mut scratch);
                }
                sizes.extend(s2.iter().copied());
                Arc::make_mut(empty).extend_from_slice(&e2);
            }
            _ => unreachable!("parallel build merges atom indices of one shape"),
        }
    }

    /// Resolves the probe against this atom's buckets/postings into a
    /// [`PreparedAtom`]: the posting lists and plain slot lists whose
    /// union (filtered by the per-entry prefilter) is the atom's
    /// retrieval — a superset of the slots whose tuples satisfy the atom
    /// against the probe. An unsatisfiable probe value (`Null`)
    /// prepares an empty retrieval. The probe side carries its
    /// signatures (batched probes share one prep).
    fn prepare<'a>(
        &'a self,
        probe: PairSide<'_>,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
    ) -> PreparedAtom<'a> {
        let mut pa = PreparedAtom::empty();
        match self {
            AtomIndex::Keys { left, op, buckets, .. } => {
                let Some(s) = probe.tuple.get(*left).as_str() else {
                    return pa; // null matches nothing
                };
                scratch.for_each_key(ops, *op, s, |key| {
                    if let Some(bucket) = buckets.get(key) {
                        pa.plain.push(bucket.as_slice());
                    }
                });
            }
            AtomIndex::Grams { left, theta, safe_len, postings, sparse, lens, masks, .. } => {
                let computed;
                let sig = match probe.sigs.sig(*left) {
                    Some(sig) => sig,
                    None => {
                        computed = AttrSig::of_value(probe.tuple.get(*left));
                        &computed
                    }
                };
                if sig.is_null() {
                    return pa;
                }
                if sig.sig().char_len() < *safe_len {
                    // Short probe: pairs below the safe length need not
                    // share a gram; partners at or above it are caught by
                    // the postings (their length alone puts the pair in
                    // the guaranteed regime).
                    pa.plain.push(sparse.as_slice());
                }
                for hash in sig.sig().qgrams().distinct_hashes() {
                    if let Some(list) = postings.get(&hash) {
                        pa.comp.push(list);
                    }
                }
                let len = sig.sig().char_len() as u32;
                let (len_lo, len_hi) = edit_len_window(*theta, len);
                let mask = sig.sig().bag().presence_mask();
                let edit = EditProbe { theta: *theta, len, mask, len_lo, len_hi };
                pa.filter = SlotFilter::EditMeta { lens, masks, edit };
            }
            AtomIndex::Elements { left, op, min_ratio, postings, sizes, empty, .. } => {
                let Some(s) = probe.tuple.get(*left).as_str() else {
                    return pa;
                };
                let size = scratch.elements_of(ops, *op, s);
                if scratch.elems.is_empty() {
                    // An element-less probe can only match element-less
                    // tuples (the ratio bound rules everything else out).
                    pa.plain.push(empty.as_slice());
                    return pa;
                }
                for elem in &scratch.elems {
                    if let Some(list) = postings.get(elem) {
                        pa.comp.push(list);
                    }
                }
                pa.filter = SlotFilter::Ratio { ratio: *min_ratio, sizes, probe: size };
            }
        }
        pa
    }

    /// Purges `slot` from this atom's buckets and postings — the inverse
    /// of [`AtomIndex::add`], recomputing the same anchor keys (and gram
    /// signature) from the stored tuple. Plain lists drop the entry
    /// immediately; compressed posting lists tombstone it and rewrite
    /// their block once half dead (`alive` drives the rewrite's liveness
    /// check). Aligned per-slot metadata (`sizes` / `lens` / `masks`)
    /// keeps its entry: slots are never reused, and the data stays
    /// correct for any stale reader.
    fn remove_slot(
        &mut self,
        slot: u32,
        tuple: &Tuple,
        ops: &RuntimeOps,
        alive: &CowVec<bool>,
        scratch: &mut AnchorScratch,
    ) {
        fn drop_from(list: &mut Vec<u32>, slot: u32) {
            if let Ok(i) = list.binary_search(&slot) {
                list.remove(i);
            }
        }
        fn drop_posting(
            postings: &mut CowMap<u64, PostingList>,
            key: u64,
            slot: u32,
            alive: &CowVec<bool>,
        ) {
            let emptied = match postings.get_mut(&key) {
                Some(list) => {
                    list.note_removed(slot, alive);
                    list.is_empty()
                }
                None => false,
            };
            if emptied {
                postings.remove(&key);
            }
        }
        match self {
            AtomIndex::Keys { right, op, buckets, .. } => {
                if let Some(s) = tuple.get(*right).as_str() {
                    scratch.for_each_key(ops, *op, s, |key| {
                        let emptied = match buckets.get_mut(key) {
                            Some(bucket) => {
                                drop_from(bucket, slot);
                                bucket.is_empty()
                            }
                            None => false,
                        };
                        if emptied {
                            buckets.remove(key);
                        }
                    });
                }
            }
            AtomIndex::Grams { right, safe_len, postings, sparse, .. } => {
                let sig = AttrSig::of_value(tuple.get(*right));
                if sig.is_null() {
                    return;
                }
                if sig.sig().char_len() < *safe_len {
                    drop_from(Arc::make_mut(sparse), slot);
                }
                for hash in sig.sig().qgrams().distinct_hashes() {
                    drop_posting(postings, hash, slot, alive);
                }
            }
            AtomIndex::Elements { right, op, postings, empty, .. } => {
                if let Some(s) = tuple.get(*right).as_str() {
                    scratch.elements_of(ops, *op, s);
                    if scratch.elems.is_empty() {
                        drop_from(Arc::make_mut(empty), slot);
                    }
                    for &elem in &scratch.elems {
                        drop_posting(postings, elem, slot, alive);
                    }
                }
            }
        }
    }
}

/// A per-entry retrieval prefilter: decided from metadata the index
/// stores alongside its slots, applied while a posting union is scanned
/// out of the probe bitmap — candidates failing it die before the
/// verification kernel ever sees them. Every variant is sound: a slot it
/// rejects would be rejected by the corresponding verification filter
/// (size ratio, length window, char-bag bound) anyway.
enum SlotFilter<'a> {
    /// No per-entry metadata (key buckets, empty-value lists).
    None,
    /// The size-ratio bound of element anchors: `min ≥ ratio·max` over
    /// per-slot sizes vs the probe's size.
    Ratio { ratio: f64, sizes: &'a CowVec<u32>, probe: u32 },
    /// The edit-atom prefilters: the probe's length window
    /// ([`edit_len_window`]) plus the char-bag presence-mask bound
    /// against `theta_bound(θ, max(len))`.
    EditMeta { lens: &'a CowVec<u32>, masks: &'a CowVec<u64>, edit: EditProbe },
}

/// The probe side of the edit-atom prefilter, computed once per probe.
struct EditProbe {
    theta: f64,
    len: u32,
    mask: u64,
    /// Inclusive bounds of the stored lengths within the θ-bound of
    /// `len` (see [`edit_len_window`]).
    len_lo: u32,
    len_hi: u32,
}

/// The stored lengths `ls` passing the edit prefilter's length test
/// against a probe of `probe_len` characters, as an inclusive interval:
/// `|p − ls| ≤ ⌊(1 − θ)·max(p, ls)⌋`. Below `p` that is
/// `ls ≥ p − ⌊(1 − θ)·p⌋`; above it, `ls − ⌊(1 − θ)·ls⌋ ≤ p`, whose left
/// side never decreases as `ls` grows (the floor rises by at most one
/// per step), so the accepted lengths are contiguous and end at most at
/// `p/θ`. Finite for every `θ > 0` — q-gram anchors exist only for
/// `θ > 2/3` — and never reaches [`NULL_SLOT`].
fn edit_len_window(theta: f64, probe_len: u32) -> (u32, u32) {
    debug_assert!(theta > 0.0, "edit anchors need θ > 0");
    let p = probe_len as usize;
    let passes = |ls: usize| ls - theta_bound(theta, ls) <= p;
    // Two past the real-arithmetic end `p/θ`, then settle downwards.
    let mut hi = ((p as f64 / theta) as usize).saturating_add(2).min(NULL_SLOT as usize - 1);
    while hi > p && !passes(hi) {
        hi -= 1;
    }
    ((p - theta_bound(theta, p)) as u32, hi as u32)
}

/// The edit-atom prefilter on one slot's length `ls` and presence mask
/// `sm` (fetched lazily: most rejects are decided by the length alone).
#[inline]
fn edit_meta_ok(ls: u32, sm: impl FnOnce() -> u64, edit: &EditProbe) -> bool {
    if ls < edit.len_lo || ls > edit.len_hi {
        return false;
    }
    let bound = theta_bound(edit.theta, edit.len.max(ls) as usize);
    let sm = sm();
    let diff = (edit.mask & !sm).count_ones().max((sm & !edit.mask).count_ones());
    diff as usize <= bound
}

impl SlotFilter<'_> {
    /// Whether one slot passes — the membership-probe form, for the few
    /// slots of a small running intersection.
    fn accepts(&self, slot: u32) -> bool {
        let slot = slot as usize;
        match *self {
            SlotFilter::None => true,
            SlotFilter::Ratio { ratio, sizes, probe } => ratio_ok(ratio, sizes[slot], probe),
            SlotFilter::EditMeta { lens, masks, ref edit } => {
                edit_meta_ok(lens[slot], || masks[slot], edit)
            }
        }
    }

    /// Scans the set bits of `words` out in ascending order, keeping the
    /// slots that pass — the bulk form, for a coarse anchor's union of
    /// thousands of slots. Each variant gets its own monomorphized loop
    /// over plain slices (see [`scan_runs`]): no per-slot variant match,
    /// no per-slot walk down a [`CowVec`] spine.
    fn scan_out(&self, words: &[u64], stats: &mut FilterStats) -> Vec<u32> {
        match *self {
            SlotFilter::None => scan_runs(words, stats, |_| (), |_, _| true),
            SlotFilter::Ratio { ratio, sizes, probe } => scan_runs(
                words,
                stats,
                |base| sizes.run_of(base),
                |sizes, offset| ratio_ok(ratio, sizes[offset], probe),
            ),
            SlotFilter::EditMeta { lens, masks, ref edit } => scan_runs(
                words,
                stats,
                |base| (lens.run_of(base), masks.run_of(base)),
                |(lens, masks), offset| edit_meta_ok(lens[offset], || masks[offset], edit),
            ),
        }
    }
}

/// Walks a slot bitmap one [`CHUNK_LEN`] window at a time — the unit in
/// which every per-slot [`CowVec`] of an index is contiguous — resolving
/// the window's metadata `run_of(first slot)` once, then testing each set
/// bit with `accepts(&run, offset into the window)`.
fn scan_runs<R>(
    words: &[u64],
    stats: &mut FilterStats,
    run_of: impl Fn(usize) -> R,
    accepts: impl Fn(&R, usize) -> bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    for (window, group) in words.chunks(CHUNK_LEN / 64).enumerate() {
        if group.iter().all(|&word| word == 0) {
            continue;
        }
        let base = window * CHUNK_LEN;
        let run = run_of(base);
        for (w, &word) in group.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let offset = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                stats.linear_steps += 1;
                if accepts(&run, offset) {
                    out.push((base + offset) as u32);
                } else {
                    stats.retrieval_rejects += 1;
                }
            }
        }
    }
    out
}

/// One atom's retrieval, resolved against a probe but not yet
/// materialized: the compressed posting lists and plain slot slices
/// whose union — filtered per entry — is the atom's candidate set.
struct PreparedAtom<'a> {
    /// Compressed posting lists (gram / element postings).
    comp: Vec<&'a PostingList>,
    /// Plain sorted slot lists (key buckets, sparse/empty lists).
    plain: Vec<&'a [u32]>,
    filter: SlotFilter<'a>,
}

impl<'a> PreparedAtom<'a> {
    fn empty() -> Self {
        PreparedAtom { comp: Vec::new(), plain: Vec::new(), filter: SlotFilter::None }
    }

    /// Entries the atom's lists hold between them — the exact size of
    /// its unfiltered, undeduplicated union, read off list headers
    /// without decoding anything.
    fn volume(&self) -> usize {
        self.comp.iter().map(|list| list.len()).sum::<usize>()
            + self.plain.iter().map(|list| list.len()).sum::<usize>()
    }

    /// Lists a membership probe walks per slot.
    fn lists(&self) -> usize {
        self.comp.len() + self.plain.len()
    }

    /// ORs the atom's *unfiltered* union into `words` (cleared first,
    /// sized to a 256-slot boundary so bitset blocks OR in whole) — the
    /// building block of bitmap-level intersection, where per-entry
    /// filters are deferred until the intersected set is scanned out.
    fn or_bitmap(
        &self,
        n_slots: usize,
        words: &mut Vec<u64>,
        decode: &mut Vec<u32>,
        stats: &mut FilterStats,
    ) {
        let n_words = n_slots.div_ceil(256) * 4;
        words.clear();
        words.resize(n_words, 0);
        for list in &self.comp {
            stats.blocks_decoded += list.or_into(words, decode);
        }
        for plain in &self.plain {
            for &slot in *plain {
                words[(slot >> 6) as usize] |= 1u64 << (slot & 63);
            }
        }
    }

    /// Materializes the filtered union, ascending and deduplicated: OR
    /// every list into a bitmap over the relation's slots (bitset blocks
    /// land as four word-ORs each), then scan set bits through the
    /// per-entry filter. A single unfiltered plain list (key bucket,
    /// empty-value list) short-circuits without touching the bitmap.
    fn materialize(
        &self,
        n_slots: usize,
        words: &mut Vec<u64>,
        decode: &mut Vec<u32>,
        stats: &mut FilterStats,
    ) -> Vec<u32> {
        if self.comp.is_empty() && self.plain.len() <= 1 && matches!(self.filter, SlotFilter::None)
        {
            return self.plain.first().map(|list| list.to_vec()).unwrap_or_default();
        }
        self.or_bitmap(n_slots, words, decode, stats);
        self.filter.scan_out(words, stats)
    }
}

/// Intersects `acc` (sorted ascending) with a materialized retrieval in
/// place, galloping through `list` — exponential stride doubling then a
/// binary settle, so a small `acc` against a long list costs
/// `O(|acc|·log)` instead of a full merge.
fn gallop_intersect(acc: &mut Vec<u32>, list: &[u32], stats: &mut FilterStats) {
    let mut kept = 0usize;
    let mut j = 0usize;
    for i in 0..acc.len() {
        let v = acc[i];
        let mut step = 1usize;
        while j + step < list.len() && list[j + step] < v {
            j += step;
            step <<= 1;
            stats.gallop_steps += 1;
        }
        let hi = (j + step + 1).min(list.len());
        j += list[j..hi].partition_point(|&x| x < v);
        stats.gallop_steps += 1;
        if list.get(j) == Some(&v) {
            acc[kept] = v;
            kept += 1;
        }
    }
    acc.truncate(kept);
}

/// Intersects `acc` with an unmaterialized atom by membership: a slot
/// survives iff it appears on at least one of the atom's lists. Cursor
/// targets ascend with `acc`, so whole blocks are skipped on their max
/// without decoding. Callers have already run `acc` through the atom's
/// per-entry filter, so this produces exactly the `acc` that
/// `gallop_intersect` against the materialized union would.
fn member_intersect(acc: &mut Vec<u32>, pa: &PreparedAtom<'_>, stats: &mut FilterStats) {
    let mut cursors: Vec<_> = pa.comp.iter().map(|list| list.cursor()).collect();
    acc.retain(|&slot| {
        cursors.iter_mut().any(|cur| cur.advance_to(slot) == Some(slot))
            || pa.plain.iter().any(|plain| plain.binary_search(&slot).is_ok())
    });
    for cur in cursors {
        stats.blocks_decoded += cur.blocks_decoded;
        stats.blocks_skipped += cur.blocks_skipped;
    }
}

/// A key's next posting-backed atom is OR'd into the running bitmap
/// only while its volume is at most this multiple of the running
/// popcount. Past that, decoding its whole union costs more than
/// testing the few survivors against it one slot at a time.
const FOLD_RATIO: usize = 4;

/// Reusable per-thread buffers of the probe hot path — the union bitmap
/// and block-decode scratch — plus the key/element buffers that probes
/// and index maintenance share. Thread-local so concurrent queries
/// (server readers, batched pools) never contend, and sequential calls
/// never re-allocate.
#[derive(Default)]
struct ProbeScratch {
    words: Vec<u64>,
    and_words: Vec<u64>,
    decode: Vec<u32>,
    anchor: AnchorScratch,
}

/// Set bits in a bitmap (the size of the running intersection during
/// bitmap-level AND).
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

thread_local! {
    static PROBE_SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

/// When a key's running candidate set is this small, further
/// intersection with its remaining (costlier) atom retrievals is skipped:
/// verifying the leftover candidate is cheaper than another retrieval,
/// and any prefix of the intersection is a sound superset.
const ENOUGH: usize = 1;

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
    /// Distinct atoms indexed as key buckets (equality, soundex, digits,
    /// synonym tables).
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
    /// Distinct bucket keys across all key anchors.
    pub exact_buckets: usize,
    /// Distinct posting lists across all q-gram and element anchors.
    pub posting_lists: usize,
    /// Slots on sparse/empty lists (short strings below an edit atom's
    /// safe length, element-less or empty values under set/bag anchors).
    pub sparse_entries: usize,
    /// Resident bytes of the compressed posting lists (delta blocks,
    /// bitset blocks, unsealed tails) across all posting anchors.
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
    atom_indices: Vec<AtomIndex>,
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
        // chunk order so slot lists come out ascending. A one-thread pool
        // gets one chunk: partials it would only fold back together
        // serially are pure overhead.
        let empty = || -> Vec<AtomIndex> {
            anchors.iter().map(|(atom, anchor)| AtomIndex::new(atom, *anchor)).collect()
        };
        let tuples = relation.tuples();
        let min_chunk = if pool.threads() == 1 { tuples.len() } else { BUILD_MIN_CHUNK };
        let partials: Vec<Vec<AtomIndex>> = pool.par_ranges(tuples.len(), min_chunk, |_, range| {
            let mut partial = empty();
            let mut scratch = AnchorScratch::default();
            for pos in range {
                for atom in &mut partial {
                    atom.add(pos as u32, &tuples[pos], &ops, &mut scratch);
                }
            }
            partial
        });
        let mut partials = partials.into_iter();
        // The first chunk's partial *is* the index so far; folding it
        // into empty shapes would re-insert every entry.
        let mut atom_indices = partials.next().unwrap_or_else(empty);
        for chunk in partials {
            for (atom, partial) in atom_indices.iter_mut().zip(chunk) {
                atom.merge(partial);
            }
        }

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
    /// liveness flags describe the same live set, and every posting
    /// list passes [`PostingList::check_invariants`].
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
            match atom {
                AtomIndex::Keys { .. } => {}
                AtomIndex::Grams { postings, lens, masks, .. } => {
                    assert_eq!((lens.len(), masks.len()), (slots, slots));
                    postings.values().for_each(PostingList::check_invariants);
                }
                AtomIndex::Elements { postings, sizes, .. } => {
                    assert_eq!(sizes.len(), slots);
                    postings.values().for_each(PostingList::check_invariants);
                }
            }
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
            exact_buckets: 0,
            posting_lists: 0,
            sparse_entries: 0,
            postings_bytes: 0,
            postings_uncompressed_bytes: 0,
        };
        for atom in &self.atom_indices {
            let (postings, sparse) = match atom {
                AtomIndex::Keys { buckets, .. } => {
                    stats.key_anchors += 1;
                    stats.exact_buckets += buckets.len();
                    continue;
                }
                AtomIndex::Grams { postings, sparse, .. } => {
                    stats.qgram_anchors += 1;
                    (postings, sparse)
                }
                AtomIndex::Elements { postings, empty, .. } => {
                    stats.element_anchors += 1;
                    (postings, empty)
                }
            };
            stats.posting_lists += postings.len();
            stats.sparse_entries += sparse.len();
            for list in postings.values() {
                stats.postings_bytes += list.bytes();
                stats.postings_uncompressed_bytes += list.uncompressed_bytes();
            }
        }
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
        self.candidate_masks(PairSide::new(probe, prep.row(0)), &mut stats)
            .into_iter()
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Candidate slots for every tuple of a probe *relation*, in probe
    /// order — the batch engine's probe stage. Signature extraction is
    /// shared across the whole batch and probes are chunked over `pool`;
    /// the result is identical to mapping [`MatchIndex::candidates_for`]
    /// over the tuples.
    pub fn candidates_batch_in(&self, pool: &WorkPool, probes: &Relation) -> Vec<Vec<usize>> {
        let tuples = probes.tuples();
        let prep = RelationPrep::build_in(pool, tuples, &self.probe_needs);
        let chunks = pool.par_ranges(tuples.len(), BATCH_MIN_CHUNK, |_, range| {
            range
                .map(|row| {
                    let mut stats = FilterStats::default();
                    self.candidate_masks(PairSide::new(&tuples[row], prep.row(row)), &mut stats)
                        .into_iter()
                        .map(|(slot, _)| slot)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        chunks.into_iter().flatten().collect()
    }

    /// [`MatchIndex::candidates_for`] with the probe's signatures already
    /// extracted (the probe is prepped once per query, not once per
    /// phase), carrying **key provenance**: each candidate slot comes
    /// with the bitmask of the keys whose retrieval produced it. A key
    /// whose bit is clear cannot accept the slot — its retrieval is a
    /// superset of its acceptance — so verification skips it. Plans with
    /// more than 64 keys disable pruning (every mask is [`NO_PRUNE`]);
    /// a scan-fallback key marks every live slot for every key.
    ///
    /// Retrieval work is accounted in `stats`: duplicate retrievals
    /// folded away ([`FilterStats::dedup_saved`]), blocks decoded and
    /// skipped, gallop and linear-scan steps, and candidates killed by
    /// per-entry prefilters ([`FilterStats::retrieval_rejects`]).
    ///
    /// Each key is planned from this probe's own posting volumes (the
    /// entries its atoms' lists hold, read off list headers; ties broken
    /// by atom position):
    ///
    /// 1. *Order* — cheapest atom first.
    /// 2. *Fold* — the cheapest atom's union is OR'd into a bitmap, and
    ///    each next posting-backed atom is AND'ed in while its volume is
    ///    at most [`FOLD_RATIO`] times the running popcount; the bitmap
    ///    is then scanned out once through the folded atoms' prefilters.
    /// 3. *Prefilter* — the survivors run through every remaining atom's
    ///    prefilter, which costs a metadata lookup and decodes nothing.
    /// 4. *Intersect* — each remaining atom, cheapest first, either
    ///    tests the survivors by membership (galloping cursors that skip
    ///    whole blocks) when `survivors × lists < volume`, or is
    ///    materialized (memoized for later keys) and galloped against.
    ///    Once at most [`ENOUGH`] survive, the remaining atoms are left
    ///    to verification.
    ///
    /// The plan depends only on the probe and the index version, so
    /// answers *and* counters are deterministic per probe.
    fn candidate_masks(&self, probe: PairSide<'_>, stats: &mut FilterStats) -> Vec<(usize, u64)> {
        let prune = self.key_atoms.len() <= 64;
        let n_slots = self.tuples.len();
        PROBE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let ProbeScratch { words, and_words, decode, anchor } = scratch;
            // Prepare and materialize each distinct atom at most once:
            // several keys usually share atoms.
            let mut prepared: Vec<Option<PreparedAtom<'_>>> =
                (0..self.atom_indices.len()).map(|_| None).collect();
            let mut retrieved: Vec<Option<Vec<u32>>> = vec![None; self.atom_indices.len()];
            let mut pairs: Vec<(u32, u64)> = Vec::new();
            let mut order: Vec<(usize, usize)> = Vec::new();
            for (key, refs) in self.key_atoms.iter().enumerate() {
                if refs.is_empty() {
                    // Unindexable key: every live slot is a candidate, no
                    // other key can add more, and later keys were never
                    // intersected — so no key may be pruned (and no
                    // duplicate retrievals exist to fold).
                    return (0..n_slots)
                        .filter(|&s| self.alive[s])
                        .map(|s| (s, NO_PRUNE))
                        .collect();
                }
                let bit = if prune { 1u64 << key } else { NO_PRUNE };

                // Order: (volume, position), cheapest first.
                order.clear();
                for &pos in refs {
                    let pa = prepared[pos].get_or_insert_with(|| {
                        self.atom_indices[pos].prepare(probe, &self.ops, anchor)
                    });
                    order.push((pa.volume(), pos));
                }
                order.sort_unstable();
                let (cheapest, first) = order[0];
                if cheapest == 0 {
                    continue; // an atom retrieving nothing empties the key
                }
                let atom = |pos: usize| prepared[pos].as_ref().expect("every key atom is prepared");

                // Fold: OR the cheapest union into the bitmap and AND in
                // each next un-memoized posting-backed atom that is small
                // against the running popcount — whole-word operations,
                // every per-entry filter deferred to one scan-out.
                let mut applied = 1;
                let mut acc = if let Some(list) = &retrieved[first] {
                    list.clone()
                } else if atom(first).comp.is_empty() {
                    // Plain buckets: materialize short-circuits them.
                    let list = atom(first).materialize(n_slots, words, decode, stats);
                    retrieved[first] = Some(list.clone());
                    list
                } else {
                    atom(first).or_bitmap(n_slots, words, decode, stats);
                    while let Some(&(volume, pos)) = order.get(applied) {
                        let next = atom(pos);
                        if retrieved[pos].is_some()
                            || next.comp.is_empty()
                            || volume > FOLD_RATIO * popcount(words)
                        {
                            break;
                        }
                        next.or_bitmap(n_slots, and_words, decode, stats);
                        for (w, m) in words.iter_mut().zip(and_words.iter()) {
                            *w &= *m;
                        }
                        applied += 1;
                    }
                    if applied == 1 {
                        let list = atom(first).filter.scan_out(words, stats);
                        retrieved[first] = Some(list.clone());
                        list
                    } else {
                        let folded = &order[..applied];
                        let mut out = Vec::new();
                        for (w, &word) in words.iter().enumerate() {
                            let mut bits = word;
                            while bits != 0 {
                                let slot = (w as u32) * 64 + bits.trailing_zeros();
                                bits &= bits - 1;
                                stats.linear_steps += 1;
                                if folded.iter().all(|&(_, p)| atom(p).filter.accepts(slot)) {
                                    out.push(slot);
                                } else {
                                    stats.retrieval_rejects += 1;
                                }
                            }
                        }
                        out
                    }
                };

                // Prefilter: every remaining atom's per-entry test runs
                // before any of their lists is touched.
                let rest = &order[applied..];
                if !rest.is_empty() {
                    acc.retain(|&slot| {
                        let ok = rest.iter().all(|&(_, p)| atom(p).filter.accepts(slot));
                        stats.retrieval_rejects += u64::from(!ok);
                        ok
                    });
                }

                // Intersect, cheapest first: test the few survivors by
                // membership unless that walks more entries than the
                // atom's whole union holds.
                for &(volume, pos) in rest {
                    if acc.len() <= ENOUGH {
                        break; // already cheap to verify; a prefix is sound
                    }
                    let pa = atom(pos);
                    if retrieved[pos].is_none() && acc.len() * pa.lists() < volume {
                        member_intersect(&mut acc, pa, stats);
                    } else {
                        let list = retrieved[pos]
                            .get_or_insert_with(|| pa.materialize(n_slots, words, decode, stats));
                        gallop_intersect(&mut acc, list, stats);
                    }
                }
                pairs.extend(acc.into_iter().map(|slot| (slot, bit)));
            }
            pairs.sort_unstable_by_key(|&(slot, _)| slot);
            let pairs_len = pairs.len();
            // Fold duplicate slots (retrieved by several keys) into one
            // candidate carrying the union of their key bits — each fold
            // is one preparation + verification saved.
            let mut masked: Vec<(u32, u64)> = Vec::with_capacity(pairs.len());
            for (slot, bit) in pairs {
                match masked.last_mut() {
                    Some((last, mask)) if *last == slot => *mask |= bit,
                    _ => masked.push((slot, bit)),
                }
            }
            stats.dedup_saved += (pairs_len - masked.len()) as u64;
            masked
                .into_iter()
                .map(|(slot, mask)| (slot as usize, mask))
                .filter(|&(slot, _)| self.alive[slot])
                .collect()
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
        let masked = self.candidate_masks(probe, &mut stats);
        let candidates = masked.len();
        let matcher = self.matcher();
        let mut key_evals = 0usize;
        let mut hits = Vec::new();
        for (slot, mask) in masked {
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
                atom.add(slot, &tuple, &self.ops, &mut scratch.anchor);
            }
        });
        self.by_id.insert(tuple.id(), slot);
        self.alive.push(true);
        self.live += 1;
        self.tuples.push(tuple);
        Ok(slot as usize)
    }

    /// Removes the tuple with `id` from query visibility. The slot is
    /// tombstoned and purged from every anchor: plain buckets drop the
    /// entry immediately, compressed posting lists count it dead and
    /// rewrite each block in place once half its entries are dead — so a
    /// heavily-churned index keeps probing at near-fresh cost without a
    /// rebuild. (The slot still holds the tuple's handle and its per-slot
    /// retrieval metadata; rebuild to reclaim that space.)
    pub fn remove(&mut self, id: TupleId) -> Result<(), IndexError> {
        let slot = self.by_id.remove(&id).ok_or(IndexError::UnknownId { id })?;
        *self.alive.get_mut(slot as usize) = false;
        self.live -= 1;
        let tuple = &self.tuples[slot as usize];
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            for atom in &mut self.atom_indices {
                atom.remove_slot(slot, tuple, &self.ops, &self.alive, &mut scratch.anchor);
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
    use matchrules_simdist::ops::{EqualityOp, SimilarityOp, SynonymOp};

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

    #[test]
    fn parallel_build_answers_like_serial() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = Arc::new(RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap());
        let rcks = example_2_4_rcks(&setting);
        let serial =
            MatchIndex::build(setting.pair.left().arity(), inst.right(), &rcks, &[], ops.clone())
                .unwrap();
        for threads in [2, 8] {
            let pool = WorkPool::with_threads(threads);
            let parallel = MatchIndex::build_in(
                &pool,
                setting.pair.left().arity(),
                inst.right(),
                &rcks,
                &[],
                ops.clone(),
            )
            .unwrap();
            for probe in inst.left().tuples() {
                assert_eq!(parallel.query(probe).hits, serial.query(probe).hits);
                assert_eq!(parallel.candidates_for(probe), serial.candidates_for(probe));
            }
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
        let values = ["Robert", "Rupert", "Smith", "Smyth", "", "908-1111"];
        let (index, ops) = single_atom_index("≈sx", &values);
        let stats = index.stats();
        assert_eq!(stats.key_anchors, 1);
        assert_eq!(stats.scan_keys, 0);
        assert_matches_scan(&index, &ops, "≈sx", &["Robert", "Smith", "smith", "", "none"]);
        // Soundex twins are retrieved through one bucket, not a scan.
        let probe = Tuple::new(50, vec![Value::str("Robert")]);
        let cands = index.candidates_for(&probe);
        assert!(cands.len() < values.len(), "bucket should prune: {cands:?}");
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
    fn anchor_of_maps_every_class() {
        assert_eq!(anchor_of(OpClass::Equality), Some(Anchor::Keys));
        assert_eq!(anchor_of(OpClass::Keys), Some(Anchor::Keys));
        assert_eq!(
            anchor_of(OpClass::Edit { theta: 0.8, transpositions: false }),
            Some(Anchor::Grams { theta: 0.8, safe_len: 2 })
        );
        // Too loose for gram sharing at any length: the atom scans.
        assert_eq!(anchor_of(OpClass::Edit { theta: 0.6, transpositions: true }), None);
        assert_eq!(
            anchor_of(OpClass::Elements { min_ratio: 0.5 }),
            Some(Anchor::Elements { min_ratio: 0.5 })
        );
        assert_eq!(anchor_of(OpClass::Scan), None);
    }

    #[test]
    fn safe_len_matches_hand_checked_values() {
        // θ = 0.8, q = 2: bound = ⌊0.2·L⌋ is 0 up to L = 4, so only
        // gram-less length-1 strings are unguaranteed.
        assert_eq!(qgram_safe_len(0.8, 2), Some(2));
        // θ = 0.75, q = 2: L = 4 has bound 1 and 3 grams — 3 − 3 < 1 —
        // while every L ≥ 5 is guaranteed.
        assert_eq!(qgram_safe_len(0.75, 2), Some(5));
        // (1 − θ)(q + 1) ≥ 1: no length is ever guaranteed.
        assert_eq!(qgram_safe_len(0.6, 2), None);
        assert_eq!(qgram_safe_len(0.0, 2), None);
    }

    #[test]
    fn safe_len_guarantee_is_sound_exhaustively() {
        // For every length pair below 4·safe_len, any two strings within
        // the θ-bound must share a gram when max(len) ≥ safe_len. Checked
        // structurally: needed-grams arithmetic, per length pair.
        for theta in [0.7, 0.75, 0.8, 0.9] {
            let q = FILTER_Q;
            let safe = qgram_safe_len(theta, q).unwrap();
            for la in 0..safe * 4 {
                for lb in 0..safe * 4 {
                    let max_len = la.max(lb);
                    if max_len < safe || max_len == 0 {
                        continue;
                    }
                    let bound = theta_bound(theta, max_len);
                    let grams = (max_len + 1).saturating_sub(q) as i64;
                    assert!(
                        grams - (bound * (q + 1)) as i64 >= 1,
                        "θ={theta} la={la} lb={lb}: safe length {safe} is wrong"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_len_window_equals_the_per_slot_length_test_exhaustively() {
        // The interval must accept exactly the stored lengths the
        // per-slot test `|p − ls| ≤ θ-bound(max(p, ls))` accepts, and
        // never the null sentinel.
        let mask = 0b1011;
        for theta in [0.7, 0.75, 0.8, 0.9, 1.0] {
            for p in 0..=64u32 {
                let (len_lo, len_hi) = edit_len_window(theta, p);
                let edit = EditProbe { theta, len: p, mask, len_lo, len_hi };
                for ls in (0..=128u32).chain([NULL_SLOT]) {
                    let per_slot = ls != NULL_SLOT
                        && p.abs_diff(ls) as usize <= theta_bound(theta, p.max(ls) as usize);
                    assert_eq!(
                        edit_meta_ok(ls, || mask, &edit),
                        per_slot,
                        "θ={theta} p={p} ls={ls}: window [{len_lo}, {len_hi}]"
                    );
                }
            }
        }
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
