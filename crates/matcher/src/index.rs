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

use crate::key::{mask_allows, KeyMatcher, PairSide};
use crate::postings::{Cursor, PostingList};
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::negation::NegativeRule;
use matchrules_core::operators::OperatorId;
use matchrules_core::relative_key::RelativeKey;
use matchrules_core::schema::{AttrId, Schema};
use matchrules_data::eval::{AtomTrace, FilterStats, RetrievalReject, RuntimeOps};
use matchrules_data::prep::{AttrSig, RelationPrep, SigNeeds};
use matchrules_data::relation::{Relation, Tuple, TupleId};
use matchrules_runtime::{CowMap, CowVec, WorkPool, CHUNK_LEN};
use matchrules_simdist::edit::theta_bound;
use matchrules_simdist::filters::{StringSig, FILTER_Q};
use matchrules_simdist::ops::{hash_element, OpClass};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Index;
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
    /// Lists over the keys the operator derives; under equality the one
    /// key is the raw value, found by the dictionary's own lookup.
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
/// keys, and the posting keys (key hashes, elements or gram hashes) it
/// is listed under. Index maintenance and probe preparation both fill
/// them, so neither allocates a fresh list per value.
#[derive(Default)]
struct AnchorScratch {
    keys: Vec<String>,
    elems: Vec<u64>,
}

impl AnchorScratch {
    /// The hashes of the keys `op` derives from `s`, sorted and
    /// deduplicated, into `self.elems`. None under an equality operator:
    /// its one key is `s` itself, which the dictionary looks up, so the
    /// operator is never asked.
    fn key_hashes(&mut self, ops: &RuntimeOps, op: OperatorId, s: &str) {
        self.elems.clear();
        if ops.class(op) == OpClass::Equality {
            return;
        }
        self.keys.clear();
        ops.derived_keys_into(op, s, &mut self.keys);
        self.elems.extend(self.keys.iter().map(|key| hash_element(key.chars())));
        self.elems.sort_unstable();
        self.elems.dedup();
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

/// An anchor's id for one distinct value of its attribute: handed out in
/// first-occurrence order and never reused, so postings over value ids
/// stay ascending under appends.
type ValueId = u32;

/// "Nothing here" in the dictionary: no value (a `Null` slot), no next
/// value in a collision chain.
const NO_ID: u32 = u32::MAX;

/// What the prefilter reads of one value — the hot columns of its
/// [`ValueDict`] entry, as [`ValueKind::describe`] computes them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct ValueMeta {
    /// Length in chars (q-gram anchors), or the element-set size the
    /// size-ratio bound reads (element anchors; 0 for key anchors, which
    /// store no size column).
    size: u32,
    /// Char-bag presence mask (q-gram anchors; 0 for element anchors,
    /// which store no mask column).
    mask: u64,
}

/// The live slots holding one value: ascending and contiguous, so a
/// retrieval expands a value by copying one run.
#[derive(Clone, Debug, Default)]
enum SlotRun {
    /// No live slot: the value is dead.
    #[default]
    Empty,
    /// Exactly one live slot, stored inline.
    One(u32),
    /// Two or more live slots in one buffer: `buf[0]` is their count `n`,
    /// `buf[1..=n]` the slots, and the rest room to append into while no
    /// clone of the index shares the buffer.
    Many(Arc<[u32]>),
}

impl SlotRun {
    /// A run of exactly `slots` (ascending), with no room to spare.
    fn of(slots: &[u32]) -> SlotRun {
        match *slots {
            [] => SlotRun::Empty,
            [slot] => SlotRun::One(slot),
            _ => SlotRun::Many(run_buffer(slots, &[], 0)),
        }
    }

    /// The run's slots, ascending.
    #[inline]
    fn slots(&self) -> &[u32] {
        match self {
            SlotRun::Empty => &[],
            SlotRun::One(slot) => std::slice::from_ref(slot),
            SlotRun::Many(buf) => &buf[1..=buf[0] as usize],
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, SlotRun::Empty)
    }

    /// Appends `slot`, which is above every slot of the run: in place
    /// while the buffer is unshared and has room, otherwise into a fresh
    /// buffer with room for as many slots again.
    fn push(&mut self, slot: u32) {
        match self {
            SlotRun::Empty => *self = SlotRun::One(slot),
            &mut SlotRun::One(first) => *self = SlotRun::Many(run_buffer(&[first], &[slot], 0)),
            SlotRun::Many(buf) => {
                let n = buf[0] as usize;
                if let Some(owned) = Arc::get_mut(buf).filter(|owned| n + 1 < owned.len()) {
                    owned[n + 1] = slot;
                    owned[0] += 1;
                } else {
                    *buf = run_buffer(&buf[1..=n], &[slot], n + 1);
                }
            }
        }
    }

    /// Drops `slot` from the run, in place while the buffer is unshared.
    fn remove(&mut self, slot: u32) {
        let slots = self.slots();
        let at = slots.binary_search(&slot).expect("a removed slot is in its value's run");
        match slots.len() {
            1 => *self = SlotRun::Empty,
            2 => *self = SlotRun::One(slots[1 - at]),
            n => {
                let SlotRun::Many(buf) = self else {
                    unreachable!("a run of 3+ slots is a buffer")
                };
                match Arc::get_mut(buf) {
                    Some(owned) => {
                        owned.copy_within(at + 2..=n, at + 1);
                        owned[0] -= 1;
                    }
                    None => *buf = run_buffer(&buf[1..=at], &buf[at + 2..=n], 0),
                }
            }
        }
    }
}

/// A [`SlotRun::Many`] buffer holding `head` then `tail`, with room for
/// `room` more slots — one allocation.
fn run_buffer(head: &[u32], tail: &[u32], room: usize) -> Arc<[u32]> {
    let n = (head.len() + tail.len()) as u32;
    let slots = head.iter().chain(tail).copied();
    std::iter::once(n).chain(slots).chain(std::iter::repeat_n(0, room)).collect()
}

/// How [`ValueIndex::add`] treats the runs of a value index.
#[derive(Clone, Copy, PartialEq)]
enum Runs {
    /// Append the slot to its value's run (incremental insert).
    Append,
    /// Leave runs to [`ValueDict::fill_runs`] (a build: every value's
    /// slots are counted first, then each run is filled once, exactly
    /// sized).
    Deferred,
}

/// The distinct values of one anchor's attribute, laid out for the
/// probe. Per value, in columns of their own: the **hot** columns a
/// prefilter reads (`sizes` for q-gram and element anchors, `masks` for
/// q-gram anchors), the run of live slots a surviving value expands
/// to, and the **cold** collision link only lookups walk. Per slot, the
/// value it holds. Each value is reached by a hash of its string; the
/// string itself is read back from the tuple of the value's first live
/// slot (slots keep their tuples), so the dictionary copies no strings.
/// Every container is a [`CowVec`]/[`CowMap`]: a clone shares all of it
/// (runs included — a chunk of runs is shared whole, and a run's buffer
/// is shared until one side changes that run), and a write copies only
/// the chunks, stripe and run it touches.
#[derive(Clone)]
struct ValueDict {
    hasher: RandomState,
    /// String hash → the newest live value with that hash; older ones
    /// follow through `collide`.
    ids: CowMap<u64, ValueId>,
    /// Per value, its [`ValueMeta::size`] — q-gram and element anchors
    /// only (empty for key anchors, whose prefilter reads no size).
    sizes: CowVec<u32>,
    /// Per value, its [`ValueMeta::mask`] — q-gram anchors only (empty
    /// otherwise).
    masks: CowVec<u64>,
    /// Whether this dictionary keeps the `sizes` column.
    sized: bool,
    /// Whether this dictionary keeps the `masks` column.
    masked: bool,
    /// Per value, the next value whose string hashes alike ([`NO_ID`]
    /// ends the chain).
    collide: CowVec<ValueId>,
    /// Per value, its live slots; a value is live iff its run is
    /// non-empty.
    runs: CowVec<SlotRun>,
    /// Per slot from `base` on, the value it holds ([`NO_ID`] for
    /// `Null`) — a dense column, so retrieval reads a slot's value with
    /// one load. A removed slot keeps its value id.
    slot_values: CowVec<ValueId>,
    /// The first slot the slot column covers: 0 for an index, the chunk
    /// start for a partial of a parallel build.
    base: u32,
    /// Live values (those with at least one live slot).
    live: usize,
    /// Live slots holding a value: `held / live` is the repeat factor.
    held: usize,
}

impl ValueDict {
    fn new(base: u32, sized: bool, masked: bool) -> ValueDict {
        ValueDict {
            hasher: RandomState::new(),
            ids: CowMap::new(),
            sizes: CowVec::new(),
            masks: CowVec::new(),
            sized,
            masked,
            collide: CowVec::new(),
            runs: CowVec::new(),
            slot_values: CowVec::new(),
            base,
            live: 0,
            held: 0,
        }
    }

    /// Values handed out so far, dead ones included.
    fn len(&self) -> usize {
        self.runs.len()
    }

    /// The hot columns of value `v` (0 for a column not kept).
    fn meta(&self, v: ValueId) -> ValueMeta {
        let v = v as usize;
        let size = if self.sized { self.sizes[v] } else { 0 };
        ValueMeta { size, mask: if self.masked { self.masks[v] } else { 0 } }
    }

    /// The value `slot` holds ([`NO_ID`] for `Null`).
    #[inline]
    fn value_of(&self, slot: u32) -> ValueId {
        self.slot_values[(slot - self.base) as usize]
    }

    /// Every live value whose string hashes to `hash`, newest first, as
    /// the links that hold their ids (the `ids` entry, then each
    /// `collide` entry of the chain) — so a probe can list them without
    /// copying any.
    fn chain(&self, hash: u64) -> impl Iterator<Item = &ValueId> {
        // `successors` asks for the link after the end mark too: `get`
        // answers `None` for `NO_ID`.
        let next = |&v: &&ValueId| self.collide.get(*v as usize);
        std::iter::successors(self.ids.get(&hash), next).take_while(|&&v| v != NO_ID)
    }

    /// The live value whose string is `s` (hashing to `hash`), compared
    /// through each candidate value's first slot in `tuples`.
    fn find<T>(&self, hash: u64, s: &str, right: AttrId, tuples: &T) -> Option<ValueId>
    where
        T: Index<usize, Output = Tuple> + ?Sized,
    {
        self.chain(hash).copied().find(|&v| {
            let first = self.runs[v as usize].slots()[0];
            tuples[first as usize].get(right).as_str() == Some(s)
        })
    }

    /// Opens a fresh live value hashing to `hash`, described by `meta`,
    /// whose run starts at `slot`.
    fn open(&mut self, hash: u64, meta: ValueMeta, slot: u32) -> ValueId {
        let v = self.len() as ValueId;
        self.collide.push(self.ids.insert(hash, v).unwrap_or(NO_ID));
        if self.sized {
            self.sizes.push(meta.size);
        }
        if self.masked {
            self.masks.push(meta.mask);
        }
        self.runs.push(SlotRun::One(slot));
        self.live += 1;
        v
    }

    /// Refills every run from the slot column — a build's last step, when
    /// every slot is live: counts each value's slots, then copies them
    /// into one exactly sized run per value, ascending.
    fn fill_runs(&mut self) {
        let mut start = vec![0usize; self.len() + 1];
        for &v in self.slot_values.iter().filter(|&&v| v != NO_ID) {
            start[v as usize + 1] += 1;
        }
        for v in 1..start.len() {
            start[v] += start[v - 1];
        }
        let mut flat = vec![0u32; self.held];
        let mut next = start.clone();
        for (offset, &v) in self.slot_values.iter().enumerate().filter(|(_, &v)| v != NO_ID) {
            flat[next[v as usize]] = self.base + offset as u32;
            next[v as usize] += 1;
        }
        self.runs = start.windows(2).map(|w| SlotRun::of(&flat[w[0]..w[1]])).collect();
    }

    /// Drops `slot`, which holds `s`, from its value's run; when that was
    /// the value's last live slot, the value leaves the dictionary and is
    /// returned (re-inserting `s` later opens a fresh id). The slot keeps
    /// its value id.
    fn remove(&mut self, slot: u32, s: &str) -> Option<ValueId> {
        let v = self.value_of(slot);
        let run = self.runs.get_mut(v as usize);
        run.remove(slot);
        self.held -= 1;
        if !run.is_empty() {
            return None;
        }
        self.live -= 1;
        let hash = self.hasher.hash_one(s);
        let successor = self.collide[v as usize];
        let mut cur = *self.ids.get(&hash).expect("a live value is in the dictionary");
        if cur == v {
            match successor {
                NO_ID => self.ids.remove(&hash),
                successor => self.ids.insert(hash, successor),
            };
        } else {
            while self.collide[cur as usize] != v {
                cur = self.collide[cur as usize];
            }
            *self.collide.get_mut(cur as usize) = successor;
        }
        Some(v)
    }
}

/// Value liveness as the `bool` index [`PostingList::note_removed`]
/// rewrites a block under: a value is live while its run is non-empty.
struct LiveValues<'a>(&'a CowVec<SlotRun>);

impl Index<usize> for LiveValues<'_> {
    type Output = bool;

    fn index(&self, v: usize) -> &bool {
        if self.0[v].is_empty() {
            &false
        } else {
            &true
        }
    }
}

/// How an anchor turns one distinct value into posting keys and
/// prefilter metadata.
#[derive(Clone, Copy, Debug)]
enum ValueKind {
    /// q-gram postings ([`Anchor::Grams`]).
    Grams { theta: f64, safe_len: usize },
    /// Element postings ([`Anchor::Elements`]) of operator `op`.
    Elements { op: OperatorId, min_ratio: f64 },
    /// Key postings ([`Anchor::Keys`]) of operator `op`: the hashes of
    /// the keys it derives. None for an equality operator, whose one key
    /// is the value itself: the dictionary's own lookup is its bucket.
    Keys { op: OperatorId },
}

impl ValueKind {
    /// Describes the value `s` — once per distinct value: the hot columns
    /// its prefilter reads and whether it goes on the side list, with the
    /// keys of the posting lists it joins left in `scratch.elems` (its
    /// distinct gram hashes, its elements, or its derived keys' hashes).
    fn describe(self, s: &str, ops: &RuntimeOps, scratch: &mut AnchorScratch) -> (ValueMeta, bool) {
        match self {
            ValueKind::Grams { safe_len, .. } => {
                let chars: Vec<char> = s.chars().collect();
                let sig = StringSig::of_chars(&chars);
                scratch.elems.clear();
                scratch.elems.extend(sig.qgrams().distinct_hashes());
                let len = sig.char_len();
                let meta = ValueMeta { size: len as u32, mask: sig.bag().presence_mask() };
                (meta, len < safe_len)
            }
            ValueKind::Elements { op, .. } => {
                let size = scratch.elements_of(ops, op, s);
                (ValueMeta { size, mask: 0 }, scratch.elems.is_empty())
            }
            ValueKind::Keys { op } => {
                scratch.key_hashes(ops, op, s);
                (ValueMeta::default(), false)
            }
        }
    }
}

/// The inverted index over one indexable atom, shared by every key that
/// mentions the atom, over its attribute's distinct values (`dict`):
/// posting key → compressed posting list of the value ids listed under
/// it, plus the `side` list of value ids retrieved without a shared key
/// (the sparse list of a q-gram atom, the empty list of an element atom).
/// Every list holds value ids, so a value repeated across many records is
/// described, listed, decoded and prefiltered once; a retrieval expands
/// surviving values to their runs of live slots. `Null` slots hold no
/// value and appear on no list: null matches nothing.
///
/// Per kind ([`ValueKind`]; see the [module docs](self) for each one's
/// soundness argument):
///
/// * a key atom (equality, soundex, digit equality, synonym tables) lists
///   each value under its derived keys' hashes; matching values share a
///   key and every non-null value derives at least one, so the union of
///   the probe's key lists is a superset of the atom's match set. An
///   equality atom keeps no lists: its retrieval is the values the
///   dictionary files under the probe string's hash;
/// * a thresholded edit atom lists each value under its grams; the side
///   list holds the values shorter than `safe_len`, scanned whenever the
///   probe itself is short (gram sharing is only guaranteed above the
///   safe length). The length window and presence-mask prefilters read
///   each value's char length and char-bag mask — both sound because
///   each lower-bounds the OSA distance the verification kernel would
///   compute;
/// * an element atom (token Jaccard, q-gram Dice, Jaro–Winkler) lists
///   each value under its elements, filtered by `min ≥ min_ratio·max` on
///   each value's element-set size; the side list holds the element-less
///   values, retrieved only by element-less probes.
#[derive(Clone)]
struct ValueIndex {
    left: AttrId,
    right: AttrId,
    kind: ValueKind,
    postings: CowMap<u64, PostingList>,
    side: Arc<Vec<ValueId>>,
    dict: ValueDict,
}

impl ValueIndex {
    /// An empty index anchoring `atom` as `anchor`, for slots from `base`
    /// on.
    fn new(atom: &SimilarityAtom, anchor: Anchor, base: u32) -> ValueIndex {
        let op = atom.op;
        let kind = match anchor {
            Anchor::Keys => ValueKind::Keys { op },
            Anchor::Grams { theta, safe_len } => ValueKind::Grams { theta, safe_len },
            Anchor::Elements { min_ratio } => ValueKind::Elements { op, min_ratio },
        };
        let (sized, masked) = match kind {
            ValueKind::Keys { .. } => (false, false),
            ValueKind::Grams { .. } => (true, true),
            ValueKind::Elements { .. } => (true, false),
        };
        ValueIndex {
            left: atom.left,
            right: atom.right,
            kind,
            postings: CowMap::new(),
            side: Arc::default(),
            dict: ValueDict::new(base, sized, masked),
        }
    }

    /// Indexes one slot (slot ids arrive in ascending order, so every
    /// list and run stays sorted, and exactly one slot-column entry is
    /// pushed per call). `tuples` holds every earlier slot's tuple: values'
    /// strings are read back from them. A value some live slot already
    /// holds only gains the slot (on its run now under [`Runs::Append`],
    /// or later through [`ValueDict::fill_runs`] under [`Runs::Deferred`]);
    /// a new one is described, listed and opened with the slot as its
    /// run. Keys and elements come from the operator via `ops`, through
    /// `scratch`.
    fn add<T>(
        &mut self,
        slot: u32,
        tuple: &Tuple,
        tuples: &T,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
        runs: Runs,
    ) where
        T: Index<usize, Output = Tuple> + ?Sized,
    {
        let dict = &mut self.dict;
        let Some(s) = tuple.get(self.right).as_str() else {
            return dict.slot_values.push(NO_ID);
        };
        dict.held += 1;
        let hash = dict.hasher.hash_one(s);
        if let Some(v) = dict.find(hash, s, self.right, tuples) {
            if runs == Runs::Append {
                dict.runs.get_mut(v as usize).push(slot);
            }
            return dict.slot_values.push(v);
        }
        let (meta, side) = self.kind.describe(s, ops, scratch);
        let v = dict.open(hash, meta, slot);
        dict.slot_values.push(v);
        if side {
            Arc::make_mut(&mut self.side).push(v);
        }
        for &key in &scratch.elems {
            self.postings.or_default(key).push(v);
        }
    }

    /// Folds a partial (higher-slot) index of a build in. The partial's
    /// values are matched to this index's by string (read from `tuples`
    /// through each value's first slot): a value both hold keeps this
    /// index's id, the others are opened here in the partial's order — so
    /// value ids and lists come out as a serial build makes them. Runs are
    /// left to [`ValueDict::fill_runs`].
    fn merge(&mut self, other: ValueIndex, tuples: &[Tuple]) {
        let ValueIndex { postings: p2, side: s2, dict: d2, .. } = other;
        let dict = &mut self.dict;
        debug_assert_eq!(d2.base as usize, dict.base as usize + dict.slot_values.len());
        let first_new = dict.len() as ValueId;
        let mut global = Vec::with_capacity(d2.len());
        for local in 0..d2.len() as ValueId {
            let first = d2.runs[local as usize].slots()[0];
            let s = tuples[first as usize].get(self.right).as_str();
            let s = s.expect("a value's slots hold its string");
            let hash = dict.hasher.hash_one(s);
            let v = match dict.find(hash, s, self.right, tuples) {
                Some(v) => v,
                None => dict.open(hash, d2.meta(local), first),
            };
            global.push(v);
        }
        dict.held += d2.held;
        let to_global = |v: ValueId| if v == NO_ID { NO_ID } else { global[v as usize] };
        dict.slot_values.extend(d2.slot_values.iter().map(|&v| to_global(v)));
        // Values this index already held are on their lists; only the
        // opened ones join, in ascending id order.
        let mut scratch = Vec::new();
        for (key, list) in p2.iter() {
            scratch.clear();
            list.decode_all_into(&mut scratch);
            for &local in &scratch {
                let v = global[local as usize];
                if v >= first_new {
                    self.postings.or_default(*key).push(v);
                }
            }
        }
        let opened = s2.iter().map(|&local| global[local as usize]);
        Arc::make_mut(&mut self.side).extend(opened.filter(|&v| v >= first_new));
    }

    /// Resolves the probe against this atom's lists into a
    /// [`PreparedAtom`] built in `bufs`: the posting lists and plain lists
    /// whose union (filtered per value by the prepared test, an edit
    /// atom's over the bound table it builds) is the atom's retrieval — a
    /// superset of the values whose slots satisfy the atom against the
    /// probe. The probe side carries its signatures (batched probes share
    /// one prep). An unsatisfiable probe value (`Null`) prepares an empty
    /// retrieval.
    fn prepare<'a>(
        &'a self,
        probe: PairSide<'_>,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
        bufs: AtomBufs,
    ) -> PreparedAtom<'a> {
        let AtomBufs { comp, plain, bounds } = bufs;
        let mut pa = PreparedAtom {
            comp: recycle(comp),
            plain: recycle(plain),
            index: self,
            test: ValueTest::Any,
        };
        pa.test = match self.kind {
            ValueKind::Grams { theta, safe_len } => {
                let computed;
                let sig = match probe.sigs.sig(self.left) {
                    Some(sig) => sig,
                    None => {
                        computed = AttrSig::of_value(probe.tuple.get(self.left));
                        &computed
                    }
                };
                if sig.is_null() {
                    return pa;
                }
                if sig.sig().char_len() < safe_len {
                    // Short probe: pairs below the safe length need not
                    // share a gram; partners at or above it are caught by
                    // the postings (their length alone puts the pair in
                    // the guaranteed regime).
                    pa.plain.push(self.side.as_slice());
                }
                self.lists_into(sig.sig().qgrams().distinct_hashes(), &mut pa.comp);
                let len = sig.sig().char_len() as u32;
                let mask = sig.sig().bag().presence_mask();
                ValueTest::Edit(EditProbe::new(theta, len, mask, bounds))
            }
            ValueKind::Elements { op, min_ratio } => {
                let Some(s) = probe.tuple.get(self.left).as_str() else {
                    return pa;
                };
                let size = scratch.elements_of(ops, op, s);
                if scratch.elems.is_empty() {
                    // An element-less probe can only match element-less
                    // values (the ratio bound rules everything else out).
                    pa.plain.push(self.side.as_slice());
                    ValueTest::Any
                } else {
                    self.lists_into(scratch.elems.iter().copied(), &mut pa.comp);
                    ValueTest::Ratio { ratio: min_ratio, probe: size }
                }
            }
            ValueKind::Keys { op } => {
                let Some(s) = probe.tuple.get(self.left).as_str() else {
                    return pa;
                };
                if ops.class(op) == OpClass::Equality {
                    // The dictionary's own lookup is the bucket: every live
                    // value filed under the probe string's hash — almost
                    // always one, the probe's own string when it is
                    // stored. Another string sharing the hash only widens
                    // the retrieval: verification compares the strings.
                    let hash = self.dict.hasher.hash_one(s);
                    pa.plain.extend(self.dict.chain(hash).map(std::slice::from_ref));
                } else {
                    scratch.key_hashes(ops, op, s);
                    self.lists_into(scratch.elems.iter().copied(), &mut pa.comp);
                }
                ValueTest::Any
            }
        };
        pa
    }

    /// Pushes the posting list under each of `keys` that exists.
    fn lists_into<'a>(&'a self, keys: impl Iterator<Item = u64>, comp: &mut Vec<&'a PostingList>) {
        comp.extend(keys.filter_map(|key| self.postings.get(&key)));
    }

    /// Purges `slot`, which holds `tuple` — the inverse of
    /// [`ValueIndex::add`]. The slot leaves its value's run, and only a
    /// value whose last slot goes is described again and leaves its
    /// lists: the side list at once, compressed posting lists as counted
    /// tombstones, rewriting a block once half of it is dead. The slot
    /// keeps its value id: slots are never reused, so the id stays
    /// correct for any stale reader.
    fn remove_slot(
        &mut self,
        slot: u32,
        tuple: &Tuple,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
    ) {
        let Some(s) = tuple.get(self.right).as_str() else { return };
        let Some(v) = self.dict.remove(slot, s) else { return };
        let (_, side) = self.kind.describe(s, ops, scratch);
        if side {
            drop_from(Arc::make_mut(&mut self.side), v);
        }
        for &key in &scratch.elems {
            drop_posting(&mut self.postings, key, v, &LiveValues(&self.dict.runs));
        }
    }
}

/// Removes `entry` from a sorted plain list, if present.
fn drop_from(list: &mut Vec<u32>, entry: u32) {
    if let Ok(i) = list.binary_search(&entry) {
        list.remove(i);
    }
}

/// Tombstones `entry` on the posting list under `key` (dropping the list
/// once empty); `alive` drives the block rewrite's liveness check.
fn drop_posting<A: Index<usize, Output = bool> + ?Sized>(
    postings: &mut CowMap<u64, PostingList>,
    key: u64,
    entry: u32,
    alive: &A,
) {
    let emptied = match postings.get_mut(&key) {
        Some(list) => {
            list.note_removed(entry, alive);
            list.is_empty()
        }
        None => false,
    };
    if emptied {
        postings.remove(&key);
    }
}

/// The per-value prefilter of a prepared atom, computed once per probe
/// from metadata the dictionary stores per value, so candidates failing
/// it die before the verification kernel ever sees them. Every test is
/// sound: a value it rejects would be rejected by the corresponding
/// verification filter (size ratio, length window, char-bag bound)
/// anyway.
enum ValueTest {
    /// The edit-atom prefilters, table-driven: the probe's length window
    /// plus the char-bag presence-mask bound (see [`EditProbe`]).
    Edit(EditProbe),
    /// The element anchors' size-ratio bound, `min ≥ ratio·max` over the
    /// value's element-set size vs the probe's.
    Ratio { ratio: f64, probe: u32 },
    /// Every value passes: a key atom's values, and an element-less probe
    /// against the element-less values (∅ ≈ ∅ holds under every element
    /// operator).
    Any,
}

impl ValueTest {
    /// Why value `at` of a window of the hot columns (`sizes`, and
    /// `masks` for an edit atom) fails the test, or `None` when it passes
    /// — the one per-value test, shared by a materializing value scan and
    /// the slot-level [`PreparedAtom::reject`].
    #[inline]
    fn reject(&self, sizes: &[u32], masks: &[u64], at: usize) -> Option<RetrievalReject> {
        match *self {
            ValueTest::Edit(ref edit) => edit.reject(sizes[at], masks[at]),
            ValueTest::Ratio { ratio, probe } => {
                (!ratio_ok(ratio, sizes[at], probe)).then_some(RetrievalReject::SizeRatio)
            }
            ValueTest::Any => None,
        }
    }
}

/// The probe side of the edit-atom prefilter, computed once per probe:
/// for every stored length `ls` in the probe's length window
/// ([`edit_len_window`]), `bounds[ls − len_lo]` is the edit bound
/// `theta_bound(θ, max(p, ls))` the presence-mask test compares against,
/// so testing a value costs a table read and no float arithmetic. Bounds
/// are stored saturated at `u8::MAX`: a mask difference never exceeds 64,
/// so every larger bound passes alike.
struct EditProbe {
    /// The probe's char-bag presence mask.
    mask: u64,
    /// The shortest stored length in the window.
    len_lo: u32,
    /// One bound per length of the window, `len_lo` first.
    bounds: Vec<u8>,
}

impl EditProbe {
    /// The prefilter of a probe of `len` chars with presence mask `mask`
    /// under threshold `theta`; its table is built in `bounds` (cleared
    /// first, so a reused buffer allocates nothing).
    fn new(theta: f64, len: u32, mask: u64, mut bounds: Vec<u8>) -> EditProbe {
        let (len_lo, len_hi) = edit_len_window(theta, len);
        bounds.clear();
        bounds.extend(
            (len_lo..=len_hi)
                .map(|ls| theta_bound(theta, len.max(ls) as usize).min(u8::MAX as usize) as u8),
        );
        EditProbe { mask, len_lo, bounds }
    }

    /// The edit-atom prefilter on one value's length `ls` and presence
    /// mask `sm`: why the value fails, or `None` when it passes.
    #[inline]
    fn reject(&self, ls: u32, sm: u64) -> Option<RetrievalReject> {
        let Some(&bound) = self.bounds.get(ls.wrapping_sub(self.len_lo) as usize) else {
            return Some(RetrievalReject::LengthWindow);
        };
        let diff = (self.mask & !sm).count_ones().max((sm & !self.mask).count_ones());
        (diff > bound as u32).then_some(RetrievalReject::PresenceMask)
    }
}

/// The stored lengths `ls` passing the edit prefilter's length test
/// against a probe of `probe_len` characters, as an inclusive interval:
/// `|p − ls| ≤ ⌊(1 − θ)·max(p, ls)⌋`. Below `p` that is
/// `ls ≥ p − ⌊(1 − θ)·p⌋`; above it, `ls − ⌊(1 − θ)·ls⌋ ≤ p`, whose left
/// side never decreases as `ls` grows (the floor rises by at most one
/// per step), so the accepted lengths are contiguous and end at most at
/// `p/θ`. Finite for every `θ > 0` — q-gram anchors exist only for
/// `θ > 2/3`.
fn edit_len_window(theta: f64, probe_len: u32) -> (u32, u32) {
    debug_assert!(theta > 0.0, "edit anchors need θ > 0");
    let p = probe_len as usize;
    let passes = |ls: usize| ls - theta_bound(theta, ls) <= p;
    // Two past the real-arithmetic end `p/θ`, then settle downwards.
    let mut hi = ((p as f64 / theta) as usize).saturating_add(2).min(u32::MAX as usize);
    while hi > p && !passes(hi) {
        hi -= 1;
    }
    ((p - theta_bound(theta, p)) as u32, hi as u32)
}

/// Walks a bitmap over `dict`'s value ids one [`CHUNK_LEN`] window at a
/// time — the unit in which every [`CowVec`] of a dictionary is
/// contiguous — resolving the window's hot columns once, then testing
/// each set value under `test` and passing those that pass to `keep`,
/// ascending; rejects are counted by reason.
fn scan_values(
    words: &[u64],
    dict: &ValueDict,
    test: &ValueTest,
    stats: &mut FilterStats,
    mut keep: impl FnMut(u32),
) {
    let (mut steps, mut rejected) = (0, [0; RetrievalReject::ALL.len()]);
    for (window, group) in words.chunks(CHUNK_LEN / 64).enumerate() {
        if group.iter().all(|&word| word == 0) {
            continue;
        }
        let base = window * CHUNK_LEN;
        let (sizes, masks) = (dict.sizes.run_of(base), dict.masks.run_of(base));
        for (w, &word) in group.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let offset = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                steps += 1;
                match test.reject(sizes, masks, offset) {
                    None => keep((base + offset) as u32),
                    Some(why) => rejected[why as usize] += 1,
                }
            }
        }
    }
    stats.linear_steps += steps;
    for (why, n) in RetrievalReject::ALL.into_iter().zip(rejected) {
        stats.reject(why, n);
    }
}

/// Whether bit `entry` is set in `words`.
#[inline]
fn bit_set(words: &[u64], entry: u32) -> bool {
    words[(entry >> 6) as usize] >> (entry & 63) & 1 == 1
}

/// Reusable buffers of the probe hot path: a bitmap over an atom's value
/// ids, the distinct values of a running candidate set (`vals`,
/// deduplicated through `marks`, which is all zero between uses), the
/// block-decode scratch and the membership cursors (empty between uses,
/// see [`recycle`]).
#[derive(Default)]
struct Bitmaps {
    values: Vec<u64>,
    marks: Vec<u64>,
    vals: Vec<u32>,
    decode: Vec<u32>,
    cursors: Vec<Cursor<'static>>,
}

/// Clears `words` and sizes it to `n` bits, rounded to a 256-bit boundary
/// so bitset posting blocks OR in whole.
fn clear_bits(words: &mut Vec<u64>, n: usize) {
    words.clear();
    words.resize(n.div_ceil(256) * 4, 0);
}

/// One atom's retrieval, resolved against a probe but not yet
/// materialized: the compressed posting lists and plain sorted lists of
/// value ids whose union — each value tested once under `test` — is the
/// atom's candidate set.
struct PreparedAtom<'a> {
    /// Compressed posting lists (key, gram or element postings).
    comp: Vec<&'a PostingList>,
    /// Plain sorted lists (side lists, an equality atom's values).
    plain: Vec<&'a [u32]>,
    /// The atom's index, whose dictionary the lists' value ids are of.
    index: &'a ValueIndex,
    test: ValueTest,
}

impl<'a> PreparedAtom<'a> {
    /// Empties the atom back into the buffers it was prepared in.
    fn into_bufs(self) -> AtomBufs {
        let bounds = match self.test {
            ValueTest::Edit(edit) => edit.bounds,
            _ => Vec::new(),
        };
        AtomBufs { comp: recycle(self.comp), plain: recycle(self.plain), bounds }
    }

    /// The dictionary the atom's value ids are of.
    fn dict(&self) -> &'a ValueDict {
        &self.index.dict
    }

    /// Value entries the atom's lists hold between them — the exact size
    /// of its unfiltered, undeduplicated union, read off list headers
    /// without decoding anything.
    fn volume(&self) -> usize {
        self.comp.iter().map(|list| list.len()).sum::<usize>()
            + self.plain.iter().map(|list| list.len()).sum::<usize>()
    }

    /// The volume a key's atoms are ordered by: the slots the atom's union
    /// expands to, as the fraction `(numerator, denominator)`. An equality
    /// atom's values (one plain list each) count their runs exactly. An element or derived-key
    /// atom's value entries are scaled by its dictionary's slots per live
    /// value — the slots its union expands to when values repeat evenly —
    /// because its few, much repeated values (60 cities under 20,000
    /// records) would otherwise always look cheapest. Kept as a fraction,
    /// so storing every record k times scales every atom but a q-gram one
    /// by exactly k. A q-gram atom counts its value entries unscaled:
    /// scaling it too moved the Extended plan and raised its decoded
    /// blocks.
    fn slot_volume(&self) -> (u64, u64) {
        let (volume, dict) = (self.volume() as u64, self.dict());
        match self.index.kind {
            ValueKind::Grams { .. } => (volume, 1),
            ValueKind::Keys { .. } if self.comp.is_empty() => {
                let runs = self.plain.iter().flat_map(|list| list.iter());
                (runs.map(|&v| dict.runs[v as usize].slots().len() as u64).sum(), 1)
            }
            _ => (volume * dict.held as u64, dict.live.max(1) as u64),
        }
    }

    /// Lists a membership probe walks per entry.
    fn lists(&self) -> usize {
        self.comp.len() + self.plain.len()
    }

    /// Why one slot fails the atom's prefilter — the membership-probe
    /// form, for the few slots of a small running intersection — or
    /// `None` when it passes: the slot's value is tested, and a `Null`
    /// slot holds none and fails.
    fn reject(&self, slot: u32) -> Option<RetrievalReject> {
        match self.dict().value_of(slot) {
            NO_ID => Some(RetrievalReject::Null),
            v => self.reject_value(v),
        }
    }

    /// Why value `v` fails the atom's prefilter, or `None` when it passes.
    fn reject_value(&self, v: u32) -> Option<RetrievalReject> {
        let (dict, v) = (self.dict(), v as usize);
        self.test.reject(dict.sizes.run_of(v), dict.masks.run_of(v), v % CHUNK_LEN)
    }

    /// The membership decisions `acc` needs: its distinct value ids, left
    /// in `bits.vals` in first-seen order. `acc` has passed the atom's
    /// prefilter, so every slot in it holds a value.
    fn decisions(&self, acc: &[u32], bits: &mut Bitmaps) -> usize {
        let dict = self.dict();
        let Bitmaps { marks, vals, .. } = bits;
        let words = dict.len().div_ceil(64);
        if marks.len() < words {
            marks.resize(words, 0);
        }
        vals.clear();
        for &slot in acc {
            let v = dict.value_of(slot);
            let (word, bit) = ((v >> 6) as usize, 1u64 << (v & 63));
            if marks[word] & bit == 0 {
                marks[word] |= bit;
                vals.push(v);
            }
        }
        vals.iter().for_each(|&v| marks[(v >> 6) as usize] = 0);
        vals.len()
    }

    /// ORs the atom's unfiltered union into `words`, sized for its
    /// dictionary.
    fn or_into(&self, words: &mut Vec<u64>, decode: &mut Vec<u32>, stats: &mut FilterStats) {
        clear_bits(words, self.dict().len());
        for list in &self.comp {
            stats.blocks_decoded += list.or_into(words, decode);
        }
        for plain in &self.plain {
            for &entry in *plain {
                words[(entry >> 6) as usize] |= 1u64 << (entry & 63);
            }
        }
    }

    /// Materializes the filtered union: tests each value of the union once
    /// through the hot columns, leaves the survivors in `survivors`,
    /// ascending, and expands them into `out` (see
    /// [`PreparedAtom::expand`]). A union of several lists is ORed into a
    /// value bitmap first (bitset blocks land as four word-ORs each); a
    /// union that is one plain list — an equality atom's value, a side
    /// list alone — is sorted and distinct already and is walked as it
    /// is, so it costs its length, not the dictionary's. No bitmap over
    /// slots is touched.
    fn materialize(
        &self,
        bits: &mut Bitmaps,
        stats: &mut FilterStats,
        survivors: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        let Bitmaps { values, decode, .. } = bits;
        survivors.clear();
        if let ([], [list]) = (self.comp.as_slice(), self.plain.as_slice()) {
            stats.linear_steps += list.len() as u64;
            for &v in *list {
                match self.reject_value(v) {
                    None => survivors.push(v),
                    Some(why) => stats.reject(why, 1),
                }
            }
        } else {
            self.or_into(values, decode, stats);
            scan_values(values, self.dict(), &self.test, stats, |v| survivors.push(v));
        }
        self.expand(survivors, out);
        // One step per slot produced, as a scan of the slots would count.
        stats.linear_steps += out.len() as u64;
    }

    /// The live slots holding `values` into `out`: each value's run in
    /// turn, so slots come grouped by value, each run ascending, and no
    /// slot twice (runs of distinct values are disjoint). Nothing
    /// downstream needs them in slot order: a key's candidates are sorted
    /// once, as pairs.
    fn expand(&self, values: &[u32], out: &mut Vec<u32>) {
        let runs = &self.dict().runs;
        out.clear();
        values.iter().for_each(|&v| out.extend_from_slice(runs[v as usize].slots()));
    }

    /// Keeps the slots of `acc` whose value survives `decide`, which
    /// filters in place the distinct values [`PreparedAtom::decisions`]
    /// left in `bits.vals`, sorted ascending first.
    fn keep_values(
        &self,
        acc: &mut Vec<u32>,
        bits: &mut Bitmaps,
        decide: impl FnOnce(&mut Vec<u32>),
    ) {
        let dict = self.dict();
        let Bitmaps { marks, vals, .. } = bits;
        vals.sort_unstable();
        decide(vals);
        vals.iter().for_each(|&v| marks[(v >> 6) as usize] |= 1u64 << (v & 63));
        acc.retain(|&slot| bit_set(marks, dict.value_of(slot)));
        vals.iter().for_each(|&v| marks[(v >> 6) as usize] = 0);
    }

    /// Intersects `acc` with this (unmaterialized) atom by membership: a
    /// slot survives iff its value appears on at least one of the atom's
    /// lists. Cursor targets ascend, so whole blocks are skipped on their
    /// max without decoding. Callers have already run `acc` through the
    /// atom's prefilter, so this produces exactly the `acc` that
    /// intersecting with the filtered union would.
    fn member_intersect(&self, acc: &mut Vec<u32>, bits: &mut Bitmaps, stats: &mut FilterStats) {
        let mut cursors: Vec<Cursor<'_>> = recycle(std::mem::take(&mut bits.cursors));
        cursors.extend(self.comp.iter().map(|list| list.cursor()));
        self.keep_values(acc, bits, |vals| {
            vals.retain(|&v| {
                cursors.iter_mut().any(|cur| cur.advance_to(v) == Some(v))
                    || self.plain.iter().any(|plain| plain.binary_search(&v).is_ok())
            })
        });
        for cur in &cursors {
            stats.blocks_decoded += cur.blocks_decoded;
            stats.blocks_skipped += cur.blocks_skipped;
        }
        bits.cursors = recycle(cursors);
    }

    /// Intersects `acc` with this atom over value ids: ORs the atom's
    /// unfiltered union into the value bitmap, then keeps the slots whose
    /// value's bit is set — no slot of the union is ever listed. Like
    /// [`PreparedAtom::member_intersect`], exact because `acc` already
    /// passed the atom's prefilter.
    fn value_intersect(&self, acc: &mut Vec<u32>, bits: &mut Bitmaps, stats: &mut FilterStats) {
        let dict = self.dict();
        let Bitmaps { values: union, decode, .. } = bits;
        self.or_into(union, decode, stats);
        stats.linear_steps += acc.len() as u64;
        acc.retain(|&slot| match dict.value_of(slot) {
            NO_ID => false,
            v => bit_set(union, v),
        });
    }
}

/// Intersects `acc` (sorted ascending) with the sorted `list` in place,
/// galloping through `list` — exponential stride doubling then a binary
/// settle, so a small `acc` against a long list costs `O(|acc|·log)`
/// instead of a full merge.
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

/// Empties `v` and hands its allocation back as a vector of `U`, a type
/// of the same layout — here the same borrowing type at another lifetime
/// — so buffers of borrows from one probe's index can wait in the
/// thread-local scratch for the next probe. No element is converted (the
/// vector is empty), and the standard library collects a mapped
/// `IntoIter` into its own allocation.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the vector is empty")).collect()
}

/// The buffers of one prepared atom between probes, emptied: its list
/// references and its edit bound table.
#[derive(Default)]
struct AtomBufs {
    comp: Vec<&'static PostingList>,
    plain: Vec<&'static [u32]>,
    bounds: Vec<u8>,
}

/// Reusable per-thread buffers of the probe hot path — the bitmaps and
/// the block-decode scratch, each atom's prepared lists and bound table,
/// the memoized retrievals, the plan order, the running intersection and
/// the candidate pairs — plus the key/element buffers that probes and
/// index maintenance share. Thread-local so concurrent queries (server
/// readers, batched pools) never contend; every buffer is cleared, never
/// freed, so sequential calls allocate nothing once they have grown.
#[derive(Default)]
struct ProbeScratch {
    bits: Bitmaps,
    anchor: AnchorScratch,
    /// Per atom position, the buffers its prepared retrieval uses.
    atoms: Vec<AtomBufs>,
    /// The probe's prepared atoms by position — empty between probes,
    /// kept for its allocation (see [`recycle`]).
    prepared: Vec<Option<PreparedAtom<'static>>>,
    /// Per atom position, the values that survived its retrieval as an
    /// earlier key's first atom, ascending; valid where `memoized` is set.
    retrieved: Vec<Vec<u32>>,
    memoized: Vec<bool>,
    /// A key's atoms as (position, volume, volume in slots), planned.
    order: Vec<(usize, usize, (u64, u64))>,
    /// A key's running intersection.
    acc: Vec<u32>,
    /// (slot, key bit) per key's candidate.
    pairs: Vec<(u32, u64)>,
    /// The probe's candidates with their key masks, ascending by slot:
    /// what [`MatchIndex::candidate_masks`] leaves behind.
    masked: Vec<(u32, u64)>,
}

thread_local! {
    static PROBE_SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

/// When a key's running candidate set needs at most this many membership
/// decisions from its next atom (its distinct values there), that atom is
/// left to verification: deciding the leftover candidate there is
/// cheaper than another retrieval, and the intersection of any subset of
/// a key's atoms is a sound superset.
/// Survivors sharing one value would be kept or dropped together, so
/// copies of a value add verifications in proportion but no retrieval.
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
        atom_indices.iter_mut().for_each(|atom| atom.dict.fill_runs());

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
    /// liveness flags describe the same live set, and every posting list
    /// passes [`PostingList::check_invariants`] and counts exactly its
    /// dead entries as tombstones. Every anchor's value dictionary is
    /// exact: its per-value columns have one entry per value (sizes only
    /// under q-gram and element anchors, masks only under q-gram
    /// anchors), each live slot's value
    /// maps back to the slot's string, each value's run is ascending and
    /// exactly the live slots holding it (so a value is live iff its run
    /// is non-empty, and `live`/`held` count them), each value's hot
    /// columns equal what [`ValueKind::describe`] gives its string, and
    /// each live value is on exactly its posting keys' lists (and the side
    /// list when it belongs there) while a dead value is on no list but as
    /// a counted tombstone.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let slots = self.tuples.len();
        assert_eq!(self.alive.len(), slots, "one liveness flag per slot");
        assert_eq!(self.live_tuples().count(), self.live, "live count matches the flags");
        assert_eq!(self.by_id.len(), self.live, "one id entry per live tuple");
        for (slot, tuple) in self.live_tuples() {
            assert_eq!(self.by_id.get(&tuple.id()), Some(&(slot as u32)), "id maps to its slot");
        }
        self.atom_indices.iter().for_each(|atom| self.check_dict(atom));
    }

    /// The value-index half of [`MatchIndex::check_invariants`].
    fn check_dict(&self, vi: &ValueIndex) {
        let ValueIndex { right, kind, postings, side, dict, .. } = vi;
        let (slots, values) = (self.tuples.len(), dict.len());
        assert_eq!((dict.base as usize, dict.slot_values.len()), (0, slots), "one value per slot");
        let kept = |column: bool| if column { values } else { 0 };
        assert_eq!(
            (dict.collide.len(), dict.sizes.len(), dict.masks.len()),
            (values, kept(dict.sized), kept(dict.masked)),
            "one entry per value in every per-value column"
        );
        let mut holders = vec![Vec::new(); values];
        // Some slot, live or not, that holds each value: slots keep their
        // tuples, so even a dead value's string can be described again.
        let mut any_slot = vec![None; values];
        for (slot, tuple) in self.tuples.iter().enumerate() {
            let v = dict.value_of(slot as u32);
            let Some(s) = tuple.get(*right).as_str() else {
                assert_eq!(v, NO_ID, "a null slot holds no value");
                continue;
            };
            any_slot[v as usize].get_or_insert(slot);
            if self.alive[slot] {
                let found = dict.find(dict.hasher.hash_one(s), s, *right, &self.tuples);
                assert_eq!(found, Some(v), "slot {slot}'s value maps back to its string");
                holders[v as usize].push(slot as u32);
            }
        }
        let mut lists: HashMap<u64, Vec<ValueId>> = HashMap::new();
        let mut on_side = Vec::new();
        let mut scratch = AnchorScratch::default();
        for (v, holders) in holders.iter().enumerate() {
            let run = dict.runs[v].slots();
            assert!(run.windows(2).all(|w| w[0] < w[1]), "value {v}'s run ascends");
            assert_eq!(
                run,
                holders.as_slice(),
                "value {v}'s run is exactly the live slots holding it"
            );
            assert_eq!(dict.runs[v].is_empty(), holders.is_empty(), "value {v} is live iff held");
            let slot = any_slot[v].expect("every value was opened by a slot holding it");
            let s =
                self.tuples[slot].get(*right).as_str().expect("a value's slots hold its string");
            let (described, side) = kind.describe(s, &self.ops, &mut scratch);
            assert_eq!(dict.meta(v as ValueId), described, "value {v}'s hot columns");
            if holders.is_empty() {
                continue;
            }
            if side {
                on_side.push(v as ValueId);
            }
            for &key in &scratch.elems {
                lists.entry(key).or_default().push(v as ValueId);
            }
        }
        let live = LiveValues(&dict.runs);
        assert_eq!(dict.live, holders.iter().filter(|h| !h.is_empty()).count(), "live values");
        assert_eq!(dict.held, holders.iter().map(Vec::len).sum::<usize>(), "slots holding values");
        let reachable: usize = (dict.ids.values())
            .map(|&head| {
                let mut v = head;
                let mut n = 0;
                while v != NO_ID {
                    assert!(live[v as usize], "the dictionary reaches only live values");
                    n += 1;
                    v = dict.collide[v as usize];
                }
                n
            })
            .sum();
        assert_eq!(reachable, dict.live, "the dictionary reaches every live value once");
        assert_eq!(side.as_slice(), on_side.as_slice(), "the side list holds exactly its values");
        for (key, list) in postings.iter() {
            list.check_invariants();
            list.check_tombstones(&live);
            let mut entries = Vec::new();
            list.decode_all_into(&mut entries);
            entries.retain(|&v| live[v as usize]);
            let expected = lists.remove(key).unwrap_or_default();
            assert_eq!(entries, expected, "key {key:#x} lists exactly the live values under it");
        }
        assert!(lists.is_empty(), "every live value is on each of its keys' lists");
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
        for vi in &self.atom_indices {
            match vi.kind {
                ValueKind::Keys { .. } => stats.key_anchors += 1,
                ValueKind::Grams { .. } => stats.qgram_anchors += 1,
                ValueKind::Elements { .. } => stats.element_anchors += 1,
            }
            stats.distinct_values += vi.dict.live;
            stats.posting_lists += vi.postings.len();
            stats.sparse_entries += vi.side.len();
            for list in vi.postings.values() {
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
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            self.candidate_masks(PairSide::new(probe, prep.row(0)), scratch, &mut stats);
            scratch.masked.iter().map(|&(slot, _)| slot as usize).collect()
        })
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
    /// value entries its atoms' lists hold, read off list headers):
    ///
    /// 1. *Order* — cheapest atom first by volume in slots
    ///    ([`PreparedAtom::slot_volume`]); ties broken by atom position.
    /// 2. *Materialize* — the cheapest atom's union is OR'd into a value
    ///    bitmap and scanned out through its prefilter, each value tested
    ///    once; the surviving values are memoized for the probe's later
    ///    keys and expanded to their live slots. Only a key's first atom
    ///    is ever expanded to slots.
    /// 3. *Prefilter* — the survivors run through every remaining atom's
    ///    prefilter, which costs a metadata lookup and decodes nothing.
    /// 4. *Intersect* — each remaining atom, cheapest first, either
    ///    tests the survivors' distinct values by membership (galloping
    ///    cursors that skip whole blocks) when `decisions × lists <
    ///    volume`, or ORs its whole union into a value bitmap each
    ///    survivor's value is tested against; an atom that was an earlier
    ///    key's first gallops the survivors' distinct values through its
    ///    memoized ones. An atom
    ///    the survivors need at most [`ENOUGH`] decisions from is left to
    ///    verification.
    ///
    /// The plan depends only on the probe and the index version, so
    /// answers *and* counters are deterministic per probe. The candidates
    /// are left in `scratch.masked`, ascending by slot; every buffer the
    /// probe uses is `scratch`'s.
    fn candidate_masks(
        &self,
        probe: PairSide<'_>,
        scratch: &mut ProbeScratch,
        stats: &mut FilterStats,
    ) {
        let prune = self.key_atoms.len() <= 64;
        let n_slots = self.tuples.len();
        let n_atoms = self.atom_indices.len();
        let ProbeScratch {
            bits,
            anchor,
            atoms,
            prepared: spare,
            retrieved,
            memoized,
            order,
            acc,
            pairs,
            masked,
        } = scratch;
        if atoms.len() < n_atoms {
            atoms.resize_with(n_atoms, AtomBufs::default);
            retrieved.resize_with(n_atoms, Vec::new);
        }
        memoized.clear();
        memoized.resize(n_atoms, false);
        pairs.clear();
        masked.clear();
        // Prepare and retrieve each distinct atom at most once: several
        // keys usually share atoms.
        let mut prepared: Vec<Option<PreparedAtom<'_>>> = recycle(std::mem::take(spare));
        prepared.resize_with(n_atoms, || None);
        let mut scan = false;
        for (key, refs) in self.key_atoms.iter().enumerate() {
            if refs.is_empty() {
                // Unindexable key: every live slot is a candidate, no
                // other key can add more, and later keys were never
                // intersected — so no key may be pruned (and no duplicate
                // retrievals exist to fold).
                scan = true;
                break;
            }
            let bit = if prune { 1u64 << key } else { NO_PRUNE };

            // Order: (volume in slots, position), cheapest first.
            order.clear();
            for &pos in refs {
                let pa = prepared[pos].get_or_insert_with(|| {
                    let bufs = std::mem::take(&mut atoms[pos]);
                    self.atom_indices[pos].prepare(probe, &self.ops, anchor, bufs)
                });
                order.push((pos, pa.volume(), pa.slot_volume()));
            }
            order.sort_unstable_by(|&(p, _, (n, d)), &(q, _, (m, e))| {
                let (n, d, m, e) = (n as u128, d as u128, m as u128, e as u128);
                (n * e).cmp(&(m * d)).then(p.cmp(&q))
            });
            let (first, cheapest, _) = order[0];
            if cheapest == 0 {
                continue; // an atom retrieving nothing empties the key
            }
            let atom = |pos: usize| prepared[pos].as_ref().expect("every key atom is prepared");
            if memoized[first] {
                atom(first).expand(&retrieved[first], acc);
            } else {
                atom(first).materialize(bits, stats, &mut retrieved[first], acc);
                memoized[first] = true;
            }

            // Prefilter: every remaining atom's per-entry test runs before
            // any of their lists is touched, one atom (one metadata
            // column) at a time.
            let rest = &order[1..];
            for &(pos, ..) in rest {
                let pa = atom(pos);
                acc.retain(|&slot| match pa.reject(slot) {
                    None => true,
                    Some(why) => {
                        stats.reject(why, 1);
                        false
                    }
                });
            }

            // Intersect, cheapest first: test the survivors by membership
            // unless that walks more entries than the atom's whole union
            // holds.
            for &(pos, volume, _) in rest {
                let pa = atom(pos);
                let decisions = pa.decisions(acc, bits);
                if decisions <= ENOUGH {
                    continue; // cheap to verify; a subset of atoms is sound
                }
                if memoized[pos] {
                    // An earlier key's first atom: its surviving values
                    // are known.
                    let survivors = &retrieved[pos];
                    pa.keep_values(acc, bits, |vals| gallop_intersect(vals, survivors, stats));
                } else if decisions * pa.lists() < volume {
                    pa.member_intersect(acc, bits, stats);
                } else {
                    pa.value_intersect(acc, bits, stats);
                }
            }
            pairs.extend(acc.iter().map(|&slot| (slot, bit)));
        }
        for (pos, pa) in prepared.iter_mut().enumerate() {
            if let Some(pa) = pa.take() {
                atoms[pos] = pa.into_bufs();
            }
        }
        *spare = recycle(prepared);
        if scan {
            let live = (0..n_slots as u32).filter(|&s| self.alive[s as usize]);
            masked.extend(live.map(|s| (s, NO_PRUNE)));
            return;
        }
        pairs.sort_unstable_by_key(|&(slot, _)| slot);
        // Fold duplicate slots (retrieved by several keys) into one
        // candidate carrying the union of their key bits — each fold is
        // one preparation + verification saved.
        for &(slot, bit) in pairs.iter() {
            match masked.last_mut() {
                Some((last, mask)) if *last == slot => *mask |= bit,
                _ => masked.push((slot, bit)),
            }
        }
        stats.dedup_saved += (pairs.len() - masked.len()) as u64;
        masked.retain(|&(slot, _)| self.alive[slot as usize]);
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
            self.candidate_masks(probe, scratch, &mut stats);
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
            let dict = &index.atom_indices[0].dict;
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
        // per-value test `|p − ls| ≤ θ-bound(max(p, ls))` accepts, even
        // the largest.
        let mask = 0b1011;
        for theta in [0.7, 0.75, 0.8, 0.9, 1.0] {
            for p in 0..=64u32 {
                let (len_lo, len_hi) = edit_len_window(theta, p);
                let edit = EditProbe::new(theta, p, mask, Vec::new());
                for ls in (0..=128u32).chain([u32::MAX]) {
                    let per_value =
                        p.abs_diff(ls) as usize <= theta_bound(theta, p.max(ls) as usize);
                    assert_eq!(
                        edit.reject(ls, mask).is_none(),
                        per_value,
                        "θ={theta} p={p} ls={ls}: window [{len_lo}, {len_hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_bound_table_equals_theta_bound_exhaustively() {
        // The table holds `theta_bound(θ, max(p, ls))` for every `ls` of
        // the length window and nothing else, whatever the window's width
        // (up to 28 lengths here, at θ = 0.7 and p = 64) and whatever the
        // reused buffer held before; and the mask test reads it exactly as
        // the float bound would decide.
        let mut reused = vec![7u8; 3];
        for theta in [0.70, 0.75, 0.80, 0.85, 0.90] {
            for p in 0..=64u32 {
                let (len_lo, len_hi) = edit_len_window(theta, p);
                let edit = EditProbe::new(theta, p, 0, reused);
                assert_eq!(edit.len_lo, len_lo, "θ={theta} p={p}");
                let expected: Vec<usize> =
                    (len_lo..=len_hi).map(|ls| theta_bound(theta, p.max(ls) as usize)).collect();
                let table: Vec<usize> = edit.bounds.iter().map(|&b| b as usize).collect();
                assert_eq!(table, expected, "θ={theta} p={p}: window [{len_lo}, {len_hi}]");
                for ls in len_lo..=len_hi {
                    let bound = theta_bound(theta, p.max(ls) as usize);
                    for diff in 0..=bound as u32 + 1 {
                        let sm = (1u64 << diff) - 1; // `diff` chars the probe lacks
                        let rejected = edit.reject(ls, sm) == Some(RetrievalReject::PresenceMask);
                        assert_eq!(rejected, diff as usize > bound, "θ={theta} p={p} ls={ls}");
                    }
                }
                reused = edit.bounds;
            }
        }
        let widest = EditProbe::new(0.70, 64, 0, Vec::new()).bounds.len();
        assert!(widest > 16, "the windows tested reach {widest} lengths");
    }

    #[test]
    fn recycle_keeps_the_allocation() {
        // The probe scratch relies on it: a recycled buffer must come back
        // with its capacity, not as a fresh allocation per probe.
        let list = PostingList::new();
        let mut lists: Vec<&PostingList> = Vec::with_capacity(16);
        lists.push(&list);
        let at = lists.as_ptr() as usize;
        let kept: Vec<&'static PostingList> = recycle(lists);
        assert_eq!((kept.as_ptr() as usize, kept.capacity(), kept.len()), (at, 16, 0));
        let prepared: Vec<Option<PreparedAtom<'static>>> = Vec::with_capacity(4);
        let at = prepared.as_ptr() as usize;
        let mut probe: Vec<Option<PreparedAtom<'_>>> = recycle(prepared);
        probe.push(None);
        assert_eq!((probe.as_ptr() as usize, probe.capacity()), (at, 4));
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
