//! One atom's index and its maintenance: the lists of value ids an anchor
//! keeps over its [`ValueDict`] ([`ValueIndex`]).

use super::anchor::{Anchor, AnchorScratch};
use super::dict::{Runs, ValueDict, ValueId};
use super::IndexStats;
use crate::postings::PostingList;
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::operators::OperatorId;
use matchrules_core::schema::AttrId;
use matchrules_data::eval::RuntimeOps;
use matchrules_data::relation::Tuple;
use matchrules_runtime::{CowMap, CowVec};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

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
/// Per [`Anchor`] (see the [module docs](super) for each one's soundness
/// argument):
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
pub(super) struct ValueIndex {
    left: AttrId,
    right: AttrId,
    anchor: Anchor,
    /// The atom's operator: it derives the keys or elements of key and
    /// element anchors.
    op: OperatorId,
    postings: CowMap<u64, PostingList>,
    side: Arc<Vec<ValueId>>,
    dict: ValueDict,
}

impl ValueIndex {
    /// An empty index anchoring `atom` as `anchor`, for slots from `base`
    /// on.
    pub(super) fn new(atom: &SimilarityAtom, anchor: Anchor, base: u32) -> ValueIndex {
        let (sized, masked) = match anchor {
            Anchor::Keys => (false, false),
            Anchor::Grams { .. } => (true, true),
            Anchor::Elements { .. } => (true, false),
        };
        ValueIndex {
            left: atom.left,
            right: atom.right,
            anchor,
            op: atom.op,
            postings: CowMap::new(),
            side: Arc::default(),
            dict: ValueDict::new(base, sized, masked),
        }
    }

    #[inline]
    pub(super) fn anchor(&self) -> Anchor {
        self.anchor
    }

    #[inline]
    pub(super) fn op(&self) -> OperatorId {
        self.op
    }

    /// The probe-side attribute of the atom.
    #[inline]
    pub(super) fn left(&self) -> AttrId {
        self.left
    }

    /// The side list: value ids retrieved without a shared key.
    #[inline]
    pub(super) fn side(&self) -> &[ValueId] {
        &self.side
    }

    #[inline]
    pub(super) fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Indexes one slot (slot ids arrive in ascending order, so every
    /// list and run stays sorted, and exactly one slot-column entry is
    /// pushed per call). `tuples` holds every earlier slot's tuple: values'
    /// strings are read back from them. A value some live slot already
    /// holds only gains the slot (see [`ValueDict::push_held`]); a new one
    /// is described, listed and opened with the slot as its run. Keys and
    /// elements come from the operator via `ops`, through `scratch`.
    pub(super) fn add<T>(
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
        let Some(s) = tuple.get(self.right).as_str() else {
            return self.dict.push_null();
        };
        let hash = self.dict.hash(s);
        if let Some(v) = self.dict.find(hash, s, self.right, tuples) {
            return self.dict.push_held(v, slot, runs);
        }
        let (meta, side) = self.describe(s, ops, scratch);
        let v = self.dict.push_open(hash, meta, slot);
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
    /// left to [`ValueIndex::fill_runs`].
    pub(super) fn merge(&mut self, other: ValueIndex, tuples: &[Tuple]) {
        let ValueIndex { postings: p2, side: s2, dict: d2, .. } = other;
        let first_new = self.dict.len() as ValueId;
        let global = self.dict.merge(d2, self.right, tuples);
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

    /// Fills every value's run once — a build's last step.
    pub(super) fn fill_runs(&mut self) {
        self.dict.fill_runs();
    }

    /// Pushes the posting list under each of `keys` that exists.
    pub(super) fn lists_into<'a>(
        &'a self,
        keys: impl Iterator<Item = u64>,
        comp: &mut Vec<&'a PostingList>,
    ) {
        comp.extend(keys.filter_map(|key| self.postings.get(&key)));
    }

    /// Purges `slot`, which holds `tuple` — the inverse of
    /// [`ValueIndex::add`]. The slot leaves its value's run, and only a
    /// value whose last slot goes is described again and leaves its
    /// lists: the side list at once, compressed posting lists as counted
    /// tombstones, rewriting a block once half of it is dead. The slot
    /// keeps its value id: slots are never reused, so the id stays
    /// correct for any stale reader.
    pub(super) fn remove_slot(
        &mut self,
        slot: u32,
        tuple: &Tuple,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
    ) {
        let Some(s) = tuple.get(self.right).as_str() else { return };
        let Some(v) = self.dict.remove(slot, self.dict.hash(s)) else { return };
        let (_, side) = self.describe(s, ops, scratch);
        if side {
            drop_from(Arc::make_mut(&mut self.side), v);
        }
        for &key in &scratch.elems {
            drop_posting(&mut self.postings, key, v, &self.dict.liveness());
        }
    }

    /// Adds this atom's shape to `stats`.
    pub(super) fn count_into(&self, stats: &mut IndexStats) {
        match self.anchor {
            Anchor::Keys => stats.key_anchors += 1,
            Anchor::Grams { .. } => stats.qgram_anchors += 1,
            Anchor::Elements { .. } => stats.element_anchors += 1,
        }
        stats.distinct_values += self.dict.live();
        stats.posting_lists += self.postings.len();
        stats.sparse_entries += self.side.len();
        for list in self.postings.values() {
            stats.postings_bytes += list.bytes();
            stats.postings_uncompressed_bytes += list.uncompressed_bytes();
        }
    }

    /// The half of [`MatchIndex::check_invariants`] past
    /// [`ValueDict::check`]: each value's hot columns are what
    /// [`ValueIndex::describe`] gives its string, and each live value is on
    /// exactly its keys' lists (and the side list when it belongs there).
    ///
    /// [`MatchIndex::check_invariants`]: super::MatchIndex::check_invariants
    pub(super) fn check(&self, tuples: &CowVec<Tuple>, alive: &CowVec<bool>, ops: &RuntimeOps) {
        let dict = &self.dict;
        let any_slot = dict.check(tuples, self.right, alive, |s| dict.hash(s));
        let live = dict.liveness();
        let mut lists: HashMap<u64, Vec<ValueId>> = HashMap::new();
        let mut on_side = Vec::new();
        let mut scratch = AnchorScratch::default();
        for (v, &slot) in any_slot.iter().enumerate() {
            let s = tuples[slot].get(self.right).as_str().expect("a value's slots hold its string");
            let (described, side) = self.describe(s, ops, &mut scratch);
            assert_eq!(dict.meta(v as ValueId), described, "value {v}'s hot columns");
            if !live[v] {
                continue;
            }
            if side {
                on_side.push(v as ValueId);
            }
            for &key in &scratch.elems {
                lists.entry(key).or_default().push(v as ValueId);
            }
        }
        let side = self.side.as_slice();
        assert_eq!(side, on_side.as_slice(), "the side list holds exactly its values");
        for (key, list) in self.postings.iter() {
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
