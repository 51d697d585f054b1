//! What an anchor is: the index an operator class gets ([`anchor_of`]),
//! and how a value becomes posting keys ([`ValueIndex::describe`]).

use super::atom::ValueIndex;
use super::dict::ValueMeta;
use matchrules_core::operators::OperatorId;
use matchrules_data::eval::RuntimeOps;
use matchrules_simdist::edit::theta_bound;
use matchrules_simdist::filters::{StringSig, FILTER_Q};
use matchrules_simdist::ops::{hash_element, OpClass};

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
#[inline]
pub(super) fn ratio_ok(ratio: f64, a: u32, b: u32) -> bool {
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
///
/// [`MatchIndex::build_in`]: super::MatchIndex::build_in
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
pub(super) struct AnchorScratch {
    keys: Vec<String>,
    /// The posting keys (or elements) last derived.
    pub(super) elems: Vec<u64>,
}

impl AnchorScratch {
    /// The hashes of the keys `op` derives from `s`, sorted and
    /// deduplicated, into `self.elems`. None under an equality operator:
    /// its one key is `s` itself, which the dictionary looks up, so the
    /// operator is never asked.
    pub(super) fn key_hashes(&mut self, ops: &RuntimeOps, op: OperatorId, s: &str) {
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
    #[inline]
    pub(super) fn elements_of(&mut self, ops: &RuntimeOps, op: OperatorId, s: &str) -> u32 {
        self.elems.clear();
        let size = ops.index_elements_into(op, s, &mut self.elems);
        self.elems.sort_unstable();
        self.elems.dedup();
        size as u32
    }
}

impl ValueIndex {
    /// Describes the value `s` — once per distinct value: the hot columns
    /// its prefilter reads and whether it goes on the side list, with the
    /// keys of the posting lists it joins left in `scratch.elems` (its
    /// distinct gram hashes, its elements, or the hashes of the keys its
    /// operator derives; none under equality, whose one key is the value
    /// itself: the dictionary's own lookup is its bucket).
    pub(super) fn describe(
        &self,
        s: &str,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
    ) -> (ValueMeta, bool) {
        match self.anchor() {
            Anchor::Grams { safe_len, .. } => {
                let chars: Vec<char> = s.chars().collect();
                let sig = StringSig::of_chars(&chars);
                scratch.elems.clear();
                scratch.elems.extend(sig.qgrams().distinct_hashes());
                let len = sig.char_len();
                let meta = ValueMeta { size: len as u32, mask: sig.bag().presence_mask() };
                (meta, len < safe_len)
            }
            Anchor::Elements { .. } => {
                let size = scratch.elements_of(ops, self.op(), s);
                (ValueMeta { size, mask: 0 }, scratch.elems.is_empty())
            }
            Anchor::Keys => {
                scratch.key_hashes(ops, self.op(), s);
                (ValueMeta::default(), false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
