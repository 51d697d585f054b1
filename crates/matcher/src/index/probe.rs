//! The per-probe plan: each atom resolved against one probe
//! ([`PreparedAtom`]), and each key planned over them
//! ([`candidate_masks`]).

use super::anchor::{ratio_ok, Anchor, AnchorScratch};
use super::atom::ValueIndex;
use super::dict::{ValueDict, NO_ID};
use super::{MatchIndex, NO_PRUNE};
use crate::key::PairSide;
use crate::postings::{Cursor, PostingList};
use matchrules_data::eval::{FilterStats, RetrievalReject, RuntimeOps};
use matchrules_data::prep::AttrSig;
use matchrules_runtime::CHUNK_LEN;
use matchrules_simdist::edit::theta_bound;
use matchrules_simdist::ops::OpClass;
use std::cell::RefCell;

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
/// time — the unit in which every `CowVec` of a dictionary is
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
        let (sizes, masks) = dict.hot(base);
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
    /// Resolves the probe against the lists of `index` (one atom's), in
    /// `bufs`: the posting lists and plain lists whose union (filtered per
    /// value by the prepared test, an edit atom's over the bound table it
    /// builds) is the atom's retrieval — a superset of the values whose
    /// slots satisfy the atom against the probe. The probe side carries
    /// its signatures (batched probes share one prep). An unsatisfiable
    /// probe value (`Null`) prepares an empty retrieval.
    fn new(
        index: &'a ValueIndex,
        probe: PairSide<'_>,
        ops: &RuntimeOps,
        scratch: &mut AnchorScratch,
        bufs: AtomBufs,
    ) -> PreparedAtom<'a> {
        let AtomBufs { comp, plain, bounds } = bufs;
        let mut pa = PreparedAtom {
            comp: recycle(comp),
            plain: recycle(plain),
            index,
            test: ValueTest::Any,
        };
        pa.test = match index.anchor() {
            Anchor::Grams { theta, safe_len } => {
                let computed;
                let sig = match probe.sigs.sig(index.left()) {
                    Some(sig) => sig,
                    None => {
                        computed = AttrSig::of_value(probe.tuple.get(index.left()));
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
                    pa.plain.push(index.side());
                }
                index.lists_into(sig.sig().qgrams().distinct_hashes(), &mut pa.comp);
                let len = sig.sig().char_len() as u32;
                let mask = sig.sig().bag().presence_mask();
                ValueTest::Edit(EditProbe::new(theta, len, mask, bounds))
            }
            Anchor::Elements { min_ratio } => {
                let Some(s) = probe.tuple.get(index.left()).as_str() else {
                    return pa;
                };
                let size = scratch.elements_of(ops, index.op(), s);
                if scratch.elems.is_empty() {
                    // An element-less probe can only match element-less
                    // values (the ratio bound rules everything else out).
                    pa.plain.push(index.side());
                    ValueTest::Any
                } else {
                    index.lists_into(scratch.elems.iter().copied(), &mut pa.comp);
                    ValueTest::Ratio { ratio: min_ratio, probe: size }
                }
            }
            Anchor::Keys => {
                let Some(s) = probe.tuple.get(index.left()).as_str() else {
                    return pa;
                };
                if ops.class(index.op()) == OpClass::Equality {
                    // The dictionary's own lookup is the bucket: every live
                    // value filed under the probe string's hash — almost
                    // always one, the probe's own string when it is
                    // stored. Another string sharing the hash only widens
                    // the retrieval: verification compares the strings.
                    let dict = index.dict();
                    pa.plain.extend(dict.chain(dict.hash(s)).map(std::slice::from_ref));
                } else {
                    scratch.key_hashes(ops, index.op(), s);
                    index.lists_into(scratch.elems.iter().copied(), &mut pa.comp);
                }
                ValueTest::Any
            }
        };
        pa
    }

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
        self.index.dict()
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
        match self.index.anchor() {
            Anchor::Grams { .. } => (volume, 1),
            Anchor::Keys if self.comp.is_empty() => {
                let runs = self.plain.iter().flat_map(|list| list.iter());
                (runs.map(|&v| dict.run(v).len() as u64).sum(), 1)
            }
            _ => (volume * dict.held() as u64, dict.live().max(1) as u64),
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
        let (sizes, masks) = dict.hot(v);
        self.test.reject(sizes, masks, v % CHUNK_LEN)
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
        let dict = self.dict();
        out.clear();
        values.iter().for_each(|&v| out.extend_from_slice(dict.run(v)));
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
pub(super) struct ProbeScratch {
    bits: Bitmaps,
    pub(super) anchor: AnchorScratch,
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
    /// what [`candidate_masks`] leaves behind.
    pub(super) masked: Vec<(u32, u64)>,
}

thread_local! {
    pub(super) static PROBE_SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

/// When a key's running candidate set needs at most this many membership
/// decisions from its next atom (its distinct values there), that atom is
/// left to verification: deciding the leftover candidate there is
/// cheaper than another retrieval, and the intersection of any subset of
/// a key's atoms is a sound superset.
/// Survivors sharing one value would be kept or dropped together, so
/// copies of a value add verifications in proportion but no retrieval.
const ENOUGH: usize = 1;

/// [`MatchIndex::candidates_for`] for `index`, with the probe's signatures already
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
pub(super) fn candidate_masks(
    index: &MatchIndex,
    probe: PairSide<'_>,
    scratch: &mut ProbeScratch,
    stats: &mut FilterStats,
) {
    let prune = index.key_atoms.len() <= 64;
    let n_slots = index.tuples.len();
    let n_atoms = index.atom_indices.len();
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
    for (key, refs) in index.key_atoms.iter().enumerate() {
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
                PreparedAtom::new(&index.atom_indices[pos], probe, &index.ops, anchor, bufs)
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
        let live = (0..n_slots as u32).filter(|&s| index.alive[s as usize]);
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
    masked.retain(|&(slot, _)| index.alive[slot as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
