//! The value dictionary: the one module that knows how an anchor's
//! distinct values are laid out ([`ValueDict`]).

use matchrules_core::schema::AttrId;
use matchrules_data::relation::Tuple;
use matchrules_runtime::{CowMap, CowVec};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Index;
use std::sync::Arc;

/// An anchor's id for one distinct value of its attribute: handed out in
/// first-occurrence order and never reused, so postings over value ids
/// stay ascending under appends.
pub(super) type ValueId = u32;

/// "Nothing here" in the dictionary: no value (a `Null` slot), no next
/// value in a collision chain.
pub(super) const NO_ID: u32 = u32::MAX;

/// What the prefilter reads of one value — the hot columns of its
/// [`ValueDict`] entry, as `ValueIndex::describe` computes them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(super) struct ValueMeta {
    /// Length in chars (q-gram anchors), or the element-set size the
    /// size-ratio bound reads (element anchors; 0 for key anchors, which
    /// store no size column).
    pub(super) size: u32,
    /// Char-bag presence mask (q-gram anchors; 0 for element anchors,
    /// which store no mask column).
    pub(super) mask: u64,
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

/// How [`ValueDict::push_held`] treats the run of the value a slot joins.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Runs {
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
pub(super) struct ValueDict {
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
    pub(super) fn new(base: u32, sized: bool, masked: bool) -> ValueDict {
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
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.runs.len()
    }

    /// Live values (those with at least one live slot).
    #[inline]
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// Live slots holding a value: `held / live` is the repeat factor.
    #[inline]
    pub(super) fn held(&self) -> usize {
        self.held
    }

    /// The hot columns of value `v` (0 for a column not kept).
    pub(super) fn meta(&self, v: ValueId) -> ValueMeta {
        let v = v as usize;
        let size = if self.sized { self.sizes[v] } else { 0 };
        ValueMeta { size, mask: if self.masked { self.masks[v] } else { 0 } }
    }

    /// The windows of the hot columns holding value `v`, at `v % CHUNK_LEN`
    /// (empty for a column not kept).
    #[inline]
    pub(super) fn hot(&self, v: usize) -> (&[u32], &[u64]) {
        (self.sizes.run_of(v), self.masks.run_of(v))
    }

    /// The live slots holding value `v`, ascending.
    #[inline]
    pub(super) fn run(&self, v: ValueId) -> &[u32] {
        self.runs[v as usize].slots()
    }

    /// The value `slot` holds ([`NO_ID`] for `Null`).
    #[inline]
    pub(super) fn value_of(&self, slot: u32) -> ValueId {
        self.slot_values[(slot - self.base) as usize]
    }

    /// The hash a string is filed under.
    #[inline]
    pub(super) fn hash(&self, s: &str) -> u64 {
        self.hasher.hash_one(s)
    }

    /// Every live value whose string hashes to `hash`, newest first, as
    /// the links that hold their ids (the `ids` entry, then each
    /// `collide` entry of the chain) — so a probe can list them without
    /// copying any.
    #[inline]
    pub(super) fn chain(&self, hash: u64) -> impl Iterator<Item = &ValueId> {
        // `successors` asks for the link after the end mark too: `get`
        // answers `None` for `NO_ID`.
        let next = |&v: &&ValueId| self.collide.get(*v as usize);
        std::iter::successors(self.ids.get(&hash), next).take_while(|&&v| v != NO_ID)
    }

    /// The live value whose string is `s` (hashing to `hash`), compared
    /// through each candidate value's first slot in `tuples`.
    pub(super) fn find<T>(&self, hash: u64, s: &str, right: AttrId, tuples: &T) -> Option<ValueId>
    where
        T: Index<usize, Output = Tuple> + ?Sized,
    {
        self.chain(hash).copied().find(|&v| {
            let first = self.runs[v as usize].slots()[0];
            tuples[first as usize].get(right).as_str() == Some(s)
        })
    }

    /// Files the next slot as holding `Null`: no value.
    #[inline]
    pub(super) fn push_null(&mut self) {
        self.slot_values.push(NO_ID);
    }

    /// Files the next slot, `slot`, under the live value `v`: on its run
    /// now, or later through [`ValueDict::fill_runs`].
    #[inline]
    pub(super) fn push_held(&mut self, v: ValueId, slot: u32, runs: Runs) {
        if runs == Runs::Append {
            self.runs.get_mut(v as usize).push(slot);
        }
        self.held += 1;
        self.slot_values.push(v);
    }

    /// Files the next slot, `slot`, under a fresh value; returns it.
    #[inline]
    pub(super) fn push_open(&mut self, hash: u64, meta: ValueMeta, slot: u32) -> ValueId {
        let v = self.open(hash, meta, slot);
        self.held += 1;
        self.slot_values.push(v);
        v
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

    /// Folds a partial's dictionary in (see [`ValueIndex::merge`]);
    /// returns, per value of the partial, its id here.
    ///
    /// [`ValueIndex::merge`]: super::atom::ValueIndex::merge
    pub(super) fn merge(
        &mut self,
        other: ValueDict,
        right: AttrId,
        tuples: &[Tuple],
    ) -> Vec<ValueId> {
        debug_assert_eq!(other.base as usize, self.base as usize + self.slot_values.len());
        let mut global = Vec::with_capacity(other.len());
        for local in 0..other.len() as ValueId {
            let first = other.runs[local as usize].slots()[0];
            let s = tuples[first as usize].get(right).as_str();
            let s = s.expect("a value's slots hold its string");
            let hash = self.hash(s);
            let v = match self.find(hash, s, right, tuples) {
                Some(v) => v,
                None => self.open(hash, other.meta(local), first),
            };
            global.push(v);
        }
        self.held += other.held;
        let to_global = |v: ValueId| if v == NO_ID { NO_ID } else { global[v as usize] };
        self.slot_values.extend(other.slot_values.iter().map(|&v| to_global(v)));
        global
    }

    /// Refills every run from the slot column — a build's last step, when
    /// every slot is live: counts each value's slots, then copies them
    /// into one exactly sized run per value, ascending.
    pub(super) fn fill_runs(&mut self) {
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

    /// Drops `slot`, whose string hashes to `hash`, from its value's run;
    /// when that was the value's last live slot, the value leaves the
    /// dictionary and is returned (re-inserting the string later opens a
    /// fresh id). The slot keeps its value id.
    pub(super) fn remove(&mut self, slot: u32, hash: u64) -> Option<ValueId> {
        let v = self.value_of(slot);
        let run = self.runs.get_mut(v as usize);
        run.remove(slot);
        self.held -= 1;
        if !run.is_empty() {
            return None;
        }
        self.live -= 1;
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

    pub(super) fn liveness(&self) -> LiveValues<'_> {
        LiveValues(&self.runs)
    }

    /// Checks the columns, the runs (so `live`/`held`) and the chains
    /// against `tuples`, which `alive` flags live, with strings hashed by
    /// `hash` (tests only). Returns, per value, a slot (live or not)
    /// holding it: slots keep their tuples, so even a dead value's string
    /// can be described again.
    pub(super) fn check(
        &self,
        tuples: &CowVec<Tuple>,
        right: AttrId,
        alive: &CowVec<bool>,
        hash: impl Fn(&str) -> u64,
    ) -> Vec<usize> {
        let (slots, values) = (tuples.len(), self.len());
        assert_eq!((self.base as usize, self.slot_values.len()), (0, slots), "one value per slot");
        let kept = |column: bool| if column { values } else { 0 };
        assert_eq!(
            (self.collide.len(), self.sizes.len(), self.masks.len()),
            (values, kept(self.sized), kept(self.masked)),
            "one entry per value in every per-value column"
        );
        let mut holders = vec![Vec::new(); values];
        let mut any_slot = vec![None; values];
        for slot in 0..slots {
            let v = self.value_of(slot as u32);
            let Some(s) = tuples[slot].get(right).as_str() else {
                assert_eq!(v, NO_ID, "a null slot holds no value");
                continue;
            };
            any_slot[v as usize].get_or_insert(slot);
            if alive[slot] {
                let found = self.find(hash(s), s, right, tuples);
                assert_eq!(found, Some(v), "slot {slot}'s value maps back to its string");
                holders[v as usize].push(slot as u32);
            }
        }
        for (v, holders) in holders.iter().enumerate() {
            let run = self.runs[v].slots();
            assert!(run.windows(2).all(|w| w[0] < w[1]), "value {v}'s run ascends");
            assert_eq!(
                run,
                holders.as_slice(),
                "value {v}'s run is exactly the live slots holding it"
            );
            assert_eq!(self.runs[v].is_empty(), holders.is_empty(), "value {v} is live iff held");
        }
        assert_eq!(self.live, holders.iter().filter(|h| !h.is_empty()).count(), "live values");
        assert_eq!(self.held, holders.iter().map(Vec::len).sum::<usize>(), "slots holding values");
        let live = self.liveness();
        let reachable: usize = (self.ids.values())
            .map(|&head| {
                let mut v = head;
                let mut n = 0;
                while v != NO_ID {
                    assert!(live[v as usize], "the dictionary reaches only live values");
                    n += 1;
                    v = self.collide[v as usize];
                }
                n
            })
            .sum();
        assert_eq!(reachable, self.live, "the dictionary reaches every live value once");
        let opened = "every value was opened by a slot holding it";
        any_slot.into_iter().map(|slot| slot.expect(opened)).collect()
    }
}

/// Value liveness as the `bool` index [`PostingList::note_removed`]
/// rewrites a block under: a value is live while its run is non-empty.
///
/// [`PostingList::note_removed`]: crate::postings::PostingList::note_removed
pub(super) struct LiveValues<'a>(&'a CowVec<SlotRun>);

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

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_data::value::Value;

    /// The one hash every string of the collision test is filed under.
    const HASH: u64 = 7;

    /// Files slot `slot` of `tuples`, as an insert does, under [`HASH`].
    fn file(dict: &mut ValueDict, tuples: &CowVec<Tuple>, slot: usize) -> ValueId {
        let s = tuples[slot].get(0).as_str().expect("the test stores strings");
        match dict.find(HASH, s, 0, tuples) {
            Some(v) => {
                dict.push_held(v, slot as u32, Runs::Append);
                v
            }
            None => dict.push_open(HASH, ValueMeta::default(), slot as u32),
        }
    }

    #[test]
    fn collision_chains_find_list_and_unlink_every_value() {
        let strings = ["a", "b", "c", "b", "b", "c", "a"];
        let tuples: CowVec<Tuple> = strings
            .iter()
            .enumerate()
            .map(|(i, s)| Tuple::new(i as u64, vec![Value::str(s)]))
            .collect();
        let mut dict = ValueDict::new(0, false, false);
        let mut alive = CowVec::new();
        let check = |dict: &ValueDict, alive: &CowVec<bool>| {
            let filed: CowVec<Tuple> = tuples.iter().take(alive.len()).cloned().collect();
            dict.check(&filed, 0, alive, |_| HASH);
        };
        let chain = |dict: &ValueDict| dict.chain(HASH).copied().collect::<Vec<_>>();
        // Two, then three distinct strings under one hash: the newest
        // heads the chain, and each string finds its own value.
        let filed = |dict: &mut ValueDict, alive: &mut CowVec<bool>| {
            alive.push(true);
            file(dict, &tuples, alive.len() - 1)
        };
        assert_eq!((filed(&mut dict, &mut alive), filed(&mut dict, &mut alive)), (0, 1));
        assert_eq!(chain(&dict), [1, 0]);
        check(&dict, &alive);
        assert_eq!(filed(&mut dict, &mut alive), 2);
        assert_eq!(filed(&mut dict, &mut alive), 1, "a held string gains the slot");
        assert_eq!(chain(&dict), [2, 1, 0]);
        for (s, v) in [("a", Some(0)), ("b", Some(1)), ("c", Some(2)), ("d", None)] {
            assert_eq!(dict.find(HASH, s, 0, &tuples), v, "{s}");
        }
        check(&dict, &alive);
        assert_eq!(dict.run(1), [1, 3]);

        let remove = |dict: &mut ValueDict, alive: &mut CowVec<bool>, slot: usize| {
            *alive.get_mut(slot) = false;
            let dead = dict.remove(slot as u32, HASH);
            check(dict, alive);
            dead
        };
        // From the middle: "b" dies with its second slot.
        assert_eq!(remove(&mut dict, &mut alive, 1), None, "b is still held");
        assert_eq!(remove(&mut dict, &mut alive, 3), Some(1));
        assert_eq!(chain(&dict), [2, 0]);
        assert_eq!(dict.find(HASH, "b", 0, &tuples), None);
        // Re-opening a removed string gives a fresh id.
        assert_eq!(filed(&mut dict, &mut alive), 3, "b comes back under a fresh id");
        assert_eq!(chain(&dict), [3, 2, 0]);
        // From the head, then from the tail.
        assert_eq!(remove(&mut dict, &mut alive, 4), Some(3));
        assert_eq!(chain(&dict), [2, 0]);
        assert_eq!(filed(&mut dict, &mut alive), 2, "c is still held");
        assert_eq!(remove(&mut dict, &mut alive, 0), Some(0));
        assert_eq!(chain(&dict), [2]);
        assert_eq!(filed(&mut dict, &mut alive), 4, "a comes back under a fresh id");
        assert_eq!(chain(&dict), [4, 2]);
        assert_eq!((dict.live(), dict.held(), dict.len()), (2, 3, 5));
        // The last values leave: the hash is no longer filed.
        for slot in [2, 5, 6] {
            remove(&mut dict, &mut alive, slot);
        }
        assert_eq!(chain(&dict), [] as [ValueId; 0]);
    }

    #[test]
    fn slot_runs_match_a_vec_model_while_clones_share_their_buffers() {
        let (mut run, mut model) = (SlotRun::default(), Vec::new());
        // Clones taken along the way, each with the slots it held then: a
        // write after a clone must copy, the others go in place.
        let mut clones = Vec::new();
        for slot in 0..40u32 {
            if slot % 3 == 0 {
                clones.push((run.clone(), model.clone()));
            }
            run.push(2 * slot);
            model.push(2 * slot);
            assert_eq!(run.slots(), model, "after pushing {}", 2 * slot);
        }
        for (i, slot) in (0..40u32).map(|i| 2 * (i * 7 % 40)).enumerate() {
            if i % 4 == 0 {
                clones.push((run.clone(), model.clone()));
            }
            run.remove(slot);
            model.retain(|&s| s != slot);
            assert_eq!(run.slots(), model, "after removing {slot}");
            assert_eq!(run.is_empty(), model.is_empty());
        }
        for (run, model) in &clones {
            assert_eq!(run.slots(), model, "a clone keeps its slots");
            assert_eq!(SlotRun::of(model).slots(), model);
        }
    }
}
