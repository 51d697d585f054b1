//! Compressed posting lists: sorted-delta blocks with per-block skip
//! pointers, bitset blocks for dense runs, and galloping cursors.
//!
//! A `PostingList` stores an ascending sequence of tuple slots. Slots
//! arrive in insertion order (strictly ascending — `MatchIndex` assigns
//! slots monotonically), accumulate in an uncompressed `tail`, and are
//! sealed into immutable blocks of [`BLOCK_LEN`] entries. A sealed block
//! keeps its maximum slot as a skip pointer, so intersection cursors can
//! discard whole blocks without decoding them. Blocks whose values all
//! fall inside one 256-slot aligned window are stored as a 4-word bitset
//! (`Bits`) — those union into a probe bitmap with four `u64` ORs; the
//! rest are byte-wise varint deltas (`Deltas`) behind a refcount, so
//! cloning a list (a snapshot's successor copying the stripe it lives
//! in) shares every sealed payload and copies only headers and the tail.
//!
//! Removal is tombstone-first: `note_removed` bumps a per-block dead
//! counter and rewrites the block in place (dropping dead slots, under
//! the caller's `alive` mask) only once half the block is dead, so a
//! churn-heavy index amortizes the rewrite cost instead of decaying into
//! tombstone scans. Dead slots that have not yet been rewritten away may
//! still surface from a cursor or a bitmap union — callers filter
//! candidates through `alive` at the end, exactly as the uncompressed
//! index always has.

use std::sync::Arc;

/// Entries per sealed block. 128 keeps varint blocks within two cache
/// lines and makes half-dead rewrites cheap.
pub const BLOCK_LEN: usize = 128;

/// Slots covered by one `Bits` block: four 64-bit words.
const BITS_SPAN: u32 = 256;

#[derive(Clone, Debug)]
enum BlockData {
    /// Varint-encoded: first value absolute, then the gaps.
    Deltas(Arc<[u8]>),
    /// Dense block: bit `slot - base` set for each value; `base` is
    /// 256-aligned so the words line up with any 256-aligned bitmap.
    Bits { base: u32, words: [u64; 4] },
}

#[derive(Clone, Debug)]
struct Block {
    /// Largest slot in the block — the skip pointer.
    max: u32,
    /// Values stored (dead ones included until a rewrite).
    count: u16,
    /// Values tombstoned via `note_removed` since the last rewrite.
    dead: u16,
    data: BlockData,
}

impl Block {
    /// Seals `values` (ascending, non-empty) into a block, choosing the
    /// bitset form when every value shares one 256-aligned window.
    fn seal(values: &[u32]) -> Block {
        let first = values[0];
        let max = *values.last().expect("sealed blocks are non-empty");
        let count = values.len() as u16;
        let base = first & !(BITS_SPAN - 1);
        if max - base < BITS_SPAN {
            let mut words = [0u64; 4];
            for &v in values {
                let off = (v - base) as usize;
                words[off >> 6] |= 1u64 << (off & 63);
            }
            Block { max, count, dead: 0, data: BlockData::Bits { base, words } }
        } else {
            let mut bytes = Vec::with_capacity(values.len() * 2);
            let mut prev = 0u32;
            for (i, &v) in values.iter().enumerate() {
                let delta = if i == 0 { v } else { v - prev };
                write_varint(&mut bytes, delta);
                prev = v;
            }
            Block { max, count, dead: 0, data: BlockData::Deltas(bytes.into()) }
        }
    }

    /// Appends every stored value (dead included) to `out`, ascending.
    fn decode_into(&self, out: &mut Vec<u32>) {
        match &self.data {
            BlockData::Deltas(bytes) => {
                let mut acc = 0u32;
                let mut pos = 0usize;
                for i in 0..self.count {
                    let (delta, next) = read_varint(bytes, pos);
                    pos = next;
                    acc = if i == 0 { delta } else { acc + delta };
                    out.push(acc);
                }
            }
            BlockData::Bits { base, words } => {
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        out.push(base + (w as u32) * 64 + b);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Encoded payload bytes (compression accounting).
    fn bytes(&self) -> usize {
        match &self.data {
            BlockData::Deltas(bytes) => bytes.len(),
            BlockData::Bits { .. } => 4 + 32,
        }
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &[u8], mut pos: usize) -> (u32, usize) {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = bytes[pos];
        pos += 1;
        v |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return (v, pos);
        }
        shift += 7;
    }
}

/// An ascending, block-compressed list of tuple slots.
#[derive(Clone, Debug, Default)]
pub struct PostingList {
    blocks: Vec<Block>,
    /// Uncompressed newest entries, sealed at [`BLOCK_LEN`].
    tail: Vec<u32>,
    /// Stored values across blocks and tail, dead ones included.
    total: usize,
    /// Tombstoned values not yet rewritten away.
    dead: usize,
}

impl PostingList {
    /// An empty list.
    pub fn new() -> PostingList {
        PostingList::default()
    }

    /// Stored entries (tombstoned ones included until rewritten).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends `slot`, which must exceed every stored slot.
    pub fn push(&mut self, slot: u32) {
        debug_assert!(
            self.last().is_none_or(|l| l < slot),
            "postings are strictly ascending: {slot} after {:?}",
            self.last()
        );
        self.tail.push(slot);
        self.total += 1;
        if self.tail.len() == BLOCK_LEN {
            self.blocks.push(Block::seal(&self.tail));
            self.tail.clear();
        }
    }

    fn last(&self) -> Option<u32> {
        self.tail.last().copied().or_else(|| self.blocks.last().map(|b| b.max))
    }

    /// Appends every value of `other`, all of which must exceed this
    /// list's last slot (chunk-ordered parallel-build merge).
    pub fn extend_from(&mut self, other: &PostingList, scratch: &mut Vec<u32>) {
        scratch.clear();
        other.decode_all_into(scratch);
        for &slot in scratch.iter() {
            self.push(slot);
        }
    }

    /// Appends every stored value (dead included) to `out`, ascending.
    pub fn decode_all_into(&self, out: &mut Vec<u32>) {
        for block in &self.blocks {
            block.decode_into(out);
        }
        out.extend_from_slice(&self.tail);
    }

    /// ORs every stored value into `words` as bit `slot`. `words` must
    /// cover the largest slot rounded up to a 256-bit boundary. Returns
    /// the number of delta blocks decoded (bitset blocks OR in four word
    /// operations and count as zero decode work).
    pub fn or_into(&self, words: &mut [u64], scratch: &mut Vec<u32>) -> u64 {
        let mut decoded = 0u64;
        for block in &self.blocks {
            match &block.data {
                BlockData::Bits { base, words: bits } => {
                    let w = (*base >> 6) as usize;
                    words[w] |= bits[0];
                    words[w + 1] |= bits[1];
                    words[w + 2] |= bits[2];
                    words[w + 3] |= bits[3];
                }
                BlockData::Deltas(_) => {
                    decoded += 1;
                    scratch.clear();
                    block.decode_into(scratch);
                    for &v in scratch.iter() {
                        words[(v >> 6) as usize] |= 1u64 << (v & 63);
                    }
                }
            }
        }
        for &v in &self.tail {
            words[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        decoded
    }

    /// Records that `slot` was tombstoned. Tail entries are removed
    /// outright; sealed blocks bump their dead counter and rewrite in
    /// place (keeping only slots still live under `alive`, which must
    /// cover every stored slot) once at least half the block is dead.
    /// A rewritten block gets a fresh payload; the old one stays intact
    /// for any clone still sharing it.
    pub fn note_removed<A>(&mut self, slot: u32, alive: &A)
    where
        A: std::ops::Index<usize, Output = bool> + ?Sized,
    {
        if let Ok(i) = self.tail.binary_search(&slot) {
            self.tail.remove(i);
            self.total -= 1;
            return;
        }
        let b = self.blocks.partition_point(|blk| blk.max < slot);
        let Some(block) = self.blocks.get_mut(b) else { return };
        block.dead += 1;
        self.dead += 1;
        if u32::from(block.dead) * 2 >= u32::from(block.count) {
            let mut values = Vec::with_capacity(block.count as usize);
            block.decode_into(&mut values);
            values.retain(|&v| alive[v as usize]);
            self.total -= block.count as usize - values.len();
            self.dead -= block.dead as usize;
            if values.is_empty() {
                self.blocks.remove(b);
            } else {
                *block = Block::seal(&values);
            }
        }
    }

    /// Opens a galloping cursor positioned before the first slot.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            list: self,
            block: 0,
            decoded: Vec::new(),
            decoded_idx: usize::MAX,
            pos: 0,
            tail_pos: 0,
            blocks_decoded: 0,
            blocks_skipped: 0,
        }
    }

    /// Encoded size: block payloads plus skip headers plus the tail.
    pub fn bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.bytes() + 8).sum::<usize>() + self.tail.len() * 4
    }

    /// What the same entries cost as a plain `Vec<u32>`.
    pub fn uncompressed_bytes(&self) -> usize {
        self.total * 4
    }

    /// Checks the structural invariants (tests and debug assertions):
    /// globally ascending values, per-block max/count agreement, and no
    /// block more than half dead.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut all = Vec::new();
        let mut prev: Option<u32> = None;
        for block in &self.blocks {
            let from = all.len();
            block.decode_into(&mut all);
            let vals = &all[from..];
            assert_eq!(vals.len(), block.count as usize, "block count matches payload");
            assert_eq!(*vals.last().unwrap(), block.max, "block max is its last value");
            assert!(u32::from(block.dead) * 2 < u32::from(block.count).max(1) * 2);
            for &v in vals {
                assert!(prev.is_none_or(|p| p < v), "ascending across blocks");
                prev = Some(v);
            }
        }
        for &v in &self.tail {
            assert!(prev.is_none_or(|p| p < v), "ascending into the tail");
            prev = Some(v);
        }
        assert_eq!(all.len() + self.tail.len(), self.total, "total matches stored entries");
    }

    /// Checks that the tombstones are exact under `alive` (tests): each
    /// block's dead counter equals its entries dead under `alive`, and the
    /// tail (where removal is immediate) holds none.
    #[doc(hidden)]
    pub fn check_tombstones<A>(&self, alive: &A)
    where
        A: std::ops::Index<usize, Output = bool> + ?Sized,
    {
        let mut values = Vec::new();
        for block in &self.blocks {
            values.clear();
            block.decode_into(&mut values);
            let dead = values.iter().filter(|&&v| !alive[v as usize]).count();
            assert_eq!(dead, block.dead as usize, "a block counts exactly its dead entries");
        }
        assert!(self.tail.iter().all(|&v| alive[v as usize]), "the tail holds no dead entry");
        let dead: usize = self.blocks.iter().map(|b| b.dead as usize).sum();
        assert_eq!(dead, self.dead, "the list's dead count sums its blocks'");
    }
}

/// A forward-only galloping cursor over a [`PostingList`]. Targets must
/// be non-decreasing across calls; whole blocks whose `max` falls below
/// the target are skipped without decoding.
pub struct Cursor<'a> {
    list: &'a PostingList,
    block: usize,
    decoded: Vec<u32>,
    decoded_idx: usize,
    pos: usize,
    tail_pos: usize,
    /// Delta/bitset blocks materialized into the scratch buffer.
    pub blocks_decoded: u64,
    /// Blocks discarded on their skip pointer alone.
    pub blocks_skipped: u64,
}

impl<'a> Cursor<'a> {
    /// Returns the smallest stored slot `>= target` (dead slots
    /// included — callers filter through `alive`), or `None` when the
    /// list is exhausted.
    pub fn advance_to(&mut self, target: u32) -> Option<u32> {
        let blocks = &self.list.blocks;
        // Gallop over skip pointers: double the stride, then settle.
        if self.block < blocks.len() && blocks[self.block].max < target {
            let mut step = 1usize;
            let mut lo = self.block;
            while lo + step < blocks.len() && blocks[lo + step].max < target {
                lo += step;
                step <<= 1;
            }
            let hi = (lo + step).min(blocks.len());
            let next = lo + blocks[lo..hi].partition_point(|b| b.max < target);
            self.blocks_skipped += (next - self.block) as u64;
            self.block = next;
        }
        if self.block < blocks.len() {
            if self.decoded_idx != self.block {
                self.decoded.clear();
                blocks[self.block].decode_into(&mut self.decoded);
                self.decoded_idx = self.block;
                self.pos = 0;
                self.blocks_decoded += 1;
            }
            self.pos += self.decoded[self.pos..].partition_point(|&v| v < target);
            debug_assert!(self.pos < self.decoded.len(), "block max bounds its payload");
            return self.decoded.get(self.pos).copied();
        }
        let tail = &self.list.tail;
        self.tail_pos += tail[self.tail_pos..].partition_point(|&v| v < target);
        tail.get(self.tail_pos).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of(values: &[u32]) -> PostingList {
        let mut list = PostingList::new();
        for &v in values {
            list.push(v);
        }
        list
    }

    fn decoded(list: &PostingList) -> Vec<u32> {
        let mut out = Vec::new();
        list.decode_all_into(&mut out);
        out
    }

    /// Intersects via cursor membership probes, as the index does.
    fn cursor_intersect(probe: &[u32], list: &PostingList) -> Vec<u32> {
        let mut cur = list.cursor();
        probe.iter().copied().filter(|&v| cur.advance_to(v) == Some(v)).collect()
    }

    #[test]
    fn empty_list_yields_nothing() {
        let list = PostingList::new();
        assert!(list.is_empty());
        assert_eq!(decoded(&list), Vec::<u32>::new());
        assert_eq!(list.cursor().advance_to(0), None);
        assert_eq!(list.bytes(), 0);
    }

    #[test]
    fn single_element_round_trips() {
        let list = list_of(&[42]);
        assert_eq!(decoded(&list), vec![42]);
        let mut cur = list.cursor();
        assert_eq!(cur.advance_to(0), Some(42));
        assert_eq!(cur.advance_to(42), Some(42));
        assert_eq!(cur.advance_to(43), None);
    }

    #[test]
    fn dense_run_seals_into_bitset_blocks_and_ors_fast() {
        // 0..128 sits inside one 256-slot window: one Bits block.
        let values: Vec<u32> = (0..BLOCK_LEN as u32).collect();
        let list = list_of(&values);
        assert_eq!(decoded(&list), values);
        assert!(list.bytes() < list.uncompressed_bytes());
        let mut words = vec![0u64; 4];
        let mut scratch = Vec::new();
        assert_eq!(list.or_into(&mut words, &mut scratch), 0, "bitset blocks decode nothing");
        assert_eq!(words[0], u64::MAX);
        assert_eq!(words[1], u64::MAX);
        assert_eq!(words[2], 0);
    }

    #[test]
    fn sparse_run_seals_into_delta_blocks() {
        let values: Vec<u32> = (0..BLOCK_LEN as u32).map(|i| i * 1000).collect();
        let list = list_of(&values);
        assert_eq!(decoded(&list), values);
        let mut words = vec![0u64; (values.last().unwrap() / 256 + 1) as usize * 4];
        let mut scratch = Vec::new();
        assert_eq!(list.or_into(&mut words, &mut scratch), 1, "one delta block decoded");
        for &v in &values {
            assert_ne!(words[(v / 64) as usize] & (1 << (v % 64)), 0);
        }
    }

    #[test]
    fn fully_disjoint_intersection_is_empty_and_skips_blocks() {
        // List holds even thousands; probe odd thousands: no overlap.
        let list = list_of(&(0..1024).map(|i| i * 2048).collect::<Vec<_>>());
        let probe: Vec<u32> = (0..1024).map(|i| i * 2048 + 1).collect();
        let mut cur = list.cursor();
        let mut hits = 0;
        for &p in &probe {
            if cur.advance_to(p) == Some(p) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn fully_equal_lists_intersect_to_themselves() {
        let values: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let list = list_of(&values);
        assert_eq!(cursor_intersect(&values, &list), values);
    }

    #[test]
    fn block_boundary_straddles_resolve() {
        // Values dense around each BLOCK_LEN seal point; targets probe
        // one below, at, and one above every boundary value.
        let values: Vec<u32> = (0..(BLOCK_LEN as u32 * 4)).map(|i| i * 7).collect();
        let list = list_of(&values);
        let last = *values.last().unwrap();
        for b in [BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 2 * BLOCK_LEN, 3 * BLOCK_LEN - 1] {
            let v = values[b];
            let mut cur = list.cursor();
            // v - 1 rounds up to v (values step by 7); v + 1 to v + 7.
            assert_eq!(cur.advance_to(v - 1), Some(v), "below boundary {b}");
            assert_eq!(cur.advance_to(v), Some(v), "at boundary {b}");
            assert_eq!(cur.advance_to(v + 1), Some(v + 7).filter(|&n| n <= last), "above {b}");
        }
    }

    #[test]
    fn galloping_skips_blocks_without_decoding() {
        let list = list_of(&(0..BLOCK_LEN as u32 * 64).map(|i| i * 5).collect::<Vec<_>>());
        let mut cur = list.cursor();
        let last = (BLOCK_LEN as u32 * 64 - 1) * 5;
        assert_eq!(cur.advance_to(last), Some(last));
        assert!(cur.blocks_skipped >= 60, "skipped {} blocks", cur.blocks_skipped);
        assert_eq!(cur.blocks_decoded, 1, "only the final block decoded");
    }

    #[test]
    fn tombstoned_ids_inside_a_block_rewrite_at_half_dead() {
        let values: Vec<u32> = (0..BLOCK_LEN as u32 * 2).collect();
        let mut list = list_of(&values);
        let mut alive = vec![true; values.len()];
        // Kill just under half of the first block: tombstones linger.
        for v in 0..(BLOCK_LEN as u32 / 2 - 1) {
            alive[v as usize] = false;
            list.note_removed(v, &alive);
        }
        assert_eq!(list.len(), values.len(), "tombstones linger below the threshold");
        let mut cur = list.cursor();
        assert_eq!(cur.advance_to(0), Some(0), "dead slots still surface pre-rewrite");
        // One more death crosses the half-dead threshold: block rewrites.
        alive[BLOCK_LEN / 2 - 1] = false;
        list.note_removed(BLOCK_LEN as u32 / 2 - 1, &alive);
        assert_eq!(list.len(), values.len() - BLOCK_LEN / 2, "rewrite dropped the dead");
        list.check_invariants();
        let mut cur = list.cursor();
        assert_eq!(cur.advance_to(0), Some(BLOCK_LEN as u32 / 2), "dead slots gone");
    }

    #[test]
    fn removing_a_whole_block_drops_it() {
        let values: Vec<u32> = (0..BLOCK_LEN as u32).collect();
        let mut list = list_of(&values);
        let mut alive = vec![true; values.len()];
        for &v in &values {
            alive[v as usize] = false;
            list.note_removed(v, &alive);
        }
        assert!(list.is_empty());
        assert_eq!(list.cursor().advance_to(0), None);
        list.check_invariants();
    }

    #[test]
    fn tail_removal_is_immediate() {
        let mut list = list_of(&[1, 5, 9]);
        list.note_removed(5, &[true; 10]);
        assert_eq!(decoded(&list), vec![1, 9]);
        list.check_invariants();
    }
}
