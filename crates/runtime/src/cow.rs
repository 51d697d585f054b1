//! [`CowVec`] and [`CowMap`]: the two persistent containers behind
//! structurally-shared index snapshots.
//!
//! A serving layer publishes immutable snapshots and builds the next one
//! from a *clone* of the current one. With plain `Vec`/`HashMap` fields
//! that clone copies the whole shard for every write. These containers
//! keep `#[derive(Clone)]` working but change what a clone costs:
//!
//! * a clone copies only a **spine** of `Arc`s (one per chunk / stripe) —
//!   refcount bumps — plus, per vector, the one chunk still filling;
//! * every mutation of shared state goes through [`Arc::make_mut`] on
//!   the one chunk or stripe it lands in, so a writer holding a clone of
//!   a published snapshot copies just what it touches, and the published
//!   side never changes;
//! * an **unshared** owner (bulk load, batch build, a swap or compact
//!   rebuild) finds every refcount at 1 and never copies at all — there
//!   is no separate "mutable" representation.
//!
//! [`CHUNK_LEN`] and [`STRIPES`] are constants, not configuration: the
//! trade (copy per touch vs. spine length per clone) does not depend on
//! anything a caller knows.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Elements per sealed [`CowVec`] chunk (a power of two). A clone bumps
/// `len / CHUNK_LEN` refcounts and copies a tail shorter than this; an
/// in-place write copies at most one chunk.
pub const CHUNK_LEN: usize = 256;
const CHUNK_BITS: u32 = CHUNK_LEN.trailing_zeros();

/// Hash stripes per [`CowMap`] (a power of two). A write copies the
/// stripes its keys hash to — `1 / STRIPES` of the map each; a clone
/// bumps `STRIPES` refcounts; and every stripe is a separately allocated
/// table, so lookups scatter over more memory the more stripes there
/// are (measurably, past 128, on a cold probe path).
pub const STRIPES: usize = 128;

/// A chunked, append-only vector whose clones share every full chunk
/// until one side writes to it.
///
/// Full chunks of [`CHUNK_LEN`] elements are sealed behind `Arc`s; the
/// newest, still-filling chunk is a plain owned tail. So a push never
/// touches a refcount, a clone bumps one refcount per sealed chunk and
/// copies at most `CHUNK_LEN - 1` tail elements, and
/// [`CowVec::get_mut`] on a sealed chunk copies that chunk only if a
/// clone shares it.
///
/// ```
/// use matchrules_runtime::CowVec;
///
/// let mut a: CowVec<u32> = (0..1000).collect();
/// let snapshot = a.clone(); // three refcount bumps + a 232-element tail
/// a.push(1000);
/// *a.get_mut(3) = 42; // copies the one chunk holding index 3
/// assert_eq!((a.len(), a[3]), (1001, 42));
/// assert_eq!((snapshot.len(), snapshot[3]), (1000, 3));
/// ```
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    sealed: Vec<Arc<[T]>>,
    tail: Vec<T>,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec { sealed: Vec::new(), tail: Vec::new() }
    }
}

impl<T> CowVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Elements held by sealed chunks; indices from here on are in the
    /// tail.
    fn sealed_len(&self) -> usize {
        self.sealed.len() << CHUNK_BITS
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The element at `index`, if in range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        match index.checked_sub(self.sealed_len()) {
            Some(in_tail) => self.tail.get(in_tail),
            None => self.sealed[index >> CHUNK_BITS].get(index & (CHUNK_LEN - 1)),
        }
    }

    /// The contiguous run of elements holding `index`: its sealed chunk
    /// or the tail. Runs start at multiples of [`CHUNK_LEN`], so a scan
    /// over ascending indices can resolve the run once per window and
    /// index a plain slice from there. Out of range, the (possibly
    /// empty) tail comes back.
    #[inline]
    pub fn run_of(&self, index: usize) -> &[T] {
        match self.sealed.get(index >> CHUNK_BITS) {
            Some(chunk) => chunk,
            None => &self.tail,
        }
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.sealed.iter().flat_map(|chunk| chunk.iter()).chain(&self.tail)
    }

    /// Appends `value`, sealing the tail when it fills a chunk.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK_LEN {
            self.sealed.push(self.tail.drain(..).collect());
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to the element at `index`. Copies the sealed chunk
    /// holding it first if a clone shares it.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn get_mut(&mut self, index: usize) -> &mut T {
        match index.checked_sub(self.sealed_len()) {
            Some(in_tail) => &mut self.tail[in_tail],
            None => {
                &mut Arc::make_mut(&mut self.sealed[index >> CHUNK_BITS])[index & (CHUNK_LEN - 1)]
            }
        }
    }
}

impl<T> std::ops::Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        self.get(index).unwrap_or_else(|| panic!("index {index} out of range for {}", self.len()))
    }
}

impl<T> Extend<T> for CowVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = CowVec::new();
        out.extend(iter);
        out
    }
}

/// A hash map split into [`STRIPES`] independently shared stripes; clones
/// share every stripe until one side writes to it.
///
/// A key's stripe is chosen by a cheap hash under the map's own random
/// seed; each stripe is a std `HashMap` (SipHash, randomly keyed).
///
/// ```
/// use matchrules_runtime::CowMap;
///
/// let mut a: CowMap<String, Vec<u32>> = CowMap::new();
/// a.or_default("x".to_owned()).push(1);
/// let snapshot = a.clone(); // refcount bumps only
/// a.get_mut("x").unwrap().push(2); // copies the one stripe holding "x"
/// a.insert("y".to_owned(), vec![3]);
/// assert_eq!((a.len(), a.get("x").unwrap().len()), (2, 2));
/// assert_eq!((snapshot.len(), snapshot.get("x").unwrap().len()), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct CowMap<K, V> {
    stripes: Vec<Arc<HashMap<K, V>>>,
    /// Random per map (and inherited by its clones), so which keys share
    /// a stripe is not predictable from key bytes.
    seed: u64,
    len: usize,
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        // Every stripe starts as the same empty map: creating a map is
        // one allocation, and a stripe only becomes its own allocation
        // on its first write.
        let empty = Arc::new(HashMap::new());
        CowMap { stripes: vec![empty; STRIPES], seed: RandomState::new().hash_one(0u8), len: 0 }
    }
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.stripes.iter().flat_map(|stripe| stripe.iter())
    }

    /// The values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.stripes.iter().flat_map(|stripe| stripe.values())
    }
}

/// The stripe-choice hasher: a seeded multiply-rotate fold, a few cycles
/// per key. It only spreads keys over stripes — every stripe is a std
/// `HashMap` with randomly keyed SipHash, so lookup complexity never
/// rests on this function; the worst a crafted key set can do is crowd
/// one stripe and make *writes* to it copy more.
struct StripeHasher(u64);

impl Hasher for StripeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<K: Hash + Eq, V> CowMap<K, V> {
    fn stripe_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        let mut hasher = StripeHasher(self.seed);
        key.hash(&mut hasher);
        // The multiply pushes entropy upward: take the top bits.
        (hasher.finish() >> (u64::BITS - STRIPES.trailing_zeros())) as usize
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.stripes[self.stripe_of(key)].get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> CowMap<K, V> {
    /// Mutable access to the value under `key`. Copies the key's stripe
    /// first if a clone shares it — and only when the key is present, so
    /// a miss never copies.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let stripe = self.stripe_of(key);
        let stripe = &mut self.stripes[stripe];
        if !stripe.contains_key(key) {
            return None;
        }
        Arc::make_mut(stripe).get_mut(key)
    }

    /// The value under `key`, inserted as `V::default()` when absent.
    pub fn or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let stripe = self.stripe_of(&key);
        match Arc::make_mut(&mut self.stripes[stripe]).entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                self.len += 1;
                entry.insert(V::default())
            }
        }
    }

    /// Stores `value` under `key`, returning the value it displaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let stripe = self.stripe_of(&key);
        let old = Arc::make_mut(&mut self.stripes[stripe]).insert(key, value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes and returns the value under `key`. A miss never copies.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let stripe = self.stripe_of(key);
        let stripe = &mut self.stripes[stripe];
        if !stripe.contains_key(key) {
            return None;
        }
        self.len -= 1;
        Arc::make_mut(stripe).remove(key)
    }

    /// Consumes the map into its entries, in no particular order.
    /// Stripes no clone shares are moved out, shared ones copied.
    pub fn into_entries(self) -> impl Iterator<Item = (K, V)> {
        self.stripes
            .into_iter()
            .flat_map(|stripe| Arc::try_unwrap(stripe).unwrap_or_else(|shared| (*shared).clone()))
    }
}
