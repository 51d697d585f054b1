//! The probe-result cache: answers keyed on
//! `(probe signature, view epoch)`, invalidated wholesale by epoch
//! bumps.
//!
//! A [`Record::signature`](crate::service::Record::signature) is a
//! stable 64-bit digest of a probe's schema and values, and the server's
//! view epoch moves on **every** publish — rule swaps and store
//! mutations alike — so a cached answer is returned only while it is
//! provably still the current answer: same probe bytes, same rules, same
//! store. A version bump (or any upsert) strands every entry at a stale
//! epoch at once; stale entries are overwritten on their next miss and
//! swept when the cache fills.
//!
//! The cache is generic over the answer type: the server keeps one
//! instance for boolean [`QueryResponse`](crate::service::QueryResponse)s
//! and one for ranked answers, each with its own hit/miss/invalidation
//! counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An entry: the epoch the answer was computed at, and the answer.
struct CacheEntry<T> {
    epoch: u64,
    response: Arc<T>,
}

/// A bounded, epoch-validated probe-result cache.
pub(crate) struct ProbeCache<T> {
    capacity: usize,
    map: Mutex<HashMap<u64, CacheEntry<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl<T> ProbeCache<T> {
    /// A cache holding at most `capacity` answers; 0 disables caching.
    pub(crate) fn new(capacity: usize) -> Self {
        ProbeCache {
            capacity,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether the cache holds anything at all (capacity > 0). Callers
    /// check this before computing a probe signature or building the
    /// shared answer for [`ProbeCache::put`], so a cache-off server
    /// pays nothing for the cache it does not have.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The cached answer for `sig` computed at exactly `epoch`, if any.
    /// An entry found at a stale epoch counts as an invalidation (and a
    /// miss).
    pub(crate) fn get(&self, sig: u64, epoch: u64) -> Option<Arc<T>> {
        if !self.enabled() {
            return None;
        }
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&sig) {
            Some(entry) if entry.epoch == epoch => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.response.clone())
            }
            Some(_) => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the answer for `sig` computed at `epoch`. When the cache
    /// is full, entries stranded at older epochs are swept first (each
    /// swept entry counts as an invalidation); if every entry is
    /// current, the whole cache is dropped rather than tracking
    /// recency — epoch invalidation makes entries cheap to recompute
    /// and wholesale drops keep the path std-only and O(1) amortized.
    pub(crate) fn put(&self, sig: u64, epoch: u64, response: Arc<T>) {
        if !self.enabled() {
            return;
        }
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.capacity && !map.contains_key(&sig) {
            let before = map.len();
            map.retain(|_, entry| entry.epoch == epoch);
            let swept = (before - map.len()) as u64;
            if swept > 0 {
                self.invalidations.fetch_add(swept, Ordering::Relaxed);
            }
            if map.len() >= self.capacity {
                map.clear();
            }
        }
        map.insert(sig, CacheEntry { epoch, response });
    }

    /// Live entries (stale ones included until swept).
    pub(crate) fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `(hits, misses, invalidations)` counters since construction.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FilterStats;
    use crate::service::{QueryResponse, RuleVersion};

    fn response() -> Arc<QueryResponse> {
        Arc::new(QueryResponse {
            hits: Vec::new(),
            candidates: 0,
            key_evals: 0,
            stats: FilterStats::default(),
            version: RuleVersion(1),
        })
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = ProbeCache::new(8);
        cache.put(42, 7, response());
        assert!(cache.get(42, 7).is_some());
        assert!(cache.get(42, 8).is_none(), "an epoch bump invalidates the entry");
        assert!(cache.get(41, 7).is_none());
        // One hit, two misses, and only the stale-epoch probe counts as
        // an invalidation (sig 41 was never cached).
        assert_eq!(cache.counters(), (1, 2, 1));
    }

    #[test]
    fn full_cache_sweeps_stale_entries_first() {
        let cache = ProbeCache::new(2);
        cache.put(1, 1, response());
        cache.put(2, 1, response());
        // Epoch moved: inserting at the new epoch sweeps the stale pair.
        cache.put(3, 2, response());
        assert!(cache.get(3, 2).is_some());
        assert!(cache.get(1, 2).is_none());
        assert!(cache.len() <= 2);
        let (_, _, invalidations) = cache.counters();
        assert_eq!(invalidations, 2, "both stale entries were swept");
        // All-current full cache: wholesale drop, then the insert lands.
        cache.put(4, 2, response());
        cache.put(5, 2, response());
        assert!(cache.get(5, 2).is_some());
        assert!(cache.len() <= 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ProbeCache::new(0);
        cache.put(1, 1, response());
        assert!(cache.get(1, 1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters(), (0, 0, 0), "a disabled cache counts nothing");
    }

    #[test]
    fn generic_over_answer_type() {
        // The ranked cache reuses the same machinery with a different
        // payload.
        let cache: ProbeCache<Vec<u64>> = ProbeCache::new(4);
        cache.put(9, 1, Arc::new(vec![1, 2, 3]));
        assert_eq!(cache.get(9, 1).as_deref(), Some(&vec![1, 2, 3]));
    }
}
