//! [`EpochCell`]: an atomically-swapped shared snapshot with an epoch
//! counter, and [`EpochReader`], a per-reader cache that makes the
//! steady-state read path lock-free.
//!
//! The serving layers publish immutable snapshots (`Arc<T>`) that many
//! reader threads consume while a writer occasionally replaces the whole
//! value — the "build off to the side, then swap" pattern of the rule
//! hot-swap, extended to every mutation. `std` has no atomic `Arc` swap,
//! so the cell pairs a mutex-guarded slot with a monotone [`AtomicU64`]
//! **epoch** that is bumped *after* every store:
//!
//! * [`EpochCell::store`] replaces the snapshot and bumps the epoch — the
//!   lock is held only for the pointer assignment, never while the new
//!   value is being built;
//! * [`EpochCell::load`] clones the `Arc` under the lock — a few
//!   nanoseconds, but still a lock;
//! * [`EpochReader`] removes even that: each reader caches the `Arc` it
//!   last loaded together with the epoch it observed, and
//!   [`EpochReader::get`] revalidates with **one atomic load**. While no
//!   writer publishes — the hot serving state — readers touch no lock at
//!   all; after a publish, each reader pays one `load` to refresh.
//!
//! A reader therefore never blocks on a rebuild and never observes a
//! torn value: it either holds the previous snapshot or the new one,
//! both complete. The cost of this std-only design is that a refresh
//! (and a cold `load`) takes the mutex briefly; the epoch fast path is
//! what makes saturated read loops lock-free in practice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically-replaceable `Arc<T>` slot with a monotone epoch.
///
/// ```
/// use matchrules_runtime::{EpochCell, EpochReader};
/// use std::sync::Arc;
///
/// let cell = EpochCell::new(Arc::new(1));
/// let mut reader = EpochReader::new(&cell);
/// assert_eq!(**reader.get(&cell), 1);
/// cell.store(Arc::new(2));
/// assert_eq!(**reader.get(&cell), 2); // one refresh after the swap
/// ```
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell holding `value` at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        EpochCell { slot: Mutex::new(value), epoch: AtomicU64::new(0) }
    }

    /// The current epoch: bumped by one **after** every [`EpochCell::store`].
    /// A reader that re-checks the epoch and sees its cached value's
    /// number is guaranteed the cell still holds that value.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (an `Arc` clone under a briefly-held lock),
    /// with the epoch it was read at.
    pub fn load(&self) -> (Arc<T>, u64) {
        // Recover from poisoning: the guarded value is a plain Arc, so a
        // panicking reader elsewhere cannot have left it torn — a server
        // must keep serving.
        let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        // The epoch is read while the lock is held, so it is the number
        // of the store that published exactly this Arc (stores bump the
        // epoch inside the lock too).
        let epoch = self.epoch.load(Ordering::Acquire);
        (slot.clone(), epoch)
    }

    /// Publishes a new snapshot and bumps the epoch. The lock is held
    /// only for the pointer swap; build the value before calling. The
    /// displaced snapshot is dropped *after* the lock is released: when
    /// the cell held its last reference, freeing it (a whole retired
    /// view) must not stall every `load` queued behind the mutex.
    pub fn store(&self, value: Arc<T>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let displaced = std::mem::replace(&mut *slot, value);
        self.epoch.fetch_add(1, Ordering::Release);
        drop(slot);
        drop(displaced);
    }

    /// Atomically replaces the snapshot with `f(current)` and returns the
    /// new value. The lock is held across `f`, so keep `f` cheap (pointer
    /// shuffling, not index rebuilding) — concurrent `update`s serialize
    /// here, which is exactly what a multi-writer publish point needs.
    pub fn update(&self, f: impl FnOnce(&Arc<T>) -> Arc<T>) -> Arc<T> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let next = f(&slot);
        let displaced = std::mem::replace(&mut *slot, next.clone());
        self.epoch.fetch_add(1, Ordering::Release);
        drop(slot);
        drop(displaced); // outside the lock, as in `store`
        next
    }
}

/// A per-reader cache over an [`EpochCell`]: holds the last snapshot and
/// revalidates it with one atomic load, so the unchanged-epoch hot path
/// takes no lock. One reader per thread; the reader is `Send` but not
/// meant to be shared.
#[derive(Debug)]
pub struct EpochReader<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> EpochReader<T> {
    /// A reader primed with the cell's current snapshot.
    pub fn new(cell: &EpochCell<T>) -> Self {
        let (value, epoch) = cell.load();
        EpochReader { value, epoch }
    }

    /// The cell's current snapshot: the cached `Arc` when the epoch is
    /// unchanged (no lock), a fresh [`EpochCell::load`] otherwise.
    pub fn get(&mut self, cell: &EpochCell<T>) -> &Arc<T> {
        if cell.epoch() != self.epoch {
            let (value, epoch) = cell.load();
            self.value = value;
            self.epoch = epoch;
        }
        &self.value
    }

    /// The epoch the cached snapshot was published at — after
    /// [`EpochReader::get`], the epoch of the value it returned. Lets
    /// callers key caches on "which publish produced this".
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn store_bumps_epoch_and_load_sees_the_new_value() {
        let cell = EpochCell::new(Arc::new("a"));
        assert_eq!(cell.epoch(), 0);
        let (v, e) = cell.load();
        assert_eq!((*v, e), ("a", 0));
        cell.store(Arc::new("b"));
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.load().0, "b");
    }

    #[test]
    fn displaced_snapshot_is_dropped_outside_the_lock() {
        // A value whose Drop loads from the cell: dropping it while the
        // slot mutex is held would self-deadlock.
        struct LoadsOnDrop(Option<Arc<EpochCell<LoadsOnDrop>>>);
        impl Drop for LoadsOnDrop {
            fn drop(&mut self) {
                if let Some(cell) = &self.0 {
                    cell.load();
                }
            }
        }
        let cell = Arc::new(EpochCell::new(Arc::new(LoadsOnDrop(None))));
        cell.store(Arc::new(LoadsOnDrop(Some(cell.clone()))));
        // The cell holds the only reference to each displaced value.
        cell.store(Arc::new(LoadsOnDrop(Some(cell.clone()))));
        cell.update(|_| Arc::new(LoadsOnDrop(None)));
        assert_eq!(cell.epoch(), 3);
    }

    #[test]
    fn reader_caches_until_the_epoch_moves() {
        let cell = EpochCell::new(Arc::new(10));
        let mut reader = EpochReader::new(&cell);
        let first = Arc::as_ptr(reader.get(&cell));
        // Unchanged epoch: the very same Arc comes back.
        assert_eq!(Arc::as_ptr(reader.get(&cell)), first);
        cell.store(Arc::new(11));
        assert_eq!(**reader.get(&cell), 11);
        assert_ne!(Arc::as_ptr(reader.get(&cell)), first);
    }

    #[test]
    fn update_serializes_read_modify_write() {
        let cell = EpochCell::new(Arc::new(0u64));
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        cell.update(|v| Arc::new(**v + 1));
                    }
                });
            }
        });
        assert_eq!(*cell.load().0, 400);
        assert_eq!(cell.epoch(), 400);
    }

    #[test]
    fn readers_never_observe_a_torn_snapshot() {
        // Snapshots are (n, n): a torn read would see unequal halves.
        let cell = EpochCell::new(Arc::new((0u64, 0u64)));
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut reader = EpochReader::new(&cell);
                    while !stop.load(Ordering::Relaxed) {
                        let snap = reader.get(&cell);
                        assert_eq!(snap.0, snap.1, "torn snapshot");
                    }
                });
            }
            for n in 1..=1000u64 {
                cell.store(Arc::new((n, n)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 1000);
    }
}
