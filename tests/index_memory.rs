//! Resident memory of a built `MatchIndex`, measured in bytes by a
//! counting global allocator that tracks *net live* bytes (allocations
//! minus frees) — deterministic in what it counts, so it can gate in CI.
//!
//! The index holds postings, per-slot retrieval metadata, the id map and
//! `Arc` handles on the stored tuples; it keeps no per-record signature
//! rows (verification extracts a candidate's signatures on demand). On
//! Extended at 4 500 persons (8 100 billing records) that is under
//! 560 B per record (~506 B; ~608 B while equality atoms kept slot
//! buckets of owned strings); with a signature row per record it was
//! ~2 KB.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and the test harness runs tests of one binary in parallel.

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::engine::Preset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Forwards to the system allocator, tracking net live bytes.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic add on the side and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn index_holds_under_560_bytes_per_record() {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        4_500,
        &NoiseConfig { seed: 0x5EA7, ..NoiseConfig::default() },
    );
    let records = data.billing.len();
    assert!(records >= 8_000, "generator yields ~1.8 records per person");
    let engine = Preset::Extended.builder().top_k(5).threads(1).build().unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let index = engine.index(&data.billing).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(index.len(), records);
    let per_record = held as f64 / records as f64;
    println!("the index over {records} records holds {held} B: {per_record:.0} B per record");

    assert!(
        per_record <= 560.0,
        "the index holds {per_record:.0} B per record (budget 560 B): \
         is it keeping per-record signatures again?"
    );
}
