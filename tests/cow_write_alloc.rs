//! Write amplification of the structurally-shared write path, measured
//! in bytes by a counting global allocator — deterministic in what it
//! counts (allocation requests, not time), so it can gate in CI.
//!
//! One `MatchServer::upsert` clones the target shard's published
//! snapshot, mutates the clone and publishes it. With structural sharing
//! that allocates spines (one `Arc` pointer per chunk / stripe) plus the
//! chunks and stripes the one record touches — not the shard:
//!
//! * **sub-linear in shard size**: an upsert into a 1-shard store of
//!   8 000 records allocates less than 2× what it does at 1 000 records
//!   (a deep copy would allocate ~8×);
//! * **a small fraction of the shard**: less than 5% of what one full
//!   index build over those 8 000 records allocates (a deep copy is of
//!   that order by construction).
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and the test harness runs tests of one binary in parallel.

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::Relation;
use matchrules::engine::{ExecConfig, MatchEngine, Preset};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting requested bytes.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic add on the side and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown block is (at worst) a fresh block of the new size.
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested from the allocator while `f` runs.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

fn engine() -> MatchEngine {
    Preset::Extended.builder().top_k(5).threads(1).build().unwrap()
}

fn prefix(relation: &Relation, rows: usize) -> Relation {
    let mut out = Relation::new(relation.schema().clone());
    for tuple in relation.tuples().iter().take(rows) {
        out.push(tuple.clone());
    }
    out
}

/// Median bytes one `upsert` of a fresh record allocates on a 1-shard,
/// cache-off, inline-executor server holding `store`.
fn upsert_bytes(store: &Relation) -> u64 {
    let config = ServerConfig { shards: 1, cache_capacity: 0, exec: ExecConfig::serial() };
    let server = MatchServer::with_config(engine(), config);
    let record = |row: usize| {
        let values = store.tuples()[row].values().to_vec();
        Record::from_values(server.store_schema(), values).unwrap()
    };
    let load: Vec<(RecordId, Record)> =
        (0..store.len()).map(|row| (RecordId(store.tuples()[row].id()), record(row))).collect();
    server.upsert_batch(&load).unwrap();
    // Which stripes a record touches depends on the maps' random seeds:
    // take the median over a spread of records.
    let mut samples: Vec<u64> = (0..31)
        .map(|k| {
            let fresh = record(k * 29 % store.len());
            allocated_by(|| server.upsert(RecordId(10_000_000 + k as u64), &fresh).unwrap()).0
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[test]
fn cow_upsert_allocation_is_sublinear_in_shard_size() {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        4_500,
        &NoiseConfig { seed: 0x5EA7, ..NoiseConfig::default() },
    );
    assert!(data.billing.len() >= 8_000, "generator yields ~1.8 records per person");
    let small = prefix(&data.billing, 1_000);
    let large = prefix(&data.billing, 8_000);

    let at_small = upsert_bytes(&small);
    let at_large = upsert_bytes(&large);
    let (build, index) = allocated_by(|| engine().index(&large).unwrap());
    assert_eq!(index.len(), 8_000);
    println!(
        "upsert allocates {at_small} B at 1 000 records, {at_large} B at 8 000; a build {build} B"
    );

    assert!(
        at_large < 2 * at_small,
        "an upsert must not pay for the shard: {at_large} B at 8 000 records vs {at_small} B at 1 000"
    );
    assert!(
        at_large * 20 < build,
        "an upsert ({at_large} B) must stay under 5% of a full index build ({build} B)"
    );
}
