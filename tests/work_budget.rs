//! Counted work per `MatchIndex::query`, gated against committed budgets.
//!
//! A counting global allocator tallies allocations and bytes allocated
//! (every `alloc` and `realloc`, frees not subtracted) and net live bytes,
//! and each outcome carries the index's own work counters. On two stores
//! — Extended at 4 500 persons (8 100 billing records: q-gram and key
//! anchors) and the roster plan at 20 000 persons (Jaro–Winkler and token
//! element anchors, soundex and phone key anchors), one build thread each
//! — a fixed sample of 512 probes is queried twice: the first pass grows
//! the per-thread scratch buffers, the second is measured. Per query it
//! records allocations, bytes allocated, posting blocks decoded,
//! candidates verified and key evaluations, and checks each against its
//! budget.
//!
//! A third store is the unique-value shape (`unique::unique_store`: 24 000
//! records whose four q-gram attributes never repeat a value, so every
//! value's run is one slot). Beside the five counts it records the
//! retrieval rejects per query by reason, the index's live bytes per
//! record, and the allocations per probe of one `query_batch` over the
//! sample — what the dictionary costs where it saves nothing.
//!
//! Every count is deterministic (no clocks, no thread scheduling), so a
//! budget moves only when the work a query does moves. A change that
//! makes queries cheaper should lower the budgets to the new values.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and the test harness runs tests of one binary in parallel.

mod roster;

mod unique;

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::Tuple;
use matchrules::engine::{MatchIndex, Preset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocations, bytes
/// allocated and net live bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomic adds on the side and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Probes in the fixed sample.
const SAMPLE: usize = 512;

/// A measured value may exceed its recorded budget by this factor.
const HEADROOM: f64 = 1.10;

/// Per-query work recorded on Extended, in the order [`measure`]
/// reports it.
const BUDGET: [(&str, f64); 5] = [
    ("allocations", 30.2),
    ("bytes_allocated", 3_013.0),
    ("blocks_decoded", 1.39),
    ("candidates", 1.43),
    ("key_evals", 1.43),
];

/// Per-query work recorded on the roster plan, in the same order.
const ROSTER_BUDGET: [(&str, f64); 5] = [
    ("allocations", 27.3),
    ("bytes_allocated", 1_616.0),
    ("blocks_decoded", 1.63),
    ("candidates", 3.28),
    ("key_evals", 3.28),
];

/// Work recorded on the unique-value store: [`measure`]'s five per-query
/// counts, then [`measure_unique`]'s.
const UNIQUE_BUDGET: [(&str, f64); 10] = [
    ("allocations", 37.9),
    ("bytes_allocated", 2_666.0),
    ("blocks_decoded", 7.28),
    ("candidates", 1.01),
    ("key_evals", 1.01),
    ("length_rejects", 525.5),
    ("mask_rejects", 706.5),
    ("null_rejects", 0.0),
    ("index_bytes_per_record", 446.0),
    ("batch_allocations_per_probe", 35.0),
];

/// Extended's index and probe sample.
fn extended() -> (MatchIndex, Vec<Tuple>) {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        4_500,
        &NoiseConfig { seed: 0x5EA7, ..NoiseConfig::default() },
    );
    let engine = Preset::Extended.builder().top_k(5).threads(1).build().expect("preset builds");
    let index = engine.index(&data.billing).expect("index builds");
    let probes = data.credit.tuples();
    assert!(probes.len() >= SAMPLE, "the generator yields one credit row per person");
    (index, probes.iter().step_by(probes.len() / SAMPLE).take(SAMPLE).cloned().collect())
}

/// The roster plan's index and probe sample.
fn roster() -> (MatchIndex, Vec<Tuple>) {
    let (probes, store) = roster::roster_data(20_000, 0x5EA7, 1);
    let index = roster::roster_engine(1).index(&store).expect("index builds");
    let probes = probes.tuples();
    (index, probes.iter().step_by(probes.len() / SAMPLE).take(SAMPLE).cloned().collect())
}

/// The unique-value store's index, its live bytes per record, and its
/// probe sample.
fn unique_values() -> (MatchIndex, f64, Vec<Tuple>) {
    let (store, keys, ops, probes) = unique::unique_store(24_000, SAMPLE);
    let before = LIVE.load(Ordering::Relaxed);
    let index = MatchIndex::build(4, &store, &keys, &[], ops).expect("index builds");
    let held = LIVE.load(Ordering::Relaxed) - before;
    (index, held as f64 / store.len() as f64, probes)
}

/// The unique-value store's extra counts: per query, the retrieval
/// rejects by reason (a q-gram plan rejects by length window, presence
/// mask and null, never by size ratio); then the index's bytes per record
/// and the allocations per probe of one `query_batch` over the sample
/// (run once to grow the scratch buffers, then measured).
fn measure_unique(
    index: &MatchIndex,
    bytes_per_record: f64,
    sample: &[Tuple],
) -> Vec<(&'static str, f64)> {
    let (mut length, mut mask, mut null) = (0, 0, 0);
    for probe in sample {
        let stats = index.query(probe).stats;
        assert_eq!(stats.retrieval_ratio_rejects, 0, "no element anchor");
        length += stats.retrieval_length_rejects;
        mask += stats.retrieval_mask_rejects;
        null += stats.retrieval_null_rejects;
    }
    index.query_batch(sample);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    index.query_batch(sample);
    let batch = ALLOCS.load(Ordering::Relaxed) - allocs;
    let per_query = |count: u64| count as f64 / sample.len() as f64;
    vec![
        ("length_rejects", per_query(length)),
        ("mask_rejects", per_query(mask)),
        ("null_rejects", per_query(null)),
        ("index_bytes_per_record", bytes_per_record),
        ("batch_allocations_per_probe", per_query(batch)),
    ]
}

/// Per-query means of the counted work over the sample.
fn measure(index: &MatchIndex, sample: &[Tuple]) -> Vec<(&'static str, f64)> {
    for probe in sample {
        index.query(probe);
    }
    let (allocs, bytes) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let (mut blocks, mut candidates, mut key_evals) = (0, 0, 0);
    for probe in sample {
        let outcome = index.query(probe);
        blocks += outcome.stats.blocks_decoded;
        candidates += outcome.candidates as u64;
        key_evals += outcome.key_evals as u64;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let per_query = |count: u64| count as f64 / SAMPLE as f64;
    vec![
        ("allocations", per_query(allocs)),
        ("bytes_allocated", per_query(bytes)),
        ("blocks_decoded", per_query(blocks)),
        ("candidates", per_query(candidates)),
        ("key_evals", per_query(key_evals)),
    ]
}

#[test]
fn query_work_stays_within_budget() {
    let (index, sample) = extended();
    let extended = measure(&index, &sample);
    drop(index);
    let (index, sample) = roster();
    let roster = measure(&index, &sample);
    drop(index);
    let (index, bytes_per_record, sample) = unique_values();
    let mut unique = measure(&index, &sample);
    unique.extend(measure_unique(&index, bytes_per_record, &sample));
    let cases = [
        ("extended", extended, &BUDGET[..]),
        ("roster", roster, &ROSTER_BUDGET[..]),
        ("unique", unique, &UNIQUE_BUDGET[..]),
    ];
    for (case, measured, budgets) in &cases {
        assert_eq!(measured.len(), budgets.len(), "{case}: one budget per count");
        for ((name, got), (budgeted, budget)) in measured.iter().zip(budgets.iter()) {
            assert_eq!(name, budgeted, "{case}: budgets in measuring order");
            println!("{case} {name}: {got:.2} (budget {budget}, headroom {HEADROOM})");
        }
    }
    for (case, measured, budgets) in &cases {
        for ((name, got), (_, budget)) in measured.iter().zip(budgets.iter()) {
            assert!(
                *got <= budget * HEADROOM,
                "{case} {name}: {got:.2} exceeds its budget {budget} by more than {HEADROOM}x"
            );
        }
    }
}
