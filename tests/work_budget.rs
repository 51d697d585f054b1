//! Counted work per `MatchIndex::query`, gated against committed budgets.
//!
//! A counting global allocator tallies allocations and bytes allocated
//! (every `alloc` and `realloc`, frees not subtracted), and each outcome
//! carries the index's own work counters. On two stores — Extended at
//! 4 500 persons (8 100 billing records: q-gram and key anchors) and the
//! roster plan at 20 000 persons (Jaro–Winkler and token element anchors,
//! soundex and phone key anchors), one build thread each — a fixed sample
//! of 512 probes is queried twice: the first pass grows the per-thread
//! scratch buffers, the second is measured. Per query it records
//! allocations, bytes allocated, posting blocks decoded, candidates
//! verified and key evaluations, and checks each against its budget.
//!
//! Every count is deterministic (no clocks, no thread scheduling), so a
//! budget moves only when the work a query does moves. A change that
//! makes queries cheaper should lower the budgets to the new values.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and the test harness runs tests of one binary in parallel.

mod roster;

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::data::relation::Tuple;
use matchrules::engine::{MatchIndex, Preset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocations and bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomic adds on the side and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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
    ("allocations", 60.8),
    ("bytes_allocated", 6_968.0),
    ("blocks_decoded", 1.39),
    ("candidates", 1.43),
    ("key_evals", 1.43),
];

/// Per-query work recorded on the roster plan, in the same order.
const ROSTER_BUDGET: [(&str, f64); 5] = [
    ("allocations", 41.6),
    ("bytes_allocated", 3_888.0),
    ("blocks_decoded", 1.63),
    ("candidates", 3.28),
    ("key_evals", 3.28),
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

/// Per-query means of the counted work over the sample.
fn measure(index: &MatchIndex, sample: &[Tuple]) -> [(&'static str, f64); 5] {
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
    [
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
    let cases = [("extended", extended, BUDGET), ("roster", roster, ROSTER_BUDGET)];
    for (case, measured, budgets) in &cases {
        for ((name, got), (_, budget)) in measured.iter().zip(budgets) {
            println!("{case} {name}: {got:.2} per query (budget {budget}, headroom {HEADROOM})");
        }
    }
    for (case, measured, budgets) in &cases {
        for ((name, got), (_, budget)) in measured.iter().zip(budgets) {
            assert!(
                *got <= budget * HEADROOM,
                "{case} {name}: {got:.2} per query exceeds its budget {budget} by more than \
                 {HEADROOM}x"
            );
        }
    }
}
