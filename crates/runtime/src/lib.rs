//! # matchrules-runtime
//!
//! A std-only parallel execution runtime for the match engine: no
//! crates.io dependencies, no unsafe code — just [`std::thread::scope`]
//! under a work-chunking facade.
//!
//! The §6 workloads (multi-pass sorted neighborhood, blocking, pairwise
//! key evaluation) are embarrassingly parallel over sort passes, blocks
//! and candidate pairs, but every result the engine reports must be
//! **byte-identical to the serial run**. The runtime therefore provides
//! deterministic primitives only:
//!
//! * [`WorkPool::par_chunks`] — apply a closure to contiguous chunks of a
//!   slice, claimed dynamically by workers, with results returned **in
//!   chunk order** regardless of scheduling;
//! * [`WorkPool::par_map_collect`] — per-element map with the output in
//!   input order;
//! * [`WorkPool::par_sort_by`] — stable parallel sort (per-chunk sort +
//!   k-way merge with chunk-index tie-break), equal to the serial stable
//!   sort;
//! * [`ordered_reduce`] — parallel chunk map + serial fold in chunk
//!   order.
//!
//! For the serving layers there is one concurrency primitive next to the
//! pool: [`EpochCell`], an atomically-swapped shared snapshot
//! (`Arc<T>` + monotone epoch counter) whose steady-state read path is
//! lock-free through the per-reader [`EpochReader`] cache — the
//! publish/subscribe half of the "build off to the side, then swap"
//! pattern.
//!
//! Thread counts come from [`ExecConfig`] (`Threads::Auto` resolves to
//! the hardware parallelism). A pool with one thread executes everything
//! inline, so the serial path and the parallel path share one code path.
//!
//! ```
//! use matchrules_runtime::{ExecConfig, Threads, WorkPool};
//!
//! let pool = WorkPool::new(ExecConfig { threads: Threads::Fixed(4) });
//! let squares = pool.par_map_collect(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cow;
mod epoch;
mod pool;
mod reduce;
mod sort;

pub use config::{ExecConfig, Threads};
pub use cow::{CowMap, CowVec, CHUNK_LEN, STRIPES};
pub use epoch::{EpochCell, EpochReader};
pub use pool::WorkPool;
pub use reduce::ordered_reduce;
