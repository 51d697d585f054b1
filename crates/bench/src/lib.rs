//! # matchrules-bench
//!
//! Benchmark harness regenerating every figure of the paper's §6
//! evaluation. Each experiment lives in [`experiments`] as a pure function
//! (point → row) over the baselines of [`baselines`] (sorted neighbourhood
//! with hand rules, Fellegi–Sunter over an equality vector, manual blocking
//! and windowing keys), consumed from two directions:
//!
//! * **binaries** (`src/bin/fig*.rs`) print the full paper-scale series as
//!   text tables — one binary per figure, run with
//!   `cargo run --release -p matchrules-bench --bin <name> [quick|paper]`;
//! * **the `bench` driver** (`src/bin/bench/`) runs the workloads of
//!   `BENCHMARK.json` end to end and layer by layer.
//!
//! The mapping from figures to binaries is indexed in `DESIGN.md` §2;
//! recorded paper-vs-measured outcomes live in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod experiments;
pub mod json;
pub mod table;

/// Scale presets shared by the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for smoke runs and CI (seconds).
    Quick,
    /// The paper's parameter ranges (minutes).
    Paper,
}

impl Scale {
    /// Parses the first CLI argument (`quick` is the default).
    pub fn from_args() -> Scale {
        match std::env::args().nth(1).as_deref() {
            Some("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// Wall-clock timing of a closure, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
