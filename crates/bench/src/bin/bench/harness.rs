//! The run shape shared by every workload: `R` repetitions on a fresh
//! engine/server, each a set-up (compile + load + warm-up) and a timed
//! window, reduced to medians over the repetitions.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median_ns, Summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Repetitions per workload. Shrink the window, never this.
pub const REPS: usize = 5;
/// Repetitions of each kind (untraced, traced) in the traced pass.
pub const TRACED_REPS: usize = 3;
/// Warm-up inside every set-up: caches fill, lazy init finishes.
pub const WARM_UP: Duration = Duration::from_millis(300);

/// Executor width of every server and engine inside a timed window:
/// queries run on the calling thread, shard after shard, and `batch_link`
/// links on one thread. Work spread over two threads does not repeat on a
/// small shared machine: ten seeds of `big_read` and `mixed_rw` on a
/// `T`-thread executor spread (interquartile range / median) by 30-38 % in
/// `ops_per_s` in a noisy stretch, against 3-8 % inline over the same
/// stretch, and `batch_link` on the `T`-thread pool spread by 17 % and 34 %
/// in `p50_us` in the benchmark check's two sets of runs (inline: 3-6 %);
/// a bound may be at most 25 %. What the threads add or cost is read in
/// the traced pass (`server.core.fanout_ratio`, `runtime.pool.speedup_t`).
pub const INLINE: usize = 1;

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Total timed seconds; each repetition's window is `seconds / REPS`.
    pub seconds: f64,
    pub traced: bool,
    /// `available_parallelism()`: the process never runs more busy
    /// threads than this (client threads + server workers).
    pub threads: usize,
}

impl Ctx {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / REPS as f64)
    }

    /// Untraced repetitions of this pass: the traced pass is the
    /// shorter one.
    pub fn reps(&self) -> usize {
        if self.traced {
            TRACED_REPS
        } else {
            REPS
        }
    }

    /// Fixed work per repetition for the batch/reasoning workloads:
    /// `per_second` items per second of window, at least `floor`.
    pub fn fixed_work(&self, per_second: f64, floor: usize) -> usize {
        ((self.window().as_secs_f64() * per_second).round() as usize).max(floor)
    }
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    /// Process CPU seconds (all threads) spent inside the window.
    pub cpu_s: f64,
    /// Completed ops, in the unit `ops_per_s` is stated in.
    pub ops: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Counts the window read off public outputs (`ServerStats` deltas,
    /// reads inside swap windows, …).
    pub extra: Vec<(&'static str, f64)>,
    /// Every timed call of the window, by span name.
    pub tracer: Tracer,
}

/// What a repetition's timed window hands back.
#[derive(Debug, Default)]
pub struct WindowOut {
    pub ops: f64,
    pub attempted: u64,
    pub failed: u64,
    pub extra: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops / self.window_s
    }
}

/// Process CPU time (user + system, every thread, exited ones too) from
/// `/proc/self/stat`, in seconds. Linux reports it in clock ticks, 100
/// per second on every configuration this runs on.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after ") ".
    let fields: Vec<&str> =
        stat.rsplit_once(") ").map_or(Vec::new(), |(_, rest)| rest.split(' ').collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calls `op` until [`WARM_UP`] has passed.
pub fn warm_up(mut op: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < WARM_UP {
        op(i);
        i += 1;
    }
}

/// Runs one repetition: `setup` (timed as `setup_s`) builds the state,
/// `window` runs the timed part on it; wall and CPU time are taken
/// around `window`.
pub fn repetition<S>(
    traced: bool,
    setup: impl FnOnce() -> S,
    window: impl FnOnce(S, &mut Tracer) -> WindowOut,
) -> Rep {
    let started = Instant::now();
    let state = setup();
    let setup_s = started.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(traced);
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let out = window(state, &mut tracer);
    let window_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    Rep {
        setup_s,
        window_s,
        cpu_s,
        ops: out.ops,
        attempted: out.attempted,
        failed: out.failed,
        extra: out.extra,
        tracer,
    }
}

/// A per-layer value: measured, or absent with the reason why.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    Value(f64),
    Absent(&'static str),
}

/// The per-layer table: every [`PER_LAYER`] name, measured or absent.
pub type Layers = BTreeMap<&'static str, Layer>;

/// Everything one workload reports.
#[derive(Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub inputs_digest: u64,
    /// Sizes and counts actually used (clients, shards, records, …).
    pub config: Vec<(&'static str, f64)>,
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Timed samples behind `p50_us`, per repetition.
    pub samples_per_rep: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Match quality against the generator's ground truth (`batch_link`
    /// only): written into every result document, pinned at the pinned
    /// seed, and `compare` fails on any drop.
    pub quality: Vec<(&'static str, f64)>,
    /// The correctness gate passed (oracle sample, digest and quality pins).
    pub gate_ok: bool,
    pub gate_note: String,
    pub per_layer: Layers,
    /// Spans of the traced repetition, written beside the result file.
    pub spans: Option<Tracer>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.gate_ok && self.failed == 0
    }
}

/// Reduces repetitions to the end-to-end metrics: each value is the
/// median over the repetitions; `p50_us` is the median over repetitions
/// of each repetition's median latency of `primary`.
pub fn end_to_end(reps: &[Rep], primary: &'static str) -> BTreeMap<&'static str, Summary> {
    let over = |f: &dyn Fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let rss = peak_rss_mb();
    let mut out = BTreeMap::new();
    out.insert("setup_s", over(&|r| r.setup_s));
    out.insert("ops_per_s", over(&Rep::ops_per_s));
    out.insert("p50_us", over(&|r| median_ns(&r.tracer.sorted(primary)) / 1e3));
    out.insert("peak_rss_mb", Summary::of(&[rss]));
    debug_assert!(END_TO_END.iter().all(|m| out.contains_key(m.name)));
    out
}

/// A per-layer table with every metric present and absent by default.
pub fn blank_layers(reason: &'static str) -> Layers {
    PER_LAYER.iter().map(|m| (m.name, Layer::Absent(reason))).collect()
}

/// Sets measured layer values; a name outside [`PER_LAYER`] is a bug.
pub fn set_layers(table: &mut Layers, values: &[(&'static str, f64)]) {
    for &(name, value) in values {
        let slot = table.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = if value.is_finite() { Layer::Value(value) } else { Layer::Absent("not finite") };
    }
}

/// One workload, ready to run: its gate verdict, how to run one
/// repetition, and how to fill the per-layer table in a traced pass.
pub struct Workload<'a> {
    pub name: &'static str,
    pub inputs_digest: u64,
    pub config: Vec<(&'static str, f64)>,
    /// Span name whose latencies are the workload's op latencies.
    pub primary: &'static str,
    pub quality: Vec<(&'static str, f64)>,
    /// The pre-timing correctness gate: a note on success, the first
    /// disagreement on failure.
    pub gate: Result<String, String>,
    /// Runs one repetition; the flag says whether spans are kept.
    pub rep: &'a dyn Fn(bool) -> Rep,
    /// Traced pass only: `(untraced rep, traced rep, table, tracer)`;
    /// the layer probes time their calls through `tracer`, whose spans
    /// are written out with the traced repetition's.
    pub layers: &'a dyn Fn(&Rep, &Rep, &mut Layers, &mut Tracer),
}

/// The repetition with the median op rate.
fn median_rep(mut reps: Vec<Rep>) -> Rep {
    reps.sort_by(|a, b| a.ops_per_s().total_cmp(&b.ops_per_s()));
    reps.swap_remove(reps.len() / 2)
}

/// Runs a workload: `R` untraced repetitions for the end-to-end numbers.
/// Traced, untraced and traced repetitions alternate ([`TRACED_REPS`] of
/// each); the median of each kind — one disturbed repetition must not
/// decide a layer budget — gives the tracing overhead and feeds the
/// layer probes.
pub fn execute(ctx: &Ctx, w: Workload<'_>) -> WorkloadResult {
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    for _ in 0..ctx.reps() {
        reps.push((w.rep)(false));
        if ctx.traced {
            traced_reps.push((w.rep)(true));
        }
    }
    let count = |f: fn(&Rep) -> u64| reps.iter().chain(&traced_reps).map(f).sum::<u64>();
    let (attempted, failed) = (count(|r| r.attempted), count(|r| r.failed));
    let end_to_end = end_to_end(&reps, w.primary);
    let samples_per_rep = reps.iter().map(|r| r.tracer.count(w.primary)).min().unwrap_or(0);
    let mut per_layer = blank_layers("untraced pass");
    let mut spans = None;
    if ctx.traced {
        let (untraced, mut traced) = (median_rep(reps), median_rep(traced_reps));
        per_layer = blank_layers("layer not crossed by this workload");
        let mut probes = Tracer::new(true);
        (w.layers)(&untraced, &traced, &mut per_layer, &mut probes);
        traced.tracer.absorb(probes);
        set_layers(
            &mut per_layer,
            &[
                ("trace.overhead_frac", 1.0 - traced.ops_per_s() / untraced.ops_per_s()),
                ("op.cpu_us_per_op", untraced.cpu_s * 1e6 / untraced.ops),
                ("op.failed_frac", failed as f64 / attempted.max(1) as f64),
            ],
        );
        spans = Some(traced.tracer);
    }
    let (gate_ok, gate_note) = match w.gate {
        Ok(note) => (true, note),
        Err(why) => (false, why),
    };
    WorkloadResult {
        name: w.name,
        inputs_digest: w.inputs_digest,
        config: w.config,
        end_to_end,
        samples_per_rep,
        attempted,
        failed,
        quality: w.quality,
        gate_ok,
        gate_note,
        per_layer,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_seconds() - before >= 0.03, "a 60 ms spin shows as CPU time");
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn end_to_end_is_the_median_over_repetitions() {
        let rep = |setup_s: f64, ops: f64, lat_us: u64| {
            let mut tracer = Tracer::new(false);
            tracer.lat.insert("op", vec![lat_us * 1000; 3]);
            let extra = Vec::new();
            Rep { setup_s, window_s: 2.0, cpu_s: 1.0, ops, attempted: 3, failed: 0, extra, tracer }
        };
        let reps = [rep(0.3, 100.0, 50), rep(0.1, 300.0, 70), rep(0.2, 200.0, 60)];
        let m = end_to_end(&reps, "op");
        assert_eq!(m["setup_s"].median, 0.2);
        assert_eq!(
            (m["ops_per_s"].median, m["ops_per_s"].min, m["ops_per_s"].max),
            (100.0, 50.0, 150.0)
        );
        assert_eq!(m["p50_us"].median, 60.0);
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn window_is_seconds_over_reps_and_traced_is_shorter() {
        let ctx = Ctx { seed: 1, seconds: 10.0, traced: false, threads: 2 };
        assert_eq!(ctx.window(), Duration::from_secs(2));
        assert_eq!(ctx.reps(), REPS);
        assert_eq!(Ctx { traced: true, ..ctx }.reps(), TRACED_REPS);
        assert_eq!(ctx.fixed_work(10.0, 5), 20);
        assert_eq!(Ctx { seconds: 1.0, ..ctx }.fixed_work(10.0, 5), 5);
    }
}
