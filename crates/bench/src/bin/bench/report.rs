//! Result documents: building one per invocation, printing every metric
//! by name with its unit, the builder-contract result line, and
//! `compare` over two documents.

use crate::harness::{Ctx, Layer, WorkloadResult};
use crate::json::{Get, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{Summary, MIN_BEYOND};

/// Where the numbers came from. Commit and compiler are asked of `git`
/// and `rustc`; either may be missing (the driver's checkout is not a
/// repository), which reads `"unknown"`.
fn provenance(ctx: &Ctx) -> Json {
    let ask = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
    };
    Json::obj()
        .field("commit", ask("git", &["rev-parse", "HEAD"]))
        .field("rustc", ask("rustc", &["-V"]))
        .field("hardware_threads", ctx.threads)
        .field("seed", format!("{:#x}", ctx.seed))
        .field("repetitions", ctx.reps())
        .field("window_s", ctx.window().as_secs_f64())
        .field("traced", ctx.traced)
        .field(
            "loop",
            "closed: every client is blocking, one request in flight, the next is sent when the \
             previous is answered",
        )
        .field(
            "percentile_rule",
            format!("reported only with >= {MIN_BEYOND} samples beyond it per repetition"),
        )
}

fn workload_json(r: &WorkloadResult) -> Json {
    let def = WORKLOADS.iter().find(|w| w.name == r.name).expect("a defined workload");
    let mut config = Json::obj();
    for &(key, value) in &r.config {
        config = config.field(key, value);
    }
    let mut end_to_end = Json::obj();
    for m in END_TO_END {
        let s = &r.end_to_end[m.name];
        end_to_end = end_to_end.field(
            m.name,
            Json::obj()
                .field("median", s.median)
                .field("min", s.min)
                .field("max", s.max)
                .field("q1", s.q1)
                .field("q3", s.q3)
                .field("reps", s.reps)
                .field("unit", m.unit),
        );
    }
    let mut doc = Json::obj()
        .field("why", def.why)
        .field("op", def.op)
        .field("inputs_digest", format!("{:016x}", r.inputs_digest))
        .field("config", config)
        .field("correct", r.correct())
        .field("gate", r.gate_note.as_str())
        .field("attempted", r.attempted as usize)
        .field("failed", r.failed as usize)
        .field("failed_frac", r.failed as f64 / r.attempted.max(1) as f64)
        .field("samples_per_rep", r.samples_per_rep)
        .field("end_to_end", end_to_end);
    if !r.quality.is_empty() {
        let mut quality = Json::obj();
        for &(name, value) in &r.quality {
            quality = quality.field(name, value);
        }
        doc = doc.field("quality", quality);
    }
    if r.spans.is_some() {
        let mut layers = Json::obj();
        for m in PER_LAYER {
            layers = layers.field(
                m.name,
                match &r.per_layer[m.name] {
                    Layer::Value(v) => Json::obj().field("value", *v).field("unit", m.unit),
                    Layer::Absent(why) => Json::obj().field("value", Json::Null).field("why", *why),
                },
            );
        }
        doc = doc.field("per_layer", layers);
    }
    doc
}

pub fn document(ctx: &Ctx, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        workloads = workloads.field(r.name, workload_json(r));
    }
    Json::obj()
        .field("schema", "matchrules-bench/1")
        .field("provenance", provenance(ctx))
        .field("workloads", workloads)
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_workload(r: &WorkloadResult) {
    println!(
        "\n== {} ==  correct: {}  attempted: {}  failed: {}  digest: {:016x}",
        r.name,
        r.correct(),
        r.attempted,
        r.failed,
        r.inputs_digest
    );
    println!("   gate: {}", r.gate_note);
    for (name, value) in &r.quality {
        println!("   {name:<44} {value:>16.4} ratio  (exact against ground truth)");
    }
    for m in END_TO_END {
        let s = &r.end_to_end[m.name];
        println!(
            "   {:<44} {:>16.4} {:<6} (min {:.4}, max {:.4}, {} reps)",
            m.name, s.median, m.unit, s.min, s.max, s.reps
        );
    }
    if r.spans.is_some() {
        for m in PER_LAYER {
            match &r.per_layer[m.name] {
                Layer::Value(v) => println!("   {:<44} {:>16.4} {}", m.name, v, m.unit),
                Layer::Absent(why) => println!("   {:<44} {:>16} ({why})", m.name, "null"),
            }
        }
    }
}

/// The builder contract's last line: `correct`, `attempted`, `failed`,
/// and every end-to-end (untraced) or every per-layer (traced) metric.
/// The line has no nulls: an absent layer metric reads 0.
pub fn contract_line(r: &WorkloadResult, traced: bool) -> Json {
    let mut metrics = Json::obj();
    if traced {
        for m in PER_LAYER {
            let value = match &r.per_layer[m.name] {
                Layer::Value(v) => *v,
                Layer::Absent(_) => 0.0,
            };
            metrics =
                metrics.field(m.name, Json::obj().field("value", value).field("unit", m.unit));
        }
    } else {
        for m in END_TO_END {
            let value = r.end_to_end[m.name].median;
            metrics =
                metrics.field(m.name, Json::obj().field("value", value).field("unit", m.unit));
        }
    }
    Json::obj()
        .field("correct", r.correct())
        .field("attempted", r.attempted.max(1) as usize)
        .field("failed", r.failed as usize)
        .field("metrics", metrics)
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, relative to `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on one workload × metric. The medians decide unless the
/// two spreads (the quartile ranges over the repetitions) overlap *and*
/// are wider than the bound — then run-to-run noise could have produced
/// the difference (or hidden one) and the pair is unresolved.
pub fn verdict(def: &MetricDef, a: Summary, b: Summary) -> Verdict {
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if overlap && a.spread().max(b.spread()) > def.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(def, a.median, b.median);
    if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(workload: &Json, metric: &str) -> Option<Summary> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64);
    Some(Summary {
        median: num("median")?,
        min: num("min")?,
        max: num("max")?,
        q1: num("q1")?,
        q3: num("q3")?,
        reps: num("reps")? as usize,
    })
}

/// Compares two result documents; returns the report and whether any
/// pair regressed, any workload's failed fraction rose, or any match
/// quality (exact against ground truth) dropped.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads").map(|w| w.fields().to_vec()).ok_or("no \"workloads\" in document")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>6}  {:<23} {:<23} verdict\n",
        "workload", "metric", "a median", "b median", "b/a", "bound", "a [q1, q3]", "b [q1, q3]"
    );
    let mut bad = false;
    for (name, wa) in &wa {
        let Some((_, wb)) = wb.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("{name:<12} missing from b\n"));
            bad = true;
            continue;
        };
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, def.name), side(wb, def.name)) else {
                out.push_str(&format!("{name:<12} {:<14} missing\n", def.name));
                bad = true;
                continue;
            };
            let v = verdict(def, sa, sb);
            bad |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{name:<12} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {:<23} {:<23} {}\n",
                def.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                def.bound,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                v.as_str()
            ));
        }
        let frac = |w: &Json| w.get("failed_frac").and_then(Json::as_f64).unwrap_or(1.0);
        if frac(wb) > frac(wa) {
            out.push_str(&format!("{name:<12} failed_frac rose: {} -> {}\n", frac(wa), frac(wb)));
            bad = true;
        }
        for (metric, before) in wa.get("quality").map_or(&[][..], Json::fields) {
            let after = wb.get("quality").and_then(|q| q.get(metric)).and_then(Json::as_f64);
            let before = before.as_f64().unwrap_or(f64::NAN);
            if after.is_none_or(|after| after < before) {
                out.push_str(&format!("{name:<12} {metric} dropped: {before} -> {after:?}\n"));
                bad = true;
            }
        }
        let digest = |w: &Json| w.get("inputs_digest").and_then(Json::as_str).map(str::to_owned);
        if digest(wa) != digest(wb) {
            out.push_str(&format!(
                "{name:<12} inputs differ (seed or generators): not comparable\n"
            ));
            bad = true;
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef =
        MetricDef { name: "p50_us", unit: "us", better: Better::Lower, bound: 0.10 };
    const RATE: MetricDef =
        MetricDef { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.10 };

    /// A summary with the given median and quartiles.
    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, min: q1, max: q3, q1, q3, reps: 5 }
    }

    #[test]
    fn verdict_table() {
        // Tight spreads: the medians decide.
        assert_eq!(
            verdict(&LATENCY, s(100.0, 99.0, 101.0), s(80.0, 79.0, 81.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&LATENCY, s(100.0, 99.0, 101.0), s(104.0, 103.0, 105.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&LATENCY, s(100.0, 99.0, 101.0), s(120.0, 119.0, 121.0)),
            Verdict::Regressed
        );
        // Direction flips for a rate.
        assert_eq!(
            verdict(&RATE, s(100.0, 99.0, 101.0), s(120.0, 119.0, 121.0)),
            Verdict::Improved
        );
        assert_eq!(verdict(&RATE, s(100.0, 99.0, 101.0), s(80.0, 79.0, 81.0)), Verdict::Regressed);
        // Overlapping spreads wider than the bound: unresolved, whatever
        // the medians say.
        assert_eq!(
            verdict(&LATENCY, s(100.0, 90.0, 125.0), s(120.0, 95.0, 130.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LATENCY, s(100.0, 90.0, 125.0), s(101.0, 95.0, 130.0)),
            Verdict::Unresolved
        );
        // Wide but disjoint spreads: every run of b is worse than every
        // run of a, so the medians decide.
        assert_eq!(
            verdict(&LATENCY, s(100.0, 90.0, 105.0), s(130.0, 110.0, 150.0)),
            Verdict::Regressed
        );
        // Overlapping but tight (within the bound): decided.
        assert_eq!(
            verdict(&LATENCY, s(100.0, 98.0, 103.0), s(102.0, 99.0, 104.0)),
            Verdict::Unchanged
        );
    }

    fn doc(p50: (f64, f64, f64), failed_frac: f64) -> Json {
        doc_with_f1(p50, failed_frac, 0.9)
    }

    fn doc_with_f1(p50: (f64, f64, f64), failed_frac: f64, f1: f64) -> Json {
        let metric = |(median, q1, q3): (f64, f64, f64)| {
            Json::obj()
                .field("median", median)
                .field("min", q1)
                .field("max", q3)
                .field("q1", q1)
                .field("q3", q3)
                .field("reps", 5usize)
        };
        let mut e2e = Json::obj();
        for m in END_TO_END {
            e2e = e2e.field(m.name, metric(if m.name == "p50_us" { p50 } else { (1.0, 1.0, 1.0) }));
        }
        let workload = Json::obj()
            .field("inputs_digest", "00ff")
            .field("failed_frac", failed_frac)
            .field("quality", Json::obj().field("link_f1", f1))
            .field("end_to_end", e2e);
        Json::obj().field("workloads", Json::obj().field("wire_read", workload))
    }

    #[test]
    fn compare_flags_regressions_and_failure_rises() {
        let base = doc((100.0, 99.0, 101.0), 0.0);
        let (report, bad) = compare(&base, &doc((101.0, 100.0, 102.0), 0.0)).unwrap();
        assert!(!bad, "{report}");
        assert!(report.contains("unchanged") && !report.contains("regressed"));
        let (report, bad) = compare(&base, &doc((150.0, 149.0, 151.0), 0.0)).unwrap();
        assert!(bad && report.contains("regressed"));
        let (report, bad) = compare(&base, &doc((100.0, 99.0, 101.0), 0.01)).unwrap();
        assert!(bad && report.contains("failed_frac rose"));
        let (report, bad) = compare(&base, &doc_with_f1((100.0, 99.0, 101.0), 0.0, 0.89)).unwrap();
        assert!(bad && report.contains("link_f1 dropped"), "{report}");
        let (report, bad) = compare(&base, &doc_with_f1((100.0, 99.0, 101.0), 0.0, 0.91)).unwrap();
        assert!(!bad, "a rise in F1 is no failure: {report}");
        assert!(compare(&Json::obj(), &base).is_err());
    }
}
