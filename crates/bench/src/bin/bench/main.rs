//! `bench`: the one benchmark of the whole system.
//!
//! ```text
//! bench run <workload|all> [--seed <u64>] [--seconds <s>] [--traced] [--out <file>]
//! bench compare <a.json> <b.json>
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>     (builder contract)
//! ```
//!
//! See `README.md` beside this file for the workloads, the metrics and
//! how the layers are expected to move them.

mod batch;
mod harness;
mod inputs;
mod json;
mod metrics;
mod report;
mod serving;
mod stats;
mod trace;

use harness::{Ctx, WorkloadResult};
use json::{Get, Json};
use metrics::WORKLOADS;
use std::process::ExitCode;

/// The seed the committed baseline and the pinned digests belong to.
const PINNED_SEED: u64 = 0x5EA7;

/// `inputs_digest` per workload at [`PINNED_SEED`]: a later edit to a
/// library generator that changes a workload's inputs fails here, loudly,
/// instead of silently moving every number.
const PINNED_DIGESTS: [(&str, u64); 7] = [
    ("wire_read", 0x011d_6df8_e02d_9408),
    ("big_read", 0x891f_9e4f_2201_1b63),
    ("names_batch", 0xe1fe_1b99_e66e_17bd),
    ("mixed_rw", 0x011d_6df8_e02d_9408),
    ("rule_swap", 0x011d_6df8_e02d_9408),
    ("batch_link", 0x297f_93e7_3ffb_9730),
    ("reason_rcks", 0xe852_2649_6104_9a44),
];

/// Timed seconds per workload when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

fn run_workload(name: &str, ctx: &Ctx) -> Option<WorkloadResult> {
    let mut result = match name {
        "wire_read" => serving::wire_read(ctx),
        "big_read" => serving::big_read(ctx),
        "names_batch" => serving::names_batch(ctx),
        "mixed_rw" => serving::mixed_rw(ctx),
        "rule_swap" => serving::rule_swap(ctx),
        "batch_link" => batch::batch_link(ctx),
        "reason_rcks" => batch::reason_rcks(ctx),
        _ => return None,
    };
    // Fixed-work workloads size their inputs from `--seconds`, so the
    // pins hold at the default run length only.
    if ctx.seed == PINNED_SEED && ctx.seconds == DEFAULT_SECONDS {
        let pinned =
            PINNED_DIGESTS.iter().find(|(n, _)| *n == name).expect("every workload is pinned").1;
        if pinned != result.inputs_digest {
            result.gate_ok = false;
            result.gate_note = format!(
                "inputs_digest {:016x} != pinned {pinned:016x}: the generated inputs changed",
                result.inputs_digest
            );
        }
    }
    Some(result)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// `--flag value` options after the positional arguments.
struct Options {
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    workload: Option<String>,
}

fn options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        workload: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                o.seed = parse_u64(value()?).ok_or("--seed takes a u64 (decimal or 0x hex)")?
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--traced" => o.traced = true,
            "--trace" => o.traced = value()? == "1",
            "--out" => o.out = Some(value()?.clone()),
            "--workload" => o.workload = Some(value()?.clone()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn ctx_of(o: &Options) -> Ctx {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    Ctx { seed: o.seed, seconds: o.seconds, traced: o.traced, threads }
}

fn run(name: &str, o: &Options) -> Result<bool, String> {
    if name == "all" {
        return run_all(o);
    }
    let ctx = ctx_of(o);
    let result = run_workload(name, &ctx).ok_or(format!("unknown workload {name}"))?;
    report::print_workload(&result);
    let doc = report::document(&ctx, std::slice::from_ref(&result));
    match &o.out {
        Some(path) => {
            std::fs::write(path, json::pretty(&doc)).map_err(|e| format!("{path}: {e}"))?;
            println!("\nwrote {path}");
            if let Some(tracer) = &result.spans {
                let spans = format!("{path}.spans.jsonl");
                std::fs::write(&spans, tracer.json_lines()).map_err(|e| format!("{spans}: {e}"))?;
                println!("wrote {spans}");
            }
        }
        None => println!("\n{doc}"),
    }
    Ok(result.correct())
}

/// `run all`: one child process per workload, so each reports its own
/// peak RSS and starts from a fresh heap — exactly how the builder
/// contract runs them. With `--out` the children's documents (and span
/// files) are merged into one.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut parts = Vec::new();
    for w in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args([
            "run",
            w.name,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ]);
        if o.traced {
            child.arg("--traced");
        }
        if let Some(out) = &o.out {
            parts.push(format!("{out}.{}", w.name));
            child.args(["--out", &parts[parts.len() - 1]]);
        }
        let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    let Some(out) = &o.out else { return Ok(all_correct) };
    let (mut merged, mut workloads, mut spans) = (None, Vec::new(), String::new());
    for part in &parts {
        let text = std::fs::read_to_string(part).map_err(|e| format!("{part}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
        workloads.extend_from_slice(doc.get("workloads").map_or(&[][..], Json::fields));
        merged.get_or_insert(doc);
        let part_spans = format!("{part}.spans.jsonl");
        if let Ok(lines) = std::fs::read_to_string(&part_spans) {
            spans.push_str(&lines);
            let _ = std::fs::remove_file(&part_spans);
        }
        let _ = std::fs::remove_file(part);
    }
    let first = merged.ok_or("no workload ran")?;
    let fields = first.fields().iter().filter(|(k, _)| k != "workloads").cloned();
    let doc = Json::Obj(fields.chain([("workloads".to_owned(), Json::Obj(workloads))]).collect());
    std::fs::write(out, json::pretty(&doc)).map_err(|e| format!("{out}: {e}"))?;
    println!("\nwrote {out}");
    if !spans.is_empty() {
        let path = format!("{out}.spans.jsonl");
        std::fs::write(&path, spans).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn contract(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().expect("contract mode names a workload");
    let ctx = ctx_of(o);
    let result = run_workload(name, &ctx).ok_or(format!("unknown workload {name}"))?;
    if !result.correct() {
        eprintln!(
            "{name}: {} ({} of {} failed)",
            result.gate_note, result.failed, result.attempted
        );
    }
    println!("{}", report::contract_line(&result, ctx.traced));
    Ok(result.correct())
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, bad) = report::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") if args.len() >= 2 => options(&args[2..]).and_then(|o| run(&args[1], &o)),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some(flag) if flag.starts_with("--") => {
            options(&args).and_then(|o| if o.workload.is_some() { contract(&o) } else { Err("--workload is required".into()) })
        }
        _ => Err("usage: bench run <workload|all> [--seed N] [--seconds S] [--traced] [--out FILE]\n       \
                  bench compare <a.json> <b.json>\n       \
                  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            .to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
