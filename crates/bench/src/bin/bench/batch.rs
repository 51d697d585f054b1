//! The two fixed-work workloads: `batch_link` (the paper's batch
//! pipeline, window path next to the indexed path) and `reason_rcks`
//! (findRCKs over random MD sets, Fig. 8, plus Extended compiles).

use crate::harness::{
    execute, repetition, set_layers, warm_up, Ctx, Layers, Rep, WindowOut, Workload,
    WorkloadResult, INLINE,
};
use crate::inputs::{
    digest_relation, extended_data, extended_engine, extended_shape, prefix, RULES_A,
};
use crate::stats::Digest;
use crate::trace::Tracer;
use matchrules::core::closure::Closure;
use matchrules::core::cost::CostModel;
use matchrules::core::deduction::deduces;
use matchrules::core::rck::find_rcks;
use matchrules::data::mdgen::{generate, GeneratedSetting, MdGenConfig};
use matchrules::engine::{ExecConfig, MatchReport, Preset};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// batch_link
// ---------------------------------------------------------------------

const LINK_PERSONS: usize = 8_000;
/// `(link_f1, indexed_f1)` against the generator's ground truth at
/// [`crate::PINNED_SEED`]: a change that moves which pairs either path
/// links fails the gate here instead of passing as a speed-up.
const PINNED_F1: (f64, f64) = (0.8473492868842635, 0.8692006269592478);
/// Left rows whose indexed matches are checked against `match_all`.
const LINK_ORACLE_ROWS: usize = 128;

fn pair_set(report: &MatchReport) -> BTreeSet<(usize, usize, usize)> {
    report.pairs().iter().map(|p| (p.left, p.right, p.key)).collect()
}

pub fn batch_link(ctx: &Ctx) -> WorkloadResult {
    let shape = extended_shape();
    let data = extended_data(&shape, LINK_PERSONS, ctx.seed);
    let (credit, billing) = (&data.credit, &data.billing);
    let rows = (credit.len() + billing.len()) as f64;
    let mut d = Digest::default();
    digest_relation(&mut d, credit);
    digest_relation(&mut d, billing);
    // Window runs per repetition; one indexed run rides along, so both
    // paths weigh on `ops_per_s`.
    let window_runs = ctx.fixed_work(3.0, 1);

    // Gate: the indexed path equals the nested loop on a row sample, and
    // contains every pair the (lossy by design) window path finds. This
    // engine runs the `T`-thread pool (untimed here, and the parallel side
    // of `runtime.pool.speedup_t`); the timed repetitions run [`INLINE`].
    let engine = extended_engine(&shape, &data, ctx.threads);
    let windowed = engine.match_pairs(credit, billing).expect("schemas match");
    let indexed = engine.match_pairs_indexed(credit, billing).expect("schemas match");
    let (link_f1, indexed_f1) = (windowed.score(&data.truth).f1(), indexed.score(&data.truth).f1());
    let gate = (|| {
        if ctx.seed == crate::PINNED_SEED && (link_f1, indexed_f1) != PINNED_F1 {
            return Err(format!(
                "F1 {link_f1:?} / {indexed_f1:?} != pinned {:?} / {:?}: match quality changed",
                PINNED_F1.0, PINNED_F1.1
            ));
        }
        let sample = prefix(credit, LINK_ORACLE_ROWS);
        let oracle = pair_set(&engine.match_all(&sample, billing).map_err(|e| e.to_string())?);
        let indexed_pairs = pair_set(&indexed);
        let on_sample: BTreeSet<_> =
            indexed_pairs.iter().filter(|p| p.0 < sample.len()).copied().collect();
        if on_sample != oracle {
            return Err(format!(
                "indexed path found {} pairs on the sample, match_all {}",
                on_sample.len(),
                oracle.len()
            ));
        }
        let missed = pair_set(&windowed).difference(&indexed_pairs).count();
        if missed > 0 {
            return Err(format!("{missed} window-path pairs are missing from the indexed path"));
        }
        Ok(format!(
            "indexed == match_all on {} rows ({} pairs); window ⊆ indexed; F1 {link_f1:?} / {indexed_f1:?}",
            sample.len(),
            oracle.len()
        ))
    })();
    let expected = (windowed.len(), indexed.len());

    let (warm_left, warm_right) =
        (prefix(credit, credit.len() / 10), prefix(billing, billing.len() / 10));
    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let engine = extended_engine(&shape, &data, INLINE);
                warm_up(|_| {
                    engine.match_pairs(&warm_left, &warm_right).expect("schemas match");
                });
                engine
            },
            |engine, t| {
                let mut out = WindowOut::default();
                for run in 0..window_runs as u64 {
                    let report = t.time("engine.match_pairs", run, None, || {
                        engine.match_pairs(credit, billing)
                    });
                    out.failed += !report.is_ok_and(|r| r.len() == expected.0) as u64;
                }
                let report = t.time("engine.match_pairs_indexed", 0, None, || {
                    engine.match_pairs_indexed(credit, billing)
                });
                out.failed += !report.is_ok_and(|r| r.len() == expected.1) as u64;
                out.attempted = window_runs as u64 + 1;
                out.ops = rows * (out.attempted - out.failed) as f64;
                out
            },
        )
    };
    let layers = |_untraced: &Rep, traced: &Rep, table: &mut Layers, t: &mut Tracer| {
        let stage = |report: &MatchReport, name: &str| {
            report.stages().iter().find(|s| s.name == name).map_or(0.0, |s| s.elapsed.as_secs_f64())
        };
        let filters = windowed.filter_stats();
        let evaluations = filters.evaluations().max(1) as f64;
        let indexed_us = traced.tracer.median_us("engine.match_pairs_indexed").expect("ran");
        set_layers(
            table,
            &[
                ("quality.link_f1", link_f1),
                ("quality.indexed_f1", indexed_f1),
                ("op.indexed_rows_per_s", rows / (indexed_us / 1e6)),
                ("matcher.windowing.window_s", stage(&windowed, "window")),
                ("matcher.windowing.candidates", windowed.candidates() as f64),
                ("data.prep.prep_s", stage(&windowed, "prep")),
                ("matcher.key.verify_s", stage(&windowed, "match")),
                ("matcher.key.pairs_verified", windowed.comparisons() as f64),
                ("simdist.kernels.dp_runs", filters.dp_runs as f64),
                ("simdist.kernels.filter_reject_frac", filters.rejected() as f64 / evaluations),
                ("simdist.kernels.equal_fast_frac", filters.equal_fast as f64 / evaluations),
                ("matcher.index.build_s", stage(&indexed, "index")),
                ("matcher.index.retrieve_us", stage(&indexed, "probe") * 1e6 / credit.len() as f64),
                (
                    "matcher.index.candidates_per_query",
                    indexed.candidates() as f64 / credit.len() as f64,
                ),
                (
                    "matcher.index.hits_per_candidate",
                    indexed.len() as f64 / indexed.candidates().max(1) as f64,
                ),
            ],
        );
        // With one hardware thread there is no parallel run to compare
        // against: the metric stays absent instead of reading 1.0.
        if ctx.threads > 1 {
            let serial = engine.with_exec(ExecConfig::serial());
            for run in 0..3 {
                t.time("runtime.pool.serial", run, None, || serial.match_pairs(credit, billing))
                    .expect("schemas match");
                t.time("runtime.pool.parallel", run, None, || engine.match_pairs(credit, billing))
                    .expect("schemas match");
            }
            let speedup = t.median_us("runtime.pool.serial").expect("ran")
                / t.median_us("runtime.pool.parallel").expect("ran");
            set_layers(table, &[("runtime.pool.speedup_t", speedup)]);
        }
        // One match_pairs call = window + prep + verify stages.
        let staged =
            stage(&windowed, "window") + stage(&windowed, "prep") + stage(&windowed, "match");
        set_layers(
            table,
            &[("trace.unattributed_frac", 1.0 - staged / windowed.elapsed().as_secs_f64())],
        );
    };
    execute(
        ctx,
        Workload {
            name: "batch_link",
            inputs_digest: d.finish(),
            config: vec![
                ("left_rows", credit.len() as f64),
                ("right_rows", billing.len() as f64),
                ("threads", INLINE as f64),
                ("window_runs_per_rep", window_runs as f64),
                ("indexed_runs_per_rep", 1.0),
            ],
            primary: "engine.match_pairs",
            quality: vec![("link_f1", link_f1), ("indexed_f1", indexed_f1)],
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}

// ---------------------------------------------------------------------
// reason_rcks
// ---------------------------------------------------------------------

const CARD: usize = 2_000;
const Y_LEN: usize = 12;
const M: usize = 20;

fn digest_setting(d: &mut Digest, setting: &GeneratedSetting) {
    d.word(setting.sigma.len() as u64);
    for md in &setting.sigma {
        d.word(md.lhs().len() as u64);
        for atom in md.lhs() {
            d.word(atom.left as u64);
            d.word(atom.right as u64);
            d.word(atom.op.0 as u64);
        }
        for ident in md.rhs() {
            d.word(ident.left as u64);
            d.word(ident.right as u64);
        }
    }
    for (&l, &r) in setting.target.y1().iter().zip(setting.target.y2()) {
        d.word(l as u64);
        d.word(r as u64);
    }
}

/// `core::parser` from outside: the Extended preset's seven MDs parsed
/// from text, as every `swap_rules` call does.
pub fn parser_layer(table: &mut Layers, t: &mut Tracer) {
    let shape = extended_shape();
    for op in 0..50 {
        t.time("core.parser.parse", op, None, || {
            let mut ops = shape.ops.clone();
            matchrules::core::parser::parse_md_set(RULES_A, &shape.pair, &mut ops)
                .expect("rules parse")
        });
    }
    set_layers(table, &[("core.parser.parse_us", t.median_us("core.parser.parse").expect("ran"))]);
}

pub fn reason_rcks(ctx: &Ctx) -> WorkloadResult {
    let calls = ctx.fixed_work(10.0, 5);
    let settings_for = || -> Vec<GeneratedSetting> {
        (0..calls as u64)
            .map(|i| generate(&MdGenConfig::fig8(CARD, Y_LEN, ctx.seed.wrapping_add(i))))
            .collect()
    };
    let settings = settings_for();
    let mut d = Digest::default();
    settings.iter().for_each(|s| digest_setting(&mut d, s));
    d.text(Some(RULES_A));

    // Gate: every key findRCKs returns on the first MD set is a key by
    // the independent deduction check, and the counts repeat exactly.
    let run = |s: &GeneratedSetting| find_rcks(&s.sigma, &s.target, M, &mut CostModel::uniform());
    let keys_found: Vec<usize> = settings.iter().map(|s| run(s).keys.len()).collect();
    let first = run(&settings[0]);
    let gate = match first
        .keys
        .iter()
        .position(|k| !deduces(&settings[0].sigma, &k.to_md(&settings[0].target)))
    {
        Some(bad) => Err(format!("key {bad} of MD set 0 does not deduce the target")),
        None => Ok(format!(
            "{} keys of MD set 0 deduce the target; {} keys over {calls} sets",
            first.keys.len(),
            keys_found.iter().sum::<usize>()
        )),
    };
    let compile = || Preset::Extended.builder().top_k(5).compile();
    let extended_keys = compile().expect("the Extended preset compiles").rcks().len();

    let rep = |traced: bool| {
        repetition(
            traced,
            || {
                let settings = settings_for();
                warm_up(|_| {
                    std::hint::black_box(run(&settings[0]));
                });
                settings
            },
            |settings, t| {
                let mut out = WindowOut::default();
                for (i, s) in settings.iter().enumerate() {
                    let outcome = t.time("core.rck.find_rcks", i as u64, None, || run(s));
                    out.failed += (outcome.keys.len() != keys_found[i]) as u64;
                }
                for i in 0..calls as u64 {
                    let plan = t.time("engine.compile", i, None, compile);
                    out.failed += !plan.is_ok_and(|p| p.rcks().len() == extended_keys) as u64;
                }
                out.attempted = 2 * calls as u64;
                // Ops are find_rcks calls; the compiles ride in the window.
                out.ops = (calls as u64).saturating_sub(out.failed) as f64;
                out
            },
        )
    };
    let layers = |untraced: &Rep, traced: &Rep, table: &mut Layers, t: &mut Tracer| {
        let s = &settings[0];
        for (i, key) in first.keys.iter().enumerate() {
            t.time("core.closure", i as u64, None, || Closure::compute(&s.sigma, key.atoms(), &[]));
        }
        parser_layer(table, t);
        let findrcks_us = traced.tracer.median_us("core.rck.find_rcks").expect("ran");
        set_layers(
            table,
            &[
                ("core.rck.findrcks_ms", findrcks_us / 1e3),
                ("core.rck.keys_found", keys_found.iter().sum::<usize>() as f64),
                ("core.closure.closure_us", t.median_us("core.closure").expect("ran")),
                (
                    "engine.compile_ms",
                    traced.tracer.median_us("engine.compile").expect("ran") / 1e3,
                ),
            ],
        );
        // The op is one find_rcks call and nothing else.
        let p50 = untraced.tracer.median_us("core.rck.find_rcks").expect("ran");
        set_layers(table, &[("trace.unattributed_frac", 1.0 - findrcks_us / p50)]);
    };
    execute(
        ctx,
        Workload {
            name: "reason_rcks",
            inputs_digest: d.finish(),
            config: vec![
                ("find_rcks_calls_per_rep", calls as f64),
                ("compiles_per_rep", calls as f64),
                ("card", CARD as f64),
                ("y_len", Y_LEN as f64),
                ("m", M as f64),
            ],
            primary: "core.rck.find_rcks",
            quality: Vec::new(),
            gate,
            rep: &rep,
            layers: &layers,
        },
    )
}
