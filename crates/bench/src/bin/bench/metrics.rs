//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` states the same
//! lists; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the builder contract
/// compares each metric on each workload), so each is defined for all
/// seven; what "one op" is per workload is in [`WORKLOADS`]' `op`.
///
/// The bounds are set by the machine, not by ambition: on the shared
/// 2-thread sandbox this was sized on, ten runs of one workload spread
/// (interquartile range / median) 3-6% in quiet stretches and 7-17% in
/// noisy ones — single-threaded, CPU-bound `reason_rcks` included — so a
/// tighter bound would reject the benchmark against itself.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Layer metrics of the traced pass, `<module>.<metric>`. A workload
/// that does not cross a layer reports it as absent (`null` in the
/// result document, `0` on the contract line, which has no nulls).
pub const PER_LAYER: &[MetricDef] = &[
    // Per-class latencies behind the end-to-end numbers.
    layer("op.read_p50_us", "us", Lower),
    layer("op.read_p99_us", "us", Lower),
    layer("op.ranked_p50_us", "us", Lower),
    layer("op.write_p50_us", "us", Lower),
    layer("op.write_p90_us", "us", Lower),
    layer("op.swap_p50_ms", "ms", Lower),
    layer("op.indexed_rows_per_s", "1/s", Higher),
    layer("op.failed_frac", "ratio", Lower),
    layer("op.cpu_us_per_op", "us", Lower),
    layer("quality.link_f1", "ratio", Higher),
    layer("quality.indexed_f1", "ratio", Higher),
    // server::net and server::wire (wire_read only).
    layer("server.net.self_us", "us", Lower),
    layer("server.net.connect_us", "us", Lower),
    layer("server.wire.encode_req_us", "us", Lower),
    layer("server.wire.decode_req_us", "us", Lower),
    layer("server.wire.encode_resp_us", "us", Lower),
    layer("server.wire.decode_resp_us", "us", Lower),
    layer("server.wire.req_bytes", "B", Lower),
    layer("server.wire.resp_bytes", "B", Lower),
    // server::core.
    layer("server.core.query_us", "us", Lower),
    layer("server.core.self_us", "us", Lower),
    layer("server.core.fanout_ratio", "ratio", Lower),
    layer("server.core.upsert_us", "us", Lower),
    layer("server.core.remove_us", "us", Lower),
    layer("server.core.bulk_load_records_per_s", "1/s", Higher),
    layer("server.core.swap_s", "s", Lower),
    layer("server.core.reads_in_swap", "count", Higher),
    layer("server.core.read_p99_in_swap_us", "us", Lower),
    // server::cache (mixed_rw only; off elsewhere).
    layer("server.cache.hit_frac", "ratio", Higher),
    layer("server.cache.hit_us", "us", Lower),
    layer("server.cache.miss_us", "us", Lower),
    layer("server.cache.invalidations_per_write", "count", Lower),
    // engine, matcher::index, matcher::postings, matcher::scoring.
    layer("engine.compile_ms", "ms", Lower),
    layer("matcher.index.build_s", "s", Lower),
    layer("matcher.index.retrieve_us", "us", Lower),
    layer("matcher.index.query_us", "us", Lower),
    layer("matcher.index.verify_us", "us", Lower),
    layer("matcher.index.candidates_per_query", "count", Lower),
    layer("matcher.index.hits_per_candidate", "ratio", Higher),
    layer("matcher.index.gallop_steps_per_query", "count", Lower),
    layer("matcher.index.retrieval_rejects_per_query", "count", Higher),
    layer("matcher.postings.blocks_decoded_per_query", "count", Lower),
    layer("matcher.postings.blocks_skipped_frac", "ratio", Higher),
    layer("matcher.postings.bytes_per_record", "B", Lower),
    layer("matcher.scoring.ranked_extra_us", "us", Lower),
    // The batch pipeline (batch_link only).
    layer("matcher.windowing.window_s", "s", Lower),
    layer("matcher.windowing.candidates", "count", Lower),
    layer("data.prep.prep_s", "s", Lower),
    layer("matcher.key.verify_s", "s", Lower),
    layer("matcher.key.pairs_verified", "count", Lower),
    layer("simdist.kernels.dp_runs", "count", Lower),
    layer("simdist.kernels.filter_reject_frac", "ratio", Higher),
    layer("simdist.kernels.equal_fast_frac", "ratio", Higher),
    layer("runtime.pool.speedup_t", "ratio", Higher),
    // Reasoning (reason_rcks; compile/parse also on rule_swap).
    layer("core.rck.findrcks_ms", "ms", Lower),
    layer("core.rck.keys_found", "count", Higher),
    layer("core.closure.closure_us", "us", Lower),
    layer("core.parser.parse_us", "us", Lower),
    // Informational.
    layer("refine.run_s", "s", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What one op is: the unit of `ops_per_s` and `p50_us`.
    pub op: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "wire_read",
        why: "TCP loopback queries from T blocking clients, inline executor: the only workload \
              crossing server::net and server::wire, about half its latency",
        op: "one Request::Query round trip through MatchClient",
    },
    WorkloadDef {
        name: "big_read",
        why: "in-process queries on a 4x larger store, T shards visited in turn on the calling \
              thread (inline executor): retrieval-dominated, bypasses wire/net",
        op: "one MatchServer::query",
    },
    WorkloadDef {
        name: "names_batch",
        why: "query_batch(64) on the names plan, inline executor: derived/token/char-bag anchors, \
              almost no q-gram postings, the batched entry point",
        op: "one probe (ops_per_s); one 64-probe query_batch call (p50_us)",
    },
    WorkloadDef {
        name: "mixed_rw",
        why: "49% query, 49% query_ranked, 2% upsert/remove, skewed probes, cache on, T shards, \
              inline executor: shard-clone writes, cache invalidation and scoring live only here",
        op: "one read, ranked read or write of the mix",
    },
    WorkloadDef {
        name: "rule_swap",
        why: "a reader querying (inline executor) while a control thread calls swap_rules every \
              250 ms: compile + per-shard rebuild + publish under load, zero-downtime reads",
        op: "one reader MatchServer::query",
    },
    WorkloadDef {
        name: "batch_link",
        why: "the paper's batch pipeline (window, prep, kernel verify) next to the indexed path, \
              timed on one thread (pool speed-up is per-layer); no serving code; F1 pinned",
        op: "one input row linked, window and indexed path together (ops_per_s); one \
             match_pairs call (p50_us)",
    },
    WorkloadDef {
        name: "reason_rcks",
        why: "find_rcks over random MD sets (Fig. 8) plus Extended compiles: pure core, \
              isolated from every matching change",
        op: "one find_rcks(card 2000, |Y| 12, m 20) call",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Get, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` at the repository root must state exactly the
    /// lists above, within the builder contract's limits.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} is not a list: {other:?}"),
        };
        let text_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (stated, def) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(stated, "name"), def.name);
            let why = text_of(stated, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{}: why too long", def.name);
            assert_eq!(stated.fields().len(), 2);
        }
        for (key, defs, bounded) in
            [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
        {
            let stated = list(key);
            assert_eq!(stated.len(), defs.len(), "{key} length");
            for (s, def) in stated.iter().zip(defs) {
                assert_eq!(text_of(s, "name"), def.name);
                assert_eq!(text_of(s, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(s, "better"), def.better.as_str(), "{}", def.name);
                assert!(valid_name(def.name), "{}", def.name);
                assert!(def.unit.len() <= 16);
                if bounded {
                    let bound = s.get("bound").and_then(Json::as_f64).unwrap();
                    assert_eq!(bound, def.bound, "{}", def.name);
                    assert!(bound <= 0.25);
                } else {
                    assert_eq!(s.fields().len(), 3);
                }
            }
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used once");
    }
}
