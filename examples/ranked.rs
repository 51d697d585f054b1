//! Ranked matching: calibrated confidence on top of the boolean rules.
//!
//! MDs and RCKs decide *whether* a pair matches (the sound candidate
//! generator); the plan's `ScoreModel` — Fellegi–Sunter weights fitted
//! by EM on a sample of the data at compile time — says *how strongly*,
//! as a posterior match probability in `[0, 1]`. `query_ranked` returns
//! exactly the boolean hit set, scored and sorted; `dedup_resolved`
//! replaces transitive closure with a one-to-one assignment over the
//! scored pairs. Run with:
//!
//! ```sh
//! cargo run --release --example ranked
//! ```

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::engine::Preset;
use matchrules::server::MatchServer;
use matchrules::service::{Record, RecordId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The §6 synthetic catalog: credit records probe a billing store.
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        300,
        &NoiseConfig { seed: 0xBEEF, ..Default::default() },
    );

    // `statistics_from` keeps a bounded sample of both relations, so
    // compile() fits the score model next to the cost model — swap-safe
    // and deterministic.
    let engine =
        Preset::Extended.builder().top_k(5).statistics_from(&data.credit, &data.billing).build()?;
    println!(
        "score model: {} agreement features, fitted = {}\n",
        engine.plan().score_model().atoms().len(),
        engine.plan().score_model().is_fitted(),
    );

    // Serve the billing side (one bulk load), then rank a few credit
    // probes.
    let server = MatchServer::new(engine);
    let mut batch = Vec::with_capacity(data.billing.len());
    for t in data.billing.tuples() {
        let record = Record::from_values(server.store_schema(), t.values().to_vec())?;
        batch.push((RecordId(t.id()), record));
    }
    server.upsert_batch(&batch)?;

    let mut shown = 0;
    for t in data.credit.tuples() {
        let probe = Record::from_values(server.probe_schema(), t.values().to_vec())?;
        let ranked = server.query_ranked(&probe, 3, 0.0)?;
        if ranked.hits.len() < 2 {
            continue;
        }
        println!("probe #{} -> {} hits (best 3, {}):", t.id(), ranked.hits.len(), ranked.version);
        for hit in &ranked.hits {
            println!("  {}  score {:.4}  via RCK {}", hit.id, hit.score, hit.key);
        }
        shown += 1;
        if shown == 3 {
            break;
        }
    }

    // One-to-one dedup: same boolean pairs, but each record ends up in
    // at most one link — the highest-scoring consistent assignment
    // instead of a transitive-closure cluster.
    let billing_schema = shape.pair.right().as_ref().clone();
    let dedup_engine = matchrules::engine::EngineBuilder::new()
        .dedup_schema(billing_schema)
        .md_text(
            "billing[phn] = billing[phn] /\\ billing[LN] ~d billing[LN] -> \
             billing[FN,LN,phn] <=> billing[FN,LN,phn]\n\
             billing[email] = billing[email] /\\ billing[zip] = billing[zip] -> \
             billing[FN,LN,phn] <=> billing[FN,LN,phn]\n",
        )
        .target(&["FN", "LN", "phn"], &["FN", "LN", "phn"])
        .build()?;
    let resolved = dedup_engine.dedup_resolved(&data.billing, 0.5)?;
    println!(
        "\ndedup: {} rule-matched pairs resolved to {} one-to-one links (min score 0.5)",
        resolved.report.pairs().len(),
        resolved.links.len(),
    );
    for link in resolved.links.iter().take(5) {
        println!("  #{} <-> #{}  score {:.4}", link.left_id, link.right_id, link.score);
    }
    Ok(())
}
