//! Refining rules against labeled data: dirty data → labels → candidate
//! pool → θ-tuned selection → zero-downtime swap.
//!
//! A server starts from a deliberately weak rule set (one exact key,
//! one over-strict fuzzy key), a labeled sample generated from the §6.2
//! noise ladder's ground truth is submitted to it, and one `refine`
//! call runs the loop — mine candidates, sweep every fuzzy atom over a
//! θ grid, evaluate each candidate through the indexed engine, greedily
//! select the F1-maximizing subset — and hot-swaps the selection into
//! the running server. Run with:
//!
//! ```sh
//! cargo run --release --example refine
//! ```

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::engine::{EngineBuilder, Preset};
use matchrules::refine::{CandidateOrigin, LabelStore};
use matchrules::server::MatchServer;
use matchrules::service::{Record, RecordId};

/// One exact key plus one over-strict fuzzy key (`≈jw` is registered at
/// θ = 0.90) — plenty of headroom for refinement to claw back recall
/// with looser θ-sweep variants.
const WEAK_RULES: &str = "\
    credit[email] = billing[email] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n\
    credit[LN] ~jw billing[LN] /\\ credit[FN] ~jw billing[FN] -> \
    credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
    billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]\n";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Dirty credit/billing data with known ground truth (§6.2 ladder).
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(
        &shape.pair,
        &shape.target,
        80,
        &NoiseConfig { seed: 0x5EED_0F1E, ..NoiseConfig::default() },
    );

    // A server running the weak rules over the billing store.
    let engine = EngineBuilder::new()
        .schema_pair(shape.pair)
        .md_text(WEAK_RULES)
        .target_ids(shape.target)
        .statistics_from(&data.credit, &data.billing)
        .build()?;
    let server = MatchServer::new(engine);
    let mut batch = Vec::with_capacity(data.billing.len());
    for t in data.billing.tuples() {
        let record = Record::from_values(server.store_schema(), t.values().to_vec())?;
        batch.push((RecordId(t.id()), record));
    }
    server.upsert_batch(&batch)?;
    println!("serving {} with {} rules\n", server.version(), server.plan().sigma().len());

    // The ground truth doubles as a labeled-data factory: every true
    // pair positive, two deterministic negatives per positive.
    let labels = LabelStore::from_truth(&data.credit, &data.billing, &data.truth, 2)?;
    let pairs: Vec<(Record, Record, bool)> =
        labels.pairs().iter().map(|p| (p.left.clone(), p.right.clone(), p.is_match)).collect();
    let summary = server.submit_labels(&pairs)?;
    println!(
        "labeled sample: {} pairs ({} positive, {} negative)",
        summary.total, summary.positives, summary.negatives
    );

    // Mine candidates from the labels, θ-sweep every fuzzy atom,
    // evaluate through the indexed engine, select greedily on F1 — and
    // hot-swap the selection in: same store, bumped version, extended
    // operator world.
    let (version, report) = server.refine(1.0)?;

    println!(
        "\npool: {} candidates ({} selection)",
        report.pool_size,
        if report.exhaustive { "exhaustive" } else { "greedy" }
    );
    println!(
        "before: P={:.3} R={:.3} F1={:.3}",
        report.before.precision(),
        report.before.recall(),
        report.before.f1()
    );
    println!(
        "after:  P={:.3} R={:.3} F1={:.3}",
        report.after.precision(),
        report.after.recall(),
        report.after.f1()
    );

    println!("\nselected rules:");
    for rule in &report.selected {
        let origin = match &rule.origin {
            CandidateOrigin::Seed => "seed".to_owned(),
            CandidateOrigin::Discovered { support, confidence } => {
                format!("mined (support {support}, confidence {confidence:.2})")
            }
            CandidateOrigin::ThetaSweep { theta, .. } => format!("θ-sweep @ {theta:.2}"),
        };
        println!("  [{origin}] gain {:+.3}  {}", rule.marginal_gain, rule.rendered);
    }
    if !report.chosen_thetas.is_empty() {
        println!("\nchosen thresholds:");
        for (atom, theta) in &report.chosen_thetas {
            println!("  {atom}  (θ = {theta:.2})");
        }
    }

    println!("\nswapped to {version} with {} rules", report.selected.len());

    // The refined rules serve immediately.
    let probe =
        Record::from_values(server.probe_schema(), data.credit.tuples()[0].values().to_vec())?;
    let answer = server.query(&probe)?;
    println!("probe #0 matches {} stored records at {}", answer.hits.len(), answer.version);
    Ok(())
}
