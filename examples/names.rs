//! Person-name matching on fully indexable fuzzy operators.
//!
//! Name rules are where naive indexing falls over: a first-name typo
//! defeats equality, a re-spelled surname defeats sorting, and a city
//! with its words shuffled defeats both. This example compiles a rule
//! set whose every atom is fuzzy — jaro-winkler on first names, soundex
//! on surnames, token-set similarity on cities — and shows that the
//! `MatchIndex` still serves it with **zero scan-fallback keys**: each
//! operator declares its own class (`OpClass`), so jaro-winkler probes
//! postings of its sorted-character prefix, soundex probes posting lists
//! of phonetic codes, and the token atom probes word posting lists. Run
//! with:
//!
//! ```sh
//! cargo run --release --example names
//! ```

use matchrules::core::schema::{AttrKind, Schema};
use matchrules::data::relation::Relation;
use matchrules::engine::EngineBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let roster = Schema::kinded(
        "roster",
        &[
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("city", AttrKind::City),
            ("phone", AttrKind::Phone),
        ],
    )?;
    let signup = Schema::kinded(
        "signup",
        &[
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("city", AttrKind::City),
            ("phone", AttrKind::Phone),
        ],
    )?;

    // Two rules: the fully fuzzy name rule, and a phone + surname
    // tie-breaker. `~jw` is jaro-winkler (≥ 0.9), `~sx` compares
    // soundex codes, `~tok` is token-set Jaccard (≥ 0.5).
    let engine = EngineBuilder::new()
        .schemas(roster, signup)
        .md_text(
            "roster[first] ~jw signup[first] /\\ roster[last] ~sx signup[last] /\\ \
             roster[city] ~tok signup[city] -> \
             roster[first,last,city] <=> signup[first,last,city]\n\
             roster[phone] = signup[phone] /\\ roster[last] ~sx signup[last] -> \
             roster[first,last,city] <=> signup[first,last,city]\n",
        )
        .target(&["first", "last", "city"], &["first", "last", "city"])
        .build()?;
    // The plan report names each key's anchors; none may read "none".
    println!("{}", engine.plan().describe());
    assert!(engine.plan().fully_indexable(), "every atom must be index-ready");

    // The signup book we serve lookups against: typos, phonetic
    // re-spellings and shuffled city words throughout.
    let mut signups = Relation::new(engine.plan().pair().right().clone());
    signups.push_strs(1, &["Robret", "Smith", "New York", "212-5550101"]); // transposed
    signups.push_strs(2, &["Catherine", "Smyth", "York New", "212-5550101"]); // re-spelled
    signups.push_strs(3, &["Robert", "Schmidt", "Boston", "617-5550199"]);
    signups.push_strs(4, &["Roberta", "Smith", "New York", "212-5559999"]);

    let index = engine.index(&signups)?;
    let stats = index.stats();
    println!(
        "index over {} signups: {} key + {} element anchors, {} scan keys\n",
        stats.live, stats.key_anchors, stats.element_anchors, stats.scan_keys
    );
    assert_eq!(stats.scan_keys, 0, "no key may fall back to scanning");

    // A clean roster record finds its typo'd signup — through the
    // fuzzy anchors, not a scan.
    let mut roster_rel = Relation::new(engine.plan().pair().left().clone());
    roster_rel.push_strs(1001, &["Robert", "Smith", "New York", "212-5550101"]);
    roster_rel.push_strs(1002, &["Katherine", "Smith", "New York", "212-5550101"]);
    for probe in roster_rel.tuples() {
        let outcome = index.query(probe);
        println!(
            "query(#{}): {} hit(s) from {} candidate(s) examined \
             ({} duplicate retrievals folded)",
            probe.id(),
            outcome.hits.len(),
            outcome.candidates,
            outcome.stats.dedup_saved
        );
        for hit in &outcome.hits {
            println!("  signup #{} via RCK {}", hit.id, hit.key);
        }
    }

    // "Robert Smith, New York" must reach signup #1 ("Robret Smith,
    // New York") via the fuzzy name rule despite the transposition.
    let hits = index.query(roster_rel.tuples().first().expect("roster has rows")).hits;
    assert!(hits.iter().any(|h| h.id == 1), "typo'd signup must be found");

    println!("\nname rules served index-first: no atom priced as a scan.");
    Ok(())
}
