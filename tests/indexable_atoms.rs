//! The `OpClass` retrieval contract, per anchor kind, end to end through
//! the engine: for each fuzzy operator — key postings (`≈sx`, `≈num`) and
//! element postings (`≈tok`, `≈qg`, and `≈jw` over its sorted-character
//! prefix) — a `MatchIndex` built over
//! arbitrary proptest-generated strings must answer every point query
//! with **exactly** the hit set the exhaustive scan path reports
//! (superset-of-scan + no-false-positives in one assertion), at 1, 2
//! and 8 build threads, and must keep doing so across
//! insert → remove → query. A combined jaro-winkler + soundex + token
//! plan must compile with zero scan-fallback keys.

use matchrules::core::schema::Schema;
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::Value;
use matchrules::engine::{EngineBuilder, ExecConfig, MatchEngine, MatchPlan, OpClass};
use proptest::prelude::*;
use proptest::{collection, TestCaseError};
use std::collections::HashSet;
use std::sync::Arc;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// A single-attribute engine whose only RCK is `a[v] op b[v]`.
fn single_op_engine(op: &str) -> MatchEngine {
    let a = Schema::text("a", &["v"]).expect("schema a");
    let b = Schema::text("b", &["v"]).expect("schema b");
    EngineBuilder::new()
        .schemas(a, b)
        .md_text(&format!("a[v] {op} b[v] -> a[v] <=> b[v]"))
        .target(&["v"], &["v"])
        .build()
        .expect("engine builds")
}

/// The distinct equality atoms across the plan's RCKs — each gets its own
/// key anchor.
fn equality_atoms(plan: &MatchPlan) -> usize {
    let atoms = plan.rcks().iter().flat_map(|key| key.atoms());
    atoms.filter(|a| plan.atom_class(a.op) == OpClass::Equality).collect::<HashSet<_>>().len()
}

/// Ids are positions + 1; `Relation::push_strs` would fold `""` into
/// NULL, and we want real empty strings to reach the anchors.
fn relation_of(schema: &Arc<Schema>, values: &[String]) -> Relation {
    let mut rel = Relation::new(schema.clone());
    for (i, v) in values.iter().enumerate() {
        rel.push(Tuple::new(i as u64 + 1, vec![Value::str(v)]));
    }
    rel
}

/// The scan path's answer for probe `l`: partner ids from the
/// exhaustive (every pair evaluated) batch run, sorted.
fn scan_hits(batch: &matchrules::engine::MatchReport, l: usize) -> Vec<(u64, usize)> {
    let mut hits: Vec<(u64, usize)> =
        batch.pairs().iter().filter(|p| p.left == l).map(|p| (p.right_id, p.key)).collect();
    hits.sort_unstable();
    hits
}

/// The core contract, shared by every per-operator property below:
/// index hit set == scan hit set for every probe at every thread
/// count, with the last right-hand tuple arriving via `insert` and a
/// removed partner never coming back.
fn assert_index_equals_scan(
    op: &str,
    left: &[String],
    right: &[String],
) -> std::result::Result<(), TestCaseError> {
    let engine = single_op_engine(op);
    prop_assert!(
        engine.plan().fully_indexable(),
        "{op} plan unexpectedly carries a scan-fallback key"
    );
    let lrel = relation_of(engine.plan().pair().left(), left);
    let rrel = relation_of(engine.plan().pair().right(), right);
    let batch = engine.with_exec(ExecConfig::serial()).match_all(&lrel, &rrel).expect("batch run");

    // Hold the last right tuple out of the build and insert it after —
    // queries must not care how a tuple entered the index.
    let split = rrel.len().saturating_sub(1);
    let mut base = Relation::new(rrel.schema().clone());
    for t in &rrel.tuples()[..split] {
        base.push(Tuple::new(t.id(), t.values().to_vec()));
    }

    for threads in THREAD_SWEEP {
        let engine = engine.with_exec(ExecConfig::fixed(threads));
        let mut index = engine.index(&base).expect("index builds");
        prop_assert_eq!(index.stats().scan_keys, 0, "{} key fell back to scanning", op);
        for t in &rrel.tuples()[split..] {
            index.insert(Tuple::new(t.id(), t.values().to_vec())).expect("insert");
        }
        for (l, probe) in lrel.tuples().iter().enumerate() {
            let mut got: Vec<(u64, usize)> =
                index.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
            got.sort_unstable();
            prop_assert_eq!(
                got,
                scan_hits(&batch, l),
                "{} probe {} diverged from the scan path at {} threads",
                op,
                l,
                threads
            );
        }

        // Remove the partner of the first matching probe; it must never
        // come back, and everything else must keep matching as before.
        let victim = lrel.tuples().iter().find_map(|p| index.query(p).hits.first().map(|h| h.id));
        let Some(victim) = victim else { continue };
        let before: Vec<Vec<_>> = lrel.tuples().iter().map(|p| index.query(p).hits).collect();
        index.remove(victim).expect("remove");
        for (probe, before_hits) in lrel.tuples().iter().zip(before) {
            let after = index.query(probe).hits;
            prop_assert!(
                after.iter().all(|h| h.id != victim),
                "{} still returns removed id {} at {} threads",
                op,
                victim,
                threads
            );
            let expect: Vec<_> = before_hits.into_iter().filter(|h| h.id != victim).collect();
            prop_assert_eq!(after, expect);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Key anchor (soundex codes): index == scan on arbitrary
    /// short alphabetic-ish strings, empty strings included.
    #[test]
    fn soundex_index_equals_scan(
        left in collection::vec("[a-zA-Z]{0,10}", 1..20),
        right in collection::vec("[a-zA-Z]{0,10}", 1..20),
    ) {
        assert_index_equals_scan("~sx", &left, &right)?;
    }

    /// Key anchor (digit projection): strings mixing digits and
    /// separators, so several raw forms share one derived key.
    #[test]
    fn digits_index_equals_scan(
        left in collection::vec("[0-9a -]{0,8}", 1..20),
        right in collection::vec("[0-9a -]{0,8}", 1..20),
    ) {
        assert_index_equals_scan("~num", &left, &right)?;
    }

    /// Element-posting anchor (distinct tokens + Jaccard ratio
    /// prefilter): multi-word values with repeated words.
    #[test]
    fn token_index_equals_scan(
        left in collection::vec("[a-c ]{0,12}", 1..20),
        right in collection::vec("[a-c ]{0,12}", 1..20),
    ) {
        assert_index_equals_scan("~tok", &left, &right)?;
    }

    /// Element-posting anchor (padded q-gram multiset + Dice ratio
    /// prefilter).
    #[test]
    fn qgram_index_equals_scan(
        left in collection::vec("[a-d]{0,8}", 1..20),
        right in collection::vec("[a-d]{0,8}", 1..20),
    ) {
        assert_index_equals_scan("~qg", &left, &right)?;
    }

    /// Element-posting anchor (the Jaro–Winkler sorted-character prefix,
    /// character-count ratio prefilter): a narrow
    /// alphabet maximizes near-misses right at the 0.9 threshold.
    #[test]
    fn jaro_winkler_index_equals_scan(
        left in collection::vec("[a-e]{0,9}", 1..20),
        right in collection::vec("[a-e]{0,9}", 1..20),
    ) {
        assert_index_equals_scan("~jw", &left, &right)?;
    }
}

/// The acceptance scenario: a plan whose RCKs use jaro-winkler,
/// soundex *and* token operators compiles every key onto anchors —
/// zero scan fallbacks — and answers byte-identically to the scan path
/// on a names-schema instance.
#[test]
fn combined_name_plan_has_no_scan_keys_and_matches_scan() {
    let a = Schema::text("a", &["first", "last", "city"]).expect("schema a");
    let b = Schema::text("b", &["first", "last", "city"]).expect("schema b");
    let engine = EngineBuilder::new()
        .schemas(a, b)
        .md_text(
            "a[first] ~jw b[first] /\\ a[last] ~sx b[last] -> a[first,last] <=> b[first,last]\n\
             a[last] = b[last] /\\ a[city] ~tok b[city] -> a[last,city] <=> b[last,city]\n",
        )
        .target(&["first", "last", "city"], &["first", "last", "city"])
        .build()
        .expect("engine builds");
    assert!(engine.plan().fully_indexable(), "every RCK must land on an anchor");

    let rows: &[(&str, &str, &str)] = &[
        ("robert", "smith", "new york"),
        ("roberta", "smyth", "york new"),
        ("bob", "smith", "boston"),
        ("umberto", "schmidt", "new york city"),
        ("robert", "smit", "new york"),
        ("", "", ""),
    ];
    let mk = |schema: &Arc<Schema>| {
        let mut rel = Relation::new(schema.clone());
        for (i, (f, l, c)) in rows.iter().enumerate() {
            rel.push(Tuple::new(i as u64 + 1, vec![Value::str(f), Value::str(l), Value::str(c)]));
        }
        rel
    };
    let lrel = mk(engine.plan().pair().left());
    let rrel = mk(engine.plan().pair().right());

    let index = engine.index(&rrel).expect("index builds");
    let stats = index.stats();
    assert_eq!(stats.scan_keys, 0, "no key may fall back to scanning: {stats:?}");
    // Equality atoms get key anchors too, so soundex's is the one more.
    assert_eq!(
        stats.key_anchors,
        equality_atoms(engine.plan()) + 1,
        "soundex must land on a key anchor"
    );
    assert!(stats.element_anchors >= 2, "jaro-winkler and tokens must land on element anchors");

    let batch = engine.with_exec(ExecConfig::serial()).match_all(&lrel, &rrel).expect("batch");
    let mut matched_any = false;
    for (l, probe) in lrel.tuples().iter().enumerate() {
        let mut got: Vec<(u64, usize)> =
            index.query(probe).hits.iter().map(|h| (h.id, h.key)).collect();
        got.sort_unstable();
        matched_any |= !got.is_empty();
        assert_eq!(got, scan_hits(&batch, l), "probe {l} diverged from the scan path");
    }
    assert!(matched_any, "the instance must exercise at least one match");
}
