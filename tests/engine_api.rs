//! The engine API end to end on a **non-paper** schema pair (a
//! product-catalog linkage scenario), plus the guarantee that the paper
//! presets produce identical RCKs through the old (`find_rcks` on
//! `PaperSetting`) and new (`EngineBuilder` → `MatchPlan`) paths.

use matchrules::core::cost::CostModel;
use matchrules::core::paper;
use matchrules::core::rck::find_rcks;
use matchrules::core::schema::{AttrKind, Schema, Side};
use matchrules::data::relation::Relation;
use matchrules::engine::{EngineBuilder, EngineError, MatchEngine, Preset};

/// Two product catalogs with entirely different attribute names: identity
/// of a product is (title, brand, upc).
fn catalog_engine() -> MatchEngine {
    let shop = Schema::kinded(
        "shop",
        &[
            ("sku", AttrKind::Id),
            ("title", AttrKind::FreeText),
            ("brand", AttrKind::Surname), // brand names behave like surnames: Soundex-friendly
            ("upc", AttrKind::Id),
            ("vendor_phone", AttrKind::Phone),
            ("price", AttrKind::Money),
        ],
    )
    .unwrap();
    let feed = Schema::kinded(
        "feed",
        &[
            ("code", AttrKind::Id),
            ("product_name", AttrKind::FreeText),
            ("maker", AttrKind::Surname),
            ("barcode", AttrKind::Id),
            ("support_line", AttrKind::Phone),
            ("cost", AttrKind::Money),
        ],
    )
    .unwrap();
    EngineBuilder::new()
        .schemas(shop, feed)
        .md_text(
            // Same barcode -> same product name and maker.
            "shop[upc] = feed[barcode] -> shop[title,brand] <=> feed[product_name,maker]\n\
             // Same maker + similar title -> same product entirely.\n\
             shop[brand] = feed[maker] /\\ shop[title] ~d feed[product_name] -> \
             shop[title,brand,upc] <=> feed[product_name,maker,barcode]\n",
        )
        .target(&["title", "brand", "upc"], &["product_name", "maker", "barcode"])
        .top_k(8)
        .build()
        .unwrap()
}

fn shop_rows(engine: &MatchEngine) -> Relation {
    let mut r = Relation::new(engine.plan().pair().left().clone());
    r.push_strs(
        1,
        &["S1", "Trail Runner 5 Shoe", "Peregrine", "0036000291452", "908-5550000", "129.99"],
    );
    r.push_strs(
        2,
        &["S2", "Espresso Maker Deluxe", "Brewtech", "0036000117202", "908-5550001", "349.00"],
    );
    r.push_strs(
        3,
        &["S3", "Camping Lantern XL", "Glowfield", "0036000664454", "908-5550002", "39.90"],
    );
    r
}

fn feed_rows(engine: &MatchEngine) -> Relation {
    let mut r = Relation::new(engine.plan().pair().right().clone());
    // Same product as S1: typo'd name, same barcode.
    r.push_strs(10, &["F10", "Trail Runer 5 Shoe", "Peregrine", "0036000291452", "", "119.00"]);
    // Same product as S2: same maker, similar name, *different* barcode
    // (rebranded packaging) — only the brand+title~d key can catch it.
    r.push_strs(11, &["F11", "Espresso Maker Delux", "Brewtech", "0036000117219", "", "310.00"]);
    // An unrelated product by the same maker as S3.
    r.push_strs(12, &["F12", "Pocket Stove Mini", "Glowfield", "0036000777778", "", "24.50"]);
    r
}

#[test]
fn product_catalog_end_to_end() {
    let engine = catalog_engine();
    let plan = engine.plan();

    // The one-atom barcode key must be deduced: upc= identifies name+maker
    // (MD 1) and itself, covering the whole target.
    assert!(
        plan.rcks().iter().any(|k| k.len() == 1),
        "expected the single-atom barcode RCK, got:\n{}",
        plan.describe()
    );
    assert!(plan.is_complete(), "two MDs admit a complete enumeration");

    let shop = shop_rows(&engine);
    let feed = feed_rows(&engine);
    let report = engine.match_all(&shop, &feed).unwrap();
    let pairs = report.index_pairs();
    assert!(pairs.contains(&(0, 0)), "S1-F10 via the barcode key");
    assert!(pairs.contains(&(1, 1)), "S2-F11 via the maker+title~d key");
    assert!(!pairs.contains(&(2, 2)), "S3-F12 are different products");
    assert_eq!(report.len(), 2, "exactly the two true links: {pairs:?}");

    // Provenance: each matched pair names the plan key that matched it.
    for m in report.pairs() {
        assert!(m.key < plan.rcks().len());
    }
}

#[test]
fn windowed_matching_agrees_with_exhaustive_here() {
    let engine = catalog_engine();
    let shop = shop_rows(&engine);
    let feed = feed_rows(&engine);
    let exhaustive = engine.match_all(&shop, &feed).unwrap();
    let windowed = engine.match_pairs(&shop, &feed).unwrap();
    // Six tuples fit inside one window: candidate reduction loses nothing.
    assert_eq!(exhaustive.index_pairs(), windowed.index_pairs());
    assert!(windowed.candidates() <= exhaustive.candidates());
}

#[test]
fn windowing_produces_candidates() {
    let engine = catalog_engine();
    let shop = shop_rows(&engine);
    let feed = feed_rows(&engine);
    let windows = engine.window(&shop, &feed).unwrap();
    assert!(windows.contains(&(0, 0)));
}

#[test]
fn engine_rejects_foreign_relations() {
    let engine = catalog_engine();
    let other = Schema::text("other", &["a", "b"]).unwrap();
    let rel = Relation::new(std::sync::Arc::new(other));
    let err = engine.match_all(&rel, &rel).unwrap_err();
    assert!(matches!(err, EngineError::SchemaMismatch { .. }), "{err}");
    assert!(err.to_string().contains("other"));
}

#[test]
fn builder_reports_missing_configuration() {
    assert!(matches!(EngineBuilder::new().compile().unwrap_err(), EngineError::MissingSchemas));
    let schema = Schema::text("r", &["a"]).unwrap();
    assert!(matches!(
        EngineBuilder::new().dedup_schema(schema).compile().unwrap_err(),
        EngineError::MissingTarget
    ));
}

#[test]
fn builder_rejects_unbound_operators_at_compile_time() {
    let schema = Schema::text("r", &["a", "b"]).unwrap();
    let err = EngineBuilder::new()
        .dedup_schema(schema)
        .md_text("r[a] ~never_registered r[a] -> r[b] <=> r[b]\n")
        .target(&["b"], &["b"])
        .compile()
        .unwrap_err();
    assert!(err.to_string().contains("never_registered"), "{err}");
}

#[test]
fn attr_kind_overrides_apply_at_compile() {
    let schema = Schema::text("contacts", &["nm", "ph"]).unwrap();
    let plan = EngineBuilder::new()
        .dedup_schema(schema)
        .attr_kind(Side::Left, "ph", AttrKind::Phone)
        .attr_kind(Side::Left, "nm", AttrKind::Surname)
        .md_text("contacts[ph] = contacts[ph] -> contacts[nm] <=> contacts[nm]\n")
        .target(&["nm", "ph"], &["nm", "ph"])
        .compile()
        .unwrap();
    let left = plan.pair().left();
    assert_eq!(left.attr_kind(left.attr("ph").unwrap()), AttrKind::Phone);
    assert_eq!(left.attr_kind(left.attr("nm").unwrap()), AttrKind::Surname);
    // Reflexive pairs stay consistent on both sides.
    let right = plan.pair().right();
    assert_eq!(right.attr_kind(right.attr("ph").unwrap()), AttrKind::Phone);
}

/// Both paper presets yield RCK-for-RCK identical results through the old
/// path (`find_rcks` over the `PaperSetting`) and the new engine path.
#[test]
fn presets_match_the_legacy_path_exactly() {
    for (preset, setting) in
        [(Preset::Example11, paper::example_1_1()), (Preset::Extended, paper::extended())]
    {
        for k in [1usize, 3, 5, 10] {
            let mut cost = CostModel::uniform();
            let legacy = find_rcks(&setting.sigma, &setting.target, k, &mut cost);
            let plan = preset.builder().top_k(k).compile().unwrap();
            assert_eq!(
                legacy.keys,
                plan.rcks(),
                "preset {preset:?} diverges from the legacy path at k={k}"
            );
            assert_eq!(legacy.complete, plan.is_complete());
        }
    }
}

/// The engine reproduces Example 1.1 end to end: t1 matches t3–t6 on the
/// Fig. 1 instance, t2 matches nothing.
#[test]
fn example_1_1_through_the_engine() {
    let engine = Preset::Example11.builder().top_k(10).build().unwrap();
    let instance = matchrules::data::fig1::instance_for_pair(engine.plan().pair());
    let report = engine.match_all(instance.left(), instance.right()).unwrap();
    let matched_left: Vec<u64> = report.pairs().iter().map(|m| m.left_id).collect();
    assert_eq!(report.len(), 4, "t1 matches every billing tuple");
    assert!(matched_left.iter().all(|&id| id == 1), "t2 must match nothing");
}

/// Review regression: a same-named, same-arity relation with *reordered*
/// attributes must be rejected, not silently mis-matched column-wise.
#[test]
fn engine_rejects_reordered_schema() {
    let engine = catalog_engine();
    let reordered = Schema::kinded(
        "shop",
        &[
            ("title", AttrKind::FreeText), // swapped with sku
            ("sku", AttrKind::Id),
            ("brand", AttrKind::Surname),
            ("upc", AttrKind::Id),
            ("vendor_phone", AttrKind::Phone),
            ("price", AttrKind::Money),
        ],
    )
    .unwrap();
    let rel = Relation::new(std::sync::Arc::new(reordered));
    let feed = feed_rows(&engine);
    let err = engine.match_all(&rel, &feed).unwrap_err();
    assert!(matches!(err, EngineError::SchemaMismatch { .. }), "{err}");
}

/// Review regression: statistics measured on relations of the wrong schema
/// must fail compilation instead of panicking or silently mis-ranking.
#[test]
fn statistics_from_validates_schemas() {
    let tiny = Schema::text("tiny", &["a"]).unwrap();
    let rel = Relation::new(std::sync::Arc::new(tiny));
    let shop = Schema::text("shop", &["sku", "title"]).unwrap();
    let feed = Schema::text("feed", &["code", "product_name"]).unwrap();
    let err = EngineBuilder::new()
        .schemas(shop, feed)
        .md_text("shop[sku] = feed[code] -> shop[title] <=> feed[product_name]\n")
        .target(&["title"], &["product_name"])
        .statistics_from(&rel, &rel)
        .compile()
        .unwrap_err();
    assert!(matches!(err, EngineError::SchemaMismatch { .. }), "{err}");
}

/// Review regression: a degenerate window is rejected at compile, not at
/// the first match call.
#[test]
fn window_below_two_rejected_at_compile() {
    let s = Schema::text("w", &["x"]).unwrap();
    let err = EngineBuilder::new()
        .dedup_schema(s)
        .md_text("w[x] = w[x] -> w[x] <=> w[x]\n")
        .target(&["x"], &["x"])
        .window(1)
        .compile()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("window"));
}

/// `top_k(0)` used to compile into a silently degenerate plan (no RCKs,
/// no sort keys, every match a miss); now it is a compile error.
#[test]
fn top_k_zero_rejected_at_compile() {
    let err = Preset::Extended.builder().top_k(0).compile().unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("top_k"), "{err}");
}

/// The runtime pool is plumbed end to end: reports carry the configured
/// thread count and a per-stage timing breakdown, and every thread count
/// produces byte-identical matches.
#[test]
fn exec_config_is_deterministic_and_reported() {
    use matchrules::engine::ExecConfig;
    let engine = catalog_engine();
    let shop = shop_rows(&engine);
    let feed = feed_rows(&engine);
    let serial = engine.with_exec(ExecConfig::serial());
    let baseline = serial.match_pairs(&shop, &feed).unwrap();
    assert_eq!(baseline.threads(), 1);
    let stage_names: Vec<&str> = baseline.stages().iter().map(|s| s.name).collect();
    assert_eq!(stage_names, vec!["window", "prep", "match"]);
    for threads in [2, 4, 8] {
        let parallel = engine.with_exec(ExecConfig::fixed(threads));
        assert_eq!(parallel.threads(), threads);
        let report = parallel.match_pairs(&shop, &feed).unwrap();
        assert_eq!(report.pairs(), baseline.pairs(), "threads = {threads}");
        assert_eq!(report.threads(), threads);
        // The filter counters are sums over the same atom evaluations,
        // so they are thread-count-independent too.
        assert_eq!(report.filter_stats(), baseline.filter_stats(), "threads = {threads}");
    }
}

/// The compiled hot path reports where edit-distance evaluations were
/// decided: filters plus DP runs account for every evaluation, and on an
/// exhaustive run the counters are non-trivial (the catalog MDs compare
/// titles under `~d`).
#[test]
fn filter_counters_account_for_edit_evaluations() {
    let engine = catalog_engine();
    let shop = shop_rows(&engine);
    let feed = feed_rows(&engine);
    let report = engine.match_all(&shop, &feed).unwrap();
    let stats = report.filter_stats();
    assert!(stats.evaluations() > 0, "edit atoms were evaluated: {stats:?}");
    assert_eq!(
        stats.evaluations(),
        stats.equal_fast + stats.rejected() + stats.dp_runs,
        "{stats:?}"
    );
}

/// A zero thread count is a configuration mistake, not a request for
/// serial execution — rejected like `top_k(0)` and `window(1)`.
#[test]
fn threads_zero_rejected_at_compile() {
    let err = Preset::Example11.builder().threads(0).compile().unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("threads"), "{err}");
}

/// Negative or non-finite cost weights are a configuration error at
/// compile, not a panic inside the cost model.
#[test]
fn invalid_cost_weights_rejected_at_compile() {
    for (w1, w2, w3) in [(-1.0, 1.0, 1.0), (1.0, f64::NAN, 1.0), (1.0, 1.0, f64::INFINITY)] {
        let err = Preset::Example11.builder().cost_weights(w1, w2, w3).compile().unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("cost weights"), "{err}");
    }
    // Zero weights are legal: a term can be switched off.
    assert!(Preset::Example11.builder().cost_weights(0.0, 1.0, 0.0).compile().is_ok());
}

/// Builder-level thread configuration lands in the compiled plan.
#[test]
fn builder_threads_reach_the_plan() {
    use matchrules::engine::{ExecConfig, Threads};
    let engine = Preset::Example11.builder().threads(3).build().unwrap();
    assert_eq!(engine.plan().exec(), ExecConfig { threads: Threads::Fixed(3) });
    assert_eq!(engine.threads(), 3);
    assert!(engine.plan().describe().contains("threads 3"));
}

/// Satellite regression: empty relations produce finite reports — no NaN
/// in reduction ratios or quality scores, whatever the denominators.
#[test]
fn empty_relations_yield_finite_reports() {
    let engine = catalog_engine();
    let empty_shop = Relation::new(engine.plan().pair().left().clone());
    let empty_feed = Relation::new(engine.plan().pair().right().clone());
    for report in [
        engine.match_pairs(&empty_shop, &empty_feed).unwrap(),
        engine.match_all(&empty_shop, &empty_feed).unwrap(),
        engine.match_pairs(&shop_rows(&engine), &empty_feed).unwrap(),
    ] {
        assert!(report.is_empty());
        assert!(report.reduction_ratio().is_finite(), "{}", report.reduction_ratio());
        // Display renders the ratio — must not print NaN.
        assert!(!report.to_string().contains("NaN"), "{report}");
    }
}
