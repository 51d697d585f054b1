//! # matchrules
//!
//! A from-scratch Rust implementation of
//!
//! > Wenfei Fan, Xibei Jia, Jianzhong Li, Shuai Ma.
//! > *Reasoning about Record Matching Rules.* VLDB 2009.
//!
//! Matching dependencies (MDs) declare, over a pair of possibly different
//! and unreliable relations, that *if certain attributes are pairwise
//! similar, certain other attributes identify the same real-world value*.
//! Reasoning about MDs (the deduction relation `Σ |=m ϕ`, decided by the
//! MDClosure algorithm) derives **relative candidate keys (RCKs)** — minimal
//! lists of attributes to compare, and the operators to compare them with —
//! which improve the quality and efficiency of record matching, blocking
//! and windowing.
//!
//! ## Quickstart: the match engine
//!
//! The top-level API is the schema-agnostic [`engine`]: declare *your*
//! schemas (with per-attribute [`AttrKind`](core::schema::AttrKind)
//! metadata), your MDs and your identity lists; compile them **once** into
//! a [`MatchPlan`]; then run the cheap, reusable [`MatchEngine`] over any
//! relation pair:
//!
//! ```
//! use matchrules::engine::EngineBuilder;
//! use matchrules::core::schema::{AttrKind, Schema};
//! use matchrules::data::relation::Relation;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Schemas — none of the paper's attribute names, just kinds.
//! let crm = Schema::kinded("crm", &[
//!     ("first", AttrKind::GivenName),
//!     ("last", AttrKind::Surname),
//!     ("mobile", AttrKind::Phone),
//!     ("mail", AttrKind::Email),
//! ])?;
//! let orders = Schema::kinded("orders", &[
//!     ("fname", AttrKind::GivenName),
//!     ("lname", AttrKind::Surname),
//!     ("contact", AttrKind::Phone),
//!     ("email", AttrKind::Email),
//! ])?;
//!
//! // 2. Compile MDs -> RCKs -> match plan, once.
//! let engine = EngineBuilder::new()
//!     .schemas(crm.clone(), orders.clone())
//!     .md_text(
//!         "crm[mail] = orders[email] -> crm[first,last] <=> orders[fname,lname]\n\
//!          crm[last] = orders[lname] /\\ crm[first] ~d orders[fname] /\\ \
//!          crm[mobile] = orders[contact] -> \
//!          crm[first,last,mobile] <=> orders[fname,lname,contact]\n",
//!     )
//!     .target(&["first", "last", "mobile"], &["fname", "lname", "contact"])
//!     .build()?;
//! assert!(!engine.plan().rcks().is_empty());
//!
//! // 3. Run the plan on any instances of the schemas.
//! let mut left = Relation::new(engine.plan().pair().left().clone());
//! left.push_strs(1, &["Mark", "Clifford", "908-1111111", "mc@gm.com"]);
//! let mut right = Relation::new(engine.plan().pair().right().clone());
//! right.push_strs(1, &["Marx", "Clifford", "908-1111111", "mc@gm.com"]);
//! let report = engine.match_all(&left, &right)?;
//! assert_eq!(report.len(), 1);
//! # Ok(()) }
//! ```
//!
//! The paper's own settings are two [`engine::Preset`]s of the same
//! machinery (`Preset::Example11.builder()`, `Preset::Extended.builder()`).
//!
//! ## Serving: the index mode
//!
//! Batch matching and dedup are two of the engine's execution modes; the
//! third is the RCK-driven [`MatchIndex`](engine::MatchIndex): compile
//! the plan's keys into per-attribute inverted indices (key buckets for
//! equality atoms, q-gram posting lists for edit atoms), then answer
//! *point queries* — "which tuples match this record, and which RCK
//! fired?" — and maintain the index incrementally, instead of rescanning
//! windows per batch:
//!
//! ```
//! use matchrules::engine::Preset;
//! use matchrules::data::fig1;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Preset::Example11.builder().build()?;
//! let inst = fig1::instance_for_pair(engine.plan().pair());
//!
//! // Build once over the right-hand relation…
//! let mut index = engine.index(inst.right())?;
//! // …query many: matched ids + key provenance per probe.
//! let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
//! assert_eq!(index.query(t1).hits.len(), 4);
//! // …and maintain incrementally.
//! let first = index.query(t1).hits[0].id;
//! index.remove(first)?;
//! assert_eq!(index.query(t1).hits.len(), 3);
//!
//! // The same index backs batch matching: identical decisions to the
//! // windowed path, typically far fewer candidate pairs examined.
//! let report = engine.match_pairs_indexed(inst.left(), inst.right())?;
//! assert_eq!(report.len(), 4);
//! # Ok(()) }
//! ```
//!
//! ## Serving layer: MatchServer
//!
//! [`MatchServer`] wraps all of that into a long-lived, stateful front
//! door: a record store with stable external ids, field-name inputs
//! (never build a `Relation` by hand; the vocabulary lives in
//! [`service`]), point queries stamped with a rule version,
//! **hot-swappable rules** (recompile + reindex off to the side, swap
//! atomically with zero read downtime — the store survives rule
//! iteration), and per-pair **match explanations** tracing every atom
//! and the MD deduction path behind the fired key. It takes `&self`
//! everywhere — share it behind an `Arc`, or put it behind the TCP
//! front in [`server::net`]:
//!
//! ```
//! use matchrules::engine::EngineBuilder;
//! use matchrules::core::schema::{AttrKind, Schema};
//! use matchrules::server::MatchServer;
//! use matchrules::service::RecordId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let crm = Schema::kinded("crm", &[
//! #     ("first", AttrKind::GivenName), ("last", AttrKind::Surname),
//! #     ("mobile", AttrKind::Phone), ("mail", AttrKind::Email)])?;
//! # let orders = Schema::kinded("orders", &[
//! #     ("fname", AttrKind::GivenName), ("lname", AttrKind::Surname),
//! #     ("contact", AttrKind::Phone), ("email", AttrKind::Email)])?;
//! // Same schemas and MDs as the quickstart above.
//! let engine = EngineBuilder::new()
//!     .schemas(crm, orders)
//!     .md_text(
//!         "crm[mail] = orders[email] -> crm[first,last] <=> orders[fname,lname]\n\
//!          crm[last] = orders[lname] /\\ crm[first] ~d orders[fname] /\\ \
//!          crm[mobile] = orders[contact] -> \
//!          crm[first,last,mobile] <=> orders[fname,lname,contact]\n",
//!     )
//!     .target(&["first", "last", "mobile"], &["fname", "lname", "contact"])
//!     .build()?;
//! let server = MatchServer::new(engine);
//!
//! // Upsert order records (field-name inputs, schema-checked).
//! let order = server.record_builder()
//!     .field("fname", "Marx").field("lname", "Clifford")
//!     .field("contact", "908-1111111").field("email", "mc@gm.com")
//!     .build()?;
//! server.upsert(RecordId(1), &order)?;
//!
//! // Point query with a CRM probe: matched ids + which RCK fired,
//! // stamped with the rule version.
//! let probe = server.probe_builder()
//!     .field("first", "Mark").field("last", "Clifford")
//!     .field("mobile", "908-1111111").field("mail", "mc@gm.com")
//!     .build()?;
//! let response = server.query(&probe)?;
//! assert_eq!(response.hits.len(), 1);
//! assert_eq!(response.version.number(), 1);
//!
//! // Hot-swap the rule set: the store survives, the version bumps.
//! let v2 = server.swap_rules(
//!     "crm[mail] = orders[email] /\\ crm[mobile] = orders[contact] -> \
//!      crm[first,last,mobile] <=> orders[fname,lname,contact]",
//! )?;
//! assert_eq!(v2.number(), 2);
//! assert_eq!(server.query(&probe)?.hits.len(), 1);
//!
//! // Explain the decision: per-atom trace + the MD deduction path.
//! let why = server.explain(&probe, RecordId(1))?;
//! assert!(why.matched);
//! assert!(why.keys.iter().any(|k| k.matched));
//! println!("{why}");
//! # Ok(()) }
//! ```
//!
//! ## Ranked matching
//!
//! MDs and RCKs are *boolean* — sound candidate generation. The
//! [`engine::ScoreModel`] compiled into every plan adds a calibrated
//! confidence on top: per-atom graded agreement features scored by a
//! Fellegi–Sunter model (EM-fitted when the builder is given
//! `statistics_from` samples, a clamped prior otherwise), always a
//! finite posterior in `[0, 1]`. [`MatchServer::query_ranked`] returns
//! **exactly** the boolean hit set — scored, sorted, thresholded and
//! truncated — and [`MatchEngine::dedup_resolved`] /
//! [`MatchEngine::resolve_links`](engine::MatchEngine::resolve_links)
//! replace transitive-closure clusters with a one-to-one assignment
//! over the scored pairs:
//!
//! ```
//! use matchrules::engine::EngineBuilder;
//! use matchrules::core::schema::{AttrKind, Schema};
//! use matchrules::server::MatchServer;
//! use matchrules::service::RecordId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let crm = Schema::kinded("crm", &[
//! #     ("first", AttrKind::GivenName), ("last", AttrKind::Surname),
//! #     ("mobile", AttrKind::Phone), ("mail", AttrKind::Email)])?;
//! # let orders = Schema::kinded("orders", &[
//! #     ("fname", AttrKind::GivenName), ("lname", AttrKind::Surname),
//! #     ("contact", AttrKind::Phone), ("email", AttrKind::Email)])?;
//! let engine = EngineBuilder::new()
//!     .schemas(crm, orders)
//!     .md_text(
//!         "crm[mail] = orders[email] -> crm[first,last] <=> orders[fname,lname]\n\
//!          crm[last] = orders[lname] /\\ crm[first] ~d orders[fname] /\\ \
//!          crm[mobile] = orders[contact] -> \
//!          crm[first,last,mobile] <=> orders[fname,lname,contact]\n",
//!     )
//!     .target(&["first", "last", "mobile"], &["fname", "lname", "contact"])
//!     .build()?;
//! let server = MatchServer::new(engine);
//! for (id, fname, email) in [(1, "Marx", "mc@gm.com"), (2, "Nora", "mc@gm.com")] {
//!     let order = server.record_builder()
//!         .field("fname", fname).field("lname", "Clifford")
//!         .field("contact", "908-1111111").field("email", email)
//!         .build()?;
//!     server.upsert(RecordId(id), &order)?;
//! }
//!
//! let probe = server.probe_builder()
//!     .field("first", "Mark").field("last", "Clifford")
//!     .field("mobile", "908-1111111").field("mail", "mc@gm.com")
//!     .build()?;
//! // Same hit set as `query`, best-first with calibrated scores.
//! let ranked = server.query_ranked(&probe, 10, 0.0)?;
//! assert_eq!(ranked.hits.len(), server.query(&probe)?.hits.len());
//! for pair in ranked.hits.windows(2) {
//!     assert!(pair[0].score >= pair[1].score);
//! }
//! for hit in &ranked.hits {
//!     assert!(hit.score.is_finite() && (0.0..=1.0).contains(&hit.score));
//! }
//! // `top_k` truncates; a `min_score` threshold filters; NaN is an error.
//! assert_eq!(server.query_ranked(&probe, 1, 0.0)?.hits.len(), 1);
//! assert!(server.query_ranked(&probe, 10, f64::NAN).is_err());
//! # Ok(()) }
//! ```
//!
//! Ranked answers are byte-identical across thread counts,
//! and served over the wire via [`server::MatchClient::query_ranked`].
//!
//! ## Refining rules against labeled data
//!
//! Everything above *executes* the rules you wrote; the [`refine`]
//! module *improves* them. A [`refine::LabelStore`] holds labeled
//! positive/negative record pairs (generated from a
//! [`GroundTruth`](data::dirty::GroundTruth) or appended from live
//! feedback), and a [`refine::Refiner`] grows a candidate pool from the
//! serving plan's rules — mined proposals plus per-atom θ-threshold
//! sweeps — evaluates every candidate on the labels through the indexed
//! engine, and selects the F_β-maximizing subset. A running server
//! drives the whole loop: [`MatchServer::submit_labels`] accumulates the
//! labels, [`MatchServer::refine`] selects and hot-swaps the resulting
//! [`refine::Refinement`] in:
//!
//! ```
//! use matchrules::data::dirty::{generate_dirty, NoiseConfig};
//! use matchrules::engine::{EngineBuilder, Preset};
//! use matchrules::refine::LabelStore;
//! use matchrules::server::MatchServer;
//! use matchrules::service::Record;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Dirty data with known ground truth (the §6.2 noise ladder).
//! let shape = Preset::Extended.paper_setting();
//! let data = generate_dirty(&shape.pair, &shape.target, 40,
//!     &NoiseConfig { seed: 7, ..NoiseConfig::default() });
//!
//! // A server running a deliberately weak rule: one exact key.
//! let engine = EngineBuilder::new()
//!     .schema_pair(shape.pair)
//!     .md_text(
//!         "credit[email] = billing[email] -> \
//!          credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
//!          billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]",
//!     )
//!     .target_ids(shape.target)
//!     .build()?;
//! let server = MatchServer::new(engine);
//!
//! // Ground truth -> labeled record pairs, submitted to the server.
//! let labels = LabelStore::from_truth(&data.credit, &data.billing, &data.truth, 2)?;
//! let pairs: Vec<(Record, Record, bool)> =
//!     labels.pairs().iter().map(|p| (p.left.clone(), p.right.clone(), p.is_match)).collect();
//! server.submit_labels(&pairs)?;
//!
//! // Select θ-tuned rules on F1 and deploy: the store survives, the
//! // version bumps, the operator world extends (θ-variants arrive as
//! // aliased operators).
//! let (v2, report) = server.refine(1.0)?;
//! assert!(report.after.f1() >= report.before.f1());
//! assert_eq!(v2.number(), 2);
//! # Ok(()) }
//! ```
//!
//! The same two calls are wire frames — labels stream in over TCP
//! (`SubmitLabels`), and a `Refine` request selects and deploys without
//! restarting ([`server::MatchClient::submit_labels`] /
//! [`server::MatchClient::refine`]). To inspect a selection before
//! deploying it, run a [`refine::Refiner`] by hand and pass its
//! [`refine::Refinement`] to [`MatchServer::swap_rules_refined`].
//!
//! ## Parallel execution
//!
//! The engine runs on a std-only work pool (`matchrules-runtime`):
//! windowing passes, blocking partitions and pairwise key evaluation all
//! execute in parallel, and the output is **byte-identical** to a serial
//! run. Configure it with [`engine::ExecConfig`] on the builder, or per
//! engine — thread sweeps reuse one compiled plan:
//!
//! ```
//! use matchrules::engine::{ExecConfig, Preset, Threads};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compile with an explicit thread policy (default: Threads::Auto).
//! let engine = Preset::Example11.builder()
//!     .exec(ExecConfig { threads: Threads::Fixed(2) })
//!     .build()?;
//! assert_eq!(engine.threads(), 2);
//!
//! // Re-target the same plan without recompiling.
//! let instance = matchrules::data::fig1::instance_for_pair(engine.plan().pair());
//! let serial = engine.with_exec(ExecConfig::serial());
//! let a = serial.match_pairs(instance.left(), instance.right())?;
//! let b = engine.match_pairs(instance.left(), instance.right())?;
//! assert_eq!(a.pairs(), b.pairs()); // parallel == serial, byte for byte
//! assert_eq!(b.threads(), 2);       // provenance in every report
//! for stage in b.stages() {
//!     println!("{}: {:?}", stage.name, stage.elapsed); // per-stage timing
//! }
//! # Ok(()) }
//! ```
//!
//! ## Workspace layers
//!
//! * [`core`] (`matchrules-core`) — schemas (+ `AttrKind` metadata), MDs,
//!   RCKs, MDClosure, findRCKs, the axiom system, the MD parser and the
//!   paper's preset settings;
//! * [`simdist`] (`matchrules-simdist`) — similarity metrics and operators
//!   (Damerau–Levenshtein, Jaro–Winkler, q-grams, Soundex, …);
//! * [`data`] (`matchrules-data`) — relations, the dynamic (enforcement)
//!   semantics, the Fig. 1 instance, and the §6 synthetic-data protocol;
//! * [`matcher`] (`matchrules-matcher`) — Fellegi–Sunter + EM, Sorted
//!   Neighborhood, blocking, windowing and quality metrics;
//! * `matchrules-runtime` — the std-only parallel execution runtime
//!   (work pool, parallel sort, deterministic ordered reductions);
//! * [`engine`] — the schema-agnostic compile-once API over all of it;
//! * [`refine`] — the rule-refinement loop: labeled pairs → candidate
//!   pool (mining + θ-sweeps) → greedy F_β selection → hot-swappable
//!   [`Refinement`](refine::Refinement).
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harness regenerating every figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod refine;
pub mod server;
pub mod service;

pub use matchrules_core as core;
pub use matchrules_data as data;
pub use matchrules_matcher as matcher;
pub use matchrules_simdist as simdist;

pub use engine::{EngineBuilder, MatchEngine, MatchPlan, MatchReport, Preset};
pub use server::MatchServer;
pub use service::{Record, RecordId, RuleVersion, ServiceError};
