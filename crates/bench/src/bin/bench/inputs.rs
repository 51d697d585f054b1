//! Workload inputs, all derived from `--seed`: the Extended (§6) and
//! names data sets, probe pools, the skewed sampler, the two rule texts
//! of `rule_swap`, and the `inputs_digest` over everything generated.
//!
//! The generators are the library's (`data::{gen, dirty, mdgen}`); the
//! *shaping* — which rows probe, in what order, with what skew — is the
//! harness's own, so it cannot drift with `matchrules_bench::experiments`.

use crate::stats::{Digest, SplitMix};
use matchrules::core::paper::PaperSetting;
use matchrules::core::schema::{AttrKind, Schema, SchemaPair};
use matchrules::data::dirty::{generate_dirty, DirtyData, NoiseConfig};
use matchrules::data::gen::generate_persons;
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::value::Value;
use matchrules::engine::{EngineBuilder, ExecConfig, MatchEngine, Preset, Threads};
use matchrules::service::{Record, RecordId};
use std::sync::Arc;

/// Window size of the batch path (the paper's §6.2 setting).
const WINDOW: usize = 10;

/// The Extended preset's 7 MDs, restated as text so `swap_rules` can be
/// handed them; [`extended_shape`] checks they parse to the preset's Σ.
pub const RULES_A: &str = "\
credit[LN] ~d billing[LN] /\\ credit[street] ~d billing[street] /\\ \
credit[city] ~d billing[city] /\\ credit[FN] ~d billing[FN] -> \
credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]
credit[tel] = billing[phn] -> \
credit[street,city,county,state,zip] <=> billing[street,city,county,state,zip]
credit[email] = billing[email] -> credit[FN,MN,LN] <=> billing[FN,MN,LN]
credit[zip] = billing[zip] -> credit[city,county,state] <=> billing[city,county,state]
credit[LN] ~d billing[LN] /\\ credit[tel] = billing[phn] /\\ credit[FN] ~d billing[FN] -> \
credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]
credit[street] ~d billing[street] /\\ credit[zip] = billing[zip] -> \
credit[street] <=> billing[street]
credit[street] ~d billing[street] /\\ credit[zip] = billing[zip] -> \
credit[tel] <=> billing[phn]
";

/// The 4-MD variant `rule_swap` alternates with: MDs 1, 2, 3 and 5.
pub const RULES_B: &str = "\
credit[LN] ~d billing[LN] /\\ credit[street] ~d billing[street] /\\ \
credit[city] ~d billing[city] /\\ credit[FN] ~d billing[FN] -> \
credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]
credit[tel] = billing[phn] -> \
credit[street,city,county,state,zip] <=> billing[street,city,county,state,zip]
credit[email] = billing[email] -> credit[FN,MN,LN] <=> billing[FN,MN,LN]
credit[LN] ~d billing[LN] /\\ credit[tel] = billing[phn] /\\ credit[FN] ~d billing[FN] -> \
credit[FN,MN,LN,street,city,county,state,zip,tel,email,gender] <=> \
billing[FN,MN,LN,street,city,county,state,zip,phn,email,gender]
";

/// The roster/signup plan: retrieval exclusively through non-equality
/// anchors — jaro-winkler (char-bag), soundex (derived key), tokens —
/// plus one equality tie-breaker on the phone.
const NAMES_RULES: &str = "\
roster[first] ~jw signup[first] /\\ roster[last] ~sx signup[last] /\\ \
roster[city] ~tok signup[city] -> roster[first,last,city] <=> signup[first,last,city]
roster[phone] = signup[phone] /\\ roster[last] ~sx signup[last] -> \
roster[first,last,city] <=> signup[first,last,city]
";

pub fn exec(threads: usize) -> ExecConfig {
    ExecConfig { threads: Threads::Fixed(threads.max(1)) }
}

/// The stored side of a serving workload, in both shapes the layers
/// take: a relation (index builds, the oracle) and an upsert batch.
pub struct Store {
    pub relation: Relation,
    pub batch: Vec<(RecordId, Record)>,
}

impl Store {
    fn of(relation: Relation) -> Store {
        let batch = relation
            .tuples()
            .iter()
            .map(|t| {
                let record = Record::from_values(relation.schema().clone(), t.values().to_vec())
                    .expect("generated rows instantiate their schema");
                (RecordId(t.id()), record)
            })
            .collect();
        Store { relation, batch }
    }
}

/// A probe pool: a seeded sample of the probe-side rows. The first
/// [`ORACLE_SAMPLE`] are the fixed sample checked against `match_all`;
/// the first [`HOT_SET`] are `mixed_rw`'s hot set.
pub struct Probes {
    pub relation: Relation,
    pub records: Vec<Record>,
}

pub const ORACLE_SAMPLE: usize = 256;
pub const HOT_SET: usize = 256;

impl Probes {
    fn sample(left: &Relation, pool: usize, rng: &mut SplitMix) -> Probes {
        let mut relation = Relation::new(left.schema().clone());
        for &row in rng.permutation(left.len()).iter().take(pool) {
            relation.push(left.tuples()[row].clone());
        }
        let records = relation
            .tuples()
            .iter()
            .map(|t| {
                Record::from_values(left.schema().clone(), t.values().to_vec())
                    .expect("generated rows instantiate their schema")
            })
            .collect();
        Probes { relation, records }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn tuple(&self, i: usize) -> &Tuple {
        &self.relation.tuples()[i]
    }
}

/// Everything a serving workload is run on.
pub struct ServingInputs {
    pub store: Store,
    pub probes: Probes,
    pub digest: u64,
    pub plan: PlanSource,
}

/// What a repetition compiles its fresh engine from.
pub enum PlanSource {
    Extended { shape: Box<PaperSetting>, data: Box<DirtyData> },
    Names { pair: SchemaPair },
}

impl PlanSource {
    /// Compiles a fresh engine with `threads` runtime threads — the
    /// "compile plan" part of every repetition's set-up.
    pub fn compile(&self, threads: usize) -> MatchEngine {
        match self {
            PlanSource::Extended { shape, data } => extended_engine(shape, data, threads),
            PlanSource::Names { pair } => EngineBuilder::new()
                .schema_pair(pair.clone())
                .md_text(NAMES_RULES)
                .target(&["first", "last", "city"], &["first", "last", "city"])
                .window(WINDOW)
                .exec(exec(threads))
                .build()
                .expect("the names plan compiles"),
        }
    }
}

pub fn digest_relation(d: &mut Digest, relation: &Relation) {
    d.word(relation.len() as u64);
    for t in relation.tuples() {
        d.word(t.id());
        for v in t.values() {
            d.text(v.as_str());
        }
    }
}

/// The first `rows` tuples of `relation` as a relation of their own.
pub fn prefix(relation: &Relation, rows: usize) -> Relation {
    let mut out = Relation::new(relation.schema().clone());
    for t in relation.tuples().iter().take(rows) {
        out.push(t.clone());
    }
    out
}

/// The Extended preset's shapes, with [`RULES_A`] verified against Σ.
pub fn extended_shape() -> PaperSetting {
    let shape = Preset::Extended.paper_setting();
    let mut ops = shape.ops.clone();
    let parsed = matchrules::core::parser::parse_md_set(RULES_A, &shape.pair, &mut ops)
        .expect("the restated rules parse");
    assert_eq!(parsed, shape.sigma, "RULES_A must restate the Extended preset's MDs exactly");
    shape
}

pub fn extended_data(shape: &PaperSetting, persons: usize, seed: u64) -> DirtyData {
    generate_dirty(
        &shape.pair,
        &shape.target,
        persons,
        &NoiseConfig { seed, ..NoiseConfig::default() },
    )
}

/// "Extended": `Preset::Extended`, top-5 RCKs, cost statistics measured
/// on the data — built over `shape`'s own schema `Arc`s so records made
/// from the data pass the servers' pointer-equality schema check.
pub fn extended_engine(shape: &PaperSetting, data: &DirtyData, threads: usize) -> MatchEngine {
    EngineBuilder::from_parts(
        shape.pair.clone(),
        shape.ops.clone(),
        shape.sigma.clone(),
        shape.target.clone(),
    )
    .top_k(5)
    .window(WINDOW)
    .statistics_from(&data.credit, &data.billing)
    .exec(exec(threads))
    .build()
    .expect("the Extended preset compiles")
}

/// `persons` card holders → `1.8 × persons` stored billing records;
/// probes are a `pool`-row sample of the credit side.
pub fn extended_serving(persons: usize, pool: usize, seed: u64) -> ServingInputs {
    let shape = extended_shape();
    let data = extended_data(&shape, persons, seed);
    let probes = Probes::sample(&data.credit, pool, &mut SplitMix(seed ^ 0x009E_0BE5));
    let mut d = Digest::default();
    digest_relation(&mut d, &data.billing);
    digest_relation(&mut d, &probes.relation);
    d.text(Some(RULES_A));
    d.text(Some(RULES_B));
    let store = Store::of(data.billing.clone());
    ServingInputs {
        store,
        probes,
        digest: d.finish(),
        plan: PlanSource::Extended { shape: Box::new(shape), data: Box::new(data) },
    }
}

/// Swaps two adjacent interior characters (a keyboard transposition).
pub fn transpose(s: &str, h: u64) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 4 {
        let i = 1 + (h as usize) % (chars.len() - 2);
        chars.swap(i, i + 1);
    }
    chars.into_iter().collect()
}

/// "New York" → "York New": token set intact, equality and prefix
/// order defeated.
fn rotate_words(s: &str) -> String {
    let words: Vec<&str> = s.split_whitespace().collect();
    match words.split_first() {
        Some((first, rest)) if !rest.is_empty() => format!("{} {}", rest.join(" "), first),
        _ => s.to_owned(),
    }
}

/// The names workload: `k` clean roster rows probe `k` signup rows, each
/// carrying a first-name transposition and a city word rotation, so the
/// true pairs are reachable only through the fuzzy anchors.
pub fn names_serving(k: usize, pool: usize, seed: u64) -> ServingInputs {
    let side = |name: &str| {
        Arc::new(
            Schema::kinded(
                name,
                &[
                    ("first", AttrKind::GivenName),
                    ("last", AttrKind::Surname),
                    ("city", AttrKind::City),
                    ("phone", AttrKind::Phone),
                ],
            )
            .expect("static schema"),
        )
    };
    let pair = SchemaPair::new(side("roster"), side("signup"));
    let mut left = Relation::new(pair.left().clone());
    let mut right = Relation::new(pair.right().clone());
    let mut rng = SplitMix(seed ^ 0x0051_674E);
    for (i, p) in generate_persons(k, seed).iter().enumerate() {
        let id = i as u64 + 1;
        left.push_strs(id, &[&p.first, &p.last, &p.city, &p.tel]);
        let first = transpose(&p.first, rng.next_u64());
        right.push_strs(id, &[&first, &p.last, &rotate_words(&p.city), &p.tel]);
    }
    let probes = Probes::sample(&left, pool, &mut SplitMix(seed ^ 0x009E_0BE5));
    let mut d = Digest::default();
    digest_relation(&mut d, &right);
    digest_relation(&mut d, &probes.relation);
    d.text(Some(NAMES_RULES));
    ServingInputs {
        store: Store::of(right),
        probes,
        digest: d.finish(),
        plan: PlanSource::Names { pair },
    }
}

/// `mixed_rw`'s probe choice: 80% of reads from the fixed hot set (the
/// pool's first [`HOT_SET`] probes), 20% uniform over the whole pool.
pub struct Skewed {
    rng: SplitMix,
    pool: usize,
}

impl Skewed {
    pub fn new(seed: u64, pool: usize) -> Skewed {
        assert!(pool >= HOT_SET, "the pool holds the hot set");
        Skewed { rng: SplitMix(seed), pool }
    }

    /// `(probe index, drawn from the hot branch)`.
    pub fn draw(&mut self) -> (usize, bool) {
        if self.rng.below(5) < 4 {
            (self.rng.below(HOT_SET), true)
        } else {
            (self.rng.below(self.pool), false)
        }
    }
}

/// A write payload: a stored record with its surname transposed — "a
/// perturbed copy of an existing person" under a fresh id.
pub fn perturbed(store: &Store, rng: &mut SplitMix) -> Record {
    let (_, base) = &store.batch[rng.below(store.batch.len())];
    let schema = base.schema().clone();
    let ln = schema.attr("LN").expect("the Extended store schema has LN");
    let mut values = base.values().to_vec();
    if let Some(s) = values[ln].as_str() {
        values[ln] = Value::from(transpose(s, rng.next_u64()));
    }
    Record::from_values(schema, values).expect("arity unchanged")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_sampler_hits_its_80_20_split() {
        let pool = 2048;
        let mut s = Skewed::new(42, pool);
        let n = 100_000;
        let (mut hot_branch, mut in_hot_set) = (0usize, 0usize);
        for _ in 0..n {
            let (i, hot) = s.draw();
            assert!(i < pool);
            assert!(!hot || i < HOT_SET);
            hot_branch += hot as usize;
            in_hot_set += (i < HOT_SET) as usize;
        }
        let frac = hot_branch as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "hot branch took {frac}");
        // Uniform draws land in the hot set too: 0.8 + 0.2 · 256/2048.
        let expected = 0.8 + 0.2 * HOT_SET as f64 / pool as f64;
        assert!((in_hot_set as f64 / n as f64 - expected).abs() < 0.01);
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = extended_serving(60, 40, 11);
        let b = extended_serving(60, 40, 11);
        let c = extended_serving(60, 40, 12);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.store.batch.len(), 108, "60 persons + 80% duplicates");
        assert_eq!(a.probes.len(), 40);
        assert_eq!(a.probes.records, b.probes.records);

        let n1 = names_serving(50, 30, 3);
        let n2 = names_serving(50, 30, 3);
        let n3 = names_serving(50, 30, 4);
        assert_eq!(n1.digest, n2.digest);
        assert_ne!(n1.digest, n3.digest);
        let engine = n1.plan.compile(1);
        assert!(engine.plan().fully_indexable(), "names plan carries no scan key");
    }

    #[test]
    fn both_rule_texts_compile_against_the_extended_shape() {
        let shape = extended_shape();
        let data = extended_data(&shape, 40, 5);
        let engine = extended_engine(&shape, &data, 1);
        assert_eq!(engine.plan().rcks().len(), 5);
        for text in [RULES_A, RULES_B] {
            let swapped = EngineBuilder::from_plan(engine.plan())
                .operators(engine.registry().clone())
                .md_text(text)
                .build()
                .expect("rule text compiles");
            assert!(!swapped.plan().rcks().is_empty());
        }
    }

    #[test]
    fn perturbed_copy_keeps_the_schema_and_changes_the_surname() {
        let inputs = extended_serving(40, 40, 9);
        let mut rng = SplitMix(1);
        let changed = (0..32)
            .filter(|_| {
                let r = perturbed(&inputs.store, &mut rng);
                assert_eq!(r.values().len(), 21);
                !inputs.store.batch.iter().any(|(_, b)| b == &r)
            })
            .count();
        assert!(changed > 16, "most copies differ from every stored record");
    }
}
