//! The unique-value shape shared by the integration tests that measure
//! retrieval where values never repeat: every attribute value is a fresh
//! random-letter string, so a q-gram anchor's dictionary holds one value
//! per record and every value's run of slots is a single slot — the
//! opposite end from the generated person data, whose names and cities
//! repeat.

use matchrules::core::dependency::SimilarityAtom;
use matchrules::core::operators::OperatorTable;
use matchrules::core::relative_key::RelativeKey;
use matchrules::core::schema::Schema;
use matchrules::data::eval::{paper_registry, RuntimeOps};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::Value;
use std::sync::Arc;

/// A splitmix64 output for stream position `x`.
fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` lowercase letters drawn from a splitmix64 stream seeded by `i`.
pub fn letters(i: u64, len: usize) -> String {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            char::from(b'a' + (mix(x) % 26) as u8)
        })
        .collect()
}

/// A store of `records` rows over `fn`, `ln`, `street`, `city`, each value
/// 6 to 10 random letters; the one key `fn ≈d ∧ ln ≈d ∧ street ≈d ∧
/// city ≈d` over the four q-gram anchors, with its resolved operators;
/// and `probes` probes, each a copy of a stored row (drawn with
/// replacement) with one letter of one attribute replaced — so nearly
/// every probe matches exactly its source row.
pub fn unique_store(
    records: u64,
    probes: usize,
) -> (Relation, Vec<RelativeKey>, Arc<RuntimeOps>, Vec<Tuple>) {
    let schema = Arc::new(Schema::text("R", &["fn", "ln", "street", "city"]).expect("schema"));
    let mut rel = Relation::new(schema);
    for i in 0..records {
        let value = |a: u64| Value::str(letters(i * 4 + a, 6 + ((i + a) % 5) as usize));
        rel.push(Tuple::new(i + 1, (0..4).map(value).collect()));
    }
    let mut table = OperatorTable::new();
    let d = table.intern("≈d");
    let ops = Arc::new(RuntimeOps::resolve(&table, &paper_registry()).expect("≈d resolves"));
    let keys = vec![RelativeKey::new((0..4).map(|a| SimilarityAtom::new(a, a, d)).collect())];
    let probes = (0..probes as u64)
        .map(|p| {
            let draw = |k: u64| mix(0x00C0_FFEE ^ (p << 2 | k));
            let source = &rel.tuples()[(draw(0) % records) as usize];
            let mut values = source.values().to_vec();
            let attr = (draw(1) % 4) as usize;
            let mut chars: Vec<char> = values[attr].as_str().expect("text").chars().collect();
            let at = (draw(2) % chars.len() as u64) as usize;
            chars[at] = char::from(b'a' + (draw(3) % 26) as u8);
            values[attr] = Value::str(chars.into_iter().collect::<String>());
            Tuple::new(1_000_000 + p, values)
        })
        .collect();
    (rel, keys, ops, probes)
}
