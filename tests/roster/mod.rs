//! The roster/signup shape shared by the integration tests that exercise
//! element anchors: a plan whose keys retrieve through Jaro–Winkler and
//! token element postings, soundex and phone key anchors, over stores of
//! generated persons whose signup rows carry a first-name transposition
//! and a city word rotation (so true pairs are reachable only through the
//! fuzzy anchors).

use matchrules::core::schema::{AttrKind, Schema, SchemaPair};
use matchrules::data::gen::generate_persons;
use matchrules::data::relation::Relation;
use matchrules::engine::{EngineBuilder, ExecConfig, MatchEngine};
use std::sync::Arc;

/// Two MDs; findRCKs deduces three keys from them, one of which is
/// `first ≈jw ∧ last ≈sx ∧ city ≈tok`.
const RULES: &str = "\
roster[first] ~jw signup[first] /\\ roster[last] ~sx signup[last] /\\ \
roster[city] ~tok signup[city] -> roster[first,last,city] <=> signup[first,last,city]
roster[phone] = signup[phone] /\\ roster[last] ~sx signup[last] -> \
roster[first,last,city] <=> signup[first,last,city]
";

fn pair() -> SchemaPair {
    let side = |name: &str| {
        let attrs = [
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("city", AttrKind::City),
            ("phone", AttrKind::Phone),
        ];
        Arc::new(Schema::kinded(name, &attrs).expect("static schema"))
    };
    SchemaPair::new(side("roster"), side("signup"))
}

/// The roster plan, compiled for `threads` runtime threads.
pub fn roster_engine(threads: usize) -> MatchEngine {
    EngineBuilder::new()
        .schema_pair(pair())
        .md_text(RULES)
        .target(&["first", "last", "city"], &["first", "last", "city"])
        .exec(ExecConfig::fixed(threads))
        .build()
        .expect("the roster plan compiles")
}

/// `persons` generated persons as `(roster probes, signup store)`, both
/// with ids `1..=persons`; the signup rows are stored `copies` times,
/// copy `c` under ids offset by `c · persons`.
pub fn roster_data(persons: usize, seed: u64, copies: u64) -> (Relation, Relation) {
    let pair = pair();
    let mut roster = Relation::new(pair.left().clone());
    let mut signup = Relation::new(pair.right().clone());
    let people = generate_persons(persons, seed);
    for (i, p) in people.iter().enumerate() {
        roster.push_strs(i as u64 + 1, &[&p.first, &p.last, &p.city, &p.tel]);
    }
    for copy in 0..copies {
        for (i, p) in people.iter().enumerate() {
            let id = copy * persons as u64 + i as u64 + 1;
            let first = transpose(&p.first, i as u64);
            signup.push_strs(id, &[&first, &p.last, &rotate_words(&p.city), &p.tel]);
        }
    }
    (roster, signup)
}

/// Swaps two adjacent interior characters, chosen by `h`.
fn transpose(s: &str, h: u64) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 4 {
        let i = 1 + (h as usize) % (chars.len() - 2);
        chars.swap(i, i + 1);
    }
    chars.into_iter().collect()
}

/// "New York" → "York New": the token set survives, equality does not.
fn rotate_words(s: &str) -> String {
    let words: Vec<&str> = s.split_whitespace().collect();
    match words.split_first() {
        Some((first, rest)) if !rest.is_empty() => format!("{} {}", rest.join(" "), first),
        _ => s.to_owned(),
    }
}
