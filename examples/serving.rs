//! Serving point queries with a `MatchIndex`: build once, query many,
//! maintain incrementally.
//!
//! The batch modes answer "which pairs match across these two
//! relations?"; the index mode answers "which tuples match *this*
//! record?" without a batch run — the shape of a lookup service sitting
//! in front of a customer database. Run with:
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use matchrules::core::schema::{AttrKind, Schema};
use matchrules::data::relation::{Relation, Tuple};
use matchrules::data::value::Value;
use matchrules::engine::EngineBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CRM-ish schema pair: none of the paper's attribute names.
    let crm = Schema::kinded(
        "crm",
        &[
            ("first", AttrKind::GivenName),
            ("last", AttrKind::Surname),
            ("mobile", AttrKind::Phone),
            ("mail", AttrKind::Email),
        ],
    )?;
    let orders = Schema::kinded(
        "orders",
        &[
            ("fname", AttrKind::GivenName),
            ("lname", AttrKind::Surname),
            ("contact", AttrKind::Phone),
            ("email", AttrKind::Email),
        ],
    )?;

    // Compile MDs -> RCKs -> plan once; the index is the third execution
    // mode of the same compiled plan.
    let engine = EngineBuilder::new()
        .schemas(crm, orders)
        .md_text(
            "crm[mail] = orders[email] -> crm[first,last] <=> orders[fname,lname]\n\
             crm[last] = orders[lname] /\\ crm[first] ~d orders[fname] /\\ \
             crm[mobile] = orders[contact] -> \
             crm[first,last,mobile] <=> orders[fname,lname,contact]\n",
        )
        .target(&["first", "last", "mobile"], &["fname", "lname", "contact"])
        .build()?;
    println!("{}", engine.plan().describe());

    // The order book we serve lookups against.
    let mut orders_rel = Relation::new(engine.plan().pair().right().clone());
    orders_rel.push_strs(1, &["Marx", "Clifford", "908-1111111", "mc@gm.com"]);
    orders_rel.push_strs(2, &["Anna", "Jones", "201-5550000", "aj@example.com"]);
    orders_rel.push_strs(3, &["David", "Smith", "973-5551234", "ds@example.com"]);

    // Build once...
    let mut index = engine.index(&orders_rel)?;
    let stats = index.stats();
    println!(
        "index over {} orders: {} key atom indices, {} q-gram and {} element atom \
         indices over {} distinct values\n",
        stats.live,
        stats.key_anchors,
        stats.qgram_anchors,
        stats.element_anchors,
        stats.distinct_values
    );

    // ...query many. Which orders belong to this CRM record?
    let probe = Tuple::new(
        1001,
        vec![
            Value::str("Mark"), // typo'd against the order book
            Value::str("Clifford"),
            Value::str("908-1111111"),
            Value::str("mc@gm.com"),
        ],
    );
    let outcome = index.query(&probe);
    println!(
        "query(Mark Clifford): {} hit(s) from {} candidate(s) examined",
        outcome.hits.len(),
        outcome.candidates
    );
    for hit in &outcome.hits {
        println!("  order #{} via RCK {}", hit.id, hit.key);
    }
    assert_eq!(outcome.hits.len(), 1);

    // Incremental maintenance: a new order is queryable immediately…
    index.insert(Tuple::new(
        4,
        vec![Value::str("Mark"), Value::str("Clifford"), Value::str("908-1111111"), Value::Null],
    ))?;
    let hits = index.query(&probe).hits;
    println!("\nafter insert of order #4: {} hit(s)", hits.len());
    assert!(hits.iter().any(|h| h.id == 4));

    // …and a removed one stops matching at once (the slot is tombstoned;
    // rebuild the index to reclaim the space).
    index.remove(1)?;
    let hits = index.query(&probe).hits;
    println!("after remove of order #1: {} hit(s)", hits.len());
    assert!(hits.iter().all(|h| h.id != 1));

    println!("\nserving core ready: build once, query many, maintain incrementally.");
    Ok(())
}
