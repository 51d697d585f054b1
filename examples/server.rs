//! The server end to end: spawn `MatchServer` behind the TCP
//! front on an ephemeral port, then drive it purely over the wire with
//! `MatchClient` — upsert, query (with fired-RCK provenance), explain,
//! hot-swap the rules with zero read downtime, query again, stats.
//!
//! Every call the client makes is a `&self` method of the in-process
//! `MatchServer` too; the wire adds nothing but framing: one writer at
//! a time, lock-free epoch reads, and every answer stamped with the
//! rule version that produced it. Run with:
//!
//! ```sh
//! cargo run --release --example server
//! ```

use matchrules::core::schema::{AttrKind, Schema};
use matchrules::engine::EngineBuilder;
use matchrules::server::{MatchClient, MatchServer};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A contact book deduplicated against itself: email identifies the
    // name, name + phone identify the person.
    let contacts = Schema::kinded(
        "contacts",
        &[("name", AttrKind::Surname), ("phone", AttrKind::Phone), ("email", AttrKind::Email)],
    )?;
    let engine = EngineBuilder::new()
        .dedup_schema(contacts)
        .md_text(
            "contacts[email] = contacts[email] -> \
             contacts[name,phone] <=> contacts[name,phone]",
        )
        .target(&["name", "phone"], &["name", "phone"])
        .build()?;

    let server = Arc::new(MatchServer::new(engine));
    let handle = matchrules::server::net::serve(server.clone(), "127.0.0.1:0")?;
    println!("serving on {}\n", handle.addr());

    // The client learns both schemas from a stats round-trip, so it can
    // send (field, value) pairs instead of positional tuples.
    let mut client = MatchClient::connect(handle.addr())?;
    for (id, name, phone, email) in [
        (1u64, "Clifford", "908-1111111", "mc@gm.com"),
        (2, "Jones", "201-5550000", "aj@example.com"),
        (3, "Smith", "973-5551234", "ds@example.com"),
    ] {
        client.upsert(id, &[("name", name), ("phone", phone), ("email", email)])?;
    }

    // Query over the wire: hits carry the id and the RCK that fired.
    let answer = client.query(&[("name", "M. Clifford"), ("email", "mc@gm.com")])?;
    println!("query (v{}): {} hit(s)", answer.version, answer.hits.len());
    for hit in &answer.hits {
        println!("  matched record #{} via key {}", hit.id, hit.key);
    }

    // Ask the server why.
    let (matched, why) = client.explain(&[("name", "M. Clifford"), ("email", "mc@gm.com")], 1)?;
    assert!(matched);
    println!("\n{why}");

    // Hot-swap to phone-keyed rules. Readers never block: the rebuild
    // happens off to the side and flips in atomically at v2.
    let v2 = client.swap_rules(
        "contacts[phone] = contacts[phone] -> \
         contacts[name,phone] <=> contacts[name,phone]",
    )?;
    println!("rules swapped -> v{v2}");
    let stale = client.query(&[("email", "mc@gm.com")])?;
    println!(
        "email probe at v{}: {} hit(s) — the email rule is gone",
        stale.version,
        stale.hits.len()
    );
    let fresh = client.query(&[("phone", "201-5550000")])?;
    println!("phone probe at v{}: {} hit(s)", fresh.version, fresh.hits.len());

    // Server-side counters.
    let stats = client.stats()?;
    println!(
        "\nstats: v{}, epoch {}, {} queries, {} upserts",
        stats.version, stats.epoch, stats.queries, stats.upserts,
    );

    handle.shutdown();
    println!("server drained and stopped");
    Ok(())
}
