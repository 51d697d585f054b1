//! The serving layer: one long-lived, stateful core — record upsert,
//! versioned rule hot-swap, per-pair match explanations — plus a
//! std-only TCP wire front.
//!
//! The [`engine`](crate::engine) compiles MDs into an immutable
//! [`MatchPlan`](crate::engine::MatchPlan) and executes it over batches;
//! this module turns that artifact into a server:
//!
//! * [`MatchServer`] — the core. Records, keyed by [`RecordId`], live
//!   in one [`MatchIndex`](crate::engine::MatchIndex) in arrival order.
//!   Rules and index are one immutable view behind an atomically
//!   swapped epoch cell, so reads are lock-free in the steady state and
//!   a [`swap_rules`](MatchServer::swap_rules) rebuild at version v+1
//!   flips in with **zero read downtime**. Writers take one lock, clone
//!   the index (structurally shared), mutate the clone and publish it.
//!   Boolean, batched and ranked reads share one path; nothing is
//!   memoised.
//! * [`wire`] — a length-prefixed binary protocol (std-only, no serde)
//!   with typed [`ProtocolError`]s: `query`, `query_batch`,
//!   `upsert_batch`, `explain`, `swap_rules`, `stats`, every response
//!   carrying the [`RuleVersion`](crate::service::RuleVersion) and
//!   fired-RCK provenance.
//! * [`net`] — a thin [`std::net::TcpListener`] front serving the wire
//!   protocol worker-per-connection, and [`MatchClient`], the matching
//!   blocking client.
//!
//! ```
//! use matchrules::engine::EngineBuilder;
//! use matchrules::core::schema::Schema;
//! use matchrules::server::MatchServer;
//! use matchrules::service::RecordId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let people = Schema::text("people", &["name", "phone", "email"])?;
//! let engine = EngineBuilder::new()
//!     .dedup_schema(people)
//!     .md_text("people[email] = people[email] -> people[name,phone] <=> people[name,phone]")
//!     .target(&["name", "phone"], &["name", "phone"])
//!     .build()?;
//! let server = MatchServer::new(engine);
//!
//! let ada = server.record_builder()
//!     .field("name", "Ada Lovelace")
//!     .field("phone", "020-7946-0001")
//!     .field("email", "ada@example.org")
//!     .build()?;
//! server.upsert(RecordId(1), &ada)?; // &self — share the server across threads
//!
//! let probe = server.probe_builder()
//!     .field("name", "A. Lovelace")
//!     .field("email", "ada@example.org")
//!     .build()?;
//! let response = server.query(&probe)?;
//! assert_eq!(response.hits.len(), 1);
//! assert_eq!(response.version.number(), 1);
//! # Ok(()) }
//! ```
//!
//! [`RecordId`]: crate::service::RecordId

mod core;
pub mod net;
pub mod wire;

pub use self::core::{
    IndexKinds, LabelSummary, MatchServer, ServerConfig, ServerReader, ServerStats,
};
pub use net::{ClientError, MatchClient, ServerHandle};
pub use wire::{ProtocolError, Request, Response};
