//! The serving vocabulary: the record, id, response, error and
//! explanation types [`MatchServer`](crate::server::MatchServer) and the
//! wire protocol speak.
//!
//! * [`Record`] / [`RecordBuilder`] — the owned input type. Callers set
//!   fields by name against the server's schemas and never touch
//!   `Relation`s or `Tuple`s; unknown fields fail with a typed
//!   [`ServiceError`] naming the offender and suggesting the nearest
//!   schema attribute.
//! * [`RecordId`] / [`RuleVersion`] — stable external record ids, and
//!   the monotone stamp every answer carries so callers can tell which
//!   rules produced it.
//! * [`QueryResponse`] / [`RankedResponse`] — matched ids with the RCK
//!   that fired ([`ServiceHit`]), optionally scored ([`ScoredHit`]),
//!   plus the work counters of the probe.
//! * [`MatchExplanation`] — the trace of one (probe, record) pair:
//!   per-atom operator, θ-bound, computed distance, deciding pipeline
//!   stage and pass/fail, plus the MD deduction path that makes the
//!   fired RCK a key relative to the target.
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
//! server.upsert(RecordId(1), &ada)?;
//!
//! let probe = server.probe_builder()
//!     .field("name", "A. Lovelace")
//!     .field("email", "ada@example.org")
//!     .build()?;
//! let response = server.query(&probe)?;
//! assert_eq!(response.hits.len(), 1);
//! assert_eq!(response.hits[0].id, RecordId(1));
//! let why = server.explain(&probe, RecordId(1))?;
//! assert!(why.matched);
//! # Ok(()) }
//! ```

mod explain;
mod match_service;
mod record;

pub use explain::{AtomExplanation, DeductionStep, KeyExplanation, MatchExplanation};
pub use match_service::{
    QueryResponse, RankedResponse, RecordId, RuleVersion, ScoredHit, ServiceHit,
};
pub use record::{Record, RecordBuilder, ServiceError};
