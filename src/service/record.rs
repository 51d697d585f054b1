//! [`Record`]: the owned, schema-checked input type of the serving
//! layer, and the typed [`ServiceError`]s it raises.
//!
//! Callers of a [`MatchServer`](crate::server::MatchServer) never
//! touch [`Relation`](matchrules_data::relation::Relation)s or
//! [`Tuple`](matchrules_data::relation::Tuple)s: they build `Record`s by
//! field *name* against a schema, and every name is validated — an
//! unknown field names the offending attribute **and** suggests the
//! nearest attribute of the schema (people typo `"lname"` as `"lnmae"`
//! far more often than they invent fields from thin air).

use crate::engine::EngineError;
use crate::service::match_service::RecordId;
use matchrules_core::schema::Schema;
use matchrules_data::relation::{Tuple, TupleId};
use matchrules_data::value::Value;
use matchrules_simdist::edit::levenshtein;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the serving layer.
#[derive(Debug)]
pub enum ServiceError {
    /// A record field names no attribute of the schema it was built
    /// against; `suggestion` is the schema's nearest attribute name by
    /// edit distance.
    UnknownField {
        /// Name of the schema the record targets.
        schema: String,
        /// The offending field name.
        field: String,
        /// The schema attribute closest to `field` by edit distance.
        suggestion: Option<String>,
    },
    /// A value list does not have one value per schema attribute.
    ArityMismatch {
        /// Name of the schema the record targets.
        schema: String,
        /// The schema's arity.
        expected: usize,
        /// Number of values offered.
        got: usize,
    },
    /// A record built against one schema was handed to a service slot
    /// (store or probe side) expecting another.
    SchemaMismatch {
        /// Name/arity of the schema the service expects.
        expected: String,
        /// Name/arity of the schema the record carries.
        got: String,
    },
    /// No live record carries this id.
    UnknownRecord {
        /// The unresolved id.
        id: RecordId,
    },
    /// A ranked query was given a NaN score threshold; NaN compares
    /// false to everything, so the caller's intent is ambiguous.
    InvalidThreshold,
    /// A rule-swap recompile or index rebuild failed; the service state
    /// is unchanged.
    Engine(EngineError),
    /// A refinement input was rejected (conflicting label, empty label
    /// set, incompatible operator table…); the serving state is
    /// unchanged.
    Refinement {
        /// Human-readable reason.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownField { schema, field, suggestion } => {
                write!(f, "record field {field:?} does not exist in schema {schema:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            ServiceError::ArityMismatch { schema, expected, got } => {
                write!(f, "{got} values offered to schema {schema:?} of arity {expected}")
            }
            ServiceError::SchemaMismatch { expected, got } => {
                write!(f, "record schema {got} does not instantiate the service schema {expected}")
            }
            ServiceError::UnknownRecord { id } => {
                write!(f, "no live record carries id {id}")
            }
            ServiceError::InvalidThreshold => {
                write!(f, "ranked query min_score must not be NaN")
            }
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::Refinement { message } => {
                write!(f, "refinement rejected: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<matchrules_matcher::index::IndexError> for ServiceError {
    fn from(e: matchrules_matcher::index::IndexError) -> Self {
        ServiceError::Engine(EngineError::Index(e))
    }
}

/// The schema attribute nearest to `field` by (plain) edit distance —
/// the suggestion an [`ServiceError::UnknownField`] carries. Ties break
/// toward schema order.
fn nearest_attribute(schema: &Schema, field: &str) -> Option<String> {
    schema
        .attributes()
        .iter()
        .map(|a| a.name())
        .min_by_key(|name| levenshtein(field, name))
        .map(str::to_owned)
}

/// An owned record: one value per attribute of the schema it was built
/// against (unset fields are `Null` — missing data, which matches
/// nothing). Built with a [`RecordBuilder`]; consumed by
/// [`MatchServer`](crate::server::MatchServer) upserts and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    schema: Arc<Schema>,
    values: Vec<Value>,
}

impl Record {
    /// A builder over `schema`; set fields by name, then
    /// [`RecordBuilder::build`].
    pub fn builder(schema: Arc<Schema>) -> RecordBuilder {
        RecordBuilder { schema, fields: Vec::new() }
    }

    /// Builds a record from one value per schema attribute, in schema
    /// order — the bulk-ingestion path (CSV rows, existing tuples).
    pub fn from_values(schema: Arc<Schema>, values: Vec<Value>) -> Result<Record, ServiceError> {
        if values.len() != schema.arity() {
            return Err(ServiceError::ArityMismatch {
                schema: schema.name().to_owned(),
                expected: schema.arity(),
                got: values.len(),
            });
        }
        Ok(Record { schema, values })
    }

    /// The schema the record instantiates.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The values, in schema attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// A stable 64-bit byte signature of the record: FNV-1a over the
    /// schema's name and arity plus every value in schema attribute
    /// order, each length-prefixed and tagged (`Null` is distinct from
    /// `""`). The signature is **order- and schema-deterministic** — it
    /// depends only on the schema identity and the value bytes, never on
    /// builder assignment order, process, platform or run — which makes
    /// it a sound cache key: two records with equal signatures built
    /// against one schema are equal with overwhelming probability, and
    /// equal records always have equal signatures.
    pub fn signature(&self) -> u64 {
        // FNV-1a, 64-bit: simple, stable across runs (unlike
        // `DefaultHasher`, whose output is unspecified between releases).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.schema.name().as_bytes());
        eat(&(self.schema.arity() as u64).to_le_bytes());
        for value in &self.values {
            match value.as_str() {
                // Tag + length prefix: `Null` ≠ `""`, and value
                // boundaries cannot shift (["ab","c"] ≠ ["a","bc"]).
                None => eat(&[0]),
                Some(s) => {
                    eat(&[1]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
            }
        }
        hash
    }

    /// The value of the named field; unknown names get the same typed
    /// error (with suggestion) as the builder.
    pub fn get(&self, field: &str) -> Result<&Value, ServiceError> {
        match self.schema.attr(field) {
            Ok(id) => Ok(&self.values[id]),
            Err(_) => Err(ServiceError::UnknownField {
                schema: self.schema.name().to_owned(),
                field: field.to_owned(),
                suggestion: nearest_attribute(&self.schema, field),
            }),
        }
    }

    /// The tuple form the engine layers consume.
    pub(crate) fn to_tuple(&self, id: TupleId) -> Tuple {
        Tuple::new(id, self.values.clone())
    }

    /// Reconstructs a record from a stored tuple.
    pub(crate) fn from_tuple(schema: Arc<Schema>, tuple: &Tuple) -> Record {
        Record { schema, values: tuple.values().to_vec() }
    }
}

/// Collects `field → value` assignments for one [`Record`]. Assignments
/// are validated (and unset attributes defaulted to `Null`) at
/// [`RecordBuilder::build`]; setting the same field twice keeps the last
/// value.
#[derive(Debug, Clone)]
pub struct RecordBuilder {
    schema: Arc<Schema>,
    fields: Vec<(String, Value)>,
}

impl RecordBuilder {
    /// Sets one field by name. `""` is a value like any other — use
    /// [`Value::Null`] (or leave the field unset) for missing data.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.fields.push((name.to_owned(), value.into()));
        self
    }

    /// Validates every assignment and produces the record. The first
    /// unknown field fails with [`ServiceError::UnknownField`], naming
    /// the field and suggesting the schema's nearest attribute name.
    pub fn build(self) -> Result<Record, ServiceError> {
        let mut values = vec![Value::Null; self.schema.arity()];
        for (name, value) in self.fields {
            match self.schema.attr(&name) {
                Ok(id) => values[id] = value,
                Err(_) => {
                    return Err(ServiceError::UnknownField {
                        schema: self.schema.name().to_owned(),
                        field: name.clone(),
                        suggestion: nearest_attribute(&self.schema, &name),
                    })
                }
            }
        }
        Ok(Record { schema: self.schema, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::text("crm", &["first", "last", "mobile", "mail"]).unwrap())
    }

    #[test]
    fn builder_fills_unset_fields_with_null() {
        let rec = Record::builder(schema())
            .field("first", "Mark")
            .field("mail", "mc@gm.com")
            .build()
            .unwrap();
        assert_eq!(rec.get("first").unwrap(), &Value::str("Mark"));
        assert!(rec.get("last").unwrap().is_null());
        assert_eq!(rec.values().len(), 4);
    }

    #[test]
    fn unknown_field_suggests_nearest_attribute() {
        let err = Record::builder(schema()).field("lst", "Clifford").build().unwrap_err();
        match err {
            ServiceError::UnknownField { schema, field, suggestion } => {
                assert_eq!(schema, "crm");
                assert_eq!(field, "lst");
                assert_eq!(suggestion.as_deref(), Some("last"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let msg = Record::builder(schema()).field("emial", "x").build().unwrap_err().to_string();
        assert!(msg.contains("\"emial\""), "{msg}");
        assert!(msg.contains("did you mean \"mail\"?"), "{msg}");
    }

    #[test]
    fn get_reports_unknown_fields_the_same_way() {
        let rec = Record::builder(schema()).build().unwrap();
        let err = rec.get("mobil").unwrap_err();
        assert!(matches!(
            err,
            ServiceError::UnknownField { ref suggestion, .. } if suggestion.as_deref() == Some("mobile")
        ));
    }

    #[test]
    fn last_assignment_wins() {
        let rec = Record::builder(schema())
            .field("first", "Mark")
            .field("first", "Marx")
            .build()
            .unwrap();
        assert_eq!(rec.get("first").unwrap(), &Value::str("Marx"));
    }

    #[test]
    fn signature_is_deterministic_and_ignores_assignment_order() {
        let a = Record::builder(schema())
            .field("first", "Mark")
            .field("mail", "mc@gm.com")
            .build()
            .unwrap();
        let b = Record::builder(schema())
            .field("mail", "mc@gm.com")
            .field("first", "Mark")
            .build()
            .unwrap();
        assert_eq!(a.signature(), b.signature(), "assignment order must not matter");
        assert_eq!(a.signature(), a.clone().signature(), "same record, same signature");
        // Pinned value: the signature is stable across runs and
        // platforms — a silent change would invalidate persisted caches.
        let empty = Record::builder(schema()).build().unwrap();
        assert_eq!(empty.signature(), 0x5d67_37ba_8b45_f7c3);
    }

    #[test]
    fn signature_separates_values_null_and_schema() {
        let base = Record::builder(schema()).field("first", "Mark").build().unwrap();
        let other = Record::builder(schema()).field("first", "Marx").build().unwrap();
        assert_ne!(base.signature(), other.signature());
        // Null and "" are different records.
        let null_last = Record::builder(schema()).field("first", "Mark").build().unwrap();
        let empty_last =
            Record::builder(schema()).field("first", "Mark").field("last", "").build().unwrap();
        assert_ne!(null_last.signature(), empty_last.signature());
        // Boundary shifts cannot collide: ["ab", "c"] vs ["a", "bc"].
        let ab_c =
            Record::builder(schema()).field("first", "ab").field("last", "c").build().unwrap();
        let a_bc =
            Record::builder(schema()).field("first", "a").field("last", "bc").build().unwrap();
        assert_ne!(ab_c.signature(), a_bc.signature());
        // Same values under another schema sign differently.
        let alt = Arc::new(Schema::text("mdm", &["first", "last", "mobile", "mail"]).unwrap());
        let same_values = Record::from_values(alt, base.values().to_vec()).unwrap();
        assert_ne!(base.signature(), same_values.signature());
    }

    #[test]
    fn from_values_checks_arity() {
        let err = Record::from_values(schema(), vec![Value::str("x")]).unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { expected: 4, got: 1, .. }));
        let ok = Record::from_values(schema(), vec![Value::Null; 4]).unwrap();
        assert!(ok.values().iter().all(Value::is_null));
    }
}
