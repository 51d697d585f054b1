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
    fn assignment_order_does_not_change_the_record() {
        let a = Record::builder(schema()).field("first", "Mark").field("mail", "mc@gm.com");
        let b = Record::builder(schema()).field("mail", "mc@gm.com").field("first", "Mark");
        assert_eq!(a.build().unwrap(), b.build().unwrap());
    }

    #[test]
    fn values_null_and_schema_keep_records_apart() {
        let with = |value: Value| {
            let mut values = vec![Value::Null; 4];
            values[0] = value;
            Record::from_values(schema(), values).unwrap()
        };
        assert_ne!(with(Value::str("")), with(Value::Null), "\"\" is a value, not missing data");
        assert_ne!(with(Value::str("Mark")), with(Value::str("Marx")));
        let other = Arc::new(Schema::text("erp", &["first", "last", "mobile", "mail"]).unwrap());
        let twin = Record::from_values(other, vec![Value::Null; 4]).unwrap();
        assert_ne!(twin, with(Value::Null), "same values under another schema");
    }

    #[test]
    fn tuple_form_round_trips() {
        let rec = Record::builder(schema()).field("last", "Clifford").build().unwrap();
        let tuple = rec.to_tuple(7);
        assert_eq!(tuple.id(), 7);
        assert_eq!(Record::from_tuple(schema(), &tuple), rec);
    }

    #[test]
    fn from_values_checks_arity() {
        let err = Record::from_values(schema(), vec![Value::str("x")]).unwrap_err();
        assert!(matches!(err, ServiceError::ArityMismatch { expected: 4, got: 1, .. }));
        let ok = Record::from_values(schema(), vec![Value::Null; 4]).unwrap();
        assert!(ok.values().iter().all(Value::is_null));
    }
}
