//! Relations, tuples and instance pairs.
//!
//! The paper's matching problem is stated over an *instance pair*
//! `D = (I1, I2)` of the schema pair `(R1, R2)`. Tuples carry the temporary
//! unique ids the dynamic semantics needs to track updated versions (§2.1,
//! "Extensions"): `D ⊑ D'` relates tuples by id.

use crate::value::Value;
use matchrules_core::schema::{AttrId, Schema, SchemaPair, Side};
use std::fmt;
use std::sync::Arc;

/// Stable tuple identifier, unique within its relation.
pub type TupleId = u64;

/// A tuple: id plus one value per schema attribute. Tuples are never
/// mutated in place, so the values are refcounted: cloning a tuple (into
/// an index, a snapshot, a rebuild's input) shares them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    id: TupleId,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple; the arity is validated by [`Relation::push`].
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple { id, values: values.into() }
    }

    /// The tuple's id.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// The value of attribute `attr`.
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr]
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// An instance of one relation schema.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty instance of `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Relation { schema, tuples: Vec::new() }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Appends a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's arity does not match the schema.
    pub fn push(&mut self, tuple: Tuple) {
        assert_eq!(
            tuple.values.len(),
            self.schema.arity(),
            "tuple arity does not match schema {}",
            self.schema.name()
        );
        self.tuples.push(tuple);
    }

    /// Convenience: appends a tuple from string slices, with `""` mapped to
    /// `Null`.
    pub fn push_strs(&mut self, id: TupleId, values: &[&str]) {
        let values = values
            .iter()
            .map(|s| if s.is_empty() || *s == "null" { Value::Null } else { Value::str(s) })
            .collect();
        self.push(Tuple::new(id, values));
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Looks a tuple up by id (linear scan — instances are append-only and
    /// id-dense in practice; hot paths index by position instead).
    pub fn by_id(&self, id: TupleId) -> Option<&Tuple> {
        self.tuples.iter().find(|t| t.id == id)
    }

    /// Average character length per attribute — the `lt` statistic feeding
    /// the §5 cost model.
    pub fn avg_lengths(&self) -> Vec<f64> {
        let arity = self.schema.arity();
        let mut sums = vec![0usize; arity];
        for t in &self.tuples {
            for (i, v) in t.values.iter().enumerate() {
                sums[i] += v.char_len();
            }
        }
        let n = self.tuples.len().max(1) as f64;
        sums.into_iter().map(|s| s as f64 / n).collect()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} tuples)", self.schema.name(), self.tuples.len())?;
        for t in &self.tuples {
            write!(f, "  #{}:", t.id)?;
            for v in t.values() {
                write!(f, " {v} |")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An instance pair `D = (I1, I2)` of a schema pair.
#[derive(Debug, Clone)]
pub struct InstancePair {
    pair: SchemaPair,
    left: Relation,
    right: Relation,
}

impl InstancePair {
    /// Builds the pair; the relations must instantiate the pair's schemas.
    ///
    /// # Panics
    ///
    /// Panics on schema mismatch.
    pub fn new(pair: SchemaPair, left: Relation, right: Relation) -> Self {
        assert!(
            Arc::ptr_eq(left.schema(), pair.left()) || left.schema().name() == pair.left().name(),
            "left relation does not instantiate the pair's left schema"
        );
        assert!(
            Arc::ptr_eq(right.schema(), pair.right())
                || right.schema().name() == pair.right().name(),
            "right relation does not instantiate the pair's right schema"
        );
        InstancePair { pair, left, right }
    }

    /// The schema pair.
    pub fn schema_pair(&self) -> &SchemaPair {
        &self.pair
    }

    /// The left instance `I1`.
    pub fn left(&self) -> &Relation {
        &self.left
    }

    /// The right instance `I2`.
    pub fn right(&self) -> &Relation {
        &self.right
    }

    /// The instance on `side`.
    pub fn relation(&self, side: Side) -> &Relation {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::schema::Schema;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::text("R", &["a", "b"]).unwrap())
    }

    #[test]
    fn push_and_access() {
        let mut rel = Relation::new(schema());
        rel.push_strs(1, &["x", "y"]);
        rel.push_strs(2, &["", "z"]);
        assert_eq!(rel.len(), 2);
        assert!(!rel.is_empty());
        assert_eq!(rel.tuples()[0].get(0), &Value::str("x"));
        assert!(rel.tuples()[1].get(0).is_null());
        assert_eq!(rel.by_id(2).unwrap().get(1), &Value::str("z"));
        assert!(rel.by_id(99).is_none());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut rel = Relation::new(schema());
        rel.push(Tuple::new(1, vec![Value::str("only one")]));
    }

    #[test]
    fn null_keyword_maps_to_null() {
        let mut rel = Relation::new(schema());
        rel.push_strs(1, &["null", "ok"]);
        assert!(rel.tuples()[0].get(0).is_null());
    }

    #[test]
    fn avg_lengths() {
        let mut rel = Relation::new(schema());
        rel.push_strs(1, &["ab", "xyzw"]);
        rel.push_strs(2, &["abcd", ""]);
        let lens = rel.avg_lengths();
        assert!((lens[0] - 3.0).abs() < 1e-12);
        assert!((lens[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn instance_pair_wiring() {
        let s = schema();
        let pair = SchemaPair::reflexive(s.clone());
        let mut l = Relation::new(s.clone());
        l.push_strs(1, &["x", "y"]);
        let r = Relation::new(s);
        let d = InstancePair::new(pair, l, r);
        assert_eq!(d.left().len(), 1);
        assert_eq!(d.right().len(), 0);
        assert_eq!(d.relation(Side::Left).len(), 1);
    }

    #[test]
    fn display_renders() {
        let mut rel = Relation::new(schema());
        rel.push_strs(1, &["x", ""]);
        let text = rel.to_string();
        assert!(text.contains("R (1 tuples)"));
        assert!(text.contains("null"));
    }
}
