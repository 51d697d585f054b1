//! [`LabelStore`]: deduplicated positive/negative record pairs — the
//! labeled evidence a refinement run selects rules against.
//!
//! Labels arrive from two directions:
//!
//! * **Generated truth** — [`LabelStore::from_truth`] walks a
//!   [`GroundTruth`]'s deterministic
//!   [`labeled_pairs`](GroundTruth::labeled_pairs) enumeration, turning
//!   the §6.2 noise-ladder generators into labeled-data factories.
//! * **Live feedback** — [`LabelStore::insert`] /
//!   [`LabelStore::extend_pairs`] append individual judgements (a human
//!   confirming or rejecting a served match), which is what the wire's
//!   `SubmitLabels` frame feeds.
//!
//! The store is value-keyed: the same (left, right) value pair is held
//! once, re-submitting it with the same label is an idempotent no-op, and
//! re-submitting it with the *opposite* label is a typed
//! [`LabelError::Conflict`] — contradictory evidence must be resolved by
//! the labeler, not silently averaged away.

use crate::service::Record;
use matchrules_core::schema::{Schema, Side};
use matchrules_data::dirty::GroundTruth;
use matchrules_data::relation::{Relation, Tuple, TupleId};
use matchrules_data::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One labeled record pair.
#[derive(Debug, Clone)]
pub struct LabeledPair {
    /// The probe-side (left/credit) record.
    pub left: Record,
    /// The store-side (right/billing) record.
    pub right: Record,
    /// Whether the pair refers to the same real-world entity.
    pub is_match: bool,
}

/// Why a label was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// The pair is already labeled with the opposite polarity.
    Conflict {
        /// Index of the existing pair in [`LabelStore::pairs`].
        index: usize,
        /// The label the store already holds for the pair.
        existing: bool,
    },
    /// A record was built against a different schema than the store's.
    SchemaMismatch {
        /// Which side of the pair mismatched.
        side: Side,
        /// Name of the schema the store expects on that side.
        expected: String,
        /// Name of the schema the record carries.
        got: String,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::Conflict { index, existing } => write!(
                f,
                "pair is already labeled {} (labeled pair #{index}); contradictory labels \
                 must be resolved by the labeler",
                if *existing { "positive" } else { "negative" }
            ),
            LabelError::SchemaMismatch { side, expected, got } => write!(
                f,
                "{} record carries schema {got}, the label store expects {expected}",
                match side {
                    Side::Left => "left",
                    Side::Right => "right",
                }
            ),
        }
    }
}

impl std::error::Error for LabelError {}

/// The labeled pairs over two relations of distinct records, built by
/// [`LabelStore::relations`].
pub(super) struct LabelRelations {
    /// Distinct left records in first-occurrence order; a tuple's id is
    /// its position.
    pub(super) left: Relation,
    /// Distinct right records, likewise.
    pub(super) right: Relation,
    /// Per labeled pair, in store order: the positions of its left and
    /// right records.
    pub(super) pairs: Vec<(usize, usize)>,
}

/// Deduplicated labeled record pairs, keyed by value content.
#[derive(Debug, Clone)]
pub struct LabelStore {
    probe_schema: Arc<Schema>,
    store_schema: Arc<Schema>,
    pairs: Vec<LabeledPair>,
    by_values: HashMap<(Vec<Value>, Vec<Value>), usize>,
    positives: usize,
}

impl LabelStore {
    /// An empty store accepting left records of `probe_schema` and right
    /// records of `store_schema`.
    pub fn new(probe_schema: Arc<Schema>, store_schema: Arc<Schema>) -> Self {
        LabelStore {
            probe_schema,
            store_schema,
            pairs: Vec::new(),
            by_values: HashMap::new(),
            positives: 0,
        }
    }

    /// Builds a store from generated ground truth: every true
    /// (credit, billing) pair as a positive plus `negatives_per_positive`
    /// deterministic non-matches per billing tuple (see
    /// [`GroundTruth::labeled_pairs`]). The relations must be the ones the
    /// truth was generated with.
    pub fn from_truth(
        credit: &Relation,
        billing: &Relation,
        truth: &GroundTruth,
        negatives_per_positive: usize,
    ) -> Result<Self, LabelError> {
        let mut store = LabelStore::new(credit.schema().clone(), billing.schema().clone());
        for (c, b, is_match) in truth.labeled_pairs(negatives_per_positive) {
            let left = Record::from_values(
                store.probe_schema.clone(),
                credit.tuples()[c].values().to_vec(),
            )
            .expect("relation tuples instantiate their own schema");
            let right = Record::from_values(
                store.store_schema.clone(),
                billing.tuples()[b].values().to_vec(),
            )
            .expect("relation tuples instantiate their own schema");
            store.insert(left, right, is_match)?;
        }
        Ok(store)
    }

    /// Adds one labeled pair. Returns `Ok(true)` when the pair is new,
    /// `Ok(false)` when it was already present with the same label, and
    /// [`LabelError::Conflict`] when it was already present with the
    /// opposite label.
    pub fn insert(
        &mut self,
        left: Record,
        right: Record,
        is_match: bool,
    ) -> Result<bool, LabelError> {
        for (record, expected, side) in
            [(&left, &self.probe_schema, Side::Left), (&right, &self.store_schema, Side::Right)]
        {
            if !Arc::ptr_eq(record.schema(), expected) && record.schema() != expected {
                return Err(LabelError::SchemaMismatch {
                    side,
                    expected: expected.name().to_owned(),
                    got: record.schema().name().to_owned(),
                });
            }
        }
        let key = (left.values().to_vec(), right.values().to_vec());
        if let Some(&index) = self.by_values.get(&key) {
            let existing = self.pairs[index].is_match;
            return if existing == is_match {
                Ok(false)
            } else {
                Err(LabelError::Conflict { index, existing })
            };
        }
        self.by_values.insert(key, self.pairs.len());
        self.pairs.push(LabeledPair { left, right, is_match });
        if is_match {
            self.positives += 1;
        }
        Ok(true)
    }

    /// Adds a batch of labeled pairs (live feedback); returns how many
    /// were new. Stops at the first conflict.
    pub fn extend_pairs(
        &mut self,
        items: impl IntoIterator<Item = (Record, Record, bool)>,
    ) -> Result<usize, LabelError> {
        let mut added = 0;
        for (left, right, is_match) in items {
            if self.insert(left, right, is_match)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// The labeled pairs, in insertion order.
    pub fn pairs(&self) -> &[LabeledPair] {
        &self.pairs
    }

    /// Number of distinct labeled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the store holds no labels.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of positive (matching) pairs.
    pub fn positives(&self) -> usize {
        self.positives
    }

    /// Number of negative (non-matching) pairs.
    pub fn negatives(&self) -> usize {
        self.pairs.len() - self.positives
    }

    /// The labeled pairs over relations of distinct records — what the
    /// miner samples and the evaluator indexes and probes.
    pub(super) fn relations(&self) -> LabelRelations {
        fn position(
            rel: &mut Relation,
            seen: &mut HashMap<Vec<Value>, usize>,
            r: &Record,
        ) -> usize {
            if let Some(&pos) = seen.get(r.values()) {
                return pos;
            }
            let pos = rel.len();
            rel.push(Tuple::new(pos as TupleId, r.values().to_vec()));
            seen.insert(r.values().to_vec(), pos);
            pos
        }
        let mut left = Relation::new(self.probe_schema.clone());
        let mut right = Relation::new(self.store_schema.clone());
        let (mut left_seen, mut right_seen) = (HashMap::new(), HashMap::new());
        let pairs = (self.pairs.iter())
            .map(|p| {
                let l = position(&mut left, &mut left_seen, &p.left);
                (l, position(&mut right, &mut right_seen, &p.right))
            })
            .collect();
        LabelRelations { left, right, pairs }
    }

    /// Schema of the left (probe) side.
    pub fn probe_schema(&self) -> &Arc<Schema> {
        &self.probe_schema
    }

    /// Schema of the right (store) side.
    pub fn store_schema(&self) -> &Arc<Schema> {
        &self.store_schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::paper;
    use matchrules_data::dirty::{generate_dirty, NoiseConfig};

    fn record(schema: &Arc<Schema>, values: &[&str]) -> Record {
        Record::from_values(schema.clone(), values.iter().map(Value::str).collect()).unwrap()
    }

    fn two_schemas() -> (Arc<Schema>, Arc<Schema>) {
        let left = Arc::new(Schema::text("probe", &["name", "phone"]).unwrap());
        let right = Arc::new(Schema::text("store", &["name", "phone"]).unwrap());
        (left, right)
    }

    #[test]
    fn dedup_and_conflicts() {
        let (l, r) = two_schemas();
        let mut store = LabelStore::new(l.clone(), r.clone());
        let a = record(&l, &["mark", "908"]);
        let b = record(&r, &["marx", "908"]);
        assert!(store.insert(a.clone(), b.clone(), true).unwrap());
        // Idempotent re-submission.
        assert!(!store.insert(a.clone(), b.clone(), true).unwrap());
        assert_eq!(store.len(), 1);
        assert_eq!(store.positives(), 1);
        // Opposite label is a typed conflict, not an overwrite.
        let err = store.insert(a, b, false).unwrap_err();
        assert_eq!(err, LabelError::Conflict { index: 0, existing: true });
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let (l, r) = two_schemas();
        let mut store = LabelStore::new(l.clone(), r.clone());
        let wrong = record(&r, &["mark", "908"]);
        let b = record(&r, &["marx", "908"]);
        let err = store.insert(wrong, b, true).unwrap_err();
        assert!(matches!(err, LabelError::SchemaMismatch { side: Side::Left, .. }));
    }

    #[test]
    fn from_truth_covers_every_true_pair() {
        let setting = paper::extended();
        let cfg = NoiseConfig { seed: 0xFEED, ..NoiseConfig::default() };
        let data = generate_dirty(&setting.pair, &setting.target, 30, &cfg);
        let store = LabelStore::from_truth(&data.credit, &data.billing, &data.truth, 2).unwrap();
        assert_eq!(store.positives(), data.truth.total_true_pairs());
        assert!(store.negatives() > 0);
        assert!(store.pairs().iter().all(|p| p.left.schema() == store.probe_schema()));
    }
}
