//! Per-relation preprocessing for the compiled similarity hot path.
//!
//! Thresholded edit-distance atoms evaluate `O(candidates)` times per
//! run, but their per-string work — collecting `chars()`, counting the
//! character bag, extracting q-grams — only depends on the *tuple
//! attribute*, of which there are `O(tuples)`. A [`RelationPrep`]
//! extracts one [`AttrSig`] (character buffer plus
//! [`StringSig`] filter
//! signature) per needed tuple attribute, once, optionally in parallel
//! over a [`WorkPool`]; pair evaluation then runs the filter pipeline and
//! the banded DP on cached buffers.
//!
//! Which attributes need signatures is decided by the operators appearing
//! in the match rules (see [`SigNeeds`]): equality and opaque operators
//! cost nothing here.

use crate::relation::{Relation, Tuple};
use crate::value::Value;
use matchrules_core::schema::AttrId;
use matchrules_runtime::WorkPool;
use matchrules_simdist::filters::StringSig;

/// Minimum tuples per chunk when signatures are extracted over a pool:
/// one extraction is a few hundred nanoseconds, so chunks this size
/// amortize chunk claiming.
const PREP_MIN_CHUNK: usize = 256;

/// Which attributes of a schema need filter signatures, mapped to dense
/// signature slots (in mark order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigNeeds {
    slots: Vec<Option<u32>>,
    /// The marked attributes, by slot.
    attrs: Vec<AttrId>,
}

impl SigNeeds {
    /// No needs over a schema of `arity` attributes.
    pub fn none(arity: usize) -> Self {
        SigNeeds { slots: vec![None; arity], attrs: Vec::new() }
    }

    /// Marks `attr` as needing a signature (idempotent).
    pub fn mark(&mut self, attr: AttrId) {
        if self.slots[attr].is_none() {
            self.slots[attr] = Some(self.attrs.len() as u32);
            self.attrs.push(attr);
        }
    }

    /// Folds another need set in (same arity).
    pub fn union(&mut self, other: &SigNeeds) {
        for (attr, slot) in other.slots.iter().enumerate() {
            if slot.is_some() {
                self.mark(attr);
            }
        }
    }

    /// Number of attributes needing signatures.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether nothing needs a signature.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    fn slot(&self, attr: AttrId) -> Option<usize> {
        self.slots.get(attr).copied().flatten().map(|s| s as usize)
    }
}

/// The cached per-tuple-attribute state: the collected character buffer
/// plus the filter signature, extracted once instead of once per pair.
#[derive(Debug, Clone)]
pub struct AttrSig {
    null: bool,
    chars: Box<[char]>,
    sig: StringSig,
}

impl AttrSig {
    /// Extracts the signature of one value.
    pub fn of_value(value: &Value) -> Self {
        match value.as_str() {
            None => AttrSig { null: true, chars: Box::new([]), sig: StringSig::of_chars(&[]) },
            Some(s) => {
                let chars: Box<[char]> = s.chars().collect();
                let sig = StringSig::of_chars(&chars);
                AttrSig { null: false, chars, sig }
            }
        }
    }

    /// Whether the underlying value was `Null`.
    pub fn is_null(&self) -> bool {
        self.null
    }

    /// The collected characters (empty for `Null`).
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// The filter signature.
    pub fn sig(&self) -> &StringSig {
        &self.sig
    }
}

/// Signatures for every needed attribute of every tuple of one relation.
#[derive(Debug, Clone)]
pub struct RelationPrep {
    needs: SigNeeds,
    /// Row-major: the signatures of tuple `pos` are
    /// `sigs[pos * needs.len()..][..needs.len()]`, in slot order.
    sigs: Vec<AttrSig>,
}

impl RelationPrep {
    /// Serial extraction.
    pub fn build(relation: &Relation, needs: &SigNeeds) -> Self {
        Self::build_in(&WorkPool::serial(), relation, needs)
    }

    /// Extraction chunked over `pool` (tuple order preserved; the result
    /// is identical to the serial build).
    pub fn build_in(pool: &WorkPool, relation: &Relation, needs: &SigNeeds) -> Self {
        if needs.is_empty() {
            return Self::empty(needs);
        }
        let tuples = relation.tuples();
        let chunks = pool.par_ranges(tuples.len(), PREP_MIN_CHUNK, |_, range| {
            let mut chunk = Self::empty(needs);
            tuples[range].iter().for_each(|t| chunk.push_row(t));
            chunk.sigs
        });
        RelationPrep { needs: needs.clone(), sigs: chunks.into_iter().flatten().collect() }
    }

    /// A prep with no rows yet — the starting point of a probe *batch*,
    /// where rows are pushed one by one without building a [`Relation`].
    pub fn empty(needs: &SigNeeds) -> Self {
        RelationPrep { needs: needs.clone(), sigs: Vec::new() }
    }

    /// A one-tuple prep — the probe side of a point query against a
    /// match index, where building a whole [`Relation`] first would be
    /// wasted work.
    pub fn single(tuple: &Tuple, needs: &SigNeeds) -> Self {
        let mut prep = Self::empty(needs);
        prep.push_row(tuple);
        prep
    }

    /// Appends the signatures of one more tuple, which becomes position
    /// `self.len()` — how a probe batch is prepared one tuple at a time.
    /// No-op when nothing needs signatures.
    pub fn push_row(&mut self, tuple: &Tuple) {
        self.sigs.extend(self.needs.attrs.iter().map(|&attr| AttrSig::of_value(tuple.get(attr))));
    }

    /// The need set this prep was built for.
    pub fn needs(&self) -> &SigNeeds {
        &self.needs
    }

    /// The signature of attribute `attr` of the tuple at `pos`, when that
    /// attribute was marked in the build's [`SigNeeds`].
    pub fn sig(&self, pos: usize, attr: AttrId) -> Option<&AttrSig> {
        let slot = self.needs.slot(attr)?;
        self.sigs.get(pos * self.needs.len() + slot)
    }

    /// Number of prepared tuples (0 when nothing needed signatures).
    pub fn len(&self) -> usize {
        self.sigs.len().checked_div(self.needs.len()).unwrap_or(0)
    }

    /// Whether no signatures were prepared.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::schema::Schema;
    use std::sync::Arc;

    fn relation() -> Relation {
        let schema = Arc::new(Schema::text("R", &["a", "b", "c"]).unwrap());
        let mut rel = Relation::new(schema);
        rel.push_strs(1, &["Mark", "Clifford", "07974"]);
        rel.push_strs(2, &["", "Brady", "07974"]);
        rel
    }

    #[test]
    fn needs_map_to_dense_slots() {
        let mut needs = SigNeeds::none(3);
        assert!(needs.is_empty());
        needs.mark(2);
        needs.mark(0);
        needs.mark(2); // idempotent
        assert_eq!(needs.len(), 2);
        assert_eq!(needs.slot(2), Some(0));
        assert_eq!(needs.slot(0), Some(1));
        assert_eq!(needs.slot(1), None);
        let mut other = SigNeeds::none(3);
        other.mark(1);
        needs.union(&other);
        assert_eq!(needs.len(), 3);
    }

    #[test]
    fn prep_extracts_needed_columns_only() {
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(1);
        let prep = RelationPrep::build(&rel, &needs);
        assert_eq!(prep.len(), 2);
        assert!(!prep.is_empty());
        let sig = prep.sig(0, 1).unwrap();
        assert!(!sig.is_null());
        assert_eq!(sig.chars().iter().collect::<String>(), "Clifford");
        assert_eq!(sig.sig().char_len(), 8);
        assert!(prep.sig(0, 0).is_none(), "unneeded attribute has no signature");
        assert!(prep.sig(7, 1).is_none(), "out of range");
    }

    #[test]
    fn out_of_order_marking_keeps_signatures_aligned() {
        // Regression: slots are assigned in mark order; the row must be
        // laid out by slot, not by attribute index.
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(2); // slot 0
        needs.mark(0); // slot 1
        let prep = RelationPrep::build(&rel, &needs);
        let a0: String = prep.sig(0, 0).unwrap().chars().iter().collect();
        let a2: String = prep.sig(0, 2).unwrap().chars().iter().collect();
        assert_eq!(a0, "Mark");
        assert_eq!(a2, "07974");
    }

    #[test]
    fn null_values_are_marked() {
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(0);
        let prep = RelationPrep::build(&rel, &needs);
        assert!(prep.sig(1, 0).unwrap().is_null());
        assert!(prep.sig(1, 0).unwrap().chars().is_empty());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let schema = Arc::new(Schema::text("R", &["x"]).unwrap());
        let mut rel = Relation::new(schema);
        for i in 0..700u64 {
            rel.push_strs(i, &[&format!("value-{i}")]);
        }
        let mut needs = SigNeeds::none(1);
        needs.mark(0);
        let serial = RelationPrep::build(&rel, &needs);
        let parallel = RelationPrep::build_in(&WorkPool::with_threads(4), &rel, &needs);
        assert_eq!(serial.len(), parallel.len());
        for pos in 0..rel.len() {
            assert_eq!(serial.sig(pos, 0).unwrap().chars(), parallel.sig(pos, 0).unwrap().chars());
        }
    }

    #[test]
    fn push_row_extends_a_built_prep() {
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(1);
        let mut prep = RelationPrep::build(&rel, &needs);
        assert_eq!(prep.needs(), &needs);
        let extra = Tuple::new(3, vec![Value::Null, Value::str("Bradey"), Value::str("07975")]);
        prep.push_row(&extra);
        assert_eq!(prep.len(), 3);
        let sig: String = prep.sig(2, 1).unwrap().chars().iter().collect();
        assert_eq!(sig, "Bradey");
        // Pushing onto an empty-needs prep stays a no-op.
        let mut empty = RelationPrep::build(&rel, &SigNeeds::none(3));
        empty.push_row(&extra);
        assert!(empty.is_empty());
    }

    #[test]
    fn single_preps_one_probe_tuple() {
        let mut needs = SigNeeds::none(2);
        needs.mark(0);
        let probe = Tuple::new(7, vec![Value::str("Mark"), Value::Null]);
        let prep = RelationPrep::single(&probe, &needs);
        assert_eq!(prep.len(), 1);
        assert_eq!(prep.sig(0, 0).unwrap().sig().char_len(), 4);
        assert!(prep.sig(0, 1).is_none());
    }

    #[test]
    fn empty_needs_prepare_nothing() {
        let prep = RelationPrep::build(&relation(), &SigNeeds::none(3));
        assert!(prep.is_empty());
        assert_eq!(prep.len(), 0);
        assert!(prep.sig(0, 0).is_none());
    }
}
