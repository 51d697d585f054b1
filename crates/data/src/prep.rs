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
//! the banded DP on cached buffers, reading each side's signatures
//! through a [`SigRow`].
//!
//! One constructor serves every caller: the batch engine preps whole
//! relations, a match index a probe batch or a single probe. A side
//! without a row ([`SigRow::none`]) is not wrong, only uncached: the edit
//! kernel extracts what it compares on the spot.
//!
//! Which attributes need signatures is decided by the operators appearing
//! in the match rules (see [`SigNeeds`]): equality and opaque operators
//! cost nothing here.

use crate::relation::Tuple;
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

    /// The signatures of `tuple`'s needed attributes, in slot order.
    fn sigs_of<'t>(&'t self, tuple: &'t Tuple) -> impl Iterator<Item = AttrSig> + 't {
        self.attrs.iter().map(|&attr| AttrSig::of_value(tuple.get(attr)))
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

/// The signatures of one prepared tuple — what the pair verifier reads
/// an edit atom's operand from. [`SigRow::none`] holds none (every edit
/// atom then extracts its operands' signatures itself).
#[derive(Debug, Clone, Copy)]
pub struct SigRow<'p> {
    needs: &'p SigNeeds,
    /// The tuple's signatures, in slot order.
    sigs: &'p [AttrSig],
}

impl<'p> SigRow<'p> {
    /// A row with no signatures.
    pub fn none() -> SigRow<'static> {
        static NO_NEEDS: SigNeeds = SigNeeds { slots: Vec::new(), attrs: Vec::new() };
        SigRow { needs: &NO_NEEDS, sigs: &[] }
    }

    /// The signature of attribute `attr`, when the prep's [`SigNeeds`]
    /// marked it.
    pub fn sig(&self, attr: AttrId) -> Option<&'p AttrSig> {
        self.sigs.get(self.needs.slot(attr)?)
    }
}

/// Signatures for every needed attribute of every tuple of a slice — a
/// relation, a probe batch or a single probe.
#[derive(Debug, Clone)]
pub struct RelationPrep {
    needs: SigNeeds,
    /// Row-major: the signatures of tuple `pos` are
    /// `sigs[pos * needs.len()..][..needs.len()]`, in slot order.
    sigs: Vec<AttrSig>,
}

impl RelationPrep {
    /// Serial extraction.
    pub fn build(tuples: &[Tuple], needs: &SigNeeds) -> Self {
        Self::build_in(&WorkPool::serial(), tuples, needs)
    }

    /// Extraction chunked over `pool` when there are more tuples than one
    /// chunk (tuple order preserved; the result is identical to the
    /// serial build).
    pub fn build_in(pool: &WorkPool, tuples: &[Tuple], needs: &SigNeeds) -> Self {
        let sigs = if needs.is_empty() {
            Vec::new()
        } else if tuples.len() <= PREP_MIN_CHUNK {
            tuples.iter().flat_map(|t| needs.sigs_of(t)).collect()
        } else {
            let chunks = pool.par_ranges(tuples.len(), PREP_MIN_CHUNK, |_, range| {
                tuples[range].iter().flat_map(|t| needs.sigs_of(t)).collect::<Vec<_>>()
            });
            chunks.into_iter().flatten().collect()
        };
        RelationPrep { needs: needs.clone(), sigs }
    }

    /// The signatures of the tuple at `pos` (none when `pos` is out of
    /// range).
    pub fn row(&self, pos: usize) -> SigRow<'_> {
        let width = self.needs.len();
        let sigs = self.sigs.get(pos * width..(pos + 1) * width).unwrap_or(&[]);
        SigRow { needs: &self.needs, sigs }
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
    use crate::relation::Relation;
    use matchrules_core::schema::Schema;
    use std::sync::Arc;

    fn relation() -> Relation {
        let schema = Arc::new(Schema::text("R", &["a", "b", "c"]).unwrap());
        let mut rel = Relation::new(schema);
        rel.push_strs(1, &["Mark", "Clifford", "07974"]);
        rel.push_strs(2, &["", "Brady", "07974"]);
        rel
    }

    fn text(sig: Option<&AttrSig>) -> String {
        sig.unwrap().chars().iter().collect()
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
        let prep = RelationPrep::build(rel.tuples(), &needs);
        assert_eq!(prep.len(), 2);
        assert!(!prep.is_empty());
        let sig = prep.row(0).sig(1).unwrap();
        assert!(!sig.is_null());
        assert_eq!(text(Some(sig)), "Clifford");
        assert_eq!(sig.sig().char_len(), 8);
        assert!(prep.row(0).sig(0).is_none(), "unneeded attribute has no signature");
        assert!(prep.row(7).sig(1).is_none(), "out of range");
    }

    #[test]
    fn out_of_order_marking_keeps_signatures_aligned() {
        // Regression: slots are assigned in mark order; the row must be
        // laid out by slot, not by attribute index.
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(2); // slot 0
        needs.mark(0); // slot 1
        let prep = RelationPrep::build(rel.tuples(), &needs);
        assert_eq!(text(prep.row(0).sig(0)), "Mark");
        assert_eq!(text(prep.row(0).sig(2)), "07974");
        assert_eq!(text(prep.row(1).sig(2)), "07974");
    }

    #[test]
    fn null_values_are_marked() {
        let rel = relation();
        let mut needs = SigNeeds::none(3);
        needs.mark(0);
        let prep = RelationPrep::build(rel.tuples(), &needs);
        assert!(prep.row(1).sig(0).unwrap().is_null());
        assert!(prep.row(1).sig(0).unwrap().chars().is_empty());
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
        let serial = RelationPrep::build(rel.tuples(), &needs);
        let parallel = RelationPrep::build_in(&WorkPool::with_threads(4), rel.tuples(), &needs);
        assert_eq!(serial.len(), parallel.len());
        for pos in 0..rel.len() {
            assert_eq!(text(serial.row(pos).sig(0)), text(parallel.row(pos).sig(0)));
        }
    }

    #[test]
    fn one_tuple_preps_a_single_probe() {
        let mut needs = SigNeeds::none(2);
        needs.mark(0);
        let probe = Tuple::new(7, vec![Value::str("Mark"), Value::Null]);
        let prep = RelationPrep::build(std::slice::from_ref(&probe), &needs);
        assert_eq!(prep.len(), 1);
        assert_eq!(prep.row(0).sig(0).unwrap().sig().char_len(), 4);
        assert!(prep.row(0).sig(1).is_none());
    }

    #[test]
    fn empty_needs_prepare_nothing() {
        let prep = RelationPrep::build(relation().tuples(), &SigNeeds::none(3));
        assert!(prep.is_empty());
        assert_eq!(prep.len(), 0);
        assert!(prep.row(0).sig(0).is_none());
        assert!(SigRow::none().sig(0).is_none());
    }
}
