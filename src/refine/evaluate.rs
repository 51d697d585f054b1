//! Per-candidate evaluation on the labeled set — **through the indexed
//! engine**, not a bespoke nested loop.
//!
//! The evaluator compiles one [`RelativeKey`] per candidate rule (its LHS
//! conjunction), builds a [`MatchIndex`] over the distinct right-side
//! label records, and probes it with every distinct left-side record.
//! Pairs the index does not return fired no candidate; for the pairs it
//! does return, [`MatchIndex::explain`]'s per-key trace — the same fired-
//! RCK provenance the serving layer exposes — attributes the hit to
//! *every* candidate whose key matched, not just the first one the
//! short-circuiting query path happened to test. The result is one
//! coverage bitset per candidate over the labeled pairs, from which any
//! subset's confusion counts (and hence its F_β) are pure bit arithmetic.
//!
//! Everything here is sequential and index-driven, so coverage — and
//! every selection derived from it — is identical at any thread count.

use super::labels::{LabelRelations, LabelStore};
use super::pool::CandidatePool;
use super::RefineError;
use crate::engine::MatchIndex;
use matchrules_core::relative_key::RelativeKey;
use matchrules_data::eval::RuntimeOps;
use matchrules_data::relation::TupleId;
use matchrules_matcher::metrics::MatchQuality;
use std::collections::HashSet;
use std::sync::Arc;

/// A fixed-size bitset over the labeled pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Bits {
    blocks: Vec<u64>,
    len: usize,
}

impl Bits {
    pub(super) fn new(len: usize) -> Self {
        Bits { blocks: vec![0; len.div_ceil(64)], len }
    }

    pub(super) fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    pub(super) fn or_assign(&mut self, other: &Bits) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    pub(super) fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    pub(super) fn and_count(&self, other: &Bits) -> usize {
        self.blocks.iter().zip(&other.blocks).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }
}

/// Per-candidate coverage of the labeled pairs: which pairs each
/// candidate's LHS accepts, plus the positive-label mask.
#[derive(Debug, Clone)]
pub(super) struct Coverage {
    pub(super) accepts: Vec<Bits>,
    positives: Bits,
    n_positives: usize,
}

impl Coverage {
    /// Number of labeled pairs evaluated.
    pub(super) fn n_pairs(&self) -> usize {
        self.positives.len
    }

    /// Number of candidates evaluated.
    pub(super) fn n_candidates(&self) -> usize {
        self.accepts.len()
    }

    /// Confusion counts of the *union* of the given candidates on the
    /// labeled set: a pair is returned iff at least one chosen
    /// candidate's LHS accepts it.
    pub(super) fn quality_of(&self, chosen: &[usize]) -> MatchQuality {
        let mut union = Bits::new(self.n_pairs());
        for &i in chosen {
            union.or_assign(&self.accepts[i]);
        }
        self.quality_of_bits(&union)
    }

    pub(super) fn quality_of_bits(&self, union: &Bits) -> MatchQuality {
        let tp = union.and_count(&self.positives);
        let fp = union.count() - tp;
        MatchQuality {
            true_positives: tp,
            false_positives: fp,
            false_negatives: self.n_positives - tp,
        }
    }
}

/// Builds per-candidate coverage of `labels` (over their distinct
/// `records`) for every rule in `pool` by probing a candidate-keyed
/// [`MatchIndex`] (see the module docs).
pub(super) fn evaluate(
    pool: &CandidatePool,
    labels: &LabelStore,
    records: &LabelRelations,
) -> Result<Coverage, RefineError> {
    // Distinct right-side records are the indexed relation; distinct
    // left-side records are the probes. Pairs sharing a side share the
    // index work.
    let mut targets: Vec<Vec<(usize, TupleId)>> = vec![Vec::new(); records.left.len()];
    for (pair_idx, &(left, right)) in records.pairs.iter().enumerate() {
        targets[left].push((pair_idx, right as TupleId));
    }

    // One key per candidate: its LHS conjunction. Key k in the index is
    // candidate k in the pool, which is what makes the per-key trace an
    // attribution.
    let keys: Vec<RelativeKey> =
        pool.rules().iter().map(|r| RelativeKey::new(r.md.lhs().to_vec())).collect();
    let runtime = Arc::new(RuntimeOps::resolve(pool.ops(), pool.registry())?);
    let index =
        MatchIndex::build(records.left.schema().arity(), &records.right, &keys, &[], runtime)?;

    let n_pairs = labels.len();
    let mut accepts = vec![Bits::new(n_pairs); pool.len()];
    for (probe, targets) in records.left.tuples().iter().zip(&targets) {
        let outcome = index.query(probe);
        if outcome.hits.is_empty() {
            continue;
        }
        let hit_ids: HashSet<TupleId> = outcome.hits.iter().map(|h| h.id).collect();
        for &(pair_idx, right_id) in targets {
            if !hit_ids.contains(&right_id) {
                continue;
            }
            let trace = index.explain(probe, right_id)?;
            for key_trace in &trace.keys {
                if key_trace.matched {
                    accepts[key_trace.key].set(pair_idx);
                }
            }
        }
    }

    let mut positives = Bits::new(n_pairs);
    for (pair_idx, pair) in labels.pairs().iter().enumerate() {
        if pair.is_match {
            positives.set(pair_idx);
        }
    }
    let n_positives = positives.count();
    Ok(Coverage { accepts, positives, n_positives })
}
