//! Support shared by the integration tests.
//!
//! [`Oracle`] is the nested-loop reference matcher: it decides every
//! (probe, record) pair with the uncompiled
//! [`RuntimeOps::lhs_matches`] / [`RuntimeOps::atom_matches`] — the first
//! key that accepts, then the negative-rule veto — so it shares no code
//! with the compiled verifier, the signature caches, windowing or index
//! retrieval that the tests check against it.

use matchrules::core::negation::NegativeRule;
use matchrules::core::relative_key::RelativeKey;
use matchrules::data::eval::RuntimeOps;
use matchrules::data::relation::{Relation, Tuple};
use matchrules::engine::MatchEngine;

/// The reference matcher over a key disjunction and its negative rules.
pub struct Oracle<'a> {
    keys: &'a [RelativeKey],
    negatives: &'a [NegativeRule],
    ops: &'a RuntimeOps,
}

impl<'a> Oracle<'a> {
    /// An oracle over `keys` (a disjunction) vetoed by `negatives`.
    pub fn new(
        keys: &'a [RelativeKey],
        negatives: &'a [NegativeRule],
        ops: &'a RuntimeOps,
    ) -> Self {
        Oracle { keys, negatives, ops }
    }

    /// An oracle over an engine's compiled keys, negative rules and
    /// operators.
    pub fn of(engine: &'a MatchEngine) -> Self {
        Self::new(engine.plan().rcks(), engine.plan().negatives(), engine.runtime())
    }

    /// The first key accepting `(t1, t2)`, ignoring negative rules.
    pub fn first_key(&self, t1: &Tuple, t2: &Tuple) -> Option<usize> {
        self.keys.iter().position(|key| self.ops.lhs_matches(key.atoms(), t1, t2))
    }

    /// Whether a negative rule vetoes `(t1, t2)`.
    pub fn vetoed(&self, t1: &Tuple, t2: &Tuple) -> bool {
        self.negatives.iter().any(|rule| rule.vetoes(|atom| self.ops.atom_matches(atom, t1, t2)))
    }

    /// The key that matches `(t1, t2)`, unless a negative rule vetoes the
    /// pair.
    pub fn decide(&self, t1: &Tuple, t2: &Tuple) -> Option<usize> {
        self.first_key(t1, t2).filter(|_| !self.vetoed(t1, t2))
    }

    /// Every matching `(left position, right position, key)` of the cross
    /// product, in `(left, right)` order.
    pub fn match_all(&self, left: &Relation, right: &Relation) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (l, t1) in left.tuples().iter().enumerate() {
            for (r, t2) in right.tuples().iter().enumerate() {
                if let Some(key) = self.decide(t1, t2) {
                    out.push((l, r, key));
                }
            }
        }
        out
    }

    /// The `(id, key)` hits of `probe` among `records`, in their order.
    pub fn query<'t>(
        &self,
        probe: &Tuple,
        records: impl IntoIterator<Item = &'t Tuple>,
    ) -> Vec<(u64, usize)> {
        (records.into_iter())
            .filter_map(|record| self.decide(probe, record).map(|key| (record.id(), key)))
            .collect()
    }

    /// The key evaluations a verifier without provenance pruning spends
    /// on `candidates`: per candidate, every key up to the first that
    /// accepts, or all of them when none does.
    pub fn unpruned_key_evals<'t>(
        &self,
        probe: &Tuple,
        candidates: impl IntoIterator<Item = &'t Tuple>,
    ) -> usize {
        (candidates.into_iter())
            .map(|record| self.first_key(probe, record).map_or(self.keys.len(), |key| key + 1))
            .sum()
    }
}
