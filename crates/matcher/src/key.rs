//! Executable match keys: RCKs (or hand-written rules) applied to tuples.
//!
//! An RCK tells a matcher *what attributes to compare and how to compare
//! them* (§1). A [`KeyMatcher`] evaluates a disjunction of such keys — the
//! "union of top-k RCKs" configuration the paper's experiments use to keep
//! single-key misses from hurting recall (§6.2 Exp-2) — optionally guarded
//! by negative rules (§8 extension).
//!
//! It is the one compiled pair verifier. Windows, the exhaustive scan
//! and [`MatchIndex`](crate::index::MatchIndex) retrieval only choose
//! *which* pairs to show it; [`KeyMatcher::first_key`] and
//! [`KeyMatcher::vetoed`] decide each one. A pair is two [`PairSide`]s: a
//! tuple plus a [`SigRow`] of its edit-atom signatures. Batch runs read
//! those rows from one [`RelationPrep`] per relation
//! ([`KeyMatcher::prepare_in`]); the index preps each probe, and its
//! candidates come [`bare`](PairSide::bare), their signatures extracted
//! as their edit atoms are compared. Edit atoms climb the filter ladder
//! on the signatures ([`RuntimeOps::atom_matches_sigs`]), counting each
//! stage in [`FilterStats`]; every other operator compares the tuples
//! directly. [`RuntimeOps::lhs_matches`] stays the uncompiled reference.

use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::negation::NegativeRule;
use matchrules_core::relative_key::RelativeKey;
use matchrules_data::eval::{FilterStats, RuntimeOps};
use matchrules_data::prep::{RelationPrep, SigNeeds, SigRow};
use matchrules_data::relation::{Relation, Tuple};
use matchrules_runtime::WorkPool;
use std::sync::Arc;

/// Minimum candidate-pairs-per-chunk when a [`KeyMatcher`] is evaluated
/// over a work pool: one evaluation runs a full key disjunction, so
/// chunks this size already amortize chunk claiming. Shared by every
/// parallel pairwise-evaluation site (sorted neighborhood, the engine)
/// so their chunk policy cannot drift apart.
pub const PAR_MATCH_MIN_CHUNK: usize = 64;

/// Whether a key-provenance `mask` obliges the verifier to evaluate
/// `key`: bit `key` of the mask, with every key when there is no mask and
/// every index ≥ 64 unconditionally (a mask has only 64 bits).
#[inline]
pub(crate) fn mask_allows(mask: Option<u64>, key: usize) -> bool {
    mask.is_none_or(|mask| key >= 64 || mask & (1u64 << key) != 0)
}

/// One side of a pair under verification: a tuple and its edit-atom
/// signatures.
#[derive(Debug, Clone, Copy)]
pub struct PairSide<'s> {
    /// The tuple.
    pub tuple: &'s Tuple,
    /// Its signatures, for the attributes edit atoms compare.
    pub sigs: SigRow<'s>,
}

impl<'s> PairSide<'s> {
    /// A side over `tuple` with signatures `sigs`.
    pub fn new(tuple: &'s Tuple, sigs: SigRow<'s>) -> Self {
        PairSide { tuple, sigs }
    }

    /// A side with no cached signatures: each edit atom extracts the one
    /// it compares as it runs (see [`RuntimeOps::atom_matches_sigs`]).
    pub fn bare(tuple: &'s Tuple) -> Self {
        PairSide { tuple, sigs: SigRow::none() }
    }
}

/// A compiled disjunction of keys with optional negative-rule vetoes.
/// It borrows its keys and rules, so forming one costs nothing.
#[derive(Clone, Copy)]
pub struct KeyMatcher<'a> {
    keys: &'a [RelativeKey],
    negatives: &'a [NegativeRule],
    ops: &'a RuntimeOps,
}

impl<'a> KeyMatcher<'a> {
    /// Builds a matcher over `keys` (matched as a disjunction).
    pub fn new(keys: &'a [RelativeKey], ops: &'a RuntimeOps) -> Self {
        KeyMatcher { keys, negatives: &[], ops }
    }

    /// Adds negative rules: a vetoed pair never matches.
    #[must_use]
    pub fn with_negatives(mut self, negatives: &'a [NegativeRule]) -> Self {
        self.negatives = negatives;
        self
    }

    /// Number of keys in the disjunction.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys are configured (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `(t1, t2)` match: some key accepts and no negative rule
    /// vetoes. Nothing is cached between calls, so it suits one-off
    /// pairs, not loops.
    pub fn matches(&self, t1: &Tuple, t2: &Tuple) -> bool {
        let mut stats = FilterStats::default();
        self.decide(PairSide::bare(t1), PairSide::bare(t2), None, &mut stats).is_some()
    }

    /// The key that matches the pair — [`KeyMatcher::first_key`] — unless
    /// a negative rule vetoes it. One pass over the key disjunction, then
    /// only the negative rules.
    pub fn decide(
        &self,
        left: PairSide<'_>,
        right: PairSide<'_>,
        mask: Option<u64>,
        stats: &mut FilterStats,
    ) -> Option<usize> {
        self.first_key(left, right, mask, stats).filter(|_| !self.vetoed(left, right, stats))
    }

    /// The first key (by position) accepting the pair, ignoring negative
    /// rules. With a key-provenance `mask`, a key below 64 whose bit is
    /// clear is skipped unevaluated: a caller passes a mask only when it
    /// knows those keys cannot accept the pair, so skipping them cannot
    /// change which key fires first.
    pub fn first_key(
        &self,
        left: PairSide<'_>,
        right: PairSide<'_>,
        mask: Option<u64>,
        stats: &mut FilterStats,
    ) -> Option<usize> {
        (0..self.keys.len()).filter(|&key| mask_allows(mask, key)).find(|&key| {
            self.keys[key].atoms().iter().all(|atom| self.holds(atom, left, right, stats))
        })
    }

    /// Whether a negative rule vetoes the pair (independent of the keys).
    pub fn vetoed(&self, left: PairSide<'_>, right: PairSide<'_>, stats: &mut FilterStats) -> bool {
        self.negatives.iter().any(|rule| rule.vetoes(|atom| self.holds(atom, left, right, stats)))
    }

    /// Whether one atom holds on the pair, through the compiled kernel.
    fn holds(
        &self,
        atom: &SimilarityAtom,
        left: PairSide<'_>,
        right: PairSide<'_>,
        stats: &mut FilterStats,
    ) -> bool {
        let (sa, sb) = (left.sigs.sig(atom.left), right.sigs.sig(atom.right));
        self.ops.atom_matches_sigs(atom, left.tuple, right.tuple, sa, sb, stats)
    }

    /// Which attributes of each side the matcher compares under an
    /// edit-distance kernel — the attributes worth a
    /// [`RelationPrep`] signature.
    pub fn sig_needs(&self, left_arity: usize, right_arity: usize) -> (SigNeeds, SigNeeds) {
        let mut left = SigNeeds::none(left_arity);
        let mut right = SigNeeds::none(right_arity);
        let atoms =
            self.keys.iter().flat_map(|key| key.atoms().iter()).chain(
                self.negatives.iter().flat_map(|rule| rule.guards().iter().map(|g| g.atom())),
            );
        for atom in atoms {
            if self.ops.needs_signature(atom.op) {
                left.mark(atom.left);
                right.mark(atom.right);
            }
        }
        (left, right)
    }

    /// Extracts both relations' signature caches over `pool`, shared when
    /// both sides are the same relation (the dedup case) — the
    /// once-per-run preprocessing whose rows batch runs verify on.
    pub fn prepare_in(
        &self,
        pool: &WorkPool,
        left: &Relation,
        right: &Relation,
    ) -> (Arc<RelationPrep>, Arc<RelationPrep>) {
        let (mut ln, rn) = self.sig_needs(left.schema().arity(), right.schema().arity());
        if std::ptr::eq(left, right) {
            // One build covering both sides' needs.
            ln.union(&rn);
            let prep = Arc::new(RelationPrep::build_in(pool, left.tuples(), &ln));
            return (prep.clone(), prep);
        }
        let lp = Arc::new(RelationPrep::build_in(pool, left.tuples(), &ln));
        let rp = Arc::new(RelationPrep::build_in(pool, right.tuples(), &rn));
        (lp, rp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::negation::NegativeRule;
    use matchrules_core::paper::{example_1_1, example_2_4_rcks, PaperSetting};
    use matchrules_data::eval::paper_registry;
    use matchrules_data::fig1;

    /// The reference decision: the first key the uncompiled evaluation
    /// accepts.
    fn reference_key(
        keys: &[RelativeKey],
        ops: &RuntimeOps,
        t1: &Tuple,
        t2: &Tuple,
    ) -> Option<usize> {
        keys.iter().position(|key| ops.lhs_matches(key.atoms(), t1, t2))
    }

    /// Same email, different gender — with Fig. 1's null billing genders
    /// it vetoes t1/t5 (t4's corrupted email escapes).
    fn email_gender_veto(setting: &PaperSetting) -> Vec<NegativeRule> {
        let attr = |name: &str| {
            (setting.pair.left().attr(name).unwrap(), setting.pair.right().attr(name).unwrap())
        };
        vec![NegativeRule::same_but_different(
            &setting.pair,
            "email-gender",
            attr("email"),
            attr("gender"),
        )
        .unwrap()]
    }

    #[test]
    fn union_of_rcks_matches_all_fig1_duplicates() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        assert_eq!(matcher.key_count(), 4);
        assert!(!matcher.is_empty());
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        let t2 = inst.left().by_id(fig1::ids::T2).unwrap();
        for bt in inst.right().tuples() {
            assert!(matcher.matches(t1, bt), "t1 must match billing #{}", bt.id());
            assert!(!matcher.matches(t2, bt), "t2 must match nothing");
        }
    }

    #[test]
    fn first_key_reports_first_hit_and_honours_the_mask() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let mut stats = FilterStats::default();
        let mut first = |a: &Tuple, b: &Tuple, mask| {
            matcher.first_key(PairSide::bare(a), PairSide::bare(b), mask, &mut stats)
        };
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        let t6 = inst.right().by_id(fig1::ids::T6).unwrap();
        // t6 is matched by rck4 (index 3) only: LN "Clivord" vs
        // "Clifford" is not equal, so rck2 fails.
        assert_eq!(first(t1, t6, None), Some(3));
        let t3 = inst.right().by_id(fig1::ids::T3).unwrap();
        assert_eq!(first(t1, t3, None), Some(0));
        // A mask without key 0 moves on to the next accepting key; one
        // without any accepting key finds none.
        assert_eq!(first(t1, t3, Some(!1)), reference_key(&rcks[1..], &ops, t1, t3).map(|k| k + 1));
        assert_eq!(first(t1, t6, Some(0b0111)), None);
        assert!(mask_allows(None, 3) && mask_allows(Some(0), 64) && !mask_allows(Some(0), 3));
    }

    #[test]
    fn negative_rules_veto() {
        let setting = example_1_1();
        let inst = fig1::instance(&setting);
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let negatives = email_gender_veto(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops).with_negatives(&negatives);
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        let t5 = inst.right().by_id(fig1::ids::T5).unwrap();
        let t4 = inst.right().by_id(fig1::ids::T4).unwrap();
        // t5 shares t1's email and has a null gender → vetoed.
        assert!(!matcher.matches(t1, t5));
        // t4's email is corrupted ("mc"), so the veto's email guard fails.
        assert!(matcher.matches(t1, t4));
    }

    #[test]
    fn prepared_sides_decide_like_the_uncompiled_reference() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        // Include a negative rule so the veto path is exercised too.
        let negatives = email_gender_veto(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops).with_negatives(&negatives);
        let (left, right) = (inst.left(), inst.right());
        let pool = matchrules_runtime::WorkPool::serial();
        let (lp, rp) = matcher.prepare_in(&pool, left, right);
        let mut stats = FilterStats::default();
        for (l, t1) in left.tuples().iter().enumerate() {
            for (r, t2) in right.tuples().iter().enumerate() {
                let (a, b) = (PairSide::new(t1, lp.row(l)), PairSide::new(t2, rp.row(r)));
                let key = reference_key(&rcks, &ops, t1, t2);
                let veto = negatives[0].vetoes(|atom| ops.atom_matches(atom, t1, t2));
                assert_eq!(matcher.first_key(a, b, None, &mut stats), key, "({l},{r})");
                assert_eq!(matcher.vetoed(a, b, &mut stats), veto, "({l},{r})");
                let decided = key.filter(|_| !veto);
                assert_eq!(matcher.decide(a, b, None, &mut stats), decided, "({l},{r})");
                assert_eq!(matcher.matches(t1, t2), decided.is_some(), "({l},{r})");
            }
        }
        assert!(stats.evaluations() > 0, "edit kernels ran through the cache");
    }

    #[test]
    fn sig_needs_cover_edit_atoms_only() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let (ln, rn) =
            matcher.sig_needs(inst.left().schema().arity(), inst.right().schema().arity());
        // The worked example compares LN and address under ≈d; equality
        // atoms (email, phone…) need no signature.
        assert!(!ln.is_empty());
        assert!(!rn.is_empty());
        assert!(ln.len() < inst.left().schema().arity());
    }

    #[test]
    fn dedup_preparation_shares_one_prep() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let rcks = example_2_4_rcks(&setting);
        let matcher = KeyMatcher::new(&rcks, &ops);
        let pool = matchrules_runtime::WorkPool::serial();
        let left = inst.left();
        let (lp, rp) = matcher.prepare_in(&pool, left, left);
        assert!(Arc::ptr_eq(&lp, &rp), "same relation on both sides shares the cache");
    }

    #[test]
    fn empty_matcher_matches_nothing() {
        let (setting, inst) = fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let matcher = KeyMatcher::new(&[], &ops);
        assert!(matcher.is_empty());
        let t1 = inst.left().by_id(fig1::ids::T1).unwrap();
        let t3 = inst.right().by_id(fig1::ids::T3).unwrap();
        assert!(!matcher.matches(t1, t3));
        let mut stats = FilterStats::default();
        assert_eq!(
            matcher.first_key(PairSide::bare(t1), PairSide::bare(t3), None, &mut stats),
            None
        );
    }
}
