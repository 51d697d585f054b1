//! Binding symbolic operators to executable predicates, and evaluating MD
//! atoms on tuples.
//!
//! The reasoning core treats operators as symbols; at matching/enforcement
//! time each symbol must resolve to a [`SimilarityOp`] implementation. A
//! [`RuntimeOps`] performs that resolution once (by operator *name*) and
//! caches it per [`OperatorId`], so atom evaluation in hot loops is an array
//! index plus the metric call.
//!
//! Resolution also records each operator's [`OpClass`], which
//! **compiles** the two classes that have a compiled form: equality and
//! the thresholded edit operators evaluate through a plain enum `match`
//! instead of a virtual call, and the edit class additionally runs on
//! the per-relation caches of [`crate::prep`] — cheap pair filters
//! (length / character bag / positional q-grams) first, then the banded
//! DP on cached character buffers with per-worker scratch rows.
//! [`RuntimeOps::atom_matches_sigs`] is the one compiled atom entry: it
//! takes each operand's signature and reports which stage decided the
//! pair through [`FilterStats`]. [`RuntimeOps::atom_matches`] and
//! [`RuntimeOps::lhs_matches`] stay the uncompiled reference.

use crate::prep::AttrSig;
use crate::relation::Tuple;
use crate::value::Value;
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::error::{CoreError, Result};
use matchrules_core::operators::{OperatorId, OperatorTable};
use matchrules_simdist::edit::{
    damerau_levenshtein, damerau_levenshtein_within_chars, levenshtein, levenshtein_within_chars,
    theta_bound, EditScratch,
};
use matchrules_simdist::filters::Rejection;
use matchrules_simdist::ops::{AliasOp, DamerauOp, OpClass, OpRegistry, SimilarityOp};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    // One set of DP scratch rows per worker thread: the banded kernels
    // are called once per surviving candidate pair, and this is what
    // keeps those calls allocation-free.
    static EDIT_SCRATCH: RefCell<EditScratch> = RefCell::new(EditScratch::new());
}

/// The edit distance of two character buffers if it is within `bound`
/// (OSA with `transpositions`, plain Levenshtein without), by the banded
/// DP on this thread's scratch rows.
fn banded_distance(transpositions: bool, a: &[char], b: &[char], bound: usize) -> Option<usize> {
    EDIT_SCRATCH.with_borrow_mut(|scratch| {
        if transpositions {
            damerau_levenshtein_within_chars(a, b, bound, scratch)
        } else {
            levenshtein_within_chars(a, b, bound, scratch)
        }
    })
}

/// `sig` when the caller holds it, else the signature of `value`
/// extracted now.
fn sig_or_extract<'s>(sig: Option<&'s AttrSig>, value: &Value) -> Cow<'s, AttrSig> {
    sig.map_or_else(|| Cow::Owned(AttrSig::of_value(value)), Cow::Borrowed)
}

/// Where the edit ladder decided one pair: the deciding stage, the
/// θ-derived bound `⌊(1 − θ)·max(|a|, |b|)⌋`, and the edit distance when
/// it is within the bound (`None` when the pair does not match).
struct Rung {
    stage: AtomStage,
    bound: usize,
    distance: Option<usize>,
}

/// The one edit ladder that deciding, tracing and scoring an edit atom
/// all climb: null → both empty → equal buffers → length / bag / q-gram
/// prefilter → banded DP, on the two values' signatures.
fn edit_ladder(theta: f64, transpositions: bool, a: &AttrSig, b: &AttrSig) -> Rung {
    let max_len = a.sig().char_len().max(b.sig().char_len());
    let bound = theta_bound(theta, max_len);
    let (stage, distance) = if a.is_null() || b.is_null() {
        (AtomStage::Null, None)
    } else if max_len == 0 {
        (AtomStage::BothEmpty, Some(0))
    } else if a.chars() == b.chars() {
        // Windowed candidates frequently agree on the compared attribute;
        // equal buffers mean distance 0 ≤ any bound.
        (AtomStage::EqualFast, Some(0))
    } else {
        match a.sig().prefilter(b.sig(), bound) {
            Some(Rejection::Length) => (AtomStage::LengthFilter, None),
            Some(Rejection::Bag) => (AtomStage::BagFilter, None),
            Some(Rejection::Qgram) => (AtomStage::QgramFilter, None),
            None => {
                let d = banded_distance(transpositions, a.chars(), b.chars(), bound);
                (AtomStage::BandedDp, d)
            }
        }
    };
    Rung { stage, bound, distance }
}

/// Filter-effectiveness counters for the compiled similarity hot path:
/// how many thresholded edit-distance atom evaluations each filter stage
/// rejected, and how many survived to the banded DP.
///
/// The counters are sums over atom evaluations, so they are deterministic
/// for a fixed candidate order no matter how evaluation is chunked over
/// threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Evaluations decided by the equal-buffers fast path (distance 0,
    /// accepted before any filter).
    pub equal_fast: u64,
    /// Evaluations rejected by the length filter.
    pub length_rejects: u64,
    /// Evaluations rejected by the character-bag filter.
    pub bag_rejects: u64,
    /// Evaluations rejected by the positional q-gram count filter.
    pub qgram_rejects: u64,
    /// Evaluations that survived every filter and ran the banded DP.
    pub dp_runs: u64,
    /// Candidate verifications saved by deduplicating probe candidates
    /// across retrieval keys (a record retrieved by k keys is verified
    /// once, not k times). Counted by `MatchIndex::query`, not by atom
    /// evaluation, so it is **not** part of [`FilterStats::evaluations`].
    pub dedup_saved: u64,
    /// Retrieved entries rejected by per-entry index metadata (length
    /// window, char-bag presence mask, element-set size ratio) before ever
    /// becoming candidates: distinct values when a q-gram or element atom
    /// is materialized (one test covers every record holding the value),
    /// slots when a running candidate set is prefiltered. Counted during
    /// `MatchIndex` retrieval, not atom evaluation — not part of
    /// [`FilterStats::evaluations`]. Always the sum of the four
    /// per-reason counters below ([`FilterStats::reject`]).
    pub retrieval_rejects: u64,
    /// Retrieval rejects outside an edit atom's length window.
    pub retrieval_length_rejects: u64,
    /// Retrieval rejects by an edit atom's char-bag presence mask.
    pub retrieval_mask_rejects: u64,
    /// Retrieval rejects by an element atom's size-ratio bound.
    pub retrieval_ratio_rejects: u64,
    /// Retrieval rejects of slots whose attribute is `Null` under a
    /// later atom (they hold no value to test, and null matches nothing).
    pub retrieval_null_rejects: u64,
    /// Galloping comparison steps spent intersecting sorted candidate
    /// lists (work accounting for the probe hot path).
    pub gallop_steps: u64,
    /// Linear merge/scan steps spent materializing posting unions.
    pub linear_steps: u64,
    /// Compressed posting blocks decoded during retrieval.
    pub blocks_decoded: u64,
    /// Compressed posting blocks discarded on their skip pointer alone.
    pub blocks_skipped: u64,
}

impl FilterStats {
    /// Adds another counter set (used to fold per-chunk stats).
    pub fn merge(&mut self, other: &FilterStats) {
        self.equal_fast += other.equal_fast;
        self.length_rejects += other.length_rejects;
        self.bag_rejects += other.bag_rejects;
        self.qgram_rejects += other.qgram_rejects;
        self.dp_runs += other.dp_runs;
        self.dedup_saved += other.dedup_saved;
        self.retrieval_rejects += other.retrieval_rejects;
        self.retrieval_length_rejects += other.retrieval_length_rejects;
        self.retrieval_mask_rejects += other.retrieval_mask_rejects;
        self.retrieval_ratio_rejects += other.retrieval_ratio_rejects;
        self.retrieval_null_rejects += other.retrieval_null_rejects;
        self.gallop_steps += other.gallop_steps;
        self.linear_steps += other.linear_steps;
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_skipped += other.blocks_skipped;
    }

    /// Counts `n` retrieval rejects, under their reason and in
    /// [`FilterStats::retrieval_rejects`].
    pub fn reject(&mut self, why: RetrievalReject, n: u64) {
        self.retrieval_rejects += n;
        *match why {
            RetrievalReject::LengthWindow => &mut self.retrieval_length_rejects,
            RetrievalReject::PresenceMask => &mut self.retrieval_mask_rejects,
            RetrievalReject::SizeRatio => &mut self.retrieval_ratio_rejects,
            RetrievalReject::Null => &mut self.retrieval_null_rejects,
        } += n;
    }

    /// Counts one evaluation decided at `stage`: the equal-buffers fast
    /// path, each filter and the DP have a counter; the earlier stages
    /// (null, both empty) and non-edit kernels count nothing.
    fn record(&mut self, stage: AtomStage) {
        match stage {
            AtomStage::EqualFast => self.equal_fast += 1,
            AtomStage::LengthFilter => self.length_rejects += 1,
            AtomStage::BagFilter => self.bag_rejects += 1,
            AtomStage::QgramFilter => self.qgram_rejects += 1,
            AtomStage::BandedDp => self.dp_runs += 1,
            AtomStage::Equality | AtomStage::Null | AtomStage::BothEmpty | AtomStage::Dynamic => {}
        }
    }

    /// Total evaluations rejected by some filter.
    pub fn rejected(&self) -> u64 {
        self.length_rejects + self.bag_rejects + self.qgram_rejects
    }

    /// Total thresholded edit-distance evaluations that reached the
    /// filter pipeline. Evaluations decided even earlier — a `Null` on
    /// either side or both strings empty — increment no counter.
    pub fn evaluations(&self) -> u64 {
        self.equal_fast + self.rejected() + self.dp_runs
    }
}

/// Why index retrieval dropped an entry before it became a candidate —
/// the reasons [`FilterStats::retrieval_rejects`] is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalReject {
    /// The stored length lies outside the edit atom's length window.
    LengthWindow,
    /// The char-bag presence masks differ by more than the edit bound.
    PresenceMask,
    /// The element-set sizes violate the operator's size-ratio bound.
    SizeRatio,
    /// The slot's attribute is `Null`.
    Null,
}

impl RetrievalReject {
    /// Every reason, in declaration order (`why as usize` indexes it).
    pub const ALL: [RetrievalReject; 4] = [
        RetrievalReject::LengthWindow,
        RetrievalReject::PresenceMask,
        RetrievalReject::SizeRatio,
        RetrievalReject::Null,
    ];
}

/// Which stage of the compiled evaluation pipeline decided one atom —
/// the per-atom counterpart of the aggregate [`FilterStats`] counters,
/// reported by [`RuntimeOps::atom_trace`] for match explanations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomStage {
    /// The equality kernel compared the raw strings.
    Equality,
    /// A `Null` operand decided the atom (null matches nothing).
    Null,
    /// Both strings empty: distance 0 within any bound.
    BothEmpty,
    /// Equal character buffers: distance 0 within any bound.
    EqualFast,
    /// The length filter proved the pair out of bound.
    LengthFilter,
    /// The character-bag filter proved the pair out of bound.
    BagFilter,
    /// The positional q-gram count filter proved the pair out of bound.
    QgramFilter,
    /// The banded edit-distance DP decided the pair.
    BandedDp,
    /// No compiled kernel: the operator's trait object decided.
    Dynamic,
}

impl AtomStage {
    /// A short lowercase name for reports (`"equal-fast"`, `"dp"`, …).
    pub fn name(self) -> &'static str {
        match self {
            AtomStage::Equality => "equality",
            AtomStage::Null => "null",
            AtomStage::BothEmpty => "both-empty",
            AtomStage::EqualFast => "equal-fast",
            AtomStage::LengthFilter => "length-filter",
            AtomStage::BagFilter => "bag-filter",
            AtomStage::QgramFilter => "qgram-filter",
            AtomStage::BandedDp => "dp",
            AtomStage::Dynamic => "dynamic",
        }
    }
}

/// How one LHS atom was decided: the outcome plus the evidence a match
/// explanation reports. Decisions agree exactly with
/// [`RuntimeOps::atom_matches`] / [`RuntimeOps::atom_matches_sigs`];
/// the extra fields only exist on this (cold) path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomTrace {
    /// Whether the atom held on the pair.
    pub matched: bool,
    /// Which pipeline stage decided it.
    pub stage: AtomStage,
    /// The θ-derived edit bound `⌊(1 − θ)·max(|a|, |b|)⌋` (edit kernels
    /// only).
    pub bound: Option<usize>,
    /// The **exact** edit distance of the pair (edit kernels only; always
    /// computed on this path, even when a filter already rejected).
    pub distance: Option<usize>,
}

/// A graded agreement feature for one LHS atom — the scoring-path
/// counterpart of [`AtomTrace`], reported by [`RuntimeOps::atom_feature`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomFeature {
    /// Whether the atom held (decides exactly like
    /// [`RuntimeOps::atom_matches`]).
    pub matched: bool,
    /// Agreement strength in `[0, 1]`: 0 for mismatches, 1 for exact
    /// agreement, and for edit kernels the θ-margin `1 − d/(bound + 1)`
    /// in between (deeper inside the bound ⇒ stronger).
    pub strength: f64,
}

/// The paper's runtime registry: the standard metric set plus the alias
/// `≈d` → Damerau–Levenshtein at θ = 0.75 (the intro example's name
/// similarity: "Mark" ≈d "Marx", "Clifford" ≈d "Clivord").
pub fn paper_registry() -> OpRegistry {
    let mut reg = OpRegistry::standard();
    reg.register(Arc::new(AliasOp::new("≈d", Arc::new(DamerauOp::with_threshold(0.75)))));
    reg
}

/// Resolved operator bindings for one `OperatorTable`.
pub struct RuntimeOps {
    resolved: Vec<Arc<dyn SimilarityOp>>,
    classes: Vec<OpClass>,
}

impl RuntimeOps {
    /// Resolves every operator of `table` against `registry` by name and
    /// records each binding's [`OpClass`].
    /// Fails with [`CoreError::UnknownOperator`] if a symbol has no
    /// executable binding.
    pub fn resolve(table: &OperatorTable, registry: &OpRegistry) -> Result<Self> {
        let mut resolved = Vec::with_capacity(table.len());
        let mut classes = Vec::with_capacity(table.len());
        for id in table.ids() {
            let name = table.name(id);
            let op = registry
                .get(name)
                .ok_or_else(|| CoreError::UnknownOperator { name: name.to_owned() })?;
            classes.push(op.class());
            resolved.push(op.clone());
        }
        Ok(RuntimeOps { resolved, classes })
    }

    /// Whether `op` compiles to an edit-distance kernel, i.e. whether
    /// attributes compared under it benefit from a
    /// [`RelationPrep`](crate::prep::RelationPrep) signature.
    pub fn needs_signature(&self, op: OperatorId) -> bool {
        matches!(self.class(op), OpClass::Edit { .. })
    }

    /// The [`OpClass`] `op` declared at resolve time: how it is evaluated
    /// here, and how (and whether) an inverted index can anchor atoms
    /// under it.
    pub fn class(&self, op: OperatorId) -> OpClass {
        self.classes[op.0 as usize]
    }

    /// Appends `op`'s bucket keys for `s` to `out` (operators classed
    /// [`OpClass::Keys`]; at least one key per value by contract). Under
    /// [`OpClass::Equality`] the key is the value itself, so callers need
    /// not ask.
    pub fn derived_keys_into(&self, op: OperatorId, s: &str, out: &mut Vec<String>) {
        self.resolved[op.0 as usize].derived_keys(s, out);
    }

    /// Appends `op`'s index elements for `s` to `out` and returns
    /// the size its ratio bound applies to (operators classed
    /// [`OpClass::Elements`] only).
    pub fn index_elements_into(&self, op: OperatorId, s: &str, out: &mut Vec<u64>) -> usize {
        self.resolved[op.0 as usize].index_elements(s, out)
    }

    /// Evaluates `a ≈op b` on values. `Null` matches nothing.
    pub fn value_matches(&self, op: OperatorId, a: &Value, b: &Value) -> bool {
        match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => self.resolved[op.0 as usize].matches(x, y),
            _ => false,
        }
    }

    /// Evaluates one LHS atom on a tuple pair.
    pub fn atom_matches(&self, atom: &SimilarityAtom, t1: &Tuple, t2: &Tuple) -> bool {
        self.value_matches(atom.op, t1.get(atom.left), t2.get(atom.right))
    }

    /// Evaluates a full LHS (conjunction) on a tuple pair.
    pub fn lhs_matches(&self, lhs: &[SimilarityAtom], t1: &Tuple, t2: &Tuple) -> bool {
        lhs.iter().all(|atom| self.atom_matches(atom, t1, t2))
    }

    /// Evaluates one LHS atom through the compiled kernel, on the
    /// signatures of the compared values where the kernel uses them:
    /// `sa` of `t1`'s left attribute, `sb` of `t2`'s right one. Decides
    /// exactly like [`RuntimeOps::atom_matches`]; `stats` records which
    /// filter stage (or the DP) decided edit-kernel evaluations. An edit
    /// atom missing a signature extracts it from the value on the spot —
    /// how a match index verifies candidates it keeps no signatures for.
    pub fn atom_matches_sigs(
        &self,
        atom: &SimilarityAtom,
        t1: &Tuple,
        t2: &Tuple,
        sa: Option<&AttrSig>,
        sb: Option<&AttrSig>,
        stats: &mut FilterStats,
    ) -> bool {
        match self.class(atom.op) {
            OpClass::Equality => match (t1.get(atom.left).as_str(), t2.get(atom.right).as_str()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
            OpClass::Edit { theta, transpositions } => {
                let rung = match (sa, sb) {
                    (Some(sa), Some(sb)) => edit_ladder(theta, transpositions, sa, sb),
                    _ => edit_ladder(
                        theta,
                        transpositions,
                        &sig_or_extract(sa, t1.get(atom.left)),
                        &sig_or_extract(sb, t2.get(atom.right)),
                    ),
                };
                stats.record(rung.stage);
                rung.distance.is_some()
            }
            OpClass::Keys | OpClass::Elements { .. } | OpClass::Scan => {
                self.atom_matches(atom, t1, t2)
            }
        }
    }

    /// Traces one LHS atom: the same decision as
    /// [`RuntimeOps::atom_matches_sigs`] (and therefore
    /// [`RuntimeOps::atom_matches`]), plus *how* it was decided — which
    /// pipeline stage fired, the θ-derived edit bound, and the edit
    /// distance. This is the explanation path, called once per inspected
    /// pair, so unlike the hot path it always computes the **exact**
    /// distance for edit kernels, even when a filter (or the band) already
    /// proved the pair out of bound.
    pub fn atom_trace(
        &self,
        atom: &SimilarityAtom,
        t1: &Tuple,
        t2: &Tuple,
        sa: Option<&AttrSig>,
        sb: Option<&AttrSig>,
    ) -> AtomTrace {
        let decided = |matched, stage| AtomTrace { matched, stage, bound: None, distance: None };
        let (Some(x), Some(y)) = (t1.get(atom.left).as_str(), t2.get(atom.right).as_str()) else {
            return decided(false, AtomStage::Null);
        };
        match self.class(atom.op) {
            OpClass::Equality => decided(x == y, AtomStage::Equality),
            OpClass::Edit { theta, transpositions } => {
                let (sa, sb) =
                    (sig_or_extract(sa, t1.get(atom.left)), sig_or_extract(sb, t2.get(atom.right)));
                let rung = edit_ladder(theta, transpositions, &sa, &sb);
                let exact =
                    || if transpositions { damerau_levenshtein(x, y) } else { levenshtein(x, y) };
                AtomTrace {
                    matched: rung.distance.is_some(),
                    stage: rung.stage,
                    bound: Some(rung.bound),
                    distance: Some(rung.distance.unwrap_or_else(exact)),
                }
            }
            OpClass::Keys | OpClass::Elements { .. } | OpClass::Scan => {
                decided(self.resolved[atom.op.0 as usize].matches(x, y), AtomStage::Dynamic)
            }
        }
    }

    /// Computes the graded agreement feature of one atom: the same boolean
    /// decision as [`RuntimeOps::atom_matches`] plus an agreement strength
    /// in `[0, 1]` for scoring. Edit kernels climb the same ladder as the
    /// hot path on signatures extracted on the fly (no [`crate::prep`]
    /// cache needed, so it works on ad-hoc probe tuples), but — unlike the
    /// trace — never compute an exact out-of-bound edit distance: a pair
    /// a filter or the band proves out of bound simply scores 0.
    pub fn atom_feature(&self, atom: &SimilarityAtom, t1: &Tuple, t2: &Tuple) -> AtomFeature {
        let miss = AtomFeature { matched: false, strength: 0.0 };
        match self.class(atom.op) {
            OpClass::Equality => match (t1.get(atom.left).as_str(), t2.get(atom.right).as_str()) {
                (Some(x), Some(y)) if x == y => AtomFeature { matched: true, strength: 1.0 },
                _ => miss,
            },
            OpClass::Edit { theta, transpositions } => {
                let sa = AttrSig::of_value(t1.get(atom.left));
                let sb = AttrSig::of_value(t2.get(atom.right));
                let rung = edit_ladder(theta, transpositions, &sa, &sb);
                // θ-margin: distance 0 scores 1.0, the bound itself stays
                // strictly positive (the pair did match).
                rung.distance.map_or(miss, |d| AtomFeature {
                    matched: true,
                    strength: 1.0 - d as f64 / (rung.bound as f64 + 1.0),
                })
            }
            OpClass::Keys | OpClass::Elements { .. } | OpClass::Scan => {
                match (t1.get(atom.left).as_str(), t2.get(atom.right).as_str()) {
                    (Some(x), Some(y)) => {
                        let op = &self.resolved[atom.op.0 as usize];
                        if !op.matches(x, y) {
                            return miss;
                        }
                        let sim = op.similarity(x, y);
                        let strength = if sim.is_nan() { 0.0 } else { sim.clamp(0.0, 1.0) };
                        AtomFeature { matched: true, strength }
                    }
                    _ => miss,
                }
            }
        }
    }

    /// Number of resolved operators.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// Never empty: `=` is always present.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::operators::OperatorTable;

    fn runtime() -> (OperatorTable, RuntimeOps) {
        let mut table = OperatorTable::new();
        table.intern("≈d");
        let ops = RuntimeOps::resolve(&table, &paper_registry()).unwrap();
        (table, ops)
    }

    #[test]
    fn equality_and_dl_resolve() {
        let (table, ops) = runtime();
        assert_eq!(ops.len(), table.len());
        assert!(!ops.is_empty());
        let dl = table.get("≈d").unwrap();
        assert!(ops.value_matches(OperatorId::EQ, &Value::str("x"), &Value::str("x")));
        assert!(!ops.value_matches(OperatorId::EQ, &Value::str("x"), &Value::str("y")));
        assert!(ops.value_matches(dl, &Value::str("Mark"), &Value::str("Marx")));
        assert!(ops.value_matches(dl, &Value::str("Clifford"), &Value::str("Clivord")));
        assert!(!ops.value_matches(dl, &Value::str("Mark"), &Value::str("David")));
    }

    #[test]
    fn null_matches_nothing() {
        let (_table, ops) = runtime();
        assert!(!ops.value_matches(OperatorId::EQ, &Value::Null, &Value::Null));
        assert!(!ops.value_matches(OperatorId::EQ, &Value::Null, &Value::str("x")));
    }

    #[test]
    fn unknown_operator_fails_resolution() {
        let mut table = OperatorTable::new();
        table.intern("≈custom-unbound");
        assert!(RuntimeOps::resolve(&table, &paper_registry()).is_err());
    }

    #[test]
    fn prepped_evaluation_agrees_with_dynamic_dispatch() {
        use crate::prep::{RelationPrep, SigNeeds};
        let (setting, inst) = crate::fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        // Prepare every attribute on both sides, then check that every
        // MD's LHS decides identically through both paths on the full
        // cross product.
        let mut ln = SigNeeds::none(inst.left().schema().arity());
        (0..inst.left().schema().arity()).for_each(|a| ln.mark(a));
        let mut rn = SigNeeds::none(inst.right().schema().arity());
        (0..inst.right().schema().arity()).for_each(|a| rn.mark(a));
        let lp = RelationPrep::build(inst.left().tuples(), &ln);
        let rp = RelationPrep::build(inst.right().tuples(), &rn);
        let mut stats = FilterStats::default();
        for (l, lt) in inst.left().tuples().iter().enumerate() {
            for (r, rt) in inst.right().tuples().iter().enumerate() {
                let (sl, sr) = (lp.row(l), rp.row(r));
                for md in &setting.sigma {
                    let compiled = md.lhs().iter().all(|atom| {
                        let (sa, sb) = (sl.sig(atom.left), sr.sig(atom.right));
                        ops.atom_matches_sigs(atom, lt, rt, sa, sb, &mut stats)
                    });
                    assert_eq!(
                        ops.lhs_matches(md.lhs(), lt, rt),
                        compiled,
                        "pair ({l},{r}) md {md:?}"
                    );
                }
            }
        }
        assert!(stats.evaluations() > 0, "edit kernels were exercised");
        assert_eq!(stats.evaluations(), stats.rejected() + stats.dp_runs);
    }

    #[test]
    fn evaluation_without_signatures_extracts_them() {
        let (table, ops) = runtime();
        let dl = table.get("≈d").unwrap();
        let t1 = Tuple::new(1, vec![Value::str("Mark")]);
        let t2 = Tuple::new(2, vec![Value::str("Marx")]);
        // No signatures: the kernel extracts them and climbs the same
        // ladder — same decision, same counter.
        let atom = SimilarityAtom::new(0, 0, dl);
        let mut stats = FilterStats::default();
        assert!(ops.atom_matches_sigs(&atom, &t1, &t2, None, None, &mut stats));
        let (sa, sb) = (AttrSig::of_value(t1.get(0)), AttrSig::of_value(t2.get(0)));
        let mut cached = FilterStats::default();
        assert!(ops.atom_matches_sigs(&atom, &t1, &t2, Some(&sa), Some(&sb), &mut cached));
        assert_eq!(stats, cached);
        assert_eq!(stats.dp_runs, 1);
    }

    #[test]
    fn atom_trace_agrees_with_evaluation_and_reports_distances() {
        use crate::prep::{RelationPrep, SigNeeds};
        let (setting, inst) = crate::fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let mut ln = SigNeeds::none(inst.left().schema().arity());
        (0..inst.left().schema().arity()).for_each(|a| ln.mark(a));
        let mut rn = SigNeeds::none(inst.right().schema().arity());
        (0..inst.right().schema().arity()).for_each(|a| rn.mark(a));
        let lp = RelationPrep::build(inst.left().tuples(), &ln);
        let rp = RelationPrep::build(inst.right().tuples(), &rn);
        let mut traced = 0usize;
        for (l, lt) in inst.left().tuples().iter().enumerate() {
            for (r, rt) in inst.right().tuples().iter().enumerate() {
                for md in &setting.sigma {
                    for atom in md.lhs() {
                        let (sa, sb) = (lp.row(l).sig(atom.left), rp.row(r).sig(atom.right));
                        let trace = ops.atom_trace(atom, lt, rt, sa, sb);
                        assert_eq!(
                            trace.matched,
                            ops.atom_matches(atom, lt, rt),
                            "pair ({l},{r}) atom {atom:?}"
                        );
                        if let (Some(bound), Some(dist)) = (trace.bound, trace.distance) {
                            // An edit atom matches iff its exact distance
                            // fits the bound — the trace must carry the
                            // evidence for its own verdict.
                            assert_eq!(trace.matched, dist <= bound);
                            traced += 1;
                        }
                    }
                }
            }
        }
        assert!(traced > 0, "edit atoms were traced");
        // Tracing without prepared signatures extracts them on the fly.
        let dl = setting.ops.get("≈d").unwrap();
        let fn_l = setting.pair.left().attr("FN").unwrap();
        let fn_r = setting.pair.right().attr("FN").unwrap();
        let atom = SimilarityAtom::new(fn_l, fn_r, dl);
        let (t1, t2) = (&inst.left().tuples()[0], &inst.right().tuples()[0]);
        let trace = ops.atom_trace(&atom, t1, t2, None, None);
        assert_eq!(trace.matched, ops.atom_matches(&atom, t1, t2));
        assert!(trace.bound.is_some() && trace.distance.is_some());
    }

    #[test]
    fn one_ladder_decides_traces_and_scores_alike() {
        use crate::prep::{RelationPrep, SigNeeds};
        let mut table = OperatorTable::new();
        let edit_ops = [table.intern("≈d"), table.intern("≈dl"), table.intern("≈lev")];
        let ops = RuntimeOps::resolve(&table, &paper_registry()).unwrap();
        // A splitmix64 stream over a small alphabet with multi-byte
        // characters, so pairs collide, share grams and differ by few
        // edits often.
        let mut state = 0x1ADDu64;
        let mut next = |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        const ALPHABET: [char; 5] = ['a', 'b', 'c', 'é', 'ß'];
        let mut needs = SigNeeds::none(1);
        needs.mark(0);
        let mut seen = FilterStats::default();
        let mut stages = Vec::new();
        for _ in 0..4000 {
            let word: String = (0..next(9)).map(|_| ALPHABET[next(5) as usize]).collect();
            let mut other: Vec<char> = word.chars().collect();
            match next(4) {
                0 => {} // equal
                1 => other = (0..next(9)).map(|_| ALPHABET[next(5) as usize]).collect(),
                _ => {
                    for _ in 0..=next(3) {
                        let at = next(other.len() as u64 + 1) as usize;
                        match next(3) {
                            0 => other.insert(at, ALPHABET[next(5) as usize]),
                            _ if at < other.len() && next(2) == 0 => drop(other.remove(at)),
                            _ if at < other.len() => other[at] = ALPHABET[next(5) as usize],
                            _ => {}
                        }
                    }
                }
            }
            let value = |s: String, draw: u64| if draw == 0 { Value::Null } else { Value::str(s) };
            let t1 = Tuple::new(1, vec![value(word, next(12))]);
            let t2 = Tuple::new(2, vec![value(other.into_iter().collect(), next(12))]);
            let prep = |t: &Tuple| RelationPrep::build(std::slice::from_ref(t), &needs);
            let (p1, p2) = (prep(&t1), prep(&t2));
            let (sa, sb) = (p1.row(0).sig(0), p2.row(0).sig(0));
            for op in edit_ops {
                let atom = SimilarityAtom::new(0, 0, op);
                let mut stats = FilterStats::default();
                let matched = ops.atom_matches_sigs(&atom, &t1, &t2, sa, sb, &mut stats);
                let trace = ops.atom_trace(&atom, &t1, &t2, sa, sb);
                let feature = ops.atom_feature(&atom, &t1, &t2);
                let pair = (&t1, &t2, op);
                assert_eq!(matched, ops.atom_matches(&atom, &t1, &t2), "{pair:?}");
                assert_eq!(trace.matched, matched, "{pair:?}");
                assert_eq!(feature.matched, matched, "{pair:?}");
                assert_eq!(feature.strength > 0.0, matched, "{pair:?}");
                // The counter the hot path bumped is the stage the trace
                // reports (none for the stages before the filters).
                let mut expected = FilterStats::default();
                expected.record(trace.stage);
                assert_eq!(stats, expected, "{pair:?}: traced {:?}", trace.stage);
                if let (Some(bound), Some(distance)) = (trace.bound, trace.distance) {
                    assert_eq!(matched, distance <= bound, "{pair:?}");
                }
                seen.merge(&stats);
                if !stages.contains(&trace.stage) {
                    stages.push(trace.stage);
                }
            }
        }
        // Every rung of the ladder was exercised.
        assert_eq!(stages.len(), 7, "{stages:?}");
        assert!(seen.rejected() > 0 && seen.dp_runs > 0 && seen.equal_fast > 0, "{seen:?}");
    }

    #[test]
    fn atom_feature_agrees_with_boolean_and_grades_margin() {
        let (setting, inst) = crate::fig1::setting_and_instance();
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        for lt in inst.left().tuples() {
            for rt in inst.right().tuples() {
                for md in &setting.sigma {
                    for atom in md.lhs() {
                        let f = ops.atom_feature(atom, lt, rt);
                        assert_eq!(f.matched, ops.atom_matches(atom, lt, rt), "{atom:?}");
                        assert!(f.strength.is_finite() && (0.0..=1.0).contains(&f.strength));
                        assert_eq!(f.matched, f.strength > 0.0, "{atom:?}");
                    }
                }
            }
        }
        // Exact agreement outranks an in-bound typo, which outranks a miss.
        let (table, ops) = runtime();
        let dl = table.get("≈d").unwrap();
        let atom = SimilarityAtom::new(0, 0, dl);
        let exact = ops.atom_feature(
            &atom,
            &Tuple::new(1, vec![Value::str("Clifford")]),
            &Tuple::new(2, vec![Value::str("Clifford")]),
        );
        let typo = ops.atom_feature(
            &atom,
            &Tuple::new(1, vec![Value::str("Clifford")]),
            &Tuple::new(2, vec![Value::str("Clivord")]),
        );
        let miss = ops.atom_feature(
            &atom,
            &Tuple::new(1, vec![Value::str("Clifford")]),
            &Tuple::new(2, vec![Value::str("Zebra")]),
        );
        assert_eq!(exact.strength, 1.0);
        assert!(typo.matched && typo.strength > 0.0 && typo.strength < 1.0);
        assert!(!miss.matched && miss.strength == 0.0);
        // Null operands score zero without panicking.
        let null = ops.atom_feature(
            &atom,
            &Tuple::new(1, vec![Value::Null]),
            &Tuple::new(2, vec![Value::str("x")]),
        );
        assert_eq!(null, AtomFeature { matched: false, strength: 0.0 });
        // An operator verified through its trait object scores a mismatch
        // 0 too, however similar the pair: jw("martha", "marhtx") ≈ 0.87
        // misses ≈jw@0.9.
        let mut table = OperatorTable::new();
        let jw = table.intern("≈jw");
        let ops = RuntimeOps::resolve(&table, &paper_registry()).unwrap();
        let pair = |a: &str, b: &str| {
            ops.atom_feature(
                &SimilarityAtom::new(0, 0, jw),
                &Tuple::new(1, vec![Value::str(a)]),
                &Tuple::new(2, vec![Value::str(b)]),
            )
        };
        let near = pair("martha", "marhtx");
        assert!(!near.matched && near.strength == 0.0, "{near:?}");
        let hit = pair("martha", "marhta");
        assert!(hit.matched && hit.strength > 0.9, "{hit:?}");
    }

    #[test]
    fn atom_stage_names_are_stable() {
        assert_eq!(AtomStage::EqualFast.name(), "equal-fast");
        assert_eq!(AtomStage::BandedDp.name(), "dp");
        assert_eq!(AtomStage::Null.name(), "null");
    }

    #[test]
    fn filter_stats_merge_and_totals() {
        let mut a = FilterStats {
            equal_fast: 5,
            length_rejects: 1,
            bag_rejects: 2,
            qgram_rejects: 3,
            dp_runs: 4,
            dedup_saved: 7,
            retrieval_rejects: 2,
            retrieval_length_rejects: 1,
            retrieval_mask_rejects: 1,
            retrieval_ratio_rejects: 0,
            retrieval_null_rejects: 0,
            gallop_steps: 20,
            linear_steps: 30,
            blocks_decoded: 4,
            blocks_skipped: 6,
        };
        let b = FilterStats {
            equal_fast: 0,
            length_rejects: 10,
            bag_rejects: 0,
            qgram_rejects: 1,
            dp_runs: 2,
            dedup_saved: 3,
            retrieval_rejects: 1,
            retrieval_length_rejects: 0,
            retrieval_mask_rejects: 0,
            retrieval_ratio_rejects: 1,
            retrieval_null_rejects: 0,
            gallop_steps: 2,
            linear_steps: 3,
            blocks_decoded: 1,
            blocks_skipped: 1,
        };
        a.merge(&b);
        assert_eq!(a.length_rejects, 11);
        assert_eq!(a.equal_fast, 5);
        assert_eq!(a.dedup_saved, 10);
        assert_eq!(a.retrieval_rejects, 3);
        assert_eq!(a.gallop_steps, 22);
        assert_eq!(a.linear_steps, 33);
        assert_eq!(a.blocks_decoded, 5);
        assert_eq!(a.blocks_skipped, 7);
        assert_eq!(a.rejected(), 17);
        // dedup_saved and the retrieval counters track skipped or
        // amortized work, not evaluations.
        assert_eq!(a.evaluations(), 28);
        assert_eq!(
            (a.retrieval_length_rejects, a.retrieval_mask_rejects, a.retrieval_ratio_rejects),
            (1, 1, 1)
        );
    }

    #[test]
    fn retrieval_rejects_are_the_sum_of_their_reasons() {
        use RetrievalReject::*;
        let mut stats = FilterStats::default();
        let reasons = [LengthWindow, PresenceMask, PresenceMask, SizeRatio, Null, LengthWindow];
        for why in reasons {
            stats.reject(why, 1);
        }
        stats.reject(Null, 0);
        let split = [
            stats.retrieval_length_rejects,
            stats.retrieval_mask_rejects,
            stats.retrieval_ratio_rejects,
            stats.retrieval_null_rejects,
        ];
        assert_eq!(split, [2, 2, 1, 1]);
        assert_eq!(split.iter().sum::<u64>(), stats.retrieval_rejects);
        assert_eq!(stats.retrieval_rejects, reasons.len() as u64);
        assert_eq!(stats.evaluations(), 0, "retrieval rejects are not evaluations");
    }

    #[test]
    fn resolved_classes_follow_the_operators() {
        let mut table = OperatorTable::new();
        let eq = table.intern("=");
        let dl = table.intern("≈d");
        let jw = table.intern("≈jw");
        let sx = table.intern("≈sx");
        let tok = table.intern("≈tok");
        let qg = table.intern("≈qg");
        let ops = RuntimeOps::resolve(&table, &paper_registry()).unwrap();
        assert_eq!(ops.class(eq), OpClass::Equality);
        assert_eq!(ops.class(dl), OpClass::Edit { theta: 0.75, transpositions: true });
        assert_eq!(ops.class(sx), OpClass::Keys);
        for op in [jw, tok, qg] {
            assert!(matches!(ops.class(op), OpClass::Elements { .. }));
        }
        assert!(ops.needs_signature(dl) && !ops.needs_signature(eq) && !ops.needs_signature(jw));

        // Keys / elements and their sizes surface through the runtime table.
        let mut keys = Vec::new();
        ops.derived_keys_into(sx, "Robert", &mut keys);
        ops.derived_keys_into(eq, "Robert", &mut keys);
        assert_eq!(keys, vec!["R163".to_owned(), "Robert".to_owned()]);
        let mut elems = Vec::new();
        // Set semantics: {oak, street}.
        assert_eq!(ops.index_elements_into(tok, "oak street oak", &mut elems), 2);
        assert_eq!(elems.len(), 2);
        // Jaro–Winkler: the size is the character count; the elements are
        // the sorted prefix (n − ⌈0.5·n⌉ + 1 = 4 of "aahmrt").
        elems.clear();
        assert_eq!(ops.index_elements_into(jw, "martha", &mut elems), 6);
        assert_eq!(elems, "aahm".chars().map(u64::from).collect::<Vec<_>>());
    }

    #[test]
    fn atom_and_lhs_evaluation() {
        let (table, ops) = runtime();
        let dl = table.get("≈d").unwrap();
        let t1 = Tuple::new(1, vec![Value::str("Mark"), Value::str("Clifford")]);
        let t2 = Tuple::new(2, vec![Value::str("Marx"), Value::str("Clifford")]);
        let a0 = SimilarityAtom::new(0, 0, dl);
        let a1 = SimilarityAtom::eq(1, 1);
        assert!(ops.atom_matches(&a0, &t1, &t2));
        assert!(ops.lhs_matches(&[a0, a1], &t1, &t2));
        let a_bad = SimilarityAtom::eq(0, 0);
        assert!(!ops.lhs_matches(&[a_bad, a1], &t1, &t2));
    }
}
