//! **MDClosure** — the deduction algorithm of §4 (Fig. 5/6 of the paper).
//!
//! Given a set Σ of MDs and the LHS of a candidate MD ϕ, the algorithm
//! computes the *closure*: every fact `R[A] ≈ R'[B]` such that
//! `Σ |=m LHS(ϕ) → R[A] ≈ R'[B]` on stable instances. ϕ is deduced iff every
//! RHS pair of ϕ appears in the closure with equality.
//!
//! The closure is stored in the paper's `h × h × p` matrix `M` (`h` distinct
//! attributes, `p` distinct similarity operators, plane 0 = equality).
//! Facts are symmetric; `=` subsumes every `≈` at query time.
//!
//! Three ingredients mirror the paper's procedures:
//!
//! * `Closure::assign` — `AssignVal`: record a fact unless it (or its
//!   equality strengthening) is already known;
//! * the worklist in `Closure::propagate` — `Propagate`/`Infer`: saturate
//!   the generic-axiom consequences. For a new fact `a ≈ b`, any known
//!   equality `b = c` yields `a ≈ c` (and symmetrically); for a new equality
//!   `a = b`, any known `b ≈d c` yields `a ≈d c` (the Lemma 3.4 interactions
//!   between the matching operator, equality and similarity). This saturates
//!   attributes of *both* relations uniformly — a sound-and-complete
//!   superset of the published pseudo-code's case analysis;
//! * the rule loop — MDs in Σ fire when all their LHS atoms hold; each MD
//!   fires at most once (line 9 of Fig. 5).
//!
//! Instead of re-scanning Σ until fixpoint (the paper's `repeat` loop, which
//! yields the `O(n²)` bound of Theorem 4.1), rules are indexed by their LHS
//! atoms with unsatisfied-atom counters — the classic Beeri–Bernstein
//! linear-time structure the paper points to for its `O(n + h³)` refinement.

use crate::dependency::{MatchingDependency, SimilarityAtom};
use crate::operators::OperatorId;
use crate::schema::{AttrId, AttrRef};
use std::collections::HashMap;

/// A deduced fact: `left ≈op right` over universe attribute references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fact {
    /// First attribute reference.
    pub a: AttrRef,
    /// Second attribute reference.
    pub b: AttrRef,
    /// The operator relating them (`=` for identified pairs).
    pub op: OperatorId,
}

/// The closure of Σ and a seed LHS, i.e. the matrix `M` of §4 plus the
/// firing trace.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Dense universe of distinct attribute references (the `h` dimension).
    attrs: Vec<AttrRef>,
    attr_idx: HashMap<AttrRef, u32>,
    /// Dense universe of operators (the `p` dimension); plane 0 is `=`.
    planes: Vec<OperatorId>,
    plane_idx: HashMap<OperatorId, u32>,
    h: usize,
    bits: Vec<bool>,
    /// Indices (into the normalized Σ) of rules that fired, in firing order.
    fired: Vec<usize>,
}

impl Closure {
    /// Runs MDClosure: computes the closure of `sigma` and the seed atoms
    /// (the LHS of the MD under test).
    ///
    /// `sigma` may contain general (multi-pair RHS) MDs; they are normalized
    /// internally. `extra_attrs` lets callers force additional attributes
    /// into the universe so they can be queried afterwards (typically the
    /// RHS attributes of the MD under test).
    ///
    /// ```
    /// use matchrules_core::closure::Closure;
    /// use matchrules_core::operators::OperatorId;
    /// use matchrules_core::paper;
    ///
    /// // Example 4.1: seed with LHS(rck4) = {email = email, tel = phn} and
    /// // watch Σc identify the names and the address.
    /// let setting = paper::example_1_1();
    /// let rck4 = &paper::example_2_4_rcks(&setting)[3];
    /// let closure = Closure::compute(&setting.sigma, rck4.atoms(), &[]);
    /// let fn_c = setting.pair.left().attr("FN").unwrap();
    /// let fn_b = setting.pair.right().attr("FN").unwrap();
    /// assert!(closure.holds(fn_c, fn_b, OperatorId::EQ));
    /// assert_eq!(closure.fired().len(), 8); // ϕ2 + ϕ3 (2 pairs) + ϕ1 (5 pairs)
    /// ```
    pub fn compute(
        sigma: &[MatchingDependency],
        seed: &[SimilarityAtom],
        extra_attrs: &[AttrRef],
    ) -> Closure {
        let (normalized, mut closure) = setup(sigma, seed, extra_attrs);
        let mut engine = Engine::new(&mut closure, &normalized);
        for atom in seed {
            engine.assert_atom(atom.left, atom.right, atom.op);
        }
        engine.run();
        let fired = engine.fired.iter().map(|&i| normalized[i].source).collect();
        closure.fired = fired;
        closure
    }

    /// Runs MDClosure with the *published* control flow: a `repeat` loop
    /// re-scanning all of Σ until no rule fires (Fig. 5, lines 5–11),
    /// giving the `O(n²)` bound of Theorem 4.1. Semantically equivalent to
    /// [`Closure::compute`] (property-tested); kept as a differential
    /// oracle and for the rule-index ablation benchmark.
    pub fn compute_naive(
        sigma: &[MatchingDependency],
        seed: &[SimilarityAtom],
        extra_attrs: &[AttrRef],
    ) -> Closure {
        let (normalized, mut closure) = setup(sigma, seed, extra_attrs);
        // Seed + propagate without the rule index: the engine's watcher
        // machinery is bypassed by giving it no rules.
        let mut engine = Engine::new(&mut closure, &[]);
        for atom in seed {
            engine.assert_atom(atom.left, atom.right, atom.op);
        }
        engine.run();
        // Fig. 5's repeat loop: scan Σ until no change; each rule fires at
        // most once (line 9).
        let mut applied = vec![false; normalized.len()];
        let mut fired = Vec::new();
        loop {
            let mut changed = false;
            for (ri, rule) in normalized.iter().enumerate() {
                if applied[ri] {
                    continue;
                }
                let lhs_holds =
                    rule.lhs.iter().all(|atom| engine.m.holds(atom.left, atom.right, atom.op));
                if !lhs_holds {
                    continue;
                }
                applied[ri] = true;
                fired.push(ri);
                changed = true;
                let ia = engine.m.attr_idx[&AttrRef::left(rule.rhs_left)];
                let ib = engine.m.attr_idx[&AttrRef::right(rule.rhs_right)];
                engine.assign(ia, ib, 0);
                engine.run();
            }
            if !changed {
                break;
            }
        }
        let fired = fired.into_iter().map(|i| normalized[i].source).collect();
        closure.fired = fired;
        closure
    }

    /// Whether `R1[left] ≈op R2[right]` is in the closure (`=` facts satisfy
    /// every operator — equality subsumes similarity).
    pub fn holds(&self, left: AttrId, right: AttrId, op: OperatorId) -> bool {
        self.holds_refs(AttrRef::left(left), AttrRef::right(right), op)
    }

    /// Whether `a ≈op b` is in the closure, for arbitrary attribute
    /// references (both sides of the schema pair).
    pub fn holds_refs(&self, a: AttrRef, b: AttrRef, op: OperatorId) -> bool {
        if a == b {
            // Reflexivity of every operator.
            return true;
        }
        let (Some(&ia), Some(&ib)) = (self.attr_idx.get(&a), self.attr_idx.get(&b)) else {
            return false;
        };
        if self.get(ia as usize, ib as usize, 0) {
            return true;
        }
        match self.plane_idx.get(&op) {
            Some(&p) => self.get(ia as usize, ib as usize, p as usize),
            None => false,
        }
    }

    /// All non-reflexive facts in the closure (for inspection and traces).
    /// Each symmetric fact is reported once, with `a ≤ b`.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out = Vec::new();
        for ia in 0..self.h {
            for ib in (ia + 1)..self.h {
                for (pi, &op) in self.planes.iter().enumerate() {
                    if self.get(ia, ib, pi) {
                        out.push(Fact { a: self.attrs[ia], b: self.attrs[ib], op });
                    }
                }
            }
        }
        out
    }

    /// Indices into Σ (pre-normalization) of the MDs that fired, in order.
    /// An MD with a `k`-pair RHS can appear up to `k` times.
    pub fn fired(&self) -> &[usize] {
        &self.fired
    }

    /// Number of distinct attributes in the universe (`h` of Theorem 4.1).
    pub fn universe_size(&self) -> usize {
        self.h
    }

    fn cell(&self, a: usize, b: usize, plane: usize) -> usize {
        (a * self.h + b) * self.planes.len() + plane
    }

    fn get(&self, a: usize, b: usize, plane: usize) -> bool {
        self.bits[self.cell(a, b, plane)]
    }
}

/// The setup both closure engines share: Σ normalized into single-RHS-pair
/// rules, and an empty matrix over the universe of every attribute and
/// operator those rules, the seed and `extra_attrs` mention.
fn setup<'s>(
    sigma: &'s [MatchingDependency],
    seed: &[SimilarityAtom],
    extra_attrs: &[AttrRef],
) -> (Vec<NormalRule<'s>>, Closure) {
    let normalized: Vec<NormalRule> = sigma
        .iter()
        .enumerate()
        .flat_map(|(i, md)| {
            md.rhs().iter().map(move |&ident| NormalRule {
                source: i,
                lhs: md.lhs(),
                rhs_left: ident.left,
                rhs_right: ident.right,
            })
        })
        .collect();
    let mut builder = UniverseBuilder::default();
    for rule in &normalized {
        for atom in rule.lhs {
            builder.add_atom(atom);
        }
        builder.add_ref(AttrRef::left(rule.rhs_left));
        builder.add_ref(AttrRef::right(rule.rhs_right));
    }
    for atom in seed {
        builder.add_atom(atom);
    }
    for &r in extra_attrs {
        builder.add_ref(r);
    }
    (normalized, builder.finish())
}

/// A normalized (single-RHS-pair) view of a rule in Σ.
struct NormalRule<'a> {
    /// Index of the originating MD in Σ.
    source: usize,
    lhs: &'a [SimilarityAtom],
    rhs_left: AttrId,
    rhs_right: AttrId,
}

#[derive(Default)]
struct UniverseBuilder {
    attrs: Vec<AttrRef>,
    attr_idx: HashMap<AttrRef, u32>,
    planes: Vec<OperatorId>,
    plane_idx: HashMap<OperatorId, u32>,
}

impl UniverseBuilder {
    fn add_ref(&mut self, r: AttrRef) -> u32 {
        *self.attr_idx.entry(r).or_insert_with(|| {
            self.attrs.push(r);
            (self.attrs.len() - 1) as u32
        })
    }

    fn add_op(&mut self, op: OperatorId) -> u32 {
        *self.plane_idx.entry(op).or_insert_with(|| {
            self.planes.push(op);
            (self.planes.len() - 1) as u32
        })
    }

    fn add_atom(&mut self, atom: &SimilarityAtom) {
        self.add_ref(AttrRef::left(atom.left));
        self.add_ref(AttrRef::right(atom.right));
        self.add_op(atom.op);
    }

    fn finish(mut self) -> Closure {
        // Plane 0 must be equality even when no rule mentions `=` explicitly.
        if self.planes.first() != Some(&OperatorId::EQ) {
            if let Some(pos) = self.planes.iter().position(|&op| op == OperatorId::EQ) {
                self.planes.swap(0, pos);
            } else {
                self.planes.insert(0, OperatorId::EQ);
            }
            self.plane_idx =
                self.planes.iter().enumerate().map(|(i, &op)| (op, i as u32)).collect();
        }
        let h = self.attrs.len();
        let p = self.planes.len();
        Closure {
            attrs: self.attrs,
            attr_idx: self.attr_idx,
            planes: self.planes,
            plane_idx: self.plane_idx,
            h,
            bits: vec![false; h * h * p],
            fired: Vec::new(),
        }
    }
}

/// One watcher: rule `rule` is waiting for its `atom`-th LHS conjunct on
/// this attribute pair.
#[derive(Clone, Copy)]
struct Watcher {
    rule: u32,
    atom: u32,
}

/// The worklist engine: owns the matrix plus the rule index during a single
/// `compute` run.
struct Engine<'c, 'r> {
    m: &'c mut Closure,
    rules: &'r [NormalRule<'r>],
    /// Watchers keyed by unordered universe-index pair.
    watchers: HashMap<(u32, u32), Vec<Watcher>>,
    /// Per-rule count of LHS atoms not yet satisfied.
    remaining: Vec<u32>,
    /// Per-rule bitmap of satisfied atoms (guards against double counting
    /// when a pair is first similar and later equal).
    satisfied: Vec<Vec<bool>>,
    /// Worklist of newly-recorded facts, as universe indices + plane.
    queue: Vec<(u32, u32, u32)>,
    fired: Vec<usize>,
}

impl<'c, 'r> Engine<'c, 'r> {
    fn new(m: &'c mut Closure, rules: &'r [NormalRule<'r>]) -> Self {
        let mut watchers: HashMap<(u32, u32), Vec<Watcher>> = HashMap::new();
        let mut remaining = Vec::with_capacity(rules.len());
        let mut satisfied = Vec::with_capacity(rules.len());
        for (ri, rule) in rules.iter().enumerate() {
            remaining.push(rule.lhs.len() as u32);
            satisfied.push(vec![false; rule.lhs.len()]);
            for (ai, atom) in rule.lhs.iter().enumerate() {
                let ia = m.attr_idx[&AttrRef::left(atom.left)];
                let ib = m.attr_idx[&AttrRef::right(atom.right)];
                watchers
                    .entry(key(ia, ib))
                    .or_default()
                    .push(Watcher { rule: ri as u32, atom: ai as u32 });
            }
        }
        Engine { m, rules, watchers, remaining, satisfied, queue: Vec::new(), fired: Vec::new() }
    }

    /// Seeds one LHS atom of the MD under test.
    fn assert_atom(&mut self, left: AttrId, right: AttrId, op: OperatorId) {
        let ia = self.m.attr_idx[&AttrRef::left(left)];
        let ib = self.m.attr_idx[&AttrRef::right(right)];
        let plane = self.m.plane_idx[&op];
        self.assign(ia, ib, plane);
    }

    /// `AssignVal` (Fig. 5): records the symmetric fact unless it is already
    /// known outright or via equality; enqueues it for propagation.
    fn assign(&mut self, a: u32, b: u32, plane: u32) -> bool {
        if a == b {
            return false; // reflexive facts carry no information
        }
        let (ia, ib, pl) = (a as usize, b as usize, plane as usize);
        if self.m.get(ia, ib, 0) || self.m.get(ia, ib, pl) {
            return false;
        }
        let c1 = self.m.cell(ia, ib, pl);
        let c2 = self.m.cell(ib, ia, pl);
        self.m.bits[c1] = true;
        self.m.bits[c2] = true;
        self.queue.push((a, b, plane));
        true
    }

    /// Runs propagation and rule firing to fixpoint.
    fn run(&mut self) {
        while let Some((a, b, plane)) = self.queue.pop() {
            self.notify(a, b, plane);
            self.propagate(a, b, plane);
        }
    }

    /// Wakes rules watching the pair `(a, b)`; fires those whose LHS became
    /// fully satisfied. A watcher's atom is satisfied by its own operator or
    /// by equality (line 7 of Fig. 5).
    fn notify(&mut self, a: u32, b: u32, plane: u32) {
        let op = self.m.planes[plane as usize];
        let Some(watchers) = self.watchers.get(&key(a, b)) else { return };
        let mut to_fire = Vec::new();
        // Split borrows: copy the watcher list heads we need.
        let watchers = watchers.clone();
        for w in watchers {
            let rule = &self.rules[w.rule as usize];
            let atom = &rule.lhs[w.atom as usize];
            if self.satisfied[w.rule as usize][w.atom as usize] {
                continue;
            }
            if atom.op == op || op.is_eq() {
                self.satisfied[w.rule as usize][w.atom as usize] = true;
                self.remaining[w.rule as usize] -= 1;
                if self.remaining[w.rule as usize] == 0 {
                    to_fire.push(w.rule as usize);
                }
            }
        }
        for ri in to_fire {
            self.fire(ri);
        }
    }

    /// Applies a rule: its RHS pair becomes an equality fact (Lemma 3.2 —
    /// on stable instances the matching operator yields equality).
    fn fire(&mut self, rule_idx: usize) {
        let rule = &self.rules[rule_idx];
        self.fired.push(rule_idx);
        let ia = self.m.attr_idx[&AttrRef::left(rule.rhs_left)];
        let ib = self.m.attr_idx[&AttrRef::right(rule.rhs_right)];
        self.assign(ia, ib, 0);
    }

    /// `Propagate`/`Infer` (Fig. 6): saturates the generic-axiom
    /// consequences of the new fact `a ≈ b`.
    fn propagate(&mut self, a: u32, b: u32, plane: u32) {
        let h = self.m.h as u32;
        let p = self.m.planes.len() as u32;
        for c in 0..h {
            if c == a || c == b {
                continue;
            }
            // x ≈ y ∧ y = z ⇒ x ≈ z (both orientations).
            if self.m.get(b as usize, c as usize, 0) {
                self.assign(a, c, plane);
            }
            if self.m.get(a as usize, c as usize, 0) {
                self.assign(b, c, plane);
            }
            if plane == 0 {
                // New equality a = b: carry existing similarities across it
                // (the Lemma 3.4 interaction).
                for d in 1..p {
                    if self.m.get(b as usize, c as usize, d as usize) {
                        self.assign(a, c, d);
                    }
                    if self.m.get(a as usize, c as usize, d as usize) {
                        self.assign(b, c, d);
                    }
                }
            }
        }
    }
}

/// Unordered pair key for the watcher index.
fn key(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::IdentPair;
    use crate::operators::OperatorTable;
    use crate::schema::{Schema, SchemaPair};
    use std::sync::Arc;

    /// (R(A,B,C), R(A,B,C)) — the reflexive pair of Examples 2.3/3.1.
    fn abc_pair() -> SchemaPair {
        let r = Arc::new(Schema::text("R", &["A", "B", "C"]).unwrap());
        SchemaPair::reflexive(r)
    }

    fn md(pair: &SchemaPair, lhs: Vec<SimilarityAtom>, rhs: Vec<IdentPair>) -> MatchingDependency {
        MatchingDependency::new(pair, lhs, rhs).unwrap()
    }

    #[test]
    fn example_3_1_transitivity_deduced() {
        // ψ1: R[A] = R[A] → R[B] ⇌ R[B]; ψ2: R[B] = R[B] → R[C] ⇌ R[C].
        // ψ3: R[A] = R[A] → R[C] ⇌ R[C] is deduced (Σ0 |=m ψ3, Example 3.3).
        let pair = abc_pair();
        let (a, b, c) = (0, 1, 2);
        let sigma = vec![
            md(&pair, vec![SimilarityAtom::eq(a, a)], vec![IdentPair::new(b, b)]),
            md(&pair, vec![SimilarityAtom::eq(b, b)], vec![IdentPair::new(c, c)]),
        ];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(a, a)], &[]);
        assert!(closure.holds(b, b, OperatorId::EQ));
        assert!(closure.holds(c, c, OperatorId::EQ));
        assert_eq!(closure.fired(), &[0, 1]);
    }

    #[test]
    fn no_firing_without_lhs() {
        let pair = abc_pair();
        let sigma = vec![md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)])];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(2, 2)], &[]);
        assert!(!closure.holds(1, 1, OperatorId::EQ));
        assert!(closure.fired().is_empty());
    }

    #[test]
    fn equality_satisfies_similarity_guards() {
        // LHS asks for A ≈d A; seeding A = A must fire the rule (Fig. 5,
        // line 7: equality subsumes the similarity requirement).
        let pair = abc_pair();
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈dl");
        let sigma =
            vec![md(&pair, vec![SimilarityAtom::new(0, 0, dl)], vec![IdentPair::new(1, 1)])];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(0, 0)], &[]);
        assert!(closure.holds(1, 1, OperatorId::EQ));
    }

    #[test]
    fn similarity_does_not_fake_equality() {
        // Seeding A ≈d A does NOT deduce identification of A, and a rule
        // requiring A = A must not fire.
        let pair = abc_pair();
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈dl");
        let sigma = vec![md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)])];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::new(0, 0, dl)], &[]);
        assert!(!closure.holds(1, 1, OperatorId::EQ));
        assert!(closure.holds(0, 0, dl));
        assert!(!closure.holds(0, 0, OperatorId::EQ));
    }

    #[test]
    fn similarity_transfers_through_equality() {
        // Facts: A ≈d B(seed)  and  rule fires B ⇌ C  ⇒  A ≈d C.
        // Schema pair (R(A), S(B, C)) keeps the roles apart.
        let r = Arc::new(Schema::text("R", &["A", "X"]).unwrap());
        let s = Arc::new(Schema::text("S", &["B", "C"]).unwrap());
        let pair = SchemaPair::new(r, s);
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈dl");
        // Rule: R[X] = S[B] → R[X] ⇌ S[C]; hmm — instead use a rule that
        // merges S[B] and S[C] indirectly via R[X]:
        let sigma = vec![
            // R[X] = S[B] → R[X] ⇌ S[C]
            md(&pair, vec![SimilarityAtom::eq(1, 0)], vec![IdentPair::new(1, 1)]),
        ];
        // Seed: R[A] ≈d S[B], R[X] = S[B].
        let seed = vec![SimilarityAtom::new(0, 0, dl), SimilarityAtom::eq(1, 0)];
        let closure = Closure::compute(&sigma, &seed, &[]);
        // Fired: R[X] = S[C]. Then R[X] = S[B] ∧ R[X] = S[C] ⇒ S[B] = S[C]
        // (same-relation fact), and A ≈d B ∧ B = C ⇒ A ≈d C.
        assert!(closure.holds_refs(AttrRef::right(0), AttrRef::right(1), OperatorId::EQ));
        assert!(closure.holds(0, 1, dl));
    }

    #[test]
    fn lemma_3_4_shared_rhs_attribute() {
        // ϕ: L → R1[A1, A2] ⇌ R2[B, B]: firing identifies A1 and A2 with the
        // same B, hence with each other (Lemma 3.4(1)).
        let r1 = Arc::new(Schema::text("R1", &["A1", "A2", "L"]).unwrap());
        let r2 = Arc::new(Schema::text("R2", &["B", "L"]).unwrap());
        let pair = SchemaPair::new(r1, r2);
        let sigma = vec![md(
            &pair,
            vec![SimilarityAtom::eq(2, 1)],
            vec![IdentPair::new(0, 0), IdentPair::new(1, 0)],
        )];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(2, 1)], &[]);
        assert!(closure.holds_refs(AttrRef::left(0), AttrRef::left(1), OperatorId::EQ));
    }

    #[test]
    fn lemma_3_4_similarity_interaction() {
        // ϕ = (L ∧ R1[A1] ≈ R2[B]) → R1[A2] ⇌ R2[B] ⇒ A2 ≈ A1 afterwards
        // (Lemma 3.4(2)).
        let r1 = Arc::new(Schema::text("R1", &["A1", "A2", "L"]).unwrap());
        let r2 = Arc::new(Schema::text("R2", &["B", "L"]).unwrap());
        let pair = SchemaPair::new(r1, r2);
        let mut ops = OperatorTable::new();
        let sim = ops.intern("≈");
        let sigma = vec![md(
            &pair,
            vec![SimilarityAtom::eq(2, 1), SimilarityAtom::new(0, 0, sim)],
            vec![IdentPair::new(1, 0)],
        )];
        let seed = vec![SimilarityAtom::eq(2, 1), SimilarityAtom::new(0, 0, sim)];
        let closure = Closure::compute(&sigma, &seed, &[]);
        assert!(closure.holds_refs(AttrRef::left(1), AttrRef::left(0), sim));
    }

    #[test]
    fn facts_listing_is_symmetric_free() {
        let pair = abc_pair();
        let sigma = vec![md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)])];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(0, 0)], &[]);
        let facts = closure.facts();
        // Seed (A,A) + fired (B,B); no duplicated orientations.
        assert_eq!(facts.len(), 2);
        for f in &facts {
            assert!(f.a <= f.b);
        }
    }

    #[test]
    fn each_rule_fires_at_most_once() {
        let pair = abc_pair();
        let sigma = vec![
            md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)]),
            md(&pair, vec![SimilarityAtom::eq(1, 1)], vec![IdentPair::new(0, 0)]),
        ];
        let closure = Closure::compute(&sigma, &[SimilarityAtom::eq(0, 0)], &[]);
        assert_eq!(closure.fired().len(), 2);
    }

    #[test]
    fn reflexive_holds_without_universe() {
        let closure = Closure::compute(&[], &[], &[]);
        assert!(closure.holds_refs(AttrRef::left(7), AttrRef::left(7), OperatorId::EQ));
        assert!(!closure.holds(7, 7, OperatorId::EQ));
        assert_eq!(closure.universe_size(), 0);
    }

    /// The naive (published control flow) and indexed engines compute the
    /// same closure, fact for fact.
    #[test]
    fn naive_and_indexed_closures_agree() {
        let pair = abc_pair();
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈dl");
        let sigma = vec![
            md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)]),
            md(&pair, vec![SimilarityAtom::new(1, 1, dl)], vec![IdentPair::new(2, 2)]),
            md(
                &pair,
                vec![SimilarityAtom::eq(2, 2), SimilarityAtom::new(0, 0, dl)],
                vec![IdentPair::new(0, 0), IdentPair::new(1, 1)],
            ),
        ];
        for seed in [
            vec![SimilarityAtom::eq(0, 0)],
            vec![SimilarityAtom::new(0, 0, dl)],
            vec![SimilarityAtom::eq(2, 2), SimilarityAtom::new(0, 0, dl)],
        ] {
            let fast = Closure::compute(&sigma, &seed, &[]);
            let naive = Closure::compute_naive(&sigma, &seed, &[]);
            let mut f1 = fast.facts();
            let mut f2 = naive.facts();
            let key = |f: &Fact| (f.a, f.b, f.op);
            f1.sort_by_key(key);
            f2.sort_by_key(key);
            assert_eq!(f1, f2, "closures diverge for seed {seed:?}");
        }
    }
}
