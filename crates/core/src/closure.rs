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
//! * `Reasoner::assign` — `AssignVal`: record a fact unless it (or its
//!   equality strengthening) is already known;
//! * the worklist in `Reasoner::propagate` — `Propagate`/`Infer`: saturate
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
//!
//! **One engine, built once.** [`Reasoner::new`] pays for Σ once: it
//! normalizes Σ into single-RHS-pair rules, fixes the attribute and
//! operator universe, and indexes the watchers in a dense table with one
//! chain per unordered universe pair. Theorem 4.1's `O(n + h³)` is
//! therefore a per-Σ cost. Each question then costs a reset of the matrix
//! (clearing just the cells the previous question set), a copy of the
//! per-rule unsatisfied-atom counters from a template, and the work on the
//! facts it actually touches (`O(h)` propagation per fact plus the watchers
//! of its pair). A question ([`Reasoner::implies`]) stops as soon as every
//! pair it asks about is an equality fact: facts only accumulate, so the
//! answer is already the fixpoint's, and the queued rest is dropped.
//! findRCKs asks one `Reasoner` every question of a call;
//! [`Closure::compute`] is a one-shot `Reasoner` that runs to fixpoint (its
//! facts and firing trace are the whole closure), and
//! [`Closure::compute_naive`] keeps the published control flow as the
//! differential oracle. The universe maps attributes and operators to
//! their matrix indices through dense vectors (by side and schema
//! position, by operator id), so no lookup hashes.

use crate::dependency::{IdentPair, MatchingDependency, SimilarityAtom};
use crate::operators::OperatorId;
use crate::schema::{AttrId, AttrRef, Side};

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
    universe: Universe,
    bits: Vec<bool>,
    /// Indices into Σ of the MDs that fired, in firing order.
    fired: Vec<usize>,
}

impl Closure {
    /// Runs MDClosure: computes the closure of `sigma` and the seed atoms
    /// (the LHS of the MD under test).
    ///
    /// `sigma` may contain general (multi-pair RHS) MDs; they are normalized
    /// internally. `extra_attrs` lets callers force additional attributes
    /// into the universe so they can be queried afterwards (typically the
    /// RHS attributes of the MD under test). This is a one-shot
    /// [`Reasoner`]; to ask many questions of one Σ, build the reasoner once.
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
        // The universe takes the seed and the extra attributes in at build
        // time, in the order a fresh closure has always numbered them, so
        // the propagation order — and with it `fired()` — is the same.
        let rules = normalize(sigma);
        let mut reasoner = Reasoner::index(Universe::of(&rules, seed, extra_attrs), &rules);
        reasoner.ask(seed);
        reasoner.into_closure()
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
        let rules = normalize(sigma);
        // Seed + propagate without the rule index: a reasoner over the same
        // universe but no rules only saturates the generic axioms.
        let mut engine = Reasoner::index(Universe::of(&rules, seed, extra_attrs), &[]);
        engine.ask(seed);
        // Fig. 5's repeat loop: scan Σ until no change; each rule fires at
        // most once (line 9).
        let mut applied = vec![false; rules.len()];
        let mut fired = Vec::new();
        loop {
            let mut changed = false;
            for (ri, rule) in rules.iter().enumerate() {
                if applied[ri] {
                    continue;
                }
                let lhs_holds = rule.lhs.iter().all(|atom| {
                    engine.holds(AttrRef::left(atom.left), AttrRef::right(atom.right), atom.op)
                });
                if !lhs_holds {
                    continue;
                }
                applied[ri] = true;
                fired.push(rule.source);
                changed = true;
                let (ia, ib) = engine.universe.rhs(rule.rhs);
                engine.assign(ia, ib, 0);
                engine.drain();
            }
            if !changed {
                break;
            }
        }
        Closure { universe: engine.universe, bits: engine.bits, fired }
    }

    /// Whether `R1[left] ≈op R2[right]` is in the closure (`=` facts satisfy
    /// every operator — equality subsumes similarity).
    pub fn holds(&self, left: AttrId, right: AttrId, op: OperatorId) -> bool {
        self.holds_refs(AttrRef::left(left), AttrRef::right(right), op)
    }

    /// Whether `a ≈op b` is in the closure, for arbitrary attribute
    /// references (both sides of the schema pair).
    pub fn holds_refs(&self, a: AttrRef, b: AttrRef, op: OperatorId) -> bool {
        self.universe.holds(&self.bits, a, b, op)
    }

    /// All non-reflexive facts in the closure (for inspection and traces).
    /// Each symmetric fact is reported once, with `a ≤ b`.
    pub fn facts(&self) -> Vec<Fact> {
        let u = &self.universe;
        let mut out = Vec::new();
        for ia in 0..u.h() {
            for ib in (ia + 1)..u.h() {
                for (pi, &op) in u.planes.iter().enumerate() {
                    if self.bits[u.cell(ia, ib, pi)] {
                        out.push(Fact { a: u.attrs[ia], b: u.attrs[ib], op });
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
        self.universe.h()
    }
}

/// Σ normalized into single-RHS-pair rules, in Σ order.
fn normalize(sigma: &[MatchingDependency]) -> Vec<NormalRule<'_>> {
    sigma
        .iter()
        .enumerate()
        .flat_map(|(i, md)| {
            md.rhs().iter().map(move |&rhs| NormalRule { source: i, lhs: md.lhs(), rhs })
        })
        .collect()
}

/// A normalized (single-RHS-pair) view of a rule in Σ.
struct NormalRule<'a> {
    /// Index of the originating MD in Σ.
    source: usize,
    lhs: &'a [SimilarityAtom],
    rhs: IdentPair,
}

/// The dense universe of the matrix: distinct attribute references (the
/// `h` dimension) and operators (the `p` dimension; plane 0 is `=`).
#[derive(Debug, Clone, Default)]
struct Universe {
    attrs: Vec<AttrRef>,
    /// Per side (`R1`, `R2`), indexed by schema position: the attribute's
    /// index in `attrs`, or [`ABSENT`].
    attr_idx: [Vec<u32>; 2],
    planes: Vec<OperatorId>,
    /// Indexed by operator id: the operator's plane, or [`ABSENT`].
    plane_idx: Vec<u32>,
}

/// A dense-index entry for an attribute or operator outside the universe.
const ABSENT: u32 = u32::MAX;

impl Universe {
    /// The universe of every attribute and operator `rules`, `seed` and
    /// `extra_attrs` mention, numbered in that order, with `=` moved to
    /// plane 0.
    fn of(rules: &[NormalRule], seed: &[SimilarityAtom], extra_attrs: &[AttrRef]) -> Universe {
        let mut u = Universe::default();
        for (ri, rule) in rules.iter().enumerate() {
            // The rules of one MD share its LHS: the first one adds it.
            if ri == 0 || rules[ri - 1].source != rule.source {
                for atom in rule.lhs {
                    u.add_atom(atom);
                }
            }
            u.add_ref(AttrRef::left(rule.rhs.left));
            u.add_ref(AttrRef::right(rule.rhs.right));
        }
        for atom in seed {
            u.add_atom(atom);
        }
        for &r in extra_attrs {
            u.add_ref(r);
        }
        // Plane 0 must be equality even when no rule mentions `=` explicitly.
        if u.planes.first() != Some(&OperatorId::EQ) {
            if let Some(pos) = u.planes.iter().position(|&op| op == OperatorId::EQ) {
                u.planes.swap(0, pos);
            } else {
                u.add_op(OperatorId::EQ);
                u.planes.rotate_right(1);
            }
            for (plane, &op) in u.planes.iter().enumerate() {
                u.plane_idx[usize::from(op.0)] = plane as u32;
            }
        }
        u
    }

    fn h(&self) -> usize {
        self.attrs.len()
    }

    /// The universe index of `r`, if it is in the universe.
    fn attr(&self, r: AttrRef) -> Option<u32> {
        self.attr_idx[side(r)].get(r.attr).copied().filter(|&i| i != ABSENT)
    }

    /// The plane of `op`, if it is in the universe.
    fn plane(&self, op: OperatorId) -> Option<u32> {
        self.plane_idx.get(usize::from(op.0)).copied().filter(|&p| p != ABSENT)
    }

    fn add_ref(&mut self, r: AttrRef) -> u32 {
        let h = self.attrs.len() as u32;
        let idx = &mut self.attr_idx[side(r)];
        if idx.len() <= r.attr {
            idx.resize(r.attr + 1, ABSENT);
        }
        if idx[r.attr] == ABSENT {
            idx[r.attr] = h;
            self.attrs.push(r);
        }
        idx[r.attr]
    }

    fn add_op(&mut self, op: OperatorId) -> u32 {
        let id = usize::from(op.0);
        if self.plane_idx.len() <= id {
            self.plane_idx.resize(id + 1, ABSENT);
        }
        if self.plane_idx[id] == ABSENT {
            self.plane_idx[id] = self.planes.len() as u32;
            self.planes.push(op);
        }
        self.plane_idx[id]
    }

    /// Adds the atom's attributes and operator (appending any that are new)
    /// and returns them as universe indices.
    fn add_atom(&mut self, atom: &SimilarityAtom) -> (u32, u32, u32) {
        let a = self.add_ref(AttrRef::left(atom.left));
        let b = self.add_ref(AttrRef::right(atom.right));
        (a, b, self.add_op(atom.op))
    }

    /// The universe indices of `(R1[left], R2[right])`, when both are in
    /// the universe.
    fn pair(&self, left: AttrId, right: AttrId) -> Option<(u32, u32)> {
        Some((self.attr(AttrRef::left(left))?, self.attr(AttrRef::right(right))?))
    }

    /// The universe indices of a rule's RHS pair (both are in the universe
    /// by construction).
    fn rhs(&self, rhs: IdentPair) -> (u32, u32) {
        self.pair(rhs.left, rhs.right).expect("Σ's attributes are in the universe")
    }

    fn cell(&self, a: usize, b: usize, plane: usize) -> usize {
        (a * self.h() + b) * self.planes.len() + plane
    }

    /// Whether `a ≈op b` holds in the matrix `bits` over this universe.
    fn holds(&self, bits: &[bool], a: AttrRef, b: AttrRef, op: OperatorId) -> bool {
        if a == b {
            // Reflexivity of every operator.
            return true;
        }
        let (Some(ia), Some(ib)) = (self.attr(a), self.attr(b)) else {
            return false;
        };
        let (ia, ib) = (ia as usize, ib as usize);
        if bits[self.cell(ia, ib, 0)] {
            return true;
        }
        match self.plane(op) {
            Some(p) => bits[self.cell(ia, ib, p as usize)],
            None => false,
        }
    }
}

/// The row of [`Universe::attr_idx`] an attribute reference is numbered in.
fn side(r: AttrRef) -> usize {
    match r.side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

/// One watcher: a rule waiting for one of its LHS conjuncts, the pair
/// being the slot the watcher sits in and `plane` the conjunct's operator.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    rule: u32,
    plane: u32,
    /// 1 + the index of the next watcher on the same pair, 0 at the end.
    next: u32,
}

/// MDClosure over one Σ, built once and asked many questions.
///
/// [`Reasoner::new`] normalizes Σ, fixes the universe and indexes every
/// rule by its LHS atoms; each question ([`Reasoner::deduces`],
/// [`Reasoner::implies`]) only resets the matrix and the counters before
/// running the worklist until the asked pairs hold, and forgets everything
/// the previous question deduced. A question that mentions an attribute or
/// operator outside Σ's universe extends the universe for good.
///
/// ```
/// use matchrules_core::closure::Reasoner;
/// use matchrules_core::paper;
///
/// let setting = paper::example_1_1();
/// let rcks = paper::example_2_4_rcks(&setting);
/// let mut reasoner = Reasoner::new(&setting.sigma);
/// for key in &rcks {
///     assert!(reasoner.deduces(&key.to_md(&setting.target)));
/// }
/// // A sub-key of rck4 is not a key; asking first does not leak facts.
/// let email_only = rcks[3].without(&rcks[3].atoms()[1]);
/// assert!(!reasoner.deduces(&email_only.to_md(&setting.target)));
/// ```
#[derive(Debug, Clone)]
pub struct Reasoner {
    universe: Universe,
    /// Per normalized rule: the index of its MD in Σ and its RHS pair as
    /// universe indices.
    rules: Vec<(usize, (u32, u32))>,
    /// Per unordered universe pair (indexed by [`slot`]): 1 + the index of
    /// its first watcher, 0 when none. Each pair's watchers are chained
    /// through [`Watcher::next`] in rule order.
    first: Vec<u32>,
    watchers: Vec<Watcher>,
    /// Per-rule LHS size: the template `remaining` is reset from.
    lhs_len: Vec<u32>,
    // Per-question state.
    /// The `h × h × p` matrix.
    bits: Vec<bool>,
    /// The cells of `bits` the current question set: the next question
    /// clears just these.
    set: Vec<usize>,
    /// Per-rule count of LHS atoms not yet satisfied.
    remaining: Vec<u32>,
    /// Per-watcher flag: its atom is satisfied (guards against double
    /// counting when a pair is first similar and later equal).
    satisfied: Vec<bool>,
    /// Worklist of newly-recorded facts, as universe indices + plane.
    queue: Vec<(u32, u32, u32)>,
    /// Reused buffer: the pairs [`Reasoner::implies`] asks about, as
    /// universe indices.
    goal: Vec<(u32, u32)>,
    /// Normalized rules fired, in firing order.
    fired: Vec<u32>,
    /// Questions asked and rules fired over the reasoner's life.
    questions: usize,
    rules_fired: usize,
}

impl Reasoner {
    /// Normalizes Σ and indexes its rules once, for any number of
    /// questions.
    pub fn new(sigma: &[MatchingDependency]) -> Reasoner {
        let rules = normalize(sigma);
        Reasoner::index(Universe::of(&rules, &[], &[]), &rules)
    }

    /// Decides `Σ |=m ϕ`.
    pub fn deduces(&mut self, phi: &MatchingDependency) -> bool {
        self.implies(phi.lhs(), phi.rhs())
    }

    /// Decides `Σ |=m ⋀ lhs → rhs`: whether every pair of `rhs` is an
    /// equality fact in the closure of Σ and `lhs`.
    ///
    /// The question stops as soon as every pair of `rhs` holds with
    /// equality: facts are never retracted, so the fixpoint would answer
    /// the same. The facts still queued are dropped and the rules they
    /// would have fired never fire; the next question starts from a clean
    /// matrix as always. [`Closure::compute`] does not stop early.
    pub fn implies(&mut self, lhs: &[SimilarityAtom], rhs: &[IdentPair]) -> bool {
        self.seed(lhs);
        let mut goal = std::mem::take(&mut self.goal);
        goal.clear();
        goal.extend(rhs.iter().map_while(|p| self.universe.pair(p.left, p.right)));
        // An attribute outside the universe is in no fact: such a pair
        // does not hold, as in a closure that numbered it.
        let holds = goal.len() == rhs.len() && self.drain_until(&goal);
        self.queue.clear();
        self.goal = goal;
        holds
    }

    /// The work of every question asked so far: the number of questions,
    /// and the rules of Σ (normalized to one RHS pair each) they fired.
    pub(crate) fn work(&self) -> (usize, usize) {
        (self.questions, self.rules_fired)
    }

    /// The closure of Σ and `seed` as a standalone [`Closure`] (a copy of
    /// the matrix and universe), `extra_attrs` added to the universe.
    #[cfg(test)]
    fn closure(&mut self, seed: &[SimilarityAtom], extra_attrs: &[AttrRef]) -> Closure {
        for &r in extra_attrs {
            self.universe.add_ref(r);
        }
        self.ask(seed);
        Closure { universe: self.universe.clone(), bits: self.bits.clone(), fired: self.sources() }
    }

    /// Lays out the watchers of `rules` over `universe` and allocates the
    /// per-question state.
    fn index(universe: Universe, rules: &[NormalRule]) -> Reasoner {
        let h = universe.h();
        let mut slots = Vec::new();
        let mut watchers = Vec::new();
        // (slot, plane) of each LHS atom of the current MD, shared by its
        // rules.
        let mut lhs = Vec::new();
        for (ri, rule) in rules.iter().enumerate() {
            if ri == 0 || rules[ri - 1].source != rule.source {
                lhs.clear();
                lhs.extend(rule.lhs.iter().map(|atom| {
                    let (ia, ib) = universe.pair(atom.left, atom.right).expect("Σ's attributes");
                    (slot(ia, ib), universe.plane(atom.op).expect("Σ's operators"))
                }));
            }
            for &(s, plane) in &lhs {
                slots.push(s);
                watchers.push(Watcher { rule: ri as u32, plane, next: 0 });
            }
        }
        // Chain each pair's watchers, pushing to the front in reverse so
        // the chains run in rule order. Only pairs some rule watches are
        // written, so a large universe's zeroed table stays untouched.
        let mut first = vec![0u32; h * (h + 1) / 2];
        for (wi, &s) in slots.iter().enumerate().rev() {
            watchers[wi].next = first[s];
            first[s] = wi as u32 + 1;
        }
        let lhs_len: Vec<u32> = rules.iter().map(|r| r.lhs.len() as u32).collect();
        Reasoner {
            rules: rules.iter().map(|r| (r.source, universe.rhs(r.rhs))).collect(),
            bits: vec![false; h * h * universe.planes.len()],
            set: Vec::new(),
            remaining: lhs_len.clone(),
            satisfied: vec![false; watchers.len()],
            universe,
            first,
            watchers,
            lhs_len,
            queue: Vec::new(),
            goal: Vec::new(),
            fired: Vec::new(),
            questions: 0,
            rules_fired: 0,
        }
    }

    /// Answers one question: forgets the previous one, seeds `seed`
    /// (extending the universe with anything it mentions that is new) and
    /// runs the worklist to fixpoint.
    fn ask(&mut self, seed: &[SimilarityAtom]) {
        self.seed(seed);
        self.drain();
    }

    /// Forgets the previous question and records `seed`'s facts, extending
    /// the universe with anything it mentions that is new; the worklist
    /// holds them, not yet propagated.
    fn seed(&mut self, seed: &[SimilarityAtom]) {
        self.questions += 1;
        for atom in seed {
            self.universe.add_atom(atom);
        }
        let cells = self.universe.h() * self.universe.h() * self.universe.planes.len();
        if self.bits.len() == cells {
            for c in self.set.drain(..) {
                self.bits[c] = false;
            }
        } else {
            self.bits = vec![false; cells];
            self.set.clear();
        }
        self.remaining.copy_from_slice(&self.lhs_len);
        self.satisfied.fill(false);
        self.fired.clear();
        for atom in seed {
            let (ia, ib, plane) = self.universe.add_atom(atom);
            self.assign(ia, ib, plane);
        }
    }

    fn holds(&self, a: AttrRef, b: AttrRef, op: OperatorId) -> bool {
        self.universe.holds(&self.bits, a, b, op)
    }

    /// The MDs of Σ behind the fired rules, in firing order.
    fn sources(&self) -> Vec<usize> {
        self.fired.iter().map(|&ri| self.rules[ri as usize].0).collect()
    }

    fn into_closure(self) -> Closure {
        let fired = self.sources();
        Closure { universe: self.universe, bits: self.bits, fired }
    }

    fn get(&self, a: usize, b: usize, plane: usize) -> bool {
        self.bits[self.universe.cell(a, b, plane)]
    }

    /// `AssignVal` (Fig. 5): records the symmetric fact unless it is already
    /// known outright or via equality; enqueues it for propagation.
    fn assign(&mut self, a: u32, b: u32, plane: u32) {
        if a == b {
            return; // reflexive facts carry no information
        }
        let (ia, ib, pl) = (a as usize, b as usize, plane as usize);
        if self.get(ia, ib, 0) || self.get(ia, ib, pl) {
            return;
        }
        let c1 = self.universe.cell(ia, ib, pl);
        let c2 = self.universe.cell(ib, ia, pl);
        self.bits[c1] = true;
        self.bits[c2] = true;
        self.set.extend([c1, c2]);
        self.queue.push((a, b, plane));
    }

    /// Runs propagation and rule firing to fixpoint.
    fn drain(&mut self) {
        while let Some((a, b, plane)) = self.queue.pop() {
            self.notify(a, b, plane);
            self.propagate(a, b, plane);
        }
    }

    /// Runs propagation and rule firing until every universe pair of
    /// `goal` is an equality fact (`true`) or the worklist is empty
    /// (`false`). Checks each pair once it holds: a fact stays set.
    fn drain_until(&mut self, goal: &[(u32, u32)]) -> bool {
        let mut met = 0;
        loop {
            while goal.get(met).is_some_and(|&(a, b)| self.get(a as usize, b as usize, 0)) {
                met += 1;
            }
            if met == goal.len() {
                return true;
            }
            let Some((a, b, plane)) = self.queue.pop() else {
                return false;
            };
            self.notify(a, b, plane);
            self.propagate(a, b, plane);
        }
    }

    /// Wakes rules watching the pair `(a, b)`; fires those whose LHS became
    /// fully satisfied, in watcher order. A watcher's atom is satisfied by
    /// its own operator or by equality (line 7 of Fig. 5).
    fn notify(&mut self, a: u32, b: u32, plane: u32) {
        // Pairs past the indexed universe (attributes a question added)
        // have no watchers.
        let mut next = self.first.get(slot(a, b)).copied().unwrap_or(0);
        while next != 0 {
            let wi = next as usize - 1;
            let w = self.watchers[wi];
            next = w.next;
            if self.satisfied[wi] || (w.plane != plane && plane != 0) {
                continue;
            }
            self.satisfied[wi] = true;
            let left = &mut self.remaining[w.rule as usize];
            *left -= 1;
            if *left == 0 {
                self.fire(w.rule);
            }
        }
    }

    /// Applies a rule: its RHS pair becomes an equality fact (Lemma 3.2 —
    /// on stable instances the matching operator yields equality).
    fn fire(&mut self, rule: u32) {
        self.fired.push(rule);
        self.rules_fired += 1;
        let (ia, ib) = self.rules[rule as usize].1;
        self.assign(ia, ib, 0);
    }

    /// `Propagate`/`Infer` (Fig. 6): saturates the generic-axiom
    /// consequences of the new fact `a ≈ b`.
    fn propagate(&mut self, a: u32, b: u32, plane: u32) {
        let h = self.universe.h() as u32;
        let p = self.universe.planes.len() as u32;
        for c in 0..h {
            if c == a || c == b {
                continue;
            }
            // x ≈ y ∧ y = z ⇒ x ≈ z (both orientations).
            if self.get(b as usize, c as usize, 0) {
                self.assign(a, c, plane);
            }
            if self.get(a as usize, c as usize, 0) {
                self.assign(b, c, plane);
            }
            if plane == 0 {
                // New equality a = b: carry existing similarities across it
                // (the Lemma 3.4 interaction).
                for d in 1..p {
                    if self.get(b as usize, c as usize, d as usize) {
                        self.assign(a, c, d);
                    }
                    if self.get(a as usize, c as usize, d as usize) {
                        self.assign(b, c, d);
                    }
                }
            }
        }
    }
}

/// The slot of the unordered universe pair `{a, b}` in the watcher index:
/// `hi·(hi+1)/2 + lo`, which does not depend on `h`, so attributes a
/// question appends to the universe never move an indexed pair.
fn slot(a: u32, b: u32) -> usize {
    let (lo, hi) = if a <= b { (a as usize, b as usize) } else { (b as usize, a as usize) };
    hi * (hi + 1) / 2 + lo
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

    /// On the chain `A0 = A0 → A1 ⇌ A1`, …, `A7 = A7 → A8 ⇌ A8`, asking
    /// whether `A0 = A0` identifies `A1` stops after the first firing,
    /// where the closure fires the whole chain; the questions after that
    /// early stop see none of the facts it left queued.
    #[test]
    fn implies_stops_once_its_pairs_hold() {
        const N: usize = 8;
        let names: Vec<String> = (0..=N).map(|i| format!("A{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let pair = SchemaPair::reflexive(Arc::new(Schema::text("R", &names).unwrap()));
        let sigma: Vec<_> = (0..N)
            .map(|i| md(&pair, vec![SimilarityAtom::eq(i, i)], vec![IdentPair::new(i + 1, i + 1)]))
            .collect();
        let seed = [SimilarityAtom::eq(0, 0)];
        assert_eq!(Closure::compute(&sigma, &seed, &[]).fired().len(), N);

        let mut reasoner = Reasoner::new(&sigma);
        assert!(reasoner.implies(&seed, &[IdentPair::new(1, 1)]));
        assert_eq!(reasoner.fired.len(), 1);
        assert!(reasoner.queue.is_empty(), "the early stop drops the queued facts");
        assert!(reasoner.implies(&seed, &[IdentPair::new(1, 1), IdentPair::new(N, N)]));
        assert_eq!(reasoner.fired.len(), N);
        assert!(!reasoner.implies(&[SimilarityAtom::eq(3, 3)], &[IdentPair::new(2, 2)]));
        assert_eq!(reasoner.work(), (3, 1 + N + (N - 3)));

        let facts = |c: &Closure| {
            let mut facts: Vec<_> = c.facts().into_iter().map(|f| (f.a, f.b, f.op)).collect();
            facts.sort();
            facts
        };
        for question in [vec![SimilarityAtom::eq(4, 4)], seed.to_vec(), vec![]] {
            reasoner.implies(&seed, &[IdentPair::new(1, 1)]);
            let reused = reasoner.closure(&question, &[]);
            let fresh = Closure::compute_naive(&sigma, &question, &[]);
            assert_eq!(facts(&reused), facts(&fresh), "closures diverge for {question:?}");
            assert_eq!(reused.fired().len(), fresh.fired().len());
        }
    }

    /// One `Reasoner` asked a sequence of questions — deduced, refuted, and
    /// seeds reaching outside Σ's universe — computes each closure exactly
    /// as a fresh `compute_naive` does: every fact and the rules fired, so
    /// nothing one question deduces leaks into the next.
    #[test]
    fn reused_reasoner_equals_fresh_closure() {
        let pair = abc_pair();
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈dl");
        let new_op = ops.intern("≈new");
        let sigma = vec![
            md(&pair, vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)]),
            md(&pair, vec![SimilarityAtom::new(1, 1, dl)], vec![IdentPair::new(2, 2)]),
            md(
                &pair,
                vec![SimilarityAtom::eq(2, 2), SimilarityAtom::new(0, 0, dl)],
                vec![IdentPair::new(0, 0), IdentPair::new(1, 1)],
            ),
        ];
        let canonical = |c: &Closure| {
            let mut facts: Vec<_> =
                c.facts().into_iter().map(|f| (f.a.min(f.b), f.a.max(f.b), f.op)).collect();
            facts.sort();
            let mut fired = c.fired().to_vec();
            fired.sort_unstable();
            (facts, fired)
        };
        let mut reasoner = Reasoner::new(&sigma);
        for (seed, extra) in [
            (vec![SimilarityAtom::eq(0, 0)], vec![]),
            (vec![SimilarityAtom::new(2, 1, dl)], vec![AttrRef::left(1)]),
            (vec![SimilarityAtom::eq(0, 0), SimilarityAtom::eq(5, 0)], vec![]),
            (vec![SimilarityAtom::new(0, 0, dl)], vec![]),
            (vec![SimilarityAtom::eq(2, 2), SimilarityAtom::new(0, 0, dl)], vec![]),
            (vec![SimilarityAtom::new(1, 1, new_op), SimilarityAtom::eq(6, 1)], vec![]),
            (vec![SimilarityAtom::new(0, 2, dl)], vec![AttrRef::right(7)]),
            (vec![SimilarityAtom::eq(0, 0)], vec![]),
        ] {
            let reused = reasoner.closure(&seed, &extra);
            let fresh = Closure::compute_naive(&sigma, &seed, &extra);
            assert_eq!(canonical(&reused), canonical(&fresh), "closures diverge for {seed:?}");
        }
    }
}
