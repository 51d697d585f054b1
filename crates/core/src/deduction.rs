//! The deduction relation `Σ |=m ϕ` (§3) as a public API over
//! [`Closure`].
//!
//! The paper's notion of deduction replaces classical implication: ϕ is
//! deduced from Σ when, for every instance `D` and every *stable* instance
//! `D'` for Σ, `(D, D') |= Σ` entails `(D, D') |= ϕ`. Theorem 4.1 reduces
//! this to the MDClosure computation: ϕ is deduced iff every RHS pair of ϕ
//! is an equality fact in the closure of Σ and LHS(ϕ).
//!
//! Each function here answers one question with a fresh engine; to ask many
//! questions of one Σ, build a [`Reasoner`](crate::closure::Reasoner) once
//! and ask it.

use crate::closure::Closure;
use crate::dependency::MatchingDependency;
use crate::operators::OperatorId;
use crate::schema::AttrRef;

/// Decides `Σ |=m ϕ`.
///
/// ```
/// use matchrules_core::schema::{Schema, SchemaPair};
/// use matchrules_core::dependency::{MatchingDependency, SimilarityAtom, IdentPair};
/// use matchrules_core::deduction::deduces;
/// use std::sync::Arc;
///
/// // Example 3.1 of the paper: ψ1: A=A → B⇌B, ψ2: B=B → C⇌C deduce
/// // ψ3: A=A → C⇌C (even though the FD analogue needs both f1 and f2).
/// let r = Arc::new(Schema::text("R", &["A", "B", "C"]).unwrap());
/// let pair = SchemaPair::reflexive(r);
/// let psi1 = MatchingDependency::new(&pair,
///     vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(1, 1)]).unwrap();
/// let psi2 = MatchingDependency::new(&pair,
///     vec![SimilarityAtom::eq(1, 1)], vec![IdentPair::new(2, 2)]).unwrap();
/// let psi3 = MatchingDependency::new(&pair,
///     vec![SimilarityAtom::eq(0, 0)], vec![IdentPair::new(2, 2)]).unwrap();
/// assert!(deduces(&[psi1, psi2], &psi3));
/// ```
pub fn deduces(sigma: &[MatchingDependency], phi: &MatchingDependency) -> bool {
    let closure = closure_for(sigma, phi);
    phi.rhs().iter().all(|p| closure.holds(p.left, p.right, OperatorId::EQ))
}

/// The deduction path of `Σ |=m ϕ`: the indices into Σ of the MDs
/// MDClosure fires (in firing order) while deducing ϕ, or `None` when Σ
/// does not deduce ϕ.
///
/// The path is the algorithm's full firing trace, not a minimal proof: an
/// MD whose RHS identifies `k` pairs is normalized into `k` rules and can
/// appear up to `k` times (deduplicate for presentation). Match
/// explanations use this to answer *why* a relative candidate key is a
/// key at all — which given rules, applied in which order, identify the
/// target.
///
/// ```
/// use matchrules_core::deduction::deduction_path;
/// use matchrules_core::paper;
///
/// // Example 4.1: rck4 (email = email ∧ tel = phn) is deduced by firing
/// // ϕ2 and ϕ3 before ϕ1.
/// let setting = paper::example_1_1();
/// let rck4 = paper::example_2_4_rcks(&setting)[3].to_md(&setting.target);
/// let path = deduction_path(&setting.sigma, &rck4).expect("rck4 is deduced");
/// assert!(path.contains(&0) && path.contains(&1) && path.contains(&2));
/// ```
pub fn deduction_path(
    sigma: &[MatchingDependency],
    phi: &MatchingDependency,
) -> Option<Vec<usize>> {
    let closure = closure_for(sigma, phi);
    if phi.rhs().iter().all(|p| closure.holds(p.left, p.right, OperatorId::EQ)) {
        Some(closure.fired().to_vec())
    } else {
        None
    }
}

/// Computes the closure of Σ and LHS(ϕ), with ϕ's RHS attributes forced into
/// the universe so they can be queried (used by traces and diagnostics).
pub fn closure_for(sigma: &[MatchingDependency], phi: &MatchingDependency) -> Closure {
    let extra: Vec<AttrRef> =
        phi.rhs().iter().flat_map(|p| [AttrRef::left(p.left), AttrRef::right(p.right)]).collect();
    Closure::compute(sigma, phi.lhs(), &extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::{IdentPair, SimilarityAtom};
    use crate::operators::OperatorTable;
    use crate::schema::{Schema, SchemaPair};
    use std::sync::Arc;

    /// Builds Example 2.1's Σc = {ϕ1, ϕ2, ϕ3} and the (Yc, Yb) attribute
    /// lists of Example 1.1.
    fn paper_setting() -> (SchemaPair, OperatorTable, Vec<MatchingDependency>) {
        let credit = Arc::new(
            Schema::text(
                "credit",
                &["c#", "SSN", "FN", "LN", "addr", "tel", "email", "gender", "type"],
            )
            .unwrap(),
        );
        let billing = Arc::new(
            Schema::text(
                "billing",
                &["c#", "FN", "LN", "post", "phn", "email", "gender", "item", "price"],
            )
            .unwrap(),
        );
        let pair = SchemaPair::new(credit, billing);
        let mut ops = OperatorTable::new();
        let dl = ops.intern("≈d");

        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let yc = ["FN", "LN", "addr", "tel", "gender"];
        let yb = ["FN", "LN", "post", "phn", "gender"];
        let y_pairs: Vec<IdentPair> =
            yc.iter().zip(&yb).map(|(&a, &b)| IdentPair::new(l(a), r(b))).collect();

        // ϕ1: LN = LN ∧ addr = post ∧ FN ≈d FN → Yc ⇌ Yb
        let phi1 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("LN"), r("LN")),
                SimilarityAtom::eq(l("addr"), r("post")),
                SimilarityAtom::new(l("FN"), r("FN"), dl),
            ],
            y_pairs.clone(),
        )
        .unwrap();
        // ϕ2: tel = phn → addr ⇌ post
        let phi2 = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("tel"), r("phn"))],
            vec![IdentPair::new(l("addr"), r("post"))],
        )
        .unwrap();
        // ϕ3: email = email → FN,LN ⇌ FN,LN
        let phi3 = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("email"), r("email"))],
            vec![IdentPair::new(l("FN"), r("FN")), IdentPair::new(l("LN"), r("LN"))],
        )
        .unwrap();
        (pair, ops, vec![phi1, phi2, phi3])
    }

    fn y_target(pair: &SchemaPair) -> Vec<IdentPair> {
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        ["FN", "LN", "addr", "tel", "gender"]
            .iter()
            .zip(&["FN", "LN", "post", "phn", "gender"])
            .map(|(&a, &b)| IdentPair::new(l(a), r(b)))
            .collect()
    }

    /// Example 3.5 / 4.1: Σc |=m rck4 (email = email ∧ tel = phn → Yc ⇌ Yb).
    #[test]
    fn example_4_1_rck4_deduced() {
        let (pair, _ops, sigma) = paper_setting();
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let rck4 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("email"), r("email")),
                SimilarityAtom::eq(l("tel"), r("phn")),
            ],
            y_target(&pair),
        )
        .unwrap();
        assert!(deduces(&sigma, &rck4));

        // The firing trace applies ϕ2, ϕ3 first (order between them free),
        // then ϕ1 — matching the table of Example 4.1. ϕ3 normalizes to two
        // rules and ϕ1 to five, so count fired source MDs.
        let closure = closure_for(&sigma, &rck4);
        let fired = closure.fired();
        let pos = |i: usize| fired.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(0), "ϕ2 fires before ϕ1");
        assert!(pos(2) < pos(0), "ϕ3 fires before ϕ1");
    }

    /// Example 3.5's other deduced keys: rck1, rck2, rck3.
    #[test]
    fn example_3_5_all_rcks_deduced() {
        let (pair, ops, sigma) = paper_setting();
        let dl = ops.get("≈d").unwrap();
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let rhs = y_target(&pair);
        let rck1 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("LN"), r("LN")),
                SimilarityAtom::eq(l("addr"), r("post")),
                SimilarityAtom::new(l("FN"), r("FN"), dl),
            ],
            rhs.clone(),
        )
        .unwrap();
        let rck2 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("LN"), r("LN")),
                SimilarityAtom::eq(l("tel"), r("phn")),
                SimilarityAtom::new(l("FN"), r("FN"), dl),
            ],
            rhs.clone(),
        )
        .unwrap();
        let rck3 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("email"), r("email")),
                SimilarityAtom::eq(l("addr"), r("post")),
            ],
            rhs.clone(),
        )
        .unwrap();
        assert!(deduces(&sigma, &rck1));
        assert!(deduces(&sigma, &rck2));
        assert!(deduces(&sigma, &rck3));
    }

    /// Dropping an essential atom breaks the deduction: email alone cannot
    /// identify (Yc, Yb) — "none of these makes a key" (Example 1.1).
    #[test]
    fn email_alone_is_not_a_key() {
        let (pair, _ops, sigma) = paper_setting();
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let phi = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("email"), r("email"))],
            y_target(&pair),
        )
        .unwrap();
        assert!(!deduces(&sigma, &phi));
        let phi = MatchingDependency::new(
            &pair,
            vec![SimilarityAtom::eq(l("tel"), r("phn"))],
            y_target(&pair),
        )
        .unwrap();
        assert!(!deduces(&sigma, &phi));
    }

    /// Reflexive deduction: any MD deduces itself (LHS atoms with `=`
    /// seeded; a ≈-guarded MD ϕ ∈ Σ fires on its own seed).
    #[test]
    fn self_deduction() {
        let (_pair, _ops, sigma) = paper_setting();
        for phi in &sigma {
            assert!(deduces(&sigma, phi), "Σ must deduce its own members");
        }
    }

    /// Monotonicity: enlarging Σ never loses deductions.
    #[test]
    fn deduction_is_monotone() {
        let (pair, _ops, sigma) = paper_setting();
        let l = |n: &str| pair.left().attr(n).unwrap();
        let r = |n: &str| pair.right().attr(n).unwrap();
        let rck4 = MatchingDependency::new(
            &pair,
            vec![
                SimilarityAtom::eq(l("email"), r("email")),
                SimilarityAtom::eq(l("tel"), r("phn")),
            ],
            y_target(&pair),
        )
        .unwrap();
        assert!(deduces(&sigma, &rck4));
        let smaller = &sigma[..2];
        // Without ϕ3, the names cannot be identified.
        assert!(!deduces(smaller, &rck4));
    }
}
