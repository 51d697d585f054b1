//! Integration tests replaying every worked example of the paper across
//! the crate boundaries (core reasoning × data × matching).

use matchrules::core::cost::CostModel;
use matchrules::core::deduction::{closure_for, deduces};
use matchrules::core::paper;
use matchrules::core::rck::find_rcks;
use matchrules::data::enforce::{enforce, is_stable, satisfies_all};
use matchrules::data::eval::{paper_registry, RuntimeOps};
use matchrules::data::fig1;
use matchrules::matcher::key::KeyMatcher;

/// Example 1.1: the given key (rck1) matches only t3 against t1; the
/// deduced keys (rck2–rck4) recover t4–t6. "These deduced keys have added
/// value."
#[test]
fn example_1_1_added_value() {
    let (setting, instance) = fig1::setting_and_instance();
    let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
    let rcks = paper::example_2_4_rcks(&setting);
    let t1 = instance.left().by_id(fig1::ids::T1).unwrap();

    let given = KeyMatcher::new(&rcks[..1], &ops);
    let deduced = KeyMatcher::new(&rcks[1..], &ops);
    let both = KeyMatcher::new(&rcks, &ops);

    let matched = |m: &KeyMatcher<'_>| -> Vec<u64> {
        instance.right().tuples().iter().filter(|bt| m.matches(t1, bt)).map(|bt| bt.id()).collect()
    };
    assert_eq!(matched(&given), vec![fig1::ids::T3]);
    assert_eq!(matched(&deduced), vec![fig1::ids::T4, fig1::ids::T5, fig1::ids::T6]);
    assert_eq!(matched(&both).len(), 4);
}

/// Example 2.4 / 3.5: all four RCKs are keys relative to (Yc, Yb) deduced
/// from Σc, and they are *minimal* (no proper sub-key works).
#[test]
fn example_2_4_keys_are_minimal() {
    let setting = paper::example_1_1();
    for key in paper::example_2_4_rcks(&setting) {
        assert!(deduces(&setting.sigma, &key.to_md(&setting.target)));
        for atom in key.atoms() {
            let sub = key.without(atom);
            assert!(
                sub.is_empty() || !deduces(&setting.sigma, &sub.to_md(&setting.target)),
                "sub-key {sub:?} should not be a key"
            );
        }
    }
}

/// Example 4.1: the closure trace applies ϕ2 and ϕ3 before ϕ1 and ends
/// with all (Yc, Yb) pairs identified.
#[test]
fn example_4_1_trace() {
    let setting = paper::example_1_1();
    let rck4 = paper::example_2_4_rcks(&setting).remove(3);
    let phi = rck4.to_md(&setting.target);
    let closure = closure_for(&setting.sigma, &phi);
    let fired = closure.fired();
    // ϕ1 (index 0) fires last; ϕ2 (1) and ϕ3 (2) fire before it.
    let first_phi1 = fired.iter().position(|&i| i == 0).unwrap();
    assert!(fired[..first_phi1].contains(&1));
    assert!(fired[..first_phi1].contains(&2));
    for pair in phi.rhs() {
        assert!(closure.holds(pair.left, pair.right, matchrules::core::OperatorId::EQ));
    }
}

/// Example 5.1 (per-attribute granularity): findRCKs returns exactly the
/// complete antichain of keys, including rck2, rck3 and rck4.
#[test]
fn example_5_1_enumeration() {
    let setting = paper::example_1_1();
    let mut cost = CostModel::diversity_only();
    let outcome = find_rcks(&setting.sigma, &setting.target, 16, &mut cost);
    assert!(outcome.complete);
    let expected = paper::example_2_4_rcks(&setting);
    for key in &expected[1..] {
        assert!(outcome.keys.contains(key), "missing {key:?}");
    }
}

/// §2.1/§3.1 dynamic semantics on Fig. 1: enforcing Σc yields a stable
/// instance satisfying (D, D') |= Σc, in which t1 and t3–t6 agree on the
/// full (Yc, Yb) lists.
#[test]
fn fig1_enforcement_reaches_stability() {
    let (setting, instance) = fig1::setting_and_instance();
    let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
    let outcome = enforce(&instance, &setting.sigma, &ops);
    assert!(is_stable(&outcome.result, &setting.sigma, &ops));
    assert!(satisfies_all(&instance, &outcome.result, &setting.sigma, &ops));

    // In D', t1 and t3 (which matched ϕ1's LHS in D) agree on all of Yc/Yb.
    let t1 = outcome.result.left().by_id(fig1::ids::T1).unwrap();
    let t3 = outcome.result.right().by_id(fig1::ids::T3).unwrap();
    for (&l, &r) in setting.target.y1().iter().zip(setting.target.y2()) {
        assert_eq!(t1.get(l), t3.get(r), "Yc/Yb must be identified for t1/t3");
    }
}

/// The deduced rck4, applied to the *original* Fig. 1 instance, matches
/// (t1, t6) — although in the static reading t1 and t6 "violate" it
/// (Example 3.4's added-value discussion).
#[test]
fn example_3_4_dynamic_vs_static() {
    let (setting, instance) = fig1::setting_and_instance();
    let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
    let rck4 = &paper::example_2_4_rcks(&setting)[3];
    let t1 = instance.left().by_id(fig1::ids::T1).unwrap();
    let t6 = instance.right().by_id(fig1::ids::T6).unwrap();
    // LHS (email, phone) matches…
    assert!(ops.lhs_matches(rck4.atoms(), t1, t6));
    // …while names/addresses are radically different in D.
    let fn_c = setting.pair.left().attr("FN").unwrap();
    let fn_b = setting.pair.right().attr("FN").unwrap();
    assert_ne!(t1.get(fn_c), t6.get(fn_b));
}
