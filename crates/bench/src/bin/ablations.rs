//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **single RCK vs union of top-k** — §6.2's observation that single
//!    keys lose recall to per-key noise;
//! 2. **cost-model weights** — diversity (w1) on/off;
//! 3. **window size** — recall vs comparison budget;
//! 4. **closure rule index** — the published O(n²) repeat-loop vs the
//!    Beeri–Bernstein watcher index, built per question or once per Σ.
//!
//! Usage: `cargo run --release -p matchrules-bench --bin ablations [quick|paper]`

use matchrules_bench::baselines::{sorted_neighborhood, standard_sort_keys};
use matchrules_bench::experiments::workload;
use matchrules_bench::table::Table;
use matchrules_bench::{time, Scale};
use matchrules_core::closure::{Closure, Reasoner};
use matchrules_core::cost::CostModel;
use matchrules_core::dependency::{IdentPair, MatchingDependency, SimilarityAtom};
use matchrules_core::rck::find_rcks;
use matchrules_data::mdgen::{generate, MdGenConfig};
use matchrules_matcher::key::KeyMatcher;
use matchrules_matcher::metrics::evaluate_pairs;
use std::collections::HashSet;

fn main() {
    let scale = Scale::from_args();
    let k = match scale {
        Scale::Paper => 10_000,
        Scale::Quick => 1_500,
    };
    union_of_keys(k);
    cost_weights(k);
    window_size(k);
    closure_index(scale);
}

/// Ablation 1: recall as the RCK union grows from 1 to 5 keys.
fn union_of_keys(k: usize) {
    println!("== Ablation: single RCK vs union of top-k (K = {k}) ==\n");
    let w = workload(k, 0xab1);
    let rcks = w.engine.plan().rcks();
    let keys = standard_sort_keys(w.engine.plan().pair());
    let mut table = Table::new(&["keys", "precision", "recall", "F1"]);
    for take in 1..=rcks.len() {
        let matcher = KeyMatcher::new(&rcks[..take], w.engine.runtime());
        let (pairs, _) = sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, 10);
        let q = evaluate_pairs(&pairs, &w.data.truth);
        table.row(vec![
            take.to_string(),
            format!("{:.3}", q.precision()),
            format!("{:.3}", q.recall()),
            format!("{:.3}", q.f1()),
        ]);
    }
    println!("{}", table.render());
    println!("Expected: recall climbs with the union size at stable precision\n");
}

/// Ablation 2: the diversity term of the cost model, on a generated Σ
/// large enough for key choice to matter (the 7-MD §6 setting admits so
/// few keys that every weighting selects the same Γ).
fn cost_weights(_k: usize) {
    println!("== Ablation: cost-model weights (generated Σ, card = 120, m = 12) ==\n");
    let setting = generate(&MdGenConfig::fig8(120, 10, 0xab2));
    let mut table = Table::new(&["weights (w1,w2,w3)", "distinct pairs", "max pair reuse"]);
    for (label, mut cost) in [
        ("1,1,1 (uniform)", CostModel::uniform()),
        ("0,1,1 (no diversity)", CostModel::new(0.0, 1.0, 1.0)),
        ("1,0,0 (diversity only)", CostModel::diversity_only()),
    ] {
        let keys = find_rcks(&setting.sigma, &setting.target, 12, &mut cost).keys;
        let mut reuse: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for key in &keys {
            for a in key.atoms() {
                *reuse.entry((a.left, a.right)).or_insert(0) += 1;
            }
        }
        let pairs: HashSet<(usize, usize)> = reuse.keys().copied().collect();
        let max_reuse = reuse.values().copied().max().unwrap_or(0);
        table.row(vec![label.to_owned(), pairs.len().to_string(), max_reuse.to_string()]);
    }
    println!("{}", table.render());
    println!("Expected: with w1 > 0 keys spread over more pairs (lower max reuse)\n");
}

/// Ablation 3: window size vs quality and cost.
fn window_size(k: usize) {
    println!("== Ablation: window size (K = {k}) ==\n");
    let w = workload(k, 0xab3);
    let rcks = w.engine.plan().rcks();
    let keys = standard_sort_keys(w.engine.plan().pair());
    let mut table = Table::new(&["window", "comparisons", "precision", "recall"]);
    for window in [2usize, 5, 10, 20, 40] {
        let matcher = KeyMatcher::new(rcks, w.engine.runtime());
        let (pairs, comparisons) =
            sorted_neighborhood(&w.data.credit, &w.data.billing, &matcher, &keys, window);
        let q = evaluate_pairs(&pairs, &w.data.truth);
        table.row(vec![
            window.to_string(),
            comparisons.to_string(),
            format!("{:.3}", q.precision()),
            format!("{:.3}", q.recall()),
        ]);
    }
    println!("{}", table.render());
    println!("Expected: recall saturates while comparisons grow linearly in the window\n");
}

/// Ablation 4: the closure's rule index vs the published repeat loop.
///
/// Random Σ cascades are shallow (a couple of passes suffice), where the
/// repeat loop is actually cheaper than building the watcher index. The
/// index's asymptotic win shows on deep dependency *chains*
/// `a_i = b_i → a_{i+1} ⇌ b_{i+1}`, where each naive pass fires exactly
/// one rule — the Θ(n²) case behind Theorem 4.1's bound. Both regimes are
/// reported. "indexed" builds the index per question (`Closure::compute`);
/// "reused" asks the same question of one `Reasoner` built before the
/// timer starts, as findRCKs does for every question of a call.
fn closure_index(scale: Scale) {
    println!("== Ablation: MDClosure rule index vs naive repeat loop ==\n");
    let sizes: &[usize] = match scale {
        Scale::Paper => &[500, 1000, 2000, 4000],
        Scale::Quick => &[250, 500, 1000, 2000],
    };
    let mut table = Table::new(&[
        "workload",
        "card(Sigma)",
        "indexed (s)",
        "reused (s)",
        "naive (s)",
        "naive/indexed",
    ]);
    for &n in sizes {
        // Deep chain: a_0 = b_0 identifies a_n and b_n.
        let chain = chain_sigma(n);
        let phi = MatchingDependency::from_validated_parts(
            vec![SimilarityAtom::eq(0, 0)],
            vec![IdentPair::new(n, n)],
        );
        closure_row(&mut table, "chain", &chain, &phi);
        // Shallow random Σ (the generator's regime).
        let setting = generate(&MdGenConfig::fig8(n, 8, 0xab4));
        let phi = setting.target.trivial_key().to_md(&setting.target);
        closure_row(&mut table, "random", &setting.sigma, &phi);
    }
    println!("{}", table.render());
    println!(
        "Expected: on chains the index is asymptotically faster (naive is Θ(n²));\n\
         on shallow random Σ the naive loop's simplicity wins a constant factor\n\
         over an index built per question; a reused index pays only the question."
    );
}

/// One table row: the closure of Σ and LHS(ϕ), mean seconds per question.
fn closure_row(
    table: &mut Table,
    label: &str,
    sigma: &[MatchingDependency],
    phi: &MatchingDependency,
) {
    let reps = 5;
    let (_, fast) = time(|| {
        for _ in 0..reps {
            std::hint::black_box(Closure::compute(sigma, phi.lhs(), &[]));
        }
    });
    let mut reasoner = Reasoner::new(sigma);
    let (_, reused) = time(|| {
        for _ in 0..reps {
            assert!(std::hint::black_box(reasoner.deduces(phi)), "Σ deduces ϕ");
        }
    });
    let (_, naive) = time(|| {
        for _ in 0..reps {
            std::hint::black_box(Closure::compute_naive(sigma, phi.lhs(), &[]));
        }
    });
    table.row(vec![
        label.to_owned(),
        sigma.len().to_string(),
        format!("{:.4}", fast / reps as f64),
        format!("{:.6}", reused / reps as f64),
        format!("{:.4}", naive / reps as f64),
        format!("{:.1}x", naive / fast),
    ]);
}

/// `a_i = b_i → a_{i+1} ⇌ b_{i+1}` for i in 0..n, stored in *reverse*
/// order so each pass of the naive repeat loop fires exactly one rule —
/// the Θ(n·card(Σ)) adversarial case of Fig. 5's control flow.
fn chain_sigma(n: usize) -> Vec<MatchingDependency> {
    (0..n)
        .rev()
        .map(|i| {
            MatchingDependency::from_validated_parts(
                vec![SimilarityAtom::eq(i, i)],
                vec![IdentPair::new(i + 1, i + 1)],
            )
        })
        .collect()
}
