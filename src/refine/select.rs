//! Deterministic rule selection in the spirit of Kolaitis–Popa–Qian's
//! knowledge refinement: pick the candidate subset maximizing F_β on the
//! labeled sample.
//!
//! Two regimes, both pure bit arithmetic over the
//! [`Coverage`](super::Coverage) bitsets and therefore reproducible at
//! any thread count:
//!
//! * **Exhaustive** — at or below [`EXHAUSTIVE_CUTOFF`] candidates,
//!   every subset is scored. Ties break toward *fewer* rules, then the lexicographically
//!   smallest index set, so the winner is minimal: dropping any chosen
//!   rule strictly lowers F_β.
//! * **Greedy** — above the cutoff, marginal-gain greedy from two
//!   starts (the empty set, and the seed set so the result can never
//!   fall below the serving rules' own score), each followed by a prune
//!   pass that removes rules whose removal does not lower the score.
//!   The better pruned result wins (higher F_β, then fewer rules, then
//!   lexicographic). Additions require strictly positive gain and break
//!   ties toward the lowest candidate index.
//!
//! Either way, every selected rule has strictly positive marginal gain
//! with respect to the final set — the invariant the property tests pin.

use super::evaluate::{Bits, Coverage};
use matchrules_matcher::metrics::MatchQuality;

/// Candidate-count bound for the exact exhaustive regime.
const EXHAUSTIVE_CUTOFF: usize = 10;

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub(super) struct Selection {
    /// Chosen candidate indices, ascending.
    pub(super) chosen: Vec<usize>,
    /// Confusion counts of the chosen set.
    pub(super) quality: MatchQuality,
    /// Per chosen rule: `F_β(S) − F_β(S ∖ {rule})` — strictly positive.
    pub(super) marginal_gains: Vec<(usize, f64)>,
    /// Whether the exact exhaustive regime ran.
    pub(super) exhaustive: bool,
}

fn union_of(cov: &Coverage, chosen: &[usize]) -> Bits {
    let mut union = Bits::new(cov.n_pairs());
    for &i in chosen {
        union.or_assign(&cov.accepts[i]);
    }
    union
}

fn score_of(cov: &Coverage, chosen: &[usize], beta: f64) -> f64 {
    cov.quality_of_bits(&union_of(cov, chosen)).f_beta(beta)
}

/// `(score desc, |set| asc, lexicographic asc)` — the stable total order
/// every regime breaks ties with. Returns `true` when `a` beats `b`.
fn beats(a: (f64, &[usize]), b: (f64, &[usize])) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match a.1.len().cmp(&b.1.len()) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        },
    }
}

/// Removes rules whose removal does not lower the score, lowest index
/// first, until a fixpoint: afterwards every remaining rule has strictly
/// positive marginal gain. The score never decreases.
fn prune(cov: &Coverage, chosen: &mut Vec<usize>, beta: f64) {
    loop {
        let current = score_of(cov, chosen, beta);
        let mut removed = false;
        for pos in 0..chosen.len() {
            let mut without = chosen.clone();
            without.remove(pos);
            if score_of(cov, &without, beta) >= current {
                *chosen = without;
                removed = true;
                break;
            }
        }
        if !removed {
            return;
        }
    }
}

/// Greedy marginal-gain selection from `start`, requiring strictly
/// positive gain per addition, ties toward the lowest candidate index.
fn greedy_from(cov: &Coverage, start: &[usize], beta: f64) -> Vec<usize> {
    let mut chosen: Vec<usize> = start.to_vec();
    chosen.sort_unstable();
    chosen.dedup();
    let mut union = union_of(cov, &chosen);
    let mut current = cov.quality_of_bits(&union).f_beta(beta);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..cov.n_candidates() {
            if chosen.contains(&cand) {
                continue;
            }
            let mut with = union.clone();
            with.or_assign(&cov.accepts[cand]);
            let score = cov.quality_of_bits(&with).f_beta(beta);
            let improves = match best {
                None => score > current,
                Some((_, best_score)) => score > best_score,
            };
            if improves {
                best = Some((cand, score));
            }
        }
        let Some((cand, score)) = best else { return chosen };
        chosen.push(cand);
        chosen.sort_unstable();
        union.or_assign(&cov.accepts[cand]);
        current = score;
    }
}

/// Exhaustive search over all subsets under the [`beats`] order.
fn exhaustive(cov: &Coverage, beta: f64) -> Vec<usize> {
    let n = cov.n_candidates();
    let mut best: Vec<usize> = Vec::new();
    let mut best_score = score_of(cov, &best, beta);
    for mask in 1u64..(1u64 << n) {
        let chosen: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let score = score_of(cov, &chosen, beta);
        if beats((score, &chosen), (best_score, &best)) {
            best = chosen;
            best_score = score;
        }
    }
    best
}

/// Selects the candidate subset maximizing F_β on the coverage, with
/// `seed` (the serving rules' pool indices) as the floor the greedy
/// regime can never fall below. `beta` is finite and positive (checked
/// by [`refine`](super::refine)).
pub(super) fn select(cov: &Coverage, seed: &[usize], beta: f64) -> Selection {
    let n = cov.n_candidates();
    let ran_exhaustive = n <= EXHAUSTIVE_CUTOFF;
    let chosen = if ran_exhaustive {
        exhaustive(cov, beta)
    } else {
        let mut from_empty = greedy_from(cov, &[], beta);
        prune(cov, &mut from_empty, beta);
        let mut from_seed = greedy_from(cov, seed, beta);
        prune(cov, &mut from_seed, beta);
        let empty_score = score_of(cov, &from_empty, beta);
        let seed_score = score_of(cov, &from_seed, beta);
        if beats((empty_score, &from_empty), (seed_score, &from_seed)) {
            from_empty
        } else {
            from_seed
        }
    };
    let quality = cov.quality_of(&chosen);
    let score = quality.f_beta(beta);
    let marginal_gains = chosen
        .iter()
        .map(|&rule| {
            let without: Vec<usize> = chosen.iter().copied().filter(|&r| r != rule).collect();
            (rule, score - score_of(cov, &without, beta))
        })
        .collect();
    Selection { chosen, quality, marginal_gains, exhaustive: ran_exhaustive }
}
