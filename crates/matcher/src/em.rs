//! Expectation–maximization for the Fellegi–Sunter model (\[17, 21\]).
//!
//! Candidate pairs are summarized as binary *comparison vectors*
//! `γ ∈ {0,1}^d` (field-wise agreement). Under the classic conditional-
//! independence model, a pair is a match with prior `p`, and field `i`
//! agrees with probability `m_i` among matches and `u_i` among non-matches.
//! EM estimates `(p, m, u)` without labels (Jaro 1989); the fitted model
//! yields per-pair match posteriors — the paper's "EM algorithm … to
//! estimate parameters such as weights and threshold" (§6.2 Exp-2).

use std::fmt;

/// Why an EM fit was rejected before any iteration ran.
///
/// Degenerate inputs used to surface as panics (or, worse, as NaN weights
/// downstream); they are typed now so callers can fall back to a prior
/// model instead of crashing a serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmError {
    /// No comparison vectors were supplied.
    EmptySample,
    /// The comparison vectors disagree on dimension.
    RaggedSample {
        /// Dimension of the first vector.
        expected: usize,
        /// Dimension of the first offending vector.
        got: usize,
    },
}

impl fmt::Display for EmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmError::EmptySample => write!(f, "EM needs at least one comparison vector"),
            EmError::RaggedSample { expected, got } => {
                write!(f, "ragged comparison vectors: expected dimension {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EmError {}

/// Fitted Fellegi–Sunter parameters.
#[derive(Debug, Clone)]
pub struct EmModel {
    /// Per-field P(agree | match).
    pub m: Vec<f64>,
    /// Per-field P(agree | non-match).
    pub u: Vec<f64>,
    /// Match prior.
    pub p: f64,
    /// EM iterations run.
    pub iterations: usize,
}

/// Maximum EM iterations.
const MAX_ITERS: usize = 100;
/// Convergence tolerance on parameter movement.
const TOL: f64 = 1e-6;
/// Initial match prior, and the prior model's `p`.
const INIT_P: f64 = 0.1;
/// Initial `m` (agreement among matches), and the prior model's `m`.
const INIT_M: f64 = 0.9;
/// Initial `u` (agreement among non-matches), and the prior model's `u`.
const INIT_U: f64 = 0.1;

const EPS: f64 = 1e-6;

fn clamp(x: f64) -> f64 {
    x.clamp(EPS, 1.0 - EPS)
}

impl EmModel {
    /// An unfit prior model of dimension `d` built straight from the
    /// initial EM parameters (clamped). Used as the fallback when no
    /// sample is available to fit on: posteriors stay defined, finite and
    /// monotone in the number of agreeing fields.
    pub fn prior(d: usize) -> Self {
        EmModel {
            m: vec![clamp(INIT_M); d],
            u: vec![clamp(INIT_U); d],
            p: clamp(INIT_P),
            iterations: 0,
        }
    }

    /// Posterior match probability of a *soft* comparison vector: each
    /// entry is an agreement strength in `[0, 1]` rather than a boolean
    /// (1.0 reproduces `posterior` with `true`, 0.0 with `false`).
    /// Inputs are clamped, so the result is always finite and in `[0, 1]`.
    pub fn posterior_soft(&self, gamma: &[f64]) -> f64 {
        let (mut lm, mut lu) = (self.p.ln(), (1.0 - self.p).ln());
        for (i, &g) in gamma.iter().enumerate() {
            let s = if g.is_nan() { 0.0 } else { g.clamp(0.0, 1.0) };
            lm += s * self.m[i].ln() + (1.0 - s) * (1.0 - self.m[i]).ln();
            lu += s * self.u[i].ln() + (1.0 - s) * (1.0 - self.u[i]).ln();
        }
        let max = lm.max(lu);
        let em = (lm - max).exp();
        let eu = (lu - max).exp();
        em / (em + eu)
    }

    /// Posterior match probability of a comparison vector.
    pub fn posterior(&self, gamma: &[bool]) -> f64 {
        let (mut lm, mut lu) = (self.p.ln(), (1.0 - self.p).ln());
        for (i, &agree) in gamma.iter().enumerate() {
            if agree {
                lm += self.m[i].ln();
                lu += self.u[i].ln();
            } else {
                lm += (1.0 - self.m[i]).ln();
                lu += (1.0 - self.u[i]).ln();
            }
        }
        let max = lm.max(lu);
        let em = (lm - max).exp();
        let eu = (lu - max).exp();
        em / (em + eu)
    }
}

/// Fits the model on comparison vectors (one per candidate pair).
///
/// # Errors
///
/// Returns [`EmError`] when `vectors` is empty or the vectors disagree on
/// dimension. Every estimated probability is clamped into
/// `[1e-6, 1 - 1e-6]`, so fully degenerate fields (always agreeing or
/// never agreeing) still yield finite posteriors.
pub fn fit(vectors: &[Vec<bool>]) -> Result<EmModel, EmError> {
    if vectors.is_empty() {
        return Err(EmError::EmptySample);
    }
    let d = vectors[0].len();
    if let Some(bad) = vectors.iter().find(|v| v.len() != d) {
        return Err(EmError::RaggedSample { expected: d, got: bad.len() });
    }
    let n = vectors.len() as f64;

    let mut p = clamp(INIT_P);
    let mut m = vec![clamp(INIT_M); d];
    let mut u = vec![clamp(INIT_U); d];

    let mut iterations = 0;
    for iter in 0..MAX_ITERS {
        iterations = iter + 1;
        // E-step: posterior responsibility of the match class per vector.
        let model = EmModel { m: m.clone(), u: u.clone(), p, iterations };
        let w: Vec<f64> = vectors.iter().map(|g| model.posterior(g)).collect();

        // M-step.
        let sum_w: f64 = w.iter().sum();
        let mut new_m = vec![0.0; d];
        let mut new_u = vec![0.0; d];
        for (g, &wi) in vectors.iter().zip(&w) {
            for (i, &agree) in g.iter().enumerate() {
                if agree {
                    new_m[i] += wi;
                    new_u[i] += 1.0 - wi;
                }
            }
        }
        let denom_m = sum_w.max(EPS);
        let denom_u = (n - sum_w).max(EPS);
        let mut delta: f64 = 0.0;
        for i in 0..d {
            let nm = clamp(new_m[i] / denom_m);
            let nu = clamp(new_u[i] / denom_u);
            delta = delta.max((nm - m[i]).abs()).max((nu - u[i]).abs());
            m[i] = nm;
            u[i] = nu;
        }
        let np = clamp(sum_w / n);
        delta = delta.max((np - p).abs());
        p = np;
        if delta < TOL {
            break;
        }
    }
    Ok(EmModel { m, u, p, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes vectors from known (p, m, u) and checks EM recovers the
    /// structure (matches agree often, non-matches rarely).
    fn synthesize(p: f64, m: &[f64], u: &[f64], n: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let is_match = rng.random_bool(p);
                (0..m.len()).map(|i| rng.random_bool(if is_match { m[i] } else { u[i] })).collect()
            })
            .collect()
    }

    #[test]
    fn recovers_planted_structure() {
        let true_m = [0.95, 0.9, 0.85];
        let true_u = [0.05, 0.1, 0.2];
        let vectors = synthesize(0.2, &true_m, &true_u, 20_000, 42);
        let model = fit(&vectors).unwrap();
        assert!((model.p - 0.2).abs() < 0.05, "p = {}", model.p);
        for i in 0..3 {
            assert!((model.m[i] - true_m[i]).abs() < 0.08, "m[{i}] = {}", model.m[i]);
            assert!((model.u[i] - true_u[i]).abs() < 0.08, "u[{i}] = {}", model.u[i]);
        }
    }

    #[test]
    fn posterior_separates_classes() {
        let vectors = synthesize(0.15, &[0.95, 0.9], &[0.05, 0.1], 5_000, 7);
        let model = fit(&vectors).unwrap();
        let all_agree = model.posterior(&[true, true]);
        let none_agree = model.posterior(&[false, false]);
        assert!(all_agree > 0.9, "all-agree posterior {all_agree}");
        assert!(none_agree < 0.1, "none-agree posterior {none_agree}");
    }

    #[test]
    fn converges_and_reports_iterations() {
        let vectors = synthesize(0.3, &[0.9], &[0.1], 2_000, 3);
        let model = fit(&vectors).unwrap();
        assert!(model.iterations < 100, "should converge before the cap");
    }

    #[test]
    fn empty_input_is_typed_error() {
        assert_eq!(fit(&[]).unwrap_err(), EmError::EmptySample);
    }

    #[test]
    fn ragged_input_is_typed_error() {
        assert_eq!(
            fit(&[vec![true], vec![true, false]]).unwrap_err(),
            EmError::RaggedSample { expected: 1, got: 2 }
        );
    }

    /// Degenerate fields (always agreeing, never agreeing) must stay clamped
    /// away from {0, 1} so posteriors remain finite.
    #[test]
    fn degenerate_fields_are_clamped_to_finite_weights() {
        // Field 0 always agrees, field 1 never does, across every vector.
        let vectors: Vec<Vec<bool>> = (0..500).map(|_| vec![true, false]).collect();
        let model = fit(&vectors).unwrap();
        for i in 0..2 {
            assert!((1e-6..=1.0 - 1e-6).contains(&model.m[i]), "m[{i}] = {}", model.m[i]);
            assert!((1e-6..=1.0 - 1e-6).contains(&model.u[i]), "u[{i}] = {}", model.u[i]);
        }
        assert!((1e-6..=1.0 - 1e-6).contains(&model.p), "p = {}", model.p);
        for gamma in [[true, true], [true, false], [false, true], [false, false]] {
            let post = model.posterior(&gamma);
            assert!(post.is_finite() && (0.0..=1.0).contains(&post), "posterior {post}");
        }
    }

    /// The prior (unfit) fallback model is always defined and monotone in
    /// the number of agreeing fields.
    #[test]
    fn prior_model_is_finite_and_monotone() {
        let model = EmModel::prior(3);
        assert_eq!(model.iterations, 0);
        let p0 = model.posterior(&[false, false, false]);
        let p1 = model.posterior(&[true, false, false]);
        let p2 = model.posterior(&[true, true, false]);
        let p3 = model.posterior(&[true, true, true]);
        assert!(p0 < p1 && p1 < p2 && p2 < p3, "{p0} {p1} {p2} {p3}");
        assert!(p3.is_finite() && (0.0..=1.0).contains(&p3));
    }

    /// `posterior_soft` agrees with `posterior` at the boolean corners and
    /// never produces NaN, even on garbage inputs.
    #[test]
    fn posterior_soft_matches_boolean_corners() {
        let vectors = synthesize(0.2, &[0.9, 0.85], &[0.1, 0.2], 5_000, 11);
        let model = fit(&vectors).unwrap();
        for gamma in [[true, true], [true, false], [false, true], [false, false]] {
            let soft: Vec<f64> = gamma.iter().map(|&g| if g { 1.0 } else { 0.0 }).collect();
            assert!((model.posterior(&gamma) - model.posterior_soft(&soft)).abs() < 1e-12);
        }
        // Half-agreement sits between the corners; NaN/out-of-range inputs
        // are sanitized rather than propagated.
        let mid = model.posterior_soft(&[0.5, 0.5]);
        assert!(mid > model.posterior(&[false, false]) && mid < model.posterior(&[true, true]));
        let wild = model.posterior_soft(&[f64::NAN, 7.0]);
        assert!(wild.is_finite() && (0.0..=1.0).contains(&wild));
    }
}
