//! Calibrated scoring and one-to-one resolution on top of boolean matching.
//!
//! The MD rules stay the *sound candidate generator* — the paper's
//! semantics remain the recall floor — and this module ranks within the
//! candidate set:
//!
//! * [`ScoreModel`] — per-atom graded agreement features
//!   ([`RuntimeOps::atom_feature`]) weighted by Fellegi–Sunter `m`/`u`
//!   parameters fit by the existing EM on a sample of the relation,
//!   producing a calibrated match confidence in `[0, 1]`. Degenerate
//!   samples fall back to a clamped prior model, so a score is always
//!   defined and never NaN. Its comparison vector is
//!   [`rck_comparison_vector`], the union of the RCK atoms — FSrck's
//!   vector in §6.2 Exp-2, whose classifier is this model's boolean
//!   posterior (`model.em().posterior(γ)`) against a threshold.
//! * [`resolve_one_to_one`] — a bipartite assignment resolver turning
//!   scored candidate links into a one-to-one matching (each record in at
//!   most one link) instead of greedy union-find closure: greedy
//!   threshold-gated assignment with an exact Hungarian-style fallback for
//!   small conflict components (cf. Sadinle's bipartite-matching prior for
//!   record linkage).

use crate::em::{self, EmError, EmModel};
use matchrules_core::dependency::SimilarityAtom;
use matchrules_core::relative_key::RelativeKey;
use matchrules_data::eval::RuntimeOps;
use matchrules_data::relation::{Relation, Tuple};
use std::collections::HashMap;
use std::fmt;

/// Why a Fellegi–Sunter fit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The comparison vector has no fields.
    EmptyFields,
    /// No candidate pairs were supplied to fit on.
    NoCandidates,
    /// The underlying EM fit failed.
    Em(EmError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::EmptyFields => write!(f, "comparison vector cannot be empty"),
            FsError::NoCandidates => write!(f, "need candidate pairs to fit on"),
            FsError::Em(e) => write!(f, "EM fit failed: {e}"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Em(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EmError> for FsError {
    fn from(e: EmError) -> Self {
        FsError::Em(e)
    }
}

/// Builds the RCK comparison vector: the union of the atoms of `keys`
/// (deduplicated), keeping each atom's similarity operator.
pub fn rck_comparison_vector(keys: &[RelativeKey]) -> Vec<SimilarityAtom> {
    let mut atoms: Vec<SimilarityAtom> = keys.iter().flat_map(|k| k.atoms()).copied().collect();
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}

/// Sample cap for EM fitting (paper: ≤ 30k): a deterministic stride over
/// the candidates.
const EM_SAMPLE: usize = 30_000;

/// A calibrated pair-scoring model over a fixed atom comparison vector.
///
/// Scoring is a pure function of (model, tuple pair): no interior state,
/// no randomness, no thread dependence — which is what makes
/// ranked serving byte-identical across execution layouts.
#[derive(Debug, Clone)]
pub struct ScoreModel {
    atoms: Vec<SimilarityAtom>,
    model: EmModel,
    fitted: bool,
}

impl ScoreModel {
    /// Fits the model on candidate pairs: boolean comparison vectors for a
    /// deterministic sample of the candidates, then EM.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when `atoms` or `candidates` is empty (the EM
    /// itself cannot fail on a non-empty rectangular sample).
    pub fn fit(
        atoms: Vec<SimilarityAtom>,
        left: &Relation,
        right: &Relation,
        candidates: &[(usize, usize)],
        ops: &RuntimeOps,
    ) -> Result<Self, FsError> {
        if atoms.is_empty() {
            return Err(FsError::EmptyFields);
        }
        if candidates.is_empty() {
            return Err(FsError::NoCandidates);
        }
        let step = (candidates.len() / EM_SAMPLE).max(1);
        let sample: Vec<Vec<bool>> = candidates
            .iter()
            .step_by(step)
            .take(EM_SAMPLE)
            .map(|&(l, r)| {
                let (t1, t2) = (&left.tuples()[l], &right.tuples()[r]);
                atoms.iter().map(|a| ops.atom_matches(a, t1, t2)).collect()
            })
            .collect();
        let model = em::fit(&sample)?;
        Ok(ScoreModel { atoms, model, fitted: true })
    }

    /// An unfit model built from the clamped EM priors: defined for any
    /// atom vector, finite everywhere, monotone in the number (and
    /// strength) of agreeing atoms. The fallback when no sample exists.
    pub fn prior(atoms: Vec<SimilarityAtom>) -> Self {
        let model = EmModel::prior(atoms.len());
        ScoreModel { atoms, model, fitted: false }
    }

    /// Fits when possible, otherwise falls back to the prior — the
    /// total version of [`ScoreModel::fit`] used at plan-compile time.
    pub fn fit_or_prior(
        atoms: Vec<SimilarityAtom>,
        left: &Relation,
        right: &Relation,
        candidates: &[(usize, usize)],
        ops: &RuntimeOps,
    ) -> Self {
        match Self::fit(atoms.clone(), left, right, candidates, ops) {
            Ok(model) => model,
            Err(_) => Self::prior(atoms),
        }
    }

    /// Calibrated match confidence of a tuple pair in `[0, 1]`: graded
    /// agreement per atom (warm path — filter rejections score 0 without
    /// an exact distance), folded through the Fellegi–Sunter posterior.
    /// Never NaN; pure in (self, pair).
    pub fn score(&self, ops: &RuntimeOps, t1: &Tuple, t2: &Tuple) -> f64 {
        let gamma: Vec<f64> =
            self.atoms.iter().map(|a| ops.atom_feature(a, t1, t2).strength).collect();
        self.model.posterior_soft(&gamma)
    }

    /// The atom comparison vector.
    pub fn atoms(&self) -> &[SimilarityAtom] {
        &self.atoms
    }

    /// The underlying Fellegi–Sunter parameters.
    pub fn em(&self) -> &EmModel {
        &self.model
    }

    /// Whether EM actually ran (false: prior fallback).
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }
}

/// One scored candidate link between a left record and a right record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEdge {
    /// Left-side record (position or id — opaque to the resolver).
    pub left: usize,
    /// Right-side record.
    pub right: usize,
    /// Link score; NaN edges are discarded.
    pub score: f64,
}

/// Largest conflict component solved exactly: at most this many distinct
/// endpoints (the DP is `O(edges · 2^nodes)`) …
const EXACT_MAX_NODES: usize = 12;
/// … and at most this many edges.
const EXACT_MAX_EDGES: usize = 64;

/// Resolves scored candidate links between **two distinct relations**
/// into a one-to-one matching: every left and every right endpoint
/// appears in at most one selected edge. Returns the indices of the
/// selected edges, ascending.
///
/// Edges below `min_score` (or with NaN scores) are dropped first. The
/// survivors split into conflict components (edges sharing an endpoint);
/// small components are solved *exactly* (max-weight matching by bitmask
/// DP over the component's endpoints), large ones greedily by descending
/// score with `(left, right)` tie-breaks. Deterministic for a fixed
/// input order.
pub fn resolve_one_to_one(edges: &[ScoredEdge], min_score: f64) -> Vec<usize> {
    // Left and right ids live in disjoint node spaces.
    resolve(edges, min_score, |e| ((0, e.left), (1, e.right)))
}

/// [`resolve_one_to_one`] for links **within one relation** (dedup):
/// `left`/`right` are positions in the same id space, so a record linked
/// as the left of one edge and the right of another still counts as one
/// node — the result is a matching in the general-graph sense (each
/// record in at most one link).
pub fn resolve_one_to_one_shared(edges: &[ScoredEdge], min_score: f64) -> Vec<usize> {
    resolve(edges, min_score, |e| ((0, e.left), (0, e.right)))
}

type Node = (u8, usize);

fn resolve(
    edges: &[ScoredEdge],
    min_score: f64,
    endpoints: impl Fn(&ScoredEdge) -> (Node, Node),
) -> Vec<usize> {
    let eligible: Vec<usize> = (0..edges.len())
        .filter(|&i| !edges[i].score.is_nan() && edges[i].score >= min_score)
        .collect();

    // Union-find over endpoint nodes.
    let mut node_of: HashMap<Node, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    fn intern(node_of: &mut HashMap<Node, usize>, parent: &mut Vec<usize>, key: Node) -> usize {
        *node_of.entry(key).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        })
    }
    for &i in &eligible {
        let (a, b) = endpoints(&edges[i]);
        let l = intern(&mut node_of, &mut parent, a);
        let r = intern(&mut node_of, &mut parent, b);
        let (rl, rr) = (root(&mut parent, l), root(&mut parent, r));
        if rl != rr {
            parent[rl.max(rr)] = rl.min(rr);
        }
    }

    // Group eligible edges into components, in first-seen order.
    let mut comp_pos: HashMap<usize, usize> = HashMap::new();
    let mut components: Vec<Vec<usize>> = Vec::new();
    for &i in &eligible {
        let (a, _) = endpoints(&edges[i]);
        let c = root(&mut parent, node_of[&a]);
        let pos = *comp_pos.entry(c).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[pos].push(i);
    }

    let mut selected = Vec::new();
    for comp in &components {
        let mut nodes: Vec<usize> = comp
            .iter()
            .flat_map(|&i| {
                let (a, b) = endpoints(&edges[i]);
                [node_of[&a], node_of[&b]]
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() <= EXACT_MAX_NODES && comp.len() <= EXACT_MAX_EDGES {
            selected.extend(exact_component(edges, comp, &nodes, &node_of, &endpoints));
        } else {
            selected.extend(greedy_component(edges, comp, &endpoints));
        }
    }
    selected.sort_unstable();
    selected
}

/// Exact max-weight matching of one conflict component via bitmask DP
/// over its (few) endpoint nodes — works on general graphs, so it also
/// covers reflexive (dedup) edge sets.
fn exact_component(
    edges: &[ScoredEdge],
    comp: &[usize],
    nodes: &[usize],
    node_of: &HashMap<Node, usize>,
    endpoints: &impl Fn(&ScoredEdge) -> (Node, Node),
) -> Vec<usize> {
    // (bit of endpoint a, bit of endpoint b, weight, edge index)
    let items: Vec<(usize, usize, f64, usize)> = comp
        .iter()
        .map(|&i| {
            let (a, b) = endpoints(&edges[i]);
            let pa = nodes.binary_search(&node_of[&a]).expect("node present");
            let pb = nodes.binary_search(&node_of[&b]).expect("node present");
            (pa, pb, edges[i].score, i)
        })
        .collect();

    let masks = 1usize << nodes.len();
    let m = items.len();
    // dp[k][mask]: best weight using items[k..] with `mask` nodes used.
    let mut dp = vec![vec![0.0f64; masks]; m + 1];
    let mut take = vec![vec![false; masks]; m];
    for k in (0..m).rev() {
        let (pa, pb, w, _) = items[k];
        let bits = (1usize << pa) | (1usize << pb);
        for mask in 0..masks {
            // Skip-first: ties favor the sparser matching.
            let mut best = dp[k + 1][mask];
            let mut chosen = false;
            if mask & bits == 0 && pa != pb {
                let total = w + dp[k + 1][mask | bits];
                if total > best {
                    best = total;
                    chosen = true;
                }
            }
            dp[k][mask] = best;
            take[k][mask] = chosen;
        }
    }

    let mut out = Vec::new();
    let mut mask = 0usize;
    for (k, &(pa, pb, _, idx)) in items.iter().enumerate() {
        if take[k][mask] {
            out.push(idx);
            mask |= (1 << pa) | (1 << pb);
        }
    }
    out
}

/// Greedy assignment of one (large) conflict component: descending score,
/// `(left, right, index)` tie-breaks, both endpoints must be unused.
fn greedy_component(
    edges: &[ScoredEdge],
    comp: &[usize],
    endpoints: &impl Fn(&ScoredEdge) -> (Node, Node),
) -> Vec<usize> {
    let mut order = comp.to_vec();
    order.sort_by(|&a, &b| {
        edges[b]
            .score
            .total_cmp(&edges[a].score)
            .then(edges[a].left.cmp(&edges[b].left))
            .then(edges[a].right.cmp(&edges[b].right))
            .then(a.cmp(&b))
    });
    let mut used = std::collections::HashSet::new();
    let mut out = Vec::new();
    for i in order {
        let (a, b) = endpoints(&edges[i]);
        if a != b && !used.contains(&a) && !used.contains(&b) {
            used.insert(a);
            used.insert(b);
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::cost::CostModel;
    use matchrules_core::paper;
    use matchrules_core::rck::find_rcks;
    use matchrules_data::dirty::{generate_dirty, NoiseConfig};
    use matchrules_data::eval::paper_registry;

    fn edge(left: usize, right: usize, score: f64) -> ScoredEdge {
        ScoredEdge { left, right, score }
    }

    fn assert_one_to_one(edges: &[ScoredEdge], selected: &[usize]) {
        let mut lefts = std::collections::HashSet::new();
        let mut rights = std::collections::HashSet::new();
        for &i in selected {
            assert!(lefts.insert(edges[i].left), "left {} assigned twice", edges[i].left);
            assert!(rights.insert(edges[i].right), "right {} assigned twice", edges[i].right);
        }
    }

    #[test]
    fn exact_fallback_beats_greedy_on_conflict_triangle() {
        // Greedy takes (0,0)@0.6 and strands both others; the exact DP
        // pairs (0,1) with (1,0) for a total of 1.0.
        let edges = [edge(0, 0, 0.6), edge(0, 1, 0.5), edge(1, 0, 0.5)];
        let selected = resolve_one_to_one(&edges, 0.0);
        assert_eq!(selected, vec![1, 2]);
        assert_one_to_one(&edges, &selected);
    }

    #[test]
    fn threshold_gates_edges() {
        let edges = [edge(0, 0, 0.9), edge(1, 1, 0.3), edge(2, 2, f64::NAN)];
        assert_eq!(resolve_one_to_one(&edges, 0.5), vec![0]);
        assert_eq!(resolve_one_to_one(&edges, 0.0), vec![0, 1], "NaN always drops");
    }

    #[test]
    fn large_components_fall_back_to_greedy_and_stay_valid() {
        // A star wider than EXACT_MAX_RIGHTS: one left contested by many
        // rights plus a chain forcing a single component.
        let mut edges = Vec::new();
        for r in 0..20 {
            edges.push(edge(0, r, 0.5 + r as f64 * 0.01));
        }
        for l in 1..20 {
            edges.push(edge(l, l - 1, 0.4));
        }
        let selected = resolve_one_to_one(&edges, 0.0);
        assert_one_to_one(&edges, &selected);
        // The contested left keeps its best right (19, score 0.69).
        assert!(selected.contains(&19));
    }

    #[test]
    fn duplicate_edges_and_disjoint_components() {
        let edges = [edge(0, 0, 0.5), edge(0, 0, 0.9), edge(7, 7, 0.8)];
        let selected = resolve_one_to_one(&edges, 0.0);
        assert_one_to_one(&edges, &selected);
        assert!(selected.contains(&1), "keeps the better duplicate");
        assert!(selected.contains(&2));
        assert_eq!(selected.len(), 2);
    }

    #[test]
    fn shared_space_counts_both_sides_as_one_node() {
        // Record 1 appears as right of edge 0 and left of edge 1. In the
        // bipartite view both edges could be kept; in the shared (dedup)
        // view they conflict and only the better one survives.
        let edges = [edge(0, 1, 0.9), edge(1, 2, 0.8)];
        assert_eq!(resolve_one_to_one(&edges, 0.0), vec![0, 1]);
        let shared = resolve_one_to_one_shared(&edges, 0.0);
        assert_eq!(shared, vec![0]);
        // Self-loops can never be part of a matching.
        assert!(resolve_one_to_one_shared(&[edge(3, 3, 0.9)], 0.0).is_empty());
        // A path 0-1-2-3: exact matching keeps the outer pair over the
        // greedy middle edge.
        let path = [edge(1, 2, 0.6), edge(0, 1, 0.5), edge(2, 3, 0.5)];
        assert_eq!(resolve_one_to_one_shared(&path, 0.0), vec![1, 2]);
    }

    #[test]
    fn empty_input_is_empty_matching() {
        assert!(resolve_one_to_one(&[], 0.0).is_empty());
    }

    #[test]
    fn rck_comparison_vector_is_the_deduplicated_atom_union() {
        let setting = paper::extended();
        let mut cost = CostModel::uniform();
        let keys = find_rcks(&setting.sigma, &setting.target, 5, &mut cost).keys;
        let atoms = rck_comparison_vector(&keys);
        assert!(!atoms.is_empty());
        let mut dedup = atoms.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), atoms.len(), "atoms are deduplicated");
        assert!(keys.iter().flat_map(|k| k.atoms()).all(|a| atoms.contains(a)));
    }

    #[test]
    fn prior_model_scores_are_monotone_and_bounded() {
        let setting = paper::extended();
        let mut cost = CostModel::uniform();
        let keys = find_rcks(&setting.sigma, &setting.target, 5, &mut cost).keys;
        let atoms = rck_comparison_vector(&keys);
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let model = ScoreModel::prior(atoms);
        assert!(!model.is_fitted());

        let data = generate_dirty(
            &setting.pair,
            &setting.target,
            50,
            &NoiseConfig { seed: 3, ..Default::default() },
        );
        for t1 in data.credit.tuples().iter().take(10) {
            for t2 in data.billing.tuples().iter().take(10) {
                let s = model.score(&ops, t1, t2);
                assert!(s.is_finite() && (0.0..=1.0).contains(&s), "score {s}");
            }
        }
        // A true pair (shared entity) dominates the least-similar stranger.
        let (c, b) = first_true_pair(&data).expect("generator yields true pairs");
        let t = &data.credit.tuples()[c];
        let far = data
            .billing
            .tuples()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !data.truth.is_match(c, i))
            .map(|(_, u)| model.score(&ops, t, u))
            .fold(f64::INFINITY, f64::min);
        assert!(model.score(&ops, t, &data.billing.tuples()[b]) > far);
    }

    fn first_true_pair(data: &matchrules_data::dirty::DirtyData) -> Option<(usize, usize)> {
        (0..data.credit.len()).find_map(|c| {
            (0..data.billing.len()).find(|&b| data.truth.is_match(c, b)).map(|b| (c, b))
        })
    }

    #[test]
    fn fitted_model_separates_duplicates_from_strangers() {
        let setting = paper::extended();
        let data = generate_dirty(
            &setting.pair,
            &setting.target,
            200,
            &NoiseConfig { seed: 9, ..Default::default() },
        );
        let ops = RuntimeOps::resolve(&setting.ops, &paper_registry()).unwrap();
        let mut cost = CostModel::uniform();
        let keys = find_rcks(&setting.sigma, &setting.target, 5, &mut cost).keys;
        let atoms = rck_comparison_vector(&keys);
        // Fit on the truth's pairs plus shifted non-pairs.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        let n = data.credit.len().min(data.billing.len());
        for i in 0..n {
            candidates.push((i, i));
            candidates.push((i, (i + 7) % n));
        }
        let model =
            ScoreModel::fit(atoms.clone(), &data.credit, &data.billing, &candidates, &ops).unwrap();
        assert!(model.is_fitted());
        assert_eq!(model.atoms().len(), atoms.len());
        // True pairs outscore strangers on average under the fitted model.
        let mut true_sum = (0.0, 0usize);
        let mut false_sum = (0.0, 0usize);
        for c in 0..n.min(60) {
            for b in 0..n.min(60) {
                let s = model.score(&ops, &data.credit.tuples()[c], &data.billing.tuples()[b]);
                assert!(s.is_finite() && (0.0..=1.0).contains(&s), "score {s}");
                if data.truth.is_match(c, b) {
                    true_sum = (true_sum.0 + s, true_sum.1 + 1);
                } else {
                    false_sum = (false_sum.0 + s, false_sum.1 + 1);
                }
            }
        }
        assert!(true_sum.1 > 0 && false_sum.1 > 0);
        let (true_mean, false_mean) =
            (true_sum.0 / true_sum.1 as f64, false_sum.0 / false_sum.1 as f64);
        assert!(true_mean > false_mean, "true {true_mean} vs false {false_mean}");

        // Degenerate fit inputs are typed errors, not NaN factories.
        assert_eq!(
            ScoreModel::fit(vec![], &data.credit, &data.billing, &candidates, &ops).unwrap_err(),
            FsError::EmptyFields
        );
        assert_eq!(
            ScoreModel::fit(atoms.clone(), &data.credit, &data.billing, &[], &ops).unwrap_err(),
            FsError::NoCandidates
        );
        // fit_or_prior is total.
        let fallback = ScoreModel::fit_or_prior(atoms, &data.credit, &data.billing, &[], &ops);
        assert!(!fallback.is_fitted());
    }
}
