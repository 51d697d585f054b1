//! Executable similarity operators and the operator registry.
//!
//! The reasoning core of `matchrules` treats similarity operators purely
//! *symbolically*: deduction only relies on the generic axioms of §2.1
//! (reflexivity, symmetry, subsumption of equality). At matching time those
//! symbols must be bound to executable predicates; that binding is the
//! [`OpRegistry`].
//!
//! Every [`SimilarityOp`] here satisfies the generic axioms by construction,
//! and the crate's property tests verify them on arbitrary inputs. Every
//! operator also states its [`OpClass`] — how evaluators compile it and
//! how an inverted index retrieves candidates under it — in one required
//! method, [`SimilarityOp::class`].

use crate::edit::{damerau_levenshtein_within, levenshtein_within, theta_bound};
use crate::jaro::jaro_winkler;
use crate::normalize::{digits_only, normalize_ws};
use crate::phonetic::{soundex, soundex_eq};
use crate::qgram::dice;
use crate::token::{token_jaccard, tokens};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How an operator executes and how an index retrieves under it — the one
/// fact every [`SimilarityOp`] declares through [`SimilarityOp::class`].
///
/// The two compiled classes let evaluators dispatch on a plain `match`
/// instead of a virtual call; the edit class also runs on per-relation
/// character buffers behind the [`crate::filters`] pipeline. The other
/// classes verify through the trait object.
///
/// Each variant also names a retrieval scheme, together with the
/// **soundness contract** the operator asserts by returning it: retrieval
/// built on the contract produces a *superset* of the tuples the operator
/// accepts, so an index can collect candidates from it and leave the final
/// decision to verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpClass {
    /// `matches(a, b)` iff `a == b`: compiled string equality. Retrieval
    /// keys on the raw value. The class fixes that key, so an index looks
    /// the value up directly and never asks the operator for
    /// [`SimilarityOp::derived_keys`].
    Equality,
    /// `matches(a, b)` iff the OSA distance (plain Levenshtein without
    /// `transpositions`) is within [`theta_bound`]`(theta, max(|a|, |b|))`:
    /// compiled banded DP. Retrieval is q-gram posting lists plus a
    /// short-string sparse list.
    Edit {
        /// The threshold θ of the edit bound.
        theta: f64,
        /// Whether an adjacent transposition costs one edit (OSA) rather
        /// than two (Levenshtein).
        transpositions: bool,
    },
    /// Contract: `matches(a, b)` implies [`SimilarityOp::derived_keys`]
    /// of `a` and of `b` share at least one key (and every input derives
    /// at least one key, so `a == b` always shares). Retrieval is posting
    /// lists over the derived keys — soundex codes, digit strings, synonym
    /// classes.
    Keys,
    /// Contract: `matches(a, b)` implies the element sets
    /// [`SimilarityOp::index_elements`] emits for `a` and `b` share an
    /// element or are both empty, **and** that the sizes it returns
    /// satisfy `min ≥ min_ratio · max`. Retrieval is element posting
    /// lists with a size-ratio prefilter plus an empty-elements list
    /// (probed only by element-less probes).
    Elements {
        /// The sound lower bound on `min(size(a), size(b)) / max(…)`.
        min_ratio: f64,
    },
    /// No sound retrieval scheme: keys relying on the operator alone fall
    /// back to scanning every live tuple.
    Scan,
}

/// Tag prefixed to raw-value fallback keys of [`OpClass::Keys`] operators
/// (inputs that derive no natural code still must derive *some* key so
/// `a == b` shares one). The control character keeps fallback keys
/// disjoint from natural codes; a collision would merely add candidates.
const RAW_KEY_TAG: char = '\u{1}';

/// FNV-1a over the scalar values of `s` — the element hash of
/// [`SimilarityOp::index_elements`], and the posting key an index files
/// a derived key ([`SimilarityOp::derived_keys`]) under. Equal strings
/// hash equally; collisions only merge posting lists (sound).
pub fn hash_element(chars: impl Iterator<Item = char>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in chars {
        h ^= u64::from(c as u32);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An executable similarity operator `≈ ∈ Θ`.
///
/// Implementations must be reflexive, symmetric and subsume equality; they
/// need not be transitive (and thresholded edit-distance operators are not).
pub trait SimilarityOp: Send + Sync + fmt::Debug {
    /// Stable name of the operator, used to bind symbolic operators of the
    /// reasoning core to this implementation (e.g. `"≈dl"`).
    fn name(&self) -> &str;

    /// The similarity predicate `a ≈ b`.
    fn matches(&self, a: &str, b: &str) -> bool;

    /// A graded similarity score in `\[0, 1\]` when the underlying metric has
    /// one; defaults to the 0/1 predicate.
    fn similarity(&self, a: &str, b: &str) -> f64 {
        f64::from(self.matches(a, b))
    }

    /// The operator's class; see [`OpClass`] for what each variant
    /// compiles to and the retrieval contract it asserts. A compiled
    /// class must decide exactly like [`SimilarityOp::matches`].
    ///
    /// There is no default: every operator states its class, so a new
    /// operator arrives index-ready (or visibly opts out with
    /// [`OpClass::Scan`]) instead of silently scanning.
    fn class(&self) -> OpClass;

    /// Appends the bucket keys of `s` to `out` (at least one key per
    /// input — required by [`OpClass::Keys`]). Key collisions across
    /// unrelated values only *add* candidates, so they are sound; missing
    /// keys would lose matches and are not.
    ///
    /// The default panics: an operator of that class must override it.
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        let _ = (s, out);
        unimplemented!("operator declared OpClass::Keys but emits no keys")
    }

    /// Appends the elements of `s` to `out`, each encoded as a `u64` (a
    /// hash, say), and returns the size the [`OpClass::Elements`] ratio
    /// bound applies to — required by that class. Repeats are allowed
    /// (an index keeps one posting per distinct element), and encoding
    /// collisions merge elements, which only adds candidates (sound).
    ///
    /// The default panics: an operator of that class must override it.
    fn index_elements(&self, s: &str, out: &mut Vec<u64>) -> usize {
        let _ = (s, out);
        unimplemented!("operator declared OpClass::Elements but emits no elements")
    }
}

/// Strict equality — the distinguished operator `=` of Θ.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualityOp;

impl SimilarityOp for EqualityOp {
    fn name(&self) -> &str {
        "="
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        f64::from(a == b)
    }
    fn class(&self) -> OpClass {
        OpClass::Equality
    }
    /// The value itself: equal values share their one key.
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        out.push(s.to_owned());
    }
}

/// The paper's DL operator: Damerau–Levenshtein (OSA) distance at most
/// `⌊(1 − θ)·max(|a|, |b|)⌋` — the `theta_bound` rule — with §6.2 using
/// θ = 0.8 in all experiments. Two empty strings match (distance 0).
#[derive(Debug, Clone, Copy)]
pub struct DamerauOp {
    theta: f64,
}

impl DamerauOp {
    /// Creates the operator with threshold `θ ∈ \[0, 1\]`.
    ///
    /// # Panics
    ///
    /// Panics when θ is outside `\[0, 1\]` or not finite.
    pub fn with_threshold(theta: f64) -> Self {
        assert!(theta.is_finite() && (0.0..=1.0).contains(&theta), "θ must be in [0,1]");
        DamerauOp { theta }
    }

    /// The configured threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl SimilarityOp for DamerauOp {
    fn name(&self) -> &str {
        "≈dl"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return true;
        }
        damerau_levenshtein_within(a, b, theta_bound(self.theta, max_len)).is_some()
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        crate::edit::damerau_similarity(a, b)
    }
    fn class(&self) -> OpClass {
        OpClass::Edit { theta: self.theta, transpositions: true }
    }
}

/// Thresholded Levenshtein operator (same rule as [`DamerauOp`] but without
/// transpositions).
#[derive(Debug, Clone, Copy)]
pub struct LevenshteinOp {
    theta: f64,
}

impl LevenshteinOp {
    /// Creates the operator with threshold `θ ∈ \[0, 1\]`.
    ///
    /// # Panics
    ///
    /// Panics when θ is outside `\[0, 1\]` or not finite.
    pub fn with_threshold(theta: f64) -> Self {
        assert!(theta.is_finite() && (0.0..=1.0).contains(&theta), "θ must be in [0,1]");
        LevenshteinOp { theta }
    }
}

impl SimilarityOp for LevenshteinOp {
    fn name(&self) -> &str {
        "≈lev"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return true;
        }
        levenshtein_within(a, b, theta_bound(self.theta, max_len)).is_some()
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        crate::edit::levenshtein_similarity(a, b)
    }
    fn class(&self) -> OpClass {
        OpClass::Edit { theta: self.theta, transpositions: false }
    }
}

/// Jaro–Winkler similarity above a minimum score.
#[derive(Debug, Clone, Copy)]
pub struct JaroWinklerOp {
    min_sim: f64,
}

impl JaroWinklerOp {
    /// Creates the operator accepting pairs with Jaro–Winkler score at least
    /// `min_sim`.
    ///
    /// # Panics
    ///
    /// Panics when `min_sim` is outside `\[0, 1\]` or not finite.
    pub fn with_min(min_sim: f64) -> Self {
        assert!(min_sim.is_finite() && (0.0..=1.0).contains(&min_sim));
        JaroWinklerOp { min_sim }
    }

    /// The sound lower bound `α = 5s − 4` on the character-multiset
    /// overlap of a match, as a fraction of the longer string. With prefix
    /// weight 0.1 and the prefix capped at 4, `jw = j + ℓ·0.1·(1 − j) ≤
    /// 0.6·j + 0.4`, so `jw ≥ s` forces Jaro `j ≥ (s − 0.4)/0.6`. Every
    /// Jaro term (`m/|a|`, `m/|b|`, `(m − t)/m`) is at most 1, so each is
    /// at least `3j − 2`; in particular the `m` matching characters (an
    /// injective pairing of equal characters) satisfy
    /// `m ≥ (3j − 2) · max(|a|, |b|)`, i.e. `m ≥ α · max(|a|, |b|)`.
    fn overlap_ratio(&self) -> f64 {
        5.0 * self.min_sim - 4.0
    }
}

impl SimilarityOp for JaroWinklerOp {
    fn name(&self) -> &str {
        "≈jw"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b || jaro_winkler(a, b) >= self.min_sim
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        jaro_winkler(a, b)
    }
    /// The overlap `m ≥ α · max(|a|, |b|)` also bounds the character
    /// counts: `min(|a|, |b|) ≥ m ≥ α · max(|a|, |b|)`. The bound is
    /// positive only for `s > 0.8` (below that a high prefix boost can
    /// mask arbitrary suffixes), so looser thresholds scan.
    fn class(&self) -> OpClass {
        let alpha = self.overlap_ratio();
        if alpha > 0.0 {
            OpClass::Elements { min_ratio: alpha }
        } else {
            OpClass::Scan
        }
    }
    /// The sorted-character prefix of `s` — its first `n − ⌈α·n⌉ + 1`
    /// sorted characters, repeats kept — as their scalar values
    /// (collision-free, and ordered like the characters); the size is the
    /// character count `n`. A pair with overlap
    /// `m ≥ max(⌈α·|a|⌉, ⌈α·|b|⌉)` shares a character between the two
    /// prefixes: otherwise all `m` matched characters of one side avoid
    /// its own prefix, leaving at most `⌈α·n⌉ − 1 < m` of them. The empty
    /// string emits nothing and matches only itself. The characters are
    /// sorted in place in `out`, so no buffer is allocated.
    fn index_elements(&self, s: &str, out: &mut Vec<u64>) -> usize {
        let start = out.len();
        out.extend(s.chars().map(u64::from));
        let n = out.len() - start;
        if n == 0 {
            return 0;
        }
        // ⌈α·n⌉ with downward float slack: an underestimate only
        // lengthens the prefix, which is sound.
        let need = ((self.overlap_ratio() * n as f64) - 1e-9).ceil().max(1.0) as usize;
        out[start..].sort_unstable();
        out.truncate(start + n - need + 1);
        n
    }
}

/// q-gram Dice coefficient above a minimum score, over *padded* gram
/// profiles ([`crate::qgram`]: empty strings have empty profiles, and
/// `dice("", "") = 1` by the `0/0` convention, so the operator stays
/// reflexive on the empty string).
#[derive(Debug, Clone, Copy)]
pub struct QgramOp {
    q: usize,
    min_sim: f64,
}

impl QgramOp {
    /// Creates the operator for gram length `q` and minimum Dice score.
    ///
    /// # Panics
    ///
    /// Panics when `q == 0` or `min_sim` is outside `\[0, 1\]`.
    pub fn new(q: usize, min_sim: f64) -> Self {
        assert!(q >= 1);
        assert!(min_sim.is_finite() && (0.0..=1.0).contains(&min_sim));
        QgramOp { q, min_sim }
    }
}

impl SimilarityOp for QgramOp {
    fn name(&self) -> &str {
        "≈qg"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b || dice(a, b, self.q) >= self.min_sim
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        dice(a, b, self.q)
    }
    /// Dice `2·|A ⊓ B| / (|A| + |B|) ≥ s` over the padded gram
    /// multisets forces a shared gram (the overlap is positive unless
    /// both profiles are empty — i.e. both strings are empty) and
    /// bounds the profile sizes: with `m ≤ min(|A|, |B|)`,
    /// `2m ≥ s·(min + max)` gives `min/max ≥ s/(2 − s)`. Indexable for
    /// any positive threshold; `s = 0` accepts everything and scans.
    fn class(&self) -> OpClass {
        if self.min_sim > 0.0 {
            OpClass::Elements { min_ratio: self.min_sim / (2.0 - self.min_sim) }
        } else {
            OpClass::Scan
        }
    }
    /// The padded gram multiset of `s`, hashed — duplicates kept, since
    /// Dice counts multiplicity (matching [`crate::qgram::QgramProfile`]:
    /// `'#'`/`'$'` sentinels, empty string ⇒ no grams); the size is the
    /// multiset size.
    fn index_elements(&self, s: &str, out: &mut Vec<u64>) -> usize {
        let chars: Vec<char> = s.chars().collect();
        if chars.is_empty() {
            return 0;
        }
        let mut padded = Vec::with_capacity(chars.len() + 2 * (self.q - 1));
        padded.extend(std::iter::repeat_n('#', self.q - 1));
        padded.extend_from_slice(&chars);
        padded.extend(std::iter::repeat_n('$', self.q - 1));
        let grams = padded.windows(self.q);
        let size = grams.len();
        out.extend(grams.map(|w| hash_element(w.iter().copied())));
        size
    }
}

/// Soundex equivalence of names.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoundexOp;

impl SimilarityOp for SoundexOp {
    fn name(&self) -> &str {
        "≈sx"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b || soundex_eq(a, b)
    }
    fn class(&self) -> OpClass {
        OpClass::Keys
    }
    /// The soundex code, or a tagged copy of the raw value for inputs
    /// that encode to none (no ASCII letter): [`soundex_eq`] falls back
    /// to string equality there, and equal strings derive equal keys.
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        match soundex(s) {
            Some(code) => out.push(code),
            None => out.push(format!("{RAW_KEY_TAG}{s}")),
        }
    }
}

/// Token-set Jaccard above a minimum score (multi-word fields).
#[derive(Debug, Clone, Copy)]
pub struct TokenJaccardOp {
    min_sim: f64,
}

impl TokenJaccardOp {
    /// Creates the operator with the given minimum Jaccard score.
    ///
    /// # Panics
    ///
    /// Panics when `min_sim` is outside `\[0, 1\]` or not finite.
    pub fn with_min(min_sim: f64) -> Self {
        assert!(min_sim.is_finite() && (0.0..=1.0).contains(&min_sim));
        TokenJaccardOp { min_sim }
    }
}

impl SimilarityOp for TokenJaccardOp {
    fn name(&self) -> &str {
        "≈tok"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b || token_jaccard(a, b) >= self.min_sim
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        token_jaccard(a, b)
    }
    /// Jaccard `|A ∩ B| / |A ∪ B| ≥ s > 0` forces a shared token unless
    /// both token sets are empty (`jaccard(∅, ∅) = 1` by convention),
    /// and bounds the set sizes: `min ≥ inter ≥ s·union ≥ s·max`.
    /// `s = 0` accepts everything and scans.
    fn class(&self) -> OpClass {
        if self.min_sim > 0.0 {
            OpClass::Elements { min_ratio: self.min_sim }
        } else {
            OpClass::Scan
        }
    }
    /// The token *set* of `s`, hashed (Jaccard is set-based, so
    /// duplicates are dropped and the size is the set size).
    fn index_elements(&self, s: &str, out: &mut Vec<u64>) -> usize {
        let mut elems: Vec<u64> = tokens(s).iter().map(|t| hash_element(t.chars())).collect();
        elems.sort_unstable();
        elems.dedup();
        let size = elems.len();
        out.extend(elems);
        size
    }
}

/// Equality of the digit content of two values — the standard comparison for
/// phone numbers across formats ("908-111-1111" vs "(908) 111 1111").
#[derive(Debug, Clone, Copy, Default)]
pub struct DigitsEqOp;

impl SimilarityOp for DigitsEqOp {
    fn name(&self) -> &str {
        "≈num"
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        a == b || (!digits_only(a).is_empty() && digits_only(a) == digits_only(b))
    }
    fn class(&self) -> OpClass {
        OpClass::Keys
    }
    /// The digit content of `s`, or the tagged raw string when `s` has no
    /// digits (digit-free values only match verbatim, so the raw value is a
    /// sound bucket for them).
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        let digits = digits_only(s);
        if digits.is_empty() {
            out.push(format!("{RAW_KEY_TAG}{s}"));
        } else {
            out.push(digits);
        }
    }
}

/// Synonym-table operator — the §8 "constant transformation" extension:
/// `x ≈ y` when `x = y`, when the table links the canonical forms of `x` and
/// `y` (e.g. "USA" ↔ "United States"), or when the wrapped inner operator
/// accepts the pair.
pub struct SynonymOp {
    name: String,
    classes: HashMap<String, u32>,
    inner: Option<Arc<dyn SimilarityOp>>,
}

impl fmt::Debug for SynonymOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SynonymOp")
            .field("name", &self.name)
            .field("entries", &self.classes.len())
            .field("inner", &self.inner.as_ref().map(|op| op.name().to_owned()))
            .finish()
    }
}

impl SynonymOp {
    /// Builds the operator from groups of mutually-synonymous values.
    /// Lookup is case- and whitespace-insensitive.
    pub fn from_groups<I, G, S>(name: &str, groups: I) -> Self
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut classes = HashMap::new();
        for (class_id, group) in groups.into_iter().enumerate() {
            for value in group {
                classes.insert(crate::normalize::normalize_ws(value.as_ref()), class_id as u32);
            }
        }
        SynonymOp { name: name.to_owned(), classes, inner: None }
    }

    /// Also accept pairs matched by `inner` (e.g. synonyms *or* small typos).
    #[must_use]
    pub fn with_fallback(mut self, inner: Arc<dyn SimilarityOp>) -> Self {
        self.inner = Some(inner);
        self
    }

    fn class_of(&self, v: &str) -> Option<u32> {
        self.classes.get(&crate::normalize::normalize_ws(v)).copied()
    }
}

impl SimilarityOp for SynonymOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        if let (Some(ca), Some(cb)) = (self.class_of(a), self.class_of(b)) {
            if ca == cb {
                return true;
            }
        }
        self.inner.as_ref().is_some_and(|op| op.matches(a, b))
    }
    /// Without a fallback the operator is pure key equivalence: two values
    /// match iff they share a synonym class or are verbatim equal, both of
    /// which bucket exactly. A fallback makes matching a disjunction with an
    /// arbitrary inner operator, which derived keys cannot cover soundly.
    fn class(&self) -> OpClass {
        if self.inner.is_none() {
            OpClass::Keys
        } else {
            OpClass::Scan
        }
    }
    /// The synonym class id when the table knows the value, otherwise its
    /// whitespace-normalised form (verbatim-equal strings normalise equally,
    /// and a value in no class can only match table-free, i.e. verbatim).
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        match self.class_of(s) {
            Some(id) => out.push(format!("c{id}")),
            None => out.push(format!("v{}", normalize_ws(s))),
        }
    }
}

/// Re-exposes an operator under a different name, so symbolic operator
/// names used in MDs (e.g. the paper's `≈d`) can bind to any configured
/// implementation.
pub struct AliasOp {
    name: String,
    inner: Arc<dyn SimilarityOp>,
}

impl AliasOp {
    /// Wraps `inner` under `name`.
    pub fn new(name: &str, inner: Arc<dyn SimilarityOp>) -> Self {
        AliasOp { name: name.to_owned(), inner }
    }
}

impl fmt::Debug for AliasOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AliasOp")
            .field("name", &self.name)
            .field("inner", &self.inner.name().to_owned())
            .finish()
    }
}

impl SimilarityOp for AliasOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn matches(&self, a: &str, b: &str) -> bool {
        self.inner.matches(a, b)
    }
    fn similarity(&self, a: &str, b: &str) -> f64 {
        self.inner.similarity(a, b)
    }
    fn class(&self) -> OpClass {
        self.inner.class()
    }
    fn derived_keys(&self, s: &str, out: &mut Vec<String>) {
        self.inner.derived_keys(s, out);
    }
    fn index_elements(&self, s: &str, out: &mut Vec<u64>) -> usize {
        self.inner.index_elements(s, out)
    }
}

/// Maps operator names to executable implementations.
///
/// The registry is the runtime companion of the reasoning core's symbolic
/// operator table: an MD that mentions `≈dl` symbolically is evaluated on
/// data by looking `"≈dl"` up here.
#[derive(Debug, Clone, Default)]
pub struct OpRegistry {
    ops: HashMap<String, Arc<dyn SimilarityOp>>,
}

impl OpRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry used throughout the paper's experiments: `=`, the DL
    /// operator at θ = 0.8, plus Levenshtein, Jaro–Winkler (0.9), bigram
    /// Dice (0.8), Soundex, token-Jaccard (0.5) and digit equality.
    pub fn standard() -> Self {
        let mut reg = Self::new();
        reg.register(Arc::new(EqualityOp));
        reg.register(Arc::new(DamerauOp::with_threshold(0.8)));
        reg.register(Arc::new(LevenshteinOp::with_threshold(0.8)));
        reg.register(Arc::new(JaroWinklerOp::with_min(0.9)));
        reg.register(Arc::new(QgramOp::new(2, 0.8)));
        reg.register(Arc::new(SoundexOp));
        reg.register(Arc::new(TokenJaccardOp::with_min(0.5)));
        reg.register(Arc::new(DigitsEqOp));
        reg
    }

    /// Registers (or replaces) an operator under its own name.
    pub fn register(&mut self, op: Arc<dyn SimilarityOp>) {
        self.ops.insert(op.name().to_owned(), op);
    }

    /// Looks an operator up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn SimilarityOp>> {
        self.ops.get(name)
    }

    /// Names of all registered operators, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.ops.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operators are registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_standard_ops() -> Vec<Arc<dyn SimilarityOp>> {
        let reg = OpRegistry::standard();
        reg.names().iter().map(|n| reg.get(n).unwrap().clone()).collect()
    }

    #[test]
    fn standard_registry_contains_equality_and_dl() {
        let reg = OpRegistry::standard();
        assert!(reg.get("=").is_some());
        assert!(reg.get("≈dl").is_some());
        assert_eq!(reg.len(), 8);
        assert!(!reg.is_empty());
    }

    #[test]
    fn generic_axioms_on_samples() {
        let samples =
            ["", "Mark", "Marx", "Clifford", "10 Oak Street, MH, NJ 07974", "908-111-1111"];
        for op in all_standard_ops() {
            for a in samples {
                // reflexive
                assert!(op.matches(a, a), "{} not reflexive on {a:?}", op.name());
                for b in samples {
                    // symmetric
                    assert_eq!(op.matches(a, b), op.matches(b, a), "{} not symmetric", op.name());
                    // subsumes equality
                    if a == b {
                        assert!(op.matches(a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn dl_operator_paper_behaviour() {
        let op = DamerauOp::with_threshold(0.8);
        assert!(op.matches("Clifford", "Cliford"));
        assert!(!op.matches("Clifford", "Clivord")); // dl=2 > floor(0.2*8)
        assert!(!op.matches("Mark", "David"));
        assert!((op.theta() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn digits_eq_across_formats() {
        let op = DigitsEqOp;
        assert!(op.matches("908-111-1111", "(908) 111 1111"));
        assert!(!op.matches("908-111-1111", "908-111-1112"));
        assert!(!op.matches("abc", "def"));
        assert!(op.matches("abc", "abc"));
    }

    #[test]
    fn synonym_groups_and_fallback() {
        let op =
            SynonymOp::from_groups("≈country", [["USA", "United States", "U.S.A."].as_slice()]);
        // Punctuation is NOT stripped by normalize_ws, so "U.S.A." only
        // matches literally:
        assert!(op.matches("usa", "United  STATES"));
        assert!(op.matches("U.S.A.", "USA"));
        assert!(!op.matches("USA", "Canada"));

        let op = SynonymOp::from_groups("≈c", [["USA", "United States"].as_slice()])
            .with_fallback(Arc::new(DamerauOp::with_threshold(0.8)));
        assert!(op.matches("United States", "United Statex"));
    }

    #[test]
    fn registry_replaces_by_name() {
        let mut reg = OpRegistry::new();
        reg.register(Arc::new(DamerauOp::with_threshold(0.5)));
        reg.register(Arc::new(DamerauOp::with_threshold(0.9)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn similarity_scores_bounded() {
        for op in all_standard_ops() {
            for (a, b) in [("Mark", "Marx"), ("", "x"), ("abc", "abc")] {
                let s = op.similarity(a, b);
                assert!((0.0..=1.0).contains(&s), "{} score {s} out of range", op.name());
            }
        }
    }

    #[test]
    #[should_panic]
    fn damerau_rejects_bad_theta() {
        let _ = DamerauOp::with_threshold(1.5);
    }

    #[test]
    fn classes_describe_their_operators() {
        assert_eq!(EqualityOp.class(), OpClass::Equality);
        assert_eq!(
            DamerauOp::with_threshold(0.8).class(),
            OpClass::Edit { theta: 0.8, transpositions: true }
        );
        assert_eq!(
            LevenshteinOp::with_threshold(0.9).class(),
            OpClass::Edit { theta: 0.9, transpositions: false }
        );
        assert_eq!(SoundexOp.class(), OpClass::Keys);
        assert_eq!(DigitsEqOp.class(), OpClass::Keys);
        // jw ≥ 0.9 ⟹ char-bag overlap ≥ 0.5·max(len): ratio = 5·0.9 − 4.
        match JaroWinklerOp::with_min(0.9).class() {
            OpClass::Elements { min_ratio } => assert!((min_ratio - 0.5).abs() < 1e-12),
            other => panic!("expected Elements, got {other:?}"),
        }
        // A weak jw threshold gives a vacuous bound — falls back to scan.
        assert_eq!(JaroWinklerOp::with_min(0.7).class(), OpClass::Scan);
        // dice ≥ 0.8 ⟹ min grams ≥ (0.8 / 1.2)·max grams.
        match QgramOp::new(2, 0.8).class() {
            OpClass::Elements { min_ratio } => assert!((min_ratio - 0.8 / 1.2).abs() < 1e-12),
            other => panic!("expected Elements, got {other:?}"),
        }
        match TokenJaccardOp::with_min(0.5).class() {
            OpClass::Elements { min_ratio } => assert!((min_ratio - 0.5).abs() < 1e-12),
            other => panic!("expected Elements, got {other:?}"),
        }
        // Pure synonym tables bucket exactly; a fallback forces a scan.
        let syn = SynonymOp::from_groups("≈c", [["USA", "United States"].as_slice()]);
        assert_eq!(syn.class(), OpClass::Keys);
        let syn = SynonymOp::from_groups("≈c", [["USA", "United States"].as_slice()])
            .with_fallback(Arc::new(DamerauOp::with_threshold(0.8)));
        assert_eq!(syn.class(), OpClass::Scan);
        // Aliases take the class of what they wrap.
        let alias = AliasOp::new("≈d", Arc::new(DamerauOp::with_threshold(0.75)));
        assert_eq!(alias.class(), OpClass::Edit { theta: 0.75, transpositions: true });
        let alias = AliasOp::new("≈sx2", Arc::new(SoundexOp));
        assert_eq!(alias.class(), OpClass::Keys);
    }

    #[test]
    fn derived_keys_cover_matching_pairs() {
        let samples = ["", "Mark", "Marx", "mark", "908-111-1111", "(908) 111 1111", "USA"];
        let syn: Arc<dyn SimilarityOp> =
            Arc::new(SynonymOp::from_groups("≈c", [["USA", "United States"].as_slice()]));
        let ops: Vec<Arc<dyn SimilarityOp>> =
            vec![Arc::new(EqualityOp), Arc::new(SoundexOp), Arc::new(DigitsEqOp), syn];
        for op in &ops {
            for a in samples {
                let mut ka = Vec::new();
                op.derived_keys(a, &mut ka);
                assert!(!ka.is_empty(), "{} derives no key for {a:?}", op.name());
                for b in samples {
                    if op.matches(a, b) {
                        let mut kb = Vec::new();
                        op.derived_keys(b, &mut kb);
                        assert!(
                            ka.iter().any(|k| kb.contains(k)),
                            "{} matches {a:?}~{b:?} but keys {ka:?} / {kb:?} are disjoint",
                            op.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn elements_cover_matching_pairs() {
        let samples = [
            "",
            "Mark",
            "Marx",
            "10 Oak Street",
            "oak street 10",
            "Oak St.",
            "Clifford",
            "Cliford",
            "martha",
            "marhta",
        ];
        let ops: Vec<Arc<dyn SimilarityOp>> = vec![
            Arc::new(QgramOp::new(2, 0.8)),
            Arc::new(TokenJaccardOp::with_min(0.5)),
            Arc::new(JaroWinklerOp::with_min(0.9)),
        ];
        for op in &ops {
            let OpClass::Elements { min_ratio } = op.class() else {
                panic!("{} should use Elements", op.name());
            };
            for a in samples {
                for b in samples {
                    if !op.matches(a, b) {
                        continue;
                    }
                    let (mut ea, mut eb) = (Vec::new(), Vec::new());
                    let (sa, sb) = (op.index_elements(a, &mut ea), op.index_elements(b, &mut eb));
                    let (min, max) = (sa.min(sb), sa.max(sb));
                    assert!(
                        min as f64 + 1e-9 >= min_ratio * max as f64,
                        "{}: sizes {min}/{max} violate ratio {min_ratio} on {a:?}~{b:?}",
                        op.name()
                    );
                    if !ea.is_empty() || !eb.is_empty() {
                        assert!(
                            ea.iter().any(|e| eb.contains(e)),
                            "{} matches {a:?}~{b:?} but elements are disjoint",
                            op.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alias_op_delegates() {
        let inner: Arc<dyn SimilarityOp> = Arc::new(DamerauOp::with_threshold(0.75));
        let alias = AliasOp::new("≈d", inner.clone());
        assert_eq!(alias.name(), "≈d");
        assert!(alias.matches("Mark", "Marx"));
        assert_eq!(alias.matches("Mark", "Marx"), inner.matches("Mark", "Marx"));
        assert!((alias.similarity("Mark", "Marx") - 0.75).abs() < 1e-12);
        let mut reg = OpRegistry::new();
        reg.register(Arc::new(alias));
        assert!(reg.get("≈d").is_some());
    }
}
