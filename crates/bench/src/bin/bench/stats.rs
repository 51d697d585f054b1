//! Order statistics, the harness PRNG and the input digest.

fn ascending(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    sorted
}

/// The `p`-quantile of ascending `sorted` by linear interpolation between
/// closest ranks: the median is the middle value (or the mean of the two
/// middle ones); for five repetitions the quartiles are the 2nd and 4th.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = (sorted.len() - 1) as f64 * p;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One reported value: the median over the repetitions, with the
/// run-to-run spread beside it — the extremes, and the quartiles that
/// `compare` judges by (one disturbed repetition out of five moves an
/// extreme, not a quartile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// Repetitions the median was taken over.
    pub reps: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = ascending(values);
        Summary {
            median: quantile(&sorted, 0.5),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            reps: values.len(),
        }
    }

    /// `(q3 − q1) / median`: the relative run-to-run spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 1`) of ascending
/// `sorted`, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// strictly beyond it — a tail read off a handful of samples is noise.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of ascending `sorted` latencies, in the unit they are in.
pub fn median_ns(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// splitmix64: the harness's own PRNG, so probe order, the skew split
/// and write perturbations depend on `--seed` alone and never on a
/// library generator a later change may edit.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// FNV-1a (64-bit) over length-prefixed fields: the `inputs_digest`.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// `None` and `Some("")` digest differently; field boundaries
    /// cannot shift.
    pub fn text(&mut self, text: Option<&str>) {
        match text {
            None => self.bytes(&[0]),
            Some(s) => {
                self.bytes(&[1]);
                self.word(s.len() as u64);
                self.bytes(s.as_bytes());
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repetitions() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let s = Summary::of(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!((s.median, s.min, s.max, s.reps), (11.0, 9.0, 30.0, 5));
        // One outlier repetition moves the maximum, not the quartiles.
        assert_eq!((s.q1, s.q3), (10.0, 12.0));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: rank 990, ten samples beyond — just enough.
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        // p90 of 100 leaves exactly ten; p90 of 99 does not.
        assert_eq!(percentile(&sorted[..100], 0.90), Some(90));
        assert_eq!(percentile(&sorted[..99], 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median_ns(&sorted[..4]), 2.5);
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8).map(|_| 0).scan(SplitMix(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).map(|_| 0).scan(SplitMix(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).map(|_| 0).scan(SplitMix(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut p = SplitMix(1).permutation(100);
        assert_ne!(p, (0..100).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn digest_separates_null_empty_and_boundaries() {
        let of = |fields: &[Option<&str>]| {
            let mut d = Digest::default();
            for f in fields {
                d.text(*f);
            }
            d.finish()
        };
        assert_ne!(of(&[None]), of(&[Some("")]));
        assert_ne!(of(&[Some("ab"), Some("c")]), of(&[Some("a"), Some("bc")]));
        assert_eq!(of(&[Some("x")]), of(&[Some("x")]));
    }
}
