//! Streaming statistics via Welford's algorithm.
//!
//! The variance analysis in §3.2 of the paper is all about first and
//! second moments of elapsed-time distributions; simulated reproductions
//! fold millions of trials through this accumulator.

/// Numerically-stable running mean / variance / extrema.
///
/// ```
/// use blast_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The empty accumulator — extrema at ±∞, not the all-zero value a
/// derive would give (whose `min` could never rise above 0).
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Absorb every sample of another accumulator (parallel merge,
    /// Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance `σ² = Σ(x−µ)²/n` (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance `s² = Σ(x−µ)²/(n−1)` (0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s/√n`.
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_stddev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation `σ/µ` (population), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON {
            0.0
        } else {
            self.population_stddev() / self.mean()
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl core::fmt::Display for OnlineStats {
    /// `n=8 mean=5.000 σ=2.000 min=2.000 max=9.000` — the one-line form
    /// metric dashboards (e.g. the `blast-node` summary) print.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.n == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.3} σ={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.population_stddev(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        let mut s = OnlineStats::default();
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        for x in [96.0, 512.0, 128.0] {
            s.push(x);
        }
        assert_eq!(s.min(), 96.0, "not the 0.0 a derived Default starts from");
        assert_eq!(s.max(), 512.0);
    }

    #[test]
    fn empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s: OnlineStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_moments() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!(close(s.mean(), 5.0));
        assert!(close(s.population_variance(), 4.0));
        assert!(close(s.population_stddev(), 2.0));
        assert!(close(s.sample_variance(), 32.0 / 7.0));
        assert!(close(s.cv(), 0.4));
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let seq: OnlineStats = all.iter().copied().collect();
        let mut a: OnlineStats = all[..300].iter().copied().collect();
        let b: OnlineStats = all[300..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!(close(a.mean(), seq.mean()));
        assert!(close(a.population_variance(), seq.population_variance()));
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert!(close(s.mean(), before.mean()));
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert!(close(empty.mean(), before.mean()));
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Naive sum-of-squares catastrophically cancels here.
        let base = 1e9;
        let s: OnlineStats = [base + 4.0, base + 7.0, base + 13.0, base + 16.0]
            .into_iter()
            .collect();
        assert!(close(s.mean(), base + 10.0));
        assert!(close(s.population_variance(), 22.5));
    }

    #[test]
    fn display_formats_summary_line() {
        assert_eq!(OnlineStats::new().to_string(), "n=0");
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        let line = s.to_string();
        assert!(line.contains("n=8"), "{line}");
        assert!(line.contains("mean=5.000"), "{line}");
        assert!(line.contains("σ=2.000"), "{line}");
    }

    #[test]
    fn standard_error_shrinks_with_n() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push((i % 10) as f64);
        }
        let se100 = s.standard_error();
        for i in 0..9900 {
            s.push((i % 10) as f64);
        }
        assert!(s.standard_error() < se100 / 5.0);
    }
}
