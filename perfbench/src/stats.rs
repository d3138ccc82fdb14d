//! Percentiles over latency samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; a percentile with
//! fewer samples past it is one outlier away from a different number.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may name as a tail, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank index (0-based) of the `q`-th percentile of `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The tolerance keeps float error (0.999 * 10_000 = 9990.000…02) from
    // pushing an exact rank up by one.
    let k = ((q / 100.0) * n as f64 - 1e-6).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Samples strictly beyond the `q`-th percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// The highest of the reportable tail percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAILS.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A latency sample, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-th nearest-rank percentile.
    pub fn percentile(&self, q: f64) -> f64 {
        self.sorted[rank(self.sorted.len(), q)]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The `q`-th percentile, or an error naming `what` when the sample is
    /// too small for `q` to have [`MIN_BEYOND`] samples beyond it.
    pub fn tail(&self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.sorted.len();
        if n == 0 || beyond(n, q) < MIN_BEYOND {
            return Err(format!(
                "{what}: {n} samples do not support p{q} (need {MIN_BEYOND} beyond it)"
            ));
        }
        Ok(self.percentile(q))
    }

    /// One line for the human-readable log: median, highest supported
    /// tail, and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        match highest_supported(self.len()) {
            Some(q) => format!(
                "p50 {:.3} {unit}, p{q} {:.3} {unit} (n={})",
                self.median(),
                self.percentile(q),
                self.len()
            ),
            None if !self.is_empty() => {
                format!("p50 {:.3} {unit} (n={})", self.median(), self.len())
            }
            None => "no samples".to_owned(),
        }
    }
}

/// A fixed-size log-linear histogram: 16 buckets per power of two, so a
/// percentile is known to within 4.4% however many values are recorded.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 64 * Self::PER_OCTAVE],
            total: 0,
        }
    }
}

impl Histogram {
    const PER_OCTAVE: usize = 16;

    fn bucket(&self, value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        ((value.log2() * Self::PER_OCTAVE as f64) as usize + 1).min(self.counts.len() - 1)
    }

    pub fn record(&mut self, value: f64) {
        let bucket = self.bucket(value);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Upper edge of the bucket holding the `q`-th nearest-rank
    /// percentile; infinite when nothing was recorded.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::INFINITY;
        }
        let target = rank(self.total as usize, q) as u64 + 1;
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return (bucket as f64 / Self::PER_OCTAVE as f64).exp2();
            }
        }
        unreachable!("the counts sum to the total")
    }
}

/// Median of a few values (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(rank(100, 50.0), 49);
        assert_eq!(rank(100, 99.0), 98);
        assert_eq!(rank(1, 99.0), 0);
        assert_eq!(rank(3, 0.0), 0);
        assert_eq!(rank(3, 100.0), 2);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn histogram_percentiles_bound_the_exact_ones() {
        let mut histogram = Histogram::default();
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        for &v in &values {
            histogram.record(v);
        }
        let exact = Sample::new(values);
        for q in [50.0, 90.0, 99.0] {
            let (approx, truth) = (histogram.percentile(q), exact.percentile(q));
            assert!(
                approx >= truth && approx <= truth * 1.045,
                "p{q}: {approx} vs {truth}"
            );
        }
        let mut merged = Histogram::default();
        merged.merge(&histogram);
        assert_eq!(merged.percentile(50.0), histogram.percentile(50.0));
        assert_eq!(Histogram::default().percentile(50.0), f64::INFINITY);
    }

    #[test]
    fn tail_refuses_unsupported_percentiles() {
        let small = Sample::new((0..500).map(f64::from).collect());
        assert!(small.tail(99.0, "x").is_err());
        let large = Sample::new((0..1000).rev().map(f64::from).collect());
        assert_eq!(large.tail(99.0, "x").unwrap(), 989.0);
        assert_eq!(large.median(), 499.0);
    }
}
