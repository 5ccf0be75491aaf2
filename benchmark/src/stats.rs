//! Order statistics for rep timings and the log2 histogram of span
//! durations.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every metric has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so the spreads this
/// benchmark prints are the spreads the driver computes. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median with quartiles and the sample count: how every timing is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A value measured once (exact counts, peak memory).
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Buckets of a [`Log2Hist`]: bucket 0 holds the value 0, bucket `k` holds
/// `2^(k-1) ..= 2^k - 1`.
pub const LOG2_BUCKETS: usize = 65;

/// A log2 histogram of unsigned durations; recording is one
/// leading-zero count and one increment.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Hist {
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Upper edge of the bucket holding the `p`-quantile (`0 < p <= 1`):
    /// at least that share of the recorded values are no larger. 0 for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match k {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << k) - 1,
                };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).spread(), 0.0);
    }

    #[test]
    fn log2_buckets_and_percentiles() {
        let mut h = Log2Hist::default();
        assert_eq!(h.percentile(0.99), 0);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[10], 1); // 1000 in 512..=1023
        assert_eq!(h.count(), 8);
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(1.0), 1023);
        let mut big = Log2Hist::default();
        big.record(u64::MAX);
        assert_eq!(big.percentile(0.99), u64::MAX);
        h.merge(&big);
        assert_eq!(h.count(), 9);
    }
}
