//! Lock-free log2-bucketed latency histograms.
//!
//! A [`Histogram`] is 65 relaxed counters (one per power-of-two magnitude
//! of a `u64`, plus a zero bucket) and a running sum. [`Histogram::record`]
//! is exactly two relaxed `fetch_add`s — cheap enough for protocol slow
//! paths (miss service, fences), and never present on hit paths at all.
//! Everything with actual arithmetic — [`merge`](HistogramSnapshot::merge),
//! [`percentile`](HistogramSnapshot::percentile), rendering — operates on
//! plain [`HistogramSnapshot`]s taken after the threads of interest joined.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: bucket 0 holds the value 0; bucket `k` (1..=64) holds
/// values in `[2^(k-1), 2^k - 1]`.
pub const BUCKETS: usize = 65;

/// Upper edge of bucket `k` — the value [`HistogramSnapshot::percentile`]
/// reports for samples that landed there.
#[inline]
pub fn bucket_upper_edge(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

/// The bucket a value lands in.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// A concurrently-recordable log2 histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample: two relaxed atomic adds, nothing else.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// [`Self::record`] for a histogram with a single writer: the same
    /// two counters, each bumped by a plain load and store. Concurrent
    /// writers would lose samples.
    #[inline]
    pub fn record_owned(&self, value: u64) {
        for (cell, by) in [(&self.counts[bucket_of(value)], 1), (&self.sum, value)] {
            cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; BUCKETS],
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Fold another snapshot into this one (per-node shards → cluster
    /// totals, or cross-run aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// The `p`-th percentile (`0.0..=100.0`), reported as the **upper edge**
    /// of the bucket holding the sample of that rank — i.e. exact to log2
    /// resolution: the true sample `v` satisfies `v <= percentile(p) < 2v`
    /// (for `v > 0`). Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Rank of the p-th percentile sample, 1-based, nearest-rank method.
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let rank = rank.min(n);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge(k);
            }
        }
        bucket_upper_edge(BUCKETS - 1)
    }

    /// Upper edge of the highest non-empty bucket (log2-resolution max).
    pub fn max_edge(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_upper_edge)
            .unwrap_or(0)
    }

    /// Compact one-line text rendering: count, mean, key percentiles.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        format!(
            "n={:<8} mean={:<10.0} p50={:<8} p90={:<8} p99={:<10} max<={}",
            self.count(),
            self.mean(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.max_edge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper_edge(k)), k, "upper edge of {k}");
        }
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1011);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[bucket_of(5)], 2);
        h.reset();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn empty_histogram_is_calm() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.max_edge(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.render(), "n=0");
    }

    // `merge` + `percentile` agree with a sorted-vector oracle: the
    // reported percentile is exactly the upper edge of the bucket that the
    // oracle's nearest-rank sample lands in.
    proptest! {
        fn percentile_matches_sorted_oracle(
            a in proptest::collection::vec(any::<u64>(), 1..200),
            b in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let ha = Histogram::new();
            let hb = Histogram::new();
            for &v in &a { ha.record(v >> 32); }
            for &v in &b { hb.record(v >> 32); }
            let mut merged = ha.snapshot();
            merged.merge(&hb.snapshot());

            let mut oracle: Vec<u64> =
                a.iter().chain(b.iter()).map(|&v| v >> 32).collect();
            oracle.sort_unstable();
            prop_assert_eq!(merged.count(), oracle.len() as u64);
            prop_assert_eq!(merged.sum, oracle.iter().sum::<u64>());
            for p in [0.0f64, 10.0, 50.0, 90.0, 99.0, 100.0] {
                let rank = ((p / 100.0) * oracle.len() as f64).ceil().max(1.0) as usize;
                let sample = oracle[rank.min(oracle.len()) - 1];
                prop_assert_eq!(
                    merged.percentile(p),
                    bucket_upper_edge(bucket_of(sample))
                );
            }
            prop_assert_eq!(
                merged.max_edge(),
                bucket_upper_edge(bucket_of(*oracle.last().unwrap()))
            );
        }
    }

    /// Parallel recording loses no counts and no sum.
    #[test]
    fn concurrent_recording_is_exact() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), threads * per);
        let expect: u64 = (0..threads)
            .map(|t| (0..per).map(|i| t * 1_000_000 + i).sum::<u64>())
            .sum();
        assert_eq!(s.sum, expect);
    }
}
