//! Fixed-bucket log2 latency histograms.
//!
//! Values land in power-of-two buckets: bucket 0 holds exactly 0, bucket `b`
//! (for `b ≥ 1`) holds `[2^(b-1), 2^b)`, and the last bucket absorbs
//! everything above its lower bound.  With 40 buckets the top bucket starts
//! at `2^38` — about 76 hours when the unit is microseconds — so the range
//! covers any latency this service can produce.  The price is quantisation:
//! [`HistogramSnapshot::percentile`] reports a bucket *upper bound*, i.e. at
//! most 2× the true value.  Recording is one relaxed `fetch_add`; snapshots
//! merge like counters (element-wise add), so per-shard or per-run histograms
//! aggregate exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (see the module docs for the bucket layout).
pub const NUM_BUCKETS: usize = 40;

/// Index of the bucket `value` lands in.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive `(low, high)` value range of bucket `bucket`.
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < NUM_BUCKETS);
    if bucket == 0 {
        (0, 0)
    } else if bucket == NUM_BUCKETS - 1 {
        (1 << (bucket - 1), u64::MAX)
    } else {
        (1 << (bucket - 1), (1 << bucket) - 1)
    }
}

/// A concurrent log2 histogram; share it and [`record`](Histogram::record)
/// from any thread.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
        }
    }

    /// Counts one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.snapshot().count())
            .finish()
    }
}

/// An immutable copy of a [`Histogram`]; merges like a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`] for the bucket a value falls in).
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; NUM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Element-wise (counter-style) merge of another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Nearest-rank percentile (`p` in `0.0..=100.0`), reported as the
    /// matched bucket's upper bound — an overestimate of at most 2×.
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(bucket).1;
            }
        }
        bucket_bounds(NUM_BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        for b in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b);
            if b < NUM_BUCKETS - 1 {
                assert_eq!(bucket_of(hi), b);
            }
        }
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.percentile(50.0), 1, "p50 is in the value-1 bucket");
        assert_eq!(snap.percentile(100.0), 1023, "p100 rounds 1000 up to its bucket cap");
        assert!(snap.percentile(100.0) >= 1000);
        assert_eq!(HistogramSnapshot::default().percentile(99.0), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(500);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.buckets[bucket_of(5)], 2);
        assert_eq!(merged.buckets[bucket_of(500)], 1);
    }
}
