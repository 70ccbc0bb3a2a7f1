//! Latency histograms: exact nanoseconds below 512 ns, then 256
//! log-linear sub-buckets per octave (≤ 0.4% relative bucket width).
//!
//! [`Hist`] is owned by one thread (plain adds on the measured path);
//! [`AtomicHist`] is shared by whatever threads call into a traced layer
//! (relaxed adds). Quantiles interpolate by rank inside the bucket that
//! holds them, treating each bucket as spread evenly over its width, so
//! a median is a measured figure with all its digits rather than a
//! bucket edge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Values below this are their own bucket (1 ns wide).
const EXACT: u64 = 512;
/// Sub-buckets per octave at and above `EXACT`.
const SUB: u64 = 256;
const SUB_BITS: u32 = SUB.trailing_zeros();
const EXACT_BITS: u32 = EXACT.trailing_zeros();
/// Octaves covered above `EXACT`: up to 2^40 ns (≈ 18 minutes).
const OCTAVES: u64 = 40 - EXACT_BITS as u64;
const BUCKETS: usize = (EXACT + OCTAVES * SUB) as usize;

fn bucket_of(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let octave = u64::from(63 - ns.leading_zeros()).min(39);
    let shift = octave as u32 - SUB_BITS;
    let mantissa = (ns >> shift).min(2 * SUB - 1) - SUB;
    (EXACT + (octave - u64::from(EXACT_BITS)) * SUB + mantissa) as usize
}

/// `(low, width)` of a bucket, in nanoseconds.
fn bucket_span(bucket: usize) -> (f64, f64) {
    let b = bucket as u64;
    if b < EXACT {
        return (b as f64, 1.0);
    }
    let octave = (b - EXACT) / SUB + u64::from(EXACT_BITS);
    let mantissa = (b - EXACT) % SUB + SUB;
    let shift = octave as u32 - SUB_BITS;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// A single-owner histogram.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(nanos(elapsed));
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// What was recorded after `earlier`, a snapshot of this histogram.
    pub fn since(&self, earlier: &Hist) -> Hist {
        Hist {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, then)| now - then)
                .collect(),
            total: self.total - earlier.total,
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (0 for an empty histogram).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 >= rank {
                let (low, width) = bucket_span(bucket);
                return low + width * (rank - below as f64) / count as f64;
            }
            below += count;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (low, width) = bucket_span(last);
        low + width
    }
}

/// A histogram shared between threads.
#[derive(Debug)]
pub struct AtomicHist {
    counts: Vec<AtomicU64>,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl AtomicHist {
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(nanos(elapsed));
    }

    pub fn record_ns(&self, ns: u64) {
        // A statistic: publishes nothing else, so Relaxed.
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the current counts into `into`.
    pub fn drain_into(&self, into: &mut Hist) {
        for (bucket, count) in self.counts.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            into.counts[bucket] += count;
            into.total += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_their_values() {
        let mut last = 0;
        for ns in (0..100_000u64).chain([1 << 20, (1 << 30) + 12345, u64::MAX]) {
            let bucket = bucket_of(ns);
            assert!(bucket >= last, "{ns}");
            last = bucket;
            let (low, width) = bucket_span(bucket);
            if ns < 1 << 40 {
                assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}");
                assert!(width / low.max(1.0) <= 1.0 / SUB as f64 + 1e-12 || ns < EXACT);
            }
        }
        assert!(last < BUCKETS);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut hist = Hist::default();
        for ns in 1..=1000 {
            hist.record_ns(ns);
        }
        let p50 = hist.quantile_ns(0.5);
        assert!((p50 - 500.0).abs() < 3.0, "{p50}");
        let p99 = hist.quantile_ns(0.99);
        assert!((p99 - 990.0).abs() < 5.0, "{p99}");
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }
}
