//! Percentile selection: a fixed-size log-linear latency histogram for
//! per-operation timings (millions of samples, constant memory, so the
//! benchmark's own bookkeeping does not move `rss_peak_mb`) and exact
//! nearest-rank selection for short sample lists such as pause walls.
//!
//! Every percentile reports how many samples lie beyond it; a percentile
//! is only *supported* when at least [`MIN_BEYOND`] samples do.

/// Samples that must lie beyond a percentile for it to be reported as
/// supported by the data.
pub const MIN_BEYOND: u64 = 10;

/// A percentile read from a sample set.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Percentile {
    /// The selected value (same unit as the samples).
    pub value: f64,
    /// Number of samples in the set.
    pub samples: u64,
    /// Samples strictly beyond the selected rank.
    pub beyond: u64,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples.
pub fn nearest_rank(n: u64, q: f64) -> u64 {
    assert!(n > 0, "percentile of an empty set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Exact nearest-rank percentile of `samples` (sorted internally).
pub fn exact_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    let rank = nearest_rank(n, q);
    Some(Percentile {
        value: sorted[(rank - 1) as usize],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of a list (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sub-buckets per power of two: values are kept to 1/256 (0.4%)
/// relative resolution; values below 256 are exact.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent kept; longer values land in the last bucket.
const MAX_EXP: u32 = 44;
const BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear histogram of non-negative integer samples (nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB + (exp - SUB_BITS) as u64 * SUB + sub) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let octave = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    let shift = octave as u32;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1u64 << shift))
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile `q`. The value is interpolated inside the
    /// selected bucket by rank, so it carries the histogram's full
    /// resolution instead of snapping to a bucket edge.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(self.total, q);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let within = (rank - below) as f64 - 0.5;
                let value = lo as f64 + (hi - lo) as f64 * within / c as f64;
                return Some(Percentile {
                    value,
                    samples: self.total,
                    beyond: self.total - rank,
                });
            }
            below += c;
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(100, 0.5), 50);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(101, 0.99), 100);
        assert_eq!(nearest_rank(1, 0.0), 1);
        assert_eq!(nearest_rank(7, 1.0), 7);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = exact_percentile(&samples, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = exact_percentile(&short, 0.99).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.supported(), "9 samples beyond p99 is too few");
        let p95 = exact_percentile(&short, 0.95).unwrap();
        assert!(p95.supported(), "p95 of 999 keeps {} beyond", p95.beyond);
        let tiny: Vec<f64> = (1..=15).map(f64::from).collect();
        assert!(!exact_percentile(&tiny, 0.5).unwrap().supported());
    }

    #[test]
    fn exact_percentile_is_order_independent() {
        let a = exact_percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5).unwrap();
        assert_eq!(a.value, 3.0);
        assert_eq!(exact_percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn buckets_round_trip() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1000,
            123_456,
            9_999_999_999,
        ] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            assert!((hi - lo) as f64 <= (v as f64 / SUB as f64).max(1.0) + 1e-9);
        }
        for i in 1..BUCKETS {
            assert_eq!(bucket_bounds(i - 1).1, bucket_bounds(i).0, "gap at {i}");
        }
    }

    #[test]
    fn histogram_percentile_tracks_exact_selection() {
        let mut h = Histogram::default();
        let mut samples = Vec::new();
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 500 + (x >> 40) % 200_000;
            h.record(v);
            samples.push(v as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            let approx = h.percentile(q).unwrap();
            let exact = exact_percentile(&samples, q).unwrap();
            assert_eq!(approx.beyond, exact.beyond);
            let err = (approx.value - exact.value).abs() / exact.value;
            assert!(err < 0.01, "q={q}: {} vs {}", approx.value, exact.value);
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.total, 40_000);
        assert_eq!(Histogram::default().percentile(0.5), None);
    }
}
