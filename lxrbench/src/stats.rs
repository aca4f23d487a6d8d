//! Order statistics over latency samples, and the fixed-size latency
//! histogram the measured phase records into.

/// Percentiles the benchmark may report, lowest first.
pub const LADDER: &[f64] = &[50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples at least this many must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`
/// percentile.
pub fn samples_beyond(n: u64, pct: f64) -> u64 {
    n - rank(n, pct) - 1
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` if even the median lacks them.
pub fn tail_percentile(n: u64) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// Zero-based nearest-rank index of `pct` among `n > 0` samples.
fn rank(n: u64, pct: f64) -> u64 {
    // The epsilon keeps products like 0.999 * 10_000 from rounding up a rank.
    let r = ((pct / 100.0) * n as f64 - 1e-9).ceil() as u64;
    r.clamp(1, n) - 1
}

/// The nearest-rank `pct` percentile of ascending `sorted` samples (zero
/// when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len() as u64, pct) as usize]
}

/// The median of `values` (zero when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median over `windows` of their nearest-rank `pct` percentile,
/// skipping empty windows (zero when every window is empty).
pub fn median_percentile(windows: &[Histogram], pct: f64) -> f64 {
    let per_window: Vec<f64> = windows.iter().filter(|h| h.count() > 0).map(|h| h.percentile(pct)).collect();
    median(&per_window)
}

/// Sub-buckets per power of two: values are kept to within 1/1024 of
/// themselves.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns (about 18 minutes) are kept apart; larger ones
/// share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 2) as u64 * SUB) as usize;

/// A log-linear latency histogram of fixed size (256 KiB).  Its memory is
/// allocated and touched when it is made, so recording never grows the
/// process's resident set: the measured phase's peak resident memory is
/// the runtime's, not the benchmark's bookkeeping.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("total", &self.total).finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram, its pages already resident.
    pub fn new() -> Histogram {
        let mut counts = vec![0u64; BUCKETS];
        // Zeroed allocations come straight from the kernel untouched; write
        // every page so it is resident now rather than when first counted.
        for c in counts.iter_mut().step_by(512) {
            // SAFETY: `c` is a valid, aligned, exclusive reference.
            unsafe { std::ptr::write_volatile(c, 0) };
        }
        Histogram { counts, total: 0 }
    }

    fn index(v: u64) -> usize {
        let v = v.min((1 << (MAX_BITS + 1)) - 1);
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (v >> shift) - SUB) as usize
    }

    /// The values `[low, high)` bucket `i` holds.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, i + 1);
        }
        let shift = i / SUB - 1;
        let low = (i % SUB + SUB) << shift;
        (low, low + (1 << shift))
    }

    /// Counts one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `pct` percentile (zero when empty), placed inside
    /// its bucket by the rank's position among the bucket's values.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let r = rank(self.total, pct);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if r < below + c {
                let (low, high) = Self::bounds(i);
                return low as f64 + (high - low) as f64 * ((r - below) as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("the rank lies below the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_exact_ones() {
        let mut values: Vec<u64> =
            (0..100_000u64).map(|i| (i * 7_919 % 100_003).pow(2) / 3 + i % 50).collect();
        let mut h = Histogram::new();
        values.iter().for_each(|&v| h.record(v));
        values.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        for pct in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
            let exact = percentile(&values, pct) as f64;
            let got = h.percentile(pct);
            assert!((got - exact).abs() <= exact / SUB as f64 + 1.0, "p{pct}: {got} vs {exact}");
        }
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            let (low, high) = Histogram::bounds(i);
            assert_eq!(Histogram::index(low), i);
            assert_eq!(Histogram::index(high - 1), i);
            assert_eq!(Histogram::bounds(i + 1).0, high);
        }
    }

    #[test]
    fn merged_histograms_count_both() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        (1..=500).for_each(|v| a.record(v));
        (501..=1_000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 1_000);
        assert!((a.percentile(50.0) - 500.5).abs() < 1e-9);
    }

    #[test]
    fn one_noisy_window_does_not_move_the_median_percentile() {
        let mut windows: Vec<Histogram> = (0..5).map(|_| Histogram::new()).collect();
        for (w, h) in windows.iter_mut().enumerate() {
            // The p99 of window w is 990 + w, except in window 2, whose
            // slowest tenth is 100 times slower.
            let scale = if w == 2 { 100 } else { 1 };
            (1..=1_000u64).for_each(|v| h.record(if v > 900 { v * scale } else { v } + w as u64));
        }
        // Windows 0, 1, 3 and 4 give 990, 991, 993 and 994; window 2 gives 99 002.
        let p99 = median_percentile(&windows, 99.0);
        assert!((p99 - 993.0).abs() <= 1.0, "{p99}");
        windows.push(Histogram::new());
        assert_eq!(median_percentile(&windows, 99.0), p99, "empty windows are skipped");
        assert_eq!(median_percentile(&[Histogram::new()], 99.0), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
