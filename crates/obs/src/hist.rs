//! Log-bucketed histogram with exact nearest-rank percentile readout.
//!
//! An HdrHistogram-style layout: values below [`SUB_BUCKET_COUNT`] (32)
//! are stored exactly; above that, each power-of-two octave is split into
//! 32 sub-buckets, so the bucket lower bound under-reports a raw value by
//! at most 1/32 (≤ 3.2 % relative error). The crucial property for
//! testing is that [`LogHistogram::quantize`] is a **monotone** map:
//! sorting commutes with it over a multiset, so the nearest-rank
//! percentile computed from bucket counts equals `quantize(p)` applied to
//! the true percentile of the raw sorted samples — *exactly*, not
//! approximately. The proptest suite below holds the implementation to
//! that oracle.

/// Number of mantissa bits retained past the leading bit.
pub const SUB_BUCKET_BITS: u32 = 5;
/// Sub-buckets per octave; values below this are exact.
pub const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS;

/// Log-bucketed `u64` histogram. ~8 bytes per touched bucket; the bucket
/// array grows lazily toward the largest recorded value (max 1 920
/// buckets over the full `u64` range).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKET_COUNT {
            value as usize
        } else {
            let e = 63 - value.leading_zeros() as u64; // ≥ SUB_BUCKET_BITS
            let shift = e - u64::from(SUB_BUCKET_BITS);
            let sub = value >> shift; // in [32, 64)
            ((e - u64::from(SUB_BUCKET_BITS) + 1) * SUB_BUCKET_COUNT + (sub - SUB_BUCKET_COUNT))
                as usize
        }
    }

    /// Lower bound of the bucket at `index` (inverse of [`Self::index_of`]
    /// up to quantization).
    fn lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKET_COUNT {
            index
        } else {
            let e = index / SUB_BUCKET_COUNT + u64::from(SUB_BUCKET_BITS) - 1;
            let sub = index % SUB_BUCKET_COUNT + SUB_BUCKET_COUNT;
            sub << (e - u64::from(SUB_BUCKET_BITS))
        }
    }

    /// The value a recorded sample is rounded down to: exact below 32,
    /// otherwise the lower bound of its 1/32-wide log bucket. Monotone
    /// non-decreasing, `quantize(v) ≤ v`, and `v − quantize(v) < v/32`.
    pub fn quantize(value: u64) -> u64 {
        Self::lower_bound(Self::index_of(value))
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of raw (un-quantized) sample values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of raw sample values, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest raw sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest raw sample, or `None` when empty.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank percentile of the quantized sample multiset:
    /// the smallest quantized value whose cumulative count reaches
    /// `ceil(p/100 · count)`. Returns `None` when empty; `p` is clamped
    /// to `[0, 100]` and a rank of at least 1 is used so `p = 0` returns
    /// the quantized minimum.
    pub(crate) fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::lower_bound(idx));
            }
        }
        // Unreachable: cumulative counts always reach `rank ≤ count`.
        Some(Self::lower_bound(self.counts.len().saturating_sub(1)))
    }

    /// Merges another histogram's buckets into this one.
    pub fn absorb(&mut self, other: &LogHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Nearest-rank percentile of a raw sorted slice (the oracle).
    fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
        let n = sorted.len() as f64;
        let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn values_below_32_are_exact() {
        for v in 0..SUB_BUCKET_COUNT {
            assert_eq!(LogHistogram::quantize(v), v);
        }
    }

    #[test]
    fn bucket_boundaries_at_octave_edges() {
        // First octave past the exact range: stride 1 (still exact).
        assert_eq!(LogHistogram::quantize(32), 32);
        assert_eq!(LogHistogram::quantize(63), 63);
        // Second: [64, 128) has stride 2.
        assert_eq!(LogHistogram::quantize(64), 64);
        assert_eq!(LogHistogram::quantize(65), 64);
        assert_eq!(LogHistogram::quantize(66), 66);
        assert_eq!(LogHistogram::quantize(127), 126);
        // [128, 256) has stride 4.
        assert_eq!(LogHistogram::quantize(128), 128);
        assert_eq!(LogHistogram::quantize(131), 128);
        assert_eq!(LogHistogram::quantize(132), 132);
        // Powers of two are always bucket lower bounds.
        for e in 5..63 {
            let v = 1u64 << e;
            assert_eq!(LogHistogram::quantize(v), v);
            // Largest value of the previous octave maps below v.
            assert!(LogHistogram::quantize(v - 1) < v);
        }
        assert_eq!(LogHistogram::quantize(u64::MAX), (63u64) << 58);
    }

    #[test]
    fn quantization_error_bound() {
        for &v in &[
            1u64,
            31,
            32,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 3,
        ] {
            let q = LogHistogram::quantize(v);
            assert!(q <= v);
            assert!(v - q <= v / SUB_BUCKET_COUNT, "v={v} q={q}");
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = LogHistogram::new();
        h.record(7);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7));
        }
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn absorb_matches_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [1u64, 50, 900, 44, 12_345] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 77, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        a.absorb(&b);
        assert_eq!(a, all);
    }

    proptest! {
        #[test]
        fn percentile_matches_sorted_vec_oracle(
            values in prop::collection::vec(0u64..2_000_000, 1..200),
            p_raw in 0u64..1001,
        ) {
            let p = p_raw as f64 / 10.0; // 0.0..=100.0 in 0.1 steps
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // Monotone quantization ⇒ histogram percentile is EXACTLY the
            // quantized oracle percentile, never merely close.
            prop_assert_eq!(
                h.percentile(p),
                Some(LogHistogram::quantize(oracle_percentile(&sorted, p)))
            );
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.min(), sorted.first().copied());
            prop_assert_eq!(h.max(), sorted.last().copied());
        }

        #[test]
        fn quantize_is_monotone(a: u64, b: u64) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(LogHistogram::quantize(lo) <= LogHistogram::quantize(hi));
        }
    }
}
