//! Order statistics for benchmark samples.
//!
//! Every timing the benchmark reports is a median with its spread (the
//! distance between the first and third quartile) and its sample count.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the acceptance driver computes
//! over ten runs, and one rule everywhere keeps `compare` and the driver
//! in agreement.

/// Median, quartiles and sample count of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range, `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// IQR as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile of sorted `v` by the exclusive method: position
/// `p·(n+1)`, interpolating between the neighbours `j` and `j+1` with `j`
/// clamped to `1..n-1` — so, like Python, the outer quartiles of a very
/// small sample extrapolate past its extremes.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    v[j - 1] + delta * (v[j] - v[j - 1])
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    })
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// The `p`-quantile of `values`, by the same rule as the quartiles — so
/// `percentile(v, 0.5)` is the median `summarize` reports (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), p)
}

/// The percentile a tail metric reads when `readings` distinct readings
/// are guaranteed: `p` itself if at least ten of them lie beyond it (100
/// readings for p90, 1000 for p99), else the median.
///
/// A percentile with a handful of readings beyond it is a maximum in
/// disguise and moves from run to run by more than any bound. The choice
/// is made from the workload's shape (its guaranteed reading count), never
/// from the sample, so one metric on one workload is one statistic on
/// every run and every host. Distinct readings are what count: requests
/// served by the same step report the same instant, which is one
/// measurement however many requests share it.
pub fn supported_percentile(p: f64, readings: usize) -> f64 {
    // The epsilon keeps 100 × (1 − 0.9) on the right side of 10.
    if readings as f64 * (1.0 - p) >= 10.0 - 1e-9 {
        p
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_percentiles_follow_the_guaranteed_reading_count() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert!((percentile(&v, 0.9) - 90.9).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 99.99).abs() < 1e-9);
        assert_eq!(percentile(&v, 0.5), median(&v));
        assert_eq!(percentile(&[], 0.9), 0.0);
        // Ten readings beyond p99 need 1000 readings, beyond p90 100.
        assert_eq!(supported_percentile(0.99, 1000), 0.99);
        assert_eq!(supported_percentile(0.99, 999), 0.5);
        assert_eq!(supported_percentile(0.9, 100), 0.9);
        assert_eq!(supported_percentile(0.9, 99), 0.5);
        assert_eq!(supported_percentile(0.9, 0), 0.5);
    }
}
