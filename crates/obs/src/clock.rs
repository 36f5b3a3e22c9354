//! Dual clock: measured wall time and modeled simulator time.
//!
//! The serve runtime lives in two time domains at once. Work the host
//! actually performs (packing, decode math, merges) is measured on the
//! **wall** clock; work the simulator only *models* (interconnect
//! transfers, swap traffic, per-device compute at a modeled rate) carries
//! a duration in modeled seconds but occupies zero wall time. A
//! [`DualClock`] keeps one epoch for each domain so spans from both can
//! be laid out on separate, internally-consistent timelines in the same
//! trace: the wall timeline shows where host microseconds went, the
//! modeled timeline shows what the simulated cluster was doing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Paired wall/modeled clocks sharing one epoch.
///
/// Wall time is `Instant`-based and read-only; modeled time is an atomic
/// nanosecond counter advanced explicitly by whoever owns the model
/// (the serve session, after it computes a step's modeled cost).
#[derive(Debug)]
pub struct DualClock {
    epoch: Instant,
    sim_ns: AtomicU64,
}

impl Default for DualClock {
    fn default() -> Self {
        DualClock::new()
    }
}

impl DualClock {
    /// Starts both clocks at zero (wall epoch = now).
    pub(crate) fn new() -> Self {
        DualClock {
            epoch: Instant::now(),
            sim_ns: AtomicU64::new(0),
        }
    }

    /// Microseconds of wall time elapsed since the clock was created.
    pub fn wall_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1_000.0
    }

    /// Advances the modeled clock by `seconds` (clamped at ≥ 0) and
    /// returns the interval `(begin_us, end_us)` it covered.
    pub fn advance_sim_s(&self, seconds: f64) -> (f64, f64) {
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round() as u64
        } else {
            0
        };
        let begin = self.sim_ns.fetch_add(ns, Ordering::Relaxed);
        (begin as f64 / 1_000.0, (begin + ns) as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_is_monotone() {
        let c = DualClock::new();
        let a = c.wall_us();
        let b = c.wall_us();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn sim_advances_by_requested_amount() {
        let c = DualClock::new();
        let (b0, e0) = c.advance_sim_s(0.001); // 1 ms
        assert_eq!(b0, 0.0);
        assert_eq!(e0, 1_000.0);
        let (b1, e1) = c.advance_sim_s(0.5e-6); // 0.5 µs
        assert_eq!(b1, 1_000.0);
        assert_eq!(e1, 1_000.5);
    }

    #[test]
    fn sim_ignores_nonpositive_and_nonfinite() {
        let c = DualClock::new();
        for seconds in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(c.advance_sim_s(seconds), (0.0, 0.0));
        }
    }
}
