//! Per-request lifecycle tracking: submit → admit → first-token →
//! complete, with preemption/resume and fault-recovery episodes
//! attributed to the request they delayed.
//!
//! The tracker turns the serve loop's per-step callbacks into the
//! latency distributions a service operator actually buys:
//!
//! * **TTFT** — time to first token, in scheduler steps and wall seconds;
//! * **TBT** — time between tokens (inter-token gaps after the first);
//! * **queue wait** — submit → first admission, in steps;
//! * **goodput** — per-request generated tokens per wall second, plus an
//!   aggregate over the whole run.
//!
//! One subtlety: fault recovery **replays** steps, re-deriving tokens the
//! stream already delivered. [`LifecycleTracker::on_token`] ignores any
//! token at a step index at or below the request's last counted step, so
//! replays never double-count or produce negative gaps.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;

/// Summary statistics of one distribution. All plain fields so the
/// containing summary stays `Copy`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: u64,
    /// Median (nearest-rank over quantized samples).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum of raw samples.
    pub max: f64,
    /// Exact mean of raw samples.
    pub mean: f64,
}

impl Quantiles {
    /// Extracts quantiles from a histogram, multiplying every statistic
    /// by `scale` (e.g. `1e-6` to turn microsecond samples into seconds).
    pub(crate) fn from_hist(h: &LogHistogram, scale: f64) -> Self {
        Quantiles {
            count: h.count(),
            p50: h.percentile(50.0).unwrap_or(0) as f64 * scale,
            p90: h.percentile(90.0).unwrap_or(0) as f64 * scale,
            p99: h.percentile(99.0).unwrap_or(0) as f64 * scale,
            max: h.max().unwrap_or(0) as f64 * scale,
            mean: h.mean() * scale,
        }
    }
}

/// SLO-level rollup of a serve run. Zeroed when lifecycle tracking is
/// disabled. `Copy` so it can ride inside `ServeSummary`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloSummary {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted at least once.
    pub admitted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that terminally failed.
    pub failed: u64,
    /// Generated tokens counted (replays excluded).
    pub tokens: u64,
    /// Preemption episodes across all requests.
    pub preemptions: u64,
    /// Resume (re-admission after preemption) episodes.
    pub resumes: u64,
    /// Fault-recovery episodes attributed to requests.
    pub recoveries: u64,
    /// Time to first token, in scheduler steps.
    pub ttft_steps: Quantiles,
    /// Time to first token, in wall seconds.
    pub ttft_s: Quantiles,
    /// Inter-token gap, in scheduler steps.
    pub tbt_steps: Quantiles,
    /// Inter-token gap, in wall seconds.
    pub tbt_s: Quantiles,
    /// Submit → first admission, in scheduler steps.
    pub queue_wait_steps: Quantiles,
    /// Per-request goodput (tokens per wall second), over completed
    /// requests.
    pub goodput_tok_s: Quantiles,
    /// Aggregate goodput: all counted tokens over the wall interval from
    /// first submit to last completion.
    pub aggregate_goodput_tok_s: f64,
}

#[derive(Clone, Debug)]
struct ReqLife {
    submit_step: usize,
    submit_us: f64,
    admitted: bool,
    preempted: bool,
    first_token_step: Option<usize>,
    last_token_step: usize,
    last_token_us: f64,
    tokens: u64,
    done: bool,
}

/// Tracks request lifecycles and aggregates SLO histograms.
#[derive(Clone, Debug, Default)]
pub struct LifecycleTracker {
    enabled: bool,
    reqs: BTreeMap<u64, ReqLife>,
    ttft_steps: LogHistogram,
    ttft_us: LogHistogram,
    tbt_steps: LogHistogram,
    tbt_us: LogHistogram,
    queue_wait_steps: LogHistogram,
    goodput_tok_s: LogHistogram,
    submitted: u64,
    admitted: u64,
    completed: u64,
    failed: u64,
    tokens: u64,
    preemptions: u64,
    resumes: u64,
    recoveries: u64,
    first_submit_us: Option<f64>,
    last_complete_us: f64,
}

impl LifecycleTracker {
    /// A tracker that records nothing.
    pub fn disabled() -> Self {
        LifecycleTracker::default()
    }

    /// An enabled tracker.
    pub fn enabled() -> Self {
        LifecycleTracker {
            enabled: true,
            ..LifecycleTracker::default()
        }
    }

    /// Whether lifecycles are being tracked.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A request entered the system (queued, not yet scheduled).
    pub fn on_submit(&mut self, id: u64, step: usize, wall_us: f64) {
        if !self.enabled {
            return;
        }
        self.submitted += 1;
        self.first_submit_us = Some(match self.first_submit_us {
            Some(f) => f.min(wall_us),
            None => wall_us,
        });
        self.reqs.insert(
            id,
            ReqLife {
                submit_step: step,
                submit_us: wall_us,
                admitted: false,
                preempted: false,
                first_token_step: None,
                last_token_step: 0,
                last_token_us: 0.0,
                tokens: 0,
                done: false,
            },
        );
    }

    /// A request was granted pages and scheduled. First admission records
    /// queue wait; admission after a preemption counts as a resume.
    pub fn on_admit(&mut self, id: u64, step: usize) {
        if !self.enabled {
            return;
        }
        let Some(r) = self.reqs.get_mut(&id) else {
            return;
        };
        if !r.admitted {
            r.admitted = true;
            self.admitted += 1;
            self.queue_wait_steps
                .record((step - r.submit_step.min(step)) as u64);
        } else if r.preempted {
            r.preempted = false;
            self.resumes += 1;
        }
    }

    /// A generated token streamed out for `id` at scheduler step `step`.
    /// Steps at or below the last counted step are replays (fault
    /// recovery re-deriving already-streamed tokens) and are ignored.
    pub fn on_token(&mut self, id: u64, step: usize, wall_us: f64) {
        if !self.enabled {
            return;
        }
        let Some(r) = self.reqs.get_mut(&id) else {
            return;
        };
        if r.done || (r.tokens > 0 && step <= r.last_token_step) {
            return;
        }
        match r.first_token_step {
            None => {
                r.first_token_step = Some(step);
                self.ttft_steps
                    .record((step - r.submit_step.min(step)) as u64);
                self.ttft_us
                    .record((wall_us - r.submit_us).max(0.0).round() as u64);
            }
            Some(_) => {
                self.tbt_steps.record((step - r.last_token_step) as u64);
                self.tbt_us
                    .record((wall_us - r.last_token_us).max(0.0).round() as u64);
            }
        }
        r.last_token_step = step;
        r.last_token_us = wall_us;
        r.tokens += 1;
        self.tokens += 1;
    }

    /// The request was preempted (pages reclaimed, state swapped out).
    pub fn on_preempt(&mut self, id: u64, _step: usize) {
        if !self.enabled {
            return;
        }
        if let Some(r) = self.reqs.get_mut(&id) {
            if !r.preempted {
                r.preempted = true;
                self.preemptions += 1;
            }
        }
    }

    /// A fault-recovery episode (rebuild + replay) delayed this request.
    pub fn on_recovery(&mut self, id: u64, _step: usize) {
        if !self.enabled {
            return;
        }
        if self.reqs.contains_key(&id) {
            self.recoveries += 1;
        }
    }

    /// The request finished generating; records its goodput.
    pub fn on_complete(&mut self, id: u64, _step: usize, wall_us: f64) {
        if !self.enabled {
            return;
        }
        let Some(r) = self.reqs.get_mut(&id) else {
            return;
        };
        if r.done {
            return;
        }
        r.done = true;
        self.completed += 1;
        self.last_complete_us = self.last_complete_us.max(wall_us);
        let dur_s = ((wall_us - r.submit_us).max(1.0)) / 1e6;
        self.goodput_tok_s
            .record((r.tokens as f64 / dur_s).round() as u64);
    }

    /// The request terminally failed (e.g. unrecoverable fault).
    pub fn on_failed(&mut self, id: u64, _step: usize) {
        if !self.enabled {
            return;
        }
        if let Some(r) = self.reqs.get_mut(&id) {
            if !r.done {
                r.done = true;
                self.failed += 1;
            }
        }
    }

    /// Rolls the tracker up into a `Copy` summary. Zeroed when disabled.
    pub fn summary(&self) -> SloSummary {
        if !self.enabled {
            return SloSummary::default();
        }
        let aggregate = match self.first_submit_us {
            Some(first) if self.last_complete_us > first && self.tokens > 0 => {
                self.tokens as f64 / ((self.last_complete_us - first) / 1e6)
            }
            _ => 0.0,
        };
        SloSummary {
            submitted: self.submitted,
            admitted: self.admitted,
            completed: self.completed,
            failed: self.failed,
            tokens: self.tokens,
            preemptions: self.preemptions,
            resumes: self.resumes,
            recoveries: self.recoveries,
            ttft_steps: Quantiles::from_hist(&self.ttft_steps, 1.0),
            ttft_s: Quantiles::from_hist(&self.ttft_us, 1e-6),
            tbt_steps: Quantiles::from_hist(&self.tbt_steps, 1.0),
            tbt_s: Quantiles::from_hist(&self.tbt_us, 1e-6),
            queue_wait_steps: Quantiles::from_hist(&self.queue_wait_steps, 1.0),
            goodput_tok_s: Quantiles::from_hist(&self.goodput_tok_s, 1.0),
            aggregate_goodput_tok_s: aggregate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracker_yields_zeroed_summary() {
        let mut t = LifecycleTracker::disabled();
        t.on_submit(1, 0, 0.0);
        t.on_token(1, 1, 10.0);
        assert_eq!(t.summary(), SloSummary::default());
    }

    #[test]
    fn basic_lifecycle_ttft_tbt_queue_wait() {
        let mut t = LifecycleTracker::enabled();
        t.on_submit(1, 0, 0.0);
        t.on_admit(1, 2); // queue wait 2 steps
        t.on_token(1, 5, 50.0); // TTFT 5 steps / 50 µs
        t.on_token(1, 6, 60.0); // TBT 1 step
        t.on_token(1, 8, 90.0); // TBT 2 steps
        t.on_complete(1, 8, 90.0);
        let s = t.summary();
        assert_eq!(s.submitted, 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.tokens, 3);
        assert_eq!(s.queue_wait_steps.max, 2.0);
        assert_eq!(s.ttft_steps.p50, 5.0);
        assert_eq!(s.tbt_steps.count, 2);
        assert_eq!(s.tbt_steps.max, 2.0);
        assert!((s.ttft_s.max - 50e-6).abs() < 1e-12);
        // 3 tokens over 90 µs ≈ 33 333 tok/s.
        assert!(s.goodput_tok_s.max > 30_000.0);
        assert!(s.aggregate_goodput_tok_s > 30_000.0);
    }

    #[test]
    fn replayed_steps_are_ignored() {
        let mut t = LifecycleTracker::enabled();
        t.on_submit(1, 0, 0.0);
        t.on_admit(1, 0);
        t.on_token(1, 1, 10.0);
        t.on_token(1, 2, 20.0);
        // Fault recovery replays steps 1-2, then resumes at 3.
        t.on_token(1, 1, 30.0);
        t.on_token(1, 2, 31.0);
        t.on_token(1, 3, 40.0);
        let s = t.summary();
        assert_eq!(s.tokens, 3);
        assert_eq!(s.tbt_steps.count, 2); // gaps 1→2 and 2→3 only
        assert_eq!(s.tbt_steps.max, 1.0);
    }

    #[test]
    fn preempt_resume_and_recovery_attribution() {
        let mut t = LifecycleTracker::enabled();
        t.on_submit(1, 0, 0.0);
        t.on_admit(1, 0);
        t.on_preempt(1, 3);
        t.on_admit(1, 7); // resume, not a second admission
        t.on_recovery(1, 9);
        t.on_recovery(999, 9); // unknown id: ignored
        let s = t.summary();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.resumes, 1);
        assert_eq!(s.recoveries, 1);
    }

    #[test]
    fn failure_counts_once() {
        let mut t = LifecycleTracker::enabled();
        t.on_submit(1, 0, 0.0);
        t.on_failed(1, 4);
        t.on_failed(1, 5);
        t.on_complete(1, 6, 60.0); // already terminal: ignored
        let s = t.summary();
        assert_eq!(s.failed, 1);
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn tokens_after_complete_are_ignored() {
        let mut t = LifecycleTracker::enabled();
        t.on_submit(1, 0, 0.0);
        t.on_token(1, 1, 10.0);
        t.on_complete(1, 1, 10.0);
        t.on_token(1, 2, 20.0);
        assert_eq!(t.summary().tokens, 1);
    }
}
