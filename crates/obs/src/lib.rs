#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-obs — zero-dependency observability for the serve runtime
//!
//! The serve layer's only window used to be the flat per-step
//! `ServeMetrics` struct: aggregate numbers, no per-request latency, no
//! view of *where inside a step* time went. This crate supplies the three
//! missing instruments, all allocation-light and default-off so the
//! decode hot path pays nothing when observability is disabled:
//!
//! * **Span tracing** ([`SpanTracer`]) — cheap begin/end spans over a
//!   [`DualClock`] (measured wall microseconds *and* modeled simulator
//!   microseconds), recorded into a bounded ring buffer and exportable as
//!   Chrome `trace_event` JSON ([`SpanTracer::chrome_trace_json`]) that
//!   loads directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!   Lanes separate the session control path from per-device execution.
//! * **Metrics** ([`MetricsRegistry`], [`LogHistogram`]) — named counters
//!   and gauges, and log-bucketed histograms whose percentile readout is
//!   *exactly* the nearest-rank percentile of the quantized samples
//!   (≤ 1/32 relative quantization error, exact below 32).
//! * **Request lifecycle** ([`LifecycleTracker`]) — submit → admit →
//!   first-token → complete per request, with preemption/resume and
//!   fault-recovery episodes attributed, yielding TTFT, TBT, queue-wait,
//!   and goodput distributions ([`SloSummary`]) — the numbers a service
//!   operator actually buys.
//!
//! A structured JSONL [`EventLog`] (admissions, preemptions, faults,
//! recoveries, CoW breaks, completions) and a minimal [`json`] parser (for
//! validating exported artifacts in tests without external crates) round
//! out the toolkit. [`ObsConfig`] gates everything; the default is
//! everything **off**, and the disabled paths reduce to a relaxed atomic
//! load or a branch on a bool.

pub mod clock;
pub mod events;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod registry;
pub mod span;

pub use clock::DualClock;
pub use events::{EventField, EventLog};
pub use hist::LogHistogram;
pub use lifecycle::{LifecycleTracker, Quantiles, SloSummary};
pub use registry::MetricsRegistry;
pub use span::{device_lane, ClockDomain, SpanRecord, SpanStart, SpanTracer, LANE_SESSION};

/// What the observability layer records. Everything defaults **off**: a
/// session built with `ObsConfig::default()` pays only a branch per
/// would-be record, so benchmark numbers do not move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record phase spans (admission, prefill, execute, merge, all-reduce,
    /// swap, append, recovery) into the span ring buffer.
    pub spans: bool,
    /// Append structured JSONL events (admissions, preemptions, faults,
    /// recoveries, CoW breaks, completions) to the event log.
    pub events: bool,
    /// Track per-request lifecycles (TTFT/TBT/queue-wait/goodput
    /// histograms) and maintain the metrics registry counters.
    pub lifecycle: bool,
    /// Span ring-buffer capacity; the oldest spans drop past it.
    pub span_capacity: usize,
    /// Event-log line capacity; the oldest lines drop past it.
    pub event_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            spans: false,
            events: false,
            lifecycle: false,
            span_capacity: 65_536,
            event_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// Everything off (the default): observability costs one branch per
    /// call site.
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Everything on, with default capacities.
    pub fn all() -> Self {
        ObsConfig {
            spans: true,
            events: true,
            lifecycle: true,
            ..ObsConfig::default()
        }
    }

    /// Enables or disables span tracing.
    pub fn with_spans(mut self, on: bool) -> Self {
        self.spans = on;
        self
    }

    /// Enables or disables lifecycle/SLO tracking.
    pub fn with_lifecycle(mut self, on: bool) -> Self {
        self.lifecycle = on;
        self
    }

    /// Overrides the span ring-buffer capacity.
    pub fn with_span_capacity(mut self, cap: usize) -> Self {
        self.span_capacity = cap;
        self
    }
}
