//! Bounded-ring span tracer with Chrome `trace_event` export.
//!
//! Spans are cheap: beginning one reads the wall clock, ending one pushes
//! a small record into a mutex-guarded ring buffer. When the tracer is
//! disabled (the default) both calls reduce to a relaxed atomic load — no
//! clock read, no lock, no allocation — which is what lets the serve hot
//! path keep the tracer plumbed in unconditionally.
//!
//! ## Timeline layout
//!
//! The exporter maps the two clock domains to two Chrome trace
//! *processes* and lanes to *threads*:
//!
//! | pid | meaning                        |
//! |-----|--------------------------------|
//! | 0   | wall clock (measured host µs)  |
//! | 1   | modeled clock (simulator µs)   |
//!
//! | tid   | meaning                    |
//! |-------|----------------------------|
//! | 0     | session control lane       |
//! | 1 + d | device `d` execution lane  |
//!
//! The emitted JSON is a complete-event (`"ph":"X"`) stream with metadata
//! records naming each process and thread; it loads directly in Perfetto
//! (`ui.perfetto.dev` → "Open trace file") or `chrome://tracing`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::DualClock;

/// Lane (trace thread) for the session control path.
pub const LANE_SESSION: u32 = 0;

/// Lane (trace thread) for device `d`'s execution.
pub fn device_lane(device: usize) -> u32 {
    1 + device as u32
}

/// Which clock a span's timestamps belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Measured host time.
    Wall,
    /// Modeled simulator time.
    Modeled,
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase name (static so recording never allocates for it).
    pub name: &'static str,
    /// Lane: [`LANE_SESSION`] or [`device_lane`].
    pub lane: u32,
    /// Clock domain the timestamps are in.
    pub domain: ClockDomain,
    /// Start, microseconds since the tracer's epoch (in `domain`).
    pub begin_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Numeric annotations carried into the trace `args` object.
    pub args: Vec<(&'static str, f64)>,
}

/// Opaque token returned by [`SpanTracer::begin`]; NaN marks "tracer was
/// disabled at begin" so the matching `end` is also free.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(f64);

struct Ring {
    spans: Vec<SpanRecord>,
    /// Index of the logical start when the ring has wrapped.
    head: usize,
    cap: usize,
}

struct Shared {
    enabled: AtomicBool,
    clock: DualClock,
    ring: Mutex<Ring>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

/// Cheap, clonable handle to a shared span ring. Clones record into the
/// same buffer, so worker threads can hold their own handle.
#[derive(Clone)]
pub struct SpanTracer {
    shared: Arc<Shared>,
}

impl SpanTracer {
    /// A tracer that records nothing; begin/end cost one atomic load.
    pub fn disabled() -> Self {
        Self::build(false, 0)
    }

    /// An enabled tracer whose ring keeps the most recent `capacity`
    /// spans (older spans drop, counted in [`Self::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(true, capacity.max(1))
    }

    fn build(enabled: bool, cap: usize) -> Self {
        SpanTracer {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(enabled),
                clock: DualClock::new(),
                ring: Mutex::new(Ring {
                    spans: Vec::new(),
                    head: 0,
                    cap,
                }),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// The tracer's dual clock (shared by all clones).
    pub fn clock(&self) -> &DualClock {
        &self.shared.clock
    }

    /// Marks the start of a wall-clock span. Free when disabled.
    #[inline]
    pub fn begin(&self) -> SpanStart {
        if self.is_enabled() {
            SpanStart(self.shared.clock.wall_us())
        } else {
            SpanStart(f64::NAN)
        }
    }

    /// Ends a wall-clock span begun with [`Self::begin`].
    #[inline]
    pub fn end(&self, start: SpanStart, name: &'static str, lane: u32) {
        self.end_with(start, name, lane, &[]);
    }

    /// Ends a wall-clock span, attaching numeric annotations (copied only
    /// when the span is recorded, so a disabled tracer allocates nothing).
    pub fn end_with(
        &self,
        start: SpanStart,
        name: &'static str,
        lane: u32,
        args: &[(&'static str, f64)],
    ) {
        if !self.is_enabled() || start.0.is_nan() {
            return;
        }
        let now = self.shared.clock.wall_us();
        self.record(SpanRecord {
            name,
            lane,
            domain: ClockDomain::Wall,
            begin_us: start.0,
            dur_us: (now - start.0).max(0.0),
            args: args.to_vec(),
        });
    }

    /// Records a span on the modeled timeline at an explicit interval
    /// (microseconds of simulator time). Use [`DualClock::advance_sim_s`]
    /// via [`Self::clock`] to allocate intervals; keeping placement
    /// explicit lets concurrent device lanes share one interval.
    pub fn record_modeled(
        &self,
        name: &'static str,
        lane: u32,
        begin_us: f64,
        dur_us: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(SpanRecord {
            name,
            lane,
            domain: ClockDomain::Modeled,
            begin_us,
            dur_us,
            args,
        });
    }

    /// Pushes a finished record into the ring.
    pub fn record(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.shared.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = match self.shared.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if ring.spans.len() < ring.cap {
            ring.spans.push(record);
        } else {
            let head = ring.head;
            ring.spans[head] = record;
            ring.head = (head + 1) % ring.cap;
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total spans recorded (including any since dropped from the ring).
    pub fn recorded(&self) -> u64 {
        self.shared.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Copies the ring's contents in record order (oldest first).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let ring = match self.shared.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut out = Vec::with_capacity(ring.spans.len());
        out.extend_from_slice(&ring.spans[ring.head..]);
        out.extend_from_slice(&ring.spans[..ring.head]);
        out
    }

    /// Exports the ring as Chrome `trace_event` JSON (Perfetto-loadable).
    ///
    /// Field order is stable — `name, ph, ts, dur, pid, tid, args` for
    /// complete events — and guarded by a golden test, so downstream
    /// tooling may diff traces textually.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.snapshot();
        let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut pids: BTreeSet<u32> = BTreeSet::new();
        for s in &spans {
            let pid = match s.domain {
                ClockDomain::Wall => 0,
                ClockDomain::Modeled => 1,
            };
            pids.insert(pid);
            lanes.insert((pid, s.lane));
        }

        let mut out = String::with_capacity(128 + spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String, body: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(body);
        };

        for pid in &pids {
            let pname = if *pid == 0 { "wall" } else { "modeled" };
            push_event(
                &mut out,
                &format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{pname}\"}}}}"
                ),
            );
        }
        for (pid, tid) in &lanes {
            let tname = if *tid == LANE_SESSION {
                "session".to_string()
            } else {
                format!("device {}", tid - 1)
            };
            push_event(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{tname}\"}}}}"
                ),
            );
        }

        for s in &spans {
            let pid = match s.domain {
                ClockDomain::Wall => 0,
                ClockDomain::Modeled => 1,
            };
            let mut body = String::with_capacity(96);
            let _ = write!(
                body,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{",
                s.name, s.begin_us, s.dur_us, pid, s.lane
            );
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(body, "\"{k}\":{v}");
            }
            body.push_str("}}");
            push_event(&mut out, &body);
        }

        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = SpanTracer::disabled();
        let s = t.begin();
        t.end(s, "step", LANE_SESSION);
        t.record_modeled("execute", device_lane(0), 0.0, 10.0, Vec::new());
        // The default-off hooks stay compiled into every step, so "free
        // when disabled" is structural: no pair ever reaches the ring,
        // whose buffer is never even allocated. What the enabled path
        // costs is the benchmark's `obs.trace_overhead_frac`.
        for _ in 0..100_000 {
            t.end(t.begin(), "noop", LANE_SESSION);
            t.end_with(t.begin(), "noop", LANE_SESSION, &[("batch", 1.0)]);
        }
        assert_eq!((t.recorded(), t.dropped()), (0, 0));
        assert!(t.snapshot().is_empty());
        assert_eq!(t.shared.ring.lock().unwrap().spans.capacity(), 0);
    }

    #[test]
    fn spans_round_trip_through_ring() {
        let t = SpanTracer::with_capacity(8);
        let s = t.begin();
        t.end_with(s, "step", LANE_SESSION, &[("batch", 4.0)]);
        let (b, e) = t.clock().advance_sim_s(1e-3);
        t.record_modeled("execute", device_lane(1), b, e - b, vec![("units", 2.0)]);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "step");
        assert_eq!(spans[0].domain, ClockDomain::Wall);
        assert_eq!(spans[1].name, "execute");
        assert_eq!(spans[1].lane, device_lane(1));
        assert_eq!(spans[1].dur_us, 1_000.0);
        assert_eq!(t.recorded(), 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let t = SpanTracer::with_capacity(3);
        for i in 0..5u32 {
            t.record_modeled("e", i, i as f64, 1.0, Vec::new());
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        // Oldest two (lanes 0, 1) evicted; survivors in order.
        assert_eq!(
            spans.iter().map(|s| s.lane).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn clones_share_one_ring() {
        let t = SpanTracer::with_capacity(8);
        let t2 = t.clone();
        t2.record_modeled("from_clone", LANE_SESSION, 0.0, 1.0, Vec::new());
        assert_eq!(t.snapshot().len(), 1);
    }

    /// Golden-file test for the exporter: exact bytes, which pins both
    /// JSON validity and field order.
    #[test]
    fn chrome_trace_golden() {
        let t = SpanTracer::with_capacity(8);
        t.record(SpanRecord {
            name: "step",
            lane: LANE_SESSION,
            domain: ClockDomain::Wall,
            begin_us: 10.5,
            dur_us: 2.25,
            args: vec![("batch", 4.0), ("tokens", 128.0)],
        });
        t.record_modeled("execute", device_lane(0), 0.0, 1000.0, vec![("units", 3.0)]);
        let got = t.chrome_trace_json();
        let want = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"wall\"}},",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"modeled\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"session\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"device 0\"}},",
            "{\"name\":\"step\",\"ph\":\"X\",\"ts\":10.500,\"dur\":2.250,\"pid\":0,\"tid\":0,",
            "\"args\":{\"batch\":4,\"tokens\":128}},",
            "{\"name\":\"execute\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000.000,\"pid\":1,\"tid\":1,",
            "\"args\":{\"units\":3}}",
            "]}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let t = SpanTracer::with_capacity(64);
        for i in 0..10 {
            let s = t.begin();
            t.end_with(s, "step", LANE_SESSION, &[("i", i as f64)]);
        }
        let parsed = json::parse(&t.chrome_trace_json()).expect("exporter must emit valid JSON");
        let obj = parsed.as_object().expect("top level is an object");
        assert_eq!(obj[0].0, "displayTimeUnit");
        let events = obj[1].1.as_array().expect("traceEvents is an array");
        let x_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(x_events.len(), 10);
        for e in x_events {
            let keys: Vec<&str> = e
                .as_object()
                .expect("event is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, vec!["name", "ph", "ts", "dur", "pid", "tid", "args"]);
        }
    }
}
