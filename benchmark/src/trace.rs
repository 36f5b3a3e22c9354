//! The benchmark's own spans, the merged Perfetto trace, and the
//! self-time arithmetic over the program's spans.
//!
//! Spans live in memory for the whole run and are written once, at exit.
//! The benchmark records a span around every call it makes into the
//! program (`submit_at`, `step`, each direct probe); the program's tracer,
//! switched on for the traced pass only, contributes the spans inside a
//! step. Both land in one Chrome `trace_event` file:
//!
//! * pid 0 `benchmark` — the calls, as the benchmark saw them;
//! * pid 1 `program (host wall-clock)` — `step` ⊃ `admission`, `fan_out`,
//!   `merge`, `append` on the session lane; `execute` / `shared_attn` per
//!   work unit on the device lanes;
//! * pid 2 `program (modeled GPU time)` — what the cost model charges, on
//!   a simulated clock that shares nothing with the other two.

use std::fmt::Write as _;
use std::time::Instant;

use crate::adapter::{json_escape, SessionSpan};

/// One benchmark-side span.
#[derive(Clone, Debug)]
pub struct BenchSpan {
    /// What was called.
    pub name: String,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the call was made for, if any.
    pub request: Option<u64>,
}

/// In-memory recorder for [`BenchSpan`]s; a disabled recorder costs a
/// branch per call, so the untraced passes run the same code.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<BenchSpan>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only tells the time.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// µs since the epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_us();
        self.spans.push(BenchSpan {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Records a finished span from timestamps already taken (so the
    /// measured interval and the span are the same two clock reads).
    pub fn record(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: Option<u64>,
    ) {
        if self.enabled {
            self.spans.push(BenchSpan {
                name: name.to_string(),
                start_us,
                end_us,
                parent,
                request,
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }
}

/// The program's spans from one traced pass, with what is needed to put
/// them on the benchmark's timeline.
pub struct SessionTrace {
    /// The program tracer's spans.
    pub spans: Vec<SessionSpan>,
    /// Add to a wall-clock span's `begin_us` to get benchmark-clock µs.
    pub offset_us: f64,
    /// Spans the tracer's ring had to drop (must be 0).
    pub dropped: u64,
}

/// Shares of Σ `step` time, from the program's wall-clock spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepShares {
    /// Σ `admission` ÷ Σ `step`: faults, arrivals, prefill, swap.
    pub admission: f64,
    /// Σ `fan_out` ÷ Σ `step`: batch formation + the attention kernels.
    pub fan_out: f64,
    /// Σ `merge` ÷ Σ `step`: partial merge + model advance.
    pub merge: f64,
    /// Σ `append` ÷ Σ `step`: KV append (+ seals).
    pub append: f64,
    /// `step` self time: what no child span covers — retire, accounting,
    /// the cost-model evaluation.
    pub other: f64,
    /// Σ `fan_out` ÷ Σ `step` over *steady* steps only (no admission,
    /// resume or preemption): how much of a pure decode step is kernel
    /// fan-out rather than scheduler work.
    pub steady_fan_out: f64,
    /// Σ (`execute` + `shared_attn`) ÷ (`workers` × Σ `fan_out`): how much
    /// of the fan-out window the worker threads spent in a kernel rather
    /// than waiting for work or for each other.
    pub worker_busy: f64,
}

/// Computes [`StepShares`]. A span's self time is its duration minus what
/// its children cover; `step`'s children are exactly the four phase spans.
/// `steady[i]` says whether the pass's `i`-th step was decode-only; the
/// tracer records one `step` and one `fan_out` span per step, in order.
pub fn step_shares(spans: &[SessionSpan], workers: usize, steady: &[bool]) -> StepShares {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| !s.modeled && s.name == name)
            .map(|s| s.dur_us)
            .collect()
    };
    let total = |name: &str| -> f64 { durations(name).iter().sum() };
    let steady_total = |name: &str| -> f64 {
        let d = durations(name);
        if d.len() != steady.len() {
            return 0.0;
        }
        d.iter()
            .zip(steady)
            .filter(|(_, &s)| s)
            .map(|(d, _)| d)
            .sum()
    };
    let step = total("step");
    if step <= 0.0 {
        return StepShares::default();
    }
    let (admission, fan_out, merge, append) = (
        total("admission"),
        total("fan_out"),
        total("merge"),
        total("append"),
    );
    let busy = total("execute") + total("shared_attn");
    StepShares {
        admission: admission / step,
        fan_out: fan_out / step,
        merge: merge / step,
        append: append / step,
        other: (step - admission - fan_out - merge - append).max(0.0) / step,
        steady_fan_out: match steady_total("step") {
            t if t > 0.0 => steady_total("fan_out") / t,
            _ => 0.0,
        },
        worker_busy: if fan_out > 0.0 {
            busy / (workers.max(1) as f64 * fan_out)
        } else {
            0.0
        },
    }
}

fn push_meta(out: &mut String, pid: u32, tid: u32, process: Option<&str>, thread: &str) {
    if let Some(p) = process {
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}},",
            json_escape(p)
        );
    }
    let _ = write!(
        out,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}},",
        json_escape(thread)
    );
}

/// Renders the merged trace as Chrome `trace_event` JSON.
pub fn chrome_trace(bench: &[BenchSpan], session: Option<&SessionTrace>) -> String {
    let mut out = String::with_capacity(256 + 128 * bench.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    push_meta(&mut out, 0, 0, Some("benchmark"), "calls into the program");
    if let Some(st) = session {
        let mut lanes: Vec<(bool, u32)> = st.spans.iter().map(|s| (s.modeled, s.lane)).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for (i, modeled) in [false, true].into_iter().enumerate() {
            let pname = if modeled {
                "program (modeled GPU time)"
            } else {
                "program (host wall-clock)"
            };
            let mut first = true;
            for (_, lane) in lanes.iter().filter(|(m, _)| *m == modeled) {
                let tname = if *lane == 0 {
                    "session".to_string()
                } else {
                    format!("device {}", lane - 1)
                };
                push_meta(
                    &mut out,
                    1 + i as u32,
                    *lane,
                    first.then_some(pname),
                    &tname,
                );
                first = false;
            }
        }
    }
    for (i, s) in bench.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\"args\":{{\"span\":{i}",
            json_escape(&s.name),
            s.start_us,
            (s.end_us - s.start_us).max(0.0),
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}},");
    }
    if let Some(st) = session {
        for s in &st.spans {
            let (pid, ts) = if s.modeled {
                (2, s.begin_us)
            } else {
                (1, s.begin_us + st.offset_us)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{",
                json_escape(s.name),
                ts,
                s.dur_us,
                s.lane,
            );
            for (j, (k, v)) in s.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(k));
            }
            out.push_str("}},");
        }
    }
    // Every event above ends with a comma; the metadata guarantees at
    // least one event, so dropping the last comma closes the array.
    out.pop();
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json_parse;

    fn span(name: &'static str, lane: u32, begin_us: f64, dur_us: f64) -> SessionSpan {
        SessionSpan {
            name,
            lane,
            modeled: false,
            begin_us,
            dur_us,
            args: vec![("unit", 1.0)],
        }
    }

    #[test]
    fn shares_are_self_time_over_step_time() {
        let spans = vec![
            span("step", 0, 0.0, 100.0),
            span("admission", 0, 0.0, 10.0),
            span("fan_out", 0, 10.0, 60.0),
            span("merge", 0, 70.0, 10.0),
            span("append", 0, 80.0, 5.0),
            span("execute", 1, 12.0, 50.0),
            span("execute", 1, 12.0, 40.0),
        ];
        let s = step_shares(&spans, 2, &[true]);
        assert_eq!(s.admission, 0.10);
        assert_eq!(s.fan_out, 0.60);
        assert_eq!(s.other, 0.15);
        assert_eq!(s.worker_busy, 0.75);
        assert_eq!(s.steady_fan_out, 0.60);
        assert_eq!(step_shares(&spans, 2, &[false]).steady_fan_out, 0.0);
        assert_eq!(step_shares(&[], 2, &[]), StepShares::default());
    }

    #[test]
    fn merged_trace_is_valid_json_with_parents_and_requests() {
        let mut rec = Recorder::new(true);
        let root = rec.open("pass", None, None);
        rec.record("submit_at", 1.0, 2.0, root, Some(7));
        rec.close(root);
        let st = SessionTrace {
            spans: vec![span("step", 0, 5.0, 10.0), {
                let mut m = span("execute", 1, 0.0, 3.0);
                m.modeled = true;
                m
            }],
            offset_us: 100.0,
            dropped: 0,
        };
        let text = chrome_trace(rec.spans(), Some(&st));
        let doc = json_parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let submit = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("submit_at"))
            .unwrap();
        let args = submit.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("request").and_then(|p| p.as_f64()), Some(7.0));
        let step = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("step"))
            .unwrap();
        assert_eq!(step.get("ts").and_then(|t| t.as_f64()), Some(105.0));
        // A disabled recorder keeps nothing.
        let mut off = Recorder::new(false);
        let s = off.open("x", None, None);
        off.close(s);
        assert!(off.spans().is_empty());
        assert!(json_parse(&chrome_trace(off.spans(), None)).is_ok());
    }
}
