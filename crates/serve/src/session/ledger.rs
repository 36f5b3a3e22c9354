//! What one decode step counted, and the one place it is published.
//!
//! Every phase of [`ServeSession::step`] adds what it counts to the
//! session's [`StepLedger`]; [`ServeSession::publish`] turns the finished
//! ledger into the step's [`ServeMetrics`] sample, the per-step `serve.*`
//! registry counters and gauges, and the aggregate events. Per-request
//! transitions (submit, admit, preempt, …) go through
//! [`ServeSession::observe`]. A new per-step counter is a ledger field, a
//! [`STEP_COUNTERS`] row and a `ServeMetrics`/`ServeSummary` field.

use super::{DeviceStepMetrics, ServeMetrics, ServeSession};
use bd_kvcache::{DeviceId, PrefixCacheStats, ShardedKvStore};
use bd_lowbit::fastpath::FastDequantOps;
use bd_obs::{device_lane, EventField, SpanStart, LANE_SESSION};

/// Everything the in-flight step has counted. Phases that did not run
/// (the execute side of a step that found no batch) leave their fields
/// at zero.
#[derive(Clone, Debug, Default)]
pub(super) struct StepLedger {
    /// Fresh admissions (prefill or fork) and, of those, forks.
    pub admitted: usize,
    pub forked: usize,
    /// Swap-outs and swap-ins, with the host bytes they moved and the
    /// topology's price for moving them.
    pub preempted: usize,
    pub resumed: usize,
    pub swap_bytes: f64,
    pub modeled_swap_s: f64,
    /// Fault and recovery accounting.
    pub faults_injected: usize,
    pub recoveries: usize,
    pub retries: usize,
    pub requests_failed: usize,
    pub degraded: bool,
    /// The planned batch: sequences, Σ context length, and per device the
    /// units routed to it and the unique tokens they walk.
    pub batch: usize,
    pub kv_tokens: usize,
    pub dev_units: Vec<usize>,
    pub dev_tokens: Vec<usize>,
    /// Cascade units, their sharers, and the prefix pages not re-walked.
    pub shared_attn_groups: usize,
    pub shared_attn_sharers: usize,
    pub prefix_pages_walked_saved: usize,
    /// Execute → append: kernel telemetry, wall time, tokens streamed for
    /// the first time (recovery replays excluded), retirements.
    pub dequant: FastDequantOps,
    pub wall_s: f64,
    pub new_tokens: usize,
    pub completed: usize,
    /// The step's price: per-device utilization against the critical
    /// path, compute, and the all-reduce (retries included).
    pub utilization: Vec<f64>,
    pub modeled_step_s: f64,
    pub allreduce_bytes_per_device: f64,
    pub modeled_interconnect_s: f64,
    /// Store counter movement since the previous sample.
    pub cow_breaks: u64,
    pub prefix: PrefixCacheStats,
}

impl StepLedger {
    /// Records one swap transfer's host traffic and modeled time.
    pub fn add_swap(&mut self, bytes: f64, modeled_s: f64) {
        self.swap_bytes += bytes;
        self.modeled_swap_s += modeled_s;
    }

    /// Records one injected fault (or absorbed failure).
    pub fn add_fault(&mut self, events: usize) {
        self.faults_injected += events;
        self.degraded = true;
    }
}

/// Last-seen values of the store's monotone counters. A device-loss
/// rebuild replaces the store (counters restart at 0); `checked_sub`
/// falls back to the absolute value so a delta never wraps.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct StoreMarks {
    cow_breaks: u64,
    prefix: PrefixCacheStats,
}

impl StoreMarks {
    /// Adds the store's counter movement since the last call to `ledger`.
    fn drain_into(&mut self, store: &ShardedKvStore, ledger: &mut StepLedger) {
        let d = |n: u64, l: u64| n.checked_sub(l).unwrap_or(n);
        let cow = store.cow_breaks() as u64;
        ledger.cow_breaks += d(cow, self.cow_breaks);
        self.cow_breaks = cow;
        let (now, last) = (store.prefix_cache_stats(), self.prefix);
        ledger.prefix.absorb(PrefixCacheStats {
            hits: d(now.hits, last.hits),
            misses: d(now.misses, last.misses),
            pages_reused: d(now.pages_reused, last.pages_reused),
            bytes_reused: d(now.bytes_reused, last.bytes_reused),
            evicted_subtrees: d(now.evicted_subtrees, last.evicted_subtrees),
            evicted_pages: d(now.evicted_pages, last.evicted_pages),
        });
        self.prefix = now;
    }
}

/// A per-device ledger entry; zero where the phase that fills the vector
/// did not run.
fn at<T: Copy + Default>(v: &[T], d: usize) -> T {
    v.get(d).copied().unwrap_or_default()
}

/// One per-step counter: `(registry counter, aggregate event, event field,
/// value)`.
pub(super) type CounterRow = (
    &'static str,
    &'static str,
    &'static str,
    fn(&StepLedger) -> u64,
);

/// The per-step counters, grouped by event in the order the events are
/// logged and the fields appear. An event is written — and its registry
/// counters touched — only on steps where one of its fields is non-zero.
#[rustfmt::skip]
pub(super) const STEP_COUNTERS: [CounterRow; 9] = [
    ("serve.cow_breaks", "cow_break", "count", |l| l.cow_breaks),
    ("serve.prefix_cache.hits", "prefix_cache", "hits", |l| l.prefix.hits),
    ("serve.prefix_cache.misses", "prefix_cache", "misses", |l| l.prefix.misses),
    ("serve.prefix_cache.pages_reused", "prefix_cache", "pages_reused", |l| l.prefix.pages_reused),
    ("serve.prefix_cache.bytes_reused", "prefix_cache", "bytes_reused", |l| l.prefix.bytes_reused),
    ("serve.prefix_cache.evicted_subtrees", "prefix_cache", "evicted_subtrees", |l| l.prefix.evicted_subtrees),
    ("serve.shared_attn.groups", "shared_attn", "groups", |l| l.shared_attn_groups as u64),
    ("serve.shared_attn.sharers", "shared_attn", "sharers", |l| l.shared_attn_sharers as u64),
    ("serve.shared_attn.pages_saved", "shared_attn", "pages_saved", |l| l.prefix_pages_walked_saved as u64),
];

/// A transition [`ServeSession::observe`] records. Every variant but
/// `Fault` is about one request.
#[derive(Clone, Copy, Debug)]
pub(super) enum RequestEvent {
    /// Queued through the `submit*` front named by `kind`, visible to the
    /// scheduler from `step`.
    Submitted {
        step: usize,
        kind: &'static str,
    },
    /// Admitted by prefilling its prompt.
    Admitted,
    /// Admitted by forking its live parent copy-on-write.
    ForkAdmitted,
    /// Swapped back in after a preemption.
    Resumed,
    Preempted,
    /// Set back to recompute-from-prompt by a fault.
    Recovered,
    Failed,
    Completed,
    /// An injected or absorbed fault named `kind`; the subject is its
    /// detail (device index, pages, retry count), not a request.
    Fault(&'static str),
}

impl ServeSession {
    /// Records one transition of `subject` into the lifecycle tracker, its
    /// registry counter and the event log (each a no-op while disabled).
    pub(super) fn observe(&mut self, subject: u64, event: RequestEvent) {
        use RequestEvent as E;
        let now = self.step_index;
        let wall = match event {
            E::Submitted { .. } | E::Completed => self.obs.wall_us(),
            _ => 0.0,
        };
        let life = &mut self.obs.lifecycle;
        let (step, counter, name) = match event {
            E::Submitted { step, kind } => {
                life.on_submit(subject, step, wall);
                (step, "serve.submitted", kind)
            }
            E::Admitted => {
                life.on_admit(subject, now);
                (now, "serve.admitted", "admit")
            }
            E::ForkAdmitted => {
                life.on_admit(subject, now);
                (now, "serve.admitted", "fork_admit")
            }
            E::Resumed => {
                life.on_admit(subject, now);
                (now, "serve.resumes", "swap_in")
            }
            E::Preempted => {
                life.on_preempt(subject, now);
                (now, "serve.preemptions", "preempt")
            }
            E::Recovered => {
                life.on_recovery(subject, now);
                (now, "serve.recoveries", "recovery")
            }
            E::Failed => {
                life.on_failed(subject, now);
                (now, "serve.requests_failed", "request_failed")
            }
            E::Completed => {
                life.on_complete(subject, now, wall);
                (now, "serve.completions", "complete")
            }
            E::Fault(kind) => (now, "serve.faults", kind),
        };
        self.obs.count(counter, 1);
        let key = match event {
            E::Fault(_) => "value",
            _ => "request",
        };
        self.obs
            .events
            .log(step, name, &[(key, EventField::U64(subject))]);
    }

    /// Closes the step: drains the ledger into the [`ServeMetrics`]
    /// sample, the per-step registry counters and gauges, the aggregate
    /// events and the modeled timeline, ends the `step` span and advances
    /// the step clock. The only place any of those is written.
    pub(super) fn publish(&mut self, step_span: SpanStart) -> ServeMetrics {
        let mut ledger = std::mem::take(&mut self.ledger);
        self.marks.drain_into(&self.store, &mut ledger);
        let devices = self.store.devices();
        let sharing = self.store.sharing_stats();
        let m = ServeMetrics {
            step: self.step_index,
            batch: ledger.batch,
            admitted: ledger.admitted,
            forked: ledger.forked,
            completed: ledger.completed,
            kv_tokens: ledger.kv_tokens,
            wall_s: ledger.wall_s,
            kv_tokens_per_s: if ledger.wall_s > 0.0 {
                ledger.kv_tokens as f64 / ledger.wall_s
            } else {
                0.0
            },
            dequant: ledger.dequant,
            pool_utilization: self.store.utilization(),
            modeled_step_s: ledger.modeled_step_s,
            devices,
            per_device: (0..devices)
                .map(|d| DeviceStepMetrics {
                    device: d,
                    units: at(&ledger.dev_units, d),
                    kv_tokens: at(&ledger.dev_tokens, d),
                    utilization: at(&ledger.utilization, d),
                    page_occupancy: self.store.device_stats(DeviceId(d as u32)).utilization,
                })
                .collect(),
            allreduce_bytes_per_device: ledger.allreduce_bytes_per_device,
            modeled_interconnect_s: ledger.modeled_interconnect_s,
            preempted: ledger.preempted,
            resumed: ledger.resumed,
            swap_bytes: ledger.swap_bytes,
            modeled_swap_s: ledger.modeled_swap_s,
            physical_pages: sharing.physical_pages,
            logical_pages: sharing.logical_pages,
            shared_pages: sharing.shared_pages,
            shared_bytes_saved: sharing.bytes_saved,
            faults_injected: ledger.faults_injected,
            recoveries: ledger.recoveries,
            retries: ledger.retries,
            degraded: ledger.degraded,
            requests_failed: ledger.requests_failed,
            shared_attn_groups: ledger.shared_attn_groups,
            prefix_pages_walked_saved: ledger.prefix_pages_walked_saved,
            prefix_cache_hits: ledger.prefix.hits as usize,
            prefix_cache_misses: ledger.prefix.misses as usize,
            prefix_pages_reused: ledger.prefix.pages_reused as usize,
            prefix_bytes_reused: ledger.prefix.bytes_reused as usize,
            prefix_subtrees_evicted: ledger.prefix.evicted_subtrees as usize,
        };
        for rows in STEP_COUNTERS.chunk_by(|a, b| a.1 == b.1) {
            if rows.iter().all(|row| (row.3)(&ledger) == 0) {
                continue;
            }
            let fields: Vec<(&str, EventField<'_>)> = rows
                .iter()
                .map(|(counter, _, field, value)| {
                    let v = value(&ledger);
                    self.obs.count(counter, v);
                    (*field, EventField::U64(v))
                })
                .collect();
            self.obs.events.log(self.step_index, rows[0].1, &fields);
        }
        if ledger.new_tokens > 0 {
            self.obs.count("serve.tokens", ledger.new_tokens as u64);
        }
        if self.obs.lifecycle.is_enabled() {
            let reg = &mut self.obs.registry;
            reg.set_gauge("serve.active", self.active.len() as f64);
            reg.set_gauge("serve.pending", self.pending.len() as f64);
            reg.set_gauge("serve.pool_utilization", m.pool_utilization);
        }
        self.record_modeled_timeline(&m);
        self.obs.tracer.end_with(
            step_span,
            "step",
            LANE_SESSION,
            &[("batch", m.batch as f64), ("kv_tokens", m.kv_tokens as f64)],
        );
        self.step_index += 1;
        self.metrics.push(m.clone());
        m
    }

    /// Allocates simulator intervals for the step's swap traffic,
    /// per-device execution (every device shares the step's critical-path
    /// interval) and the all-reduce, in that order, so Perfetto shows the
    /// modeled schedule the latency model already charges for.
    fn record_modeled_timeline(&self, m: &ServeMetrics) {
        let tracer = &self.obs.tracer;
        if !tracer.is_enabled() {
            return;
        }
        let span = |name, lane, seconds: f64, args| {
            let (b, e) = tracer.clock().advance_sim_s(seconds);
            tracer.record_modeled(name, lane, b, e - b, args);
        };
        if m.modeled_swap_s > 0.0 {
            let args = vec![("bytes", m.swap_bytes)];
            span("swap", LANE_SESSION, m.modeled_swap_s, args);
        }
        if m.modeled_step_s > 0.0 {
            let (b, e) = tracer.clock().advance_sim_s(m.modeled_step_s);
            for d in &m.per_device {
                let args = vec![("units", d.units as f64), ("kv_tokens", d.kv_tokens as f64)];
                tracer.record_modeled("execute", device_lane(d.device), b, e - b, args);
            }
        }
        if m.modeled_interconnect_s > 0.0 {
            let args = vec![("bytes_per_device", m.allreduce_bytes_per_device)];
            span("all_reduce", LANE_SESSION, m.modeled_interconnect_s, args);
        }
    }
}
