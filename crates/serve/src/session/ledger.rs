//! What one decode step counted, and the one place it is published.
//!
//! Every phase of [`ServeSession::step`] adds what it counts to the
//! session's [`StepLedger`], whose counters are the rows of the `counters`
//! table; [`ServeSession::publish`] turns the finished ledger into the
//! step's [`ServeMetrics`] sample, the `serve.*` registry counters and
//! gauges, and the aggregate events those rows name. Per-request
//! transitions (submit, admit, preempt, …) go through [`ServeSession::observe`].

use super::counters::{StepCounter, StepLedger, STEP_COUNTERS};
use super::{per_second, DeviceStepMetrics, ServeMetrics, ServeSession, RECENT_SAMPLES};
use bd_kvcache::{DeviceId, PrefixCacheStats, ShardedKvStore};
use bd_obs::{device_lane, EventField, SpanStart, LANE_SESSION};

impl StepLedger {
    /// Records one swap transfer's host traffic and modeled time.
    pub(crate) fn add_swap(&mut self, bytes: f64, modeled_s: f64) {
        self.swap_bytes += bytes;
        self.modeled_swap_s += modeled_s;
    }

    /// Records one injected fault (or absorbed failure).
    pub(crate) fn add_fault(&mut self, events: usize) {
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
    /// Adds the store's counter movement since the last call to `ledger`
    /// and snapshots its page sharing.
    fn drain_into(&mut self, store: &ShardedKvStore, ledger: &mut StepLedger) {
        let d = |n: u64, l: u64| n.checked_sub(l).unwrap_or(n) as usize;
        let cow = store.cow_breaks() as u64;
        ledger.cow_breaks += d(cow, self.cow_breaks);
        self.cow_breaks = cow;
        let (now, last) = (store.prefix_cache_stats(), self.prefix);
        ledger.prefix_cache_hits += d(now.hits, last.hits);
        ledger.prefix_cache_misses += d(now.misses, last.misses);
        ledger.prefix_pages_reused += d(now.pages_reused, last.pages_reused);
        ledger.prefix_bytes_reused += d(now.bytes_reused, last.bytes_reused);
        ledger.prefix_subtrees_evicted += d(now.evicted_subtrees, last.evicted_subtrees);
        self.prefix = now;
        let sharing = store.sharing_stats();
        ledger.physical_pages = sharing.physical_pages;
        ledger.logical_pages = sharing.logical_pages;
        ledger.shared_pages = sharing.shared_pages;
        ledger.shared_bytes_saved = sharing.bytes_saved;
    }
}

/// A per-device ledger entry; zero where the phase that fills the vector
/// did not run.
fn at<T: Copy + Default>(v: &[T], d: usize) -> T {
    v.get(d).copied().unwrap_or_default()
}

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
    /// events, the modeled timeline, the run totals and the sample ring,
    /// ends the `step` span and advances the step clock. The only place
    /// any of those is written.
    pub(super) fn publish(&mut self, step_span: SpanStart) -> ServeMetrics {
        let mut ledger = std::mem::take(&mut self.ledger);
        self.marks.drain_into(&self.store, &mut ledger);
        let devices = self.store.devices();
        let mut m = ServeMetrics::from_ledger(&ledger);
        m.step = self.step_index;
        m.kv_tokens_per_s = per_second(ledger.kv_tokens as f64, ledger.wall_s);
        m.pool_utilization = self.store.utilization();
        m.devices = devices;
        m.per_device = (0..devices)
            .map(|d| DeviceStepMetrics {
                device: d,
                units: at(&ledger.dev_units, d),
                kv_tokens: at(&ledger.dev_tokens, d),
                utilization: at(&ledger.utilization, d),
                page_occupancy: self.store.device_stats(DeviceId(d as u32)).utilization,
            })
            .collect();
        // A run of rows naming one event; a row without a registry counter
        // stands alone, and its group has nothing to publish.
        let one_event = |a: &Option<StepCounter>, b: &Option<StepCounter>| match (a, b) {
            (Some(a), Some(b)) => !a.event.is_empty() && a.event == b.event,
            _ => false,
        };
        for group in STEP_COUNTERS.chunk_by(one_event) {
            let rows = group.iter().flatten();
            if rows.clone().all(|row| (row.value)(&ledger) == 0) {
                continue;
            }
            let (mut event, mut fields) = ("", Vec::with_capacity(group.len()));
            for row in rows {
                let v = (row.value)(&ledger);
                self.obs.count(row.counter, v);
                fields.push((row.field, EventField::U64(v)));
                event = row.event;
            }
            if !event.is_empty() {
                self.obs.events.log(self.step_index, event, &fields);
            }
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
        self.totals.add(&m);
        if self.metrics.len() == RECENT_SAMPLES {
            self.metrics.pop_front();
        }
        self.metrics.push_back(m.clone());
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
