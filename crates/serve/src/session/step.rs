//! One decode step as a pipeline of phases, each a plain method that
//! counts into the session's [`StepLedger`](super::ledger::StepLedger).
//! Transient per-step data travels in a [`StepPlan`].

use super::{RequestEvent, RequestId, ServeMetrics, ServeSession};
use crate::model::StepKv;
use crate::workers::{run_units, SeqOut, SeqTask, ServeError, WorkUnit};
use bd_core::DecodeShape;
use bd_kvcache::{DeviceId, SeqId};
use bd_obs::LANE_SESSION;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Base backoff charged to the first transient-transfer retry, seconds.
const RETRY_BACKOFF_BASE_S: f64 = 50e-6;
/// Ceiling on any single retry's backoff, seconds.
const RETRY_BACKOFF_MAX_S: f64 = 2e-3;

/// Modeled cost of `failures` failed transfer attempts: each retry
/// re-pays the transfer and waits a bounded exponential backoff
/// (`base · 2^attempt`, capped).
fn retry_penalty_s(transfer_s: f64, failures: u32) -> f64 {
    (0..failures)
        .map(|i| {
            transfer_s
                + (RETRY_BACKOFF_BASE_S * f64::from(1u32 << i.min(10))).min(RETRY_BACKOFF_MAX_S)
        })
        .sum()
}

/// The batch one step decodes, as planned from the active set.
struct StepPlan {
    /// Work units, head-major; a unit's sharers are active indices.
    units: Vec<WorkUnit>,
    /// Longest context and residual window in the batch — the shape the
    /// cost model prices.
    max_len: usize,
    max_res: usize,
}

/// One device's partition of the active batch: cascade groups and
/// singletons as `(members by active index, shared block run)`.
type DevicePartition = Vec<(Vec<usize>, usize)>;

impl ServeSession {
    /// Runs one decode step: fire due faults and admit (arrivals + queue,
    /// the `admission` span) → plan the batch's attention units and launch
    /// them over the step's scoped threads, which also build each
    /// sequence's query, merge its per-head partials — the simulated
    /// all-reduce — advance its model and append its new KV rows in its
    /// residual windows (`fan_out`) → emit the tokens into their streams
    /// (`merge`) → append the KV rows that flush a block or grow the pages
    /// (`append`) → retire finished sequences → price the step → publish
    /// its metrics.
    ///
    /// Returns the step's metrics, or `None` when no work remains (the
    /// session is drained). If the session is idle but future arrivals
    /// exist, it fast-forwards to the next arrival step.
    pub fn step(&mut self) -> Option<ServeMetrics> {
        let step_span = self.obs.tracer.begin();
        let span = self.obs.tracer.begin();
        self.fire_due_faults();
        self.admit_until_active()?;
        self.obs.tracer.end(span, "admission", LANE_SESSION);
        let span = self.obs.tracer.begin();
        let StepPlan {
            units,
            max_len,
            max_res,
        } = self.plan_units();
        // Time only the decode work (the launch — queries, attention,
        // merge, model advance, in-window appends — then emission and the
        // remaining appends), not admission/prefill above, so
        // kv_tokens_per_s reports the runtime's own throughput.
        let t0 = Instant::now();
        let outs = self.execute(&units);
        self.obs.tracer.end(span, "fan_out", LANE_SESSION);
        // `units` and `appends` live until the function returns, so
        // freeing the step's buffers is charged to no span.
        let span = self.obs.tracer.begin();
        let appends = self.emit(outs);
        self.obs.tracer.end(span, "merge", LANE_SESSION);
        let span = self.obs.tracer.begin();
        self.append(&appends);
        self.obs.tracer.end(span, "append", LANE_SESSION);
        self.ledger.wall_s = t0.elapsed().as_secs_f64();
        self.retire();
        self.price(max_len, max_res);
        Some(self.publish(step_span))
    }

    /// The fault window: expire timed page seizures, then fire every due
    /// device loss and pool exhaustion before admission sees the pools.
    fn fire_due_faults(&mut self) {
        self.release_expired_hogs();
        while let Some(dead) = self.injector.take_device_loss(self.step_index) {
            self.ledger.add_fault(1);
            self.observe(dead as u64, RequestEvent::Fault("fault_device_loss"));
            self.lose_device(dead);
        }
        while let Some((pages, hold)) = self.injector.take_pool_exhaustion(self.step_index) {
            self.ledger.add_fault(1);
            self.observe(pages as u64, RequestEvent::Fault("fault_pool_exhaustion"));
            let release = hold.map(|h| self.step_index + h.max(1));
            self.seize_pages(pages, release);
        }
    }

    /// Batch formation. Classic shape: one unit per (sequence, kv-head,
    /// owning device). With cascade grouping on, sequences whose page
    /// tables alias the same sealed prefix pages on a device collapse into
    /// ONE multi-query unit per (prefix-group, kv-head, device) — the
    /// shared pages stream through the dequant LUTs once. The partition is
    /// recomputed from the page tables every step, so groups dissolve and
    /// reform automatically across fork, CoW breaks, preemption, swap, and
    /// device-loss rebuilds.
    fn plan_units(&mut self) -> StepPlan {
        let attn = *self.decoder.attention();
        let placement = self.store.placement().clone();
        let devices = placement.devices();
        let batch = self.active.len();
        let mut kv_tokens = 0usize;
        let mut max_len = 0usize;
        let mut max_res = 0usize;
        let mut lens = Vec::with_capacity(batch);
        for a in &self.active {
            let Some(len) = self.store.seq_len(a.seq) else {
                unreachable!("active sequence is resident");
            };
            kv_tokens += len;
            max_len = max_len.max(len);
            max_res = max_res.max(self.store.residual_len(a.seq));
            lens.push(len);
        }
        let nr = self.store.config().residual_block();
        let pt = self.store.page_tokens();
        let partitions: Vec<DevicePartition> =
            (0..devices).map(|d| self.partition_device(d)).collect();

        // Emit units head-major.
        let ledger = &mut self.ledger;
        ledger.batch = batch;
        ledger.kv_tokens = kv_tokens;
        ledger.dev_units = vec![0; devices];
        ledger.dev_tokens = vec![0; devices];
        let mut units = Vec::with_capacity(batch * attn.heads_kv);
        for kv in 0..attn.heads_kv {
            let device = placement.device_of(kv);
            let d = device.0 as usize;
            for (members, run) in &partitions[d] {
                let unit = units.len();
                ledger.dev_units[d] += 1;
                if members.len() > 1 {
                    // Unique tokens this unit walks: the shared run once,
                    // plus each sharer's private remainder.
                    let prefix_tokens = run * nr;
                    let private: usize = members.iter().map(|&i| lens[i] - prefix_tokens).sum();
                    ledger.dev_tokens[d] += prefix_tokens + private;
                    ledger.shared_attn_groups += 1;
                    ledger.shared_attn_sharers += members.len();
                    ledger.prefix_pages_walked_saved +=
                        (members.len() - 1) * prefix_tokens.div_ceil(pt);
                } else {
                    ledger.dev_tokens[d] += lens[members[0]];
                }
                units.push(WorkUnit {
                    unit,
                    head: kv,
                    device,
                    prefix_blocks: *run,
                    sharers: members.clone(),
                });
            }
        }
        StepPlan {
            units,
            max_len,
            max_res,
        }
    }

    /// Partitions the active batch on device `d` into cascade groups and
    /// singletons, in active order. Bucketing by root physical page is
    /// cheap and exact: sequences sharing any sealed prefix share its
    /// first page.
    fn partition_device(&self, d: usize) -> DevicePartition {
        let batch = self.active.len();
        let mut grouped: BTreeMap<usize, (Vec<usize>, usize)> = BTreeMap::new();
        if self.config.shared_attn && batch > 1 {
            let dev = self.store.device(DeviceId(d as u32));
            let mut buckets: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, a) in self.active.iter().enumerate() {
                if let Some(root) = dev.pool().table(a.seq).and_then(|t| t.first()) {
                    buckets.entry(root.0).or_default().push(i);
                }
            }
            for (_, members) in buckets {
                if members.len() < 2 {
                    continue;
                }
                let seqs: Vec<SeqId> = members.iter().map(|&i| self.active[i].seq).collect();
                let run = dev.shared_block_run(&seqs);
                if run > 0 {
                    grouped.insert(members[0], (members, run));
                }
            }
        }
        let in_group: BTreeSet<usize> = grouped
            .values()
            .flat_map(|(members, _)| members.iter().copied())
            .collect();
        let mut items = Vec::new();
        for i in 0..batch {
            if let Some(item) = grouped.remove(&i) {
                items.push(item);
            } else if !in_group.contains(&i) {
                items.push((vec![i], 0));
            }
        }
        items
    }

    /// Launches the units over the store's launch width — `workers ×
    /// devices` scoped threads, the width prompt admission packs on — that
    /// borrow the store, split into shared pages and each sequence's own
    /// windows, and the active models until every unit has finished.
    /// Returns each active sequence's product, in active order. A failed
    /// unit fails only the sequences it carries, and a model panic only its
    /// own; the session keeps serving the rest.
    fn execute(&mut self, units: &[WorkUnit]) -> Vec<Result<SeqOut, ServeError>> {
        let heads = self.decoder.attention().heads_kv;
        let threads = self.store.launch_width();
        let ids: Vec<SeqId> = self.active.iter().map(|a| a.seq).collect();
        let (pages, windows) = self.store.split_for_launch(&ids);
        let seqs = (self.active.iter_mut().zip(windows))
            .map(|(a, w)| SeqTask::new(w, a.step, a.model.as_mut(), heads))
            .collect();
        let out = run_units(
            units,
            seqs,
            threads,
            &pages,
            &self.decoder,
            &self.obs.tracer,
        );
        self.ledger.dequant += out.ops;
        if out.units_failed {
            self.ledger.degraded = true;
            self.observe(0, RequestEvent::Fault("worker_failure"));
        }
        out.outs
    }

    /// Emits each sequence's token into its stream, in active order, and
    /// returns the KV rows the launch left to append (those that flush a
    /// block or grow the pages); a sequence the launch failed is failed
    /// here, its pages freed for the survivors.
    fn emit(&mut self, outs: Vec<Result<SeqOut, ServeError>>) -> Vec<(SeqId, StepKv)> {
        // One wall read covers every token this step emits: lifecycle
        // resolution is per step anyway, and it keeps the loop cheap.
        let token_wall_us = self.obs.wall_us();
        let mut appends = Vec::new();
        let mut failures = Vec::new();
        for (a, out) in self.active.iter_mut().zip(outs) {
            let (token, pending) = match out {
                Ok(SeqOut::Appended(token)) => (token, None),
                Ok(SeqOut::Pending(step_kv)) => (step_kv.token, Some(step_kv)),
                Err(e) => {
                    failures.push((a.seq, e));
                    continue;
                }
            };
            let stream = self.streams.entry(a.id).or_default();
            if a.step < stream.len() {
                // Recompute replay of an already-streamed step:
                // determinism guarantees the same token — a delivered
                // stream never changes content, only timing.
                debug_assert_eq!(stream[a.step], token, "recompute replay diverged");
                stream[a.step] = token;
            } else {
                stream.push(token);
                // Genuinely-new token (not a recovery replay): the
                // lifecycle tracker's replay guard backstops this, but the
                // branch keeps the accounting intent visible here.
                self.obs
                    .lifecycle
                    .on_token(a.id, self.step_index, token_wall_us);
                self.ledger.new_tokens += 1;
            }
            if let Some(step_kv) = pending {
                appends.push((a.seq, step_kv));
            }
            a.step += 1;
            a.remaining -= 1;
        }
        for (seq, e) in failures {
            self.ledger.degraded = true;
            self.fail_active_seq(seq, e);
        }
        appends
    }

    /// Appends the KV rows the launch could not append in place. The
    /// admission reservation makes a failure unreachable in a healthy run;
    /// a failing append means the sequence cannot continue — it is failed
    /// instead of poisoning the batch.
    fn append(&mut self, appends: &[(SeqId, StepKv)]) {
        let codec = self.decoder.codec();
        let store = &mut self.store;
        let failures: Vec<(SeqId, ServeError)> = appends
            .iter()
            .filter_map(|(seq, kv)| {
                let e = store.append_step(*seq, &kv.k, &kv.v, &codec).err()?;
                Some((*seq, ServeError::Store(e)))
            })
            .collect();
        for (seq, e) in failures {
            self.ledger.degraded = true;
            self.fail_active_seq(seq, e);
        }
    }

    /// Retires finished sequences: seal, evict, recycle pages.
    fn retire(&mut self) {
        let done: Vec<(RequestId, SeqId)> = self
            .active
            .iter()
            .filter(|a| a.remaining == 0)
            .map(|a| (a.id, a.seq))
            .collect();
        let store = &mut self.store;
        for (_, seq) in &done {
            // An active sequence is resident by construction; `seal` only
            // errors on unknown ids, which `evict` tolerates too.
            let _ = store.seal(*seq);
            store.evict(*seq);
        }
        for (id, _) in &done {
            self.finished_step.insert(*id, self.step_index);
            self.observe(*id, RequestEvent::Completed);
        }
        self.active.retain(|a| a.remaining > 0);
        self.ledger.completed = done.len();
    }

    /// Prices the step: per-device utilization against the critical path,
    /// the cost model's compute time for the batch shape, and the
    /// all-reduce of the output partials — plus, under a transient link
    /// fault, its retries.
    fn price(&mut self, max_len: usize, max_res: usize) {
        let attn = *self.decoder.attention();
        let ledger = &mut self.ledger;
        let devices = ledger.dev_tokens.len();
        // On a weighted fleet the critical path is speed-aware: each
        // device's load is first normalized by its modeled throughput
        // weight, so a slow device carrying its fair (smaller) share reads
        // as fully utilized.
        let weighted_fleet = self.device_weights.len() == devices;
        let load = |d: usize| {
            if weighted_fleet {
                ledger.dev_tokens[d] as f64 / self.device_weights[d]
            } else {
                ledger.dev_tokens[d] as f64
            }
        };
        let max_load = (0..devices).map(load).fold(0.0_f64, f64::max);
        ledger.utilization = (0..devices)
            .map(|d| {
                if max_load > 0.0 {
                    load(d) / max_load
                } else {
                    0.0
                }
            })
            .collect();

        // The all-reduce payload: every head's un-normalized partial —
        // g_q rows of (d accumulators + m + l) f32s — for every sequence.
        let topology = &self.config.topology;
        let payload_bytes =
            (ledger.batch * attn.heads_q * (attn.head_dim + 2) * std::mem::size_of::<f32>()) as f64;
        ledger.allreduce_bytes_per_device =
            topology.allreduce_bytes_per_device(payload_bytes, devices);
        ledger.modeled_interconnect_s = topology.allreduce_s(payload_bytes, devices);
        let shape = DecodeShape::new(ledger.batch, attn, max_len.max(1)).with_residual(max_res);
        ledger.modeled_step_s = self.decoder.latency(&shape).total_s;

        let (failures, events) = self.injector.take_transient_failures(self.step_index);
        if failures > 0 {
            // Transient interconnect fault: this step's all-reduce failed
            // `failures` times before landing. Each retry re-pays the
            // transfer plus a bounded exponential backoff on the modeled
            // clock — purely a latency event, never a token one.
            self.ledger.add_fault(events);
            self.ledger.retries += failures as usize;
            self.ledger.modeled_interconnect_s +=
                retry_penalty_s(self.ledger.modeled_interconnect_s, failures);
            self.observe(
                u64::from(failures),
                RequestEvent::Fault("fault_link_transient"),
            );
        }
    }

    /// Removes a still-active sequence, frees its pages, and marks its
    /// request permanently failed with `err`.
    fn fail_active_seq(&mut self, seq: SeqId, err: ServeError) {
        let Some(pos) = self.active.iter().position(|a| a.seq == seq) else {
            return;
        };
        let victim = self.active.remove(pos);
        self.store.evict(victim.seq);
        self.ledger.requests_failed += 1;
        self.failed.insert(victim.id, err);
        self.observe(victim.id, RequestEvent::Failed);
    }
}
