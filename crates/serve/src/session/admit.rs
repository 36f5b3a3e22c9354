//! Admission: due arrivals join the queue, the policy picks who enters
//! the batch, and under page pressure who is swapped out to make room.

use super::{ActiveSeq, QueueEntry, RequestEvent, RequestId, ResumeState, ServeSession};
use crate::scheduler::{QueuedRequest, RunningSeq};
use crate::workers::ServeError;
use bd_kvcache::{DeviceId, PageId, SeqId, StoreError};
use std::collections::{BTreeMap, BTreeSet};

impl ServeSession {
    /// Admits at the current step and, while nothing is running, jumps
    /// the step clock to whatever can change that — the earliest timed
    /// page-seizure release (if requests are queued behind it and no
    /// arrival lands first), else the next trace arrival — and admits
    /// again. `None` when neither exists: the session is drained.
    pub(super) fn admit_until_active(&mut self) -> Option<()> {
        self.admit_due();
        while self.active.is_empty() {
            if let Some(release) = self.hogs.iter().filter_map(|h| h.release).min() {
                if !self.pending.is_empty() && self.arrivals.front().is_none_or(|e| e.0 >= release)
                {
                    self.step_index = self.step_index.max(release);
                    self.release_expired_hogs();
                    self.admit_due();
                    continue;
                }
            }
            let next = self.arrivals.front()?.0;
            self.step_index = next.max(self.step_index);
            self.admit_due();
        }
        Some(())
    }

    /// Moves arrivals due at the current step into the pending queue, then
    /// admits under the session's [`SchedulerPolicy`](crate::SchedulerPolicy)
    /// while pages (on every device) and the batch cap allow — preempting
    /// running sequences when the policy names victims.
    fn admit_due(&mut self) {
        while let Some((step, _)) = self.arrivals.front() {
            if *step > self.step_index {
                break;
            }
            let Some((_, entry)) = self.arrivals.pop_front() else {
                unreachable!("checked front");
            };
            self.pending.push_back(entry);
        }
        // Requests that stayed blocked this pass: excluded from further
        // `pick_next` views (a backfilling policy moves on to others; a
        // strict one stops at the first of them anyway).
        let mut blocked: BTreeSet<RequestId> = BTreeSet::new();
        while self.active.len() < self.config.max_batch {
            let eligible: Vec<(usize, QueuedRequest)> = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, e)| !blocked.contains(&e.id))
                .map(|(i, e)| (i, self.entry_view(e)))
                .collect();
            let views: Vec<QueuedRequest> = eligible.iter().map(|(_, v)| *v).collect();
            let Some(pick) = self.policy.pick_next(&views) else {
                break;
            };
            let idx = eligible[pick].0;
            let Some(mut entry) = self.pending.remove(idx) else {
                unreachable!("policy picked a live queue index");
            };
            // Retry the same candidate after each preemption; when the
            // policy names no (further) victim, put it back where it was —
            // it keeps its queue position for the next pages that free up
            // — and either stop the pass (strict policies) or move on to
            // later queued requests (backfilling ones). Victims pushed to
            // the queue front during the retries shift positions, so the
            // re-insert offsets by their count to land the candidate
            // behind them, in its original slot.
            let mut victims_pushed = 0usize;
            loop {
                entry = match self.try_admit(entry) {
                    Ok(()) => break,
                    Err(back) => back,
                };
                let candidate = self.entry_view(&entry);
                if let Some(v) = self.pick_victim(&candidate) {
                    self.preempt(v);
                    victims_pushed += 1;
                    continue;
                }
                blocked.insert(entry.id);
                self.pending
                    .insert((idx + victims_pushed).min(self.pending.len()), entry);
                if self
                    .policy
                    .continue_after_block(&candidate, self.step_index)
                {
                    break;
                }
                return;
            }
        }
    }

    /// The running sequence (by admission index) the policy swaps out so
    /// `candidate` can be admitted, if any — `None` also when preempting
    /// every eligible victim still could not free enough pages.
    fn pick_victim(&mut self, candidate: &QueuedRequest) -> Option<usize> {
        // `held_pages` = what preempting the sequence actually frees: only
        // exclusively-held pages — a shared prefix page survives its
        // sharers. The sequence refcount ignores prefix-cache pins: a
        // cache-pinned page whose only sequence is the victim becomes
        // reclaimable on swap-out, which the free-page budget already
        // counts as free.
        let pool = self.store.device(DeviceId(0)).pool();
        let running: Vec<RunningSeq> = self
            .active
            .iter()
            .map(|a| RunningSeq {
                id: a.id,
                admitted_step: a.admitted_step,
                remaining_tokens: a.remaining,
                held_pages: pool.table(a.seq).map_or(0, |t| {
                    t.iter().filter(|&&p| pool.seq_refcount(p) == 1).count()
                }),
            })
            .collect();
        // Futility guard: even preempting every victim the policy may name
        // (same-step admits are off limits by the trait contract) cannot
        // free enough pages — don't swap anyone out for nothing. A page
        // frees once its *last* reference drops, so count pages whose
        // every reference belongs to an eligible victim — prefix pages
        // shared only among victims free when the last sharer swaps out
        // (summing per-victim exclusive pages would miss them).
        let free = self.store.device(DeviceId(0)).free_pages();
        let mut victim_refs: BTreeMap<PageId, u32> = BTreeMap::new();
        for a in self
            .active
            .iter()
            .filter(|a| a.admitted_step < self.step_index)
        {
            for &p in pool.table(a.seq).unwrap_or(&[]) {
                *victim_refs.entry(p).or_insert(0) += 1;
            }
        }
        let preemptible = victim_refs
            .iter()
            .filter(|(&p, &c)| c == pool.seq_refcount(p))
            .count();
        if candidate.needed_pages > free + preemptible {
            return None;
        }
        self.policy
            .pick_victim(candidate, &running, self.step_index)
    }

    /// The policy-facing view of one queued entry, with `needed_pages`
    /// computed against the store's **current** residency: a preempted
    /// request counts only the pages its still-resident shared prefix
    /// cannot re-supply, and a shared-prompt fork counts only its private
    /// tail — so the preemption and futility math sees the true admission
    /// cost, not the unshared worst case.
    fn entry_view(&self, entry: &QueueEntry) -> QueuedRequest {
        let prompt_tokens = entry.model.prompt_tokens();
        match &entry.resume {
            Some(r) => QueuedRequest {
                id: entry.id,
                prompt_tokens,
                remaining_tokens: r.remaining,
                needed_pages: self.store.swap_in_new_pages(&r.blob),
                resumable: true,
            },
            None => {
                let total = prompt_tokens + entry.model.gen_tokens();
                let needed_pages = self
                    .forkable_parent(entry)
                    .and_then(|seq| self.store.fork_new_pages(seq, prompt_tokens, total))
                    .unwrap_or_else(|| total.div_ceil(self.config.page_tokens));
                QueuedRequest {
                    id: entry.id,
                    prompt_tokens,
                    remaining_tokens: entry.model.gen_tokens(),
                    needed_pages,
                    resumable: false,
                }
            }
        }
    }

    /// The live parent sequence `entry` can fork off **right now**: the
    /// entry was submitted as a fork, its parent is actively decoding, and
    /// the shared-prompt boundary is still within reach of the parent's
    /// residual window.
    fn forkable_parent(&self, entry: &QueueEntry) -> Option<SeqId> {
        let pid = entry.fork_of?;
        let parent = self.active.iter().find(|a| a.id == pid)?;
        self.store
            .can_fork(parent.seq, entry.model.prompt_tokens())
            .then_some(parent.seq)
    }

    /// Tries to admit one queued request: a preempted one swaps its KV
    /// blob back in, a fresh one prefills or forks. On page exhaustion the
    /// entry is handed back unchanged.
    fn try_admit(&mut self, mut entry: QueueEntry) -> Result<(), QueueEntry> {
        match entry.resume.take() {
            Some(res) => self.resume_swapped(entry, res),
            None => self.admit_fresh(entry),
        }
    }

    /// Restores a preempted request's KV blob `res` bitwise and puts it
    /// back in the batch at the generation position it left.
    fn resume_swapped(
        &mut self,
        mut entry: QueueEntry,
        res: ResumeState,
    ) -> Result<(), QueueEntry> {
        let now = self.step_index;
        // Deterministic swap-corruption fault: damage one payload bit
        // before the restore so the checksum path must catch it (top bits
        // of the scheduled bit select the device share).
        let restored = match self.injector.take_swap_corruption(now) {
            Some(bit) => {
                self.ledger.add_fault(1);
                let mut damaged = res.blob.clone();
                damaged.flip_bit((bit >> 48) as usize, bit);
                self.store.swap_in(&damaged)
            }
            None => self.store.swap_in(&res.blob),
        };
        match restored {
            Ok(seq) => {
                let bytes = res.blob.host_bytes() as f64;
                let per_dev = res.blob.host_bytes_per_device();
                self.ledger.resumed += 1;
                self.ledger
                    .add_swap(bytes, self.config.topology.swap_transfer_s(bytes, &per_dev));
                // Ground truth for aging policies: silence is not a
                // resume (batch-full steps never consult them).
                self.policy.on_resumed(entry.id);
                self.active.push(ActiveSeq {
                    id: entry.id,
                    seq,
                    model: entry.model,
                    step: res.step,
                    remaining: res.remaining,
                    admitted_step: now,
                });
                self.observe(entry.id, RequestEvent::Resumed);
                Ok(())
            }
            // Page exhaustion: hand the entry back unchanged and try
            // again when capacity frees up.
            Err(StoreError::Oom(_)) => {
                entry.resume = Some(res);
                Err(entry)
            }
            // The blob failed its integrity check (or was cut for a
            // pre-rebuild device count): its KV is untrusted and
            // unrestorable. Recover by recomputing the request from its
            // prompt — determinism re-derives every already-streamed token
            // bitwise, so the delivered stream only ever changes in
            // *when*, never *what*.
            Err(_corrupt) => {
                self.ledger.recoveries += 1;
                self.ledger.degraded = true;
                self.observe(entry.id, RequestEvent::Recovered);
                entry.model.reset();
                self.admit_fresh(entry)
            }
        }
    }

    /// Admits a request that holds no KV yet: reserves its full page
    /// budget and prefills its prompt, or — submitted with a shared prompt
    /// whose parent is live — forks the parent copy-on-write.
    fn admit_fresh(&mut self, mut entry: QueueEntry) -> Result<(), QueueEntry> {
        let prompt_tokens = entry.model.prompt_tokens();
        let reserve = prompt_tokens + entry.model.gen_tokens();
        // Shared-prompt admission: fork the live parent instead of
        // re-prefilling — the child's prompt pages alias the parent's
        // copy-on-write, so only the private tail is reserved (and no
        // prompt quantization re-runs). When the parent is gone or its
        // boundary was quantized away, take the ordinary full-prefill
        // path instead.
        let fork_seq = self.forkable_parent(&entry);
        let admitted = if let Some(pseq) = fork_seq {
            let seq = self.store.fork(pseq, prompt_tokens, reserve);
            self.ledger.forked += usize::from(seq.is_ok());
            seq.ok()
        } else {
            // Cheap page preflight before materializing the prompt: the
            // admission charge is `reserve` pages against every device's
            // free budget whether or not the prefix cache would hit (hits
            // change what the admission *costs*, never whether it fits),
            // so a doomed attempt can skip prompt construction and
            // quantization entirely.
            if reserve.div_ceil(self.config.page_tokens) > self.store.min_free_pages() {
                None
            } else {
                let codec = self.decoder.codec();
                let (pk, pv) = entry.model.prompt();
                match self.store.admit_prefill_cached(&pk, &pv, reserve, &codec) {
                    Ok((seq, _admit)) => Some(seq),
                    Err(StoreError::Oom(_)) => None,
                    // A model whose prompt disagrees with its declared
                    // shape cannot be served: the cached admission rejects
                    // it atomically (nothing was reserved anywhere) — fail
                    // the request instead of poisoning the session.
                    Err(e) => {
                        self.ledger.requests_failed += 1;
                        self.ledger.degraded = true;
                        self.failed.insert(entry.id, ServeError::Store(e));
                        self.observe(entry.id, RequestEvent::Failed);
                        return Ok(());
                    }
                }
            }
        };
        let Some(seq) = admitted else {
            return Err(entry);
        };
        self.ledger.admitted += 1;
        let remaining = entry.model.gen_tokens();
        self.active.push(ActiveSeq {
            id: entry.id,
            seq,
            model: entry.model,
            step: 0,
            remaining,
            admitted_step: self.step_index,
        });
        let event = if fork_seq.is_some() {
            RequestEvent::ForkAdmitted
        } else {
            RequestEvent::Admitted
        };
        self.observe(entry.id, event);
        Ok(())
    }

    /// Swaps out the running sequence at `index` (admission order) and
    /// re-queues it at the **front** of the pending queue with its model
    /// state and generation position intact; the swap-in path restores its
    /// KV bitwise, so the preempted stream stays identical to an
    /// uninterrupted one.
    fn preempt(&mut self, index: usize) {
        let victim = self.active.remove(index);
        let blob = match self.store.swap_out(victim.seq) {
            Ok(b) => b,
            Err(_) => unreachable!("active sequence is resident"),
        };
        let bytes = blob.host_bytes() as f64;
        let per_dev = blob.host_bytes_per_device();
        self.ledger.preempted += 1;
        self.ledger
            .add_swap(bytes, self.config.topology.swap_transfer_s(bytes, &per_dev));
        self.pending.push_front(QueueEntry {
            id: victim.id,
            model: victim.model,
            resume: Some(ResumeState {
                blob,
                step: victim.step,
                remaining: victim.remaining,
            }),
            // Resume restores the KV blob (re-sharing what it can); the
            // fork lineage no longer matters.
            fork_of: None,
        });
        self.observe(victim.id, RequestEvent::Preempted);
    }
}
