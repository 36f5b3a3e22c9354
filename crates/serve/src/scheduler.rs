//! Pluggable admission/preemption policy for the serve scheduler.
//!
//! [`crate::session::ServeSession`] used to hard-code FCFS admission with
//! full prompt+generation reservation — correct, but one large request at
//! the queue head starves the whole pool (head-of-line blocking). This
//! module extracts the two decisions the admission loop makes into a
//! [`SchedulerPolicy`] trait, in the PagedAttention/SGLang tradition of
//! keeping scheduling a policy layer above paged storage:
//!
//! * **which queued request to try next** ([`SchedulerPolicy::pick_next`]),
//!   given read-only [`QueuedRequest`] views of the queue, and
//! * **whether to preempt a running sequence** when that request cannot be
//!   admitted for lack of pages ([`SchedulerPolicy::pick_victim`]), given
//!   [`RunningSeq`] views of the active batch in admission order.
//!
//! A preempted sequence is swapped out — its packed pages and FP16
//! residual window serialize into a host-side blob via
//! [`bd_kvcache::ShardedKvStore::swap_out`], freeing its pages on every
//! device — and re-queued **at the front** of the pending queue with its
//! model state intact. When it is admitted again the blob swaps back in
//! bitwise, so a preempted stream is indistinguishable from an
//! uninterrupted one (the property the serve proptests pin down).
//!
//! Three policies ship:
//!
//! * [`Fcfs`] — the previous behavior, and still the default: strict
//!   arrival order, never preempts. One big request at the head blocks
//!   everyone behind it until running sequences finish.
//! * [`FcfsPreempt`] — arrival order first, but when a request that has
//!   never run is blocked on pages it preempts the **youngest** running
//!   sequence (the one admitted most recently, vLLM-style last-in
//!   victim), repeatedly if necessary, and a request that stays blocked
//!   does not stall the pass — admission backfills later queued requests
//!   that do fit — so due arrivals always make progress. Swapped-out
//!   sequences never trigger further preemption when their swap-in is
//!   blocked — that guard is what prevents two sequences from thrashing
//!   each other's pages in alternate steps — and backfill is bounded by
//!   an aging rule: a swapped-out sequence blocked for
//!   `FcfsPreempt::with_patience` steps pauses further admissions until
//!   it fits, so sustained fresh load cannot starve it indefinitely.
//! * [`ShortestRemainingFirst`] — picks the queued request with the
//!   fewest remaining tokens to generate (ties broken FCFS), never
//!   preempts: small late arrivals overtake big queued requests without
//!   any swap traffic, at the price of delaying the big ones.

/// Read-only view of one queued request, handed to
/// [`SchedulerPolicy::pick_next`] in queue order.
#[derive(Clone, Copy, Debug)]
pub struct QueuedRequest {
    /// The request's session-assigned id (submission order).
    pub id: u64,
    /// Prompt tokens (already in the KV blob for a swapped-out request).
    pub prompt_tokens: usize,
    /// Tokens still to generate.
    pub remaining_tokens: usize,
    /// Pages admission must reserve **per device**.
    pub needed_pages: usize,
    /// `true` when the request ran before and was preempted: it resumes
    /// by swapping its KV blob back in rather than by prefilling.
    pub resumable: bool,
}

/// Read-only view of one running sequence, handed to
/// [`SchedulerPolicy::pick_victim`] in admission order (oldest first).
#[derive(Clone, Copy, Debug)]
pub struct RunningSeq {
    /// The request's session-assigned id.
    pub id: u64,
    /// The decode step at which this sequence was (most recently)
    /// admitted.
    pub admitted_step: usize,
    /// Tokens still to generate.
    pub remaining_tokens: usize,
    /// Pages preempting this sequence would actually free per device: its
    /// exclusively-held pages. Prefix pages shared with a forked relative
    /// survive the swap-out and are not counted.
    pub held_pages: usize,
}

/// An admission/preemption policy for [`crate::session::ServeSession`] —
/// see the [module docs](self) for the contract and the shipped policies.
pub trait SchedulerPolicy: Send {
    /// Short label for metrics/bench output.
    fn label(&self) -> &'static str;

    /// Index into `queue` of the next request to try admitting, or `None`
    /// to stop admitting this step. Called repeatedly within one step
    /// until it returns `None`, the batch cap is hit, or an admission
    /// fails without a victim.
    fn pick_next(&mut self, queue: &[QueuedRequest]) -> Option<usize>;

    /// `candidate` could not be admitted for lack of pages. Return the
    /// index into `running` (admission order, oldest first) of a sequence
    /// to preempt — swap out and re-queue at the front — after which the
    /// candidate is retried; or `None` to leave the candidate queued.
    ///
    /// `step` is the current decode step; sequences with
    /// `admitted_step == step` were admitted earlier in this same
    /// admission pass, and preempting one of them would let two requests
    /// steal the same pages back and forth within a single step —
    /// policies should leave them alone.
    fn pick_victim(
        &mut self,
        candidate: &QueuedRequest,
        running: &[RunningSeq],
        step: usize,
    ) -> Option<usize>;

    /// `blocked` stayed blocked (no pages, no victim) at decode step
    /// `step`: should the admission pass keep considering **other** queued
    /// requests? `false` (the default) preserves strict queue-order
    /// blocking: the head waits and everything waits behind it. `true`
    /// lets the scheduler backfill — later requests that do fit
    /// (typically small ones behind a big blocked or swapped-out head)
    /// admit into the leftover pages, so due arrivals keep making
    /// progress. The blocked candidate keeps its queue position either
    /// way. Stateful policies use this hook to **age** chronically
    /// blocked requests: answering `false` after enough blocked steps
    /// pauses admissions so the pool drains back to them.
    ///
    /// Note the hook is only consulted on steps whose admission pass
    /// reaches the request — a full batch (or an earlier `false`) skips
    /// it entirely — so "blocked steps" must be counted from these calls,
    /// never inferred from step gaps.
    fn continue_after_block(&mut self, blocked: &QueuedRequest, step: usize) -> bool {
        let _ = (blocked, step);
        false
    }

    /// A previously preempted request swapped back in. This is the ground
    /// truth an aging policy needs to close a starvation episode —
    /// absence from `continue_after_block` calls is **not** evidence of a
    /// resume (batch-full steps never consult the policy at all).
    fn on_resumed(&mut self, id: u64) {
        let _ = id;
    }
}

impl<P: SchedulerPolicy + ?Sized> SchedulerPolicy for Box<P> {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn pick_next(&mut self, queue: &[QueuedRequest]) -> Option<usize> {
        (**self).pick_next(queue)
    }

    fn pick_victim(
        &mut self,
        candidate: &QueuedRequest,
        running: &[RunningSeq],
        step: usize,
    ) -> Option<usize> {
        (**self).pick_victim(candidate, running, step)
    }

    fn continue_after_block(&mut self, blocked: &QueuedRequest, step: usize) -> bool {
        (**self).continue_after_block(blocked, step)
    }

    fn on_resumed(&mut self, id: u64) {
        (**self).on_resumed(id)
    }
}

/// Strict first-come-first-served admission, never preempting — the
/// original serve-loop behavior and the session default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fcfs;

impl SchedulerPolicy for Fcfs {
    fn label(&self) -> &'static str {
        "fcfs"
    }

    fn pick_next(&mut self, queue: &[QueuedRequest]) -> Option<usize> {
        (!queue.is_empty()).then_some(0)
    }

    fn pick_victim(
        &mut self,
        _candidate: &QueuedRequest,
        _running: &[RunningSeq],
        _step: usize,
    ) -> Option<usize> {
        None
    }
}

/// Aging state for one chronically blocked swapped-out sequence.
#[derive(Clone, Copy, Debug)]
struct Starved {
    id: u64,
    /// Last decode step a block was counted at (blocks within one step's
    /// admission pass count once).
    last_step: usize,
    /// Distinct decode steps the sequence has been blocked for.
    blocked_steps: usize,
}

/// FCFS admission with last-in preemption under page pressure: a blocked
/// request that has never run evicts the youngest running sequence (swap
/// out, re-queue at front) until it fits. Swapped-out requests waiting to
/// resume never preempt — see the [module docs](self) for why that guard
/// matters — and blocked requests don't stall the pass: admission
/// backfills later arrivals that fit.
///
/// Backfill alone would let a steady stream of fresh requests starve a
/// parked swapped-out sequence forever (each newcomer fits the pages the
/// victim needs, so its swap-in never does). The policy therefore
/// **ages** the blocked resumable it is tracking: after
/// `FcfsPreempt::with_patience` distinct blocked steps (default 8) it
/// stops backfilling past it, pausing admissions until draining
/// sequences return enough pages for the swap-in — a bounded wait, since
/// every running sequence holds its full generation budget.
#[derive(Clone, Copy, Debug)]
pub struct FcfsPreempt {
    patience: usize,
    starved: Option<Starved>,
}

impl FcfsPreempt {
    /// Default blocked-step budget before admissions pause for a starved
    /// swapped-out sequence.
    pub const DEFAULT_PATIENCE: usize = 8;

    /// Overrides the aging threshold: a swapped-out sequence blocked for
    /// `patience` distinct decode steps stops admissions until it fits.
    ///
    /// # Panics
    ///
    /// Panics if `patience` is zero (the policy would never backfill).
    pub(crate) fn with_patience(patience: usize) -> Self {
        assert!(patience > 0, "patience must be positive");
        FcfsPreempt {
            patience,
            starved: None,
        }
    }
}

impl Default for FcfsPreempt {
    fn default() -> Self {
        FcfsPreempt::with_patience(FcfsPreempt::DEFAULT_PATIENCE)
    }
}

impl SchedulerPolicy for FcfsPreempt {
    fn label(&self) -> &'static str {
        "fcfs-preempt"
    }

    fn pick_next(&mut self, queue: &[QueuedRequest]) -> Option<usize> {
        (!queue.is_empty()).then_some(0)
    }

    fn pick_victim(
        &mut self,
        candidate: &QueuedRequest,
        running: &[RunningSeq],
        step: usize,
    ) -> Option<usize> {
        if candidate.resumable {
            // A swapped-out sequence waits for pages instead of grabbing
            // them back: preempting on its behalf would thrash.
            return None;
        }
        // Youngest victim = the last running sequence not admitted within
        // this very admission pass.
        running.iter().rposition(|r| r.admitted_step < step)
    }

    fn continue_after_block(&mut self, blocked: &QueuedRequest, step: usize) -> bool {
        // Without backfill a swapped-out sequence parked at the queue head
        // would re-create the head-of-line blocking this policy exists to
        // break — everything behind it would stall until its swap-in
        // fits. But unbounded backfill starves that sequence under
        // sustained load, so the **oldest** (lowest-id) parked resumable
        // is aged: once its patience runs out, stop admitting past it.
        // The tracker is cleared only by [`SchedulerPolicy::on_resumed`] —
        // the session's explicit resume signal. Step gaps mean nothing
        // here: batch-full steps (and passes cut short by an earlier
        // pause) never consult this hook at all, so inferring a resume
        // from silence would reset the count under exactly the sustained
        // load the bound exists for.
        if !blocked.resumable {
            return true;
        }
        let fresh_episode = Starved {
            id: blocked.id,
            last_step: step,
            blocked_steps: 1,
        };
        match &mut self.starved {
            // The tracked starvee blocked again: count once per step.
            Some(s) if s.id == blocked.id => {
                if step > s.last_step {
                    s.blocked_steps += 1;
                    s.last_step = step;
                }
                s.blocked_steps < self.patience
            }
            // An older sequence than the tracked one is parked — newly
            // preempted victims land at the queue *front* and block first
            // each step, so without this arm every new victim would steal
            // the tracker and the oldest would never accumulate patience.
            Some(s) if blocked.id < s.id => {
                *s = fresh_episode;
                true
            }
            // A younger parked sequence: backfill past it; the tracker
            // stays on the oldest until `on_resumed` releases it.
            Some(_) => true,
            None => {
                self.starved = Some(fresh_episode);
                true
            }
        }
    }

    fn on_resumed(&mut self, id: u64) {
        if self.starved.is_some_and(|s| s.id == id) {
            self.starved = None;
        }
    }
}

/// Shortest-remaining-generation-first admission, never preempting. Ties
/// break FCFS (lowest id), so equal-length requests keep arrival order.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestRemainingFirst;

impl SchedulerPolicy for ShortestRemainingFirst {
    fn label(&self) -> &'static str {
        "shortest-remaining-first"
    }

    fn pick_next(&mut self, queue: &[QueuedRequest]) -> Option<usize> {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.remaining_tokens, q.id))
            .map(|(i, _)| i)
    }

    fn pick_victim(
        &mut self,
        _candidate: &QueuedRequest,
        _running: &[RunningSeq],
        _step: usize,
    ) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(id: u64, remaining: usize, resumable: bool) -> QueuedRequest {
        QueuedRequest {
            id,
            prompt_tokens: 10,
            remaining_tokens: remaining,
            needed_pages: 1,
            resumable,
        }
    }

    fn running(id: u64, admitted_step: usize) -> RunningSeq {
        RunningSeq {
            id,
            admitted_step,
            remaining_tokens: 5,
            held_pages: 2,
        }
    }

    #[test]
    fn fcfs_picks_the_head_and_never_preempts() {
        let mut p = Fcfs;
        assert_eq!(p.pick_next(&[]), None);
        let q = [queued(3, 9, false), queued(4, 1, false)];
        assert_eq!(p.pick_next(&q), Some(0));
        assert_eq!(p.pick_victim(&q[0], &[running(0, 0)], 5), None);
    }

    #[test]
    fn fcfs_preempt_targets_youngest_but_spares_same_step_admits() {
        let mut p = FcfsPreempt::default();
        let q = queued(7, 4, false);
        // Youngest = rightmost in admission order…
        let active = [running(0, 0), running(1, 2), running(2, 3)];
        assert_eq!(p.pick_victim(&q, &active, 5), Some(2));
        // …unless it was admitted this very step.
        let active = [running(0, 0), running(1, 2), running(2, 5)];
        assert_eq!(p.pick_victim(&q, &active, 5), Some(1));
        // An all-fresh batch yields no victim.
        let active = [running(0, 5), running(1, 5)];
        assert_eq!(p.pick_victim(&q, &active, 5), None);
    }

    #[test]
    fn fcfs_preempt_never_preempts_for_a_swapped_request() {
        let mut p = FcfsPreempt::default();
        let q = queued(0, 4, true);
        assert_eq!(p.pick_victim(&q, &[running(9, 0)], 5), None);
    }

    #[test]
    fn backfill_flag_survives_boxing() {
        // The session stores policies as `Box<dyn SchedulerPolicy>`; the
        // Box forwarding impl must forward every method, including the
        // defaulted one (a missing forward silently reverts to the strict
        // default).
        let mut boxed: Box<dyn SchedulerPolicy> = Box::new(FcfsPreempt::default());
        assert!(boxed.continue_after_block(&queued(0, 4, false), 1));
        let mut strict: Box<dyn SchedulerPolicy> = Box::new(Fcfs);
        assert!(!strict.continue_after_block(&queued(0, 4, false), 1));
        assert!(!ShortestRemainingFirst.continue_after_block(&queued(0, 4, false), 1));
    }

    #[test]
    fn aging_pauses_backfill_after_patience_runs_out() {
        let mut p = FcfsPreempt::with_patience(3);
        let parked = queued(5, 10, true);
        // Fresh blocked candidates never pause the pass.
        assert!(p.continue_after_block(&queued(9, 2, false), 1));
        // The parked resumable gets `patience` distinct blocked steps…
        assert!(p.continue_after_block(&parked, 1));
        assert!(p.continue_after_block(&parked, 1), "same step counts once");
        assert!(p.continue_after_block(&parked, 2));
        // …then admissions pause for it.
        assert!(!p.continue_after_block(&parked, 3));
        assert!(!p.continue_after_block(&parked, 4));
        // A different resumable blocked at the same step sits behind the
        // tracked one and is backfilled past, not re-tracked.
        let mut q = FcfsPreempt::with_patience(2);
        assert!(q.continue_after_block(&parked, 1));
        assert!(q.continue_after_block(&queued(6, 10, true), 1));
        assert!(!q.continue_after_block(&parked, 2));
    }

    #[test]
    fn aging_tracks_the_oldest_victim_under_churn() {
        // Newly preempted victims block first each step (they park at the
        // queue front); they must not steal the tracker from the oldest
        // parked sequence, or the patience bound would never fire.
        let mut p = FcfsPreempt::with_patience(3);
        let oldest = queued(1, 10, true);
        assert!(p.continue_after_block(&queued(4, 10, true), 1));
        // The older sequence takes the tracker over from the newcomer.
        assert!(p.continue_after_block(&oldest, 1));
        for step in 2..4 {
            // Each step a fresh victim (ever-younger) blocks before the
            // tracked one; the oldest still accumulates.
            assert!(p.continue_after_block(&queued(3 + step as u64, 10, true), step));
            let expect_open = step < 3;
            assert_eq!(p.continue_after_block(&oldest, step), expect_open);
        }
    }

    #[test]
    fn aging_resets_between_episodes() {
        // The session's explicit resume signal closes a starvation
        // episode: a later preemption of the same request starts a fresh
        // patience budget instead of pausing instantly on stale state.
        let mut p = FcfsPreempt::with_patience(2);
        let parked = queued(5, 10, true);
        assert!(p.continue_after_block(&parked, 1));
        assert!(!p.continue_after_block(&parked, 2)); // aged out
        p.on_resumed(5);
        // Preempted again much later: full patience again.
        assert!(p.continue_after_block(&parked, 50));
        assert!(!p.continue_after_block(&parked, 51));
        // Resumes of untracked requests leave the tracker alone.
        let mut q = FcfsPreempt::with_patience(2);
        assert!(q.continue_after_block(&parked, 1));
        q.on_resumed(99);
        assert!(!q.continue_after_block(&parked, 2));
    }

    #[test]
    fn aging_counts_across_batch_cap_gaps() {
        // On batch-full steps the admission pass never consults the
        // policy, so the tracked sequence goes silent for stretches while
        // still parked. Those gaps must not reset the count — only the
        // explicit resume signal does.
        let mut p = FcfsPreempt::with_patience(3);
        let parked = queued(5, 10, true);
        assert!(p.continue_after_block(&parked, 10));
        assert!(p.continue_after_block(&parked, 11));
        // Steps 12–17: batch full, policy never called.
        assert!(!p.continue_after_block(&parked, 18), "gap reset the count");
    }

    #[test]
    fn srf_picks_fewest_remaining_with_fcfs_ties() {
        let mut p = ShortestRemainingFirst;
        let q = [
            queued(0, 9, false),
            queued(1, 2, false),
            queued(2, 2, false),
        ];
        // 1 and 2 tie on remaining; the lower id wins.
        assert_eq!(p.pick_next(&q), Some(1));
        assert_eq!(p.pick_next(&[]), None);
        assert_eq!(p.pick_victim(&q[1], &[running(0, 0)], 3), None);
    }
}
