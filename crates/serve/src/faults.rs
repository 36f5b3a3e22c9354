//! Deterministic fault injection for the serve runtime.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — *what* breaks and at
//! *which* decode step — built explicitly or derived from a seed
//! ([`FaultPlan::seeded`]), so every chaos run is exactly reproducible.
//! [`ServeSession::with_faults`](crate::session::ServeSession::with_faults)
//! wraps the plan in a [`FaultInjector`], which the session consults as it
//! steps; the injector consumes each event the first time it is due, so a
//! fault fires exactly once no matter how the step clock jumps (idle
//! fast-forward included).
//!
//! The four fault kinds exercise the four recovery paths the runtime
//! guarantees (see `docs/ARCHITECTURE.md` § Faults & recovery):
//! device loss → placement rebuild + recompute-from-prompt, swap blob
//! corruption → checksum rejection + recompute, transient link failure →
//! priced bounded-backoff retries, pool exhaustion → typed admission
//! backpressure. None of them may ever change *which* tokens a completed
//! stream carries — only *when* they arrive.

/// What breaks. See the [module docs](self) for the recovery path each
/// kind exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A whole device dies: every KV page it held is gone. The session
    /// quarantines it, rebuilds the [`Placement`](bd_kvcache::Placement)
    /// over the survivors, and recovers every affected sequence by
    /// recompute-from-prompt re-admission at the front of the queue.
    DeviceLoss {
        /// Which device to kill (taken modulo the live device count).
        device: usize,
    },
    /// The next swap-in's host blob has suffered bit rot: one payload bit
    /// flips, the [`SwappedSeq`](bd_kvcache::SwappedSeq) checksum rejects
    /// the blob, and the sequence falls back to recompute-from-prompt.
    /// Carries forward: fires at the first swap-in at or after its step.
    CorruptSwap {
        /// Which payload bit to flip.
        bit: u64,
    },
    /// Transient interconnect failures: the step's all-reduce transfer
    /// fails `failures` times before succeeding. Each retry re-pays the
    /// transfer and a bounded exponential backoff on the modeled
    /// interconnect clock.
    TransientLink {
        /// Failed attempts before the transfer goes through.
        failures: u32,
    },
    /// Forced page-pool exhaustion: `pages` pages per device are seized
    /// for `hold_steps` steps (`None` = for the rest of the run), driving
    /// admission backpressure and, for permanent seizures, typed
    /// [`AdmissionError::Backpressure`](crate::session::AdmissionError)
    /// rejections.
    PoolExhaustion {
        /// Pages to seize per device (clamped to what is free).
        pages: usize,
        /// Steps to hold them, or `None` to hold until the run ends.
        hold_steps: Option<usize>,
    },
}

/// One fault scheduled at a decode step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The decode step at (or, if the clock jumps past it, after) which
    /// the fault fires.
    pub step: usize,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. Build one explicitly with the
/// chainable constructors or derive one from a seed with
/// [`FaultPlan::seeded`]; either way the schedule is a pure value — same
/// plan, same chaos, every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// SplitMix64: the statelessly seedable generator used across the repo's
/// synthetic data paths.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one event to the schedule.
    #[must_use]
    pub(crate) fn at(mut self, step: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { step, kind });
        self.events.sort_by_key(|e| e.step);
        self
    }

    /// Schedules a whole-device loss.
    #[must_use]
    pub fn device_loss(self, step: usize, device: usize) -> Self {
        self.at(step, FaultKind::DeviceLoss { device })
    }

    /// Schedules swap-blob corruption (fires at the first swap-in at or
    /// after `step`).
    #[must_use]
    pub fn corrupt_swap(self, step: usize, bit: u64) -> Self {
        self.at(step, FaultKind::CorruptSwap { bit })
    }

    /// Schedules transient interconnect failures.
    #[must_use]
    pub fn transient_link(self, step: usize, failures: u32) -> Self {
        self.at(step, FaultKind::TransientLink { failures })
    }

    /// Schedules forced page-pool exhaustion.
    #[must_use]
    pub fn pool_exhaustion(self, step: usize, pages: usize, hold_steps: Option<usize>) -> Self {
        self.at(step, FaultKind::PoolExhaustion { pages, hold_steps })
    }

    /// The scheduled events, ordered by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A pseudo-random schedule of `n` faults over `steps` decode steps of
    /// a `devices`-device session, derived from `seed` by SplitMix64 —
    /// same seed, same schedule, every run. All four fault kinds appear;
    /// seized pages from generated exhaustion events always release after
    /// a bounded hold, so a seeded plan never starves the run.
    pub fn seeded(seed: u64, n: usize, steps: usize, devices: usize) -> Self {
        let mut s = seed;
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let step = (splitmix64(&mut s) as usize) % steps.max(1);
            let kind = match splitmix64(&mut s) % 4 {
                0 => FaultKind::DeviceLoss {
                    device: (splitmix64(&mut s) as usize) % devices.max(1),
                },
                1 => FaultKind::CorruptSwap {
                    bit: splitmix64(&mut s),
                },
                2 => FaultKind::TransientLink {
                    failures: 1 + (splitmix64(&mut s) % 3) as u32,
                },
                _ => FaultKind::PoolExhaustion {
                    pages: 1 + (splitmix64(&mut s) as usize) % 4,
                    hold_steps: Some(1 + (splitmix64(&mut s) as usize) % 6),
                },
            };
            plan.events.push(FaultEvent { step, kind });
        }
        plan.events.sort_by_key(|e| e.step);
        plan
    }
}

/// Consumes a [`FaultPlan`] as the session's step clock advances. Each
/// query takes (and removes) the matching events whose step is due —
/// `step ≤ now` — so faults scheduled inside an idle gap still fire, once,
/// when the clock next lands past them.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    injected: usize,
}

impl FaultInjector {
    /// An injector over `plan`'s schedule.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            events: plan.events,
            injected: 0,
        }
    }

    /// Events already fired.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Takes the earliest due event for which `f` returns `Some`.
    fn take_due<T>(&mut self, now: usize, f: impl Fn(FaultKind) -> Option<T>) -> Option<T> {
        let pos = self
            .events
            .iter()
            .position(|e| e.step <= now && f(e.kind).is_some())?;
        let ev = self.events.remove(pos);
        self.injected += 1;
        f(ev.kind)
    }

    /// Takes one due device-loss event, returning the device to kill. The
    /// session loops this until `None` at each step top (losing two
    /// devices in one step is two successive rebuilds).
    pub(crate) fn take_device_loss(&mut self, now: usize) -> Option<usize> {
        self.take_due(now, |k| match k {
            FaultKind::DeviceLoss { device } => Some(device),
            _ => None,
        })
    }

    /// Takes one due swap-corruption event, returning the bit to flip.
    /// Called at swap-in time, so a corruption scheduled between swap-ins
    /// waits for the next one.
    pub(crate) fn take_swap_corruption(&mut self, now: usize) -> Option<u64> {
        self.take_due(now, |k| match k {
            FaultKind::CorruptSwap { bit } => Some(bit),
            _ => None,
        })
    }

    /// Takes **all** due transient-link events, returning the total failed
    /// attempts to price into this step's interconnect time, and how many
    /// events that covered.
    pub(crate) fn take_transient_failures(&mut self, now: usize) -> (u32, usize) {
        let mut failures = 0;
        let mut events = 0;
        while let Some(f) = self.take_due(now, |k| match k {
            FaultKind::TransientLink { failures } => Some(failures),
            _ => None,
        }) {
            failures += f;
            events += 1;
        }
        (failures, events)
    }

    /// Takes one due pool-exhaustion event, returning `(pages,
    /// hold_steps)`.
    pub(crate) fn take_pool_exhaustion(&mut self, now: usize) -> Option<(usize, Option<usize>)> {
        self.take_due(now, |k| match k {
            FaultKind::PoolExhaustion { pages, hold_steps } => Some((pages, hold_steps)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_once_and_in_order() {
        let plan = FaultPlan::new()
            .device_loss(5, 1)
            .transient_link(3, 2)
            .transient_link(7, 1);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.take_device_loss(4), None);
        assert_eq!(inj.take_transient_failures(4), (2, 1));
        // Jumping the clock past both remaining events delivers both.
        assert_eq!(inj.take_device_loss(10), Some(1));
        assert_eq!(inj.take_device_loss(10), None);
        assert_eq!(inj.take_transient_failures(10), (1, 1));
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn corruption_carries_forward_to_the_next_query() {
        let mut inj = FaultInjector::new(FaultPlan::new().corrupt_swap(2, 0xBEEF));
        assert_eq!(inj.take_swap_corruption(1), None);
        // First query at or after step 2 gets it, however late.
        assert_eq!(inj.take_swap_corruption(40), Some(0xBEEF));
        assert_eq!(inj.take_swap_corruption(41), None);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_cover_kinds() {
        let a = FaultPlan::seeded(7, 32, 100, 4);
        let b = FaultPlan::seeded(7, 32, 100, 4);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(8, 32, 100, 4));
        let kinds: Vec<_> = a.events().iter().map(|e| e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::DeviceLoss { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::CorruptSwap { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::TransientLink { .. })));
        assert!(kinds.iter().any(|k| matches!(
            k,
            FaultKind::PoolExhaustion {
                hold_steps: Some(_),
                ..
            }
        )));
        // Ordered by step, and all inside the horizon.
        assert!(a.events().windows(2).all(|w| w[0].step <= w[1].step));
        assert!(a.events().iter().all(|e| e.step < 100));
    }
}
