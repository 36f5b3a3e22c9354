//! Every per-step counter, declared once as a row of [`step_counters!`].
//!
//! `pub name: Type` is a [`ServeMetrics`] and [`StepLedger`] field; a bare
//! `name: Type` is a ledger field only. `=> total: Type = fold` adds the
//! [`ServeSummary`] field it folds into over a run (`sum`, `max`, or
//! `count` of `true`); `, registry "serve.…"` publishes it as a registry
//! counter and `, event "event" "field"` as a field of that event. The
//! rows give the structs' counter fields (hand-written fields head each
//! struct), the ledger → sample copy, the run fold and [`STEP_COUNTERS`].

use super::DeviceStepMetrics;
use bd_lowbit::fastpath::FastDequantOps;
use bd_obs::SloSummary;

macro_rules! step_counters {
    (
        $(#[$m_attr:meta])* pub struct ServeMetrics {
            $($(#[$mh_attr:meta])* pub $mh:ident: $mh_ty:ty,)*
        }
        $(#[$s_attr:meta])* pub struct ServeSummary {
            $($(#[$sh_attr:meta])* pub $sh:ident: $sh_ty:ty,)*
        }
        $(#[$l_attr:meta])* pub(super) struct StepLedger {
            $($(#[$lh_attr:meta])* pub $lh:ident: $lh_ty:ty,)*
        }
        counters {$(
            $($ledger:ident: $ledger_ty:ident)?
            $($(#[doc = $doc:literal])+ pub $name:ident: $ty:ty
                $(=> $total:ident: $total_ty:ty = $fold:ident)?)?
            $(, registry $counter:literal $(, event $event:literal $field:literal)?)?;
        )*}
    ) => {
        $(#[$m_attr])*
        pub struct ServeMetrics {
            $($(#[$mh_attr])* pub $mh: $mh_ty,)*
            $($($(#[doc = $doc])+ pub $name: $ty,)?)*
        }
        $(#[$s_attr])*
        pub struct ServeSummary {
            $($(#[$sh_attr])* pub $sh: $sh_ty,)*
            $($($(#[doc = step_counters!(@doc $fold $name)] pub $total: $total_ty,)?)?)*
        }
        $(#[$l_attr])*
        pub(super) struct StepLedger {
            $($(#[$lh_attr])* pub $lh: $lh_ty,)*
            $($(pub $ledger: $ledger_ty,)? $(pub $name: $ty,)?)*
        }
        impl ServeMetrics {
            /// The ledger's counters; the hand-written fields left at zero.
            pub(super) fn from_ledger(l: &StepLedger) -> Self {
                ServeMetrics {
                    $($mh: Default::default(),)*
                    $($($name: l.$name,)?)*
                }
            }
        }
        impl ServeSummary {
            /// Every counter folded over `run`; the hand-written fields at zero.
            pub(super) fn fold(run: &[ServeMetrics]) -> Self {
                let mut s = ServeSummary {
                    $($sh: Default::default(),)*
                    $($($($total: Default::default(),)?)?)*
                };
                for m in run {
                    $($($(step_counters!(@fold $fold, m.$name, s.$total);)?)?)*
                }
                s
            }

            /// Adds (or with `undo`, takes back) a ledger's summed counters.
            pub(super) fn add_sums(&mut self, l: &StepLedger, undo: bool) {
                $($($(step_counters!(@sum $fold, l.$name, self.$total, undo);)?)?)*
            }
        }
        /// One entry per row, `Some` for the rows with a registry counter. An
        /// event (a run of rows naming it) is written, and its registry
        /// counters touched, only on steps where one of its fields is non-zero.
        pub(super) const STEP_COUNTERS: &[Option<StepCounter>] = &[$(
            step_counters!(@row [$($ledger)?] [$($name)?] $($counter $(, $event $field)?)?),
        )*];
    };
    (@doc sum $n:ident) => { concat!("Run total of [`ServeMetrics::", stringify!($n), "`].") };
    (@doc max $n:ident) => { concat!("Run peak of [`ServeMetrics::", stringify!($n), "`].") };
    (@doc count $n:ident) => { concat!("Steps whose [`ServeMetrics::", stringify!($n), "`] is set.") };
    (@fold sum, $v:expr, $t:expr) => { Total::add_to($v, &mut $t, false) };
    (@fold max, $v:expr, $t:expr) => { $t = $t.max($v) };
    (@fold count, $v:expr, $t:expr) => { $t += usize::from($v) };
    (@sum sum, $v:expr, $t:expr, $undo:ident) => { Total::add_to($v, &mut $t, $undo) };
    (@sum $fold:ident, $v:expr, $t:expr, $undo:ident) => {};
    (@row [$($l:ident)?] [$($n:ident)?]) => { None };
    (@row [$($l:ident)?] [$($n:ident)?] $counter:literal $(, $event:literal $field:literal)?) => {
        Some(StepCounter {
            counter: $counter,
            event: concat!("" $(, $event)?),
            field: concat!("" $(, $field)?),
            value: |l| l.$($l)?$($n)? as u64,
            #[cfg(test)]
            sample: step_counters!(@some $(|m| m.$n as u64)?),
        })
    };
    (@some) => { None };
    (@some $e:expr) => { Some($e) };
}

step_counters! {
    /// Per-step runtime report.
    #[derive(Clone, Debug)]
    pub struct ServeMetrics {
        /// Step index within the session.
        pub step: usize,
        /// Aggregate measured KV-tokens per second for this step.
        pub kv_tokens_per_s: f64,
        /// Aggregate page-pool utilization after the step (all devices).
        pub pool_utilization: f64,
        /// Devices the step sharded across.
        pub devices: usize,
        /// Per-device execution/occupancy breakdown.
        pub per_device: Vec<DeviceStepMetrics>,
    }

    /// Aggregate outcome of
    /// [`ServeSession::run_to_completion`](super::ServeSession::run_to_completion).
    #[derive(Clone, Copy, Debug)]
    pub struct ServeSummary {
        /// Decode steps executed.
        pub steps: usize,
        /// Aggregate KV-tokens per second over the run.
        pub kv_tokens_per_s: f64,
        /// Devices the session sharded across.
        pub devices: usize,
        /// Mean over steps of the mean per-device utilization.
        pub mean_device_utilization: f64,
        /// Request-lifecycle SLO rollup (TTFT/TBT/queue-wait/goodput
        /// distributions); zero unless lifecycle tracking is on (see
        /// [`ServeSession::with_obs`](super::ServeSession::with_obs)).
        pub slo: SloSummary,
    }

    /// Everything the in-flight step has counted. Phases that did not run
    /// (the execute side of a step that found no batch) leave their fields
    /// at zero.
    #[derive(Clone, Debug, Default)]
    pub(super) struct StepLedger {
        /// Per device: the units routed to it, the unique tokens they
        /// walk, and its utilization against the critical path.
        pub dev_units: Vec<usize>,
        pub dev_tokens: Vec<usize>,
        pub utilization: Vec<f64>,
    }

    counters {
        /// Sequences decoded this step.
        pub batch: usize;
        /// Requests admitted at the top of this step.
        pub admitted: usize;
        /// Of those, shared-prompt requests admitted by **forking** a live
        /// parent (prompt pages aliased copy-on-write, no re-prefill).
        pub forked: usize => forks: usize = sum;
        /// Requests that finished (and were evicted) this step.
        pub completed: usize => completed: usize = sum;
        /// KV tokens attended across the batch (Σ per-sequence context length).
        pub kv_tokens: usize => kv_tokens: u64 = sum;
        /// Measured wall-clock of the decode phases — the step's launch
        /// (queries, attention, partial merge, model advance), token
        /// emission, KV append — excluding admission/prefill and batch
        /// planning, seconds.
        pub wall_s: f64 => wall_s: f64 = sum;
        /// Fast-dequant instructions streamed by the fused kernels this step.
        pub dequant: FastDequantOps => dequant: FastDequantOps = sum;
        /// What the analytic cost model prices this step's shape at on the
        /// session's target GPU, seconds (compute only).
        pub modeled_step_s: f64;
        /// Bytes each device moved over the link to all-reduce the step's
        /// output partials (0 for a single device).
        pub allreduce_bytes_per_device: f64;
        /// What the link model prices that all-reduce at (retries
        /// included), seconds.
        pub modeled_interconnect_s: f64 => modeled_interconnect_s: f64 = sum;
        /// Running sequences preempted (swapped out and re-queued) during this
        /// step's admission pass.
        pub preempted: usize => preemptions: usize = sum;
        /// Previously preempted requests that swapped back in this step.
        pub resumed: usize => resumes: usize = sum;
        /// Host bytes the step's swap-outs and swap-ins moved, both
        /// directions combined.
        pub swap_bytes: f64 => swap_bytes: f64 = sum;
        /// What the session's host link prices that swap traffic at, seconds
        /// (one point-to-point transfer per swap event).
        pub modeled_swap_s: f64 => modeled_swap_s: f64 = sum;
        /// Physical pages allocated across all devices after the step
        /// (post-evict, like the occupancy columns).
        pub physical_pages: usize => peak_physical_pages: usize = max;
        /// Page-table entries summed over resident sequences across all
        /// devices — what an unshared store would have to allocate.
        pub logical_pages: usize;
        /// Physical pages mapped by more than one sequence (shared prefix
        /// pages); `physical_pages - shared_pages` are singly owned.
        pub shared_pages: usize;
        /// Packed-payload bytes prefix sharing deduplicates right now, summed
        /// over devices.
        pub shared_bytes_saved: usize => peak_shared_bytes_saved: usize = max;
        /// Faults the armed [`FaultPlan`](crate::FaultPlan) injected during
        /// this step.
        pub faults_injected: usize => faults_injected: usize = sum;
        /// Sequences recovered this step (recompute-from-prompt re-admissions
        /// after device loss or a corrupt swap blob).
        pub recoveries: usize => recoveries: usize = sum;
        /// Transient-transfer retries priced into this step's interconnect
        /// time.
        pub retries: usize => retries: usize = sum;
        /// `true` when this step ran degraded (a fault fired or a failure was
        /// absorbed). [`ServeSummary::degraded_steps`] counts these over a
        /// run.
        pub degraded: bool => degraded_steps: usize = count;
        /// Requests permanently failed this step (unattributable worker
        /// loss, unserveable model).
        pub requests_failed: usize => requests_failed: usize = sum;
        // Tokens streamed for the first time (recovery replays excluded).
        new_tokens: usize, registry "serve.tokens";
        // Copy-on-write breaks since the previous sample.
        cow_breaks: usize, registry "serve.cow_breaks", event "cow_break" "count";
        /// Fresh admissions this step that adopted at least one cached prefix
        /// page from the radix prefix cache (per device: a 2-device hit
        /// counts 2).
        pub prefix_cache_hits: usize => prefix_cache_hits: usize = sum,
            registry "serve.prefix_cache.hits", event "prefix_cache" "hits";
        /// Fresh admissions this step that found no cached prefix to adopt
        /// (per device, like the hits).
        pub prefix_cache_misses: usize => prefix_cache_misses: usize = sum,
            registry "serve.prefix_cache.misses", event "prefix_cache" "misses";
        /// Physical pages this step's cache hits adopted instead of
        /// re-writing, summed over devices.
        pub prefix_pages_reused: usize => prefix_pages_reused: usize = sum,
            registry "serve.prefix_cache.pages_reused", event "prefix_cache" "pages_reused";
        /// Packed-payload bytes those adopted pages already held.
        pub prefix_bytes_reused: usize => prefix_bytes_reused: usize = sum,
            registry "serve.prefix_cache.bytes_reused", event "prefix_cache" "bytes_reused";
        /// Radix subtrees dropped this step — LRU reclaim or staleness
        /// (recycled-page generation mismatch), summed over devices.
        pub prefix_subtrees_evicted: usize => prefix_subtrees_evicted: usize = sum,
            registry "serve.prefix_cache.evicted_subtrees", event "prefix_cache" "evicted_subtrees";
        /// Cascade shared-prefix attention units executed this step — one per
        /// `(prefix-group, kv-head, device)` with ≥ 2 sharers.
        pub shared_attn_groups: usize => shared_attn_groups: usize = sum,
            registry "serve.shared_attn.groups", event "shared_attn" "groups";
        // Sequences the cascade units served.
        shared_attn_sharers: usize,
            registry "serve.shared_attn.sharers", event "shared_attn" "sharers";
        /// Prefix pages the cascade units did **not** re-walk this step: for
        /// each group unit, `(sharers − 1) ×` the pages covering its shared
        /// block run. Zero when grouping is off or no groups formed.
        pub prefix_pages_walked_saved: usize => prefix_pages_walked_saved: usize = sum,
            registry "serve.shared_attn.pages_saved", event "shared_attn" "pages_saved";
    }
}

/// One published counter: its registry name, its event and field (`""`
/// for none), and its value in a ledger and (a [`ServeMetrics`] row) sample.
pub(super) struct StepCounter {
    pub counter: &'static str,
    pub event: &'static str,
    pub field: &'static str,
    pub value: fn(&StepLedger) -> u64,
    #[cfg(test)]
    pub sample: Option<fn(&ServeMetrics) -> u64>,
}

/// How a summed row's value enters (or, undone, leaves) its run total.
trait Total<T> {
    fn add_to(self, total: &mut T, undo: bool);
}

macro_rules! numeric_total {
    ($($from:ty => $to:ty),*) => {$(
        #[allow(clippy::unnecessary_cast)]
        impl Total<$to> for $from {
            fn add_to(self, total: &mut $to, undo: bool) {
                if undo { *total -= self as $to } else { *total += self as $to }
            }
        }
    )*};
}
numeric_total!(usize => usize, usize => u64, f64 => f64);

impl Total<FastDequantOps> for FastDequantOps {
    fn add_to(self, total: &mut FastDequantOps, undo: bool) {
        if !undo {
            *total += self;
            return;
        }
        total.lop3 -= self.lop3;
        total.shifts -= self.shifts;
        total.hfma2 -= self.hfma2;
    }
}

impl ServeMetrics {
    /// Mean per-device utilization (1.0 = perfectly balanced step).
    pub fn mean_device_utilization(&self) -> f64 {
        let n = self.per_device.len().max(1) as f64;
        self.per_device.iter().map(|d| d.utilization).sum::<f64>() / n
    }
}
