//! The decode-step scheduler and its session front end.
//!
//! [`ServeSession`] is the runtime's control loop: requests queue (either
//! pre-filled via [`ServeSession::submit`] or joining mid-run through
//! [`ServeSession::submit_at`]'s trace-driven arrivals), admission — under
//! a pluggable [`SchedulerPolicy`], FCFS by default — reserves each
//! request's full prompt + generation page budget **on every device** of
//! the [`ShardedKvStore`] (so an admitted sequence never OOMs mid-decode),
//! and every [`ServeSession::step`] re-forms the batch, fans one work unit
//! per `(sequence, kv-head, device)` — coalescing sequences that alias
//! the same sealed prefix pages into one cascade unit per `(prefix-group,
//! kv-head, device)` that walks the shared pages once (see
//! [`ServeConfig::with_shared_attn`]) — over one scoped launch of
//! [`ServeConfig::workers`] threads per device that borrow the store and
//! the models for the launch — the same launch builds each sequence's
//! query, **normalizes each head's softmax partial** (the simulated
//! all-reduce) and advances each model — then appends each sequence's new
//! KV token and retires finished sequences so their pages recycle into the
//! admission queue.
//!
//! Under page pressure a preempting policy (e.g.
//! [`crate::scheduler::FcfsPreempt`]) may **swap out** a running sequence:
//! its packed pages and FP16 residual window serialize into a host-side
//! blob ([`ShardedKvStore::swap_out`]), its pages free on every device,
//! and the request re-queues at the front with its model state intact.
//! Swap-in restores the blob bitwise, so a preempted stream is identical
//! to an uninterrupted one.
//!
//! The session degrades instead of crashing: a [`FaultPlan`] armed via
//! [`ServeSession::with_faults`] deterministically injects device loss,
//! swap-blob corruption, transient interconnect failures, and forced pool
//! exhaustion, and each is recovered — placement rebuild with
//! recompute-from-prompt re-admission, checksum-rejected blobs recomputed,
//! priced bounded-backoff retries, typed admission backpressure — without
//! ever changing *which* tokens a completed stream carries, only *when*
//! they arrive. Fault and recovery counts land in [`ServeMetrics`].
//!
//! Each step yields a [`ServeMetrics`] sample pairing the *measured*
//! aggregate KV-throughput, fast-dequant telemetry, and per-device
//! utilization with the *analytic* price of the same step shape — compute
//! from the kernel cost model, communication from the session
//! [`Topology`]'s all-reduce of the step's output partials (a flat
//! topology reproduces the legacy [`InterconnectModel`] ring pricing
//! bitwise; hierarchical fleets price intra-island, cross-island, and
//! broadcast phases), and swap traffic from the topology's host path
//! (PCIe-class by default, drained per island in parallel).
//!
//! The module is split by concern: this file holds the types, the
//! accessors and the `submit*` fronts; `counters` the one table of
//! per-step counters; `admit` the admission pass; `step` the per-step phase
//! pipeline; `ledger` the one path that publishes what a step counted;
//! `recover` device loss and page seizures.

mod admit;
mod counters;
mod ledger;
mod recover;
mod step;
#[cfg(test)]
mod tests;

use crate::faults::{FaultInjector, FaultPlan};
use crate::model::SequenceModel;
use crate::scheduler::{Fcfs, SchedulerPolicy};
use crate::workers::ServeError;
use bd_core::BitDecoder;
use bd_gpu_sim::{InterconnectModel, Topology};
use bd_kvcache::{Partitioning, Placement, SeqId, ShardedKvStore, SwappedShardedSeq};
use bd_obs::{EventLog, LifecycleTracker, MetricsRegistry, ObsConfig, SpanTracer};
use counters::StepLedger;
pub use counters::{ServeMetrics, ServeSummary};
use ledger::{RequestEvent, StoreMarks};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifier a [`ServeSession`] assigns to a submitted request.
pub type RequestId = u64;

/// Static configuration of a serve session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Page pool capacity in pages, **per device**.
    pub total_pages: usize,
    /// Tokens per page.
    pub page_tokens: usize,
    /// Threads per device that execute a step's units and pack an
    /// admitted prompt (0 = run them inline on the session thread).
    pub workers: usize,
    /// Maximum concurrently decoding sequences.
    pub max_batch: usize,
    /// Simulated devices the KV heads shard across (clamped to the head
    /// count; 1 = the single-device runtime of earlier revisions).
    pub devices: usize,
    /// How KV heads map to devices.
    pub partitioning: Partitioning,
    /// The fleet model pricing communication: the per-step output
    /// all-reduce over the device fabric and preemption swap traffic over
    /// the device↔host path. Defaults to a flat NVLink-class fabric with a
    /// PCIe-class host link — identical pricing to the pre-topology
    /// runtime. A hierarchical topology installed via
    /// [`ServeConfig::with_topology`] also fixes the device count and
    /// supplies per-device placement weights.
    pub topology: Topology,
    /// Cascade shared-prefix attention: group sequences aliasing the same
    /// sealed prefix pages into one multi-query unit per `(group,
    /// kv-head, device)` so the shared pages stream through the dequant
    /// LUTs once per step. Purely an optimization — partials are bitwise
    /// identical either way — and on by default; disable to force the
    /// classic per-sequence fan-out.
    pub shared_attn: bool,
    /// Content-addressed radix prefix cache: fresh admissions adopt
    /// sealed prompt pages whose packed bytes match an earlier
    /// admission's, zero-copy, so independent identical prompts dedup
    /// without an explicit fork — and the adopted pages feed the same
    /// cascade shared-attention grouping a fork would. Hits change only
    /// page accounting and step cost, never a token: streams stay
    /// bitwise identical to a cache-off run. On by default.
    pub prefix_cache: bool,
}

impl ServeConfig {
    /// Builds a single-device config (NVLink-class link defaults apply if
    /// later sharded via [`ServeConfig::with_devices`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `page_tokens` is zero.
    pub fn new(total_pages: usize, page_tokens: usize, workers: usize, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(page_tokens > 0, "page_tokens must be positive");
        ServeConfig {
            total_pages,
            page_tokens,
            workers,
            max_batch,
            devices: 1,
            partitioning: Partitioning::HeadContiguous,
            topology: Topology::flat(InterconnectModel::nvlink4()),
            shared_attn: true,
            prefix_cache: true,
        }
    }

    /// Shards the session across `devices` simulated devices under
    /// `partitioning`.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn with_devices(mut self, devices: usize, partitioning: Partitioning) -> Self {
        assert!(devices > 0, "at least one device");
        self.devices = devices;
        self.partitioning = partitioning;
        self
    }

    /// Installs a resolved fleet [`Topology`]. A hierarchical topology
    /// carries concrete device profiles, so it also sets the session's
    /// device count to the fleet size and switches partitioning to
    /// [`Partitioning::Weighted`]: KV heads are apportioned
    /// proportionally to each device's modeled decode throughput
    /// ([`bd_gpu_sim::GpuArch::decode_weight`]). A flat topology only
    /// replaces the pricing model and leaves device count and
    /// partitioning untouched.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        if let Some(n) = topology.device_count() {
            self.devices = n;
            self.partitioning = Partitioning::Weighted;
        }
        self.topology = topology;
        self
    }

    /// Enables or disables cascade shared-prefix attention grouping
    /// (enabled by default).
    pub fn with_shared_attn(mut self, on: bool) -> Self {
        self.shared_attn = on;
        self
    }

    /// Enables or disables the content-addressed radix prefix cache
    /// (enabled by default). Off forces every fresh admission to prefill
    /// its own pages even when an identical prompt is already resident.
    pub fn with_prefix_cache(mut self, on: bool) -> Self {
        self.prefix_cache = on;
        self
    }
}

/// Why a request was rejected at submission — the typed admission
/// contract: capacity rejections always carry the page shortfall instead
/// of burying the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request's prompt + generation budget exceeds a device's whole
    /// pool; it could never be admitted.
    TooLarge {
        /// Pages the request needs (per device).
        needed_pages: usize,
        /// Pages each device pool has in total.
        total_pages: usize,
    },
    /// The pool cannot admit the request now **or later**: a fault-forced
    /// exhaustion holds pages with no scheduled release, so the request's
    /// budget exceeds every page that can ever free up. Backpressure —
    /// the caller should shed or re-route the load.
    Backpressure {
        /// Pages the request needs (per device).
        needed_pages: usize,
        /// Pages that can ever become available under the seizure.
        available_pages: usize,
    },
    /// The request asks for zero generated tokens — there is nothing to
    /// decode.
    EmptyGeneration,
    /// A forked submission named a parent request this session never
    /// issued.
    UnknownParent(RequestId),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TooLarge {
                needed_pages,
                total_pages,
            } => write!(
                f,
                "request needs {needed_pages} pages but each device pool only has {total_pages}"
            ),
            AdmissionError::Backpressure {
                needed_pages,
                available_pages,
            } => write!(
                f,
                "request needs {needed_pages} pages but only {available_pages} can ever \
                 free up under the current page seizure"
            ),
            AdmissionError::EmptyGeneration => write!(f, "request generates zero tokens"),
            AdmissionError::UnknownParent(id) => {
                write!(f, "fork parent request {id} was never submitted")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One device's share of a decode step (the measured half of the
/// tensor-parallel trajectory).
#[derive(Clone, Copy, Debug)]
pub struct DeviceStepMetrics {
    /// The device.
    pub device: usize,
    /// Work units (sequence × local head) this device executed.
    pub units: usize,
    /// KV tokens this device's units attended.
    pub kv_tokens: usize,
    /// This device's attended tokens relative to the critical-path device
    /// (1.0 = on the critical path; lower = idle tail in a synchronous
    /// step).
    pub utilization: f64,
    /// Page occupancy of this device's pool after the step.
    pub page_occupancy: f64,
}

struct ActiveSeq {
    id: RequestId,
    seq: SeqId,
    model: Box<dyn SequenceModel>,
    step: usize,
    remaining: usize,
    /// Decode step of (the most recent) admission — what a preempting
    /// policy uses to find the youngest victim and to spare same-step
    /// admits.
    admitted_step: usize,
}

/// KV state of a preempted request waiting to resume.
struct ResumeState {
    blob: SwappedShardedSeq,
    step: usize,
    remaining: usize,
}

/// One queued request: fresh (never ran — admission prefills its prompt,
/// or forks a live parent when `fork_of` names one), or preempted
/// (resumes by swapping its KV blob back in).
struct QueueEntry {
    id: RequestId,
    model: Box<dyn SequenceModel>,
    resume: Option<ResumeState>,
    /// The parent request whose prompt this request shares
    /// ([`ServeSession::submit_forked`]): admission forks the parent's
    /// sequence copy-on-write instead of prefilling, whenever the parent
    /// is still decoding and its fork boundary is reachable.
    fork_of: Option<RequestId>,
}

impl QueueEntry {
    fn fresh(id: RequestId, model: Box<dyn SequenceModel>) -> Self {
        QueueEntry {
            id,
            model,
            resume: None,
            fork_of: None,
        }
    }
}

/// Pages seized by a pool-exhaustion fault: a hog reservation admission
/// must route around until it releases.
struct PageHog {
    seq: SeqId,
    pages: usize,
    /// Step at which the seizure releases (`None` = when the run ends).
    release: Option<usize>,
}

/// The session's observability bundle: span tracer, structured event
/// log, request-lifecycle tracker, and metrics registry, all gated by an
/// [`ObsConfig`] (everything off by default — the disabled paths cost a
/// branch or a relaxed atomic load).
struct Obs {
    tracer: SpanTracer,
    events: EventLog,
    lifecycle: LifecycleTracker,
    registry: MetricsRegistry,
}

impl Obs {
    fn new(config: ObsConfig) -> Self {
        Obs {
            tracer: if config.spans {
                SpanTracer::with_capacity(config.span_capacity)
            } else {
                SpanTracer::disabled()
            },
            events: if config.events {
                EventLog::with_capacity(config.event_capacity)
            } else {
                EventLog::disabled()
            },
            lifecycle: if config.lifecycle {
                LifecycleTracker::enabled()
            } else {
                LifecycleTracker::disabled()
            },
            registry: MetricsRegistry::new(),
        }
    }

    /// Adds `n` to a `serve.*` registry counter. The registry is only
    /// populated while lifecycle tracking is on.
    fn count(&mut self, name: &'static str, n: u64) {
        if self.lifecycle.is_enabled() {
            self.registry.inc(name, n);
        }
    }

    /// The wall clock for a lifecycle sample (0 while tracking is off, so
    /// the disabled path never reads the clock).
    fn wall_us(&self) -> f64 {
        if self.lifecycle.is_enabled() {
            self.tracer.clock().wall_us()
        } else {
            0.0
        }
    }
}

/// The batched decode runtime session — see the [module docs](self).
pub struct ServeSession {
    decoder: BitDecoder,
    store: ShardedKvStore,
    /// Trace arrivals not yet due, sorted by `(arrival step, id)` — id
    /// order makes FCFS within a step explicit and stable.
    arrivals: VecDeque<(usize, QueueEntry)>,
    pending: VecDeque<QueueEntry>,
    active: Vec<ActiveSeq>,
    policy: Box<dyn SchedulerPolicy>,
    streams: BTreeMap<RequestId, Vec<u32>>,
    /// Step at which each finished request completed.
    finished_step: BTreeMap<RequestId, usize>,
    /// The newest [`RECENT_SAMPLES`] published samples, oldest first.
    metrics: VecDeque<ServeMetrics>,
    /// The samples published since the latest run began, folded.
    totals: ServeSummary,
    next_id: RequestId,
    config: ServeConfig,
    step_index: usize,
    injector: FaultInjector,
    /// What the in-flight step has counted so far; [`Self::publish`]
    /// drains it into the step's [`ServeMetrics`] sample. A `step()` that
    /// finds the session drained publishes nothing, so what it counted
    /// (a fault that fired) rides into the next sample.
    ledger: StepLedger,
    /// Last-seen store counters the ledger's per-step deltas are taken
    /// against.
    marks: StoreMarks,
    /// Live pool-exhaustion seizures.
    hogs: Vec<PageHog>,
    /// Requests permanently failed, with the error that killed each.
    failed: BTreeMap<RequestId, ServeError>,
    /// Devices quarantined by loss faults, in order of loss.
    lost_devices: Vec<usize>,
    /// Live per-device placement weights (empty = unweighted fleet).
    /// Pruned in lockstep with device loss so placement rebuilds keep
    /// apportioning heads by the surviving devices' modeled throughput.
    device_weights: Vec<f64>,
    /// Observability instruments (default-off).
    obs: Obs,
}

/// Samples [`ServeSession::metrics`] keeps (more than any test reads back).
const RECENT_SAMPLES: usize = 256;

/// `tokens` per second of `wall_s` (0 for an untimed step or run).
fn per_second(tokens: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        tokens / wall_s
    } else {
        0.0
    }
}

/// Builds the session's head→device placement: weighted apportionment
/// when the config asks for [`Partitioning::Weighted`] and the topology
/// supplies per-device weights, the classic uniform placements otherwise.
fn build_placement(
    devices: usize,
    partitioning: Partitioning,
    weights: &[f64],
    heads: usize,
) -> Placement {
    if partitioning == Partitioning::Weighted && weights.len() == devices {
        Placement::weighted(weights, heads)
    } else {
        Placement::new(devices, partitioning, heads)
    }
}

/// Builds the session's store over `placement`: `config`'s pools and
/// prefix cache, and the decode step's launch width — `workers` per device
/// — for prompt admission's bulk passes too.
fn build_store(decoder: &BitDecoder, placement: Placement, config: &ServeConfig) -> ShardedKvStore {
    let threads = config.workers * placement.devices();
    let mut store = ShardedKvStore::new(
        decoder.cache_config(),
        placement,
        config.total_pages,
        config.page_tokens,
    );
    store.set_prefix_cache(config.prefix_cache);
    store.set_launch_width(threads);
    store
}

impl ServeSession {
    /// Creates a session serving `decoder`'s model/GPU configuration under
    /// `config`'s pool, batch, and device limits.
    pub fn new(decoder: BitDecoder, config: ServeConfig) -> Self {
        let heads = decoder.attention().heads_kv;
        let device_weights = config.topology.device_weights();
        let placement =
            build_placement(config.devices, config.partitioning, &device_weights, heads);
        let store = build_store(&decoder, placement, &config);
        ServeSession {
            decoder,
            store,
            arrivals: VecDeque::new(),
            pending: VecDeque::new(),
            active: Vec::new(),
            policy: Box::new(Fcfs),
            streams: BTreeMap::new(),
            finished_step: BTreeMap::new(),
            metrics: VecDeque::new(),
            totals: ServeSummary::default(),
            next_id: 0,
            config,
            step_index: 0,
            injector: FaultInjector::default(),
            ledger: StepLedger::default(),
            marks: StoreMarks::default(),
            hogs: Vec::new(),
            failed: BTreeMap::new(),
            lost_devices: Vec::new(),
            device_weights,
            obs: Obs::new(ObsConfig::default()),
        }
    }

    /// Installs an observability configuration: span tracing into a
    /// bounded ring (exportable as a Chrome trace), a structured JSONL
    /// event log, and per-request lifecycle/SLO tracking. The default
    /// session runs with everything off; each instrument costs a branch
    /// (or one relaxed atomic load) per would-be record while disabled.
    pub fn with_obs(mut self, config: ObsConfig) -> Self {
        self.obs = Obs::new(config);
        self
    }

    /// Arms a deterministic [`FaultPlan`]: the session injects the plan's
    /// faults at their scheduled steps and recovers as described in
    /// [`crate::faults`]. Chaos is reproducible — same plan and
    /// submissions, same run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.injector = FaultInjector::new(plan);
        self
    }

    /// Replaces the admission/preemption policy (default:
    /// [`Fcfs`] — the strict no-preemption behavior of earlier revisions).
    pub fn with_policy(mut self, policy: impl SchedulerPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// The active scheduling policy's label.
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// The session's decoder.
    pub fn decoder(&self) -> &BitDecoder {
        &self.decoder
    }

    /// The sharded KV store (read-only view).
    pub fn store(&self) -> &ShardedKvStore {
        &self.store
    }

    /// Devices the session shards across (after placement clamping).
    pub fn devices(&self) -> usize {
        self.store.devices()
    }

    /// Requests waiting for admission (due arrivals + FCFS queue).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Requests whose arrival step has not been reached yet.
    pub fn future_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Sequences currently decoding.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// The token stream emitted so far for a request.
    pub fn stream(&self, id: RequestId) -> Option<&[u32]> {
        self.streams.get(&id).map(Vec::as_slice)
    }

    /// `true` once a request has generated all its tokens.
    pub fn is_finished(&self, id: RequestId) -> bool {
        self.finished_step.contains_key(&id)
    }

    /// The decode step at which a request finished (`None` while it is
    /// still queued or running) — the per-request latency signal the
    /// policy benches aggregate into completion-step percentiles.
    pub fn completion_step(&self, id: RequestId) -> Option<usize> {
        self.finished_step.get(&id).copied()
    }

    /// The newest per-step samples, oldest first: at most 256, however
    /// long the session runs (a run's summary reads none of them).
    pub fn metrics(&self) -> &VecDeque<ServeMetrics> {
        &self.metrics
    }

    /// The error that permanently failed a request, when it did fail.
    pub fn failure(&self, id: RequestId) -> Option<&ServeError> {
        self.failed.get(&id)
    }

    /// `true` when a request failed permanently (its stream will not
    /// complete).
    pub fn is_failed(&self, id: RequestId) -> bool {
        self.failed.contains_key(&id)
    }

    /// Devices quarantined by loss faults so far, in order of loss (each
    /// index refers to the device numbering live at that loss).
    pub fn lost_devices(&self) -> &[usize] {
        &self.lost_devices
    }

    /// The session's span tracer. Disabled unless [`ObsConfig::spans`] was
    /// set; export captured spans with [`SpanTracer::chrome_trace_json`].
    pub fn tracer(&self) -> &SpanTracer {
        &self.obs.tracer
    }

    /// The structured event log (admissions, preemptions, faults,
    /// recoveries, CoW breaks). Disabled unless [`ObsConfig::events`] was
    /// set.
    pub fn event_log(&self) -> &EventLog {
        &self.obs.events
    }

    /// The request-lifecycle tracker behind [`ServeSummary::slo`].
    /// Disabled unless [`ObsConfig::lifecycle`] was set.
    pub fn lifecycle(&self) -> &LifecycleTracker {
        &self.obs.lifecycle
    }

    /// The session's metrics registry (counters/gauges/histograms; only
    /// populated while lifecycle tracking is enabled).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    fn validate(&self, model: &dyn SequenceModel) -> Result<(), AdmissionError> {
        if model.gen_tokens() == 0 {
            return Err(AdmissionError::EmptyGeneration);
        }
        let total_tokens = model.prompt_tokens() + model.gen_tokens();
        let needed_pages = total_tokens.div_ceil(self.config.page_tokens);
        if needed_pages > self.config.total_pages {
            return Err(AdmissionError::TooLarge {
                needed_pages,
                total_pages: self.config.total_pages,
            });
        }
        // Pages a permanent fault seizure holds can never free up: a
        // budget beyond the remainder is backpressure, not patience.
        let available_pages = self.config.total_pages - self.seized_forever_pages();
        if needed_pages > available_pages {
            return Err(AdmissionError::Backpressure {
                needed_pages,
                available_pages,
            });
        }
        Ok(())
    }

    /// Queues a request. Admission happens under the session's
    /// [`SchedulerPolicy`] (FCFS by default) at the next step with enough
    /// free pages; the assigned [`RequestId`] is live immediately (its
    /// [`ServeSession::stream`] starts empty).
    ///
    /// # Errors
    ///
    /// Rejects requests whose per-device page budget exceeds a whole
    /// device pool, and requests with nothing to generate.
    pub fn submit(&mut self, model: Box<dyn SequenceModel>) -> Result<RequestId, AdmissionError> {
        self.enqueue(self.step_index, None, model, "submit")
    }

    /// Queues a request that **shares its prompt** with a previously
    /// submitted `parent`: at admission, if the parent is still decoding
    /// and its fork boundary is reachable, the child is admitted by
    /// [`ShardedKvStore::fork`] — its prompt pages alias the parent's
    /// copy-on-write (no re-prefill, no duplicate bytes) and its page
    /// preflight counts only the private tail. When the parent has
    /// finished, been preempted, or decoded past the boundary, the child
    /// falls back to an ordinary prefill admission; either way its stream
    /// is bitwise identical to an unshared run.
    ///
    /// **Caller contract:** `model.prompt()` must produce exactly the
    /// parent's prompt (same tokens, same length) — the fork aliases the
    /// parent's packed prompt rather than reading the child's.
    ///
    /// # Errors
    ///
    /// Rejects like [`ServeSession::submit`], plus
    /// [`AdmissionError::UnknownParent`] when `parent` was never issued.
    ///
    /// # Examples
    ///
    /// ```
    /// use bd_core::{AttentionConfig, BitDecoder};
    /// use bd_gpu_sim::GpuArch;
    /// use bd_kvcache::QuantScheme;
    /// use bd_serve::{ServeConfig, ServeSession, SynthSequence};
    ///
    /// let attn = AttentionConfig::gqa(4, 2, 16);
    /// let dec = BitDecoder::builder(GpuArch::rtx4090())
    ///     .attention(attn)
    ///     .scheme(QuantScheme::kc4())
    ///     .paged(true)
    ///     .build();
    /// let mut session = ServeSession::new(dec, ServeConfig::new(64, 32, 0, 8));
    /// // Parent and child share a 128-token prompt (prompt seed 7) but
    /// // generate different continuations (gen seeds 7 vs 99).
    /// let parent = session
    ///     .submit(Box::new(SynthSequence::new(attn, 7, 128, 4)))
    ///     .unwrap();
    /// let child = session
    ///     .submit_forked(parent, Box::new(SynthSequence::forked(attn, 7, 99, 128, 4)))
    ///     .unwrap();
    /// let summary = session.run_to_completion();
    /// assert_eq!(summary.completed, 2);
    /// assert_eq!(summary.forks, 1, "the child admitted by forking");
    /// assert_ne!(session.stream(parent), session.stream(child));
    /// ```
    pub fn submit_forked(
        &mut self,
        parent: RequestId,
        model: Box<dyn SequenceModel>,
    ) -> Result<RequestId, AdmissionError> {
        self.enqueue(self.step_index, Some(parent), model, "submit_forked")
    }

    /// [`ServeSession::submit_forked`] with a trace arrival step, exactly
    /// as [`ServeSession::submit_at`] extends [`ServeSession::submit`].
    ///
    /// # Errors
    ///
    /// Same rejection rules as [`ServeSession::submit_forked`].
    pub fn submit_forked_at(
        &mut self,
        arrival_step: usize,
        parent: RequestId,
        model: Box<dyn SequenceModel>,
    ) -> Result<RequestId, AdmissionError> {
        self.enqueue(arrival_step, Some(parent), model, "submit_forked")
    }

    /// Queues a request that **arrives** at decode step `arrival_step`
    /// (trace-driven admission): it stays invisible to the scheduler until
    /// that step, then joins the FCFS queue and is admitted when pages free
    /// up — sequences join mid-run instead of draining a pre-filled queue.
    /// An idle session fast-forwards to the next arrival rather than
    /// spinning empty steps.
    ///
    /// Arrivals at or before the current step behave exactly like
    /// [`ServeSession::submit`].
    ///
    /// # Errors
    ///
    /// Same rejection rules as [`ServeSession::submit`].
    pub fn submit_at(
        &mut self,
        arrival_step: usize,
        model: Box<dyn SequenceModel>,
    ) -> Result<RequestId, AdmissionError> {
        self.enqueue(arrival_step, None, model, "submit_at")
    }

    /// The one body behind the four `submit*` fronts: reject what can
    /// never be served, hand out the id, open its stream, queue it at its
    /// arrival step and record the submission as event `kind`.
    fn enqueue(
        &mut self,
        arrival_step: usize,
        fork_of: Option<RequestId>,
        model: Box<dyn SequenceModel>,
        kind: &'static str,
    ) -> Result<RequestId, AdmissionError> {
        if let Some(parent) = fork_of.filter(|p| *p >= self.next_id) {
            return Err(AdmissionError::UnknownParent(parent));
        }
        self.validate(model.as_ref())?;
        let id = self.next_id;
        self.next_id += 1;
        self.streams.insert(id, Vec::new());
        let entry = QueueEntry {
            fork_of,
            ..QueueEntry::fresh(id, model)
        };
        self.queue_at(arrival_step, entry);
        let step = arrival_step.max(self.step_index);
        self.observe(id, RequestEvent::Submitted { step, kind });
        Ok(id)
    }

    /// Queues an entry either immediately or at its future arrival step.
    fn queue_at(&mut self, arrival_step: usize, entry: QueueEntry) {
        if arrival_step <= self.step_index {
            self.pending.push_back(entry);
        } else {
            // Sorted insert on the full `(arrival step, id)` key: two
            // requests due at the same step keep **submission** order (ids
            // are handed out in submission order), so FCFS ties are stable
            // by construction rather than by insert-position accident.
            let pos = self
                .arrivals
                .partition_point(|(s, e)| (*s, e.id) <= (arrival_step, entry.id));
            self.arrivals.insert(pos, (arrival_step, entry));
        }
    }

    /// Steps until every submitted request has finished, returning the
    /// aggregate summary of what was counted from the call to its return —
    /// a fault the final, drained step counted too, though only the next
    /// sample carries it.
    pub fn run_to_completion(&mut self) -> ServeSummary {
        self.totals = ServeSummary::default();
        let start = self.totals.with_sums(&self.ledger);
        loop {
            while self.step().is_some() {}
            // The run is over for live work; pages still fault-seized
            // release now. If that unblocks parked requests (a permanent
            // seizure was starving them), keep serving until drained.
            if self.hogs.is_empty() {
                break;
            }
            self.release_all_hogs();
            if self.pending.is_empty() {
                break;
            }
        }
        let mut s = self.totals.with_sums(&self.ledger).since(&start);
        s.kv_tokens_per_s = per_second(s.kv_tokens as f64, s.wall_s);
        s.devices = self.devices();
        s.mean_device_utilization /= s.steps.max(1) as f64;
        s.slo = self.obs.lifecycle.summary();
        s
    }
}
