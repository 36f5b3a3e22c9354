#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::too_many_lines)
)]

//! # bd-serve — the tensor-parallel batched decode runtime
//!
//! Where `bd-llm` *prices* serving analytically, this crate *executes* it:
//! many concurrent sequences decode real values through the PR-1 fused
//! flat-layout kernel over paged packed KV storage **sharded across
//! simulated devices** — the paper's "Page" serving setting (§VI-A,
//! Fig. 13) scaled out tensor-parallel, as a running system rather than a
//! cost model.
//!
//! Three layers compose, all placement-aware:
//!
//! * **Storage** — [`bd_kvcache::ShardedKvStore`]: KV heads partitioned
//!   over per-device [`bd_kvcache::PagedKvStore`] page arenas (head-modulo
//!   or head-contiguous [`bd_kvcache::Placement`]), each device with its
//!   own deterministic page pool, capacity, and eviction accounting, under
//!   the sharding invariant (every head's bytes identical to the
//!   single-device layout).
//! * **Execution** — one scoped launch per decode step: the step's
//!   `(sequence, kv-head, device)` work units fan over
//!   [`ServeConfig::workers`] × devices threads that borrow the store for
//!   the step and claim units from one shared cursor. Each unit runs
//!   [`bd_core::BitDecoder::attend_head_partial`] — the per-head body of
//!   the single-sequence decode path, un-normalized — against only its own
//!   device's arena; the kernel walk inside a unit is sequential, so
//!   batch-, head-, and device-level parallelism never touch a summation
//!   tree and results stay **bitwise identical** to per-sequence
//!   [`bd_core::BitDecoder::decode`], at any thread *and device* count.
//! * **Scheduling** — [`session::ServeSession`]: submit / step / stream,
//!   plus trace-driven arrivals ([`session::ServeSession::submit_at`]) so
//!   sequences join mid-run when pages free up. Admission runs under a
//!   pluggable [`scheduler::SchedulerPolicy`] — [`scheduler::Fcfs`]
//!   (default), [`scheduler::FcfsPreempt`] (under page pressure the
//!   youngest running sequence swaps out to a host blob and re-queues at
//!   the front, so due arrivals make progress), or
//!   [`scheduler::ShortestRemainingFirst`] — always reserving each
//!   request's full prompt + generation budget on every device, so a
//!   running sequence never OOMs mid-decode. Every step re-forms the
//!   batch, **merges each head's device partials** through
//!   `OnlineSoftmax::merge` — the simulated all-reduce, exact by
//!   construction — and reports [`session::ServeMetrics`] (aggregate
//!   KV-tokens/s, fast-dequant telemetry, per-device utilization and page
//!   occupancy, preemption/swap counters, and the analytic price of the
//!   step's compute, its ring-all-reduce interconnect traffic, and its
//!   swap traffic over a PCIe-class host link).
//!
//! A fourth concern cuts across all three: **resilience**. A seeded
//! [`faults::FaultPlan`] injects device loss, swap-blob corruption,
//! transient interconnect failures, and forced page-pool exhaustion at
//! chosen decode steps; the session degrades and recovers — placement
//! rebuild with recompute-from-prompt re-admission, checksum-rejected
//! blobs recomputed, priced bounded-backoff retries, typed
//! [`session::AdmissionError::Backpressure`] rejections — without ever
//! changing *which* tokens a completed stream carries, only *when* they
//! arrive.
//!
//! A fifth concern is **observability** ([`bd_obs`], re-exported here):
//! [`session::ServeSession::with_obs`] arms span tracing (exportable as a
//! Perfetto-loadable Chrome trace over dual wall/modeled timelines), a
//! structured JSONL event log, and per-request lifecycle tracking whose
//! TTFT/TBT/queue-wait/goodput distributions surface in
//! [`session::ServeSummary::slo`]. Everything defaults off, and the
//! disabled instruments cost a branch or one relaxed atomic load per
//! would-be record, so the hot path keeps them plumbed unconditionally.
//!
//! The driver supplies per-sequence behaviour through
//! [`model::SequenceModel`] — the stand-in for the transformer's QKV
//! projections and sampling. [`model::SynthSequence`] is the deterministic
//! implementation used by the demo, benches, and property tests;
//! [`model::replay_contiguous`] replays a request on a contiguous cache
//! through `BitDecoder::decode` to furnish the bitwise ground truth.
//!
//! ```
//! use bd_core::{AttentionConfig, BitDecoder};
//! use bd_gpu_sim::GpuArch;
//! use bd_kvcache::{Partitioning, QuantScheme};
//! use bd_serve::{ServeConfig, ServeSession, SynthSequence};
//!
//! let attn = AttentionConfig::gqa(4, 2, 16);
//! let dec = BitDecoder::builder(GpuArch::rtx4090())
//!     .attention(attn)
//!     .scheme(QuantScheme::kc4())
//!     .paged(true)
//!     .build();
//! let config = ServeConfig::new(256, 64, 2, 8).with_devices(2, Partitioning::HeadModulo);
//! let mut session = ServeSession::new(dec, config);
//! let id = session
//!     .submit(Box::new(SynthSequence::new(attn, 7, 40, 3)))
//!     .unwrap();
//! let summary = session.run_to_completion();
//! assert_eq!(summary.completed, 1);
//! assert_eq!(summary.devices, 2);
//! assert_eq!(session.stream(id).unwrap().len(), 3);
//! ```

pub mod faults;
pub mod model;
pub mod scheduler;
pub mod session;
mod workers;

pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use model::{replay_contiguous, SequenceModel, StepKv, SynthSequence};
pub use scheduler::{
    Fcfs, FcfsPreempt, QueuedRequest, RunningSeq, SchedulerPolicy, ShortestRemainingFirst,
};
pub use session::{
    AdmissionError, DeviceStepMetrics, RequestId, ServeConfig, ServeMetrics, ServeSession,
    ServeSummary,
};
pub use workers::ServeError;

pub use bd_obs::{
    ClockDomain, EventLog, LifecycleTracker, LogHistogram, MetricsRegistry, ObsConfig, Quantiles,
    SloSummary, SpanTracer,
};
