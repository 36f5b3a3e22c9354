#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # bitdecoding — facade crate for BitDecoding-RS
//!
//! A full-system Rust reproduction of **"BitDecoding: Unlocking Tensor
//! Cores for Long-Context LLMs with Low-Bit KV Cache"** (HPCA 2026) on a
//! simulated GPU substrate. See `README.md` for the quickstart and
//! `docs/ARCHITECTURE.md` for the architecture and why the GPU is
//! simulated (no GPU is required — or used).
//!
//! This crate re-exports the workspace's public API under stable paths:
//!
//! * [`lowbit`] — numeric formats (software FP16, FP4, packing, fast dequant);
//! * [`gpu`] — the GPU execution model (fragments, ISA, cost model);
//! * [`kvcache`] — quantized cache containers (packed/residual/paged);
//! * [`core`] — the BitDecoding engine ([`BitDecoder`]);
//! * [`baselines`] — FlashDecoding/KIVI/Atom/QServe comparison systems;
//! * [`serve`] — the batched decode runtime (paged packed KV storage,
//!   pluggable scheduling policies with swap-out/swap-in preemption,
//!   one scoped thread launch per decode step);
//! * [`llm`] — end-to-end model-level simulation;
//! * [`accuracy`] — quantization fidelity evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use bitdecoding::kvcache::TokenMatrix;
//! use bitdecoding::{AttentionConfig, BitDecoder, GpuArch, QuantScheme};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dec = BitDecoder::builder(GpuArch::rtx4090())
//!     .attention(AttentionConfig::gqa(8, 2, 32))
//!     .scheme(QuantScheme::kc4())
//!     .build();
//! let mut cache = dec.new_cache(1);
//! let codec = dec.codec();
//! let kv = TokenMatrix::from_fn(200, 32, |t, _| 0.01 * t as f32);
//! for head in 0..cache.heads() {
//!     cache.prefill(head, &kv, &kv, &codec)?;
//! }
//! let q = vec![vec![vec![0.1; 32]; 8]];
//! let out = dec.decode(&q, &cache)?;
//! assert_eq!(out.outputs[0].len(), 8);
//! # Ok(())
//! # }
//! ```

pub use bd_accuracy as accuracy;
pub use bd_baselines as baselines;
pub use bd_core as core;
pub use bd_gpu_sim as gpu;
pub use bd_kvcache as kvcache;
pub use bd_llm as llm;
pub use bd_lowbit as lowbit;
pub use bd_serve as serve;

pub use bd_baselines::{BitDecodingSys, CudaOnly, DecodeSystem, FlashDecoding, Kivi};
pub use bd_core::{
    AttentionConfig, BitDecoder, DecodeError, DecodeOutput, DecodeReport, DecodeShape,
    OptimizationFlags,
};
pub use bd_gpu_sim::{
    builtin_device, builtin_topology, DeviceSpec, GpuArch, InterconnectModel, LatencyBreakdown,
    SpecError, Topology, TopologySpec,
};
pub use bd_kvcache::{
    CacheConfig, DeviceId, PackLayout, PagedKvStore, Partitioning, Placement, QuantScheme,
    QuantizedKvCache, ShardedKvStore,
};
pub use bd_llm::{Engine, MemoryModel, ModelConfig, WeightPrecision};
pub use bd_serve::{
    Fcfs, FcfsPreempt, SchedulerPolicy, ServeConfig, ServeSession, ShortestRemainingFirst,
    SynthSequence,
};
