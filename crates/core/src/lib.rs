#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-core — the BitDecoding engine
//!
//! The paper's primary contribution, reproduced on the `bd-gpu-sim`
//! substrate: cooperative use of (simulated) Tensor Cores and CUDA cores
//! for decoding with a low-bit KV cache.
//!
//! * [`config`] — attention variants (MHA/GQA/MQA) and the query
//!   transformation (§V-A);
//! * [`codec`] — the fragment-true pack/unpack codec implementing layout
//!   induction (§IV-A);
//! * [`softmax`] — online softmax, split-KV merge, and the multi-warp
//!   cooperative softmax of Algorithm 1 (§IV-B);
//! * [`kernels`] — functional Residual/Packing kernel bodies executing on
//!   the simulated Tensor Core ISA (§V-B, §V-C);
//! * [`profiles`] — analytic event-count profiles for the same kernels,
//!   including the SM80/SM90/SM100 paths and ablation flags (§V-D);
//! * [`api`] — the [`BitDecoder`] front end.
//!
//! ## Quickstart
//!
//! ```
//! use bd_core::{AttentionConfig, BitDecoder};
//! use bd_gpu_sim::GpuArch;
//! use bd_kvcache::{QuantScheme, TokenMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dec = BitDecoder::builder(GpuArch::rtx4090())
//!     .attention(AttentionConfig::gqa(8, 2, 32))
//!     .scheme(QuantScheme::kc4())
//!     .build();
//! let mut cache = dec.new_cache(1);
//! let codec = dec.codec();
//! // Prefill 200 tokens (one `tokens × head_dim` matrix), then decode
//! // one step.
//! let kv = TokenMatrix::from_fn(200, 32, |t, _| 0.01 * t as f32);
//! for head in 0..cache.heads() {
//!     cache.prefill(head, &kv, &kv, &codec)?;
//! }
//! let q = vec![vec![vec![0.1; 32]; 8]];
//! let out = dec.decode(&q, &cache)?;
//! println!("step latency: {:.3} ms", out.report.total_s * 1e3);
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod codec;
pub mod config;
pub mod kernels;
pub mod profiles;
pub mod shape;
pub mod softmax;

pub use api::{BitDecoder, BitDecoderBuilder, DecodeError, DecodeOutput, DecodeReport};
pub use codec::FragmentCodec;
pub use config::{query_transform, ungroup_outputs, AttentionConfig, AttentionVariant, QueryHeads};
pub use kernels::{
    attend_packed_blocks, attend_packed_blocks_fused, attend_packed_blocks_multi, attend_residual,
    attend_residual_fused, matmul, MatmulEngine, PrefixSharer, ResidualKeys,
};
pub use profiles::{
    choose_splits, combine_kernel_profile, decode_plan, fast_dequant_slots_per_elem,
    packing_kernel_profile, ArchPath, OptimizationFlags,
};
pub use shape::DecodeShape;
pub use softmax::{reference_attention, OnlineSoftmax};
