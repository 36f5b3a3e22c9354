#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-gpu-sim — a GPU execution-model simulator for BitDecoding-RS
//!
//! Rust has no tensor-core kernel tooling and this reproduction targets
//! machines without NVIDIA GPUs, so the paper's hardware substrate is
//! replaced by this simulator (see `DESIGN.md` §1). It has two layers that
//! share one vocabulary:
//!
//! * a **functional layer** ([`fragment`], [`isa`], [`tile`], [`smem`])
//!   that executes real data movement at value granularity — fragment
//!   layouts are genuine bijections and an `mma` fed registers packed under
//!   the wrong layout computes genuinely wrong numbers;
//! * a **timing layer** ([`arch`], [`profile`], [`cost`]) — an analytical
//!   roofline-with-overlap model that converts counted events (DRAM bytes,
//!   TC MACs, CUDA-core slots, smem transactions, launches) into latency on
//!   each of the paper's five evaluation GPUs.
//!
//! ## Example
//!
//! ```
//! use bd_gpu_sim::{GpuArch, KernelProfile};
//!
//! let arch = GpuArch::rtx4090();
//! let mut p = KernelProfile::new("attention");
//! p.dram_read_bytes = 256e6; // half-precision KV for a long context
//! p.ctas = 512.0;
//! let lat = arch.evaluate(&p);
//! assert!(lat.total > 0.0);
//! println!("{lat}");
//! ```

pub mod arch;
pub mod cost;
pub mod fragment;
pub mod isa;
pub mod profile;
pub mod smem;
pub mod spec;
pub mod tile;
pub mod topology;

pub use arch::{ArchGen, GpuArch, Precision};
pub use cost::{InterconnectModel, LatencyBreakdown};
pub use fragment::{Fragment, FragmentLayout, MmaShape, Operand, WARP_LANES};
pub use isa::{
    ldmatrix, lop3, mma, mma_block_scaled_fp4, shfl_xor_reduce, stsm, wgmma_ss, AccFragment,
    LOP3_AND_OR,
};
pub use profile::{CudaOps, KernelProfile, OverlapSpec};
pub use smem::{
    conflict_factor, ldmatrix_x4_transactions, staged_offset, warp_transactions, Swizzle,
};
pub use spec::{builtin_device, DeviceSpec, SpecError, BUILTIN_PROFILES};
pub use tile::Tile;
pub use topology::{builtin_topology, Island, Topology, TopologySpec, BUILTIN_TOPOLOGIES};
