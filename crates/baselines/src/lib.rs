#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-baselines — the comparison systems of the BitDecoding evaluation
//!
//! Every system the paper compares against, modelled as its kernel
//! composition on the shared `bd-gpu-sim` cost vocabulary:
//!
//! * [`FlashDecoding`] v2/v3 — the FP16 fused baselines (speedup = 1.0);
//! * [`Kivi`] — non-fused low-bit attention with standalone kernels;
//! * [`CudaOnly`] ([`CudaOnly::atom`], [`CudaOnly::qserve`]) — fused
//!   CUDA-core-only low-bit attention;
//! * [`BitDecodingSys`] — the paper's system, adapted to the same
//!   [`DecodeSystem`] interface;
//! * [`TransformKind`] — Marlin/Ladder-style weight-transform kernels for
//!   the Table II overhead comparison;
//! * [`ContinuousPacking`] — the QuaRot-style breakdown baseline (Fig. 16).

pub mod bitdecoding_sys;
pub mod continuous;
pub mod cuda_only;
pub mod flash;
pub mod kivi;
pub mod system;
pub mod transforms;

pub use bitdecoding_sys::BitDecodingSys;
pub use continuous::ContinuousPacking;
pub use cuda_only::{CudaOnly, CudaOnlyKind};
pub use flash::{FlashDecoding, FlashVersion};
pub use kivi::Kivi;
pub use system::{speedup, DecodeSystem};
pub use transforms::{table2_row, TransformKind};
