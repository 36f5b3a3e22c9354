#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-lowbit — low-precision numerics for BitDecoding-RS
//!
//! The numeric substrate of the BitDecoding reproduction: a bit-exact
//! software [`F16`], the [`Half2`] metadata pair, asymmetric affine
//! [quantization](crate::quant), 16-bit-word [bit packing](crate::pack) with
//! the 75316420 fast-dequant interleave, the `lop3`-style
//! [fast dequantization](crate::fastpath) path, and Blackwell
//! [micro-scaling FP4 formats](crate::fp4) (MXFP4 / NVFP4).
//!
//! Everything in this crate is pure arithmetic — no GPU model, no caches —
//! so it can be tested exhaustively and reused by every other crate in the
//! workspace.
//!
//! ## Example: quantize, pack, fast-dequantize
//!
//! ```
//! use bd_lowbit::{quantize_group, pack_u32, BitWidth, PackOrder, fastpath};
//!
//! let values = [0.1f32, -0.4, 0.9, 1.3, -1.0, 0.0, 0.7, 0.2];
//! let (codes, params) = quantize_group(&values, BitWidth::B4);
//! let reg = pack_u32(&codes, BitWidth::B4, PackOrder::FastDequant);
//! let (halves, ops) = fastpath::dequant_register(reg, BitWidth::B4, params);
//! assert_eq!(halves.len(), 8);
//! assert_eq!(ops.lop3, 4); // two values per lop3
//! ```

pub mod f16;
pub mod fastpath;
pub mod fp4;
pub mod half2;
pub mod pack;
pub mod quant;

pub use f16::F16;
pub use fp4::{BlockScale, Fp4Block, Fp4Kind, E2M1, E4M3, E8M0};
pub use half2::Half2;
pub use pack::{
    codes_per_u16, codes_per_u32, fuse_words, pack_u16, pack_u32, split_register, unpack_u16,
    unpack_u32, unpack_u32_into, PackOrder, FAST_PERM_INT2, FAST_PERM_INT4,
};
pub use quant::{quantize_group, BitWidth, MinMax, QuantParams};
