//! Pack-layout configuration and the residual block size (paper Eq. 1).
//!
//! A packed cache is only decodable under the *same* instruction
//! configuration that produced it: the `ldmatrix`/`mma` variant fixes the
//! value-to-thread mapping, the pack order fixes the in-register interleave,
//! and the warp count along N fixes how fragments tile the token dimension.
//! [`PackLayout`] carries exactly this configuration, and the Residual and
//! Packing kernels in `bd-core` are coordinated by sharing one value of it
//! (paper §IV-A(4)).

use bd_gpu_sim::MmaShape;
use bd_lowbit::{BitWidth, PackOrder};
use std::fmt;

/// The unified instruction configuration shared by the Residual Kernel
/// (quantize + pack) and the Packing Kernel (unpack + dequantize).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PackLayout {
    /// MMA shape whose B-fragment mapping induces the packing layout.
    pub shape: MmaShape,
    /// In-register interleave order (75316420 fast path or linear).
    pub order: PackOrder,
    /// Warps along the N (token) dimension, `Wn` (paper Fig. 6).
    pub warps_n: usize,
}

impl PackLayout {
    /// The configuration BitDecoding selects for pre-Hopper tensor cores:
    /// `mma.m16n8k16`, fast-dequant interleave, four warps along N.
    pub const fn sm80_default() -> Self {
        PackLayout {
            shape: MmaShape::M16N8K16,
            order: PackOrder::FastDequant,
            warps_n: 4,
        }
    }

    /// Residual block size `Nr = Pn × Wn × R` (paper Eq. 1): the number of
    /// FP16 residual tokens that exactly fills every warp's fragment tile at
    /// the given packing ratio.
    pub const fn residual_block(&self, width: BitWidth) -> usize {
        self.shape.pn() * self.warps_n * width.packing_ratio()
    }
}

impl Default for PackLayout {
    fn default() -> Self {
        PackLayout::sm80_default()
    }
}

impl fmt::Display for PackLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ×Wn={} ({:?})", self.shape, self.warps_n, self.order)
    }
}

/// Splits a prefill of `len` tokens into the packed prefix and the residual
/// tail (paper §V-B(1)): `Np = len - (len mod Nr)` tokens are quantized,
/// the rest stay half-precision.
pub const fn partition_prefill(len: usize, residual_block: usize) -> (usize, usize) {
    let res = len % residual_block;
    (len - res, res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_residual_block_sizes() {
        let layout = PackLayout::sm80_default();
        // Pn=8, Wn=4, R=4 → 128 for INT4; R=8 → 256 for INT2.
        assert_eq!(layout.residual_block(BitWidth::B4), 128);
        assert_eq!(layout.residual_block(BitWidth::B2), 256);
        // Nr is always ≤ 256, as the paper states.
        for wn in 1..=4 {
            let l = PackLayout {
                warps_n: wn,
                ..layout
            };
            assert!(l.residual_block(BitWidth::B4) <= 256);
            assert!(l.residual_block(BitWidth::B2) <= 256 * 2);
        }
    }

    #[test]
    fn partition_covers_all_tokens() {
        for len in [0usize, 1, 127, 128, 129, 4096, 100_000] {
            let (packed, res) = partition_prefill(len, 128);
            assert_eq!(packed + res, len);
            assert_eq!(packed % 128, 0);
            assert!(res < 128);
        }
    }
}
