//! Asymmetric affine integer quantization.
//!
//! KV-cache quantization algorithms supported by BitDecoding (KIVI, KVQuant,
//! QServe-style) all use asymmetric min/max affine quantization within a
//! group: `q = round((x - min) / scale)`, `x ≈ q * scale + min`, with the
//! scale and zero-point stored per group as a [`crate::Half2`].
//!
//! Groups are formed either **channel-wise** (one group per hidden channel,
//! reducing over tokens — used for Keys, whose outliers are channel
//! structured) or **tensor-wise** (one group per token over a span of hidden
//! channels — used for Values). Group shaping lives in `bd-kvcache`; this
//! module provides the scalar machinery.

use crate::f16::F16;
use crate::half2::Half2;
use std::fmt;

/// Integer bit-width of a quantized KV cache.
///
/// BitDecoding evaluates 4-bit and 2-bit caches (paper §VI); the packing
/// word is 16 bits, giving packing ratios `R = 16/β` of 4 and 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitWidth {
    /// 4-bit codes, 4 per 16-bit word.
    B4,
    /// 2-bit codes, 8 per 16-bit word.
    B2,
}

impl BitWidth {
    /// Number of bits per code (β).
    pub const fn bits(self) -> u32 {
        match self {
            BitWidth::B4 => 4,
            BitWidth::B2 => 2,
        }
    }

    /// Number of quantization levels, `2^β`.
    pub const fn levels(self) -> u32 {
        1 << self.bits()
    }

    /// Maximum code value, `2^β - 1`.
    pub const fn max_code(self) -> u8 {
        (self.levels() - 1) as u8
    }

    /// Packing ratio `R = ω / β` for the 16-bit packing word (paper Eq. 1).
    pub const fn packing_ratio(self) -> usize {
        (16 / self.bits()) as usize
    }

    /// Bytes of packed payload required per quantized element.
    pub const fn bytes_per_element(self) -> f64 {
        self.bits() as f64 / 8.0
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INT{}", self.bits())
    }
}

/// Per-group affine quantization parameters.
///
/// `dequant(q) = q * scale + zero` where `zero` is the group minimum.
/// Stored on device as a `half2` (scale in the low half-word).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuantParams {
    /// Step between adjacent codes.
    pub scale: F16,
    /// Value of code zero (the group minimum).
    pub zero: F16,
}

impl QuantParams {
    /// Derives parameters from a group's min/max statistics.
    ///
    /// Degenerate groups (`max == min`) quantize losslessly to code 0 with a
    /// unit scale so that dequantization stays finite.
    pub fn from_min_max(min: f32, max: f32, width: BitWidth) -> Self {
        let range = max - min;
        // NaN and ±inf ranges also take the degenerate path.
        if !range.is_finite() || range <= 0.0 {
            return QuantParams {
                scale: F16::ONE,
                zero: F16::from_f32(min),
            };
        }
        let scale = range / (width.levels() - 1) as f32;
        QuantParams {
            scale: F16::from_f32(scale),
            zero: F16::from_f32(min),
        }
    }

    /// Packs `(scale, zero)` into the on-device `half2` layout.
    pub fn to_half2(self) -> Half2 {
        Half2::new(self.scale, self.zero)
    }

    /// Unpacks from the on-device `half2` layout.
    #[inline]
    pub fn from_half2(h: Half2) -> Self {
        QuantParams {
            scale: h.lo(),
            zero: h.hi(),
        }
    }

    /// Quantizes one value to its integer code (round-to-nearest, clamped).
    pub fn quantize(&self, x: f32, width: BitWidth) -> u8 {
        let s = self.scale.to_f32();
        let z = self.zero.to_f32();
        if s == 0.0 {
            return 0;
        }
        let q = ((x - z) / s).round();
        q.clamp(0.0, width.max_code() as f32) as u8
    }

    /// Dequantizes one code back to FP16 (the slow `static_cast` + FMA path;
    /// the fast path lives in [`crate::fastpath`]).
    #[inline]
    pub fn dequantize(&self, code: u8) -> F16 {
        F16::from_f32(code as f32).mul_add(self.scale, self.zero)
    }
}

/// Running min/max statistics for a quantization group.
///
/// On device these are produced by thread-local reductions followed by
/// `__shfl_xor_sync` butterfly reduction across the warp (paper §V-B(2)).
#[derive(Clone, Copy, Debug)]
pub struct MinMax {
    /// Smallest value seen.
    pub min: f32,
    /// Largest value seen.
    pub max: f32,
}

impl Default for MinMax {
    fn default() -> Self {
        MinMax::EMPTY
    }
}

impl MinMax {
    /// The identity element for the min/max reduction.
    pub const EMPTY: MinMax = MinMax {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
    };

    /// Folds one observation into the statistics.
    pub fn update(&mut self, x: f32) {
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Combines two partial reductions (the butterfly-exchange step).
    pub fn merge(self, other: MinMax) -> MinMax {
        MinMax {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Computes the statistics of a slice.
    pub fn of(values: &[f32]) -> MinMax {
        let mut mm = MinMax::EMPTY;
        for &v in values {
            mm.update(v);
        }
        mm
    }

    /// Converts to quantization parameters.
    pub fn params(self, width: BitWidth) -> QuantParams {
        QuantParams::from_min_max(self.min, self.max, width)
    }
}

/// Quantizes a group of values, returning codes and the parameters used.
///
/// # Examples
///
/// ```
/// use bd_lowbit::{quantize_group, BitWidth};
///
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let (codes, params) = quantize_group(&xs, BitWidth::B4);
/// for (c, x) in codes.iter().zip(&xs) {
///     assert!((params.dequantize(*c).to_f32() - x).abs() <= params.scale.to_f32());
/// }
/// ```
pub fn quantize_group(values: &[f32], width: BitWidth) -> (Vec<u8>, QuantParams) {
    let params = MinMax::of(values).params(width);
    let codes = values.iter().map(|&x| params.quantize(x, width)).collect();
    (codes, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwidth_constants() {
        assert_eq!(BitWidth::B4.levels(), 16);
        assert_eq!(BitWidth::B2.levels(), 4);
        assert_eq!(BitWidth::B4.packing_ratio(), 4);
        assert_eq!(BitWidth::B2.packing_ratio(), 8);
        assert_eq!(BitWidth::B4.max_code(), 15);
        assert_eq!(BitWidth::B2.max_code(), 3);
        assert_eq!(BitWidth::B4.bytes_per_element(), 0.5);
    }

    #[test]
    fn quantize_endpoints_exactly() {
        let p = QuantParams::from_min_max(-2.0, 6.0, BitWidth::B4);
        assert_eq!(p.quantize(-2.0, BitWidth::B4), 0);
        assert_eq!(p.quantize(6.0, BitWidth::B4), 15);
        assert!((p.dequantize(0).to_f32() - -2.0).abs() < 1e-2);
        assert!((p.dequantize(15).to_f32() - 6.0).abs() < 2e-2);
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let p = QuantParams::from_min_max(0.0, 1.0, BitWidth::B2);
        assert_eq!(p.quantize(-5.0, BitWidth::B2), 0);
        assert_eq!(p.quantize(5.0, BitWidth::B2), 3);
    }

    #[test]
    fn degenerate_group_is_lossless() {
        let (codes, p) = quantize_group(&[3.5, 3.5, 3.5], BitWidth::B2);
        assert!(codes.iter().all(|&c| c == 0));
        for &c in &codes {
            assert!((p.dequantize(c).to_f32() - 3.5).abs() < 1e-2);
        }
    }

    #[test]
    fn minmax_merge_is_commutative() {
        let a = MinMax::of(&[1.0, 2.0]);
        let b = MinMax::of(&[-1.0, 0.5]);
        let m1 = a.merge(b);
        let m2 = b.merge(a);
        assert_eq!(m1.min, m2.min);
        assert_eq!(m1.max, m2.max);
        assert_eq!(m1.min, -1.0);
        assert_eq!(m1.max, 2.0);
    }

    #[test]
    fn half2_round_trip_of_params() {
        let p = QuantParams::from_min_max(-1.0, 1.0, BitWidth::B4);
        let q = QuantParams::from_half2(p.to_half2());
        assert_eq!(p, q);
    }

    #[test]
    fn quantization_error_bounded_by_half_scale() {
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 4.0).collect();
        for width in [BitWidth::B4, BitWidth::B2] {
            let (codes, p) = quantize_group(&xs, width);
            let tol = p.scale.to_f32() * 0.5 + 0.02; // + f16 rounding slack
            for (&c, &x) in codes.iter().zip(&xs) {
                assert!(
                    (p.dequantize(c).to_f32() - x).abs() <= tol,
                    "width={width} x={x} err too large"
                );
            }
        }
    }
}
