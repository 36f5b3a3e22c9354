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

    /// The `f32` divisor [`emit_code`] uses for this group. A scale that
    /// rounded to zero in FP16 quantizes its whole group to code 0
    /// ([`QuantParams::quantize`] tests for it per element); dividing by
    /// infinity instead yields `±0` or NaN for every input, which
    /// [`emit_code`] maps to 0 — the same answer with no branch in the
    /// loop.
    #[inline]
    pub fn code_divisor(self) -> f32 {
        let scale = self.scale.to_f32();
        if scale == 0.0 {
            f32::INFINITY
        } else {
            scale
        }
    }

    /// Dequantizes one code back to FP16 (the slow `static_cast` + FMA path;
    /// the fast path lives in [`crate::fastpath`]).
    #[inline]
    pub fn dequantize(&self, code: u8) -> F16 {
        F16::from_f32(code as f32).hfma(self.scale, self.zero)
    }
}

/// Running min/max statistics for a quantization group.
///
/// On device these are produced by thread-local reductions followed by
/// `__shfl_xor_sync` butterfly reduction across the warp (paper §V-B(2)).
/// [`MinMax::of`] does the same on the host: 8 lane-local reductions,
/// then an ordered merge.
///
/// The statistics are defined by the sequential [`MinMax::update`] chain
/// in index order, and every way of computing them gives its bits: NaN
/// never updates (so an all-NaN group stays [`MinMax::EMPTY`]), and of
/// `-0.0` and `+0.0`, which compare equal, the first in index order wins.
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

    /// Lanes of [`MinMax::of`]'s reduction: two SSE registers, or one
    /// AVX register, per statistic.
    const LANES: usize = 8;

    /// Computes the statistics of a slice: the [`MinMax::update`] chain's
    /// bits at lane speed. Each of 8 lanes folds every 8th value with
    /// `update`'s comparison — a select the compiler turns into a packed
    /// `min` (or `max`), which skips NaN exactly as `update` does; the min
    /// and the max are separate passes, because one loop carrying both
    /// does not vectorize. The lanes merge in order and the tail folds
    /// last. Only the sign of a zero depends on
    /// that order — a nonzero value equals no other bit pattern — so a
    /// result with a zero min or max is settled by the sequential chain.
    pub fn of(values: &[f32]) -> MinMax {
        let (chunks, tail) = values.as_chunks::<{ MinMax::LANES }>();
        let mut lo = [MinMax::EMPTY.min; MinMax::LANES];
        for chunk in chunks {
            for (l, &x) in lo.iter_mut().zip(chunk) {
                *l = if x < *l { x } else { *l };
            }
        }
        let mut hi = [MinMax::EMPTY.max; MinMax::LANES];
        for chunk in chunks {
            for (h, &x) in hi.iter_mut().zip(chunk) {
                *h = if x > *h { x } else { *h };
            }
        }
        let mut mm = MinMax::EMPTY;
        for (l, h) in lo.into_iter().zip(hi) {
            mm = MinMax {
                min: if l < mm.min { l } else { mm.min },
                max: if h > mm.max { h } else { mm.max },
            };
        }
        for &x in tail {
            mm.update(x);
        }
        if mm.min == 0.0 || mm.max == 0.0 {
            mm = MinMax::EMPTY;
            for &x in values {
                mm.update(x);
            }
        }
        mm
    }

    /// Converts to quantization parameters.
    pub fn params(self, width: BitWidth) -> QuantParams {
        QuantParams::from_min_max(self.min, self.max, width)
    }
}

/// [`QuantParams::quantize`] without its branches or its float-to-int
/// cast, for loops the compiler vectorizes: `divisor` is the group's
/// [`QuantParams::code_divisor`], `zero` its zero widened to `f32` and
/// `max_code` the width's [`BitWidth::max_code`]. The same subtract and
/// divide, then clamp-and-round instead of round-and-clamp. The two orders
/// agree because rounding is monotone and fixes the integer clamp bounds;
/// NaN fails the first comparison and becomes 0, as `NaN as u8` does.
///
/// Inside `[0, max_code]`, adding and subtracting `2^23` rounds to the
/// nearest integer, ties to even; `t - even` is exact, and is `+0.5`
/// precisely for the ties that went down, which round-half-away-from-zero
/// sends up. The integer result plus `2^23` carries its value in the low
/// mantissa bits, so the code is read off the bit pattern.
#[inline(always)]
pub fn emit_code(x: f32, divisor: f32, zero: f32, max_code: f32) -> u8 {
    const INTEGER_ULP: f32 = 8_388_608.0;
    let t = (x - zero) / divisor;
    let t = if t > 0.0 { t } else { 0.0 };
    let t = if t < max_code { t } else { max_code };
    let even = (t + INTEGER_ULP) - INTEGER_ULP;
    let tie_went_down = if t - even == 0.5 { 1.0 } else { 0.0 };
    (even + tie_went_down + INTEGER_ULP).to_bits() as u8
}

/// Quantizes a group of values, returning codes and the parameters used:
/// [`MinMax::of`], then [`emit_code`] per value.
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
    let (divisor, zero) = (params.code_divisor(), params.zero.to_f32());
    let max_code = f32::from(width.max_code());
    let codes = (values.iter())
        .map(|&x| emit_code(x, divisor, zero, max_code))
        .collect();
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

    /// `MinMax::of` is the sequential `update` chain, bit for bit: the
    /// first of `±0` in index order wins, NaN is skipped, an all-NaN slice
    /// stays [`MinMax::EMPTY`], and infinities are ordinary values.
    #[test]
    fn of_is_the_sequential_update_chain_bit_for_bit() {
        fn sequential(values: &[f32]) -> MinMax {
            let mut mm = MinMax::EMPTY;
            for &x in values {
                mm.update(x);
            }
            mm
        }
        let check = |values: &[f32], what: &str| {
            let (got, want) = (MinMax::of(values), sequential(values));
            assert_eq!(
                [got.min.to_bits(), got.max.to_bits()],
                [want.min.to_bits(), want.max.to_bits()],
                "{what}: {values:?}"
            );
        };
        for len in [
            1usize, 2, 7, 8, 9, 15, 16, 17, 20, 24, 31, 32, 33, 64, 72, 128,
        ] {
            // Zero and its sign at every pair of spots, so the two zeros sit
            // in lanes whose order disagrees with their index order as often
            // as it agrees, on a positive row (zero is the min), a negative
            // row (zero is the max) and a row of zeros.
            let spots: Vec<usize> = [
                0,
                1,
                2,
                7,
                8,
                9,
                10,
                15,
                17,
                len / 2,
                len.saturating_sub(2),
                len - 1,
            ]
            .into_iter()
            .filter(|&i| i < len)
            .collect();
            for base in [1.0f32, -1.0, 0.0] {
                for &i in &spots {
                    for &j in spots.iter().filter(|&&j| j != i) {
                        for (a, b) in [(-0.0f32, 0.0f32), (0.0, -0.0)] {
                            let mut row: Vec<f32> =
                                (0..len).map(|t| base * (1.0 + t as f32 * 0.25)).collect();
                            row[i] = a;
                            row[j] = b;
                            check(&row, "zeros");
                            // NaN in the lanes between and around them.
                            for t in (0..len).filter(|&t| t != i && t != j && t % 3 == 1) {
                                row[t] = if t % 2 == 0 { f32::NAN } else { -f32::NAN };
                            }
                            check(&row, "zeros and NaN");
                        }
                    }
                }
            }
            check(&vec![f32::NAN; len], "all NaN");
            check(&vec![0.0; len], "all +0");
            check(&vec![-0.0; len], "all -0");
            for &i in &spots {
                let mut row: Vec<f32> = (0..len).map(|t| (t as f32 * 0.7).sin()).collect();
                row[i] = f32::INFINITY;
                check(&row, "+Inf");
                row[len - 1 - i] = f32::NEG_INFINITY;
                check(&row, "±Inf");
                row[(i + 1) % len] = f32::NAN;
                check(&row, "±Inf and NaN");
                let mut lone = vec![f32::NAN; len];
                lone[i] = -0.0;
                check(&lone, "one -0 among NaN");
                lone[len - 1 - i] = f32::NEG_INFINITY;
                check(&lone, "-Inf and -0 among NaN");
            }
        }
        check(&[], "empty");
    }

    #[test]
    fn emit_code_is_quantize_bit_for_bit() {
        let xs = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            1e-30,
            -3.0,
            70_000.0,
        ];
        let ties = (0..=64).map(|i| i as f32 * 0.25 - 2.0);
        let params = [
            QuantParams::from_min_max(-2.0, 6.0, BitWidth::B4),
            QuantParams::from_min_max(0.0, 30.0, BitWidth::B4),
            QuantParams::from_min_max(0.0, 6.0, BitWidth::B2),
            QuantParams::from_min_max(1.0, 1.0, BitWidth::B2),
            // A scale that rounds to zero in FP16, and an overflowing one.
            QuantParams::from_min_max(0.0, 1e-9, BitWidth::B4),
            QuantParams::from_min_max(-1e6, 1e6, BitWidth::B4),
        ];
        for p in params {
            for width in [BitWidth::B4, BitWidth::B2] {
                let max_code = f32::from(width.max_code());
                for x in xs.into_iter().chain(ties.clone()) {
                    let got = emit_code(x, p.code_divisor(), p.zero.to_f32(), max_code);
                    assert_eq!(got, p.quantize(x, width), "{p:?} {width} x = {x}");
                }
            }
        }
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
