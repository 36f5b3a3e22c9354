//! Software IEEE 754 binary16 ("half") arithmetic.
//!
//! The KV cache in BitDecoding is stored and dequantized as FP16, and the
//! fast `lop3`-based dequantization path (see [`crate::fastpath`]) operates
//! directly on half bit patterns. Rust has no native `f16` on stable, so this
//! module provides a bit-exact software implementation with round-to-nearest-
//! even conversions (the rounding mode used by GPU `cvt` instructions).
//!
//! Arithmetic is performed by widening to `f32` and rounding back, which
//! matches the behaviour of mixed-precision GPU pipelines that accumulate in
//! FP32 registers.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// # Examples
///
/// ```
/// use bd_lowbit::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!(x.to_bits(), 0x3E00);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates a half from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow produces infinity; values below the subnormal range flush to
    /// (signed) zero exactly as the hardware `cvt.rn.f16.f32` instruction.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x.to_bits()))
    }

    /// Converts to `f32` exactly (binary16 ⊂ binary32).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(f16_bits_to_f32(self.0))
    }

    /// Returns `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if the value is neither infinite nor NaN.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` for subnormal values (exponent bits all zero, nonzero
    /// mantissa).
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaNs with
    /// the sign bit set).
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7FFF)
    }

    /// The maximum of two values, propagating the larger.
    pub fn max(self, other: Self) -> Self {
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// The minimum of two values.
    pub fn min(self, other: Self) -> Self {
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Fused multiply-add computed in `f32` and rounded once, matching the
    /// GPU `fma.rn.f16` contract used during dequantization
    /// (`x = q * scale + zero`).
    #[inline]
    pub fn mul_add(self, a: F16, b: F16) -> Self {
        F16::from_f32(self.to_f32() * a.to_f32() + b.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

/// Round-to-nearest-even `f32` → binary16 conversion on raw bits.
///
/// This is the classic branch-light algorithm (Giesen's
/// `float_to_half_fast3_rtne`): subnormal results are produced by a
/// round-correct FP addition against a magic bias, normal results by integer
/// rounding-bias addition.
#[inline]
pub fn f32_to_f16_bits(fbits: u32) -> u16 {
    const F32_INFTY: u32 = 255 << 23;
    const F16_MAX: u32 = (127 + 16) << 23;
    const DENORM_MAGIC_BITS: u32 = ((127 - 15) + (23 - 10) + 1) << 23;

    let sign = fbits & SIGN_MASK;
    let mut f = fbits ^ sign;
    let o: u16;

    if f >= F16_MAX {
        // Inf or NaN: map NaN payloads to a canonical quiet NaN.
        o = if f > F32_INFTY { 0x7E00 } else { 0x7C00 };
    } else if f < (113 << 23) {
        // Subnormal (or zero) result: align the mantissa via FP addition,
        // which performs the rounding for us.
        let fl = f32::from_bits(f) + f32::from_bits(DENORM_MAGIC_BITS);
        o = (fl.to_bits().wrapping_sub(DENORM_MAGIC_BITS)) as u16;
    } else {
        // Normal result: rebias exponent with rounding bias.
        let mant_odd = (f >> 13) & 1;
        f = f.wrapping_add(((15u32.wrapping_sub(127)) << 23).wrapping_add(0xFFF));
        f = f.wrapping_add(mant_odd);
        o = (f >> 13) as u16;
    }
    o | (sign >> 16) as u16
}

/// Writes `F16::from_f32(x).to_f32()` of every `src` value into `dst`, bit
/// for bit, without leaving the `f32` domain — the KV projection's FP16
/// output precision applied to a whole row at once.
///
/// Magnitudes below 65520 (everything that does not round to infinity) go
/// through a branch-free pass the compiler can vectorize: results in the
/// binary16 normal range round their 13 excess mantissa bits to nearest
/// even in place, results in the subnormal range round through the same
/// `+ 0.5` alignment [`f32_to_f16_bits`] uses. A row holding anything
/// larger, infinite or NaN is redone element by element through [`F16`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn round_through_f16(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "slab length mismatch");
    let mut overflow = false;
    for (out, &x) in dst.iter_mut().zip(src) {
        overflow |= rounds_past_f16_max(x);
        *out = round_below_f16_max(x);
    }
    if overflow {
        for (out, &x) in dst.iter_mut().zip(src) {
            *out = F16::from_f32(x).to_f32();
        }
    }
}

/// [`round_through_f16`] over `xs` in place, bit for bit the same values.
pub fn round_through_f16_in_place(xs: &mut [f32]) {
    if xs
        .iter()
        .fold(false, |any, &x| any | rounds_past_f16_max(x))
    {
        for x in xs {
            *x = F16::from_f32(*x).to_f32();
        }
    } else {
        for x in xs {
            *x = round_below_f16_max(*x);
        }
    }
}

/// `|x| ≥ 65520`, infinite or NaN: where [`round_below_f16_max`] is wrong.
#[inline(always)]
fn rounds_past_f16_max(x: f32) -> bool {
    /// `65520.0`, the smallest magnitude that rounds to infinity.
    const OVERFLOW: u32 = 0x477F_F000;
    x.to_bits() & !SIGN_MASK >= OVERFLOW
}

/// `F16::from_f32(x).to_f32()`, branch-free, for `|x| < 65520`.
#[inline(always)]
fn round_below_f16_max(x: f32) -> f32 {
    /// `2^-14`, the smallest binary16 normal.
    const MIN_NORMAL: u32 = 113 << 23;
    let bits = x.to_bits();
    let mag = bits & !SIGN_MASK;
    let normal = mag.wrapping_add(0xFFF + ((mag >> 13) & 1)) & !0x1FFF;
    let subnormal = ((f32::from_bits(mag) + 0.5) - 0.5).to_bits();
    let rounded = if mag < MIN_NORMAL { subnormal } else { normal };
    f32::from_bits(rounded | (bits & SIGN_MASK))
}

/// The `f32` sign bit.
const SIGN_MASK: u32 = 0x8000_0000;

/// Exact binary16 → `f32` conversion on raw bits.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> u32 {
    const MAGIC_BITS: u32 = 113 << 23;
    const SHIFTED_EXP: u32 = 0x7C00 << 13;

    let mut o = ((h & 0x7FFF) as u32) << 13;
    let exp = SHIFTED_EXP & o;
    o = o.wrapping_add((127 - 15) << 23);

    if exp == SHIFTED_EXP {
        // Inf / NaN: extra exponent adjustment.
        o = o.wrapping_add((128 - 16) << 23);
    } else if exp == 0 {
        // Zero / subnormal: renormalize.
        o = o.wrapping_add(1 << 23);
        o = (f32::from_bits(o) - f32::from_bits(MAGIC_BITS)).to_bits();
    }
    o | ((h & 0x8000) as u32) << 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(1024.0).to_bits(), 0x6400);
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_bits(), 0xFC00);
        assert!(F16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(1e9).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(-1e9).to_bits(), 0xFC00);
        // 65519.996 rounds down to 65504.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal.
        let big_sub = F16::from_bits(0x03FF);
        assert!(big_sub.is_subnormal());
        assert_eq!(F16::from_f32(big_sub.to_f32()).to_bits(), 0x03FF);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and 1.0+2^-10;
        // RNE keeps the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_bits(), 0x3C00);
        // 1.0 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_bits(), 0x3C02);
    }

    #[test]
    fn magic_dequant_identity() {
        // The fast-dequant trick relies on 0x6400 | c == 1024.0 + c for
        // c in 0..1024.
        for c in 0u16..16 {
            let v = F16::from_bits(0x6400 | c);
            assert_eq!(v.to_f32(), 1024.0 + c as f32);
        }
    }

    #[test]
    fn arithmetic_widens_to_f32() {
        let a = F16::from_f32(0.1);
        let b = F16::from_f32(0.2);
        let c = a + b;
        assert!((c.to_f32() - 0.3).abs() < 1e-3);
        assert_eq!((-a).to_f32(), -a.to_f32());
        assert_eq!(a.mul_add(b, F16::ONE).to_f32(), {
            F16::from_f32(a.to_f32() * b.to_f32() + 1.0).to_f32()
        });
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert_eq!(F16::ONE.max(F16::NEG_ONE), F16::ONE);
        assert_eq!(F16::ONE.min(F16::NEG_ONE), F16::NEG_ONE);
    }

    /// Every binary16 value, the f32 midpoints to both of its neighbours
    /// and the f32 values one ulp either side of each midpoint — every
    /// place round-to-nearest-even can change its answer — plus the
    /// overflow, subnormal and NaN boundaries.
    fn rounding_edge_cases() -> Vec<f32> {
        let mut cases = Vec::new();
        for bits in 0u16..=0xFFFF {
            let x = F16::from_bits(bits).to_f32();
            cases.push(x);
            if !x.is_finite() {
                continue;
            }
            // The neighbour away from zero (past MAX it is 65536, whose
            // midpoint with MAX is the overflow threshold 65520) and the
            // one towards it.
            let mag = bits & 0x7FFF;
            let away = match mag {
                0x7BFF => 65536.0,
                _ => F16::from_bits(mag + 1).to_f32(),
            };
            let towards = (mag > 0).then(|| F16::from_bits(mag - 1).to_f32());
            let sign = u32::from(bits & 0x8000) << 16;
            for neighbour in [Some(away), towards].into_iter().flatten() {
                let midpoint = ((x.abs() + neighbour) / 2.0).to_bits();
                for m in [midpoint - 1, midpoint, midpoint + 1] {
                    cases.push(f32::from_bits(m | sign));
                }
            }
        }
        for magnitude in [
            0x0000_0001u32, // smallest f32 subnormal
            0x007F_FFFF,    // largest f32 subnormal
            0x0080_0000,    // smallest f32 normal
            0x3300_0000,    // 2^-25: half the smallest binary16 subnormal
            0x3300_0001,
            0x32FF_FFFF,
            0x477F_EFFF, // 65519.996: last value that rounds to MAX
            0x477F_F000, // 65520: first that rounds to infinity
            0x477F_F001,
            0x4780_0000, // 65536
            0x7F7F_FFFF, // f32::MAX
            0x7F80_0000, // infinity
            0x7F80_0001, // signalling NaN, smallest payload
            0x7FC0_0000, // quiet NaN
            0x7FFF_FFFF, // NaN, every payload bit
        ] {
            cases.push(f32::from_bits(magnitude));
            cases.push(f32::from_bits(magnitude | 0x8000_0000));
        }
        cases
    }

    #[test]
    fn slab_rounding_matches_scalar_on_every_rounding_edge() {
        let cases = rounding_edge_cases();
        assert!(cases.len() > 400_000, "{} cases", cases.len());
        let want: Vec<u32> = cases
            .iter()
            .map(|&x| F16::from_f32(x).to_f32().to_bits())
            .collect();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        // One value per call: everything below the overflow threshold
        // takes the branch-free pass on its own.
        let mut one = [0.0f32];
        for (&x, &w) in cases.iter().zip(&want) {
            round_through_f16(&[x], &mut one);
            assert_eq!(one[0].to_bits(), w, "x = {x:e} ({:#010x})", x.to_bits());
        }
        // Row-sized calls: rows that hold an out-of-range value are redone
        // whole by the fallback, the rest stay on the slab pass.
        let mut got = vec![0.0f32; cases.len()];
        for (src, dst) in cases.chunks(64).zip(got.chunks_mut(64)) {
            round_through_f16(src, dst);
        }
        assert_eq!(bits(&got), want);
        // In place, on the same row-sized chunks.
        let mut in_place = cases.clone();
        for chunk in in_place.chunks_mut(64) {
            round_through_f16_in_place(chunk);
        }
        assert_eq!(bits(&in_place), want);
    }

    #[test]
    fn exhaustive_round_trip_all_finite_bit_patterns() {
        // Every finite f16 bit pattern must survive f16 -> f32 -> f16.
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }
}
