//! Micro-scaling 4-bit floating-point formats (Blackwell MXFP4 / NVFP4).
//!
//! Blackwell Tensor Cores natively multiply block-scaled FP4 operands
//! (paper §V-D(2)), eliminating explicit dequantization. Both formats share
//! the **E2M1** element (1 sign, 2 exponent, 1 mantissa bit — magnitudes
//! {0, 0.5, 1, 1.5, 2, 3, 4, 6}) and differ in the block scale:
//!
//! * **MXFP4** (OCP): blocks of 32 elements, power-of-two **E8M0** scale.
//! * **NVFP4**: blocks of 16 elements, **E4M3** (FP8) scale.

use crate::f16::F16;
use std::fmt;

/// Representable E2M1 magnitudes indexed by the low three code bits.
pub const E2M1_MAGNITUDES: [f32; 8] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];

/// Largest representable E2M1 magnitude.
pub const E2M1_MAX: f32 = 6.0;

/// A 4-bit E2M1 floating point value (FP4 element).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct E2M1(u8);

impl E2M1 {
    /// Constructs from the low 4 bits of `code`.
    pub const fn from_bits(code: u8) -> Self {
        E2M1(code & 0xF)
    }

    /// The 4-bit code.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Decodes to `f32`.
    pub fn to_f32(self) -> f32 {
        let mag = E2M1_MAGNITUDES[(self.0 & 0x7) as usize];
        if self.0 & 0x8 != 0 {
            -mag
        } else {
            mag
        }
    }

    /// Encodes the nearest representable value (round-to-nearest, ties to
    /// the even code, saturating at ±6).
    pub fn from_f32(x: f32) -> Self {
        if x.is_nan() {
            // E2M1 has no NaN; hardware saturates.
            return E2M1(0x7);
        }
        let sign = if x.is_sign_negative() { 0x8u8 } else { 0 };
        let a = x.abs().min(E2M1_MAX);
        let mut best = 0usize;
        let mut best_err = f32::INFINITY;
        for (i, &m) in E2M1_MAGNITUDES.iter().enumerate() {
            let err = (a - m).abs();
            // Ties resolve toward the even code (RNE on the FP4 grid).
            if err < best_err - 1e-12 || ((err - best_err).abs() <= 1e-12 && i % 2 == 0) {
                best_err = err;
                best = i;
            }
        }
        E2M1(sign | best as u8)
    }
}

impl fmt::Display for E2M1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// An 8-bit power-of-two block scale (OCP E8M0): `2^(e - 127)`, `e = 255`
/// is NaN.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct E8M0(u8);

impl E8M0 {
    /// NaN encoding.
    pub const NAN: E8M0 = E8M0(255);

    /// Constructs from the raw byte.
    pub const fn from_bits(bits: u8) -> Self {
        E8M0(bits)
    }

    /// The raw byte.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Builds the scale `2^exp`, clamping `exp` to the representable range.
    pub fn from_exponent(exp: i32) -> Self {
        E8M0(exp.saturating_add(127).clamp(0, 254) as u8)
    }

    /// Decodes to `f32` (NaN for code 255).
    pub fn to_f32(self) -> f32 {
        if self.0 == 255 {
            f32::NAN
        } else {
            (2.0f32).powi(self.0 as i32 - 127)
        }
    }
}

/// An 8-bit E4M3 float (FP8, bias 7, max 448, no infinities; `S.1111.111`
/// is NaN) used as the NVFP4 block scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct E4M3(u8);

impl E4M3 {
    /// Largest finite magnitude (448).
    pub const MAX: f32 = 448.0;

    /// Constructs from the raw byte.
    pub const fn from_bits(bits: u8) -> Self {
        E4M3(bits)
    }

    /// The raw byte.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Decodes to `f32`.
    pub fn to_f32(self) -> f32 {
        let sign = if self.0 & 0x80 != 0 { -1.0f32 } else { 1.0 };
        let exp = ((self.0 >> 3) & 0xF) as i32;
        let man = (self.0 & 0x7) as i32;
        if exp == 0xF && man == 0x7 {
            return f32::NAN;
        }
        if exp == 0 {
            sign * (man as f32 / 8.0) * (2.0f32).powi(-6)
        } else {
            sign * (1.0 + man as f32 / 8.0) * (2.0f32).powi(exp - 7)
        }
    }

    /// Encodes with round-to-nearest-even, saturating at ±448.
    pub fn from_f32(x: f32) -> Self {
        if x.is_nan() {
            return E4M3(0x7F);
        }
        let sign = if x.is_sign_negative() { 0x80u8 } else { 0 };
        let a = x.abs();
        if a >= Self::MAX {
            return E4M3(sign | 0x7E); // saturate to 448
        }
        if a < (2.0f32).powi(-6) / 16.0 {
            return E4M3(sign); // flush to zero below half the min subnormal
        }
        // Search the code space: only 127 finite magnitudes, exactness wins
        // over cleverness for a reference implementation.
        let mut best = 0u8;
        let mut best_err = f32::INFINITY;
        for code in 0u8..0x7F {
            let v = E4M3(code).to_f32();
            let err = (a - v).abs();
            if err < best_err - 1e-12
                || ((err - best_err).abs() <= 1e-12 && code.trailing_zeros() >= 1)
            {
                best_err = err;
                best = code;
            }
        }
        E4M3(sign | best)
    }
}

/// Which micro-scaling FP4 flavour a block uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fp4Kind {
    /// OCP MXFP4: block 32, E8M0 scale.
    Mx,
    /// NVIDIA NVFP4: block 16, E4M3 scale.
    Nv,
}

impl Fp4Kind {
    /// Elements sharing one block scale.
    pub const fn block_size(self) -> usize {
        match self {
            Fp4Kind::Mx => 32,
            Fp4Kind::Nv => 16,
        }
    }

    /// Bytes of scale metadata per block.
    pub const fn scale_bytes(self) -> usize {
        1
    }
}

impl fmt::Display for Fp4Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fp4Kind::Mx => write!(f, "mxfp4"),
            Fp4Kind::Nv => write!(f, "nvfp4"),
        }
    }
}

/// The block scale accompanying a quantized FP4 block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockScale {
    /// Power-of-two E8M0 scale (MXFP4).
    Mx(E8M0),
    /// FP8 E4M3 scale (NVFP4).
    Nv(E4M3),
}

impl BlockScale {
    /// The scale value.
    pub fn to_f32(self) -> f32 {
        match self {
            BlockScale::Mx(s) => s.to_f32(),
            BlockScale::Nv(s) => s.to_f32(),
        }
    }
}

/// One quantized micro-scaling block: codes plus the shared scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Fp4Block {
    /// Quantized elements (length = `kind.block_size()` or shorter for a
    /// tail block).
    pub codes: Vec<E2M1>,
    /// The shared block scale.
    pub scale: BlockScale,
}

impl Fp4Block {
    /// Dequantizes the block.
    pub fn dequantize(&self) -> Vec<F16> {
        let s = self.scale.to_f32();
        self.codes
            .iter()
            .map(|c| F16::from_f32(c.to_f32() * s))
            .collect()
    }
}

/// Quantizes one block of values.
///
/// * MXFP4 picks `scale = 2^(floor(log2(amax)) - 2)` per the OCP spec (the
///   element `emax` of E2M1 is 2).
/// * NVFP4 picks `scale = amax / 6` rounded to E4M3.
///
/// # Panics
///
/// Panics if `values` is empty or longer than the block size.
pub fn quantize_fp4_block(values: &[f32], kind: Fp4Kind) -> Fp4Block {
    assert!(!values.is_empty(), "empty FP4 block");
    assert!(
        values.len() <= kind.block_size(),
        "block of {} exceeds {kind} block size {}",
        values.len(),
        kind.block_size()
    );
    let amax = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let (scale, s) = match kind {
        Fp4Kind::Mx => {
            let exp = if amax > 0.0 {
                amax.log2().floor() as i32 - 2
            } else {
                -127
            };
            let e = E8M0::from_exponent(exp);
            (BlockScale::Mx(e), e.to_f32())
        }
        Fp4Kind::Nv => {
            let raw = if amax > 0.0 { amax / E2M1_MAX } else { 0.0 };
            let e = E4M3::from_f32(raw.max(1.0 / 448.0));
            (BlockScale::Nv(e), e.to_f32())
        }
    };
    let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
    let codes = values.iter().map(|&v| E2M1::from_f32(v * inv)).collect();
    Fp4Block { codes, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2m1_decode_table() {
        assert_eq!(E2M1::from_bits(0).to_f32(), 0.0);
        assert_eq!(E2M1::from_bits(1).to_f32(), 0.5);
        assert_eq!(E2M1::from_bits(7).to_f32(), 6.0);
        assert_eq!(E2M1::from_bits(0xF).to_f32(), -6.0);
        assert_eq!(E2M1::from_bits(0x9).to_f32(), -0.5);
    }

    #[test]
    fn e2m1_encode_round_trips_representables() {
        for code in 0u8..16 {
            let v = E2M1::from_bits(code).to_f32();
            if v == 0.0 {
                continue; // -0 folds onto +0
            }
            assert_eq!(E2M1::from_f32(v).to_f32(), v);
        }
    }

    #[test]
    fn e2m1_saturates() {
        assert_eq!(E2M1::from_f32(100.0).to_f32(), 6.0);
        assert_eq!(E2M1::from_f32(-100.0).to_f32(), -6.0);
    }

    #[test]
    fn e2m1_rounds_to_nearest() {
        assert_eq!(E2M1::from_f32(0.2).to_f32(), 0.0);
        assert_eq!(E2M1::from_f32(0.3).to_f32(), 0.5);
        assert_eq!(E2M1::from_f32(2.4), E2M1::from_f32(2.0));
        assert_eq!(E2M1::from_f32(2.6), E2M1::from_f32(3.0));
        // Tie at 2.5 resolves to the even code (2.0 has code 4).
        assert_eq!(E2M1::from_f32(2.5).to_f32(), 2.0);
    }

    #[test]
    fn e8m0_powers_of_two() {
        assert_eq!(E8M0::from_exponent(0).to_f32(), 1.0);
        assert_eq!(E8M0::from_exponent(3).to_f32(), 8.0);
        assert_eq!(E8M0::from_exponent(-2).to_f32(), 0.25);
        assert!(E8M0::NAN.to_f32().is_nan());
    }

    #[test]
    fn e8m0_clamps_extreme_exponents() {
        assert_eq!(E8M0::from_exponent(i32::MAX).to_bits(), 254);
        assert_eq!(E8M0::from_exponent(i32::MIN).to_bits(), 0);
        assert_eq!(E8M0::from_exponent(128).to_bits(), 254);
        assert_eq!(E8M0::from_exponent(-128).to_bits(), 0);
    }

    #[test]
    fn infinite_mx_blocks_saturate() {
        // `amax = ±Inf` reaches `from_exponent` as `i32::MAX - 2`: the
        // scale clamps to the largest finite power of two and every
        // element saturates to ±6 on the E2M1 grid.
        for (x, code) in [(f32::INFINITY, 0x7u8), (f32::NEG_INFINITY, 0xF)] {
            let block = quantize_fp4_block(&[x; 32], Fp4Kind::Mx);
            assert_eq!(block.scale, BlockScale::Mx(E8M0::from_bits(254)));
            assert!(block.codes.iter().all(|c| c.to_bits() == code));
            assert_eq!(block.dequantize().len(), 32);
        }
    }

    #[test]
    fn e4m3_known_values() {
        assert_eq!(E4M3::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(E4M3::from_f32(448.0).to_f32(), 448.0);
        assert_eq!(E4M3::from_f32(1000.0).to_f32(), 448.0);
        assert_eq!(E4M3::from_f32(-0.5).to_f32(), -0.5);
        assert!(E4M3::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn e4m3_round_trips_all_finite_codes() {
        for code in 0u8..=0xFF {
            let v = E4M3::from_bits(code).to_f32();
            if v.is_nan() || v == 0.0 {
                continue;
            }
            assert_eq!(E4M3::from_f32(v).to_f32(), v, "code {code:#x}");
        }
    }

    #[test]
    fn mx_block_error_bounded() {
        let values: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.7).sin() * 3.0).collect();
        let block = quantize_fp4_block(&values, Fp4Kind::Mx);
        let deq = block.dequantize();
        let s = block.scale.to_f32();
        // E2M1 relative step near the top of a binade is 2/6; absolute error
        // within a block is at most half the largest step = s * 1.0.
        for (d, &v) in deq.iter().zip(&values) {
            assert!((d.to_f32() - v).abs() <= s * 1.01, "{} vs {v}", d.to_f32());
        }
    }

    #[test]
    fn nv_block_uses_finer_scale() {
        // NVFP4's E4M3 scale tracks amax more tightly than E8M0's
        // power-of-two, so for most blocks its error is no worse.
        let values: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.33).collect();
        let mx = quantize_fp4_block(&values, Fp4Kind::Mx);
        let nv = quantize_fp4_block(&values, Fp4Kind::Nv);
        let err = |b: &Fp4Block| -> f32 {
            b.dequantize()
                .iter()
                .zip(&values)
                .map(|(d, &v)| (d.to_f32() - v).powi(2))
                .sum()
        };
        assert!(err(&nv) <= err(&mx) * 1.05);
    }

    #[test]
    fn zero_block_is_exact() {
        let block = quantize_fp4_block(&[0.0; 32], Fp4Kind::Mx);
        assert!(block.dequantize().iter().all(|v| v.to_f32() == 0.0));
    }
}
