//! The `lop3`-based fast dequantization path (paper §IV-A(3)).
//!
//! A naive dequantization casts each low-bit code to FP16 with
//! `static_cast` (`cvt` instructions), which is slow [Kim et al., 2022].
//! BitDecoding instead views packed registers as INT32 and, exploiting the
//! 75316420 interleaved layout, converts **two values per `lop3`**: masking a
//! nibble into the mantissa of the FP16 bias `1024.0` (`0x6400`) makes the
//! bit pattern `0x6400 | c` equal to `1024 + c`, so one fused multiply-add
//! against a rescaled `half2` recovers `c * scale + zero`.
//!
//! This module implements the conversion bit-exactly on the software
//! [`F16`]; instruction counts are reported so the GPU cost model can charge
//! CUDA-core time.

use crate::f16::F16;
use crate::half2::Half2;
use crate::pack::codes_per_u32;
#[cfg(doc)]
use crate::pack::PackOrder;
use crate::quant::{BitWidth, QuantParams};

/// The FP16 "magic" bias: `0x6400 == 1024.0`, whose low mantissa bits are
/// free to hold a 4-bit (or 2-bit) code.
pub const MAGIC_BIAS_BITS: u16 = 0x6400;
/// `MAGIC_BIAS_BITS` as a value.
pub const MAGIC_BIAS: f32 = 1024.0;

/// Instruction counts incurred by one fast-dequant register conversion,
/// consumed by the GPU cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastDequantOps {
    /// `lop3.b32` instructions (mask + OR in a single LUT op).
    pub lop3: u32,
    /// Register shifts.
    pub shifts: u32,
    /// `HFMA2` instructions (two halves each).
    pub hfma2: u32,
}

impl FastDequantOps {
    /// Total CUDA-core instruction slots used.
    pub fn total(self) -> u32 {
        self.lop3 + self.shifts + self.hfma2
    }
}

impl std::ops::Add for FastDequantOps {
    type Output = FastDequantOps;
    fn add(self, rhs: FastDequantOps) -> FastDequantOps {
        FastDequantOps {
            lop3: self.lop3 + rhs.lop3,
            shifts: self.shifts + rhs.shifts,
            hfma2: self.hfma2 + rhs.hfma2,
        }
    }
}

impl std::ops::AddAssign for FastDequantOps {
    fn add_assign(&mut self, rhs: FastDequantOps) {
        *self = *self + rhs;
    }
}

/// Instruction counts one 32-bit register costs on the fast path — the
/// per-register model [`dequant_register`] charges, exposed so fused
/// decode kernels can account dequantization work without materializing
/// intermediate values.
pub fn register_ops(width: BitWidth) -> FastDequantOps {
    let steps = (codes_per_u32(width) / 2) as u32;
    FastDequantOps {
        lop3: steps,
        shifts: steps.saturating_sub(1),
        hfma2: steps,
    }
}

/// Precomputed `half2` multiplier/bias pair for the fused scale step.
///
/// `x = (1024 + c) * scale + (zero - 1024 * scale)`.
#[derive(Clone, Copy, Debug)]
pub struct FusedScale {
    /// `(scale, scale)` broadcast.
    pub scale2: Half2,
    /// `(zero - 1024*scale, ...)` broadcast; rounding to f16 here is the
    /// hardware-faithful behaviour (the bias lives in a half register).
    pub bias2: Half2,
}

impl FusedScale {
    /// Builds the fused constants from plain quantization parameters.
    pub(crate) fn new(params: QuantParams) -> Self {
        let s = params.scale;
        let bias = F16::from_f32(params.zero.to_f32() - MAGIC_BIAS * s.to_f32());
        FusedScale {
            scale2: Half2::new(s, s),
            bias2: Half2::new(bias, bias),
        }
    }
}

/// Dequantizes one 32-bit register packed in [`PackOrder::FastDequant`]
/// layout, returning values in logical order plus the instruction count.
///
/// Works for both widths: INT4 yields 8 halves, INT2 yields 16.
///
/// # Examples
///
/// ```
/// use bd_lowbit::{pack_u32, BitWidth, PackOrder, QuantParams, fastpath};
///
/// let params = QuantParams::from_min_max(-1.0, 2.0, BitWidth::B4);
/// let codes: Vec<u8> = (0..8).collect();
/// let reg = pack_u32(&codes, BitWidth::B4, PackOrder::FastDequant);
/// let (vals, _ops) = fastpath::dequant_register(reg, BitWidth::B4, params);
/// for (v, &c) in vals.iter().zip(&codes) {
///     let reference = params.dequantize(c).to_f32();
///     assert!((v.to_f32() - reference).abs() <= params.scale.to_f32() * 0.01 + 1e-3);
/// }
/// ```
pub fn dequant_register(
    reg: u32,
    width: BitWidth,
    params: QuantParams,
) -> (Vec<F16>, FastDequantOps) {
    let fused = FusedScale::new(params);
    let mut ops = FastDequantOps::default();
    let n = codes_per_u32(width);
    let mut out = vec![F16::ZERO; n];

    let (elem_bits, mask) = match width {
        BitWidth::B4 => (4u32, 0x000F_000Fu32),
        BitWidth::B2 => (2u32, 0x0003_0003u32),
    };
    let steps = n / 2; // one half2 per step

    for i in 0..steps {
        let shifted = reg >> (elem_bits * i as u32);
        if i > 0 {
            ops.shifts += 1;
        }
        // One lop3: (shifted & mask) | 0x6400_6400 — extracts physical
        // positions (i, i + steps) straight into two magic-biased halves.
        let extracted = (shifted & mask) | 0x6400_6400;
        ops.lop3 += 1;

        let raw = Half2::from_bits(extracted);
        let scaled = raw.hfma2(fused.scale2, fused.bias2);
        ops.hfma2 += 1;

        // Physical (i, i + steps) hold logical (2i, 2i + 1) by construction
        // of the 75316420 layout.
        out[2 * i] = scaled.lo();
        out[2 * i + 1] = scaled.hi();
    }
    (out, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_u32, PackOrder};

    fn check_matches_reference(width: BitWidth, params: QuantParams) {
        let n = codes_per_u32(width);
        let codes: Vec<u8> = (0..n)
            .map(|i| (i as u8 * 7 + 3) & width.max_code())
            .collect();
        let reg = pack_u32(&codes, width, PackOrder::FastDequant);
        let (vals, _) = dequant_register(reg, width, params);
        assert_eq!(vals.len(), n);
        // The fused bias is rounded to f16, so allow a 1-ulp-of-result slack.
        let tol = params.scale.to_f32() * 0.01 + 2e-3 * params.zero.to_f32().abs().max(1.0);
        for (v, &c) in vals.iter().zip(&codes) {
            let reference = params.dequantize(c).to_f32();
            assert!(
                (v.to_f32() - reference).abs() <= tol,
                "{width}: code {c}: fast {} vs ref {reference}",
                v.to_f32()
            );
        }
    }

    #[test]
    fn int4_matches_reference() {
        check_matches_reference(
            BitWidth::B4,
            QuantParams::from_min_max(-1.5, 2.5, BitWidth::B4),
        );
    }

    #[test]
    fn int2_matches_reference() {
        check_matches_reference(
            BitWidth::B2,
            QuantParams::from_min_max(-4.0, 4.0, BitWidth::B2),
        );
    }

    #[test]
    fn int4_with_exact_params_is_bit_exact() {
        // Power-of-two scale and zero make every step exact in f16, so fast
        // and slow paths must agree bit-for-bit.
        let params = QuantParams {
            scale: F16::from_f32(0.25),
            zero: F16::from_f32(-2.0),
        };
        let codes: Vec<u8> = (0..8).collect();
        let reg = pack_u32(&codes, BitWidth::B4, PackOrder::FastDequant);
        let (vals, _) = dequant_register(reg, BitWidth::B4, params);
        for (v, &c) in vals.iter().zip(&codes) {
            assert_eq!(v.to_bits(), params.dequantize(c).to_bits());
        }
    }

    #[test]
    fn register_ops_matches_dequant_register() {
        for width in [BitWidth::B4, BitWidth::B2] {
            let params = QuantParams::from_min_max(0.0, 1.0, width);
            let (_, ops) = dequant_register(0, width, params);
            assert_eq!(ops, register_ops(width), "{width}");
        }
    }

    #[test]
    fn op_counts_per_register() {
        let params = QuantParams::from_min_max(0.0, 1.0, BitWidth::B4);
        let (_, ops4) = dequant_register(0, BitWidth::B4, params);
        assert_eq!(
            ops4,
            FastDequantOps {
                lop3: 4,
                shifts: 3,
                hfma2: 4
            }
        );
        let (_, ops2) = dequant_register(0, BitWidth::B2, params);
        assert_eq!(
            ops2,
            FastDequantOps {
                lop3: 8,
                shifts: 7,
                hfma2: 8
            }
        );
    }
}
