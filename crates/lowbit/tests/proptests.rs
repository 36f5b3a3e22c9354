//! Property-based tests for the numeric substrate.

use bd_lowbit::*;
use proptest::prelude::*;

proptest! {
    /// f32 -> f16 -> f32 is exact for values already representable in f16.
    #[test]
    fn f16_round_trip_representable(bits in 0u16..0x7C00u16, neg: bool) {
        let bits = if neg { bits | 0x8000 } else { bits };
        let h = F16::from_bits(bits);
        prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// f32 -> f16 conversion error is bounded by half an ulp of the result.
    #[test]
    fn f16_conversion_error_bounded(x in -60000.0f32..60000.0) {
        let h = F16::from_f32(x);
        let back = h.to_f32();
        let ulp = (back.abs() * 2.0f32.powi(-10)).max(2.0f32.powi(-24));
        prop_assert!((back - x).abs() <= ulp * 0.5 + f32::EPSILON);
    }

    /// Quantize -> dequantize error is bounded by half the scale step
    /// (plus f16 rounding slack), for both widths.
    #[test]
    fn quant_error_bounded(
        values in prop::collection::vec(-8.0f32..8.0, 2..64),
        four_bit: bool,
    ) {
        let width = if four_bit { BitWidth::B4 } else { BitWidth::B2 };
        let (codes, params) = quantize_group(&values, width);
        let s = params.scale.to_f32();
        let slack = 0.01 * s.max(1e-3) + 0.01;
        for (&c, &x) in codes.iter().zip(&values) {
            let d = params.dequantize(c).to_f32();
            prop_assert!((d - x).abs() <= s * 0.5 + s * 0.01 + slack,
                "x={x} d={d} s={s}");
        }
    }

    /// pack/unpack round-trips for every order and width at u32 granularity.
    #[test]
    fn pack_u32_round_trip(seed in any::<u64>(), four_bit: bool, fast: bool) {
        let width = if four_bit { BitWidth::B4 } else { BitWidth::B2 };
        let order = if fast { PackOrder::FastDequant } else { PackOrder::Linear };
        let n = codes_per_u32(width);
        let mut rng = seed;
        let codes: Vec<u8> = (0..n).map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as u8) & width.max_code()
        }).collect();
        let w = pack_u32(&codes, width, order);
        prop_assert_eq!(unpack_u32(w, width, order), codes);
    }

    /// Fast dequant equals the reference dequantizer within fused-bias
    /// rounding slack for arbitrary parameters.
    #[test]
    fn fast_dequant_matches_reference(
        min in -16.0f32..0.0,
        span in 0.01f32..32.0,
        four_bit: bool,
        seed in any::<u64>(),
    ) {
        let width = if four_bit { BitWidth::B4 } else { BitWidth::B2 };
        let params = QuantParams::from_min_max(min, min + span, width);
        let n = codes_per_u32(width);
        let mut rng = seed;
        let codes: Vec<u8> = (0..n).map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as u8) & width.max_code()
        }).collect();
        let reg = pack_u32(&codes, width, PackOrder::FastDequant);
        let (vals, _) = fastpath::dequant_register(reg, width, params);
        // Fused bias (zero - 1024*scale) is rounded once to f16: the extra
        // error is up to one ulp at the bias magnitude, plus one ulp of the
        // final rounded result. This is a real precision cost of folding the
        // magic-bias subtraction into the FMA, present on hardware too.
        let bias_mag = (params.zero.to_f32() - 1024.0 * params.scale.to_f32()).abs();
        let result_mag = params.zero.to_f32().abs() + span;
        let tol = (bias_mag + result_mag) * 2.0f32.powi(-10) + 1e-3;
        for (v, &c) in vals.iter().zip(&codes) {
            let reference = params.dequantize(c).to_f32();
            prop_assert!((v.to_f32() - reference).abs() <= tol,
                "code {c}: {} vs {reference} (tol {tol})", v.to_f32());
        }
    }

    /// E2M1 encoding picks the nearest representable magnitude.
    #[test]
    fn e2m1_nearest(x in -8.0f32..8.0) {
        let enc = E2M1::from_f32(x).to_f32();
        let clamped = x.clamp(-6.0, 6.0);
        for code in 0u8..16 {
            let v = E2M1::from_bits(code).to_f32();
            prop_assert!((enc - clamped).abs() <= (v - clamped).abs() + 1e-6,
                "x={x} enc={enc} better={v}");
        }
    }

    /// MX and NV block quantization error is bounded by one scale step.
    #[test]
    fn fp4_block_error_bounded(
        values in prop::collection::vec(-100.0f32..100.0, 1..32),
        mx: bool,
    ) {
        let kind = if mx { Fp4Kind::Mx } else { Fp4Kind::Nv };
        let vals = &values[..values.len().min(kind.block_size())];
        let block = fp4::quantize_fp4_block(vals, kind);
        let s = block.scale.to_f32();
        let deq = block.dequantize();
        for (d, &v) in deq.iter().zip(vals) {
            // Worst-case error: the MX power-of-two scale leaves amax/scale
            // in [4, 8) while E2M1 tops out at 6, so saturation can cost up
            // to 2*scale; the grid half-step in the top binade is 1*scale.
            prop_assert!((d.to_f32() - v).abs() <= s * 2.01 + 1e-4,
                "{} vs {v}, scale {s}", d.to_f32());
        }
    }

    /// FP4 block quantization is total over raw `f32` bits: NaN, ±Inf,
    /// subnormals and ±0 included, for both kinds and every block length,
    /// it returns one code per input and the block dequantizes.
    #[test]
    fn fp4_block_is_total_on_raw_bits(
        words in prop::collection::vec((any::<u32>(), any::<u8>()), 32),
    ) {
        // A quarter of the elements come from the awkward classes, which
        // uniform bits would almost never produce.
        const AWKWARD: [f32; 8] = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -1.0e-45,
            -0.0,
            f32::MAX,
            f32::MIN,
        ];
        let values: Vec<f32> = words
            .iter()
            .map(|&(bits, pick)| match pick {
                0..=63 => AWKWARD[usize::from(pick) % AWKWARD.len()],
                _ => f32::from_bits(bits),
            })
            .collect();
        for kind in [Fp4Kind::Mx, Fp4Kind::Nv] {
            for len in 1..=kind.block_size() {
                let block = fp4::quantize_fp4_block(&values[..len], kind);
                prop_assert_eq!(block.codes.len(), len);
                prop_assert_eq!(block.dequantize().len(), len);
            }
        }
    }

    /// Half2 bit packing is lossless.
    #[test]
    fn half2_round_trip(lo_bits: u16, hi_bits: u16) {
        let h = Half2::new(F16::from_bits(lo_bits), F16::from_bits(hi_bits));
        prop_assert_eq!(Half2::from_bits(h.to_bits()).to_bits(), h.to_bits());
    }
}
