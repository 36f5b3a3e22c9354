//! Block codecs: how a residual block of FP16 K/V values becomes a
//! [`PackedBlock`] and back.
//!
//! Two codecs exist in the workspace:
//!
//! * [`ReferenceCodec`] (here) — a *logical*, linear-layout codec with no
//!   fragment structure. This is what non-tensor-core systems (KIVI, Atom,
//!   QServe) effectively do, and it is the ground truth the fragment-true
//!   codec in `bd-core` is tested against.
//! * `FragmentCodec` (`bd-core`) — packs per lane in `ldmatrix` register
//!   order so the packed data is directly consumable by Tensor Core MMA.
//!
//! Both produce the same *byte counts* and the same *quantization error*;
//! they differ only in physical word order — which is precisely the paper's
//! point.
//!
//! # Flat-layout invariants
//!
//! All codec value I/O uses the flat [`TokenMatrix`] (see
//! [`crate::matrix`] for the full contract):
//!
//! * inputs to `encode` and outputs of `decode` are **token-major**
//!   (`row t = data[t*dim .. (t+1)*dim]`) with one contiguous backing
//!   buffer and no per-row allocation;
//! * `quantize_int_codes` emits codes in the same token-major order
//!   (`codes[t * dim + c]`), so the *logical* code index never depends on
//!   the physical pack layout — only the word stream does;
//! * `dequantize_int_codes` writes straight into a flat matrix, which the
//!   fused decode kernel in `bd-core` consumes without reshaping.

use crate::block::{PackedBlock, PackedPayload, PackedTensor};
use crate::scheme::{KeyGranularity, QuantScheme, SchemeKind};
use bd_lowbit::fp4::quantize_fp4_block;
use bd_lowbit::{
    pack_u16, quant::MinMax, unpack_u16, BitWidth, BlockScale, Half2, QuantParams, E2M1,
};

pub use crate::matrix::{TokenMatrix, TokenRows};

/// A codec converting between FP16 token blocks and packed payloads.
///
/// Implementations must be inverses up to quantization error and must
/// produce identical byte counts for identical configurations. A codec
/// is `Sync` because prompt admission packs one prompt on several threads
/// of a [launch](crate::launch::launch).
pub trait BlockCodec: Sync {
    /// Quantizes and packs one block (`k`/`v` are `tokens × dim`).
    fn encode(&self, k: &TokenMatrix, v: &TokenMatrix, scheme: QuantScheme) -> PackedBlock;

    /// Unpacks and dequantizes a block back to `(k, v)` values.
    fn decode(&self, block: &PackedBlock, scheme: QuantScheme) -> (TokenMatrix, TokenMatrix);
}

/// Quantizes a `tokens × dim` matrix to integer codes plus `half2` group
/// parameters, without choosing any physical layout.
///
/// Codes are written token-major (`token * dim + channel`) into `codes`,
/// a scratch buffer the caller reuses across blocks (cleared and resized
/// here); parameter order matches the paper's buffer shapes — `(tokens/G,
/// dim)` for channel-wise, `(tokens, dim/G)` for tensor-wise.
///
/// This is the *quantization* half of every codec; codecs differ only in
/// how they arrange the codes physically. Per element it computes exactly
/// what [`MinMax`] and [`QuantParams::quantize`] define, but walks rows as
/// slices: channel-wise statistics live in per-channel arrays updated row
/// by row, every group's `scale`/`zero` is widened to `f32` once, and code
/// emission is branch-free, so the compiler can vectorize both passes.
pub fn quantize_int_codes(
    values: &TokenMatrix,
    width: BitWidth,
    granularity: KeyGranularity,
    group: usize,
    codes: &mut Vec<u8>,
) -> Vec<Half2> {
    let dim = values.dim();
    codes.clear();
    codes.resize(values.tokens() * dim, 0);
    if values.is_empty() {
        return Vec::new();
    }
    let mut params = Vec::with_capacity(match granularity {
        KeyGranularity::ChannelWise => values.tokens().div_ceil(group) * dim,
        KeyGranularity::TensorWise => values.tokens() * dim.div_ceil(group),
    });
    let max_code = f32::from(width.max_code());
    match granularity {
        KeyGranularity::ChannelWise => {
            let mut lo = vec![0.0f32; dim];
            let mut hi = vec![0.0f32; dim];
            let mut divisor = vec![0.0f32; dim];
            let mut zero = vec![0.0f32; dim];
            let groups = values.as_slice().chunks(group * dim);
            for (rows, out) in groups.zip(codes.chunks_mut(group * dim)) {
                lo.fill(MinMax::EMPTY.min);
                hi.fill(MinMax::EMPTY.max);
                for row in rows.chunks_exact(dim) {
                    // `MinMax::update` per channel, as selects.
                    for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row) {
                        *l = if x < *l { x } else { *l };
                        *h = if x > *h { x } else { *h };
                    }
                }
                for c in 0..dim {
                    let p = QuantParams::from_min_max(lo[c], hi[c], width);
                    params.push(p.to_half2());
                    (divisor[c], zero[c]) = (code_divisor(p), p.zero.to_f32());
                }
                for (row, out) in rows.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
                    for (((o, &x), &s), &z) in out.iter_mut().zip(row).zip(&divisor).zip(&zero) {
                        *o = emit_code(x, s, z, max_code);
                    }
                }
            }
        }
        KeyGranularity::TensorWise => {
            for (row, out) in values.iter().zip(codes.chunks_exact_mut(dim)) {
                for (xs, out) in row.chunks(group).zip(out.chunks_mut(group)) {
                    let p = MinMax::of(xs).params(width);
                    params.push(p.to_half2());
                    let (s, z) = (code_divisor(p), p.zero.to_f32());
                    for (o, &x) in out.iter_mut().zip(xs) {
                        *o = emit_code(x, s, z, max_code);
                    }
                }
            }
        }
    }
    params
}

/// The `f32` divisor [`emit_code`] uses for a group. A scale that rounded
/// to zero in FP16 quantizes its whole group to code 0
/// ([`QuantParams::quantize`] tests for it per element); dividing by
/// infinity instead yields `±0` or NaN for every input, which
/// [`emit_code`] maps to 0 — the same answer with no branch in the loop.
fn code_divisor(p: QuantParams) -> f32 {
    let scale = p.scale.to_f32();
    if scale == 0.0 {
        f32::INFINITY
    } else {
        scale
    }
}

/// [`QuantParams::quantize`] without its branches or its float-to-int
/// cast: the same subtract and divide, then clamp-and-round instead of
/// round-and-clamp. The two orders agree because rounding is monotone and
/// fixes the integer clamp bounds; NaN fails the first comparison and
/// becomes 0, as `NaN as u8` does.
///
/// Inside `[0, max_code]`, adding and subtracting `2^23` rounds to the
/// nearest integer, ties to even; `t - even` is exact, and is `+0.5`
/// precisely for the ties that went down, which round-half-away-from-zero
/// sends up. The integer result plus `2^23` carries its value in the low
/// mantissa bits, so the code is read off the bit pattern.
#[inline(always)]
fn emit_code(x: f32, divisor: f32, zero: f32, max_code: f32) -> u8 {
    const INTEGER_ULP: f32 = 8_388_608.0;
    let t = (x - zero) / divisor;
    let t = if t > 0.0 { t } else { 0.0 };
    let t = if t < max_code { t } else { max_code };
    let even = (t + INTEGER_ULP) - INTEGER_ULP;
    let tie_went_down = if t - even == 0.5 { 1.0 } else { 0.0 };
    (even + tie_went_down + INTEGER_ULP).to_bits() as u8
}

/// Inverse of [`quantize_int_codes`]: token-major codes + group parameters
/// back to values (FP16-rounded by the dequantization FMA).
pub fn dequantize_int_codes(
    codes: &[u8],
    params: &[Half2],
    tokens: usize,
    dim: usize,
    width: BitWidth,
    granularity: KeyGranularity,
    group: usize,
) -> TokenMatrix {
    let _ = width;
    let mut out = TokenMatrix::zeros(tokens, dim);
    let param_at = |idx: usize| QuantParams::from_half2(params[idx]);
    match granularity {
        KeyGranularity::ChannelWise => {
            for t in 0..tokens {
                let tg = t / group;
                for (c, slot) in out[t].iter_mut().enumerate() {
                    let p = param_at(tg * dim + c);
                    *slot = p.dequantize(codes[t * dim + c]).to_f32();
                }
            }
        }
        KeyGranularity::TensorWise => {
            let cgroups = dim.div_ceil(group);
            for t in 0..tokens {
                for (c, slot) in out[t].iter_mut().enumerate() {
                    let p = param_at(t * cgroups + c / group);
                    *slot = p.dequantize(codes[t * dim + c]).to_f32();
                }
            }
        }
    }
    out
}

/// The logical linear-layout codec.
///
/// Codes are stored token-major (`token * dim + channel`), words filled
/// sequentially — the layout a CUDA-core kernel with scalar loads would use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReferenceCodec;

impl ReferenceCodec {
    fn encode_int(
        values: &TokenMatrix,
        width: BitWidth,
        granularity: KeyGranularity,
        group: usize,
    ) -> PackedTensor {
        let tokens = values.tokens();
        let dim = values.dim();
        let mut codes = Vec::new();
        let params = quantize_int_codes(values, width, granularity, group, &mut codes);

        // The last word of a tensor that does not fill it pads with zeros.
        let per_word = width.packing_ratio();
        codes.resize(codes.len().next_multiple_of(per_word), 0);
        let words = codes
            .chunks_exact(per_word)
            .map(|chunk| pack_u16(chunk, width))
            .collect();

        PackedTensor {
            tokens,
            dim,
            payload: PackedPayload::Int { words, params },
        }
    }

    fn decode_int(
        tensor: &PackedTensor,
        width: BitWidth,
        granularity: KeyGranularity,
        group: usize,
    ) -> TokenMatrix {
        let (tokens, dim) = (tensor.tokens, tensor.dim);
        let PackedPayload::Int { words, params } = &tensor.payload else {
            panic!("integer decode of FP4 payload");
        };
        let mut codes = Vec::with_capacity(tokens * dim);
        for w in words {
            codes.extend(unpack_u16(*w, width));
        }
        codes.truncate(tokens * dim);
        dequantize_int_codes(&codes, params, tokens, dim, width, granularity, group)
    }

    fn encode_fp4(values: &TokenMatrix, kind: bd_lowbit::Fp4Kind) -> PackedTensor {
        let tokens = values.tokens();
        let dim = values.dim();
        let block = kind.block_size();
        let mut nibbles: Vec<u8> = Vec::with_capacity(tokens * dim);
        let mut scales = Vec::new();
        for row in values {
            for c0 in (0..dim).step_by(block) {
                let c1 = (c0 + block).min(dim);
                let q = quantize_fp4_block(&row[c0..c1], kind);
                match q.scale {
                    BlockScale::Mx(s) => scales.push(s.to_bits()),
                    BlockScale::Nv(s) => scales.push(s.to_bits()),
                }
                nibbles.extend(q.codes.iter().map(|c| c.to_bits()));
            }
        }
        let codes = nibbles
            .chunks(2)
            .map(|pair| pair[0] | (pair.get(1).copied().unwrap_or(0) << 4))
            .collect();
        PackedTensor {
            tokens,
            dim,
            payload: PackedPayload::Fp4 { codes, scales },
        }
    }

    fn decode_fp4(tensor: &PackedTensor, kind: bd_lowbit::Fp4Kind) -> TokenMatrix {
        let (tokens, dim) = (tensor.tokens, tensor.dim);
        let PackedPayload::Fp4 { codes, scales } = &tensor.payload else {
            panic!("FP4 decode of integer payload");
        };
        let block = kind.block_size();
        let blocks_per_token = dim.div_ceil(block);
        let mut out = TokenMatrix::zeros(tokens, dim);
        for t in 0..tokens {
            for c in 0..dim {
                let flat = t * dim + c;
                let byte = codes[flat / 2];
                let nib = if flat % 2 == 0 { byte & 0xF } else { byte >> 4 };
                let sbyte = scales[t * blocks_per_token + c / block];
                let scale = match kind {
                    bd_lowbit::Fp4Kind::Mx => bd_lowbit::E8M0::from_bits(sbyte).to_f32(),
                    bd_lowbit::Fp4Kind::Nv => bd_lowbit::E4M3::from_bits(sbyte).to_f32(),
                };
                out[t][c] = E2M1::from_bits(nib).to_f32() * scale;
            }
        }
        out
    }
}

impl BlockCodec for ReferenceCodec {
    fn encode(&self, k: &TokenMatrix, v: &TokenMatrix, scheme: QuantScheme) -> PackedBlock {
        assert_eq!(k.tokens(), v.tokens(), "K/V token count mismatch");
        match scheme.kind() {
            SchemeKind::Int {
                width,
                key_granularity,
                group,
            } => {
                let kt = Self::encode_int(k, width, key_granularity, group);
                // V is always tensor-wise along channels.
                let vt = Self::encode_int(
                    v,
                    width,
                    KeyGranularity::TensorWise,
                    QuantScheme::DEFAULT_CHANNEL_GROUP,
                );
                PackedBlock { k: kt, v: vt }
            }
            SchemeKind::Fp4(kind) => PackedBlock {
                k: Self::encode_fp4(k, kind),
                v: Self::encode_fp4(v, kind),
            },
        }
    }

    fn decode(&self, block: &PackedBlock, scheme: QuantScheme) -> (TokenMatrix, TokenMatrix) {
        match scheme.kind() {
            SchemeKind::Int {
                width,
                key_granularity,
                group,
            } => (
                Self::decode_int(&block.k, width, key_granularity, group),
                Self::decode_int(
                    &block.v,
                    width,
                    KeyGranularity::TensorWise,
                    QuantScheme::DEFAULT_CHANNEL_GROUP,
                ),
            ),
            SchemeKind::Fp4(kind) => (
                Self::decode_fp4(&block.k, kind),
                Self::decode_fp4(&block.v, kind),
            ),
        }
    }
}

/// Worst-case absolute reconstruction error of a scheme over given data,
/// used by tests and the accuracy harness.
pub fn reconstruction_error(
    codec: &impl BlockCodec,
    k: &TokenMatrix,
    v: &TokenMatrix,
    scheme: QuantScheme,
) -> f32 {
    let block = codec.encode(k, v, scheme);
    let (dk, dv) = codec.decode(&block, scheme);
    let mut err = 0.0f32;
    for (orig, dec) in [(k, &dk), (v, &dv)] {
        for (o_row, d_row) in orig.iter().zip(dec) {
            for (o, d) in o_row.iter().zip(d_row) {
                err = err.max((o - d).abs());
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(tokens: usize, dim: usize, seed: f32) -> TokenMatrix {
        (0..tokens)
            .map(|t| {
                (0..dim)
                    .map(|c| ((t * dim + c) as f32 * 0.619 + seed).sin() * 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn int_round_trip_error_bounded() {
        let k = test_matrix(64, 32, 0.0);
        let v = test_matrix(64, 32, 1.0);
        for scheme in [
            QuantScheme::kt4(),
            QuantScheme::kc4(),
            QuantScheme::kc2(),
            QuantScheme::kt2(),
        ] {
            let err = reconstruction_error(&ReferenceCodec, &k, &v, scheme);
            let max_step = 4.0 / (scheme.int_width().unwrap().levels() - 1) as f32;
            assert!(err <= max_step * 0.6 + 0.02, "{scheme}: err {err}");
        }
    }

    #[test]
    fn fp4_round_trip_error_bounded() {
        let k = test_matrix(16, 64, 0.3);
        let v = test_matrix(16, 64, 0.7);
        for scheme in [QuantScheme::mxfp4(), QuantScheme::nvfp4()] {
            let err = reconstruction_error(&ReferenceCodec, &k, &v, scheme);
            assert!(err < 0.8, "{scheme}: err {err}");
        }
    }

    #[test]
    fn channel_wise_beats_tensor_wise_on_channel_outliers() {
        // Keys with a hot channel: channel-wise grouping isolates the
        // outlier so the *other* channels keep fine-grained scales, which
        // is why KIVI-style KC quantization preserves accuracy (paper §II).
        let tokens = 64;
        let dim = 32;
        let outlier = 7usize;
        let mut k = test_matrix(tokens, dim, 0.0);
        for row in &mut k {
            row[outlier] *= 50.0; // channel outlier, as observed in real LLM keys
        }
        let v = test_matrix(tokens, dim, 1.0);
        let err_excluding_outlier = |scheme: QuantScheme| -> f32 {
            let block = ReferenceCodec.encode(&k, &v, scheme);
            let (dk, _) = ReferenceCodec.decode(&block, scheme);
            let mut err = 0.0f32;
            for (orig, dec) in k.iter().zip(&dk) {
                for c in (0..dim).filter(|&c| c != outlier) {
                    err = err.max((orig[c] - dec[c]).abs());
                }
            }
            err
        };
        let err_kc = err_excluding_outlier(QuantScheme::kc4());
        let err_kt = err_excluding_outlier(QuantScheme::kt4());
        assert!(
            err_kc < err_kt * 0.5,
            "channel-wise {err_kc} should beat tensor-wise {err_kt}"
        );
    }

    #[test]
    fn payload_bytes_match_scheme_accounting() {
        let tokens = 128;
        let dim = 128;
        let k = test_matrix(tokens, dim, 0.0);
        let v = test_matrix(tokens, dim, 1.0);
        for scheme in [QuantScheme::kc4(), QuantScheme::kt4(), QuantScheme::kc2()] {
            let block = ReferenceCodec.encode(&k, &v, scheme);
            let expect = scheme.bytes_per_token(dim) * tokens as f64;
            let actual = block.byte_size() as f64;
            assert!(
                (actual - expect).abs() / expect < 0.02,
                "{scheme}: {actual} vs {expect}"
            );
        }
    }

    #[test]
    fn decode_shapes_match() {
        let k = test_matrix(32, 16, 0.0);
        let v = test_matrix(32, 16, 1.0);
        let block = ReferenceCodec.encode(&k, &v, QuantScheme::kc4());
        let (dk, dv) = ReferenceCodec.decode(&block, QuantScheme::kc4());
        assert_eq!(dk.len(), 32);
        assert_eq!(dv.len(), 32);
        assert_eq!(dk[0].len(), 16);
        assert_eq!(dv[31].len(), 16);
    }

    #[test]
    fn partial_group_tail_is_handled() {
        // 40 tokens with a 64-token group: one ragged group.
        let k = test_matrix(40, 16, 0.0);
        let v = test_matrix(40, 16, 1.0);
        let err = reconstruction_error(&ReferenceCodec, &k, &v, QuantScheme::kc4());
        assert!(err < 0.2);
    }
}
