//! The three instances of the fused kernels, the FP16 round and the
//! softmax exp, and the only `unsafe` in the crates' library code: the
//! baseline build; AVX2 with F16C and FMA; and AVX-512 F/BW/VL/DQ on top
//! of those, picked at run time ([`Isa::host`]). The bits agree: Rust
//! never contracts `a * b + c` into an FMA nor reassociates a float sum on
//! any target, `vpermps` / `vpermt2ps` / `vblendvps` only move bits,
//! F16C's and AVX-512F's `vcvtps2ph` round like [`crate::F16`] below 65520
//! in magnitude (a slab or line holding anything else, NaN among it, takes
//! the software round), and the 8-wide exps are glibc's `__expf_fma`
//! algorithm, whose FMAs are the only ones here: equal to `f32::exp` on a
//! host whose libm runs that variant, with the lanes it sends to its
//! special case (`|x| ≥ 88`, Inf, NaN) given to `f32::exp` itself.
//!
//! The AVX-512 instance widens three kernels of the packed walk and the
//! exp, and keeps the rest as the AVX2 instance has them (its proof hands
//! out the AVX2 one): a tile's segments are permuted two at a time
//! ([`Avx512::permute2`]), a 16-entry LUT line is built in one register
//! ([`Avx512::dequant_lines`]), `row_times_matrix` runs 128-lane tiles
//! first, and the exp takes 8 doubles per register (`Avx512::exp`). The residual kernel runs in the AVX2 instance on such a
//! host too ([`Isa::without_avx512`]): wider, it timed slower.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use crate::f16::F16;
use crate::half2::Half2;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Which instance of the vector code runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Baseline,
    Avx2(Avx2),
    Avx512(Avx512),
}

/// Proof that the host runs AVX2, F16C and FMA: only [`Isa::host`] makes
/// one, and only on `x86_64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub struct Avx2(());

/// Proof that the host runs AVX-512 F, BW, VL and DQ besides what
/// [`Avx2`] proves: only [`Isa::host`] makes one, and only on `x86_64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub struct Avx512(());

impl Isa {
    /// The build target's instance.
    pub const BASELINE: Isa = Isa(Level::Baseline);

    /// The widest instance an `x86_64` CPU reports every feature of (the
    /// standard library probes once and caches the answer): AVX-512
    /// F/BW/VL/DQ with AVX2, F16C and FMA, else AVX2, F16C and FMA; the
    /// baseline everywhere else.
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("f16c")
            && std::is_x86_feature_detected!("fma")
        {
            if std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("avx512bw")
                && std::is_x86_feature_detected!("avx512vl")
                && std::is_x86_feature_detected!("avx512dq")
            {
                return Isa(Level::Avx512(Avx512(())));
            }
            return Isa(Level::Avx2(Avx2(())));
        }
        Isa::BASELINE
    }

    /// Every instance this host runs, the baseline first: what bit tests
    /// compare. An instance the host lacks is skipped, with a printed
    /// line.
    pub fn each() -> Vec<Isa> {
        let host = Isa::host();
        if host == Isa::BASELINE {
            println!(
                "this host lacks AVX2, F16C or FMA: the AVX2 and AVX-512 instances are skipped"
            );
            return vec![host];
        }
        if host.avx512().is_none() {
            println!("this host lacks AVX-512 F, BW, VL or DQ: the AVX-512 instance is skipped");
            return vec![Isa::BASELINE, host];
        }
        vec![Isa::BASELINE, host.without_avx512(), host]
    }

    /// The AVX2 proof, in the AVX2 and the AVX-512 instance.
    pub fn avx2(self) -> Option<Avx2> {
        match self.0 {
            Level::Baseline => None,
            Level::Avx2(avx2) => Some(avx2),
            Level::Avx512(avx512) => Some(avx512.avx2()),
        }
    }

    /// The AVX-512 proof, in the AVX-512 instance.
    pub fn avx512(self) -> Option<Avx512> {
        match self.0 {
            Level::Avx512(avx512) => Some(avx512),
            _ => None,
        }
    }

    /// This instance, or the AVX2 one in its place: for a kernel that
    /// runs no faster 16 lanes wide.
    pub fn without_avx512(self) -> Isa {
        match self.avx2() {
            Some(avx2) => Isa(Level::Avx2(avx2)),
            None => self,
        }
    }

    /// Runs `body` as this instance: inside its target-feature entry,
    /// where all that `body` inlines compiles for the instance's features,
    /// or as it is. `body` receives the instance as a constant, so each
    /// entry keeps only its own paths of what `body` inlines.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce(Isa) -> R) -> R {
        match self.0 {
            // SAFETY: an `Avx2` exists only where the host reported AVX2,
            // F16C and FMA.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2(_) => unsafe { with_avx2(body) },
            // SAFETY: an `Avx512` exists only where the host reported
            // those and AVX-512 F, BW, VL and DQ.
            #[cfg(target_arch = "x86_64")]
            Level::Avx512(_) => unsafe { with_avx512(body) },
            _ => body(Isa::BASELINE),
        }
    }

    /// `*x = x.exp()` for every `x` in `xs`, bit for bit `f32::exp` on a
    /// host whose libm runs `__expf_fma` (see `Avx2::exp` and
    /// `Avx512::exp`).
    #[inline(always)]
    pub fn exp_in_place(self, xs: &mut [f32]) {
        match (self.avx512(), self.avx2()) {
            (Some(avx512), _) => avx512.exp(xs),
            (None, Some(avx2)) => avx2.exp(xs),
            (None, None) => xs.iter_mut().for_each(|x| *x = x.exp()),
        }
    }
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Avx2 {
    /// `out[lane] = line[(tile[lane] >> shift) % L]` for a line of 16 or 4
    /// entries: the shifted tile indexes a `vpermps` per 8 entries, bit 3
    /// of the code picks a 16-entry line's half (`vblendvps`), and one
    /// 8-wide store lands the lanes.
    #[inline(always)]
    pub fn permute<const L: usize>(
        self,
        tile: &[u32; 8],
        shift: u32,
        line: &[f32; L],
        out: &mut [f32; 8],
    ) {
        // SAFETY: an `Avx2` exists only where the host reported AVX2.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            permute(tile, shift, line, out);
        }
    }

    /// Line `g` of `lut` (`L` = 16 or 4 entries): `F16::from_f32(code as
    /// f32 * scale + zero).to_f32()` per code, `params[g]` widened by
    /// `vcvtph2ps`, 8 codes per register.
    #[inline(always)]
    pub fn dequant_lines<const L: usize>(self, params: &[Half2], lut: &mut [f32]) {
        // SAFETY: an `Avx2` exists only where the host reported AVX2 and
        // F16C.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            dequant_lines::<L>(params, lut);
        }
    }

    /// `*x = x.exp()` for every `x` in `xs`, 8 lanes at a time: glibc
    /// 2.36's `__expf_fma` on 2 × 4 doubles, its special-case lanes
    /// (`|x| ≥ 88`, Inf, NaN) by `f32::exp`.
    #[inline(always)]
    pub(crate) fn exp(self, xs: &mut [f32]) {
        exp_by_8(
            xs,
            #[inline(always)]
            |chunk| {
                // SAFETY: an `Avx2` exists only where the host reported
                // AVX2 and FMA.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    exp8(chunk);
                }
            },
        );
    }

    /// `dst[i] = F16::from_f32(src[i]).to_f32()` wherever `|src[i]| <
    /// 65520`; `true` if some value is not.
    pub(crate) fn round(self, src: &[f32], dst: &mut [f32]) -> bool {
        // SAFETY: an `Avx2` exists only where the host reported AVX2 and
        // F16C.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            round_slab(src, dst)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!()
    }
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Avx512 {
    /// The AVX2 proof: AVX-512 F, BW, VL and DQ come on top of it.
    pub(crate) fn avx2(self) -> Avx2 {
        Avx2(())
    }

    /// [`Avx2::permute`] for two segments of one tile: `chunks[at[i]]
    /// [lane] = lines[i][(tile[lane] >> shifts[i]) % L]`. The tile fills
    /// both halves of one register, each half shifts by its segment's
    /// shift (`vpsrlvd`), and one `vpermt2ps` indexes the two lines as one
    /// 32-entry table (lanes 8–15 offset by 16); two 8-wide stores land
    /// the halves.
    #[inline(always)]
    pub fn permute2<const L: usize>(
        self,
        tile: &[u32; 8],
        shifts: [u32; 2],
        lines: [&[f32; L]; 2],
        chunks: &mut [[f32; 8]],
        at: [usize; 2],
    ) {
        // SAFETY: an `Avx512` exists only where the host reported AVX2
        // and AVX-512 F, BW, VL and DQ.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            permute2(tile, shifts, lines, chunks, at);
        }
    }

    /// [`Avx2::exp`] with each 8 lanes' doubles in one register: the same
    /// steps, and a table read by two `vpermt2q` and a blend, not a gather.
    #[inline(always)]
    pub(crate) fn exp(self, xs: &mut [f32]) {
        exp_by_8(
            xs,
            #[inline(always)]
            |chunk| {
                // SAFETY: an `Avx512` exists only where the host reported
                // AVX2, FMA and AVX-512 F and DQ.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    exp8_wide(chunk);
                }
            },
        );
    }

    /// [`Avx2::dequant_lines`] for 16-entry lines, a line in one register:
    /// the multiply, the add, `vcvtps2ph` / `vcvtph2ps` and one mask
    /// compare for the lanes that round otherwise.
    #[inline(always)]
    pub fn dequant_lines(self, params: &[Half2], lut: &mut [f32]) {
        // SAFETY: an `Avx512` exists only where the host reported AVX2,
        // F16C and AVX-512 F, BW, VL and DQ.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            dequant_lines16(params, lut);
        }
    }
}

/// `exp8` over `xs` 8 lanes at a time, the tail zero-padded.
#[inline(always)]
fn exp_by_8(xs: &mut [f32], mut exp8: impl FnMut(&mut [f32; 8])) {
    let (chunks, tail) = xs.as_chunks_mut::<8>();
    let mut padded = [0.0; 8];
    padded[..tail.len()].copy_from_slice(tail);
    let padded_tail = (!tail.is_empty()).then_some(&mut padded);
    for chunk in chunks.iter_mut().chain(padded_tail) {
        exp8(chunk);
    }
    tail.copy_from_slice(&padded[..tail.len()]);
}

/// The AVX2 instance's entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c,fma")]
fn with_avx2<R>(body: impl FnOnce(Isa) -> R) -> R {
    body(Isa(Level::Avx2(Avx2(()))))
}

/// The AVX-512 instance's entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c,fma,avx512f,avx512bw,avx512vl,avx512dq")]
fn with_avx512<R>(body: impl FnOnce(Isa) -> R) -> R {
    body(Isa(Level::Avx512(Avx512(()))))
}

/// [`Avx2::permute`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn permute<const L: usize>(tile: &[u32; 8], shift: u32, line: &[f32; L], out: &mut [f32; 8]) {
    const { assert!(L == 16 || L == 4) };
    let [a, b, c, d, e, f, g, h] = *tile;
    let tile = _mm256_setr_epi32(
        a as i32, b as i32, c as i32, d as i32, e as i32, f as i32, g as i32, h as i32,
    );
    let codes = _mm256_srl_epi32(tile, _mm_cvtsi32_si128(shift as i32));
    let values = match (line.first_chunk(), line.last_chunk()) {
        (Some(low), Some(high)) if L == 16 => {
            let low = _mm256_permutevar8x32_ps(load(low), codes);
            let high = _mm256_permutevar8x32_ps(load(high), codes);
            // `vblendvps` reads each lane's sign bit: bit 3, shifted there.
            let bit3 = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(codes));
            _mm256_blendv_ps(low, high, bit3)
        }
        _ => {
            let [w, x, y, z] = [line[0], line[1], line[2], line[3]];
            let quad = _mm256_setr_ps(w, x, y, z, w, x, y, z);
            _mm256_permutevar8x32_ps(quad, _mm256_and_si256(codes, _mm256_set1_epi32(3)))
        }
    };
    store(out, values);
}

/// [`Avx512::permute2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq")]
#[inline]
fn permute2<const L: usize>(
    tile: &[u32; 8],
    [s0, s1]: [u32; 2],
    [line0, line1]: [&[f32; L]; 2],
    chunks: &mut [[f32; 8]],
    [at0, at1]: [usize; 2],
) {
    const { assert!(L == 16 || L == 4) };
    let [a, b, c, d, e, f, g, h] = *tile;
    let tile = _mm256_setr_epi32(
        a as i32, b as i32, c as i32, d as i32, e as i32, f as i32, g as i32, h as i32,
    );
    let shifts = _mm512_mask_set1_epi32(_mm512_set1_epi32(s0 as i32), 0xFF00, s1 as i32);
    let codes = _mm512_srlv_epi32(_mm512_broadcast_i32x8(tile), shifts);
    // Bit 4 of a `vpermt2ps` index picks the second table: lanes 8–15
    // read `line1`.
    let high = _mm512_inserti64x4::<1>(_mm512_setzero_si512(), _mm256_set1_epi32(16));
    let index = _mm512_or_si512(
        _mm512_and_si512(codes, _mm512_set1_epi32(L as i32 - 1)),
        high,
    );
    let table = |line: &[f32; L]| match line.first_chunk::<16>() {
        Some(line) => load16(line),
        None => _mm512_zextps128_ps512(_mm_setr_ps(line[0], line[1], line[2], line[3])),
    };
    let values = _mm512_permutex2var_ps(table(line0), index, table(line1));
    store(&mut chunks[at0], _mm512_castps512_ps256(values));
    store(&mut chunks[at1], _mm512_extractf32x8_ps::<1>(values));
}

/// [`Avx2::dequant_lines`]: `code · scale` then `+ zero`, 8 codes wide,
/// rounded by [`round_slab`], or per entry by `F16` where it cannot.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn dequant_lines<const L: usize>(params: &[Half2], lut: &mut [f32]) {
    const { assert!(L == 16 || L == 4) };
    let low = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
    let codes = [low, _mm256_add_ps(low, _mm256_set1_ps(8.0))];
    for (line, h) in lut.as_chunks_mut::<L>().0.iter_mut().zip(params) {
        let pair = _mm_cvtph_ps(_mm_cvtsi32_si128(h.to_bits() as i32));
        let scale = _mm256_broadcastss_ps(pair);
        let zero = _mm256_broadcastss_ps(_mm_movehdup_ps(pair));
        let mut unrounded = [0.0; 16];
        for (half, codes) in unrounded.as_chunks_mut::<8>().0.iter_mut().zip(codes) {
            store(half, _mm256_add_ps(_mm256_mul_ps(codes, scale), zero));
        }
        if round_slab(&unrounded[..L], line) {
            *line = std::array::from_fn(|code| F16::from_f32(unrounded[code]).to_f32());
        }
    }
}

/// [`Avx512::dequant_lines`]: the 16 codes of a line in one register,
/// each line rounded by `vcvtps2ph` in the immediate round-to-nearest-even
/// mode, or per entry by `F16` where a lane is `|x| ≥ 65520` or NaN (one
/// unordered not-less-than compare).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c,avx512f")]
#[inline]
fn dequant_lines16(params: &[Half2], lut: &mut [f32]) {
    let codes = _mm512_setr_ps(
        0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
    );
    for (line, h) in lut.as_chunks_mut::<16>().0.iter_mut().zip(params) {
        let pair = _mm_cvtph_ps(_mm_cvtsi32_si128(h.to_bits() as i32));
        let scale = _mm512_broadcastss_ps(pair);
        let zero = _mm512_broadcastss_ps(_mm_movehdup_ps(pair));
        let unrounded = _mm512_add_ps(_mm512_mul_ps(codes, scale), zero);
        let magnitude = _mm512_abs_ps(unrounded);
        let past = _mm512_cmp_ps_mask::<_CMP_NLT_UQ>(magnitude, _mm512_set1_ps(65520.0));
        if past == 0 {
            let rounded = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(unrounded);
            store16(line, _mm512_cvtph_ps(rounded));
        } else {
            store16(line, unrounded);
            for x in line.iter_mut() {
                *x = F16::from_f32(*x).to_f32();
            }
        }
    }
}

/// [`Avx2::round`]: 8 values per [`round8`], the tail zero-padded.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn round_slab(src: &[f32], dst: &mut [f32]) -> bool {
    let (src_chunks, src_tail) = src.as_chunks::<8>();
    let (dst_chunks, dst_tail) = dst.as_chunks_mut::<8>();
    let mut padded = [0.0; 8];
    padded[..src_tail.len()].copy_from_slice(src_tail);
    let mut past = round8(load(&padded), &mut padded);
    dst_tail.copy_from_slice(&padded[..src_tail.len()]);
    for (s, d) in src_chunks.iter().zip(dst_chunks) {
        past = _mm256_or_ps(past, round8(load(s), d));
    }
    _mm256_movemask_ps(past) != 0
}

/// Stores `x` rounded through binary16 (`vcvtps2ph` in the immediate
/// round-to-nearest-even mode, not MXCSR's, then `vcvtph2ps`); returns the
/// lanes where that is not `F16`'s round: `|x| ≥ 65520`, or NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn round8(x: __m256, out: &mut [f32; 8]) -> __m256 {
    let rounded = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
    store(out, _mm256_cvtph_ps(rounded));
    let magnitude = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
    let huge = _mm256_cmp_ps::<_CMP_GE_OQ>(magnitude, _mm256_set1_ps(65520.0));
    _mm256_or_ps(huge, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
}

/// glibc's `__exp2f_data.tab`: `bits(2^(i/32)) - (i << 47)`.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
const EXP2F_TAB: [i64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// `__expf_fma` on 8 lanes, each as a double, 4 at a time ([`exp4`]). The
/// lanes `__expf_fma` sends to its special case take `f32::exp`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn exp8(xs: &mut [f32; 8]) {
    let x = load(xs);
    // Two calls, not a `map` over the halves: an array `map` stays out of
    // line, and its closure with it.
    let low = exp4(_mm256_castps256_ps128(x));
    let high = exp4(_mm256_extractf128_ps::<1>(x));
    exp_store(xs, _mm256_set_m128(high, low));
}

/// [`exp8`] with the 8 lanes as doubles in one register: [`exp4`]'s
/// steps, with `2^(k/32)` read from the table as two 16-entry halves by
/// one `vpermt2q` each (index bits 0–3) and one blend on bit 4 of `ki`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f,avx512dq")]
#[inline]
fn exp8_wide(xs: &mut [f32; 8]) {
    let xd = _mm512_cvtps_pd(load(xs));
    let f64s = |bits: u64| _mm512_set1_pd(f64::from_bits(bits));
    let (inv_ln2_n, shift) = (f64s(0x40471547652b82fe), f64s(0x4338000000000000));
    let kd_shifted = _mm512_fmadd_pd(xd, inv_ln2_n, shift);
    let ki = _mm512_castpd_si512(kd_shifted);
    let r = _mm512_fmsub_pd(inv_ln2_n, xd, _mm512_sub_pd(kd_shifted, shift));
    let eighth = |i: usize| {
        let [a, b, c, d, e, f, g, h] = EXP2F_TAB.as_chunks::<8>().0[i];
        _mm512_setr_epi64(a, b, c, d, e, f, g, h)
    };
    let low = _mm512_permutex2var_epi64(eighth(0), ki, eighth(1));
    let high = _mm512_permutex2var_epi64(eighth(2), ki, eighth(3));
    let bit4 = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    let t = _mm512_mask_blend_epi64(bit4, low, high);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
    let (c0, c1, c2) = (
        f64s(0x3ebc6af84b912394),
        f64s(0x3f2ebfce50fac4f3),
        f64s(0x3f962e42ff0c52d6),
    );
    let z = _mm512_fmadd_pd(r, c0, c1);
    let y = _mm512_fmadd_pd(r, c2, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
    exp_store(xs, _mm512_cvtpd_ps(_mm512_mul_pd(y, s)));
}

/// Stores `exp`, computed from `xs`, over it, except in the lanes
/// `__expf_fma` sends to its special case (`(bits(x) >> 20) & 0x7ff >
/// 0x42a`: `|x| ≥ 88`, Inf, NaN), which take `f32::exp`; when there are
/// none, as in almost every slab, no lane is looked at.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn exp_store(xs: &mut [f32; 8], exp: __m256) {
    let top = _mm256_srli_epi32::<20>(_mm256_castps_si256(load(xs)));
    let top = _mm256_and_si256(top, _mm256_set1_epi32(0x7ff));
    let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(0x42a));
    let special = _mm256_movemask_ps(_mm256_castsi256_ps(special));
    let unpatched = *xs;
    store(xs, exp);
    if special == 0 {
        return;
    }
    for (lane, (out, x)) in xs.iter_mut().zip(unpatched).enumerate() {
        if special >> lane & 1 != 0 {
            *out = x.exp();
        }
    }
}

/// `__expf_fma`'s main path on 4 lanes: `k = round(x·32/ln2)`, `r =
/// x·32/ln2 − k`, `2^(k/32)` from the table and the exponent field, a
/// degree-3 polynomial in `r`, one multiply and one narrowing.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn exp4(x: __m128) -> __m128 {
    let xd = _mm256_cvtps_pd(x);
    let f64s = |bits: u64| _mm256_set1_pd(f64::from_bits(bits));
    let (inv_ln2_n, shift) = (f64s(0x40471547652b82fe), f64s(0x4338000000000000));
    let kd_shifted = _mm256_fmadd_pd(xd, inv_ln2_n, shift);
    let ki = _mm256_castpd_si256(kd_shifted);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd_shifted, shift));
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: every index is `ki & 31`, inside the 32-entry table.
    let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2F_TAB.as_ptr().cast(), index) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let (c0, c1, c2) = (
        f64s(0x3ebc6af84b912394),
        f64s(0x3f2ebfce50fac4f3),
        f64s(0x3f962e42ff0c52d6),
    );
    let z = _mm256_fmadd_pd(r, c0, c1);
    let y = _mm256_fmadd_pd(r, c2, _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// An 8-wide load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load(values: &[f32; 8]) -> __m256 {
    // SAFETY: `values` is 8 readable `f32`s; `loadu` needs no alignment.
    unsafe { _mm256_loadu_ps(values.as_ptr()) }
}

/// An 8-wide store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn store(out: &mut [f32; 8], values: __m256) {
    // SAFETY: `out` is 8 writable `f32`s; `storeu` needs no alignment.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), values) }
}

/// A 16-wide load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load16(values: &[f32; 16]) -> __m512 {
    // SAFETY: `values` is 16 readable `f32`s; `loadu` needs no alignment.
    unsafe { _mm512_loadu_ps(values.as_ptr()) }
}

/// A 16-wide store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store16(out: &mut [f32; 16], values: __m512) {
    // SAFETY: `out` is 16 writable `f32`s; `storeu` needs no alignment.
    unsafe { _mm512_storeu_ps(out.as_mut_ptr(), values) }
}

#[cfg(test)]
mod tests {
    use super::Isa;

    /// `isa`'s exp over `cases` in slabs of `len`, checked against
    /// `f32::exp` bit for bit ("is NaN" for NaN).
    fn assert_exp_like_scalar(isa: Isa, cases: &[f32], len: usize) {
        let mut got = vec![0.0f32; len];
        for src in cases.chunks(len) {
            let got = &mut got[..src.len()];
            got.copy_from_slice(src);
            isa.exp_in_place(got);
            for (&x, &g) in src.iter().zip(&*got) {
                let want = x.exp();
                if g.to_bits() != want.to_bits() && !(g.is_nan() && want.is_nan()) {
                    panic!(
                        "{isa:?}, slab of {len}: exp({:#010x}) gave {:#010x}, want {:#010x}",
                        x.to_bits(),
                        g.to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }

    /// Signed zeros, subnormals, infinities and NaN payloads; ±2 ulp
    /// around every `k·ln2/32` in [−88, 88], where the table index
    /// changes; 2^20 seeded random bit patterns; and every `f32` in [−104,
    /// −87] and [87, 89], where results go subnormal, to zero and to
    /// infinity and the special case begins.
    fn exp_edge_cases() -> Vec<f32> {
        let mut cases = Vec::new();
        for magnitude in [
            0x0000_0000u32, // zero
            0x0000_0001,    // smallest subnormal
            0x0000_1234,
            0x007F_FFFF, // largest subnormal
            0x0080_0000, // smallest normal
            0x7F80_0000, // infinity
            0x7F80_0001, // signalling NaN, smallest payload
            0x7FA0_0000,
            0x7FC0_0000, // quiet NaN
            0x7FFF_FFFF, // NaN, every payload bit
        ] {
            cases.push(f32::from_bits(magnitude));
            cases.push(f32::from_bits(magnitude | 0x8000_0000));
        }
        for k in -4066i32..=4066 {
            let bits = (f64::from(k) * std::f64::consts::LN_2 / 32.0) as f32;
            let bits = bits.to_bits();
            cases.extend((bits.saturating_sub(2)..=bits + 2).map(f32::from_bits));
        }
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        cases.extend((0..1 << 20).map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            f32::from_bits((s >> 32) as u32)
        }));
        let every = |from: f32, to: f32| (from.to_bits()..=to.to_bits()).map(f32::from_bits);
        cases.extend(every(87.0, 104.0).map(|x| -x));
        cases.extend(every(87.0, 89.0));
        cases
    }

    #[test]
    fn exp_matches_libm_on_every_edge() {
        let cases = exp_edge_cases();
        assert!(cases.len() > 3_000_000, "{} cases", cases.len());
        // Every case in slabs of 129; the first 2^18 (the named values,
        // the table edges and most of the random ones) also in slabs of
        // 1, 7, 8 and 9, which end on every tail of an 8-lane pass.
        for isa in Isa::each() {
            assert_exp_like_scalar(isa, &cases, 129);
            for len in [1, 7, 8, 9] {
                assert_exp_like_scalar(isa, &cases[..1 << 18], len);
            }
        }
    }

    /// Every `f32` bit pattern, in every instance (about a minute in a
    /// release build: `cargo test --release -p bd-lowbit -- --ignored
    /// exp_matches_libm_on_every_f32`).
    #[test]
    #[ignore = "2^32 values; run with --release -- --ignored"]
    fn exp_matches_libm_on_every_f32() {
        const SLAB: u32 = 1 << 16;
        let isas = Isa::each();
        let mut cases = vec![0.0f32; SLAB as usize];
        for high in 0..=u32::MAX / SLAB {
            for (low, x) in (0..).zip(&mut cases) {
                *x = f32::from_bits(high * SLAB + low);
            }
            for &isa in &isas {
                assert_exp_like_scalar(isa, &cases, 4096);
            }
        }
    }
}
