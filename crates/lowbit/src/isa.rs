//! The two instances of the packed walk and the FP16 round, and the only
//! `unsafe` in the crates' library code: the baseline build, and AVX2 with
//! F16C, picked at run time ([`Isa::host`]). The bits agree: Rust never contracts
//! `a * b + c` into an FMA nor reassociates a float sum on any target,
//! `vpermps` / `vblendvps` only move bits, and F16C rounds like [`crate::F16`]
//! below 65520 in magnitude; a slab holding anything else (NaN, whose
//! payload F16C keeps, among it) takes the software round.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use crate::f16::F16;
use crate::half2::Half2;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Which instance of the vector code runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Option<Avx2>);

/// Proof that the host runs AVX2 and F16C: only [`Isa::host`] makes one,
/// and only on `x86_64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub struct Avx2(());

impl Isa {
    /// The build target's instance.
    pub const BASELINE: Isa = Isa(None);

    /// AVX2 and F16C where an `x86_64` CPU reports both (the standard
    /// library probes once and caches the answer), the baseline everywhere
    /// else.
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("f16c") {
            return Isa(Some(Avx2(())));
        }
        Isa::BASELINE
    }

    /// Every instance this host runs, the baseline first: what bit tests
    /// compare. Without AVX2 and F16C that side is skipped, with a printed
    /// line.
    pub fn each() -> Vec<Isa> {
        let host = Isa::host();
        if host == Isa::BASELINE {
            println!("this host has no AVX2 and F16C: the AVX2 instance is skipped");
            return vec![host];
        }
        vec![Isa::BASELINE, host]
    }

    /// The AVX2 proof, in the AVX2 instance.
    pub fn avx2(self) -> Option<Avx2> {
        self.0
    }

    /// Runs `body` as this instance: inside the `avx2,f16c` entry, where
    /// all that `body` inlines compiles for AVX2 and F16C, or as it is.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self.0 {
            // SAFETY: an `Avx2` exists only where the host reported AVX2
            // and F16C.
            #[cfg(target_arch = "x86_64")]
            Some(Avx2(())) => unsafe { with_avx2(body) },
            _ => body(),
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
        shift: u8,
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

/// The AVX2 instance's entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// [`Avx2::permute`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn permute<const L: usize>(tile: &[u32; 8], shift: u8, line: &[f32; L], out: &mut [f32; 8]) {
    const { assert!(L == 16 || L == 4) };
    let [a, b, c, d, e, f, g, h] = tile.map(|reg| reg as i32);
    let count = _mm_cvtsi32_si128(i32::from(shift));
    let codes = _mm256_srl_epi32(_mm256_setr_epi32(a, b, c, d, e, f, g, h), count);
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
