//! The two instances of the packed walk, and the only `unsafe` in
//! `bd-core`: the baseline build, and the same body inlined into one `avx2`
//! target-feature entry, picked at run time ([`Isa::host`]). In the AVX2
//! one a shared-line segment dequantizes by [`Avx2::permute`]. The bits
//! agree: Rust never contracts `a * b + c` into an FMA nor reassociates a
//! float sum on any target, and `vpermps` / `vblendvps` only move bits.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Which instance of the packed walk runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa(Option<Avx2>);

/// Proof that the host runs AVX2: only [`Isa::host`] makes one, and only
/// on `x86_64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Avx2(());

impl Isa {
    /// The build target's instance.
    pub(crate) const BASELINE: Isa = Isa(None);

    /// AVX2 where an `x86_64` CPU reports it (the standard library probes
    /// once and caches the answer), the baseline everywhere else.
    pub(crate) fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa(Some(Avx2(())));
        }
        Isa::BASELINE
    }

    /// The AVX2 proof, in the AVX2 instance.
    pub(crate) fn avx2(self) -> Option<Avx2> {
        self.0
    }

    /// Runs `body` as this instance: inside the `avx2` entry, where all
    /// that `body` inlines compiles for AVX2, or as it is.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self.0 {
            // SAFETY: an `Avx2` exists only where the host reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Some(Avx2(())) => unsafe { with_avx2(body) },
            _ => body(),
        }
    }
}

#[cfg(test)]
impl Isa {
    /// Every instance this host runs, the baseline first; without AVX2
    /// the AVX2 side is skipped, with a printed line.
    pub(crate) fn each() -> Vec<Isa> {
        let host = Isa::host();
        if host == Isa::BASELINE {
            println!("this host has no AVX2: the AVX2 instance is skipped");
            return vec![host];
        }
        vec![Isa::BASELINE, host]
    }
}

impl Avx2 {
    /// `out[lane] = line[(tile[lane] >> shift) % L]` for a line of 16 or 4
    /// entries: the shifted tile indexes a `vpermps` per 8 entries, bit 3
    /// of the code picks a 16-entry line's half (`vblendvps`), and one
    /// 8-wide store lands the lanes.
    #[inline(always)]
    pub(crate) fn permute<const L: usize>(
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
        #[cfg(not(target_arch = "x86_64"))]
        {
            *out = tile.map(|reg| line[(reg >> shift) as usize % L]);
        }
    }
}

/// The AVX2 instance's entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
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
    // SAFETY: `out` is 8 writable `f32`s; `storeu` needs no alignment.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), values) }
}

/// An 8-wide load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load(values: &[f32; 8]) -> __m256 {
    // SAFETY: `values` is 8 readable `f32`s; `loadu` needs no alignment.
    unsafe { _mm256_loadu_ps(values.as_ptr()) }
}
