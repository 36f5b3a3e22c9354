//! Golden long walk.
//!
//! `summation_order.rs` states the fused walk's summation order as an
//! oracle; this file pins its *bits* at a length the serve goldens do not
//! reach: one head of 40 full packed blocks plus a 5-token residual
//! through [`BitDecoder::attend_head_partial`], and the same head as a
//! 3-sharer cascade (32-block shared prefix, suffixes of 8, 3 and 0
//! blocks) through [`BitDecoder::attend_head_partial_multi`], over {KC-4,
//! KC-2} × {`Mma`, `Wgmma`} at `dim = 64`, `g_q = 2`. An FNV-1a-64 over
//! every partial's `m`, `l` and `finish()` bits is compared against
//! constants recorded on one core (`taskset -c 0`).
//!
//! A head's partial is a function of its inputs only, so this file must
//! pass unedited on any host and any core count. On a mismatch the
//! observed table is printed in source form.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{AttentionConfig, BitDecoder, OnlineSoftmax, PrefixSharer};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{BlockCodec, PackedBlock, QuantScheme, TokenMatrix};

const DIM: usize = 64;
const GQ: usize = 2;
const BLOCKS: usize = 40;
const PREFIX_BLOCKS: usize = 32;
/// `(suffix blocks, residual tokens)` per sharer; sharer 0 is the solo head.
const SHARERS: [(usize, usize); 3] = [(8, 5), (3, 0), (0, 17)];

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Folds a partial's `m`, `l` and normalized output bits.
fn fold_partial(mut h: u64, partial: &OnlineSoftmax) -> u64 {
    let bits =
        |xs: &[f32]| -> Vec<u8> { xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };
    h = fnv(h, bits(&partial.m));
    h = fnv(h, bits(&partial.l));
    for row in partial.clone().finish() {
        h = fnv(h, bits(&row));
    }
    h
}

struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[-2, 2)` with 24 random mantissa bits.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
    }
    fn matrix(&mut self, tokens: usize) -> TokenMatrix {
        TokenMatrix::from_fn(tokens, DIM, |_, _| self.unit())
    }
}

/// `(solo hash, cascade hash)` of one scheme on one architecture.
fn observe(scheme: QuantScheme, arch: GpuArch) -> (u64, u64) {
    let dec = BitDecoder::builder(arch)
        .attention(AttentionConfig::gqa(GQ, 1, DIM))
        .scheme(scheme)
        .build();
    let codec = dec.codec();
    let nr = dec.cache_config().residual_block();
    let mut rng = SplitMix(0xB17D_EC0D ^ nr as u64);
    let blocks: Vec<PackedBlock> = (0..BLOCKS)
        .map(|_| {
            let k = rng.matrix(nr);
            let v = rng.matrix(nr);
            codec.encode(&k, &v, scheme)
        })
        .collect();
    let inputs: Vec<(Vec<Vec<f32>>, TokenMatrix, TokenMatrix)> = SHARERS
        .iter()
        .map(|&(_, res)| (rng.matrix(GQ).to_rows(), rng.matrix(res), rng.matrix(res)))
        .collect();

    let (q, res_k, res_v) = &inputs[0];
    let (solo, _) = dec.attend_head_partial(q, &blocks, res_k, res_v);

    let (prefix, tail) = blocks.split_at(PREFIX_BLOCKS);
    let sharers: Vec<PrefixSharer<'_, PackedBlock>> = SHARERS
        .iter()
        .zip(&inputs)
        .map(|(&(suffix, _), (q, res_k, res_v))| PrefixSharer {
            q_block: q,
            suffix: &tail[..suffix],
            res_k,
            res_v,
        })
        .collect();
    let (partials, _) = dec.attend_head_partial_multi(prefix, &sharers);
    assert_eq!(partials.len(), SHARERS.len());
    (
        fold_partial(FNV_OFFSET, &solo),
        partials.iter().fold(FNV_OFFSET, fold_partial),
    )
}

/// `(scheme, engine, solo hash, cascade hash)`, recorded under
/// `taskset -c 0`.
const GOLDEN: [(&str, &str, u64, u64); 4] = [
    ("KC-4", "Mma", 0x5EEE_CAF8_7E2B_B999, 0x39E3_1ED6_995A_DF4B),
    (
        "KC-4",
        "Wgmma",
        0x0B91_7E83_52B6_3616,
        0x6AEB_FA38_BD98_F604,
    ),
    ("KC-2", "Mma", 0x0EAB_F1E1_DDA3_D24F, 0x394A_F829_ABFA_3DDA),
    (
        "KC-2",
        "Wgmma",
        0xC5D4_29E9_E4D3_5C4D,
        0x2528_0C10_7A17_0376,
    ),
];

#[test]
fn long_walk_partials_match_the_recorded_bits_on_any_core_count() {
    let observed: Vec<(&str, &str, u64, u64)> =
        [("KC-4", QuantScheme::kc4()), ("KC-2", QuantScheme::kc2())]
            .into_iter()
            .flat_map(|(name, scheme)| {
                [("Mma", GpuArch::rtx4090()), ("Wgmma", GpuArch::h100())].map(|(engine, arch)| {
                    let (solo, cascade) = observe(scheme, arch);
                    (name, engine, solo, cascade)
                })
            })
            .collect();
    if observed != GOLDEN {
        for (scheme, engine, solo, cascade) in &observed {
            eprintln!("    (\"{scheme}\", \"{engine}\", {solo:#018X}, {cascade:#018X}),");
        }
    }
    assert_eq!(observed, GOLDEN, "long-walk partial bits moved");
}
