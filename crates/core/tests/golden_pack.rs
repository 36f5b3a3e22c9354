//! Golden packed bytes.
//!
//! `golden_streams.rs` pins what the read side produces; this file pins
//! what the write side stores. An FNV-1a-64 over every packed word and
//! `half2` parameter (FP4: every nibble byte and block scale) that
//! [`FragmentCodec::encode`] and [`ReferenceCodec::encode`] emit is
//! compared against recorded constants, over {KC-4, KC-2, KT-4, KT-2,
//! MXFP4} × `tokens ∈ {Nr, 16}` (16 tokens is the smallest block
//! `mma.m16n8k16` tiles in both B-operand orientations) × `dim ∈ {64,
//! 128}` × the content classes below — ordinary values, and every input
//! the quantizer has a defined-but-unusual answer for. A second table pins
//! the bytes a three-run prompt leaves in a [`PagedKvStore`], FP16
//! rounding included, through both `prefill` and `admit_prefill_cached`.
//!
//! A change that claims "bit-identical pages" must pass this file
//! unedited. On a mismatch the observed tables are printed in source
//! form.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::FragmentCodec;
use bd_kvcache::{
    BlockCodec, CacheConfig, PackLayout, PackedBlock, PackedPayload, PagedKvStore, QuantScheme,
    ReferenceCodec, TokenMatrix,
};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Folds a block's shapes and every payload byte, K then V.
fn fold_block(mut h: u64, block: &PackedBlock) -> u64 {
    for tensor in [&block.k, &block.v] {
        h = fnv(h, (tensor.tokens as u64).to_le_bytes());
        h = fnv(h, (tensor.dim as u64).to_le_bytes());
        match &tensor.payload {
            PackedPayload::Int { words, params } => {
                h = fnv(h, words.iter().flat_map(|w| w.to_le_bytes()));
                h = fnv(h, params.iter().flat_map(|p| p.to_bits().to_le_bytes()));
            }
            PackedPayload::Fp4 { codes, scales } => {
                h = fnv(h, codes.iter().copied());
                h = fnv(h, scales.iter().copied());
            }
        }
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
}

/// The content classes, in table order.
const CLASSES: [&str; 9] = [
    "uniform",
    "outlier_channel",
    "constant",
    "constant_rows",
    "signed_zeros",
    "denormals",
    "beyond_f16",
    "non_finite_rows",
    "raw_bits",
];

fn content(class: &str, tokens: usize, dim: usize, seed: u64) -> TokenMatrix {
    let mut rng = SplitMix(seed);
    TokenMatrix::from_fn(tokens, dim, |t, c| match class {
        "uniform" => rng.unit(),
        // One hot channel, as real LLM keys have.
        "outlier_channel" => rng.unit() * if c == 5 { 60.0 } else { 1.0 },
        // Degenerate in both grouping directions.
        "constant" => 0.75,
        // Degenerate tensor-wise groups, ordinary channel-wise ones.
        "constant_rows" => t as f32 * 0.173 - 1.1,
        "signed_zeros" => {
            if rng.next_u64() & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        }
        // f32 denormals, f16 denormals, and the f16 normal/denormal edge.
        "denormals" => {
            let r = rng.next_u64();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            sign * match (r >> 1) % 4 {
                0 => f32::from_bits((r >> 40) as u32 & 0x007F_FFFF),
                1 => ((r >> 40) & 0x3FF) as f32 * 2.0f32.powi(-24) * 1.37,
                2 => 2.0f32.powi(-14) * (1.0 + rng.unit() * 1e-3),
                _ => rng.unit() * 1e-6,
            }
        }
        // Around and past the f16 overflow threshold (65520 rounds to inf).
        "beyond_f16" => {
            let r = rng.next_u64();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            sign * match (r >> 1) % 5 {
                0 => 65504.0,
                1 => 65519.996,
                2 => 65520.0,
                3 => 7.0e4 + rng.unit() * 1e4,
                _ => rng.unit() * 3.0e4,
            }
        }
        // Every fifth row carries NaN / ±Inf among ordinary values.
        "non_finite_rows" => {
            let x = rng.unit();
            if t % 5 != 2 {
                x
            } else {
                match (c + t) % 4 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => x,
                }
            }
        }
        "raw_bits" => f32::from_bits(rng.next_u64() as u32),
        other => panic!("unknown content class {other}"),
    })
}

fn scheme_of(label: &str) -> QuantScheme {
    match label {
        "kc4" => QuantScheme::kc4(),
        "kc2" => QuantScheme::kc2(),
        "kt4" => QuantScheme::kt4(),
        "kt2" => QuantScheme::kt2(),
        "mxfp4" => QuantScheme::mxfp4(),
        other => panic!("unknown scheme {other}"),
    }
}

/// `scheme` → per content class (in [`CLASSES`] order) `[fragment hash,
/// reference hash]`, each folded over `tokens ∈ {Nr, 16}` × `dim ∈ {64,
/// 128}`. Recorded on the commit before the slab encode; MXFP4's two
/// ±Inf-carrying rows were added once its scale saturated (an infinite
/// block maximum gets scale 2¹²⁷), without moving any other constant.
const GOLDEN_ENCODE: [(&str, [[u64; 2]; 9]); 5] = [
    (
        "kc4",
        [
            [0x3184B308ADF37BD9, 0x311D0BD7EC83775A],
            [0x24F9CC7506CF4ABF, 0xC3C896DB46429E12],
            [0xFBC4E72423176625, 0xFBC4E72423176625],
            [0x58084C4D2EDE6F85, 0x4C724EED59A54B05],
            [0x454605FA85049D25, 0x454605FA85049D25],
            [0x1446AC2A255E3624, 0xFFB7316B0C4D0FA5],
            [0xD28D127DF2209DBB, 0x09779B403C19F46F],
            [0xE2369DCD6176FD0D, 0x40942E7E83BDBE07],
            [0x4FFB68006A2ABA43, 0x1798EEE19049C9C6],
        ],
    ),
    (
        "kc2",
        [
            [0xC041777D872A4237, 0xE61E2EA7F53AA3FF],
            [0x050D5E9637135058, 0x215690CE0C736AE8],
            [0xDDAE5E4376C4E325, 0xAF86F28EA9974F25],
            [0x947E5BD1F013CD51, 0x94C1F1EBED226AD1],
            [0x58129AE94512E5A5, 0x0E00E212736551A5],
            [0x4B70A33E28FDBD6A, 0x7872458C2376C7AF],
            [0x2A2CA85F8F0D9D9C, 0x55B10D3462873B29],
            [0xF16E46BF4D515F5E, 0x16387F5B1753716F],
            [0xE942D84847481479, 0x3E1FD18078681EB8],
        ],
    ),
    (
        "kt4",
        [
            [0xBC7F293C5FE34085, 0x0694444E487E3DCA],
            [0x169BAA46AA019535, 0x9FCDDBBB73144DC5],
            [0xE5F0FD84B3DF4625, 0xE5F0FD84B3DF4625],
            [0x8DE3180E52CCDF45, 0x8DE3180E52CCDF45],
            [0xDD6602B34CAECEA5, 0xDD6602B34CAECEA5],
            [0x5D70FE4085C4C373, 0xA9ABCB0BA46222C9],
            [0xBBDCB918DF490AA9, 0xBBDCB918DF490AA9],
            [0x7A729D517CA8B020, 0x0CFAD28091BCAC06],
            [0x6A51583A79EE7CDD, 0x66D7AC53F9996F54],
        ],
    ),
    (
        "kt2",
        [
            [0xF54F198DB2CD5481, 0x860FC3BCB937F79E],
            [0x474203FB8AB52D0D, 0x930D78F728F02E74],
            [0x72F17DA567B24325, 0xE585A8D587D0AF25],
            [0xA512E0173E8B1355, 0x29834FFD018F6355],
            [0x937A2FCDDC65B325, 0x5F2EC79E0ADC1F25],
            [0xBB13D3F2A466AF16, 0x7F0A2F42E678EF98],
            [0x326F307DE4FEF30D, 0x6EA29167867FDE0D],
            [0x863BB11E1EE51B98, 0xFB8369DB7797B39B],
            [0xC33612932CC34E43, 0xECE747EEF35B1901],
        ],
    ),
    (
        "mxfp4",
        [
            [0x3D6C467210E9B561, 0x3D6C467210E9B561],
            [0xCE247DE3A73F6B2B, 0xCE247DE3A73F6B2B],
            [0x88AD767C52365A25, 0x88AD767C52365A25],
            [0x4F78248440624F45, 0x4F78248440624F45],
            [0x5B3E2ED9C5FFFFB5, 0x5B3E2ED9C5FFFFB5],
            [0xFBAA2E49C5FFB8CB, 0xFBAA2E49C5FFB8CB],
            [0xBCA13460198051B1, 0xBCA13460198051B1],
            [0x6674F7D622026286, 0x6674F7D622026286],
            [0x9D0D80DB33DFAE05, 0x9D0D80DB33DFAE05],
        ],
    ),
];

#[test]
fn encoded_words_and_params_match_recorded_constants() {
    let layout = PackLayout::sm80_default();
    let fragment = FragmentCodec::new(layout);
    let mut observed = Vec::new();
    let mut drifted = false;
    for (label, want) in GOLDEN_ENCODE {
        let scheme = scheme_of(label);
        let nr = CacheConfig::new(64, scheme, layout).residual_block();
        let mut got = [[0u64; 2]; 9];
        for (ci, class) in CLASSES.iter().enumerate() {
            let mut h = [FNV_OFFSET; 2];
            for tokens in [nr, 16] {
                for dim in [64, 128] {
                    let seed = (ci * 1000 + tokens * 2 + dim) as u64;
                    let k = content(class, tokens, dim, seed);
                    let v = content(class, tokens, dim, seed ^ 0x5EED);
                    let f = fragment.encode(&k, &v, scheme);
                    let r = ReferenceCodec.encode(&k, &v, scheme);
                    if scheme.int_width().is_none() {
                        assert_eq!(f, r, "{label}: FP4 must stay on the reference nibble path");
                    }
                    h = [fold_block(h[0], &f), fold_block(h[1], &r)];
                }
            }
            got[ci] = h;
        }
        drifted |= got != want;
        let rows: Vec<String> = got
            .iter()
            .map(|[f, r]| format!("        [{f:#018X}, {r:#018X}],"))
            .collect();
        observed.push(format!(
            "    (\n        \"{label}\",\n        [\n    {}\n        ],\n    ),",
            rows.join("\n    ")
        ));
    }
    assert!(
        !drifted,
        "packed bytes drifted from the recorded constants; observed:\n{}",
        observed.join("\n")
    );
}

const HEADS: usize = 2;
const DIM: usize = 64;
const PAGE_TOKENS: usize = 64;
/// Tokens past the third run: a residual tail that is never packed.
const TAIL: usize = 37;

/// A prompt of ordinary values with the rounding edge cases sprinkled in:
/// f16 halfway points, denormals, overflow and a NaN.
fn prompt(len: usize, seed: u64) -> Vec<TokenMatrix> {
    (0..HEADS)
        .map(|h| {
            let mut rng = SplitMix(seed + h as u64);
            TokenMatrix::from_fn(len, DIM, |t, c| match (t * DIM + c) % 97 {
                11 => 1.0 + 2.0f32.powi(-11),
                23 => 1.0 + 3.0 * 2.0f32.powi(-11),
                37 => 3.1e-6,
                41 => -6.0e-8,
                53 => 65519.996,
                59 if t % 64 == 7 => 65520.0,
                61 if t % 128 == 9 => f32::NAN,
                _ => rng.unit(),
            })
        })
        .collect()
}

/// Hash of everything the store holds for `seq`: every head's packed
/// blocks through the page table, then the residual windows' f32 bits.
fn store_bits(store: &PagedKvStore, seq: bd_kvcache::SeqId) -> u64 {
    let mut h = FNV_OFFSET;
    for head in 0..HEADS {
        for block in store.packed_blocks(seq, head) {
            h = fold_block(h, block);
        }
        let (rk, rv) = store.residual(seq, head);
        for m in [rk, rv] {
            h = fnv(
                h,
                m.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()),
            );
        }
    }
    h
}

/// `scheme` → hash of a three-run prefill (`3 · lcm(Nr, 64)` tokens plus a
/// 37-token tail, 2 heads × 64 channels, fragment codec).
const GOLDEN_PREFILL: [(&str, u64); 2] = [("kc4", 0xB4B6B4AA826933A9), ("kc2", 0x2E1EE2873347C613)];

#[test]
fn three_run_prefill_leaves_recorded_bytes_in_the_store() {
    let layout = PackLayout::sm80_default();
    let codec = FragmentCodec::new(layout);
    let mut observed = Vec::new();
    let mut drifted = false;
    for (label, want) in GOLDEN_PREFILL {
        let config = CacheConfig::new(DIM, scheme_of(label), layout);
        // Nr is a multiple of the page size, so one run is one block.
        let len = 3 * config.residual_block() + TAIL;
        let (k, v) = (prompt(len, 0xB17D), prompt(len, 0xC0DE));
        let pages = 3 * len.div_ceil(PAGE_TOKENS);

        let mut plain = PagedKvStore::new(config, HEADS, pages, PAGE_TOKENS);
        let seq = plain.admit(len).unwrap();
        plain.prefill(seq, &k, &v, &codec).unwrap();
        let got = store_bits(&plain, seq);

        // The cached admission writes the same bytes cold, and hands the
        // same bytes back on a full hit.
        let mut cached = PagedKvStore::new(config, HEADS, pages, PAGE_TOKENS);
        cached.set_prefix_cache(true);
        let (cold, _) = cached.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        let (hit, adopted) = cached.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        assert_eq!(adopted.pages_reused, (len - TAIL) / PAGE_TOKENS, "{label}");
        assert_eq!(store_bits(&cached, cold), got, "{label}: cold cached admit");
        assert_eq!(store_bits(&cached, hit), got, "{label}: full-hit admit");

        drifted |= got != want;
        observed.push(format!("(\"{label}\", {got:#018X}),"));
    }
    assert!(
        !drifted,
        "stored bytes drifted from the recorded constants; observed:\n{}",
        observed.join("\n")
    );
}
