//! Golden token streams and kernel-output bits.
//!
//! Every equivalence test elsewhere compares two paths of the *same*
//! build; none of them notices when both drift together. This one pins
//! the values themselves: a small fixed grid — {KC-4, KC-2, KT-4} ×
//! {rtx4090 (`Mma`), h100 (`Wgmma`)} × {contiguous replay, paged on one
//! device, paged on two devices head-modulo}, one forked pair per cell so
//! the cascade multi-query kernel runs — is served, and an FNV-1a-64 of
//! each token stream and of the final `OnlineSoftmax::finish()` bits is
//! compared against constants. A change that claims "bit-identical
//! streams" must pass this file unedited.
//!
//! Each context holds 3 packed blocks per head at its longest (two sealed
//! by the prefill, one sealed mid-decode).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::too_many_lines)]

use bd_core::{query_transform, AttentionConfig, BitDecoder, PrefixSharer};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{PackedBlock, PagedKvStore, Partitioning, QuantScheme};
use bd_serve::{replay_contiguous, SequenceModel, ServeConfig, ServeSession, SynthSequence};

/// `head_dim = 32` makes the softmax scale irrational, so the `Mma`
/// engine's FP16 rounding of `q · scale` really changes bits and the two
/// engines' constants differ.
const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 4,
    heads_kv: 2,
    head_dim: 32,
};
const PROMPT_SEED: u64 = 0xB17D;
const CHILD_SEED: u64 = 0xC0DE;
/// Decode steps: the residual window starts 3 short of a block, so step 3
/// seals and the remaining steps run over a fresh short window.
const GEN: usize = 10;
const PAGE_TOKENS: usize = 64;

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn hash_stream(tokens: &[u32]) -> u64 {
    fnv1a64(tokens.iter().flat_map(|t| t.to_le_bytes()))
}

fn hash_rows(rows: &[Vec<f32>]) -> u64 {
    fnv1a64(
        rows.iter()
            .flatten()
            .flat_map(|x| x.to_bits().to_le_bytes()),
    )
}

fn decoder(arch: GpuArch, scheme: QuantScheme) -> BitDecoder {
    BitDecoder::builder(arch)
        .attention(ATTN)
        .scheme(scheme)
        .paged(true)
        .build()
}

fn parent_model(prompt: usize) -> SynthSequence {
    SynthSequence::new(ATTN, PROMPT_SEED, prompt, GEN)
}

fn child_model(prompt: usize) -> SynthSequence {
    SynthSequence::forked(ATTN, PROMPT_SEED, CHILD_SEED, prompt, GEN)
}

/// Serves the forked pair and returns `(parent stream, child stream)`.
fn serve_pair(dec: &BitDecoder, config: ServeConfig, prompt: usize) -> (Vec<u32>, Vec<u32>) {
    let mut session = ServeSession::new(dec.clone(), config);
    let parent = session.submit(Box::new(parent_model(prompt))).unwrap();
    let child = session
        .submit_forked(parent, Box::new(child_model(prompt)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.forks, 1, "the child must admit by fork");
    assert!(
        summary.shared_attn_groups > 0,
        "the cascade multi-query kernel must have run"
    );
    (
        session.stream(parent).unwrap().to_vec(),
        session.stream(child).unwrap().to_vec(),
    )
}

/// One decode step's normalized kernel output over the prompt, hashed:
/// every KV head's solo `attend_head_partial(..).finish()` for both
/// queries, on the contiguous cache — with the paged store and the
/// two-sharer cascade call required to reproduce the same bits.
fn finish_bits(dec: &BitDecoder, prompt: usize) -> u64 {
    let codec = dec.codec();
    let (pk, pv) = parent_model(prompt).prompt();
    let mut cache = dec.new_cache(1);
    let mut store = PagedKvStore::new(dec.cache_config(), ATTN.heads_kv, 64, PAGE_TOKENS);
    let seq = store.admit(prompt + 1).unwrap();
    store.prefill(seq, &pk, &pv, &codec).unwrap();
    for h in 0..ATTN.heads_kv {
        cache.prefill(h, &pk[h], &pv[h], &codec).unwrap();
    }
    let queries = [
        query_transform(&parent_model(prompt).query(0), &ATTN),
        query_transform(&child_model(prompt).query(0), &ATTN),
    ];
    let mut all_rows = Vec::new();
    for h in 0..ATTN.heads_kv {
        let (rk, rv) = cache.residual(h);
        let paged_blocks = store.packed_blocks(seq, h);
        let (prk, prv) = store.residual(seq, h);
        let sharers: Vec<PrefixSharer<'_, &PackedBlock>> = queries
            .iter()
            .map(|q| PrefixSharer {
                q_block: &q[h],
                suffix: &[],
                res_k: prk,
                res_v: prv,
            })
            .collect();
        let (multi, _) = dec.attend_head_partial_multi(&paged_blocks, &sharers);
        for (q, cascade) in queries.iter().zip(multi) {
            let (solo, _) = dec.attend_head_partial(&q[h], cache.packed_blocks(h), rk, rv);
            let (paged, _) = dec.attend_head_partial(&q[h], &paged_blocks, prk, prv);
            let rows = solo.finish();
            assert_eq!(hash_rows(&rows), hash_rows(&paged.finish()), "paged bits");
            assert_eq!(
                hash_rows(&rows),
                hash_rows(&cascade.finish()),
                "cascade bits"
            );
            all_rows.extend(rows);
        }
    }
    hash_rows(&all_rows)
}

/// `(scheme, arch)` → `[parent stream, child stream, finish bits]`,
/// recorded on the commit before the fragment-plan kernel rewrite.
const GOLDEN: [(&str, &str, [u64; 3]); 6] = [
    (
        "kc4",
        "rtx4090",
        [0xB0A9CAB6FF6FED35, 0xDA566371820C99F5, 0xF53D70412E409AD4],
    ),
    (
        "kc4",
        "h100",
        [0x4FD89328D781E643, 0xA74C50B0CED82A49, 0x26C02EF3B89B1E5E],
    ),
    (
        "kc2",
        "rtx4090",
        [0x31B804C6E5993F0B, 0xE5DC9FE3AF0700C6, 0x9E876B379D111AEB],
    ),
    (
        "kc2",
        "h100",
        [0xEB0C631D75997DC8, 0x06F244E6E87598A5, 0xB2BFF4BDE770C2B5],
    ),
    (
        "kt4",
        "rtx4090",
        [0xB9964232CB2D68B3, 0xDA531F77793D763C, 0xF19186F65769CBB7],
    ),
    (
        "kt4",
        "h100",
        [0x008DC313087FB237, 0x6B833D67D53BE0A0, 0x377E2515A4B38277],
    ),
];

#[test]
fn streams_and_kernel_bits_match_recorded_constants() {
    let mut mismatches = Vec::new();
    for (scheme_label, arch_label, want) in GOLDEN {
        let scheme = match scheme_label {
            "kc4" => QuantScheme::kc4(),
            "kc2" => QuantScheme::kc2(),
            _ => QuantScheme::kt4(),
        };
        let arch = match arch_label {
            "rtx4090" => GpuArch::rtx4090(),
            _ => GpuArch::h100(),
        };
        let dec = decoder(arch, scheme);
        let nr = dec.cache_config().residual_block();
        let prompt = 3 * nr - 3;
        let pages = 4 * (prompt + GEN).div_ceil(PAGE_TOKENS);

        let contiguous = (
            replay_contiguous(&dec, &mut parent_model(prompt)),
            replay_contiguous(&dec, &mut child_model(prompt)),
        );
        let one_device = serve_pair(&dec, ServeConfig::new(pages, PAGE_TOKENS, 0, 4), prompt);
        let two_devices = serve_pair(
            &dec,
            ServeConfig::new(pages, PAGE_TOKENS, 2, 4).with_devices(2, Partitioning::HeadModulo),
            prompt,
        );
        assert_eq!(contiguous.0.len(), GEN);
        assert_eq!(
            one_device, contiguous,
            "{scheme_label}/{arch_label}: 1 device"
        );
        assert_eq!(
            two_devices, contiguous,
            "{scheme_label}/{arch_label}: 2 devices"
        );

        let got = [
            hash_stream(&contiguous.0),
            hash_stream(&contiguous.1),
            finish_bits(&dec, prompt),
        ];
        if got != want {
            mismatches.push(format!(
                "(\"{scheme_label}\", \"{arch_label}\", [{:#018X}, {:#018X}, {:#018X}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "streams drifted from the recorded constants; observed:\n{}",
        mismatches.join("\n")
    );
}
