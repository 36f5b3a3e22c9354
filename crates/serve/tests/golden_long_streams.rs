//! Golden long-context streams.
//!
//! `golden_streams.rs` pins served streams at 3 packed blocks per head and
//! `bd-core`'s `golden_long_walk.rs` pins one 40-block head's partial
//! bits; this file pins what a *served* long context emits. One KC-4 and
//! one KC-2 request over `gqa(8, 4, 64)` on the `Mma` engine, each with a
//! prompt of 16 full packed blocks per head plus a 5-token residual, is
//! served solo and as a 3-request shared prefix (parent + two forks, so
//! every decode step goes through the cascade multi-query walk), and an
//! FNV-1a-64 of each emitted token stream is compared against constants.
//! The parent of the fleet must emit the solo stream, and the solo stream
//! is `replay_contiguous`'s.
//!
//! No kernel reads the host, so this file must pass unedited on any core
//! count; a change that claims "bit-identical streams" passes it unedited.
//! On a mismatch the observed table is printed in source form.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::QuantScheme;
use bd_serve::{replay_contiguous, ServeConfig, ServeSession, SynthSequence};

const PROMPT_SEED: u64 = 0x10C7_B17D;
const CHILD_SEEDS: [u64; 2] = [0xC0DE, 0xF00D];
const PACKED_BLOCKS: usize = 16;
const RESIDUAL: usize = 5;
const GEN: usize = 6;
const PAGE_TOKENS: usize = 64;

fn attn() -> AttentionConfig {
    AttentionConfig::gqa(8, 4, 64)
}

fn hash_stream(tokens: &[u32]) -> u64 {
    tokens
        .iter()
        .flat_map(|t| t.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Serves the parent and `forks` shared-prefix siblings; returns every
/// stream's hash, parent first.
fn serve(dec: &BitDecoder, prompt: usize, forks: usize) -> Vec<u64> {
    let pages = (forks + 2) * attn().heads_kv * (prompt + GEN).div_ceil(PAGE_TOKENS);
    let config = ServeConfig::new(pages, PAGE_TOKENS, 0, 4);
    let mut session = ServeSession::new(dec.clone(), config);
    let parent = SynthSequence::new(attn(), PROMPT_SEED, prompt, GEN);
    let mut ids = vec![session.submit(Box::new(parent)).unwrap()];
    for seed in &CHILD_SEEDS[..forks] {
        let child = SynthSequence::forked(attn(), PROMPT_SEED, *seed, prompt, GEN);
        ids.push(session.submit_forked(ids[0], Box::new(child)).unwrap());
    }
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, forks + 1);
    assert_eq!(summary.forks, forks, "siblings must admit by fork");
    assert_eq!(
        summary.shared_attn_groups > 0,
        forks > 0,
        "the cascade walk runs exactly when a prefix is shared"
    );
    ids.iter()
        .map(|&id| hash_stream(session.stream(id).unwrap()))
        .collect()
}

/// `(scheme, [parent/solo stream, first fork, second fork])`, recorded on
/// the commit before the plan became a list of `ldmatrix` tiles.
const GOLDEN: [(&str, [u64; 3]); 2] = [
    (
        "kc4",
        [0x9BF5BFCA5E95D56F, 0xDFC09090360A9574, 0x50FB2BC56077D0C2],
    ),
    (
        "kc2",
        [0xDF912840DADC5035, 0x66FB3399245D0B66, 0xE7CF494A161EDE81],
    ),
];

#[test]
fn served_long_context_streams_match_recorded_constants() {
    let mut observed = Vec::new();
    for (label, scheme) in [("kc4", QuantScheme::kc4()), ("kc2", QuantScheme::kc2())] {
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn())
            .scheme(scheme)
            .paged(true)
            .build();
        let prompt = PACKED_BLOCKS * dec.cache_config().residual_block() + RESIDUAL;
        let solo = serve(&dec, prompt, 0);
        let fleet = serve(&dec, prompt, CHILD_SEEDS.len());
        assert_eq!(
            solo[0], fleet[0],
            "{label}: sharing a prefix changes no bit"
        );
        let mut model = SynthSequence::new(attn(), PROMPT_SEED, prompt, GEN);
        let contiguous = replay_contiguous(&dec, &mut model);
        assert_eq!(solo[0], hash_stream(&contiguous), "{label}: contiguous");
        observed.push((label, [fleet[0], fleet[1], fleet[2]]));
    }
    if observed != GOLDEN {
        for (label, [parent, first, second]) in &observed {
            eprintln!("    (\"{label}\", [{parent:#018X}, {first:#018X}, {second:#018X}]),");
        }
    }
    assert_eq!(observed, GOLDEN, "long-context streams moved");
}
