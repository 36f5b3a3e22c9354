//! Copy-on-write prefix sharing, end to end: eight requests carry the
//! same 1024-token system prompt — the dominant serving pattern — and
//! seven of them are admitted through `ServeSession::submit_forked`, so
//! their prompt pages **alias the parent's** copy-on-write instead of
//! being quantized and stored again per sequence.
//!
//! The demo runs the identical workload with and without sharing and
//! asserts that
//!
//! 1. every stream in both runs is **bitwise identical** to the
//!    per-sequence contiguous decode — sharing changes where bytes live,
//!    never what they are — and
//! 2. the shared run's peak physical page usage is **strictly below** the
//!    unshared run's at equal output, with the saved bytes reported.
//!
//! Run with: `cargo run --release --example fork_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::serve::{
    replay_contiguous, ServeConfig, ServeSession, ServeSummary, SynthSequence,
};
use bitdecoding::{GpuArch, QuantScheme};

const PROMPT_SEED: u64 = 0xBD;
const PROMPT: usize = 1024;
const GEN: usize = 8;
const SEQUENCES: usize = 8;
const PAGE_TOKENS: usize = 64;

fn run(
    decoder: &BitDecoder,
    attn: AttentionConfig,
    share: bool,
) -> (ServeSession, ServeSummary, Vec<u64>) {
    let pages_per_seq = (PROMPT + GEN).div_ceil(PAGE_TOKENS) + 1;
    // The unshared arm is the *cold* baseline: the content-addressed radix
    // cache (on by default) would otherwise dedup the identical prompts
    // even without a single fork, collapsing the comparison.
    let config = ServeConfig::new(SEQUENCES * pages_per_seq, PAGE_TOKENS, 2, SEQUENCES)
        .with_prefix_cache(share);
    let mut session = ServeSession::new(decoder.clone(), config);
    let mut ids: Vec<u64> = Vec::with_capacity(SEQUENCES);
    for i in 0..SEQUENCES {
        let model = Box::new(SynthSequence::forked(
            attn,
            PROMPT_SEED,
            i as u64,
            PROMPT,
            GEN,
        ));
        let id = if share && i > 0 {
            session
                .submit_forked(ids[0], model)
                .expect("parent was submitted")
        } else {
            session.submit(model).expect("request fits the pool")
        };
        ids.push(id);
    }
    let summary = session.run_to_completion();
    (session, summary, ids)
}

fn main() {
    let attn = AttentionConfig::gqa(8, 2, 64);
    let decoder = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build();

    println!("=== bd-serve: copy-on-write shared-prompt admission ===\n");
    println!("{SEQUENCES} requests x ({PROMPT}-token shared prompt + {GEN} generated tokens), {PAGE_TOKENS}-token pages\n");

    let (unshared, unshared_sum, unshared_ids) = run(&decoder, attn, false);
    let (shared, shared_sum, shared_ids) = run(&decoder, attn, true);

    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>16}",
        "mode", "peak_pages", "shared_pages", "forks", "bytes_deduped"
    );
    for (label, s) in [("unshared", &unshared_sum), ("shared", &shared_sum)] {
        println!(
            "{:>10} {:>12} {:>12} {:>8} {:>13} KiB",
            label,
            s.peak_physical_pages,
            s.peak_shared_pages,
            s.forks,
            s.peak_shared_bytes_saved / 1024,
        );
    }

    // 1. Bitwise identity: both runs equal each other and the
    //    per-sequence contiguous ground truth.
    let mut verified = 0;
    for i in 0..SEQUENCES {
        let want = replay_contiguous(
            &decoder,
            &mut SynthSequence::forked(attn, PROMPT_SEED, i as u64, PROMPT, GEN),
        );
        for (label, session, ids) in [
            ("unshared", &unshared, &unshared_ids),
            ("shared", &shared, &shared_ids),
        ] {
            assert_eq!(
                session.stream(ids[i]).expect("submitted"),
                want,
                "{label}: stream {i} diverged from contiguous decode"
            );
            verified += 1;
        }
    }

    // 2. Strictly smaller footprint at equal output.
    let (up, sp) = (
        unshared_sum.peak_physical_pages,
        shared_sum.peak_physical_pages,
    );
    assert!(
        sp < up,
        "sharing did not shrink the page footprint ({sp} vs {up})"
    );
    let forks = shared_sum.forks;
    assert_eq!(forks, SEQUENCES - 1, "every child admitted by forking");

    println!("\nverified: {verified}/16 streams bitwise-identical to contiguous decode");
    println!(
        "verified: shared run peaks at {sp} physical pages vs {up} unshared ({} fewer, {forks} forks)",
        up - sp
    );
}
