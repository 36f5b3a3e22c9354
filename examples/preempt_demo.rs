//! Preemption under page pressure, end to end: a big request owns an
//! over-subscribed page pool when small requests arrive. Under plain FCFS
//! the small requests starve behind it; under `FcfsPreempt` the scheduler
//! swaps the big sequence out (packed pages + FP16 residual window into a
//! host-side blob), serves the small ones, and swaps it back in bitwise.
//!
//! The demo runs the same workload under `Fcfs`, `FcfsPreempt`, and
//! `ShortestRemainingFirst` and asserts that
//!
//! 1. every stream under every policy is **bitwise identical** to the
//!    uninterrupted per-sequence contiguous decode — preemption moves
//!    *when* sequences run, never *what* they emit — and
//! 2. the late small requests complete in **strictly fewer steps** under
//!    `FcfsPreempt` than under `Fcfs` (no head-of-line starvation).
//!
//! Run with: `cargo run --release --example preempt_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::serve::{
    replay_contiguous, FcfsPreempt, SchedulerPolicy, ServeConfig, ServeSession, ServeSummary,
    ShortestRemainingFirst, SynthSequence,
};
use bitdecoding::{GpuArch, QuantScheme};

/// (seed, prompt, gen, arrival step) — one big early request plus three
/// small late arrivals.
const REQUESTS: [(u64, usize, usize, usize); 4] =
    [(0, 448, 40, 0), (1, 48, 4, 5), (2, 48, 4, 6), (3, 48, 4, 7)];

fn run(
    decoder: &BitDecoder,
    attn: AttentionConfig,
    policy: Option<Box<dyn SchedulerPolicy>>,
) -> (ServeSession, ServeSummary, Vec<u64>) {
    // 16 pages × 32 tokens: request 0 alone reserves 16 pages — the pool
    // is sized for roughly half the offered load.
    let mut session = ServeSession::new(decoder.clone(), ServeConfig::new(16, 32, 2, 8));
    if let Some(p) = policy {
        session = session.with_policy(p);
    }
    let ids = REQUESTS
        .iter()
        .map(|&(seed, prompt, gen, at)| {
            session
                .submit_at(at, Box::new(SynthSequence::new(attn, seed, prompt, gen)))
                .expect("request fits the pool")
        })
        .collect();
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

    println!("=== bd-serve: scheduler policies under page pressure ===\n");
    println!("pool 16 pages x 32 tokens; request 0 reserves all 16; small requests arrive at steps 5-7\n");

    let runs: Vec<(ServeSession, ServeSummary, Vec<u64>)> = vec![
        run(&decoder, attn, None),
        run(&decoder, attn, Some(Box::new(FcfsPreempt::default()))),
        run(&decoder, attn, Some(Box::new(ShortestRemainingFirst))),
    ];

    println!(
        "{:>26} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "policy", "req0_done", "req1_done", "req2_done", "req3_done", "swap_KiB"
    );
    for (session, summary, ids) in &runs {
        let done: Vec<usize> = ids
            .iter()
            .map(|id| session.completion_step(*id).expect("completed"))
            .collect();
        println!(
            "{:>26} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
            session.policy_label(),
            done[0],
            done[1],
            done[2],
            done[3],
            summary.swap_bytes / 1024.0,
        );
    }

    // 1. Bitwise identity under every policy.
    let mut verified = 0;
    for (session, _, ids) in &runs {
        for (&(seed, prompt, gen, _), id) in REQUESTS.iter().zip(ids) {
            let want =
                replay_contiguous(&decoder, &mut SynthSequence::new(attn, seed, prompt, gen));
            assert_eq!(
                session.stream(*id).expect("submitted"),
                want,
                "{}: stream {id} diverged from contiguous decode",
                session.policy_label()
            );
            verified += 1;
        }
    }

    // 2. No head-of-line starvation: each late small request completes
    // strictly earlier under FcfsPreempt than under Fcfs.
    let (fcfs, _, fcfs_ids) = &runs[0];
    let (pre, pre_summary, pre_ids) = &runs[1];
    let mut preempt_wins = 0;
    for i in 1..REQUESTS.len() {
        let f = fcfs.completion_step(fcfs_ids[i]).unwrap();
        let p = pre.completion_step(pre_ids[i]).unwrap();
        assert!(
            p < f,
            "request {i}: FcfsPreempt ({p}) not strictly earlier than Fcfs ({f})"
        );
        preempt_wins += 1;
    }
    let preemptions = pre_summary.preemptions;
    assert!(preemptions > 0, "the preempting run never preempted");

    println!(
        "\nverified: {verified}/12 streams bitwise-identical to contiguous decode across 3 policies"
    );
    println!(
        "verified: {preempt_wins}/3 late arrivals complete strictly earlier under fcfs-preempt ({preemptions} preemptions)"
    );
}
