//! Graceful degradation end to end: five concurrent sequences decode
//! across **four simulated devices** when a fault plan kills one device
//! mid-run. The session quarantines it, rebuilds the placement over the
//! three survivors, and recovers every affected sequence by
//! recompute-from-prompt re-admission — then every surviving stream is
//! verified **bitwise** against the uninterrupted contiguous
//! `BitDecoder::decode` replay: the loss changed *when* tokens arrived,
//! never *which* tokens.
//!
//! Run with: `cargo run --release --example fault_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::kvcache::Partitioning;
use bitdecoding::serve::{replay_contiguous, FaultPlan, ServeConfig, ServeSession, SynthSequence};
use bitdecoding::{GpuArch, QuantScheme};

fn main() {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let scheme = QuantScheme::kc4();
    let devices = 4;
    let sequences = 5;
    let gen_tokens = 8;
    let kill_step = 3;
    let decoder = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build();

    let config = ServeConfig::new(256, 64, 2, 8).with_devices(devices, Partitioning::HeadModulo);
    println!("=== bd-serve: device loss mid-run, recovery, bitwise streams ===\n");
    println!(
        "{attn}, {scheme}, {devices} devices ({}), {} pages x {} tokens per device",
        config.partitioning, config.total_pages, config.page_tokens,
    );
    println!("fault plan: kill device 2 at decode step {kill_step}\n");

    let plan = FaultPlan::new().device_loss(kill_step, 2);
    let mut session = ServeSession::new(decoder.clone(), config).with_faults(plan);
    let requests: Vec<(u64, usize)> = (0..sequences)
        .map(|i| (i as u64, 192 + 64 * (i % 3)))
        .collect();
    let ids: Vec<_> = requests
        .iter()
        .map(|&(seed, prompt)| {
            session
                .submit(Box::new(SynthSequence::new(attn, seed, prompt, gen_tokens)))
                .expect("request fits the pool")
        })
        .collect();

    println!(
        "{:>5} {:>5} {:>8} {:>7} {:>7} {:>10} {:>9} {:>9}",
        "step", "batch", "devices", "faults", "recov", "kv_tokens", "degraded", "completed"
    );
    let summary = session.run_to_completion();
    for m in session.metrics() {
        println!(
            "{:>5} {:>5} {:>8} {:>7} {:>7} {:>10} {:>9} {:>9}",
            m.step,
            m.batch,
            m.devices,
            m.faults_injected,
            m.recoveries,
            m.kv_tokens,
            m.degraded,
            m.completed,
        );
    }

    let (summary_faults, recoveries) = (summary.faults_injected, summary.recoveries);
    assert_eq!(summary_faults, 1, "the planned loss must fire exactly once");
    assert!(recoveries >= 1, "in-flight sequences must recover");
    assert_eq!(session.devices(), devices - 1);
    assert_eq!(session.lost_devices(), &[2]);

    println!(
        "\nsurviving devices: {}   lost: {:?}",
        session.devices(),
        session.lost_devices()
    );
    println!("faults injected: {summary_faults}   recompute recoveries: {recoveries}");

    // The acceptance bar: every stream — including those mid-decode when
    // the device died — is bitwise identical to an uninterrupted
    // contiguous replay.
    for (i, (&(seed, prompt), id)) in requests.iter().zip(&ids).enumerate() {
        let stream = session.stream(*id).expect("request completed");
        let mut model = SynthSequence::new(attn, seed, prompt, gen_tokens);
        let want = replay_contiguous(&decoder, &mut model);
        assert_eq!(
            stream,
            want.as_slice(),
            "request {i} diverged after device loss"
        );
        println!(
            "request {i}: {} tokens, bitwise == contiguous replay  [{}]",
            stream.len(),
            stream
                .iter()
                .take(4)
                .map(|t| format!("{t:08x}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    assert_eq!(
        session.store().free_pages(),
        session.store().devices() * 256,
        "pages leaked across the rebuild"
    );
    println!(
        "\nall {sequences} streams bitwise identical to uninterrupted replay; no pages leaked"
    );
}
