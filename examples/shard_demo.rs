//! Tensor-parallel decode end to end: six concurrent sequences decode
//! with their KV heads sharded across **four simulated devices**, each
//! with its own page arena and pinned worker group; per-head softmax
//! partials merge through the exact all-reduce, and every emitted token
//! stream is verified **bitwise** against both a single-device session and
//! the per-sequence contiguous `BitDecoder::decode` path.
//!
//! Run with: `cargo run --release --example shard_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::kvcache::Partitioning;
use bitdecoding::serve::{replay_contiguous, ServeConfig, ServeSession, SynthSequence};
use bitdecoding::{GpuArch, QuantScheme};

fn main() {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let scheme = QuantScheme::kc4();
    let arch = GpuArch::rtx4090();
    let devices = 4;
    let sequences = 6;
    let gen_tokens = 5;
    let decoder = BitDecoder::builder(arch)
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build();

    let config = ServeConfig::new(256, 64, 2, 8).with_devices(devices, Partitioning::HeadModulo);
    println!("=== bd-serve: tensor-parallel decode over sharded packed KV ===\n");
    println!(
        "{attn}, {scheme}, {} devices ({}), {} pages x {} tokens per device, {} workers per device\n",
        devices,
        config.partitioning,
        config.total_pages,
        config.page_tokens,
        config.workers,
    );

    let requests: Vec<(u64, usize)> = (0..sequences)
        .map(|i| (i as u64, 256 + 96 * (i % 3)))
        .collect();

    let mut session = ServeSession::new(decoder.clone(), config);
    let ids: Vec<_> = requests
        .iter()
        .map(|&(seed, prompt)| {
            session
                .submit(Box::new(SynthSequence::new(attn, seed, prompt, gen_tokens)))
                .expect("request fits the pool")
        })
        .collect();

    println!(
        "{:>5} {:>6} {:>10} {:>12} {:>10} {:>14} {:>12}",
        "step", "batch", "kv_tokens", "ar_bytes/dev", "ar_model_us", "kv_tok/s", "dev_util"
    );
    while let Some(m) = session.step() {
        let util: Vec<String> = m
            .per_device
            .iter()
            .map(|d| format!("{:.0}%", d.utilization * 100.0))
            .collect();
        println!(
            "{:>5} {:>6} {:>10} {:>12.0} {:>10.1} {:>14.0} {:>12}",
            m.step,
            m.batch,
            m.kv_tokens,
            m.allreduce_bytes_per_device,
            m.modeled_interconnect_s * 1e6,
            m.kv_tokens_per_s,
            util.join("/"),
        );
    }

    // A single-device twin of the same workload.
    let mut solo = ServeSession::new(decoder.clone(), ServeConfig::new(1024, 64, 2, 8));
    let solo_ids: Vec<_> = requests
        .iter()
        .map(|&(seed, prompt)| {
            solo.submit(Box::new(SynthSequence::new(attn, seed, prompt, gen_tokens)))
                .expect("request fits the pool")
        })
        .collect();
    solo.run_to_completion();

    // Bitwise verification against BOTH ground truths.
    let mut verified = 0;
    for ((&(seed, prompt), &id), &sid) in requests.iter().zip(&ids).zip(&solo_ids) {
        let want = replay_contiguous(
            &decoder,
            &mut SynthSequence::new(attn, seed, prompt, gen_tokens),
        );
        let got = session.stream(id).expect("submitted request");
        assert_eq!(
            got, want,
            "sharded stream of request {id} diverged from contiguous decode"
        );
        assert_eq!(
            got,
            solo.stream(sid).expect("submitted request"),
            "sharded stream of request {id} diverged from the single-device session"
        );
        assert!(session.is_finished(id));
        verified += 1;
    }

    // A heterogeneous twin: the same workload on the mixed 2×H100 + 2×A100
    // fleet, heads apportioned by each device's modeled throughput. The
    // fabric only prices communication — the streams stay bitwise.
    let topo = bitdecoding::builtin_topology("mixed_h100_a100").expect("shipped topology");
    println!(
        "\nheterogeneous fleet `{}`: {:?}",
        topo.name(),
        topo.device_archs()
            .iter()
            .map(|a| a.name.as_str())
            .collect::<Vec<_>>(),
    );
    let het_config = ServeConfig::new(256, 64, 2, 8).with_topology(topo);
    let mut het = ServeSession::new(decoder.clone(), het_config);
    let het_ids: Vec<_> = requests
        .iter()
        .map(|&(seed, prompt)| {
            het.submit(Box::new(SynthSequence::new(attn, seed, prompt, gen_tokens)))
                .expect("request fits the pool")
        })
        .collect();
    het.run_to_completion();
    for (&(seed, prompt), &id) in requests.iter().zip(&het_ids) {
        let want = replay_contiguous(
            &decoder,
            &mut SynthSequence::new(attn, seed, prompt, gen_tokens),
        );
        assert_eq!(
            het.stream(id).expect("submitted request"),
            want,
            "heterogeneous stream of request {id} diverged from contiguous decode"
        );
    }
    let het_heads: Vec<usize> = (0..het.devices())
        .map(|d| {
            het.store()
                .device_stats(bitdecoding::kvcache::DeviceId(d as u32))
                .heads
        })
        .collect();
    println!(
        "weighted head apportionment across H100/H100/A100/A100: {het_heads:?} — all {} streams bitwise-identical to contiguous decode",
        requests.len(),
    );

    println!("\nper-device storage after drain:");
    for d in 0..session.devices() {
        let stats = session
            .store()
            .device_stats(bitdecoding::kvcache::DeviceId(d as u32));
        println!(
            "  dev{d}: {} heads, {}/{} pages free, {} sequences evicted ({} pages recycled)",
            stats.heads,
            stats.free_pages,
            stats.total_pages,
            stats.evicted_seqs,
            stats.evicted_pages,
        );
    }
    println!(
        "\nverified: {verified}/{sequences} token streams bitwise-identical to single-device serve AND contiguous BitDecoder::decode across {devices} devices"
    );
}
