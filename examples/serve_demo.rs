//! The batched decode runtime end to end: eight concurrent sequences
//! decode through `PagedKvStore`'s page-table indirection on a persistent
//! worker pool, and every emitted token stream is verified **bitwise**
//! against the per-sequence contiguous `BitDecoder::decode` path.
//!
//! Run with: `cargo run --release --example serve_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::serve::{replay_contiguous, ServeConfig, ServeSession, SynthSequence};
use bitdecoding::{GpuArch, QuantScheme};

fn main() {
    let attn = AttentionConfig::gqa(8, 2, 64);
    let scheme = QuantScheme::kc4();
    let arch = GpuArch::rtx4090();
    let sequences = 8;
    let gen_tokens = 6;
    let decoder = BitDecoder::builder(arch)
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build();

    let config = ServeConfig::new(1024, 64, 4, 16);
    println!("=== bd-serve: batched decode over paged packed KV ===\n");
    println!(
        "{attn}, {scheme}, {} pages x {} tokens, {} workers, max batch {}\n",
        config.total_pages, config.page_tokens, config.workers, config.max_batch
    );

    let mut session = ServeSession::new(decoder.clone(), config);
    let requests: Vec<(u64, usize)> = (0..sequences)
        .map(|i| (i as u64, 512 + 128 * (i % 4)))
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
        "{:>5} {:>6} {:>10} {:>10} {:>14} {:>12} {:>10}",
        "step", "batch", "kv_tokens", "wall_ms", "kv_tok/s", "dequant_ops", "pool_util"
    );
    while let Some(m) = session.step() {
        println!(
            "{:>5} {:>6} {:>10} {:>10.2} {:>14.0} {:>12} {:>9.1}%",
            m.step,
            m.batch,
            m.kv_tokens,
            m.wall_s * 1e3,
            m.kv_tokens_per_s,
            m.dequant.total(),
            m.pool_utilization * 100.0,
        );
    }

    // Bitwise verification: every stream must equal the single-sequence
    // contiguous decode of the same request.
    let mut verified = 0;
    for (&(seed, prompt), &id) in requests.iter().zip(&ids) {
        let want = replay_contiguous(
            &decoder,
            &mut SynthSequence::new(attn, seed, prompt, gen_tokens),
        );
        let got = session.stream(id).expect("submitted request");
        assert_eq!(
            got, want,
            "stream of request {id} diverged from contiguous decode"
        );
        assert!(session.is_finished(id));
        verified += 1;
    }
    println!("\nstreams ({gen_tokens} tokens each):");
    for (&(seed, prompt), &id) in requests.iter().zip(&ids) {
        let toks: Vec<String> = session
            .stream(id)
            .unwrap()
            .iter()
            .map(|t| format!("{t:08x}"))
            .collect();
        println!(
            "  req {id} (seed {seed}, prompt {prompt:>4}): {}",
            toks.join(" ")
        );
    }
    println!(
        "\nverified: {verified}/{sequences} token streams bitwise-identical to contiguous BitDecoder::decode"
    );
    println!(
        "pages in use after drain: {} (all recycled)",
        session.store().total_pages() - session.store().free_pages()
    );
}
