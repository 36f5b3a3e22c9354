//! Multi-tenant paged serving: admit as many 32K-context sequences as the
//! page pool allows and measure sustained decode throughput — the paper's
//! "Pages" setting (§VI-B, Fig. 13).
//!
//! Run with: `cargo run --release --example paged_serving`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::kvcache::PagedPool;
use bitdecoding::llm::{max_throughput, MemoryModel, ModelConfig, WeightPrecision};
use bitdecoding::{BitDecodingSys, CudaOnly, DecodeSystem, FlashDecoding, GpuArch};

fn main() {
    let arch = GpuArch::a100();
    let seq_len = 32768;
    println!("=== Paged serving at {seq_len} tokens/sequence on {arch} ===\n");

    // Demonstrate the page pool directly: admission, growth, release.
    let model = ModelConfig::llama31_8b();
    let bd = BitDecodingSys::kc4().paged(true);
    let mem = MemoryModel::new(&model, &arch, WeightPrecision::Fp16);
    let bytes_per_token =
        bd.kv_bytes_per_token(&model.attention()) * model.layers as f64 / model.gpus as f64;
    let mut pool = PagedPool::with_budget(mem.free_bytes(), 64, bytes_per_token);
    println!(
        "page pool: {} pages x {} tokens ({:.1} GB budget)",
        pool.total_pages(),
        pool.page_tokens(),
        mem.free_bytes() / 1e9
    );
    let mut admitted = Vec::new();
    loop {
        let seq = pool.admit();
        if pool.grow(seq, seq_len).is_err() {
            pool.release(seq);
            break;
        }
        admitted.push(seq);
    }
    println!(
        "admitted {} sequences, pool utilization {:.1}%",
        admitted.len(),
        pool.utilization() * 100.0
    );
    // A finished sequence frees pages for a new admission.
    pool.release(admitted.pop().expect("at least one"));
    let replacement = pool.admit();
    assert!(pool.grow(replacement, seq_len).is_ok());
    println!("released one sequence and admitted a replacement\n");

    // Throughput table across models and systems.
    println!(
        "{:<18}{:>22}{:>22}{:>22}",
        "model", "FlashDecoding-v2", "QServe (W4)", "BitDecoding KC-4"
    );
    let fp16 = FlashDecoding::v2();
    let qserve = CudaOnly::qserve();
    for model in ModelConfig::all() {
        let f = max_throughput(model, &fp16, arch.clone(), WeightPrecision::Fp16, seq_len);
        let q = max_throughput(model, &qserve, arch.clone(), WeightPrecision::Int4, seq_len);
        let b = max_throughput(model, &bd, arch.clone(), WeightPrecision::Fp16, seq_len);
        println!(
            "{:<18}{:>14.1} (bs{:>3}){:>14.1} (bs{:>3}){:>14.1} (bs{:>3})",
            model.name, f.tokens_per_s, f.batch, q.tokens_per_s, q.batch, b.tokens_per_s, b.batch
        );
    }
}
