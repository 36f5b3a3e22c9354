//! Quickstart: build a quantized KV cache, decode one step with
//! BitDecoding, verify the output against full-precision attention, and
//! read the latency report.
//!
//! Run with: `cargo run --release --example quickstart`

use bitdecoding::core::reference_attention;
use bitdecoding::kvcache::TokenMatrix;
use bitdecoding::{AttentionConfig, BitDecoder, GpuArch, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A LLaMA-3-style GQA head group on an RTX 4090, 4-bit channel-wise.
    let attn = AttentionConfig::gqa(8, 2, 64);
    let dec = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .build();

    // Prefill 500 tokens of synthetic context into the cache: one flat
    // `tokens × head_dim` matrix per side. The codec is the fragment-true
    // quantizer shared by the Residual and Packing kernels — the
    // layout-induction trick of the paper.
    let mut cache = dec.new_cache(1);
    let codec = dec.codec();
    let context = TokenMatrix::from_fn(500, 64, |t, c| ((t * 64 + c) as f32 * 0.37).sin());
    let values = TokenMatrix::from_fn(500, 64, |t, c| ((t * 64 + c) as f32 * 0.53).cos());
    for head in 0..cache.heads() {
        cache.prefill(head, &context, &values, &codec)?;
    }
    println!(
        "cache: {} tokens packed in {} blocks + {} FP16 residual tokens ({} KiB total)",
        cache.len(0),
        cache.packed_blocks(0).len(),
        cache.residual_len(0),
        cache.total_bytes() / 1024,
    );

    // One decode step.
    let q: Vec<Vec<Vec<f32>>> = vec![(0..8)
        .map(|h| {
            (0..64)
                .map(|c| ((h * 64 + c) as f32 * 0.71).sin())
                .collect()
        })
        .collect()];
    let out = dec.decode(&q, &cache)?;

    // Check against FP32 attention over the original (unquantized) values.
    let mut worst = 0.0f32;
    for (q_head, out_head) in q[0].iter().zip(&out.outputs[0]) {
        let reference = reference_attention(
            std::slice::from_ref(q_head),
            &context,
            &values,
            attn.scale(),
        );
        for (got, want) in out_head.iter().zip(&reference[0]) {
            worst = worst.max((got - want).abs());
        }
    }
    println!("max |output - fp32 reference| = {worst:.4} (4-bit cache)");

    // The priced report for this step on the configured GPU.
    println!("\n{}", out.report);
    println!(
        "tensor-core utilization {:.1}%, dequant share {:.1}%",
        out.report.tc_utilization() * 100.0,
        out.report.dequant_fraction() * 100.0
    );
    Ok(())
}
