//! Cross-crate integration tests: the full pipeline from numeric formats
//! through fragment-true caching to functional decoding and pricing.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::reference_attention;
use bitdecoding::kvcache::TokenMatrix;
use bitdecoding::{
    AttentionConfig, BitDecoder, DecodeShape, GpuArch, OptimizationFlags, QuantScheme,
};

fn synth_kv(len: usize, dim: usize, seed: usize) -> (TokenMatrix, TokenMatrix) {
    let k = TokenMatrix::from_fn(len, dim, |t, c| ((seed + t * dim + c) as f32 * 0.37).sin());
    let v = TokenMatrix::from_fn(len, dim, |t, c| ((seed + t * dim + c) as f32 * 0.53).cos());
    (k, v)
}

fn synth_q(attn: &AttentionConfig, seed: usize) -> Vec<Vec<f32>> {
    (0..attn.heads_q)
        .map(|h| {
            (0..attn.head_dim)
                .map(|c| ((seed + h * attn.head_dim + c) as f32 * 0.71).sin())
                .collect()
        })
        .collect()
}

/// Functional decode matches FP32 reference attention within quantization
/// tolerance for every integer scheme, attention variant and architecture.
#[test]
fn decode_matches_reference_across_schemes_and_variants() {
    let cases = [
        (AttentionConfig::mha(4, 32), QuantScheme::kc4(), 0.05f32),
        (AttentionConfig::gqa(8, 2, 32), QuantScheme::kc4(), 0.05),
        (AttentionConfig::gqa(8, 2, 32), QuantScheme::kt4(), 0.08),
        (AttentionConfig::mqa(4, 32), QuantScheme::kc4(), 0.05),
        (AttentionConfig::gqa(8, 2, 32), QuantScheme::kc2(), 0.35),
    ];
    for arch in [GpuArch::rtx4090(), GpuArch::a100(), GpuArch::h100()] {
        for (attn, scheme, tol) in &cases {
            let dec = BitDecoder::builder(arch.clone())
                .attention(*attn)
                .scheme(*scheme)
                .build();
            let mut cache = dec.new_cache(1);
            let codec = dec.codec();
            let len = 300; // blocks + ragged residual
            let mut stored = Vec::new();
            for head in 0..cache.heads() {
                let (k, v) = synth_kv(len, attn.head_dim, head * 1000);
                cache.prefill(head, &k, &v, &codec).unwrap();
                stored.push((k, v));
            }
            let q = vec![synth_q(attn, 7)];
            let out = dec.decode(&q, &cache).unwrap();
            let gq = attn.group_factor();
            for h in 0..attn.heads_q {
                let (k, v) = &stored[h / gq];
                let reference = reference_attention(&[q[0][h].clone()], k, v, attn.scale());
                for (got, want) in out.outputs[0][h].iter().zip(&reference[0]) {
                    assert!(
                        (got - want).abs() < *tol,
                        "{} {} on {}: head {h}: {got} vs {want}",
                        attn,
                        scheme,
                        arch.name
                    );
                }
            }
        }
    }
}

/// Incremental decode: appending tokens one by one (with mid-stream block
/// flushes) gives the same answer as bulk prefill.
#[test]
fn incremental_append_equals_prefill() {
    let attn = AttentionConfig::gqa(4, 2, 32);
    let dec = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .build();
    let codec = dec.codec();
    let len = 200;

    let mut bulk = dec.new_cache(1);
    let mut incremental = dec.new_cache(1);
    for head in 0..bulk.heads() {
        let (k, v) = synth_kv(len, 32, head * 31);
        bulk.prefill(head, &k, &v, &codec).unwrap();
        for t in 0..len {
            incremental
                .append_token(head, &k[t], &v[t], &codec)
                .unwrap();
        }
        assert_eq!(bulk.len(head), incremental.len(head));
        assert_eq!(bulk.residual_len(head), incremental.residual_len(head));
    }
    let q = vec![synth_q(&attn, 3)];
    let a = dec.decode(&q, &bulk).unwrap();
    let b = dec.decode(&q, &incremental).unwrap();
    for (x, y) in a.outputs[0].iter().zip(&b.outputs[0]) {
        for (p, r) in x.iter().zip(y) {
            // Prefill quantizes blocks at identical boundaries, so outputs
            // must agree to FP16 noise.
            assert!((p - r).abs() < 1e-4, "{p} vs {r}");
        }
    }
}

/// The ablation matrix: every disabled optimization must cost performance,
/// and only cooperative-softmax / layout violations may cost correctness.
#[test]
fn ablations_cost_performance_not_correctness() {
    let attn = AttentionConfig::gqa(32, 8, 128);
    let shape = DecodeShape::new(8, attn, 16384).with_residual(64);
    let arch = GpuArch::rtx4090();

    let full = BitDecoder::builder(arch.clone()).attention(attn).build();
    let t_full = full.latency(&shape).total_s;

    for (name, flags) in [
        (
            "no layout induction",
            OptimizationFlags {
                layout_induction: false,
                ..OptimizationFlags::ALL
            },
        ),
        (
            "no warp parallelism",
            OptimizationFlags {
                warp_parallelism: false,
                cooperative_softmax: false,
                ..OptimizationFlags::ALL
            },
        ),
        (
            "no pipeline",
            OptimizationFlags {
                software_pipeline: false,
                ..OptimizationFlags::ALL
            },
        ),
    ] {
        let ablated = BitDecoder::builder(arch.clone())
            .attention(attn)
            .flags(flags)
            .build();
        let t = ablated.latency(&shape).total_s;
        assert!(t > t_full * 1.02, "{name}: {t} should exceed full {t_full}");
    }
}

/// Speedup-shape assertions straight from the paper's headline claims.
#[test]
fn headline_speedup_shapes_hold() {
    use bitdecoding::baselines::{speedup, BitDecodingSys, CudaOnly, FlashDecoding, Kivi};

    let gqa = AttentionConfig::gqa(32, 8, 128);
    let mha = AttentionConfig::mha(32, 128);
    let shape_gqa = DecodeShape::new(8, gqa, 8192).with_residual(64);
    let shape_mha = DecodeShape::new(8, mha, 8192).with_residual(64);

    let flash = FlashDecoding::v2();
    let bd = BitDecodingSys::kc4();

    // BitDecoding wins everywhere it runs.
    for arch in GpuArch::all() {
        let sp = speedup(&bd, &flash, &shape_gqa, &arch);
        assert!(sp > 1.5, "{}: BD speedup {sp}", arch.name);
    }

    // KIVI holds on MHA but collapses under GQA (4090).
    let ada = GpuArch::rtx4090();
    let kivi_mha = speedup(&Kivi::int4(), &flash, &shape_mha, &ada);
    let kivi_gqa = speedup(&Kivi::int4(), &flash, &shape_gqa, &ada);
    assert!(kivi_mha > 1.0 && kivi_gqa < kivi_mha * 0.75);

    // QServe beats FP16 on Ada but loses on the A100 for GQA.
    let qserve = CudaOnly::qserve();
    assert!(speedup(&qserve, &flash, &shape_gqa, &ada) > 1.0);
    assert!(speedup(&qserve, &flash, &shape_gqa, &GpuArch::a100()) < 1.0);

    // 2-bit beats 4-bit on bandwidth-starved GPUs; the gap narrows on A100.
    let kc2 = BitDecodingSys::kc2();
    let gap_ada = speedup(&kc2, &bd, &shape_gqa, &ada);
    let gap_a100 = speedup(&kc2, &bd, &shape_gqa, &GpuArch::a100());
    assert!(gap_ada > 1.0);
    assert!(gap_a100 < gap_ada);
}

/// FP4 on Blackwell: native path, no dequantization, biggest speedups.
#[test]
fn blackwell_fp4_path_is_fastest() {
    use bitdecoding::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding};
    let attn = AttentionConfig::gqa(32, 8, 128);
    let shape = DecodeShape::new(32, attn, 8192).with_residual(64);
    let arch = GpuArch::rtx5090();
    let flash = FlashDecoding::v2();
    let fp4 = BitDecodingSys::new(QuantScheme::mxfp4());
    let int4 = BitDecodingSys::kc4();
    let t_flash = flash.latency_s(&shape, &arch);
    let t_fp4 = fp4.latency_s(&shape, &arch);
    let t_int4 = int4.latency_s(&shape, &arch);
    assert!(t_fp4 < t_flash / 2.5, "fp4 {t_fp4} vs flash {t_flash}");
    // Native FP4 avoids dequantization; at minimum it is competitive.
    assert!(t_fp4 < t_int4 * 1.05, "fp4 {t_fp4} vs int4 {t_int4}");
    assert!(fp4.latency(&shape, &arch).dequant_fraction() < 1e-9);
}
