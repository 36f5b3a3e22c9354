//! Edge-case and failure-injection integration tests.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::baselines::DecodeSystem;
use bitdecoding::kvcache::TokenMatrix;
use bitdecoding::{
    AttentionConfig, BitDecoder, BitDecodingSys, DecodeShape, FlashDecoding, GpuArch, QuantScheme,
};

#[test]
fn decode_with_empty_cache_returns_zeros() {
    let dec = BitDecoder::builder(GpuArch::rtx4090())
        .attention(AttentionConfig::gqa(4, 2, 16))
        .build();
    let cache = dec.new_cache(1);
    let q = vec![vec![vec![0.5f32; 16]; 4]];
    let out = dec.decode(&q, &cache).unwrap();
    for head in &out.outputs[0] {
        for &x in head {
            assert_eq!(x, 0.0, "empty context must yield zero attention output");
        }
    }
}

#[test]
fn decode_with_residual_only_cache() {
    // Fewer tokens than one residual block: everything stays FP16.
    let dec = BitDecoder::builder(GpuArch::rtx4090())
        .attention(AttentionConfig::gqa(4, 2, 16))
        .build();
    let mut cache = dec.new_cache(1);
    let codec = dec.codec();
    let kv: TokenMatrix = (0..7).map(|t| vec![0.1 * t as f32; 16]).collect();
    for head in 0..cache.heads() {
        cache.prefill(head, &kv, &kv, &codec).unwrap();
    }
    assert!(cache.packed_blocks(0).is_empty());
    assert_eq!(cache.residual_len(0), 7);
    let q = vec![vec![vec![0.5f32; 16]; 4]];
    let out = dec.decode(&q, &cache).unwrap();
    assert!(out.outputs[0][0].iter().any(|&x| x != 0.0));
}

#[test]
fn single_token_context() {
    let dec = BitDecoder::builder(GpuArch::a100())
        .attention(AttentionConfig::mha(2, 16))
        .build();
    let mut cache = dec.new_cache(1);
    let codec = dec.codec();
    let token = vec![0.25f32; 16];
    for head in 0..cache.heads() {
        cache.append_token(head, &token, &token, &codec).unwrap();
    }
    let q = vec![vec![vec![1.0f32; 16]; 2]];
    let out = dec.decode(&q, &cache).unwrap();
    // Attention over a single token is exactly that token's V.
    for head in &out.outputs[0] {
        for &x in head {
            assert!((x - 0.25).abs() < 1e-3);
        }
    }
}

#[test]
fn extreme_values_survive_quantization() {
    // Values at the FP16 edge must not produce NaN/Inf anywhere.
    let dec = BitDecoder::builder(GpuArch::rtx4090())
        .attention(AttentionConfig::gqa(4, 2, 16))
        .scheme(QuantScheme::kc2())
        .build();
    let mut cache = dec.new_cache(1);
    let codec = dec.codec();
    let kv: TokenMatrix = (0..130)
        .map(|t| {
            (0..16)
                .map(|c| if (t + c) % 7 == 0 { 3000.0 } else { -0.01 })
                .collect()
        })
        .collect();
    for head in 0..cache.heads() {
        cache.prefill(head, &kv, &kv, &codec).unwrap();
    }
    let q = vec![vec![vec![0.01f32; 16]; 4]];
    let out = dec.decode(&q, &cache).unwrap();
    for head in &out.outputs[0] {
        for &x in head {
            assert!(x.is_finite(), "output must stay finite, got {x}");
        }
    }
}

#[test]
fn zero_length_shapes_price_to_launch_overhead() {
    let sys = BitDecodingSys::kc4();
    let arch = GpuArch::a100();
    let shape = DecodeShape::new(1, AttentionConfig::gqa(32, 8, 128), 1).with_residual(1);
    let lat = sys.latency_s(&shape, &arch);
    assert!(lat > 0.0 && lat < 100e-6, "tiny shape latency {lat}");
}

#[test]
fn latency_monotone_in_batch_and_length() {
    let sys = FlashDecoding::v2();
    let arch = GpuArch::h100();
    let attn = AttentionConfig::gqa(32, 8, 128);
    let mut last = 0.0;
    for len in [1024usize, 4096, 16384, 65536] {
        let t = sys.latency_s(&DecodeShape::new(4, attn, len), &arch);
        assert!(t > last, "latency must grow with context");
        last = t;
    }
    let mut last = 0.0;
    for bs in [1usize, 4, 16, 64] {
        let t = sys.latency_s(&DecodeShape::new(bs, attn, 8192), &arch);
        assert!(t > last * 0.99, "latency must not shrink with batch");
        last = t;
    }
}

#[test]
fn mqa_extreme_grouping_works() {
    // MQA with 32 query heads per single KV head: the query transform
    // fills two full 16-row MMA tiles.
    let attn = AttentionConfig::mqa(32, 32);
    let dec = BitDecoder::builder(GpuArch::h100()).attention(attn).build();
    let mut cache = dec.new_cache(1);
    let codec = dec.codec();
    let kv: TokenMatrix = (0..150)
        .map(|t| vec![(t as f32 * 0.01).sin(); 32])
        .collect();
    cache.prefill(0, &kv, &kv, &codec).unwrap();
    let q = vec![(0..32).map(|h| vec![0.1 * (h % 5) as f32; 32]).collect()];
    let out = dec.decode(&q, &cache).unwrap();
    assert_eq!(out.outputs[0].len(), 32);
}

#[test]
fn all_archs_price_all_integer_schemes() {
    let attn = AttentionConfig::gqa(32, 8, 128);
    let shape = DecodeShape::new(8, attn, 8192).with_residual(64);
    for arch in GpuArch::all() {
        for scheme in [
            QuantScheme::kt4(),
            QuantScheme::kc4(),
            QuantScheme::kt2(),
            QuantScheme::kc2(),
        ] {
            let sys = BitDecodingSys::new(scheme);
            let lat = sys.latency_s(&shape, &arch);
            assert!(lat.is_finite() && lat > 0.0, "{} {}", arch.name, scheme);
        }
    }
}

#[test]
fn fp4_scheme_on_non_blackwell_falls_back_to_dequant() {
    // MXFP4 data on an A100 must run the SM80 dequant path, not panic.
    let sys = BitDecodingSys::new(QuantScheme::mxfp4());
    let shape = DecodeShape::new(8, AttentionConfig::gqa(32, 8, 128), 8192).with_residual(64);
    let lat = sys.latency(&shape, &GpuArch::a100());
    assert!(lat.total.is_finite());
    assert!(lat.dequant_fraction() > 0.0, "fallback must dequantize");
}
