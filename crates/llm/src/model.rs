//! LLM architecture configurations for the end-to-end evaluation
//! (paper §VI-B: LLaMA-2-7B, LLaMA-3.1-8B/70B, Qwen3-8B/14B).

use bd_core::AttentionConfig;
use std::fmt;

/// A transformer decoder architecture (public config values).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    /// Model name.
    pub name: &'static str,
    /// Decoder layers.
    pub layers: usize,
    /// Model (hidden) dimension.
    pub hidden: usize,
    /// Query heads.
    pub heads_q: usize,
    /// KV heads.
    pub heads_kv: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// FFN intermediate dimension (SwiGLU).
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Tensor-parallel GPUs used in the paper's evaluation.
    pub gpus: usize,
}

impl ModelConfig {
    /// LLaMA-2-7B (MHA).
    pub(crate) const fn llama2_7b() -> Self {
        ModelConfig {
            name: "llama-2-7B",
            layers: 32,
            hidden: 4096,
            heads_q: 32,
            heads_kv: 32,
            head_dim: 128,
            intermediate: 11008,
            vocab: 32000,
            gpus: 1,
        }
    }

    /// LLaMA-3.1-8B (GQA, g_q = 4).
    pub const fn llama31_8b() -> Self {
        ModelConfig {
            name: "llama-3.1-8B",
            layers: 32,
            hidden: 4096,
            heads_q: 32,
            heads_kv: 8,
            head_dim: 128,
            intermediate: 14336,
            vocab: 128256,
            gpus: 1,
        }
    }

    /// LLaMA-3.1-70B (GQA, g_q = 8, 8-way tensor parallel).
    pub(crate) const fn llama31_70b() -> Self {
        ModelConfig {
            name: "llama-3.1-70B",
            layers: 80,
            hidden: 8192,
            heads_q: 64,
            heads_kv: 8,
            head_dim: 128,
            intermediate: 28672,
            vocab: 128256,
            gpus: 8,
        }
    }

    /// Qwen3-8B (GQA).
    pub(crate) const fn qwen3_8b() -> Self {
        ModelConfig {
            name: "Qwen3-8B",
            layers: 36,
            hidden: 4096,
            heads_q: 32,
            heads_kv: 8,
            head_dim: 128,
            intermediate: 12288,
            vocab: 151936,
            gpus: 1,
        }
    }

    /// Qwen3-14B (GQA).
    pub(crate) const fn qwen3_14b() -> Self {
        ModelConfig {
            name: "Qwen3-14B",
            layers: 40,
            hidden: 5120,
            heads_q: 40,
            heads_kv: 8,
            head_dim: 128,
            intermediate: 17408,
            vocab: 151936,
            gpus: 1,
        }
    }

    /// The five evaluation models in paper order.
    pub fn all() -> Vec<ModelConfig> {
        vec![
            ModelConfig::llama2_7b(),
            ModelConfig::llama31_8b(),
            ModelConfig::llama31_70b(),
            ModelConfig::qwen3_8b(),
            ModelConfig::qwen3_14b(),
        ]
    }

    /// Attention head structure.
    pub fn attention(&self) -> AttentionConfig {
        AttentionConfig::new(self.heads_q, self.heads_kv, self.head_dim)
    }

    /// Total parameter count (attention + SwiGLU MLP + embeddings + head).
    pub(crate) fn param_count(&self) -> f64 {
        let d = self.hidden as f64;
        let attn = d * (self.heads_q + 2 * self.heads_kv) as f64 * self.head_dim as f64
            + (self.heads_q * self.head_dim) as f64 * d;
        let mlp = 3.0 * d * self.intermediate as f64;
        let per_layer = attn + mlp + 2.0 * d; // + norms
        self.layers as f64 * per_layer + 2.0 * d * self.vocab as f64
    }

    /// FP16 weight bytes per GPU (tensor-parallel shards split evenly).
    pub(crate) fn weight_bytes_fp16_per_gpu(&self) -> f64 {
        self.param_count() * 2.0 / self.gpus as f64
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_baselines::{DecodeSystem, FlashDecoding};
    use bd_core::AttentionVariant;

    #[test]
    fn param_counts_near_nameplates() {
        let cases = [
            (ModelConfig::llama2_7b(), 6.7e9),
            (ModelConfig::llama31_8b(), 8.0e9),
            (ModelConfig::llama31_70b(), 70.0e9),
            (ModelConfig::qwen3_8b(), 8.2e9),
            (ModelConfig::qwen3_14b(), 14.8e9),
        ];
        for (m, expect) in cases {
            let got = m.param_count();
            let ratio = got / expect;
            assert!(
                (0.8..1.2).contains(&ratio),
                "{}: {got:.2e} vs nameplate {expect:.2e}",
                m.name
            );
        }
    }

    #[test]
    fn only_llama2_is_mha() {
        assert_eq!(
            ModelConfig::llama2_7b().attention().variant(),
            AttentionVariant::Mha
        );
        for m in [
            ModelConfig::llama31_8b(),
            ModelConfig::llama31_70b(),
            ModelConfig::qwen3_8b(),
            ModelConfig::qwen3_14b(),
        ] {
            assert_eq!(m.attention().variant(), AttentionVariant::Gqa, "{}", m.name);
        }
    }

    #[test]
    fn kv_bytes_match_paper_formula() {
        // 2 · n_layers · h_kv · d · 2 bytes (the paper's §II formula).
        let m = ModelConfig::llama31_8b();
        assert_eq!(
            FlashDecoding::v2().kv_bytes_per_token(&m.attention()) * m.layers as f64,
            2.0 * 32.0 * 8.0 * 128.0 * 2.0
        );
    }

    #[test]
    fn tensor_parallel_divides_memory() {
        let m = ModelConfig::llama31_70b();
        assert!(m.weight_bytes_fp16_per_gpu() < 2.0 * m.param_count() / 4.0);
    }
}
