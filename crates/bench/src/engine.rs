//! End-to-end decode-step simulation: attention kernels (from any
//! [`DecodeSystem`]) plus the projection/MLP GEMMs, per layer, per GPU.

use crate::baselines::DecodeSystem;
use crate::model::ModelConfig;
use bd_gpu_sim::{GpuArch, InterconnectModel, KernelProfile, OverlapSpec};

/// Weight precision of the serving stack (QServe runs W4, others FP16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightPrecision {
    /// FP16 weights.
    Fp16,
    /// 4-bit weights with in-GEMM dequantization (QServe W4A8).
    Int4,
}

impl WeightPrecision {
    fn bytes_per_param(self) -> f64 {
        match self {
            WeightPrecision::Fp16 => 2.0,
            WeightPrecision::Int4 => 0.53, // 4-bit + group metadata
        }
    }
}

/// An end-to-end engine: a model served by an attention system on a GPU.
pub struct Engine<'a> {
    /// Model architecture.
    pub(crate) model: ModelConfig,
    /// Attention decode system.
    pub(crate) system: &'a dyn DecodeSystem,
    /// Target GPU (each of `model.gpus` identical).
    pub(crate) arch: GpuArch,
    /// Weight precision.
    pub(crate) weights: WeightPrecision,
    /// The link model pricing tensor-parallel all-reduces when
    /// `model.gpus > 1`.
    pub(crate) interconnect: InterconnectModel,
}

impl<'a> Engine<'a> {
    /// Creates an engine with FP16 weights and an NVLink-class (300 GB/s
    /// effective) interconnect.
    pub fn new(model: ModelConfig, system: &'a dyn DecodeSystem, arch: GpuArch) -> Self {
        Engine {
            model,
            system,
            arch,
            weights: WeightPrecision::Fp16,
            interconnect: InterconnectModel::new(300.0, 3.0),
        }
    }

    /// Sets the weight precision (builder style).
    pub(crate) fn with_weights(mut self, weights: WeightPrecision) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the interconnect link model (builder style).
    #[cfg(test)]
    fn with_interconnect(mut self, interconnect: InterconnectModel) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// GEMM profile for all of one decode step's linear layers on one GPU
    /// (QKV/O projections + SwiGLU MLP for every layer + LM head), at batch
    /// size `batch`. Decode GEMMs are weight-traffic bound at practical
    /// batch sizes.
    pub(crate) fn linear_profile(&self, batch: usize) -> KernelProfile {
        let m = &self.model;
        let weight_bytes = m.param_count() * self.weights.bytes_per_param() / m.gpus as f64;
        let act_bytes = batch as f64 * m.hidden as f64 * 2.0 * (4.0 * m.layers as f64);
        let macs = m.param_count() * batch as f64 / m.gpus as f64;

        let mut p = KernelProfile::new("linear-layers");
        p.dram_read_bytes = weight_bytes + act_bytes;
        p.dram_write_bytes = act_bytes;
        p.tc_macs_fp16 = macs;
        if self.weights == WeightPrecision::Int4 {
            // In-GEMM weight dequantization on CUDA cores.
            p.cuda.dequant = m.param_count() / m.gpus as f64 * 1.5;
        }
        // One fused launch per layer segment (projection + MLP), plus head.
        p.launches = 2.0 * m.layers as f64 + 1.0;
        p.ctas = 8.0 * m.layers as f64;
        p.warps_per_cta = 8.0;
        p.overlap = OverlapSpec {
            tc_cuda: 0.9,
            mem_compute: 0.9,
        };
        p
    }

    /// Fixed per-step serving-stack overhead (scheduler, sampling, python
    /// dispatch) — present in every measured system, roughly constant.
    pub(crate) const STACK_OVERHEAD_S: f64 = 4e-3;

    /// Latency of one decode step (seconds): per-layer attention + all
    /// linear GEMMs + stack overhead (+ a small tensor-parallel all-reduce
    /// cost per layer for multi-GPU models).
    pub fn decode_step_latency(&self, batch: usize, seq_len: usize) -> f64 {
        let linear = self.arch.evaluate(&self.linear_profile(batch)).total;
        self.attention_step_latency(batch, seq_len)
            + linear
            + self.tp_allreduce_s(batch)
            + Self::STACK_OVERHEAD_S
    }

    /// Tensor-parallel communication per decode step: a ring all-reduce of
    /// the hidden activations on the [`InterconnectModel`], twice per
    /// layer (after attention-out and after the MLP). Zero for a
    /// single-GPU model.
    pub(crate) fn tp_allreduce_s(&self, batch: usize) -> f64 {
        if self.model.gpus <= 1 {
            return 0.0;
        }
        let bytes = batch as f64 * self.model.hidden as f64 * 2.0;
        2.0 * self.model.layers as f64 * self.interconnect.allreduce_s(bytes, self.model.gpus)
    }

    /// Attention-only latency of one decode step across all layers —
    /// isolates the quantity BitDecoding accelerates (weight streaming and
    /// stack overheads are identical across attention systems).
    pub fn attention_step_latency(&self, batch: usize, seq_len: usize) -> f64 {
        // One layer's shape, with a typical half-full residual region.
        let shape = crate::shape(batch, self.model.attention(), seq_len);
        self.system.latency_s(&shape, &self.arch) * self.model.layers as f64
    }

    /// Decode throughput in generated tokens per second at a batch size.
    pub(crate) fn throughput(&self, batch: usize, seq_len: usize) -> f64 {
        batch as f64 / self.decode_step_latency(batch, seq_len)
    }

    /// Prefill latency for a context of `seq_len` (compute-bound flash
    /// prefill + weight streaming), used by generation-latency figures.
    pub(crate) fn prefill_latency(&self, seq_len: usize) -> f64 {
        let m = &self.model;
        let flops = 2.0 * m.param_count() * seq_len as f64 / m.gpus as f64
            + 4.0 * m.layers as f64 * (m.heads_q * m.head_dim) as f64 * (seq_len as f64).powi(2)
                / m.gpus as f64;
        let t_compute = flops / (self.arch.tc_fp16_tflops * 1e12 * 0.6);
        let t_weights = m.param_count() * self.weights.bytes_per_param()
            / m.gpus as f64
            / self.arch.effective_bw_bytes();
        t_compute.max(t_weights)
    }

    /// Full generation latency: prefill of `seq_len` then `gen_tokens`
    /// decode steps as the context grows.
    pub(crate) fn generation_latency(
        &self,
        batch: usize,
        seq_len: usize,
        gen_tokens: usize,
    ) -> f64 {
        // The context grows negligibly relative to long prompts; sample the
        // step latency at the midpoint.
        let mid = seq_len + gen_tokens / 2;
        self.prefill_latency(seq_len) + gen_tokens as f64 * self.decode_step_latency(batch, mid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BitDecodingSys, FlashDecoding};

    #[test]
    fn weight_traffic_floors_small_batch_latency() {
        let fp16 = FlashDecoding::v2();
        let engine = Engine::new(ModelConfig::llama31_8b(), &fp16, GpuArch::a100());
        let t = engine.decode_step_latency(1, 1024);
        // 16 GB of weights over ~1.6 TB/s ≈ 9.6 ms floor.
        assert!(t > 8e-3, "step {t}");
        assert!(t < 25e-3, "step {t}");
    }

    #[test]
    fn long_context_grows_attention_share() {
        let fp16 = FlashDecoding::v2();
        let engine = Engine::new(ModelConfig::llama31_8b(), &fp16, GpuArch::a100());
        let short = engine.decode_step_latency(1, 1024);
        let long = engine.decode_step_latency(1, 131072);
        assert!(long > short * 1.3, "short {short} long {long}");
        // At 128K the attention share is roughly half the step.
        let attn = engine.attention_step_latency(1, 131072);
        assert!(attn > 0.3 * long, "attention {attn} of step {long}");
    }

    #[test]
    fn bitdecoding_speedup_at_128k() {
        // Paper §VI-B headline: 3x single-batch latency reduction at 128K.
        // Our weight-streaming model runs near roofline, so the e2e ratio
        // is smaller; the attention-layer speedup carries the 3-4x factor.
        let fp16 = FlashDecoding::v2();
        let bd = BitDecodingSys::kc4();
        let model = ModelConfig::llama31_8b();
        let arch = GpuArch::a100();
        let e_fp16 = Engine::new(model, &fp16, arch.clone());
        let e_bd = Engine::new(model, &bd, arch);
        let e2e = e_fp16.decode_step_latency(1, 131072) / e_bd.decode_step_latency(1, 131072);
        let attn =
            e_fp16.attention_step_latency(1, 131072) / e_bd.attention_step_latency(1, 131072);
        assert!(e2e > 1.25, "e2e 128K speedup {e2e}");
        assert!(attn > 2.5 && attn < 6.0, "attention 128K speedup {attn}");
        // Speedup must grow with context (the Fig. 12a shape).
        let e2e_32k = e_fp16.decode_step_latency(1, 32768) / e_bd.decode_step_latency(1, 32768);
        assert!(e2e > e2e_32k, "speedup must grow with context");
    }

    #[test]
    fn throughput_scales_with_batch_then_saturates() {
        let bd = BitDecodingSys::kc4();
        let engine = Engine::new(ModelConfig::llama31_8b(), &bd, GpuArch::a100());
        let t1 = engine.throughput(1, 4096);
        let t16 = engine.throughput(16, 4096);
        let t64 = engine.throughput(64, 4096);
        assert!(t16 > t1 * 6.0, "batching must help: {t1} -> {t16}");
        assert!(t64 > t16, "more batch, more throughput");
        assert!(t64 < t16 * 4.0, "sub-linear at scale");
    }

    #[test]
    fn multi_gpu_70b_steps_are_plausible() {
        let bd = BitDecodingSys::kc4();
        let engine = Engine::new(ModelConfig::llama31_70b(), &bd, GpuArch::a100());
        let t = engine.decode_step_latency(8, 32768);
        assert!(t > 5e-3 && t < 0.2, "70B step {t}");
    }

    #[test]
    fn tp_allreduce_is_charged_on_the_link_model() {
        let bd = BitDecodingSys::kc4();
        let single = Engine::new(ModelConfig::llama31_8b(), &bd, GpuArch::a100());
        assert_eq!(single.tp_allreduce_s(8), 0.0, "1 GPU = no communication");
        let fast = Engine::new(ModelConfig::llama31_70b(), &bd, GpuArch::a100());
        let slow = Engine::new(ModelConfig::llama31_70b(), &bd, GpuArch::a100())
            .with_interconnect(InterconnectModel::pcie_gen5());
        assert!(fast.tp_allreduce_s(8) > 0.0);
        assert!(
            slow.tp_allreduce_s(64) > fast.tp_allreduce_s(64),
            "a slower link must cost more"
        );
        assert!(
            slow.decode_step_latency(64, 32768) > fast.decode_step_latency(64, 32768),
            "the charge reaches the step latency"
        );
    }

    #[test]
    fn prefill_grows_superlinearly() {
        let fp16 = FlashDecoding::v2();
        let engine = Engine::new(ModelConfig::llama31_8b(), &fp16, GpuArch::a100());
        let p32 = engine.prefill_latency(32768);
        let p128 = engine.prefill_latency(131072);
        assert!(p128 > p32 * 4.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::baselines::{BitDecodingSys, CudaOnly, FlashDecoding};

    #[test]
    fn int4_weights_cut_linear_time() {
        let sys = CudaOnly::qserve();
        let fp16 = Engine::new(ModelConfig::llama31_8b(), &sys, GpuArch::a100());
        let int4 = Engine::new(ModelConfig::llama31_8b(), &sys, GpuArch::a100())
            .with_weights(WeightPrecision::Int4);
        let t_fp16 = fp16.arch.evaluate(&fp16.linear_profile(4)).total;
        let t_int4 = int4.arch.evaluate(&int4.linear_profile(4)).total;
        assert!(t_int4 < t_fp16 * 0.5, "W4 linear {t_int4} vs FP16 {t_fp16}");
    }

    #[test]
    fn linear_profile_counts_all_layers() {
        let sys = FlashDecoding::v2();
        let engine = Engine::new(ModelConfig::llama31_8b(), &sys, GpuArch::a100());
        let p = engine.linear_profile(1);
        assert_eq!(p.launches, 2.0 * 32.0 + 1.0);
        // Weight bytes dominate reads at batch 1.
        assert!(p.dram_read_bytes > 15e9);
    }

    #[test]
    fn attention_share_grows_with_context() {
        let sys = BitDecodingSys::kc4();
        let engine = Engine::new(ModelConfig::llama31_8b(), &sys, GpuArch::a100());
        let share =
            |len: usize| engine.attention_step_latency(1, len) / engine.decode_step_latency(1, len);
        assert!(share(131072) > share(8192) * 2.0);
    }

    #[test]
    fn generation_latency_includes_prefill() {
        let sys = FlashDecoding::v2();
        let engine = Engine::new(ModelConfig::llama31_8b(), &sys, GpuArch::a100());
        let gen = engine.generation_latency(1, 32768, 16);
        let decode_only = 16.0 * engine.decode_step_latency(1, 32768 + 8);
        assert!(gen > decode_only, "prefill must be counted");
        assert!(gen > engine.prefill_latency(32768));
    }
}
