//! FP16 FlashDecoding baselines — the speedup denominators of every figure.
//!
//! `FlashDecoding-v2` is FlashAttention-2 with split-KV partitioning for
//! decode; `v3` is the Hopper rewrite using `wgmma` + TMA (paper §VI-A uses
//! v2 as the normalization baseline and shows v3 separately on H100).

use crate::system::DecodeSystem;
use bd_core::{choose_splits, combine_kernel_profile, AttentionConfig, DecodeShape};
use bd_gpu_sim::{GpuArch, KernelProfile, OverlapSpec};

/// Which FlashAttention generation the kernel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlashVersion {
    /// SM80-era kernels (`mma.m16n8k16`, `cp.async`).
    V2,
    /// Hopper kernels (`wgmma`, TMA, warp specialization).
    V3,
}

/// The FP16 fused attention baseline.
#[derive(Clone, Copy, Debug)]
pub struct FlashDecoding {
    /// Kernel generation.
    pub(crate) version: FlashVersion,
}

impl FlashDecoding {
    /// FlashDecoding-v2 (the universal baseline).
    pub const fn v2() -> Self {
        FlashDecoding {
            version: FlashVersion::V2,
        }
    }

    /// FlashDecoding/FlashAttention-v3 (Hopper only).
    pub(crate) const fn v3() -> Self {
        FlashDecoding {
            version: FlashVersion::V3,
        }
    }
}

impl DecodeSystem for FlashDecoding {
    fn label(&self) -> String {
        match self.version {
            FlashVersion::V2 => "FlashDecoding-v2".to_owned(),
            FlashVersion::V3 => "FlashDecoding-v3".to_owned(),
        }
    }

    fn kv_bytes_per_token(&self, attn: &AttentionConfig) -> f64 {
        2.0 * attn.heads_kv as f64 * attn.head_dim as f64 * 2.0
    }

    fn plan(&self, shape: &DecodeShape, arch: &GpuArch) -> Vec<KernelProfile> {
        let d = shape.attn.head_dim as f64;
        let groups = shape.kv_groups() as f64;
        let rows = shape.total_rows() as f64;
        let mut p = KernelProfile::new(self.label());

        p.dram_read_bytes = shape.fp16_kv_bytes() + rows * d * 2.0;
        p.dram_write_bytes = rows * d * 2.0 + groups * 2.0 * d * 2.0;

        // Query transform is standard in FA2/FA3 decode kernels: gq rows
        // per KV group padded to 16-row MMA tiles.
        let mrows = (shape.rows_per_group().div_ceil(16) * 16) as f64;
        let mut macs = 2.0 * mrows * d * shape.seq_len as f64 * groups;
        if self.version == FlashVersion::V2 && arch.gen.supports_wgmma() {
            macs *= 1.35; // legacy SM80 instruction penalty on Hopper+
            p.bw_derate = 0.65; // cp.async vs TMA load-path penalty
        }
        p.tc_macs_fp16 = macs;

        let softmax_rows = rows * shape.seq_len as f64;
        p.cuda.exp = softmax_rows;
        p.cuda.reduce = 0.25 * softmax_rows;
        p.cuda.misc = 0.75 * softmax_rows;

        p.smem_transactions = p.dram_read_bytes * 2.0 / 128.0;

        let warps = 4.0;
        let splits = choose_splits(arch, shape, warps);
        p.ctas = groups * splits as f64;
        p.warps_per_cta = warps;
        p.overlap = match self.version {
            FlashVersion::V2 => OverlapSpec {
                tc_cuda: 0.85,
                mem_compute: 0.90,
            },
            FlashVersion::V3 => OverlapSpec {
                tc_cuda: 0.95,
                mem_compute: 0.95,
            },
        };

        let mut plan = vec![p];
        if splits > 1 {
            plan.push(combine_kernel_profile(shape, splits));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_core::AttentionConfig;

    fn shape(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::gqa(32, 8, 128), len)
    }

    #[test]
    fn fp16_baseline_is_memory_bound_at_long_context() {
        let arch = GpuArch::rtx4090();
        let lat = FlashDecoding::v2().latency(&shape(8, 32768), &arch);
        assert!(
            lat.t_mem > lat.t_tc * 2.0,
            "mem {} tc {}",
            lat.t_mem,
            lat.t_tc
        );
        assert!(lat.mem_throughput_fraction() > 0.6);
    }

    #[test]
    fn latency_roughly_linear_in_context() {
        let arch = GpuArch::a100();
        let sys = FlashDecoding::v2();
        let t1 = sys.latency_s(&shape(8, 8192), &arch);
        let t2 = sys.latency_s(&shape(8, 32768), &arch);
        let ratio = t2 / t1;
        assert!(ratio > 3.0 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn v3_beats_v2_on_hopper() {
        let arch = GpuArch::h100();
        let s = shape(64, 32768);
        let t2 = FlashDecoding::v2().latency_s(&s, &arch);
        let t3 = FlashDecoding::v3().latency_s(&s, &arch);
        assert!(t3 < t2, "v3 {t3} vs v2 {t2}");
    }

    #[test]
    fn v2_equals_v3_structure_on_ada() {
        // No legacy penalty below Hopper; only overlap differs slightly.
        let arch = GpuArch::rtx4090();
        let s = shape(8, 8192);
        let t2 = FlashDecoding::v2().latency_s(&s, &arch);
        let t3 = FlashDecoding::v3().latency_s(&s, &arch);
        assert!((t2 - t3).abs() / t2 < 0.15);
    }

    #[test]
    fn single_batch_long_context_uses_splits() {
        let arch = GpuArch::a100();
        let plan = FlashDecoding::v2().plan(&shape(1, 131072), &arch);
        assert_eq!(plan.len(), 2, "expected combine kernel");
    }
}
