//! The continuous-packing baseline used in the paper's breakdown analysis
//! (Fig. 16, following QuaRot): quantize and re-pack the KV cache at every
//! generation step, with manually maintained layouts and no fused fast
//! path.

use crate::system::DecodeSystem;
use bd_core::{decode_plan, ArchPath, AttentionConfig, DecodeShape, OptimizationFlags};
use bd_gpu_sim::{GpuArch, KernelProfile, OverlapSpec};
use bd_kvcache::QuantScheme;

/// Continuous packing: every decode step re-quantizes the freshly appended
/// token *and re-packs the touched region*, then runs a low-bit attention
/// kernel without layout induction, warp parallelism, or pipelining.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ContinuousPacking {
    /// Quantization scheme (the paper's breakdown uses 4-bit).
    pub(crate) scheme: QuantScheme,
}

impl ContinuousPacking {
    /// 4-bit continuous packing.
    pub(crate) const fn kc4() -> Self {
        ContinuousPacking {
            scheme: QuantScheme::kc4(),
        }
    }
}

impl DecodeSystem for ContinuousPacking {
    fn label(&self) -> String {
        "Continuous Packing".to_owned()
    }

    fn kv_bytes_per_token(&self, attn: &AttentionConfig) -> f64 {
        attn.heads_kv as f64 * self.scheme.bytes_per_token(attn.head_dim)
    }

    fn plan(&self, shape: &DecodeShape, arch: &GpuArch) -> Vec<KernelProfile> {
        // Attention with every optimization disabled (slow casts, Wn=1,
        // no software pipeline).
        let flags = OptimizationFlags {
            layout_induction: false,
            warp_parallelism: false,
            software_pipeline: false,
            cooperative_softmax: false,
        };
        let path = match ArchPath::select(arch, self.scheme) {
            ArchPath::Sm100Fp4 => ArchPath::Sm100Fp4,
            _ => ArchPath::Sm80, // no arch-specific tuning in the baseline
        };
        let mut plan = decode_plan(shape, self.scheme, arch, path, flags, false, usize::MAX);

        // Plus the per-step quantize+pack kernel: with no residual region,
        // every generation step re-quantizes the group-aligned tail window
        // (a read-modify-write of the last 128-token group, QuaRot-style)
        // and runs manual layout maintenance.
        let dim = shape.attn.head_dim as f64;
        let groups = shape.kv_groups() as f64;
        let window = 128.0_f64.min(shape.seq_len as f64);
        let elems = groups * window * dim * 2.0;
        let mut q = KernelProfile::new("continuous-quant-pack");
        q.dram_read_bytes = elems * 2.0 + elems * self.scheme.bits_per_value() as f64 / 8.0;
        q.dram_write_bytes = elems * self.scheme.bits_per_value() as f64 / 8.0;
        q.cuda.quant = elems * 4.0;
        q.cuda.misc = elems * 3.0; // manual layout maintenance
        q.launches = 2.0;
        q.ctas = groups;
        q.warps_per_cta = 4.0;
        q.overlap = OverlapSpec::STANDALONE;
        plan.push(q);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitdecoding_sys::BitDecodingSys;
    use crate::system::speedup;

    #[test]
    fn full_bitdecoding_much_faster_than_continuous_packing() {
        // Fig. 16: the full stack delivers a large gain over the
        // continuous-packing baseline on every architecture.
        let shape = DecodeShape::new(8, AttentionConfig::gqa(32, 8, 128), 8192).with_residual(64);
        for arch in [GpuArch::a100(), GpuArch::h100(), GpuArch::rtx5090()] {
            let sp = speedup(
                &BitDecodingSys::kc4(),
                &ContinuousPacking::kc4(),
                &shape,
                &arch,
            );
            assert!(sp > 2.0, "{}: breakdown speedup {sp}", arch.name);
        }
    }

    #[test]
    fn continuous_packing_has_extra_kernel() {
        let shape = DecodeShape::new(8, AttentionConfig::gqa(32, 8, 128), 8192);
        let plan = ContinuousPacking::kc4().plan(&shape, &GpuArch::a100());
        assert!(plan.iter().any(|p| p.name == "continuous-quant-pack"));
    }
}
