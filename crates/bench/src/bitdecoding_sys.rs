//! [`DecodeSystem`] adapter for BitDecoding itself, so the harness can
//! sweep it alongside the baselines.

use crate::system::DecodeSystem;
use bd_core::{decode_plan, ArchPath, AttentionConfig, DecodeShape, OptimizationFlags};
use bd_gpu_sim::{GpuArch, KernelProfile};
use bd_kvcache::{PackLayout, QuantScheme};

/// BitDecoding as a sweepable system.
#[derive(Clone, Copy, Debug)]
pub struct BitDecodingSys {
    /// Quantization scheme.
    pub(crate) scheme: QuantScheme,
    /// Optimization flags (ablations).
    pub(crate) flags: OptimizationFlags,
    /// Force the SM80 "v2" kernels even on Hopper+ (`None` = auto).
    pub(crate) force_path: Option<ArchPath>,
    /// Paged KV management.
    pub(crate) paged: bool,
}

impl BitDecodingSys {
    /// The shipping configuration for a scheme.
    pub const fn new(scheme: QuantScheme) -> Self {
        BitDecodingSys {
            scheme,
            flags: OptimizationFlags::ALL,
            force_path: None,
            paged: false,
        }
    }

    /// KC-4 default.
    pub const fn kc4() -> Self {
        Self::new(QuantScheme::kc4())
    }

    /// KC-2 default.
    pub const fn kc2() -> Self {
        Self::new(QuantScheme::kc2())
    }

    /// KT-4 default.
    pub(crate) const fn kt4() -> Self {
        Self::new(QuantScheme::kt4())
    }

    /// Builder-style paged toggle.
    pub const fn paged(mut self, paged: bool) -> Self {
        self.paged = paged;
        self
    }

    /// Builder-style path override.
    pub(crate) const fn with_path(mut self, path: ArchPath) -> Self {
        self.force_path = Some(path);
        self
    }

    /// Builder-style flag override (ablations).
    pub(crate) const fn with_flags(mut self, flags: OptimizationFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl DecodeSystem for BitDecodingSys {
    fn label(&self) -> String {
        match self.force_path {
            Some(ArchPath::Sm80) => format!("BitDecoding-{} (v2)", self.scheme.label()),
            Some(ArchPath::Sm90) => format!("BitDecoding-{} (v3)", self.scheme.label()),
            _ => format!("BitDecoding-{}", self.scheme.label()),
        }
    }

    fn kv_bytes_per_token(&self, attn: &AttentionConfig) -> f64 {
        attn.heads_kv as f64 * self.scheme.bytes_per_token(attn.head_dim)
            // Half-precision residual, amortized: Nr/2 resident tokens on
            // average out of the whole context — negligible, counted as 1%.
            * 1.01
    }

    fn plan(&self, shape: &DecodeShape, arch: &GpuArch) -> Vec<KernelProfile> {
        let path = self
            .force_path
            .unwrap_or_else(|| ArchPath::select(arch, self.scheme));
        let width = self.scheme.int_width().unwrap_or(bd_lowbit::BitWidth::B4);
        let nr = PackLayout::sm80_default().residual_block(width);
        decode_plan(shape, self.scheme, arch, path, self.flags, self.paged, nr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuda_only::CudaOnly;
    use crate::flash::FlashDecoding;
    use crate::kivi::Kivi;
    use crate::system::{speedup, DecodeSystem};

    fn gqa(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::gqa(32, 8, 128), len).with_residual(64)
    }

    #[test]
    fn bitdecoding_beats_all_baselines_on_gqa() {
        let arch = GpuArch::rtx4090();
        let s = gqa(8, 8192);
        let bd = BitDecodingSys::kc4();
        for baseline in [
            Box::new(FlashDecoding::v2()) as Box<dyn DecodeSystem>,
            Box::new(Kivi::int4()),
            Box::new(CudaOnly::qserve()),
        ] {
            let sp = speedup(&bd, baseline.as_ref(), &s, &arch);
            assert!(sp > 1.3, "vs {}: {sp}", baseline.label());
        }
    }

    #[test]
    fn kc2_faster_than_kc4_on_bandwidth_bound() {
        let arch = GpuArch::rtx4090();
        let s = gqa(8, 32768);
        let t4 = BitDecodingSys::kc4().latency_s(&s, &arch);
        let t2 = BitDecodingSys::kc2().latency_s(&s, &arch);
        assert!(t2 < t4, "KC-2 {t2} vs KC-4 {t4}");
    }

    #[test]
    fn bit_gap_narrows_on_a100() {
        // Paper Fig. 11: A100's bandwidth shifts kernels toward compute
        // bound, narrowing the 4-bit vs 2-bit gap.
        let shape = gqa(32, 8192);
        let gap_4090 = {
            let a = GpuArch::rtx4090();
            BitDecodingSys::kc4().latency_s(&shape, &a)
                / BitDecodingSys::kc2().latency_s(&shape, &a)
        };
        let gap_a100 = {
            let a = GpuArch::a100();
            BitDecodingSys::kc4().latency_s(&shape, &a)
                / BitDecodingSys::kc2().latency_s(&shape, &a)
        };
        assert!(
            gap_a100 < gap_4090,
            "A100 gap {gap_a100} should be narrower than 4090 gap {gap_4090}"
        );
    }

    #[test]
    fn v3_beats_v2_on_hopper() {
        let arch = GpuArch::h100();
        let s = gqa(64, 32768);
        let v2 = BitDecodingSys::kc4()
            .with_path(ArchPath::Sm80)
            .latency_s(&s, &arch);
        let v3 = BitDecodingSys::kc4()
            .with_path(ArchPath::Sm90)
            .latency_s(&s, &arch);
        assert!(v3 < v2, "v3 {v3} vs v2 {v2}");
    }

    #[test]
    fn labels() {
        assert_eq!(BitDecodingSys::kc4().label(), "BitDecoding-KC-4");
        assert_eq!(
            BitDecodingSys::kc4().with_path(ArchPath::Sm90).label(),
            "BitDecoding-KC-4 (v3)"
        );
    }
}
