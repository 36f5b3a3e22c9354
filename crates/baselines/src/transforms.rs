//! Weight-oriented mixed-precision transform kernels — Marlin- and
//! Ladder-style — applied to the KV cache, for the quantization/packing
//! overhead comparison of paper Table II.
//!
//! Both systems were designed for *static* weights: they pre-transform the
//! packed layout with standalone kernels (Marlin via a Python/Torch repack
//! chain, Ladder via compiled layout-transform kernels). Applied to a
//! *dynamic* KV cache they must re-run the transform as the cache grows,
//! which is exactly why the paper rules them out. BitDecoding's fused
//! quantize+pack touches only the new residual block.

use bd_core::DecodeShape;
use bd_gpu_sim::{GpuArch, KernelProfile, OverlapSpec};
use bd_kvcache::QuantScheme;

/// Which transform system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformKind {
    /// Marlin-style repack: a long chain of element-wise/gather passes.
    Marlin,
    /// Ladder-style hardware-aware transform: a few compiled passes.
    Ladder,
    /// BitDecoding's fused in-kernel quantize+pack.
    BitDecoding,
}

impl TransformKind {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TransformKind::Marlin => "Marlin",
            TransformKind::Ladder => "Ladder",
            TransformKind::BitDecoding => "BitDecoding",
        }
    }

    /// Full-tensor passes the transform makes over the data, and the
    /// effective-bandwidth fraction of those gather-heavy passes.
    ///
    /// Constants are fitted so the A100 magnitudes land in the range of
    /// paper Table II (Marlin 58 ms / Ladder 4.8 ms / BitDecoding 0.06 ms
    /// for a 128K prefill); the *structure* (pass counts, launch counts,
    /// gather inefficiency) follows each system's published design.
    fn passes_and_efficiency(self) -> (f64, f64) {
        match self {
            // Torch-level permute/reshape/interleave/gather chain.
            TransformKind::Marlin => (16.0, 0.015),
            // Compiled hardware-aware transform kernels, still gathering.
            TransformKind::Ladder => (3.0, 0.02),
            // Fused: one streaming pass, full efficiency.
            TransformKind::BitDecoding => (1.0, 0.85),
        }
    }

    /// Kernel launches per transform invocation.
    fn launches(self) -> f64 {
        match self {
            TransformKind::Marlin => 24.0,
            TransformKind::Ladder => 6.0,
            TransformKind::BitDecoding => 1.0,
        }
    }

    /// Profile of quantizing+packing `tokens` cached tokens (K tensor of
    /// one KV head, matching the paper's single-tensor measurement).
    pub(crate) fn quant_pack_profile(
        self,
        tokens: usize,
        dim: usize,
        scheme: QuantScheme,
    ) -> KernelProfile {
        let elems = tokens as f64 * dim as f64;
        let fp16_bytes = elems * 2.0;
        let packed_bytes = elems * scheme.bits_per_value() as f64 / 8.0;
        let (passes, eff) = self.passes_and_efficiency();

        let mut p = KernelProfile::new(format!("{}-quant-pack", self.label()));
        // Each pass reads and rewrites the tensor; inefficiency is modelled
        // as inflated effective traffic (gathers waste transactions).
        p.dram_read_bytes = passes * fp16_bytes / eff;
        p.dram_write_bytes = (passes - 1.0) * fp16_bytes / eff + packed_bytes;
        p.cuda.quant = elems * 4.0;
        p.cuda.misc = elems * passes;
        p.launches = self.launches();
        p.ctas = (elems / 4096.0).max(1.0);
        p.warps_per_cta = 8.0;
        p.overlap = OverlapSpec::STANDALONE;
        p
    }

    /// Profile of the per-decode-step packing work: Marlin/Ladder must
    /// re-transform the whole packed cache (their layouts are not
    /// incrementally maintainable); BitDecoding touches one residual block
    /// every `Nr` steps (amortized).
    pub(crate) fn decode_step_profile(
        self,
        shape: &DecodeShape,
        scheme: QuantScheme,
        residual_block: usize,
    ) -> KernelProfile {
        let dim = shape.attn.head_dim;
        match self {
            TransformKind::Marlin | TransformKind::Ladder => {
                // One full gather pass over the current *packed* cache per
                // step: these layouts are not incrementally maintainable.
                let elems = shape.seq_len as f64 * dim as f64;
                let packed_bytes = elems * scheme.bits_per_value() as f64 / 8.0;
                let (_, eff) = self.passes_and_efficiency();
                let mut p = KernelProfile::new(format!("{}-decode-repack", self.label()));
                p.dram_read_bytes = packed_bytes / eff;
                p.dram_write_bytes = packed_bytes / eff;
                p.cuda.misc = elems;
                p.launches = self.launches() / 4.0;
                p.ctas = (elems / 4096.0).max(1.0);
                p.warps_per_cta = 8.0;
                p.overlap = OverlapSpec::STANDALONE;
                p
            }
            TransformKind::BitDecoding => {
                // Amortized flush of one residual block per Nr steps,
                // fused into the Residual Kernel (≈ launch + 1/Nr of a
                // block quant).
                let elems = residual_block as f64 * dim as f64 / residual_block as f64;
                let mut p = KernelProfile::new("BitDecoding-fused-pack");
                p.dram_read_bytes = elems * 2.0;
                p.dram_write_bytes = elems * scheme.bits_per_value() as f64 / 8.0;
                p.cuda.quant = elems * 4.0;
                p.launches = 1.0;
                p.ctas = 8.0;
                p.warps_per_cta = 4.0;
                p.overlap = OverlapSpec::PIPELINED;
                p
            }
        }
    }
}

/// Table II row: `(prefill_ms, decode_ms)` for one system on one GPU.
pub fn table2_row(
    kind: TransformKind,
    arch: &GpuArch,
    seq_len: usize,
    dim: usize,
    scheme: QuantScheme,
    residual_block: usize,
) -> (f64, f64) {
    let prefill = arch.evaluate(&kind.quant_pack_profile(seq_len, dim, scheme));
    let shape = DecodeShape::new(1, bd_core::AttentionConfig::mha(1, dim), seq_len);
    let decode = arch.evaluate(&kind.decode_step_profile(&shape, scheme, residual_block));
    (prefill.total * 1e3, decode.total * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: usize = 131072;
    const D: usize = 128;

    fn rows() -> Vec<(TransformKind, f64, f64)> {
        let arch = GpuArch::a100();
        [
            TransformKind::Marlin,
            TransformKind::Ladder,
            TransformKind::BitDecoding,
        ]
        .into_iter()
        .map(|k| {
            let (p, d) = table2_row(k, &arch, L, D, QuantScheme::kc4(), 128);
            (k, p, d)
        })
        .collect()
    }

    #[test]
    fn ordering_matches_table2() {
        let rows = rows();
        let (_, marlin_p, marlin_d) = rows[0];
        let (_, ladder_p, ladder_d) = rows[1];
        let (_, bit_p, bit_d) = rows[2];
        // Prefill: Marlin ≫ Ladder ≫ BitDecoding.
        assert!(
            marlin_p > ladder_p * 5.0,
            "marlin {marlin_p} ladder {ladder_p}"
        );
        assert!(ladder_p > bit_p * 10.0, "ladder {ladder_p} bit {bit_p}");
        // Decode: both transforms pay a full repack; BitDecoding is ~launch
        // overhead only.
        assert!(marlin_d > bit_d * 20.0);
        assert!(ladder_d > bit_d * 20.0);
    }

    #[test]
    fn magnitudes_in_paper_range() {
        let rows = rows();
        let (_, marlin_p, _) = rows[0];
        let (_, _, bit_d) = rows[2];
        // Paper: Marlin 58 ms prefill, BitDecoding 0.008 ms decode. Within
        // a factor ~3 of the reported magnitudes.
        assert!(
            marlin_p > 15.0 && marlin_p < 200.0,
            "marlin prefill {marlin_p}"
        );
        assert!(bit_d < 0.05, "bitdecoding decode {bit_d}");
    }

    #[test]
    fn bitdecoding_prefill_single_streaming_pass() {
        let arch = GpuArch::a100();
        let (p, _) = table2_row(
            TransformKind::BitDecoding,
            &arch,
            L,
            D,
            QuantScheme::kc4(),
            128,
        );
        // A streaming quantize of 32 MB of FP16 should take well under a
        // millisecond on A100.
        assert!(p < 0.5, "prefill {p} ms");
    }
}
