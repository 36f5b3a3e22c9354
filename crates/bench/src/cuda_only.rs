//! Fused CUDA-core-only low-bit attention: Atom and QServe (paper §II,
//! §VI-A).
//!
//! Both fuse dequantization into a FlashAttention-style kernel but execute
//! *everything* — dequant, scaling, and the matmuls themselves (as
//! FMA-based GEMV) — on CUDA cores. Because there is no Tensor-Core GEMM,
//! the kernel processes each **query head** independently: dequantization
//! and FMA work scale with `h_q`, not `h_kv`, which is why these systems
//! hold up on MHA but collapse under GQA (paper Fig. 10/11, Fig. 15).

use crate::system::DecodeSystem;
use bd_core::{choose_splits, AttentionConfig, DecodeShape};
use bd_gpu_sim::{GpuArch, KernelProfile, OverlapSpec};
use bd_kvcache::QuantScheme;

/// Which CUDA-core-only system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CudaOnlyKind {
    /// Atom: 4-bit, page-managed, **no GQA support**.
    Atom,
    /// QServe: W4A8KV4, page-managed, GQA supported but expensive.
    QServe,
}

/// A fused CUDA-core-only decoding system (always 4-bit KV, tensor-wise,
/// matching the released systems).
#[derive(Clone, Copy, Debug)]
pub struct CudaOnly {
    kind: CudaOnlyKind,
}

impl CudaOnly {
    /// The Atom baseline.
    pub(crate) const fn atom() -> Self {
        CudaOnly {
            kind: CudaOnlyKind::Atom,
        }
    }

    /// The QServe baseline.
    pub const fn qserve() -> Self {
        CudaOnly {
            kind: CudaOnlyKind::QServe,
        }
    }

    /// Dequantization instruction slots per element: scalar unpack, cast,
    /// scale and zero-point math without the fragment-aligned `lop3` path,
    /// with the poor ILP of interleaving dequant into a GEMV inner loop.
    /// Calibrated so dequantization consumes ≈45-55% of kernel time on the
    /// paper's Fig. 15a workload; QServe's kernels are somewhat better
    /// tuned than Atom's.
    fn dequant_slots_per_elem(&self) -> f64 {
        match self.kind {
            CudaOnlyKind::Atom => 8.0,
            CudaOnlyKind::QServe => 6.0,
        }
    }

    fn scheme(&self) -> QuantScheme {
        QuantScheme::kt4()
    }
}

impl DecodeSystem for CudaOnly {
    fn label(&self) -> String {
        match self.kind {
            CudaOnlyKind::Atom => "Atom".to_owned(),
            CudaOnlyKind::QServe => "QServe".to_owned(),
        }
    }

    fn supports(&self, attn: &AttentionConfig) -> bool {
        match self.kind {
            CudaOnlyKind::Atom => attn.group_factor() == 1, // MHA only
            CudaOnlyKind::QServe => true,
        }
    }

    fn kv_bytes_per_token(&self, attn: &AttentionConfig) -> f64 {
        attn.heads_kv as f64 * self.scheme().bytes_per_token(attn.head_dim)
    }

    fn plan(&self, shape: &DecodeShape, arch: &GpuArch) -> Vec<KernelProfile> {
        let d = shape.attn.head_dim as f64;
        let l = shape.seq_len as f64;
        let groups = shape.kv_groups() as f64;
        let rows = shape.total_rows() as f64;
        let mut p = KernelProfile::new(self.label());

        // Memory: packed KV read once per KV head (page tables included).
        p.dram_read_bytes = groups * l * self.scheme().bytes_per_token(shape.attn.head_dim)
            + rows * d * 2.0
            + groups * (l / 64.0) * 8.0;
        p.dram_write_bytes = rows * d * 2.0;

        // Per-query-head processing: dequant and FMA GEMV both scale with
        // h_q (each head's thread block unpacks the KV values it consumes).
        let elems_per_head_stream = 2.0 * rows * l * d;
        p.cuda.dequant = elems_per_head_stream * self.dequant_slots_per_elem();
        p.cuda.fma = elems_per_head_stream; // QK + PV as FMA GEMV
        p.cuda.misc = elems_per_head_stream * 1.5; // loads, addresses, rescale
        p.cuda.exp = rows * l;
        p.cuda.reduce = rows * l * 0.5;

        p.smem_transactions = p.dram_read_bytes * 2.0 / 128.0;

        let warps = 8.0;
        let splits = choose_splits(arch, shape, warps);
        p.ctas = rows.max(groups) * splits as f64;
        p.warps_per_cta = warps;
        // Dequant and matmul share the same execution unit: no TC/CUDA
        // overlap exists; memory overlap is decent (fused streaming).
        p.overlap = OverlapSpec {
            tc_cuda: 0.0,
            mem_compute: 0.82,
        };
        vec![p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::FlashDecoding;
    use crate::system::speedup;

    fn mha(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::mha(32, 128), len)
    }

    fn gqa(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::gqa(32, 8, 128), len)
    }

    #[test]
    fn atom_rejects_gqa() {
        assert!(!CudaOnly::atom().supports(&AttentionConfig::gqa(32, 8, 128)));
        assert!(CudaOnly::atom().supports(&AttentionConfig::mha(32, 128)));
        assert!(CudaOnly::qserve().supports(&AttentionConfig::gqa(32, 8, 128)));
    }

    #[test]
    fn qserve_wins_on_mha_bandwidth_bound() {
        let arch = GpuArch::rtx4090();
        let sp = speedup(
            &CudaOnly::qserve(),
            &FlashDecoding::v2(),
            &mha(8, 2048),
            &arch,
        );
        assert!(sp > 2.0, "QServe MHA speedup {sp}");
    }

    #[test]
    fn qserve_collapses_on_gqa() {
        let arch = GpuArch::rtx4090();
        let sp_mha = speedup(
            &CudaOnly::qserve(),
            &FlashDecoding::v2(),
            &mha(8, 2048),
            &arch,
        );
        let sp_gqa = speedup(
            &CudaOnly::qserve(),
            &FlashDecoding::v2(),
            &gqa(8, 2048),
            &arch,
        );
        assert!(
            sp_gqa < sp_mha * 0.75,
            "GQA {sp_gqa} must collapse vs MHA {sp_mha}"
        );
    }

    #[test]
    fn qserve_below_fp16_on_a100_gqa() {
        // Paper Figs. 11/13: on A100 the CUDA-only design loses to FP16
        // FlashDecoding for GQA models.
        let arch = GpuArch::a100();
        let sp = speedup(
            &CudaOnly::qserve(),
            &FlashDecoding::v2(),
            &gqa(16, 32768),
            &arch,
        );
        assert!(sp < 1.0, "QServe A100 GQA speedup {sp}");
    }

    #[test]
    fn dequant_fraction_near_half() {
        // Paper Fig. 15a: dequantization consumes nearly half the kernel
        // time in Atom/QServe.
        let arch = GpuArch::rtx4090();
        let lat = CudaOnly::qserve().latency(&mha(8, 2048), &arch);
        let frac = lat.dequant_fraction();
        assert!(frac > 0.3 && frac < 0.6, "dequant fraction {frac}");
    }

    #[test]
    fn atom_slower_than_qserve() {
        let arch = GpuArch::rtx4090();
        let s = mha(8, 2048);
        assert!(CudaOnly::atom().latency_s(&s, &arch) > CudaOnly::qserve().latency_s(&s, &arch));
    }
}
