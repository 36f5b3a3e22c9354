//! KIVI-style non-fused low-bit attention (paper §II, §VI-A).
//!
//! KIVI decomposes mixed-precision attention into standalone Triton
//! kernels (`Q·K^T` GEMV with in-kernel dequant → softmax → `P·V` GEMV →
//! residual window attention), each paying launch overhead plus
//! global-memory round trips for the full score matrix. Two structural
//! costs drive its shape:
//!
//! * **No KV-group reuse.** Each query head's GEMV walks its KV head's
//!   packed data independently — packed traffic and dequantization work
//!   scale with `h_q`, not `h_kv`, so GQA erases the low-bit bandwidth win.
//! * **Scalar dequantization.** The in-loop `static_cast` path costs
//!   quarter-rate `cvt` slots per element (no fragment-aligned `lop3`).

use crate::system::DecodeSystem;
use bd_core::{AttentionConfig, DecodeShape};
use bd_gpu_sim::{GpuArch, KernelProfile, OverlapSpec};
use bd_kvcache::QuantScheme;
use bd_lowbit::BitWidth;

/// The non-fused KIVI baseline at a given bit width (channel-wise keys).
#[derive(Clone, Copy, Debug)]
pub struct Kivi {
    /// Cache bit width (4 or 2).
    pub(crate) width: BitWidth,
}

impl Kivi {
    /// KIVI-4.
    pub const fn int4() -> Self {
        Kivi {
            width: BitWidth::B4,
        }
    }

    /// KIVI-2.
    pub(crate) const fn int2() -> Self {
        Kivi {
            width: BitWidth::B2,
        }
    }

    fn scheme(&self) -> QuantScheme {
        match self.width {
            BitWidth::B4 => QuantScheme::kc4(),
            BitWidth::B2 => QuantScheme::kc2(),
        }
    }
}

impl DecodeSystem for Kivi {
    fn label(&self) -> String {
        format!("KIVI-{}", self.width.bits())
    }

    fn kv_bytes_per_token(&self, attn: &AttentionConfig) -> f64 {
        attn.heads_kv as f64 * self.scheme().bytes_per_token(attn.head_dim)
    }

    fn scratch_bytes(&self, shape: &DecodeShape) -> f64 {
        let l = shape.seq_len as f64;
        let rows = shape.total_rows() as f64;
        // FP32 scores and FP16 probabilities materialized for every query
        // head (no block tiling), double-buffered by the allocator.
        rows * l * (4.0 + 2.0) * 2.0
    }

    fn prefill_scratch_bytes(&self, attn: &AttentionConfig, seq_len: usize) -> f64 {
        // Prefill attention without block tiling: a 4K-token chunk of
        // queries against the full context materializes an FP32 score
        // matrix per query head — the 128K OOM of paper Fig. 12a.
        attn.heads_q as f64 * seq_len as f64 * 4096.0 * 4.0
    }

    fn plan(&self, shape: &DecodeShape, arch: &GpuArch) -> Vec<KernelProfile> {
        let _ = arch;
        let d = shape.attn.head_dim as f64;
        let lp = shape.packed_len() as f64;
        let groups = shape.kv_groups() as f64;
        let rows = shape.total_rows() as f64;
        let gq = shape.rows_per_group() as f64;
        let scheme = self.scheme();
        let packed_half = groups * lp * scheme.bytes_per_token(shape.attn.head_dim) / 2.0;
        // Per-query-head streaming: every head re-reads its KV head's
        // packed data and dequantizes it for itself.
        let head_stream_bytes = packed_half * gq;
        let head_stream_elems = rows * lp * d;
        // The kernel tiles (head, token-block); a block covers 8K tokens.
        let ctas = rows * (lp / 8192.0).ceil().max(1.0);
        let mut plan = Vec::new();

        // (1) Q·K^T GEMV with fused scalar dequantization.
        let mut qk = KernelProfile::new("kivi-qk-gemv");
        qk.dram_read_bytes = head_stream_bytes + rows * d * 2.0;
        qk.dram_write_bytes = rows * lp * 4.0; // FP32 scores
        qk.tc_macs_fp16 = 8.0 * d * lp * rows; // M=1 GEMV padded to 8-row tiles
        qk.cuda.cvt = head_stream_elems; // static_cast path, quarter rate
        qk.cuda.misc = head_stream_elems * 0.5;
        qk.ctas = ctas;
        qk.warps_per_cta = 4.0;
        qk.overlap = OverlapSpec::STANDALONE;
        plan.push(qk);

        // (2) softmax kernel over the materialized score matrix.
        let mut sm = KernelProfile::new("kivi-softmax");
        sm.dram_read_bytes = rows * lp * 4.0;
        sm.dram_write_bytes = rows * lp * 2.0;
        sm.cuda.exp = rows * lp;
        sm.cuda.reduce = rows * lp * 0.5;
        sm.ctas = rows.max(1.0);
        sm.warps_per_cta = 4.0;
        sm.overlap = OverlapSpec::STANDALONE;
        plan.push(sm);

        // (3) P·V GEMV with fused scalar dequantization.
        let mut pv = KernelProfile::new("kivi-pv-gemv");
        pv.dram_read_bytes = head_stream_bytes + rows * lp * 2.0;
        pv.dram_write_bytes = rows * d * 2.0;
        pv.tc_macs_fp16 = 8.0 * d * lp * rows;
        pv.cuda.cvt = head_stream_elems;
        pv.cuda.misc = head_stream_elems * 0.5;
        pv.ctas = ctas;
        pv.warps_per_cta = 4.0;
        pv.overlap = OverlapSpec::STANDALONE;
        plan.push(pv);

        // (4) FP16 attention over the residual window.
        let res = shape.residual_len.max(1) as f64;
        let mut rk = KernelProfile::new("kivi-residual");
        rk.dram_read_bytes = groups * res * d * 2.0 * 2.0 + rows * d * 2.0;
        rk.dram_write_bytes = rows * d * 2.0;
        rk.tc_macs_fp16 = 2.0 * 16.0 * d * res * groups;
        rk.cuda.exp = rows * res;
        rk.ctas = groups;
        rk.warps_per_cta = 4.0;
        rk.overlap = OverlapSpec::STANDALONE;
        plan.push(rk);

        // (5) merge packed-region and residual outputs.
        let mut mg = KernelProfile::new("kivi-merge");
        mg.dram_read_bytes = rows * d * 2.0 * 2.0;
        mg.dram_write_bytes = rows * d * 2.0;
        mg.cuda.misc = rows * d * 2.0;
        mg.ctas = (rows / 8.0).max(1.0);
        mg.warps_per_cta = 4.0;
        mg.overlap = OverlapSpec::STANDALONE;
        plan.push(mg);

        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::FlashDecoding;
    use crate::system::speedup;

    fn gqa_shape(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::gqa(32, 8, 128), len).with_residual(64)
    }

    fn mha_shape(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::mha(32, 128), len).with_residual(64)
    }

    #[test]
    fn kivi_launches_five_kernels() {
        let plan = Kivi::int4().plan(&gqa_shape(8, 4096), &GpuArch::rtx4090());
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn kivi_beats_fp16_on_mha_bandwidth_bound() {
        // On the bandwidth-starved 4090 with MHA, 4-bit traffic still wins
        // despite the non-fused overheads.
        let arch = GpuArch::rtx4090();
        let s = mha_shape(8, 16384);
        let sp = speedup(&Kivi::int4(), &FlashDecoding::v2(), &s, &arch);
        assert!(sp > 1.1, "KIVI-4 MHA speedup {sp}");
    }

    #[test]
    fn kivi_degrades_on_gqa() {
        // GQA multiplies KIVI's packed traffic by g_q; the win evaporates.
        let arch = GpuArch::rtx4090();
        let mha = speedup(
            &Kivi::int4(),
            &FlashDecoding::v2(),
            &mha_shape(8, 16384),
            &arch,
        );
        let gqa = speedup(
            &Kivi::int4(),
            &FlashDecoding::v2(),
            &gqa_shape(8, 16384),
            &arch,
        );
        assert!(gqa < mha * 0.6, "GQA {gqa} must collapse vs MHA {mha}");
    }

    #[test]
    fn kivi_worse_than_fp16_on_a100_gqa() {
        // Paper Fig. 11: on the high-bandwidth A100, KIVI's non-fused
        // design underperforms even the FP16 baseline.
        let arch = GpuArch::a100();
        let s = DecodeShape::new(8, AttentionConfig::gqa(128, 16, 128), 32768).with_residual(64);
        let sp = speedup(&Kivi::int4(), &FlashDecoding::v2(), &s, &arch);
        assert!(sp < 1.0, "KIVI on A100 GQA speedup {sp} should be < 1");
    }

    #[test]
    fn kivi2_reads_less_than_kivi4() {
        let s = gqa_shape(8, 8192);
        let arch = GpuArch::rtx4090();
        let b4: f64 = Kivi::int4()
            .plan(&s, &arch)
            .iter()
            .map(|p| p.dram_read_bytes)
            .sum();
        let b2: f64 = Kivi::int2()
            .plan(&s, &arch)
            .iter()
            .map(|p| p.dram_read_bytes)
            .sum();
        assert!(b2 < b4);
    }

    #[test]
    fn scratch_scales_with_context() {
        let sys = Kivi::int4();
        let near = sys.scratch_bytes(&gqa_shape(1, 32768));
        let far = sys.scratch_bytes(&gqa_shape(1, 131072));
        assert!(far > near * 3.5);
    }
}
