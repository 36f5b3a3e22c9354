//! Kernel event profiles: the resource-usage summary a kernel execution
//! produces, which the [cost model](crate::cost) turns into latency.
//!
//! Profiles count *issued* work, so tile underfill (e.g. a 4-row query
//! block issued as a full 16-row MMA tile) is charged automatically.

use std::ops::{Add, AddAssign};

/// CUDA-core instruction counts, split by class so breakdowns like the
/// paper's Fig. 15 (dequant share, FMA vs ALU pressure) can be reported.
///
/// Counts are *per-lane issued instructions* (a warp instruction over 32
/// lanes counts 32).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CudaOps {
    /// Fast dequantization ops (`lop3`, shifts, `HFMA2`) — full rate.
    pub dequant: f64,
    /// Slow-path conversions (`cvt`) — quarter rate.
    pub cvt: f64,
    /// Quantization + packing ops (min/max FMAs, rounds, shifts) — full rate.
    pub quant: f64,
    /// Transcendental `exp2` for softmax — SFU quarter rate.
    pub exp: f64,
    /// Matrix-multiply FMAs executed on CUDA cores (GEMV-style systems).
    pub fma: f64,
    /// Reduction ops (`shfl`, warp max/sum folds).
    pub reduce: f64,
    /// Everything else (address math, predication, rescale).
    pub misc: f64,
}

impl CudaOps {
    /// Issue slots consumed, with per-class rate multipliers applied
    /// (SFU/`cvt` run at quarter rate).
    pub fn issue_slots(&self) -> f64 {
        self.dequant + self.quant + self.fma + self.reduce + self.misc + 4.0 * (self.cvt + self.exp)
    }
}

impl Add for CudaOps {
    type Output = CudaOps;
    fn add(self, o: CudaOps) -> CudaOps {
        CudaOps {
            dequant: self.dequant + o.dequant,
            cvt: self.cvt + o.cvt,
            quant: self.quant + o.quant,
            exp: self.exp + o.exp,
            fma: self.fma + o.fma,
            reduce: self.reduce + o.reduce,
            misc: self.misc + o.misc,
        }
    }
}

impl AddAssign for CudaOps {
    fn add_assign(&mut self, o: CudaOps) {
        *self = *self + o;
    }
}

/// Pipeline overlap coefficients for one kernel.
///
/// `1.0` means the smaller of the two overlapped quantities is fully hidden
/// behind the larger; `0.0` means strict serialization. These are *set by
/// kernel structure* (warp layout, async pipeline, fusion style), not tuned
/// per experiment — e.g. a CUDA-core-only kernel executes dequant and
/// matmul FMAs on the same unit and cannot overlap them at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlapSpec {
    /// Overlap between Tensor Core time and CUDA-core time.
    pub tc_cuda: f64,
    /// Overlap between memory time (DRAM + smem) and compute time.
    pub mem_compute: f64,
}

impl OverlapSpec {
    /// A fully software-pipelined fused kernel (BitDecoding Packing Kernel
    /// with `Wn ≥ 4`): near-perfect producer–consumer overlap.
    pub const PIPELINED: OverlapSpec = OverlapSpec {
        tc_cuda: 0.95,
        mem_compute: 0.92,
    };

    /// A fused kernel without the warp-parallelism fix (`Wn = 1`):
    /// dequantization stalls the single warp chain (paper Fig. 4).
    pub const SERIALIZED_DEQUANT: OverlapSpec = OverlapSpec {
        tc_cuda: 0.10,
        mem_compute: 0.75,
    };

    /// A straightforward fused kernel with no TC/CUDA cooperation
    /// (CUDA-core-only designs; also FP16 FlashAttention where CUDA work is
    /// just softmax).
    pub const FUSED_BASIC: OverlapSpec = OverlapSpec {
        tc_cuda: 0.60,
        mem_compute: 0.85,
    };

    /// A standalone non-fused kernel: loads, computes, stores.
    pub const STANDALONE: OverlapSpec = OverlapSpec {
        tc_cuda: 0.50,
        mem_compute: 0.60,
    };
}

impl Default for OverlapSpec {
    fn default() -> Self {
        OverlapSpec::FUSED_BASIC
    }
}

/// Resource usage of one kernel launch (or a homogeneous grid of them).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Human-readable kernel name for reports.
    pub name: String,
    /// Number of kernel launches this profile covers.
    pub launches: f64,
    /// Bytes read from DRAM (L2 misses are not modelled separately).
    pub dram_read_bytes: f64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: f64,
    /// FP16 Tensor Core multiply-accumulates issued.
    pub tc_macs_fp16: f64,
    /// FP8 Tensor Core MACs issued.
    pub tc_macs_fp8: f64,
    /// FP4 Tensor Core MACs issued.
    pub tc_macs_fp4: f64,
    /// CUDA-core instruction counts.
    pub cuda: CudaOps,
    /// Shared-memory transactions (128 B each), conflicts included.
    pub smem_transactions: f64,
    /// Grid size (CTAs) for occupancy.
    pub ctas: f64,
    /// Warps per CTA for latency-hiding.
    pub warps_per_cta: f64,
    /// Pipeline overlap structure.
    pub overlap: OverlapSpec,
    /// Achieved-bandwidth derate for issue-limited kernels (default 1.0).
    ///
    /// A kernel whose single compute warp stalls on dequantization between
    /// every tile cannot keep enough loads in flight to saturate DRAM
    /// (paper Fig. 4); such kernels run at a fraction of effective
    /// bandwidth regardless of grid occupancy.
    pub bw_derate: f64,
}

impl KernelProfile {
    /// An empty profile with one launch and default overlap.
    pub fn new(name: impl Into<String>) -> Self {
        KernelProfile {
            name: name.into(),
            launches: 1.0,
            dram_read_bytes: 0.0,
            dram_write_bytes: 0.0,
            tc_macs_fp16: 0.0,
            tc_macs_fp8: 0.0,
            tc_macs_fp4: 0.0,
            cuda: CudaOps::default(),
            smem_transactions: 0.0,
            ctas: 1.0,
            warps_per_cta: 4.0,
            overlap: OverlapSpec::default(),
            bw_derate: 1.0,
        }
    }

    /// Total DRAM traffic.
    pub(crate) fn dram_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total Tensor Core MACs across precisions.
    pub fn tc_macs(&self) -> f64 {
        self.tc_macs_fp16 + self.tc_macs_fp8 + self.tc_macs_fp4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_slots_weight_sfu_and_cvt() {
        let ops = CudaOps {
            dequant: 10.0,
            cvt: 5.0,
            exp: 2.0,
            ..Default::default()
        };
        assert_eq!(ops.issue_slots(), 10.0 + 4.0 * 7.0);
    }

    #[test]
    fn cuda_ops_add() {
        let a = CudaOps {
            dequant: 1.0,
            fma: 2.0,
            ..Default::default()
        };
        let b = CudaOps {
            dequant: 3.0,
            exp: 1.0,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.dequant, 4.0);
        assert_eq!(c.fma, 2.0);
        assert_eq!(c.exp, 1.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn overlap_presets_ordered() {
        assert!(OverlapSpec::PIPELINED.tc_cuda > OverlapSpec::FUSED_BASIC.tc_cuda);
        assert!(OverlapSpec::FUSED_BASIC.tc_cuda > OverlapSpec::SERIALIZED_DEQUANT.tc_cuda);
        assert!(OverlapSpec::PIPELINED.mem_compute > OverlapSpec::STANDALONE.mem_compute);
    }

    #[test]
    fn profile_totals() {
        let mut p = KernelProfile::new("k");
        p.dram_read_bytes = 100.0;
        p.dram_write_bytes = 20.0;
        p.tc_macs_fp16 = 5.0;
        p.tc_macs_fp4 = 7.0;
        assert_eq!(p.dram_bytes(), 120.0);
        assert_eq!(p.tc_macs(), 12.0);
    }
}
