//! GPU architecture descriptors for the five evaluation platforms
//! (paper §VI: RTX 5090 / RTX PRO 6000 Blackwell, H100 Hopper, RTX 4090 Ada,
//! A100 Ampere).
//!
//! Peak numbers are public-datasheet values (dense, no sparsity). The three
//! *calibration* constants — achieved-bandwidth fraction, kernel launch
//! overhead, and warps-to-saturate — are fixed per architecture and shared
//! by **every** kernel and experiment, so relative comparisons between
//! systems are never tuned per-figure.

use std::fmt;

/// GPU hardware generation, which gates instruction availability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchGen {
    /// SM80 (A100): `mma` + `cp.async`.
    Ampere,
    /// SM89 (RTX 4090): Ampere ISA with FP8 tensor cores.
    Ada,
    /// SM90 (H100): `wgmma`, TMA, warp specialization.
    Hopper,
    /// SM100/SM120 (RTX 5090, RTX PRO 6000): native MXFP4/NVFP4 MMA.
    Blackwell,
}

impl ArchGen {
    /// Warpgroup MMA (`wgmma`) availability.
    pub fn supports_wgmma(self) -> bool {
        self >= ArchGen::Hopper
    }

    /// Tensor Memory Accelerator availability.
    pub fn supports_tma(self) -> bool {
        self >= ArchGen::Hopper
    }

    /// Native block-scaled FP4 MMA availability.
    pub fn supports_fp4_mma(self) -> bool {
        self == ArchGen::Blackwell
    }
}

impl fmt::Display for ArchGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchGen::Ampere => write!(f, "Ampere"),
            ArchGen::Ada => write!(f, "Ada"),
            ArchGen::Hopper => write!(f, "Hopper"),
            ArchGen::Blackwell => write!(f, "Blackwell"),
        }
    }
}

/// A concrete GPU with peak rates and calibration constants.
///
/// The five evaluation GPUs are defined declaratively as
/// `profiles/*.devspec` files (embedded at compile time); the named
/// constructors parse those files, so a profile edit is the single source
/// of truth. Arbitrary hardware comes in the same way via
/// [`crate::spec::DeviceSpec::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct GpuArch {
    /// Marketing name, e.g. `"A100"`.
    pub name: String,
    /// Hardware generation.
    pub gen: ArchGen,
    /// Streaming multiprocessor count.
    pub sms: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// DRAM capacity, GB.
    pub dram_gb: f64,
    /// Dense FP16 Tensor Core throughput, TFLOPS.
    pub tc_fp16_tflops: f64,
    /// Dense FP8 Tensor Core throughput, TFLOPS (0 when absent).
    pub tc_fp8_tflops: f64,
    /// Dense FP4 (MX/NV) Tensor Core throughput, TFLOPS (0 when absent).
    pub tc_fp4_tflops: f64,
    /// CUDA-core FP32 throughput, TFLOPS.
    pub cuda_fp32_tflops: f64,
    /// Shared memory per SM, KiB.
    pub smem_kb_per_sm: u32,
    /// L2 capacity, MiB.
    pub l2_mb: f64,
    /// Calibration: fraction of peak DRAM bandwidth attention-style kernels
    /// achieve (strided KV gathers never hit 100%).
    pub mem_efficiency: f64,
    /// Calibration: per-kernel-launch overhead in microseconds (driver +
    /// grid setup + DRAM latency ramp).
    pub launch_overhead_us: f64,
    /// Calibration: resident warps per SM needed to hide memory latency.
    pub warps_to_saturate: f64,
    /// Calibration: fraction of nominal CUDA-core issue slots usable by
    /// mixed integer/FP scalar work. Datacenter parts (A100/H100) have
    /// dedicated INT32 pipes (≈0.9); consumer parts count dual-issue FP32
    /// in their nominal rate, so int-heavy dequantization gets ≈0.45-0.5.
    pub cuda_issue_efficiency: f64,
}

impl GpuArch {
    /// NVIDIA A100 SXM4 80 GB (Ampere, SM80), parsed from
    /// `profiles/a100.devspec`.
    pub fn a100() -> Self {
        crate::spec::parse_embedded("a100", include_str!("../profiles/a100.devspec"))
    }

    /// NVIDIA GeForce RTX 4090 (Ada, SM89), parsed from
    /// `profiles/rtx4090.devspec`.
    pub fn rtx4090() -> Self {
        crate::spec::parse_embedded("rtx4090", include_str!("../profiles/rtx4090.devspec"))
    }

    /// NVIDIA H100 SXM5 (Hopper, SM90), parsed from
    /// `profiles/h100.devspec`.
    pub fn h100() -> Self {
        crate::spec::parse_embedded("h100", include_str!("../profiles/h100.devspec"))
    }

    /// NVIDIA GeForce RTX 5090 (Blackwell, SM120), parsed from
    /// `profiles/rtx5090.devspec`.
    pub fn rtx5090() -> Self {
        crate::spec::parse_embedded("rtx5090", include_str!("../profiles/rtx5090.devspec"))
    }

    /// NVIDIA RTX PRO 6000 Blackwell workstation GPU, parsed from
    /// `profiles/rtx_pro6000.devspec`.
    pub fn rtx_pro6000() -> Self {
        crate::spec::parse_embedded(
            "rtx_pro6000",
            include_str!("../profiles/rtx_pro6000.devspec"),
        )
    }

    /// All five evaluation GPUs.
    pub fn all() -> Vec<GpuArch> {
        vec![
            GpuArch::a100(),
            GpuArch::rtx4090(),
            GpuArch::h100(),
            GpuArch::rtx5090(),
            GpuArch::rtx_pro6000(),
        ]
    }

    /// CUDA-core instruction issue rate, instructions/s (an FMA is one
    /// instruction at two FLOPs).
    pub(crate) fn cuda_ips(&self) -> f64 {
        self.cuda_fp32_tflops * 1e12 / 2.0
    }

    /// Issue rate achievable by kernel code mixing integer unpacking with
    /// FP math (the realistic rate for dequantization inner loops).
    pub(crate) fn cuda_ips_effective(&self) -> f64 {
        self.cuda_ips() * self.cuda_issue_efficiency
    }

    /// Aggregate shared-memory bandwidth, bytes/s (128 B per SM per clock).
    pub(crate) fn smem_bw_bytes(&self) -> f64 {
        self.sms as f64 * 128.0 * self.clock_ghz * 1e9
    }

    /// Dense Tensor Core throughput for a precision, FLOPS.
    ///
    /// Returns 0 when the precision is unsupported (callers must fall back
    /// to CUDA cores or a wider format).
    pub(crate) fn tc_flops(&self, precision: Precision) -> f64 {
        let tflops = match precision {
            Precision::Fp16 => self.tc_fp16_tflops,
            Precision::Fp8 => self.tc_fp8_tflops,
            Precision::Fp4 => self.tc_fp4_tflops,
        };
        tflops * 1e12
    }

    /// Effective DRAM bandwidth for attention-style access, bytes/s.
    pub fn effective_bw_bytes(&self) -> f64 {
        self.dram_bw_gbs * 1e9 * self.mem_efficiency
    }

    /// Modeled steady-state decode throughput, used as the placement
    /// weight on heterogeneous fleets (KV heads assigned proportionally).
    ///
    /// Low-bit decode attention streams packed KV bytes from DRAM and
    /// issues roughly one FP16 Tensor-Core MAC per packed byte, so the
    /// roofline rate is the slower of the effective DRAM byte rate and
    /// the Tensor-Core MAC rate. On every shipped profile DRAM binds —
    /// exactly the regime the paper targets — but the `min` keeps the
    /// weight honest for compute-starved spec files too.
    pub(crate) fn decode_weight(&self) -> f64 {
        let macs_per_s = self.tc_flops(Precision::Fp16) / 2.0;
        self.effective_bw_bytes().min(macs_per_s)
    }
}

impl fmt::Display for GpuArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.gen)
    }
}

/// Tensor Core operand precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// FP16/BF16 operands.
    Fp16,
    /// FP8 (E4M3/E5M2) operands.
    Fp8,
    /// Block-scaled FP4 (MXFP4/NVFP4) operands.
    Fp4,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_feature_gates() {
        assert!(!ArchGen::Ampere.supports_wgmma());
        assert!(!ArchGen::Ada.supports_wgmma());
        assert!(ArchGen::Hopper.supports_wgmma());
        assert!(ArchGen::Hopper.supports_tma());
        assert!(!ArchGen::Hopper.supports_fp4_mma());
        assert!(ArchGen::Blackwell.supports_fp4_mma());
    }

    #[test]
    fn spec_sanity() {
        for arch in GpuArch::all() {
            assert!(arch.dram_bw_gbs > 500.0, "{arch}");
            assert!(arch.tc_fp16_tflops > arch.cuda_fp32_tflops, "{arch}");
            assert!(arch.mem_efficiency > 0.5 && arch.mem_efficiency < 1.0);
            assert!(arch.cuda_ips() > 0.0);
            assert!(
                arch.smem_bw_bytes() > arch.dram_bw_gbs * 1e9,
                "{arch}: smem faster than DRAM"
            );
        }
    }

    #[test]
    fn fp4_only_on_blackwell() {
        assert_eq!(GpuArch::a100().tc_flops(Precision::Fp4), 0.0);
        assert_eq!(GpuArch::h100().tc_flops(Precision::Fp4), 0.0);
        assert!(GpuArch::rtx5090().tc_flops(Precision::Fp4) > 0.0);
        assert!(
            GpuArch::rtx_pro6000().tc_flops(Precision::Fp4)
                > GpuArch::rtx5090().tc_flops(Precision::Fp4)
        );
    }

    #[test]
    fn hopper_has_highest_bandwidth() {
        let h100 = GpuArch::h100();
        for other in [GpuArch::a100(), GpuArch::rtx4090(), GpuArch::rtx5090()] {
            assert!(h100.dram_bw_gbs > other.dram_bw_gbs);
        }
    }
}
