//! The analytical timing model: turns a [`KernelProfile`] into latency on a
//! [`GpuArch`].
//!
//! The model is a roofline with explicit overlap and occupancy terms:
//!
//! ```text
//! t_mem    = dram_bytes / (BW · mem_efficiency)
//! t_tc     = Σ_p  macs_p · 2 / tc_flops(p)
//! t_cuda   = issue_slots / cuda_ips          (per-class rate weights)
//! t_smem   = transactions · 128B / smem_bw
//! compute  = overlap(t_tc, t_cuda; tc_cuda)
//! core     = overlap(max(t_mem, t_smem)..., compute; mem_compute)
//! total    = core / occupancy(ctas, warps) + launches · t_launch
//! ```
//!
//! where `overlap(a, b; ω) = max(a,b) + (1-ω)·min(a,b)`. Occupancy scales
//! the achievable throughput by the fraction of latency-hiding warps the
//! grid actually provides — the term that makes single-batch decoding
//! require split-KV parallelism.

use crate::arch::{GpuArch, Precision};
use crate::profile::KernelProfile;
use std::fmt;

/// Analytic model of the inter-device link that tensor-parallel decode
/// all-reduces over (NVLink/PCIe-class point-to-point ring).
///
/// The collective modelled is a **ring all-reduce**: `2·(N−1)` pipeline
/// steps, each moving `payload / N` bytes per device, so every device
/// sends (and receives) `2·(N−1)/N · payload` bytes per collective plus a
/// per-hop latency floor. A single device does no communication. The model
/// deliberately captures only bandwidth and hop latency — no congestion,
/// no topology (every pair is one hop), no compute/comm overlap; the
/// ROADMAP records these limits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterconnectModel {
    /// Per-direction link bandwidth per device, GB/s.
    pub link_gbs: f64,
    /// Per-hop latency floor, microseconds.
    pub latency_us: f64,
}

impl InterconnectModel {
    /// A custom link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(link_gbs: f64, latency_us: f64) -> Self {
        assert!(link_gbs > 0.0, "link bandwidth must be positive");
        InterconnectModel {
            link_gbs,
            latency_us,
        }
    }

    /// NVLink-4 class link (H100 NVL: ~450 GB/s per direction).
    pub fn nvlink4() -> Self {
        InterconnectModel::new(450.0, 3.0)
    }

    /// PCIe Gen5 x16 class link (~64 GB/s).
    pub fn pcie_gen5() -> Self {
        InterconnectModel::new(64.0, 10.0)
    }

    /// Bytes each device sends over the ring to all-reduce a
    /// `payload_bytes` tensor across `devices` devices.
    pub(crate) fn allreduce_bytes_per_device(&self, payload_bytes: f64, devices: usize) -> f64 {
        if devices <= 1 {
            0.0
        } else {
            2.0 * (devices - 1) as f64 / devices as f64 * payload_bytes
        }
    }

    /// Wall-clock seconds of the ring all-reduce (bandwidth term plus the
    /// `2·(N−1)` hop-latency floor).
    pub fn allreduce_s(&self, payload_bytes: f64, devices: usize) -> f64 {
        if devices <= 1 {
            return 0.0;
        }
        let wire = self.allreduce_bytes_per_device(payload_bytes, devices) / (self.link_gbs * 1e9);
        wire + 2.0 * (devices - 1) as f64 * self.latency_us * 1e-6
    }

    /// Wall-clock seconds of a single point-to-point transfer of
    /// `payload_bytes` over the link (bandwidth term plus one hop-latency
    /// floor) — the primitive a KV swap-out/swap-in over a PCIe-class
    /// host link is priced with. Zero bytes still pay the hop latency.
    pub fn transfer_s(&self, payload_bytes: f64) -> f64 {
        payload_bytes / (self.link_gbs * 1e9) + self.latency_us * 1e-6
    }
}

/// Latency decomposition of one kernel (all times in seconds).
///
/// `t_*` fields are *ideal* unit-busy times at full occupancy; the
/// `*_wall` fields are occupancy-adjusted wall-clock contributions, which
/// stay meaningful when breakdowns of several kernels are
/// [chained](LatencyBreakdown::chain).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// DRAM time.
    pub t_mem: f64,
    /// Tensor Core time.
    pub t_tc: f64,
    /// CUDA-core time (all classes).
    pub t_cuda: f64,
    /// CUDA-core time attributable to dequantization (incl. slow casts).
    pub t_cuda_dequant: f64,
    /// CUDA-core time attributable to quantization/packing.
    pub t_cuda_quant: f64,
    /// CUDA-core time of matmul FMAs (GEMV-style kernels).
    pub t_cuda_fma: f64,
    /// Shared-memory time.
    pub t_smem: f64,
    /// Launch overhead.
    pub t_launch: f64,
    /// Occupancy factor applied (1.0 = fully occupied).
    pub occupancy: f64,
    /// Wall-clock Tensor Core busy time (occupancy-adjusted).
    pub tc_wall: f64,
    /// Wall-clock dequantization busy time.
    pub dequant_wall: f64,
    /// Wall-clock DRAM busy time.
    pub mem_wall: f64,
    /// End-to-end kernel latency.
    pub total: f64,
}

impl LatencyBreakdown {
    /// Tensor Core utilization: busy TC wall time over total latency.
    pub fn tc_utilization(&self) -> f64 {
        if self.total > 0.0 {
            (self.tc_wall / self.total).min(1.0)
        } else {
            0.0
        }
    }

    /// Fraction of kernel time attributable to dequantization work
    /// (the quantity Fig. 15a reports).
    pub fn dequant_fraction(&self) -> f64 {
        if self.total > 0.0 {
            (self.dequant_wall / self.total).min(1.0)
        } else {
            0.0
        }
    }

    /// Achieved-DRAM-throughput proxy: memory wall time over total.
    pub fn mem_throughput_fraction(&self) -> f64 {
        if self.total > 0.0 {
            (self.mem_wall / self.total).min(1.0)
        } else {
            0.0
        }
    }

    /// Sums two breakdowns (sequential kernels).
    pub fn chain(self, other: LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            t_mem: self.t_mem + other.t_mem,
            t_tc: self.t_tc + other.t_tc,
            t_cuda: self.t_cuda + other.t_cuda,
            t_cuda_dequant: self.t_cuda_dequant + other.t_cuda_dequant,
            t_cuda_quant: self.t_cuda_quant + other.t_cuda_quant,
            t_cuda_fma: self.t_cuda_fma + other.t_cuda_fma,
            t_smem: self.t_smem + other.t_smem,
            t_launch: self.t_launch + other.t_launch,
            occupancy: self.occupancy.min(other.occupancy),
            tc_wall: self.tc_wall + other.tc_wall,
            dequant_wall: self.dequant_wall + other.dequant_wall,
            mem_wall: self.mem_wall + other.mem_wall,
            total: self.total + other.total,
        }
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms (mem {:.3}, tc {:.3}, cuda {:.3}, smem {:.3}, launch {:.3}; occ {:.2})",
            self.total * 1e3,
            self.t_mem * 1e3,
            self.t_tc * 1e3,
            self.t_cuda * 1e3,
            self.t_smem * 1e3,
            self.t_launch * 1e3,
            self.occupancy,
        )
    }
}

/// `max(a,b) + (1-ω)·min(a,b)` — the pairwise overlap combinator.
fn overlap(a: f64, b: f64, omega: f64) -> f64 {
    a.max(b) + (1.0 - omega.clamp(0.0, 1.0)) * a.min(b)
}

impl GpuArch {
    /// Latency-hiding occupancy factor for a grid.
    ///
    /// With fewer resident warps than [`GpuArch::warps_to_saturate`] per SM
    /// (averaged over the device), achieved throughput degrades linearly —
    /// the regime single-batch decoding lives in without split-KV.
    pub fn occupancy_factor(&self, ctas: f64, warps_per_cta: f64) -> f64 {
        if ctas <= 0.0 {
            return 1.0;
        }
        let avg_warps_per_sm = warps_per_cta * ctas / self.sms as f64;
        // Floor at 0.1: even a single CTA pipelines its own loads, so tiny
        // grids degrade to a latency floor rather than collapsing linearly.
        (avg_warps_per_sm / self.warps_to_saturate).clamp(0.1, 1.0)
    }

    /// Evaluates a kernel profile into a latency breakdown.
    pub fn evaluate(&self, p: &KernelProfile) -> LatencyBreakdown {
        let t_mem = p.dram_bytes() / (self.effective_bw_bytes() * p.bw_derate.clamp(0.01, 1.0));

        let mut t_tc = 0.0;
        for (macs, prec) in [
            (p.tc_macs_fp16, Precision::Fp16),
            (p.tc_macs_fp8, Precision::Fp8),
            (p.tc_macs_fp4, Precision::Fp4),
        ] {
            if macs > 0.0 {
                let flops = self.tc_flops(prec);
                assert!(
                    flops > 0.0,
                    "{}: kernel '{}' issues {prec:?} MACs unsupported on this arch",
                    self.name,
                    p.name
                );
                t_tc += macs * 2.0 / flops;
            }
        }

        let ips = self.cuda_ips_effective();
        let t_cuda = p.cuda.issue_slots() / ips;
        let t_cuda_dequant = (p.cuda.dequant + 4.0 * p.cuda.cvt) / ips;
        let t_cuda_quant = p.cuda.quant / ips;
        let t_cuda_fma = p.cuda.fma / ips;

        let t_smem = p.smem_transactions * 128.0 / self.smem_bw_bytes();

        let compute = overlap(t_tc, t_cuda, p.overlap.tc_cuda);
        let mem = t_mem + t_smem; // both are "data movement" streams
        let core = overlap(mem, compute, p.overlap.mem_compute);

        let occupancy = self.occupancy_factor(p.ctas, p.warps_per_cta);
        let t_launch = p.launches * self.launch_overhead_us * 1e-6;
        let total = core / occupancy + t_launch;

        LatencyBreakdown {
            t_mem,
            t_tc,
            t_cuda,
            t_cuda_dequant,
            t_cuda_quant,
            t_cuda_fma,
            t_smem,
            t_launch,
            occupancy,
            tc_wall: t_tc / occupancy,
            dequant_wall: t_cuda_dequant / occupancy,
            mem_wall: t_mem / occupancy,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OverlapSpec;

    fn mem_bound_profile(bytes: f64) -> KernelProfile {
        let mut p = KernelProfile::new("membound");
        p.dram_read_bytes = bytes;
        p.ctas = 1000.0;
        p.warps_per_cta = 8.0;
        p.overlap = OverlapSpec::PIPELINED;
        p
    }

    #[test]
    fn mem_bound_kernel_tracks_bandwidth() {
        let arch = GpuArch::a100();
        let bytes = 512e6;
        let b = arch.evaluate(&mem_bound_profile(bytes));
        let ideal = bytes / arch.effective_bw_bytes();
        assert!((b.total - ideal - b.t_launch).abs() / ideal < 0.05);
    }

    #[test]
    fn quarter_bytes_quarter_time() {
        let arch = GpuArch::rtx4090();
        let t_full = arch.evaluate(&mem_bound_profile(400e6)).total;
        let t_quarter = arch.evaluate(&mem_bound_profile(100e6)).total;
        let ratio = t_full / t_quarter;
        assert!(ratio > 3.5 && ratio < 4.1, "ratio {ratio}");
    }

    #[test]
    fn low_occupancy_inflates_latency() {
        let arch = GpuArch::a100();
        let mut p = mem_bound_profile(64e6);
        p.ctas = 8.0; // single-batch GQA without split-KV
        p.warps_per_cta = 4.0;
        let starved = arch.evaluate(&p).total;
        let mut p2 = p.clone();
        p2.ctas = 1024.0;
        let full = arch.evaluate(&p2).total;
        assert!(starved > full * 5.0, "starved {starved} vs full {full}");
    }

    #[test]
    fn serialized_dequant_slower_than_pipelined() {
        let arch = GpuArch::rtx4090();
        // Low-bit kernel: small memory traffic, comparable TC and dequant
        // work so the overlap structure is what differentiates.
        let mut p = mem_bound_profile(20e6);
        p.tc_macs_fp16 = 8e9;
        p.cuda.dequant = 3e9;
        let fast = arch.evaluate(&p).total;
        p.overlap = OverlapSpec::SERIALIZED_DEQUANT;
        let slow = arch.evaluate(&p).total;
        assert!(slow > fast * 1.2, "slow {slow} fast {fast}");
    }

    #[test]
    fn cuda_only_matmul_slower_than_tensor_core() {
        let arch = GpuArch::a100();
        let macs = 4e9;
        let mut tc = mem_bound_profile(50e6);
        tc.tc_macs_fp16 = macs;
        let mut cc = mem_bound_profile(50e6);
        cc.cuda.fma = macs; // same MACs on CUDA cores
        let t_tc = arch.evaluate(&tc).total;
        let t_cc = arch.evaluate(&cc).total;
        assert!(t_cc > t_tc * 3.0, "cuda {t_cc} vs tc {t_tc}");
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let arch = GpuArch::h100();
        let mut p = KernelProfile::new("tiny");
        p.dram_read_bytes = 1e3;
        p.launches = 10.0;
        let b = arch.evaluate(&p);
        assert!(b.t_launch > 0.9 * b.total - 1e-9);
    }

    #[test]
    #[should_panic(expected = "unsupported on this arch")]
    fn fp4_on_ampere_panics() {
        let mut p = KernelProfile::new("fp4");
        p.tc_macs_fp4 = 1e9;
        GpuArch::a100().evaluate(&p);
    }

    #[test]
    fn interconnect_single_device_is_free() {
        let link = InterconnectModel::nvlink4();
        assert_eq!(link.allreduce_s(1e9, 1), 0.0);
        assert_eq!(link.allreduce_bytes_per_device(1e9, 1), 0.0);
    }

    #[test]
    fn interconnect_ring_scaling() {
        let link = InterconnectModel::new(100.0, 0.0);
        // 2-device ring moves exactly the payload per device.
        assert!((link.allreduce_bytes_per_device(1e6, 2) - 1e6).abs() < 1e-6);
        // Per-device bytes grow toward 2x payload as N grows.
        assert!(link.allreduce_bytes_per_device(1e6, 8) > link.allreduce_bytes_per_device(1e6, 2));
        assert!(link.allreduce_bytes_per_device(1e6, 1024) < 2e6);
        // Bandwidth term: 1 MB at 100 GB/s ≈ 10 µs for 2 devices.
        assert!((link.allreduce_s(1e6, 2) - 1e-5).abs() < 1e-9);
        // Latency floor dominates tiny payloads.
        let lat = InterconnectModel::new(100.0, 5.0);
        assert!(lat.allreduce_s(8.0, 4) > 29e-6);
    }

    #[test]
    fn interconnect_point_to_point_transfer() {
        // 64 MB over a 64 GB/s PCIe-class link ≈ 1 ms + 10 µs hop floor.
        let link = InterconnectModel::pcie_gen5();
        let t = link.transfer_s(64e6);
        assert!((t - (1e-3 + 10e-6)).abs() < 1e-9);
        // Zero bytes still pay the hop latency.
        assert!((link.transfer_s(0.0) - 10e-6).abs() < 1e-12);
        // A transfer is cheaper than an all-reduce of the same payload on
        // the same link (one hop vs 2·(N−1)).
        assert!(link.transfer_s(1e6) < link.allreduce_s(1e6, 2));
    }

    #[test]
    fn breakdown_chain_adds_totals() {
        let arch = GpuArch::a100();
        let b1 = arch.evaluate(&mem_bound_profile(10e6));
        let b2 = arch.evaluate(&mem_bound_profile(20e6));
        let c = b1.chain(b2);
        assert!((c.total - (b1.total + b2.total)).abs() < 1e-12);
        assert!((c.t_mem - (b1.t_mem + b2.t_mem)).abs() < 1e-12);
    }

    #[test]
    fn tc_utilization_reported() {
        let arch = GpuArch::a100();
        let mut p = mem_bound_profile(1e6);
        p.tc_macs_fp16 = 1e10;
        let b = arch.evaluate(&p);
        assert!(b.tc_utilization() > 0.5);
        assert!(b.tc_utilization() <= 1.01);
    }
}
