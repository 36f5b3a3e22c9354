//! Analytic kernel-profile builders for BitDecoding's decode path.
//!
//! Each function converts a [`DecodeShape`] into the event counts one
//! kernel launch generates (DRAM bytes, TC MACs, CUDA-core slots, smem
//! transactions). `bd-gpu-sim`'s cost model then prices the events on a
//! concrete GPU. Baseline systems build their own profiles in
//! `bd-baselines` from the same vocabulary, so every comparison shares one
//! pricing rule.

use crate::shape::DecodeShape;
use bd_gpu_sim::{conflict_factor, GpuArch, KernelProfile, OverlapSpec, Swizzle};
use bd_kvcache::{QuantScheme, SchemeKind};
use bd_lowbit::fastpath::register_ops;
use bd_lowbit::{codes_per_u32, BitWidth};

/// CUDA-core issue slots one dequantized element costs on the `lop3` fast
/// path, derived from the **same** per-register instruction counts the
/// functional fused kernel reports through
/// [`bd_lowbit::fastpath::FastDequantOps`]:
/// `register_ops(w).total() / codes_per_u32(w)` — 11/8 for INT4, 23/16 for
/// INT2. Charging the model from the telemetry source keeps the analytic
/// cost and the counted instruction stream in lock-step (see
/// `tests/telemetry.rs`).
pub fn fast_dequant_slots_per_elem(width: BitWidth) -> f64 {
    f64::from(register_ops(width).total()) / codes_per_u32(width) as f64
}

/// Architecture-specific execution path of the Packing Kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchPath {
    /// `mma.m16n8k16` + `cp.async` (Ampere / Ada), "v2" kernels.
    Sm80,
    /// `wgmma` + TMA + warp specialization (Hopper), "v3" kernels.
    Sm90,
    /// Blackwell native block-scaled FP4 MMA.
    Sm100Fp4,
}

impl ArchPath {
    /// The default path for an architecture and scheme.
    pub fn select(arch: &GpuArch, scheme: QuantScheme) -> ArchPath {
        match scheme.kind() {
            SchemeKind::Fp4(_) if arch.gen.supports_fp4_mma() => ArchPath::Sm100Fp4,
            _ if arch.gen.supports_wgmma() => ArchPath::Sm90,
            _ => ArchPath::Sm80,
        }
    }

    /// Throughput penalty for running legacy SM80 instructions on newer
    /// tensor cores (the ~35% loss the paper cites for pre-Hopper kernels
    /// on H100, §III-A). Multiplies issued TC work.
    pub(crate) fn legacy_tc_penalty(self, arch: &GpuArch) -> f64 {
        if self == ArchPath::Sm80 && arch.gen.supports_wgmma() {
            1.35
        } else {
            1.0
        }
    }
}

/// Ablation switches for BitDecoding's design modules (paper Fig. 16 and
/// Table III). All enabled by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizationFlags {
    /// Layout induction: pack in fragment order so dequantization uses the
    /// fast `lop3` path with zero reshuffling. Disabled → slow casts plus
    /// in-kernel layout fixup.
    pub layout_induction: bool,
    /// Warp parallelism: `Wm = 1, Wn = 4` so dequant stalls are hidden by
    /// the warp scheduler. Disabled → FlashAttention's `Wn = 1` layout.
    pub warp_parallelism: bool,
    /// Software pipeline: `cp.async`/TMA double-buffering overlapping
    /// loads, dequant and MMA. Disabled → phase-serial execution.
    pub software_pipeline: bool,
    /// Multi-warp cooperative softmax (Algorithm 1). Only meaningful with
    /// `warp_parallelism`; disabling it with `Wn > 1` produces invalid
    /// numerics (the cost model still prices it for Table III).
    pub cooperative_softmax: bool,
}

impl OptimizationFlags {
    /// Everything on — the shipping configuration.
    pub const ALL: OptimizationFlags = OptimizationFlags {
        layout_induction: true,
        warp_parallelism: true,
        software_pipeline: true,
        cooperative_softmax: true,
    };
}

impl Default for OptimizationFlags {
    fn default() -> Self {
        OptimizationFlags::ALL
    }
}

/// Number of KV splits the split-KV scheduler picks: enough CTAs to give
/// every SM its latency-hiding warps, bounded by the token count
/// (paper's FlashDecoding-style Single setting).
pub fn choose_splits(arch: &GpuArch, shape: &DecodeShape, warps_per_cta: f64) -> usize {
    let base = shape.kv_groups() as f64;
    let target_ctas = arch.sms as f64 * arch.warps_to_saturate / warps_per_cta;
    let want = (target_ctas / base).ceil().max(1.0) as usize;
    // A split must cover at least one 256-token KV chunk.
    let max_splits = (shape.packed_len() / 256).max(1);
    want.min(max_splits)
}

/// Fraction of Tensor-Core M-tile rows the query transform actually fills:
/// `g_q` rows of a 16-row tile. Issued MACs are charged for full tiles.
fn mtile_rows(gq: usize) -> f64 {
    (gq.div_ceil(16) * 16) as f64
}

/// Issued Tensor Core MACs for both attention GEMMs over `tokens` KV
/// positions (Q·K^T and P·V).
fn attention_tc_macs(shape: &DecodeShape, tokens: usize) -> f64 {
    let d = shape.attn.head_dim as f64;
    let rows = mtile_rows(shape.rows_per_group());
    2.0 * rows * d * tokens as f64 * shape.kv_groups() as f64
}

/// CUDA-core softmax work over `tokens` positions (exp + rescale + reduce).
fn softmax_ops(shape: &DecodeShape, tokens: usize) -> (f64, f64, f64) {
    let rows = shape.total_rows() as f64 * tokens as f64;
    (rows, 0.25 * rows, 0.75 * rows)
}

/// The overlap structure implied by the flags and arch path.
pub(crate) fn overlap_for(path: ArchPath, flags: OptimizationFlags) -> OverlapSpec {
    if !flags.warp_parallelism {
        return OverlapSpec::SERIALIZED_DEQUANT;
    }
    let mut spec = match path {
        ArchPath::Sm80 => OverlapSpec::PIPELINED,
        // Warp-specialized producer/consumer + wgmma_SS: best overlap.
        ArchPath::Sm90 => OverlapSpec {
            tc_cuda: 0.97,
            mem_compute: 0.95,
        },
        // No dequant at all; the residual stall is the P requantization.
        ArchPath::Sm100Fp4 => OverlapSpec {
            tc_cuda: 0.93,
            mem_compute: 0.93,
        },
    };
    if !flags.software_pipeline {
        spec.mem_compute = 0.55;
    }
    spec
}

/// Profile of the **Packing Kernel** (paper §V-C): fused dequantization +
/// attention over the packed region of the cache.
pub fn packing_kernel_profile(
    shape: &DecodeShape,
    scheme: QuantScheme,
    arch: &GpuArch,
    path: ArchPath,
    flags: OptimizationFlags,
    paged: bool,
) -> KernelProfile {
    let lp = shape.packed_len();
    let d = shape.attn.head_dim;
    let groups = shape.kv_groups() as f64;
    let mut p = KernelProfile::new(format!("bitdecoding-packing-{}", scheme.label()));

    // --- DRAM traffic ---
    let kv_bytes = groups * lp as f64 * scheme.bytes_per_token(d);
    let q_bytes = shape.total_rows() as f64 * d as f64 * 2.0;
    let o_bytes = shape.total_rows() as f64 * d as f64 * 2.0;
    p.dram_read_bytes = kv_bytes + q_bytes;
    p.dram_write_bytes = o_bytes;
    if paged {
        // Page-table walks plus slightly less coalesced gathers.
        p.dram_read_bytes += groups * (lp as f64 / 64.0) * 8.0;
        p.dram_read_bytes *= 1.03;
    }

    // --- Tensor Core work ---
    let macs = attention_tc_macs(shape, lp) * path.legacy_tc_penalty(arch);
    match path {
        ArchPath::Sm100Fp4 => p.tc_macs_fp4 = macs,
        _ => p.tc_macs_fp16 = macs,
    }

    // --- CUDA-core work ---
    let elems = 2.0 * groups * lp as f64 * d as f64; // K and V elements
    match path {
        ArchPath::Sm100Fp4 => {
            // Native FP4 MMA: no dequantization, but P must be re-quantized
            // to FP4 after softmax (paper Challenge 2).
            p.cuda.quant += shape.total_rows() as f64 * lp as f64 * 2.0;
        }
        _ => {
            if flags.layout_induction {
                // lop3 fast path, charged at the exact per-element rate the
                // fused kernel's FastDequantOps telemetry reports (11/8 for
                // INT4, 23/16 for INT2). FP4-on-dequant-path packs at the
                // INT4 ratio.
                let width = scheme.int_width().unwrap_or(BitWidth::B4);
                p.cuda.dequant += elems * fast_dequant_slots_per_elem(width);
            } else {
                // static_cast per element plus in-register layout fixup.
                p.cuda.cvt += elems * 1.0;
                p.cuda.misc += elems * 2.0;
            }
        }
    }
    let (exp, reduce, misc) = softmax_ops(shape, lp);
    p.cuda.exp += exp;
    p.cuda.reduce += reduce;
    p.cuda.misc += misc;

    // --- Shared memory ---
    let swizzle = if flags.layout_induction {
        Swizzle::Xor
    } else {
        Swizzle::None
    };
    let conflict = conflict_factor(d * 2, swizzle).max(1.0);
    let staged_bytes = kv_bytes * 2.0; // stage packed data, read fragments
    p.smem_transactions = staged_bytes / 128.0 * conflict;
    if flags.cooperative_softmax && flags.warp_parallelism && path != ArchPath::Sm90 {
        // sAcc round-trip: P written to and re-read from shared memory.
        // On Hopper wgmma reads smem directly, so the store is free.
        p.smem_transactions += 2.0 * shape.total_rows() as f64 * lp as f64 * 2.0 / 128.0;
    }

    // --- Grid & overlap ---
    // Wn=4 compute warps plus the producer/copy warps of the software
    // pipeline (warp-specialized on Hopper+).
    let warps_per_cta = 8.0;
    let splits = choose_splits(arch, shape, warps_per_cta);
    p.ctas = (shape.kv_groups() * splits) as f64;
    p.warps_per_cta = warps_per_cta;
    p.overlap = overlap_for(path, flags);
    if !flags.warp_parallelism && path != ArchPath::Sm100Fp4 {
        // A single compute warp along N stalls on dequantization between
        // tiles and cannot keep enough loads in flight; achieved bandwidth
        // collapses (paper Fig. 4 / Table III's 6x latency gap). The slow
        // `static_cast` path has a longer per-tile dependence chain and
        // stalls even harder.
        p.bw_derate = if flags.layout_induction { 0.2 } else { 0.1 };
    }
    if path == ArchPath::Sm80 && arch.gen.supports_tma() {
        // Legacy cp.async kernels on Hopper+ also under-drive the memory
        // system relative to TMA + warp specialization (the ~35% penalty
        // of paper §III-A applies to the load path, not just MMA issue).
        p.bw_derate *= 0.65;
    }
    p
}

/// Profile of the **Residual Kernel** (paper §V-B): FP16 attention over the
/// residual region, with fused quantize+pack amortized over the `Nr` steps
/// between flushes.
pub(crate) fn residual_kernel_profile(
    shape: &DecodeShape,
    scheme: QuantScheme,
    arch: &GpuArch,
    residual_block: usize,
    flags: OptimizationFlags,
) -> KernelProfile {
    let res = shape.residual_len.max(1);
    let d = shape.attn.head_dim;
    let groups = shape.kv_groups() as f64;
    let mut p = KernelProfile::new("bitdecoding-residual");

    p.dram_read_bytes =
        groups * res as f64 * 2.0 * d as f64 * 2.0 + shape.total_rows() as f64 * d as f64 * 2.0;
    p.dram_write_bytes = shape.total_rows() as f64 * d as f64 * 2.0
        // Appending this step's K/V token.
        + groups * 2.0 * d as f64 * 2.0;
    p.tc_macs_fp16 = attention_tc_macs(shape, res);

    let (exp, reduce, misc) = softmax_ops(shape, res);
    p.cuda.exp += exp;
    p.cuda.reduce += reduce;
    p.cuda.misc += misc;

    // Fused quantize+pack of a full block happens once every Nr steps;
    // charge the amortized share (min/max reduce + scale + pack ≈ 4 ops
    // per element, plus shfl butterfses).
    let flush_elems = 2.0 * groups * residual_block as f64 * d as f64;
    p.cuda.quant += flush_elems * 4.0 / residual_block as f64;
    p.cuda.reduce += flush_elems * 5.0 / 32.0 / residual_block as f64;
    // The flushed packed block is written once per Nr steps.
    p.dram_write_bytes += groups * scheme.bytes_per_token(d); // amortized: Nr tokens / Nr steps

    p.smem_transactions = p.dram_read_bytes / 128.0;
    p.ctas = groups;
    p.warps_per_cta = 4.0;
    p.overlap = overlap_for(ArchPath::Sm80, flags);
    let _ = arch;
    p
}

/// Profile of the split-KV **combine kernel**: merges `splits` partial
/// `(m, l, O)` triples per query row.
pub fn combine_kernel_profile(shape: &DecodeShape, splits: usize) -> KernelProfile {
    let mut p = KernelProfile::new("split-kv-combine");
    let rows = shape.total_rows() as f64;
    let d = shape.attn.head_dim as f64;
    // Partials are FP32 (d values + m + l).
    p.dram_read_bytes = splits as f64 * rows * (d * 4.0 + 8.0);
    p.dram_write_bytes = rows * d * 2.0;
    p.cuda.misc = splits as f64 * rows * d * 2.0;
    p.cuda.exp = splits as f64 * rows;
    p.ctas = (rows / 4.0).max(1.0);
    p.warps_per_cta = 4.0;
    p.overlap = OverlapSpec::STANDALONE;
    p
}

/// The full BitDecoding decode-step plan: packing kernel (+ combine when
/// split) + residual kernel.
pub fn decode_plan(
    shape: &DecodeShape,
    scheme: QuantScheme,
    arch: &GpuArch,
    path: ArchPath,
    flags: OptimizationFlags,
    paged: bool,
    residual_block: usize,
) -> Vec<KernelProfile> {
    let mut plan = Vec::new();
    if shape.packed_len() > 0 {
        plan.push(packing_kernel_profile(
            shape, scheme, arch, path, flags, paged,
        ));
        let splits = choose_splits(arch, shape, 4.0);
        if splits > 1 {
            plan.push(combine_kernel_profile(shape, splits));
        }
    }
    if shape.residual_len > 0 {
        plan.push(residual_kernel_profile(
            shape,
            scheme,
            arch,
            residual_block,
            flags,
        ));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttentionConfig;

    fn shape_gqa(batch: usize, len: usize) -> DecodeShape {
        DecodeShape::new(batch, AttentionConfig::gqa(32, 8, 128), len).with_residual(len.min(64))
    }

    #[test]
    fn path_selection() {
        assert_eq!(
            ArchPath::select(&GpuArch::a100(), QuantScheme::kc4()),
            ArchPath::Sm80
        );
        assert_eq!(
            ArchPath::select(&GpuArch::h100(), QuantScheme::kc4()),
            ArchPath::Sm90
        );
        assert_eq!(
            ArchPath::select(&GpuArch::rtx5090(), QuantScheme::mxfp4()),
            ArchPath::Sm100Fp4
        );
        // FP4 scheme on non-Blackwell falls back to dequant paths.
        assert_eq!(
            ArchPath::select(&GpuArch::rtx4090(), QuantScheme::mxfp4()),
            ArchPath::Sm80
        );
    }

    #[test]
    fn single_batch_gets_many_splits() {
        let arch = GpuArch::a100();
        let single = DecodeShape::new(1, AttentionConfig::gqa(32, 8, 128), 131072);
        let batched = DecodeShape::new(64, AttentionConfig::gqa(32, 8, 128), 8192);
        assert!(choose_splits(&arch, &single, 4.0) > 8);
        assert_eq!(choose_splits(&arch, &batched, 4.0), 1);
    }

    #[test]
    fn packed_traffic_shrinks_with_bits() {
        let arch = GpuArch::rtx4090();
        let shape = shape_gqa(8, 8192);
        let p4 = packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
        );
        let p2 = packing_kernel_profile(
            &shape,
            QuantScheme::kc2(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
        );
        assert!(p2.dram_read_bytes < p4.dram_read_bytes * 0.65);
    }

    #[test]
    fn fp4_path_has_no_dequant_but_requants_p() {
        let arch = GpuArch::rtx5090();
        let shape = shape_gqa(8, 8192);
        let p = packing_kernel_profile(
            &shape,
            QuantScheme::mxfp4(),
            &arch,
            ArchPath::Sm100Fp4,
            OptimizationFlags::ALL,
            false,
        );
        assert_eq!(p.cuda.dequant, 0.0);
        assert!(p.cuda.quant > 0.0);
        assert!(p.tc_macs_fp4 > 0.0);
        assert_eq!(p.tc_macs_fp16, 0.0);
    }

    #[test]
    fn layout_induction_avoids_cvt() {
        let arch = GpuArch::a100();
        let shape = shape_gqa(8, 8192);
        let fast = packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
        );
        let slow = packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags {
                layout_induction: false,
                ..OptimizationFlags::ALL
            },
            false,
        );
        assert_eq!(fast.cuda.cvt, 0.0);
        assert!(slow.cuda.cvt > 0.0);
        assert!(slow.cuda.issue_slots() > fast.cuda.issue_slots() * 2.0);
    }

    #[test]
    fn decode_plan_contains_expected_kernels() {
        let arch = GpuArch::a100();
        let shape = shape_gqa(1, 131072);
        let plan = decode_plan(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
            128,
        );
        let names: Vec<&str> = plan.iter().map(|p| p.name.as_str()).collect();
        assert!(names[0].starts_with("bitdecoding-packing"));
        assert!(names.contains(&"split-kv-combine"));
        assert!(names.contains(&"bitdecoding-residual"));
    }

    #[test]
    fn residual_kernel_is_cheap() {
        let arch = GpuArch::rtx4090();
        let shape = shape_gqa(1, 131072);
        let packing = arch.evaluate(&packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
        ));
        let residual = arch.evaluate(&residual_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            128,
            OptimizationFlags::ALL,
        ));
        assert!(
            residual.total < packing.total * 0.35,
            "residual {} vs packing {}",
            residual.total,
            packing.total
        );
    }

    #[test]
    fn paged_adds_small_overhead() {
        let arch = GpuArch::rtx4090();
        let shape = shape_gqa(32, 2048);
        let flat = packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            false,
        );
        let paged = packing_kernel_profile(
            &shape,
            QuantScheme::kc4(),
            &arch,
            ArchPath::Sm80,
            OptimizationFlags::ALL,
            true,
        );
        let ratio = paged.dram_read_bytes / flat.dram_read_bytes;
        assert!(ratio > 1.0 && ratio < 1.1, "paged overhead ratio {ratio}");
    }
}
