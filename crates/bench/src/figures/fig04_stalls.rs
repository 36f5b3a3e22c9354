//! Fig. 4 — Warp-stall analysis: inserting dequantization into
//! FlashAttention's original warp partitioning (a single warp along N)
//! collapses compute throughput and Tensor-Core utilization; the Wn=4
//! layout restores them.

use crate::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding};
use crate::{banner, row, shape, subbanner};
use bd_core::{AttentionConfig, OptimizationFlags};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 4: dequantization stalls under the original warp layout (RTX 4090)");
    let arch = GpuArch::rtx4090();
    let s = shape(8, AttentionConfig::gqa(32, 8, 128), 32768);

    let fp16 = FlashDecoding::v2();
    let wn1 = BitDecodingSys::kc4().with_flags(OptimizationFlags {
        warp_parallelism: false,
        cooperative_softmax: false,
        ..OptimizationFlags::ALL
    });
    let wn4 = BitDecodingSys::kc4();

    subbanner("micro-level comparison");
    row(&[
        "kernel".into(),
        "latency".into(),
        "TC util".into(),
        "mem-stall share".into(),
        "issue rate".into(),
    ]);
    for (label, sys) in [
        ("W/O dequant (FP16 FA)", &fp16 as &dyn DecodeSystem),
        ("W/ dequant, Wn=1 (FA layout)", &wn1),
        ("W/ dequant, Wn=4 (ours)", &wn4),
    ] {
        let lat = sys.latency(&s, &arch);
        let occ = lat.occupancy.max(1e-9);
        // Exposed (non-overlapped) memory time as the "memory stall" proxy.
        let stall = ((lat.total - lat.tc_wall - lat.t_cuda / occ) / lat.total).clamp(0.0, 1.0);
        let issue: f64 = sys
            .plan(&s, &arch)
            .iter()
            .map(|p| p.cuda.issue_slots() + p.tc_macs() / 256.0)
            .sum::<f64>()
            / lat.total;
        row(&[
            label.to_owned(),
            format!("{:.3} ms", lat.total * 1e3),
            format!("{:.1}%", lat.tc_utilization() * 100.0),
            format!("{:.1}%", stall * 100.0),
            format!("{:.2e}/s", issue),
        ]);
    }

    println!();
    println!("Paper reference (Fig. 4b): with dequant under the original layout, memory");
    println!("stalls rise and compute throughput / TC utilization drop by ~2x; the Wn");
    println!("re-partitioning recovers them.");
    Ok(())
}
