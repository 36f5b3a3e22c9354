//! Fig. 2 — The low-bit KV-cache system taxonomy: separated kernels
//! (KIVI), CUDA-core-only fused kernels (Atom/QServe), and BitDecoding's
//! cooperative Tensor Core + CUDA core design, on one workload.

use crate::baselines::{BitDecodingSys, CudaOnly, DecodeSystem, FlashDecoding, Kivi};
use crate::{banner, row, shape, subbanner};
use bd_core::AttentionConfig;
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 2: system taxonomy on one workload (GQA 32/8, len=8k, bs=8, RTX 4090)");
    let arch = GpuArch::rtx4090();
    let s = shape(8, AttentionConfig::gqa(32, 8, 128), 8192);

    let fp16 = FlashDecoding::v2();
    let kivi = Kivi::int4();
    let qserve = CudaOnly::qserve();
    let bd = BitDecodingSys::kc4();

    subbanner("per-step attention latency and unit usage");
    row(&[
        "system (style)".into(),
        "latency".into(),
        "speedup".into(),
        "launches".into(),
        "TC busy".into(),
        "dequant".into(),
    ]);
    let base = fp16.latency_s(&s, &arch);
    for (label, sys) in [
        ("FlashAttention (FP16 fused)", &fp16 as &dyn DecodeSystem),
        ("KIVI (separated kernels)", &kivi),
        ("QServe (CUDA-core fused)", &qserve),
        ("BitDecoding (cooperative)", &bd),
    ] {
        let lat = sys.latency(&s, &arch);
        let launches: f64 = sys.plan(&s, &arch).iter().map(|p| p.launches).sum();
        row(&[
            label.to_owned(),
            format!("{:.3} ms", lat.total * 1e3),
            format!("{:.2}x", base / lat.total),
            format!("{launches:.0}"),
            format!("{:.1}%", lat.tc_utilization() * 100.0),
            format!("{:.1}%", lat.dequant_fraction() * 100.0),
        ]);
    }

    println!();
    println!("The taxonomy of paper Fig. 2: non-fused designs multiply launches and");
    println!("round trips; CUDA-only fusion leaves Tensor Cores idle and serializes");
    println!("dequantization; BitDecoding overlaps both units.");
    Ok(())
}
