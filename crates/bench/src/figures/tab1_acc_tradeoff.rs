//! Table I — Efficiency/accuracy trade-off: decode throughput at the
//! largest admissible batch (LLaMA-3.1-8B, 32K, A100) against the measured
//! attention fidelity and the LongBench-proxy score.

use crate::accuracy::{evaluate_scheme, longbench_proxy, FP16_LONGBENCH};
use crate::baselines::{BitDecodingSys, FlashDecoding};
use crate::llm::{max_throughput, ModelConfig, WeightPrecision};
use crate::{banner, row, subbanner};
use bd_gpu_sim::GpuArch;
use bd_kvcache::QuantScheme;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Table I: efficiency and accuracy trade-off (LLaMA-3.1-8B, 32K, A100)");
    let model = ModelConfig::llama31_8b();
    let arch = GpuArch::a100();

    let fp16_tp = max_throughput(
        model,
        &FlashDecoding::v2(),
        arch.clone(),
        WeightPrecision::Fp16,
        32768,
    );

    subbanner("throughput (tokens/s) + accuracy");
    row(&[
        "KV cache".into(),
        "throughput".into(),
        "vs FP16".into(),
        "rel-RMSE".into(),
        "cosine".into(),
        "LongBench proxy".into(),
    ]);
    row(&[
        "FP16".into(),
        format!("{:.2}", fp16_tp.tokens_per_s),
        "1.00x".into(),
        "0.0000".into(),
        "1.00000".into(),
        format!("{FP16_LONGBENCH:.2}"),
    ]);

    for (label, sys, scheme) in [
        ("INT4 (KC-4)", BitDecodingSys::kc4(), QuantScheme::kc4()),
        ("INT2 (KC-2)", BitDecodingSys::kc2(), QuantScheme::kc2()),
    ] {
        let tp = max_throughput(model, &sys, arch.clone(), WeightPrecision::Fp16, 32768);
        let acc = evaluate_scheme(scheme, 128, 1024, 4);
        row(&[
            label.into(),
            format!("{:.2}", tp.tokens_per_s),
            format!("{:+.2}x", tp.tokens_per_s / fp16_tp.tokens_per_s),
            format!("{:.4}", acc.output_rel_rmse),
            format!("{:.5}", acc.cosine),
            format!("{:.2}", longbench_proxy(&acc)),
        ]);
    }

    println!();
    println!("Paper reference: FP16 49.25 tok/s @ 48.25; INT4 147.21 (+2.98x) @ 48.16");
    println!("(-0.2%); INT2 209.48 (+4.25x) @ 47.38 (-2.7%). The proxy score is a");
    println!("calibrated mapping from measured attention fidelity — see");
    println!("`bitdecoding::accuracy::longbench_proxy`.");
    Ok(())
}
