//! Fig. 13 — Paged serving throughput vs QServe across five models at a
//! 32K context: maximum tokens/s under the largest memory-admissible batch.

use crate::baselines::{BitDecodingSys, CudaOnly, FlashDecoding};
use crate::llm::{max_throughput, ModelConfig, WeightPrecision};
use crate::{banner, row, subbanner};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 13: paged serving throughput (seq len = 32k, A100)");
    let arch = GpuArch::a100();
    let fp16 = FlashDecoding::v2();
    let qserve = CudaOnly::qserve();
    let bitdecoding = BitDecodingSys::kc4().paged(true);

    subbanner("max decode throughput (tokens/s) at the largest admissible batch");
    row(&[
        "model".into(),
        "FlashDec-v2".into(),
        "QServe".into(),
        "BitDecoding".into(),
        "BD/FP16".into(),
        "BD/QServe".into(),
    ]);

    for model in ModelConfig::all() {
        let r_fp16 = max_throughput(model, &fp16, arch.clone(), WeightPrecision::Fp16, 32768);
        let r_qs = max_throughput(model, &qserve, arch.clone(), WeightPrecision::Int4, 32768);
        let r_bd = max_throughput(
            model,
            &bitdecoding,
            arch.clone(),
            WeightPrecision::Fp16,
            32768,
        );
        row(&[
            format!("{} (x{} GPU)", model.name, model.gpus),
            format!("{:.1} (bs {})", r_fp16.tokens_per_s, r_fp16.batch),
            format!("{:.1} (bs {})", r_qs.tokens_per_s, r_qs.batch),
            format!("{:.1} (bs {})", r_bd.tokens_per_s, r_bd.batch),
            format!("{:.2}x", r_bd.tokens_per_s / r_fp16.tokens_per_s),
            format!("{:.2}x", r_bd.tokens_per_s / r_qs.tokens_per_s.max(1e-9)),
        ]);
    }

    println!();
    println!("Paper reference (tokens/s): llama-2-7B 13.9/32.8/130.0, llama-3.1-8B");
    println!("48.5/8.1/147.2, llama-3.1-70B 11.1/n.a./28.2, Qwen3-8B 51.1/45.2/128.4,");
    println!("Qwen3-14B 44.0/32.7/99.5 — QServe wins only on the MHA llama-2-7B;");
    println!("BitDecoding leads everywhere with >2x over QServe.");
    Ok(())
}
