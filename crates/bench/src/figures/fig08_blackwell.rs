//! Fig. 8 — Kernel performance with MXFP4 on Blackwell (RTX 5090 and
//! RTX PRO 6000): Single (seq-len sweep, bs = 1) and Batches (batch sweep,
//! 8K context), speedups over FP16 FlashDecoding-v2.

use crate::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding, Kivi};
use crate::{banner, shape, speedup_table};
use bd_core::AttentionConfig;
use bd_gpu_sim::GpuArch;
use bd_kvcache::QuantScheme;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 8: Blackwell MXFP4 kernel performance");
    let flash = FlashDecoding::v2();
    let kivi4 = Kivi::int4();
    let mxfp4 = BitDecodingSys::new(QuantScheme::mxfp4());
    let systems: Vec<&dyn DecodeSystem> = vec![&kivi4, &mxfp4];

    for (arch, single_attn) in [
        (GpuArch::rtx5090(), AttentionConfig::gqa(128, 8, 128)),
        (GpuArch::rtx_pro6000(), AttentionConfig::gqa(32, 8, 128)),
    ] {
        banner(&format!("(a/b) {arch}"));

        let single: Vec<(String, _)> = [8192usize, 32768, 131072]
            .into_iter()
            .map(|l| (format!("{}k", l / 1024), shape(1, single_attn, l)))
            .collect();
        speedup_table(
            &format!("Single: bs=1, h_q={}, h_k=8, d=128", single_attn.heads_q),
            &single,
            &systems,
            &flash,
            &arch,
        );

        let batch_attn = AttentionConfig::gqa(32, 8, 128);
        let batches: Vec<(String, _)> = [8usize, 32, 128]
            .into_iter()
            .map(|bs| (format!("bs={bs}"), shape(bs, batch_attn, 8192)))
            .collect();
        speedup_table(
            "Batches: len_kv=8k, h_q=32, h_k=8, d=128",
            &batches,
            &systems,
            &flash,
            &arch,
        );
    }
    println!();
    println!("Paper reference: up to 8.6x (batched) and >4.3x (single 128k) on RTX 5090;");
    println!("up to 6.5x on RTX PRO 6000 at large batch.");
    Ok(())
}
