//! Fig. 9 — Kernel performance on Hopper (H100): BitDecoding's SM80 "v2"
//! kernels vs the wgmma/TMA "v3" kernels, against FlashAttention-v2/v3,
//! in the Single (seq sweep) and Batches (batch sweep) settings.

use crate::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding};
use crate::{banner, shape, speedup_table};
use bd_core::{ArchPath, AttentionConfig};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 9: Hopper (H100) kernel performance");
    let arch = GpuArch::h100();
    let attn = AttentionConfig::gqa(128, 32, 128);
    let flash_v2 = FlashDecoding::v2();
    let flash_v3 = FlashDecoding::v3();

    let kt4_v2 = BitDecodingSys::kt4().with_path(ArchPath::Sm80);
    let kc4_v2 = BitDecodingSys::kc4().with_path(ArchPath::Sm80);
    let kc2_v2 = BitDecodingSys::kc2().with_path(ArchPath::Sm80);
    let kt4_v3 = BitDecodingSys::kt4().with_path(ArchPath::Sm90);
    let kc4_v3 = BitDecodingSys::kc4().with_path(ArchPath::Sm90);
    let kc2_v3 = BitDecodingSys::kc2().with_path(ArchPath::Sm90);
    let systems: Vec<&dyn DecodeSystem> = vec![
        &flash_v3, &kt4_v2, &kc4_v2, &kc2_v2, &kt4_v3, &kc4_v3, &kc2_v3,
    ];

    let single: Vec<(String, _)> = [1024usize, 10240, 102400]
        .into_iter()
        .map(|l| (format!("{}k", l / 1024), shape(1, attn, l)))
        .collect();
    speedup_table(
        "Single: bs=1, h_q=128, h_k=32, d=128",
        &single,
        &systems,
        &flash_v2,
        &arch,
    );

    let batches: Vec<(String, _)> = [8usize, 32, 64, 128]
        .into_iter()
        .map(|bs| (format!("bs={bs}"), shape(bs, attn, 32768)))
        .collect();
    speedup_table(
        "Batches: len=32k, h_q=128, h_k=32, d=128",
        &batches,
        &systems,
        &flash_v2,
        &arch,
    );

    println!();
    println!("Paper reference: BitDecoding-v2 reaches ~4.1x; v3 (wgmma + TMA) up to 8.0x.");
    Ok(())
}
