//! Fig. 11 — Kernel performance on the high-bandwidth A100, where kernels
//! shift toward compute-bound and CUDA-core-only systems fall below the
//! FP16 baseline.

use crate::baselines::{BitDecodingSys, CudaOnly, DecodeSystem, FlashDecoding, Kivi};
use crate::{banner, shape, speedup_table};
use bd_core::AttentionConfig;
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 11: A100 kernel performance");
    let arch = GpuArch::a100();
    let flash = FlashDecoding::v2();
    let kivi4 = Kivi::int4();
    let kivi2 = Kivi::int2();
    let qserve = CudaOnly::qserve();
    let kt4 = BitDecodingSys::kt4();
    let kc4 = BitDecodingSys::kc4();
    let kc2 = BitDecodingSys::kc2();

    let attn_single = AttentionConfig::gqa(128, 16, 128);
    let kernels: Vec<&dyn DecodeSystem> = vec![&kivi4, &kivi2, &kt4, &kc4, &kc2];
    let single: Vec<(String, _)> = [1024usize, 10240, 102400]
        .into_iter()
        .map(|l| (format!("{}k", l / 1024), shape(1, attn_single, l)))
        .collect();
    speedup_table(
        "Single: bs=1, h_q=128, h_k=16, d=128 (GQA)",
        &single,
        &kernels,
        &flash,
        &arch,
    );

    let batches: Vec<(String, _)> = [8usize, 32, 64, 128]
        .into_iter()
        .map(|bs| (format!("bs={bs}"), shape(bs, attn_single, 32768)))
        .collect();
    speedup_table(
        "Batches: len=32k, h_q=128, h_k=16, d=128 (GQA)",
        &batches,
        &kernels,
        &flash,
        &arch,
    );

    let attn_pages = AttentionConfig::gqa(32, 8, 128);
    let paged_kt4 = kt4.paged(true);
    let paged_kc4 = kc4.paged(true);
    let paged_kc2 = kc2.paged(true);
    let paged: Vec<&dyn DecodeSystem> = vec![&qserve, &paged_kt4, &paged_kc4, &paged_kc2];
    let pages: Vec<(String, _)> = [8usize, 16, 32, 64]
        .into_iter()
        .map(|bs| (format!("bs={bs}"), shape(bs, attn_pages, 2048)))
        .collect();
    speedup_table(
        "Pages: len=2k, h_q=32, h_k=8, d=128 (GQA)",
        &pages,
        &paged,
        &flash,
        &arch,
    );

    println!();
    println!("Paper reference: BitDecoding up to ~3x; KIVI and QServe fall below the");
    println!("FP16 baseline; the 4-bit vs 2-bit gap narrows versus the RTX 4090.");
    Ok(())
}
