//! Fig. 10 — Kernel performance on the bandwidth-constrained RTX 4090:
//! MHA and GQA rows × Single / Batches / Pages columns, speedups over FP16
//! FlashDecoding-v2 (KIVI in Single/Batches; Atom + QServe in Pages).

use crate::baselines::{BitDecodingSys, CudaOnly, DecodeSystem, FlashDecoding, Kivi};
use crate::{banner, shape, speedup_table};
use bd_core::AttentionConfig;
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 10: RTX 4090 kernel performance");
    let arch = GpuArch::rtx4090();
    let flash = FlashDecoding::v2();
    let kivi4 = Kivi::int4();
    let kivi2 = Kivi::int2();
    let atom = CudaOnly::atom();
    let qserve = CudaOnly::qserve();
    let kt4 = BitDecodingSys::kt4();
    let kc4 = BitDecodingSys::kc4();
    let kc2 = BitDecodingSys::kc2();

    for (label, attn) in [
        ("MHA: h_q=32, h_k=32, d=128", AttentionConfig::mha(32, 128)),
        (
            "GQA: h_q=32, h_k=8, d=128",
            AttentionConfig::gqa(32, 8, 128),
        ),
    ] {
        banner(label);

        let kernels: Vec<&dyn DecodeSystem> = vec![&kivi4, &kivi2, &kt4, &kc4, &kc2];
        let single: Vec<(String, _)> = [1024usize, 10240, 102400]
            .into_iter()
            .map(|l| (format!("{}k", l / 1024), shape(1, attn, l)))
            .collect();
        speedup_table("Single (bs=1)", &single, &kernels, &flash, &arch);

        let batches: Vec<(String, _)> = [8usize, 32, 64, 128]
            .into_iter()
            .map(|bs| (format!("bs={bs}"), shape(bs, attn, 4096)))
            .collect();
        speedup_table("Batches (len=4k)", &batches, &kernels, &flash, &arch);

        let paged_kt4 = kt4.paged(true);
        let paged_kc4 = kc4.paged(true);
        let paged_kc2 = kc2.paged(true);
        let paged: Vec<&dyn DecodeSystem> =
            vec![&atom, &qserve, &paged_kt4, &paged_kc4, &paged_kc2];
        let pages: Vec<(String, _)> = [2usize, 4, 6, 8]
            .into_iter()
            .map(|bs| (format!("bs={bs}"), shape(bs, attn, 2048)))
            .collect();
        speedup_table("Pages (len=2k)", &pages, &paged, &flash, &arch);
    }

    println!();
    println!("Paper reference: ~4x (4-bit) and >7x (2-bit) in Single/Batches;");
    println!("Pages MHA: BitDecoding >6x vs QServe 3.5x; Pages GQA: 3x vs 1.4x.");
    Ok(())
}
