//! Fig. 14 — Runtime overhead of the residual KV cache: FP16
//! FlashDecoding-v2 vs INT4 without a residual region (whole cache packed)
//! vs INT4 with the residual region (extra Residual Kernel launch).

use crate::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding};
use crate::{banner, fmt_ms, row, subbanner};
use bd_core::{AttentionConfig, DecodeShape};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 14: runtime overhead of the residual KV cache (RTX 4090)");
    let arch = GpuArch::rtx4090();
    let attn = AttentionConfig::gqa(32, 8, 128);
    let fp16 = FlashDecoding::v2();
    let int4 = BitDecodingSys::kc4();

    subbanner("per-step kernel latency");
    row(&[
        "seq len".into(),
        "FP16 FlashDec-v2".into(),
        "INT4 w/o residual".into(),
        "INT4 w/ residual".into(),
        "overhead".into(),
    ]);
    for len in [4096usize, 16384, 32768, 65536, 131072] {
        let batch = 8;
        let fp16_t = fp16.latency_s(&DecodeShape::new(batch, attn, len), &arch);
        // Without residual: the entire cache is packed; no second kernel.
        let without = int4.latency_s(&DecodeShape::new(batch, attn, len), &arch);
        // With residual: a 64-token FP16 tail adds the Residual Kernel.
        let with = int4.latency_s(&DecodeShape::new(batch, attn, len).with_residual(64), &arch);
        row(&[
            format!("{}K", len / 1024),
            fmt_ms(fp16_t),
            fmt_ms(without),
            fmt_ms(with),
            format!("+{:.1} us", (with - without) * 1e6),
        ]);
    }

    println!();
    println!("Paper reference (ms): FP16 0.087/0.220/0.400/0.764/1.487; INT4 w/o");
    println!("0.041/0.094/0.162/0.291/0.555; INT4 w/ 0.057/0.112/0.180/0.309/0.572 —");
    println!("a fixed ~17 us residual-kernel launch that vanishes relative to long");
    println!("contexts.");
    Ok(())
}
