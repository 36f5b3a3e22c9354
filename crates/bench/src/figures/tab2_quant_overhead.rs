//! Table II — Latency of quantization + packing during inference: Marlin-
//! and Ladder-style transform kernels vs BitDecoding's fused path, for a
//! 128K-token prefill and a single decode step.

use crate::transforms::{table2_row, TransformKind};
use crate::{banner, row, subbanner};
use bd_gpu_sim::GpuArch;
use bd_kvcache::QuantScheme;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Table II: quantization + packing latency (128K context, A100)");
    let arch = GpuArch::a100();
    let seq = 131072;
    let dim = 128;

    subbanner("latency (ms)");
    row(&["system".into(), "Prefill".into(), "Decode".into()]);
    for kind in [
        TransformKind::Marlin,
        TransformKind::Ladder,
        TransformKind::BitDecoding,
    ] {
        let (prefill, decode) = table2_row(kind, &arch, seq, dim, QuantScheme::kc4(), 128);
        row(&[
            kind.label().to_owned(),
            format!("{prefill:.4}"),
            format!("{decode:.4}"),
        ]);
    }

    println!();
    println!("Paper reference (ms): Marlin 58.02 / 0.41; Ladder 4.79 / 0.65;");
    println!("BitDecoding 0.0599 / 0.008. Weight-oriented transforms must re-run layout");
    println!("passes over the dynamic cache; BitDecoding's fused pack touches only the");
    println!("residual block.");
    Ok(())
}
