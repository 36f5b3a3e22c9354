//! Fig. 16 — Breakdown of BitDecoding's optimizations across architecture
//! generations: continuous-packing baseline → +layout induction → +warp
//! parallelism → +software pipeline, as speedups over the baseline.

use crate::baselines::{BitDecodingSys, DecodeSystem};
use crate::continuous::ContinuousPacking;
use crate::{banner, fmt_x, row, shape, subbanner};
use bd_core::{AttentionConfig, OptimizationFlags};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 16: optimization breakdown across architectures");
    let attn = AttentionConfig::gqa(32, 8, 128);
    let s = shape(8, attn, 8192);
    let baseline = ContinuousPacking::kc4();

    let stages: Vec<(&str, OptimizationFlags)> = vec![
        (
            "+ Layout",
            OptimizationFlags {
                layout_induction: true,
                warp_parallelism: false,
                software_pipeline: false,
                cooperative_softmax: false,
            },
        ),
        (
            "+ Layout + Warps",
            OptimizationFlags {
                layout_induction: true,
                warp_parallelism: true,
                software_pipeline: false,
                cooperative_softmax: true,
            },
        ),
        ("+ Layout + Warps + Pipeline", OptimizationFlags::ALL),
    ];

    subbanner("speedup over the continuous-packing baseline (GQA, len=8k, bs=8)");
    let mut header = vec!["architecture".to_owned(), "Baseline".to_owned()];
    header.extend(stages.iter().map(|(l, _)| (*l).to_owned()));
    row(&header);

    for arch in [GpuArch::a100(), GpuArch::h100(), GpuArch::rtx5090()] {
        let base_t = baseline.latency_s(&s, &arch);
        let mut cells = vec![arch.name.to_owned(), fmt_x(1.0)];
        for (_, flags) in &stages {
            let sys = BitDecodingSys::kc4().with_flags(*flags);
            cells.push(fmt_x(base_t / sys.latency_s(&s, &arch)));
        }
        row(&cells);
    }

    println!();
    println!("Paper reference: layout induction unlocks Tensor Cores, warp parallelism");
    println!("adds a large further gain, the pipeline finishes at up to ~8-10x over the");
    println!("continuous-packing baseline, growing with architecture generation.");
    Ok(())
}
