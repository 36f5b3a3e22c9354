//! `bitdecoding` — command-line front end for the BitDecoding-RS simulator.
//!
//! ```text
//! bitdecoding archs                          list modelled GPUs
//! bitdecoding price  <arch> <scheme> <hq> <hkv> <d> <len> [batch]
//!                                            price one decode step vs FP16
//! bitdecoding sweep  <arch> <scheme>         speedup curve over context
//! bitdecoding serve  <arch> <scheme> <len>   max serving throughput (8B model)
//! ```

use bitdecoding::baselines::{speedup, BitDecodingSys, DecodeSystem, FlashDecoding};
use bitdecoding::llm::{max_throughput, ModelConfig, WeightPrecision};
use bitdecoding::{AttentionConfig, DecodeShape, GpuArch, QuantScheme};
use std::process::ExitCode;

fn parse_arch(name: &str) -> Option<GpuArch> {
    GpuArch::all().into_iter().find(|a| {
        a.name.to_lowercase().replace(' ', "") == name.to_lowercase().replace(['-', '_', ' '], "")
    })
}

fn parse_scheme(name: &str) -> Option<QuantScheme> {
    match name.to_lowercase().replace('_', "-").as_str() {
        "kt4" | "kt-4" => Some(QuantScheme::kt4()),
        "kc4" | "kc-4" => Some(QuantScheme::kc4()),
        "kt2" | "kt-2" => Some(QuantScheme::kt2()),
        "kc2" | "kc-2" => Some(QuantScheme::kc2()),
        "mxfp4" => Some(QuantScheme::mxfp4()),
        "nvfp4" => Some(QuantScheme::nvfp4()),
        _ => None,
    }
}

/// A count the user typed: a positive integer.
fn positive(arg: &str) -> Option<usize> {
    arg.parse().ok().filter(|&n| n > 0)
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  bitdecoding archs");
    eprintln!("  bitdecoding price <arch> <scheme> <hq> <hkv> <d> <len> [batch]");
    eprintln!("  bitdecoding sweep <arch> <scheme>");
    eprintln!("  bitdecoding serve <arch> <scheme> <len>");
    eprintln!();
    eprintln!("counts are positive integers, and <hq> a multiple of <hkv>");
    eprintln!("archs: a100, rtx4090, h100, rtx5090, rtxpro6000");
    eprintln!("schemes: kt4, kc4, kt2, kc2, mxfp4, nvfp4");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("archs") => {
            println!(
                "{:<14}{:>6}{:>12}{:>12}{:>12}{:>12}{:>10}",
                "name", "SMs", "BW GB/s", "FP16 TF", "FP8 TF", "FP4 TF", "DRAM GB"
            );
            for a in GpuArch::all() {
                println!(
                    "{:<14}{:>6}{:>12.0}{:>12.0}{:>12.0}{:>12.0}{:>10.0}",
                    a.name,
                    a.sms,
                    a.dram_bw_gbs,
                    a.tc_fp16_tflops,
                    a.tc_fp8_tflops,
                    a.tc_fp4_tflops,
                    a.dram_gb
                );
            }
            ExitCode::SUCCESS
        }
        Some("price") if args.len() >= 7 => {
            let (Some(arch), Some(scheme)) = (parse_arch(&args[1]), parse_scheme(&args[2])) else {
                return usage();
            };
            let (Some(hq), Some(hkv), Some(d), Some(len)) = (
                positive(&args[3]),
                positive(&args[4]),
                positive(&args[5]),
                positive(&args[6]),
            ) else {
                return usage();
            };
            let Some(batch) = args.get(7).map_or(Some(1), |b| positive(b)) else {
                return usage();
            };
            if hq % hkv != 0 {
                return usage();
            }
            let attn = AttentionConfig::new(hq, hkv, d);
            let shape = DecodeShape::new(batch, attn, len).with_residual(64.min(len / 2));
            let sys = BitDecodingSys::new(scheme);
            let base = FlashDecoding::v2();
            let lat = sys.latency(&shape, &arch);
            println!("workload : {attn}, len {len}, batch {batch} on {arch}");
            println!("kernel   : {lat}");
            println!("tc util  : {:.1}%", lat.tc_utilization() * 100.0);
            println!("dequant  : {:.1}% of step", lat.dequant_fraction() * 100.0);
            println!(
                "speedup  : {:.2}x over FP16 FlashDecoding-v2",
                speedup(&sys, &base, &shape, &arch)
            );
            ExitCode::SUCCESS
        }
        Some("sweep") if args.len() >= 3 => {
            let (Some(arch), Some(scheme)) = (parse_arch(&args[1]), parse_scheme(&args[2])) else {
                return usage();
            };
            let attn = AttentionConfig::gqa(32, 8, 128);
            let sys = BitDecodingSys::new(scheme);
            let base = FlashDecoding::v2();
            println!("{} {} (GQA 32/8, d=128, bs=8):", arch.name, scheme);
            println!("{:>10}{:>14}{:>14}", "context", "latency", "speedup");
            for len in [1024usize, 4096, 16384, 65536, 131072] {
                let shape = DecodeShape::new(8, attn, len).with_residual(64);
                println!(
                    "{:>9}K{:>11.3} ms{:>13.2}x",
                    len / 1024,
                    sys.latency_s(&shape, &arch) * 1e3,
                    speedup(&sys, &base, &shape, &arch)
                );
            }
            ExitCode::SUCCESS
        }
        Some("serve") if args.len() >= 4 => {
            let (Some(arch), Some(scheme)) = (parse_arch(&args[1]), parse_scheme(&args[2])) else {
                return usage();
            };
            let Some(len) = positive(&args[3]) else {
                return usage();
            };
            let model = ModelConfig::llama31_8b();
            let sys = BitDecodingSys::new(scheme).paged(true);
            let fp16 = FlashDecoding::v2();
            let r = max_throughput(model, &sys, arch.clone(), WeightPrecision::Fp16, len);
            let b = max_throughput(model, &fp16, arch, WeightPrecision::Fp16, len);
            println!("{} at {len} tokens/seq:", model);
            println!(
                "  {:<22}{:>9.1} tok/s (batch {})",
                sys.label(),
                r.tokens_per_s,
                r.batch
            );
            println!(
                "  {:<22}{:>9.1} tok/s (batch {})",
                b.system, b.tokens_per_s, b.batch
            );
            println!("  ratio: {:.2}x", r.tokens_per_s / b.tokens_per_s.max(1e-9));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
