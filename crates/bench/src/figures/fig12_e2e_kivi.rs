//! Fig. 12 — End-to-end comparison with non-fused KIVI on LLaMA-3.1-8B
//! (A100): (a) single-batch generation-latency speedup at 32K/64K/128K
//! (with KIVI's 128K OOM), (b) decode throughput vs batch size at 4K.

use crate::baselines::{BitDecodingSys, DecodeSystem, FlashDecoding, Kivi};
use crate::llm::{Engine, MemoryModel, ModelConfig, WeightPrecision};
use crate::{banner, fmt_x, row, subbanner};
use bd_gpu_sim::GpuArch;
use std::error::Error;

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Fig. 12: end-to-end vs KIVI (LLaMA-3.1-8B, A100)");
    let model = ModelConfig::llama31_8b();
    let arch = GpuArch::a100();
    let mem = MemoryModel::new(&model, &arch, WeightPrecision::Fp16);

    let fp16 = FlashDecoding::v2();
    let kivi4 = Kivi::int4();
    let kivi2 = Kivi::int2();
    let kc4 = BitDecodingSys::kc4();
    let kc2 = BitDecodingSys::kc2();
    let systems: Vec<(&str, &dyn DecodeSystem)> = vec![
        ("Kivi-4", &kivi4),
        ("Kivi-2", &kivi2),
        ("BitDecoding-KC-4", &kc4),
        ("BitDecoding-KC-2", &kc2),
    ];

    subbanner("(a) Single: generation latency speedup vs FP16 (bs=1)");
    row(&[
        "system".into(),
        "32K".into(),
        "64K".into(),
        "128K".into(),
        "32K attn".into(),
        "128K attn".into(),
    ]);
    for (label, sys) in &systems {
        let mut cells = vec![(*label).to_owned()];
        let mut attn_cells = Vec::new();
        for len in [32768usize, 65536, 131072] {
            if mem.check(&model, *sys, 1, len).is_err() {
                cells.push("OOM".into());
                continue;
            }
            let e_base = Engine::new(model, &fp16, arch.clone());
            let e_sys = Engine::new(model, *sys, arch.clone());
            let sp = e_base.generation_latency(1, len, 128) / e_sys.generation_latency(1, len, 128);
            cells.push(fmt_x(sp));
        }
        // Attention-layer-only speedups: what the kernel changes, without
        // the weight streaming every system pays alike.
        for len in [32768usize, 131072] {
            if mem.check(&model, *sys, 1, len).is_err() {
                attn_cells.push("OOM".into());
                continue;
            }
            let e_base = Engine::new(model, &fp16, arch.clone());
            let e_sys = Engine::new(model, *sys, arch.clone());
            let sp = e_base.attention_step_latency(1, len) / e_sys.attention_step_latency(1, len);
            attn_cells.push(fmt_x(sp));
        }
        cells.extend(attn_cells);
        row(&cells);
    }

    subbanner("(b) Batches: decode throughput (tokens/s) at len=4k");
    let mut header = vec!["system".to_owned()];
    let batches = [8usize, 16, 24, 32, 40, 48];
    header.extend(batches.iter().map(|b| format!("bs={b}")));
    row(&header);
    let mut all: Vec<(&str, &dyn DecodeSystem)> = vec![("FlashDecoding-v2", &fp16)];
    all.extend(systems.iter().map(|(l, s)| (*l, *s)));
    for (label, sys) in all {
        let mut cells = vec![label.to_owned()];
        let engine = Engine::new(model, sys, arch.clone());
        for &bs in &batches {
            if mem.check(&model, sys, bs, 4096).is_err() {
                cells.push("OOM".into());
            } else {
                cells.push(format!("{:.0}", engine.throughput(bs, 4096)));
            }
        }
        row(&cells);
    }

    println!();
    println!("Paper reference: (a) BitDecoding up to 3.3x at 128K, KIVI OOMs at 128K;");
    println!("(b) KC-4/KC-2 reach ~900/1200 tok/s while KIVI peaks below 700.");
    Ok(())
}
