//! Table III — Impact of cooperative softmax and warp parallelism: latency
//! and Tensor-Core utilization from the cost model, and *validity* from the
//! functional simulator (non-cooperative `Wn > 1` really corrupts outputs).

use crate::baselines::{BitDecodingSys, DecodeSystem};
use crate::{banner, row, shape, subbanner};
use bd_core::{AttentionConfig, BitDecoder, OptimizationFlags};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{QuantScheme, TokenMatrix};
use std::error::Error;

/// Functionally decodes with the given flags and reports the maximum output
/// deviation from the fully-cooperative configuration.
fn functional_deviation(flags: OptimizationFlags) -> Result<f32, Box<dyn Error>> {
    let attn = AttentionConfig::gqa(8, 2, 32);
    let reference = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .build();
    let candidate = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .flags(flags)
        .build();

    let mut cache = reference.new_cache(1);
    let codec = reference.codec();
    let len = 256;
    for head in 0..cache.heads() {
        let k = TokenMatrix::from_fn(len, 32, |t, c| {
            ((head * 31 + t * 32 + c) as f32 * 0.37).sin()
        });
        let v = TokenMatrix::from_fn(len, 32, |t, c| {
            ((head * 17 + t * 32 + c) as f32 * 0.53).cos()
        });
        cache.prefill(head, &k, &v, &codec)?;
    }
    let q = vec![(0..8)
        .map(|h| {
            (0..32)
                .map(|c| ((h * 32 + c) as f32 * 0.71).sin())
                .collect()
        })
        .collect()];
    let out_ref = reference.decode(&q, &cache)?;
    let out = candidate.decode(&q, &cache)?;
    let mut diff = 0.0f32;
    for (a, b) in out_ref.outputs[0].iter().zip(&out.outputs[0]) {
        for (x, y) in a.iter().zip(b) {
            diff = diff.max((x - y).abs());
        }
    }
    Ok(diff)
}

pub(super) fn run() -> Result<(), Box<dyn Error>> {
    banner("Table III: cooperative softmax and warp parallelism (RTX 4090)");
    let arch = GpuArch::rtx4090();
    let s = shape(8, AttentionConfig::gqa(32, 8, 128), 32768);

    let rows: Vec<(&str, OptimizationFlags)> = vec![
        (
            "Wn=1, no coop softmax",
            OptimizationFlags {
                warp_parallelism: false,
                cooperative_softmax: false,
                ..OptimizationFlags::ALL
            },
        ),
        (
            "Wn=4, no coop softmax",
            OptimizationFlags {
                cooperative_softmax: false,
                ..OptimizationFlags::ALL
            },
        ),
        ("Wn=4, coop softmax", OptimizationFlags::ALL),
    ];

    subbanner("latency / TC utilization / functional validity");
    row(&[
        "config".into(),
        "latency".into(),
        "TC util".into(),
        "valid".into(),
    ]);
    for (label, flags) in rows {
        let sys = BitDecodingSys::kc4().with_flags(flags);
        let lat = sys.latency(&s, &arch);
        // Validity: a Wn>1 configuration without the cooperative protocol
        // really computes wrong attention in the functional simulator.
        let deviation = functional_deviation(flags)?;
        let valid = deviation < 1e-4;
        row(&[
            label.to_owned(),
            format!("{:.3} ms", lat.total * 1e3),
            format!("{:.1}%", lat.tc_utilization() * 100.0),
            if valid {
                "yes".to_owned()
            } else {
                format!("NO (max err {deviation:.2e})")
            },
        ]);
    }

    println!();
    println!("Paper reference: Wn=1 3.746 ms / 10.9% TC / valid; Wn=4 without");
    println!("cooperative softmax 0.610 ms / 19.7% TC / INVALID; with cooperative");
    println!("softmax 0.613 ms / 19.7% TC / valid — correctness restored for 0.5%.");
    Ok(())
}
