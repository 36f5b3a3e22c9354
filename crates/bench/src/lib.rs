#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-bench — the reproduction of the paper's evaluation
//!
//! Everything the paper's figures and tables need beyond the decode engine:
//!
//! * [`baselines`] — the comparison systems (FlashDecoding, KIVI,
//!   Atom/QServe) and BitDecoding itself behind one [`DecodeSystem`]
//!   interface, priced on the `bd-gpu-sim` cost model;
//! * [`llm`] — model-level simulation: decode-step and generation latency,
//!   memory admission and OOM, serving throughput, and the functional
//!   `bd-serve` scenario runner;
//! * [`accuracy`] — quantization fidelity on outlier-structured synthetic
//!   KV, and the LongBench-proxy score of Table I.
//!
//! The figures and tables themselves are one private module each, printing
//! the rows and series the paper reports; the `all_experiments` binary runs
//! them in one process through [`run_figures`]. Run everything with
//! `cargo run -p bd-bench --release --bin all_experiments`, or name
//! artefacts, e.g. `-- fig10_ada tab1_acc_tradeoff`. `tests/golden_figures.rs`
//! pins the whole output byte for byte. Measured speed lives elsewhere:
//! `BENCHMARK.json` + the standalone `benchmark/` package at the repository
//! root are the only timing harness.

// The implementation modules are private and flat; `baselines`, `llm` and
// `accuracy` below name their public items.
mod bitdecoding_sys;
mod continuous;
mod cuda_only;
mod engine;
mod eval;
mod figures;
mod flash;
mod kivi;
mod memory;
mod model;
mod rotation;
mod serving;
mod synth;
mod system;
mod transforms;

pub use figures::run_figures;

use baselines::DecodeSystem;
use bd_core::DecodeShape;
use bd_gpu_sim::GpuArch;

pub mod baselines {
    //! The comparison systems of the BitDecoding evaluation, each modelled
    //! as its kernel composition on the shared `bd-gpu-sim` cost
    //! vocabulary:
    //!
    //! * [`FlashDecoding`] v2/v3 — the FP16 fused baselines (speedup = 1.0);
    //! * [`Kivi`] — non-fused low-bit attention with standalone kernels;
    //! * [`CudaOnly`] — fused CUDA-core-only low-bit attention (Atom,
    //!   QServe);
    //! * [`BitDecodingSys`] — the paper's system, adapted to the same
    //!   [`DecodeSystem`] interface ([`speedup`] compares two of them);
    //! * Marlin/Ladder-style weight-transform kernels for the Table II
    //!   overhead comparison, and the QuaRot-style continuous-packing
    //!   baseline of the Fig. 16 breakdown, which only the figures use.

    pub use crate::bitdecoding_sys::BitDecodingSys;
    pub use crate::cuda_only::CudaOnly;
    pub use crate::flash::FlashDecoding;
    pub use crate::kivi::Kivi;
    pub use crate::system::{speedup, DecodeSystem};
}

pub mod llm {
    //! End-to-end LLM inference simulation: turns per-kernel attention
    //! costs into model-level numbers — decode-step latency, generation
    //! latency, serving throughput under memory admission, and OOM
    //! behaviour (paper §VI-B).
    //!
    //! * [`ModelConfig`] — the five evaluation model architectures;
    //! * [`Engine`] — decode-step/prefill/generation latency (attention
    //!   system + projection & MLP GEMMs + tensor-parallel all-reduce);
    //! * [`MemoryModel`] — weight/KV/scratch budgeting and OOM detection;
    //! * [`max_throughput`] and [`serve_scenario`] — paged max-batch
    //!   throughput, analytic and functional (driving the `bd-serve`
    //!   batched decode runtime).

    pub use crate::engine::{Engine, WeightPrecision};
    pub use crate::memory::{MemoryModel, OomError};
    pub use crate::model::ModelConfig;
    pub use crate::serving::{
        max_throughput, serve_scenario, FunctionalServeReport, ScenarioRequest, ServePolicy,
        ServingReport,
    };
}

pub mod accuracy {
    //! Quantization fidelity evaluation: the accuracy half of the paper's
    //! efficiency/accuracy trade-off (Table I), on synthetic KV tensors
    //! whose channel-outlier structure matches published LLM cache
    //! statistics.
    //!
    //! Real metrics (relative RMSE, cosine, attention-weight KL) are
    //! reported alongside a clearly-labelled [`longbench_proxy`] score
    //! calibrated to the paper's scale.

    pub use crate::eval::{evaluate_scheme, longbench_proxy, AccuracyReport, FP16_LONGBENCH};
}

/// Prints a section banner.
pub(crate) fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a sub-banner.
pub(crate) fn subbanner(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Prints one aligned table row.
pub(crate) fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        let width = if i == 0 { 28 } else { 14 };
        line.push_str(&format!("{c:>width$}"));
    }
    println!("{line}");
}

/// Formats a speedup cell.
pub(crate) fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a milliseconds cell.
pub(crate) fn fmt_ms(v_s: f64) -> String {
    format!("{:.3} ms", v_s * 1e3)
}

/// A standard speedup sweep: each system's speedup over `baseline` across
/// shapes, printed as one row per system with one column per shape.
pub(crate) fn speedup_table(
    header: &str,
    shapes: &[(String, DecodeShape)],
    systems: &[&dyn DecodeSystem],
    baseline: &dyn DecodeSystem,
    arch: &GpuArch,
) {
    subbanner(header);
    let mut cells = vec!["system".to_owned()];
    cells.extend(shapes.iter().map(|(label, _)| label.clone()));
    row(&cells);

    let base: Vec<f64> = shapes
        .iter()
        .map(|(_, s)| baseline.latency_s(s, arch))
        .collect();
    let mut base_row = vec![format!("{} (base)", baseline.label())];
    base_row.extend(base.iter().map(|_| fmt_x(1.0)));
    row(&base_row);

    for sys in systems {
        let mut cells = vec![sys.label()];
        for ((_, shape), b) in shapes.iter().zip(&base) {
            if sys.supports(&shape.attn) {
                cells.push(fmt_x(b / sys.latency_s(shape, arch)));
            } else {
                cells.push("n/a".to_owned());
            }
        }
        row(&cells);
    }
}

/// Residual region length used in kernel sweeps (a typical mid-fill state).
pub(crate) fn typical_residual(seq_len: usize) -> usize {
    64.min(seq_len / 2)
}

/// Builds a labelled shape for kernel sweeps.
pub(crate) fn shape(batch: usize, attn: bd_core::AttentionConfig, seq_len: usize) -> DecodeShape {
    DecodeShape::new(batch, attn, seq_len).with_residual(typical_residual(seq_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{speedup, BitDecodingSys, FlashDecoding, Kivi};
    use bd_core::AttentionConfig;

    #[test]
    fn shape_builder_sets_residual() {
        let s = shape(1, AttentionConfig::gqa(32, 8, 128), 4096);
        assert_eq!(s.residual_len, 64);
        let tiny = shape(1, AttentionConfig::gqa(32, 8, 128), 64);
        assert_eq!(tiny.residual_len, 32);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_x(2.345), "2.35x");
        assert_eq!(fmt_ms(0.0015), "1.500 ms");
    }

    #[test]
    fn speedups_are_finite_across_the_full_grid() {
        let attn_grid = [
            AttentionConfig::mha(32, 128),
            AttentionConfig::gqa(32, 8, 128),
            AttentionConfig::gqa(128, 8, 128),
            AttentionConfig::mqa(32, 128),
        ];
        let flash = FlashDecoding::v2();
        let bd = BitDecodingSys::kc4();
        let kivi = Kivi::int2();
        for arch in GpuArch::all() {
            for attn in attn_grid {
                for len in [1024usize, 32768] {
                    for bs in [1usize, 32] {
                        let s = shape(bs, attn, len);
                        for sys in [&bd as &dyn DecodeSystem, &kivi] {
                            let sp = speedup(sys, &flash, &s, &arch);
                            assert!(
                                sp.is_finite() && sp > 0.0,
                                "{} {attn} {len} {bs}",
                                arch.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bitdecoding_speedup_grows_with_context_on_every_arch() {
        let attn = AttentionConfig::gqa(32, 8, 128);
        let flash = FlashDecoding::v2();
        let bd = BitDecodingSys::kc4();
        for arch in GpuArch::all() {
            let short = speedup(&bd, &flash, &shape(8, attn, 2048), &arch);
            let long = speedup(&bd, &flash, &shape(8, attn, 131072), &arch);
            assert!(
                long > short,
                "{}: speedup must grow with context ({short} -> {long})",
                arch.name
            );
        }
    }

    #[test]
    fn typical_residual_is_bounded() {
        assert_eq!(typical_residual(10), 5);
        assert_eq!(typical_residual(1 << 20), 64);
    }
}
