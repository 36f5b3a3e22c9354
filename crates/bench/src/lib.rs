//! # bd-bench — the figure/table reproduction harness
//!
//! One binary per paper artefact (`src/bin/fig*.rs`, `src/bin/tab*.rs`),
//! each printing the same rows/series the paper reports. Measured speed
//! lives elsewhere: `BENCHMARK.json` + the standalone `benchmark/` package
//! at the repository root are the only timing harness.
//!
//! Run everything with `cargo run -p bd-bench --release --bin all_experiments`,
//! or an individual artefact, e.g. `--bin fig10_ada`.

use bd_baselines::DecodeSystem;
use bd_core::DecodeShape;
use bd_gpu_sim::GpuArch;

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a sub-banner.
pub fn subbanner(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Prints one aligned table row.
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        let width = if i == 0 { 28 } else { 14 };
        line.push_str(&format!("{c:>width$}"));
    }
    println!("{line}");
}

/// Formats a speedup cell.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a milliseconds cell.
pub fn fmt_ms(v_s: f64) -> String {
    format!("{:.3} ms", v_s * 1e3)
}

/// A standard speedup sweep: each system's speedup over `baseline` across
/// shapes, printed as one row per system with one column per shape.
pub fn speedup_table(
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
pub fn typical_residual(seq_len: usize) -> usize {
    64.min(seq_len / 2)
}

/// Builds a labelled shape for kernel sweeps.
pub fn shape(batch: usize, attn: bd_core::AttentionConfig, seq_len: usize) -> DecodeShape {
    DecodeShape::new(batch, attn, seq_len).with_residual(typical_residual(seq_len))
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
