//! Outlier-smoothing rotations (RotateKV / QuaRot style — paper §VII(a)).
//!
//! An orthogonal rotation applied to both Q and K leaves every attention
//! score invariant (`(RQ)·(RK)^T = Q·K^T`) while spreading the energy of
//! hot Key channels across the head dimension. After rotation, per-token
//! (tensor-wise) scaling — which channel outliers normally ruin — becomes
//! almost as accurate as channel-wise scaling. This module implements the
//! standard choice, a normalized Walsh–Hadamard transform, and an
//! evaluation that quantifies the effect on this crate's synthetic
//! outlier-structured caches.

use crate::eval::{evaluate, AccuracyReport};
use bd_kvcache::{QuantScheme, TokenMatrix};

/// In-place fast Walsh–Hadamard transform with `1/√n` normalization
/// (orthogonal and self-inverse).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub(crate) fn fwht(values: &mut [f32]) {
    let n = values.len();
    assert!(
        n.is_power_of_two(),
        "FWHT needs a power-of-two length, got {n}"
    );
    let mut h = 1;
    while h < n {
        for block in (0..n).step_by(h * 2) {
            for i in block..block + h {
                let (a, b) = (values[i], values[i + h]);
                values[i] = a + b;
                values[i + h] = a - b;
            }
        }
        h *= 2;
    }
    let norm = 1.0 / (n as f32).sqrt();
    for v in values {
        *v *= norm;
    }
}

/// Applies the normalized Hadamard rotation to every row of a matrix.
pub(crate) fn rotate_rows(m: &TokenMatrix) -> TokenMatrix {
    let mut out = m.clone();
    for row in &mut out {
        fwht(row);
    }
    out
}

/// Evaluates a scheme with the Q/K rotation applied before quantization
/// (Values are quantized unrotated, as in RotateKV).
///
/// # Panics
///
/// Panics if `dim` is not a power of two.
pub(crate) fn evaluate_scheme_rotated(
    scheme: QuantScheme,
    dim: usize,
    tokens: usize,
    trials: usize,
) -> AccuracyReport {
    evaluate(scheme, dim, tokens, trials, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_scheme;

    #[test]
    fn fwht_is_self_inverse() {
        let original: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let mut v = original.clone();
        fwht(&mut v);
        fwht(&mut v);
        for (a, b) in v.iter().zip(&original) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fwht_preserves_energy() {
        let mut v: Vec<f32> = (0..128).map(|i| (i as f32 * 0.31).cos() * 2.0).collect();
        let before: f32 = v.iter().map(|x| x * x).sum();
        fwht(&mut v);
        let after: f32 = v.iter().map(|x| x * x).sum();
        assert!((before - after).abs() / before < 1e-5);
    }

    #[test]
    fn rotation_preserves_attention_scores() {
        let q = TokenMatrix::from(vec![vec![0.3, -0.1, 0.7, 0.2, -0.5, 0.9, 0.0, 0.4]]);
        let k = TokenMatrix::from(vec![vec![1.0, 2.0, -1.0, 0.5, 0.0, -0.3, 0.8, -0.9]]);
        let rq = rotate_rows(&q);
        let rk = rotate_rows(&k);
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        assert!((dot(&q[0], &k[0]) - dot(&rq[0], &rk[0])).abs() < 1e-5);
    }

    #[test]
    fn fwht_smooths_channel_outliers() {
        // One hot channel becomes 1/√n everywhere.
        let mut v = vec![0.0f32; 64];
        v[7] = 32.0;
        fwht(&mut v);
        let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(
            (max - 4.0).abs() < 1e-4,
            "peak should drop to 32/√64, got {max}"
        );
    }

    #[test]
    fn rotation_rescues_tensor_wise_quantization() {
        // The RotateKV claim: with rotated keys, KT-4 approaches KC-4
        // accuracy, because the outlier channels that ruin per-token
        // scaling are spread across the head dimension.
        let plain_kt = evaluate_scheme(QuantScheme::kt4(), 64, 256, 2);
        let rotated_kt = evaluate_scheme_rotated(QuantScheme::kt4(), 64, 256, 2);
        assert!(
            rotated_kt.output_rel_rmse < plain_kt.output_rel_rmse * 0.5,
            "rotation should cut KT-4 error: {} -> {}",
            plain_kt.output_rel_rmse,
            rotated_kt.output_rel_rmse
        );
    }

    #[test]
    fn rotation_leaves_channel_wise_roughly_unchanged() {
        let plain = evaluate_scheme(QuantScheme::kc4(), 64, 256, 2);
        let rotated = evaluate_scheme_rotated(QuantScheme::kc4(), 64, 256, 2);
        let ratio = rotated.output_rel_rmse / plain.output_rel_rmse;
        assert!(ratio > 0.4 && ratio < 2.5, "KC-4 ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fwht_rejects_non_power_of_two() {
        fwht(&mut [0.0; 6]);
    }
}
