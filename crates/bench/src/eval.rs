//! Accuracy evaluation: attention-output fidelity under cache quantization,
//! plus the documented LongBench-proxy mapping (paper Table I).

use crate::rotation::rotate_rows;
use crate::synth::KvDistribution;
use bd_core::reference_attention;
use bd_kvcache::{BlockCodec, QuantScheme, ReferenceCodec, TokenMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Fidelity metrics of quantized attention against the FP16 reference.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyReport {
    /// Relative RMS error of the attention output.
    pub output_rel_rmse: f64,
    /// Mean cosine similarity of output rows.
    pub cosine: f64,
    /// Mean KL divergence of the attention-weight distributions.
    pub attn_kl: f64,
}

impl fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rel-RMSE {:.4}, cosine {:.5}, attn-KL {:.5}",
            self.output_rel_rmse, self.cosine, self.attn_kl
        )
    }
}

fn softmax_weights(q: &[f32], k: &TokenMatrix, scale: f32) -> Vec<f32> {
    let scores: Vec<f32> = k
        .iter()
        .map(|k_row| k_row.iter().zip(q).map(|(a, b)| a * b).sum::<f32>() * scale)
        .collect();
    let m = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = scores.iter().map(|&s| (s - m).exp()).collect();
    let l: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / l).collect()
}

/// Evaluates one scheme on synthetic KV with channel-outlier structure.
///
/// `tokens` controls the context size; `trials` the number of independent
/// head samples averaged.
pub fn evaluate_scheme(
    scheme: QuantScheme,
    dim: usize,
    tokens: usize,
    trials: usize,
) -> AccuracyReport {
    evaluate(scheme, dim, tokens, trials, false)
}

/// [`evaluate_scheme`], with Q and K Hadamard-rotated before quantization
/// when `rotate` is set (Values are quantized unrotated, as in RotateKV).
/// Rotating both leaves every score invariant, so the unrotated attention
/// stays the reference.
///
/// # Panics
///
/// Panics if `rotate` is set and `dim` is not a power of two.
pub(crate) fn evaluate(
    scheme: QuantScheme,
    dim: usize,
    tokens: usize,
    trials: usize,
    rotate: bool,
) -> AccuracyReport {
    let dist = KvDistribution::new(dim, 1234);
    let mut rng = StdRng::seed_from_u64(99);
    let scale = 1.0 / (dim as f32).sqrt();
    let codec = ReferenceCodec;

    let mut sq_err = 0.0f64;
    let mut sq_ref = 0.0f64;
    let mut cos_sum = 0.0f64;
    let mut kl_sum = 0.0f64;
    let mut rows = 0usize;

    for _ in 0..trials {
        let k = dist.sample_keys(tokens, &mut rng);
        let v = dist.sample_values(tokens, &mut rng);
        let q = dist.sample_queries(4, &mut rng);
        let (qq, qk) = if rotate {
            (rotate_rows(&q), rotate_rows(&k))
        } else {
            (q.clone(), k.clone())
        };
        let (q, qq) = (q.to_rows(), qq.to_rows());

        let block = codec.encode(&qk, &v, scheme);
        let (dk, dv) = codec.decode(&block, scheme);

        let reference = reference_attention(&q, &k, &v, scale);
        let quantized = reference_attention(&qq, &dk, &dv, scale);

        for ((qrow, qqrow), (r, z)) in q.iter().zip(&qq).zip(reference.iter().zip(&quantized)) {
            let mut dot = 0.0f64;
            let mut nr = 0.0f64;
            let mut nz = 0.0f64;
            for (a, b) in r.iter().zip(z) {
                sq_err += f64::from(a - b) * f64::from(a - b);
                sq_ref += f64::from(*a) * f64::from(*a);
                dot += f64::from(*a) * f64::from(*b);
                nr += f64::from(*a) * f64::from(*a);
                nz += f64::from(*b) * f64::from(*b);
            }
            cos_sum += dot / (nr.sqrt() * nz.sqrt()).max(1e-12);

            let wr = softmax_weights(qrow, &k, scale);
            let wz = softmax_weights(qqrow, &dk, scale);
            let kl: f64 = wr
                .iter()
                .zip(&wz)
                .map(|(&p, &s)| {
                    let p = f64::from(p).max(1e-12);
                    let s = f64::from(s).max(1e-12);
                    p * (p / s).ln()
                })
                .sum();
            kl_sum += kl;
            rows += 1;
        }
    }

    AccuracyReport {
        output_rel_rmse: (sq_err / sq_ref.max(1e-12)).sqrt(),
        cosine: cos_sum / rows as f64,
        attn_kl: kl_sum / rows as f64,
    }
}

/// LongBench score of the FP16 baseline in the paper (Table I).
pub const FP16_LONGBENCH: f64 = 48.25;

/// **LongBench-proxy** score: a documented, calibrated affine map from
/// measured attention fidelity to the paper's benchmark scale.
///
/// This is *not* a benchmark run — it exists so the Table I reproduction
/// can report a recognisable number. The mapping anchors FP16 at the
/// paper's 48.25 and degrades linearly in relative output error with a
/// slope calibrated once (on KC-4 synthetic error ↔ the paper's −0.2%
/// drop); KC-2 then lands wherever the measured error puts it.
pub fn longbench_proxy(report: &AccuracyReport) -> f64 {
    // Slope: paper KC-4 drop (0.09 points) per measured KC-4 rel-RMSE
    // (~0.137 on this generator with default settings, dim 64 / 256
    // tokens). Benchmark scores are far more robust than raw output RMSE —
    // a ~14% perturbation of attention outputs costs only ~0.1 points —
    // which this slope encodes.
    const POINTS_PER_RELRMSE: f64 = 0.09 / 0.137;
    (FP16_LONGBENCH - POINTS_PER_RELRMSE * report.output_rel_rmse).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: QuantScheme) -> AccuracyReport {
        evaluate_scheme(scheme, 64, 256, 2)
    }

    #[test]
    fn four_bit_is_near_lossless() {
        // ~3σ/15 per-element steps leave ≈10-15% raw output RMSE but
        // near-unity cosine — the regime where benchmark scores barely move.
        let r = quick(QuantScheme::kc4());
        assert!(
            r.output_rel_rmse < 0.2,
            "KC-4 rel-RMSE {}",
            r.output_rel_rmse
        );
        assert!(r.cosine > 0.98, "KC-4 cosine {}", r.cosine);
    }

    #[test]
    fn two_bit_degrades_but_stays_usable() {
        let r4 = quick(QuantScheme::kc4());
        let r2 = quick(QuantScheme::kc2());
        assert!(r2.output_rel_rmse > r4.output_rel_rmse * 2.0);
        assert!(r2.cosine > 0.7, "KC-2 cosine {}", r2.cosine);
        assert!(r2.attn_kl > r4.attn_kl);
    }

    #[test]
    fn channel_wise_beats_tensor_wise_under_outliers() {
        // The reason KIVI-style KC is the accuracy default (paper §VI-B).
        let kc = quick(QuantScheme::kc4());
        let kt = quick(QuantScheme::kt4());
        assert!(
            kc.output_rel_rmse < kt.output_rel_rmse,
            "KC {} should beat KT {}",
            kc.output_rel_rmse,
            kt.output_rel_rmse
        );
    }

    #[test]
    fn proxy_scores_ordered_like_table1() {
        let s4 = longbench_proxy(&quick(QuantScheme::kc4()));
        let s2 = longbench_proxy(&quick(QuantScheme::kc2()));
        assert!(s4 <= FP16_LONGBENCH);
        assert!(s2 < s4, "INT2 {s2} must trail INT4 {s4}");
        assert!(s4 > 47.5, "INT4 proxy {s4} should be near-lossless");
        assert!(s2 > 40.0, "INT2 proxy {s2} should remain usable");
    }

    #[test]
    fn fp4_schemes_evaluate() {
        // E2M1 keeps only ~2 mantissa levels per binade: raw output RMSE is
        // large; NVFP4's finer blocks must beat MXFP4's power-of-two scale.
        let mx = quick(QuantScheme::mxfp4());
        let nv = quick(QuantScheme::nvfp4());
        assert!(
            mx.output_rel_rmse < 1.0,
            "mxfp4 rel-RMSE {}",
            mx.output_rel_rmse
        );
        assert!(mx.attn_kl.is_finite());
        assert!(
            nv.output_rel_rmse <= mx.output_rel_rmse * 1.1,
            "nvfp4 {} vs mxfp4 {}",
            nv.output_rel_rmse,
            mx.output_rel_rmse
        );
    }
}
