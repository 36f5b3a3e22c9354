//! Synthetic KV tensors with realistic outlier structure.
//!
//! The paper's accuracy results (Table I) come from LongBench runs on real
//! models, which this environment cannot execute. The relevant statistical
//! property — established by KIVI, KVQuant and RotateKV — is that **Key
//! activations carry a few large-magnitude channels** (fixed per layer),
//! while Values are comparatively isotropic. This module generates tensors
//! with exactly that structure so quantization-scheme comparisons exercise
//! the same failure modes as real caches.

use bd_kvcache::TokenMatrix;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Generator for synthetic K/V token matrices.
///
/// Key outlier channels are modelled as **large fixed-mean** channels with
/// unit variance — the "massive activation" profile KVQuant and KIVI report
/// (per-channel magnitudes far above typical, but nearly constant across
/// tokens). This is precisely the structure that makes channel-wise scaling
/// accurate and per-token (tensor-wise) scaling lossy.
#[derive(Clone, Debug)]
pub(crate) struct KvDistribution {
    /// Channels per head.
    pub(crate) dim: usize,
    per_channel_mean: Vec<f32>,
    per_channel_scale: Vec<f32>,
}

impl KvDistribution {
    /// Builds a distribution with the published outlier profile.
    pub(crate) fn new(dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // ~3% of Key channels are outliers in published measurements, with
        // a mean magnitude of 25 typical σ.
        let outlier_fraction = 0.03;
        let outlier_scale = 25.0;
        let n_outliers = ((dim as f64 * outlier_fraction).round() as usize).max(1);
        let mut per_channel_scale = vec![1.0f32; dim];
        let mut per_channel_mean = vec![0.0f32; dim];
        // Mild variation on all channels.
        for s in &mut per_channel_scale {
            *s = (rng.random::<f32>() * 0.6 + 0.7).max(0.2);
        }
        // A few fixed hot channels with large constant means.
        let mut idx: Vec<usize> = (0..dim).collect();
        idx.shuffle(&mut rng);
        for &c in idx.iter().take(n_outliers) {
            let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
            per_channel_mean[c] = sign * outlier_scale;
        }
        KvDistribution {
            dim,
            per_channel_mean,
            per_channel_scale,
        }
    }

    /// Samples a Key matrix (`tokens × dim`, flat) with channel outliers.
    pub(crate) fn sample_keys(&self, tokens: usize, rng: &mut StdRng) -> TokenMatrix {
        TokenMatrix::from_fn(tokens, self.dim, |_, c| {
            normal(rng) * self.per_channel_scale[c] + self.per_channel_mean[c]
        })
    }

    /// Samples a Value matrix (`tokens × dim`, flat), isotropic.
    pub(crate) fn sample_values(&self, tokens: usize, rng: &mut StdRng) -> TokenMatrix {
        TokenMatrix::from_fn(tokens, self.dim, |_, _| normal(rng))
    }

    /// Samples a query block (`rows × dim`, flat), isotropic.
    pub(crate) fn sample_queries(&self, rows: usize, rng: &mut StdRng) -> TokenMatrix {
        TokenMatrix::from_fn(rows, self.dim, |_, _| normal(rng))
    }

    /// Indices of the hot channels (for tests).
    #[cfg(test)]
    fn outlier_channels(&self) -> Vec<usize> {
        self.per_channel_mean
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0.0)
            .map(|(c, _)| c)
            .collect()
    }
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-7);
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_have_hot_channels() {
        let dist = KvDistribution::new(128, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let k = dist.sample_keys(256, &mut rng);
        let outliers = dist.outlier_channels();
        assert!(!outliers.is_empty() && outliers.len() < 16);
        // RMS of an outlier channel dwarfs a typical channel.
        let rms = |c: usize| -> f32 {
            (k.iter().map(|row| row[c] * row[c]).sum::<f32>() / k.len() as f32).sqrt()
        };
        let hot = rms(outliers[0]);
        let typical: f32 = (0..dist.dim)
            .filter(|c| !outliers.contains(c))
            .map(rms)
            .sum::<f32>()
            / (dist.dim - outliers.len()) as f32;
        assert!(hot > typical * 8.0, "hot {hot} vs typical {typical}");
    }

    #[test]
    fn values_are_isotropic() {
        let dist = KvDistribution::new(64, 7);
        let mut rng = StdRng::seed_from_u64(2);
        let v = dist.sample_values(512, &mut rng);
        let rms = |c: usize| -> f32 {
            (v.iter().map(|row| row[c] * row[c]).sum::<f32>() / v.len() as f32).sqrt()
        };
        let maxr = (0..64).map(rms).fold(0.0f32, f32::max);
        let minr = (0..64).map(rms).fold(f32::INFINITY, f32::min);
        assert!(maxr / minr < 2.0, "isotropy ratio {}", maxr / minr);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = KvDistribution::new(32, 42);
        let b = KvDistribution::new(32, 42);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(a.sample_keys(4, &mut r1), b.sample_keys(4, &mut r2));
    }
}
