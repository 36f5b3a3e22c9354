//! GPU memory model: admission control and OOM detection for the
//! end-to-end experiments (paper Fig. 12's KIVI OOM, Fig. 13's
//! max-batch-under-memory throughput).

use crate::baselines::DecodeSystem;
use crate::engine::WeightPrecision;
use crate::model::ModelConfig;
use bd_core::DecodeShape;
use bd_gpu_sim::GpuArch;
use std::fmt;

/// Bytes reserved per GPU for the CUDA context, activations and allocator
/// slack.
pub(crate) const RESERVE_BYTES: f64 = 2.5e9;

/// Out-of-memory diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Bytes required.
    pub(crate) required: f64,
    /// Bytes available.
    pub(crate) capacity: f64,
    /// What overflowed.
    pub(crate) what: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OOM: {} needs {:.1} GB but only {:.1} GB available",
            self.what,
            self.required / 1e9,
            self.capacity / 1e9
        )
    }
}

impl std::error::Error for OomError {}

/// Per-GPU memory budget for a deployment.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    /// Usable bytes per GPU.
    pub(crate) capacity: f64,
    /// Weight bytes per GPU.
    pub(crate) weights: f64,
}

impl MemoryModel {
    /// Budget for serving `model` on `arch` with the given weight
    /// precision.
    pub fn new(model: &ModelConfig, arch: &GpuArch, weights: WeightPrecision) -> Self {
        let wb = match weights {
            WeightPrecision::Fp16 => model.weight_bytes_fp16_per_gpu(),
            WeightPrecision::Int4 => model.weight_bytes_fp16_per_gpu() * 0.27,
        };
        MemoryModel {
            capacity: arch.dram_gb * 1e9,
            weights: wb,
        }
    }

    /// Bytes left for KV cache + scratch.
    pub fn free_bytes(&self) -> f64 {
        (self.capacity - self.weights - RESERVE_BYTES).max(0.0)
    }

    /// Per-GPU bytes one sequence of `seq_len` occupies under `system`'s
    /// cache format, all layers.
    pub fn seq_cache_bytes(
        &self,
        model: &ModelConfig,
        system: &dyn DecodeSystem,
        seq_len: usize,
    ) -> f64 {
        system.kv_bytes_per_token(&model.attention()) * seq_len as f64 * model.layers as f64
            / model.gpus as f64
    }

    /// Checks whether a `(batch, seq_len)` deployment fits, including the
    /// system's decode scratch and prefill scratch.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] naming the overflowing component.
    pub fn check(
        &self,
        model: &ModelConfig,
        system: &dyn DecodeSystem,
        batch: usize,
        seq_len: usize,
    ) -> Result<(), OomError> {
        let cache = batch as f64 * self.seq_cache_bytes(model, system, seq_len);
        let shape = DecodeShape::new(batch, model.attention(), seq_len);
        let scratch = system.scratch_bytes(&shape) / model.gpus as f64;
        let prefill = system.prefill_scratch_bytes(&model.attention(), seq_len) / model.gpus as f64;
        let need = cache + scratch.max(prefill);
        if need > self.free_bytes() {
            let what = if prefill > scratch && prefill > cache {
                format!("{} prefill scratch", system.label())
            } else {
                format!(
                    "{} KV cache (batch {batch}, {seq_len} tokens)",
                    system.label()
                )
            };
            return Err(OomError {
                required: self.weights + RESERVE_BYTES + need,
                capacity: self.capacity,
                what,
            });
        }
        Ok(())
    }

    /// Largest batch that fits at `seq_len` (0 if even batch 1 OOMs).
    pub(crate) fn max_batch(
        &self,
        model: &ModelConfig,
        system: &dyn DecodeSystem,
        seq_len: usize,
    ) -> usize {
        let mut lo = 0usize;
        let mut hi = 4096usize;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.check(model, system, mid, seq_len).is_ok() {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BitDecodingSys, FlashDecoding, Kivi};

    fn a100() -> GpuArch {
        GpuArch::a100()
    }

    #[test]
    fn kivi_ooms_at_128k_but_not_64k() {
        // Paper Fig. 12a: KIVI hits OOM at 128K on the A100.
        let model = ModelConfig::llama31_8b();
        let mem = MemoryModel::new(&model, &a100(), WeightPrecision::Fp16);
        let kivi = Kivi::int4();
        assert!(mem.check(&model, &kivi, 1, 65536).is_ok(), "64K should fit");
        let err = mem.check(&model, &kivi, 1, 131072).unwrap_err();
        assert!(err.what.contains("prefill scratch"), "{err}");
    }

    #[test]
    fn bitdecoding_fits_at_128k() {
        let model = ModelConfig::llama31_8b();
        let mem = MemoryModel::new(&model, &a100(), WeightPrecision::Fp16);
        assert!(mem.check(&model, &BitDecodingSys::kc4(), 1, 131072).is_ok());
        assert!(mem.check(&model, &BitDecodingSys::kc2(), 1, 131072).is_ok());
    }

    #[test]
    fn low_bit_admits_larger_batches() {
        let model = ModelConfig::llama31_8b();
        let mem = MemoryModel::new(&model, &a100(), WeightPrecision::Fp16);
        let b_fp16 = mem.max_batch(&model, &FlashDecoding::v2(), 32768);
        let b_int4 = mem.max_batch(&model, &BitDecodingSys::kc4(), 32768);
        let b_int2 = mem.max_batch(&model, &BitDecodingSys::kc2(), 32768);
        assert!(b_int4 > b_fp16 * 3, "fp16 {b_fp16} int4 {b_int4}");
        assert!(b_int2 > b_int4, "int4 {b_int4} int2 {b_int2}");
    }

    #[test]
    fn max_batch_monotone_in_context() {
        let model = ModelConfig::llama31_8b();
        let mem = MemoryModel::new(&model, &a100(), WeightPrecision::Fp16);
        let sys = BitDecodingSys::kc4();
        assert!(mem.max_batch(&model, &sys, 4096) > mem.max_batch(&model, &sys, 32768));
    }

    #[test]
    fn seventy_b_fits_on_eight_gpus() {
        let model = ModelConfig::llama31_70b();
        let mem = MemoryModel::new(&model, &a100(), WeightPrecision::Fp16);
        assert!(
            mem.free_bytes() > 10e9,
            "free {:.1} GB",
            mem.free_bytes() / 1e9
        );
        assert!(mem.check(&model, &BitDecodingSys::kc4(), 4, 32768).is_ok());
    }
}
