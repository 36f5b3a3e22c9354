//! Trace-driven continuous-batching simulation.
//!
//! The paper's serving evaluation (Fig. 13) measures steady-state maximum
//! throughput. Production serving additionally cares about *latency under
//! load*: requests arrive over time, are admitted when the page pool has
//! room (PagedAttention-style), prefill, then decode inside a continuously
//! re-formed batch. This module simulates that pipeline at decode-step
//! granularity, so the KV-cache format's memory footprint and kernel speed
//! both shape the latency distribution — the regime where low-bit caches
//! pay off twice.

use crate::engine::{Engine, WeightPrecision};
use crate::memory::MemoryModel;
use crate::model::ModelConfig;
use bd_baselines::DecodeSystem;
use bd_gpu_sim::GpuArch;
use bd_kvcache::{PagedPool, SeqId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One inference request in a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Prompt (prefill) length in tokens.
    pub prompt_tokens: usize,
    /// Tokens to generate.
    pub gen_tokens: usize,
}

/// Synthesizes a Poisson-arrival trace with log-uniform prompt lengths.
pub fn synth_trace(
    rate_rps: f64,
    duration_s: f64,
    prompt_range: (usize, usize),
    gen_tokens: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    let (lo, hi) = prompt_range;
    while t < duration_s {
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / rate_rps; // exponential inter-arrival
        if t >= duration_s {
            break;
        }
        let lu = (lo as f64).ln() + rng.random::<f64>() * ((hi as f64).ln() - (lo as f64).ln());
        out.push(Request {
            arrival_s: t,
            prompt_tokens: lu.exp().round() as usize,
            gen_tokens,
        });
    }
    out
}

/// Outcome of a continuous-batching simulation.
#[derive(Clone, Debug)]
pub struct BatchSimReport {
    /// Requests completed.
    pub completed: usize,
    /// Median end-to-end request latency (arrival → last token), seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_latency_s: f64,
    /// Generated tokens per second over the simulated span.
    pub tokens_per_s: f64,
    /// Mean decode batch size while the system was busy.
    pub mean_batch: f64,
    /// Peak page-pool utilization observed.
    pub peak_pool_utilization: f64,
}

struct Running {
    seq: SeqId,
    arrival_s: f64,
    current_len: usize,
    remaining: usize,
}

/// Simulates continuous batching of `trace` on `(model, system, arch)`.
///
/// Admission: FCFS while the page pool can hold the request's prompt plus
/// its full generation and the running batch is below `max_batch` (real
/// servers cap batch size so early requests are not held hostage by one
/// giant batch). Prefill is charged serially at admission; decode advances
/// the whole running batch one token per step.
pub fn simulate_continuous_batching(
    model: ModelConfig,
    system: &dyn DecodeSystem,
    arch: GpuArch,
    weights: WeightPrecision,
    trace: &[Request],
    max_batch: usize,
) -> BatchSimReport {
    let engine = Engine::new(model, system, arch.clone()).with_weights(weights);
    let mem = MemoryModel::new(&model, &arch, weights);
    let bytes_per_token =
        system.kv_bytes_per_token(&model.attention()) * model.layers as f64 / model.gpus as f64;
    let mut pool = PagedPool::with_budget(mem.free_bytes(), 64, bytes_per_token);

    let mut queue: VecDeque<Request> = trace.to_vec().into();
    let mut running: Vec<Running> = Vec::new();
    let mut now = 0.0f64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut generated = 0usize;
    let mut batch_samples: Vec<f64> = Vec::new();
    let mut peak_util = 0.0f64;

    while !queue.is_empty() || !running.is_empty() {
        // Admit arrived requests while pages allow prompt + generation.
        while let Some(req) = queue.front() {
            if req.arrival_s > now && running.is_empty() {
                now = req.arrival_s; // idle: jump to next arrival
            }
            if req.arrival_s > now || running.len() >= max_batch {
                break;
            }
            let seq = pool.admit();
            let total = req.prompt_tokens + req.gen_tokens;
            if pool.grow(seq, total).is_err() {
                pool.release(seq);
                break; // pool full: leave queued
            }
            now += engine.prefill_latency(req.prompt_tokens);
            running.push(Running {
                seq,
                arrival_s: req.arrival_s,
                current_len: req.prompt_tokens,
                remaining: req.gen_tokens,
            });
            queue.pop_front();
        }
        peak_util = peak_util.max(pool.utilization());

        if running.is_empty() {
            continue; // loop will jump to the next arrival
        }

        // One decode step for the whole batch at its mean context length.
        let batch = running.len();
        let mean_len = (running.iter().map(|r| r.current_len).sum::<usize>() / batch).max(1);
        now += engine.decode_step_latency(batch, mean_len);
        batch_samples.push(batch as f64);
        generated += batch;

        for r in &mut running {
            r.current_len += 1;
            r.remaining -= 1;
        }
        running.retain(|r| {
            if r.remaining == 0 {
                latencies.push(now - r.arrival_s);
                pool.release(r.seq);
                false
            } else {
                true
            }
        });
    }

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx]
        }
    };
    BatchSimReport {
        completed: latencies.len(),
        p50_latency_s: pct(0.50),
        p95_latency_s: pct(0.95),
        tokens_per_s: if now > 0.0 {
            generated as f64 / now
        } else {
            0.0
        },
        mean_batch: if batch_samples.is_empty() {
            0.0
        } else {
            batch_samples.iter().sum::<f64>() / batch_samples.len() as f64
        },
        peak_pool_utilization: peak_util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_baselines::{BitDecodingSys, FlashDecoding};

    fn trace(rate: f64) -> Vec<Request> {
        synth_trace(rate, 30.0, (2048, 16384), 64, 42)
    }

    #[test]
    fn trace_generation_is_deterministic_and_ordered() {
        let a = trace(1.0);
        let b = trace(1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        for r in &a {
            assert!(r.prompt_tokens >= 2048 && r.prompt_tokens <= 16500);
        }
    }

    #[test]
    fn all_requests_complete_and_pages_are_returned() {
        let model = ModelConfig::llama31_8b();
        let sys = BitDecodingSys::kc4();
        let t = trace(0.5);
        let report = simulate_continuous_batching(
            model,
            &sys,
            GpuArch::a100(),
            WeightPrecision::Fp16,
            &t,
            64,
        );
        assert_eq!(report.completed, t.len());
        assert!(report.p50_latency_s > 0.0);
        assert!(report.p95_latency_s >= report.p50_latency_s);
        assert!(report.peak_pool_utilization <= 1.0);
    }

    #[test]
    fn higher_load_raises_tail_latency() {
        let model = ModelConfig::llama31_8b();
        let sys = BitDecodingSys::kc4();
        let light = simulate_continuous_batching(
            model,
            &sys,
            GpuArch::a100(),
            WeightPrecision::Fp16,
            &trace(0.2),
            64,
        );
        let heavy = simulate_continuous_batching(
            model,
            &sys,
            GpuArch::a100(),
            WeightPrecision::Fp16,
            &trace(4.0),
            64,
        );
        assert!(
            heavy.p95_latency_s > light.p95_latency_s,
            "heavy {} vs light {}",
            heavy.p95_latency_s,
            light.p95_latency_s
        );
        assert!(heavy.mean_batch > light.mean_batch);
    }

    #[test]
    fn low_bit_cache_sustains_load_better_than_fp16() {
        // Under the same offered load, the 4-bit cache admits more
        // sequences (memory) and decodes faster (bandwidth): its tail
        // latency must be clearly lower.
        let model = ModelConfig::llama31_8b();
        let t = trace(2.0);
        let fp16 = FlashDecoding::v2();
        let bd = BitDecodingSys::kc4();
        let r_fp16 = simulate_continuous_batching(
            model,
            &fp16,
            GpuArch::a100(),
            WeightPrecision::Fp16,
            &t,
            64,
        );
        let r_bd = simulate_continuous_batching(
            model,
            &bd,
            GpuArch::a100(),
            WeightPrecision::Fp16,
            &t,
            64,
        );
        assert!(
            r_bd.p95_latency_s < r_fp16.p95_latency_s,
            "bd {} vs fp16 {}",
            r_bd.p95_latency_s,
            r_fp16.p95_latency_s
        );
        assert!(r_bd.tokens_per_s >= r_fp16.tokens_per_s * 0.95);
    }
}
