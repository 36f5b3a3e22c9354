//! Paged serving: the analytic maximum-throughput evaluation under a
//! memory budget (paper Fig. 13 and Table I), plus the **functional**
//! entry point that runs the same Page setting on the real batched decode
//! runtime (`bd-serve`) — concurrent sequences decoding actual values
//! through the fused kernel over paged packed storage.

use crate::engine::{Engine, WeightPrecision};
use crate::memory::MemoryModel;
use crate::model::ModelConfig;
use bd_baselines::DecodeSystem;
use bd_core::{AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{PagedPool, QuantScheme};
use bd_serve::{
    AdmissionError, FcfsPreempt, ObsConfig, ServeConfig, ServeSession, ServeSummary,
    ShortestRemainingFirst, SynthSequence,
};

/// Scheduling-policy selector for [`serve_scenario`] — a
/// plain enum mirror of `bd_serve`'s policy structs so callers (benches,
/// CLIs) can pick one without touching trait objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePolicy {
    /// Strict FCFS, never preempts (the default).
    Fcfs,
    /// FCFS with last-in preemption (swap-out/swap-in) under page
    /// pressure.
    FcfsPreempt,
    /// Shortest-remaining-generation-first, never preempts.
    ShortestRemainingFirst,
}

impl ServePolicy {
    /// The policy's serve-layer label.
    pub fn label(self) -> &'static str {
        match self {
            ServePolicy::Fcfs => "fcfs",
            ServePolicy::FcfsPreempt => "fcfs-preempt",
            ServePolicy::ShortestRemainingFirst => "shortest-remaining-first",
        }
    }

    /// Installs the selected policy on a session (benches and CLIs share
    /// this instead of re-matching on policy structs).
    pub(crate) fn install(self, session: ServeSession) -> ServeSession {
        match self {
            ServePolicy::Fcfs => session,
            ServePolicy::FcfsPreempt => session.with_policy(FcfsPreempt::default()),
            ServePolicy::ShortestRemainingFirst => session.with_policy(ShortestRemainingFirst),
        }
    }
}

/// Result of a serving-throughput evaluation.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// System label.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Batch size actually served (memory-limited).
    pub batch: usize,
    /// Decode-step latency at that batch (seconds).
    pub step_latency_s: f64,
    /// Sustained generated tokens per second.
    pub tokens_per_s: f64,
}

/// Evaluates the maximum-throughput serving point for a system: the largest
/// page-admissible batch at `seq_len`, then tokens/s at that batch
/// (the paper's "maximum throughput ... under the largest batch sizes
/// available within GPU memory").
pub fn max_throughput(
    model: ModelConfig,
    system: &dyn DecodeSystem,
    arch: GpuArch,
    weights: WeightPrecision,
    seq_len: usize,
) -> ServingReport {
    let mem = MemoryModel::new(&model, &arch, weights);
    let batch = mem.max_batch(&model, system, seq_len);

    // Paged admission: sequences allocate page-granular blocks, so the
    // usable batch is what the page pool actually admits.
    let bytes_per_token =
        system.kv_bytes_per_token(&model.attention()) * model.layers as f64 / model.gpus as f64;
    let mut pool = PagedPool::with_budget(mem.free_bytes(), 64, bytes_per_token);
    let mut admitted = 0usize;
    for _ in 0..batch {
        let seq = pool.admit();
        if pool.grow(seq, seq_len).is_ok() {
            admitted += 1;
        } else {
            pool.release(seq);
            break;
        }
    }

    if admitted == 0 {
        return ServingReport {
            system: system.label(),
            model: model.name.to_owned(),
            batch: 0,
            step_latency_s: f64::INFINITY,
            tokens_per_s: 0.0,
        };
    }

    let engine = Engine::new(model, system, arch).with_weights(weights);
    let step = engine.decode_step_latency(admitted, seq_len);
    ServingReport {
        system: system.label(),
        model: model.name.to_owned(),
        batch: admitted,
        step_latency_s: step,
        tokens_per_s: admitted as f64 / step,
    }
}

/// One request of a [`serve_scenario`] run — plain data, so a workload is
/// a table of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioRequest {
    /// Decode step at which the request arrives
    /// ([`ServeSession::submit_at`]; 0 = queued before the run starts).
    pub arrival_step: usize,
    /// Seed of the synthetic prompt K/V. Requests with equal
    /// `prompt_seed` and `prompt_tokens` carry the identical prompt.
    pub prompt_seed: u64,
    /// Seed of the queries and generated K/V (the request's own
    /// continuation).
    pub gen_seed: u64,
    /// Prompt length.
    pub prompt_tokens: usize,
    /// Tokens to generate.
    pub gen_tokens: usize,
    /// Index (into the scenario's request slice) of an earlier request
    /// whose prompt this one shares: submitted through
    /// [`ServeSession::submit_forked_at`], so admission aliases the
    /// parent's prompt pages copy-on-write while the parent is live.
    pub fork_of: Option<usize>,
}

/// Outcome of a functional serve run ([`serve_scenario`]).
#[derive(Clone, Debug)]
pub struct FunctionalServeReport {
    /// The session's aggregate run summary (every counter, the SLO
    /// rollup — zeroed unless lifecycle tracking was on).
    pub summary: ServeSummary,
    /// The emitted token stream of every request, in submission order.
    pub token_streams: Vec<Vec<u32>>,
    /// The decode step at which each request completed, in submission
    /// order (`None` for a request the session failed).
    pub completion_steps: Vec<Option<usize>>,
}

/// Runs the paper's Page serving setting **functionally**: the synthetic
/// `requests` decode concurrently on the `bd-serve` runtime — real values
/// through the fused kernel over paged packed storage, admitted under
/// `policy`, instrumented per `obs` — until all have completed. The
/// analytic [`max_throughput`] above prices this setting; this executes
/// it. Every serving pattern is a choice of rows: a pre-filled queue
/// (`arrival_step` 0), a trace (`arrival_step` from arrival times),
/// explicit prompt sharing (`fork_of`), independent tenants repeating a
/// prompt (equal `prompt_seed`, deduplicated by the radix prefix cache
/// unless `config` turns it off). Streams are bitwise-checkable against
/// per-request [`bd_serve::replay_contiguous`] in every case.
///
/// # Errors
///
/// Propagates [`AdmissionError`] when a request cannot be served under
/// `config` (page budget larger than the whole pool, zero tokens to
/// generate), and rejects a `fork_of` that does not name an earlier row.
pub fn serve_scenario(
    arch: GpuArch,
    attn: AttentionConfig,
    scheme: QuantScheme,
    requests: &[ScenarioRequest],
    policy: ServePolicy,
    obs: ObsConfig,
    config: ServeConfig,
) -> Result<FunctionalServeReport, AdmissionError> {
    let decoder = BitDecoder::builder(arch)
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build();
    let mut session = policy.install(ServeSession::new(decoder, config).with_obs(obs));
    let mut ids = Vec::with_capacity(requests.len());
    for r in requests {
        let model = Box::new(SynthSequence::forked(
            attn,
            r.prompt_seed,
            r.gen_seed,
            r.prompt_tokens,
            r.gen_tokens,
        ));
        ids.push(match r.fork_of {
            Some(parent) => {
                let unknown = AdmissionError::UnknownParent(parent as u64);
                let parent = *ids.get(parent).ok_or(unknown)?;
                session.submit_forked_at(r.arrival_step, parent, model)?
            }
            None => session.submit_at(r.arrival_step, model)?,
        });
    }
    let summary = session.run_to_completion();
    Ok(FunctionalServeReport {
        summary,
        token_streams: ids
            .iter()
            .map(|id| session.stream(*id).map_or_else(Vec::new, <[u32]>::to_vec))
            .collect(),
        completion_steps: ids.iter().map(|id| session.completion_step(*id)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_baselines::{BitDecodingSys, CudaOnly, FlashDecoding};
    use bd_serve::{replay_contiguous, SloSummary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One inference request in a trace.
    #[derive(Clone, Debug, PartialEq)]
    struct Request {
        /// Arrival time in seconds.
        arrival_s: f64,
        /// Prompt (prefill) length in tokens.
        prompt_tokens: usize,
        /// Tokens to generate.
        gen_tokens: usize,
    }

    /// Synthesizes a Poisson-arrival trace with log-uniform prompt lengths.
    fn synth_trace(
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

    fn report(model: ModelConfig, sys: &dyn DecodeSystem, w: WeightPrecision) -> ServingReport {
        max_throughput(model, sys, GpuArch::a100(), w, 32768)
    }

    /// One independent request, seeded `seed` throughout.
    fn row(arrival_step: usize, seed: u64, prompt: usize, gen: usize) -> ScenarioRequest {
        ScenarioRequest {
            arrival_step,
            prompt_seed: seed,
            gen_seed: seed,
            prompt_tokens: prompt,
            gen_tokens: gen,
            fork_of: None,
        }
    }

    /// `n` requests queued before the run starts, request `i` seeded `i`.
    fn queued(n: usize, prompt: usize, gen: usize) -> Vec<ScenarioRequest> {
        (0..n).map(|i| row(0, i as u64, prompt, gen)).collect()
    }

    /// One request per trace entry, seeded by trace position, arriving at
    /// `arrival_s × steps_per_s`.
    fn trace_rows(trace: &[Request], steps_per_s: f64) -> Vec<ScenarioRequest> {
        trace
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let arrival = (req.arrival_s * steps_per_s).floor() as usize;
                row(arrival, i as u64, req.prompt_tokens, req.gen_tokens)
            })
            .collect()
    }

    /// `n` requests over one prompt (seed 0xBD), each with its own
    /// continuation; with `fork`, every request after the first forks it.
    fn same_prompt(n: usize, prompt: usize, gen: usize, fork: bool) -> Vec<ScenarioRequest> {
        (0..n)
            .map(|i| ScenarioRequest {
                prompt_seed: 0xBD,
                fork_of: (fork && i > 0).then_some(0),
                ..row(0, i as u64, prompt, gen)
            })
            .collect()
    }

    fn serve(
        attn: AttentionConfig,
        scheme: QuantScheme,
        rows: &[ScenarioRequest],
        policy: ServePolicy,
        config: ServeConfig,
    ) -> FunctionalServeReport {
        let obs = ObsConfig::default();
        serve_scenario(GpuArch::a100(), attn, scheme, rows, policy, obs, config).unwrap()
    }

    #[test]
    fn functional_serving_completes_and_matches_contiguous_replay() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let r = serve(
            attn,
            QuantScheme::kc4(),
            &queued(3, 140, 3),
            ServePolicy::Fcfs,
            ServeConfig::new(256, 64, 2, 8),
        );
        assert_eq!(r.summary.completed, 3);
        assert_eq!(r.summary.steps, 3);
        assert_eq!(r.summary.kv_tokens, 3 * (140 + 141 + 142));
        assert!(r.summary.kv_tokens_per_s > 0.0);
        assert!(r.summary.dequant.total() > 0);
        let dec = BitDecoder::builder(GpuArch::a100())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        for (i, stream) in r.token_streams.iter().enumerate() {
            let want = replay_contiguous(&dec, &mut SynthSequence::new(attn, i as u64, 140, 3));
            assert_eq!(stream, &want, "sequence {i}");
        }
    }

    #[test]
    fn trace_driven_serving_admits_mid_run_and_matches_replay() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        // A tight pool: later arrivals must wait for earlier sequences'
        // pages.
        let trace = synth_trace(1.5, 8.0, (40, 120), 3, 7);
        assert!(trace.len() > 2, "trace has several arrivals");
        let config =
            ServeConfig::new(16, 32, 0, 4).with_devices(2, bd_kvcache::Partitioning::HeadModulo);
        let r = serve(
            attn,
            QuantScheme::kc4(),
            &trace_rows(&trace, 2.0),
            ServePolicy::Fcfs,
            config,
        );
        assert_eq!(r.summary.completed, trace.len(), "every arrival is served");
        let dec = BitDecoder::builder(GpuArch::a100())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        for (i, (req, stream)) in trace.iter().zip(&r.token_streams).enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::new(attn, i as u64, req.prompt_tokens, req.gen_tokens),
            );
            assert_eq!(stream, &want, "sequence {i}");
        }
    }

    #[test]
    fn preempting_policy_unblocks_late_arrivals_in_the_trace_setting() {
        let attn = AttentionConfig::gqa(2, 1, 16);
        // A big request owns the whole 4-page pool; a small one arrives
        // while it decodes.
        let trace = [
            Request {
                arrival_s: 0.0,
                prompt_tokens: 64,
                gen_tokens: 40,
            },
            Request {
                arrival_s: 5.0,
                prompt_tokens: 16,
                gen_tokens: 3,
            },
        ];
        let config = ServeConfig::new(4, 32, 0, 8);
        let run = |policy| {
            serve(
                attn,
                QuantScheme::kc4(),
                &trace_rows(&trace, 1.0),
                policy,
                config.clone(),
            )
        };
        let fcfs = run(ServePolicy::Fcfs);
        let pre = run(ServePolicy::FcfsPreempt);
        assert_eq!((fcfs.summary.preemptions, fcfs.summary.resumes), (0, 0));
        assert_eq!((pre.summary.preemptions, pre.summary.resumes), (1, 1));
        assert!(pre.summary.swap_bytes > 0.0);
        // The late small request completes strictly earlier under
        // preemption…
        assert!(pre.completion_steps[1].is_some());
        assert!(pre.completion_steps[1] < fcfs.completion_steps[1]);
        // …and every stream still equals the uninterrupted contiguous
        // replay under both policies.
        let dec = BitDecoder::builder(GpuArch::a100())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        for report in [&fcfs, &pre] {
            assert_eq!(report.summary.completed, 2);
            for (i, (req, stream)) in trace.iter().zip(&report.token_streams).enumerate() {
                let want = replay_contiguous(
                    &dec,
                    &mut SynthSequence::new(attn, i as u64, req.prompt_tokens, req.gen_tokens),
                );
                assert_eq!(stream, &want, "sequence {i}");
            }
        }
    }

    #[test]
    fn shared_prompt_serving_saves_pages_and_is_bitwise_invisible() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let config = ServeConfig::new(256, 32, 0, 8);
        // The private-prefill baseline must not content-dedup either, so
        // its radix prefix cache is off.
        let run = |share: bool| {
            serve(
                attn,
                QuantScheme::kc4(),
                &same_prompt(4, 256, 3, share),
                ServePolicy::Fcfs,
                config.clone().with_prefix_cache(share),
            )
        };
        let shared = run(true);
        let unshared = run(false);
        assert_eq!(shared.summary.completed, 4);
        assert_eq!((shared.summary.forks, unshared.summary.forks), (3, 0));
        // The page footprint shrinks at equal output…
        assert!(
            shared.summary.peak_physical_pages < unshared.summary.peak_physical_pages,
            "{} vs {}",
            shared.summary.peak_physical_pages,
            unshared.summary.peak_physical_pages
        );
        assert!(shared.summary.peak_shared_bytes_saved > 0);
        assert_eq!(unshared.summary.peak_shared_bytes_saved, 0);
        // …while every stream is identical to the unshared run and to the
        // per-sequence contiguous replay.
        assert_eq!(shared.token_streams, unshared.token_streams);
        let dec = BitDecoder::builder(GpuArch::a100())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        for (i, stream) in shared.token_streams.iter().enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::forked(attn, 0xBD, i as u64, 256, 3),
            );
            assert_eq!(stream, &want, "sequence {i}");
        }
    }

    #[test]
    fn prefix_cache_serving_dedups_identical_tenants_bitwise_invisibly() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let config = ServeConfig::new(256, 32, 0, 8);
        // Independent tenants, no fork lineage anywhere: only the radix
        // cache can dedup them.
        let run = |cache: bool| {
            serve(
                attn,
                QuantScheme::kc4(),
                &same_prompt(4, 256, 3, false),
                ServePolicy::Fcfs,
                config.clone().with_prefix_cache(cache),
            )
        };
        let cached = run(true);
        let cold = run(false);
        assert_eq!(cached.summary.completed, 4);
        // No forks anywhere: the tenants are independent submissions and
        // the dedup is purely content-addressed.
        assert_eq!((cached.summary.forks, cold.summary.forks), (0, 0));
        assert_eq!(cached.summary.prefix_cache_misses, 1);
        assert_eq!(cached.summary.prefix_cache_hits, 3);
        assert!(cached.summary.prefix_pages_reused > 0);
        assert!(cached.summary.prefix_bytes_reused > 0);
        assert_eq!(
            cold.summary.prefix_cache_hits + cold.summary.prefix_pages_reused,
            0
        );
        // Adopted pages shrink the footprint at equal output…
        assert!(
            cached.summary.peak_physical_pages < cold.summary.peak_physical_pages,
            "{} vs {}",
            cached.summary.peak_physical_pages,
            cold.summary.peak_physical_pages
        );
        // …and every stream is identical to the cache-off run and to the
        // per-sequence contiguous replay.
        assert_eq!(cached.token_streams, cold.token_streams);
        let dec = BitDecoder::builder(GpuArch::a100())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        for (i, stream) in cached.token_streams.iter().enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::forked(attn, 0xBD, i as u64, 256, 3),
            );
            assert_eq!(stream, &want, "sequence {i}");
        }
    }

    #[test]
    fn trace_serving_with_lifecycle_tracking_reports_slo() {
        let attn = AttentionConfig::gqa(2, 1, 16);
        let trace = synth_trace(2.0, 5.0, (30, 80), 2, 11);
        let rows = trace_rows(&trace, 2.0);
        // A roomy pool served in order, then one barely wider than a single
        // request under the preempting policy: arrivals queue behind the
        // pool and swap each other out, and every request still completes.
        for (policy, pages, preempts) in [
            (ServePolicy::Fcfs, 64, false),
            (ServePolicy::FcfsPreempt, 4, true),
        ] {
            let config = ServeConfig::new(pages, 32, 0, 4);
            let tracked = serve_scenario(
                GpuArch::a100(),
                attn,
                QuantScheme::kc4(),
                &rows,
                policy,
                ObsConfig::default().with_lifecycle(true),
                config.clone(),
            )
            .unwrap();
            let slo = tracked.summary.slo;
            assert_eq!(tracked.summary.completed, trace.len());
            assert_eq!(slo.completed as usize, tracked.summary.completed);
            assert_eq!(slo.submitted as usize, trace.len());
            assert_eq!(slo.ttft_steps.count as usize, trace.len());
            assert!(slo.ttft_steps.p99 >= slo.ttft_steps.p50);
            assert!(slo.ttft_s.p99.is_finite());
            assert!(slo.aggregate_goodput_tok_s > 0.0);
            assert_eq!(slo.preemptions as usize, tracked.summary.preemptions);
            assert_eq!(tracked.summary.preemptions > 0, preempts);
            // Observability is bitwise invisible: with every instrument off
            // the run emits the same streams and an all-zero SLO block.
            let plain = serve(attn, QuantScheme::kc4(), &rows, policy, config);
            assert_eq!(plain.summary.slo, SloSummary::default());
            assert_eq!(plain.token_streams, tracked.token_streams);
        }
    }

    #[test]
    fn trace_driven_serving_is_deterministic() {
        let attn = AttentionConfig::gqa(2, 1, 16);
        let trace = synth_trace(2.0, 5.0, (30, 80), 2, 11);
        let run = || {
            serve(
                attn,
                QuantScheme::kc2(),
                &trace_rows(&trace, 4.0),
                ServePolicy::Fcfs,
                ServeConfig::new(8, 32, 1, 2),
            )
            .token_streams
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn functional_serving_is_deterministic_across_runs() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let run = || {
            serve(
                attn,
                QuantScheme::kc2(),
                &queued(4, 260, 2),
                ServePolicy::Fcfs,
                ServeConfig::new(256, 32, 3, 2), // batch-capped: two waves
            )
            .token_streams
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bitdecoding_beats_fp16_and_qserve_on_gqa_serving() {
        // Paper Fig. 13 (LLaMA-3.1-8B, 32K): BitDecoding > FlashDecoding-v2
        // > QServe.
        let model = ModelConfig::llama31_8b();
        let fp16 = report(model, &FlashDecoding::v2(), WeightPrecision::Fp16);
        let bd = report(model, &BitDecodingSys::kc4(), WeightPrecision::Fp16);
        let qserve = report(model, &CudaOnly::qserve(), WeightPrecision::Int4);
        assert!(
            bd.tokens_per_s > 2.0 * fp16.tokens_per_s,
            "bd {} vs fp16 {}",
            bd.tokens_per_s,
            fp16.tokens_per_s
        );
        assert!(
            qserve.tokens_per_s < fp16.tokens_per_s,
            "qserve {} should trail fp16 {} on GQA",
            qserve.tokens_per_s,
            fp16.tokens_per_s
        );
        assert!(
            bd.tokens_per_s > 2.0 * qserve.tokens_per_s,
            "paper: >2x over QServe"
        );
    }

    #[test]
    fn qserve_wins_on_mha_llama2() {
        // Paper Fig. 13: QServe does beat FP16 on the MHA LLaMA-2-7B.
        let model = ModelConfig::llama2_7b();
        let fp16 = report(model, &FlashDecoding::v2(), WeightPrecision::Fp16);
        let qserve = report(model, &CudaOnly::qserve(), WeightPrecision::Int4);
        assert!(
            qserve.tokens_per_s > fp16.tokens_per_s,
            "qserve {} vs fp16 {}",
            qserve.tokens_per_s,
            fp16.tokens_per_s
        );
    }

    #[test]
    fn batch_admission_respects_pages() {
        let model = ModelConfig::llama31_8b();
        let r = report(model, &BitDecodingSys::kc4(), WeightPrecision::Fp16);
        assert!(r.batch > 0);
        assert!(r.tokens_per_s.is_finite());
    }

    #[test]
    fn ratios_near_paper_fig13() {
        // Paper Fig. 13 at 32K on LLaMA-3.1-8B: BitDecoding/FlashDecoding
        // ≈ 3.0x (147.2 / 48.5). Our absolute tok/s run faster than the
        // paper's measured stack, but the ratio must match.
        let model = ModelConfig::llama31_8b();
        let fp16 = report(model, &FlashDecoding::v2(), WeightPrecision::Fp16);
        let bd = report(model, &BitDecodingSys::kc4(), WeightPrecision::Fp16);
        let ratio = bd.tokens_per_s / fp16.tokens_per_s;
        assert!(
            ratio > 2.0 && ratio < 5.0,
            "BD/FP16 throughput ratio {ratio}"
        );
        assert!(fp16.tokens_per_s > 10.0, "fp16 {}", fp16.tokens_per_s);
    }
}
