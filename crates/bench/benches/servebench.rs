//! Serving microbench: aggregate KV-tokens/second of the `bd-serve`
//! batched decode runtime vs **batch size and device count**, at 4-bit and
//! 2-bit, on device-pinned worker groups. Results are printed and recorded
//! in **`BENCH_serve.json`** at the repo root — the serving-throughput
//! trajectory baseline for later PRs.
//!
//! Set `BENCH_SERVE=0` to skip the run, or `BENCH_SERVE_JSON=0` to run it
//! without rewriting the committed baseline file.
//!
//! Reading the numbers: each `(sequence, kv-head, device)` work unit runs
//! on its device's pinned group, so aggregate throughput scales with
//! batch × devices up to the machine's core count. On a single-core
//! container (the reference environment) the honest signal is *flatness*:
//! the scheduler sustains the full single-core fused-kernel rate at every
//! batch size and device count — batching and sharding add no measurable
//! overhead — while per-sequence throughput divides by the batch. On a
//! multi-core box the aggregate column grows until cores saturate. The
//! per-device utilization column reports load balance relative to the
//! critical-path device (1.0 = perfectly balanced; 4 heads over 1/2/4
//! devices always balance exactly).

use bd_bench::traces::{bursty_trace, BurstProfile, RequestShape};
use bd_core::AttentionConfig;
use bd_gpu_sim::{builtin_topology, GpuArch};
use bd_kvcache::{Partitioning, QuantScheme};
use bd_llm::{serve_scenario, FunctionalServeReport, ScenarioRequest, ServePolicy};
use bd_serve::{
    FaultPlan, ObsConfig, Quantiles, RequestId, ServeConfig, ServeSession, SloSummary, SpanTracer,
    SynthSequence,
};
use criterion::{criterion_group, criterion_main, Criterion};

const PROMPT: usize = 2048;
const GEN: usize = 4;
const WORKERS: usize = 2; // per device group

struct ServeBenchRow {
    scheme: QuantScheme,
    devices: usize,
    batch: usize,
    steps: usize,
    kv_tokens: u64,
    kv_tok_s: f64,
    per_seq_tok_s: f64,
    device_utilization: f64,
    interconnect_s: f64,
}

/// Best-of-`reps` run of one (scheme, devices, batch) configuration: each
/// rep builds a fresh session, so the best rep reflects steady-state
/// decode throughput rather than allocator warm-up or scheduler noise.
fn run_best(
    scheme: QuantScheme,
    devices: usize,
    batch: usize,
    reps: usize,
    obs: ObsConfig,
) -> ServeBenchRow {
    let mut best = run_config(scheme, devices, batch, obs);
    for _ in 1..reps {
        let row = run_config(scheme, devices, batch, obs);
        if row.kv_tok_s > best.kv_tok_s {
            best = row;
        }
    }
    best
}

fn run_config(scheme: QuantScheme, devices: usize, batch: usize, obs: ObsConfig) -> ServeBenchRow {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let decoder = bd_core::BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build();
    let pages_per_seq = (PROMPT + GEN).div_ceil(64) + 1;
    let config = ServeConfig::new(batch * pages_per_seq, 64, WORKERS, batch)
        .with_devices(devices, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder, config).with_obs(obs);
    for i in 0..batch {
        session
            .submit(Box::new(SynthSequence::new(attn, i as u64, PROMPT, GEN)))
            .expect("fits pool");
    }
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, batch);
    ServeBenchRow {
        scheme,
        devices: summary.devices,
        batch,
        steps: summary.steps,
        kv_tokens: summary.kv_tokens,
        kv_tok_s: summary.kv_tokens_per_s,
        per_seq_tok_s: summary.kv_tokens_per_s / batch as f64,
        device_utilization: summary.mean_device_utilization,
        interconnect_s: summary.modeled_interconnect_s,
    }
}

/// One policy's outcome on the over-subscribed scenario.
struct PolicyBenchRow {
    policy: &'static str,
    kv_tok_s: f64,
    p50_completion: usize,
    p95_completion: usize,
    late_small_completion: usize,
    preemptions: usize,
    swap_mib: f64,
}

/// Percentile over completion steps (nearest-rank).
fn percentile(sorted: &[usize], p: f64) -> usize {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// The head-of-line scenario: a page pool sized for roughly **half** the
/// offered load, hit by four big early requests and four small late
/// arrivals. FCFS makes the small requests wait out the big ones;
/// preemption and SRF let them through. All three policies decode the
/// identical token values (the proptests pin that down bitwise); only the
/// completion-step distribution moves.
fn run_oversubscribed(policy: ServePolicy) -> PolicyBenchRow {
    run_oversubscribed_obs(policy, ObsConfig::off()).0
}

/// [`run_oversubscribed`] with an observability config; returns the SLO
/// rollup alongside the row (all-zero unless lifecycle tracking was on).
fn run_oversubscribed_obs(policy: ServePolicy, obs: ObsConfig) -> (PolicyBenchRow, SloSummary) {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let decoder = bd_core::BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build();
    let page_tokens = 64;
    let big = (1024usize, 16usize);
    let small = (128usize, 8usize);
    let demand =
        4 * (big.0 + big.1).div_ceil(page_tokens) + 4 * (small.0 + small.1).div_ceil(page_tokens);
    let config = ServeConfig::new(demand / 2, page_tokens, WORKERS, 8);
    let mut session = policy.install(ServeSession::new(decoder, config).with_obs(obs));
    let mut ids: Vec<RequestId> = Vec::new();
    for i in 0..4u64 {
        ids.push(
            session
                .submit(Box::new(SynthSequence::new(attn, i, big.0, big.1)))
                .expect("fits pool"),
        );
    }
    // The small requests arrive once the big ones are decoding.
    for i in 4..8u64 {
        ids.push(
            session
                .submit_at(
                    2 + i as usize,
                    Box::new(SynthSequence::new(attn, i, small.0, small.1)),
                )
                .expect("fits pool"),
        );
    }
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 8);
    let mut completions: Vec<usize> = ids
        .iter()
        .map(|id| session.completion_step(*id).expect("completed"))
        .collect();
    let late_small_completion = completions[7];
    completions.sort_unstable();
    let row = PolicyBenchRow {
        policy: session.policy_label(),
        kv_tok_s: summary.kv_tokens_per_s,
        p50_completion: percentile(&completions, 50.0),
        p95_completion: percentile(&completions, 95.0),
        late_small_completion,
        preemptions: summary.preemptions,
        swap_mib: summary.swap_bytes / (1024.0 * 1024.0),
    };
    (row, summary.slo)
}

/// The trace-driven SLO scenario: a seeded bursty (two-state MMPP)
/// arrival trace from `bd_bench::traces` enters the session mid-run via
/// `submit_at`, served by the preempting policy with lifecycle tracking
/// on. Returns the SLO rollup and the trace length. Deterministic in the
/// hard-coded seed.
fn run_bursty_slo() -> (SloSummary, usize) {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let shape = RequestShape {
        prompt_range: (256, 1024),
        gen_tokens: 16,
    };
    let trace = bursty_trace(1.0, 24.0, shape, BurstProfile::default(), 0xBD);
    // Pool sized well under the peak burst demand: every request fits on
    // its own, but burst episodes queue (and preempt) behind the pool.
    let config = ServeConfig::new(48, 64, WORKERS, 8);
    // Two decode steps per trace second; values seeded by trace position.
    let rows: Vec<ScenarioRequest> = trace
        .iter()
        .enumerate()
        .map(|(i, req)| ScenarioRequest {
            arrival_step: (req.arrival_s * 2.0).floor() as usize,
            prompt_seed: i as u64,
            gen_seed: i as u64,
            prompt_tokens: req.prompt_tokens,
            gen_tokens: req.gen_tokens,
            fork_of: None,
        })
        .collect();
    let report = serve_scenario(
        GpuArch::rtx4090(),
        attn,
        QuantScheme::kc4(),
        &rows,
        ServePolicy::FcfsPreempt,
        ObsConfig::off().with_lifecycle(true),
        config,
    )
    .expect("every trace request fits the pool");
    assert_eq!(report.summary.completed, trace.len());
    (report.summary.slo, trace.len())
}

/// One heterogeneous-fleet run's outcome.
struct HeterogeneousRow {
    partitioning: &'static str,
    heads_per_device: Vec<usize>,
    kv_tok_s: f64,
    /// Mean per-device utilization relative to the critical-path device,
    /// speed-aware: each device's tokens are normalized by its modeled
    /// throughput weight before comparing against the slowest-finishing
    /// device. 1.0 = the fleet is perfectly balanced in *time*.
    critical_path_utilization: f64,
    interconnect_s: f64,
}

/// The mixed 2×H100 + 2×A100 fleet (`profiles/mixed_h100_a100.topo`):
/// 16 KV heads apportioned by modeled decode throughput (weighted →
/// [5, 5, 3, 3]) vs uniformly (head-modulo → [4, 4, 4, 4]) on the same
/// hierarchical fabric. Both runs emit bitwise-identical token streams;
/// only the load balance and the modeled clock move.
fn run_heterogeneous() -> Vec<HeterogeneousRow> {
    let attn = AttentionConfig::gqa(16, 16, 64);
    let (batch, prompt, gen, page_tokens) = (4usize, 512usize, 4usize, 64usize);
    let pages_per_seq = (prompt + gen).div_ceil(page_tokens) + 1;
    let topo = builtin_topology("mixed_h100_a100").expect("shipped topology");
    let mut rows = Vec::new();
    let mut streams: Vec<Vec<Vec<u32>>> = Vec::new();
    for (label, partitioning) in [
        ("weighted", None),
        ("head_modulo", Some(Partitioning::HeadModulo)),
    ] {
        let decoder = bd_core::BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        let mut config = ServeConfig::new(batch * pages_per_seq, page_tokens, WORKERS, batch)
            .with_topology(topo.clone());
        if let Some(p) = partitioning {
            config = config.with_devices(4, p);
        }
        let mut session = ServeSession::new(decoder, config);
        let ids: Vec<RequestId> = (0..batch)
            .map(|i| {
                session
                    .submit(Box::new(SynthSequence::new(attn, i as u64, prompt, gen)))
                    .expect("fits pool")
            })
            .collect();
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, batch);
        streams.push(
            ids.iter()
                .map(|id| session.stream(*id).expect("completed").to_vec())
                .collect(),
        );
        rows.push(HeterogeneousRow {
            partitioning: label,
            heads_per_device: (0..session.devices())
                .map(|d| {
                    session
                        .store()
                        .device_stats(bd_kvcache::DeviceId(d as u32))
                        .heads
                })
                .collect(),
            kv_tok_s: summary.kv_tokens_per_s,
            critical_path_utilization: summary.mean_device_utilization,
            interconnect_s: summary.modeled_interconnect_s,
        });
    }
    assert_eq!(
        streams[0], streams[1],
        "weighted and modulo placement must emit bitwise-identical streams"
    );
    assert_eq!(rows[0].heads_per_device, vec![5, 5, 3, 3]);
    assert_eq!(rows[1].heads_per_device, vec![4, 4, 4, 4]);
    assert!(
        rows[0].critical_path_utilization > rows[1].critical_path_utilization,
        "weighted placement must balance the mixed fleet better than modulo ({:.3} vs {:.3})",
        rows[0].critical_path_utilization,
        rows[1].critical_path_utilization,
    );
    rows
}

/// Decode length of the shared-prefix long-run mode: long enough that
/// steady-state decode (not prefill) dominates the wall clock, so the
/// cascade kernel's compute dedup shows up in the throughput column.
const GEN_SHARED: usize = 64;

/// Best-of-`reps` (on the throughput column, like [`run_best`]) of `n`
/// requests that all carry the same 2048-token prompt (seed 0xBD) and
/// each generate [`GEN_SHARED`] tokens of their own: with `fork`, every
/// request after the first is submitted as a fork of it; with
/// `prefix_cache` off, identical prompts are not deduplicated by content
/// either.
fn run_same_prompt(n: usize, fork: bool, prefix_cache: bool, reps: usize) -> FunctionalServeReport {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let page_tokens = 64;
    let pages_per_seq = (PROMPT + GEN_SHARED).div_ceil(page_tokens) + 1;
    let rows: Vec<ScenarioRequest> = (0..n)
        .map(|i| ScenarioRequest {
            arrival_step: 0,
            prompt_seed: 0xBD,
            gen_seed: i as u64,
            prompt_tokens: PROMPT,
            gen_tokens: GEN_SHARED,
            fork_of: (fork && i > 0).then_some(0),
        })
        .collect();
    let run = || {
        let config = ServeConfig::new(n * pages_per_seq, page_tokens, WORKERS, n)
            .with_prefix_cache(prefix_cache);
        serve_scenario(
            GpuArch::rtx4090(),
            attn,
            QuantScheme::kc4(),
            &rows,
            ServePolicy::Fcfs,
            ObsConfig::off(),
            config,
        )
        .expect("fits pool")
    };
    let mut report = run();
    for _ in 1..reps {
        let rep = run();
        if rep.summary.kv_tokens_per_s > report.summary.kv_tokens_per_s {
            report = rep;
        }
    }
    assert_eq!(report.summary.completed, n);
    report
}

/// One shared-prefix scenario's outcome: `sequences` requests carrying
/// the same long prompt, served with and without copy-on-write prefix
/// sharing (which, when on, also lets the scheduler form cascade
/// shared-prefix attention groups that walk the shared packed pages once
/// per step).
struct SharedPrefixRow {
    sequences: usize,
    mode: &'static str,
    gen_tokens: usize,
    steps: usize,
    peak_pages: usize,
    kv_tok_s: f64,
    /// Shared throughput over the paired unshared run (1.0 for unshared).
    speedup: f64,
    forks: usize,
    bytes_saved_kib: f64,
    shared_attn_groups: usize,
    prefix_pages_walked_saved: usize,
}

/// N sequences sharing the 2048-token prompt vs the same N prefilling it
/// privately (no fork, and the radix cache off so nothing dedups by
/// content either) — identical token output (the proptests pin that down
/// bitwise), different physical page footprint AND different compute:
/// the shared run's cascade groups stream each packed prefix page through
/// the dequant LUTs once per `(group, head)` instead of once per sharer.
fn run_shared_prefix(sequences: usize, share: bool, reps: usize) -> SharedPrefixRow {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let page_tokens = 64;
    let report = run_same_prompt(sequences, share, share, reps).summary;
    if share {
        // In-run reconciliation at devices=1 with a page- and
        // block-aligned prompt: every step forms one group per KV head
        // covering all N sharers, and each group skips the full
        // 2048-token shared prefix for all but one sharer. `gen <
        // residual_block` means no mid-run block flush, so no CoW break
        // ever shrinks the shared run.
        let shared_pages = PROMPT / page_tokens;
        assert_eq!(
            report.shared_attn_groups,
            attn.heads_kv * report.steps,
            "{sequences} sharers: cascade groups did not form every step"
        );
        assert_eq!(
            report.prefix_pages_walked_saved,
            attn.heads_kv * (sequences - 1) * shared_pages * report.steps,
            "{sequences} sharers: pages-walked-saved disagrees with the sharing stats"
        );
    } else {
        assert_eq!(report.shared_attn_groups, 0, "unshared run formed a group");
        assert_eq!(report.prefix_pages_walked_saved, 0);
    }
    SharedPrefixRow {
        sequences,
        mode: if share { "shared" } else { "unshared" },
        gen_tokens: GEN_SHARED,
        steps: report.steps,
        peak_pages: report.peak_physical_pages,
        kv_tok_s: report.kv_tokens_per_s,
        speedup: 1.0,
        forks: report.forks,
        bytes_saved_kib: report.peak_shared_bytes_saved as f64 / 1024.0,
        shared_attn_groups: report.shared_attn_groups,
        prefix_pages_walked_saved: report.prefix_pages_walked_saved,
    }
}

/// One content-dedup scenario's outcome: `tenants` *independent*
/// requests (no `fork` call anywhere) that happen to carry the same
/// 2048-token prompt, served with the radix prefix cache on ("radix")
/// or off ("cold").
struct PrefixCacheRow {
    tenants: usize,
    mode: &'static str,
    steps: usize,
    peak_pages: usize,
    kv_tok_s: f64,
    hits: usize,
    misses: usize,
    pages_reused: usize,
    bytes_reused_kib: f64,
    shared_attn_groups: usize,
}

/// N identical-prompt tenants submitted independently: with the cache on,
/// every tenant after the first adopts the sealed prompt page runs by
/// content hash — no fork API, no coordination — and the adopted pages
/// feed the same cascade attention groups an explicit fork would.
/// Returns the row plus the token streams for the bitwise check.
fn run_prefix_cache(tenants: usize, cache: bool, reps: usize) -> (PrefixCacheRow, Vec<Vec<u32>>) {
    let page_tokens = 64;
    let FunctionalServeReport {
        summary: report,
        token_streams,
        ..
    } = run_same_prompt(tenants, false, cache, reps);
    assert_eq!(report.forks, 0, "content dedup must not fork");
    let prompt_pages = PROMPT / page_tokens;
    if cache {
        // The 2048-token prompt is run-aligned at KC-4 (Nr = 128, 2 pages
        // per run), so adoption is exact: one miss seeds the index and
        // every later tenant reuses the full 32-page prompt.
        assert_eq!(report.prefix_cache_misses, 1);
        assert_eq!(report.prefix_cache_hits, tenants - 1);
        assert_eq!(report.prefix_pages_reused, (tenants - 1) * prompt_pages);
        assert!(
            report.shared_attn_groups > 0,
            "{tenants} tenants: radix hits formed no cascade groups"
        );
    } else {
        assert_eq!(report.prefix_cache_hits + report.prefix_pages_reused, 0);
        assert_eq!(report.shared_attn_groups, 0, "cold run formed a group");
    }
    let row = PrefixCacheRow {
        tenants,
        mode: if cache { "radix" } else { "cold" },
        steps: report.steps,
        peak_pages: report.peak_physical_pages,
        kv_tok_s: report.kv_tokens_per_s,
        hits: report.prefix_cache_hits,
        misses: report.prefix_cache_misses,
        pages_reused: report.prefix_pages_reused,
        bytes_reused_kib: report.prefix_bytes_reused as f64 / 1024.0,
        shared_attn_groups: report.shared_attn_groups,
    };
    (row, token_streams)
}

/// One degraded-mode scenario's outcome: the fixed 6-request workload
/// under a fault plan (or none).
struct DegradedRow {
    mode: &'static str,
    devices_end: usize,
    kv_tok_s: f64,
    mean_first_token_step: f64,
    mean_completion_step: f64,
    faults: usize,
    recoveries: usize,
    degraded_steps: usize,
}

/// The same 6-request workload on 4 devices, three ways: healthy,
/// post-failure (a device dies before decode starts, so the whole run
/// executes on 3 survivors), and recovery-in-progress (the loss strikes
/// mid-run, so the run also pays the recompute replays). Token values are
/// identical in all three (the chaos proptests pin that down bitwise);
/// only throughput and the completion/TTFT trajectory move.
fn run_degraded(mode: &'static str, plan: FaultPlan) -> DegradedRow {
    let attn = AttentionConfig::gqa(8, 4, 64);
    let decoder = bd_core::BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build();
    let (batch, prompt, gen, page_tokens) = (6usize, 512usize, 8usize, 64usize);
    let pages = batch * (prompt + gen).div_ceil(page_tokens) + 2;
    let config = ServeConfig::new(pages, page_tokens, WORKERS, batch)
        .with_devices(4, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder, config).with_faults(plan);
    let ids: Vec<RequestId> = (0..batch)
        .map(|i| {
            session
                .submit(Box::new(SynthSequence::new(attn, i as u64, prompt, gen)))
                .expect("fits pool")
        })
        .collect();
    let mut first_token: Vec<Option<usize>> = vec![None; ids.len()];
    let start = session.metrics().len();
    while let Some(m) = session.step() {
        for (slot, id) in first_token.iter_mut().zip(&ids) {
            if slot.is_none() && session.stream(*id).is_some_and(|s| !s.is_empty()) {
                *slot = Some(m.step);
            }
        }
    }
    let run = &session.metrics()[start..];
    let kv_tokens: u64 = run.iter().map(|m| m.kv_tokens as u64).sum();
    let wall_s: f64 = run.iter().map(|m| m.wall_s).sum();
    let completions: Vec<usize> = ids
        .iter()
        .map(|id| session.completion_step(*id).expect("completed"))
        .collect();
    DegradedRow {
        mode,
        devices_end: session.devices(),
        kv_tok_s: if wall_s > 0.0 {
            kv_tokens as f64 / wall_s
        } else {
            0.0
        },
        mean_first_token_step: first_token
            .iter()
            .map(|t| t.expect("streamed") as f64)
            .sum::<f64>()
            / ids.len() as f64,
        mean_completion_step: completions.iter().sum::<usize>() as f64 / ids.len() as f64,
        faults: run.iter().map(|m| m.faults_injected).sum(),
        recoveries: run.iter().map(|m| m.recoveries).sum(),
        degraded_steps: run.iter().filter(|m| m.degraded).count(),
    }
}

/// Gate on the disabled instruments' cost: a default-config session keeps
/// the tracer plumbed through the hot path, so begin/end must stay in the
/// nanosecond range. Measured over enough iterations to swamp timer
/// resolution; the bound is loose enough for a busy single-core container
/// and tight enough to catch an accidental always-on lock or clock read
/// (hundreds of ns).
fn assert_noop_obs_is_cheap() {
    let tracer = SpanTracer::disabled();
    let iters = 1_000_000u64;
    let t = std::time::Instant::now();
    for _ in 0..iters {
        let s = std::hint::black_box(tracer.begin());
        tracer.end(s, "noop", 0);
    }
    let ns_per_op = t.elapsed().as_nanos() as f64 / iters as f64;
    println!("obs disabled span begin/end: {ns_per_op:.1} ns per pair");
    assert!(
        ns_per_op < 250.0,
        "disabled tracer costs {ns_per_op:.1} ns per begin/end pair"
    );
}

fn bench_serve(_c: &mut Criterion) {
    if std::env::var("BENCH_SERVE").as_deref() == Ok("0") {
        println!("serve trajectory bench skipped (BENCH_SERVE=0)");
        return;
    }
    assert_noop_obs_is_cheap();
    let mut rows = Vec::new();
    for scheme in [QuantScheme::kc4(), QuantScheme::kc2()] {
        for devices in [1usize, 2, 4] {
            for batch in [1usize, 4, 16] {
                // Small runs are cheap: average out noise with more reps.
                let reps = if batch <= 4 { 3 } else { 2 };
                let row = run_best(scheme, devices, batch, reps, ObsConfig::default());
                println!(
                    "serve {:>5} dev {:>2} batch {:>2}: {:>4} steps, {:>8} kv tokens, aggregate {:>9.0} kv-tok/s ({:>8.0} per seq), dev util {:>4.2}, allreduce {:>6.1} us",
                    row.scheme.label(),
                    row.devices,
                    row.batch,
                    row.steps,
                    row.kv_tokens,
                    row.kv_tok_s,
                    row.per_seq_tok_s,
                    row.device_utilization,
                    row.interconnect_s * 1e6,
                );
                rows.push(row);
            }
        }
    }
    // Scheduler-policy comparison under an over-subscribed pool (~half
    // the offered load).
    let policy_rows: Vec<PolicyBenchRow> = [
        ServePolicy::Fcfs,
        ServePolicy::FcfsPreempt,
        ServePolicy::ShortestRemainingFirst,
    ]
    .into_iter()
    .map(run_oversubscribed)
    .collect();
    for r in &policy_rows {
        println!(
            "oversubscribed {:>24}: {:>9.0} kv-tok/s, completion p50 {:>3} p95 {:>3}, late small done @{:>3}, {} preemptions, {:>6.2} MiB swapped",
            r.policy,
            r.kv_tok_s,
            r.p50_completion,
            r.p95_completion,
            r.late_small_completion,
            r.preemptions,
            r.swap_mib,
        );
    }
    // Request-lifecycle SLO distributions: a seeded *bursty* arrival
    // trace (two-state MMPP from `bd_bench::traces`) entering mid-run via
    // `submit_at`, served by the preempting policy with lifecycle
    // tracking on. Bursts over-subscribe the pool in episodes, so the
    // tail quantiles reflect queueing under realistic open-loop load
    // rather than a hand-placed worst case. Deterministic in the seed.
    let (slo, slo_submitted) = run_bursty_slo();
    assert_eq!(
        slo.completed, slo.submitted,
        "tracked run must complete all requests"
    );
    assert_eq!(slo.submitted as usize, slo_submitted);
    assert!(slo.ttft_steps.p99 >= slo.ttft_steps.p50);
    println!(
        "slo (bursty trace, fcfs-preempt): {} requests, ttft steps p50 {:.0} p99 {:.0}, tbt steps p99 {:.0}, queue wait p99 {:.0}, goodput p50 {:.0} tok/s, {} preemptions attributed",
        slo.submitted,
        slo.ttft_steps.p50,
        slo.ttft_steps.p99,
        slo.tbt_steps.p99,
        slo.queue_wait_steps.p99,
        slo.goodput_tok_s.p50,
        slo.preemptions,
    );
    // Heterogeneous fleet: the mixed 2×H100 + 2×A100 topology, weighted
    // placement vs head-modulo on the same fabric.
    let het_rows = run_heterogeneous();
    for r in &het_rows {
        println!(
            "heterogeneous {:>12}: heads/device {:?}, {:>9.0} kv-tok/s, critical-path dev util {:>5.3}, allreduce {:>6.1} us",
            r.partitioning, r.heads_per_device, r.kv_tok_s, r.critical_path_utilization,
            r.interconnect_s * 1e6,
        );
    }
    // Shared-prefix long-run comparison: N sequences over one 2048-token
    // prompt decoding 64 tokens each, with and without copy-on-write page
    // sharing (sharing also enables cascade grouped attention).
    let mut shared_rows: Vec<SharedPrefixRow> = Vec::new();
    for sequences in [2usize, 4, 8, 16] {
        for share in [false, true] {
            let mut row = run_shared_prefix(sequences, share, 2);
            if share {
                let unshared = shared_rows.last().expect("paired unshared row first");
                row.speedup = row.kv_tok_s / unshared.kv_tok_s;
            }
            println!(
                "shared-prefix {:>2} seqs {:>8}: peak {:>4} pages, {:>9.0} kv-tok/s ({:>5.2}x), {} forks, {:>7.1} KiB deduped, {:>4} groups, {:>6} prefix pages not re-walked",
                row.sequences, row.mode, row.peak_pages, row.kv_tok_s, row.speedup,
                row.forks, row.bytes_saved_kib, row.shared_attn_groups,
                row.prefix_pages_walked_saved,
            );
            shared_rows.push(row);
        }
    }
    // The acceptance bars: at equal output, the shared run's physical
    // page usage is strictly below the unshared run's, and at 8+ sharers
    // the cascade compute dedup must buy real aggregate throughput.
    for pair in shared_rows.chunks(2) {
        assert!(
            pair[1].peak_pages < pair[0].peak_pages,
            "sharing did not shrink the page footprint at {} seqs ({} vs {})",
            pair[0].sequences,
            pair[1].peak_pages,
            pair[0].peak_pages,
        );
        if pair[0].sequences >= 8 {
            assert!(
                pair[1].speedup >= 1.5,
                "{} sharers: shared aggregate {:.0} kv-tok/s is only {:.2}x the unshared {:.0}",
                pair[0].sequences,
                pair[1].kv_tok_s,
                pair[1].speedup,
                pair[0].kv_tok_s,
            );
        }
    }
    // Content-addressed dedup: the same identical-prompt workload with NO
    // fork calls — independent tenants, deduped purely by the radix
    // prefix cache — against the cold (cache-off) twin.
    let mut prefix_rows: Vec<PrefixCacheRow> = Vec::new();
    for tenants in [2usize, 8] {
        let (cold_row, cold_streams) = run_prefix_cache(tenants, false, 1);
        let (radix_row, radix_streams) = run_prefix_cache(tenants, true, 2);
        assert_eq!(
            radix_streams, cold_streams,
            "{tenants} tenants: the radix cache changed token values"
        );
        assert!(
            radix_row.peak_pages < cold_row.peak_pages,
            "{} tenants: content dedup did not shrink the footprint ({} vs {})",
            tenants,
            radix_row.peak_pages,
            cold_row.peak_pages,
        );
        for row in [cold_row, radix_row] {
            println!(
                "prefix-cache {:>2} tenants {:>5}: peak {:>4} pages, {:>9.0} kv-tok/s, {} hits {} misses, {:>4} pages adopted, {:>8.1} KiB reused, {:>4} groups",
                row.tenants, row.mode, row.peak_pages, row.kv_tok_s, row.hits,
                row.misses, row.pages_reused, row.bytes_reused_kib,
                row.shared_attn_groups,
            );
            prefix_rows.push(row);
        }
    }
    // The acceptance bar: at 8 tenants, transparent content dedup matches
    // the explicit-fork shared-prefix footprint to within one page run
    // (KC-4 at 64-token pages: 2 pages) — the fork API buys nothing the
    // content hash does not.
    let fork_baseline = shared_rows
        .iter()
        .find(|r| r.sequences == 8 && r.mode == "shared")
        .expect("8-sequence shared row");
    let radix_8 = prefix_rows
        .iter()
        .find(|r| r.tenants == 8 && r.mode == "radix")
        .expect("8-tenant radix row");
    assert!(
        radix_8.peak_pages <= fork_baseline.peak_pages + 2,
        "8 tenants: radix peak {} pages strays beyond one page run of the explicit-fork baseline {}",
        radix_8.peak_pages,
        fork_baseline.peak_pages,
    );
    // Degraded-mode trajectory: the same workload healthy, after a
    // device loss, and with the loss striking mid-run.
    let degraded_rows: Vec<DegradedRow> = [
        ("healthy_4dev", FaultPlan::new()),
        ("post_failure_3dev", FaultPlan::new().device_loss(0, 2)),
        ("recovery_in_progress", FaultPlan::new().device_loss(4, 2)),
    ]
    .into_iter()
    .map(|(mode, plan)| run_degraded(mode, plan))
    .collect();
    for r in &degraded_rows {
        println!(
            "degraded {:>22}: {:>9.0} kv-tok/s on {} devices, first token @{:>4.1}, completion @{:>4.1}, {} faults, {} recoveries, {} degraded steps",
            r.mode,
            r.kv_tok_s,
            r.devices_end,
            r.mean_first_token_step,
            r.mean_completion_step,
            r.faults,
            r.recoveries,
            r.degraded_steps,
        );
    }
    // The acceptance bar: the mid-run loss pays its recompute replays in
    // completion steps, and both faulted runs end on 3 devices.
    assert_eq!(degraded_rows[0].devices_end, 4);
    assert_eq!(degraded_rows[1].devices_end, 3);
    assert_eq!(degraded_rows[2].devices_end, 3);
    assert!(
        degraded_rows[2].mean_completion_step >= degraded_rows[0].mean_completion_step,
        "recovery-in-progress cannot complete earlier than healthy"
    );
    write_bench_json(
        &rows,
        &policy_rows,
        &shared_rows,
        &prefix_rows,
        &degraded_rows,
        &het_rows,
        &slo,
    );
}

/// Renders one [`Quantiles`] block with a stable key order.
fn quantiles_json(q: &Quantiles) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}, \"mean\": {:.2}}}",
        q.count, q.p50, q.p90, q.p99, q.max, q.mean
    )
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    rows: &[ServeBenchRow],
    policy_rows: &[PolicyBenchRow],
    shared_rows: &[SharedPrefixRow],
    prefix_rows: &[PrefixCacheRow],
    degraded_rows: &[DegradedRow],
    het_rows: &[HeterogeneousRow],
    slo: &SloSummary,
) {
    if std::env::var("BENCH_SERVE_JSON").as_deref() == Ok("0") {
        println!("BENCH_serve.json left untouched (BENCH_SERVE_JSON=0)");
        return;
    }
    let mut json = String::from(
        "{\n  \"bench\": \"serve_batched_decode\",\n  \"unit\": \"aggregate_kv_tokens_per_second\",\n  \"attention\": \"gqa_8q_4kv_d64\",\n  \"prompt_tokens\": 2048,\n  \"gen_tokens\": 4,\n  \"workers_per_device\": 2,\n  \"partitioning\": \"head_modulo\",\n  \"provenance\": {\"gpu\": \"rtx4090\", \"topology\": \"flat_nvlink4_pcie_host\", \"page_tokens\": 64, \"devices\": [1, 2, 4], \"schemes\": [\"kc4\", \"kc2\"], \"batches\": [1, 4, 16], \"policies\": [\"fcfs\", \"fcfs-preempt\", \"shortest-remaining-first\"], \"obs\": \"default-off\"},\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"devices\": {}, \"batch\": {}, \"steps\": {}, \"kv_tokens\": {}, \"aggregate_kv_tok_s\": {:.0}, \"per_seq_kv_tok_s\": {:.0}, \"mean_device_utilization\": {:.3}, \"modeled_allreduce_us\": {:.1}}}{}\n",
            r.scheme.label(),
            r.devices,
            r.batch,
            r.steps,
            r.kv_tokens,
            r.kv_tok_s,
            r.per_seq_tok_s,
            r.device_utilization,
            r.interconnect_s * 1e6,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"oversubscribed\": [\n");
    for (i, r) in policy_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"aggregate_kv_tok_s\": {:.0}, \"p50_completion_step\": {}, \"p95_completion_step\": {}, \"late_small_completion_step\": {}, \"preemptions\": {}, \"swap_mib\": {:.2}}}{}\n",
            r.policy,
            r.kv_tok_s,
            r.p50_completion,
            r.p95_completion,
            r.late_small_completion,
            r.preemptions,
            r.swap_mib,
            if i + 1 == policy_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"heterogeneous\": [\n");
    for (i, r) in het_rows.iter().enumerate() {
        let heads: Vec<String> = r.heads_per_device.iter().map(usize::to_string).collect();
        json.push_str(&format!(
            "    {{\"topology\": \"mixed_h100_a100\", \"partitioning\": \"{}\", \"heads_per_device\": [{}], \"aggregate_kv_tok_s\": {:.0}, \"critical_path_device_utilization\": {:.3}, \"modeled_allreduce_us\": {:.1}}}{}\n",
            r.partitioning,
            heads.join(", "),
            r.kv_tok_s,
            r.critical_path_utilization,
            r.interconnect_s * 1e6,
            if i + 1 == het_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"slo\": {{\"scenario\": \"bursty_fcfs_preempt\", \"submitted\": {}, \"completed\": {}, \"preemptions\": {}, \"resumes\": {}, \"ttft_steps\": {}, \"tbt_steps\": {}, \"queue_wait_steps\": {}, \"goodput_tok_s\": {}, \"aggregate_goodput_tok_s\": {:.0}}},\n",
        slo.submitted,
        slo.completed,
        slo.preemptions,
        slo.resumes,
        quantiles_json(&slo.ttft_steps),
        quantiles_json(&slo.tbt_steps),
        quantiles_json(&slo.queue_wait_steps),
        quantiles_json(&slo.goodput_tok_s),
        slo.aggregate_goodput_tok_s,
    ));
    json.push_str("  \"shared_prefix\": [\n");
    for (i, r) in shared_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sequences\": {}, \"mode\": \"{}\", \"gen_tokens\": {}, \"steps\": {}, \"peak_physical_pages\": {}, \"aggregate_kv_tok_s\": {:.0}, \"speedup_vs_unshared\": {:.2}, \"forks\": {}, \"peak_bytes_deduped_kib\": {:.1}, \"shared_attn_groups\": {}, \"prefix_pages_walked_saved\": {}}}{}\n",
            r.sequences,
            r.mode,
            r.gen_tokens,
            r.steps,
            r.peak_pages,
            r.kv_tok_s,
            r.speedup,
            r.forks,
            r.bytes_saved_kib,
            r.shared_attn_groups,
            r.prefix_pages_walked_saved,
            if i + 1 == shared_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"prefix_cache\": [\n");
    for (i, r) in prefix_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"mode\": \"{}\", \"steps\": {}, \"peak_physical_pages\": {}, \"aggregate_kv_tok_s\": {:.0}, \"prefix_cache_hits\": {}, \"prefix_cache_misses\": {}, \"prefix_pages_reused\": {}, \"prefix_bytes_reused_kib\": {:.1}, \"shared_attn_groups\": {}}}{}\n",
            r.tenants,
            r.mode,
            r.steps,
            r.peak_pages,
            r.kv_tok_s,
            r.hits,
            r.misses,
            r.pages_reused,
            r.bytes_reused_kib,
            r.shared_attn_groups,
            if i + 1 == prefix_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"degraded\": [\n");
    for (i, r) in degraded_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"devices_end\": {}, \"aggregate_kv_tok_s\": {:.0}, \"mean_first_token_step\": {:.1}, \"mean_completion_step\": {:.1}, \"faults_injected\": {}, \"recoveries\": {}, \"degraded_steps\": {}}}{}\n",
            r.mode,
            r.devices_end,
            r.kv_tok_s,
            r.mean_first_token_step,
            r.mean_completion_step,
            r.faults,
            r.recoveries,
            r.degraded_steps,
            if i + 1 == degraded_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
