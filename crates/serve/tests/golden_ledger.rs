//! Golden step ledger: every counter a decode step publishes, pinned.
//!
//! `golden_streams.rs` pins token values; nothing pinned the *accounting*
//! — the per-step [`ServeMetrics`] sample, the `serve.*` registry counters
//! and the event log a session writes about the same step. This file
//! serves one fixed scenario that moves every one of those counters and
//! compares an FNV-1a-64 of each surface against recorded constants, once
//! healthy and once under a fault plan. A change that claims "same
//! counters" must pass this file unedited.
//!
//! The scenario: 2 devices head-modulo under `FcfsPreempt`, 24 pages × 32
//! tokens per device against roughly twice that in demand, `submit_at`
//! arrivals, a `submit_forked_at` pair off a mid-page prompt (CoW breaks),
//! and two independent tenants repeating one prompt (radix hits), all
//! with `ObsConfig::all()`. The longest context holds 3 packed blocks per
//! head. Nothing hashed carries wall time: the event log has none, and of the
//! metrics only the integer fields, the `degraded` flag and the bits of
//! the modeled/derived floats go in.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::too_many_lines)]

use bd_core::{AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{Partitioning, QuantScheme};
use bd_serve::{
    FaultPlan, FcfsPreempt, ObsConfig, ServeConfig, ServeMetrics, ServeSession, SynthSequence,
};

const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 4,
    heads_kv: 2,
    head_dim: 32,
};
const PAGE_TOKENS: usize = 32;
const PAGES: usize = 24;

/// Independent requests: `(seed, prompt, gen, arrival step)`. The first
/// owns half the pool from step 0; the rest arrive into the squeeze.
const SOLO: [(u64, usize, usize, usize); 4] = [
    (10, 330, 20, 0),
    (11, 60, 6, 3),
    (12, 90, 5, 5),
    (13, 40, 7, 9),
];
/// The fork pair: a 250-token prompt (one sealed block, the second six
/// tokens short, so each lineage's flush at 256 lands on shared pages and
/// breaks them copy-on-write) submitted at step 1, its child through
/// `submit_forked_at` one step later.
const FORK_PROMPT_SEED: u64 = 20;
const FORK_PARENT: (u64, usize, usize, usize) = (21, 250, 12, 1);
const FORK_CHILD: (u64, usize, usize, usize) = (22, 250, 9, 2);
/// Two independent tenants repeating one 256-token prompt (two sealed
/// blocks): the second adopts the first's pages from the radix cache.
const TENANT_PROMPT_SEED: u64 = 30;
const TENANTS: [(u64, usize, usize, usize); 2] = [(31, 256, 8, 2), (32, 256, 6, 4)];

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every deterministic field of one step sample, as bytes.
fn metric_bytes(m: &ServeMetrics) -> Vec<u8> {
    let ints = [
        m.step,
        m.batch,
        m.admitted,
        m.forked,
        m.completed,
        m.kv_tokens,
        m.dequant.lop3 as usize,
        m.dequant.shifts as usize,
        m.dequant.hfma2 as usize,
        m.devices,
        m.preempted,
        m.resumed,
        m.physical_pages,
        m.logical_pages,
        m.shared_pages,
        m.shared_bytes_saved,
        m.faults_injected,
        m.recoveries,
        m.retries,
        usize::from(m.degraded),
        m.requests_failed,
        m.shared_attn_groups,
        m.prefix_pages_walked_saved,
        m.prefix_cache_hits,
        m.prefix_cache_misses,
        m.prefix_pages_reused,
        m.prefix_bytes_reused,
        m.prefix_subtrees_evicted,
    ];
    let floats = [
        m.pool_utilization,
        m.modeled_step_s,
        m.allreduce_bytes_per_device,
        m.modeled_interconnect_s,
        m.swap_bytes,
        m.modeled_swap_s,
    ];
    let mut out: Vec<u8> = ints
        .iter()
        .flat_map(|v| (*v as u64).to_le_bytes())
        .chain(floats.iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    for d in &m.per_device {
        for v in [d.device, d.units, d.kv_tokens] {
            out.extend((v as u64).to_le_bytes());
        }
        for v in [d.utilization, d.page_occupancy] {
            out.extend(v.to_bits().to_le_bytes());
        }
    }
    out
}

/// What the scenario must move for the hashes to mean anything: run
/// totals of the counters, checked non-zero per scenario below.
#[derive(Debug)]
struct Totals {
    forked: usize,
    preempted: usize,
    resumed: usize,
    shared_attn_groups: usize,
    prefix_hits: usize,
    prefix_evicted: usize,
    cow_breaks: u64,
    faults: usize,
    recoveries: usize,
    retries: usize,
    degraded_steps: usize,
    requests_failed: usize,
}

/// Serves the scenario under `plan`; returns `[event log, registry
/// counters, step metrics]` hashes and the run totals.
fn run(plan: FaultPlan) -> ([u64; 3], Totals) {
    let decoder = BitDecoder::builder(GpuArch::rtx4090())
        .attention(ATTN)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build();
    let config =
        ServeConfig::new(PAGES, PAGE_TOKENS, 0, 8).with_devices(2, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder, config)
        .with_policy(FcfsPreempt::default())
        .with_faults(plan)
        .with_obs(ObsConfig::all());

    let mut submitted = 0;
    for (seed, prompt, gen, at) in SOLO {
        session
            .submit_at(at, Box::new(SynthSequence::new(ATTN, seed, prompt, gen)))
            .unwrap();
        submitted += 1;
    }
    let forked = |(gen_seed, prompt, gen, _): (u64, usize, usize, usize)| {
        Box::new(SynthSequence::forked(
            ATTN,
            FORK_PROMPT_SEED,
            gen_seed,
            prompt,
            gen,
        ))
    };
    let parent = session
        .submit_at(FORK_PARENT.3, forked(FORK_PARENT))
        .unwrap();
    session
        .submit_forked_at(FORK_CHILD.3, parent, forked(FORK_CHILD))
        .unwrap();
    submitted += 2;
    for (gen_seed, prompt, gen, at) in TENANTS {
        session
            .submit_at(
                at,
                Box::new(SynthSequence::forked(
                    ATTN,
                    TENANT_PROMPT_SEED,
                    gen_seed,
                    prompt,
                    gen,
                )),
            )
            .unwrap();
        submitted += 1;
    }

    let summary = session.run_to_completion();
    assert_eq!(
        summary.completed + summary.requests_failed,
        submitted,
        "every request completes or fails"
    );
    assert_eq!(session.event_log().dropped(), 0, "event ring overflowed");

    let registry: String = session
        .metrics_registry()
        .counters()
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect();
    let hashes = [
        fnv1a64(session.event_log().to_jsonl().bytes()),
        fnv1a64(registry.bytes()),
        fnv1a64(session.metrics().iter().flat_map(metric_bytes)),
    ];
    let totals = Totals {
        forked: summary.forks,
        preempted: summary.preemptions,
        resumed: summary.resumes,
        shared_attn_groups: summary.shared_attn_groups,
        prefix_hits: summary.prefix_cache_hits,
        prefix_evicted: summary.prefix_subtrees_evicted,
        cow_breaks: session.metrics_registry().counter("serve.cow_breaks"),
        faults: summary.faults_injected,
        recoveries: summary.recoveries,
        retries: summary.retries,
        degraded_steps: summary.degraded_steps,
        requests_failed: summary.requests_failed,
    };
    (hashes, totals)
}

/// The fault plan: a blob corrupted at the first swap-in, a link that
/// fails twice, six pages seized for four steps, and device 1 lost with
/// three requests mid-decode. The seizure takes the free page the fork
/// parent's copy-on-write break needs at its block flush, so that append
/// fails and the request is failed — the one path that moves
/// `requests_failed`.
fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .corrupt_swap(0, 0x0001_0000_0000_0123)
        .transient_link(4, 2)
        .pool_exhaustion(6, 6, Some(4))
        .device_loss(14, 1)
}

/// `[event log, registry counters, step metrics]`, recorded on the commit
/// before `ServeSession::step()` was split into phases.
const GOLDEN_HEALTHY: [u64; 3] = [0x07D2D8BE3E01117E, 0x12C216A5B84046A7, 0x464CF6C1ED136793];
const GOLDEN_FAULTED: [u64; 3] = [0x2EACDF10BF9D9B7A, 0x94B01E024493F240, 0xB11A3DD3218DE387];

#[test]
fn events_registry_and_step_metrics_match_recorded_constants() {
    let (healthy, h) = run(FaultPlan::new());
    assert!(
        h.forked > 0
            && h.preempted > 0
            && h.resumed > 0
            && h.shared_attn_groups > 0
            && h.prefix_hits > 0
            && h.prefix_evicted > 0
            && h.cow_breaks > 0,
        "the healthy scenario left a counter at zero: {h:?}"
    );
    assert_eq!(
        (h.faults, h.recoveries, h.retries, h.degraded_steps),
        (0, 0, 0, 0)
    );
    assert_eq!(h.requests_failed, 0);
    let (faulted, f) = run(fault_plan());
    assert!(
        f.faults == 4
            && f.recoveries > 0
            && f.retries == 2
            && f.degraded_steps > 0
            && f.requests_failed == 1,
        "the fault plan left a recovery path untaken: {f:?}"
    );
    let show = |name: &str, got: [u64; 3]| {
        format!(
            "const {name}: [u64; 3] = [{:#018X}, {:#018X}, {:#018X}];",
            got[0], got[1], got[2]
        )
    };
    assert!(
        healthy == GOLDEN_HEALTHY && faulted == GOLDEN_FAULTED,
        "the step ledger drifted from the recorded constants; observed:\n{}\n{}\nhealthy {h:?}\nfaulted {f:?}",
        show("GOLDEN_HEALTHY", healthy),
        show("GOLDEN_FAULTED", faulted),
    );
}
