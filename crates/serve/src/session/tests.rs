use super::counters::STEP_COUNTERS;
use super::*;
use crate::model::{replay_contiguous, StepKv, SynthSequence};
use crate::scheduler::{FcfsPreempt, ShortestRemainingFirst};
use bd_core::{AttentionConfig, QueryHeads};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{DeviceId, QuantScheme, StoreError, TokenMatrix};
use bd_obs::ClockDomain;

fn decoder(attn: AttentionConfig) -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build()
}

#[test]
fn batched_streams_match_contiguous_replay_bitwise() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let dec = decoder(attn);
    let mut session = ServeSession::new(dec.clone(), ServeConfig::new(512, 32, 2, 8));
    let ids: Vec<RequestId> = (0..4)
        .map(|i| {
            session
                .submit(Box::new(SynthSequence::new(
                    attn,
                    i,
                    100 + 40 * i as usize,
                    4,
                )))
                .unwrap()
        })
        .collect();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 4);
    for (i, id) in ids.iter().enumerate() {
        let want = replay_contiguous(
            &dec,
            &mut SynthSequence::new(attn, i as u64, 100 + 40 * i, 4),
        );
        assert_eq!(session.stream(*id).unwrap(), want, "request {i}");
        assert!(session.is_finished(*id));
    }
    // All pages recycled after completion.
    assert_eq!(session.store().free_pages(), 512);
}

#[test]
fn sharded_session_streams_match_single_device_bitwise() {
    let attn = AttentionConfig::gqa(8, 4, 16);
    let streams_at = |devices: usize, part: Partitioning| -> Vec<Vec<u32>> {
        let config = ServeConfig::new(128, 32, 1, 4).with_devices(devices, part);
        let mut session = ServeSession::new(decoder(attn), config);
        let ids: Vec<_> = (0..3)
            .map(|i| {
                session
                    .submit(Box::new(SynthSequence::new(
                        attn,
                        i,
                        80 + 30 * i as usize,
                        3,
                    )))
                    .unwrap()
            })
            .collect();
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.devices, devices.min(attn.heads_kv));
        ids.iter()
            .map(|id| session.stream(*id).unwrap().to_vec())
            .collect()
    };
    let single = streams_at(1, Partitioning::HeadContiguous);
    for devices in [2usize, 3, 4] {
        for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
            assert_eq!(
                single,
                streams_at(devices, part),
                "devices={devices} {part}"
            );
        }
    }
}

#[test]
fn sharded_metrics_report_per_device_breakdown() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let config = ServeConfig::new(64, 32, 0, 4).with_devices(2, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder(attn), config);
    session
        .submit(Box::new(SynthSequence::new(attn, 7, 50, 2)))
        .unwrap();
    let m = session.step().unwrap();
    assert_eq!(m.devices, 2);
    assert_eq!(m.per_device.len(), 2);
    // One head per device: perfectly balanced.
    for d in &m.per_device {
        assert_eq!(d.units, 1);
        assert_eq!(d.kv_tokens, 50);
        assert_eq!(d.utilization, 1.0);
        assert!(d.page_occupancy > 0.0);
    }
    assert_eq!(m.mean_device_utilization(), 1.0);
    // The all-reduce is priced: 2 devices move the full partial
    // payload once around the ring.
    // batch 1 × h_q 4 × (d 16 + m,l 2) × 4 bytes.
    let payload = (4 * (16 + 2) * 4) as f64;
    assert_eq!(m.allreduce_bytes_per_device, payload);
    assert!(m.modeled_interconnect_s > 0.0);

    // Single device: no communication.
    let mut solo = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 4));
    solo.submit(Box::new(SynthSequence::new(attn, 7, 50, 2)))
        .unwrap();
    let ms = solo.step().unwrap();
    assert_eq!(ms.allreduce_bytes_per_device, 0.0);
    assert_eq!(ms.modeled_interconnect_s, 0.0);
}

#[test]
fn uneven_head_split_shows_in_device_utilization() {
    // 3 KV heads over 2 devices (contiguous): device 0 takes 2 heads,
    // device 1 takes 1 — its utilization is half the critical path.
    let attn = AttentionConfig::gqa(3, 3, 16);
    let config = ServeConfig::new(64, 32, 0, 4).with_devices(2, Partitioning::HeadContiguous);
    let mut session = ServeSession::new(decoder(attn), config);
    session
        .submit(Box::new(SynthSequence::new(attn, 1, 40, 1)))
        .unwrap();
    let m = session.step().unwrap();
    assert_eq!(m.per_device[0].units, 2);
    assert_eq!(m.per_device[1].units, 1);
    assert_eq!(m.per_device[0].utilization, 1.0);
    assert_eq!(m.per_device[1].utilization, 0.5);
}

#[test]
fn weighted_placement_balances_the_mixed_fleet_and_stays_bitwise() {
    // The shipped 2×H100 + 2×A100 fleet, 16 KV heads: apportioned by
    // modeled decode throughput vs dealt uniformly, on the same fabric.
    let attn = AttentionConfig::gqa(16, 16, 16);
    let topo = bd_gpu_sim::builtin_topology("mixed_h100_a100").unwrap();
    let weights = topo.device_weights();
    let run = |modulo: bool| {
        let mut config = ServeConfig::new(32, 32, 1, 4).with_topology(topo.clone());
        if modulo {
            config = config.with_devices(4, Partitioning::HeadModulo);
        }
        let mut session = ServeSession::new(decoder(attn), config);
        let ids: Vec<RequestId> = (0..3)
            .map(|i| {
                let model = SynthSequence::new(attn, i, 140 + 20 * i as usize, 3);
                session.submit(Box::new(model)).unwrap()
            })
            .collect();
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, 3);
        let heads: Vec<usize> = (0..session.devices())
            .map(|d| session.store().device_stats(DeviceId(d as u32)).heads)
            .collect();
        // Utilization is modeled, not measured: every device's KV tokens
        // over its throughput weight, against the slowest-finishing
        // device — so it repeats exactly on any host.
        for m in session.metrics() {
            let load = |d: usize| m.per_device[d].kv_tokens as f64 / weights[d];
            let critical = (0..4).map(load).fold(0.0, f64::max);
            for (d, dev) in m.per_device.iter().enumerate() {
                assert_eq!(
                    dev.utilization,
                    load(d) / critical,
                    "step {} dev {d}",
                    m.step
                );
            }
        }
        let streams: Vec<Vec<u32>> = ids
            .iter()
            .map(|id| session.stream(*id).unwrap().to_vec())
            .collect();
        let first: Vec<f64> = session.metrics()[0]
            .per_device
            .iter()
            .map(|d| d.utilization)
            .collect();
        (heads, streams, summary.mean_device_utilization, first)
    };
    let (w_heads, w_streams, w_util, w) = run(false);
    let (m_heads, m_streams, m_util, m) = run(true);
    assert_eq!(w_heads, vec![5, 5, 3, 3]);
    assert_eq!(m_heads, vec![4, 4, 4, 4]);
    // Placement decides where bytes live, never what they are.
    assert_eq!(w_streams, m_streams);
    // Uniform sharding makes the A100s the stragglers and idles the H100s
    // for ~38 % of every step; weighting moves the critical path onto the
    // H100s and leaves the A100s ~4 % short of it.
    assert_eq!((w[0], w[1], m[2], m[3]), (1.0, 1.0, 1.0, 1.0));
    assert!(
        m[0] < w[2] && w[2] < 1.0,
        "modulo {} weighted {}",
        m[0],
        w[2]
    );
    assert!((w_util - 0.981).abs() < 1e-3 && (m_util - 0.812).abs() < 1e-3);
}

#[test]
fn admission_respects_pool_and_batch_limits() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    // Pool fits exactly two resident requests (each needs 2 pages).
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 64, 0, 8));
    for i in 0..5 {
        session
            .submit(Box::new(SynthSequence::new(attn, i, 100, 3)))
            .unwrap();
    }
    let m = session.step().unwrap();
    assert_eq!(m.batch, 2);
    assert_eq!(m.admitted, 2);
    assert_eq!(session.pending(), 3);
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 5);
    assert!(session.metrics().iter().all(|m| m.batch <= 2));

    // max_batch caps admission even with free pages.
    let mut capped = ServeSession::new(decoder(attn), ServeConfig::new(64, 64, 0, 3));
    for i in 0..5 {
        capped
            .submit(Box::new(SynthSequence::new(attn, i, 10, 2)))
            .unwrap();
    }
    assert_eq!(capped.step().unwrap().batch, 3);
}

#[test]
fn trace_arrivals_join_mid_run() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 8));
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 40, 4)))
        .unwrap();
    // Arrives at step 2 — must not decode earlier.
    let b = session
        .submit_at(2, Box::new(SynthSequence::new(attn, 1, 40, 3)))
        .unwrap();
    assert_eq!(session.future_arrivals(), 1);
    let m0 = session.step().unwrap();
    assert_eq!((m0.batch, m0.admitted), (1, 1));
    let m1 = session.step().unwrap();
    assert_eq!((m1.batch, m1.admitted), (1, 0));
    let m2 = session.step().unwrap();
    assert_eq!((m2.batch, m2.admitted), (2, 1), "arrival joins at step 2");
    assert_eq!(session.future_arrivals(), 0);
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 2);
    // Streams still match the per-sequence contiguous replay.
    for (id, seed, prompt, gen) in [(a, 0u64, 40usize, 4usize), (b, 1, 40, 3)] {
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, seed, prompt, gen),
        );
        assert_eq!(session.stream(id).unwrap(), want);
    }
}

#[test]
fn idle_session_fast_forwards_to_next_arrival() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 8));
    session
        .submit_at(10, Box::new(SynthSequence::new(attn, 3, 20, 2)))
        .unwrap();
    // No work before step 10 — the session jumps there instead of
    // emitting empty steps.
    let m = session.step().unwrap();
    assert_eq!(m.step, 10);
    assert_eq!(m.batch, 1);
    assert!(session.step().is_some());
    assert!(session.step().is_none());
}

#[test]
fn arrivals_wait_for_pages_to_free_up() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    // One page of 64 tokens: only one 40+3-token request fits at a
    // time.
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(1, 64, 0, 8));
    session
        .submit(Box::new(SynthSequence::new(attn, 0, 40, 3)))
        .unwrap();
    session
        .submit_at(1, Box::new(SynthSequence::new(attn, 1, 40, 2)))
        .unwrap();
    let m0 = session.step().unwrap();
    assert_eq!(m0.batch, 1);
    // Step 1: the arrival is due but the pool is full — it queues.
    let m1 = session.step().unwrap();
    assert_eq!(m1.admitted, 0);
    assert_eq!(session.pending(), 1);
    let summary = session.run_to_completion();
    // Both requests finish in the remaining steps: the first completes,
    // frees its page, and the queued arrival is finally admitted.
    assert_eq!(summary.completed, 2);
    assert_eq!(session.pending(), 0);
}

/// The head-of-line scenario: a big request owns the whole pool when a
/// small one arrives. Returns each policy's session plus the two ids.
fn oversubscribed_session(
    policy: impl crate::scheduler::SchedulerPolicy + 'static,
) -> (ServeSession, RequestId, RequestId) {
    let attn = AttentionConfig::gqa(2, 1, 16);
    // 4 pages × 32 tokens: request A (64 + 40 tokens) fills the pool.
    let mut session =
        ServeSession::new(decoder(attn), ServeConfig::new(4, 32, 0, 8)).with_policy(policy);
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 64, 40)))
        .unwrap();
    // B arrives at step 5: 16 + 3 tokens, a single page.
    let b = session
        .submit_at(5, Box::new(SynthSequence::new(attn, 1, 16, 3)))
        .unwrap();
    session.run_to_completion();
    (session, a, b)
}

#[test]
fn preemption_unblocks_late_arrival_and_stays_bitwise() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let (fcfs, _, fcfs_b) = oversubscribed_session(super::Fcfs);
    let (pre, pre_a, pre_b) = oversubscribed_session(FcfsPreempt::default());

    // Acceptance: under page pressure FcfsPreempt completes the small
    // late request in strictly fewer steps than Fcfs.
    let fcfs_done = fcfs.completion_step(fcfs_b).unwrap();
    let pre_done = pre.completion_step(pre_b).unwrap();
    assert!(
        pre_done < fcfs_done,
        "preemption did not help: {pre_done} vs {fcfs_done}"
    );
    // B decodes immediately on arrival (steps 5..7), not after A.
    assert_eq!(pre_done, 7);

    // The preemption really happened and was priced.
    let s = |sess: &ServeSession| {
        let run = sess.metrics();
        (
            run.iter().map(|m| m.preempted).sum::<usize>(),
            run.iter().map(|m| m.resumed).sum::<usize>(),
            run.iter().map(|m| m.swap_bytes).sum::<f64>(),
            run.iter().map(|m| m.modeled_swap_s).sum::<f64>(),
        )
    };
    assert_eq!(s(&fcfs), (0, 0, 0.0, 0.0));
    let (preempted, resumed, bytes, swap_s) = s(&pre);
    assert_eq!((preempted, resumed), (1, 1));
    assert!(bytes > 0.0, "swap moved bytes");
    assert!(swap_s > 0.0, "swap was priced by the host link");

    // Every stream — preempted or not — is bitwise identical to the
    // uninterrupted contiguous replay, under both policies.
    for (sess, a, b) in [(&fcfs, 0, fcfs_b), (&pre, pre_a, pre_b)] {
        let want_a = replay_contiguous(&decoder(attn), &mut SynthSequence::new(attn, 0, 64, 40));
        let want_b = replay_contiguous(&decoder(attn), &mut SynthSequence::new(attn, 1, 16, 3));
        assert_eq!(sess.stream(a).unwrap(), want_a, "big stream diverged");
        assert_eq!(sess.stream(b).unwrap(), want_b, "small stream diverged");
    }
    // All pages recycled in both sessions.
    assert_eq!(pre.store().free_pages(), 4);
}

#[test]
fn shortest_remaining_first_overtakes_without_swapping() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    // Pool fits one request at a time; both are pending from step 0.
    let build = |policy_is_srf: bool| {
        let session = ServeSession::new(decoder(attn), ServeConfig::new(4, 32, 0, 8));
        let mut session = if policy_is_srf {
            session.with_policy(ShortestRemainingFirst)
        } else {
            session
        };
        let long = session
            .submit(Box::new(SynthSequence::new(attn, 0, 64, 30)))
            .unwrap();
        let short = session
            .submit(Box::new(SynthSequence::new(attn, 1, 64, 4)))
            .unwrap();
        session.run_to_completion();
        (session, long, short)
    };
    let (fcfs, _, fcfs_short) = build(false);
    let (srf, srf_long, srf_short) = build(true);
    // SRF serves the short request first even though it was submitted
    // second…
    assert!(srf.completion_step(srf_short).unwrap() < fcfs.completion_step(fcfs_short).unwrap());
    assert!(srf.completion_step(srf_short).unwrap() < srf.completion_step(srf_long).unwrap());
    // …without any swap traffic.
    assert!(srf.metrics().iter().all(|m| m.preempted == 0));
    // Streams are unaffected by the reordering.
    for (id, seed, gen) in [(srf_long, 0u64, 30usize), (srf_short, 1, 4)] {
        let want = replay_contiguous(&decoder(attn), &mut SynthSequence::new(attn, seed, 64, gen));
        assert_eq!(srf.stream(id).unwrap(), want);
    }
}

#[test]
fn preempted_victims_resume_after_blocker_drains() {
    // Two sequences resident; a fresh arrival preempts the youngest
    // (and only the youngest); the victim swaps back in later and its
    // stream is intact.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    // Two 2-page residents fill the 4-page pool.
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 40, 20)))
        .unwrap();
    let b = session
        .submit(Box::new(SynthSequence::new(attn, 1, 40, 20)))
        .unwrap();
    // C arrives at step 3 needing 2 pages: preempts B (youngest), not A.
    let c = session
        .submit_at(3, Box::new(SynthSequence::new(attn, 2, 40, 4)))
        .unwrap();
    session.run_to_completion();
    let m3 = session.metrics().iter().find(|m| m.step == 3).unwrap();
    assert_eq!(m3.preempted, 1);
    assert_eq!(m3.admitted, 1);
    assert!(session.completion_step(c).unwrap() < session.completion_step(b).unwrap());
    assert!(session.completion_step(a).unwrap() < session.completion_step(b).unwrap());
    for (id, seed, gen) in [(a, 0u64, 20usize), (b, 1, 20), (c, 2, 4)] {
        let want = replay_contiguous(&decoder(attn), &mut SynthSequence::new(attn, seed, 40, gen));
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
}

#[test]
fn futile_preemptions_are_not_attempted() {
    // A candidate that cannot fit even after preempting every eligible
    // victim must not swap anyone out: swapping A out just to swap it
    // back in the same step would pay two transfers for nothing.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(5, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 40, 20)))
        .unwrap(); // 2 pages
    let x = session
        .submit_at(3, Box::new(SynthSequence::new(attn, 1, 16, 2)))
        .unwrap(); // 1 page, fits free pool
    let f = session
        .submit_at(3, Box::new(SynthSequence::new(attn, 2, 100, 56)))
        .unwrap(); // 5 pages: needs the whole pool
    session.run_to_completion();
    // Step 3: X (same-step admit) is spared, so the most F could free
    // is A's 2 pages — 5 > free(2) + preemptible(2), futile. Without
    // the guard this step would swap A out and straight back in,
    // paying two transfers for nothing.
    let m3 = session.metrics().iter().find(|m| m.step == 3).unwrap();
    assert_eq!((m3.preempted, m3.resumed), (0, 0), "futile swap at step 3");
    // From step 4 X is preemptible too; evicting both residents is
    // enough, so F admits through two useful preemptions.
    let m4 = session.metrics().iter().find(|m| m.step == 4).unwrap();
    assert_eq!(m4.preempted, 2);
    let total: usize = session.metrics().iter().map(|m| m.preempted).sum();
    assert_eq!(total, 2);
    for (id, seed, prompt, gen) in [(a, 0u64, 40usize, 20usize), (x, 1, 16, 2), (f, 2, 100, 56)] {
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, seed, prompt, gen),
        );
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
}

#[test]
fn blocked_swapped_head_does_not_stall_backfill() {
    // A swapped-out sequence parked at the queue head must not
    // re-create head-of-line blocking under FcfsPreempt: later
    // requests that fit the leftover pages admit right past it.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 64, 40)))
        .unwrap(); // 4 pages: the whole pool
    let b = session
        .submit_at(2, Box::new(SynthSequence::new(attn, 1, 64, 30)))
        .unwrap(); // 3 pages: preempts A, which then blocks at the head
    let c = session
        .submit_at(3, Box::new(SynthSequence::new(attn, 2, 16, 2)))
        .unwrap(); // 1 page: fits the leftover page while A is parked
    session.run_to_completion();
    let m3 = session.metrics().iter().find(|m| m.step == 3).unwrap();
    assert_eq!(
        (m3.admitted, m3.batch),
        (1, 2),
        "C admitted past the blocked swapped head"
    );
    assert_eq!(session.completion_step(c), Some(4));
    for (id, seed, prompt, gen) in [(a, 0u64, 64usize, 40usize), (b, 1, 64, 30), (c, 2, 16, 2)] {
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, seed, prompt, gen),
        );
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
}

#[test]
fn aging_bounds_swapped_sequence_starvation_under_sustained_load() {
    // A parked swapped-out sequence must not starve behind an endless
    // stream of fresh arrivals that backfill past it: after its
    // patience runs out, admissions pause and it swaps back in.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 32, 0, 8))
        .with_policy(FcfsPreempt::with_patience(4));
    // A needs the whole 4-page pool.
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 100, 26)))
        .unwrap();
    // B preempts A at step 2; A parks, needing 4 pages.
    session
        .submit_at(2, Box::new(SynthSequence::new(attn, 1, 40, 6)))
        .unwrap(); // 2 pages
                   // Fresh 2-page requests arrive every other step through step 29 —
                   // without aging, each would backfill (or preempt its predecessor)
                   // past parked A for the whole stretch.
    let mut small = Vec::new();
    for (i, at) in (3..30).step_by(2).enumerate() {
        small.push(
            session
                .submit_at(at, Box::new(SynthSequence::new(attn, 2 + i as u64, 40, 4)))
                .unwrap(),
        );
    }
    session.run_to_completion();
    // A resumes within patience + drain of its preemption, not after
    // the arrival stream ends at step 29.
    let first_resume = session
        .metrics()
        .iter()
        .find(|m| m.resumed > 0)
        .map(|m| m.step)
        .expect("A resumed");
    assert!(
        first_resume < 20,
        "aging failed: first resume at step {first_resume}"
    );
    // Every stream — A's interrupted one and all the smalls — still
    // equals the uninterrupted contiguous replay.
    let want_a = replay_contiguous(&decoder(attn), &mut SynthSequence::new(attn, 0, 100, 26));
    assert_eq!(session.stream(a).unwrap(), want_a);
    for (i, id) in small.iter().enumerate() {
        assert!(session.is_finished(*id));
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, 2 + i as u64, 40, 4),
        );
        assert_eq!(session.stream(*id).unwrap(), want, "small {i}");
    }
}

#[test]
fn aging_survives_victim_churn() {
    // Every new preemption parks a fresh victim at the queue front,
    // and that newest victim blocks first each step. The aging
    // tracker must keep following the oldest parked sequence through
    // that churn — if each newcomer stole the tracker, the patience
    // bound would never fire and the first victim would starve for
    // the whole load duration.
    let attn = AttentionConfig::gqa(2, 1, 16);
    // 8-page pool; every request needs 4 pages.
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(8, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 100, 26)))
        .unwrap();
    let b = session
        .submit(Box::new(SynthSequence::new(attn, 1, 100, 26)))
        .unwrap();
    let mut churn = Vec::new();
    for at in 1..30usize {
        churn.push(
            session
                .submit_at(
                    at,
                    Box::new(SynthSequence::new(attn, 10 + at as u64, 100, 4)),
                )
                .unwrap(),
        );
    }
    session.run_to_completion();
    // B (preempted at step 1) must complete within a few aging/drain
    // cycles, not after the entire churn stream drains.
    let b_done = session.completion_step(b).unwrap();
    assert!(b_done < 150, "first victim starved until step {b_done}");
    for (id, seed, gen) in churn
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, 11 + i as u64, 4usize))
        .chain([(a, 0u64, 26usize), (b, 1, 26)])
    {
        assert!(session.is_finished(id));
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, seed, 100, gen),
        );
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
}

#[test]
fn aging_counts_blocked_steps_across_batch_full_gaps() {
    // With the batch cap pinned at 3, most steps never run an
    // admission pass at all, so the parked sequence is consulted only
    // in bursts when a slot opens. The patience bound must fire from
    // those consultations — inferring a resume from the silent
    // batch-full stretches would reset the count every burst and
    // starve the parked sequence until the arrival stream ends.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let config = ServeConfig::new(12, 32, 0, 3);
    let mut session =
        ServeSession::new(decoder(attn), config).with_policy(FcfsPreempt::with_patience(3));
    // A long 5-page resident plus a 6-page victim.
    let a = session
        .submit(Box::new(SynthSequence::new(attn, 0, 100, 60)))
        .unwrap();
    let p = session
        .submit(Box::new(SynthSequence::new(attn, 1, 150, 42)))
        .unwrap();
    // 3-page arrivals: the first preempts P at step 2, the rest keep
    // the batch full in stretches.
    let mut small = Vec::new();
    for at in (2..40).step_by(4) {
        small.push(
            session
                .submit_at(
                    at,
                    Box::new(SynthSequence::new(attn, 10 + at as u64, 76, 8)),
                )
                .unwrap(),
        );
    }
    session.run_to_completion();
    let first_resume = session
        .metrics()
        .iter()
        .find(|m| m.resumed > 0)
        .map(|m| m.step)
        .expect("P resumed");
    assert!(
        first_resume < 30,
        "batch-cap gaps reset aging: first resume at step {first_resume}"
    );
    for (id, seed, prompt, gen) in small
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, 10 + (2 + 4 * i) as u64, 76usize, 8usize))
        .chain([(a, 0, 100, 60), (p, 1, 150, 42)])
    {
        assert!(session.is_finished(id));
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::new(attn, seed, prompt, gen),
        );
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
}

#[test]
fn same_step_arrivals_admit_in_submission_order() {
    // Stable FCFS among equal arrival steps, through all four `submit*`
    // fronts: whatever order the sorted insert saw them in, equal-step
    // arrivals admit in submission order, and entries already due at
    // submission (`arrival ≤ now`) queue ahead of every future arrival.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(8, 32, 0, 1));
    let model =
        |prompt_seed, gen_seed| Box::new(SynthSequence::forked(attn, prompt_seed, gen_seed, 16, 2));
    // Interleave inserts around the tied step so an unstable insert
    // would reorder them.
    let x = session.submit_at(4, model(0, 0)).unwrap();
    let early = session.submit_at(2, model(1, 1)).unwrap();
    let y = session.submit_at(4, model(2, 2)).unwrap();
    let forked = session.submit_forked_at(4, x, model(0, 5)).unwrap();
    let z = session.submit_at(4, model(3, 3)).unwrap();
    let now = session.submit(model(6, 6)).unwrap();
    let now_forked = session.submit_forked(now, model(6, 7)).unwrap();
    session.run_to_completion();
    // max_batch = 1 serializes admission, so completion order is
    // admission order.
    let done = |id| session.completion_step(id).unwrap();
    assert!(
        done(now) < done(now_forked),
        "immediate entries out of order"
    );
    assert!(done(now_forked) < done(early), "a future arrival overtook");
    assert!(done(early) < done(x));
    assert!(done(x) < done(y), "tied arrivals out of submission order");
    assert!(done(y) < done(forked), "tied fork out of submission order");
    assert!(
        done(forked) < done(z),
        "tied arrivals out of submission order"
    );
}

#[test]
fn occupancy_metrics_reflect_post_evict_state() {
    // A completing sequence is evicted within its final step; that
    // step's occupancy metrics must show the post-evict pool, not the
    // pre-evict snapshot.
    let attn = AttentionConfig::gqa(4, 2, 16);
    let config = ServeConfig::new(8, 32, 0, 4).with_devices(2, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder(attn), config);
    session
        .submit(Box::new(SynthSequence::new(attn, 5, 40, 2)))
        .unwrap();
    let m0 = session.step().unwrap();
    assert!(m0.pool_utilization > 0.0);
    let m1 = session.step().unwrap();
    assert_eq!(m1.completed, 1);
    assert_eq!(m1.pool_utilization, 0.0, "post-evict occupancy");
    for d in &m1.per_device {
        assert_eq!(d.page_occupancy, 0.0, "post-evict device occupancy");
    }
    assert_eq!(session.store().free_pages(), 2 * 8);
}

#[test]
fn oversized_requests_are_rejected_at_submit() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 64, 0, 8));
    let err = session
        .submit(Box::new(SynthSequence::new(attn, 0, 64 * 5, 1)))
        .unwrap_err();
    assert_eq!(
        err,
        AdmissionError::TooLarge {
            needed_pages: 6,
            total_pages: 4
        }
    );
}

#[test]
fn zero_generation_requests_are_rejected_at_submit() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 64, 0, 8));
    let err = session
        .submit(Box::new(SynthSequence::new(attn, 0, 10, 0)))
        .unwrap_err();
    assert_eq!(err, AdmissionError::EmptyGeneration);
    assert!(session.step().is_none());
}

#[test]
fn forked_requests_share_prompt_pages_and_stay_bitwise() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    // Prompt 128 = Nr: block-aligned, every prompt page shareable.
    let (prompt, gen) = (128usize, 6usize);
    let gen_seeds = [7u64, 100, 101, 102];
    let run = |forked: bool| {
        // Radix caching off: this test isolates *explicit* fork
        // sharing, so the unshared baseline must not dedup by content.
        let cfg = ServeConfig::new(64, 32, 0, 8).with_prefix_cache(false);
        let mut session = ServeSession::new(decoder(attn), cfg);
        let parent = session
            .submit(Box::new(SynthSequence::new(attn, 7, prompt, gen)))
            .unwrap();
        let mut ids = vec![parent];
        for &gs in &gen_seeds[1..] {
            let model = Box::new(SynthSequence::forked(attn, 7, gs, prompt, gen));
            ids.push(if forked {
                session.submit_forked(parent, model).unwrap()
            } else {
                session.submit(model).unwrap()
            });
        }
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, 4);
        (session, ids, summary)
    };
    let (shared, shared_ids, ssum) = run(true);
    let (unshared, unshared_ids, usum) = run(false);
    assert_eq!(ssum.forks, 3);
    assert_eq!(usum.forks, 0);
    let m0 = &shared.metrics()[0];
    assert_eq!((m0.admitted, m0.forked), (4, 3));
    assert_eq!(m0.shared_pages, prompt / 32, "all 4 prompt pages shared");
    assert_eq!(m0.logical_pages - m0.physical_pages, 3 * (prompt / 32));
    assert!(m0.shared_bytes_saved > 0);
    // The acceptance bar: strictly fewer physical pages at equal
    // output.
    assert!(
        ssum.peak_physical_pages < usum.peak_physical_pages,
        "sharing did not shrink the footprint: {} vs {}",
        ssum.peak_physical_pages,
        usum.peak_physical_pages
    );
    // Every stream — parent and every forked child — is bitwise
    // identical to its unshared twin and to the contiguous replay.
    for (i, (sid, uid)) in shared_ids.iter().zip(&unshared_ids).enumerate() {
        assert_eq!(shared.stream(*sid), unshared.stream(*uid), "request {i}");
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::forked(attn, 7, gen_seeds[i], prompt, gen),
        );
        assert_eq!(shared.stream(*sid).unwrap(), want, "request {i}");
    }
    // Everything drained and every refcount returned to zero.
    assert_eq!(shared.store().free_pages(), shared.store().total_pages());
}

#[test]
fn cascade_grouping_dedups_compute_and_stays_bitwise() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    // Prompt 128 = Nr = one packed block on 4 pages of 32 tokens.
    let (prompt, gen) = (128usize, 6usize);
    let gen_seeds = [7u64, 100, 101, 102];
    let run = |shared_attn: bool| {
        let cfg = ServeConfig::new(64, 32, 0, 8).with_shared_attn(shared_attn);
        let mut session = ServeSession::new(decoder(attn), cfg);
        let parent = session
            .submit(Box::new(SynthSequence::new(attn, 7, prompt, gen)))
            .unwrap();
        let mut ids = vec![parent];
        for &gs in &gen_seeds[1..] {
            let model = Box::new(SynthSequence::forked(attn, 7, gs, prompt, gen));
            ids.push(session.submit_forked(parent, model).unwrap());
        }
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, 4);
        (session, ids, summary)
    };
    let (on, on_ids, on_sum) = run(true);
    let (off, off_ids, off_sum) = run(false);

    // Grouping is a pure optimization: identical streams, and both
    // match the uninterrupted contiguous replay.
    for (i, (a, b)) in on_ids.iter().zip(&off_ids).enumerate() {
        assert_eq!(on.stream(*a), off.stream(*b), "request {i}");
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::forked(attn, 7, gen_seeds[i], prompt, gen),
        );
        assert_eq!(on.stream(*a).unwrap(), want, "request {i}");
    }

    // The off run never groups; the on run groups every step (no
    // lineage flushes past the shared block during 6 gen tokens):
    // one cascade unit per kv head, all four sequences sharing.
    assert_eq!(off_sum.shared_attn_groups, 0);
    assert_eq!(off_sum.prefix_pages_walked_saved, 0);
    let m0 = &on.metrics()[0];
    assert_eq!(m0.shared_attn_groups, attn.heads_kv);
    // Saved walks reconcile with the storage-sharing stats: each of
    // heads_kv units skips (sharers − 1) × shared prompt pages.
    assert_eq!(m0.shared_pages, prompt / 32);
    assert_eq!(
        m0.prefix_pages_walked_saved,
        attn.heads_kv * (gen_seeds.len() - 1) * m0.shared_pages
    );
    assert_eq!(
        on_sum.shared_attn_groups,
        attn.heads_kv * on_sum.steps,
        "the group persists across every decode step"
    );
    assert_eq!(
        on_sum.prefix_pages_walked_saved,
        m0.prefix_pages_walked_saved * on_sum.steps,
        "and skips the whole shared prefix for all but one sharer each time"
    );

    // The whole point: strictly less dequant work for the same tokens.
    assert!(
        on_sum.dequant.total() < off_sum.dequant.total(),
        "cascade grouping must dedup dequant traffic ({} vs {})",
        on_sum.dequant.total(),
        off_sum.dequant.total()
    );
}

#[test]
fn prefix_cache_dedups_identical_prompts_and_forms_cascade_groups() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    // Prompt 128 = Nr = one full page run (4 pages of 32 tokens).
    let (prompt, gen) = (128usize, 6usize);
    let gen_seeds = [7u64, 100, 101, 102];
    let run = |cache: bool| {
        let cfg = ServeConfig::new(64, 32, 0, 8).with_prefix_cache(cache);
        let mut session = ServeSession::new(decoder(attn), cfg);
        // Four *independent* submissions of the same prompt — no fork
        // lineage anywhere.
        let ids: Vec<RequestId> = gen_seeds
            .iter()
            .map(|&gs| {
                session
                    .submit(Box::new(SynthSequence::forked(attn, 7, gs, prompt, gen)))
                    .unwrap()
            })
            .collect();
        let summary = session.run_to_completion();
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.forks, 0, "no lineage anywhere");
        (session, ids, summary)
    };
    let (on, on_ids, on_sum) = run(true);
    let (off, off_ids, off_sum) = run(false);

    // The first tenant misses and registers; the other three adopt
    // its sealed prompt run zero-copy.
    assert_eq!(on_sum.prefix_cache_misses, 1);
    assert_eq!(on_sum.prefix_cache_hits, 3);
    assert_eq!(on_sum.prefix_pages_reused, 3 * (prompt / 32));
    assert!(on_sum.prefix_bytes_reused > 0);
    assert_eq!(off_sum.prefix_cache_hits + off_sum.prefix_cache_misses, 0);

    // Adopted pages read as shared exactly like forked ones...
    let m0 = &on.metrics()[0];
    assert_eq!(m0.shared_pages, prompt / 32);
    assert_eq!(m0.logical_pages - m0.physical_pages, 3 * (prompt / 32));
    // ...and feed the same cascade grouping an explicit fork would:
    // one multi-query unit per kv head, all four tenants sharing.
    assert_eq!(m0.shared_attn_groups, attn.heads_kv);
    assert!(on_sum.shared_attn_groups > 0);
    assert_eq!(
        off_sum.shared_attn_groups, 0,
        "nothing shared without the cache"
    );
    assert_eq!(off_sum.prefix_pages_walked_saved, 0);
    assert!(
        on_sum.peak_physical_pages < off_sum.peak_physical_pages,
        "content dedup did not shrink the footprint: {} vs {}",
        on_sum.peak_physical_pages,
        off_sum.peak_physical_pages
    );

    // The bitwise guarantee: every stream identical to its cache-off
    // twin and to the uninterrupted contiguous replay.
    for (i, (a, b)) in on_ids.iter().zip(&off_ids).enumerate() {
        assert_eq!(on.stream(*a), off.stream(*b), "request {i}");
        let want = replay_contiguous(
            &decoder(attn),
            &mut SynthSequence::forked(attn, 7, gen_seeds[i], prompt, gen),
        );
        assert_eq!(on.stream(*a).unwrap(), want, "request {i}");
    }
    // Drained: the cache may still pin the prompt run, but the
    // admission budget counts those pages free.
    assert_eq!(on.store().free_pages(), on.store().total_pages());
}

#[test]
fn prefix_cache_matches_explicit_fork_page_footprint_at_8_tenants() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let (prompt, gen) = (128usize, 6usize);
    let tenants = 8usize;
    let model = |i: usize| -> Box<SynthSequence> {
        if i == 0 {
            Box::new(SynthSequence::new(attn, 7, prompt, gen))
        } else {
            Box::new(SynthSequence::forked(attn, 7, 100 + i as u64, prompt, gen))
        }
    };
    // Explicit-fork baseline: one parent, seven forked children,
    // radix caching off.
    let cfg = ServeConfig::new(64, 32, 0, tenants).with_prefix_cache(false);
    let mut forked = ServeSession::new(decoder(attn), cfg);
    let parent = forked.submit(model(0)).unwrap();
    let mut fork_ids = vec![parent];
    for i in 1..tenants {
        fork_ids.push(forked.submit_forked(parent, model(i)).unwrap());
    }
    let fsum = forked.run_to_completion();
    assert_eq!(fsum.completed, tenants);
    assert_eq!(fsum.forks, tenants - 1);

    // Radix run: the same eight requests submitted independently.
    let mut radix = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, tenants));
    let radix_ids: Vec<RequestId> = (0..tenants)
        .map(|i| radix.submit(model(i)).unwrap())
        .collect();
    let rsum = radix.run_to_completion();
    assert_eq!(rsum.completed, tenants);
    assert_eq!(rsum.forks, 0);
    assert_eq!(rsum.prefix_cache_hits, tenants - 1);
    assert_eq!(rsum.prefix_pages_reused, (tenants - 1) * (prompt / 32));
    assert!(rsum.shared_attn_groups > 0);

    // The acceptance bar: content dedup lands within one page run of
    // the explicit-fork footprint (here it matches exactly, but the
    // contract only promises the run).
    assert!(
        rsum.peak_physical_pages <= fsum.peak_physical_pages + prompt / 32,
        "radix {} vs fork {}",
        rsum.peak_physical_pages,
        fsum.peak_physical_pages
    );
    for (a, b) in radix_ids.iter().zip(&fork_ids) {
        assert_eq!(radix.stream(*a), forked.stream(*b));
    }
}

#[test]
fn fork_falls_back_to_prefill_when_parent_is_gone() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 8));
    let parent = session
        .submit(Box::new(SynthSequence::new(attn, 3, 96, 2)))
        .unwrap();
    // The child arrives long after the parent finished: no live
    // sequence to fork — admission must prefill instead, bitwise.
    let child = session
        .submit_forked_at(
            10,
            parent,
            Box::new(SynthSequence::forked(attn, 3, 55, 96, 3)),
        )
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.forks, 0, "nothing to fork off");
    let want = replay_contiguous(
        &decoder(attn),
        &mut SynthSequence::forked(attn, 3, 55, 96, 3),
    );
    assert_eq!(session.stream(child).unwrap(), want);
    // A boundary quantized away also falls back: prompt 100 < Nr, but
    // the parent decodes past the flush boundary before the child
    // arrives (100 + 40 > 128), so the residual rows are gone.
    let mut s2 = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 8));
    let p2 = s2
        .submit(Box::new(SynthSequence::new(attn, 4, 100, 40)))
        .unwrap();
    let c2 = s2
        .submit_forked_at(35, p2, Box::new(SynthSequence::forked(attn, 4, 66, 100, 2)))
        .unwrap();
    let sum2 = s2.run_to_completion();
    assert_eq!(sum2.completed, 2);
    assert_eq!(sum2.forks, 0, "boundary out of reach");
    let want2 = replay_contiguous(
        &decoder(attn),
        &mut SynthSequence::forked(attn, 4, 66, 100, 2),
    );
    assert_eq!(s2.stream(c2).unwrap(), want2);
}

#[test]
fn unknown_fork_parents_are_rejected_at_submit() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(4, 64, 0, 8));
    let err = session
        .submit_forked(42, Box::new(SynthSequence::new(attn, 0, 10, 2)))
        .unwrap_err();
    assert_eq!(err, AdmissionError::UnknownParent(42));
}

#[test]
fn preempted_forked_child_resumes_into_reshared_pages() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    // 6 pages of 32 tokens. Parent: 64-prompt + 40 gen = 4 pages.
    // The child forks at 64 sharing both prompt pages, adding one
    // private page (5 physical, 1 free). The late fresh request needs
    // 2 pages → preempts the child (youngest), whose swap-out frees
    // only its private page (the prompt survives through the parent);
    // its blob later swaps back in re-sharing that resident prompt.
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(6, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    let parent = session
        .submit(Box::new(SynthSequence::new(attn, 9, 64, 40)))
        .unwrap();
    let child = session
        .submit_forked(parent, Box::new(SynthSequence::forked(attn, 9, 77, 64, 30)))
        .unwrap();
    let late = session
        .submit_at(4, Box::new(SynthSequence::new(attn, 5, 40, 4)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.forks, 1);
    assert_eq!(summary.preemptions, 1);
    assert_eq!(summary.resumes, 1);
    for (id, model) in [
        (parent, SynthSequence::new(attn, 9, 64, 40)),
        (child, SynthSequence::forked(attn, 9, 77, 64, 30)),
        (late, SynthSequence::new(attn, 5, 40, 4)),
    ] {
        let mut model = model;
        let want = replay_contiguous(&decoder(attn), &mut model);
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
    assert_eq!(session.store().free_pages(), 6, "refcounts drained");
}

#[test]
fn futility_guard_counts_pages_shared_only_among_victims() {
    // 5 pages of 32 tokens. Parent (64+2, 3 pages) forks two children
    // (64+30 each: 2 shared prompt pages + 1 private page apiece) and
    // finishes at step 2, leaving the prompt pages shared ONLY between
    // the two children (refcount 2) and 1 page free. A late request
    // needing 4 pages then arrives: per-victim exclusive pages sum to
    // just 2, but preempting BOTH children frees all 4 of their pages
    // (the second swap-out drops the shared pages' last references).
    // The futility guard must see that and let the preemptions happen
    // (regression: summing exclusively-held pages declared this futile
    // and the late request waited out the children's 30-token runs).
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(5, 32, 0, 8))
        .with_policy(FcfsPreempt::default());
    let parent = session
        .submit(Box::new(SynthSequence::new(attn, 1, 64, 2)))
        .unwrap();
    let kids: Vec<RequestId> = [30u64, 31]
        .iter()
        .map(|&gs| {
            session
                .submit_forked(parent, Box::new(SynthSequence::forked(attn, 1, gs, 64, 30)))
                .unwrap()
        })
        .collect();
    let late = session
        .submit_at(4, Box::new(SynthSequence::new(attn, 7, 100, 2)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 4);
    assert_eq!(summary.forks, 2);
    assert_eq!(
        summary.preemptions, 2,
        "guard declared a viable double preemption futile"
    );
    let late_done = session.completion_step(late).unwrap();
    for kid in &kids {
        assert!(
            late_done < session.completion_step(*kid).unwrap(),
            "late request waited out the children"
        );
    }
    for (id, model) in [
        (parent, SynthSequence::new(attn, 1, 64, 2)),
        (kids[0], SynthSequence::forked(attn, 1, 30, 64, 30)),
        (kids[1], SynthSequence::forked(attn, 1, 31, 64, 30)),
        (late, SynthSequence::new(attn, 7, 100, 2)),
    ] {
        let mut model = model;
        let want = replay_contiguous(&decoder(attn), &mut model);
        assert_eq!(session.stream(id).unwrap(), want, "request {id}");
    }
    assert_eq!(session.store().free_pages(), 5);
}

#[test]
fn metrics_pair_measured_and_modeled_costs() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(256, 64, 1, 8));
    session
        .submit(Box::new(SynthSequence::new(attn, 3, 200, 2)))
        .unwrap();
    let m = session.step().unwrap();
    assert_eq!(m.batch, 1);
    assert_eq!(m.kv_tokens, 200);
    assert!(m.kv_tokens_per_s > 0.0);
    assert!(m.modeled_step_s > 0.0);
    assert!(m.dequant.total() > 0, "fused path streams dequant work");
    assert!(m.pool_utilization > 0.0);
    let m2 = session.step().unwrap();
    assert_eq!(m2.kv_tokens, 201);
    assert_eq!(m2.completed, 1);
    assert!(session.step().is_none());
}

#[test]
fn device_loss_mid_run_recovers_all_streams_bitwise() {
    let attn = AttentionConfig::gqa(8, 4, 16);
    let dec = decoder(attn);
    // The same workload healthy, with device 1 dead before the first
    // decode step (the whole run executes on 3 survivors, nothing to
    // recover), and with the loss striking mid-run (recompute replays).
    let run = |plan: FaultPlan| {
        let config = ServeConfig::new(64, 8, 2, 8).with_devices(4, Partitioning::HeadModulo);
        let mut session = ServeSession::new(dec.clone(), config).with_faults(plan);
        let ids: Vec<RequestId> = (0..4)
            .map(|i| {
                session
                    .submit(Box::new(SynthSequence::new(
                        attn,
                        i,
                        20 + 8 * i as usize,
                        6,
                    )))
                    .unwrap()
            })
            .collect();
        let summary = session.run_to_completion();
        // The session did not abort: every request completed.
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.requests_failed, 0);
        // Streams are bitwise identical to uninterrupted contiguous
        // replays, and no pages leak.
        for (i, id) in ids.iter().enumerate() {
            let mut m = SynthSequence::new(attn, i as u64, 20 + 8 * i, 6);
            assert_eq!(
                session.stream(*id).unwrap(),
                replay_contiguous(&dec, &mut m).as_slice(),
                "request {i} diverged after device loss"
            );
        }
        assert_eq!(session.store().free_pages(), session.store().devices() * 64);
        let done: Vec<usize> = ids
            .iter()
            .map(|id| session.completion_step(*id).unwrap())
            .collect();
        (session, summary, done)
    };
    let (healthy, hsum, healthy_done) = run(FaultPlan::new());
    assert_eq!((healthy.devices(), hsum.faults_injected), (4, 0));
    assert_eq!((hsum.recoveries, hsum.degraded_steps), (0, 0));

    for (loss_step, recovers) in [(0, false), (2, true)] {
        let (faulted, summary, done) = run(FaultPlan::new().device_loss(loss_step, 1));
        // On 3 surviving devices, and the summary reports the fault.
        assert_eq!(faulted.devices(), 3, "loss at step {loss_step}");
        assert_eq!(faulted.lost_devices(), &[1]);
        assert_eq!(summary.faults_injected, 1);
        assert!(summary.degraded_steps >= 1);
        assert_eq!(
            summary.recoveries >= 1,
            recovers,
            "loss at step {loss_step}"
        );
        // Recovery replays cost steps, never save them; a loss before any
        // sequence is resident costs none.
        assert!(done.iter().zip(&healthy_done).all(|(f, h)| f >= h));
        assert_eq!(
            done != healthy_done,
            recovers,
            "{done:?} vs {healthy_done:?}"
        );
    }
}

#[test]
fn losing_every_device_still_serves_on_the_last_one() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let dec = decoder(attn);
    let config = ServeConfig::new(32, 8, 0, 4).with_devices(2, Partitioning::HeadModulo);
    let plan = FaultPlan::new().device_loss(1, 0).device_loss(3, 0);
    let mut session = ServeSession::new(dec.clone(), config).with_faults(plan);
    let id = session
        .submit(Box::new(SynthSequence::new(attn, 3, 30, 8)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 1);
    // The second loss lands on a 1-device session, which keeps its
    // only (fresh) device rather than dropping to zero.
    assert_eq!(session.devices(), 1);
    assert_eq!(summary.faults_injected, 2);
    let mut m = SynthSequence::new(attn, 3, 30, 8);
    assert_eq!(
        session.stream(id).unwrap(),
        replay_contiguous(&dec, &mut m).as_slice()
    );
}

#[test]
fn panel_slots_match_their_rows_across_a_device_loss() {
    // Windows cross several 16-token groups while the decode steps build
    // their panels; device 1 dies mid-run and every sequence is re-admitted
    // from its prompt into rebuilt stores. After every step, every window
    // of every active sequence holds one slot per whole group, and every
    // built slot is its group's transposed rows.
    let attn = AttentionConfig::gqa(8, 4, 16);
    let dec = decoder(attn);
    let config = ServeConfig::new(64, 8, 2, 8).with_devices(2, Partitioning::HeadModulo);
    let plan = FaultPlan::new().device_loss(20, 1);
    let mut session = ServeSession::new(dec.clone(), config).with_faults(plan);
    let ids: Vec<RequestId> = (0..3)
        .map(|i| {
            let model = SynthSequence::new(attn, i, 20 + 9 * i as usize, 40);
            session.submit(Box::new(model)).unwrap()
        })
        .collect();
    let mut built = 0;
    while session.step().is_some() {
        let store = session.store();
        for a in &session.active {
            for head in 0..attn.heads_kv {
                let device = store.device(store.placement().device_of(head));
                let local = store.placement().local_index(head);
                let (window, _) = device.residual_window(a.seq, local);
                assert!(window.panels_match_rows(), "step {}", session.step_index);
                built += (0..window.sealed_groups())
                    .filter(|&g| window.built_panel(g).is_some())
                    .count();
            }
        }
    }
    assert_eq!(session.lost_devices(), &[1]);
    assert!(built > 0, "the decode steps built panels");
    for (i, id) in ids.iter().enumerate() {
        let mut m = SynthSequence::new(attn, i as u64, 20 + 9 * i, 40);
        assert_eq!(
            session.stream(*id).unwrap(),
            replay_contiguous(&dec, &mut m).as_slice()
        );
    }
}

#[test]
fn permanent_page_seizure_drives_typed_backpressure() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(8, 32, 0, 8))
        .with_faults(FaultPlan::new().pool_exhaustion(0, 4, None));
    let first = session
        .submit(Box::new(SynthSequence::new(attn, 1, 40, 4)))
        .unwrap();
    // The seizure fires at the top of the first step.
    session.step();
    // 144 tokens → 5 pages: within the 8-page pool, but over the 4
    // pages that can ever free up under the permanent seizure.
    let err = session
        .submit(Box::new(SynthSequence::new(attn, 2, 140, 4)))
        .unwrap_err();
    assert_eq!(
        err,
        AdmissionError::Backpressure {
            needed_pages: 5,
            available_pages: 4,
        }
    );
    assert_eq!(err.shortfall_pages(), 1);
    // A request that fits the remainder is still admissible.
    let second = session
        .submit(Box::new(SynthSequence::new(attn, 3, 40, 4)))
        .unwrap();
    session.run_to_completion();
    // The seizure landed in the manually-stepped sample, before the
    // summary window opened.
    assert_eq!(session.metrics()[0].faults_injected, 1);
    assert!(session.is_finished(first) && session.is_finished(second));
    // Run over: hogs released, pool whole again.
    assert_eq!(session.store().free_pages(), 8);
}

#[test]
fn timed_page_seizure_delays_admission_without_losing_work() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let dec = decoder(attn);
    let mut session = ServeSession::new(dec.clone(), ServeConfig::new(4, 32, 0, 8))
        .with_faults(FaultPlan::new().pool_exhaustion(0, 4, Some(5)));
    let id = session
        .submit(Box::new(SynthSequence::new(attn, 9, 40, 4)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.faults_injected, 1);
    let mut m = SynthSequence::new(attn, 9, 40, 4);
    assert_eq!(
        session.stream(id).unwrap(),
        replay_contiguous(&dec, &mut m).as_slice()
    );
    // Admission waited out the 5-step hold.
    assert!(session.completion_step(id).unwrap() >= 5);
}

#[test]
fn corrupt_swap_blob_recovers_by_recompute_bitwise() {
    let attn = AttentionConfig::gqa(2, 1, 16);
    let dec = decoder(attn);
    // Tight pool + preempting policy: the late arrival forces a swap
    // out, and the armed corruption bit-flips the victim's blob so
    // its swap-in must fail the checksum and recompute instead.
    let mut session = ServeSession::new(dec.clone(), ServeConfig::new(4, 32, 0, 8))
        .with_policy(FcfsPreempt::default())
        .with_faults(FaultPlan::new().corrupt_swap(0, 0x00AB_CDEF));
    let early = session
        .submit(Box::new(SynthSequence::new(attn, 1, 70, 10)))
        .unwrap();
    let late = session
        .submit_at(3, Box::new(SynthSequence::new(attn, 2, 40, 3)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 2);
    assert!(summary.preemptions >= 1, "scenario must preempt");
    assert_eq!(summary.faults_injected, 1);
    assert!(summary.recoveries >= 1, "checksum must reject the blob");
    for (id, seed, prompt, gen) in [(early, 1, 70, 10), (late, 2, 40, 3)] {
        let mut m = SynthSequence::new(attn, seed, prompt, gen);
        assert_eq!(
            session.stream(id).unwrap(),
            replay_contiguous(&dec, &mut m).as_slice()
        );
    }
    assert_eq!(session.store().free_pages(), 4, "pages leaked");
}

#[test]
fn transient_link_retries_price_latency_not_tokens() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let dec = decoder(attn);
    let submit = |session: &mut ServeSession| {
        session
            .submit(Box::new(SynthSequence::new(attn, 5, 30, 5)))
            .unwrap()
    };
    let config = || ServeConfig::new(64, 32, 0, 4).with_devices(2, Partitioning::HeadModulo);
    let mut clean = ServeSession::new(dec.clone(), config());
    let clean_id = submit(&mut clean);
    clean.run_to_completion();
    let mut faulty =
        ServeSession::new(dec, config()).with_faults(FaultPlan::new().transient_link(1, 3));
    let faulty_id = submit(&mut faulty);
    let summary = faulty.run_to_completion();
    assert_eq!(summary.retries, 3);
    assert_eq!(summary.faults_injected, 1);
    // Retries slow the modeled clock at the faulted step…
    assert!(faulty.metrics()[1].modeled_interconnect_s > clean.metrics()[1].modeled_interconnect_s);
    // …and change no tokens.
    assert_eq!(clean.stream(clean_id), faulty.stream(faulty_id));
}

#[test]
fn misrouted_batches_fail_typed_without_poisoning_the_session() {
    // Direct API check of the failure surface: a request the session
    // cannot serve is reported via `failure`, not a panic.
    let attn = AttentionConfig::gqa(2, 1, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(8, 32, 0, 8));
    let id = session
        .submit(Box::new(SynthSequence::new(attn, 4, 20, 3)))
        .unwrap();
    session.run_to_completion();
    assert!(session.is_finished(id));
    assert!(!session.is_failed(id));
    assert_eq!(session.failure(id), None);
}

/// A [`SynthSequence`] whose head-2 K prompt is one row short.
struct ShortHead(SynthSequence);

impl SequenceModel for ShortHead {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        let (mut k, v) = self.0.prompt();
        let full = &k[2];
        k[2] = TokenMatrix::from_fn(full.tokens() - 1, full.dim(), |t, c| full.row(t)[c]);
        (k, v)
    }
    fn prompt_tokens(&self) -> usize {
        self.0.prompt_tokens()
    }
    fn gen_tokens(&self) -> usize {
        self.0.gen_tokens()
    }
    fn query(&mut self, step: usize) -> QueryHeads {
        self.0.query(step)
    }
    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        self.0.advance(step, output)
    }
}

#[test]
fn a_short_head_fails_only_its_request() {
    // The prompt is checked before the launch packs it: head 2's missing
    // row is a typed store error for that request alone, at any width.
    let attn = AttentionConfig::gqa(8, 4, 16);
    let len = 300;
    let streams = |with_bad: bool| -> Vec<Vec<u32>> {
        let mut session = ServeSession::new(decoder(attn), ServeConfig::new(256, 32, 2, 4));
        let a = session
            .submit(Box::new(SynthSequence::new(attn, 1, len, 5)))
            .unwrap();
        if with_bad {
            let bad = session
                .submit(Box::new(ShortHead(SynthSequence::new(attn, 2, len, 5))))
                .unwrap();
            session.run_to_completion();
            assert!(session.is_failed(bad));
            assert_eq!(
                session.failure(bad),
                Some(&ServeError::Store(StoreError::PromptLength {
                    head: 2,
                    got: len - 1,
                    expected: len,
                }))
            );
            assert_eq!(session.stream(bad).map_or(0, <[u32]>::len), 0);
        }
        let b = session
            .submit(Box::new(SynthSequence::new(attn, 3, len, 5)))
            .unwrap();
        session.run_to_completion();
        assert_eq!(session.store().free_pages(), 256, "nothing leaked");
        [a, b]
            .iter()
            .map(|&id| session.stream(id).unwrap().to_vec())
            .collect()
    };
    assert_eq!(streams(true), streams(false));
}

/// A [`SynthSequence`] whose model, at generation step `at`, panics in
/// `query` or `advance`, or (`"shape"`) returns a query one head short.
struct PanicsAt {
    inner: SynthSequence,
    call: &'static str,
    at: usize,
}

impl SequenceModel for PanicsAt {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        self.inner.prompt()
    }
    fn prompt_tokens(&self) -> usize {
        self.inner.prompt_tokens()
    }
    fn gen_tokens(&self) -> usize {
        self.inner.gen_tokens()
    }
    fn query(&mut self, step: usize) -> QueryHeads {
        assert!(self.call != "query" || step != self.at, "query bug");
        let mut q = self.inner.query(step);
        if self.call == "shape" && step == self.at {
            q.pop();
        }
        q
    }
    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        assert!(self.call != "advance" || step != self.at, "advance bug");
        self.inner.advance(step, output)
    }
}

#[test]
fn a_panicking_model_fails_only_its_request() {
    // A model is code the session does not own: a panic in its query or
    // advance, or a query of the wrong shape, fails its own request,
    // typed, at every launch width. Every other stream is untouched and no
    // page leaks.
    let attn = AttentionConfig::gqa(8, 4, 16);
    let dec = decoder(attn);
    let want: Vec<Vec<u32>> = (0..3)
        .map(|i| replay_contiguous(&dec, &mut SynthSequence::new(attn, i, 150, 6)))
        .collect();
    for (kind, call) in [
        ("query", "query"),
        ("advance", "advance"),
        ("shape", "query"),
    ] {
        for workers in 0..=3 {
            let config = ServeConfig::new(256, 32, workers, 4);
            let mut session = ServeSession::new(dec.clone(), config);
            let mut submit =
                |m: Box<dyn SequenceModel>| -> RequestId { session.submit(m).unwrap() };
            let a = submit(Box::new(SynthSequence::new(attn, 0, 150, 6)));
            let bad = submit(Box::new(PanicsAt {
                inner: SynthSequence::new(attn, 9, 150, 6),
                call: kind,
                at: 2,
            }));
            let b = submit(Box::new(SynthSequence::new(attn, 1, 150, 6)));
            let c = submit(Box::new(SynthSequence::new(attn, 2, 150, 6)));
            let summary = session.run_to_completion();
            let at = format!("{kind} at workers={workers}");
            assert_eq!(
                session.failure(bad),
                Some(&ServeError::ModelPanicked { call, step: 2 }),
                "{at}"
            );
            assert_eq!(session.stream(bad).map(<[u32]>::len), Some(2), "{at}");
            assert_eq!(summary.requests_failed, 1, "{at}");
            for (id, want) in [a, b, c].into_iter().zip(&want) {
                assert_eq!(session.stream(id).unwrap(), want.as_slice(), "{at}");
            }
            assert_eq!(session.store().free_pages(), 256, "{at}: nothing leaked");
        }
    }
}

#[test]
fn obs_disabled_by_default_records_nothing() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let mut session = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 4));
    session
        .submit(Box::new(SynthSequence::new(attn, 1, 30, 4)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.slo, bd_obs::SloSummary::default());
    assert_eq!(session.tracer().recorded(), 0);
    assert_eq!(session.event_log().recorded(), 0);
    assert!(!session.lifecycle().is_enabled());
}

#[test]
fn obs_spans_events_and_slo_reconcile_with_summary() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let dec = decoder(attn);
    let mut session = ServeSession::new(
        dec,
        ServeConfig::new(256, 32, 0, 8).with_devices(2, Partitioning::HeadModulo),
    )
    .with_obs(ObsConfig::all());
    let gens: [usize; 3] = [5, 4, 6];
    for (i, gen) in gens.iter().enumerate() {
        session
            .submit(Box::new(SynthSequence::new(attn, i as u64, 40, *gen)))
            .unwrap();
    }
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 3);

    let tokens: usize = gens.iter().sum();
    let slo = summary.slo;
    assert_eq!(slo.submitted, 3);
    assert_eq!(slo.admitted, 3);
    assert_eq!(slo.completed, 3);
    assert_eq!(slo.failed, 0);
    assert_eq!(slo.tokens, tokens as u64);
    // One TTFT sample per request that produced a token; every later
    // token is exactly one TBT gap.
    assert_eq!(slo.ttft_steps.count, 3);
    assert_eq!(slo.tbt_steps.count, (tokens - 3) as u64);
    assert_eq!(slo.queue_wait_steps.count, 3);
    assert_eq!(slo.goodput_tok_s.count, 3);
    assert!(slo.ttft_s.p99.is_finite());
    assert!(slo.aggregate_goodput_tok_s > 0.0);

    // Event log reconciles with the lifecycle counters.
    let events = session.event_log();
    assert_eq!(events.count_event("submit"), 3);
    assert_eq!(events.count_event("admit"), 3);
    assert_eq!(events.count_event("complete"), 3);
    assert_eq!(events.count_event("preempt"), 0);

    // Registry counters agree too.
    let reg = session.metrics_registry();
    assert_eq!(reg.counter("serve.submitted"), 3);
    assert_eq!(reg.counter("serve.admitted"), 3);
    assert_eq!(reg.counter("serve.completions"), 3);
    assert_eq!(reg.counter("serve.tokens"), tokens as u64);

    // Spans: one "step" wall span per summary step, an "execute"
    // modeled span per (step, device), and worker "execute" wall spans
    // for every work unit of every step.
    let spans = session.tracer().snapshot();
    let count = |name: &str, domain: ClockDomain| {
        spans
            .iter()
            .filter(|s| s.name == name && s.domain == domain)
            .count()
    };
    assert_eq!(count("step", ClockDomain::Wall), summary.steps);
    assert_eq!(count("merge", ClockDomain::Wall), summary.steps);
    assert_eq!(
        count("execute", ClockDomain::Modeled),
        summary.steps * session.devices()
    );
    assert!(count("execute", ClockDomain::Wall) >= summary.steps);
    assert_eq!(session.tracer().dropped(), 0);

    // The exported Chrome trace parses and carries every span.
    let trace = session.tracer().chrome_trace_json();
    let parsed = bd_obs::json::parse(&trace).expect("trace must be valid JSON");
    let n_x = parsed
        .get("traceEvents")
        .and_then(bd_obs::json::JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(bd_obs::json::JsonValue::as_str) == Some("X"))
        .count();
    assert_eq!(n_x, spans.len());
}

#[test]
fn obs_attributes_preemptions_faults_and_recoveries() {
    let attn = AttentionConfig::gqa(4, 2, 16);
    let dec = decoder(attn);
    // Tight pool + preempting policy + a device loss: exercises the
    // preempt/resume and recovery attribution paths.
    let mut session = ServeSession::new(
        dec,
        ServeConfig::new(8, 32, 0, 4).with_devices(2, Partitioning::HeadModulo),
    )
    .with_policy(FcfsPreempt::default())
    .with_faults(FaultPlan::new().device_loss(3, 1))
    .with_obs(ObsConfig::all());
    session
        .submit(Box::new(SynthSequence::new(attn, 1, 70, 10)))
        .unwrap();
    session
        .submit_at(2, Box::new(SynthSequence::new(attn, 2, 40, 3)))
        .unwrap();
    let summary = session.run_to_completion();
    assert_eq!(summary.completed, 2);
    assert!(summary.faults_injected >= 1);
    let slo = summary.slo;
    assert_eq!(slo.completed, 2);
    assert_eq!(slo.preemptions as usize, summary.preemptions);
    assert_eq!(slo.recoveries as usize, summary.recoveries);
    let events = session.event_log();
    assert_eq!(events.count_event("preempt") as usize, summary.preemptions);
    assert_eq!(events.count_event("recovery") as usize, summary.recoveries);
    assert_eq!(events.count_event("fault_device_loss"), 1);
    assert_eq!(events.count_event("complete"), 2);
    // Degraded steps: the summary counter is the number of degraded
    // step samples, and each sample's flag is visible per step.
    assert_eq!(
        summary.degraded_steps,
        session.metrics().iter().filter(|m| m.degraded).count()
    );
    assert!(summary.degraded_steps >= 1);
}

/// Sums a `u64` field over every event-log line named `event`.
fn event_field_sum(session: &ServeSession, event: &str, field: &str) -> u64 {
    session
        .event_log()
        .lines()
        .map(|line| bd_obs::json::parse(line).unwrap())
        .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some(event))
        .map(|v| v.get(field).and_then(|f| f.as_f64()).unwrap() as u64)
        .sum()
}

#[test]
fn publish_derives_metrics_registry_and_events_from_one_ledger() {
    // Two hand-built ledgers through the one publish path: a healthy
    // step, and a worker-failure step — execute side void — that still
    // carries prefix-cache and copy-on-write movement from its admission
    // pass. Sample, registry and event log must tell the same story for
    // both.
    let attn = AttentionConfig::gqa(4, 2, 16);
    let config = ServeConfig::new(8, 32, 0, 4).with_devices(2, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder(attn), config).with_obs(ObsConfig::all());
    let healthy = StepLedger {
        admitted: 3,
        forked: 1,
        batch: 3,
        kv_tokens: 300,
        dev_units: vec![2, 3],
        dev_tokens: vec![140, 160],
        shared_attn_groups: 2,
        shared_attn_sharers: 5,
        prefix_pages_walked_saved: 12,
        completed: 1,
        cow_breaks: 3,
        prefix_cache_hits: 1,
        prefix_cache_misses: 2,
        prefix_pages_reused: 4,
        prefix_bytes_reused: 4096,
        prefix_subtrees_evicted: 1,
        new_tokens: 3,
        ..StepLedger::default()
    };
    let degraded = StepLedger {
        cow_breaks: 2,
        prefix_cache_hits: 2,
        prefix_cache_misses: 1,
        prefix_pages_reused: 6,
        prefix_bytes_reused: 6144,
        prefix_subtrees_evicted: 0,
        new_tokens: 0,
        requests_failed: 3,
        degraded: true,
        dev_units: vec![0, 0],
        dev_tokens: vec![0, 0],
        shared_attn_groups: 0,
        shared_attn_sharers: 0,
        prefix_pages_walked_saved: 0,
        ..healthy.clone()
    };

    let mut samples = Vec::new();
    for ledger in [&healthy, &degraded] {
        session.ledger = ledger.clone();
        let span = session.obs.tracer.begin();
        let m = session.publish(span);
        assert_eq!(m.step, samples.len());
        assert_eq!(m.degraded, ledger.degraded);
        assert_eq!((m.batch, m.kv_tokens), (ledger.batch, ledger.kv_tokens));
        assert_eq!(m.requests_failed, ledger.requests_failed);
        let per_device: Vec<(usize, usize)> = m
            .per_device
            .iter()
            .map(|d| (d.units, d.kv_tokens))
            .collect();
        let want: Vec<(usize, usize)> = ledger
            .dev_units
            .iter()
            .copied()
            .zip(ledger.dev_tokens.iter().copied())
            .collect();
        assert_eq!(per_device, want);
        samples.push(m);
    }
    assert_eq!(session.metrics().len(), 2);

    // Every row of the counter table: registry counter == the ledgers'
    // own values == the summed event field, for rows that log one, and
    // == the summed sample field, for rows that are one.
    let reg = session.metrics_registry();
    for row in STEP_COUNTERS.iter().flatten() {
        let counter = row.counter;
        let want = (row.value)(&healthy) + (row.value)(&degraded);
        assert!(want > 0, "{counter}: the ledgers leave this row untested");
        assert_eq!(reg.counter(counter), want, "{counter}");
        if !row.event.is_empty() {
            let logged = event_field_sum(&session, row.event, row.field);
            assert_eq!(logged, want, "{}.{}", row.event, row.field);
        }
        if let Some(sample) = row.sample {
            let total: u64 = samples.iter().map(sample).sum();
            assert_eq!(total, want, "{counter} vs ServeMetrics");
        }
    }
    // The gauges are written on the degraded step too.
    assert_eq!(reg.gauge("serve.active"), Some(0.0));

    // Over a whole run — preemption, a fork, radix hits, cascade groups,
    // a device loss and link retries — every summed summary field is its
    // row's sum over `metrics()`.
    let config = ServeConfig::new(12, 32, 1, 8).with_devices(2, Partitioning::HeadModulo);
    let plan = FaultPlan::new().transient_link(2, 2).device_loss(6, 1);
    let mut session = ServeSession::new(decoder(attn), config)
        .with_policy(FcfsPreempt::default())
        .with_faults(plan);
    let parent = session
        .submit(Box::new(SynthSequence::new(attn, 7, 128, 12)))
        .unwrap();
    session
        .submit_forked(parent, Box::new(SynthSequence::forked(attn, 7, 8, 128, 10)))
        .unwrap();
    for (arrival, gen_seed) in [(1, 9), (3, 10)] {
        let tenant = SynthSequence::forked(attn, 11, gen_seed, 96, 6);
        session.submit_at(arrival, Box::new(tenant)).unwrap();
    }
    let summary = session.run_to_completion();
    assert!(summary.forks > 0 && summary.retries > 0 && summary.recoveries > 0);
    let mut folded = ServeSummary::fold(session.metrics());
    folded.steps = summary.steps;
    folded.kv_tokens_per_s = summary.kv_tokens_per_s;
    folded.devices = summary.devices;
    folded.mean_device_utilization = summary.mean_device_utilization;
    folded.slo = summary.slo;
    assert_eq!(format!("{folded:?}"), format!("{summary:?}"));
    // …and each fold kind is the fold it names: a sum, a max, a count.
    let run = session.metrics();
    let preempted: usize = run.iter().map(|m| m.preempted).sum();
    let peak = run.iter().map(|m| m.physical_pages).max().unwrap_or(0);
    let degraded = run.iter().filter(|m| m.degraded).count();
    assert!(run.len() > 1 && degraded > 0);
    assert_eq!(
        (
            summary.preemptions,
            summary.peak_physical_pages,
            summary.degraded_steps
        ),
        (preempted, peak, degraded)
    );
}

#[test]
fn a_fault_on_the_drained_step_lands_in_exactly_one_summary() {
    // One 40 + 3 request decodes at steps 0–2; a pool exhaustion planned
    // for step 3 fires on the step that finds the session drained, so no
    // sample carries it. Earlier plans land in a sample as usual.
    let attn = AttentionConfig::gqa(4, 2, 16);
    let run = |fault_step: usize| {
        let plan = FaultPlan::new().pool_exhaustion(fault_step, 2, None);
        let mut session = ServeSession::new(decoder(attn), ServeConfig::new(64, 32, 0, 8))
            .with_obs(ObsConfig::all())
            .with_faults(plan);
        session
            .submit(Box::new(SynthSequence::new(attn, 0, 40, 3)))
            .unwrap();
        let summary = session.run_to_completion();
        (session, summary)
    };
    for fault_step in 0..=3 {
        let (session, summary) = run(fault_step);
        let registry = session.metrics_registry().counter("serve.faults");
        assert_eq!(registry, 1, "fault at step {fault_step}");
        assert_eq!(summary.faults_injected, 1, "fault at step {fault_step}");
        let sampled: usize = session.metrics().iter().map(|m| m.faults_injected).sum();
        assert_eq!(
            sampled,
            usize::from(fault_step < 3),
            "fault at step {fault_step}"
        );
    }

    // The drained step's count still rides into the next sample, as
    // before, but the next run's summary does not count it again.
    let (mut session, _) = run(3);
    session
        .submit(Box::new(SynthSequence::new(attn, 1, 40, 3)))
        .unwrap();
    let second = session.run_to_completion();
    assert_eq!(session.metrics()[3].faults_injected, 1);
    assert_eq!(second.faults_injected, 0);
    assert_eq!(second.degraded_steps, 1);
    // A run that publishes nothing does not count it again either.
    let (mut session, _) = run(3);
    assert_eq!(session.run_to_completion().faults_injected, 0);
    assert_eq!(session.metrics_registry().counter("serve.faults"), 1);
}
