//! The sequence-model call contract, seen from inside the model.
//!
//! A [`SequenceModel`] is the runtime's only window onto a request. Whatever
//! thread the runtime calls it from, each model must see one protocol:
//! any number of `prompt()` calls before its first query, then
//! `query(0)`, `advance(0, ·)`, `query(1)`, `advance(1, ·)`, … — each step
//! once, in order — and after a `reset()` the same from step 0 again. A
//! swap-out and swap-in resume the protocol where it stopped.
//!
//! These tests log every call a model receives, with the bits of every
//! attention output it is handed, under preemption, forks, prefix-cache
//! hits, cascade units, a corrupt swap blob and a device loss. They check
//! the protocol, that every stream equals an uninterrupted contiguous
//! decode, and that the logs are identical at every launch width.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{AttentionConfig, BitDecoder, QueryHeads};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{Partitioning, QuantScheme, TokenMatrix};
use bd_serve::{
    replay_contiguous, FaultPlan, FcfsPreempt, SequenceModel, ServeConfig, ServeSession,
    ServeSummary, StepKv, SynthSequence,
};
use std::sync::{Arc, Mutex};

const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 4,
    heads_kv: 2,
    head_dim: 16,
};

/// One call a model received.
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Prompt,
    Query(usize),
    /// The step and an FNV-1a-64 of the output's bits.
    Advance(usize, u64),
    Reset,
}

type Log = Arc<Mutex<Vec<Call>>>;

/// A [`SynthSequence`] that logs every call.
struct Logged {
    inner: SynthSequence,
    log: Log,
}

impl Logged {
    fn push(&self, call: Call) {
        self.log.lock().unwrap().push(call);
    }
}

impl SequenceModel for Logged {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        self.push(Call::Prompt);
        self.inner.prompt()
    }
    fn prompt_tokens(&self) -> usize {
        self.inner.prompt_tokens()
    }
    fn gen_tokens(&self) -> usize {
        self.inner.gen_tokens()
    }
    fn query(&mut self, step: usize) -> QueryHeads {
        self.push(Call::Query(step));
        self.inner.query(step)
    }
    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in output.iter().flatten() {
            h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.push(Call::Advance(step, h));
        self.inner.advance(step, output)
    }
    fn reset(&mut self) {
        self.push(Call::Reset);
        self.inner.reset();
    }
}

/// One request: `(prompt seed, gen seed, prompt tokens, gen tokens,
/// arrival step, fork parent index)`.
type Request = (u64, u64, usize, usize, usize, Option<usize>);

/// A forked pair, two tenants repeating one prompt, and two independent
/// requests, arriving into a pool that holds about half of them.
const REQUESTS: [Request; 6] = [
    (1, 1, 300, 14, 0, None),
    (1, 2, 300, 10, 1, Some(0)),
    (3, 3, 280, 10, 2, None),
    (7, 4, 260, 9, 3, None),
    (7, 5, 260, 9, 4, None),
    (9, 9, 140, 12, 5, None),
];

fn decoder() -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(ATTN)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build()
}

fn synth(r: &Request) -> SynthSequence {
    SynthSequence::forked(ATTN, r.0, r.1, r.2, r.3)
}

/// Serves [`REQUESTS`] and returns each request's stream and call log.
fn serve(
    workers: usize,
    devices: usize,
    pages: usize,
    plan: FaultPlan,
) -> (Vec<Vec<u32>>, Vec<Vec<Call>>, ServeSummary) {
    let config =
        ServeConfig::new(pages, 32, workers, 8).with_devices(devices, Partitioning::HeadModulo);
    let mut session = ServeSession::new(decoder(), config)
        .with_policy(FcfsPreempt::default())
        .with_faults(plan);
    let mut ids = Vec::new();
    let mut logs: Vec<Log> = Vec::new();
    for r in &REQUESTS {
        let log = Log::default();
        let model = Box::new(Logged {
            inner: synth(r),
            log: Arc::clone(&log),
        });
        let id = match r.5 {
            Some(parent) => session.submit_forked_at(r.4, ids[parent], model),
            None => session.submit_at(r.4, model),
        };
        ids.push(id.unwrap());
        logs.push(log);
    }
    let summary = session.run_to_completion();
    let streams = ids
        .iter()
        .map(|&id| {
            assert!(session.is_finished(id), "request {id} finished");
            session.stream(id).unwrap().to_vec()
        })
        .collect();
    let logs = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
    (streams, logs, summary)
}

/// Checks one model's log against the protocol and returns how many
/// times it was reset.
fn check_protocol(log: &[Call], gen: usize) -> usize {
    let segments: Vec<&[Call]> = log.split(|c| *c == Call::Reset).collect();
    for (k, segment) in segments.iter().enumerate() {
        let first_query = segment
            .iter()
            .position(|c| *c != Call::Prompt)
            .unwrap_or(segment.len());
        let steps = &segment[first_query..];
        assert_eq!(
            steps.len() % 2,
            0,
            "segment {k} ends inside a step: {steps:?}"
        );
        for (s, pair) in steps.chunks(2).enumerate() {
            assert_eq!(pair[0], Call::Query(s), "segment {k}, step {s}: {steps:?}");
            assert!(
                matches!(pair[1], Call::Advance(step, _) if step == s),
                "segment {k}, step {s}: {steps:?}"
            );
        }
        if k + 1 == segments.len() {
            assert_eq!(steps.len(), 2 * gen, "the last segment reaches the end");
        }
    }
    segments.len() - 1
}

#[test]
fn each_model_sees_its_steps_once_and_in_order_at_every_width() {
    let dec = decoder();
    let want: Vec<Vec<u32>> = REQUESTS
        .iter()
        .map(|r| replay_contiguous(&dec, &mut synth(r)))
        .collect();
    // The first swap-in restores a damaged blob (recompute from the
    // prompt), and device 1 dies at step 12 (every resident request
    // recomputes on the survivor).
    let plan = || FaultPlan::new().corrupt_swap(0, 12_345).device_loss(12, 1);
    let (streams, logs, summary) = serve(0, 2, 24, plan());
    assert_eq!(streams, want, "streams equal contiguous decode");
    assert!(summary.preemptions > 0, "the pool preempts");
    assert!(summary.recoveries > 0, "faults force recomputes");
    assert!(summary.shared_attn_groups > 0, "cascade units run");
    assert!(summary.prefix_cache_hits > 0, "the prefix cache hits");
    let resets: usize = logs
        .iter()
        .zip(&REQUESTS)
        .map(|(log, r)| check_protocol(log, r.3))
        .sum();
    assert!(resets > 0, "some model was reset");
    for workers in [1, 2, 3] {
        let (s, l, _) = serve(workers, 2, 24, plan());
        assert_eq!(s, streams, "workers={workers}");
        assert_eq!(l, logs, "workers={workers}: the models saw other calls");
    }
}

#[test]
fn call_logs_do_not_depend_on_the_launch_width_without_faults() {
    // Room for every request at once: no preemption, so each model's log
    // is exactly its prompt (unless forked or adopted) and its steps.
    let (streams, logs, summary) = serve(0, 1, 64, FaultPlan::new());
    assert_eq!(summary.preemptions, 0);
    assert!(summary.shared_attn_groups > 0);
    for (log, r) in logs.iter().zip(&REQUESTS) {
        assert_eq!(check_protocol(log, r.3), 0);
    }
    for (workers, devices) in [(1, 1), (2, 1), (3, 1), (2, 2)] {
        let (s, l, _) = serve(workers, devices, 64, FaultPlan::new());
        assert_eq!(s, streams, "workers={workers} devices={devices}");
        assert_eq!(l, logs, "workers={workers} devices={devices}");
    }
}
