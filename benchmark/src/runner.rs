//! Drives one pass of a workload and checks what came out.
//!
//! A *pass* is: set up (build decoder + session, generate every prompt's
//! K/V, submit every request at its arrival step), then call `step()`
//! until the session drains, reading the clock before and after each call
//! and polling each live request's stream length in between. Everything
//! the report needs — per-step wall time, per-token arrival times, the
//! program's own step counters — is recorded here; nothing is aggregated.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{generate_prompt, oracle_stream, Engine, PromptKv, StepSample};
use crate::gen::{RequestSpec, SplitMix64, WorkloadSpec};
use crate::trace::{Recorder, SessionTrace};

/// Ring size for the program's span tracer on a traced pass: well above
/// the largest pass (`short_ctx_batch`: 90 steps × 512 units ≈ 50 k
/// spans), because a dropped span fails the run.
const SPAN_CAPACITY: usize = 1 << 21;

/// One `step()` call as seen from outside.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Clock read just before the call, seconds since the pass epoch.
    pub start_s: f64,
    /// Clock read just after the call.
    pub end_s: f64,
    /// What the program reported for the step.
    pub sample: StepSample,
}

impl StepRecord {
    /// External wall time of the call, seconds.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// `true` when the step only decoded: no admission, resume or
    /// preemption rode along.
    pub fn steady(&self) -> bool {
        self.sample.admitted == 0 && self.sample.resumed == 0 && self.sample.preempted == 0
    }
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct RequestOutcome {
    /// Session id; `None` when `submit_at` refused the request.
    pub id: Option<u64>,
    /// Start of the first `step()` whose index reached the request's
    /// arrival step — the moment the request was *due*, from which TTFT
    /// counts, so time spent queued behind a stall is included.
    pub due_s: Option<f64>,
    /// Index of the step that emitted the first token.
    pub first_token_step: Option<usize>,
    /// End-of-step time of every token, seconds since the pass epoch.
    pub token_times_s: Vec<f64>,
    /// Times a started, unfinished request went a step without a token —
    /// a preemption, seen from outside.
    pub stalls: usize,
    /// The full token stream.
    pub stream: Vec<u32>,
    /// Ran to completion with the full generation budget (false for a
    /// refused, failed or unfinished request alike).
    pub finished: bool,
}

/// Everything recorded during one pass.
pub struct Pass {
    /// Wall time of set-up: everything before the first `step()`.
    pub setup_s: f64,
    /// Wall time of each `submit_at` call, µs.
    pub submit_us: Vec<f64>,
    /// Every step, in order.
    pub steps: Vec<StepRecord>,
    /// Every request, in submission order.
    pub requests: Vec<RequestOutcome>,
    /// Copy-on-write breaks the store counted.
    pub cow_breaks: usize,
    /// The program's spans (traced passes only).
    pub session_trace: Option<SessionTrace>,
}

/// A session with every request submitted, ready to step.
pub struct Prepared {
    engine: Engine,
    ids: Vec<Option<u64>>,
    submit_us: Vec<f64>,
    /// Wall time the preparation took, seconds.
    pub setup_s: f64,
}

/// Set-up: generates the prompts, builds the session, submits everything.
/// Timed as a whole (that is `setup_s`). A recording `rec` gets a span per
/// `submit_at` and also switches the program's own span tracer on.
pub fn prepare(spec: &WorkloadSpec, rec: &mut Recorder, parent: Option<usize>) -> Prepared {
    let t0 = Instant::now();
    let span = rec.open("setup", parent, None);
    // Every request owns its prompt's K/V before the clock starts, so
    // admission neither generates nor copies it. Identical prompts are
    // generated once and copied for all but their last user; the program
    // still receives each as an independent request.
    let key = |req: &RequestSpec| (req.prompt_seed, req.prompt_len);
    let mut users: BTreeMap<(u64, usize), usize> = BTreeMap::new();
    for req in &spec.requests {
        *users.entry(key(req)).or_default() += 1;
    }
    let mut generated: BTreeMap<(u64, usize), PromptKv> = BTreeMap::new();
    let mut prompts: Vec<PromptKv> = Vec::with_capacity(spec.requests.len());
    for req in &spec.requests {
        let left = users.get_mut(&key(req)).expect("counted above");
        *left -= 1;
        let kv = generated
            .entry(key(req))
            .or_insert_with(|| generate_prompt(spec, req));
        prompts.push(if *left == 0 {
            generated.remove(&key(req)).expect("inserted above")
        } else {
            kv.clone()
        });
    }
    let mut engine = Engine::new(spec, rec.enabled().then_some(SPAN_CAPACITY));
    let mut ids = Vec::with_capacity(spec.requests.len());
    let mut submit_us = Vec::with_capacity(spec.requests.len());
    for (req, prompt) in spec.requests.iter().zip(prompts) {
        let a = rec.now_us();
        let id = engine.submit_at(spec, req, prompt).ok();
        let b = rec.now_us();
        rec.record("submit_at", a, b, span, id);
        submit_us.push(b - a);
        ids.push(id);
    }
    rec.close(span);
    Prepared {
        engine,
        ids,
        submit_us,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Steps a prepared session until it drains.
pub fn drive(
    spec: &WorkloadSpec,
    prepared: Prepared,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> Pass {
    let Prepared {
        mut engine,
        ids,
        submit_us,
        setup_s,
    } = prepared;
    let mut requests: Vec<RequestOutcome> = ids
        .iter()
        .map(|&id| RequestOutcome {
            id,
            ..RequestOutcome::default()
        })
        .collect();
    // Line the program tracer's clock up with the benchmark's.
    let offset_us = rec.now_us() - engine.tracer_now_us();
    let span = rec.open("measure", parent, None);

    let mut steps: Vec<StepRecord> = Vec::new();
    // Requests are generated in arrival order, so "due" is a prefix.
    let mut next_due = 0usize;
    let mut live: Vec<usize> = Vec::new();
    let mut got_token_last_step = vec![false; requests.len()];
    loop {
        let a = rec.now_us();
        let Some(sample) = engine.step() else { break };
        let b = rec.now_us();
        rec.record("step", a, b, span, None);
        let (start_s, end_s) = (a * 1e-6, b * 1e-6);
        steps.push(StepRecord {
            start_s,
            end_s,
            sample,
        });
        while next_due < requests.len() && spec.requests[next_due].arrival_step <= sample.index {
            requests[next_due].due_s = Some(start_s);
            if requests[next_due].id.is_some() {
                live.push(next_due);
            }
            next_due += 1;
        }
        live.retain(|&i| {
            let r = &mut requests[i];
            let Some(id) = r.id else { return false };
            let have = engine.stream_len(id);
            let new = have.saturating_sub(r.token_times_s.len());
            if new > 0 {
                r.first_token_step.get_or_insert(sample.index);
                r.token_times_s.extend(std::iter::repeat_n(end_s, new));
            } else if got_token_last_step[i] {
                r.stalls += 1;
            }
            got_token_last_step[i] = new > 0;
            have < spec.requests[i].gen && !engine.is_failed(id)
        });
    }
    rec.close(span);

    for (r, req) in requests.iter_mut().zip(&spec.requests) {
        if let Some(id) = r.id {
            r.stream = engine.stream(id);
            r.finished = engine.is_finished(id) && r.stream.len() == req.gen;
        }
    }
    let session_trace = rec.enabled().then(|| {
        let (spans, dropped) = engine.session_spans();
        SessionTrace {
            spans,
            offset_us,
            dropped,
        }
    });
    Pass {
        setup_s,
        submit_us,
        steps,
        requests,
        cow_breaks: engine.cow_breaks(),
        session_trace,
    }
}

/// Requests that were refused, failed, or did not finish.
pub fn incomplete(pass: &Pass) -> usize {
    pass.requests.iter().filter(|r| !r.finished).count()
}

/// Picks the requests whose streams are replayed through the oracle: all
/// of them up to eight; beyond that the first arrival, the last, the
/// most-preempted, and seeded picks up to eight.
pub fn verification_sample(pass: &Pass, seed: u64) -> Vec<usize> {
    let n = pass.requests.len();
    if n <= 8 {
        return (0..n).collect();
    }
    let most_stalled = (0..n)
        .max_by_key(|&i| (pass.requests[i].stalls, std::cmp::Reverse(i)))
        .unwrap_or(0);
    let mut picks = vec![0, n - 1, most_stalled];
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F5A_3B1E);
    loop {
        picks.sort_unstable();
        picks.dedup();
        if picks.len() >= 8 {
            return picks;
        }
        picks.push(rng.below(n));
    }
}

/// Replays the sampled requests through the contiguous oracle (two at a
/// time — the check is untimed, but the run still has to end) and returns
/// the indexes whose first `verify_tokens` tokens differ.
pub fn verify_against_oracle(spec: &WorkloadSpec, pass: &Pass, sample: &[usize]) -> Vec<usize> {
    let check = |i: usize| -> bool {
        let want = oracle_stream(spec, &spec.requests[i], spec.verify_tokens);
        let got = &pass.requests[i].stream;
        got.len() >= want.len() && got[..want.len()] == want[..]
    };
    let (left, right) = sample.split_at(sample.len() / 2);
    let run =
        |part: &[usize]| -> Vec<usize> { part.iter().copied().filter(|&i| !check(i)).collect() };
    let mut bad = std::thread::scope(|s| {
        let other = s.spawn(|| run(right));
        let mut bad = run(left);
        bad.extend(other.join().expect("oracle thread panicked"));
        bad
    });
    bad.sort_unstable();
    bad
}

/// Requests whose full stream differs between two passes of the same
/// workload and seed — the runtime must be deterministic.
pub fn diverged(first: &Pass, other: &Pass) -> usize {
    first
        .requests
        .iter()
        .zip(&other.requests)
        .filter(|(a, b)| a.stream != b.stream)
        .count()
}
