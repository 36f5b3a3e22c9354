//! Attributes a short-context decode step through the public
//! [`ServeSession`] API, on one device, at launch widths 1 and 2.
//!
//! The batch is `benchmark/`'s `short_ctx_batch` shape by default: 128
//! requests of 32 prompt + 90 generated tokens, `gqa(8, 4, 64)`, KC-4,
//! all decoding at once, so no prompt is packed. For each width it prints:
//!
//! - the median wall time of a steady step (one that neither admits,
//!   resumes nor preempts), untraced, best of `runs`;
//! - the first step's decode time (its `ServeMetrics::wall_s`: the launch
//!   through the appends, after admission), where every residual window
//!   first grows past its prompt rows and every Kᵀ panel is first built,
//!   untraced, best of `runs`;
//! - one traced run's split of a steady step, in µs: the session-lane
//!   phases (`admission`, `fan_out`, `merge`, `append`, the `step` span's
//!   own remainder) and, summed over the launch's threads, the model's
//!   `query` and `advance` and the attention units (`execute` +
//!   `shared_attn`) — plus the share of `width × fan_out` those fill.
//!
//! ```text
//! cargo run --release -p bd-serve --example step_ab [requests] [gen] [runs]
//! ```
//!
//! Streams must agree across widths and with contiguous decode; no timing
//! is asserted. It uses only public API, so the same file builds in a
//! scratch copy of a parent tree for an A/B (spans the parent does not
//! record read as 0).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::QuantScheme;
use bd_obs::{ClockDomain, ObsConfig, SpanRecord, LANE_SESSION};
use bd_serve::{replay_contiguous, ServeConfig, ServeMetrics, ServeSession, SynthSequence};
use std::time::Instant;

const PROMPT: usize = 32;
const PAGE_TOKENS: usize = 64;

fn attn() -> AttentionConfig {
    AttentionConfig::gqa(8, 4, 64)
}

fn decoder() -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn())
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build()
}

fn request(i: usize, gen: usize) -> SynthSequence {
    SynthSequence::new(attn(), 1000 + i as u64, PROMPT, gen)
}

/// A session at launch width `width` with every request submitted.
fn session(requests: usize, gen: usize, width: usize, traced: bool) -> ServeSession {
    let pages = requests * (PROMPT + gen).div_ceil(PAGE_TOKENS);
    let config = ServeConfig::new(pages, PAGE_TOKENS, width, requests);
    let mut s = ServeSession::new(decoder(), config);
    if traced {
        s = s.with_obs(
            ObsConfig::off()
                .with_spans(true)
                .with_span_capacity(1 << 22),
        );
    }
    for i in 0..requests {
        s.submit(Box::new(request(i, gen))).unwrap();
    }
    s
}

fn steady(m: &ServeMetrics) -> bool {
    m.admitted == 0 && m.resumed == 0 && m.preempted == 0
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Steps an untraced session to the end: the median steady-step wall
/// time and the first step's `wall_s`, in ms, and the streams.
fn untraced(requests: usize, gen: usize, width: usize) -> (f64, f64, Vec<Vec<u32>>) {
    let mut s = session(requests, gen, width, false);
    let mut ms = Vec::new();
    let mut first = None;
    loop {
        let start = Instant::now();
        let Some(m) = s.step() else { break };
        first.get_or_insert(m.wall_s * 1e3);
        if steady(&m) {
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let streams = (0..requests as u64)
        .map(|id| s.stream(id).unwrap().to_vec())
        .collect();
    (median(ms), first.unwrap(), streams)
}

/// Span names the split reports, in print order.
const PHASES: [&str; 8] = [
    "admission",
    "fan_out",
    "merge",
    "append",
    "query",
    "execute",
    "shared_attn",
    "advance",
];

/// One traced run's mean µs per steady step: each of [`PHASES`], the
/// `step` span's own remainder, and the step itself.
fn traced(requests: usize, gen: usize, width: usize) -> ([f64; 8], f64, f64) {
    let mut s = session(requests, gen, width, true);
    let mut steadies = Vec::new();
    while let Some(m) = s.step() {
        steadies.push(steady(&m));
    }
    let spans: Vec<SpanRecord> = s
        .tracer()
        .snapshot()
        .into_iter()
        .filter(|sp| sp.domain == ClockDomain::Wall)
        .collect();
    assert_eq!(s.tracer().dropped(), 0, "the span ring held every span");
    let steps: Vec<&SpanRecord> = spans
        .iter()
        .filter(|sp| sp.name == "step" && sp.lane == LANE_SESSION)
        .collect();
    assert_eq!(steps.len(), steadies.len(), "one step span per step");
    let mut sums = [0.0; 8];
    let (mut step_us, mut n) = (0.0, 0.0);
    for (step, _) in steps.iter().zip(&steadies).filter(|(_, &st)| st) {
        let end = step.begin_us + step.dur_us;
        for sp in spans
            .iter()
            .filter(|sp| sp.begin_us >= step.begin_us && sp.begin_us < end)
        {
            if let Some(k) = PHASES.iter().position(|&p| p == sp.name) {
                sums[k] += sp.dur_us;
            }
        }
        step_us += step.dur_us;
        n += 1.0;
    }
    let own = step_us - sums[..4].iter().sum::<f64>();
    (sums.map(|x| x / n), own / n, step_us / n)
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse::<usize>().unwrap());
    let requests = args.next().unwrap_or(128);
    let gen = args.next().unwrap_or(90);
    let runs = args.next().unwrap_or(3).max(1);
    println!(
        "step_ab: {requests} requests × ({PROMPT} prompt + {gen} gen) tokens, gqa(8, 4, 64), \
         KC-4, 1 device"
    );
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for width in [1, 2] {
        let (mut best, mut best_first) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..runs {
            let (ms, first, streams) = untraced(requests, gen, width);
            best = best.min(ms);
            best_first = best_first.min(first);
            match &reference {
                Some(r) => assert_eq!(&streams, r, "streams differ at width {width}"),
                None => reference = Some(streams),
            }
        }
        let (phase, own, step) = traced(requests, gen, width);
        let [admission, fan_out, merge, append, query, execute, shared, advance] = phase;
        let busy = (query + execute + shared + advance) / (width as f64 * fan_out);
        println!(
            "width {width}: steady step p50 {best:.3} ms, first step's decode {best_first:.3} ms \
             (untraced, best of {runs})"
        );
        println!(
            "  traced, µs per steady step: step {step:.0} = admission {admission:.0} + \
             fan_out {fan_out:.0} + merge {merge:.0} + append {append:.0} + other {own:.0}"
        );
        println!(
            "  on the launch: query {query:.0} + attention {:.0} + advance {advance:.0} \
             = {busy:.2} of width × fan_out",
            execute + shared
        );
    }
    let want = replay_contiguous(&decoder(), &mut request(0, gen));
    assert_eq!(
        reference.unwrap()[0],
        want,
        "request 0 equals contiguous decode"
    );
    println!("streams: identical at widths 1 and 2; request 0 equals contiguous decode");
}
