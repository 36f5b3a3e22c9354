//! Observability end to end: a bursty over-subscribed workload served with
//! every `bd-obs` surface enabled — span tracing on the dual clock, the
//! structured JSONL event log, and request-lifecycle SLO tracking.
//!
//! The demo
//!
//! 1. serves one big early request, a shared-prompt fork cluster (a parent
//!    plus two children admitted copy-on-write off its live pages, so the
//!    scheduler forms cascade shared-prefix attention groups), and four
//!    small late arrivals through a 2-device session under `FcfsPreempt`,
//!    with [`ObsConfig::all`];
//! 2. writes the Chrome `trace_event` timeline to
//!    `target/trace_demo.trace.json` (load it at <https://ui.perfetto.dev>)
//!    and the event log to `target/trace_demo.events.jsonl`;
//! 3. asserts the three observability surfaces **reconcile exactly** with
//!    the session's own `ServeSummary`: lifecycle counts match summary
//!    counters, event-log counts match lifecycle transitions, wall `step`
//!    spans match `summary.steps`, modeled `execute` spans match
//!    `steps x devices`, wall `shared_attn` spans match the cascade group
//!    units the summary counted, the `serve.shared_attn.*` and
//!    `serve.prefix_cache.*` registry counters match the summary's
//!    group/pages-saved and radix hit/miss/bytes-reused totals, the
//!    `prefix_cache` event-log field sums match the same totals, and the
//!    TTFT p99 is finite.
//!
//! A radix-cache twin rides along: one request repeats the fork parent's
//! prompt *without* forking, so the content-addressed prefix cache adopts
//! the parent's sealed prompt pages on both devices and the counters
//! above have something nonzero to reconcile.
//!
//! Run with: `cargo run --release --example trace_demo`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bitdecoding::core::{AttentionConfig, BitDecoder};
use bitdecoding::serve::{
    ClockDomain, FcfsPreempt, ObsConfig, Quantiles, ServeConfig, ServeSession, SynthSequence,
};
use bitdecoding::{GpuArch, Partitioning, QuantScheme};

/// (seed, prompt, gen, arrival step) — one big request that owns the pool
/// from step 0, then a burst of four small requests arriving at steps 4-10.
const REQUESTS: [(u64, usize, usize, usize); 5] = [
    (0, 320, 24, 0),
    (4, 48, 6, 4),
    (5, 48, 4, 6),
    (6, 48, 6, 8),
    (7, 48, 4, 10),
];

/// The fork cluster: a parent whose 128-token prompt (one sealed block,
/// four pages) is shared copy-on-write by two children, submitted through
/// `submit_forked_at` while the parent is live. While two or more cluster
/// members are resident, every step forms one cascade group per KV head
/// that walks the shared packed prefix pages once.
const FORK_PARENT: (u64, usize, usize, usize) = (1, 128, 10, 1);
const FORK_CHILDREN: [(u64, usize, usize); 2] = [(2, 128, 6), (3, 128, 8)];

/// The radix twin: (gen seed, prompt, gen, arrival step). Repeats the
/// fork parent's 128-token prompt as a plain `submit_at` — no fork call —
/// so admission adopts the parent's sealed prompt run straight from the
/// content-addressed prefix cache on every device.
const RADIX_TWIN: (u64, usize, usize, usize) = (9, 128, 6, 3);

/// Sums a `u64` field over every retained event-log line with the given
/// event name: the event-log half of the counter reconciliation.
fn field_sum(lines: impl Iterator<Item = impl AsRef<str>>, event: &str, key: &str) -> u64 {
    let event_needle = format!("\"event\":\"{event}\"");
    let key_needle = format!("\"{key}\":");
    let mut sum = 0;
    for line in lines {
        let line = line.as_ref();
        if !line.contains(&event_needle) {
            continue;
        }
        let start = line.find(&key_needle).expect("field present") + key_needle.len();
        let digits: String = line[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        sum += digits.parse::<u64>().expect("u64 field");
    }
    sum
}

fn fmt_q(q: &Quantiles) -> String {
    format!(
        "n {:>3}  p50 {:>7.1}  p90 {:>7.1}  p99 {:>7.1}  max {:>7.1}",
        q.count, q.p50, q.p90, q.p99, q.max
    )
}

fn main() {
    let attn = AttentionConfig::gqa(8, 2, 64);
    let decoder = BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(QuantScheme::kc4())
        .paged(true)
        .build();

    // 20 pages x 32 tokens: the big request reserves 11 pages and the fork
    // cluster 7 physical (5 parent + 1 private tail per child), so the
    // burst forces queueing and swap-out preemptions — exactly the regime
    // where TTFT/TBT/queue-wait distributions are interesting.
    let config = ServeConfig::new(20, 32, 2, 8).with_devices(2, Partitioning::HeadContiguous);
    let mut session = ServeSession::new(decoder, config)
        .with_policy(Box::new(FcfsPreempt::default()))
        .with_obs(ObsConfig::all());

    println!("=== bd-obs: span traces, event log, and SLO histograms ===\n");
    println!("pool 20 pages x 32 tokens, 2 devices, FcfsPreempt; burst of 4 + fork cluster of 3 behind 1 big\n");

    for &(seed, prompt, gen, at) in &REQUESTS {
        session
            .submit_at(at, Box::new(SynthSequence::new(attn, seed, prompt, gen)))
            .expect("request fits the pool");
    }
    let (pseed, pprompt, pgen, pat) = FORK_PARENT;
    let parent = session
        .submit_at(
            pat,
            Box::new(SynthSequence::forked(attn, pseed, pseed, pprompt, pgen)),
        )
        .expect("parent fits the pool");
    for (i, &(seed, prompt, gen)) in FORK_CHILDREN.iter().enumerate() {
        session
            .submit_forked_at(
                pat + 1 + i,
                parent,
                Box::new(SynthSequence::forked(attn, pseed, seed, prompt, gen)),
            )
            .expect("child fits the pool");
    }
    let (tseed, tprompt, tgen, tat) = RADIX_TWIN;
    session
        .submit_at(
            tat,
            Box::new(SynthSequence::forked(attn, pseed, tseed, tprompt, tgen)),
        )
        .expect("twin fits the pool");
    let submitted = REQUESTS.len() + 1 + FORK_CHILDREN.len() + 1;
    let summary = session.run_to_completion();
    let slo = &summary.slo;

    // --- lifecycle <-> summary reconciliation -------------------------
    assert_eq!(slo.submitted as usize, submitted);
    assert_eq!(slo.completed as usize, summary.completed);
    assert_eq!(slo.preemptions as usize, summary.preemptions);
    assert_eq!(slo.resumes as usize, summary.resumes);
    let gen_tokens: u64 = REQUESTS
        .iter()
        .map(|&(_, _, gen, _)| gen as u64)
        .sum::<u64>()
        + pgen as u64
        + FORK_CHILDREN
            .iter()
            .map(|&(_, _, gen)| gen as u64)
            .sum::<u64>()
        + tgen as u64;
    assert_eq!(slo.tokens, gen_tokens, "every generated token counted once");
    assert!(slo.ttft_steps.p99.is_finite(), "TTFT p99 (steps) is finite");
    assert!(slo.ttft_s.p99.is_finite(), "TTFT p99 (seconds) is finite");
    assert!(summary.preemptions > 0, "the burst forces preemptions");
    assert_eq!(summary.forks, 2, "both children admitted by CoW forking");
    assert!(summary.shared_attn_groups > 0, "the cluster formed groups");

    // --- event log <-> summary reconciliation -------------------------
    let events = session.event_log();
    assert_eq!(events.dropped(), 0, "event ring never overflowed");
    assert_eq!(events.count_event("submit_at") as usize, REQUESTS.len() + 2);
    assert_eq!(
        events.count_event("submit_forked") as usize,
        FORK_CHILDREN.len()
    );
    assert_eq!(events.count_event("complete") as usize, summary.completed);
    assert_eq!(events.count_event("preempt") as usize, summary.preemptions);
    assert_eq!(events.count_event("swap_in") as usize, summary.resumes);
    assert_eq!(events.count_event("fork_admit") as usize, summary.forks);
    let admits = events.count_event("admit")
        + events.count_event("fork_admit")
        + events.count_event("swap_in");
    assert_eq!(admits, slo.admitted + slo.resumes);
    let shared_attn_steps = events.count_event("shared_attn") as usize;
    assert!(
        shared_attn_steps >= 1 && shared_attn_steps <= summary.steps,
        "one shared_attn event per step that formed groups"
    );

    // --- metrics registry <-> summary reconciliation ------------------
    let reg = session.metrics_registry();
    assert_eq!(
        reg.counter("serve.shared_attn.groups"),
        summary.shared_attn_groups as u64,
        "registry group counter matches the summary"
    );
    assert_eq!(
        reg.counter("serve.shared_attn.pages_saved"),
        summary.prefix_pages_walked_saved as u64,
        "registry pages-saved counter matches the summary"
    );
    assert!(
        reg.counter("serve.shared_attn.sharers") >= 2 * reg.counter("serve.shared_attn.groups"),
        "every cascade group has at least two sharers"
    );

    // --- radix prefix cache: summary <-> registry <-> event log -------
    // The twin repeats the parent's prompt without forking, so it must
    // adopt the sealed prompt run from the cache on both devices.
    assert!(
        summary.prefix_cache_hits >= session.devices(),
        "the radix twin did not adopt the parent's prompt pages"
    );
    assert!(summary.prefix_pages_reused > 0);
    assert!(summary.prefix_bytes_reused > 0);
    for (counter, total) in [
        ("serve.prefix_cache.hits", summary.prefix_cache_hits),
        ("serve.prefix_cache.misses", summary.prefix_cache_misses),
        (
            "serve.prefix_cache.pages_reused",
            summary.prefix_pages_reused,
        ),
        (
            "serve.prefix_cache.bytes_reused",
            summary.prefix_bytes_reused,
        ),
        (
            "serve.prefix_cache.evicted_subtrees",
            summary.prefix_subtrees_evicted,
        ),
    ] {
        assert_eq!(
            reg.counter(counter),
            total as u64,
            "registry {counter} matches the summary"
        );
    }
    for (field, total) in [
        ("hits", summary.prefix_cache_hits),
        ("misses", summary.prefix_cache_misses),
        ("pages_reused", summary.prefix_pages_reused),
        ("bytes_reused", summary.prefix_bytes_reused),
        ("evicted_subtrees", summary.prefix_subtrees_evicted),
    ] {
        assert_eq!(
            field_sum(events.lines(), "prefix_cache", field),
            total as u64,
            "event-log prefix_cache `{field}` sums to the summary total"
        );
    }
    assert!(events.count_event("prefix_cache") >= 1);

    // --- span trace <-> summary reconciliation ------------------------
    let tracer = session.tracer();
    assert_eq!(tracer.dropped(), 0, "span ring never overflowed");
    let spans = tracer.snapshot();
    let wall_steps = spans
        .iter()
        .filter(|s| s.name == "step" && s.domain == ClockDomain::Wall)
        .count();
    assert_eq!(wall_steps, summary.steps, "one wall `step` span per step");
    let modeled_exec = spans
        .iter()
        .filter(|s| s.name == "execute" && s.domain == ClockDomain::Modeled)
        .count();
    assert_eq!(
        modeled_exec,
        summary.steps * summary.devices,
        "one modeled `execute` span per device per step"
    );
    let shared_attn_spans = spans
        .iter()
        .filter(|s| s.name == "shared_attn" && s.domain == ClockDomain::Wall)
        .count();
    assert_eq!(
        shared_attn_spans, summary.shared_attn_groups,
        "one wall `shared_attn` span per cascade group unit executed"
    );

    // --- export -------------------------------------------------------
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&out_dir).expect("create target dir");
    let trace_path = out_dir.join("trace_demo.trace.json");
    let events_path = out_dir.join("trace_demo.events.jsonl");
    std::fs::write(&trace_path, tracer.chrome_trace_json()).expect("write trace");
    std::fs::write(&events_path, events.to_jsonl()).expect("write event log");

    println!(
        "steps {}  completed {}/{}  preemptions {}  resumes {}  forks {}  tokens {}",
        summary.steps,
        summary.completed,
        submitted,
        summary.preemptions,
        summary.resumes,
        summary.forks,
        slo.tokens
    );
    println!(
        "cascade: {} group units over {} steps, {} prefix pages not re-walked",
        summary.shared_attn_groups, shared_attn_steps, summary.prefix_pages_walked_saved
    );
    println!(
        "radix cache: {} hits {} misses, {} pages / {} KiB adopted, {} subtrees evicted",
        summary.prefix_cache_hits,
        summary.prefix_cache_misses,
        summary.prefix_pages_reused,
        summary.prefix_bytes_reused / 1024,
        summary.prefix_subtrees_evicted,
    );
    println!("ttft  (steps)  {}", fmt_q(&slo.ttft_steps));
    println!("tbt   (steps)  {}", fmt_q(&slo.tbt_steps));
    println!("queue (steps)  {}", fmt_q(&slo.queue_wait_steps));
    println!("goodput tok/s  {}", fmt_q(&slo.goodput_tok_s));
    println!(
        "\n{} spans ({} wall `step`, {} modeled `execute`, {} wall `shared_attn`), {} log events",
        spans.len(),
        wall_steps,
        modeled_exec,
        shared_attn_spans,
        events.recorded()
    );
    println!("trace written to  {}", trace_path.display());
    println!("events written to {}", events_path.display());
    println!("open the trace at https://ui.perfetto.dev (drag and drop the file)");
    println!("\nOK: spans, events, metrics, and SLO histograms reconcile with ServeSummary");
}
