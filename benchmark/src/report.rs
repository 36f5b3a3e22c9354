//! Turns recorded passes into named metrics and prints them.
//!
//! Two outputs per run: a table for people (name, unit, value, IQR,
//! sample count, a note saying which percentile a tail metric reads on
//! this workload) and, as the last line of standard output, the one-line
//! JSON object the acceptance driver reads.

use std::fmt::Write as _;

use crate::adapter::json_escape;
use crate::gen::{WorkloadSpec, PAGE_TOKENS};
use crate::metrics::tables;
use crate::runner::Pass;
use crate::stats::{median, percentile, summarize, supported_percentile};
use crate::trace::StepShares;

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// The value that goes into the JSON line.
    pub value: f64,
    /// IQR of the samples behind it, in the metric's unit.
    pub iqr: Option<f64>,
    /// Samples behind it (for a latency metric: passes, see `over_passes`).
    pub n: usize,
    /// Anything the reader should know (the percentile a tail metric reads).
    pub note: String,
}

/// A figure with no spread of its own: an exact count, or a ratio of sums.
fn figure(name: &'static str, value: f64) -> Reported {
    Reported {
        name,
        value,
        iqr: None,
        n: 1,
        note: String::new(),
    }
}

/// Median of `samples` with its spread.
fn from_samples(name: &'static str, samples: &[f64]) -> Reported {
    let s = summarize(samples);
    Reported {
        name,
        value: s.map_or(0.0, |s| s.median),
        iqr: s.map(|s| s.iqr()),
        n: samples.len(),
        note: String::new(),
    }
}

/// A latency metric: the median over passes of each pass's `q`-quantile
/// of `samples(pass)`, with the spread between passes. Per pass and not
/// pooled, because a neighbour on the host slows whole passes: pooled,
/// one slow pass in three owns the upper tail and shifts the median.
fn over_passes(
    name: &'static str,
    passes: &[Pass],
    samples: fn(&Pass) -> Vec<f64>,
    q: f64,
    note: String,
) -> Reported {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(samples)
        .filter(|s| !s.is_empty())
        .map(|s| percentile(&s, q))
        .collect();
    Reported {
        note,
        ..from_samples(name, &per_pass)
    }
}

/// The percentile a tail metric named for `p` reads — what
/// [`supported_percentile`] allows given the `readings` the workload
/// guarantees, whatever the sample turned out to hold — and the note that
/// says so when it is not `p`.
fn tail(p: f64, readings: usize) -> (f64, String) {
    let q = supported_percentile(p, readings);
    let note = if q == p {
        String::new()
    } else {
        format!(
            "reads p{:.0} on this workload: it guarantees {readings} distinct readings",
            q * 100.0
        )
    };
    (q, note)
}

fn tokens(pass: &Pass) -> usize {
    pass.requests.iter().map(|r| r.stream.len()).sum()
}

fn step_wall_total(pass: &Pass) -> f64 {
    pass.steps.iter().map(|s| s.wall_s()).sum()
}

/// Time to first token of every request of a pass that produced one, ms,
/// counted from when the request was due.
fn ttft_ms(pass: &Pass) -> Vec<f64> {
    pass.requests
        .iter()
        .filter_map(|r| Some((r.token_times_s.first()? - r.due_s?) * 1e3))
        .collect()
}

/// Gaps between consecutive tokens of one request, ms, over a pass.
fn tbt_ms(pass: &Pass) -> Vec<f64> {
    pass.requests
        .iter()
        .flat_map(|r| r.token_times_s.windows(2).map(|w| (w[1] - w[0]) * 1e3))
        .collect()
}

/// External wall time of every step of a pass, ms.
fn step_ms(pass: &Pass) -> Vec<f64> {
    pass.steps.iter().map(|s| s.wall_s() * 1e3).collect()
}

/// The same for the steps that admitted or resumed a sequence.
fn admit_step_ms(pass: &Pass) -> Vec<f64> {
    let admitting = |s: &&crate::runner::StepRecord| s.sample.admitted + s.sample.resumed > 0;
    pass.steps
        .iter()
        .filter(admitting)
        .map(|s| s.wall_s() * 1e3)
        .collect()
}

/// The end-to-end metrics, in table order. `min_passes` is the pass count
/// a run guarantees, which with the workload's shape fixes the percentile
/// each tail metric reads.
pub fn end_to_end(spec: &WorkloadSpec, passes: &[Pass], min_passes: usize) -> Vec<Reported> {
    let setups_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let out_tok_s: Vec<f64> = passes
        .iter()
        .filter_map(|p| {
            let wall = p.steps.last()?.end_s - p.steps.first()?.start_s;
            Some(tokens(p) as f64 / wall)
        })
        .collect();
    let kv_tok_s: Vec<f64> = passes
        .iter()
        .map(|p| {
            let steady = || p.steps.iter().filter(|s| s.steady());
            let kv: usize = steady().map(|s| s.sample.kv_tokens).sum();
            kv as f64 / steady().map(|s| s.wall_s()).sum::<f64>()
        })
        .collect();
    let peak_pages = passes
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.sample.physical_pages)
        .max()
        .unwrap_or(0);
    // Simulated GPU time per generated token: identical in every pass.
    let modeled_us_per_tok = passes.first().map_or(0.0, |p| {
        let modeled: f64 = p
            .steps
            .iter()
            .map(|s| {
                s.sample.modeled_step_s + s.sample.modeled_interconnect_s + s.sample.modeled_swap_s
            })
            .sum();
        modeled * 1e6 / tokens(p) as f64
    });
    let (ttft_q, ttft_note) = tail(0.90, spec.ttft_readings() * min_passes);
    let (tbt_q, tbt_note) = tail(0.99, spec.tbt_readings() * min_passes);
    let out = vec![
        from_samples("setup_s", &setups_s),
        from_samples("out_tok_s", &out_tok_s),
        from_samples("kv_tok_s", &kv_tok_s),
        over_passes("ttft_ms_p50", passes, ttft_ms, 0.5, String::new()),
        over_passes("ttft_ms_p90", passes, ttft_ms, ttft_q, ttft_note),
        over_passes("tbt_ms_p50", passes, tbt_ms, 0.5, String::new()),
        over_passes("tbt_ms_p99", passes, tbt_ms, tbt_q, tbt_note),
        figure("peak_pages", peak_pages as f64),
        figure("modeled_us_per_tok", modeled_us_per_tok),
    ];
    debug_assert!(out
        .iter()
        .map(|r| r.name)
        .eq(tables().end_to_end.iter().map(|m| m.name.as_str())));
    out
}

/// Per-layer figures read off the passes themselves: the program's exact
/// step counters (from the first pass — they repeat) and external step
/// timing (over the untraced passes; `min_untraced` is how many a traced
/// run guarantees, which fixes what `serve.step_ms_p99` reads).
pub fn run_counters(
    spec: &WorkloadSpec,
    untraced: &[Pass],
    traced: &[Pass],
    shares: StepShares,
    min_untraced: usize,
) -> Vec<Reported> {
    let first = &untraced[0];
    let steps = first.steps.len().max(1) as f64;
    let sum = |f: &dyn Fn(&crate::adapter::StepSample) -> f64| -> f64 {
        first.steps.iter().map(|s| f(&s.sample)).sum()
    };
    // Token slots in use ÷ token slots reserved, over steps in which
    // nothing retired (a retiring step frees pages before they are
    // counted). Every device holds every token of its own heads.
    let (used, reserved) =
        first
            .steps
            .iter()
            .filter(|s| s.sample.completed == 0)
            .fold((0.0, 0.0), |(u, r), s| {
                (
                    u + ((s.sample.kv_tokens + s.sample.batch) * spec.devices) as f64,
                    r + (s.sample.logical_pages * PAGE_TOKENS) as f64,
                )
            });
    let queue_wait: Vec<f64> = first
        .requests
        .iter()
        .zip(&spec.requests)
        .filter_map(|(r, req)| Some((r.first_token_step? - req.arrival_step) as f64))
        .collect();
    let saved = sum(&|s| s.prefix_pages_walked_saved as f64);
    let walked = sum(&|s| s.walked_tokens as f64) / PAGE_TOKENS as f64;
    let (step_q, step_note) = tail(0.99, spec.tbt_readings() * min_untraced);
    let submit_us: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.submit_us.iter().copied())
        .collect();
    let wall_over_modeled: Vec<f64> = untraced
        .iter()
        .map(|p| step_wall_total(p) / p.steps.iter().map(|s| s.sample.modeled_step_s).sum::<f64>())
        .collect();
    let modeled_step_us: Vec<f64> = first
        .steps
        .iter()
        .map(|s| s.sample.modeled_step_s * 1e6)
        .collect();
    let wall = |passes: &[Pass]| median(&passes.iter().map(step_wall_total).collect::<Vec<_>>());
    let overhead = if traced.is_empty() {
        0.0
    } else {
        wall(traced) / wall(untraced) - 1.0
    };
    vec![
        figure(
            "core.dequant_ops_per_step",
            sum(&|s| s.dequant_ops as f64) / steps,
        ),
        figure(
            "kvcache.peak_logical_pages",
            first
                .steps
                .iter()
                .map(|s| s.sample.logical_pages)
                .max()
                .unwrap_or(0) as f64,
        ),
        figure(
            "kvcache.page_fill_frac",
            if reserved > 0.0 { used / reserved } else { 0.0 },
        ),
        figure("kvcache.prefix_cache_hits", sum(&|s| s.prefix_hits as f64)),
        figure(
            "kvcache.prefix_cache_misses",
            sum(&|s| s.prefix_misses as f64),
        ),
        figure(
            "kvcache.prefix_pages_reused",
            sum(&|s| s.prefix_pages_reused as f64),
        ),
        figure(
            "kvcache.prefix_subtrees_evicted",
            sum(&|s| s.prefix_subtrees_evicted as f64),
        ),
        figure("kvcache.cow_breaks", first.cow_breaks as f64),
        figure(
            "kvcache.swap_mib",
            sum(&|s| s.swap_bytes) / (1u64 << 20) as f64,
        ),
        figure("serve.steps", first.steps.len() as f64),
        figure("serve.batch_mean", sum(&|s| s.batch as f64) / steps),
        figure("serve.units_per_step", sum(&|s| s.units as f64) / steps),
        figure("serve.preemptions", sum(&|s| s.preempted as f64)),
        figure("serve.resumes", sum(&|s| s.resumed as f64)),
        from_samples("serve.queue_wait_steps_p50", &queue_wait),
        // An exact count off a deterministic schedule, not a noisy timing:
        // its p90 needs no readings beyond it to repeat.
        figure("serve.queue_wait_steps_p90", percentile(&queue_wait, 0.90)),
        figure(
            "serve.shared_attn_groups",
            sum(&|s| s.shared_attn_groups as f64),
        ),
        figure(
            "serve.prefix_walk_saved_frac",
            if saved + walked > 0.0 {
                saved / (saved + walked)
            } else {
                0.0
            },
        ),
        over_passes("serve.step_ms_p50", untraced, step_ms, 0.5, String::new()),
        over_passes("serve.step_ms_p99", untraced, step_ms, step_q, step_note),
        over_passes(
            "serve.admit_step_ms_p50",
            untraced,
            admit_step_ms,
            0.5,
            String::new(),
        ),
        from_samples("serve.submit_us_p50", &submit_us),
        from_samples("serve.wall_over_modeled", &wall_over_modeled),
        figure("serve.admission_share", shares.admission),
        figure("serve.fan_out_share", shares.fan_out),
        figure("serve.steady_fan_out_share", shares.steady_fan_out),
        figure("serve.merge_share", shares.merge),
        figure("serve.append_share", shares.append),
        figure("serve.other_share", shares.other),
        figure("serve.worker_busy_frac", shares.worker_busy),
        from_samples("gpu-sim.modeled_step_us_p50", &modeled_step_us),
        figure(
            "gpu-sim.modeled_interconnect_us_total",
            sum(&|s| s.modeled_interconnect_s * 1e6),
        ),
        figure(
            "gpu-sim.modeled_swap_us_total",
            sum(&|s| s.modeled_swap_s * 1e6),
        ),
        figure("obs.trace_overhead_frac", overhead),
        figure(
            "host.worker_threads",
            (spec.devices * spec.workers_per_device) as f64,
        ),
    ]
}

/// A metric's unit and direction, from `BENCHMARK.json`.
fn unit_and_direction(name: &str) -> (&'static str, &'static str) {
    let m = tables()
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is reported but not in BENCHMARK.json"));
    (&m.unit, m.better.as_str())
}

/// The table for people.
pub fn table(rows: &[Reported]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>16} {:<11} {:<7} {:>14} {:>7}",
        "metric", "value", "unit", "better", "IQR", "n"
    );
    for r in rows {
        let (unit, better) = unit_and_direction(r.name);
        let iqr = r.iqr.map_or_else(|| "-".to_string(), |i| format!("{i:.6}"));
        let _ = writeln!(
            out,
            "{:<44} {:>16.6} {:<11} {:<7} {:>14} {:>7}{}{}",
            r.name,
            r.value,
            unit,
            better,
            iqr,
            r.n,
            if r.note.is_empty() { "" } else { "  # " },
            r.note,
        );
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Values print with every digit `f64` round-trips.
pub fn result_json(correct: bool, attempted: usize, failed: usize, rows: &[Reported]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN/Infinity; a metric that failed to compute must
        // still leave the line parseable (and the run is marked failed by
        // the caller).
        let value = if r.value.is_finite() { r.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            json_escape(r.name),
            json_escape(unit_and_direction(r.name).0),
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json_parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rows = [
            figure("peak_pages", 160.0),
            figure("setup_s", 0.812_345_678_9),
        ];
        let line = result_json(true, 16, 0, &rows);
        assert!(!line.contains('\n'));
        let doc = json_parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.812_345_678_9));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            m.get("peak_pages").unwrap().get("unit").unwrap().as_str(),
            Some("pages")
        );
    }
}
