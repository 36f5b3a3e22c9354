//! Smoke tests: every workload end to end at `--scale tiny`, through the
//! same code the measured runs use.

use std::time::Instant;

use crate::gen::{workload, Scale, WORKLOADS};
use crate::report::{end_to_end, run_counters, Reported};
use crate::runner::{diverged, incomplete, verification_sample, verify_against_oracle};
use crate::stats::supported_percentile;
use crate::trace::{step_shares, Recorder};
use crate::{measure_end_to_end, one_pass, MIN_PASSES};

/// Figures that must not differ between two runs of the same inputs.
const EXACT: &[&str] = &[
    "peak_pages",
    "modeled_us_per_tok",
    "core.dequant_ops_per_step",
    "kvcache.peak_logical_pages",
    "kvcache.page_fill_frac",
    "kvcache.prefix_cache_hits",
    "kvcache.prefix_cache_misses",
    "kvcache.prefix_pages_reused",
    "kvcache.prefix_subtrees_evicted",
    "kvcache.cow_breaks",
    "kvcache.swap_mib",
    "serve.steps",
    "serve.batch_mean",
    "serve.units_per_step",
    "serve.preemptions",
    "serve.resumes",
    "serve.queue_wait_steps_p50",
    "serve.queue_wait_steps_p90",
    "serve.shared_attn_groups",
    "serve.prefix_walk_saved_frac",
    "gpu-sim.modeled_step_us_p50",
    "gpu-sim.modeled_interconnect_us_total",
    "gpu-sim.modeled_swap_us_total",
];

fn value(rows: &[Reported], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("{name} was not reported"))
        .value
}

#[test]
fn every_workload_completes_and_checks_out_at_tiny_scale_in_under_two_seconds() {
    for name in WORKLOADS {
        let t = Instant::now();
        let spec = workload(name, Scale::Tiny, 5).unwrap();
        let pass = one_pass(&spec, &mut Recorder::new(false));
        assert_eq!(incomplete(&pass), 0, "{name}: a request did not finish");
        let sample = verification_sample(&pass, 5);
        assert!(!sample.is_empty());
        let bad = verify_against_oracle(&spec, &pass, &sample);
        assert!(
            bad.is_empty(),
            "{name}: streams {bad:?} differ from the contiguous oracle"
        );
        let rows = end_to_end(&spec, std::slice::from_ref(&pass), 1);
        for r in &rows {
            assert!(
                r.value.is_finite() && r.value > 0.0,
                "{name}: {} = {}",
                r.name,
                r.value
            );
        }
        assert!(
            t.elapsed().as_secs_f64() < 2.0,
            "{name}: tiny scale took {:?}",
            t.elapsed()
        );
    }
}

#[test]
fn exact_metrics_repeat_across_two_in_process_runs() {
    for name in WORKLOADS {
        let spec = workload(name, Scale::Tiny, 9).unwrap();
        let figures = || {
            let pass = one_pass(&spec, &mut Recorder::new(false));
            let mut rows = end_to_end(&spec, std::slice::from_ref(&pass), 1);
            rows.extend(run_counters(
                &spec,
                std::slice::from_ref(&pass),
                &[],
                Default::default(),
                1,
            ));
            (pass, rows)
        };
        let ((pass_a, a), (pass_b, b)) = (figures(), figures());
        assert_eq!(
            diverged(&pass_a, &pass_b),
            0,
            "{name}: streams differ between runs"
        );
        for &metric in EXACT {
            assert_eq!(
                value(&a, metric),
                value(&b, metric),
                "{name}: {metric} did not repeat"
            );
        }
    }
}

#[test]
fn the_workloads_exercise_what_they_claim_and_bypass_the_rest() {
    let counters = |name: &str| {
        let spec = workload(name, Scale::Tiny, 3).unwrap();
        let pass = one_pass(&spec, &mut Recorder::new(false));
        run_counters(
            &spec,
            std::slice::from_ref(&pass),
            &[],
            Default::default(),
            1,
        )
    };
    let short = counters("short_ctx_batch");
    assert_eq!(
        value(&short, "core.dequant_ops_per_step"),
        0.0,
        "short_ctx_batch walked a packed block"
    );
    assert_eq!(value(&short, "kvcache.prefix_pages_reused"), 0.0);
    let fleet = counters("shared_prefix_fleet");
    assert!(
        value(&fleet, "kvcache.prefix_pages_reused") > 0.0,
        "the fleet never hit the prefix cache"
    );
    assert!(
        value(&fleet, "serve.shared_attn_groups") > 0.0,
        "the fleet never formed a cascade group"
    );
    assert!(value(&fleet, "serve.prefix_walk_saved_frac") > 0.0);
    let bursty = counters("bursty_oversubscribed");
    assert!(
        value(&bursty, "serve.preemptions") > 0.0,
        "the bursty pool was never oversubscribed"
    );
    assert!(value(&bursty, "kvcache.swap_mib") > 0.0);
    assert!(value(&bursty, "gpu-sim.modeled_interconnect_us_total") > 0.0);
    let solo = counters("long_ctx_solo");
    for quiet in [
        "serve.preemptions",
        "serve.shared_attn_groups",
        "kvcache.swap_mib",
    ] {
        assert_eq!(value(&solo, quiet), 0.0, "long_ctx_solo: {quiet}");
    }
    assert!(value(&solo, "core.dequant_ops_per_step") > 0.0);
}

#[test]
fn a_traced_pass_accounts_for_the_whole_step_and_drops_nothing() {
    let spec = workload("bursty_oversubscribed", Scale::Tiny, 1).unwrap();
    let mut rec = Recorder::new(true);
    let pass = one_pass(&spec, &mut rec);
    let trace = pass
        .session_trace
        .as_ref()
        .expect("a recording pass carries the program's spans");
    assert_eq!(trace.dropped, 0);
    let steady: Vec<bool> = pass.steps.iter().map(|s| s.steady()).collect();
    let shares = step_shares(
        &trace.spans,
        spec.devices * spec.workers_per_device,
        &steady,
    );
    assert!(shares.steady_fan_out > 0.0 && shares.steady_fan_out < 1.0);
    let sum = shares.admission + shares.fan_out + shares.merge + shares.append + shares.other;
    assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    assert!(shares.worker_busy > 0.0 && shares.worker_busy <= 1.0 + 1e-9);
    // One benchmark span per call into the program.
    let named = |n: &str| rec.spans().iter().filter(|s| s.name == n).count();
    assert_eq!(named("submit_at"), spec.requests.len());
    assert_eq!(named("step"), pass.steps.len());
    assert!(rec
        .spans()
        .iter()
        .filter(|s| s.name == "submit_at")
        .all(|s| s.request.is_some()));
    // An untraced pass carries no spans at all.
    assert!(one_pass(&spec, &mut Recorder::new(false))
        .session_trace
        .is_none());
}

#[test]
fn a_zero_second_run_still_makes_the_guaranteed_passes() {
    let spec = workload("short_ctx_batch", Scale::Tiny, 2).unwrap();
    let m = measure_end_to_end(&spec, 0.0);
    assert_eq!(m.untraced.len(), MIN_PASSES);
    assert_eq!(m.rows[0].name, "setup_s");
    assert_eq!(m.rows[0].n, MIN_PASSES);
}

#[test]
fn each_tail_metric_reads_one_percentile_per_workload_fixed_by_its_shape() {
    // (ttft_ms_p90, tbt_ms_p99) as read on each workload at full scale.
    // Only the open-loop workload has tails of its own: the closed ones
    // admit everything in one step and then repeat one decode step.
    let expected = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.9, 0.99)];
    for (name, want) in WORKLOADS.into_iter().zip(expected) {
        // The shape, and so the percentile, must not follow the seed.
        for seed in [1, 2] {
            let spec = workload(name, Scale::Full, seed).unwrap();
            let got = (
                supported_percentile(0.9, spec.ttft_readings() * MIN_PASSES),
                supported_percentile(0.99, spec.tbt_readings() * MIN_PASSES),
            );
            assert_eq!(got, want, "{name}");
        }
    }
}
