//! `compare A B`: verdicts per (end-to-end metric, workload) between two
//! sets of runs.
//!
//! `A` and `B` are files written by `--append`: one JSON object per run
//! (the driver's result line plus `workload`, `seed` and `trace`). The
//! bounds are `BENCHMARK.json`'s. For every pairing that has runs on both
//! sides the verdict is one of
//!
//! * `within-bound` — `B`'s median is within the metric's bound of `A`'s;
//! * `better` / `worse` — it moved past the bound, in that direction;
//! * `unresolved` — either side's run-to-run spread (IQR ÷ median) is
//!   wider than the bound *and* the two sets of runs overlap, so the
//!   medians cannot be told apart — reported as such, never as unchanged;
//! * `same` / `CHANGED` — for the metrics that must repeat exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::adapter::json_parse;
use crate::gen::WORKLOADS;
use crate::metrics::{tables, Better, Metric};
use crate::stats::summarize;

/// `workload → metric → one value per run`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses an `--append` file's text; traced runs are skipped (their
/// metrics are per-layer and unbounded).
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let doc = json_parse(line).map_err(|e| bad(&e.to_string()))?;
        if doc.get("trace").and_then(|t| t.as_f64()) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or_else(|| bad("no workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or_else(|| bad("no metrics"))?;
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| bad("metric without a value"))?;
            slot.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

fn range(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The verdict for one metric on one workload, with the numbers behind it.
pub fn verdict(def: &Metric, a: &[f64], b: &[f64]) -> (&'static str, String) {
    let (Some(sa), Some(sb)) = (summarize(a), summarize(b)) else {
        return ("no-runs", String::new());
    };
    // Positive = B is worse than A, as a share of A's median.
    let change = match def.better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let detail = format!(
        "A {:.6} (spread {:.1}%, n={})  B {:.6} (spread {:.1}%, n={})  worse by {:+.1}% (bound {:.0}%)",
        sa.median,
        sa.spread() * 100.0,
        sa.n,
        sb.median,
        sb.spread() * 100.0,
        sb.n,
        change * 100.0,
        bound * 100.0,
    );
    if def.exact() {
        let same = a.iter().chain(b).all(|&x| x == a[0]);
        return (if same { "same" } else { "CHANGED" }, detail);
    }
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let label = if sa.spread().max(sb.spread()) > bound && overlap {
        "unresolved"
    } else if change > bound {
        "worse"
    } else if change < -bound {
        "better"
    } else {
        "within-bound"
    };
    (label, detail)
}

/// Renders the comparison; the flag is `true` when anything is `worse`,
/// `CHANGED` or `unresolved`.
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    let empty = BTreeMap::new();
    for workload in WORKLOADS {
        let (ma, mb) = (
            a.get(workload).unwrap_or(&empty),
            b.get(workload).unwrap_or(&empty),
        );
        if ma.is_empty() && mb.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{workload}");
        for def in &tables().end_to_end {
            let none = Vec::new();
            let (label, detail) = verdict(
                def,
                ma.get(&def.name).unwrap_or(&none),
                mb.get(&def.name).unwrap_or(&none),
            );
            flagged |= matches!(label, "worse" | "CHANGED" | "unresolved");
            let _ = writeln!(out, "  {:<20} {:<13} {detail}", def.name, label);
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_direction() {
        // Lower is better; the verdicts below hold for any bound of 5-25 %.
        let tbt = tables().metric("tbt_ms_p50").unwrap();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(tbt, &a, &[103.0, 104.0, 102.0, 103.5, 102.5]).0,
            "within-bound"
        );
        assert_eq!(
            verdict(tbt, &a, &[130.0, 131.0, 129.0, 130.5, 129.5]).0,
            "worse"
        );
        assert_eq!(
            verdict(tbt, &a, &[70.0, 71.0, 69.0, 70.5, 69.5]).0,
            "better"
        );
        // Wide spread and overlapping runs: cannot tell.
        let noisy = [55.0, 145.0, 95.0, 100.0, 130.0];
        assert_eq!(verdict(tbt, &a, &noisy).0, "unresolved");
        // Wide spread but every run of B is slower than every run of A.
        assert_eq!(
            verdict(tbt, &a, &[150.0, 210.0, 160.0, 260.0, 170.0]).0,
            "worse"
        );
        let tok = tables().metric("out_tok_s").unwrap(); // higher is better
        assert_eq!(verdict(tok, &a, &[70.0, 71.0, 69.0, 70.5, 69.5]).0, "worse");
        let pages = tables().metric("peak_pages").unwrap(); // exact
        assert_eq!(verdict(pages, &[160.0, 160.0], &[160.0, 160.0]).0, "same");
        assert_eq!(
            verdict(pages, &[160.0, 160.0], &[160.0, 161.0]).0,
            "CHANGED"
        );
        assert_eq!(verdict(pages, &[], &[160.0]).0, "no-runs");
    }

    #[test]
    fn append_files_parse_and_compare() {
        let line = |w: &str, trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": {trace}, \"correct\": true, \
                 \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"tbt_ms_p50\": {{\"value\": {v:?}, \"unit\": \"ms\"}}}}}}"
            )
        };
        let a = [
            line("long_ctx_solo", 0, 100.0),
            line("long_ctx_solo", 0, 101.0),
            line("long_ctx_solo", 1, 5.0),
        ]
        .join("\n");
        let b = [
            line("long_ctx_solo", 0, 130.0),
            line("long_ctx_solo", 0, 131.0),
        ]
        .join("\n");
        let (ra, rb) = (parse_runs(&a).unwrap(), parse_runs(&b).unwrap());
        assert_eq!(ra["long_ctx_solo"]["tbt_ms_p50"], [100.0, 101.0]);
        let (text, flagged) = compare(&ra, &rb);
        assert!(flagged);
        assert!(
            text.contains("tbt_ms_p50") && text.contains("worse"),
            "{text}"
        );
        assert!(!compare(&ra, &ra).1);
        assert!(parse_runs("{not json").is_err());
    }
}
