//! `bd-benchmark` — the repository's benchmark. See `README.md`.
//!
//! ```text
//! bd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--scale full|tiny] [--append <file>]
//! bd-benchmark compare <A> <B>
//! ```

mod adapter;
mod compare;
mod gen;
mod metrics;
mod probes;
mod report;
mod runner;
#[cfg(test)]
mod smoke;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;

use gen::{Scale, WorkloadSpec, WORKLOADS};
use report::Reported;
use runner::Pass;
use trace::Recorder;

/// Fewest passes a `--trace 0` run makes, however short `--seconds` is:
/// `setup_s` is then a median of at least this many set-ups, and a tail
/// metric's guaranteed reading count (which fixes the percentile it reads,
/// see `stats::supported_percentile`) is this many passes' worth.
pub const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    append: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: bd-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale full|tiny] [--append <file>]\n       \
         bd-benchmark compare <A> <B>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        append: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--append" => args.append = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Seconds from the first `step()` to the drain.
fn measured_s(pass: &Pass) -> f64 {
    match (pass.steps.first(), pass.steps.last()) {
        (Some(a), Some(b)) => b.end_s - a.start_s,
        _ => 0.0,
    }
}

fn one_pass(spec: &WorkloadSpec, rec: &mut Recorder) -> Pass {
    let root = rec.open("pass", None, None);
    let prepared = runner::prepare(spec, rec, root);
    let pass = runner::drive(spec, prepared, rec, root);
    rec.close(root);
    pass
}

/// What a run measured, before the output check.
struct Measured {
    /// Passes with tracing off, in order.
    untraced: Vec<Pass>,
    /// Passes with tracing on (`--trace 1` only).
    traced: Vec<Pass>,
    rows: Vec<Reported>,
    /// Spans dropped by the program's tracer (must stay 0).
    dropped: u64,
}

/// `--trace 0`: whole passes (at least [`MIN_PASSES`]) until `seconds` of
/// stepping are on the clock, then the end-to-end metrics.
fn measure_end_to_end(spec: &WorkloadSpec, seconds: f64) -> Measured {
    let mut rec = Recorder::new(false);
    let mut passes = Vec::new();
    let mut spent = 0.0;
    while passes.len() < MIN_PASSES || spent < seconds {
        let pass = one_pass(spec, &mut rec);
        spent += measured_s(&pass);
        passes.push(pass);
    }
    let rows = report::end_to_end(spec, &passes, MIN_PASSES);
    Measured {
        untraced: passes,
        traced: Vec::new(),
        rows,
        dropped: 0,
    }
}

/// Fewest untraced/traced pairs a `--trace 1` run makes: two untraced
/// passes' worth of steps fix what `serve.step_ms_p99` reads, and
/// `obs.trace_overhead_frac` never rests on a single pair.
pub const MIN_TRACE_PAIRS: usize = 2;

/// `--trace 1`: the direct probes, then untraced and traced passes in
/// alternation (so drift hits both alike; at least [`MIN_TRACE_PAIRS`])
/// until `seconds` of stepping are on the clock; writes the merged trace
/// of the last traced pass.
fn measure_per_layer(spec: &WorkloadSpec, seconds: f64) -> std::io::Result<Measured> {
    let mut on = Recorder::new(true);
    let mut off = Recorder::new(false);
    let mut rows = probes::run_probes(&mut on);
    // Alternate which side goes first (untraced-traced, traced-untraced,
    // ...) so a drifting host slows both sides alike.
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    while untraced.len() < MIN_TRACE_PAIRS || spent < seconds {
        let traced_first = untraced.len() % 2 == 1;
        for tracing in [traced_first, !traced_first] {
            let pass = one_pass(spec, if tracing { &mut on } else { &mut off });
            spent += measured_s(&pass);
            if tracing { &mut traced } else { &mut untraced }.push(pass);
        }
    }
    let last = traced.last();
    let workers = spec.devices * spec.workers_per_device;
    let shares = last.map_or_else(Default::default, |p| {
        let steady: Vec<bool> = p.steps.iter().map(|s| s.steady()).collect();
        let spans = p.session_trace.as_ref().map_or(&[][..], |t| &t.spans);
        trace::step_shares(spans, workers, &steady)
    });
    let last = last.and_then(|p| p.session_trace.as_ref());
    let dropped = traced
        .iter()
        .filter_map(|p| p.session_trace.as_ref())
        .map(|t| t.dropped)
        .sum();

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}.trace.json", spec.name);
    std::fs::write(&path, trace::chrome_trace(on.spans(), last))?;
    println!("trace: {path} (load in ui.perfetto.dev or chrome://tracing)");

    rows.extend(report::run_counters(
        spec,
        &untraced,
        &traced,
        shares,
        MIN_TRACE_PAIRS,
    ));
    // Print in table order, whatever order the figures were produced in.
    let mut ordered = Vec::with_capacity(rows.len());
    for def in &metrics::tables().per_layer {
        match rows.iter().find(|r| r.name == def.name) {
            Some(r) => ordered.push(r.clone()),
            None => panic!("per-layer metric {} was not produced", def.name),
        }
    }
    Ok(Measured {
        untraced,
        traced,
        rows: ordered,
        dropped,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = gen::workload(&args.workload, args.scale, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    println!(
        "workload {} seed {} requests {} | host: {} cpus, {} worker threads, {}, git {}",
        spec.name,
        args.seed,
        spec.requests.len(),
        probes::nproc(),
        spec.devices * spec.workers_per_device,
        probes::rustc_version(),
        probes::git_rev(),
    );
    let m = if args.trace {
        measure_per_layer(&spec, args.seconds).map_err(|e| format!("writing the trace: {e}"))?
    } else {
        measure_end_to_end(&spec, args.seconds)
    };

    // The output check, untimed: sampled streams against the contiguous
    // oracle, every other pass bit-for-bit against the first.
    let first = &m.untraced[0];
    let sample = runner::verification_sample(first, args.seed);
    let mismatched = runner::verify_against_oracle(&spec, first, &sample);
    let all = || m.untraced.iter().chain(&m.traced);
    let incomplete: usize = all().map(runner::incomplete).sum();
    let diverged: usize = all().skip(1).map(|p| runner::diverged(first, p)).sum();
    let attempted = all().count() * spec.requests.len();
    let failed = (incomplete + mismatched.len() + diverged).min(attempted);
    let finite = m.rows.iter().all(|r| r.value.is_finite());
    let correct = failed == 0 && m.dropped == 0 && finite;

    print!("{}", report::table(&m.rows));
    println!(
        "passes {} | requests attempted {attempted} | refused/failed/unfinished {incomplete} | \
         oracle-mismatched {} of {} sampled {:?} | diverged between passes {diverged} | spans dropped {}",
        all().count(),
        mismatched.len(),
        sample.len(),
        mismatched,
        m.dropped,
    );
    let line = report::result_json(correct, attempted, failed, &m.rows);
    if let Some(path) = &args.append {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}\n",
            spec.name,
            args.seed,
            u8::from(args.trace),
            &line[1..],
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    println!("{line}");
    Ok(correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, flagged) = compare::compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(!flagged)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => run_compare(a, b),
        _ => parse_args(&argv)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
