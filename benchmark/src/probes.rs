//! Direct layer probes, the host memory-bandwidth probe, and provenance.
//!
//! A probe times one public function of one crate on a fixed shape
//! (`adapter::build_probes` owns the shapes and the calls). Each runs
//! once to warm up and then [`RUNS`] times; the metric is the median run
//! divided by the work items a run covers, reported with its IQR and `n`
//! like every other timing. The derived `core.attend_fused_*` figures
//! place the packed kernel against its parts (`decode_block_fused`) and
//! against a measured copy bandwidth — bytes are *computed* from block
//! sizes, not counted by hardware.

use std::process::Command;
use std::time::Instant;

use crate::adapter::{build_probes, PROBE_READ_TOKENS};
use crate::metrics::tables;
use crate::report::Reported;
use crate::stats::{summarize, Summary};
use crate::trace::Recorder;

/// Timed runs per probe (after one warm-up run).
const RUNS: usize = 7;

/// A probe figure: the median of its timed runs with their spread, or an
/// exact / derived figure (`summary` = `None`).
fn reported(name: &'static str, value: f64, summary: Option<Summary>) -> Reported {
    Reported {
        name,
        value,
        iqr: summary.map(|s| s.iqr()),
        n: summary.map_or(1, |s| s.n),
        note: String::new(),
    }
}

/// Copies 256 MiB a few times; the median rate in GB/s is the memory
/// roof the kernel figures are placed against.
fn memcpy_gb_per_s() -> (f64, Summary) {
    const BYTES: usize = 256 << 20;
    let src = vec![0x5Au8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut rates = Vec::with_capacity(RUNS);
    for run in 0..=RUNS {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        let dt = t.elapsed().as_secs_f64();
        // Run 0 faults the pages in.
        if run > 0 {
            rates.push(BYTES as f64 / dt / 1e9);
        }
    }
    let s = summarize(&rates).expect("RUNS > 0");
    (s.median, s)
}

/// Runs every probe. `rec` gets one span per probe (under a `probes`
/// root), so the trace shows what the probe phase cost.
pub fn run_probes(rec: &mut Recorder) -> Vec<Reported> {
    let root = rec.open("probes", None, None);
    let build = rec.open("build_probes", root, None);
    let (probes, constants) = build_probes();
    rec.close(build);

    let mut out: Vec<Reported> = Vec::new();
    for mut probe in probes {
        let def = tables()
            .metric(probe.metric)
            .unwrap_or_else(|| panic!("probe {} is not in BENCHMARK.json", probe.metric));
        let to_unit = match def.unit.as_str() {
            "ns" => 1e9,
            "us" => 1e6,
            other => panic!("probe {} has non-time unit {other}", probe.metric),
        };
        let span = rec.open(probe.metric, root, None);
        (probe.run)();
        let samples: Vec<f64> = (0..RUNS)
            .map(|_| (probe.run)().as_secs_f64() * to_unit / probe.per_run)
            .collect();
        rec.close(span);
        let s = summarize(&samples).expect("RUNS > 0");
        out.push(reported(probe.metric, s.median, Some(s)));
    }

    let span = rec.open("host.memcpy_gb_per_s", root, None);
    let (memcpy, memcpy_summary) = memcpy_gb_per_s();
    rec.close(span);
    rec.close(root);

    let value_of = |name: &str| -> f64 {
        out.iter()
            .find(|p| p.name == name)
            .map_or(f64::NAN, |p| p.value)
    };
    let attend = value_of("core.attend_fused_ns_per_tok.kc4");
    let decode = value_of("core.decode_block_fused_ns_per_tok.kc4");
    // Computed bytes per second: (packed payload + metadata of the blocks
    // the probe walked) ÷ the time one walk took.
    let mb_per_s =
        constants.attend_fused_bytes_kc4 / (attend * 1e-9 * PROBE_READ_TOKENS as f64) / 1e6;
    let exact = [
        ("core.attend_fused_dequant_share.kc4", decode / attend),
        ("core.attend_fused_mb_per_s.kc4", mb_per_s),
        ("core.attend_fused_roof_frac.kc4", mb_per_s / (memcpy * 1e3)),
        (
            "core.dequant_ops_per_tok.kc4",
            constants.dequant_ops_per_tok[0],
        ),
        (
            "core.dequant_ops_per_tok.kc2",
            constants.dequant_ops_per_tok[1],
        ),
        (
            "kvcache.resident_bytes_per_head_tok.kc4",
            constants.resident_bytes_per_head_tok[0],
        ),
        (
            "kvcache.resident_bytes_per_head_tok.kc2",
            constants.resident_bytes_per_head_tok[1],
        ),
        ("host.nproc", nproc() as f64),
    ];
    out.extend(
        exact
            .into_iter()
            .map(|(name, value)| reported(name, value, None)),
    );
    out.push(reported(
        "host.memcpy_gb_per_s",
        memcpy,
        Some(memcpy_summary),
    ));
    out
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `unknown` when there is no `rustc` to ask.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` beside the benchmark
/// directory; `unknown` in an exported tree.
pub fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |rel: &str| std::fs::read_to_string(format!("{git}/{rel}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
