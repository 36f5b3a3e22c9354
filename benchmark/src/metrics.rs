//! The metric tables: every name the benchmark prints, with its unit and
//! direction — and, for end-to-end metrics, the regression bound.
//!
//! They are read from `../BENCHMARK.json` (compiled in), the one place a
//! name, unit, direction or bound is written down: the acceptance driver,
//! the printed table, the result line and `compare` all see the same
//! values.

use std::sync::OnceLock;

use crate::adapter::{json_parse, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics that are counts or simulated times and must repeat
/// exactly from run to run: `compare` flags any change at all, whatever
/// the (small, driver-facing) bound says.
const EXACT: [&str; 2] = ["peak_pages", "modeled_us_per_tok"];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name; for a per-layer metric the part before the first `.`
    /// is the layer (crate).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: share of the parent's median by which the
    /// metric may worsen.
    pub bound: Option<f64>,
}

impl Metric {
    /// `true` for the metrics that must repeat exactly (see [`EXACT`]).
    pub fn exact(&self) -> bool {
        EXACT.contains(&self.name.as_str())
    }
}

/// `BENCHMARK.json`, as far as the benchmark itself needs it.
#[derive(Debug)]
pub struct Tables {
    /// Measured with tracing off, bounded. Timings are host wall-clock;
    /// `modeled_*` is simulated GPU time — never compare the two.
    pub end_to_end: Vec<Metric>,
    /// Reported by the traced run, unbounded.
    pub per_layer: Vec<Metric>,
}

impl Tables {
    /// Looks a metric of either table up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

fn list<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing list {key:?}"))
}

fn metric(v: &JsonValue, bounded: bool) -> Result<Metric, String> {
    let name = text(v, "name")?.to_string();
    let better = match text(v, "better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("{name}: better = {other:?}")),
    };
    let bound = v.get("bound").and_then(JsonValue::as_f64);
    if bounded != bound.is_some() {
        return Err(format!("{name}: bound {bound:?}"));
    }
    Ok(Metric {
        unit: text(v, "unit")?.to_string(),
        name,
        better,
        bound,
    })
}

fn parse(json: &str) -> Result<Tables, String> {
    let doc = json_parse(json).map_err(|e| e.to_string())?;
    let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
        list(&doc, key)?
            .iter()
            .map(|m| metric(m, bounded))
            .collect()
    };
    Ok(Tables {
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

/// The tables of the `BENCHMARK.json` this binary was built beside.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_wellformed_name_unit_direction_and_bound() {
        let t = tables();
        let mut names: Vec<&str> = Vec::new();
        for m in &t.end_to_end {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(&m.unit), "{}: unit {}", m.name, m.unit);
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            names.push(&m.name);
        }
        for m in &t.per_layer {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(&m.unit), "{}: unit {}", m.name, m.unit);
            let layer = m.name.split('.').next().unwrap();
            assert!(
                ["lowbit", "core", "kvcache", "serve", "gpu-sim", "obs", "host"].contains(&layer),
                "{}: unknown layer",
                m.name
            );
            names.push(&m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
            names.push(w);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        // The set-up metric the driver insists on, with the widest bound.
        let setup = t.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(t.end_to_end.iter().all(|m| m.bound <= setup.bound));
        for name in EXACT {
            assert!(t.metric(name).is_some_and(|m| m.bound.is_some()), "{name}");
        }
    }

    #[test]
    fn benchmark_json_keeps_to_the_drivers_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let doc = json_parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths: Vec<&str> = list(&doc, "paths")
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        // The workloads the file names are the ones the generator builds.
        let workloads = list(&doc, "workloads").unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| text(w, "name").unwrap()).collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            let why = text(w, "why").unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert!(parse("{}").is_err());
    }
}
