//! Named metrics registry: counters and gauges.
//!
//! A deliberately small, deterministic registry: names are `&'static
//! str`, storage is `BTreeMap` so iteration order is
//! alphabetical and stable across runs. The registry is owned by one
//! writer (the serve session) — no interior mutability, no atomics —
//! which keeps the mutation paths branch-plus-BTreeMap-lookup cheap and
//! the whole structure trivially clonable for snapshots.

use std::collections::BTreeMap;

/// Registry of named counters (monotone u64) and gauges (last-set f64).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = MetricsRegistry::new();
        r.inc("serve.admitted", 3);
        r.inc("serve.admitted", 2);
        r.set_gauge("serve.pages_free", 17.0);
        assert_eq!(r.counter("serve.admitted"), 5);
        assert_eq!(r.counter("never.touched"), 0);
        assert_eq!(r.gauge("serve.pages_free"), Some(17.0));
    }
}
