//! Declarative fleet topologies: islands, tiered links, and the
//! hierarchical collective pricing the serve cost model consumes.
//!
//! A `.topo` file describes a fleet with the same `key = value` section
//! format as `.devspec` profiles ([`crate::spec`]):
//!
//! ```text
//! [topology]
//! name = mixed_h100_a100
//! cross_link = ib
//! host_link = pcie
//!
//! [link nvlink]
//! gbs = 450
//! latency_us = 3
//!
//! [link ib]
//! gbs = 50
//! latency_us = 5
//!
//! [link pcie]
//! gbs = 64
//! latency_us = 10
//!
//! [island pod0]
//! devices = h100, h100
//! link = nvlink
//! ```
//!
//! [`TopologySpec::parse`] produces the named form; [`Topology`] is the
//! resolved form (device names looked up against the shipped profiles or
//! a caller registry) that prices collectives:
//!
//! * **All-reduce** — reduce-scatter + all-gather ring inside each island
//!   over its intra link, and a ring exchange of the scattered shards
//!   across islands over the (typically slower) cross link, each phase
//!   paying its per-link hop-latency floor. The price is clamped from
//!   below by the ideal flat ring over the fleet's fastest link: a tiered
//!   fleet never beats a same-size single-switch island, so hierarchical
//!   ≥ flat by construction.
//! * **Swap** — path-resolved device→host: each device's share moves over
//!   its island's host link (or the topology default) in parallel, so the
//!   price is the slowest share.
//!
//! [`Topology::flat`] wraps a single [`InterconnectModel`] and delegates
//! to it verbatim — flat prices are **bit-for-bit** the legacy
//! `InterconnectModel` prices, so a flat fleet's modeled columns are what
//! they were before topologies existed.

use crate::arch::GpuArch;
use crate::cost::InterconnectModel;
use crate::spec::{builtin_device, parse_pos_f64, scan_sections, SpecError, SpecSection};
use std::fmt;

/// One island of a parsed [`TopologySpec`]: a named group of devices
/// joined by a fast intra-island link.
#[derive(Clone, Debug, PartialEq)]
pub struct IslandSpec {
    /// Island name (the `[island <name>]` header argument).
    pub name: String,
    /// Device profile names, in device-index order.
    pub devices: Vec<String>,
    /// Name of the intra-island link (must match a `[link]` section).
    pub link: String,
    /// Optional island-specific host link name; the topology default
    /// applies when absent.
    pub host: Option<String>,
}

/// A parsed (but unresolved) `.topo` document: links, islands, and the
/// topology-wide cross/host tier names. Device names are still strings —
/// [`TopologySpec::resolve`] turns them into [`GpuArch`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySpec {
    /// Fleet name.
    pub name: String,
    /// Named links, in file order.
    pub links: Vec<(String, InterconnectModel)>,
    /// Islands, in file order (device indices number islands first).
    pub islands: Vec<IslandSpec>,
    /// Link name priced for the cross-island exchange.
    pub cross_link: String,
    /// Default link name priced for device→host swap traffic.
    pub host_link: String,
}

impl TopologySpec {
    /// Parses a `.topo` document. Link references are checked here;
    /// device names are resolved later so a spec can be parsed without a
    /// device registry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpecError`] for syntax errors, unknown sections
    /// or keys, missing required keys/sections, non-positive bandwidths,
    /// and dangling link names.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let sections = scan_sections(text)?;
        let mut topo: Option<&SpecSection> = None;
        let mut links: Vec<(usize, String, InterconnectModel)> = Vec::new();
        let mut islands: Vec<(usize, IslandSpec)> = Vec::new();
        for s in &sections {
            match s.name.as_str() {
                "topology" => {
                    if topo.is_some() {
                        return Err(SpecError::UnknownSection {
                            line: s.line,
                            section: "topology (duplicate)".to_string(),
                        });
                    }
                    topo = Some(s);
                }
                "link" => {
                    if s.arg.is_empty() {
                        return Err(SpecError::Syntax {
                            line: s.line,
                            text: "[link] needs a name: [link <name>]".to_string(),
                        });
                    }
                    links.push((s.line, s.arg.clone(), parse_link(s)?));
                }
                "island" => {
                    if s.arg.is_empty() {
                        return Err(SpecError::Syntax {
                            line: s.line,
                            text: "[island] needs a name: [island <name>]".to_string(),
                        });
                    }
                    islands.push((s.line, parse_island(s)?));
                }
                other => {
                    return Err(SpecError::UnknownSection {
                        line: s.line,
                        section: other.to_string(),
                    });
                }
            }
        }
        let topo = topo.ok_or(SpecError::MissingSection {
            section: "topology".to_string(),
        })?;
        topo.check_keys(&["name", "cross_link", "host_link"])?;
        let (_, name) = topo.require("name")?;
        let (cline, cross_link) = topo.require("cross_link")?;
        let (hline, host_link) = topo.require("host_link")?;
        if islands.is_empty() {
            return Err(SpecError::MissingSection {
                section: "island".to_string(),
            });
        }
        // Duplicate link names shadow silently otherwise; reject them.
        for (i, (line, lname, _)) in links.iter().enumerate() {
            if links[..i].iter().any(|(_, n, _)| n == lname) {
                return Err(SpecError::DuplicateKey {
                    line: *line,
                    key: format!("link {lname}"),
                });
            }
        }
        let have_link = |n: &str| links.iter().any(|(_, ln, _)| ln == n);
        for (name, line) in [(cross_link, cline), (host_link, hline)] {
            if !have_link(name) {
                return Err(SpecError::UnknownReference {
                    line,
                    name: name.to_string(),
                    kind: "link",
                });
            }
        }
        for (line, island) in &islands {
            if !have_link(&island.link) {
                return Err(SpecError::UnknownReference {
                    line: *line,
                    name: island.link.clone(),
                    kind: "link",
                });
            }
            if let Some(h) = &island.host {
                if !have_link(h) {
                    return Err(SpecError::UnknownReference {
                        line: *line,
                        name: h.clone(),
                        kind: "link",
                    });
                }
            }
        }
        Ok(TopologySpec {
            name: name.to_string(),
            links: links.into_iter().map(|(_, n, l)| (n, l)).collect(),
            islands: islands.into_iter().map(|(_, i)| i).collect(),
            cross_link: cross_link.to_string(),
            host_link: host_link.to_string(),
        })
    }

    fn link(&self, name: &str) -> InterconnectModel {
        // Parse validated every reference, so the lookup cannot miss.
        self.links
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| *l)
            .unwrap_or_else(|| unreachable!("link {name:?} validated at parse time"))
    }

    /// Resolves device names against the shipped `profiles/*.devspec`
    /// set ([`builtin_device`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownReference`] for a device name no
    /// shipped profile answers to.
    pub fn resolve(&self) -> Result<Topology, SpecError> {
        self.resolve_with(builtin_device)
    }

    /// Resolves device names through a caller-supplied registry (tried
    /// first, with the shipped profiles as fallback).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownReference`] when neither the registry
    /// nor the shipped profiles know a device name.
    pub(crate) fn resolve_with(
        &self,
        lookup: impl Fn(&str) -> Option<GpuArch>,
    ) -> Result<Topology, SpecError> {
        let mut devices = Vec::new();
        let mut islands = Vec::new();
        for spec in &self.islands {
            let mut members = Vec::new();
            for dev_name in &spec.devices {
                let arch = lookup(dev_name)
                    .or_else(|| builtin_device(dev_name))
                    .ok_or(SpecError::UnknownReference {
                        line: 0,
                        name: dev_name.clone(),
                        kind: "device profile",
                    })?;
                members.push(devices.len());
                devices.push(arch);
            }
            islands.push(Island {
                name: spec.name.clone(),
                members,
                link: self.link(&spec.link),
                host: spec.host.as_deref().map(|h| self.link(h)),
            });
        }
        Ok(Topology {
            name: self.name.clone(),
            fabric: Fabric::Hierarchical {
                devices,
                islands,
                cross: self.link(&self.cross_link),
                host: self.link(&self.host_link),
            },
        })
    }
}

fn parse_link(s: &SpecSection) -> Result<InterconnectModel, SpecError> {
    s.check_keys(&["gbs", "latency_us"])?;
    let (gline, gbs) = s.require("gbs")?;
    let (lline, lat) = s.require("latency_us")?;
    let gbs = parse_pos_f64(gline, "gbs", gbs)?;
    let lat = match lat.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => v,
        _ => {
            return Err(SpecError::BadValue {
                line: lline,
                key: "latency_us".to_string(),
                value: lat.to_string(),
                expected: "a non-negative number",
            });
        }
    };
    Ok(InterconnectModel::new(gbs, lat))
}

fn parse_island(s: &SpecSection) -> Result<IslandSpec, SpecError> {
    s.check_keys(&["devices", "link", "host"])?;
    let (dline, devices) = s.require("devices")?;
    let (_, link) = s.require("link")?;
    let host = s.get("host")?.map(|(_, v)| v.to_string());
    let devices: Vec<String> = devices
        .split(',')
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .collect();
    if devices.is_empty() {
        return Err(SpecError::BadValue {
            line: dline,
            key: "devices".to_string(),
            value: String::new(),
            expected: "a comma-separated list of device profile names",
        });
    }
    Ok(IslandSpec {
        name: s.arg.clone(),
        devices,
        link: link.to_string(),
        host,
    })
}

/// A resolved island: concrete device indices plus link models.
#[derive(Clone, Debug, PartialEq)]
pub struct Island {
    /// Island name from the spec.
    pub name: String,
    /// Indices into [`Topology::device_archs`], in device order.
    pub members: Vec<usize>,
    /// Intra-island link.
    pub link: InterconnectModel,
    /// Island-specific host link, when the spec overrides the default.
    pub host: Option<InterconnectModel>,
}

#[derive(Clone, Debug, PartialEq)]
enum Fabric {
    /// The legacy single-tier fabric: every pair one hop over `link`,
    /// swaps over `host`. Prices delegate to [`InterconnectModel`]
    /// verbatim, so they are bitwise the pre-topology numbers.
    Flat {
        link: InterconnectModel,
        host: InterconnectModel,
    },
    /// A tiered fleet of islands.
    Hierarchical {
        devices: Vec<GpuArch>,
        islands: Vec<Island>,
        cross: InterconnectModel,
        host: InterconnectModel,
    },
}

/// A fleet the cost model can price collectives over. Built either as
/// [`Topology::flat`] (the legacy one-tier fabric, any device count) or
/// by resolving a [`TopologySpec`] (a concrete device list grouped into
/// islands).
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    name: String,
    fabric: Fabric,
}

impl Topology {
    /// A single-tier fabric over `link`, with a PCIe Gen5 host link for
    /// swap pricing. Prices are **bitwise identical** to calling the
    /// [`InterconnectModel`] directly — this is the compatibility anchor
    /// for pre-topology configurations.
    pub fn flat(link: InterconnectModel) -> Self {
        Topology {
            name: "flat".to_string(),
            fabric: Fabric::Flat {
                link,
                host: InterconnectModel::pcie_gen5(),
            },
        }
    }

    /// The fleet name (`"flat"` for [`Topology::flat`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topology-wide default host link.
    #[cfg(test)]
    fn host_link(&self) -> InterconnectModel {
        match &self.fabric {
            Fabric::Flat { host, .. } | Fabric::Hierarchical { host, .. } => *host,
        }
    }

    /// The concrete device list, island order. Empty for a flat topology
    /// (which models links only and works at any device count).
    pub fn device_archs(&self) -> &[GpuArch] {
        match &self.fabric {
            Fabric::Flat { .. } => &[],
            Fabric::Hierarchical { devices, .. } => devices,
        }
    }

    /// Devices in the fleet, `None` for flat (any count).
    pub fn device_count(&self) -> Option<usize> {
        match &self.fabric {
            Fabric::Flat { .. } => None,
            Fabric::Hierarchical { devices, .. } => Some(devices.len()),
        }
    }

    /// Resolved islands, empty for flat.
    pub(crate) fn islands(&self) -> &[Island] {
        match &self.fabric {
            Fabric::Flat { .. } => &[],
            Fabric::Hierarchical { islands, .. } => islands,
        }
    }

    /// Per-device placement weights: each device's modeled decode
    /// throughput (`GpuArch::decode_weight`). Empty for flat (devices
    /// are interchangeable there).
    pub fn device_weights(&self) -> Vec<f64> {
        self.device_archs()
            .iter()
            .map(GpuArch::decode_weight)
            .collect()
    }

    /// The fastest hypothetical single link in the fleet: max bandwidth,
    /// min latency over every tier. The lower bound the hierarchical
    /// price is clamped to.
    fn ideal_link(&self) -> InterconnectModel {
        match &self.fabric {
            Fabric::Flat { link, .. } => *link,
            Fabric::Hierarchical { islands, cross, .. } => {
                let mut gbs = cross.link_gbs;
                let mut lat = cross.latency_us;
                for island in islands {
                    gbs = gbs.max(island.link.link_gbs);
                    lat = lat.min(island.link.latency_us);
                }
                InterconnectModel::new(gbs, lat)
            }
        }
    }

    /// Island sizes when the first `devices` fleet slots participate
    /// (island order), non-empty islands only.
    fn participating(&self, devices: usize) -> Vec<(usize, InterconnectModel)> {
        let mut out = Vec::new();
        let mut remaining = devices;
        for island in self.islands() {
            if remaining == 0 {
                break;
            }
            let k = island.members.len().min(remaining);
            remaining -= k;
            out.push((k, island.link));
        }
        out
    }

    /// Bytes the critical-path device sends to all-reduce `payload_bytes`
    /// across `devices` devices. Flat: the legacy ring number, bitwise.
    /// Hierarchical: the intra-island ring bytes of the largest island
    /// plus the cross-island shard exchange of the smallest (whose shard
    /// is largest).
    pub fn allreduce_bytes_per_device(&self, payload_bytes: f64, devices: usize) -> f64 {
        match &self.fabric {
            Fabric::Flat { link, .. } => link.allreduce_bytes_per_device(payload_bytes, devices),
            Fabric::Hierarchical { .. } => {
                if devices <= 1 {
                    return 0.0;
                }
                let parts = self.participating(devices);
                let m = parts.len();
                let k_max = parts.iter().map(|(k, _)| *k).max().unwrap_or(1);
                let k_min = parts.iter().map(|(k, _)| *k).min().unwrap_or(1);
                let intra = if k_max > 1 {
                    2.0 * (k_max - 1) as f64 / k_max as f64 * payload_bytes
                } else {
                    0.0
                };
                let cross = if m > 1 {
                    2.0 * (m - 1) as f64 / m as f64 * (payload_bytes / k_min as f64)
                } else {
                    0.0
                };
                intra + cross
            }
        }
    }

    /// Wall-clock seconds to all-reduce `payload_bytes` across the first
    /// `devices` devices of the fleet.
    ///
    /// Flat topologies delegate to [`InterconnectModel::allreduce_s`]
    /// verbatim (bitwise-identical prices). Hierarchical fleets pay the
    /// slowest island's reduce-scatter + all-gather ring over its intra
    /// link, plus a ring exchange of the scattered shards across islands
    /// over the cross link, each phase with its own hop-latency floor —
    /// then clamp to at least the ideal flat ring over the fleet's
    /// fastest link, so a tiered fleet never prices below a same-size
    /// single-switch island (`hierarchical ≥ flat`, by construction).
    pub fn allreduce_s(&self, payload_bytes: f64, devices: usize) -> f64 {
        match &self.fabric {
            Fabric::Flat { link, .. } => link.allreduce_s(payload_bytes, devices),
            Fabric::Hierarchical { cross, .. } => {
                if devices <= 1 {
                    return 0.0;
                }
                let parts = self.participating(devices);
                let m = parts.len();
                // Intra phase: each island reduce-scatters and (after the
                // cross exchange) all-gathers over its own link; the step
                // completes when the slowest island does.
                let mut t_intra = 0.0f64;
                let mut k_min = usize::MAX;
                for &(k, link) in &parts {
                    k_min = k_min.min(k);
                    if k > 1 {
                        let bytes = 2.0 * (k - 1) as f64 / k as f64 * payload_bytes;
                        let t = bytes / (link.link_gbs * 1e9)
                            + 2.0 * (k - 1) as f64 * link.latency_us * 1e-6;
                        t_intra = t_intra.max(t);
                    }
                }
                // Cross phase: island leaders ring-all-reduce their
                // scattered shards. An island of k devices holds
                // payload/k per leader; the smallest island's shard is
                // the largest and bounds the phase.
                let t_cross = if m > 1 {
                    let shard = payload_bytes / k_min.max(1) as f64;
                    let bytes = 2.0 * (m - 1) as f64 / m as f64 * shard;
                    bytes / (cross.link_gbs * 1e9) + 2.0 * (m - 1) as f64 * cross.latency_us * 1e-6
                } else {
                    0.0
                };
                let ideal = self.ideal_link().allreduce_s(payload_bytes, devices);
                (t_intra + t_cross).max(ideal)
            }
        }
    }

    /// Wall-clock seconds to move a swapped KV blob device→host.
    ///
    /// Flat topologies price one transfer of `total_bytes` over the host
    /// link — bitwise the legacy number. Hierarchical fleets resolve the
    /// path per device: each device's share (`per_device_bytes[d]`) moves
    /// over its island's host link (or the topology default) in parallel,
    /// and the slowest share is the price.
    pub fn swap_transfer_s(&self, total_bytes: f64, per_device_bytes: &[f64]) -> f64 {
        match &self.fabric {
            Fabric::Flat { host, .. } => host.transfer_s(total_bytes),
            Fabric::Hierarchical { islands, host, .. } => {
                if per_device_bytes.is_empty() {
                    return host.transfer_s(total_bytes);
                }
                let host_of = |device: usize| -> InterconnectModel {
                    islands
                        .iter()
                        .find(|i| i.members.contains(&device))
                        .and_then(|i| i.host)
                        .unwrap_or(*host)
                };
                per_device_bytes
                    .iter()
                    .enumerate()
                    .map(|(d, &bytes)| host_of(d).transfer_s(bytes))
                    .fold(0.0f64, f64::max)
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.fabric {
            Fabric::Flat { link, .. } => {
                write!(f, "{} ({} GB/s)", self.name, link.link_gbs)
            }
            Fabric::Hierarchical {
                devices, islands, ..
            } => write!(
                f,
                "{} ({} devices over {} islands)",
                self.name,
                devices.len(),
                islands.len()
            ),
        }
    }
}

/// Every `.topo` fleet shipped with the crate, as
/// `(topology key, file contents)` pairs.
pub const BUILTIN_TOPOLOGIES: [(&str, &str); 2] = [
    (
        "nvswitch_pod",
        include_str!("../profiles/nvswitch_pod.topo"),
    ),
    (
        "mixed_h100_a100",
        include_str!("../profiles/mixed_h100_a100.topo"),
    ),
];

/// Parses and resolves a shipped `.topo` fleet by key.
pub fn builtin_topology(name: &str) -> Option<Topology> {
    for (key, text) in BUILTIN_TOPOLOGIES {
        if key.eq_ignore_ascii_case(name) {
            let spec = match TopologySpec::parse(text) {
                Ok(spec) => spec,
                Err(e) => panic!("embedded topology {key:?} is invalid: {e}"),
            };
            match spec.resolve() {
                Ok(topo) => return Some(topo),
                Err(e) => panic!("embedded topology {key:?} does not resolve: {e}"),
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Topology {
        builtin_topology("mixed_h100_a100").expect("shipped fleet")
    }

    #[test]
    fn flat_prices_are_bitwise_the_interconnect_model() {
        let link = InterconnectModel::nvlink4();
        let topo = Topology::flat(link);
        for devices in 1..=8 {
            for payload in [0.0, 1.0, 4096.0, 3.5e7] {
                assert_eq!(
                    topo.allreduce_s(payload, devices).to_bits(),
                    link.allreduce_s(payload, devices).to_bits()
                );
                assert_eq!(
                    topo.allreduce_bytes_per_device(payload, devices).to_bits(),
                    link.allreduce_bytes_per_device(payload, devices).to_bits()
                );
            }
        }
        let host = InterconnectModel::pcie_gen5();
        for bytes in [0.0, 100.0, 2.0e9] {
            assert_eq!(
                topo.swap_transfer_s(bytes, &[]).to_bits(),
                host.transfer_s(bytes).to_bits()
            );
        }
    }

    #[test]
    fn shipped_mixed_fleet_resolves() {
        let topo = mixed();
        assert_eq!(topo.device_count(), Some(4));
        let names: Vec<&str> = topo
            .device_archs()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["H100", "H100", "A100", "A100"]);
        assert_eq!(topo.islands().len(), 2);
        let weights = topo.device_weights();
        assert!(weights[0] > weights[2], "H100 must outweigh A100");
    }

    #[test]
    fn hierarchical_allreduce_at_least_flat_over_fastest_link() {
        let topo = mixed();
        let ideal = topo.ideal_link();
        for devices in 1..=4 {
            for payload in [256.0, 65536.0, 1.0e8] {
                let h = topo.allreduce_s(payload, devices);
                let f = Topology::flat(ideal).allreduce_s(payload, devices);
                assert!(h >= f, "devices={devices} payload={payload}: {h} < {f}");
                assert!(h.is_finite() && h >= 0.0);
            }
        }
    }

    #[test]
    fn cross_island_tier_dominates_single_island() {
        // The same payload over 2 devices: both in one NVLink island vs
        // split across the IB tier. The tiered path must cost more.
        let topo = mixed();
        let payload = 1.0e6;
        let within = topo.islands()[0].link.allreduce_s(payload, 2);
        let across = topo.allreduce_s(payload, 3); // spans both islands
        assert!(across > within);
    }

    #[test]
    fn swap_path_resolves_per_device() {
        let topo = mixed();
        let shares = [1.0e9, 1.0e9, 1.0e9, 1.0e9];
        let t = topo.swap_transfer_s(4.0e9, &shares);
        // Parallel per-device DMA: the price is one share over the host
        // link, not four.
        let host = topo.host_link();
        assert_eq!(t.to_bits(), host.transfer_s(1.0e9).to_bits());
    }

    #[test]
    fn dangling_link_reference_is_typed() {
        let text = "\
[topology]
name = broken
cross_link = missing
host_link = pcie

[link pcie]
gbs = 64
latency_us = 10

[island a]
devices = h100
link = pcie
";
        match TopologySpec::parse(text) {
            Err(SpecError::UnknownReference { name, kind, .. }) => {
                assert_eq!(name, "missing");
                assert_eq!(kind, "link");
            }
            other => panic!("expected UnknownReference, got {other:?}"),
        }
    }

    #[test]
    fn unknown_device_profile_fails_resolution() {
        let text = "\
[topology]
name = broken
cross_link = pcie
host_link = pcie

[link pcie]
gbs = 64
latency_us = 10

[island a]
devices = tpu_v5
link = pcie
";
        let spec = TopologySpec::parse(text).unwrap();
        assert!(matches!(
            spec.resolve(),
            Err(SpecError::UnknownReference {
                kind: "device profile",
                ..
            })
        ));
    }
}
