//! The device/placement layer: which simulated accelerator owns which KV
//! head.
//!
//! Long-context serving outgrows a single device's memory even at 2-bit
//! (the KVQuant observation), so the KV cache and its attention work must
//! shard. BitDecoding-RS shards **tensor-parallel along KV heads**: every
//! head's full token history lives on exactly one device, so each
//! `(sequence, kv-head)` attention unit runs entirely locally and only the
//! per-head softmax partials — the `(m, l, unnormalized O)` triple of
//! [`bd-core`'s `OnlineSoftmax`] — cross the interconnect in the per-step
//! all-reduce. A [`Placement`] is the pure function from global head index
//! to `(device, local head slot)`; the sharded store
//! ([`crate::sharded::ShardedKvStore`]) and the serve scheduler both
//! consult it, so storage and compute can never disagree about ownership.

use std::fmt;

/// A simulated device (GPU) identifier within a placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// How KV heads are assigned to devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// Head `h` lives on device `h mod N` (round-robin; balances head
    /// counts for any `N`).
    HeadModulo,
    /// Heads are split into `N` contiguous ranges (the classic
    /// tensor-parallel column split; devices `0..heads mod N` take one
    /// extra head when the division is uneven).
    HeadContiguous,
    /// Heads are split into `N` contiguous ranges whose sizes are
    /// proportional to per-device throughput weights (heterogeneous
    /// fleets: a faster device takes more heads). Built with
    /// [`Placement::weighted`]; [`Placement::new`] under this variant
    /// uses equal weights, which degenerates to [`Partitioning::HeadContiguous`]'s
    /// head counts.
    Weighted,
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::HeadModulo => write!(f, "head-modulo"),
            Partitioning::HeadContiguous => write!(f, "head-contiguous"),
            Partitioning::Weighted => write!(f, "weighted"),
        }
    }
}

/// A concrete assignment of `heads` KV heads to `devices` devices.
///
/// Requested device counts above the head count are clamped: a device with
/// zero heads would hold no data and do no work, so it is physically
/// equivalent to not existing. All partitionings are **deterministic pure
/// functions** — placement never depends on runtime state, which is what
/// keeps N-device serve runs bitwise-reproducible. Weighted placements
/// carry their apportioned range boundaries, so equal boundaries compare
/// and hash equal regardless of which weight vector produced them.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    devices: usize,
    partitioning: Partitioning,
    heads: usize,
    /// Contiguous-range boundaries for [`Partitioning::Weighted`]:
    /// device `d` owns heads `bounds[d]..bounds[d + 1]`. Empty for the
    /// closed-form partitionings.
    bounds: Vec<usize>,
}

impl Placement {
    /// Builds a placement of `heads` KV heads over `devices` devices
    /// (clamped to `1..=heads`). Under [`Partitioning::Weighted`] every
    /// device gets equal weight; use [`Placement::weighted`] to supply a
    /// throughput-derived weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `heads` or `devices` is zero.
    pub fn new(devices: usize, partitioning: Partitioning, heads: usize) -> Self {
        assert!(heads > 0, "placement needs at least one KV head");
        assert!(devices > 0, "placement needs at least one device");
        if partitioning == Partitioning::Weighted {
            return Placement::weighted(&vec![1.0; devices], heads);
        }
        Placement {
            devices: devices.min(heads),
            partitioning,
            heads,
            bounds: Vec::new(),
        }
    }

    /// Builds a [`Partitioning::Weighted`] placement: `heads` KV heads
    /// split into one contiguous range per device, range sizes
    /// proportional to `weights` (a device's modeled throughput). The
    /// apportionment is the highest-averages (D'Hondt) rule: every device
    /// starts at one head and each remaining head goes to the device with
    /// the largest `weight / heads_assigned` ratio (ties to the lowest
    /// device index), so every head is covered exactly once, every device
    /// keeps at least one head, and the split is deterministic in the
    /// weight vector.
    ///
    /// Device counts above the head count are clamped by dropping
    /// trailing devices, mirroring [`Placement::new`]. Non-finite or
    /// non-positive weights are treated as `1.0` — a degenerate
    /// measurement must not silence a device entirely.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is zero or `weights` is empty.
    pub fn weighted(weights: &[f64], heads: usize) -> Self {
        assert!(heads > 0, "placement needs at least one KV head");
        assert!(!weights.is_empty(), "placement needs at least one device");
        let devices = weights.len().min(heads);
        let w: Vec<f64> = weights[..devices]
            .iter()
            .map(|&w| if w.is_finite() && w > 0.0 { w } else { 1.0 })
            .collect();
        let mut counts = vec![1usize; devices];
        for _ in devices..heads {
            let mut best = 0usize;
            let mut best_score = w[0] / counts[0] as f64;
            for (d, &wd) in w.iter().enumerate().skip(1) {
                let score = wd / counts[d] as f64;
                if score > best_score {
                    best = d;
                    best_score = score;
                }
            }
            counts[best] += 1;
        }
        let mut bounds = Vec::with_capacity(devices + 1);
        let mut acc = 0usize;
        bounds.push(0);
        for c in counts {
            acc += c;
            bounds.push(acc);
        }
        debug_assert_eq!(acc, heads);
        Placement {
            devices,
            partitioning: Partitioning::Weighted,
            heads,
            bounds,
        }
    }

    /// The trivial single-device placement.
    pub fn single(heads: usize) -> Self {
        Placement::new(1, Partitioning::HeadContiguous, heads)
    }

    /// Devices in the placement (after clamping).
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The partitioning rule.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// Total KV heads placed.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// First head of device `d`'s contiguous range and the range length.
    /// Devices `0..heads % N` take `ceil(heads / N)` heads, the rest take
    /// `floor(heads / N)`.
    fn contiguous_range(&self, d: usize) -> (usize, usize) {
        let base = self.heads / self.devices;
        let rem = self.heads % self.devices;
        let len = base + usize::from(d < rem);
        let start = d * base + d.min(rem);
        (start, len)
    }

    /// The device owning global head `head`.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range.
    pub fn device_of(&self, head: usize) -> DeviceId {
        assert!(head < self.heads, "head {head} beyond {}", self.heads);
        let d = match self.partitioning {
            Partitioning::HeadModulo => head % self.devices,
            Partitioning::HeadContiguous => {
                let base = self.heads / self.devices;
                let rem = self.heads % self.devices;
                let boundary = rem * (base + 1);
                if head < boundary {
                    head / (base + 1)
                } else {
                    rem + (head - boundary) / base
                }
            }
            // `partition_point` finds the first boundary beyond `head`;
            // its predecessor's index is the owning range.
            Partitioning::Weighted => self.bounds.partition_point(|&b| b <= head) - 1,
        };
        DeviceId(d as u32)
    }

    /// The head's slot index within its owning device's local store.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range.
    pub fn local_index(&self, head: usize) -> usize {
        assert!(head < self.heads, "head {head} beyond {}", self.heads);
        match self.partitioning {
            Partitioning::HeadModulo => head / self.devices,
            Partitioning::HeadContiguous => {
                let d = self.device_of(head).0 as usize;
                head - self.contiguous_range(d).0
            }
            Partitioning::Weighted => {
                let d = self.device_of(head).0 as usize;
                head - self.bounds[d]
            }
        }
    }

    /// Number of heads resident on device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn heads_on(&self, d: DeviceId) -> usize {
        let d = d.0 as usize;
        assert!(d < self.devices, "device {d} beyond {}", self.devices);
        match self.partitioning {
            Partitioning::HeadModulo => {
                self.heads / self.devices + usize::from(d < self.heads % self.devices)
            }
            Partitioning::HeadContiguous => self.contiguous_range(d).1,
            Partitioning::Weighted => self.bounds[d + 1] - self.bounds[d],
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} heads over {} devices ({})",
            self.heads, self.devices, self.partitioning
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_a_partition_for_all_shapes() {
        for heads in 1..=12 {
            for devices in 1..=10 {
                for p in [
                    Partitioning::HeadModulo,
                    Partitioning::HeadContiguous,
                    Partitioning::Weighted,
                ] {
                    let pl = Placement::new(devices, p, heads);
                    assert!(pl.devices() <= heads, "clamped");
                    let mut per_device = vec![0usize; pl.devices()];
                    for h in 0..heads {
                        let d = pl.device_of(h);
                        let local = pl.local_index(h);
                        assert!(local < pl.heads_on(d), "{p:?} h={h}");
                        per_device[d.0 as usize] += 1;
                    }
                    for (d, &count) in per_device.iter().enumerate() {
                        assert_eq!(
                            count,
                            pl.heads_on(DeviceId(d as u32)),
                            "{p:?} heads={heads} devices={devices} d={d}"
                        );
                        assert!(count > 0, "no empty devices after clamping");
                    }
                    // Local indices are a bijection per device.
                    for d in 0..pl.devices() {
                        let d = DeviceId(d as u32);
                        let locals: Vec<usize> = (0..heads)
                            .filter(|&h| pl.device_of(h) == d)
                            .map(|h| pl.local_index(h))
                            .collect();
                        let want: Vec<usize> = (0..pl.heads_on(d)).collect();
                        assert_eq!(locals, want, "{p:?} {d} local order");
                    }
                }
            }
        }
    }

    #[test]
    fn modulo_round_robins() {
        let pl = Placement::new(3, Partitioning::HeadModulo, 8);
        let devs: Vec<u32> = (0..8).map(|h| pl.device_of(h).0).collect();
        assert_eq!(devs, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(pl.local_index(7), 2);
        assert_eq!(pl.heads_on(DeviceId(0)), 3);
        assert_eq!(pl.heads_on(DeviceId(2)), 2);
    }

    #[test]
    fn contiguous_splits_ranges() {
        let pl = Placement::new(3, Partitioning::HeadContiguous, 8);
        let devs: Vec<u32> = (0..8).map(|h| pl.device_of(h).0).collect();
        assert_eq!(devs, vec![0, 0, 0, 1, 1, 1, 2, 2]);
        assert_eq!(pl.local_index(3), 0);
        assert_eq!(pl.local_index(7), 1);
    }

    #[test]
    fn oversized_device_count_is_clamped() {
        let pl = Placement::new(8, Partitioning::HeadModulo, 2);
        assert_eq!(pl.devices(), 2);
        assert_eq!(pl.device_of(1), DeviceId(1));
    }

    #[test]
    fn weighted_ranges_follow_weights() {
        // 16 heads over [fast, fast, slow, slow] at a 2:1 ratio: the fast
        // pair takes 5 heads each, the slow pair 3 — D'Hondt on 2:2:1:1.
        let pl = Placement::weighted(&[2.0, 2.0, 1.0, 1.0], 16);
        assert_eq!(pl.partitioning(), Partitioning::Weighted);
        let counts: Vec<usize> = (0..4).map(|d| pl.heads_on(DeviceId(d))).collect();
        assert_eq!(counts, vec![5, 5, 3, 3]);
        // Ranges are contiguous and local indices start at zero.
        assert_eq!(pl.device_of(0), DeviceId(0));
        assert_eq!(pl.device_of(4), DeviceId(0));
        assert_eq!(pl.device_of(5), DeviceId(1));
        assert_eq!(pl.device_of(10), DeviceId(2));
        assert_eq!(pl.device_of(15), DeviceId(3));
        assert_eq!(pl.local_index(10), 0);
        assert_eq!(pl.local_index(15), 2);
    }

    #[test]
    fn weighted_equal_weights_match_contiguous_counts() {
        for heads in 1..=12 {
            for devices in 1..=8 {
                let w = Placement::new(devices, Partitioning::Weighted, heads);
                let c = Placement::new(devices, Partitioning::HeadContiguous, heads);
                assert_eq!(w.devices(), c.devices());
                for d in 0..w.devices() {
                    assert_eq!(
                        w.heads_on(DeviceId(d as u32)),
                        c.heads_on(DeviceId(d as u32)),
                        "heads={heads} devices={devices} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sanitizes_degenerate_weights() {
        // NaN, infinite, zero, and negative weights all count as 1.0, so
        // no device is silenced and the split stays a partition.
        let pl = Placement::weighted(&[f64::NAN, f64::INFINITY, 0.0, -3.0], 8);
        for d in 0..4 {
            assert_eq!(pl.heads_on(DeviceId(d)), 2);
        }
    }

    #[test]
    fn weighted_clamps_to_head_count() {
        let pl = Placement::weighted(&[1.0, 5.0, 2.0, 4.0, 3.0], 3);
        assert_eq!(pl.devices(), 3);
        let total: usize = (0..3).map(|d| pl.heads_on(DeviceId(d))).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn single_is_one_device() {
        let pl = Placement::single(5);
        assert_eq!(pl.devices(), 1);
        for h in 0..5 {
            assert_eq!(pl.device_of(h), DeviceId(0));
            assert_eq!(pl.local_index(h), h);
        }
    }
}
