//! Multi-device KV storage: per-device [`PagedKvStore`] page arenas behind
//! one [`Placement`].
//!
//! [`ShardedKvStore`] is the storage half of tensor-parallel serving. KV
//! heads are partitioned across `N` simulated devices
//! ([`Placement`]: head-modulo or head-contiguous); each device owns a
//! complete, independent [`PagedKvStore`] — its own deterministic
//! [`crate::PagedPool`], its own page capacity, its own eviction
//! accounting — holding only the heads placed on it. A sequence is
//! resident on **every** device (each holds that sequence's share of the
//! heads), so admission reserves pages on all devices atomically and
//! eviction returns pages to every pool.
//!
//! # Sharding invariant
//!
//! For any append/prefill history, the blocks and residual window of
//! global head `h` gathered from the owning device are **bitwise
//! identical** to what a single-device [`PagedKvStore`] (or contiguous
//! [`QuantizedKvCache`]) holds for that head after the same history:
//! placement moves data between pools but never changes a byte of it.
//! Because every per-device pool is deterministic and placement is a pure
//! function, an N-device run assigns identical physical pages in every
//! process — the property the serve layer's bitwise-reproducibility rests
//! on. [`ShardedKvStore::matches_cache`] checks the invariant; the serve
//! property tests drive it for arbitrary device counts, partitionings,
//! page sizes, and eviction orders.

use crate::block::PackedBlock;
use crate::cache::{CacheConfig, QuantizedKvCache};
use crate::codec::BlockCodec;
use crate::matrix::TokenMatrix;
use crate::paged::{PagedOom, SeqId};
use crate::placement::{DeviceId, Placement};
use crate::store::{
    check_heads, check_prompt, KvSharingStats, PagedKvStore, PrefixAdmit, PrefixCacheStats,
    StoreError, SwappedSeq,
};
use std::borrow::Borrow;

/// Per-device occupancy/eviction snapshot (the storage half of the serve
/// layer's per-device metrics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceKvStats {
    /// The device.
    pub device: DeviceId,
    /// KV heads resident on this device.
    pub heads: usize,
    /// Page capacity of this device's pool.
    pub total_pages: usize,
    /// Pages currently free on this device.
    pub free_pages: usize,
    /// Fraction of this device's pages in use (page occupancy).
    pub utilization: f64,
    /// Sequences evicted from this device over the store's lifetime.
    pub evicted_seqs: u64,
    /// Pages those evictions returned to this device's pool.
    pub evicted_pages: u64,
}

/// A sequence swapped out of every device of a [`ShardedKvStore`]: one
/// [`SwappedSeq`] per device (each holding that device's share of the
/// heads). Produced by [`ShardedKvStore::swap_out`]; restored bitwise by
/// [`ShardedKvStore::swap_in`].
#[derive(Clone, Debug)]
pub struct SwappedShardedSeq {
    per_device: Vec<SwappedSeq>,
}

impl SwappedShardedSeq {
    /// Devices the blob spans.
    pub fn devices(&self) -> usize {
        self.per_device.len()
    }

    /// Logical tokens held in the blob (identical on every device).
    pub fn len(&self) -> usize {
        self.per_device[0].len()
    }

    /// `true` when the blob holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total host bytes across all device shares — the traffic one swap
    /// direction moves over the host link.
    pub fn host_bytes(&self) -> usize {
        self.per_device.iter().map(SwappedSeq::host_bytes).sum()
    }

    /// Host bytes each device's share contributes, indexed by device —
    /// what a topology-aware swap price needs to route each share over
    /// its own island's host link.
    pub fn host_bytes_per_device(&self) -> Vec<f64> {
        self.per_device
            .iter()
            .map(|s| s.host_bytes() as f64)
            .collect()
    }

    /// Verifies every device share against its recorded checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptBlob`] when any share's payload
    /// changed since swap-out.
    pub(crate) fn verify(&self) -> Result<(), StoreError> {
        for share in &self.per_device {
            share.verify()?;
        }
        Ok(())
    }

    /// Flips one payload bit of device `device`'s share (taken modulo the
    /// device count) **without** updating its checksum — the tamper hook
    /// the fault injector and the corruption tests use. See
    /// `SwappedSeq::flip_bit`.
    pub fn flip_bit(&mut self, device: usize, bit: u64) {
        if self.per_device.is_empty() {
            return;
        }
        let d = device % self.per_device.len();
        self.per_device[d].flip_bit(bit);
    }
}

/// KV-head-sharded paged storage over `N` simulated devices — see the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use bd_kvcache::{
///     CacheConfig, PackLayout, Partitioning, Placement, QuantScheme, ReferenceCodec,
///     ShardedKvStore,
/// };
///
/// let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
/// let placement = Placement::new(2, Partitioning::HeadModulo, 4);
/// let mut store = ShardedKvStore::new(cfg, placement, 64, 32);
/// let seq = store.admit(100).unwrap(); // 100 tokens reserved on BOTH devices
/// let row = vec![0.5f32; 16];
/// let rows = vec![row; 4]; // one K and V row per global head
/// store
///     .append_step(seq, &rows, &rows, &ReferenceCodec)
///     .unwrap();
/// assert_eq!(store.seq_len(seq), Some(1));
/// store.evict(seq);
/// assert_eq!(store.free_pages(), 2 * 64);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedKvStore {
    placement: Placement,
    devices: Vec<PagedKvStore>,
    evicted_seqs: Vec<u64>,
    evicted_pages: Vec<u64>,
}

impl ShardedKvStore {
    /// Creates a sharded store: one [`PagedKvStore`] of `pages_per_device`
    /// pages (`page_tokens` tokens each) per placement device, each holding
    /// that device's share of `placement.heads()` KV heads.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` is zero.
    pub fn new(
        config: CacheConfig,
        placement: Placement,
        pages_per_device: usize,
        page_tokens: usize,
    ) -> Self {
        let devices = (0..placement.devices())
            .map(|d| {
                let heads = placement.heads_on(DeviceId(d as u32));
                PagedKvStore::new(config, heads, pages_per_device, page_tokens)
            })
            .collect();
        let n = placement.devices();
        ShardedKvStore {
            placement,
            devices,
            evicted_seqs: vec![0; n],
            evicted_pages: vec![0; n],
        }
    }

    /// Sets the launch width — threads, the calling one included — that
    /// every device's prompt admission runs its bulk passes over (see
    /// [`PagedKvStore::admit_prefill_cached`]). A new store has width 1.
    /// No page, key, counter or [`SeqId`] depends on it.
    pub fn set_launch_width(&mut self, threads: usize) {
        for dev in &mut self.devices {
            dev.set_launch_width(threads);
        }
    }

    /// The launch width set by [`ShardedKvStore::set_launch_width`].
    pub fn launch_width(&self) -> usize {
        self.devices[0].launch_width()
    }

    /// The placement mapping heads to devices.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// Total (global) KV heads per sequence.
    pub fn heads(&self) -> usize {
        self.placement.heads()
    }

    /// The shared cache configuration.
    pub fn config(&self) -> &CacheConfig {
        self.devices[0].config()
    }

    /// Tokens per page (identical on every device).
    pub fn page_tokens(&self) -> usize {
        self.devices[0].page_tokens()
    }

    /// One device's local store (read-only) — what a device-pinned worker
    /// sees.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range device.
    pub fn device(&self, d: DeviceId) -> &PagedKvStore {
        &self.devices[d.0 as usize]
    }

    /// The placement and every device's store, borrowed apart — what
    /// [`ShardedKvStore::split_for_launch`] splits further.
    pub(crate) fn parts_mut(&mut self) -> (&Placement, &mut [PagedKvStore]) {
        (&self.placement, &mut self.devices)
    }

    /// Aggregate free pages across all devices.
    pub fn free_pages(&self) -> usize {
        self.devices.iter().map(PagedKvStore::free_pages).sum()
    }

    /// Pages free on **every** device: the smallest per-device
    /// [`PagedKvStore::free_pages`] — the largest reservation an
    /// all-device operation can still take.
    pub fn min_free_pages(&self) -> usize {
        self.devices
            .iter()
            .map(PagedKvStore::free_pages)
            .min()
            .unwrap_or(0)
    }

    /// Aggregate page capacity across all devices.
    pub fn total_pages(&self) -> usize {
        self.devices.iter().map(PagedKvStore::total_pages).sum()
    }

    /// Aggregate fraction of pages in use.
    pub fn utilization(&self) -> f64 {
        let total = self.total_pages();
        if total == 0 {
            0.0
        } else {
            1.0 - self.free_pages() as f64 / total as f64
        }
    }

    /// Monotone count of copy-on-write breaks summed over every device
    /// since this store was built (resets when the store is rebuilt, e.g.
    /// after a device loss). See `PagedKvStore::cow_breaks`.
    pub fn cow_breaks(&self) -> usize {
        self.devices.iter().map(PagedKvStore::cow_breaks).sum()
    }

    /// Page-sharing snapshot summed over every device.
    pub fn sharing_stats(&self) -> KvSharingStats {
        let mut stats = KvSharingStats::default();
        for dev in &self.devices {
            stats.absorb(dev.sharing_stats());
        }
        stats
    }

    /// Per-device occupancy and eviction accounting.
    pub fn device_stats(&self, d: DeviceId) -> DeviceKvStats {
        let s = &self.devices[d.0 as usize];
        DeviceKvStats {
            device: d,
            heads: s.heads(),
            total_pages: s.total_pages(),
            free_pages: s.free_pages(),
            utilization: s.utilization(),
            evicted_seqs: self.evicted_seqs[d.0 as usize],
            evicted_pages: self.evicted_pages[d.0 as usize],
        }
    }

    /// Number of resident sequences (identical on every device).
    pub fn resident(&self) -> usize {
        self.devices[0].resident()
    }

    /// The one all-device transaction behind `admit`, `fork`, `swap_in` and
    /// `admit_prefill_cached`: checks device `d`'s page need
    /// `preflight(d, device)` against its [`PagedKvStore::free_pages`] on
    /// every device before touching any pool (the first shortfall is the
    /// [`PagedOom`], and nothing changed), then runs `apply(d, device)` in
    /// device order and checks once that every device assigned the same
    /// [`SeqId`]. Callers validate everything else first, so `apply`
    /// cannot fail once its pages fit. A half-applied failure could not be
    /// rolled back: `evict` cannot restore the per-device id counters, so
    /// it would burn a [`SeqId`] on the devices that had already admitted.
    fn for_all_devices_atomically<T, E>(
        &mut self,
        preflight: impl Fn(usize, &PagedKvStore) -> usize,
        mut apply: impl FnMut(usize, &mut PagedKvStore) -> Result<(SeqId, T), E>,
    ) -> Result<(SeqId, Vec<T>), PagedOom> {
        for (d, dev) in self.devices.iter().enumerate() {
            let (requested, free) = (preflight(d, dev), dev.free_pages());
            if requested > free {
                return Err(PagedOom { requested, free });
            }
        }
        let (ids, out): (Vec<SeqId>, Vec<T>) = (self.devices.iter_mut().enumerate())
            .map(|(d, dev)| {
                apply(d, dev).unwrap_or_else(|_| unreachable!("pre-checked on every device"))
            })
            .unzip();
        let id = ids[0];
        debug_assert!(
            ids.iter().all(|&i| i == id),
            "device pools diverged on SeqId assignment"
        );
        Ok((id, out))
    }

    /// Admits a new sequence on **every** device, reserving pages for
    /// `reserve_tokens` tokens per device up front. The reservation is
    /// atomic: the page budget is pre-checked on every device before any
    /// pool is touched, so on failure nothing is admitted anywhere and no
    /// device's [`SeqId`] counter advances — a failed admit leaves every
    /// device in the exact state of a history without the attempt.
    ///
    /// Every per-device pool sees the identical admit/evict order, so all
    /// devices assign the same [`SeqId`]; that shared id is returned and
    /// addresses the sequence on every device.
    ///
    /// # Errors
    ///
    /// Returns [`PagedOom`] when any device cannot cover the reservation.
    pub fn admit(&mut self, reserve_tokens: usize) -> Result<SeqId, PagedOom> {
        let need = reserve_tokens.div_ceil(self.page_tokens());
        let (id, _) = self.for_all_devices_atomically(
            |_, _| need,
            |_, dev| dev.admit(reserve_tokens).map(|id| (id, ())),
        )?;
        Ok(id)
    }

    /// `true` when [`ShardedKvStore::fork`] at `at_token` would succeed on
    /// residency/boundary grounds (identical on every device — sequences
    /// mirror their token history everywhere).
    pub fn can_fork(&self, parent: SeqId, at_token: usize) -> bool {
        self.devices[0].can_fork(parent, at_token)
    }

    /// Pages a [`ShardedKvStore::fork`] would newly allocate **per
    /// device**, or `None` when the fork is invalid. Identical on every
    /// device, since page math depends only on token counts.
    pub fn fork_new_pages(
        &self,
        parent: SeqId,
        at_token: usize,
        reserve_tokens: usize,
    ) -> Option<usize> {
        self.devices[0].fork_new_pages(parent, at_token, reserve_tokens)
    }

    /// Forks a child sequence off `parent` on **every** device atomically:
    /// each device aliases its share of the parent's prefix pages
    /// copy-on-write and deep-copies its residual window, exactly as
    /// [`PagedKvStore::fork`]. The private-page budget is pre-checked on
    /// every device before any pool is touched, so on failure nothing
    /// changes anywhere and no [`SeqId`] is burned. All devices assign the
    /// same child id, which is returned.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ForkBoundary`] / [`StoreError::UnknownSeq`]
    /// exactly as the per-device fork, and [`StoreError::Oom`] when any
    /// device cannot supply the child's private pages.
    pub fn fork(
        &mut self,
        parent: SeqId,
        at_token: usize,
        reserve_tokens: usize,
    ) -> Result<SeqId, StoreError> {
        let Some(need) = self.fork_new_pages(parent, at_token, reserve_tokens) else {
            // A refused fork changes nothing: device 0 states the error.
            return self.devices[0].fork(parent, at_token, reserve_tokens);
        };
        let (id, _) = self.for_all_devices_atomically(
            |_, _| need,
            |_, dev| {
                dev.fork(parent, at_token, reserve_tokens)
                    .map(|id| (id, ()))
            },
        )?;
        Ok(id)
    }

    /// Marks a sequence finished on every device.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSeq`] for a non-resident sequence.
    pub fn seal(&mut self, seq: SeqId) -> Result<(), StoreError> {
        for dev in &mut self.devices {
            dev.seal(seq)?;
        }
        Ok(())
    }

    /// Releases a sequence from every device, returning its pages to each
    /// per-device pool and updating the eviction accounting. Unknown
    /// sequences are ignored.
    pub fn evict(&mut self, seq: SeqId) {
        for (d, dev) in self.devices.iter_mut().enumerate() {
            let free_before = dev.free_pages();
            let was_resident = dev.seq_len(seq).is_some();
            dev.evict(seq);
            if was_resident {
                self.evicted_seqs[d] += 1;
                self.evicted_pages[d] += (dev.free_pages() - free_before) as u64;
            }
        }
    }

    /// Swaps a sequence out of **every** device at once: each device
    /// serializes its share of the heads into a [`SwappedSeq`] and frees
    /// its pages, so after the call the sequence holds no pages anywhere.
    /// The operation is atomic — the residency check happens up front and
    /// swap-out itself cannot fail, so either every device swaps or none
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSeq`] for a non-resident sequence (and
    /// changes nothing on any device).
    pub fn swap_out(&mut self, seq: SeqId) -> Result<SwappedShardedSeq, StoreError> {
        if self.seq_len(seq).is_none() {
            return Err(StoreError::UnknownSeq(seq));
        }
        let per_device = self
            .devices
            .iter_mut()
            .map(|dev| {
                dev.swap_out(seq)
                    .unwrap_or_else(|_| unreachable!("resident on every device"))
            })
            .collect();
        Ok(SwappedShardedSeq { per_device })
    }

    /// Pages a [`ShardedKvStore::swap_in`] of `blob` would **newly**
    /// allocate per device given current residency — blob pages whose
    /// shared prefix is still resident re-share instead of re-reserving
    /// (the worst device governs, though the counts are identical in
    /// practice).
    pub fn swap_in_new_pages(&self, blob: &SwappedShardedSeq) -> usize {
        self.devices
            .iter()
            .zip(&blob.per_device)
            .map(|(dev, b)| dev.swap_in_new_pages(b))
            .max()
            .unwrap_or(0)
    }

    /// Swaps a blob back in on **every** device atomically: the page
    /// budget — only the pages not re-shared from a still-resident prefix
    /// — is pre-checked on each device before any pool is touched, so on
    /// failure nothing changes anywhere (and, as with
    /// [`ShardedKvStore::admit`], no [`SeqId`] is burned). All devices
    /// assign the same new id, which is returned.
    ///
    /// # Errors
    ///
    /// - [`StoreError::DeviceCount`] when the blob spans a different
    ///   device count than the store (e.g. it predates a device loss and
    ///   the placement rebuild that followed).
    /// - [`StoreError::CorruptBlob`] when **any** device share fails its
    ///   integrity check — verified across all devices before any pool is
    ///   touched, so a corrupt blob changes nothing anywhere.
    /// - [`StoreError::Oom`] when any device cannot cover the blob's page
    ///   reservation.
    pub fn swap_in(&mut self, blob: &SwappedShardedSeq) -> Result<SeqId, StoreError> {
        if blob.per_device.len() != self.devices.len() {
            return Err(StoreError::DeviceCount {
                got: blob.per_device.len(),
                expected: self.devices.len(),
            });
        }
        blob.verify()?;
        let shares = &blob.per_device;
        let (id, _) = self.for_all_devices_atomically(
            |d, dev| dev.swap_in_new_pages(&shares[d]),
            |d, dev| dev.swap_in(&shares[d]).map(|id| (id, ())),
        )?;
        Ok(id)
    }

    /// Logical token count of a sequence (identical on every device).
    pub fn seq_len(&self, seq: SeqId) -> Option<usize> {
        self.devices[0].seq_len(seq)
    }

    /// Tokens currently in the sequence's FP16 residual window.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence.
    pub fn residual_len(&self, seq: SeqId) -> usize {
        self.devices[0].residual_len(seq)
    }

    /// The residual FP16 window of one **global** head, read from its
    /// owning device.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn residual(&self, seq: SeqId, head: usize) -> (&TokenMatrix, &TokenMatrix) {
        let d = self.placement.device_of(head);
        self.devices[d.0 as usize].residual(seq, self.placement.local_index(head))
    }

    /// Gathers one **global** head's packed blocks through its owning
    /// device's page table, oldest first. By the sharding invariant the
    /// result equals the single-device gather bitwise.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn packed_blocks(&self, seq: SeqId, head: usize) -> Vec<&PackedBlock> {
        let d = self.placement.device_of(head);
        self.devices[d.0 as usize].packed_blocks(seq, self.placement.local_index(head))
    }

    /// Longest run of leading packed blocks every listed sequence reads
    /// from the same physical pages **on one device** — the cascade
    /// group boundary for units routed to that device (see
    /// [`PagedKvStore::shared_block_run`]). Page tables are per-sequence,
    /// not per-head, so one run covers every head homed on the device.
    pub fn shared_block_run(&self, device: DeviceId, seqs: &[SeqId]) -> usize {
        self.devices[device.0 as usize].shared_block_run(seqs)
    }

    /// Splits per-global-head items into per-device groups, in local slot
    /// order.
    fn scatter<T>(&self, items: impl IntoIterator<Item = T>) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.devices.len()).map(|_| Vec::new()).collect();
        for (head, item) in items.into_iter().enumerate() {
            out[self.placement.device_of(head).0 as usize].push(item);
        }
        out
    }

    /// Appends one decode-step token: one K/V row per **global** head,
    /// scattered to each head's owning device.
    ///
    /// Returns `true` when the append flushed a packed block.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on shape mismatch, a sealed or unknown
    /// sequence, or pool exhaustion on any device.
    pub fn append_step<R: AsRef<[f32]>>(
        &mut self,
        seq: SeqId,
        k_rows: &[R],
        v_rows: &[R],
        codec: &impl BlockCodec,
    ) -> Result<bool, StoreError> {
        check_heads([k_rows.len(), v_rows.len()], self.heads())?;
        let k_by_dev = self.scatter(k_rows);
        let v_by_dev = self.scatter(v_rows);
        let mut flushed = false;
        for (dev, (k, v)) in self.devices.iter_mut().zip(k_by_dev.iter().zip(&v_by_dev)) {
            flushed |= dev.append_step(seq, k, v, codec)?;
        }
        Ok(flushed)
    }

    /// Enables or disables the content-addressed prefix cache on **every**
    /// device at once. Disabling drops each device's radix index and
    /// returns its cache-held pages to the pools — see
    /// [`PagedKvStore::set_prefix_cache`].
    pub fn set_prefix_cache(&mut self, enabled: bool) {
        for dev in &mut self.devices {
            dev.set_prefix_cache(enabled);
        }
    }

    /// Lifetime prefix-cache counters summed over every device.
    pub fn prefix_cache_stats(&self) -> PrefixCacheStats {
        let mut stats = PrefixCacheStats::default();
        for dev in &self.devices {
            stats.absorb(dev.prefix_cache_stats());
        }
        stats
    }

    /// Admits **and** prefills a sequence on **every** device in one step:
    /// one `tokens × dim` matrix per **global** head, scattered to owning
    /// devices, adopting cached prefix pages zero-copy where a device's
    /// radix index matches (with the cache off, nothing matches). Shapes
    /// and the page budget are pre-checked on every device before any pool
    /// is touched, so on failure nothing is admitted anywhere and no
    /// [`SeqId`] is burned. All devices assign the same id, which is
    /// returned together with the adoption totals summed over devices.
    ///
    /// Each device runs its bulk passes on the store's launch width, one
    /// device after another.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on shape mismatch — including
    /// [`StoreError::PromptLength`] when per-head token counts disagree,
    /// naming the global head — and [`StoreError::Oom`] when any device
    /// cannot cover `max(reserve_tokens, prompt_len)`.
    pub fn admit_prefill_cached<K: Borrow<TokenMatrix> + Sync>(
        &mut self,
        k: &[K],
        v: &[K],
        reserve_tokens: usize,
        codec: &impl BlockCodec,
    ) -> Result<(SeqId, PrefixAdmit), StoreError> {
        // Validate shapes up front: the per-device calls below must be
        // infallible so a failure never admits on a subset of devices.
        let len = check_prompt(k, v, self.heads(), self.config().dim)?;
        let need = reserve_tokens.max(len).div_ceil(self.page_tokens());
        let k_by_dev = self.scatter(k.iter().map(Borrow::borrow));
        let v_by_dev = self.scatter(v.iter().map(Borrow::borrow));
        let (id, per_device) = self.for_all_devices_atomically(
            |_, _| need,
            |d, dev| dev.admit_prefill_cached(&k_by_dev[d], &v_by_dev[d], reserve_tokens, codec),
        )?;
        let mut admit = PrefixAdmit::default();
        for dev_admit in per_device {
            admit.absorb(dev_admit);
        }
        Ok((id, admit))
    }

    /// Checks the sharding invariant against a contiguous cache that
    /// replayed the same history: for every global head `h`, the blocks
    /// gathered from `h`'s owning device must equal
    /// `cache.packed_blocks(cache_head_base + h)` bitwise, and the
    /// residual windows must match exactly.
    pub fn matches_cache(
        &self,
        seq: SeqId,
        cache: &QuantizedKvCache,
        cache_head_base: usize,
    ) -> bool {
        let Some(len) = self.seq_len(seq) else {
            return false;
        };
        (0..self.heads()).all(|head| {
            let ch = cache_head_base + head;
            len == cache.len(ch)
                && self
                    .packed_blocks(seq, head)
                    .into_iter()
                    .eq(cache.packed_blocks(ch))
                && self.residual(seq, head) == cache.residual(ch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ReferenceCodec;
    use crate::layout::PackLayout;
    use crate::placement::Partitioning;
    use crate::scheme::QuantScheme;

    fn cfg(dim: usize) -> CacheConfig {
        CacheConfig::new(dim, QuantScheme::kc4(), PackLayout::sm80_default())
    }

    fn row(dim: usize, t: usize, salt: usize) -> Vec<f32> {
        (0..dim)
            .map(|c| ((t * dim + c + salt * 977) as f32 * 0.37).sin())
            .collect()
    }

    /// Appends `n` tokens to the sharded store and a contiguous twin.
    fn mirrored_appends(
        store: &mut ShardedKvStore,
        seq: SeqId,
        n: usize,
        salt: usize,
    ) -> QuantizedKvCache {
        let dim = store.config().dim;
        let heads = store.heads();
        let mut cache = QuantizedKvCache::new(*store.config(), heads);
        for t in 0..n {
            let k: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t, salt + h)).collect();
            let v: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t + 500, salt + h)).collect();
            store.append_step(seq, &k, &v, &ReferenceCodec).unwrap();
            for h in 0..heads {
                cache
                    .append_token(h, &k[h], &v[h], &ReferenceCodec)
                    .unwrap();
            }
        }
        cache
    }

    #[test]
    fn sharded_matches_contiguous_for_all_partitionings() {
        for devices in [1, 2, 3, 4] {
            for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
                let placement = Placement::new(devices, part, 4);
                let mut store = ShardedKvStore::new(cfg(16), placement, 64, 48);
                let seq = store.admit(0).unwrap();
                let cache = mirrored_appends(&mut store, seq, 128 + 37, 0);
                assert!(
                    store.matches_cache(seq, &cache, 0),
                    "devices={devices} {part}"
                );
                assert_eq!(store.residual_len(seq), 37);
            }
        }
    }

    #[test]
    fn prefill_scatters_heads_to_owning_devices() {
        let placement = Placement::new(3, Partitioning::HeadModulo, 5);
        let mut store = ShardedKvStore::new(cfg(16), placement, 32, 64);
        let len = 128 + 11;
        let k: Vec<TokenMatrix> = (0..5)
            .map(|h| TokenMatrix::from_fn(len, 16, |t, c| ((h * 7 + t * 16 + c) as f32).sin()))
            .collect();
        let v: Vec<TokenMatrix> = (0..5)
            .map(|h| TokenMatrix::from_fn(len, 16, |t, c| ((h * 13 + t * 16 + c) as f32).cos()))
            .collect();
        let (seq, _) = store
            .admit_prefill_cached(&k, &v, 0, &ReferenceCodec)
            .unwrap();
        let mut cache = QuantizedKvCache::new(cfg(16), 5);
        for h in 0..5 {
            cache.prefill(h, &k[h], &v[h], &ReferenceCodec).unwrap();
        }
        assert!(store.matches_cache(seq, &cache, 0));
        // Each device holds only its share of the heads.
        assert_eq!(store.device(DeviceId(0)).heads(), 2);
        assert_eq!(store.device(DeviceId(2)).heads(), 1);
    }

    #[test]
    fn admission_reserves_on_every_device_and_oom_is_atomic() {
        let placement = Placement::new(2, Partitioning::HeadContiguous, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 4, 32);
        // 128 tokens = 4 pages on EACH device.
        let seq = store.admit(128).unwrap();
        assert_eq!(store.free_pages(), 0);
        assert_eq!(store.device_stats(DeviceId(0)).free_pages, 0);
        assert_eq!(store.device_stats(DeviceId(1)).free_pages, 0);
        let err = store.admit(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(store.resident(), 1);
        store.evict(seq);
        assert_eq!(store.free_pages(), 8);
        // The failed admit left every pool clean: a fresh reservation of
        // the full capacity succeeds.
        assert!(store.admit(128).is_ok());
    }

    #[test]
    fn failed_admit_keeps_seq_id_streams_in_lockstep_with_single_device() {
        // The same admit/evict history — including a failed admit — must
        // hand out identical SeqIds on a sharded store and a single-device
        // store.
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut sharded = ShardedKvStore::new(cfg(16), placement, 4, 32);
        let mut single = crate::store::PagedKvStore::new(cfg(16), 2, 4, 32);
        let a = sharded.admit(64).unwrap();
        assert_eq!(single.admit(64).unwrap(), a);
        let err = sharded.admit(128).unwrap_err(); // needs 4, 2 free
        assert_eq!(err, single.admit(128).unwrap_err());
        assert_eq!(
            err,
            PagedOom {
                requested: 4,
                free: 2
            }
        );
        // Rollback was total: every device still has its 2 free pages.
        for d in [DeviceId(0), DeviceId(1)] {
            assert_eq!(sharded.device_stats(d).free_pages, 2);
        }
        let b = sharded.admit(32).unwrap();
        assert_eq!(single.admit(32).unwrap(), b);
        assert_eq!(b.0, a.0 + 1, "failed admit burned a SeqId");
        sharded.evict(a);
        single.evict(a);
        let c = sharded.admit(96).unwrap();
        assert_eq!(single.admit(96).unwrap(), c);
    }

    #[test]
    fn swap_round_trip_is_bitwise_across_devices() {
        for devices in [1, 2, 3, 4] {
            for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
                let placement = Placement::new(devices, part, 4);
                let mut store = ShardedKvStore::new(cfg(16), placement, 64, 48);
                let free_before = store.free_pages();
                let seq = store.admit(300).unwrap();
                let cache = mirrored_appends(&mut store, seq, 128 + 37, 0);
                let blob = store.swap_out(seq).unwrap();
                assert_eq!(blob.devices(), store.devices());
                assert_eq!(blob.len(), 128 + 37);
                assert!(blob.host_bytes() > 0);
                assert_eq!(
                    store.free_pages(),
                    free_before,
                    "devices={devices} {part}: swap-out left pages behind"
                );
                assert!(store.swap_out(seq).is_err());
                let back = store.swap_in(&blob).unwrap();
                assert!(
                    store.matches_cache(back, &cache, 0),
                    "devices={devices} {part}: swap round trip not bitwise"
                );
            }
        }
    }

    #[test]
    fn sharded_swap_in_oom_is_atomic() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 4, 32);
        let seq = store.admit(96).unwrap(); // 3 pages/device
        mirrored_appends(&mut store, seq, 60, 0);
        let blob = store.swap_out(seq).unwrap();
        let hog = store.admit(64).unwrap(); // 2 pages/device
        let err = store.swap_in(&blob).unwrap_err();
        assert_eq!(
            err,
            StoreError::Oom(PagedOom {
                requested: 3,
                free: 2
            })
        );
        // Nothing changed anywhere: the hog is intact, pages unchanged.
        assert_eq!(store.resident(), 1);
        assert_eq!(store.free_pages(), 4);
        store.evict(hog);
        let back = store.swap_in(&blob).unwrap();
        assert_eq!(back.0, hog.0 + 1, "failed swap-in burned a SeqId");
        assert_eq!(store.seq_len(back), Some(60));
    }

    #[test]
    fn forks_share_prefix_pages_on_every_device_in_lockstep() {
        for devices in [1, 2, 3, 4] {
            for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
                let placement = Placement::new(devices, part, 4);
                let mut sharded = ShardedKvStore::new(cfg(16), placement, 64, 48);
                let mut single = crate::store::PagedKvStore::new(cfg(16), 4, 64, 48);
                let sp = sharded.admit(300).unwrap();
                let pp = single.admit(300).unwrap();
                let mut parent_cache = mirrored_appends(&mut sharded, sp, 256, 0);
                {
                    // Mirror the same history into the single-device twin.
                    let dim = 16;
                    for t in 0..256 {
                        let k: Vec<Vec<f32>> = (0..4).map(|h| row(dim, t, h)).collect();
                        let v: Vec<Vec<f32>> = (0..4).map(|h| row(dim, t + 500, h)).collect();
                        single.append_step(pp, &k, &v, &ReferenceCodec).unwrap();
                    }
                }
                let mut child_cache = parent_cache.clone();
                assert_eq!(
                    sharded.fork_new_pages(sp, 256, 300),
                    single.fork_new_pages(pp, 256, 300)
                );
                let sc = sharded.fork(sp, 256, 300).unwrap();
                let pc = single.fork(pp, 256, 300).unwrap();
                assert_eq!(sc, pc, "fork ids out of lockstep");
                assert!(sharded.matches_cache(sc, &child_cache, 0));
                // Divergent continuations stay independent across devices.
                for t in 256..300 {
                    let k: Vec<Vec<f32>> = (0..4).map(|h| row(16, t, 70 + h)).collect();
                    sharded.append_step(sc, &k, &k, &ReferenceCodec).unwrap();
                    for (h, kh) in k.iter().enumerate() {
                        child_cache
                            .append_token(h, kh, kh, &ReferenceCodec)
                            .unwrap();
                    }
                    let k: Vec<Vec<f32>> = (0..4).map(|h| row(16, t, 90 + h)).collect();
                    sharded.append_step(sp, &k, &k, &ReferenceCodec).unwrap();
                    for (h, kh) in k.iter().enumerate() {
                        parent_cache
                            .append_token(h, kh, kh, &ReferenceCodec)
                            .unwrap();
                    }
                }
                assert!(
                    sharded.matches_cache(sc, &child_cache, 0),
                    "devices={devices} {part}: child diverged"
                );
                assert!(
                    sharded.matches_cache(sp, &parent_cache, 0),
                    "devices={devices} {part}: parent corrupted"
                );
                let stats = sharded.sharing_stats();
                assert_eq!(stats.shared_pages, devices * 256usize.div_ceil(48));
                sharded.evict(sp);
                sharded.evict(sc);
                assert_eq!(sharded.free_pages(), sharded.total_pages());
            }
        }
    }

    #[test]
    fn sharded_fork_oom_is_atomic_and_boundary_errors_propagate() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 6, 32);
        let parent = store.admit(128).unwrap(); // 4 pages/device
        mirrored_appends(&mut store, parent, 128, 0);
        // Child: 4 shared + 3 private per device; only 2 free per device.
        let err = store.fork(parent, 128, 128 + 96).unwrap_err();
        assert!(matches!(err, StoreError::Oom(_)));
        for d in [DeviceId(0), DeviceId(1)] {
            assert_eq!(store.device_stats(d).free_pages, 2);
            assert_eq!(store.device(d).sharing_stats().shared_pages, 0);
        }
        assert!(matches!(
            store.fork(parent, 100, 200),
            Err(StoreError::ForkBoundary { .. })
        ));
        let child = store.fork(parent, 128, 128 + 64).unwrap();
        assert_eq!(child.0, parent.0 + 1, "failed fork burned a SeqId");
    }

    #[test]
    fn sharded_admit_prefill_cached_oom_is_atomic() {
        let build = || {
            let placement = Placement::new(2, Partitioning::HeadModulo, 2);
            let mut store = ShardedKvStore::new(cfg(16), placement, 8, 32);
            store.set_prefix_cache(true);
            store
        };
        let (mut store, mut twin) = (build(), build());
        // One full 4-page run per device (Nr = 128) plus a residual page.
        let len = 160;
        let k: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(len, 16, |t, c| ((h * 7 + t * 16 + c) as f32).sin()))
            .collect();
        let (a, _) = store
            .admit_prefill_cached(&k, &k, len, &ReferenceCodec)
            .unwrap();
        let (twin_a, _) = twin
            .admit_prefill_cached(&k, &k, len, &ReferenceCodec)
            .unwrap();
        let snapshot = |s: &ShardedKvStore| -> Vec<(usize, PrefixCacheStats)> {
            (0..s.devices())
                .map(|d| s.device(DeviceId(d as u32)))
                .map(|dev| (dev.free_pages(), dev.prefix_cache_stats()))
                .collect()
        };
        let before = snapshot(&store);
        // The same prompt hits the cache on every device, but its 5-page
        // budget does not fit the 3 pages each device has left.
        let err = store
            .admit_prefill_cached(&k, &k, len, &ReferenceCodec)
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::Oom(PagedOom {
                requested: 5,
                free: 3
            })
        );
        assert_eq!(snapshot(&store), before, "a device was touched");
        store.evict(a);
        twin.evict(twin_a);
        let (b, _) = store
            .admit_prefill_cached(&k, &k, len, &ReferenceCodec)
            .unwrap();
        let (twin_b, _) = twin
            .admit_prefill_cached(&k, &k, len, &ReferenceCodec)
            .unwrap();
        assert_eq!(b, twin_b, "failed admission burned a SeqId");
    }

    #[test]
    fn sharing_sequence_swap_round_trip_reshares_across_devices() {
        let placement = Placement::new(2, Partitioning::HeadContiguous, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 8, 32);
        let parent = store.admit(160).unwrap(); // 5 pages/device
        let cache = mirrored_appends(&mut store, parent, 128, 0);
        let child = store.fork(parent, 128, 160).unwrap();
        let free_before = store.free_pages();
        let blob = store.swap_out(child).unwrap();
        // Only the private page frees on each device.
        assert_eq!(store.free_pages(), free_before + 2);
        assert_eq!(store.swap_in_new_pages(&blob), 1);
        let back = store.swap_in(&blob).unwrap();
        assert_eq!(store.free_pages(), free_before);
        assert!(store.matches_cache(back, &cache, 0));
        assert_eq!(store.sharing_stats().shared_pages, 2 * 4);
    }

    #[test]
    fn cow_breaks_count_shared_page_privatizations_per_device() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 8, 96);
        let parent = store.admit(128).unwrap();
        mirrored_appends(&mut store, parent, 128, 0);
        assert_eq!(store.cow_breaks(), 0);
        // Token 128 is mid slot 1, so slot 1 is shared after the fork.
        let child = store.fork(parent, 128, 256).unwrap();
        assert_eq!(store.cow_breaks(), 0, "fork alone breaks nothing");
        // The child's first flushed block homes on shared slot 1,
        // privatizing it once on each device; later flushes land on
        // already-private pages.
        for t in 128..256 {
            let k: Vec<Vec<f32>> = (0..2).map(|h| row(16, t, 70 + h)).collect();
            store.append_step(child, &k, &k, &ReferenceCodec).unwrap();
        }
        assert_eq!(store.cow_breaks(), 2);
        for d in [DeviceId(0), DeviceId(1)] {
            assert_eq!(store.device(d).cow_breaks(), 1);
        }
    }

    #[test]
    fn eviction_accounting_is_per_device() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 16, 32);
        let a = store.admit(64).unwrap(); // 2 pages/device
        let b = store.admit(96).unwrap(); // 3 pages/device
        store.evict(a);
        store.evict(b);
        store.evict(b); // unknown by now: ignored
        for d in [DeviceId(0), DeviceId(1)] {
            let stats = store.device_stats(d);
            assert_eq!(stats.evicted_seqs, 2);
            assert_eq!(stats.evicted_pages, 5);
            assert_eq!(stats.free_pages, 16);
            assert_eq!(stats.utilization, 0.0);
        }
    }

    #[test]
    fn utilization_aggregates_devices() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg(16), placement, 10, 16);
        let _ = store.admit(80).unwrap(); // 5 pages on each device
        assert!((store.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(store.total_pages(), 20);
        assert_eq!(store.free_pages(), 10);
    }

    #[test]
    fn head_count_errors_are_global() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 4);
        let mut store = ShardedKvStore::new(cfg(16), placement, 8, 32);
        let seq = store.admit(0).unwrap();
        let bad = vec![vec![0.0f32; 16]; 3];
        let good = vec![vec![0.0f32; 16]; 4];
        assert!(matches!(
            store.append_step(seq, &bad, &good, &ReferenceCodec),
            Err(StoreError::HeadCount {
                got: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn corrupt_device_share_is_rejected_before_any_pool_is_touched() {
        let placement = Placement::new(2, Partitioning::HeadModulo, 4);
        let mut store = ShardedKvStore::new(cfg(16), placement, 64, 48);
        let seq = store.admit(200).unwrap();
        let _cache = mirrored_appends(&mut store, seq, 150, 1);
        let clean = store.swap_out(seq).unwrap();
        let free: Vec<usize> = (0..store.devices())
            .map(|d| store.device(DeviceId(d as u32)).free_pages())
            .collect();
        // Damage only the *second* device's share: verification must span
        // all shares and reject before device 0's pool adopts anything.
        let mut blob = clean.clone();
        blob.flip_bit(1, 9_999);
        assert!(matches!(
            blob.verify().unwrap_err(),
            StoreError::CorruptBlob { .. }
        ));
        assert!(matches!(
            store.swap_in(&blob).unwrap_err(),
            StoreError::CorruptBlob { .. }
        ));
        for (d, want) in free.iter().enumerate() {
            assert_eq!(
                store.device(DeviceId(d as u32)).free_pages(),
                *want,
                "device {d} pool touched by a rejected swap-in"
            );
        }
        // SeqId lockstep: the failed attempt burned nothing — the clean
        // blob restores with the next id on every device.
        assert!(store.swap_in(&clean).is_ok());
    }

    #[test]
    fn identical_prompts_dedup_on_every_device_via_the_prefix_cache() {
        for devices in [1, 2, 3] {
            for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
                let placement = Placement::new(devices, part, 4);
                let mut store = ShardedKvStore::new(cfg(16), placement, 64, 32);
                store.set_prefix_cache(true);
                // 128 packed tokens = one full 4-page run per device
                // (Nr = 128, 32-token pages), plus a 32-token residual.
                let len = 160;
                let k: Vec<TokenMatrix> = (0..4)
                    .map(|h| {
                        TokenMatrix::from_fn(len, 16, |t, c| ((h * 7 + t * 16 + c) as f32).sin())
                    })
                    .collect();
                let v: Vec<TokenMatrix> = (0..4)
                    .map(|h| {
                        TokenMatrix::from_fn(len, 16, |t, c| ((h * 13 + t * 16 + c) as f32).cos())
                    })
                    .collect();
                let (a, first) = store
                    .admit_prefill_cached(&k, &v, len, &ReferenceCodec)
                    .unwrap();
                assert_eq!(first.pages_reused, 0, "nothing cached yet");
                let free_after_first = store.free_pages();
                let (b, second) = store
                    .admit_prefill_cached(&k, &v, len, &ReferenceCodec)
                    .unwrap();
                assert_eq!(b.0, a.0 + 1, "ids out of lockstep");
                // Each device adopts its whole packed run zero-copy; only
                // the residual page is fresh.
                assert_eq!(second.pages_reused, 4 * devices, "devices={devices} {part}");
                assert!(second.bytes_reused > 0);
                assert_eq!(free_after_first - store.free_pages(), devices);
                let stats = store.prefix_cache_stats();
                assert_eq!(stats.hits, devices as u64);
                assert_eq!(stats.misses, devices as u64);
                assert_eq!(stats.pages_reused, (4 * devices) as u64);
                // Both tenants read bitwise what a contiguous cache holds.
                let mut cache = QuantizedKvCache::new(cfg(16), 4);
                for h in 0..4 {
                    cache.prefill(h, &k[h], &v[h], &ReferenceCodec).unwrap();
                }
                assert!(store.matches_cache(a, &cache, 0));
                assert!(store.matches_cache(b, &cache, 0));
                // The adopted run forms a cascade group on every device,
                // exactly as an explicit fork would.
                for d in 0..devices {
                    assert_eq!(store.shared_block_run(DeviceId(d as u32), &[a, b]), 1);
                }
                // Cached pages outlive their tenants; disabling the cache
                // returns every one of them (leak audit).
                store.evict(a);
                store.evict(b);
                let cached = |s: &ShardedKvStore| -> usize {
                    s.devices
                        .iter()
                        .map(PagedKvStore::prefix_cached_pages)
                        .sum()
                };
                assert_eq!(cached(&store), 4 * devices);
                store.set_prefix_cache(false);
                assert_eq!(cached(&store), 0);
                assert_eq!(store.free_pages(), store.total_pages());
            }
        }
    }
}
