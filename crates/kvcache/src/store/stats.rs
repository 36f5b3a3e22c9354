//! Sharing and prefix-cache statistics: what the page tables share, what
//! that saves, and the radix cache's lifetime counters.

use super::PagedKvStore;
use crate::block::PackedBlock;
use crate::paged::{PageId, SeqId};
use std::collections::BTreeMap;

/// Page-sharing occupancy snapshot of a [`PagedKvStore`] (or, summed, of a
/// [`crate::ShardedKvStore`]) — the storage half of the serve layer's
/// shared-vs-owned metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvSharingStats {
    /// Physical pages currently allocated.
    pub physical_pages: usize,
    /// Page-table entries summed over resident sequences — what an
    /// unshared store would have to allocate for the same residents.
    pub logical_pages: usize,
    /// Physical pages mapped by more than one sequence.
    pub shared_pages: usize,
    /// Physical pages mapped by exactly one sequence.
    pub owned_pages: usize,
    /// Packed-payload bytes deduplication saves right now: for every
    /// shared page, `(refcount − 1) ×` the bytes of the blocks homed on
    /// it.
    pub bytes_saved: usize,
}

impl KvSharingStats {
    /// Accumulates another snapshot (per-device aggregation).
    pub(crate) fn absorb(&mut self, other: KvSharingStats) {
        self.physical_pages += other.physical_pages;
        self.logical_pages += other.logical_pages;
        self.shared_pages += other.shared_pages;
        self.owned_pages += other.owned_pages;
        self.bytes_saved += other.bytes_saved;
    }
}

/// Lifetime counters of the content-addressed radix prefix cache — see
/// [`PagedKvStore::set_prefix_cache`]. A **hit** is an admission (fresh
/// prefill or swap-in) that adopted at least one cached page; every other
/// admission eligible for lookup counts a **miss**.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Admissions that adopted at least one cached prefix page.
    pub hits: u64,
    /// Admissions that went through lookup and adopted nothing.
    pub misses: u64,
    /// Pages adopted zero-copy from the cache, summed over hits.
    pub pages_reused: u64,
    /// Packed payload bytes resident on those adopted pages.
    pub bytes_reused: u64,
    /// Unreferenced subtrees evicted (LRU reclaim or staleness).
    pub evicted_subtrees: u64,
    /// Pages those evicted subtrees released back to the pool.
    pub evicted_pages: u64,
}

impl PrefixCacheStats {
    /// Accumulates another device's counters (sharded aggregation).
    pub(crate) fn absorb(&mut self, other: PrefixCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.pages_reused += other.pages_reused;
        self.bytes_reused += other.bytes_reused;
        self.evicted_subtrees += other.evicted_subtrees;
        self.evicted_pages += other.evicted_pages;
    }
}

/// What one [`PagedKvStore::admit_prefill_cached`] admission adopted from
/// the prefix cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixAdmit {
    /// Pages adopted zero-copy instead of being written fresh.
    pub pages_reused: usize,
    /// Packed payload bytes resident on the adopted pages.
    pub bytes_reused: usize,
}

impl PrefixAdmit {
    /// Accumulates another device's share of the same admission.
    pub(crate) fn absorb(&mut self, other: PrefixAdmit) {
        self.pages_reused += other.pages_reused;
        self.bytes_reused += other.bytes_reused;
    }
}

impl PagedKvStore {
    /// Monotone count of copy-on-write breaks since the store was built:
    /// each is one shared page privatized because a sequence wrote into
    /// it. Observability reads this per step to attribute CoW traffic.
    pub(crate) fn cow_breaks(&self) -> usize {
        self.cow_breaks
    }

    /// Longest run of leading packed blocks that **every** listed sequence
    /// reads from the same physical pages — the cascade-attention group
    /// boundary. Block `b` (of `Nr` tokens) homes on page slot
    /// `(b·Nr)/page_tokens`; the run extends while all sequences' page
    /// tables agree on that slot's [`PageId`], and is
    /// capped at the shortest sequence's own flushed-block count.
    ///
    /// Physical-identity comparison makes the boundary automatically
    /// correct around sharing edges: a CoW break replaces the writer's
    /// page, so the run stops at the last still-shared page; a fork at a
    /// non-page-aligned boundary leaves the straddling page shared only
    /// until someone flushes into it, and the shortest-length cap keeps a
    /// short sharer from claiming blocks it never flushed. Returns `0` for
    /// fewer than two sequences or if any is non-resident.
    pub fn shared_block_run(&self, seqs: &[SeqId]) -> usize {
        if seqs.len() < 2 {
            return 0;
        }
        let nr = self.residual_block();
        let pt = self.page_tokens();
        let mut limit = usize::MAX;
        let mut tables = Vec::with_capacity(seqs.len());
        for &seq in seqs {
            let Some(len) = self.seq_len(seq) else {
                return 0;
            };
            let Some(table) = self.pool.table(seq) else {
                return 0;
            };
            limit = limit.min(len / nr);
            tables.push(table);
        }
        let mut run = 0;
        for b in 0..limit {
            let slot = (b * nr) / pt;
            let first = tables[0].get(slot);
            if first.is_none() || tables[1..].iter().any(|t| t.get(slot) != first) {
                break;
            }
            run = b + 1;
        }
        run
    }

    /// Page-sharing snapshot: physical vs logical occupancy and the packed
    /// bytes deduplication currently saves.
    ///
    /// `bytes_saved` counts only bytes a sharer actually *reads*: per
    /// shared page, the sum over sharers of their own block-prefix bytes,
    /// minus the largest such prefix (stored once). Blocks the original
    /// writer flushed past every sharer's boundary are its private data,
    /// not a saving.
    pub fn sharing_stats(&self) -> KvSharingStats {
        let physical_pages = self.total_pages() - self.free_pages();
        let shared_pages = self.pool.shared_pages();
        if shared_pages == 0 {
            // Nothing shared (the common unforked case): skip the
            // per-sequence byte walk — this runs every serve step.
            return KvSharingStats {
                physical_pages,
                logical_pages: self.pool.logical_pages(),
                shared_pages: 0,
                owned_pages: physical_pages,
                bytes_saved: 0,
            };
        }
        // Per shared page: (sum, max) of the sharers' own-prefix bytes.
        let mut per_page: BTreeMap<PageId, (usize, usize)> = BTreeMap::new();
        for &seq in self.seqs.keys() {
            let Some(table) = self.pool.table(seq) else {
                unreachable!("resident sequence");
            };
            for (slot, &page) in table.iter().enumerate() {
                if self.pool.seq_refcount(page) <= 1 {
                    continue;
                }
                let own_here = self.own_blocks_on_slot(seq, slot);
                let own_bytes: usize = self.frames[page.0 as usize]
                    .iter()
                    .flat_map(|head| head.iter().take(own_here).map(PackedBlock::byte_size))
                    .sum();
                let entry = per_page.entry(page).or_insert((0, 0));
                entry.0 += own_bytes;
                entry.1 = entry.1.max(own_bytes);
            }
        }
        let bytes_saved = per_page.values().map(|&(sum, max)| sum - max).sum();
        KvSharingStats {
            physical_pages,
            logical_pages: self.pool.logical_pages(),
            shared_pages,
            owned_pages: physical_pages - shared_pages,
            bytes_saved,
        }
    }

    /// Device bytes currently held by a sequence (packed payloads + FP16
    /// residual windows).
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence.
    pub fn seq_bytes(&self, seq: SeqId) -> usize {
        let packed: usize = (0..self.heads)
            .flat_map(|h| self.packed_blocks(seq, h))
            .map(PackedBlock::byte_size)
            .sum();
        let residual: usize = self.seqs[&seq]
            .residual_k
            .iter()
            .map(|w| w.tokens() * self.config.dim * 2 * 2)
            .sum();
        packed + residual
    }

    /// Lifetime prefix-cache counters (all zero while disabled).
    pub(crate) fn prefix_cache_stats(&self) -> PrefixCacheStats {
        self.prefix_stats
    }

    /// Pages the prefix cache currently holds pinned (shared with, or
    /// outliving, their registering sequences).
    #[cfg(test)]
    pub(crate) fn prefix_cached_pages(&self) -> usize {
        self.radix.all_pages().len()
    }
}
