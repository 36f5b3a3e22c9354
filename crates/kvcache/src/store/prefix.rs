//! Radix adoption and LRU eviction: the content-addressed prefix cache
//! behind [`PagedKvStore::admit_prefill_cached`] and
//! [`PagedKvStore::swap_in`], and the reclaim that makes room for every
//! allocation.

use super::swap::{fold_packed_block, packed_fold};
use super::{check_prompt, concat, PagedKvStore, PrefixAdmit, StoreError};
use crate::block::PackedBlock;
use crate::codec::BlockCodec;
use crate::matrix::TokenRows;
use crate::paged::{PageId, SeqId};
use crate::radix::{fold_source_rows, fold_source_word, SourceDigest};
use crate::scheme::SchemeKind;
use std::ops::Range;

/// Greatest common divisor (Euclid).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit state — only for the chains, which
/// fold a few words per run; a leaf or a checksum is a word fold.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Seed of every source leaf (the store's geometry enters the chain, not
/// the leaf).
const SOURCE_LEAF_SEED: SourceDigest = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];

/// The source leaf of one head's run: the raw `f32` bits of its K rows,
/// then its V rows, over `tokens`, folded from [`SOURCE_LEAF_SEED`].
pub(super) fn source_leaf<K: TokenRows, V: TokenRows>(
    hk: &K,
    hv: &V,
    tokens: Range<usize>,
) -> SourceDigest {
    let k = tokens.clone().map(|t| hk.token_row(t));
    let v = tokens.map(|t| hv.token_row(t));
    fold_source_rows(SOURCE_LEAF_SEED, k.chain(v))
}

/// The packed leaf of one head's run: every packed block of the run,
/// word-folded from the packed fold's seed.
pub(super) fn packed_leaf(run: &[PackedBlock]) -> u64 {
    let mut fold = packed_fold();
    for block in run {
        fold_packed_block(&mut fold, block);
    }
    fold.finish().0
}

impl PagedKvStore {
    /// Enables or disables the content-addressed radix prefix cache.
    ///
    /// Enabled, every admission that prefills (or swaps in) registers its
    /// sealed full page runs in a radix index, pinning those pages past
    /// their sequence's lifetime. A run is keyed by a chain over the
    /// **packed bytes** of the prefix it ends (plus scheme, page geometry,
    /// and run position; one word-folded leaf per run and head) and — when
    /// it came from a prefill — by a 128-bit digest chained the same way
    /// over the `f32` **source rows** it was quantized from, so a later
    /// [`PagedKvStore::admit_prefill_cached`] finds it before quantizing
    /// anything; the packed chain (the only key a
    /// [`PagedKvStore::swap_in`] has) stays behind it. Unreferenced
    /// holdings are reclaimed LRU-subtree-first whenever an allocation
    /// needs room, and they count as free in
    /// [`PagedKvStore::free_pages`] — cache residency is invisible to
    /// admission control.
    ///
    /// Adoption by source digest trusts a non-cryptographic 128-bit hash
    /// of the exact input bits plus an exact check of each head's first
    /// block, where the packed path verifies every byte: callers of one
    /// store share a trust domain.
    ///
    /// Disabling drops the whole index and returns every unreferenced
    /// holding to the pool. The cache starts **disabled**.
    pub fn set_prefix_cache(&mut self, enabled: bool) {
        self.prefix_cache = enabled;
        if !enabled {
            for p in std::mem::take(&mut self.radix).all_pages() {
                if self.pool.unpin_page(p) {
                    self.clear_frame(p);
                }
            }
        }
    }

    /// Whether the radix prefix cache is enabled.
    pub fn prefix_cache_enabled(&self) -> bool {
        self.prefix_cache
    }

    /// Pages per cache run — the smallest page count whose tokens are a
    /// whole number of `Nr` blocks, so adopting a run never splits a
    /// packed block across an adopted/private boundary (and the adopter's
    /// own first flush always lands on a fresh page past the run).
    fn run_pages(&self) -> usize {
        let nr = self.residual_block();
        nr / gcd(nr, self.page_tokens())
    }

    /// Packed blocks per cache run.
    pub(super) fn run_blocks(&self) -> usize {
        self.run_pages() * self.page_tokens() / self.residual_block()
    }

    /// Full cache runs among `blocks` packed blocks per head — none while
    /// the cache is off, which keeps every lookup and registration a no-op.
    fn full_runs(&self, blocks: usize) -> usize {
        usize::from(self.prefix_cache) * (blocks / self.run_blocks())
    }

    /// Hash seed binding both chains to this store's shape: quant scheme,
    /// head dim, head count, `Nr`, and page size all fold in, so stores
    /// with different geometry can never exchange entries.
    pub(super) fn prefix_seed(&self) -> u64 {
        let scheme = match self.config.scheme.kind() {
            SchemeKind::Int {
                width,
                key_granularity,
                group,
            } => [0, width.bits() as usize, key_granularity as usize, group],
            SchemeKind::Fp4(kind) => [1, kind.block_size(), 0, 0],
        };
        let (nr, pt) = (self.residual_block(), self.page_tokens());
        (scheme
            .into_iter()
            .chain([self.config.dim, self.heads, nr, pt]))
        .fold(FNV_OFFSET, |h, v| fnv_fold(h, &(v as u64).to_le_bytes()))
    }

    /// Source digests of a prompt's leading `runs` page runs. The
    /// per-(run, head) source leaves fold on the launch, one task per head
    /// and range of runs; then the chain folds them in order: digest `r`
    /// is digest `r − 1` (the store's seed before run 0) folded with the
    /// run index and run `r`'s leaves in head order. Like a packed chain
    /// key it addresses the whole prefix it terminates, and no leaf
    /// depends on how runs were split into tasks.
    pub(super) fn source_chain<K: TokenRows, V: TokenRows>(
        &self,
        k: &[K],
        v: &[V],
        runs: usize,
    ) -> Vec<SourceDigest> {
        let run_tokens = self.run_blocks() * self.residual_block();
        let leaves: Vec<Vec<SourceDigest>> = (self.launch_per_head(0..runs, 1, |head, runs| {
            runs.map(|r| source_leaf(&k[head], &v[head], r * run_tokens..(r + 1) * run_tokens))
                .collect()
        }))
        .into_iter()
        .map(concat)
        .collect();
        let seed = self.prefix_seed();
        let mut d = [seed, !seed.rotate_left(32)];
        (0..runs)
            .map(|r| {
                d = fold_source_word(d, r as u64);
                for head in &leaves {
                    d = head[r].into_iter().fold(d, fold_source_word);
                }
                [self.chain_key(d[0]), d[1]]
            })
            .collect()
    }

    /// A chain state as the index keys it (the test hook collapses it).
    fn chain_key(&self, h: u64) -> u64 {
        #[cfg(test)]
        if self.collide_hashes {
            return 0x0BAD_C0DE;
        }
        h
    }

    /// Packed chain keys of the runs whose per-head packed leaves are
    /// `leaves[head]` — runs `first_run..` of a sequence, the chain
    /// resuming from state `h` (the seed, or run `first_run - 1`'s key).
    /// Key `r` folds key `r − 1`, the run index and run `r`'s leaves in
    /// head order, so it addresses the *entire* prefix it terminates.
    pub(super) fn chain_keys(&self, leaves: &[Vec<u64>], first_run: usize, mut h: u64) -> Vec<u64> {
        (0..leaves.first().map_or(0, Vec::len))
            .map(|r| {
                h = fnv_fold(h, &((first_run + r) as u64).to_le_bytes());
                for head in leaves {
                    h = fnv_fold(h, &head[r].to_le_bytes());
                }
                self.chain_key(h)
            })
            .collect()
    }

    /// The packed leaves of every full run in `blocks[head]`, on the
    /// launch — what a swap-in, which only has packed bytes, keys by.
    pub(super) fn packed_leaves(&self, blocks: &[Vec<PackedBlock>]) -> Vec<Vec<u64>> {
        let bpr = self.run_blocks();
        let runs = self.full_runs(blocks.first().map_or(0, Vec::len));
        (self.launch_per_head(0..runs, 1, |head, runs| {
            runs.map(|r| packed_leaf(&blocks[head][r * bpr..(r + 1) * bpr]))
                .collect()
        }))
        .into_iter()
        .map(concat)
        .collect()
    }

    /// `true` when a page of cached run `id` was recycled or rewritten
    /// since the run was registered.
    fn run_is_stale(&self, id: usize) -> bool {
        let node = self.radix.node(id);
        (node.pages.iter().zip(&node.gens))
            .any(|(&p, &g)| self.pool.refcount(p) == 0 || self.pool.generation(p) != g)
    }

    /// Accounts one subtree the index let go of and releases its pages.
    fn drop_cached(&mut self, dropped: Vec<PageId>) {
        self.prefix_stats.evicted_subtrees += 1;
        self.prefix_stats.evicted_pages += dropped.len() as u64;
        for p in dropped {
            if self.pool.unpin_page(p) {
                self.clear_frame(p);
            }
        }
    }

    /// Packed payload bytes homed on `page`, all heads.
    pub(super) fn frame_bytes(&self, page: PageId) -> usize {
        (self.frames[page.0 as usize].iter().flatten())
            .map(PackedBlock::byte_size)
            .sum()
    }

    /// The pages of cached runs `ids`, in run order.
    pub(super) fn run_pages_of(&self, ids: &[usize]) -> Vec<PageId> {
        (ids.iter().flat_map(|&id| &self.radix.node(id).pages))
            .copied()
            .collect()
    }

    /// Extends `adopted` — the nodes of the leading runs an admission has
    /// matched — through the packed-byte chain over `blocks[head]`, the
    /// blocks of the runs past them, whose full runs' packed leaves are
    /// `leaves[head]`. A run whose node is fresh and whose frames
    /// byte-verify (a chain-hash collision must never alias pages) is
    /// touched and appended, a stale node is evicted with its subtree, and
    /// the walk stops at the first miss. Returns the chain keys of **all**
    /// the full runs in `blocks`, for registration to reuse.
    pub(super) fn walk_packed(
        &mut self,
        blocks: &[Vec<PackedBlock>],
        leaves: &[Vec<u64>],
        adopted: &mut Vec<usize>,
    ) -> Vec<u64> {
        let bpr = self.run_blocks();
        let resume = adopted.last().map(|&id| self.radix.node(id).key);
        let keys = self.chain_keys(
            leaves,
            adopted.len(),
            resume.unwrap_or_else(|| self.prefix_seed()),
        );
        for (r, &key) in keys.iter().enumerate() {
            let Some(id) = self.radix.child(adopted.last().copied(), key) else {
                break;
            };
            if self.run_is_stale(id) {
                let dropped = self.radix.remove_subtree(id);
                self.drop_cached(dropped);
                break;
            }
            let pages = &self.radix.node(id).pages;
            let verified = blocks.iter().enumerate().all(|(head, want)| {
                let cached = pages.iter().flat_map(|&p| &self.frames[p.0 as usize][head]);
                cached.eq(&want[r * bpr..(r + 1) * bpr])
            });
            if !verified {
                break;
            }
            self.radix.touch(id);
            adopted.push(id);
        }
        keys
    }

    /// Evicts cold unreferenced cache subtrees until the pool has at
    /// least `fresh` pages on its free list (or nothing evictable
    /// remains). `protect` lists pages about to be adopted zero-copy —
    /// they must survive the reclaim that makes room for the rest of the
    /// same admission.
    pub(super) fn ensure_free(&mut self, fresh: usize, protect: &[PageId]) {
        while self.pool.free_pages() < fresh {
            let pool = &self.pool;
            let evictable = |p: PageId| pool.seq_refcount(p) == 0 && !protect.contains(&p);
            let Some(dropped) = self.radix.evict_lru_subtree(&evictable) else {
                return;
            };
            self.drop_cached(dropped);
        }
    }

    /// Registers `seq`'s leading full page runs in the radix index,
    /// pinning their pages so they outlive the sequence and later
    /// identical prompts adopt them zero-copy: first the `adopted` nodes
    /// (still protected by the admission that walked them), then one run
    /// per packed key in `keys` — present ones are LRU-touched, stale
    /// ones (recycled pages) replaced, the rest inserted. `sources[r]`,
    /// if the caller had source rows, is recorded on run `r`'s node when
    /// that node is one of `adopted` (verified against those rows) or
    /// inserted here (written from them) — never on a node merely found
    /// by key, which may be a chain-hash collision holding other bytes.
    pub(super) fn register_prefix(
        &mut self,
        seq: SeqId,
        adopted: &[usize],
        keys: &[u64],
        sources: &[SourceDigest],
    ) {
        let rp = self.run_pages();
        let mut parent = None;
        for r in 0..adopted.len() + keys.len() {
            let mut cached = match adopted.get(r) {
                Some(&id) => Some(id),
                None => self.radix.child(parent, keys[r - adopted.len()]),
            };
            if let Some(id) = cached.filter(|&id| self.run_is_stale(id)) {
                let dropped = self.radix.remove_subtree(id);
                self.drop_cached(dropped);
                cached = None;
            }
            let ours = r < adopted.len() || cached.is_none();
            let id = match cached {
                // Already cached at this position (this very content, or —
                // vanishingly rarely — a hash collision, which
                // adoption-time verification keeps harmless).
                Some(id) => {
                    self.radix.touch(id);
                    id
                }
                None => {
                    let Some(table) = self.pool.table(seq) else {
                        unreachable!("resident sequence");
                    };
                    let pages = table[r * rp..(r + 1) * rp].to_vec();
                    let gens = pages.iter().map(|&p| self.pool.generation(p)).collect();
                    let bytes = pages.iter().map(|&p| self.frame_bytes(p)).sum();
                    for &p in &pages {
                        self.pool.pin_page(p);
                    }
                    let key = keys[r - adopted.len()];
                    self.radix.insert(parent, key, pages, gens, bytes)
                }
            };
            if let Some(&digest) = sources.get(r).filter(|_| ours) {
                self.radix.set_source(id, digest);
            }
            parent = Some(id);
        }
    }

    /// Admits **and** prefills a sequence in one step, adopting cached
    /// prefix pages zero-copy — the content-addressed twin of
    /// [`PagedKvStore::admit`] + [`PagedKvStore::prefill`]. The prompt's
    /// source rows are hashed and looked up **before** anything is
    /// quantized: every leading full page run whose digest matches
    /// (generation-checked, and block 0 of every head re-encoded with
    /// `codec` equals the cached frame, so two codecs on one store never
    /// alias) is adopted as it is. Only the unmatched suffix is packed;
    /// it continues through the packed-byte chain (generation-checked
    /// **and** byte-verified), which still finds a run a swap-in
    /// registered or different `f32`s that pack identically. The admitted
    /// sequence is bitwise indistinguishable from one admitted with the
    /// cache off, and the admission decision charges the same
    /// [`PagedKvStore::free_pages`] budget, so a hit changes what an
    /// admission costs, never whether it fits.
    ///
    /// With the cache disabled the lookup matches nothing, so this is
    /// exactly `admit` followed by `prefill`. Like
    /// [`PagedKvStore::admit`], a failed admission changes nothing and
    /// burns no [`SeqId`].
    ///
    /// The three bulk passes — the source leaves, packing the unmatched
    /// suffix, and its packed leaves — run on the store's launch, one task
    /// per head and range of runs; validation, the lookup, page
    /// allocation, installation and registration stay sequential in head
    /// order, so the result is identical at every launch width.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Oom`] when the pool cannot cover
    /// `max(reserve_tokens, prompt_len)`, and shape errors as
    /// [`PagedKvStore::prefill`] would.
    pub fn admit_prefill_cached<K, V>(
        &mut self,
        k: &[K],
        v: &[V],
        reserve_tokens: usize,
        codec: &impl BlockCodec,
    ) -> Result<(SeqId, PrefixAdmit), StoreError>
    where
        K: TokenRows,
        V: TokenRows,
    {
        let len = check_prompt(k, v, self.heads, self.config.dim)?;
        let reserve = reserve_tokens.max(len);
        let need = reserve.div_ceil(self.page_tokens());
        self.check_free(need)?;
        // Look up before quantizing. A digest match is checked against
        // the codec before staleness so that, exactly like the packed
        // walk, only a node this very admission would have keyed is ever
        // evicted as stale.
        let blocks = len / self.residual_block();
        let sources = self.source_chain(k, v, self.full_runs(blocks));
        let mut adopted = Vec::new();
        for (r, digest) in sources.iter().enumerate() {
            let Some(id) = self.radix.source_child(adopted.last().copied(), *digest) else {
                break;
            };
            if r == 0 {
                let frame = &self.frames[self.radix.node(id).pages[0].0 as usize];
                let agrees = (k.iter().zip(v).zip(frame)).all(|((hk, hv), cached)| {
                    self.pack_head(hk, hv, 0..1, codec).first() == cached.first()
                });
                if !agrees {
                    break;
                }
            }
            if self.run_is_stale(id) {
                let dropped = self.radix.remove_subtree(id);
                self.drop_cached(dropped);
                break;
            }
            self.radix.touch(id);
            adopted.push(id);
        }
        // Quantize only the unmatched suffix and carry on through the
        // packed chain from the last adopted node.
        let by_source = adopted.len();
        let bpr = self.run_blocks();
        let (mut packed, leaves) = self.pack_prompt_blocks(k, v, by_source * bpr..blocks, codec);
        let keys = self.walk_packed(&packed, &leaves, &mut adopted);
        for head in &mut packed {
            head.drain(..(adopted.len() - by_source) * bpr);
        }
        let adopted_pages = self.run_pages_of(&adopted);
        let adopted_bytes = adopted.iter().map(|&id| self.radix.node(id).bytes).sum();
        self.ensure_free(need.saturating_sub(adopted_pages.len()), &adopted_pages);
        let slots: Vec<Option<PageId>> = adopted_pages.iter().map(|&p| Some(p)).collect();
        let seq = self.pool.adopt(&slots, reserve).map_err(StoreError::Oom)?;
        self.seqs.insert(seq, self.empty_seq());
        self.install_prompt(seq, k, v, packed, adopted.len() * bpr);
        self.register_prefix(seq, &adopted, &keys[adopted.len() - by_source..], &sources);
        let admit = self.record_admission(adopted_pages.len(), adopted_bytes);
        Ok((seq, admit))
    }

    /// Reports what one admission adopted and, with the cache on, counts
    /// it as a lookup — a hit when it adopted anything. With the cache off
    /// nothing was looked up and the counters stay zero.
    pub(super) fn record_admission(
        &mut self,
        pages_reused: usize,
        bytes_reused: usize,
    ) -> PrefixAdmit {
        if self.prefix_cache && pages_reused > 0 {
            self.prefix_stats.hits += 1;
            self.prefix_stats.pages_reused += pages_reused as u64;
            self.prefix_stats.bytes_reused += bytes_reused as u64;
        } else if self.prefix_cache {
            self.prefix_stats.misses += 1;
        }
        PrefixAdmit {
            pages_reused,
            bytes_reused,
        }
    }

    /// Test-only: collapse every packed chain key and every source
    /// digest's first lane to one constant, so different content
    /// collides and only verification separates it.
    #[cfg(test)]
    pub(crate) fn force_hash_collisions(&mut self) {
        self.collide_hashes = true;
    }
}
