//! Fork / copy-on-write and frame reclamation: a child aliases its
//! parent's prefix pages, the first write into a still-shared page copies
//! only that page, and a frame is cleared or truncated once no sharer
//! reads the blocks it holds.

use super::{PagedKvStore, StoreError};
use crate::paged::{PageId, SeqId};

impl PagedKvStore {
    /// `true` when [`PagedKvStore::fork`] at `at_token` would succeed on
    /// residency/boundary grounds (pages permitting): the parent is
    /// resident and either `at_token` is `Nr`-aligned or the rows past the
    /// last aligned boundary are still in the parent's FP16 residual
    /// window.
    pub fn can_fork(&self, parent: SeqId, at_token: usize) -> bool {
        let Some(state) = self.seqs.get(&parent) else {
            return false;
        };
        let nr = self.residual_block();
        at_token <= state.len && (at_token.is_multiple_of(nr) || at_token / nr == state.len / nr)
    }

    /// Pages a [`PagedKvStore::fork`] would **newly** allocate (the shared
    /// prefix costs nothing), or `None` when the fork itself is invalid —
    /// what admission preflight should charge a shared-prompt request.
    pub fn fork_new_pages(
        &self,
        parent: SeqId,
        at_token: usize,
        reserve_tokens: usize,
    ) -> Option<usize> {
        if !self.can_fork(parent, at_token) {
            return None;
        }
        let pt = self.page_tokens();
        let shared = at_token.div_ceil(pt);
        let total = reserve_tokens.max(at_token).div_ceil(pt).max(shared);
        Some(total - shared)
    }

    /// Admits a **child** sequence sharing the parent's first `at_token`
    /// tokens copy-on-write: every page covering the shared prefix is
    /// aliased (refcount bumped, zero bytes copied), the partial residual
    /// window — the rows past the last `Nr` boundary — is deep-copied, and
    /// pages for the rest of `reserve_tokens` are drawn fresh. The child
    /// is bitwise indistinguishable from a sequence that prefilled the
    /// same `at_token` tokens itself; either side's first flush into a
    /// still-shared page triggers copy-on-write of only that page.
    ///
    /// `at_token` must be `Nr`-aligned **or** within reach of the parent's
    /// FP16 residual window (`at_token / Nr == parent_len / Nr`): rows
    /// inside an already-quantized block cannot be recovered at full
    /// precision.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ForkBoundary`] for an unreachable boundary,
    /// [`StoreError::UnknownSeq`] for a non-resident parent, and
    /// [`StoreError::Oom`] — admitting nothing — when the pool cannot
    /// supply the child's private pages. A refused fork changes nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use bd_kvcache::{
    ///     CacheConfig, PackLayout, PagedKvStore, QuantScheme, ReferenceCodec, TokenMatrix,
    /// };
    ///
    /// let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
    /// let mut store = PagedKvStore::new(cfg, 1, 64, 32);
    /// let parent = store.admit(256).unwrap();
    /// let prompt = [TokenMatrix::from_fn(256, 16, |t, _| t as f32 * 0.01)];
    /// store.prefill(parent, &prompt, &prompt, &ReferenceCodec).unwrap();
    ///
    /// let free_before = store.free_pages();
    /// let child = store.fork(parent, 256, 256 + 32).unwrap();
    /// // The child shares all 8 prompt pages; only its private tail
    /// // reservation (one 32-token page) was newly allocated.
    /// assert_eq!(free_before - store.free_pages(), 1);
    /// assert_eq!(store.seq_len(child), Some(256));
    /// // Shared bytes are gathered identically through both page tables.
    /// assert_eq!(store.packed_blocks(parent, 0), store.packed_blocks(child, 0));
    /// // Divergent appends stay private: the parent's stream is untouched.
    /// let row = vec![0.5f32; 16];
    /// store.append_step(child, &[row.clone()], &[row], &ReferenceCodec).unwrap();
    /// assert_eq!(store.seq_len(parent), Some(256));
    /// assert_eq!(store.seq_len(child), Some(257));
    /// ```
    pub fn fork(
        &mut self,
        parent: SeqId,
        at_token: usize,
        reserve_tokens: usize,
    ) -> Result<SeqId, StoreError> {
        let state = self
            .seqs
            .get(&parent)
            .ok_or(StoreError::UnknownSeq(parent))?;
        let nr = self.residual_block();
        if !self.can_fork(parent, at_token) {
            return Err(StoreError::ForkBoundary {
                at_token,
                parent_len: state.len,
                residual_block: nr,
            });
        }
        // Deep-copy the shared prefix of the parent's residual window (the
        // rows of tokens `at_token - at_token % Nr .. at_token`).
        let prefix = at_token % nr * self.config.dim;
        let kv = self.seq_kv(at_token, false, |head| {
            let (k, v) = (&state.residual_k[head], &state.residual_v[head]);
            (&k.rows().as_slice()[..prefix], &v.as_slice()[..prefix])
        });
        let shared_slots = at_token.div_ceil(self.pool.page_tokens());
        let Some(parent_table) = self.pool.table(parent) else {
            unreachable!("resident sequence");
        };
        let slots: Vec<Option<PageId>> = parent_table[..shared_slots]
            .iter()
            .map(|&p| Some(p))
            .collect();
        let fork_reserve = reserve_tokens.max(at_token);
        let total_slots = fork_reserve
            .div_ceil(self.pool.page_tokens())
            .max(slots.len());
        // The shared prefix is held by the (resident) parent, so it can
        // never be a reclaim victim — only the private tail needs room.
        self.ensure_free(total_slots - slots.len(), &[]);
        let child = self
            .pool
            .adopt(&slots, fork_reserve)
            .map_err(StoreError::Oom)?;
        self.seqs.insert(child, kv);
        Ok(child)
    }

    /// Drops one reference on every page `seq` maps and clears the frames
    /// of pages whose **last** reference dropped (the storage half shared
    /// by [`PagedKvStore::evict`] and [`PagedKvStore::swap_out`]). Pages
    /// still mapped by a sharing sequence keep their frames untouched.
    pub(super) fn release_pages(&mut self, seq: SeqId) {
        for page in self.pool.release(seq) {
            self.clear_frame(page);
        }
    }

    /// Empties the frame of a page nothing references any more.
    pub(super) fn clear_frame(&mut self, page: PageId) {
        for head_blocks in &mut self.frames[page.0 as usize] {
            head_blocks.clear();
        }
    }

    /// Readies the frame that the block starting at token `start` of
    /// `seq` is about to flush into. The page may have been inherited from
    /// a departed sharer whose past-boundary blocks are still in the frame
    /// (frames are only cleared at refcount zero, and copy-on-write never
    /// fires once `seq` is the sole owner). Truncate the frame to `seq`'s
    /// own block prefix and bump the page's generation: a departed
    /// sharer's swap blob may reference the removed blocks, and the bump
    /// makes it restore privately instead of re-sharing a mutated frame.
    pub(super) fn reclaim_flush_target(&mut self, seq: SeqId, start: usize) {
        let slot = start / self.pool.page_tokens();
        let (page, _) = self.pool.translate(seq, start);
        let own_here = self.own_blocks_on_slot(seq, slot);
        if self.frames[page.0 as usize][0].len() > own_here {
            self.pool.bump_generation(page);
            for head_blocks in &mut self.frames[page.0 as usize] {
                head_blocks.truncate(own_here);
            }
        }
    }

    /// Blocks of `seq` homed on table slot `slot`: indices in
    /// `[ceil(slot·pt/Nr), ceil((slot+1)·pt/Nr))`, capped at the
    /// sequence's own flushed count — and always a **prefix** of the
    /// slot's frame, since frames hold blocks in index order and foreign
    /// blocks on a shared frame carry indices past every sharer's count.
    pub(super) fn own_blocks_on_slot(&self, seq: SeqId, slot: usize) -> usize {
        let pt = self.pool.page_tokens();
        let nr = self.residual_block();
        let own_total = self.seqs[&seq].len / nr;
        let before = (slot * pt).div_ceil(nr).min(own_total);
        ((slot + 1) * pt).div_ceil(nr).min(own_total) - before
    }

    /// Gives `seq` a private copy of table slot `slot`: draws a fresh page,
    /// copies the slot's **own** block prefix (a shared frame may
    /// additionally hold blocks its original writer flushed past the
    /// shared boundary — those are not this sequence's), and drops one
    /// reference on the shared page. The shared page's frame is untouched:
    /// every other mapper still reads its bytes unchanged.
    pub(super) fn cow_slot(&mut self, seq: SeqId, slot: usize) {
        self.cow_breaks += 1;
        let own_here = self.own_blocks_on_slot(seq, slot);
        let (old, new) = self
            .pool
            .cow(seq, slot)
            .unwrap_or_else(|_| unreachable!("preflighted free page"));
        for head in 0..self.heads {
            let prefix = self.frames[old.0 as usize][head][..own_here].to_vec();
            self.frames[new.0 as usize][head] = prefix;
        }
    }
}
