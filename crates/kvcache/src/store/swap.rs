//! Swap blobs and their checksum: [`PagedKvStore::swap_out`] serializes a
//! sequence into a host-side [`SwappedSeq`], [`PagedKvStore::swap_in`]
//! verifies and restores it bitwise.

use super::{PagedKvStore, StoreError};
use crate::block::{PackedBlock, PackedPayload};
use crate::cache::CacheError;
use crate::fold::{Mix, WordFold};
use crate::matrix::TokenMatrix;
use crate::paged::{PageId, SeqId};

/// A sequence swapped out of the page arena into host memory: the packed
/// blocks of every head in logical order plus the FP16 residual window,
/// with enough bookkeeping (the reserved token budget, and the shared
/// pages that stayed resident) for [`PagedKvStore::swap_in`] to
/// re-reserve the sequence's full page budget and restore it **bitwise**.
/// Produced by [`PagedKvStore::swap_out`].
#[derive(Clone, Debug)]
pub struct SwappedSeq {
    /// Head dimension (consistency check on swap-in).
    dim: usize,
    /// Logical tokens (packed + residual) at swap-out.
    len: usize,
    /// Token length the page pool had reserved (≥ `len`; the prompt +
    /// generation budget under up-front reservation).
    reserved_tokens: usize,
    /// Whether the sequence was sealed.
    sealed: bool,
    /// Per head, the packed blocks in logical (append) order.
    blocks: Vec<Vec<PackedBlock>>,
    /// Per head, the FP16 residual K window.
    residual_k: Vec<TokenMatrix>,
    /// Per head, the FP16 residual V window.
    residual_v: Vec<TokenMatrix>,
    /// Per table slot at swap-out: `Some((page, generation))` when the
    /// slot mapped a **shared** page that stays resident (held by a
    /// sharing sequence) after this swap-out. [`PagedKvStore::swap_in`]
    /// re-adopts such a page — restoring the sequence *into re-shared
    /// pages* — whenever the recorded generation still matches, i.e. the
    /// page was never freed in between.
    reshare: Vec<Option<(PageId, u64)>>,
    /// Word fold over the packed payloads, the FP16 residual windows,
    /// the reshare records, and the length bookkeeping — recorded at
    /// swap-out, verified at swap-in. Host-side bit rot between the two
    /// surfaces as [`StoreError::CorruptBlob`] instead of silently
    /// corrupted KV.
    checksum: u64,
}

/// The fold behind packed leaves and swap checksums: a [`WordFold`] of
/// one 64-bit chain.
pub(super) type PackedFold = WordFold<Mix<31, 0xFF51_AFD7_ED55_8CCD>>;

/// A packed fold at its fixed seed.
pub(super) fn packed_fold() -> PackedFold {
    WordFold::new(Mix(0xcbf2_9ce4_8422_2325))
}

/// Folds one packed block: for K then V, the tensor's shape, then each
/// payload slice — code words (4 to a word) and `half2` params (2), or
/// FP4 codes and scales (8) — after its length. Shared by the swap-blob
/// checksum and the radix prefix cache's packed leaves, so both key on
/// exactly the packed representation.
pub(super) fn fold_packed_block(fold: &mut PackedFold, block: &PackedBlock) {
    for tensor in [&block.k, &block.v] {
        fold.word(tensor.tokens as u64);
        fold.word(tensor.dim as u64);
        match &tensor.payload {
            PackedPayload::Int { words, params } => {
                fold.slice(words);
                fold.slice(params);
            }
            PackedPayload::Fp4 { codes, scales } => {
                fold.slice(codes);
                fold.slice(scales);
            }
        }
    }
}

impl SwappedSeq {
    /// Logical tokens held in the blob.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the blob holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host bytes the blob occupies (packed payloads + FP16 residual
    /// windows) — the traffic one swap direction moves over the host link.
    pub fn host_bytes(&self) -> usize {
        let packed: usize = self
            .blocks
            .iter()
            .flat_map(|head| head.iter().map(PackedBlock::byte_size))
            .sum();
        let residual: usize = self
            .residual_k
            .iter()
            .chain(&self.residual_v)
            .map(|m| m.len() * self.dim * 2)
            .sum();
        packed + residual
    }

    /// The integrity checksum recorded at swap-out.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum from the blob's current contents: the
    /// length bookkeeping, every packed code word / quant parameter, every
    /// FP16 residual row (as exact f32 bit patterns, two to a word) and
    /// every reshare `(page, generation)` record — each container after
    /// its length (heads, blocks per head, rows per window, records), so
    /// no content can move from one head, window or record to the next.
    pub(crate) fn computed_checksum(&self) -> u64 {
        let mut fold = packed_fold();
        for v in [
            self.dim as u64,
            self.len as u64,
            self.reserved_tokens as u64,
            u64::from(self.sealed),
            self.blocks.len() as u64,
        ] {
            fold.word(v);
        }
        for head in &self.blocks {
            fold.word(head.len() as u64);
            for block in head {
                fold_packed_block(&mut fold, block);
            }
        }
        for windows in [&self.residual_k, &self.residual_v] {
            fold.word(windows.len() as u64);
            for m in windows {
                fold.word(m.len() as u64);
                fold.units(m.as_slice());
            }
        }
        fold.word(self.reshare.len() as u64);
        for entry in &self.reshare {
            match entry {
                // A page id is 32 bits, so no record starts with `u64::MAX`.
                Some((page, generation)) => {
                    fold.word(u64::from(page.0));
                    fold.word(*generation);
                }
                None => fold.word(u64::MAX),
            }
        }
        fold.finish().0
    }

    /// Verifies the blob against its recorded checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptBlob`] when any payload bit changed
    /// since swap-out.
    pub(crate) fn verify(&self) -> Result<(), StoreError> {
        let got = self.computed_checksum();
        if got == self.checksum {
            Ok(())
        } else {
            Err(StoreError::CorruptBlob {
                expected: self.checksum,
                got,
            })
        }
    }

    /// Flips one payload bit **without** updating the recorded checksum —
    /// the tamper hook the fault injector and the corruption tests use.
    /// The bit lands in the first packed payload when the blob holds any
    /// flushed block, in the FP16 residual window otherwise; a blob with
    /// no payload at all is left unchanged.
    pub(crate) fn flip_bit(&mut self, bit: u64) {
        for head in &mut self.blocks {
            for block in head {
                match &mut block.k.payload {
                    PackedPayload::Int { words, .. } if !words.is_empty() => {
                        let i = (bit / 16) as usize % words.len();
                        words[i] ^= 1 << (bit % 16);
                        return;
                    }
                    PackedPayload::Fp4 { codes, .. } if !codes.is_empty() => {
                        let i = (bit / 8) as usize % codes.len();
                        codes[i] ^= 1 << (bit % 8);
                        return;
                    }
                    _ => {}
                }
            }
        }
        // No packed payload: flip one mantissa bit in the residual window.
        let dim = self.dim.max(1);
        if let Some(m) = self.residual_k.iter_mut().find(|m| !m.is_empty()) {
            let t = (bit as usize / dim) % m.len();
            let c = bit as usize % dim;
            *m = TokenMatrix::from_fn(m.len(), dim, |tt, cc| {
                let x = m.row(tt)[cc];
                if tt == t && cc == c {
                    f32::from_bits(x.to_bits() ^ 1)
                } else {
                    x
                }
            });
        }
    }
}

#[cfg(test)]
impl SwappedSeq {
    /// Test-only: the blob's per-head packed blocks, K and V residual
    /// windows and reshare records, for the tests that tamper with them.
    #[allow(clippy::type_complexity)]
    pub(super) fn payload_mut(
        &mut self,
    ) -> (
        &mut Vec<Vec<PackedBlock>>,
        &mut Vec<TokenMatrix>,
        &mut Vec<TokenMatrix>,
        &mut Vec<Option<(PageId, u64)>>,
    ) {
        (
            &mut self.blocks,
            &mut self.residual_k,
            &mut self.residual_v,
            &mut self.reshare,
        )
    }
}

impl PagedKvStore {
    /// Swaps a sequence out to host memory: serializes its packed blocks
    /// (in logical order, per head) and FP16 residual window into a
    /// [`SwappedSeq`] blob, then frees every page it held. The blob plus
    /// [`PagedKvStore::swap_in`] restore the sequence **bitwise** — the
    /// physical pages may differ after the round trip, but the
    /// page-table-gathered blocks and the residual window are byte-equal,
    /// so decode is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSeq`] for a non-resident sequence (and
    /// changes nothing).
    pub fn swap_out(&mut self, seq: SeqId) -> Result<SwappedSeq, StoreError> {
        if !self.seqs.contains_key(&seq) {
            return Err(StoreError::UnknownSeq(seq));
        }
        let blocks: Vec<Vec<PackedBlock>> = (0..self.heads)
            .map(|h| self.packed_blocks(seq, h).into_iter().cloned().collect())
            .collect();
        let (reserved_tokens, _) = self.reservation(seq);
        // Shared pages survive this swap-out (a sharing sequence still
        // references them); record them with their generation so swap-in
        // can re-share instead of re-materializing, when they are still
        // resident.
        let reshare: Vec<Option<(PageId, u64)>> = self
            .pool
            .table(seq)
            .unwrap_or_else(|| unreachable!("resident sequence"))
            .iter()
            .map(|&p| (self.pool.seq_refcount(p) > 1).then(|| (p, self.pool.generation(p))))
            .collect();
        let Some(state) = self.seqs.remove(&seq) else {
            unreachable!("checked above");
        };
        self.release_pages(seq);
        let mut blob = SwappedSeq {
            dim: self.config.dim,
            len: state.len,
            reserved_tokens,
            sealed: state.sealed,
            blocks,
            // The rows at their length: a blob carries no window storage.
            residual_k: (state.residual_k.into_iter())
                .map(|w| w.into_rows().shrunk())
                .collect(),
            residual_v: state
                .residual_v
                .into_iter()
                .map(TokenMatrix::shrunk)
                .collect(),
            reshare,
            checksum: 0,
        };
        blob.checksum = blob.computed_checksum();
        Ok(blob)
    }

    /// Swaps a previously swapped-out sequence back in: re-reserves the
    /// blob's full page budget (so later appends stay infallible), re-homes
    /// every packed block on the page covering its first token, and
    /// restores the residual window. Returns the sequence's new [`SeqId`]
    /// (ids are never reused; the pool hands out the next one).
    ///
    /// Like [`PagedKvStore::admit`], a failed swap-in leaves the store —
    /// including the id counter — completely unchanged, and the blob is
    /// untouched either way.
    ///
    /// # Errors
    ///
    /// - [`StoreError::CorruptBlob`] when the blob fails its integrity
    ///   check (verified **before** touching any pool state).
    /// - [`StoreError::HeadCount`] / [`CacheError::DimMismatch`] when the
    ///   blob's shape disagrees with the store's configuration.
    /// - [`StoreError::Oom`] when the pool cannot cover the blob's page
    ///   reservation.
    pub fn swap_in(&mut self, blob: &SwappedSeq) -> Result<SeqId, StoreError> {
        blob.verify()?;
        if blob.blocks.len() != self.heads {
            return Err(StoreError::HeadCount {
                got: blob.blocks.len(),
                expected: self.heads,
            });
        }
        if blob.dim != self.config.dim {
            return Err(StoreError::Cache(CacheError::DimMismatch {
                expected: self.config.dim,
                got: blob.dim,
            }));
        }
        let mut slots = self.reshare_slots(blob);
        // Prefix-cache adoption: any leading full page run of the blob
        // whose bytes are cached (and byte-verified) fills its still-empty
        // slots zero-copy, exactly like a fresh admission would. A blob
        // only has packed bytes, so this is the packed chain from the root.
        let mut swap_reused = 0usize;
        let mut swap_reused_bytes = 0usize;
        let mut cached = Vec::new();
        let leaves = self.packed_leaves(&blob.blocks);
        let keys = self.walk_packed(&blob.blocks, &leaves, &mut cached);
        for (slot, page) in self.run_pages_of(&cached).into_iter().enumerate() {
            if slot < slots.len() && slots[slot].is_none() {
                slots[slot] = Some(page);
                swap_reused += 1;
                swap_reused_bytes += self.frame_bytes(page);
            }
        }
        let adopted: Vec<PageId> = slots.iter().flatten().copied().collect();
        let total_slots = blob
            .reserved_tokens
            .div_ceil(self.page_tokens())
            .max(slots.len());
        self.ensure_free(total_slots - adopted.len(), &adopted);
        let seq = self
            .pool
            .adopt(&slots, blob.reserved_tokens)
            .map_err(StoreError::Oom)?;
        let nr = self.residual_block();
        let pt = self.page_tokens();
        for (head, head_blocks) in blob.blocks.iter().enumerate() {
            for (b, block) in head_blocks.iter().enumerate() {
                // Blocks homed on a re-shared or cache-adopted page are
                // already resident in that page's frame — only private
                // slots re-home.
                if slots.get((b * nr) / pt).copied().flatten().is_some() {
                    continue;
                }
                let (page, _) = self.pool.translate(seq, b * nr);
                self.frames[page.0 as usize][head].push(block.clone());
            }
        }
        let state = self.seq_kv(blob.len, blob.sealed, |head| {
            (
                blob.residual_k[head].as_slice(),
                blob.residual_v[head].as_slice(),
            )
        });
        self.seqs.insert(seq, state);
        // Registration looks every run up by key again: a walked run whose
        // pages lost to a still-resident reshare slot is not protected from
        // the reclaim above. With the cache off there are no keys and
        // nothing is counted.
        self.register_prefix(seq, &[], &keys, &[]);
        self.record_admission(swap_reused, swap_reused_bytes);
        Ok(seq)
    }

    /// Resolves which of `blob`'s recorded shared pages are still resident
    /// (alive with an unchanged free-generation): those table slots
    /// re-share instead of drawing fresh pages.
    fn reshare_slots(&self, blob: &SwappedSeq) -> Vec<Option<PageId>> {
        blob.reshare
            .iter()
            .map(|entry| {
                entry.and_then(|(page, gen)| {
                    // Seq-aliveness, not raw refcount: a page kept alive
                    // only by a cache pin re-shares through the radix
                    // lookup (byte-verified), never through the blob's
                    // stale sharing record — keeping swap-in admission
                    // preflight identical to a cache-off store.
                    (self.pool.seq_refcount(page) > 0 && self.pool.generation(page) == gen)
                        .then_some(page)
                })
            })
            .collect()
    }

    /// Pages a [`PagedKvStore::swap_in`] of `blob` would **newly**
    /// allocate given the store's current residency — recorded shared
    /// pages that are still alive re-share rather than re-reserve, so
    /// admission preflight should count this, not the blob's whole
    /// reservation.
    pub(crate) fn swap_in_new_pages(&self, blob: &SwappedSeq) -> usize {
        let slots = self.reshare_slots(blob);
        let total = blob
            .reserved_tokens
            .div_ceil(self.page_tokens())
            .max(slots.len());
        total - slots.iter().flatten().count()
    }
}
