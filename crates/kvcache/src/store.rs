//! Paged **physical** KV storage: packed quantized blocks and FP16
//! residual windows living behind [`PagedPool`] page tables.
//!
//! [`crate::paged::PagedPool`] is pure bookkeeping — it decides *which*
//! pages a sequence owns. [`PagedKvStore`] puts real data behind that
//! decision: a page-frame arena holds the flushed [`PackedBlock`]s of every
//! resident sequence, each block homed on the physical page that covers its
//! first token, while the sub-block FP16 residual window of each sequence
//! accumulates outside the arena exactly as in the contiguous
//! [`QuantizedKvCache`]. The serve runtime (`bd-serve`) iterates a
//! sequence's blocks **through the page table** — the PagedAttention-style
//! indirection of the paper's "Page" setting — and appends decode-step
//! tokens between batch steps.
//!
//! # Contiguous-equivalence invariant
//!
//! For any append/prefill history, the blocks gathered through the page
//! table (in logical order) plus the residual window are **bitwise
//! identical** to what a contiguous [`QuantizedKvCache`] holds after the
//! same history with the same codec: same FP16 rounding, same `Nr` flush
//! boundaries, same packed payloads. Page size is free to be anything ≥ 1
//! token — blocks may straddle pages (they stay homed on their first
//! token's page) and pages may hold many blocks. [`PagedKvStore::matches_cache`]
//! checks the invariant; the serve property tests drive it for arbitrary
//! page sizes and eviction orders.

use crate::block::{PackedBlock, PackedPayload};
use crate::cache::{push_rounded, round_rows_into, CacheConfig, CacheError, QuantizedKvCache};
use crate::codec::BlockCodec;
use crate::matrix::{TokenMatrix, TokenRows};
use crate::paged::{PageId, PagedOom, PagedPool, SeqId};
use crate::radix::{fold_source_row, fold_source_word, RadixIndex, SourceDigest};
use crate::scheme::SchemeKind;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Errors from paged-store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The page pool could not supply the requested capacity.
    Oom(PagedOom),
    /// A token row had the wrong shape.
    Cache(CacheError),
    /// The sequence is not resident in the store.
    UnknownSeq(SeqId),
    /// The sequence was sealed and no longer accepts tokens.
    Sealed(SeqId),
    /// A per-head slice had the wrong number of heads.
    HeadCount {
        /// Heads provided.
        got: usize,
        /// Heads the store was built with.
        expected: usize,
    },
    /// A fork boundary fell inside an already-quantized packed block: the
    /// FP16 rows the child's residual window would need were flushed (and
    /// quantized) past recovery. Valid boundaries are `Nr`-aligned token
    /// counts, or any count whose residual rows are still in the parent's
    /// FP16 window.
    ForkBoundary {
        /// The requested fork boundary, in tokens.
        at_token: usize,
        /// The parent's logical length at the fork attempt.
        parent_len: usize,
        /// The residual block size `Nr` of the store.
        residual_block: usize,
    },
    /// A swap blob failed its integrity check: the checksum recorded at
    /// swap-out no longer matches the blob's contents, so restoring it
    /// would install silently corrupted KV. Swap-in rejects the blob
    /// before touching any pool.
    CorruptBlob {
        /// The checksum recorded at swap-out.
        expected: u64,
        /// The checksum recomputed from the blob at swap-in.
        got: u64,
    },
    /// A sharded swap blob spans a different device count than the store
    /// — e.g. it predates a device loss and the placement rebuild that
    /// followed, so its per-device shares no longer line up.
    DeviceCount {
        /// Devices the blob was swapped out across.
        got: usize,
        /// Devices the store currently has.
        expected: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Oom(e) => write!(f, "paged store: {e}"),
            StoreError::Cache(e) => write!(f, "paged store: {e}"),
            StoreError::UnknownSeq(s) => write!(f, "unknown sequence {s:?}"),
            StoreError::Sealed(s) => write!(f, "sequence {s:?} is sealed"),
            StoreError::HeadCount { got, expected } => {
                write!(
                    f,
                    "{got} per-head rows provided, store has {expected} heads"
                )
            }
            StoreError::ForkBoundary {
                at_token,
                parent_len,
                residual_block,
            } => {
                write!(
                    f,
                    "cannot fork at token {at_token}: parent of length {parent_len} \
                     (Nr = {residual_block}) no longer holds those rows in FP16"
                )
            }
            StoreError::CorruptBlob { expected, got } => {
                write!(
                    f,
                    "swap blob failed integrity check: checksum {got:#018x}, \
                     expected {expected:#018x}"
                )
            }
            StoreError::DeviceCount { got, expected } => {
                write!(f, "swap blob spans {got} devices, store has {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<PagedOom> for StoreError {
    fn from(e: PagedOom) -> Self {
        StoreError::Oom(e)
    }
}

impl From<CacheError> for StoreError {
    fn from(e: CacheError) -> Self {
        StoreError::Cache(e)
    }
}

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
    pub fn absorb(&mut self, other: KvSharingStats) {
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
    pub fn absorb(&mut self, other: PrefixCacheStats) {
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
    pub fn absorb(&mut self, other: PrefixAdmit) {
        self.pages_reused += other.pages_reused;
        self.bytes_reused += other.bytes_reused;
    }
}

/// Per-sequence state outside the page arena: the FP16 residual window per
/// head plus logical length bookkeeping.
#[derive(Clone, Debug)]
struct SeqKv {
    /// Logical tokens (packed + residual).
    len: usize,
    residual_k: Vec<TokenMatrix>,
    residual_v: Vec<TokenMatrix>,
    sealed: bool,
}

/// One physical page frame: the packed blocks homed on this page, per KV
/// head, in logical (append) order. A frame only ever holds blocks of the
/// single sequence that owns the page.
type Frame = Vec<Vec<PackedBlock>>;

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
    /// FNV-1a fold over the packed payloads, the FP16 residual windows,
    /// the reshare records, and the length bookkeeping — recorded at
    /// swap-out, verified at swap-in. Host-side bit rot between the two
    /// surfaces as [`StoreError::CorruptBlob`] instead of silently
    /// corrupted KV.
    checksum: u64,
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit state.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds one packed block — both tensors' shapes and every payload byte —
/// into an FNV-1a state. Shared by the swap-blob checksum and the radix
/// prefix chain hash, so both key on exactly the packed representation.
fn fold_packed_block(mut h: u64, block: &PackedBlock) -> u64 {
    for tensor in [&block.k, &block.v] {
        h = fnv_fold(h, &(tensor.tokens as u64).to_le_bytes());
        h = fnv_fold(h, &(tensor.dim as u64).to_le_bytes());
        match &tensor.payload {
            PackedPayload::Int { words, params } => {
                for w in words {
                    h = fnv_fold(h, &w.to_le_bytes());
                }
                for p in params {
                    h = fnv_fold(h, &p.to_bits().to_le_bytes());
                }
            }
            PackedPayload::Fp4 { codes, scales } => {
                h = fnv_fold(h, codes);
                h = fnv_fold(h, scales);
            }
        }
    }
    h
}

/// Rejects a K or V side that does not carry one entry per head.
pub(crate) fn check_heads(got: [usize; 2], expected: usize) -> Result<(), StoreError> {
    match got.into_iter().find(|&got| got != expected) {
        Some(got) => Err(StoreError::HeadCount { got, expected }),
        None => Ok(()),
    }
}

/// Validates a prompt's shape — `heads` per-head matrices on both sides,
/// every row `dim` wide — and returns its token count; panics if per-head
/// token counts disagree. The one validator behind every prompt write of
/// the paged and the sharded store.
pub(crate) fn check_prompt<K: TokenRows, V: TokenRows>(
    k: &[K],
    v: &[V],
    heads: usize,
    dim: usize,
) -> Result<usize, StoreError> {
    check_heads([k.len(), v.len()], heads)?;
    let len = k[0].token_count();
    for (hk, hv) in k.iter().zip(v) {
        assert_eq!(hk.token_count(), len, "per-head prompt length mismatch");
        assert_eq!(hv.token_count(), len, "per-head prompt length mismatch");
        for t in 0..len {
            for row in [hk.token_row(t), hv.token_row(t)] {
                if row.len() != dim {
                    return Err(StoreError::Cache(CacheError::DimMismatch {
                        expected: dim,
                        got: row.len(),
                    }));
                }
            }
        }
    }
    Ok(len)
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
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

    /// Pages [`PagedKvStore::swap_in`] must reserve, given the store's
    /// page size.
    pub fn pages_needed(&self, page_tokens: usize) -> usize {
        self.reserved_tokens.div_ceil(page_tokens)
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

    /// Recomputes the checksum from the blob's current contents: every
    /// packed code word / quant parameter, every FP16 residual row (as
    /// exact f32 bit patterns), every reshare `(page, generation)` record,
    /// and the length bookkeeping.
    pub fn computed_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for v in [
            self.dim as u64,
            self.len as u64,
            self.reserved_tokens as u64,
            u64::from(self.sealed),
        ] {
            h = fnv_fold(h, &v.to_le_bytes());
        }
        for head in &self.blocks {
            for block in head {
                h = fold_packed_block(h, block);
            }
        }
        for m in self.residual_k.iter().chain(&self.residual_v) {
            for &x in m.as_slice() {
                h = fnv_fold(h, &x.to_bits().to_le_bytes());
            }
        }
        for entry in &self.reshare {
            match entry {
                Some((page, generation)) => {
                    h = fnv_fold(h, &(page.0 as u64).to_le_bytes());
                    h = fnv_fold(h, &generation.to_le_bytes());
                }
                None => h = fnv_fold(h, &[0xFF]),
            }
        }
        h
    }

    /// Verifies the blob against its recorded checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptBlob`] when any payload bit changed
    /// since swap-out.
    pub fn verify(&self) -> Result<(), StoreError> {
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
    pub fn flip_bit(&mut self, bit: u64) {
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
        for idx in 0..self.residual_k.len() {
            let m = &self.residual_k[idx];
            if m.is_empty() {
                continue;
            }
            let t = (bit as usize / dim) % m.len();
            let c = bit as usize % dim;
            let replacement = TokenMatrix::from_fn(m.len(), dim, |tt, cc| {
                let x = m.row(tt)[cc];
                if tt == t && cc == c {
                    f32::from_bits(x.to_bits() ^ 1)
                } else {
                    x
                }
            });
            self.residual_k[idx] = replacement;
            return;
        }
    }
}

/// Paged physical KV storage for many concurrent sequences — see the
/// [module docs](self) for the layout and the contiguous-equivalence
/// invariant.
///
/// # Examples
///
/// ```
/// use bd_kvcache::{CacheConfig, PackLayout, PagedKvStore, QuantScheme, ReferenceCodec};
///
/// let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
/// let mut store = PagedKvStore::new(cfg, 1, 64, 32);
/// let seq = store.admit(200).unwrap(); // reserve 200 tokens of pages
/// let row = vec![0.5f32; 16];
/// store
///     .append_step(seq, &[row.clone()], &[row], &ReferenceCodec)
///     .unwrap();
/// assert_eq!(store.seq_len(seq), Some(1));
/// store.evict(seq);
/// assert_eq!(store.free_pages(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct PagedKvStore {
    config: CacheConfig,
    heads: usize,
    pool: PagedPool,
    frames: Vec<Frame>,
    seqs: BTreeMap<SeqId, SeqKv>,
    cow_breaks: usize,
    /// Whether [`PagedKvStore::set_prefix_cache`] has the radix prefix
    /// cache on (off at construction; the serve layer enables it).
    prefix_cache: bool,
    /// Radix index over pinned sealed page runs; empty while it is off.
    radix: RadixIndex,
    prefix_stats: PrefixCacheStats,
    /// Test-only hook: collapse every packed chain key and the first lane
    /// of every source digest to one constant so the collision tests can
    /// prove verification — not the hash — is what prevents aliasing.
    #[cfg(test)]
    collide_hashes: bool,
}

impl PagedKvStore {
    /// Creates a store of `total_pages` pages of `page_tokens` tokens each,
    /// holding `heads` KV heads per sequence.
    ///
    /// # Panics
    ///
    /// Panics if `heads` or `page_tokens` is zero.
    pub fn new(config: CacheConfig, heads: usize, total_pages: usize, page_tokens: usize) -> Self {
        assert!(heads > 0, "store needs at least one KV head");
        PagedKvStore {
            config,
            heads,
            pool: PagedPool::new(total_pages, page_tokens),
            frames: vec![vec![Vec::new(); heads]; total_pages],
            seqs: BTreeMap::new(),
            cow_breaks: 0,
            prefix_cache: false,
            radix: RadixIndex::default(),
            prefix_stats: PrefixCacheStats::default(),
            #[cfg(test)]
            collide_hashes: false,
        }
    }

    /// Monotone count of copy-on-write breaks since the store was built:
    /// each is one shared page privatized because a sequence wrote into
    /// it. Observability reads this per step to attribute CoW traffic.
    pub fn cow_breaks(&self) -> usize {
        self.cow_breaks
    }

    /// The cache configuration shared by every sequence.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// KV heads per sequence.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Residual block size `Nr`.
    pub fn residual_block(&self) -> usize {
        self.config.residual_block()
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.pool.page_tokens()
    }

    /// Pages available to new allocations: the pool's free list **plus**
    /// prefix-cache pages no sequence maps any more, which
    /// [`PagedKvStore::set_prefix_cache`] reclaims on demand. With the
    /// cache disabled this is exactly the pool's free list, and with it
    /// enabled every admission decision charges against this number — so
    /// cache residency never changes what the scheduler can admit.
    pub fn free_pages(&self) -> usize {
        self.pool.free_pages() + self.pool.reclaimable_pages()
    }

    /// Total pool capacity in pages.
    pub fn total_pages(&self) -> usize {
        self.pool.total_pages()
    }

    /// Fraction of pages in use, counting reclaimable cache holdings as
    /// free (consistent with [`PagedKvStore::free_pages`]).
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_pages() as f64 / self.total_pages().max(1) as f64
    }

    /// The underlying page tables (read-only).
    pub fn pool(&self) -> &PagedPool {
        &self.pool
    }

    /// Number of resident sequences.
    pub fn resident(&self) -> usize {
        self.seqs.len()
    }

    /// Admits a new sequence, reserving pages for `reserve_tokens` tokens
    /// up front (pass the prompt + generation budget to make every later
    /// append infallible, or 0 to grow page-by-page on demand).
    ///
    /// A failed admission leaves the store **completely** unchanged: in
    /// particular it does not consume a [`SeqId`], so an
    /// admit-fail → admit-success history hands out the same id stream as
    /// one without the failure — the property that keeps every device of a
    /// [`crate::ShardedKvStore`] in [`SeqId`] lockstep.
    ///
    /// # Errors
    ///
    /// Returns [`PagedOom`] — and admits nothing — when the pool cannot
    /// cover the reservation.
    pub fn admit(&mut self, reserve_tokens: usize) -> Result<SeqId, PagedOom> {
        // Pre-check the reservation before touching the pool: `PagedPool::
        // admit` advances the id counter unconditionally, so checking after
        // the fact would burn a SeqId on failure.
        let need = reserve_tokens.div_ceil(self.pool.page_tokens());
        self.check_free(need)?;
        self.ensure_free(need, &[]);
        let seq = self.pool.admit();
        if reserve_tokens > 0 {
            self.pool
                .grow(seq, reserve_tokens)
                .unwrap_or_else(|_| unreachable!("reservation pre-checked against the free list"));
        }
        self.seqs.insert(seq, self.empty_seq());
        Ok(seq)
    }

    /// Refuses a page demand the store cannot meet even after reclaiming
    /// every unreferenced cache holding.
    fn check_free(&self, requested: usize) -> Result<(), PagedOom> {
        let free = self.free_pages();
        if requested > free {
            return Err(PagedOom { requested, free });
        }
        Ok(())
    }

    /// Tokens reserved for a resident sequence and the slots of its page
    /// table.
    fn reservation(&self, seq: SeqId) -> (usize, usize) {
        match (self.pool.seq_len(seq), self.pool.table(seq)) {
            (Some(reserved), Some(table)) => (reserved, table.len()),
            _ => unreachable!("resident sequence"),
        }
    }

    /// The state of a sequence that holds no tokens yet.
    fn empty_seq(&self) -> SeqKv {
        SeqKv {
            len: 0,
            residual_k: vec![TokenMatrix::new(self.config.dim); self.heads],
            residual_v: vec![TokenMatrix::new(self.config.dim); self.heads],
            sealed: false,
        }
    }

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
    /// supply the child's private pages.
    ///
    /// # Examples
    ///
    /// ```
    /// use bd_kvcache::{CacheConfig, PackLayout, PagedKvStore, QuantScheme, ReferenceCodec};
    ///
    /// let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
    /// let mut store = PagedKvStore::new(cfg, 1, 64, 32);
    /// let parent = store.admit(256).unwrap();
    /// let prompt: Vec<Vec<f32>> = (0..256).map(|t| vec![t as f32 * 0.01; 16]).collect();
    /// store.prefill(parent, &[prompt.clone()], &[prompt], &ReferenceCodec).unwrap();
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
        if !(at_token <= state.len
            && (at_token.is_multiple_of(nr) || at_token / nr == state.len / nr))
        {
            return Err(StoreError::ForkBoundary {
                at_token,
                parent_len: state.len,
                residual_block: nr,
            });
        }
        // Deep-copy the shared prefix of the parent's residual window (the
        // rows of tokens `at_token - at_token % Nr .. at_token`).
        let res = at_token % nr;
        let copy_prefix =
            |m: &TokenMatrix| TokenMatrix::from_fn(res, self.config.dim, |t, c| m.row(t)[c]);
        let residual_k: Vec<TokenMatrix> = state.residual_k.iter().map(copy_prefix).collect();
        let residual_v: Vec<TokenMatrix> = state.residual_v.iter().map(copy_prefix).collect();
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
        self.seqs.insert(
            child,
            SeqKv {
                len: at_token,
                residual_k,
                residual_v,
                sealed: false,
            },
        );
        Ok(child)
    }

    /// Marks a sequence finished: no further tokens may be appended. Its
    /// pages stay resident (readable) until [`PagedKvStore::evict`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSeq`] for a non-resident sequence.
    pub fn seal(&mut self, seq: SeqId) -> Result<(), StoreError> {
        self.seqs
            .get_mut(&seq)
            .ok_or(StoreError::UnknownSeq(seq))?
            .sealed = true;
        Ok(())
    }

    /// Drops one reference on every page `seq` maps and clears the frames
    /// of pages whose **last** reference dropped (the storage half shared
    /// by [`PagedKvStore::evict`] and [`PagedKvStore::swap_out`]). Pages
    /// still mapped by a sharing sequence keep their frames untouched.
    fn release_pages(&mut self, seq: SeqId) {
        for page in self.pool.release(seq) {
            self.clear_frame(page);
        }
    }

    /// Empties the frame of a page nothing references any more.
    fn clear_frame(&mut self, page: PageId) {
        for head_blocks in &mut self.frames[page.0 as usize] {
            head_blocks.clear();
        }
    }

    /// Releases a sequence: clears every page frame it owned and returns
    /// the pages to the pool — **all** of them, whether the residual window
    /// was sealed, unsealed, or mid-append (pages are owned via the page
    /// table alone; the residual window lives outside the arena and is
    /// dropped with the sequence state). Unknown sequences are ignored.
    pub fn evict(&mut self, seq: SeqId) {
        if self.seqs.remove(&seq).is_none() {
            return;
        }
        self.release_pages(seq);
    }

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
            residual_k: state.residual_k,
            residual_v: state.residual_v,
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
        let keys = self.walk_packed(&blob.blocks, &mut cached);
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
        self.seqs.insert(
            seq,
            SeqKv {
                len: blob.len,
                residual_k: blob.residual_k.clone(),
                residual_v: blob.residual_v.clone(),
                sealed: blob.sealed,
            },
        );
        if self.prefix_cache {
            // Registration looks every run up by key again: a walked run
            // whose pages lost to a still-resident reshare slot is not
            // protected from the reclaim above.
            self.register_prefix(seq, &[], &keys, &[]);
            self.record_admission(swap_reused, swap_reused_bytes);
        }
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
    /// admission preflight should count this, not
    /// [`SwappedSeq::pages_needed`].
    pub fn swap_in_new_pages(&self, blob: &SwappedSeq) -> usize {
        let slots = self.reshare_slots(blob);
        let total = blob
            .reserved_tokens
            .div_ceil(self.page_tokens())
            .max(slots.len());
        total - slots.iter().flatten().count()
    }

    /// Logical token count of a sequence (packed + residual).
    pub fn seq_len(&self, seq: SeqId) -> Option<usize> {
        self.seqs.get(&seq).map(|s| s.len)
    }

    /// Tokens currently in a sequence's FP16 residual window.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence.
    pub fn residual_len(&self, seq: SeqId) -> usize {
        self.seqs[&seq].residual_k[0].len()
    }

    /// The residual FP16 window of one head (`(k, v)`).
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn residual(&self, seq: SeqId, head: usize) -> (&TokenMatrix, &TokenMatrix) {
        let s = &self.seqs[&seq];
        (&s.residual_k[head], &s.residual_v[head])
    }

    /// Gathers one head's packed blocks **through the page table**, oldest
    /// first — the page-indirect iteration the fused kernel consumes. The
    /// returned refs alias the page arena; by the contiguous-equivalence
    /// invariant they equal the contiguous cache's block list bitwise.
    ///
    /// The gather stops at the sequence's own flushed-block count: a page
    /// shared with a forked relative may additionally hold blocks the
    /// original writer flushed **past** the shared boundary, and those
    /// always sort after every block of this sequence (block homing is
    /// monotone in the block index), so the count-truncated walk returns
    /// exactly this sequence's blocks.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn packed_blocks(&self, seq: SeqId, head: usize) -> Vec<&PackedBlock> {
        assert!(head < self.heads, "head {head} out of range");
        let own = self.seqs[&seq].len / self.residual_block();
        let Some(table) = self.pool.table(seq) else {
            panic!("sequence {seq:?} is not resident");
        };
        let mut out = Vec::with_capacity(own);
        'gather: for page in table {
            for block in &self.frames[page.0 as usize][head] {
                if out.len() == own {
                    break 'gather;
                }
                out.push(block);
            }
        }
        out
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

    /// Appends one decode-step token (one K/V row per head). Rows round
    /// through FP16 and accumulate in the residual window; when the window
    /// reaches `Nr` every head flushes one packed block into the page arena,
    /// homed on the page covering the block's first token.
    ///
    /// Returns `true` when this append flushed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on shape mismatch, a sealed or unknown
    /// sequence, or pool exhaustion (the sequence is left unchanged).
    pub fn append_step<R: AsRef<[f32]>>(
        &mut self,
        seq: SeqId,
        k_rows: &[R],
        v_rows: &[R],
        codec: &impl BlockCodec,
    ) -> Result<bool, StoreError> {
        let state = self.seqs.get(&seq).ok_or(StoreError::UnknownSeq(seq))?;
        if state.sealed {
            return Err(StoreError::Sealed(seq));
        }
        check_heads([k_rows.len(), v_rows.len()], self.heads)?;
        for row in k_rows.iter().chain(v_rows) {
            if row.as_ref().len() != self.config.dim {
                return Err(StoreError::Cache(CacheError::DimMismatch {
                    expected: self.config.dim,
                    got: row.as_ref().len(),
                }));
            }
        }
        let new_len = state.len + 1;
        let nr = self.residual_block();
        // Preflight this append's whole page demand — a grow past the
        // reservation and/or a copy-on-write of a shared flush target —
        // before mutating anything, so an OOM leaves the sequence (and its
        // sharing relatives) unchanged.
        let (reserved, table_len) = self.reservation(seq);
        let pt = self.pool.page_tokens();
        let grow_pages = if new_len > reserved {
            new_len.div_ceil(pt).saturating_sub(table_len)
        } else {
            0
        };
        let will_flush = state.residual_k[0].tokens() + 1 == nr;
        // A flush target beyond the current table is about to be grown
        // fresh (private by construction) — only existing shared pages CoW.
        let cow_slot = will_flush.then(|| (new_len - nr) / pt).filter(|&slot| {
            slot < table_len
                && self
                    .pool
                    .table(seq)
                    .is_some_and(|t| self.pool.seq_refcount(t[slot]) > 1)
        });
        let need = grow_pages + usize::from(cow_slot.is_some());
        self.check_free(need)?;
        self.ensure_free(need, &[]);
        if let Some(slot) = cow_slot {
            // First write past a shared boundary: copy only the affected
            // page before flushing into it.
            self.cow_slot(seq, slot);
        }
        // Grow only past the reservation; within it, pages already exist.
        if new_len > reserved {
            self.pool
                .grow(seq, new_len)
                .unwrap_or_else(|_| unreachable!("preflighted"));
        }
        if will_flush {
            // The flush target may have been inherited from a departed
            // sharer whose past-boundary blocks are still in the frame
            // (frames are only cleared at refcount zero, and the CoW guard
            // above never fires once we are the sole owner). Reclaim the
            // frame: truncate it to our own block prefix before appending,
            // and bump the page's generation — a departed sharer's swap
            // blob may reference the removed blocks, and the bump makes it
            // restore privately instead of re-sharing a mutated frame.
            let slot = (new_len - nr) / pt;
            let (page, _) = self.pool.translate(seq, new_len - nr);
            let own_here = self.own_blocks_on_slot(seq, slot);
            if self.frames[page.0 as usize][0].len() > own_here {
                self.pool.bump_generation(page);
                for head_blocks in &mut self.frames[page.0 as usize] {
                    head_blocks.truncate(own_here);
                }
            }
        }

        let dim = self.config.dim;
        let scheme = self.config.scheme;
        let Some(state) = self.seqs.get_mut(&seq) else {
            unreachable!("checked above");
        };
        let mut flushed = false;
        for head in 0..self.heads {
            push_rounded(&mut state.residual_k[head], k_rows[head].as_ref());
            push_rounded(&mut state.residual_v[head], v_rows[head].as_ref());
            if state.residual_k[head].tokens() == nr {
                let k_block = std::mem::replace(&mut state.residual_k[head], TokenMatrix::new(dim));
                let v_block = std::mem::replace(&mut state.residual_v[head], TokenMatrix::new(dim));
                let packed = codec.encode(&k_block, &v_block, scheme);
                let start = new_len - nr;
                let (page, _) = self.pool.translate(seq, start);
                self.frames[page.0 as usize][head].push(packed);
                flushed = true;
            }
        }
        state.len = new_len;
        Ok(flushed)
    }

    /// Bulk-loads a prompt for an **empty** sequence: per head, the largest
    /// `Nr`-aligned prefix quantizes block-by-block into the page arena and
    /// the tail becomes the residual window — the paged twin of
    /// [`QuantizedKvCache::prefill`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on shape mismatch, unknown/sealed/non-empty
    /// sequence, or pool exhaustion (nothing is stored on error).
    ///
    /// # Panics
    ///
    /// Panics if `k`/`v` head counts or per-head token counts disagree.
    pub fn prefill<K, V>(
        &mut self,
        seq: SeqId,
        k: &[K],
        v: &[V],
        codec: &impl BlockCodec,
    ) -> Result<(), StoreError>
    where
        K: TokenRows,
        V: TokenRows,
    {
        let state = self.seqs.get(&seq).ok_or(StoreError::UnknownSeq(seq))?;
        if state.sealed {
            return Err(StoreError::Sealed(seq));
        }
        assert_eq!(state.len, 0, "prefill requires an empty sequence");
        let len = check_prompt(k, v, self.heads, self.config.dim)?;
        let (reserved, table_len) = self.reservation(seq);
        if len > reserved {
            let extra = len.div_ceil(self.page_tokens()).saturating_sub(table_len);
            self.ensure_free(extra, &[]);
            self.pool.grow(seq, len)?;
        }
        let packed = self.pack_prompt_blocks(k, v, 0..len / self.residual_block(), codec);
        let keys = self.chain_keys(&packed, 0, self.prefix_seed());
        self.install_prompt(seq, k, v, packed, 0);
        let sources = self.source_chain(k, v, keys.len());
        self.register_prefix(seq, &[], &keys, &sources);
        Ok(())
    }

    /// Quantizes blocks `blocks` of every head of a validated prompt: rows
    /// round through FP16 into a scratch pair reused across the prompt and
    /// pack through `codec`. The one body behind every prompt write, and
    /// behind the first-block codec check of the source-keyed lookup.
    fn pack_prompt_blocks<K: TokenRows, V: TokenRows>(
        &self,
        k: &[K],
        v: &[V],
        blocks: Range<usize>,
        codec: &impl BlockCodec,
    ) -> Vec<Vec<PackedBlock>> {
        let nr = self.residual_block();
        let (mut kb, mut vb) = (TokenMatrix::new(0), TokenMatrix::new(0));
        let mut pack = |hk: &K, hv: &V, b: usize| {
            round_rows_into(hk, b * nr, (b + 1) * nr, &mut kb);
            round_rows_into(hv, b * nr, (b + 1) * nr, &mut vb);
            codec.encode(&kb, &vb, self.config.scheme)
        };
        k.iter()
            .zip(v)
            .map(|(hk, hv)| blocks.clone().map(|b| pack(hk, hv, b)).collect())
            .collect()
    }

    /// Homes `packed[head]` — the prompt's blocks from `first_block` on —
    /// on the pages covering their first tokens, pushes the rows past the
    /// last `Nr` boundary into the residual windows, and sets the length.
    fn install_prompt<K: TokenRows, V: TokenRows>(
        &mut self,
        seq: SeqId,
        k: &[K],
        v: &[V],
        packed: Vec<Vec<PackedBlock>>,
        first_block: usize,
    ) {
        let nr = self.residual_block();
        for (head, blocks) in packed.into_iter().enumerate() {
            for (b, block) in (first_block..).zip(blocks) {
                let (page, _) = self.pool.translate(seq, b * nr);
                self.frames[page.0 as usize][head].push(block);
            }
        }
        let len = k[0].token_count();
        let Some(state) = self.seqs.get_mut(&seq) else {
            unreachable!("resident sequence");
        };
        for (head, (hk, hv)) in k.iter().zip(v).enumerate() {
            for t in len - len % nr..len {
                push_rounded(&mut state.residual_k[head], hk.token_row(t));
                push_rounded(&mut state.residual_v[head], hv.token_row(t));
            }
        }
        state.len = len;
    }

    /// Checks the contiguous-equivalence invariant against a contiguous
    /// cache that replayed the same history: for every head `h`, the blocks
    /// gathered through the page table must equal
    /// `cache.packed_blocks(cache_head_base + h)` bitwise, and the residual
    /// windows must match exactly.
    pub fn matches_cache(
        &self,
        seq: SeqId,
        cache: &QuantizedKvCache,
        cache_head_base: usize,
    ) -> bool {
        let Some(state) = self.seqs.get(&seq) else {
            return false;
        };
        for head in 0..self.heads {
            let ch = cache_head_base + head;
            if state.len != cache.len(ch) {
                return false;
            }
            let paged = self.packed_blocks(seq, head);
            let contiguous = cache.packed_blocks(ch);
            if paged.len() != contiguous.len()
                || paged.iter().zip(contiguous).any(|(a, b)| **a != *b)
            {
                return false;
            }
            let (rk, rv) = cache.residual(ch);
            if state.residual_k[head] != *rk || state.residual_v[head] != *rv {
                return false;
            }
        }
        true
    }

    /// Blocks of `seq` homed on table slot `slot`: indices in
    /// `[ceil(slot·pt/Nr), ceil((slot+1)·pt/Nr))`, capped at the
    /// sequence's own flushed count — and always a **prefix** of the
    /// slot's frame, since frames hold blocks in index order and foreign
    /// blocks on a shared frame carry indices past every sharer's count.
    fn own_blocks_on_slot(&self, seq: SeqId, slot: usize) -> usize {
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
    fn cow_slot(&mut self, seq: SeqId, slot: usize) {
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
        let state = &self.seqs[&seq];
        let packed: usize = (0..self.heads)
            .map(|h| {
                self.packed_blocks(seq, h)
                    .iter()
                    .map(|b| b.byte_size())
                    .sum::<usize>()
            })
            .sum();
        let residual: usize = state
            .residual_k
            .iter()
            .map(|m| m.len() * self.config.dim * 2 * 2)
            .sum();
        packed + residual
    }

    // ── Content-addressed radix prefix cache ──────────────────────────

    /// Enables or disables the content-addressed radix prefix cache.
    ///
    /// Enabled, every admission that prefills (or swaps in) registers its
    /// sealed full page runs in a radix index, pinning those pages past
    /// their sequence's lifetime. A run is keyed by the FNV-1a chain hash
    /// of its **packed bytes** (plus scheme, page geometry, and run
    /// position) and — when it came from a prefill — by a 128-bit digest
    /// of the `f32` **source rows** it was quantized from, so a later
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

    /// Lifetime prefix-cache counters (all zero while disabled).
    pub fn prefix_cache_stats(&self) -> PrefixCacheStats {
        self.prefix_stats
    }

    /// Pages the prefix cache currently holds pinned (shared with, or
    /// outliving, their registering sequences).
    pub fn prefix_cached_pages(&self) -> usize {
        self.radix.all_pages().len()
    }

    /// Runs (radix nodes) currently cached.
    pub fn prefix_cached_runs(&self) -> usize {
        self.radix.node_count()
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
    fn run_blocks(&self) -> usize {
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
    fn prefix_seed(&self) -> u64 {
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

    /// Source digests of a prompt's leading `runs` page runs: digest `r`
    /// folds the run index and the raw `f32` bits of runs `0..=r` (per
    /// run head-major, each head's K rows then its V rows), so like a
    /// packed chain key it addresses the whole prefix it terminates.
    fn source_chain<K: TokenRows, V: TokenRows>(
        &self,
        k: &[K],
        v: &[V],
        runs: usize,
    ) -> Vec<SourceDigest> {
        let run_tokens = self.run_blocks() * self.residual_block();
        let seed = self.prefix_seed();
        let mut d = [seed, !seed.rotate_left(32)];
        (0..runs)
            .map(|r| {
                d = fold_source_word(d, r as u64);
                for (hk, hv) in k.iter().zip(v) {
                    for t in r * run_tokens..(r + 1) * run_tokens {
                        d = fold_source_row(d, hk.token_row(t));
                    }
                    for t in r * run_tokens..(r + 1) * run_tokens {
                        d = fold_source_row(d, hv.token_row(t));
                    }
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

    /// Packed chain keys of the runs in `blocks[head]` — runs
    /// `first_run..` of a sequence, the chain resuming from state `h` (the
    /// seed, or run `first_run - 1`'s key): a key folds its run index and
    /// every packed block of runs `0..=r` (head-major within a run), so
    /// it addresses the *entire* prefix it terminates.
    fn chain_keys<B: Borrow<PackedBlock>>(
        &self,
        blocks: &[Vec<B>],
        first_run: usize,
        mut h: u64,
    ) -> Vec<u64> {
        let bpr = self.run_blocks();
        (0..self.full_runs(blocks.first().map_or(0, Vec::len)))
            .map(|r| {
                h = fnv_fold(h, &((first_run + r) as u64).to_le_bytes());
                for head in blocks {
                    for block in &head[r * bpr..(r + 1) * bpr] {
                        h = fold_packed_block(h, block.borrow());
                    }
                }
                self.chain_key(h)
            })
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
    fn frame_bytes(&self, page: PageId) -> usize {
        (self.frames[page.0 as usize].iter().flatten())
            .map(PackedBlock::byte_size)
            .sum()
    }

    /// The pages of cached runs `ids`, in run order.
    fn run_pages_of(&self, ids: &[usize]) -> Vec<PageId> {
        (ids.iter().flat_map(|&id| &self.radix.node(id).pages))
            .copied()
            .collect()
    }

    /// Extends `adopted` — the nodes of the leading runs an admission has
    /// matched — through the packed-byte chain over `blocks[head]`, the
    /// blocks of the runs past them. A run whose node is fresh and whose
    /// frames byte-verify (a chain-hash collision must never alias pages)
    /// is touched and appended, a stale node is evicted with its subtree,
    /// and the walk stops at the first miss. Returns the chain keys of
    /// **all** the runs in `blocks`, for registration to reuse.
    fn walk_packed<B: Borrow<PackedBlock>>(
        &mut self,
        blocks: &[Vec<B>],
        adopted: &mut Vec<usize>,
    ) -> Vec<u64> {
        let bpr = self.run_blocks();
        let resume = adopted.last().map(|&id| self.radix.node(id).key);
        let keys = self.chain_keys(
            blocks,
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
                cached.eq(want[r * bpr..(r + 1) * bpr].iter().map(Borrow::borrow))
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
    fn ensure_free(&mut self, fresh: usize, protect: &[PageId]) {
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
    fn register_prefix(
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
    /// With the cache disabled this is exactly `admit` followed by
    /// `prefill`. Like [`PagedKvStore::admit`], a failed admission
    /// changes nothing and burns no [`SeqId`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Oom`] when the pool cannot cover
    /// `max(reserve_tokens, prompt_len)`, and shape errors as
    /// [`PagedKvStore::prefill`] would.
    ///
    /// # Panics
    ///
    /// Panics if `k`/`v` per-head token counts disagree.
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
        if !self.prefix_cache {
            let seq = self.admit(reserve)?;
            if let Err(e) = self.prefill(seq, k, v, codec) {
                self.evict(seq);
                return Err(e);
            }
            return Ok((seq, PrefixAdmit::default()));
        }
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
                let ours = self.pack_prompt_blocks(k, v, 0..1, codec);
                if !(ours.iter().zip(frame)).all(|(ours, cached)| ours.first() == cached.first()) {
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
        let mut packed = self.pack_prompt_blocks(k, v, by_source * bpr..blocks, codec);
        let keys = self.walk_packed(&packed, &mut adopted);
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

    /// Counts one admission that went through lookup — a hit when it
    /// adopted anything — and reports what it adopted.
    fn record_admission(&mut self, pages_reused: usize, bytes_reused: usize) -> PrefixAdmit {
        if pages_reused > 0 {
            self.prefix_stats.hits += 1;
            self.prefix_stats.pages_reused += pages_reused as u64;
            self.prefix_stats.bytes_reused += bytes_reused as u64;
        } else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ReferenceCodec;
    use crate::layout::PackLayout;
    use crate::scheme::QuantScheme;

    fn cfg(dim: usize) -> CacheConfig {
        CacheConfig::new(dim, QuantScheme::kc4(), PackLayout::sm80_default())
    }

    fn row(dim: usize, t: usize, salt: usize) -> Vec<f32> {
        (0..dim)
            .map(|c| ((t * dim + c + salt * 977) as f32 * 0.37).sin())
            .collect()
    }

    /// Appends tokens `t0 .. t0 + n` (values salted by `salt`) to both the
    /// paged sequence and its contiguous twin.
    fn append_both(
        store: &mut PagedKvStore,
        seq: SeqId,
        cache: &mut QuantizedKvCache,
        n: usize,
        salt: usize,
        t0: usize,
    ) {
        let dim = store.config().dim;
        let heads = store.heads();
        for t in t0..t0 + n {
            let k: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t, salt + h)).collect();
            let v: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t + 500, salt + h)).collect();
            store.append_step(seq, &k, &v, &ReferenceCodec).unwrap();
            for h in 0..heads {
                cache
                    .append_token(h, &k[h], &v[h], &ReferenceCodec)
                    .unwrap();
            }
        }
    }

    /// Appends `n` tokens to both containers and returns the cache twin.
    fn mirrored_appends(
        store: &mut PagedKvStore,
        seq: SeqId,
        n: usize,
        salt: usize,
    ) -> QuantizedKvCache {
        let mut cache = QuantizedKvCache::new(*store.config(), store.heads());
        append_both(store, seq, &mut cache, n, salt, 0);
        cache
    }

    #[test]
    fn append_path_matches_contiguous_cache() {
        for page_tokens in [1, 7, 64, 128, 300] {
            let mut store = PagedKvStore::new(cfg(16), 2, 2048, page_tokens);
            let seq = store.admit(0).unwrap();
            let cache = mirrored_appends(&mut store, seq, 128 * 2 + 37, 0);
            assert!(
                store.matches_cache(seq, &cache, 0),
                "page_tokens={page_tokens}"
            );
            assert_eq!(store.residual_len(seq), 37);
        }
    }

    #[test]
    fn prefill_matches_contiguous_cache() {
        let dim = 16;
        let mut store = PagedKvStore::new(cfg(dim), 2, 64, 48);
        let seq = store.admit(0).unwrap();
        let len = 128 + 50;
        let k: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(len, dim, |t, c| ((h * 7 + t * dim + c) as f32).sin()))
            .collect();
        let v: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(len, dim, |t, c| ((h * 13 + t * dim + c) as f32).cos()))
            .collect();
        store.prefill(seq, &k, &v, &ReferenceCodec).unwrap();

        let mut cache = QuantizedKvCache::new(cfg(dim), 2);
        for h in 0..2 {
            cache.prefill(h, &k[h], &v[h], &ReferenceCodec).unwrap();
        }
        assert!(store.matches_cache(seq, &cache, 0));
        assert_eq!(store.seq_len(seq), Some(len));
    }

    #[test]
    fn exact_block_multiple_prefill_matches_contiguous_cache() {
        // A prompt of exactly k·Nr tokens leaves the residual window
        // empty on both sides; the empty windows must still compare equal
        // (regression: the contiguous cache used to leave a dim-0 default
        // matrix there, failing matches_cache — and swap round trips —
        // despite holding identical bytes).
        for len in [128usize, 256] {
            let dim = 16;
            let mut store = PagedKvStore::new(cfg(dim), 2, 64, 48);
            let seq = store.admit(0).unwrap();
            let k: Vec<TokenMatrix> = (0..2)
                .map(|h| TokenMatrix::from_fn(len, dim, |t, c| ((h + t * dim + c) as f32).sin()))
                .collect();
            store.prefill(seq, &k, &k, &ReferenceCodec).unwrap();
            let mut cache = QuantizedKvCache::new(cfg(dim), 2);
            for (h, kh) in k.iter().enumerate() {
                cache.prefill(h, kh, kh, &ReferenceCodec).unwrap();
            }
            assert_eq!(store.residual_len(seq), 0);
            assert!(store.matches_cache(seq, &cache, 0), "len={len}");
            // And the swap round trip holds on the empty-residual state.
            let blob = store.swap_out(seq).unwrap();
            let back = store.swap_in(&blob).unwrap();
            assert!(store.matches_cache(back, &cache, 0), "len={len} swapped");
        }
    }

    #[test]
    fn eviction_frees_pages_and_reuse_does_not_corrupt() {
        // Three sequences; evict the middle one, admit a fourth that reuses
        // its pages; the survivors must still equal their contiguous twins.
        let mut store = PagedKvStore::new(cfg(16), 1, 40, 32);
        let a = store.admit(0).unwrap();
        let b = store.admit(0).unwrap();
        let c = store.admit(0).unwrap();
        let cache_a = mirrored_appends(&mut store, a, 200, 1);
        let _cache_b = mirrored_appends(&mut store, b, 300, 2);
        let cache_c = mirrored_appends(&mut store, c, 150, 3);
        let free_before = store.free_pages();
        store.evict(b);
        assert!(store.free_pages() > free_before);
        let d = store.admit(0).unwrap();
        let cache_d = mirrored_appends(&mut store, d, 280, 4);
        assert!(store.matches_cache(a, &cache_a, 0));
        assert!(store.matches_cache(c, &cache_c, 0));
        assert!(store.matches_cache(d, &cache_d, 0));
    }

    #[test]
    fn reservation_makes_appends_infallible_and_oom_is_clean() {
        let mut store = PagedKvStore::new(cfg(16), 1, 4, 32);
        let seq = store.admit(128).unwrap(); // exactly the pool
        assert_eq!(store.free_pages(), 0);
        let err = store.admit(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(store.resident(), 1);
        for t in 0..128 {
            let k = row(16, t, 0);
            store
                .append_step(
                    seq,
                    std::slice::from_ref(&k),
                    std::slice::from_ref(&k),
                    &ReferenceCodec,
                )
                .unwrap();
        }
        // Past the reservation the pool is exhausted.
        let k = row(16, 999, 0);
        let err = store
            .append_step(
                seq,
                std::slice::from_ref(&k),
                std::slice::from_ref(&k),
                &ReferenceCodec,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Oom(_)));
        assert_eq!(store.seq_len(seq), Some(128));
    }

    #[test]
    fn sealed_sequences_reject_appends() {
        let mut store = PagedKvStore::new(cfg(16), 1, 8, 32);
        let seq = store.admit(0).unwrap();
        store.seal(seq).unwrap();
        let k = row(16, 0, 0);
        assert!(matches!(
            store.append_step(
                seq,
                std::slice::from_ref(&k),
                std::slice::from_ref(&k),
                &ReferenceCodec
            ),
            Err(StoreError::Sealed(_))
        ));
        store.evict(seq);
        assert!(store.seq_len(seq).is_none());
        assert!(store.seal(seq).is_err());
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut store = PagedKvStore::new(cfg(16), 2, 8, 32);
        let seq = store.admit(0).unwrap();
        let good = vec![vec![0.0f32; 16]; 2];
        let bad_dim = vec![vec![0.0f32; 8]; 2];
        assert!(matches!(
            store.append_step(seq, &bad_dim, &good, &ReferenceCodec),
            Err(StoreError::Cache(CacheError::DimMismatch { .. }))
        ));
        let bad_heads = vec![vec![0.0f32; 16]; 1];
        assert!(matches!(
            store.append_step(seq, &bad_heads, &good, &ReferenceCodec),
            Err(StoreError::HeadCount {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn failed_admit_does_not_burn_a_seq_id() {
        // admit-fail → admit-success must hand out the same SeqId stream
        // as a history without the failure: ids are part of the
        // deterministic-replay contract (and the sharded store's
        // cross-device lockstep).
        let mut store = PagedKvStore::new(cfg(16), 1, 4, 32);
        let a = store.admit(64).unwrap(); // 2 pages
        let err = store.admit(128).unwrap_err(); // needs 4, only 2 free
        assert_eq!(
            err,
            PagedOom {
                requested: 4,
                free: 2
            }
        );
        let b = store.admit(64).unwrap();
        assert_eq!(b.0, a.0 + 1, "failed admit consumed a SeqId");
        // A parallel store that never saw the failure agrees.
        let mut twin = PagedKvStore::new(cfg(16), 1, 4, 32);
        assert_eq!(twin.admit(64).unwrap(), a);
        assert_eq!(twin.admit(64).unwrap(), b);
    }

    #[test]
    fn evict_returns_all_pages_at_any_residual_state() {
        // Pages must return to the pre-admit count whether the sequence is
        // evicted before sealing, after sealing, or mid-append with an
        // unsealed residual window (`Nr` = 128 here, so 200 tokens leave 72
        // residual tokens unflushed).
        let scenarios: [fn(&mut PagedKvStore, SeqId); 3] = [
            |_, _| {},                 // evict-before-seal
            |s, q| s.seal(q).unwrap(), // evict-after-seal
            |s, q| {
                // evict-mid-append: window partly filled post-flush
                let k = vec![row(16, 1000, 9), row(16, 1001, 9)];
                s.append_step(q, &k, &k, &ReferenceCodec).unwrap();
            },
        ];
        for (i, prep) in scenarios.iter().enumerate() {
            let mut store = PagedKvStore::new(cfg(16), 2, 64, 48);
            let free_before = store.free_pages();
            let seq = store.admit(0).unwrap();
            mirrored_appends(&mut store, seq, 200, i);
            assert!(store.residual_len(seq) > 0, "window unsealed mid-run");
            prep(&mut store, seq);
            store.evict(seq);
            assert_eq!(store.free_pages(), free_before, "scenario {i} leaked pages");
            assert_eq!(store.resident(), 0);
        }
    }

    #[test]
    fn swap_round_trip_is_bitwise_and_frees_pages_between() {
        for page_tokens in [1, 7, 48, 64, 300] {
            let mut store = PagedKvStore::new(cfg(16), 2, 2048, page_tokens);
            let free_before = store.free_pages();
            let seq = store.admit(300).unwrap();
            let cache = mirrored_appends(&mut store, seq, 128 * 2 + 37, 0);
            let held = free_before - store.free_pages();
            let bytes = store.seq_bytes(seq);

            let blob = store.swap_out(seq).unwrap();
            assert_eq!(store.free_pages(), free_before, "swap-out frees all pages");
            assert_eq!(store.resident(), 0);
            assert_eq!(blob.host_bytes(), bytes);
            assert_eq!(blob.pages_needed(page_tokens), held);
            assert!(store.swap_out(seq).is_err(), "already swapped out");

            let seq2 = store.swap_in(&blob).unwrap();
            assert_ne!(seq2, seq, "ids are never reused");
            assert!(
                store.matches_cache(seq2, &cache, 0),
                "page_tokens={page_tokens}: swap round trip not bitwise"
            );
            // The restored sequence keeps its full reservation: appends
            // up to the original budget stay infallible.
            let k = row(16, 2000, 0);
            store
                .append_step(
                    seq2,
                    &[k.clone(), k.clone()],
                    &[k.clone(), k],
                    &ReferenceCodec,
                )
                .unwrap();
        }
    }

    #[test]
    fn swap_in_oom_is_clean_and_burns_nothing() {
        let mut store = PagedKvStore::new(cfg(16), 1, 8, 32);
        let seq = store.admit(128).unwrap(); // 4 pages
        let cache = mirrored_appends(&mut store, seq, 100, 0);
        let blob = store.swap_out(seq).unwrap();
        // Occupy too many pages for the blob to come back.
        let hog = store.admit(192).unwrap(); // 6 of 8 pages
        let err = store.swap_in(&blob).unwrap_err();
        assert_eq!(
            err,
            StoreError::Oom(PagedOom {
                requested: 4,
                free: 2
            })
        );
        store.evict(hog);
        // The failed swap-in burned no id and left the blob reusable.
        let back = store.swap_in(&blob).unwrap();
        assert_eq!(back.0, hog.0 + 1);
        assert!(store.matches_cache(back, &cache, 0));
    }

    #[test]
    fn swapped_sequences_preserve_sealed_state() {
        let mut store = PagedKvStore::new(cfg(16), 1, 8, 32);
        let seq = store.admit(64).unwrap();
        mirrored_appends(&mut store, seq, 20, 0);
        store.seal(seq).unwrap();
        let blob = store.swap_out(seq).unwrap();
        let back = store.swap_in(&blob).unwrap();
        let k = row(16, 0, 0);
        assert!(matches!(
            store.append_step(
                back,
                std::slice::from_ref(&k),
                std::slice::from_ref(&k),
                &ReferenceCodec
            ),
            Err(StoreError::Sealed(_))
        ));
    }

    #[test]
    fn fork_shares_pages_and_divergent_lineages_stay_bitwise() {
        // Page sizes straddling every regime: pages much smaller than a
        // block (3, 7), block-aligned-ish (32, 48), and one page holding
        // several blocks (300). Nr = 128 here, so the 256-token prompt is
        // block-aligned and every prompt page is shareable.
        for page_tokens in [3usize, 7, 32, 48, 300] {
            let prompt = 256;
            let budget = prompt + 64;
            let mut store = PagedKvStore::new(cfg(16), 2, 2048, page_tokens);
            let parent = store.admit(budget).unwrap();
            let mut parent_cache = mirrored_appends(&mut store, parent, prompt, 0);
            let mut child_cache = parent_cache.clone();

            let free_before = store.free_pages();
            let predicted = store.fork_new_pages(parent, prompt, budget).unwrap();
            let child = store.fork(parent, prompt, budget).unwrap();
            assert_eq!(
                free_before - store.free_pages(),
                predicted,
                "page_tokens={page_tokens}: fork_new_pages mispredicted"
            );
            assert_eq!(
                predicted,
                budget.div_ceil(page_tokens) - prompt.div_ceil(page_tokens),
                "only the private tail is newly allocated"
            );
            let stats = store.sharing_stats();
            assert_eq!(stats.shared_pages, prompt.div_ceil(page_tokens));
            assert!(stats.bytes_saved > 0);
            assert_eq!(
                stats.logical_pages - stats.physical_pages,
                stats.shared_pages
            );
            assert!(
                store.matches_cache(child, &child_cache, 0),
                "page_tokens={page_tokens}: child is not the prefix bitwise"
            );

            // Divergent continuations: both lineages flush into (what was)
            // shared territory; copy-on-write must keep them independent.
            append_both(&mut store, parent, &mut parent_cache, 70, 1000, prompt);
            append_both(&mut store, child, &mut child_cache, 70, 2000, prompt);
            assert!(
                store.matches_cache(parent, &parent_cache, 0),
                "page_tokens={page_tokens}: child writes leaked into the parent"
            );
            assert!(
                store.matches_cache(child, &child_cache, 0),
                "page_tokens={page_tokens}: parent writes leaked into the child"
            );

            // Releasing both lineages returns every page: refcounts hit
            // zero exactly once per physical page.
            store.evict(parent);
            assert!(
                store.matches_cache(child, &child_cache, 0),
                "page_tokens={page_tokens}: parent eviction corrupted the child"
            );
            store.evict(child);
            assert_eq!(store.free_pages(), store.total_pages());
        }
    }

    /// Appends `n` tokens (salted) to the paged sequence only.
    fn append_n(store: &mut PagedKvStore, seq: SeqId, n: usize, salt: usize, t0: usize) {
        let dim = store.config().dim;
        let heads = store.heads();
        for t in t0..t0 + n {
            let k: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t, salt + h)).collect();
            let v: Vec<Vec<f32>> = (0..heads).map(|h| row(dim, t + 500, salt + h)).collect();
            store.append_step(seq, &k, &v, &ReferenceCodec).unwrap();
        }
    }

    #[test]
    fn shared_block_run_tracks_physical_prefix_identity() {
        // Nr = 128, pages of 48 tokens: block 0 homes on slot 0, block 1 on
        // slot 2, block 2 on slot 5.
        let mut store = PagedKvStore::new(cfg(16), 2, 2048, 48);
        let parent = store.admit(512).unwrap();
        append_n(&mut store, parent, 256, 0, 0);
        assert_eq!(store.shared_block_run(&[]), 0);
        assert_eq!(store.shared_block_run(&[parent]), 0, "no group of one");

        let child = store.fork(parent, 256, 512).unwrap();
        assert_eq!(store.shared_block_run(&[parent, child]), 2);

        // An unrelated sequence shares no physical pages.
        let other = store.admit(512).unwrap();
        append_n(&mut store, other, 256, 9, 0);
        assert_eq!(store.shared_block_run(&[parent, other]), 0);
        assert_eq!(store.shared_block_run(&[parent, child, other]), 0);

        // Parent diverges: its block-2 flush CoWs the straddling shared
        // page (slot 5), which no shared block homes on — run unchanged,
        // capped at the child's own flushed count.
        append_n(&mut store, parent, 128, 1000, 256);
        assert!(store.cow_breaks() > 0, "flush must have broken the share");
        assert_eq!(store.shared_block_run(&[parent, child]), 2);

        // Child catches up with its own divergent block 2: tables now
        // disagree at slot 5, so the run still stops at 2.
        append_n(&mut store, child, 128, 2000, 256);
        assert_eq!(store.shared_block_run(&[parent, child]), 2);

        // A non-resident member dissolves the group entirely.
        store.evict(child);
        assert_eq!(store.shared_block_run(&[parent, child]), 0);
    }

    #[test]
    fn mid_page_fork_boundary_splits_the_group_at_the_last_shared_block() {
        // Regression for the off-by-one-page case: pt = 256 holds two
        // Nr = 128 blocks, and the fork lands at 270 — neither
        // page-aligned (270 % 256 != 0) nor block-aligned (270 % 128 != 0),
        // legal because tokens 256..270 sit in the parent's residual
        // window. The straddling page (slot 1, tokens 256..511) is shared
        // at fork time, but block 2 — which homes on it — is *not* common
        // history: a pages-shared → blocks-shared shortcut would claim
        // ceil(270/256)·256/128 = 4 blocks. The run must stop at 2, before
        // and after either lineage flushes into the straddling page.
        let mut store = PagedKvStore::new(cfg(16), 1, 64, 256);
        let parent = store.admit(512).unwrap();
        append_n(&mut store, parent, 300, 0, 0);
        assert!(store.can_fork(parent, 270), "mid-residual fork is legal");
        let child = store.fork(parent, 270, 512).unwrap();
        assert_eq!(store.sharing_stats().shared_pages, 2);
        assert_eq!(store.shared_block_run(&[parent, child]), 2);

        // Parent flushes block 2 into the shared straddling page → CoW.
        append_n(&mut store, parent, 84, 1000, 300);
        assert_eq!(store.seq_len(parent), Some(384));
        assert_eq!(store.cow_breaks(), 1);
        assert_eq!(store.shared_block_run(&[parent, child]), 2);

        // Child flushes its own divergent block 2 (now sole owner of the
        // original page): tables disagree on slot 1, run still 2 — the
        // straddling page's blocks belong to the private suffix.
        append_n(&mut store, child, 114, 2000, 270);
        assert_eq!(store.seq_len(child), Some(384));
        assert_eq!(store.shared_block_run(&[parent, child]), 2);
    }

    #[test]
    fn fork_mid_residual_copies_the_window_prefix() {
        // Prompt 100 < Nr (128): nothing is packed, the whole prompt sits
        // in the FP16 window. A fork at 100 deep-copies those rows even
        // after the parent generated a few more (un-flushed) tokens.
        let mut store = PagedKvStore::new(cfg(16), 2, 64, 32);
        let parent = store.admit(200).unwrap();
        let mut parent_cache = mirrored_appends(&mut store, parent, 100, 0);
        let mut child_cache = parent_cache.clone();
        append_both(&mut store, parent, &mut parent_cache, 20, 50, 100);

        let child = store.fork(parent, 100, 200).unwrap();
        assert_eq!(store.residual_len(child), 100);
        assert!(store.matches_cache(child, &child_cache, 0));
        append_both(&mut store, child, &mut child_cache, 60, 60, 100);
        assert!(store.matches_cache(child, &child_cache, 0));
        assert!(store.matches_cache(parent, &parent_cache, 0));
    }

    #[test]
    fn fork_boundaries_inside_packed_blocks_are_rejected() {
        let mut store = PagedKvStore::new(cfg(16), 1, 64, 32);
        let parent = store.admit(400).unwrap();
        mirrored_appends(&mut store, parent, 300, 0); // 2 blocks + 44 residual
        assert!(store.can_fork(parent, 128));
        assert!(store.can_fork(parent, 256));
        assert!(store.can_fork(parent, 270), "within the residual window");
        assert!(store.can_fork(parent, 300));
        assert!(!store.can_fork(parent, 100), "inside packed block 0");
        assert!(!store.can_fork(parent, 200), "inside packed block 1");
        assert!(!store.can_fork(parent, 301), "beyond the parent");
        assert!(matches!(
            store.fork(parent, 200, 400),
            Err(StoreError::ForkBoundary {
                at_token: 200,
                parent_len: 300,
                residual_block: 128,
            })
        ));
        assert!(store.fork_new_pages(parent, 200, 400).is_none());
        assert!(matches!(
            store.fork(SeqId(99), 0, 10),
            Err(StoreError::UnknownSeq(SeqId(99)))
        ));
    }

    #[test]
    fn fork_oom_admits_nothing_and_bumps_no_refcount() {
        let mut store = PagedKvStore::new(cfg(16), 1, 8, 32);
        let parent = store.admit(128).unwrap(); // 4 of 8 pages
        mirrored_appends(&mut store, parent, 128, 0);
        // Child wants 128 shared + 160 private = 5 fresh pages; only 4 free.
        let err = store.fork(parent, 128, 128 + 160).unwrap_err();
        assert!(matches!(err, StoreError::Oom(_)));
        assert_eq!(store.free_pages(), 4);
        assert_eq!(store.sharing_stats().shared_pages, 0);
        // The failed fork burned no SeqId.
        let child = store.fork(parent, 128, 128 + 32).unwrap();
        assert_eq!(child.0, parent.0 + 1);
    }

    #[test]
    fn cow_oom_leaves_the_sequence_unchanged() {
        // Nr = 128, one page of 128 tokens shared; the child's flush at
        // token 128... no wait — make the flush land ON the shared page:
        // page_tokens 192 covers tokens 0..192, so the child's first flush
        // (block 1, home token 128) needs a CoW of the shared page. With
        // zero free pages that append must fail cleanly.
        let mut store = PagedKvStore::new(cfg(16), 1, 3, 192);
        let parent = store.admit(192).unwrap(); // 1 page
        let mut cache = mirrored_appends(&mut store, parent, 128, 0);
        let child = store.fork(parent, 128, 256).unwrap(); // 1 shared + 1 fresh
        assert_eq!(store.free_pages(), 1);
        let hog = store.admit(192).unwrap(); // last free page
        let mut child_cache = cache.clone();
        append_both(&mut store, child, &mut child_cache, 127, 9, 128);
        // The 128th append flushes block 1 onto the shared page → CoW →
        // OOM. Nothing may change.
        let k = row(16, 999, 9);
        let err = store
            .append_step(
                child,
                std::slice::from_ref(&k),
                std::slice::from_ref(&k),
                &ReferenceCodec,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Oom(_)));
        assert_eq!(store.seq_len(child), Some(255));
        assert!(store.matches_cache(child, &child_cache, 0));
        // Freeing the hog lets the same append CoW and proceed.
        store.evict(hog);
        append_both(&mut store, child, &mut child_cache, 1, 9, 255);
        assert!(store.matches_cache(child, &child_cache, 0));
        append_both(&mut store, parent, &mut cache, 10, 4, 128);
        assert!(store.matches_cache(parent, &cache, 0));
    }

    #[test]
    fn swap_out_of_a_sharing_sequence_restores_into_reshared_pages() {
        let mut store = PagedKvStore::new(cfg(16), 2, 64, 32);
        let parent = store.admit(160).unwrap(); // 5 pages
        let mut parent_cache = mirrored_appends(&mut store, parent, 128, 0);
        let child_cache = parent_cache.clone();
        let child = store.fork(parent, 128, 160).unwrap(); // 4 shared + 1 fresh
        let free_before = store.free_pages();

        // Swap the child out: only its private page frees (the shared
        // prefix survives through the parent).
        let blob = store.swap_out(child).unwrap();
        assert_eq!(store.free_pages(), free_before + 1);
        // Swap-in while the prefix is resident re-shares: one new page.
        assert_eq!(store.swap_in_new_pages(&blob), 1);
        let back = store.swap_in(&blob).unwrap();
        assert_eq!(store.free_pages(), free_before);
        assert!(store.matches_cache(back, &child_cache, 0));
        assert_eq!(store.sharing_stats().shared_pages, 4);

        // Parent untouched throughout.
        append_both(&mut store, parent, &mut parent_cache, 5, 3, 128);
        assert!(store.matches_cache(parent, &parent_cache, 0));

        // Once the prefix leaves the store, an old blob restores fully
        // private — still bitwise.
        let blob2 = store.swap_out(back).unwrap();
        store.evict(parent);
        assert_eq!(store.free_pages(), store.total_pages());
        assert_eq!(store.swap_in_new_pages(&blob2), 5);
        let solo = store.swap_in(&blob2).unwrap();
        assert!(store.matches_cache(solo, &child_cache, 0));
        assert_eq!(store.sharing_stats().shared_pages, 0);
    }

    #[test]
    fn survivor_reclaims_departed_siblings_blocks_from_inherited_frames() {
        // Nr = 128, page_tokens = 48. The parent decodes to 256 BEFORE the
        // fork, homing its block 1 (tokens 128..256) on page slot 2 — a
        // slot the child's 128-token shared prefix also covers. When the
        // parent then departs, the child becomes sole owner of a frame
        // still carrying the parent's past-boundary block (frames only
        // clear at refcount zero); its own block-1 flush must reclaim the
        // frame rather than append after the stale foreign block
        // (regression: the count-truncated gather used to return the
        // parent's divergent block as the child's — silent corruption).
        let mut store = PagedKvStore::new(cfg(16), 1, 64, 48);
        let parent = store.admit(300).unwrap();
        let mut parent_cache = mirrored_appends(&mut store, parent, 128, 0);
        let mut child_cache = parent_cache.clone();
        append_both(&mut store, parent, &mut parent_cache, 128, 11, 128);
        assert_eq!(store.packed_blocks(parent, 0).len(), 2);

        let child = store.fork(parent, 128, 300).unwrap();
        store.evict(parent);
        // The child decodes past the boundary: its block 1 homes on the
        // inherited slot-2 frame.
        append_both(&mut store, child, &mut child_cache, 128, 22, 128);
        assert_eq!(store.packed_blocks(child, 0).len(), 2);
        assert!(
            store.matches_cache(child, &child_cache, 0),
            "child gathered the departed parent's block as its own"
        );
        store.evict(child);
        assert_eq!(store.free_pages(), store.total_pages());
    }

    #[test]
    fn frame_reclaim_invalidates_outstanding_swap_reshare() {
        // Same shape, but the parent is swapped out (not evicted) before
        // the child's reclaiming flush. The parent's blob recorded the
        // shared slot-2 page for re-sharing; the child's truncation bumps
        // that page's generation, so the blob must restore its block 1
        // privately instead of re-sharing a frame that no longer holds it.
        let mut store = PagedKvStore::new(cfg(16), 1, 64, 48);
        let parent = store.admit(300).unwrap();
        let mut parent_cache = mirrored_appends(&mut store, parent, 128, 0);
        let mut child_cache = parent_cache.clone();
        append_both(&mut store, parent, &mut parent_cache, 128, 11, 128);
        let child = store.fork(parent, 128, 300).unwrap();

        let blob = store.swap_out(parent).unwrap();
        append_both(&mut store, child, &mut child_cache, 128, 22, 128);
        assert!(store.matches_cache(child, &child_cache, 0));

        let back = store.swap_in(&blob).unwrap();
        assert!(
            store.matches_cache(back, &parent_cache, 0),
            "parent re-shared a frame its sibling had reclaimed"
        );
        // The untouched prefix slots (0 and 1) still re-shared.
        assert!(store.sharing_stats().shared_pages >= 2);
        store.evict(back);
        store.evict(child);
        assert_eq!(store.free_pages(), store.total_pages());
    }

    #[test]
    fn reshare_detects_recycled_pages_by_generation() {
        // The shared prefix is evicted and its pages re-used by an
        // unrelated sequence before the blob returns: the generation check
        // must reject re-sharing even though the PageIds are alive again.
        let mut store = PagedKvStore::new(cfg(16), 1, 16, 32);
        let parent = store.admit(128).unwrap();
        let cache = mirrored_appends(&mut store, parent, 128, 0);
        let child = store.fork(parent, 128, 128).unwrap();
        let blob = store.swap_out(child).unwrap();
        store.evict(parent); // prefix gone; pages 0..4 freed
        let squatter = store.admit(128).unwrap(); // re-uses pages 0..4
        mirrored_appends(&mut store, squatter, 128, 7);
        assert_eq!(store.swap_in_new_pages(&blob), 4, "no false re-share");
        let back = store.swap_in(&blob).unwrap();
        assert!(store.matches_cache(back, &cache, 0));
    }

    #[test]
    fn block_straddling_pages_stays_homed_on_first_token_page() {
        // Nr = 128, page_tokens = 48: block 0 covers tokens 0..128, homed on
        // page table[0]; block 1 covers 128..256, starts at offset 32 of
        // table[2].
        let mut store = PagedKvStore::new(cfg(16), 1, 32, 48);
        let seq = store.admit(0).unwrap();
        let cache = mirrored_appends(&mut store, seq, 256, 0);
        assert!(store.matches_cache(seq, &cache, 0));
        assert_eq!(store.packed_blocks(seq, 0).len(), 2);
        let table = store.pool().table(seq).unwrap().to_vec();
        assert_eq!(table.len(), 6); // ceil(256/48)
        assert_eq!(store.seq_bytes(seq), cache.total_bytes());
    }

    #[test]
    fn swap_blob_checksum_round_trips_intact() {
        for page_tokens in [1, 48, 300] {
            let mut store = PagedKvStore::new(cfg(16), 2, 2048, page_tokens);
            let seq = store.admit(300).unwrap();
            let _cache = mirrored_appends(&mut store, seq, 128 + 37, 0);
            let blob = store.swap_out(seq).unwrap();
            assert_eq!(blob.checksum(), blob.computed_checksum());
            assert!(blob.verify().is_ok());
            assert!(store.swap_in(&blob).is_ok());
        }
    }

    #[test]
    fn single_bit_flip_is_detected_anywhere_in_the_blob() {
        let mut store = PagedKvStore::new(cfg(16), 2, 2048, 48);
        let seq = store.admit(300).unwrap();
        let _cache = mirrored_appends(&mut store, seq, 128 + 37, 0);
        let clean = store.swap_out(seq).unwrap();
        // Bit positions folding into packed words, FP params, and the
        // residual tail; every one must flip the checksum.
        for bit in [0u64, 1, 13, 512, 4096, 65_535, u64::MAX / 3, u64::MAX] {
            let mut blob = clean.clone();
            blob.flip_bit(bit);
            let err = blob.verify().unwrap_err();
            assert!(
                matches!(err, StoreError::CorruptBlob { expected, got } if expected != got),
                "bit {bit} escaped the checksum"
            );
            // And swap-in refuses it without touching the pool.
            let free = store.free_pages();
            assert_eq!(store.swap_in(&blob).unwrap_err(), err);
            assert_eq!(store.free_pages(), free, "rejected swap-in leaked pages");
        }
        // The undamaged original still restores.
        assert!(store.swap_in(&clean).is_ok());
    }

    /// Per-head K/V prompt rows for the prefix-cache tests.
    #[allow(clippy::type_complexity)]
    fn prompt(
        heads: usize,
        dim: usize,
        len: usize,
        salt: usize,
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Vec<Vec<f32>>>) {
        let k = (0..heads)
            .map(|h| (0..len).map(|t| row(dim, t, salt + h)).collect())
            .collect();
        let v = (0..heads)
            .map(|h| (0..len).map(|t| row(dim, t + 500, salt + h)).collect())
            .collect();
        (k, v)
    }

    #[test]
    fn prefix_cache_dedups_identical_independent_prompts() {
        // kc4 ⇒ Nr = 128; page_tokens 32 ⇒ one run = 4 pages, 1 block.
        let mut store = PagedKvStore::new(cfg(16), 2, 64, 32);
        store.set_prefix_cache(true);
        let (k, v) = prompt(2, 16, 128, 7);
        let (a, ad) = store
            .admit_prefill_cached(&k, &v, 160, &ReferenceCodec)
            .unwrap();
        assert_eq!(ad.pages_reused, 0, "first admission can adopt nothing");
        let free_after_a = store.pool.free_pages();
        let (b, bd) = store
            .admit_prefill_cached(&k, &v, 160, &ReferenceCodec)
            .unwrap();
        // The identical independent prompt adopted the whole 4-page run;
        // only the private generation tail was drawn fresh.
        assert_eq!(bd.pages_reused, 4);
        assert!(bd.bytes_reused > 0);
        assert_eq!(free_after_a - store.pool.free_pages(), 1);
        // Bitwise identical gather through both page tables, and the
        // cascade grouping sees the shared run like an explicit fork's.
        for h in 0..2 {
            assert_eq!(store.packed_blocks(a, h), store.packed_blocks(b, h));
        }
        assert_eq!(store.shared_block_run(&[a, b]), 1);
        let stats = store.prefix_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.pages_reused, 4);
        assert_eq!(stats.bytes_reused, bd.bytes_reused as u64);
        // Counters reconcile exactly with the sharing snapshot: the run's
        // pages are shared, and the bytes sharing saves are the bytes the
        // hit reported reused.
        let sharing = store.sharing_stats();
        assert_eq!(sharing.shared_pages, 4);
        assert_eq!(sharing.logical_pages - sharing.physical_pages, 4);
        assert_eq!(sharing.bytes_saved as u64, stats.bytes_reused);
    }

    #[test]
    fn prefix_pages_survive_eviction_and_still_count_free() {
        let mut store = PagedKvStore::new(cfg(16), 1, 16, 32);
        store.set_prefix_cache(true);
        let (k, v) = prompt(1, 16, 128, 3);
        let (a, _) = store
            .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
            .unwrap();
        store.evict(a);
        // Pinned run pages stay allocated in the pool but are reclaimable
        // on demand, so the store-level free count is unchanged — cache
        // residency is invisible to admission control.
        assert_eq!(store.pool.free_pages(), 12);
        assert_eq!(store.free_pages(), 16);
        assert_eq!(store.prefix_cached_pages(), 4);
        // An identical prompt after the owner's departure adopts the run
        // without allocating a single page.
        let (b, bd) = store
            .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(bd.pages_reused, 4);
        assert_eq!(store.pool.free_pages(), 12);
        // And the adopted bytes equal a cache-off admission's exactly.
        let mut plain = PagedKvStore::new(cfg(16), 1, 16, 32);
        let s2 = plain.admit(128).unwrap();
        plain.prefill(s2, &k, &v, &ReferenceCodec).unwrap();
        assert_eq!(store.packed_blocks(b, 0), plain.packed_blocks(s2, 0));
    }

    #[test]
    fn forced_hash_collisions_never_alias_pages() {
        let mut store = PagedKvStore::new(cfg(16), 1, 32, 32);
        store.set_prefix_cache(true);
        store.force_hash_collisions();
        let (ka, va) = prompt(1, 16, 128, 1);
        let (kb, vb) = prompt(1, 16, 128, 2);
        let (a, ad) = store
            .admit_prefill_cached(&ka, &va, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(ad.pages_reused, 0);
        // Same (forced) chain key and first source lane, different
        // content: the second digest lane rejects the candidate on the
        // source path, byte-verification on the packed path.
        let (b, bd) = store
            .admit_prefill_cached(&kb, &vb, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(bd.pages_reused, 0, "hash collision adopted foreign pages");
        assert_ne!(store.packed_blocks(a, 0), store.packed_blocks(b, 0));
        // Byte-identical readmission still hits through the colliding key.
        let (c, cd) = store
            .admit_prefill_cached(&ka, &va, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(cd.pages_reused, 4);
        assert_eq!(store.packed_blocks(a, 0), store.packed_blocks(c, 0));
    }

    /// [`prompt`] of salt `a` whose rows from token `split` on come from
    /// salt `b` instead.
    #[allow(clippy::type_complexity)]
    fn spliced_prompt(
        heads: usize,
        len: usize,
        split: usize,
        (a, b): (usize, usize),
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Vec<Vec<f32>>>) {
        let (mut k, mut v) = prompt(heads, 16, len, a);
        let (kb, vb) = prompt(heads, 16, len, b);
        for h in 0..heads {
            k[h][split..].clone_from_slice(&kb[h][split..]);
            v[h][split..].clone_from_slice(&vb[h][split..]);
        }
        (k, v)
    }

    /// The contiguous cache that prefilled the same prompt.
    fn contiguous_twin(
        store: &PagedKvStore,
        k: &[Vec<Vec<f32>>],
        v: &[Vec<Vec<f32>>],
    ) -> QuantizedKvCache {
        let mut cache = QuantizedKvCache::new(*store.config(), store.heads());
        for h in 0..store.heads() {
            cache.prefill(h, &k[h], &v[h], &ReferenceCodec).unwrap();
        }
        cache
    }

    #[test]
    fn forced_collisions_never_alias_prompts_that_diverge_late() {
        // 3 runs of 4 pages; every packed key and every first source lane
        // collides, so only the second digest lane, the first-block check
        // and byte-verification tell prompts apart.
        let len = 3 * 128;
        let mut store = PagedKvStore::new(cfg(16), 2, 256, 32);
        store.set_prefix_cache(true);
        store.force_hash_collisions();
        let (ka, va) = prompt(2, 16, len, 1);
        let (a, _) = store
            .admit_prefill_cached(&ka, &va, len, &ReferenceCodec)
            .unwrap();
        // Same first two runs, different last run.
        let (kb, vb) = spliced_prompt(2, len, 2 * 128, (1, 2));
        // One mantissa bit of one element of the last run.
        let (mut kc, vc) = (ka.clone(), va.clone());
        kc[1][2 * 128 + 5][3] = f32::from_bits(kc[1][2 * 128 + 5][3].to_bits() ^ (1 << 22));
        for (k, v) in [(&kb, &vb), (&kc, &vc)] {
            let (seq, admit) = store
                .admit_prefill_cached(k, v, len, &ReferenceCodec)
                .unwrap();
            assert_eq!(admit.pages_reused, 2 * 4, "exactly the two common runs");
            assert!(store.matches_cache(seq, &contiguous_twin(&store, k, v), 0));
            assert_ne!(store.packed_blocks(a, 1)[2], store.packed_blocks(seq, 1)[2]);
        }
        // The identical prompt still hits through every colliding key.
        let (again, admit) = store
            .admit_prefill_cached(&ka, &va, len, &ReferenceCodec)
            .unwrap();
        assert_eq!(admit.pages_reused, 3 * 4);
        assert!(store.matches_cache(again, &contiguous_twin(&store, &ka, &va), 0));
    }

    #[test]
    fn partial_prefix_family_reuses_exactly_the_common_runs() {
        let len = 4 * 128 + 19;
        let mut store = PagedKvStore::new(cfg(16), 2, 512, 32);
        store.set_prefix_cache(true);
        let (k0, v0) = prompt(2, 16, len, 40);
        store
            .admit_prefill_cached(&k0, &v0, len, &ReferenceCodec)
            .unwrap();
        for m in 0..4 {
            // Diverges 17 tokens into run `m`: runs `0..m` are common.
            let (k, v) = spliced_prompt(2, len, m * 128 + 17, (40, 41 + m));
            let (seq, admit) = store
                .admit_prefill_cached(&k, &v, len, &ReferenceCodec)
                .unwrap();
            assert_eq!(admit.pages_reused, m * 4, "m = {m}");
            assert!(
                store.matches_cache(seq, &contiguous_twin(&store, &k, &v), 0),
                "m = {m}"
            );
        }
        let stats = store.prefix_cache_stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
        assert_eq!(stats.pages_reused, (1 + 2 + 3) * 4);
    }

    /// [`ReferenceCodec`] that counts the blocks it encodes.
    struct CountingCodec<'a>(&'a std::cell::Cell<usize>);

    impl BlockCodec for CountingCodec<'_> {
        fn encode(
            &self,
            k: &TokenMatrix,
            v: &TokenMatrix,
            scheme: crate::scheme::QuantScheme,
        ) -> PackedBlock {
            self.0.set(self.0.get() + 1);
            ReferenceCodec.encode(k, v, scheme)
        }
        fn decode(
            &self,
            block: &PackedBlock,
            scheme: crate::scheme::QuantScheme,
        ) -> (TokenMatrix, TokenMatrix) {
            ReferenceCodec.decode(block, scheme)
        }
    }

    #[test]
    fn lookup_precedes_quantization_on_a_full_hit() {
        let (heads, runs) = (2, 3);
        let len = runs * 128 + 9;
        let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
        store.set_prefix_cache(true);
        let (k, v) = prompt(heads, 16, len, 11);
        let encoded = std::cell::Cell::new(0);
        let codec = CountingCodec(&encoded);
        store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        assert_eq!(encoded.get(), heads * runs, "cold: every block packed");
        encoded.set(0);
        let (seq, admit) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        assert_eq!(admit.pages_reused, runs * 4);
        // Only the codec-agreement check (block 0 of each head) encodes.
        assert_eq!(encoded.get(), heads);
        assert!(store.matches_cache(seq, &contiguous_twin(&store, &k, &v), 0));
        // A suffix miss packs exactly the missed suffix.
        let (k2, v2) = spliced_prompt(heads, len, 2 * 128 + 1, (11, 12));
        encoded.set(0);
        store.admit_prefill_cached(&k2, &v2, len, &codec).unwrap();
        assert_eq!(encoded.get(), heads + heads);
    }

    #[test]
    fn swap_in_registered_run_gains_its_source_digest_from_the_next_prefill() {
        let heads = 2;
        let len = 2 * 128 + 5;
        let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
        let (k, v) = prompt(heads, 16, len, 21);
        let seq = store.admit(len).unwrap();
        store.prefill(seq, &k, &v, &ReferenceCodec).unwrap();
        let blob = store.swap_out(seq).unwrap();
        // Registered by a swap-in: packed keys only, no source digest.
        store.set_prefix_cache(true);
        store.swap_in(&blob).unwrap();
        assert_eq!(store.prefix_cached_runs(), 2);
        let encoded = std::cell::Cell::new(0);
        let codec = CountingCodec(&encoded);
        // The source lookup misses, the packed chain behind it hits — and
        // records the digest on the existing nodes instead of adding any.
        let (_, first) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        assert_eq!(first.pages_reused, 2 * 4);
        assert_eq!(encoded.get(), heads * 2, "packed path quantizes first");
        assert_eq!(store.prefix_cached_runs(), 2, "adopted, not duplicated");
        encoded.set(0);
        let (_, second) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
        assert_eq!(second.pages_reused, 2 * 4);
        assert_eq!(encoded.get(), heads, "now found before quantizing");
        assert_eq!(store.prefix_cached_runs(), 2);
    }

    #[test]
    fn colliding_digestless_run_never_answers_to_a_foreign_digest() {
        // A = [X, Y] registered by a swap-in: packed keys only. Under
        // forced collisions B = [X, Z] finds A's second run by key, fails
        // its byte-verify and keeps its own Z pages — registration must
        // not record B's digest on that unverified node, or B's next
        // admission would adopt Y's pages through the source path.
        let heads = 2;
        let len = 2 * 128;
        let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
        let (ka, va) = prompt(heads, 16, len, 1);
        let seq = store.admit(len).unwrap();
        store.prefill(seq, &ka, &va, &ReferenceCodec).unwrap();
        let blob = store.swap_out(seq).unwrap();
        store.set_prefix_cache(true);
        store.force_hash_collisions();
        let a = store.swap_in(&blob).unwrap();
        let (kb, vb) = spliced_prompt(heads, len, 128, (1, 2));
        let twin = contiguous_twin(&store, &kb, &vb);
        for round in 0..3 {
            let (b, admit) = store
                .admit_prefill_cached(&kb, &vb, len, &ReferenceCodec)
                .unwrap();
            assert_eq!(admit.pages_reused, 4, "round {round}: only run X");
            assert!(store.matches_cache(b, &twin, 0), "round {round}");
            assert_ne!(store.packed_blocks(a, 0)[1], store.packed_blocks(b, 0)[1]);
        }
        // The same holds on the cold path, which verifies nothing: a
        // `prefill` of B onto its own pages finds both of A's runs by key.
        let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
        let seq = store.admit(len).unwrap();
        store.prefill(seq, &ka, &va, &ReferenceCodec).unwrap();
        let blob = store.swap_out(seq).unwrap();
        store.set_prefix_cache(true);
        store.force_hash_collisions();
        store.swap_in(&blob).unwrap();
        let c = store.admit(len).unwrap();
        store.prefill(c, &kb, &vb, &ReferenceCodec).unwrap();
        let (c2, admit) = store
            .admit_prefill_cached(&kb, &vb, len, &ReferenceCodec)
            .unwrap();
        assert_eq!(admit.pages_reused, 4);
        assert!(store.matches_cache(c2, &twin, 0));
    }

    #[test]
    fn recycled_page_generation_blocks_stale_adoption() {
        let mut store = PagedKvStore::new(cfg(16), 1, 16, 32);
        store.set_prefix_cache(true);
        let (k, v) = prompt(1, 16, 128, 9);
        let (a, _) = store
            .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
            .unwrap();
        let first_page = store.pool.table(a).unwrap()[0];
        store.evict(a);
        // Simulate the page's frame being rewritten in place while a live
        // radix entry still points at it.
        store.pool.bump_generation(first_page);
        let (b, bd) = store
            .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(bd.pages_reused, 0, "stale generation served cached pages");
        let stats = store.prefix_cache_stats();
        assert_eq!(stats.evicted_subtrees, 1);
        assert_eq!(stats.evicted_pages, 4);
        // The stale entry was replaced by `b`'s fresh registration, and
        // the restored bytes are correct.
        assert_eq!(store.prefix_cached_runs(), 1);
        let mut plain = PagedKvStore::new(cfg(16), 1, 16, 32);
        let s2 = plain.admit(128).unwrap();
        plain.prefill(s2, &k, &v, &ReferenceCodec).unwrap();
        assert_eq!(store.packed_blocks(b, 0), plain.packed_blocks(s2, 0));
    }

    #[test]
    fn lru_eviction_returns_every_page() {
        let mut store = PagedKvStore::new(cfg(16), 1, 12, 32);
        store.set_prefix_cache(true);
        // Three distinct one-run prompts fill the whole pool as cache.
        for salt in 0..3 {
            let (k, v) = prompt(1, 16, 128, 100 + salt);
            let (s, _) = store
                .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
                .unwrap();
            store.evict(s);
        }
        assert_eq!(store.prefix_cached_pages(), 12);
        assert_eq!(store.pool.free_pages(), 0);
        assert_eq!(store.free_pages(), 12, "reclaimable cache must count free");
        // A non-matching admission forces LRU reclaim of exactly the
        // coldest chain — and gets every one of its pages back.
        let (k, v) = prompt(1, 16, 128, 999);
        let (s, sd) = store
            .admit_prefill_cached(&k, &v, 128, &ReferenceCodec)
            .unwrap();
        assert_eq!(sd.pages_reused, 0);
        let stats = store.prefix_cache_stats();
        assert_eq!(stats.evicted_subtrees, 1);
        assert_eq!(stats.evicted_pages, 4);
        assert_eq!(store.prefix_cached_pages(), 12);
        assert_eq!(store.free_pages(), 8);
        store.evict(s);
        assert_eq!(store.free_pages(), 12);
        // Disabling the cache is the full leak audit: every pinned page
        // must come back to the pool's own free list.
        store.set_prefix_cache(false);
        assert_eq!(store.pool.free_pages(), 12);
        assert_eq!(store.prefix_cached_pages(), 0);
    }

    #[test]
    fn swap_in_adopts_cached_prefix_zero_copy() {
        let mut store = PagedKvStore::new(cfg(16), 1, 16, 32);
        store.set_prefix_cache(true);
        let (k, v) = prompt(1, 16, 140, 5); // 128 packed + 12 residual rows
        let (a, _) = store
            .admit_prefill_cached(&k, &v, 160, &ReferenceCodec)
            .unwrap();
        let before: Vec<PackedBlock> = store.packed_blocks(a, 0).into_iter().cloned().collect();
        let blob = store.swap_out(a).unwrap();
        // The registered run outlives its owner's swap-out...
        assert_eq!(store.prefix_cached_pages(), 4);
        assert_eq!(store.free_pages(), 16);
        let free_raw = store.pool.free_pages();
        // ...and swap-in re-attaches it zero-copy: only the private tail
        // slot is drawn fresh (160 tokens = 5 slots, 4 adopted).
        let b = store.swap_in(&blob).unwrap();
        assert_eq!(free_raw - store.pool.free_pages(), 1);
        let after: Vec<PackedBlock> = store.packed_blocks(b, 0).into_iter().cloned().collect();
        assert_eq!(before, after);
        assert_eq!(store.residual_len(b), 12);
        let stats = store.prefix_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.pages_reused, 4);
    }
}
