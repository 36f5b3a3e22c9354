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
//! # Seams
//!
//! One type in plain `impl` blocks, one file per seam:
//!
//! - this file: page tables, admission, append / prefill and seal, and
//!   the per-head split of prompt admission's bulk passes onto the
//!   [launch](mod@crate::launch);
//! - `fork`: fork / copy-on-write and frame reclamation;
//! - `swap`: swap blobs ([`SwappedSeq`]) and their checksum;
//! - `prefix`: radix adoption ([`PagedKvStore::admit_prefill_cached`])
//!   and LRU eviction;
//! - `stats`: sharing and prefix-cache statistics;
//! - `split`: a decode launch's split borrow ([`LaunchPages`] shared,
//!   one [`LaunchSeq`] per sequence exclusive) and the in-window append.
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

mod fork;
mod prefix;
mod split;
mod stats;
mod swap;
#[cfg(test)]
mod tests;

pub use split::{LaunchPages, LaunchSeq};
pub use stats::{KvSharingStats, PrefixAdmit, PrefixCacheStats};
pub use swap::SwappedSeq;

use prefix::packed_leaf;

use crate::block::PackedBlock;
use crate::cache::{push_rounded, round_rows_into, CacheConfig, CacheError, QuantizedKvCache};
use crate::codec::BlockCodec;
use crate::launch::launch;
use crate::matrix::{TokenMatrix, TokenRows};
use crate::paged::{PagedOom, PagedPool, SeqId};
use crate::radix::RadixIndex;
use crate::window::KeyWindow;
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
    /// The sequence already holds tokens, and a prefill needs an empty one.
    NonEmpty(SeqId),
    /// A per-head slice had the wrong number of heads.
    HeadCount {
        /// Heads provided.
        got: usize,
        /// Heads the store was built with.
        expected: usize,
    },
    /// One head's K or V prompt rows disagree with head 0's K on the
    /// prompt's token count.
    PromptLength {
        /// The offending head.
        head: usize,
        /// Tokens that head's K or V provided.
        got: usize,
        /// Tokens head 0's K provided.
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
            StoreError::NonEmpty(s) => write!(f, "sequence {s:?} is not empty"),
            StoreError::HeadCount { got, expected } => {
                write!(
                    f,
                    "{got} per-head rows provided, store has {expected} heads"
                )
            }
            StoreError::PromptLength {
                head,
                got,
                expected,
            } => {
                write!(
                    f,
                    "head {head} has {got} prompt tokens, head 0 has {expected}"
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

/// Rejects a K or V side that does not carry one entry per head.
pub(crate) fn check_heads(got: [usize; 2], expected: usize) -> Result<(), StoreError> {
    match got.into_iter().find(|&got| got != expected) {
        Some(got) => Err(StoreError::HeadCount { got, expected }),
        None => Ok(()),
    }
}

/// Rejects a K or V row that is not `dim` wide.
fn check_row(row: &[f32], dim: usize) -> Result<(), StoreError> {
    if row.len() == dim {
        Ok(())
    } else {
        Err(StoreError::Cache(CacheError::DimMismatch {
            expected: dim,
            got: row.len(),
        }))
    }
}

/// Validates a prompt's shape — `heads` per-head matrices on both sides,
/// one token count across them, every row `dim` wide — and returns its
/// token count. The one validator behind every prompt write of the paged
/// and the sharded store: what it passes, the launch's tasks may index
/// without a check.
pub(crate) fn check_prompt<K: TokenRows, V: TokenRows>(
    k: &[K],
    v: &[V],
    heads: usize,
    dim: usize,
) -> Result<usize, StoreError> {
    check_heads([k.len(), v.len()], heads)?;
    let len = k[0].token_count();
    for (head, (hk, hv)) in k.iter().zip(v).enumerate() {
        for got in [hk.token_count(), hv.token_count()] {
            if got != len {
                return Err(StoreError::PromptLength {
                    head,
                    got,
                    expected: len,
                });
            }
        }
        for t in 0..len {
            check_row(hk.token_row(t), dim)?;
            check_row(hv.token_row(t), dim)?;
        }
    }
    Ok(len)
}

/// Per-sequence state outside the page arena: the FP16 residual window per
/// head plus logical length bookkeeping.
#[derive(Clone, Debug)]
struct SeqKv {
    /// Logical tokens (packed + residual).
    len: usize,
    /// Per head, the K window with its write-once Kᵀ panels.
    residual_k: Vec<KeyWindow>,
    residual_v: Vec<TokenMatrix>,
    sealed: bool,
}

/// One physical page frame: the packed blocks homed on this page, per KV
/// head, in logical (append) order. A frame only ever holds blocks of the
/// single sequence that owns the page.
type Frame = Vec<Vec<PackedBlock>>;

/// Tasks per launch thread for prompt admission's bulk passes: enough
/// that a thread the host stalls mid-pass leaves the others work to claim.
const TASKS_PER_THREAD: usize = 8;

/// One head's task outputs, in order, as one list.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    chunks.into_iter().flatten().collect()
}

/// The first `own` packed blocks of `seq`'s head `head`, walked through
/// its page table — see [`PagedKvStore::packed_blocks`].
fn gather<'a>(
    pool: &PagedPool,
    frames: &'a [Frame],
    seq: SeqId,
    head: usize,
    own: usize,
) -> Vec<&'a PackedBlock> {
    let Some(table) = pool.table(seq) else {
        panic!("sequence {seq:?} is not resident");
    };
    let mut out = Vec::with_capacity(own);
    'gather: for page in table {
        for block in &frames[page.0 as usize][head] {
            if out.len() == own {
                break 'gather;
            }
            out.push(block);
        }
    }
    out
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
    /// Threads prompt admission's bulk passes [`launch`] over (1 unless
    /// a [`crate::ShardedKvStore`] was given the serve step's width).
    launch_width: usize,
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
            launch_width: 1,
            #[cfg(test)]
            collide_hashes: false,
        }
    }

    /// Sets how many threads prompt admission's bulk passes launch over.
    /// No stored byte, key or counter depends on it.
    pub(crate) fn set_launch_width(&mut self, threads: usize) {
        self.launch_width = threads;
    }

    /// Threads prompt admission's bulk passes launch over.
    pub(crate) fn launch_width(&self) -> usize {
        self.launch_width
    }

    /// Runs `task(head, items)` over the launch for every head and every
    /// chunk of `items` and returns each head's task outputs in item
    /// order. At width ≤ 1 a head is one task; wider, it splits into about
    /// [`TASKS_PER_THREAD`] tasks per thread across the heads, each chunk a
    /// multiple of `align` items from `items.start`, so a task never splits
    /// a run.
    fn launch_per_head<T: Send + Sync>(
        &self,
        items: Range<usize>,
        align: usize,
        task: impl Fn(usize, Range<usize>) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let per_head = if self.launch_width <= 1 {
            1
        } else {
            (TASKS_PER_THREAD * self.launch_width).div_ceil(self.heads)
        };
        let chunk = (items.len().div_ceil(per_head).next_multiple_of(align)).max(align);
        let chunks = items.len().div_ceil(chunk);
        let slots = launch(self.heads * chunks, self.launch_width, |i| {
            let start = items.start + i % chunks * chunk;
            task(i / chunks, start..(start + chunk).min(items.end))
        });
        let mut out = (slots.into_iter())
            .map(|slot| slot.unwrap_or_else(|| panic!("a prompt admission task panicked")));
        (0..self.heads)
            .map(|_| out.by_ref().take(chunks).collect())
            .collect()
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
        // Charge the store's free budget (reclaimable cache pages count),
        // then reclaim them: an adoption of no pages draws every slot fresh
        // and assigns an id only once they fit.
        let need = reserve_tokens.div_ceil(self.pool.page_tokens());
        self.check_free(need)?;
        self.ensure_free(need, &[]);
        let seq = self.pool.adopt(&[], reserve_tokens)?;
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
            residual_k: vec![KeyWindow::new(self.config.dim); self.heads],
            residual_v: vec![TokenMatrix::new(self.config.dim); self.heads],
            sealed: false,
        }
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
        self.seqs[&seq].residual_k[0].tokens()
    }

    /// The residual FP16 window of one head (`(k, v)`).
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn residual(&self, seq: SeqId, head: usize) -> (&TokenMatrix, &TokenMatrix) {
        let (k, v) = self.residual_window(seq, head);
        (k.rows(), v)
    }

    /// [`PagedKvStore::residual`] with the K side as its [`KeyWindow`]: the
    /// same rows plus the write-once Kᵀ panels of its whole 16-token
    /// groups, which the residual kernel reads (and fills) in place.
    ///
    /// # Panics
    ///
    /// Panics on a non-resident sequence or bad head index.
    pub fn residual_window(&self, seq: SeqId, head: usize) -> (&KeyWindow, &TokenMatrix) {
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
        gather(&self.pool, &self.frames, seq, head, own)
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
            check_row(row.as_ref(), self.config.dim)?;
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
            self.reclaim_flush_target(seq, new_len - nr);
        }

        let dim = self.config.dim;
        let scheme = self.config.scheme;
        let Some(state) = self.seqs.get_mut(&seq) else {
            unreachable!("checked above");
        };
        let mut flushed = false;
        for head in 0..self.heads {
            state.residual_k[head].push(k_rows[head].as_ref());
            push_rounded(&mut state.residual_v[head], v_rows[head].as_ref());
            if state.residual_k[head].tokens() == nr {
                let k_block = state.residual_k[head].take_rows();
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
    /// Nothing is stored on error:
    ///
    /// - [`StoreError::UnknownSeq`] / [`StoreError::Sealed`] /
    ///   [`StoreError::NonEmpty`] for a sequence that is not resident, is
    ///   sealed, or already holds tokens;
    /// - [`StoreError::HeadCount`] / [`StoreError::PromptLength`] /
    ///   [`CacheError::DimMismatch`] when the prompt's shape disagrees with
    ///   itself or the store's;
    /// - [`StoreError::Oom`] when the pool cannot cover a prompt longer
    ///   than the sequence's reservation.
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
        if state.len > 0 {
            return Err(StoreError::NonEmpty(seq));
        }
        let len = check_prompt(k, v, self.heads, self.config.dim)?;
        let (reserved, table_len) = self.reservation(seq);
        if len > reserved {
            let extra = len.div_ceil(self.page_tokens()).saturating_sub(table_len);
            self.ensure_free(extra, &[]);
            self.pool.grow(seq, len)?;
        }
        let (packed, leaves) = self.pack_prompt_blocks(k, v, 0..len / self.residual_block(), codec);
        let keys = self.chain_keys(&leaves, 0, self.prefix_seed());
        self.install_prompt(seq, k, v, packed, 0);
        let sources = self.source_chain(k, v, keys.len());
        self.register_prefix(seq, &[], &keys, &sources);
        Ok(())
    }

    /// Quantizes blocks `blocks` of one head's prompt rows: they round
    /// through FP16 into a scratch pair reused across the range and pack
    /// through `codec`. The one encode behind every prompt write, and
    /// behind the first-block codec check of the source-keyed lookup.
    fn pack_head<K: TokenRows, V: TokenRows>(
        &self,
        hk: &K,
        hv: &V,
        blocks: Range<usize>,
        codec: &impl BlockCodec,
    ) -> Vec<PackedBlock> {
        let nr = self.residual_block();
        let (mut kb, mut vb) = (TokenMatrix::new(0), TokenMatrix::new(0));
        blocks
            .map(|b| {
                round_rows_into(hk, b * nr, (b + 1) * nr, &mut kb);
                round_rows_into(hv, b * nr, (b + 1) * nr, &mut vb);
                codec.encode(&kb, &vb, self.config.scheme)
            })
            .collect()
    }

    /// Packs blocks `blocks` (run-aligned at the start) of every head of a
    /// validated prompt on the launch, one task per head and range of
    /// whole runs. With the cache on, each task also folds the packed leaf
    /// of every full run it packed while the blocks are still warm.
    /// Returns, per head, the blocks and the leaves.
    fn pack_prompt_blocks<K: TokenRows, V: TokenRows>(
        &self,
        k: &[K],
        v: &[V],
        blocks: Range<usize>,
        codec: &impl BlockCodec,
    ) -> (Vec<Vec<PackedBlock>>, Vec<Vec<u64>>) {
        let bpr = self.run_blocks();
        let tasks = self.launch_per_head(blocks, bpr, |head, blocks| {
            let packed = self.pack_head(&k[head], &v[head], blocks, codec);
            let leaves = if self.prefix_cache {
                packed.chunks_exact(bpr).map(packed_leaf).collect()
            } else {
                Vec::new()
            };
            (packed, leaves)
        });
        (tasks.into_iter())
            .map(|head| {
                let (packed, leaves): (Vec<_>, Vec<_>) = head.into_iter().unzip();
                (concat(packed), concat(leaves))
            })
            .unzip()
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
                state.residual_k[head].push(hk.token_row(t));
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
        let Some(len) = self.seq_len(seq) else {
            return false;
        };
        (0..self.heads).all(|head| {
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
