//! Paged KV-cache management in the PagedAttention style (paper §VI-A,
//! the "Page" evaluation setting).
//!
//! The pool hands out fixed-size pages (tokens per page) to sequences on
//! demand; a per-sequence page table maps logical block indices to physical
//! pages. The serving simulator uses this for admission control (max batch
//! under a memory budget) and the kernel profiles charge the extra
//! page-table indirection traffic.
//!
//! Physical pages are **reference-counted** so several sequences can map
//! the same page (copy-on-write prefix sharing): `PagedPool::adopt`
//! admits a sequence whose table prefix aliases already-allocated pages,
//! `PagedPool::cow` gives a writer a private copy of one shared table
//! slot, and [`PagedPool::release`] only returns a page to the free list
//! when its last reference drops. Every page carries a **generation**
//! (`PagedPool::generation`) that bumps when the page is freed, so a
//! stale reference (e.g. recorded in a swapped-out blob) can detect that
//! its page was recycled.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A physical page identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// A sequence identifier issued by the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u32);

/// Pool exhaustion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedOom {
    /// Pages requested beyond availability.
    pub requested: usize,
    /// Pages still free.
    pub free: usize,
}

impl fmt::Display for PagedOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page pool exhausted: requested {} pages, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for PagedOom {}

/// A fixed-capacity page pool with per-sequence page tables.
///
/// Allocation is **deterministic**: the free list is an ordered set and
/// `grow` always hands out the lowest-numbered free page, and the
/// per-sequence tables are ordered maps — so a given admit/grow/release
/// history produces the identical physical page assignment in every
/// process. Serve runs over the pool are therefore reproducible
/// bit-for-bit across machines.
#[derive(Clone, Debug)]
pub struct PagedPool {
    page_tokens: usize,
    free: BTreeSet<PageId>,
    tables: BTreeMap<SeqId, Vec<PageId>>,
    seq_lens: BTreeMap<SeqId, usize>,
    /// Reference count per **allocated** page (absent = free). A page is
    /// shared when its count exceeds one.
    refs: BTreeMap<PageId, u32>,
    /// Free-generation per page: bumped every time the page returns to the
    /// free list, so stale references can detect recycling. Absent = never
    /// freed (generation 0).
    gens: BTreeMap<PageId, u64>,
    /// Pages holding one extra **cache pin** reference (at most one per
    /// page): the content-addressed prefix index keeps sealed prompt pages
    /// alive after their last sequence departs so later identical prompts
    /// can re-adopt them. Pinned pages are excluded from sharing
    /// accounting ([`PagedPool::seq_refcount`]).
    pinned: BTreeSet<PageId>,
    next_seq: u32,
    total_pages: usize,
}

impl PagedPool {
    /// Creates a pool of `total_pages` pages of `page_tokens` tokens each.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` is zero.
    pub fn new(total_pages: usize, page_tokens: usize) -> Self {
        assert!(page_tokens > 0, "page size must be positive");
        PagedPool {
            page_tokens,
            free: (0..total_pages as u32).map(PageId).collect(),
            tables: BTreeMap::new(),
            seq_lens: BTreeMap::new(),
            refs: BTreeMap::new(),
            gens: BTreeMap::new(),
            pinned: BTreeSet::new(),
            next_seq: 0,
            total_pages,
        }
    }

    /// Sizes a pool from a byte budget: `budget / (page_tokens ×
    /// bytes_per_token)` pages.
    pub fn with_budget(budget_bytes: f64, page_tokens: usize, bytes_per_token: f64) -> Self {
        let pages = (budget_bytes / (page_tokens as f64 * bytes_per_token)).floor() as usize;
        PagedPool::new(pages, page_tokens)
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Pages not currently assigned.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Total pool capacity in pages.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Fraction of pages in use.
    pub fn utilization(&self) -> f64 {
        1.0 - self.free.len() as f64 / self.total_pages.max(1) as f64
    }

    /// Admits a new (empty) sequence.
    pub fn admit(&mut self) -> SeqId {
        let id = SeqId(self.next_seq);
        self.next_seq += 1;
        self.tables.insert(id, Vec::new());
        self.seq_lens.insert(id, 0);
        id
    }

    /// Grows a sequence to `new_len` tokens, allocating pages on demand.
    ///
    /// # Errors
    ///
    /// Returns [`PagedOom`] (leaving the sequence unchanged) when the pool
    /// cannot supply enough pages.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is unknown or `new_len` shrinks the sequence.
    pub fn grow(&mut self, seq: SeqId, new_len: usize) -> Result<(), PagedOom> {
        let Some(&cur_len) = self.seq_lens.get(&seq) else {
            panic!("unknown sequence {seq:?}");
        };
        assert!(new_len >= cur_len, "sequences cannot shrink; free instead");
        let have = self.tables[&seq].len();
        let need = new_len.div_ceil(self.page_tokens);
        let extra = need.saturating_sub(have);
        if extra > self.free.len() {
            return Err(PagedOom {
                requested: extra,
                free: self.free.len(),
            });
        }
        for _ in 0..extra {
            // Lowest-numbered free page first: deterministic reuse.
            let Some(page) = self.free.pop_first() else {
                unreachable!("checked above");
            };
            self.refs.insert(page, 1);
            let Some(table) = self.tables.get_mut(&seq) else {
                unreachable!("table exists for every known sequence");
            };
            table.push(page);
        }
        self.seq_lens.insert(seq, new_len);
        Ok(())
    }

    /// Admits a new sequence whose table **adopts** existing pages:
    /// `slots[i] = Some(page)` aliases an already-allocated page at table
    /// slot `i` (its refcount is bumped — copy-on-write prefix sharing),
    /// `None` (and every slot past `slots`) draws a fresh page. The table
    /// is sized for `tokens` tokens (or `slots.len()`, whichever covers
    /// more) and `tokens` are reserved exactly as by a `grow` to `tokens`.
    ///
    /// # Errors
    ///
    /// Returns [`PagedOom`] — admitting nothing and bumping no refcount —
    /// when the pool cannot supply the fresh slots.
    ///
    /// # Panics
    ///
    /// Panics if any adopted page is not currently allocated.
    pub(crate) fn adopt(
        &mut self,
        slots: &[Option<PageId>],
        tokens: usize,
    ) -> Result<SeqId, PagedOom> {
        for page in slots.iter().flatten() {
            assert!(
                self.refs.contains_key(page),
                "cannot adopt free page {page:?}"
            );
        }
        let total_slots = tokens.div_ceil(self.page_tokens).max(slots.len());
        let fresh = total_slots - slots.iter().flatten().count();
        if fresh > self.free.len() {
            return Err(PagedOom {
                requested: fresh,
                free: self.free.len(),
            });
        }
        let mut table = Vec::with_capacity(total_slots);
        for i in 0..total_slots {
            match slots.get(i) {
                Some(Some(page)) => {
                    let Some(count) = self.refs.get_mut(page) else {
                        unreachable!("checked above");
                    };
                    *count += 1;
                    table.push(*page);
                }
                _ => {
                    let Some(page) = self.free.pop_first() else {
                        unreachable!("checked above");
                    };
                    self.refs.insert(page, 1);
                    table.push(page);
                }
            }
        }
        let id = SeqId(self.next_seq);
        self.next_seq += 1;
        self.tables.insert(id, table);
        self.seq_lens.insert(id, tokens);
        Ok(id)
    }

    /// Copy-on-write: replaces table slot `slot` of `seq` — which must map
    /// a **shared** page (refcount ≥ 2) — with a fresh private page,
    /// dropping one reference on the shared page. Returns
    /// `(shared_page, private_page)` so the caller can migrate the slot's
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`PagedOom`] (changing nothing) when no free page exists.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence, an out-of-range slot, or a slot
    /// whose page is exclusively owned (nothing to copy from).
    pub(crate) fn cow(&mut self, seq: SeqId, slot: usize) -> Result<(PageId, PageId), PagedOom> {
        let old = self.tables[&seq][slot];
        let Some(count) = self.refs.get_mut(&old) else {
            panic!("cow on free page {old:?}");
        };
        assert!(*count >= 2, "cow on exclusively owned page {old:?}");
        let Some(new) = self.free.pop_first() else {
            return Err(PagedOom {
                requested: 1,
                free: 0,
            });
        };
        *count -= 1;
        self.refs.insert(new, 1);
        let Some(table) = self.tables.get_mut(&seq) else {
            unreachable!("table indexed above");
        };
        table[slot] = new;
        Ok((old, new))
    }

    /// Releases a sequence, dropping one reference on each of its pages;
    /// pages whose **last** reference dropped return to the free list (and
    /// bump their generation). Returns exactly those freed pages, in table
    /// order — pages still referenced by a sharing sequence stay allocated
    /// and are not listed.
    pub fn release(&mut self, seq: SeqId) -> Vec<PageId> {
        let mut freed = Vec::new();
        if let Some(pages) = self.tables.remove(&seq) {
            for page in pages {
                let Some(count) = self.refs.get_mut(&page) else {
                    unreachable!("every mapped page is allocated");
                };
                *count -= 1;
                if *count == 0 {
                    self.refs.remove(&page);
                    *self.gens.entry(page).or_insert(0) += 1;
                    self.free.insert(page);
                    freed.push(page);
                }
            }
            self.seq_lens.remove(&seq);
        }
        freed
    }

    /// References currently held on a page (0 = free).
    pub(crate) fn refcount(&self, page: PageId) -> u32 {
        self.refs.get(&page).copied().unwrap_or(0)
    }

    /// How many times the page has been freed **or mutated in place** —
    /// compare against a recorded value to detect that a page was recycled
    /// (or its frame rewritten) in between.
    pub(crate) fn generation(&self, page: PageId) -> u64 {
        self.gens.get(&page).copied().unwrap_or(0)
    }

    /// Invalidates outstanding references to a page without freeing it:
    /// the storage layer bumps this when it rewrites an allocated page's
    /// frame in place (reclaiming a departed sharer's blocks), so a
    /// swapped-out blob recorded against the old contents refuses to
    /// re-share it.
    pub(crate) fn bump_generation(&mut self, page: PageId) {
        *self.gens.entry(page).or_insert(0) += 1;
    }

    /// Pins a page on behalf of the prefix cache: one extra reference that
    /// keeps the page allocated (and its frame intact) after every
    /// sequence mapping it departs. A page carries at most one pin.
    ///
    /// # Panics
    ///
    /// Panics if the page is free or already pinned.
    pub(crate) fn pin_page(&mut self, page: PageId) {
        let Some(count) = self.refs.get_mut(&page) else {
            panic!("cannot pin free page {page:?}");
        };
        assert!(self.pinned.insert(page), "page {page:?} already pinned");
        *count += 1;
    }

    /// Drops a page's cache pin; when the pin was the last reference the
    /// page returns to the free list (bumping its generation). Returns
    /// `true` exactly when the page was freed, so the caller knows to drop
    /// its frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is not pinned.
    pub(crate) fn unpin_page(&mut self, page: PageId) -> bool {
        assert!(self.pinned.remove(&page), "page {page:?} not pinned");
        let Some(count) = self.refs.get_mut(&page) else {
            unreachable!("pinned pages are allocated");
        };
        *count -= 1;
        if *count == 0 {
            self.refs.remove(&page);
            *self.gens.entry(page).or_insert(0) += 1;
            self.free.insert(page);
            true
        } else {
            false
        }
    }

    /// References held on a page by **sequences** — the raw refcount minus
    /// the cache pin, if any. This is the count every sharing decision
    /// (copy-on-write, swap re-share, preemption accounting) consults, so
    /// cache pins are invisible to scheduling.
    pub fn seq_refcount(&self, page: PageId) -> u32 {
        let raw = self.refcount(page);
        raw - u32::from(raw > 0 && self.pinned.contains(&page))
    }

    /// Pinned pages no sequence maps any more — exactly the pages the
    /// prefix cache could return to the free list on demand.
    pub(crate) fn reclaimable_pages(&self) -> usize {
        self.pinned
            .iter()
            .filter(|&&p| self.seq_refcount(p) == 0)
            .count()
    }

    /// Allocated pages mapped by more than one sequence (cache pins do not
    /// count as sharers).
    pub(crate) fn shared_pages(&self) -> usize {
        self.refs
            .keys()
            .filter(|&&p| self.seq_refcount(p) > 1)
            .count()
    }

    /// Iterates every allocated page with its current refcount, in page
    /// order.
    pub fn refcounts(&self) -> impl Iterator<Item = (PageId, u32)> + '_ {
        self.refs.iter().map(|(&p, &c)| (p, c))
    }

    /// Table entries summed over all sequences — what the pool would hold
    /// without sharing. `logical_pages() - (total_pages() - free_pages())`
    /// is the number of pages sharing saves.
    pub(crate) fn logical_pages(&self) -> usize {
        self.tables.values().map(Vec::len).sum()
    }

    /// Current token length of a sequence.
    pub(crate) fn seq_len(&self, seq: SeqId) -> Option<usize> {
        self.seq_lens.get(&seq).copied()
    }

    /// The page table of a sequence (logical order).
    pub fn table(&self, seq: SeqId) -> Option<&[PageId]> {
        self.tables.get(&seq).map(Vec::as_slice)
    }

    /// Translates a token index to `(page, offset)`.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is unknown or the token is beyond its length.
    pub(crate) fn translate(&self, seq: SeqId, token: usize) -> (PageId, usize) {
        let len = self.seq_lens[&seq];
        assert!(token < len, "token {token} beyond sequence length {len}");
        let table = &self.tables[&seq];
        (table[token / self.page_tokens], token % self.page_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_allocates_pages_lazily() {
        let mut pool = PagedPool::new(10, 64);
        let s = pool.admit();
        pool.grow(s, 1).unwrap();
        assert_eq!(pool.table(s).unwrap().len(), 1);
        pool.grow(s, 64).unwrap();
        assert_eq!(pool.table(s).unwrap().len(), 1);
        pool.grow(s, 65).unwrap();
        assert_eq!(pool.table(s).unwrap().len(), 2);
        assert_eq!(pool.free_pages(), 8);
    }

    #[test]
    fn oom_leaves_state_unchanged() {
        let mut pool = PagedPool::new(2, 64);
        let s = pool.admit();
        pool.grow(s, 128).unwrap();
        let err = pool.grow(s, 129).unwrap_err();
        assert_eq!(
            err,
            PagedOom {
                requested: 1,
                free: 0
            }
        );
        assert_eq!(pool.seq_len(s), Some(128));
        assert_eq!(pool.table(s).unwrap().len(), 2);
    }

    #[test]
    fn release_returns_pages() {
        let mut pool = PagedPool::new(4, 16);
        let a = pool.admit();
        let b = pool.admit();
        pool.grow(a, 40).unwrap(); // 3 pages
        pool.grow(b, 10).unwrap(); // 1 page
        assert_eq!(pool.free_pages(), 0);
        pool.release(a);
        assert_eq!(pool.free_pages(), 3);
        pool.grow(b, 60).unwrap();
        assert_eq!(pool.free_pages(), 0);
    }

    #[test]
    fn translate_is_consistent_with_tables() {
        let mut pool = PagedPool::new(8, 32);
        let s = pool.admit();
        pool.grow(s, 100).unwrap();
        let (p0, o0) = pool.translate(s, 0);
        let (p2, o2) = pool.translate(s, 95);
        assert_eq!(o0, 0);
        assert_eq!(o2, 95 % 32);
        assert_eq!(p0, pool.table(s).unwrap()[0]);
        assert_eq!(p2, pool.table(s).unwrap()[95 / 32]);
    }

    #[test]
    fn allocation_is_deterministic_lowest_first() {
        // Regardless of the order pages were released in, the next grow
        // always receives the lowest-numbered free pages — the property
        // that makes serve runs reproducible across processes.
        let mut pool = PagedPool::new(6, 8);
        let a = pool.admit();
        let b = pool.admit();
        let c = pool.admit();
        pool.grow(a, 16).unwrap(); // pages 0,1
        pool.grow(b, 16).unwrap(); // pages 2,3
        pool.grow(c, 16).unwrap(); // pages 4,5
        pool.release(c); // frees {4,5}
        pool.release(a); // frees {0,1} — out of allocation order
        let d = pool.admit();
        pool.grow(d, 32).unwrap();
        assert_eq!(
            pool.table(d).unwrap(),
            &[PageId(0), PageId(1), PageId(4), PageId(5)]
        );
    }

    #[test]
    fn adopt_shares_pages_and_release_frees_at_refcount_zero() {
        let mut pool = PagedPool::new(6, 16);
        let a = pool.admit();
        pool.grow(a, 48).unwrap(); // pages 0,1,2
        let table: Vec<Option<PageId>> = pool.table(a).unwrap().iter().map(|&p| Some(p)).collect();
        let b = pool.adopt(&table[..2], 64).unwrap(); // share 0,1 + fresh 3,4
        assert_eq!(
            pool.table(b).unwrap(),
            &[PageId(0), PageId(1), PageId(3), PageId(4)]
        );
        assert_eq!(pool.refcount(PageId(0)), 2);
        assert_eq!(pool.refcount(PageId(2)), 1);
        assert_eq!(pool.shared_pages(), 2);
        assert_eq!(pool.logical_pages(), 7);
        assert_eq!(pool.free_pages(), 1);
        // Releasing the sharer frees only its private pages.
        assert_eq!(pool.release(b), vec![PageId(3), PageId(4)]);
        assert_eq!(pool.refcount(PageId(0)), 1);
        assert_eq!(pool.free_pages(), 3);
        assert_eq!(pool.release(a), vec![PageId(0), PageId(1), PageId(2)]);
        assert_eq!(pool.free_pages(), 6);
    }

    #[test]
    fn adopt_oom_bumps_no_refcount_and_burns_no_id() {
        let mut pool = PagedPool::new(3, 16);
        let a = pool.admit();
        pool.grow(a, 32).unwrap(); // pages 0,1
        let shared = [Some(PageId(0))];
        let err = pool.adopt(&shared, 48).unwrap_err(); // needs 2 fresh, 1 free
        assert_eq!(
            err,
            PagedOom {
                requested: 2,
                free: 1
            }
        );
        assert_eq!(pool.refcount(PageId(0)), 1);
        let b = pool.adopt(&shared, 32).unwrap();
        assert_eq!(b.0, a.0 + 1, "failed adopt consumed a SeqId");
    }

    #[test]
    fn cow_swaps_one_slot_for_a_private_page() {
        let mut pool = PagedPool::new(4, 16);
        let a = pool.admit();
        pool.grow(a, 32).unwrap(); // pages 0,1
        let table: Vec<Option<PageId>> = pool.table(a).unwrap().iter().map(|&p| Some(p)).collect();
        let b = pool.adopt(&table, 32).unwrap();
        let (old, new) = pool.cow(b, 1).unwrap();
        assert_eq!((old, new), (PageId(1), PageId(2)));
        assert_eq!(pool.table(b).unwrap(), &[PageId(0), PageId(2)]);
        assert_eq!(pool.table(a).unwrap(), &[PageId(0), PageId(1)]);
        assert_eq!(pool.refcount(PageId(1)), 1);
        // With every page now singly held, another cow is a caller bug.
        pool.grow(a, 48).unwrap(); // page 3: pool full
        assert_eq!(pool.cow(b, 0).unwrap_err().requested, 1);
    }

    #[test]
    fn generations_count_frees() {
        let mut pool = PagedPool::new(2, 16);
        assert_eq!(pool.generation(PageId(0)), 0);
        let a = pool.admit();
        pool.grow(a, 16).unwrap();
        pool.release(a);
        assert_eq!(pool.generation(PageId(0)), 1);
        let b = pool.admit();
        pool.grow(b, 16).unwrap();
        assert_eq!(pool.generation(PageId(0)), 1, "allocation does not bump");
        pool.release(b);
        assert_eq!(pool.generation(PageId(0)), 2);
    }

    #[test]
    fn pinned_pages_survive_release_and_free_on_unpin() {
        let mut pool = PagedPool::new(4, 16);
        let a = pool.admit();
        pool.grow(a, 32).unwrap(); // pages 0,1
        pool.pin_page(PageId(0));
        assert_eq!(pool.refcount(PageId(0)), 2);
        // Pins are invisible to sharing accounting.
        assert_eq!(pool.seq_refcount(PageId(0)), 1);
        assert_eq!(pool.shared_pages(), 0);
        assert_eq!(pool.reclaimable_pages(), 0);
        // Releasing the only sequence keeps the pinned page allocated.
        assert_eq!(pool.release(a), vec![PageId(1)]);
        assert_eq!(pool.refcount(PageId(0)), 1);
        assert_eq!(pool.seq_refcount(PageId(0)), 0);
        assert_eq!(pool.reclaimable_pages(), 1);
        assert_eq!(pool.free_pages(), 3);
        let gen = pool.generation(PageId(0));
        // Unpinning the orphaned page frees it and bumps its generation.
        assert!(pool.unpin_page(PageId(0)));
        assert_eq!(pool.free_pages(), 4);
        assert_eq!(pool.generation(PageId(0)), gen + 1);
    }

    #[test]
    fn unpin_with_live_sharers_keeps_the_page() {
        let mut pool = PagedPool::new(4, 16);
        let a = pool.admit();
        pool.grow(a, 16).unwrap(); // page 0
        pool.pin_page(PageId(0));
        assert!(!pool.unpin_page(PageId(0)), "sequence still maps the page");
        assert_eq!(pool.refcount(PageId(0)), 1);
        assert_eq!(pool.free_pages(), 3);
    }

    #[test]
    fn budget_sizing() {
        // 1 MiB budget, 64-token pages, 160 B/token → 102 pages.
        let pool = PagedPool::with_budget(1048576.0, 64, 160.0);
        assert_eq!(pool.total_pages(), 102);
        assert_eq!(pool.page_tokens(), 64);
    }

    #[test]
    fn utilization_tracks_allocation() {
        let mut pool = PagedPool::new(10, 16);
        assert_eq!(pool.utilization(), 0.0);
        let s = pool.admit();
        pool.grow(s, 80).unwrap();
        assert!((pool.utilization() - 0.5).abs() < 1e-9);
    }
}
