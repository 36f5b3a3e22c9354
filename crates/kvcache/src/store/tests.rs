//! Unit tests of [`PagedKvStore`], grouped by the seam they exercise.

use super::*;
use crate::block::PackedPayload;
use crate::codec::ReferenceCodec;
use crate::layout::PackLayout;
use crate::paged::PageId;
use crate::placement::{Partitioning, Placement};
use crate::radix::SourceDigest;
use crate::scheme::QuantScheme;
use crate::sharded::ShardedKvStore;
use crate::window::PANEL_TOKENS;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Per-head K/V prompt matrices for the prefix-cache tests.
fn prompt(
    heads: usize,
    dim: usize,
    len: usize,
    salt: usize,
) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
    let k = (0..heads)
        .map(|h| (0..len).map(|t| row(dim, t, salt + h)).collect())
        .collect();
    let v = (0..heads)
        .map(|h| (0..len).map(|t| row(dim, t + 500, salt + h)).collect())
        .collect();
    (k, v)
}

/// [`prompt`] of salt `a` whose rows from token `split` on come from
/// salt `b` instead.
fn spliced_prompt(
    heads: usize,
    len: usize,
    split: usize,
    (a, b): (usize, usize),
) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
    let (mut k, mut v) = prompt(heads, 16, len, a);
    let (kb, vb) = prompt(heads, 16, len, b);
    for h in 0..heads {
        k[h].as_mut_slice()[split * 16..].copy_from_slice(&kb[h].as_slice()[split * 16..]);
        v[h].as_mut_slice()[split * 16..].copy_from_slice(&vb[h].as_slice()[split * 16..]);
    }
    (k, v)
}

/// The contiguous cache that prefilled the same prompt.
fn contiguous_twin(store: &PagedKvStore, k: &[TokenMatrix], v: &[TokenMatrix]) -> QuantizedKvCache {
    let mut cache = QuantizedKvCache::new(*store.config(), store.heads());
    for h in 0..store.heads() {
        cache.prefill(h, &k[h], &v[h], &ReferenceCodec).unwrap();
    }
    cache
}

/// [`ReferenceCodec`] that counts the blocks it encodes, from any thread
/// of the launch.
struct CountingCodec<'a>(&'a AtomicUsize);

impl BlockCodec for CountingCodec<'_> {
    fn encode(
        &self,
        k: &TokenMatrix,
        v: &TokenMatrix,
        scheme: crate::scheme::QuantScheme,
    ) -> PackedBlock {
        self.0.fetch_add(1, Ordering::Relaxed);
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

// ── Page tables, admission, append / prefill and seal (`mod.rs`) ──────────────

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
fn a_prompt_of_the_wrong_width_is_a_typed_error_from_every_writer() {
    // Head 1's V is one 8-wide matrix: one width check per matrix, not one
    // per row, and nothing stored anywhere.
    let (k, mut v) = prompt(2, 16, 200, 4);
    v[1] = TokenMatrix::from_fn(200, 8, |t, c| (t * 8 + c) as f32);
    let narrow = CacheError::DimMismatch {
        expected: 16,
        got: 8,
    };

    let mut cache = QuantizedKvCache::new(cfg(16), 2);
    assert_eq!(
        cache.prefill(1, &k[1], &v[1], &ReferenceCodec),
        Err(narrow.clone())
    );
    assert_eq!(cache.len(1), 0, "nothing stored on error");

    let mut store = PagedKvStore::new(cfg(16), 2, 64, 32);
    store.set_prefix_cache(true);
    let free = store.free_pages();
    let err = StoreError::Cache(narrow);
    assert_eq!(
        store.admit_prefill_cached(&k, &v, 200, &ReferenceCodec),
        Err(err.clone())
    );
    let seq = store.admit(200).unwrap();
    assert_eq!(
        store.prefill(seq, &k, &v, &ReferenceCodec),
        Err(err.clone())
    );
    assert_eq!(store.seq_len(seq), Some(0), "nothing stored on error");
    store.evict(seq);
    assert_eq!(store.free_pages(), free);
    assert_eq!(store.prefix_cache_stats(), PrefixCacheStats::default());

    let placement = Placement::new(2, Partitioning::HeadModulo, 2);
    let mut sharded = ShardedKvStore::new(cfg(16), placement, 64, 32);
    let free = sharded.free_pages();
    assert_eq!(
        sharded.admit_prefill_cached(&k, &v, 200, &ReferenceCodec),
        Err(err)
    );
    assert_eq!(sharded.free_pages(), free);
}

#[test]
fn a_zero_token_prompt_of_any_width_is_accepted() {
    for width in [0, 8, 16, 24] {
        let empty = vec![TokenMatrix::new(width); 2];
        let mut cache = QuantizedKvCache::new(cfg(16), 2);
        cache
            .prefill(0, &empty[0], &empty[1], &ReferenceCodec)
            .unwrap();
        assert_eq!(cache.len(0), 0, "width {width}");

        let mut store = PagedKvStore::new(cfg(16), 2, 8, 32);
        store.set_prefix_cache(true);
        let seq = store.admit(32).unwrap();
        store.prefill(seq, &empty, &empty, &ReferenceCodec).unwrap();
        let (cached, _) = store
            .admit_prefill_cached(&empty, &empty, 32, &ReferenceCodec)
            .unwrap();
        assert_eq!(store.seq_len(seq), Some(0), "width {width}");
        assert_eq!(store.seq_len(cached), Some(0), "width {width}");
        // The store's own width still governs what comes next.
        append_n(&mut store, seq, 1, 0, 0);
        assert_eq!(store.seq_len(seq), Some(1), "width {width}");

        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
        let mut sharded = ShardedKvStore::new(cfg(16), placement, 8, 32);
        let (seq, _) = sharded
            .admit_prefill_cached(&empty, &empty, 32, &ReferenceCodec)
            .unwrap();
        assert_eq!(sharded.seq_len(seq), Some(0), "width {width}");
    }
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
fn prefill_into_a_non_empty_sequence_is_a_typed_error() {
    let mut store = PagedKvStore::new(cfg(16), 1, 8, 32);
    let seq = store.admit(64).unwrap();
    let k = row(16, 0, 0);
    store
        .append_step(
            seq,
            std::slice::from_ref(&k),
            std::slice::from_ref(&k),
            &ReferenceCodec,
        )
        .unwrap();
    let free = store.free_pages();
    let prompt = vec![TokenMatrix::from(vec![row(16, 1, 0); 40])];
    assert_eq!(
        store.prefill(seq, &prompt, &prompt, &ReferenceCodec),
        Err(StoreError::NonEmpty(seq))
    );
    assert_eq!(store.seq_len(seq), Some(1), "nothing stored on error");
    assert_eq!(store.free_pages(), free);
}

#[test]
fn a_short_head_is_a_typed_error_that_stores_nothing() {
    let mut store = PagedKvStore::new(cfg(16), 3, 64, 32);
    store.set_prefix_cache(true);
    store.set_launch_width(2);
    let (k, mut v) = prompt(3, 16, 200, 3);
    v[2] = v[2].slice_rows(0..199);
    let short = StoreError::PromptLength {
        head: 2,
        got: 199,
        expected: 200,
    };
    let free = store.free_pages();
    assert_eq!(
        store.admit_prefill_cached(&k, &v, 200, &ReferenceCodec),
        Err(short.clone())
    );
    let seq = store.admit(200).unwrap();
    assert_eq!(store.prefill(seq, &k, &v, &ReferenceCodec), Err(short));
    assert_eq!(store.seq_len(seq), Some(0), "nothing stored on error");
    store.evict(seq);
    assert_eq!(store.free_pages(), free);
    assert_eq!(store.prefix_cache_stats(), PrefixCacheStats::default());
}

// ── Fork / copy-on-write and frame reclamation (`fork.rs`) ────────────────────

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

// ── Swap blobs and their checksum (`swap.rs`) ─────────────────────────────────

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
        assert!(store.swap_out(seq).is_err(), "already swapped out");

        let seq2 = store.swap_in(&blob).unwrap();
        assert_ne!(seq2, seq, "ids are never reused");
        assert_eq!(free_before - store.free_pages(), held, "same reservation");
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

/// Asserts that `blob` fails its integrity check, and that swap-in refuses
/// it without touching the pool.
fn assert_corrupt(store: &mut PagedKvStore, blob: &SwappedSeq, what: &str) {
    let free = store.free_pages();
    assert!(
        matches!(blob.verify(), Err(StoreError::CorruptBlob { .. })),
        "{what} passed verify"
    );
    assert!(store.swap_in(blob).is_err(), "{what}: swap-in took it");
    assert_eq!(store.free_pages(), free, "{what}: rejected swap-in leaked");
}

#[test]
fn checksum_folds_every_container_length() {
    // 2 heads, 2 packed blocks each, 3 residual rows per window.
    let mut store = PagedKvStore::new(cfg(16), 2, 64, 32);
    let seq = store.admit(300).unwrap();
    append_n(&mut store, seq, 2 * 128 + 3, 0, 0);
    let clean = store.swap_out(seq).unwrap();
    clean.verify().unwrap();

    // Blocks [[A, B], [C, D]] regrouped as [[A], [B, C, D]], then as one
    // head [[A, B, C, D]]: the same blocks in the same order.
    let mut blob = clean.clone();
    let blocks = blob.payload_mut().0;
    let b = blocks[0].pop().unwrap();
    blocks[1].insert(0, b);
    assert_corrupt(&mut store, &blob, "a block moved to the next head");
    let mut blob = clean.clone();
    let blocks = blob.payload_mut().0;
    let last = blocks.pop().unwrap();
    blocks[0].extend(last);
    assert_corrupt(&mut store, &blob, "two heads' blocks as one head");

    // A residual row shifted from head 0's window to the front of head 1's,
    // on either side.
    for side in 0..2 {
        let mut blob = clean.clone();
        let moved = residual_window(&mut blob, side, 0).row(2).to_vec();
        let head0 = residual_window(&mut blob, side, 0).slice_rows(0..2);
        *residual_window(&mut blob, side, 0) = head0;
        let mut head1 = TokenMatrix::new(16);
        head1.push_row(&moved);
        head1.extend_rows(residual_window(&mut blob, side, 1));
        *residual_window(&mut blob, side, 1) = head1;
        assert_corrupt(
            &mut store,
            &blob,
            &format!("a row moved between heads, side {side}"),
        );
    }
    store.swap_in(&clean).unwrap();

    // A fork's child shares its first 4 pages. Its first four reshare
    // records, dropped, reappear as one extra V row of 16 values holding
    // their bits: the same stream of 64-bit words without the counts.
    let parent = store.admit(160).unwrap();
    append_n(&mut store, parent, 128, 5, 0);
    let child = store.fork(parent, 128, 160).unwrap();
    let clean = store.swap_out(child).unwrap();
    let mut blob = clean.clone();
    let (_, _, v, reshare) = blob.payload_mut();
    let mut bits = Vec::new();
    for record in reshare.drain(..4) {
        let (page, generation) = record.expect("the first 4 pages are shared");
        bits.extend([page.0, 0, generation as u32, (generation >> 32) as u32]);
    }
    let extra: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
    v[1].push_row(&extra);
    assert_corrupt(&mut store, &blob, "reshare records moved into a window");
    store.swap_in(&clean).unwrap();
}

// ── Radix adoption and LRU eviction (`prefix.rs`) ─────────────────────────────

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

#[test]
fn lookup_precedes_quantization_on_a_full_hit() {
    let (heads, runs) = (2, 3);
    let len = runs * 128 + 9;
    let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
    store.set_prefix_cache(true);
    let (k, v) = prompt(heads, 16, len, 11);
    let encoded = AtomicUsize::new(0);
    let codec = CountingCodec(&encoded);
    store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    assert_eq!(
        encoded.load(Ordering::Relaxed),
        heads * runs,
        "cold: every block packed"
    );
    encoded.store(0, Ordering::Relaxed);
    let (seq, admit) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    assert_eq!(admit.pages_reused, runs * 4);
    // Only the codec-agreement check (block 0 of each head) encodes.
    assert_eq!(encoded.load(Ordering::Relaxed), heads);
    assert!(store.matches_cache(seq, &contiguous_twin(&store, &k, &v), 0));
    // A suffix miss packs exactly the missed suffix.
    let (k2, v2) = spliced_prompt(heads, len, 2 * 128 + 1, (11, 12));
    encoded.store(0, Ordering::Relaxed);
    store.admit_prefill_cached(&k2, &v2, len, &codec).unwrap();
    assert_eq!(encoded.load(Ordering::Relaxed), heads + heads);
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
    assert_eq!(store.radix.node_count(), 2);
    let encoded = AtomicUsize::new(0);
    let codec = CountingCodec(&encoded);
    // The source lookup misses, the packed chain behind it hits — and
    // records the digest on the existing nodes instead of adding any.
    let (_, first) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    assert_eq!(first.pages_reused, 2 * 4);
    assert_eq!(
        encoded.load(Ordering::Relaxed),
        heads * 2,
        "packed path quantizes first"
    );
    assert_eq!(store.radix.node_count(), 2, "adopted, not duplicated");
    encoded.store(0, Ordering::Relaxed);
    let (_, second) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    assert_eq!(second.pages_reused, 2 * 4);
    assert_eq!(
        encoded.load(Ordering::Relaxed),
        heads,
        "now found before quantizing"
    );
    assert_eq!(store.radix.node_count(), 2);
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
    assert_eq!(store.radix.node_count(), 1);
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

/// Everything an admission history leaves in a store — all of which must
/// be independent of the launch width.
#[derive(Debug, PartialEq)]
struct Snapshot {
    frames: Vec<Vec<Vec<PackedBlock>>>,
    tables: Vec<Vec<PageId>>,
    residuals: Vec<(TokenMatrix, TokenMatrix)>,
    radix_nodes: usize,
    radix_pages: Vec<PageId>,
    stats: PrefixCacheStats,
    admits: Vec<PrefixAdmit>,
}

/// A cold admission, a full hit, a prompt that diverges in run 1, its swap
/// round trip and a cold `prefill` of it, on 3 heads at launch width
/// `width`. Nr = 128 on 96-token pages makes a run 4 pages = 3 blocks, so
/// the prompt is 2 full runs, a 2-block partial run and 50 residual rows.
fn admission_history(width: usize) -> Snapshot {
    let (heads, len) = (3, 8 * 128 + 50);
    let mut store = PagedKvStore::new(cfg(16), heads, 256, 96);
    store.set_prefix_cache(true);
    store.set_launch_width(width);
    let (k, v) = prompt(heads, 16, len, 31);
    let (k2, v2) = spliced_prompt(heads, len, 3 * 128 + 7, (31, 32));
    let mut admits = Vec::new();
    for (k, v) in [(&k, &v), (&k, &v), (&k2, &v2)] {
        admits.push(
            store
                .admit_prefill_cached(k, v, len, &ReferenceCodec)
                .unwrap()
                .1,
        );
    }
    let last = *store.seqs.keys().last().unwrap();
    let blob = store.swap_out(last).unwrap();
    store.swap_in(&blob).unwrap();
    let cold = store.admit(len).unwrap();
    store.prefill(cold, &k2, &v2, &ReferenceCodec).unwrap();
    let seqs: Vec<SeqId> = store.seqs.keys().copied().collect();
    Snapshot {
        frames: store.frames.clone(),
        tables: (seqs.iter())
            .map(|&s| store.pool.table(s).unwrap().to_vec())
            .collect(),
        residuals: (seqs.iter())
            .flat_map(|&s| (0..heads).map(move |h| (s, h)))
            .map(|(s, h)| {
                (
                    store.residual(s, h).0.clone(),
                    store.residual(s, h).1.clone(),
                )
            })
            .collect(),
        radix_nodes: store.radix.node_count(),
        radix_pages: store.radix.all_pages(),
        stats: store.prefix_cache_stats(),
        admits,
    }
}

#[test]
fn admission_is_identical_at_every_launch_width() {
    let narrow = admission_history(1);
    // The history exercised both lookups: a full hit and a partial one.
    let pages: Vec<usize> = narrow.admits.iter().map(|a| a.pages_reused).collect();
    assert_eq!(pages, [0, 2 * 4, 4]);
    assert!(narrow.radix_nodes >= 3);
    for width in [2, 3, 8] {
        assert_eq!(admission_history(width), narrow, "width {width}");
    }
}

#[test]
fn a_prompt_admitted_at_width_1_is_adopted_in_full_at_width_3() {
    let (heads, len) = (3, 8 * 128 + 50);
    let mut store = PagedKvStore::new(cfg(16), heads, 256, 96);
    store.set_prefix_cache(true);
    let (k, v) = prompt(heads, 16, len, 31);
    let encoded = AtomicUsize::new(0);
    let codec = CountingCodec(&encoded);
    store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    store.set_launch_width(3);
    encoded.store(0, Ordering::Relaxed);
    let (seq, admit) = store.admit_prefill_cached(&k, &v, len, &codec).unwrap();
    assert_eq!(admit.pages_reused, 2 * 4, "both full runs");
    // Found by source digest: only the codec check (block 0 of each head)
    // and the 2-block partial run encode.
    assert_eq!(encoded.load(Ordering::Relaxed), heads + heads * 2);
    assert!(store.matches_cache(seq, &contiguous_twin(&store, &k, &v), 0));
}

/// How many of `digests` lead, one level at a time from the root, through
/// the source digests the index recorded.
fn recorded_sources(store: &PagedKvStore, digests: &[SourceDigest]) -> usize {
    let mut parent = None;
    for (r, &digest) in digests.iter().enumerate() {
        match store.radix.source_child(parent, digest) {
            Some(id) => parent = Some(id),
            None => return r,
        }
    }
    digests.len()
}

#[test]
fn cold_admissions_record_the_up_front_source_digests() {
    // Nr = 128 on 96-token pages: a run is 3 blocks, so the prompt is 2
    // full runs, a 2-block partial run and 50 residual rows.
    let (heads, len, runs) = (3, 8 * 128 + 50, 2);
    let (k, v) = prompt(heads, 16, len, 41);
    let (k2, v2) = spliced_prompt(heads, len, 3 * 128 + 7, (41, 42));
    for width in [1, 2, 3] {
        let fresh = || {
            let mut store = PagedKvStore::new(cfg(16), heads, 256, 96);
            store.set_prefix_cache(true);
            store.set_launch_width(width);
            store
        };
        let mut store = fresh();
        let want = store.source_chain(&k, &v, runs);
        store
            .admit_prefill_cached(&k, &v, len, &ReferenceCodec)
            .unwrap();
        assert_eq!(
            recorded_sources(&store, &want),
            runs,
            "cold admission, width {width}"
        );
        assert_eq!(store.radix.node_count(), runs);

        // Run 0 hits, run 1 misses: the hit path's digests.
        let want2 = store.source_chain(&k2, &v2, runs);
        assert_eq!(want2[0], want[0]);
        assert_ne!(want2[1], want[1]);
        let (_, admit) = store
            .admit_prefill_cached(&k2, &v2, len, &ReferenceCodec)
            .unwrap();
        assert_eq!(admit.pages_reused, 4, "width {width}");
        assert_eq!(
            recorded_sources(&store, &want2),
            runs,
            "run 1 missed, width {width}"
        );
        assert_eq!(recorded_sources(&store, &want), runs);

        let mut store = fresh();
        let seq = store.admit(len).unwrap();
        store.prefill(seq, &k, &v, &ReferenceCodec).unwrap();
        assert_eq!(
            recorded_sources(&store, &want),
            runs,
            "prefill, width {width}"
        );
        assert_eq!(store.radix.node_count(), runs);
    }
}

#[test]
fn every_heads_leaf_reaches_both_chains() {
    // 3 heads and 3 one-block runs (32-token pages). A prompt that differs
    // from a cached one only in head 2's V rows of run `r` adopts exactly
    // `r` runs — whether the cached runs carry source digests (admitted)
    // or only packed keys (swapped in).
    let (heads, runs) = (3, 3);
    let len = runs * 128;
    let (k, v) = prompt(heads, 16, len, 50);
    let (_, other) = prompt(heads, 16, len, 51);
    for r in [0, 1, runs - 1] {
        let mut v2 = v.clone();
        let run = r * 128 * 16..(r + 1) * 128 * 16;
        v2[2].as_mut_slice()[run.clone()].copy_from_slice(&other[2].as_slice()[run]);
        for swapped_in in [false, true] {
            let mut store = PagedKvStore::new(cfg(16), heads, 256, 32);
            store.set_launch_width(2);
            if swapped_in {
                let seq = store.admit(len).unwrap();
                store.prefill(seq, &k, &v, &ReferenceCodec).unwrap();
                let blob = store.swap_out(seq).unwrap();
                store.set_prefix_cache(true);
                store.swap_in(&blob).unwrap();
            } else {
                store.set_prefix_cache(true);
                store
                    .admit_prefill_cached(&k, &v, len, &ReferenceCodec)
                    .unwrap();
            }
            let (seq, admit) = store
                .admit_prefill_cached(&k, &v2, len, &ReferenceCodec)
                .unwrap();
            let at = format!("r = {r}, swapped in: {swapped_in}");
            assert_eq!(admit.pages_reused, r * 4, "{at}");
            // Runs `r..` got keys of their own: none answered to a key
            // the cached prompt's runs hold.
            assert_eq!(store.radix.node_count(), 2 * runs - r, "{at}");
            assert!(
                store.matches_cache(seq, &contiguous_twin(&store, &k, &v2), 0),
                "{at}"
            );
        }
    }
}

// ── Sharing statistics (`stats.rs`) ───────────────────────────────────────────

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

// ── The residual windows' panels and storage (`crate::window`) ──────────────

/// Every head of `seq` holds the panel of every whole 16-token group, each
/// its group's transposed rows.
fn assert_slots(store: &PagedKvStore, seq: SeqId, what: &str) {
    for head in 0..store.heads() {
        let (window, _) = store.residual_window(seq, head);
        assert_eq!(
            window.sealed_groups(),
            window.tokens() / PANEL_TOKENS,
            "{what}: head {head}"
        );
        assert!(window.panels_match_rows(), "{what}: head {head}");
    }
}

#[test]
fn panel_slots_follow_the_rows_through_every_store_operation() {
    // dim 24 (a short last k-tile), Nr = 128, 32-token pages, 2 heads.
    let mut store = PagedKvStore::new(cfg(24), 2, 128, 32);
    store.set_prefix_cache(true);
    let seq = store.admit(0).unwrap();
    // Appends up to and past a flush: a sealing append writes its group's
    // panel, the flush drops them all.
    for t in 0..128 + 50 {
        append_n(&mut store, seq, 1, 0, t);
        assert_slots(&store, seq, &format!("append {t}"));
    }
    assert_eq!(store.residual_len(seq), 50);

    // A mid-window fork (2 whole groups + 5 rows of the window): the child
    // starts with both groups' panels, the parent keeps its own.
    let child = store.fork(seq, 128 + 37, 512).unwrap();
    assert_eq!(store.residual_len(child), 37);
    assert_slots(&store, child, "fork");
    assert_slots(&store, seq, "fork parent");
    append_n(&mut store, child, 20, 9, 128 + 37);
    assert_slots(&store, child, "child appends");

    // A swap round trip restores the rows and writes every panel again.
    let (k_before, _) = store.residual(seq, 1);
    let k_before = k_before.clone();
    let blob = store.swap_out(seq).unwrap();
    let back = store.swap_in(&blob).unwrap();
    assert_slots(&store, back, "swap in");
    assert_eq!(store.residual(back, 1).0, &k_before);

    // Prefix adoption installs the residual rows past the adopted run the
    // way a cold prefill does, panels included.
    let (k, v) = prompt(2, 24, 128 + 40, 3);
    let (cold, _) = store
        .admit_prefill_cached(&k, &v, 256, &ReferenceCodec)
        .unwrap();
    assert_slots(&store, cold, "cold prefill");
    let (hit, admit) = store
        .admit_prefill_cached(&k, &v, 256, &ReferenceCodec)
        .unwrap();
    assert!(admit.pages_reused > 0, "the second prompt adopts the run");
    assert_slots(&store, hit, "adoption");
    assert_eq!(store.residual(hit, 0), store.residual(cold, 0));
}

/// Per head of `seq`, its K rows', panels' and V rows' buffers as
/// `(data pointer, capacity)`.
pub(super) fn window_storage(store: &PagedKvStore, seq: SeqId) -> Vec<[(*const f32, usize); 3]> {
    let kv = &store.seqs[&seq];
    (kv.residual_k.iter().zip(&kv.residual_v))
        .map(|(k, v)| {
            let [rows, panels] = k.storage();
            [rows, panels, v.storage()]
        })
        .collect()
}

/// The capacities of [`window_storage`].
fn capacities(storage: &[[(*const f32, usize); 3]]) -> Vec<[usize; 3]> {
    storage.iter().map(|b| b.map(|(_, cap)| cap)).collect()
}

#[test]
fn window_storage_never_moves() {
    // For Nr 32 and 128 and dims 24 and 64: a window's K rows, panels and
    // V rows keep their buffers from admission through every append, every
    // seal and two flushes, and a fork child, a swap-in and a radix
    // adoption start with the same capacities.
    for warps_n in [1, 4] {
        for dim in [24, 64] {
            let layout = PackLayout {
                warps_n,
                ..PackLayout::sm80_default()
            };
            let mut store =
                PagedKvStore::new(CacheConfig::new(dim, QuantScheme::kc4(), layout), 2, 64, 32);
            store.set_prefix_cache(true);
            let nr = store.residual_block();
            let what = format!("Nr {nr} dim {dim}");
            let seq = store.admit(0).unwrap();
            let storage = window_storage(&store, seq);
            for [rows, panels, v] in capacities(&storage) {
                assert!(rows >= nr * dim && v >= nr * dim, "{what}");
                assert!(panels >= (nr - 1) / PANEL_TOKENS * dim * PANEL_TOKENS);
            }
            for t in 0..2 * nr + nr / 2 {
                append_n(&mut store, seq, 1, 0, t);
                assert_eq!(window_storage(&store, seq), storage, "{what}: append {t}");
            }
            let child = store.fork(seq, 2 * nr + 5, 4 * nr).unwrap();
            let blob = store.swap_out(seq).unwrap();
            let back = store.swap_in(&blob).unwrap();
            let (k, v) = prompt(2, dim, nr + nr / 2, 7);
            let (cold, _) = store
                .admit_prefill_cached(&k, &v, 2 * nr, &ReferenceCodec)
                .unwrap();
            let (hit, admit) = store
                .admit_prefill_cached(&k, &v, 2 * nr, &ReferenceCodec)
                .unwrap();
            assert!(admit.pages_reused > 0, "{what}: the second prompt adopts");
            for seq in [child, back, cold, hit] {
                let got = capacities(&window_storage(&store, seq));
                assert_eq!(got, capacities(&storage), "{what}: {seq:?}");
            }
        }
    }
}

#[test]
fn a_swap_blob_holds_window_rows_at_their_length() {
    // A flushed block and a window about half full: the blob keeps the
    // rows at their length, not the window's storage.
    let mut store = PagedKvStore::new(cfg(24), 2, 16, 32);
    let seq = store.admit(0).unwrap();
    append_n(&mut store, seq, 128 + 60, 0, 0);
    let mut blob = store.swap_out(seq).unwrap();
    for side in 0..2 {
        for head in 0..2 {
            let rows = residual_window(&mut blob, side, head);
            assert_eq!(rows.tokens(), 60);
            assert_eq!(rows.storage().1, 60 * 24, "side {side} head {head}");
        }
    }
}

// ── The fold contract: packed leaves, swap checksums, source leaves ──────────

/// One block of every payload kind: integer words at two widths, both FP4
/// scale kinds.
const FOLD_SCHEMES: [QuantScheme; 4] = [
    QuantScheme::kc4(),
    QuantScheme::kt2(),
    QuantScheme::mxfp4(),
    QuantScheme::nvfp4(),
];

/// `tokens × dim` rows encoded with `scheme`: a small block whose payload
/// slices end in partial 64-bit words.
fn small_block(scheme: QuantScheme, tokens: usize, dim: usize, salt: usize) -> PackedBlock {
    let k = TokenMatrix::from_fn(tokens, dim, |t, c| row(dim, t, salt)[c]);
    let v = TokenMatrix::from_fn(tokens, dim, |t, c| row(dim, t + 500, salt)[c]);
    ReferenceCodec.encode(&k, &v, scheme)
}

/// Payload bits of `block`: its code words, params, FP4 codes and scales.
fn payload_bits(block: &PackedBlock) -> usize {
    8 * block.byte_size()
}

/// Flips payload bit `bit` of `block`, counting K's slices then V's, each
/// tensor's words (or codes) before its params (or scales).
fn flip_payload_bit(block: &mut PackedBlock, mut bit: usize) {
    for tensor in [&mut block.k, &mut block.v] {
        match &mut tensor.payload {
            PackedPayload::Int { words, params } => {
                if bit < 16 * words.len() {
                    words[bit / 16] ^= 1 << (bit % 16);
                    return;
                }
                bit -= 16 * words.len();
                if bit < 32 * params.len() {
                    let p = &mut params[bit / 32];
                    *p = bd_lowbit::Half2::from_bits(p.to_bits() ^ 1 << (bit % 32));
                    return;
                }
                bit -= 32 * params.len();
            }
            PackedPayload::Fp4 { codes, scales } => {
                for bytes in [codes, scales] {
                    if bit < 8 * bytes.len() {
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        return;
                    }
                    bit -= 8 * bytes.len();
                }
            }
        }
    }
    panic!("payload bit out of range");
}

/// Every copy of `s` with two adjacent 64-bit words — `per_word` units
/// each — swapped, leaving out swaps of equal words.
fn adjacent_swaps<T: Clone + PartialEq>(s: &[T], per_word: usize) -> Vec<Vec<T>> {
    (0..(s.len() / per_word).saturating_sub(1))
        .filter_map(|j| {
            let mut t = s.to_vec();
            let (a, b) = t[j * per_word..(j + 2) * per_word].split_at_mut(per_word);
            a.swap_with_slice(b);
            (t != s).then_some(t)
        })
        .collect()
}

/// Every copy of `block` with two adjacent 64-bit words of one payload
/// slice swapped: 4 code words, 2 params or 8 FP4 bytes to a word.
fn block_word_swaps(block: &PackedBlock) -> Vec<PackedBlock> {
    let mut out = Vec::new();
    for side in 0..2 {
        let tensor = if side == 0 { &block.k } else { &block.v };
        let payloads: Vec<PackedPayload> = match &tensor.payload {
            PackedPayload::Int { words, params } => (adjacent_swaps(words, 4).into_iter())
                .map(|words| PackedPayload::Int {
                    words,
                    params: params.clone(),
                })
                .chain(
                    adjacent_swaps(params, 2)
                        .into_iter()
                        .map(|params| PackedPayload::Int {
                            words: words.clone(),
                            params,
                        }),
                )
                .collect(),
            PackedPayload::Fp4 { codes, scales } => (adjacent_swaps(codes, 8).into_iter())
                .map(|codes| PackedPayload::Fp4 {
                    codes,
                    scales: scales.clone(),
                })
                .chain(
                    adjacent_swaps(scales, 8)
                        .into_iter()
                        .map(|scales| PackedPayload::Fp4 {
                            codes: codes.clone(),
                            scales,
                        }),
                )
                .collect(),
        };
        for payload in payloads {
            let mut swapped = block.clone();
            if side == 0 {
                swapped.k.payload = payload;
            } else {
                swapped.v.payload = payload;
            }
            out.push(swapped);
        }
    }
    out
}

#[test]
fn packed_leaf_changes_with_every_payload_bit_and_word_swap() {
    for dim in [16, 20, 24] {
        for scheme in FOLD_SCHEMES {
            let mut swaps_seen = 0;
            for tokens in [3, 5] {
                let at = format!("{} dim {dim}, {tokens} tokens", scheme.label());
                let mut run: Vec<PackedBlock> = (1..=2)
                    .map(|salt| small_block(scheme, tokens, dim, salt))
                    .collect();
                let clean = packed_leaf(&run);
                for b in 0..run.len() {
                    for bit in 0..payload_bits(&run[b]) {
                        flip_payload_bit(&mut run[b], bit);
                        assert_ne!(packed_leaf(&run), clean, "{at}: block {b} bit {bit}");
                        flip_payload_bit(&mut run[b], bit);
                    }
                    let original = run[b].clone();
                    let swaps = block_word_swaps(&original);
                    swaps_seen += swaps.len();
                    for (i, swapped) in swaps.into_iter().enumerate() {
                        run[b] = swapped;
                        assert_ne!(packed_leaf(&run), clean, "{at}: block {b} swap {i}");
                    }
                    run[b] = original;
                }
                assert_eq!(packed_leaf(&run), clean, "{at}: restored");
            }
            assert!(
                swaps_seen > 0,
                "{} dim {dim}: no word to swap",
                scheme.label()
            );
        }
    }
}

/// A 2-head swap blob of `dim`-wide rows that a fork left sharing pages:
/// one packed block per head, 3 residual rows per window, and reshare
/// records for the shared pages.
fn forked_blob(dim: usize) -> SwappedSeq {
    let mut store = PagedKvStore::new(cfg(dim), 2, 64, 32);
    let parent = store.admit(256).unwrap();
    append_n(&mut store, parent, 128 + 5, 0, 0);
    let child = store.fork(parent, 128 + 3, 256).unwrap();
    store.swap_out(child).unwrap()
}

/// Asserts that `tamper`, an involution, changes `blob`'s checksum, then
/// undoes it.
fn assert_detected(
    blob: &mut SwappedSeq,
    clean: u64,
    what: &str,
    tamper: impl Fn(&mut SwappedSeq),
) {
    tamper(blob);
    assert_ne!(
        blob.computed_checksum(),
        clean,
        "{what} escaped the checksum"
    );
    tamper(blob);
}

/// The residual K (`side` 0) or V window of `head` in `blob`.
fn residual_window(blob: &mut SwappedSeq, side: usize, head: usize) -> &mut TokenMatrix {
    let (_, k, v, _) = blob.payload_mut();
    if side == 0 {
        &mut k[head]
    } else {
        &mut v[head]
    }
}

#[test]
fn swap_checksum_changes_with_every_payload_bit_and_word_swap() {
    for dim in [16, 20, 24] {
        let mut blob = forked_blob(dim);
        // Small blocks of every payload kind, so each tail shape is in it.
        *blob.payload_mut().0 = vec![
            vec![
                small_block(FOLD_SCHEMES[0], 3, dim, 1),
                small_block(FOLD_SCHEMES[2], 5, dim, 2),
            ],
            vec![
                small_block(FOLD_SCHEMES[1], 5, dim, 3),
                small_block(FOLD_SCHEMES[3], 3, dim, 4),
            ],
        ];
        let clean = blob.computed_checksum();
        for (head, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let bits = payload_bits(&blob.payload_mut().0[head][b]);
            for bit in 0..bits {
                let at = format!("dim {dim}: head {head} block {b} bit {bit}");
                assert_detected(&mut blob, clean, &at, |blob| {
                    flip_payload_bit(&mut blob.payload_mut().0[head][b], bit);
                });
            }
            let original = blob.payload_mut().0[head][b].clone();
            for (i, swapped) in block_word_swaps(&original).into_iter().enumerate() {
                blob.payload_mut().0[head][b] = swapped;
                let got = blob.computed_checksum();
                assert_ne!(got, clean, "dim {dim}: head {head} block {b} swap {i}");
            }
            blob.payload_mut().0[head][b] = original;
        }
        // Every bit of every residual K and V value, and adjacent words
        // (two values each) swapped.
        for side in 0..2 {
            for head in 0..2 {
                let values = residual_window(&mut blob, side, head).as_slice().to_vec();
                assert_eq!(values.len(), 3 * dim, "3 residual rows");
                for i in 0..values.len() {
                    for bit in 0..32 {
                        let at = format!("dim {dim}: side {side} head {head} value {i} bit {bit}");
                        assert_detected(&mut blob, clean, &at, |blob| {
                            let x = &mut residual_window(blob, side, head).as_mut_slice()[i];
                            *x = f32::from_bits(x.to_bits() ^ 1 << bit);
                        });
                    }
                }
                for (i, swapped) in adjacent_swaps(&values, 2).into_iter().enumerate() {
                    residual_window(&mut blob, side, head)
                        .as_mut_slice()
                        .copy_from_slice(&swapped);
                    let got = blob.computed_checksum();
                    assert_ne!(got, clean, "dim {dim}: side {side} head {head} swap {i}");
                }
                residual_window(&mut blob, side, head)
                    .as_mut_slice()
                    .copy_from_slice(&values);
            }
        }
        // Every bit of every reshare record, and each record dropped or
        // made up.
        let records = blob.payload_mut().3.clone();
        assert!(records.iter().any(Option::is_some), "the fork shares pages");
        for (i, record) in records.iter().enumerate() {
            if record.is_some() {
                for bit in 0..96 {
                    let at = format!("dim {dim}: reshare {i} bit {bit}");
                    assert_detected(&mut blob, clean, &at, |blob| {
                        if let Some((page, generation)) = &mut blob.payload_mut().3[i] {
                            if bit < 32 {
                                page.0 ^= 1 << bit;
                            } else {
                                *generation ^= 1 << (bit - 32);
                            }
                        }
                    });
                }
            }
            blob.payload_mut().3[i] = match record {
                Some(_) => None,
                None => Some((PageId(0), 0)),
            };
            assert_ne!(blob.computed_checksum(), clean, "dim {dim}: reshare {i}");
            blob.payload_mut().3[i] = *record;
        }
        assert_eq!(blob.computed_checksum(), clean, "dim {dim}: restored");
    }
}

#[test]
fn source_leaf_changes_with_every_bit_and_word_swap_of_every_value() {
    let tokens = 5;
    for dim in [16, 20, 24] {
        let (mut k, mut v) = prompt(1, dim, tokens, 7);
        let clean = super::prefix::source_leaf(&k[0], &v[0], 0..tokens);
        for side in 0..2 {
            for t in 0..tokens {
                for c in 0..dim {
                    for bit in 0..32 {
                        let rows = if side == 0 { &mut k[0] } else { &mut v[0] };
                        rows[t][c] = f32::from_bits(rows[t][c].to_bits() ^ 1 << bit);
                        let got = super::prefix::source_leaf(&k[0], &v[0], 0..tokens);
                        assert_ne!(got, clean, "dim {dim}: side {side} [{t}][{c}] bit {bit}");
                        let rows = if side == 0 { &mut k[0] } else { &mut v[0] };
                        rows[t][c] = f32::from_bits(rows[t][c].to_bits() ^ 1 << bit);
                    }
                }
                let row_before = if side == 0 { &k[0][t] } else { &v[0][t] }.to_vec();
                for (i, swapped) in adjacent_swaps(&row_before, 2).into_iter().enumerate() {
                    let rows = if side == 0 { &mut k[0] } else { &mut v[0] };
                    rows[t].copy_from_slice(&swapped);
                    let got = super::prefix::source_leaf(&k[0], &v[0], 0..tokens);
                    assert_ne!(got, clean, "dim {dim}: side {side} row {t} swap {i}");
                }
                let rows = if side == 0 { &mut k[0] } else { &mut v[0] };
                rows[t].copy_from_slice(&row_before);
            }
        }
        assert_eq!(super::prefix::source_leaf(&k[0], &v[0], 0..tokens), clean);
    }
}
