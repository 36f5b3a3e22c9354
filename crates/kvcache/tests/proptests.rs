//! Property-based tests for cache containers and codecs.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_kvcache::*;
use bd_lowbit::{BitWidth, MinMax};
use proptest::prelude::*;

fn matrix(tokens: usize, dim: usize, seed: u64) -> TokenMatrix {
    let mut s = seed | 1;
    (0..tokens)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 40) as i32 % 1000) as f32 / 125.0 - 4.0
                })
                .collect()
        })
        .collect()
}

fn arb_scheme() -> impl Strategy<Value = QuantScheme> {
    prop_oneof![
        Just(QuantScheme::kc4()),
        Just(QuantScheme::kt4()),
        Just(QuantScheme::kc2()),
        Just(QuantScheme::kt2()),
        Just(QuantScheme::mxfp4()),
        Just(QuantScheme::nvfp4()),
    ]
}

/// What [`quantize_int_codes`] must compute, spelled per element: each
/// group's [`MinMax`] over its values in order, then
/// [`QuantParams::quantize`] for every value of the group.
fn scalar_quantize(
    values: &TokenMatrix,
    width: BitWidth,
    granularity: KeyGranularity,
    group: usize,
) -> (Vec<u8>, Vec<u32>) {
    let (tokens, dim) = (values.tokens(), values.dim());
    let mut codes = vec![0u8; tokens * dim];
    let mut params = Vec::new();
    let mut quantize_group = |cells: Vec<(usize, usize)>| {
        let mut mm = MinMax::EMPTY;
        for &(t, c) in &cells {
            mm.update(values[t][c]);
        }
        let p = mm.params(width);
        params.push(p.to_half2().to_bits());
        for (t, c) in cells {
            codes[t * dim + c] = p.quantize(values[t][c], width);
        }
    };
    match granularity {
        KeyGranularity::ChannelWise => {
            for t0 in (0..tokens).step_by(group) {
                for c in 0..dim {
                    quantize_group((t0..(t0 + group).min(tokens)).map(|t| (t, c)).collect());
                }
            }
        }
        KeyGranularity::TensorWise => {
            for t in 0..tokens {
                for c0 in (0..dim).step_by(group) {
                    quantize_group((c0..(c0 + group).min(dim)).map(|c| (t, c)).collect());
                }
            }
        }
    }
    (codes, params)
}

/// Values where a min/max reduction's order shows in its bits: both
/// zeros (which compare equal), NaN of both signs (which compare false),
/// both infinities, and a few ordinary values to sit beside them.
const SIGNED_ZERO_DENSE: [f32; 10] = [
    0.0,
    -0.0,
    0.0,
    -0.0,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.5,
    -0.25,
];

/// `quantize_int_codes` = [`scalar_quantize`] on `values`, at both widths
/// and both granularities under `group`.
fn assert_quantizes_like_the_scalar_definition(values: &TokenMatrix, group: usize, what: &str) {
    for width in [BitWidth::B4, BitWidth::B2] {
        for granularity in [KeyGranularity::TensorWise, KeyGranularity::ChannelWise] {
            let mut codes = Vec::new();
            let params = quantize_int_codes(values, width, granularity, group, &mut codes);
            let params: Vec<u32> = params.iter().map(|p| p.to_bits()).collect();
            let (want_codes, want_params) = scalar_quantize(values, width, granularity, group);
            let at = format!("{what}: dim {}, group {group}, {width}", values.dim());
            assert_eq!(params, want_params, "{at}, {granularity:?}");
            assert_eq!(codes, want_codes, "{at}, {granularity:?}");
        }
    }
}

/// Deterministic rows for the tensor-wise scan's reduction order: a group
/// whose min or max is zero with both signs present, in either order, at
/// spots whose 8-lane positions disagree with their index order; NaN in
/// some lanes; an all-NaN row; ±Inf. Dims 20, 24, 64 and 72 (partial and
/// whole 8-lane chunks), groups 16, 32 and 128.
#[test]
fn tensor_wise_scan_keeps_the_sequential_rule_on_zeros_nan_and_inf() {
    for dim in [20, 24, 64, 72] {
        // (first zero, second zero) pairs: lane of the first above, equal to
        // and below the second's, and the two in different 8-chunks.
        let pairs = [
            (0, 1),
            (1, 0),
            (2, 9),
            (9, 2),
            (7, 8),
            (8, 7),
            (3, 19),
            (19, 3),
        ];
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for &(i, j) in &pairs {
            for (a, b) in [(-0.0f32, 0.0f32), (0.0, -0.0)] {
                for base in [1.0f32, -1.0] {
                    let mut row: Vec<f32> =
                        (0..dim).map(|c| base * (0.5 + c as f32 * 0.125)).collect();
                    row[i] = a;
                    row[j] = b;
                    rows.push(row.clone());
                    // NaN in every fourth lane that is not a zero's.
                    for c in (0..dim).filter(|&c| c % 4 == 2 && c != i && c != j) {
                        row[c] = f32::NAN;
                    }
                    rows.push(row);
                }
            }
        }
        rows.push(vec![f32::NAN; dim]);
        rows.push(
            (0..dim)
                .map(|c| if c % 2 == 0 { 0.0 } else { -0.0 })
                .collect(),
        );
        rows.push(
            (0..dim)
                .map(|c| if c % 2 == 0 { -0.0 } else { 0.0 })
                .collect(),
        );
        let mut inf: Vec<f32> = (0..dim).map(|c| (c as f32 * 0.3).sin()).collect();
        inf[5] = f32::INFINITY;
        inf[dim - 3] = f32::NEG_INFINITY;
        rows.push(inf.clone());
        inf[11] = f32::NAN;
        rows.push(inf);
        let values: TokenMatrix = rows.into();
        for group in [16, 32, 128] {
            assert_quantizes_like_the_scalar_definition(&values, group, "crafted rows");
        }
    }
}

proptest! {
    /// The slab quantizer is the scalar definition, bit for bit: arbitrary
    /// `f32` bit patterns (NaN, ±Inf, denormals and all), small integers
    /// whose groups land on exact rounding ties, f16-range values, and rows
    /// dense in signed zeros, NaN and infinities (where the order of a
    /// min/max reduction shows in the bits); both granularities, both
    /// widths, groups that end in a partial tail.
    #[test]
    fn slab_quantizer_matches_the_scalar_definition(
        seed: u64, tokens in 1usize..70, dim in 1usize..40, group in 1usize..48,
        int2: bool, channel_wise: bool, class in 0usize..4,
    ) {
        let width = if int2 { BitWidth::B2 } else { BitWidth::B4 };
        let granularity = if channel_wise {
            KeyGranularity::ChannelWise
        } else {
            KeyGranularity::TensorWise
        };
        let mut s = seed | 1;
        let values = TokenMatrix::from_fn(tokens, dim, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (s >> 32) as u32;
            match class {
                0 => f32::from_bits(r),
                // A group spanning 0..=2·max has scale 2: odd values tie.
                1 => (r % (2 * u32::from(width.max_code()) + 1)) as f32,
                2 => (r % 4001) as f32 / 1000.0 - 2.0,
                _ => SIGNED_ZERO_DENSE[r as usize % SIGNED_ZERO_DENSE.len()],
            }
        });
        let mut codes = vec![0xAA; 3];
        let params = quantize_int_codes(&values, width, granularity, group, &mut codes);
        let params: Vec<u32> = params.iter().map(|p| p.to_bits()).collect();
        let (want_codes, want_params) = scalar_quantize(&values, width, granularity, group);
        prop_assert_eq!(params, want_params);
        prop_assert_eq!(codes, want_codes);
    }

    /// encode → decode reconstruction error is bounded by the scheme's
    /// worst-case step over the data range, for every scheme.
    #[test]
    fn codec_round_trip_error_bounded(scheme in arb_scheme(), seed: u64,
                                      tokens in 1usize..96, dim in 1usize..48) {
        let k = matrix(tokens, dim, seed);
        let v = matrix(tokens, dim, seed ^ 0xABCD);
        let err = reconstruction_error(&ReferenceCodec, &k, &v, scheme);
        // Data range is ±4; worst grid step: INT2 → 8/3, INT4 → 8/15,
        // FP4 → 2×(power-of-two scale ≤ 2).
        let bound = match scheme.int_width() {
            Some(BitWidth::B2) => 8.0 / 3.0 * 0.6 + 0.05,
            Some(BitWidth::B4) => 8.0 / 15.0 * 0.6 + 0.05,
            None => 4.1, // saturating E2M1 with shared block scale
        };
        prop_assert!(err <= bound, "{scheme}: err {err} > {bound}");
    }

    /// The residual region never reaches the block size, and the total
    /// token count is always preserved, under any append/prefill pattern.
    #[test]
    fn cache_length_invariants(prefill_len in 0usize..300, appends in 0usize..300, seed: u64) {
        let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
        let mut cache = QuantizedKvCache::new(cfg, 1);
        let nr = cache.residual_block();
        let pre = matrix(prefill_len, 16, seed);
        if prefill_len > 0 {
            cache.prefill(0, &pre, &pre, &ReferenceCodec).unwrap();
        }
        let toks = matrix(appends, 16, seed ^ 99);
        for row in &toks {
            cache.append_token(0, row, row, &ReferenceCodec).unwrap();
            prop_assert!(cache.residual_len(0) < nr);
        }
        prop_assert_eq!(cache.len(0), prefill_len + appends);
        let packed_tokens: usize = cache.packed_blocks(0).iter().map(|b| b.tokens()).sum();
        prop_assert_eq!(packed_tokens + cache.residual_len(0), prefill_len + appends);
        prop_assert_eq!(packed_tokens % nr, 0);
    }

    /// logical_kv returns exactly len(head) rows whose values stay within
    /// quantization distance of the originals.
    #[test]
    fn logical_view_is_complete(len in 1usize..280, seed: u64) {
        let cfg = CacheConfig::new(8, QuantScheme::kc4(), PackLayout::sm80_default());
        let mut cache = QuantizedKvCache::new(cfg, 1);
        let k = matrix(len, 8, seed);
        let v = matrix(len, 8, seed ^ 7);
        cache.prefill(0, &k, &v, &ReferenceCodec).unwrap();
        let (dk, dv) = cache.logical_kv(0, &ReferenceCodec);
        prop_assert_eq!(dk.len(), len);
        prop_assert_eq!(dv.len(), len);
        for t in 0..len {
            for c in 0..8 {
                prop_assert!((dk[t][c] - k[t][c]).abs() < 0.5);
                prop_assert!((dv[t][c] - v[t][c]).abs() < 0.5);
            }
        }
    }

    /// Cache memory accounting: packed bytes match the scheme's per-token
    /// cost; compression always beats FP16 once blocks exist.
    #[test]
    fn memory_accounting_consistent(blocks in 1usize..5, tail in 0usize..127) {
        let dim = 64;
        let cfg = CacheConfig::new(dim, QuantScheme::kc4(), PackLayout::sm80_default());
        let mut cache = QuantizedKvCache::new(cfg, 1);
        let len = blocks * cache.residual_block() + tail;
        let k = matrix(len, dim, 5);
        cache.prefill(0, &k, &k, &ReferenceCodec).unwrap();
        let fp16 = len * dim * 2 * 2;
        prop_assert!(cache.total_bytes() < fp16);
        let packed_len = blocks * cache.residual_block();
        let expect_packed = QuantScheme::kc4().bytes_per_token(dim) * packed_len as f64;
        let expect = expect_packed + (tail * dim * 2 * 2) as f64;
        let actual = cache.total_bytes() as f64;
        prop_assert!((actual - expect).abs() / expect < 0.05, "{actual} vs {expect}");
    }

    /// Paged pool conservation: free + allocated always equals the total,
    /// and released pages are reusable.
    #[test]
    fn paged_pool_conserves_pages(ops in prop::collection::vec((0usize..3, 1usize..2048), 1..40)) {
        let mut pool = PagedPool::new(64, 32);
        let mut live: Vec<SeqId> = Vec::new();
        for (op, len) in ops {
            match op {
                0 => {
                    let s = pool.admit();
                    if pool.grow(s, len).is_ok() {
                        live.push(s);
                    } else {
                        pool.release(s);
                    }
                }
                1 if !live.is_empty() => {
                    let s = live.remove(0);
                    pool.release(s);
                }
                _ => {}
            }
            let allocated: usize = live.iter().map(|s| pool.table(*s).unwrap().len()).sum();
            prop_assert_eq!(allocated + pool.free_pages(), pool.total_pages());
        }
    }

    /// Copy-on-write fork lineages: for any page size, fork boundary
    /// flavor (Nr-aligned or mid-residual), divergent append lengths, and
    /// evict/swap interleaving, (1) both lineages stay **bitwise**
    /// contiguous-equivalent — a CoW'd page's bytes are independent of its
    /// sibling's subsequent writes in either direction — and (2) no page
    /// ever leaks: when the last lineage member leaves, every refcount has
    /// returned to zero and the pool is whole again.
    #[test]
    fn fork_lineages_leak_no_pages_and_cow_isolates_bytes(
        page_tokens in 1usize..80,
        prompt in 1usize..300,
        parent_extra in 0usize..150,
        child_extra in 0usize..150,
        boundary_sel in 0usize..3,
        order in 0usize..4,
        seed: u64,
    ) {
        let dim = 8;
        let cfg = CacheConfig::new(dim, QuantScheme::kc4(), PackLayout::sm80_default());
        let nr = cfg.residual_block();
        let row = |t: usize, salt: u64| -> Vec<f32> {
            matrix(1, dim, (t as u64) << 9 ^ salt ^ seed).row(0).to_vec()
        };
        let append = |store: &mut PagedKvStore,
                      seq: SeqId,
                      cache: &mut QuantizedKvCache,
                      t0: usize,
                      n: usize,
                      salt: u64| {
            for t in t0..t0 + n {
                let k = row(t, salt);
                let v = row(t + 100_000, salt);
                store
                    .append_step(seq, std::slice::from_ref(&k), std::slice::from_ref(&v),
                                 &ReferenceCodec)
                    .unwrap();
                cache.append_token(0, &k, &v, &ReferenceCodec).unwrap();
            }
        };
        // Fork at the parent's exact length (residual rows recoverable),
        // at the largest aligned boundary, or at an *earlier* aligned
        // boundary — the last leaves the parent's past-boundary blocks on
        // pages the child shares, exercising frame reclaim after a
        // departure.
        let at = match boundary_sel {
            0 => prompt,
            1 => prompt - prompt % nr,
            _ => (prompt / nr / 2) * nr,
        };
        let budget = prompt + parent_extra + at + child_extra + 82;
        let pages = budget.div_ceil(page_tokens) + 8;
        let mut store = PagedKvStore::new(cfg, 1, pages, page_tokens);
        let total = store.total_pages();

        let parent = store.admit(prompt + parent_extra).unwrap();
        let mut parent_cache = QuantizedKvCache::new(cfg, 1);
        append(&mut store, parent, &mut parent_cache, 0, prompt, 1);
        // The child's ground truth replays only the shared prefix.
        let mut child_cache = QuantizedKvCache::new(cfg, 1);
        {
            let mut scratch = PagedKvStore::new(cfg, 1, pages, page_tokens);
            let s = scratch.admit(at).unwrap();
            append(&mut scratch, s, &mut child_cache, 0, at, 1);
        }
        let child = store.fork(parent, at, at + child_extra).unwrap();
        prop_assert!(store.matches_cache(child, &child_cache, 0), "fork is not the prefix");

        // Divergent continuations through (what was) shared territory.
        append(&mut store, parent, &mut parent_cache, prompt, parent_extra, 2);
        append(&mut store, child, &mut child_cache, at, child_extra, 3);
        prop_assert!(store.matches_cache(parent, &parent_cache, 0), "child leaked into parent");
        prop_assert!(store.matches_cache(child, &child_cache, 0), "parent leaked into child");

        // Interleave departures: evicts and swap round trips in every
        // order, with the survivor decoding on (through any frames it
        // inherits from the departed sibling); survivors must stay bitwise
        // and the pool must end whole.
        let plen = prompt + parent_extra;
        let clen = at + child_extra;
        match order {
            0 => {
                store.evict(parent);
                append(&mut store, child, &mut child_cache, clen, 40, 4);
                prop_assert!(store.matches_cache(child, &child_cache, 0),
                    "departed parent's blocks leaked into the child");
                store.evict(child);
            }
            1 => {
                store.evict(child);
                append(&mut store, parent, &mut parent_cache, plen, 40, 5);
                prop_assert!(store.matches_cache(parent, &parent_cache, 0),
                    "departed child's blocks leaked into the parent");
                store.evict(parent);
            }
            2 => {
                let blob = store.swap_out(child).unwrap();
                append(&mut store, parent, &mut parent_cache, plen, 40, 5);
                prop_assert!(store.matches_cache(parent, &parent_cache, 0));
                let back = store.swap_in(&blob).unwrap();
                prop_assert!(store.matches_cache(back, &child_cache, 0), "swap round trip");
                store.evict(back);
                store.evict(parent);
            }
            _ => {
                // The survivor's continued decode may reclaim inherited
                // frames; the swapped parent must then restore privately
                // (generation bump) and still come back bitwise.
                let blob = store.swap_out(parent).unwrap();
                append(&mut store, child, &mut child_cache, clen, 40, 4);
                prop_assert!(store.matches_cache(child, &child_cache, 0));
                let back = store.swap_in(&blob).unwrap();
                prop_assert!(store.matches_cache(back, &parent_cache, 0),
                    "swapped parent re-shared a reclaimed frame");
                store.evict(back);
                store.evict(child);
            }
        }
        prop_assert_eq!(store.free_pages(), total, "pages leaked (refcount > 0 left behind)");
        prop_assert_eq!(store.sharing_stats().logical_pages, 0);
    }

    /// Prefill partitioning always covers all tokens with an Nr-aligned
    /// packed prefix.
    #[test]
    fn partition_invariants(len in 0usize..1_000_000, nr_pow in 5u32..9) {
        let nr = 1usize << nr_pow;
        let (packed, res) = partition_prefill(len, nr);
        prop_assert_eq!(packed + res, len);
        prop_assert_eq!(packed % nr, 0);
        prop_assert!(res < nr);
    }

    /// Weighted placement is a total partition: for ANY weight vector
    /// (including zero, negative, NaN, and infinite entries) and any head
    /// count, every head maps to exactly one device, local indices are
    /// dense per device, the device count never exceeds
    /// `min(weights.len(), heads)`, and every device owns at least one
    /// head.
    #[test]
    fn weighted_placement_covers_every_head_exactly_once(
        weights in prop::collection::vec(
            prop_oneof![
                0.01f64..1000.0,
                0.01f64..1000.0,
                0.01f64..1000.0,
                Just(0.0),
                Just(-3.5),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            1..9,
        ),
        heads in 1usize..33,
    ) {
        let p = Placement::weighted(&weights, heads);
        prop_assert_eq!(p.heads(), heads);
        prop_assert!(p.devices() <= weights.len().min(heads));
        prop_assert!(p.devices() >= 1);
        let mut counts = vec![0usize; p.devices()];
        for head in 0..heads {
            let d = p.device_of(head);
            prop_assert!((d.0 as usize) < p.devices(), "head {} off fleet", head);
            let local = p.local_index(head);
            prop_assert_eq!(local, counts[d.0 as usize], "head {} local index", head);
            counts[d.0 as usize] += 1;
        }
        for (d, &n) in counts.iter().enumerate() {
            prop_assert!(n >= 1, "device {} owns no head", d);
            prop_assert_eq!(
                n,
                p.heads_on(DeviceId(d as u32)),
                "device {} heads_on disagrees with cover", d
            );
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), heads);
    }

    /// Heavier devices never get fewer heads: weighted apportionment is
    /// monotone in the weights, and equal weights reproduce the
    /// contiguous placement's counts exactly.
    #[test]
    fn weighted_placement_is_monotone_and_degenerates_to_contiguous(
        devices in 1usize..9,
        heads in 1usize..33,
        weights in prop::collection::vec(0.5f64..100.0, 8),
    ) {
        let weights = &weights[..devices];
        let p = Placement::weighted(weights, heads);
        for a in 0..p.devices() {
            for b in 0..p.devices() {
                if weights[a] > weights[b] {
                    prop_assert!(
                        p.heads_on(DeviceId(a as u32)) >= p.heads_on(DeviceId(b as u32)),
                        "device {} (w={}) got fewer heads than {} (w={})",
                        a, weights[a], b, weights[b]
                    );
                }
            }
        }
        let equal = Placement::weighted(&vec![1.0; devices], heads);
        let contiguous = Placement::new(devices, Partitioning::HeadContiguous, heads);
        for d in 0..equal.devices() {
            prop_assert_eq!(
                equal.heads_on(DeviceId(d as u32)),
                contiguous.heads_on(DeviceId(d as u32)),
                "equal-weight counts diverge from contiguous on device {}", d
            );
        }
    }
}
