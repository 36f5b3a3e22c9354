//! Attributes prompt admission through the public [`ShardedKvStore`]
//! API, on one device, at launch widths 1 and 2, packing with
//! [`FragmentCodec`] — the codec a [`bd_core::BitDecoder`] serves with:
//!
//! - one block's `encode`, split into the K channel-wise quantize, the V
//!   tensor-wise quantize and the whole `encode` (the rest is the tile
//!   gather and the buffers), in ns per head-token;
//! - a cold admission with the prefix cache off, then on (the index is
//!   dropped between runs, so every cache-on admission misses): the
//!   difference is the source and packed leaves plus registration;
//! - a full-hit admission, which hashes the source rows and adopts every
//!   run;
//! - a `swap_out` / `swap_in` round trip with the cache off, per page:
//!   the blob's copy plus its checksum, computed at swap-out and verified
//!   at swap-in.
//!
//! Each is the median of `runs` (cache off and on alternate), printed in
//! ms and in GB/s of bytes folded, next to a `memcpy` probe.
//!
//! ```text
//! cargo run --release -p bd-core --example admit_ab [tokens] [runs]
//! ```
//!
//! The defaults are 131,072 tokens and 5 runs: 4 KV heads, `dim` 64, KC-4,
//! 64-token pages. No timing is asserted: the numbers are host time, and
//! only a release build's are meaningful. It uses only public API, so the
//! same file builds against an older tree for an A/B.

use bd_core::FragmentCodec;
use bd_kvcache::{
    quantize_int_codes, BlockCodec, CacheConfig, KeyGranularity, PackLayout, PackedBlock,
    Placement, QuantScheme, SchemeKind, SeqId, ShardedKvStore, TokenMatrix,
};
use std::hint::black_box;
use std::time::Instant;

const HEADS: usize = 4;
const DIM: usize = 64;
const PAGE_TOKENS: usize = 64;

/// One head's K or V prompt rows.
fn wave(tokens: usize, salt: usize) -> TokenMatrix {
    TokenMatrix::from_fn(tokens, DIM, |t, c| {
        ((t * DIM + c + salt * 977) as f32 * 0.37).sin() * 2.0
    })
}

/// `f`'s result and its wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// GB/s of `bytes` in `ms`.
fn gb_per_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / (ms * 1e6)
}

/// Median copy rate of a `bytes`-long buffer, in GB/s; the first copy
/// faults the pages in and is not counted.
fn memcpy_gb_per_s(bytes: usize, runs: usize) -> f64 {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    let rates = (0..=runs)
        .map(|_| timed(|| dst.copy_from_slice(black_box(&src))).1)
        .skip(1)
        .map(|ms| gb_per_s(bytes, ms))
        .collect();
    black_box(&dst);
    median(rates)
}

/// The codec every admission packs with.
fn codec() -> FragmentCodec {
    FragmentCodec::new(PackLayout::sm80_default())
}

/// Median ns per head-token of `pass` over one `Nr`-token block, each run
/// repeated until it covers about 2^16 head-tokens.
fn per_head_token(nr: usize, runs: usize, mut pass: impl FnMut()) -> f64 {
    let reps = (1 << 16) / nr;
    median(
        (0..runs)
            .map(|_| timed(|| (0..reps).for_each(|_| pass())).1 * 1e6 / (reps * nr) as f64)
            .collect(),
    )
}

/// Prints `FragmentCodec::encode`'s split on one KC-4 block: the K
/// channel-wise quantize, the V tensor-wise quantize and the whole encode.
fn encode_split(runs: usize) {
    let scheme = QuantScheme::kc4();
    let SchemeKind::Int {
        width,
        key_granularity,
        group,
    } = scheme.kind()
    else {
        unreachable!("KC-4 is an integer scheme");
    };
    let nr = PackLayout::sm80_default().residual_block(width);
    let (k, v) = (wave(nr, 0), wave(nr, 100));
    let mut codes = Vec::new();
    let mut quantize = |m: &TokenMatrix, granularity, group| {
        black_box(quantize_int_codes(
            black_box(m),
            width,
            granularity,
            group,
            &mut codes,
        ));
    };
    let k_ns = per_head_token(nr, runs, || quantize(&k, key_granularity, group));
    let v_group = QuantScheme::DEFAULT_CHANNEL_GROUP;
    let v_ns = per_head_token(nr, runs, || {
        quantize(&v, KeyGranularity::TensorWise, v_group)
    });
    let codec = codec();
    let total = per_head_token(nr, runs, || {
        black_box(codec.encode(black_box(&k), black_box(&v), scheme));
    });
    println!(
        "  encode, ns per head-token    {total:8.1}  (K channel-wise quantize {k_ns:.1}, \
         V tensor-wise quantize {v_ns:.1}, gather + buffers {:.1})",
        total - k_ns - v_ns
    );
}

/// Admits the prompt, asserting it adopted `hit` or nothing.
fn admit(store: &mut ShardedKvStore, k: &[TokenMatrix], v: &[TokenMatrix], hit: bool) -> SeqId {
    let tokens = k[0].tokens();
    let (seq, admit) = store
        .admit_prefill_cached(k, v, tokens, &codec())
        .unwrap_or_else(|e| panic!("admission: {e}"));
    assert_eq!(admit.pages_reused > 0, hit, "expected hit: {hit}");
    seq
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |name: &str, default: usize| {
        args.next().map_or(default, |n| {
            n.parse().unwrap_or_else(|_| panic!("{name}: {n}"))
        })
    };
    let tokens = arg("tokens", 131_072);
    let runs = arg("runs", 5).max(1);

    let k: Vec<TokenMatrix> = (0..HEADS).map(|h| wave(tokens, h)).collect();
    let v: Vec<TokenMatrix> = (0..HEADS).map(|h| wave(tokens, h + 100)).collect();
    let source_bytes = 2 * HEADS * tokens * DIM * 4;
    let memcpy = memcpy_gb_per_s(source_bytes.clamp(1 << 20, 256 << 20), runs);
    println!(
        "admission: {tokens} tokens, {HEADS} heads, dim {DIM}, KC-4, {PAGE_TOKENS}-token pages, \
         median of {runs}"
    );
    println!("  memcpy probe                 {memcpy:8.2} GB/s");
    encode_split(runs);

    let cfg = CacheConfig::new(DIM, QuantScheme::kc4(), PackLayout::sm80_default());
    let pages = 2 * tokens.div_ceil(PAGE_TOKENS) + 16;
    for width in [1, 2] {
        let mut store = ShardedKvStore::new(cfg, Placement::single(HEADS), pages, PAGE_TOKENS);
        store.set_launch_width(width);

        let (mut off, mut on) = (Vec::new(), Vec::new());
        let mut packed_bytes = 0;
        for _ in 0..runs {
            for cache in [false, true] {
                store.set_prefix_cache(cache);
                let (seq, ms) = timed(|| admit(&mut store, &k, &v, false));
                packed_bytes = (0..HEADS)
                    .flat_map(|h| store.packed_blocks(seq, h))
                    .map(PackedBlock::byte_size)
                    .sum();
                store.evict(seq);
                // Turning the cache off drops the index and its pages.
                store.set_prefix_cache(false);
                (if cache { &mut on } else { &mut off }).push(ms);
            }
        }
        let (off, on) = (median(off), median(on));

        store.set_prefix_cache(true);
        let cold = admit(&mut store, &k, &v, false);
        store.evict(cold);
        let hit = median(
            (0..runs)
                .map(|_| {
                    let (seq, ms) = timed(|| admit(&mut store, &k, &v, true));
                    store.evict(seq);
                    ms
                })
                .collect(),
        );
        store.set_prefix_cache(false);

        let mut seq = admit(&mut store, &k, &v, false);
        let seq_pages = store.total_pages() - store.free_pages();
        let (mut outs, mut ins, mut host_bytes) = (Vec::new(), Vec::new(), 0);
        for _ in 0..runs {
            let (blob, out_ms) = timed(|| store.swap_out(seq));
            let blob = blob.unwrap_or_else(|e| panic!("swap-out: {e}"));
            host_bytes = blob.host_bytes();
            let (back, in_ms) = timed(|| store.swap_in(&blob));
            seq = back.unwrap_or_else(|e| panic!("swap-in: {e}"));
            outs.push(out_ms);
            ins.push(in_ms);
        }
        let (out_ms, in_ms) = (median(outs), median(ins));

        let hashed = source_bytes + packed_bytes;
        let per_page = |ms: f64| ms * 1e3 / seq_pages as f64;
        println!("width {width}:");
        println!("  cold, cache off              {off:8.2} ms");
        println!(
            "  cold, cache on               {on:8.2} ms  (+{:.2} ms for {:.1} MB of leaves + \
             registration: {:.2} GB/s)",
            on - off,
            hashed as f64 / 1e6,
            gb_per_s(hashed, on - off)
        );
        println!(
            "  full hit                     {hit:8.2} ms  ({:.1} MB of source: {:.2} GB/s)",
            source_bytes as f64 / 1e6,
            gb_per_s(source_bytes, hit)
        );
        println!(
            "  swap out / in, per page      {:8.2} / {:.2} us  ({seq_pages} pages, {:.1} MB: \
             {:.2} / {:.2} GB/s)",
            per_page(out_ms),
            per_page(in_ms),
            host_bytes as f64 / 1e6,
            gb_per_s(host_bytes, out_ms),
            gb_per_s(host_bytes, in_ms)
        );
    }
}
