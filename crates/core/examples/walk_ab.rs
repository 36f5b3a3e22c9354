//! Times the packed walk on 64 blocks at head dim 64, for KC-4, KC-2 and
//! KT-4: solo, one 2-row query block (what a `long_ctx_solo` decode step
//! runs per KV head), and as a cascade of 16 sharers × 2 rows over the
//! same blocks as their shared prefix (what `shared_prefix_fleet` runs).
//! KT-4's tensor-wise K gives each lane of a segment its own LUT line, so
//! its K takes the per-lane gather, not the permute; no benchmark
//! workload runs it.
//! Asserts that each cascade partial equals, bit for bit, the solo walk of
//! that sharer's rows, then prints the best-of-N cost per KV token of
//! each (for the cascade, per token of the shared prefix, all 16 sharers
//! included). Both run in the host's instance (`Isa::host`: AVX-512
//! F/BW/VL/DQ with AVX2, F16C and FMA, or AVX2 with F16C and FMA, where
//! the CPU reports them, else the baseline build).
//!
//! ```text
//! cargo run --release -p bd-core --example walk_ab [runs]
//! ```
//!
//! No timing is asserted: the numbers are host time, and only a release
//! build's are meaningful. It uses only public API, so the same file
//! builds in a copy of an older tree for an A/B; the host is noisy, so
//! alternate the two binaries and compare the best of many runs.

use bd_core::{
    attend_packed_blocks_fused, attend_packed_blocks_multi, FragmentCodec, MatmulEngine,
    OnlineSoftmax, PrefixSharer,
};
use bd_kvcache::{BlockCodec, CacheConfig, PackLayout, PackedBlock, QuantScheme, TokenMatrix};
use std::hint::black_box;
use std::time::Instant;

const BLOCKS: usize = 64;
const HEAD_DIM: usize = 64;
const GROUP_Q: usize = 2;
const SHARERS: usize = 16;

fn wave(tokens: usize, salt: usize) -> TokenMatrix {
    TokenMatrix::from_fn(tokens, HEAD_DIM, |t, c| {
        ((t * HEAD_DIM + c + salt * 977) as f32 * 0.37).sin() * 2.0
    })
}

fn bits(state: &OnlineSoftmax) -> Vec<u32> {
    let rows = (0..state.rows()).flat_map(|r| state.acc_row(r).iter().copied());
    (state.m.iter().chain(&state.l).copied().chain(rows))
        .map(f32::to_bits)
        .collect()
}

/// Best-of-`runs` nanoseconds per KV token of `walk`, one call per run.
fn best_ns_per_tok<T>(runs: usize, kv_tokens: usize, mut walk: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(walk());
            start.elapsed().as_nanos() as f64 / kv_tokens as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let runs = std::env::args()
        .nth(1)
        .map_or(31, |n| n.parse().unwrap_or_else(|_| panic!("runs: {n}")));
    let layout = PackLayout::sm80_default();
    let codec = FragmentCodec::new(layout);
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let engine = MatmulEngine::Mma;
    let queries: Vec<Vec<Vec<f32>>> = (0..SHARERS)
        .map(|s| {
            (0..GROUP_Q)
                .map(|g| {
                    (0..HEAD_DIM)
                        .map(|c| (((s * GROUP_Q + g) * HEAD_DIM + c) as f32 * 0.71).sin())
                        .collect()
                })
                .collect()
        })
        .collect();
    let empty = TokenMatrix::from_fn(0, HEAD_DIM, |_, _| 0.0);
    println!("packed walk: {BLOCKS} blocks, d {HEAD_DIM}, g_q {GROUP_Q}, Mma, best of {runs}");
    for (name, scheme) in [
        ("KC-4", QuantScheme::kc4()),
        ("KC-2", QuantScheme::kc2()),
        ("KT-4", QuantScheme::kt4()),
    ] {
        let block_tokens = CacheConfig::new(HEAD_DIM, scheme, layout).residual_block();
        let blocks: Vec<PackedBlock> = (0..BLOCKS)
            .map(|b| {
                codec.encode(
                    &wave(block_tokens, 2 * b),
                    &wave(block_tokens, 2 * b + 1),
                    scheme,
                )
            })
            .collect();
        let solo = |q: &[Vec<f32>]| {
            let mut state = OnlineSoftmax::new(q.len(), HEAD_DIM);
            attend_packed_blocks_fused(q, &blocks, &codec, scheme, scale, engine, &mut state);
            state
        };
        let sharers: Vec<PrefixSharer<'_, PackedBlock>> = queries
            .iter()
            .map(|q| PrefixSharer {
                q_block: q,
                suffix: &[],
                res_k: &empty,
                res_v: &empty,
            })
            .collect();
        let cascade = || {
            attend_packed_blocks_multi(&blocks, &sharers, HEAD_DIM, &codec, scheme, scale, engine)
        };

        let (partials, _) = cascade();
        for (s, (q, partial)) in queries.iter().zip(&partials).enumerate() {
            assert_eq!(
                bits(partial),
                bits(&solo(q)),
                "{name}: sharer {s}'s partial"
            );
        }

        let kv_tokens = BLOCKS * block_tokens;
        let solo_ns = best_ns_per_tok(runs, kv_tokens, || solo(&queries[0]));
        let cascade_ns = best_ns_per_tok(runs, kv_tokens, cascade);
        println!("  {name} ({kv_tokens} KV tokens)");
        for (label, ns) in [
            (format!("solo, {GROUP_Q} rows:"), solo_ns),
            (
                format!("cascade, {SHARERS} sharers x {GROUP_Q} rows:"),
                cascade_ns,
            ),
        ] {
            println!("    {label:<32} {ns:8.2} ns/tok");
        }
    }
}
