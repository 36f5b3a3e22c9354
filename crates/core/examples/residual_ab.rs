//! Times the residual kernel's two entries on one window: a bare
//! `TokenMatrix` (rounded into scratch Kᵀ panels on every call — what the
//! benchmark's `core.attend_residual_ns_per_tok` probe times) and the
//! store's `KeyWindow` (sealed 16-token groups read from the panels its
//! pushes wrote, only the partial group written per call). Both run in
//! the AVX2 instance where the CPU reports AVX2, F16C and FMA, on an
//! AVX-512 host too (the residual kernel does not take that instance),
//! else in the baseline build. Asserts both give the same bits, then
//! prints the best-of-N cost per KV token of each.
//!
//! ```text
//! cargo run --release -p bd-core --example residual_ab [runs]
//! ```
//!
//! No timing is asserted: the numbers are host time, and only a release
//! build's are meaningful.

use bd_core::{attend_residual_fused, MatmulEngine, OnlineSoftmax, ResidualKeys};
use bd_kvcache::{KeyWindow, TokenMatrix};
use std::hint::black_box;
use std::time::Instant;

/// The probe's shape: a 127-token window (one short of `Nr` = 128), a
/// grouped query block of 2 rows, head dim 64.
const TOKENS: usize = 127;
const GROUP_Q: usize = 2;
const HEAD_DIM: usize = 64;
/// Calls per timed run.
const CALLS: usize = 256;

fn wave(tokens: usize, freq: f32) -> TokenMatrix {
    TokenMatrix::from_fn(tokens, HEAD_DIM, |t, c| {
        ((t * HEAD_DIM + c) as f32 * freq).sin() * 2.0
    })
}

fn attend<K: ResidualKeys>(q: &[Vec<f32>], k: &K, v: &TokenMatrix) -> OnlineSoftmax {
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let mut state = OnlineSoftmax::new(q.len(), HEAD_DIM);
    attend_residual_fused(q, k, v, scale, MatmulEngine::Mma, &mut state);
    state
}

fn bits(state: &OnlineSoftmax) -> Vec<u32> {
    let rows = (0..state.rows()).flat_map(|r| state.acc_row(r).iter().copied());
    (state.m.iter().chain(&state.l).copied().chain(rows))
        .map(f32::to_bits)
        .collect()
}

/// Best-of-`runs` nanoseconds per KV token over [`CALLS`] calls.
fn best_ns_per_tok<K: ResidualKeys>(runs: usize, q: &[Vec<f32>], k: &K, v: &TokenMatrix) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                black_box(attend(q, black_box(k), v));
            }
            start.elapsed().as_nanos() as f64 / (CALLS * TOKENS) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let runs = std::env::args()
        .nth(1)
        .map_or(15, |n| n.parse().unwrap_or_else(|_| panic!("runs: {n}")));
    let q: Vec<Vec<f32>> = (0..GROUP_Q)
        .map(|g| {
            (0..HEAD_DIM)
                .map(|c| ((g * HEAD_DIM + c) as f32 * 0.71).sin())
                .collect()
        })
        .collect();
    let (k, v) = (wave(TOKENS, 0.29), wave(TOKENS, 0.43));
    let window = KeyWindow::from_rows(&k);

    let bare = attend(&q, &k, &v);
    let stored = attend(&q, &window, &v);
    assert_eq!(bits(&bare), bits(&stored), "the two entries disagree");

    let matrix_ns = best_ns_per_tok(runs, &q, &k, &v);
    let window_ns = best_ns_per_tok(runs, &q, &window, &v);
    println!("residual window: {TOKENS} tokens, g_q {GROUP_Q}, d {HEAD_DIM}, Mma, best of {runs}");
    println!("  TokenMatrix entry: {matrix_ns:8.2} ns/tok");
    println!("  KeyWindow entry:   {window_ns:8.2} ns/tok");
    println!("  ratio:             {:8.2}x", matrix_ns / window_ns);
}
