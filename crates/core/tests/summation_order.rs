//! Pins the f32 summation order of the fused packed kernels from the
//! inside: the oracle below is the arithmetic written out one scalar
//! operation at a time — every score a channel-ascending `acc += q·k` from
//! `0.0`, every probability `exp(s − m)`, every output channel a
//! token-ascending `acc += p·v`, blocks folded one after another into one
//! state — and the kernels must reproduce it bit for bit, however many
//! lanes they run side by side and whatever host they run on.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{
    attend_packed_blocks_fused, attend_packed_blocks_multi, attend_residual_fused, FragmentCodec,
    MatmulEngine, OnlineSoftmax, PrefixSharer,
};
use bd_kvcache::{BlockCodec, PackLayout, PackedBlock, QuantScheme, TokenMatrix};
use bd_lowbit::F16;

fn matrix(rows: usize, cols: usize, seed: u64) -> TokenMatrix {
    let mut s = seed | 1;
    TokenMatrix::from_fn(rows, cols, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
        ((s >> 40) as i32 % 1000) as f32 / 250.0 - 2.0
    })
}

/// A block as the codec's materializing decode — its reference, not the
/// fused walk — reads it back: `(K, V)`, both token-major.
type Decoded = (TokenMatrix, TokenMatrix);

/// One query block folded over `blocks`, one scalar operation at a time;
/// every `s − m` it exponentiates is pushed to `args`, row by row.
fn oracle_walk(
    q: &[Vec<f32>],
    blocks: &[Decoded],
    scale: f32,
    engine: MatmulEngine,
    args: &mut Vec<f32>,
) -> OnlineSoftmax {
    let dim = q[0].len();
    let mut state = OnlineSoftmax::new(q.len(), dim);
    for (k, v) in blocks {
        for (r, q_row) in q.iter().enumerate() {
            let a_row: Vec<f32> = q_row
                .iter()
                .map(|&x| match engine {
                    MatmulEngine::Mma => F16::from_f32(x * scale).to_f32(),
                    MatmulEngine::Wgmma => x * scale,
                })
                .collect();
            let scores: Vec<f32> = k
                .iter()
                .map(|k_row| {
                    let mut acc = 0.0f32;
                    for (&a, &kk) in a_row.iter().zip(k_row) {
                        acc += a * kk;
                    }
                    acc
                })
                .collect();
            let row_max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let m_new = state.m[r].max(row_max);
            let correction = (state.m[r] - m_new).exp();
            let mut l = state.l[r] * correction;
            for a in state.acc_row_mut(r) {
                *a *= correction;
            }
            for (&s, v_row) in scores.iter().zip(v) {
                args.push(s - m_new);
                let p = (s - m_new).exp();
                l += p;
                for (a, &vv) in state.acc_row_mut(r).iter_mut().zip(v_row) {
                    *a += p * vv;
                }
            }
            state.m[r] = m_new;
            state.l[r] = l;
        }
    }
    state
}

fn assert_same_bits(got: &OnlineSoftmax, want: &OnlineSoftmax, what: &str) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.m), bits(&want.m), "{what}: m");
    assert_eq!(bits(&got.l), bits(&want.l), "{what}: l");
    for r in 0..want.rows() {
        assert_eq!(
            bits(got.acc_row(r)),
            bits(want.acc_row(r)),
            "{what}: acc row {r}"
        );
    }
}

/// Query blocks of 2, 1 and 8 rows, then of 1 and 2 in turn, every
/// element times `gain`.
fn query_blocks(n: usize, dim: usize, seed: u64, gain: f32) -> Vec<Vec<Vec<f32>>> {
    (0..n)
        .map(|s| {
            let rows = [2, 1, 8].get(s).map_or(2 - s % 2, |&rows| rows);
            let q = matrix(rows, dim, seed ^ (s as u64 + 1));
            TokenMatrix::from_fn(rows, dim, |r, c| q[r][c] * gain).to_rows()
        })
        .collect()
}

/// Asserts that the exp arguments `args` (rows of `tokens`) spread wider
/// than 104 and that some 8-token chunk of a row holds arguments on both
/// sides of libm's `|x| ≥ 88` path, with zero and subnormal
/// probabilities among the rest.
fn assert_wide_spread(args: &[f32], tokens: usize, what: &str) {
    let spread = args.iter().fold(0.0f32, |a, &x| a.min(x));
    assert!(spread < -104.0, "{what}: spread {spread}");
    let mixed = args
        .chunks_exact(tokens)
        .flat_map(|row| row.chunks(8))
        .any(|chunk| chunk.iter().any(|&x| x <= -88.0) && chunk.iter().any(|&x| x > -88.0));
    assert!(mixed, "{what}: no 8-token chunk straddles -88");
    let probs: Vec<f32> = args.iter().map(|x| x.exp()).collect();
    assert!(probs.contains(&0.0), "{what}: no zero");
    assert!(
        probs.iter().any(|p| p.is_subnormal()),
        "{what}: no subnormal"
    );
}

/// Runs both kernels, on both engines, over `n_blocks` blocks of
/// `tokens × dim` and demands the oracle's bits: the solo walk over all
/// blocks for query blocks of 2, 1 and 8 rows, the cascade walk — for one
/// sharer and for sixteen with uneven query blocks — with all but the
/// last block as the shared prefix. Queries are scaled by `gain`; returns
/// every exp argument of the oracle's walks.
fn check(scheme: QuantScheme, tokens: usize, dim: usize, n_blocks: usize, gain: f32) -> Vec<f32> {
    let codec = FragmentCodec::new(PackLayout::sm80_default());
    let seed = (tokens * dim * n_blocks) as u64;
    let blocks: Vec<PackedBlock> = (0..n_blocks as u64)
        .map(|b| {
            let k = matrix(tokens, dim, seed ^ (b << 8));
            let v = matrix(tokens, dim, seed ^ (b << 8) ^ 0xBEEF);
            codec.encode(&k, &v, scheme)
        })
        .collect();
    let all: Vec<&PackedBlock> = blocks.iter().collect();
    let decoded: Vec<Decoded> = blocks.iter().map(|b| codec.decode(b, scheme)).collect();
    let queries = query_blocks(16, dim, seed, gain);
    let scale = 1.0 / (dim as f32).sqrt();
    let (prefix, suffix) = all.split_at(n_blocks.max(2) - 1);
    let mut args = Vec::new();

    for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
        let what = format!("{scheme} {engine:?} {tokens}x{dim} blocks={n_blocks} gain={gain}");
        let want: Vec<OnlineSoftmax> = queries
            .iter()
            .map(|q| oracle_walk(q, &decoded, scale, engine, &mut args))
            .collect();
        for (q, want) in queries[..3].iter().zip(&want) {
            let mut fused = OnlineSoftmax::new(q.len(), dim);
            attend_packed_blocks_fused(q, &all, &codec, scheme, scale, engine, &mut fused);
            let rows = q.len();
            assert_same_bits(&fused, want, &format!("fused {what} rows={rows}"));
        }

        let no_residual = TokenMatrix::new(dim);
        for sharers in [1, 16] {
            let views: Vec<PrefixSharer<'_, &PackedBlock>> = queries[..sharers]
                .iter()
                .map(|q_block| PrefixSharer {
                    q_block,
                    suffix,
                    res_k: &no_residual,
                    res_v: &no_residual,
                })
                .collect();
            let (partials, _) =
                attend_packed_blocks_multi(prefix, &views, dim, &codec, scheme, scale, engine);
            assert_eq!(partials.len(), sharers);
            for (s, (got, want)) in partials.iter().zip(&want).enumerate() {
                assert_same_bits(got, want, &format!("multi {what} sharer {s} of {sharers}"));
            }
        }
    }
    args
}

/// `dim ∈ {16, 32, 64, 128}` × 1, 3 and 17 full residual blocks (17 is a
/// walk long enough for the running max to move many times), `dim ∈ {80,
/// 96}` × 1 and 3 (they end a 64-lane pass on one and two 16-lane tiles),
/// the padded 32 × 16 shape whose K lanes hold half a register, and one
/// 3-block walk whose queries are scaled until its scores spread past
/// 104, so one 8-token chunk mixes normal, subnormal and zero
/// probabilities.
fn check_scheme(scheme: QuantScheme) {
    let nr = PackLayout::sm80_default().residual_block(scheme.int_width().unwrap());
    for dim in [16, 32, 64, 128] {
        for n_blocks in [1, 3, 17] {
            check(scheme, nr, dim, n_blocks, 1.0);
        }
    }
    for dim in [80, 96] {
        for n_blocks in [1, 3] {
            check(scheme, nr, dim, n_blocks, 1.0);
        }
    }
    check(scheme, 32, 16, 3, 1.0);
    let args = check(scheme, nr, 64, 3, 40.0);
    assert_wide_spread(&args, nr, &format!("{scheme} gain 40"));
}

#[test]
fn kc4_walks_reproduce_the_scalar_order_bit_for_bit() {
    check_scheme(QuantScheme::kc4());
}

#[test]
fn kc2_walks_reproduce_the_scalar_order_bit_for_bit() {
    check_scheme(QuantScheme::kc2());
}

#[test]
fn kt4_walks_reproduce_the_scalar_order_bit_for_bit() {
    check_scheme(QuantScheme::kt4());
}

#[test]
fn kt2_walks_reproduce_the_scalar_order_bit_for_bit() {
    check_scheme(QuantScheme::kt2());
}

/// The residual kernel over one FP16 window, one scalar operation at a
/// time: each score sums 16-channel k-tiles — per tile a `partial` from
/// `0.0` in channel order, then `total += partial` with `total` from
/// `0.0` — over operands rounded as the engine rounds them; then
/// `exp(s − m)` and a token-ascending `acc += p·v`, all in one fold. Every
/// `s − m` it exponentiates is pushed to `args`, row by row.
fn oracle_residual(
    q: &[Vec<f32>],
    k: &TokenMatrix,
    v: &TokenMatrix,
    scale: f32,
    engine: MatmulEngine,
    args: &mut Vec<f32>,
) -> OnlineSoftmax {
    const K_TILE: usize = 16;
    let operand = |x: f32| match engine {
        MatmulEngine::Mma => F16::from_f32(x).to_f32(),
        MatmulEngine::Wgmma => x,
    };
    let dim = q[0].len();
    let mut state = OnlineSoftmax::new(q.len(), dim);
    let k = TokenMatrix::from_fn(k.tokens(), dim, |t, c| operand(k[t][c]));
    for (r, q_row) in q.iter().enumerate() {
        let a_row: Vec<f32> = q_row.iter().map(|&x| operand(x * scale)).collect();
        let scores: Vec<f32> = k
            .iter()
            .map(|k_row| {
                let mut total = 0.0f32;
                for c0 in (0..dim).step_by(K_TILE) {
                    let mut partial = 0.0f32;
                    for c in c0..(c0 + K_TILE).min(dim) {
                        partial += a_row[c] * k_row[c];
                    }
                    total += partial;
                }
                total
            })
            .collect();
        let m = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut l = 0.0f32;
        for (&s, v_row) in scores.iter().zip(v) {
            args.push(s - m);
            let p = (s - m).exp();
            l += p;
            for (a, &vv) in state.acc_row_mut(r).iter_mut().zip(v_row) {
                *a += p * vv;
            }
        }
        state.m[r] = m;
        state.l[r] = l;
    }
    state
}

/// `attend_residual_fused` against [`oracle_residual`] on both engines, for
/// `dim ∈ {16, 24, 32, 64, 72, 100, 128}` (24 ends on a short k-tile; 72
/// and 100 end a 64-lane `P·V` pass on single lanes) and every window
/// length from 1 to `Nr − 1` of both KC-4 (`Nr` 128) and KC-2 (`Nr` 256) —
/// the second range holds the first — with query blocks of 2, 1 and 8
/// rows in turn. One window per `dim` has `-0.0` keys on every third
/// token, so those scores sum signed zeros, and one is all `-0.0`, so `m`
/// is a zero whose sign is the tree's. One more window, at `dim` 64, is
/// read by queries scaled until its scores spread past 104, so one 8-token
/// chunk mixes normal, subnormal and zero probabilities.
#[test]
fn residual_kernel_reproduces_the_k_tile_tree_bit_for_bit() {
    let layout = PackLayout::sm80_default();
    let nr = [QuantScheme::kc4(), QuantScheme::kc2()]
        .map(|s| layout.residual_block(s.int_width().unwrap()))
        .into_iter()
        .max()
        .unwrap();
    for dim in [16, 24, 32, 64, 72, 100, 128] {
        let scale = 1.0 / (dim as f32).sqrt();
        let queries = query_blocks(3, dim, dim as u64, 1.0);
        let k_all = matrix(nr, dim, dim as u64 ^ 0x51);
        let v_all = matrix(nr, dim, dim as u64 ^ 0xA7);
        let signed_zeros =
            TokenMatrix::from_fn(
                nr - 1,
                dim,
                |t, c| if t % 3 == 1 { -0.0 } else { k_all[t][c] },
            );
        let all_negative_zero = TokenMatrix::from_fn(7, dim, |_, _| -0.0);
        let mut windows: Vec<(TokenMatrix, TokenMatrix)> = (1..nr)
            .map(|len| (k_all.slice_rows(0..len), v_all.slice_rows(0..len)))
            .collect();
        windows.push((signed_zeros, v_all.slice_rows(0..nr - 1)));
        windows.push((all_negative_zero, v_all.slice_rows(0..7)));
        for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
            for (i, (k, v)) in windows.iter().enumerate() {
                let q = &queries[i % 3];
                let mut got = OnlineSoftmax::new(q.len(), dim);
                attend_residual_fused(q, k, v, scale, engine, &mut got);
                let want = oracle_residual(q, k, v, scale, engine, &mut Vec::new());
                let what = format!(
                    "residual {engine:?} dim={dim} len={} rows={}",
                    k.tokens(),
                    q.len()
                );
                assert_same_bits(&got, &want, &what);
            }
        }
    }
    let dim = 64;
    let scale = 1.0 / (dim as f32).sqrt();
    let k = matrix(nr - 1, dim, 0x77);
    let v = matrix(nr - 1, dim, 0x78);
    for (engine, q) in [MatmulEngine::Mma, MatmulEngine::Wgmma]
        .into_iter()
        .flat_map(|e| {
            query_blocks(3, dim, 0x79, 40.0)
                .into_iter()
                .map(move |q| (e, q))
        })
    {
        let mut got = OnlineSoftmax::new(q.len(), dim);
        attend_residual_fused(&q, &k, &v, scale, engine, &mut got);
        let mut args = Vec::new();
        let want = oracle_residual(&q, &k, &v, scale, engine, &mut args);
        let what = format!("residual {engine:?} gain 40 rows={}", q.len());
        assert_same_bits(&got, &want, &what);
        if q.len() == 8 {
            assert_wide_spread(&args, nr - 1, &what);
        }
    }
}
