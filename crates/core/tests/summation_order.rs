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

/// One query block folded over `blocks`, one scalar operation at a time.
fn oracle_walk(
    q: &[Vec<f32>],
    blocks: &[Decoded],
    scale: f32,
    engine: MatmulEngine,
) -> OnlineSoftmax {
    let dim = q[0].len();
    let mut state = OnlineSoftmax::new(q.len(), dim);
    for (k, v) in blocks {
        for (r, q_row) in q.iter().enumerate() {
            let scores: Vec<f32> = k
                .iter()
                .map(|k_row| {
                    let mut acc = 0.0f32;
                    for (&x, &kk) in q_row.iter().zip(k_row) {
                        let a = match engine {
                            MatmulEngine::Mma => F16::from_f32(x * scale).to_f32(),
                            MatmulEngine::Wgmma => x * scale,
                        };
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

/// Runs both kernels, on both engines, over `n_blocks` blocks of
/// `tokens × dim` and demands the oracle's bits: the solo walk over all
/// blocks, the cascade walk — for one sharer and for sixteen with uneven
/// query blocks — with all but the last block as the shared prefix.
fn check(scheme: QuantScheme, tokens: usize, dim: usize, n_blocks: usize) {
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
    let queries: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|s| matrix(2 - s % 2, dim, seed ^ (s as u64 + 1)).to_rows())
        .collect();
    let scale = 1.0 / (dim as f32).sqrt();
    let (prefix, suffix) = all.split_at(n_blocks.max(2) - 1);

    for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
        let what = format!("{scheme} {engine:?} {tokens}x{dim} blocks={n_blocks}");
        let mut fused = OnlineSoftmax::new(2, dim);
        attend_packed_blocks_fused(&queries[0], &all, &codec, scheme, scale, engine, &mut fused);
        let want = oracle_walk(&queries[0], &decoded, scale, engine);
        assert_same_bits(&fused, &want, &format!("fused {what}"));

        let want: Vec<OnlineSoftmax> = queries
            .iter()
            .map(|q| oracle_walk(q, &decoded, scale, engine))
            .collect();
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
}

/// `dim ∈ {16, 32, 64, 128}` × 1, 3 and 17 full residual blocks (17 is a
/// walk long enough for the running max to move many times), plus the
/// padded 32 × 16 shape whose K lanes hold half a register.
fn check_scheme(scheme: QuantScheme) {
    let nr = PackLayout::sm80_default().residual_block(scheme.int_width().unwrap());
    for dim in [16, 32, 64, 128] {
        for n_blocks in [1, 3, 17] {
            check(scheme, nr, dim, n_blocks);
        }
    }
    check(scheme, 32, 16, 3);
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
/// `exp(s − m)` and a token-ascending `acc += p·v`, all in one fold.
fn oracle_residual(
    q: &[Vec<f32>],
    k: &TokenMatrix,
    v: &TokenMatrix,
    scale: f32,
    engine: MatmulEngine,
) -> OnlineSoftmax {
    const K_TILE: usize = 16;
    let operand = |x: f32| match engine {
        MatmulEngine::Mma => F16::from_f32(x).to_f32(),
        MatmulEngine::Wgmma => x,
    };
    let dim = q[0].len();
    let mut state = OnlineSoftmax::new(q.len(), dim);
    for (r, q_row) in q.iter().enumerate() {
        let scores: Vec<f32> = k
            .iter()
            .map(|k_row| {
                let mut total = 0.0f32;
                for c0 in (0..dim).step_by(K_TILE) {
                    let mut partial = 0.0f32;
                    for c in c0..(c0 + K_TILE).min(dim) {
                        partial += operand(q_row[c] * scale) * operand(k_row[c]);
                    }
                    total += partial;
                }
                total
            })
            .collect();
        let m = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut l = 0.0f32;
        for (&s, v_row) in scores.iter().zip(v) {
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
/// `dim ∈ {16, 24, 32, 64, 128}` (24 ends on a short k-tile) and every
/// window length from 1 to `Nr − 1` of both KC-4 (`Nr` 128) and KC-2
/// (`Nr` 256) — the second range holds the first. One window per `dim`
/// has `-0.0` keys on every third token, so those scores sum signed zeros,
/// and one is all `-0.0`, so `m` is a zero whose sign is the tree's.
#[test]
fn residual_kernel_reproduces_the_k_tile_tree_bit_for_bit() {
    let layout = PackLayout::sm80_default();
    let nr = [QuantScheme::kc4(), QuantScheme::kc2()]
        .map(|s| layout.residual_block(s.int_width().unwrap()))
        .into_iter()
        .max()
        .unwrap();
    for dim in [16, 24, 32, 64, 128] {
        let scale = 1.0 / (dim as f32).sqrt();
        let q = matrix(2, dim, dim as u64).to_rows();
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
            for (k, v) in &windows {
                let mut got = OnlineSoftmax::new(q.len(), dim);
                attend_residual_fused(&q, k, v, scale, engine, &mut got);
                let want = oracle_residual(&q, k, v, scale, engine);
                let what = format!("residual {engine:?} dim={dim} len={}", k.tokens());
                assert_same_bits(&got, &want, &what);
            }
        }
    }
}
