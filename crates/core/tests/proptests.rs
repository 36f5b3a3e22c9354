//! Property-based tests for the BitDecoding engine: softmax equivalences,
//! codec layout coordination, split-KV invariance, and the fused
//! flat-layout decode path against its materializing reference.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::codec::FragmentCodec;
use bd_core::softmax::{reference_attention, OnlineSoftmax};
use bd_core::{
    attend_packed_blocks, attend_packed_blocks_fused, attend_packed_blocks_multi, attend_residual,
    query_transform, ungroup_outputs, AttentionConfig, MatmulEngine, PrefixSharer,
};
use bd_gpu_sim::Tile;
use bd_kvcache::{BlockCodec, PackLayout, PackedBlock, QuantScheme, TokenMatrix};
use bd_lowbit::fastpath::{register_ops, FastDequantOps};
use bd_lowbit::{codes_per_u32, PackOrder};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut s = seed | 1;
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
                    ((s >> 40) as i32 % 1000) as f32 / 250.0 - 2.0
                })
                .collect()
        })
        .collect()
}

fn max_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, f32::max)
}

fn arb_int_scheme() -> impl Strategy<Value = QuantScheme> {
    prop_oneof![
        Just(QuantScheme::kc4()),
        Just(QuantScheme::kt4()),
        Just(QuantScheme::kc2()),
        Just(QuantScheme::kt2()),
    ]
}

fn arb_engine() -> impl Strategy<Value = MatmulEngine> {
    prop_oneof![Just(MatmulEngine::Mma), Just(MatmulEngine::Wgmma)]
}

/// Encodes `n_blocks` full residual blocks of synthetic KV, returning the
/// logical matrices and the packed blocks.
fn synth_blocks(
    codec: &FragmentCodec,
    scheme: QuantScheme,
    n_blocks: usize,
    dim: usize,
    seed: u64,
) -> (TokenMatrix, TokenMatrix, Vec<PackedBlock>) {
    let nr = PackLayout::sm80_default().residual_block(scheme.int_width().unwrap());
    let k: TokenMatrix = matrix(nr * n_blocks, dim, seed).into();
    let v: TokenMatrix = matrix(nr * n_blocks, dim, seed ^ 0xBEEF).into();
    let blocks = (0..n_blocks)
        .map(|b| {
            codec.encode(
                &k.slice_rows(b * nr..(b + 1) * nr),
                &v.slice_rows(b * nr..(b + 1) * nr),
                scheme,
            )
        })
        .collect();
    (k, v, blocks)
}

proptest! {
    /// Online (tiled) softmax equals dense attention for any tiling.
    #[test]
    fn online_softmax_equals_dense(seed: u64, tiles in 1usize..6, tile_tokens in 4usize..24) {
        let rows = 3;
        let dim = 8;
        let total = tiles * tile_tokens;
        let q = matrix(rows, dim, seed);
        let k = matrix(total, dim, seed ^ 1);
        let v = matrix(total, dim, seed ^ 2);
        let scale = 0.3;

        let mut state = OnlineSoftmax::new(rows, dim);
        for i in 0..tiles {
            let range = i * tile_tokens..(i + 1) * tile_tokens;
            let s = Tile::from_fn(rows, tile_tokens, |r, c| {
                let t = range.start + c;
                q[r].iter().zip(&k[t]).map(|(a, b)| a * b).sum::<f32>() * scale
            });
            let vt = Tile::from_fn(tile_tokens, dim, |t, c| v[range.start + t][c]);
            state.step_tile(&s, &vt);
        }
        let got = state.finish();
        let want = reference_attention(&q, &k, &v, scale);
        prop_assert!(max_diff(&got, &want) < 1e-4);
    }

    /// Split-KV merge is invariant to the split point.
    #[test]
    fn split_point_does_not_matter(seed: u64, split_at in 1usize..7) {
        let rows = 2;
        let dim = 8;
        let tile_tokens = 8;
        let tiles = 8;
        let q = matrix(rows, dim, seed);
        let k = matrix(tiles * tile_tokens, dim, seed ^ 3);
        let v = matrix(tiles * tile_tokens, dim, seed ^ 4);
        let scale = 0.25;

        let run = |tile_range: std::ops::Range<usize>| {
            let mut st = OnlineSoftmax::new(rows, dim);
            for i in tile_range {
                let base = i * tile_tokens;
                let s = Tile::from_fn(rows, tile_tokens, |r, c| {
                    q[r].iter().zip(&k[base + c]).map(|(a, b)| a * b).sum::<f32>() * scale
                });
                let vt = Tile::from_fn(tile_tokens, dim, |t, c| v[base + t][c]);
                st.step_tile(&s, &vt);
            }
            st
        };
        let full = run(0..tiles).finish();
        let merged = OnlineSoftmax::merge(vec![run(0..split_at), run(split_at..tiles)]).finish();
        prop_assert!(max_diff(&full, &merged) < 1e-4);
    }

    /// N-way merge of disjoint partials equals the single-state pass for
    /// any shard count — the invariant the tensor-parallel all-reduce
    /// relies on (1-shard vs N-shard equivalence of `OnlineSoftmax::merge`).
    #[test]
    fn merge_is_shard_count_invariant(seed: u64, shards in 2usize..6) {
        let rows = 3;
        let dim = 8;
        let tiles = 12;
        let tile_tokens = 8;
        let q = matrix(rows, dim, seed);
        let k = matrix(tiles * tile_tokens, dim, seed ^ 5);
        let v = matrix(tiles * tile_tokens, dim, seed ^ 6);
        let scale = 0.2;

        let step = |st: &mut OnlineSoftmax, i: usize| {
            let base = i * tile_tokens;
            let s = Tile::from_fn(rows, tile_tokens, |r, c| {
                q[r].iter().zip(&k[base + c]).map(|(a, b)| a * b).sum::<f32>() * scale
            });
            let vt = Tile::from_fn(tile_tokens, dim, |t, c| v[base + t][c]);
            st.step_tile(&s, &vt);
        };
        let mut single = OnlineSoftmax::new(rows, dim);
        for i in 0..tiles {
            step(&mut single, i);
        }
        let chunk = tiles.div_ceil(shards);
        let partials: Vec<OnlineSoftmax> = (0..tiles)
            .step_by(chunk)
            .map(|start| {
                let mut st = OnlineSoftmax::new(rows, dim);
                for i in start..(start + chunk).min(tiles) {
                    step(&mut st, i);
                }
                st
            })
            .collect();
        let merged = OnlineSoftmax::merge(partials).finish();
        prop_assert!(max_diff(&single.finish(), &merged) < 1e-4);
    }

    /// Cooperative warped softmax equals the reference for every Wn that
    /// divides the tile.
    #[test]
    fn cooperative_softmax_wn_invariant(seed: u64, wn in 1usize..5) {
        let rows = 4;
        let dim = 8;
        let tokens = 32;
        let s_vals = matrix(rows, tokens, seed);
        let v_vals = matrix(tokens, dim, seed ^ 5);
        let s = Tile::from_fn(rows, tokens, |r, c| s_vals[r][c] * 2.0);
        let v = Tile::from_fn(tokens, dim, |t, c| v_vals[t][c]);
        if tokens % wn != 0 {
            return Ok(());
        }
        let mut reference = OnlineSoftmax::new(rows, dim);
        reference.step_tile(&s, &v);
        let mut warped = OnlineSoftmax::new(rows, dim);
        warped.step_tile_warped(&s, &v, wn, true);
        prop_assert!(max_diff(&reference.finish(), &warped.finish()) < 1e-5);
    }

    /// Query transform and ungroup are mutual inverses for any valid GQA
    /// configuration.
    #[test]
    fn query_transform_round_trips(hkv in 1usize..8, gq in 1usize..8, dim in 1usize..32, seed: u64) {
        let attn = AttentionConfig::new(hkv * gq, hkv, dim);
        let q = matrix(attn.heads_q, dim, seed);
        let grouped = query_transform(&q, &attn);
        prop_assert_eq!(grouped.len(), hkv);
        for block in &grouped {
            prop_assert_eq!(block.len(), gq);
        }
        prop_assert_eq!(ungroup_outputs(&grouped, &attn), q);
    }

    /// Fragment codec: same-layout decode reconstructs, any mismatched
    /// layout corrupts (for blocks large enough to span warps).
    #[test]
    fn fragment_codec_layout_coordination(seed: u64, mismatch_kind in 0usize..2) {
        let scheme = QuantScheme::kc4();
        let layout = PackLayout::sm80_default();
        let nr = layout.residual_block(bd_lowbit::BitWidth::B4);
        let k: TokenMatrix = matrix(nr, 32, seed).into();
        let v: TokenMatrix = matrix(nr, 32, seed ^ 9).into();
        let good = FragmentCodec::new(layout);
        let block = good.encode(&k, &v, scheme);
        let (dk, _) = good.decode(&block, scheme);
        prop_assert!(max_diff(&dk.to_rows(), &k.to_rows()) < 0.4, "same layout must reconstruct");

        let bad_layout = match mismatch_kind {
            0 => PackLayout { order: PackOrder::Linear, ..layout },
            _ => PackLayout { warps_n: 2, ..layout },
        };
        let bad = FragmentCodec::new(bad_layout);
        let (wrong, _) = bad.decode(&block, scheme);
        prop_assert!(max_diff(&wrong.to_rows(), &k.to_rows()) > 0.4, "mismatch must corrupt");

        // Fragment plans are interned process-wide and `good`'s is cached
        // by now: a plan is keyed by the *decoder's* layout, so the
        // mismatched decoder must still read garbage through the fused
        // walk, and must not displace the plan `good` decodes with.
        let (mut fk, mut fv) = (TokenMatrix::new(0), TokenMatrix::new(0));
        bad.decode_block_fused(&block, scheme, &mut fk, &mut fv);
        prop_assert_eq!(&fk, &wrong, "fused and materializing agree on the garbage");
        good.decode_block_fused(&block, scheme, &mut fk, &mut fv);
        prop_assert_eq!(&fk, &dk, "the matching decoder still reconstructs");
    }

    /// Plan-driven fused decode equals `BlockCodec::decode` bit for bit and
    /// charges exactly one fast-dequant register conversion per 32-bit
    /// register streamed, for every `Wn`, pack order, integer scheme (both
    /// widths, both key granularities; K and V cover both B-operand
    /// orientations) and head dim.
    #[test]
    fn plan_driven_fused_decode_is_bitwise_with_exact_op_counts(
        seed: u64,
        warps_n in prop_oneof![Just(1usize), Just(2), Just(4)],
        order in prop_oneof![Just(PackOrder::Linear), Just(PackOrder::FastDequant)],
        scheme in arb_int_scheme(),
        dim in prop_oneof![Just(16usize), Just(32), Just(64), Just(128)],
    ) {
        let layout = PackLayout { warps_n, order, ..PackLayout::sm80_default() };
        let codec = FragmentCodec::new(layout);
        let width = scheme.int_width().unwrap();
        let nr = layout.residual_block(width);
        let k: TokenMatrix = matrix(nr, dim, seed).into();
        let v: TokenMatrix = matrix(nr, dim, seed ^ 0xF00D).into();
        let block = codec.encode(&k, &v, scheme);
        let (dk, dv) = codec.decode(&block, scheme);
        let (mut fk, mut fv) = (TokenMatrix::new(0), TokenMatrix::new(0));
        let ops = codec.decode_block_fused(&block, scheme, &mut fk, &mut fv);
        prop_assert_eq!(&fk, &dk, "K ({}, {})", layout, scheme);
        prop_assert_eq!(&fv, &dv, "V ({}, {})", layout, scheme);

        let regs32 = (2 * nr * dim / codes_per_u32(width)) as u32;
        let per_reg = register_ops(width);
        prop_assert_eq!(
            ops,
            FastDequantOps {
                lop3: per_reg.lop3 * regs32,
                shifts: per_reg.shifts * regs32,
                hfma2: per_reg.hfma2 * regs32,
            }
        );
    }

    /// The fused flat-layout decode path matches the materializing path
    /// within f32 accumulation-order noise (1e-4 max-abs-diff) for every
    /// integer scheme and both MMA engines, and both track the dense FP32
    /// reference within quantization error. Row sums of the normalized
    /// attention weights are checked implicitly: identical `l` means
    /// identical normalization.
    #[test]
    fn fused_decode_matches_materializing_and_reference(
        seed: u64,
        scheme in arb_int_scheme(),
        engine in arb_engine(),
        n_blocks in 1usize..4,
    ) {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let dim = 32;
        let gq = 4;
        let (k, v, blocks) = synth_blocks(&codec, scheme, n_blocks, dim, seed);
        let q = matrix(gq, dim, seed ^ 77);
        let scale = 1.0 / (dim as f32).sqrt();

        let mut materializing = OnlineSoftmax::new(gq, dim);
        attend_packed_blocks(
            &q, &blocks, &codec, scheme, scale, 4, true, engine, &mut materializing,
        );
        let mut fused = OnlineSoftmax::new(gq, dim);
        let ops = attend_packed_blocks_fused(&q, &blocks, &codec, scheme, scale, engine, &mut fused);
        prop_assert!(ops.total() > 0, "dequant work must be accounted");

        let a = materializing.finish();
        let b = fused.finish();
        prop_assert!(
            max_diff(&a, &b) < 1e-4,
            "fused vs materializing diff {} ({scheme}, {engine:?})",
            max_diff(&a, &b)
        );

        // Both paths attend over the *decoded* values; compare against the
        // dense reference on those values (exact up to f16/engine noise).
        let (dk, dv) = codec.decode(&blocks[0], scheme);
        let mut dk_all = dk;
        let mut dv_all = dv;
        for block in &blocks[1..] {
            let (bk, bv) = codec.decode(block, scheme);
            dk_all.extend_rows(&bk);
            dv_all.extend_rows(&bv);
        }
        prop_assert_eq!(dk_all.tokens(), k.tokens());
        prop_assert_eq!(dv_all.tokens(), v.tokens());
        let want = reference_attention(&q, &dk_all, &dv_all, scale);
        prop_assert!(
            max_diff(&b, &want) < 2e-2,
            "fused vs dense-reference diff {}",
            max_diff(&b, &want)
        );
    }

    /// Edge cases of the fused path: an empty block list leaves the state
    /// untouched, and a lone residual tail (partial block, down to a
    /// single token) still matches the dense reference.
    #[test]
    fn fused_edges_empty_and_partial_tail(seed: u64, tail in 1usize..17) {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let dim = 16;
        let gq = 2;
        let q = matrix(gq, dim, seed ^ 13);
        let scale = 1.0 / (dim as f32).sqrt();

        // Empty packed region: identity on the state.
        let mut state = OnlineSoftmax::new(gq, dim);
        let none: &[PackedBlock] = &[];
        let ops = attend_packed_blocks_fused(
            &q, none, &codec, QuantScheme::kc4(), scale, MatmulEngine::Mma, &mut state,
        );
        prop_assert_eq!(ops.total(), 0);

        // Partial tail (1..=16 tokens, including single-token decode) runs
        // through the residual kernel on the same state.
        let res_k: TokenMatrix = matrix(tail, dim, seed ^ 14).into();
        let res_v: TokenMatrix = matrix(tail, dim, seed ^ 15).into();
        attend_residual(&q, &res_k, &res_v, scale, 4, true, MatmulEngine::Mma, &mut state);
        let got = state.finish();
        let want = reference_attention(&q, &res_k, &res_v, scale);
        prop_assert!(max_diff(&got, &want) < 2e-2, "tail = {tail}");
    }

    /// Full pipeline: packed blocks + ragged residual through the fused
    /// path equal the dense reference over the logically decoded KV.
    #[test]
    fn fused_pipeline_with_tail_matches_reference(
        seed: u64,
        scheme in arb_int_scheme(),
        n_blocks in 1usize..3,
        tail in 0usize..9,
    ) {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let dim = 32;
        let gq = 2;
        let (k, v, blocks) = synth_blocks(&codec, scheme, n_blocks, dim, seed);
        let res_k: TokenMatrix = matrix(tail, dim, seed ^ 21).into();
        let res_v: TokenMatrix = matrix(tail, dim, seed ^ 22).into();
        let q = matrix(gq, dim, seed ^ 23);
        let scale = 1.0 / (dim as f32).sqrt();

        let mut state = OnlineSoftmax::new(gq, dim);
        attend_packed_blocks_fused(
            &q, &blocks, &codec, scheme, scale, MatmulEngine::Mma, &mut state,
        );
        if tail > 0 {
            attend_residual(&q, &res_k, &res_v, scale, 4, true, MatmulEngine::Mma, &mut state);
        }
        let got = state.finish();

        // Dense reference over decoded packed values + the FP16 residual.
        let (mut dk, mut dv) = codec.decode(&blocks[0], scheme);
        for block in &blocks[1..] {
            let (bk, bv) = codec.decode(block, scheme);
            dk.extend_rows(&bk);
            dv.extend_rows(&bv);
        }
        dk.extend_rows(&res_k);
        dv.extend_rows(&res_v);
        prop_assert_eq!(dk.tokens(), k.tokens() + tail);
        prop_assert_eq!(dv.tokens(), v.tokens() + tail);
        let want = reference_attention(&q, &dk, &dv, scale);
        prop_assert!(
            max_diff(&got, &want) < 2e-2,
            "pipeline diff {} ({scheme}, blocks {n_blocks}, tail {tail})",
            max_diff(&got, &want)
        );
    }

    /// Cascade multi-query walk: each sharer's partial is **bitwise**
    /// identical to the independent per-sequence fused walk over its
    /// full `prefix ++ suffix` block list, for any prefix length, sharer
    /// count, ragged suffix lengths, scheme, and engine — and the deduped
    /// dequant-op count is strictly below the per-sequence sum whenever a
    /// prefix is actually shared.
    #[test]
    fn multi_query_walk_is_bitwise_per_sharer(
        seed: u64,
        scheme in arb_int_scheme(),
        engine in arb_engine(),
        p in 0usize..4,
        n_sharers in 1usize..5,
    ) {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let dim = 16;
        let gq = 2;
        let (_, _, prefix) = synth_blocks(&codec, scheme, p.max(1), dim, seed);
        let prefix = &prefix[..p];
        let suffixes: Vec<Vec<PackedBlock>> = (0..n_sharers)
            .map(|i| {
                let n = (seed as usize >> (i * 2)) % 3;
                let (_, _, b) = synth_blocks(&codec, scheme, n.max(1), dim, seed ^ (i as u64 + 7));
                b.into_iter().take(n).collect()
            })
            .collect();
        let qs: Vec<Vec<Vec<f32>>> = (0..n_sharers)
            .map(|i| matrix(gq, dim, seed ^ (0x51 + i as u64)))
            .collect();
        let scale = 1.0 / (dim as f32).sqrt();

        let no_residual = TokenMatrix::new(dim);
        let sharers: Vec<PrefixSharer<'_, PackedBlock>> = qs
            .iter()
            .zip(&suffixes)
            .map(|(q_block, suffix)| PrefixSharer {
                q_block,
                suffix,
                res_k: &no_residual,
                res_v: &no_residual,
            })
            .collect();
        let (partials, multi_ops) =
            attend_packed_blocks_multi(prefix, &sharers, dim, &codec, scheme, scale, engine);
        prop_assert_eq!(partials.len(), n_sharers);

        let mut solo_ops_total = 0u32;
        for ((q, suffix), got) in qs.iter().zip(&suffixes).zip(&partials) {
            let all: Vec<&PackedBlock> = prefix.iter().chain(suffix.iter()).collect();
            let mut want = OnlineSoftmax::new(gq, dim);
            let solo_ops = attend_packed_blocks_fused(
                q, &all, &codec, scheme, scale, engine, &mut want,
            );
            solo_ops_total += solo_ops.total();
            let got_rows = got.clone().finish();
            let want_rows = want.finish();
            for (gr, wr) in got_rows.iter().zip(&want_rows) {
                for (g, w) in gr.iter().zip(wr) {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "multi partial must be bitwise (p={}, sharers={})", p, n_sharers
                    );
                }
            }
        }
        if p > 0 && n_sharers > 1 {
            prop_assert!(
                multi_ops.total() < solo_ops_total,
                "shared prefix must dedup dequant work ({} vs {})",
                multi_ops.total(), solo_ops_total
            );
        } else {
            prop_assert_eq!(multi_ops.total(), solo_ops_total);
        }
    }
}
