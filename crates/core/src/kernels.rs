//! Functional kernel implementations: attention executed through the
//! simulated Tensor Core ISA.
//!
//! These routines compute *real values* — every matrix product goes through
//! [`bd_gpu_sim::mma`] tile by tile, so fragment-layout bugs corrupt the
//! output exactly as they would on hardware. The analytic twin of this code
//! lives in [`crate::profiles`].
//!
//! Two functional decode paths exist:
//!
//! * [`attend_packed_blocks`] — the **materializing** reference path: each
//!   block is decoded to a full [`TokenMatrix`], round-tripped through
//!   [`Tile`]s and transposes, and multiplied tile-by-tile on the simulated
//!   MMA fragments. It is what the fused path is tested against, and it
//!   models the non-cooperative multi-warp softmax race (paper Table III),
//!   which requires the explicit warp-sliced walk.
//! * [`attend_packed_blocks_fused`] / [`attend_packed_blocks_multi`] — the
//!   **fused flat-layout** hot path (paper §IV): packed words stream
//!   through the fast-dequant model straight into each GEMM's B operand,
//!   laid out along its N dimension (K as a channel-major Kᵀ tile, V
//!   token-major) — no intermediate K/V materialization, no `transposed()`
//!   round-trips. Both run one block-walk body, sequentially in block
//!   order: solo for one query block, cascade for several sharers' rows
//!   back to back over a shared prefix. Nothing here reads the host — a
//!   partial is a function of its inputs; parallelism lives across heads
//!   ([`crate::BitDecoder::decode`], the serve worker pool), never inside
//!   one. Numerically equivalent to the materializing path within f32
//!   accumulation-order noise (see `tests/proptests.rs`).

use crate::codec::{BlockDecoder, FragmentCodec};
use crate::softmax::{row_times_matrix, OnlineSoftmax};
use bd_gpu_sim::{
    ldmatrix, mma, mma_block_scaled_fp4, wgmma_ss, AccFragment, FragmentLayout, MmaShape, Operand,
    Tile,
};
use bd_kvcache::window::write_panel;
use bd_kvcache::{BlockCodec, KeyWindow, PackedBlock, QuantScheme, TokenMatrix, PANEL_TOKENS};
use bd_lowbit::f16::round_through_f16;
use bd_lowbit::fastpath::FastDequantOps;
use bd_lowbit::fp4::{quantize_fp4_block, E2M1};
use bd_lowbit::isa::Isa;
use bd_lowbit::Fp4Kind;
use std::borrow::Borrow;
use std::cell::RefCell;

/// Which Tensor Core instruction family executes the attention GEMMs in
/// the functional simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatmulEngine {
    /// `mma.m16n8k16` warp tiles (SM80/SM89 path).
    Mma,
    /// `wgmma.m64n64k16` warpgroup tiles with B in shared memory
    /// (SM90 path; paper §V-D(1)).
    Wgmma,
}

/// Multiplies `a (m × k)` by `b (k × n)` using `mma.m16n8k16` warp tiles,
/// padding every dimension to the tile grid (the padding models Tensor
/// Core tile underfill — partial query groups still issue full tiles).
pub fn matmul_via_mma(a: &Tile, b: &Tile) -> Tile {
    let shape = MmaShape::M16N8K16;
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    let mt = m.div_ceil(shape.m());
    let nt = n.div_ceil(shape.n());
    let kt = k.div_ceil(shape.k());

    let mut out = Tile::zeros(m, n);
    let la = FragmentLayout::new(shape, Operand::A);
    let lb = FragmentLayout::new(shape, Operand::B);
    for mi in 0..mt {
        for ni in 0..nt {
            let mut acc = AccFragment::zeroed(shape);
            for ki in 0..kt {
                let a_tile = Tile::from_fn(shape.m(), shape.k(), |r, c| {
                    let (gr, gc) = (mi * shape.m() + r, ki * shape.k() + c);
                    if gr < m && gc < k {
                        a[(gr, gc)]
                    } else {
                        0.0
                    }
                });
                let b_tile = Tile::from_fn(shape.k(), shape.n(), |r, c| {
                    let (gr, gc) = (ki * shape.k() + r, ni * shape.n() + c);
                    if gr < k && gc < n {
                        b[(gr, gc)]
                    } else {
                        0.0
                    }
                });
                let fa = ldmatrix(&a_tile, la);
                let fb = ldmatrix(&b_tile, lb);
                mma(shape, &fa, &fb, &mut acc);
            }
            let acc_tile = acc.to_tile();
            for r in 0..shape.m() {
                for c in 0..shape.n() {
                    let (gr, gc) = (mi * shape.m() + r, ni * shape.n() + c);
                    if gr < m && gc < n {
                        out[(gr, gc)] = acc_tile[(r, c)];
                    }
                }
            }
        }
    }
    out
}

/// Multiplies `a (m × k)` by `b (k × n)` using `wgmma.m64n64k16` warpgroup
/// tiles. The B operand is consumed from (simulated) shared memory — on
/// Hopper, dequantized values reach it via `STSM` without register-layout
/// correction, which is exactly why the `_SS` form matters to BitDecoding.
pub fn matmul_via_wgmma(a: &Tile, b: &Tile) -> Tile {
    const M: usize = 64;
    const N: usize = 64;
    const K: usize = 16;
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    let mut out = Tile::zeros(m, n);
    for mi in 0..m.div_ceil(M) {
        for ni in 0..n.div_ceil(N) {
            let mut acc = Tile::zeros(M, N);
            for ki in 0..k.div_ceil(K) {
                let a_tile = Tile::from_fn(M, K, |r, c| {
                    let (gr, gc) = (mi * M + r, ki * K + c);
                    if gr < m && gc < k {
                        a[(gr, gc)]
                    } else {
                        0.0
                    }
                });
                let b_tile = Tile::from_fn(K, N, |r, c| {
                    let (gr, gc) = (ki * K + r, ni * N + c);
                    if gr < k && gc < n {
                        b[(gr, gc)]
                    } else {
                        0.0
                    }
                });
                wgmma_ss(&a_tile, &b_tile, &mut acc);
            }
            for r in 0..M {
                for c in 0..N {
                    let (gr, gc) = (mi * M + r, ni * N + c);
                    if gr < m && gc < n {
                        out[(gr, gc)] = acc[(r, c)];
                    }
                }
            }
        }
    }
    out
}

/// Dispatches a matrix product to the configured instruction family.
pub fn matmul(engine: MatmulEngine, a: &Tile, b: &Tile) -> Tile {
    match engine {
        MatmulEngine::Mma => matmul_via_mma(a, b),
        MatmulEngine::Wgmma => matmul_via_wgmma(a, b),
    }
}

fn rows_to_tile(rows: &[Vec<f32>]) -> Tile {
    Tile::from_fn(rows.len(), rows[0].len(), |r, c| rows[r][c])
}

fn matrix_to_tile(m: &TokenMatrix) -> Tile {
    Tile::from_rows(m.tokens(), m.dim(), m.as_slice().to_vec())
}

/// The functional **Packing Kernel** body for one KV group — the
/// materializing reference path: unpacks each packed block through the
/// codec into a full [`TokenMatrix`], builds and transposes per-block
/// [`Tile`]s, computes `S = (Q·scale)·K^T` and `P·V` on the simulated
/// Tensor Cores, and folds results into the online-softmax state with the
/// configured warp layout.
///
/// The fused flat-layout path ([`attend_packed_blocks_fused`]) avoids all
/// of the intermediate materialization; this path is the reference the
/// fused path is tested against and the only one that can model the
/// non-cooperative `Wn > 1` softmax race, so it is also what the ablation
/// rows of `tab3_coop_softmax` decode through.
///
/// Like every packed-attention kernel here, the block list is generic over
/// [`Borrow<PackedBlock>`]: a contiguous cache passes its `&[PackedBlock]`
/// slice, the paged store passes the `Vec<&PackedBlock>` it gathered
/// through its page table — the kernel walk is identical either way.
#[allow(clippy::too_many_arguments)]
pub fn attend_packed_blocks<B: Borrow<PackedBlock>>(
    q: &[Vec<f32>],
    blocks: &[B],
    codec: &FragmentCodec,
    scheme: QuantScheme,
    scale: f32,
    wn: usize,
    cooperative: bool,
    engine: MatmulEngine,
    state: &mut OnlineSoftmax,
) {
    if blocks.is_empty() {
        return;
    }
    let q_scaled: Vec<Vec<f32>> = q
        .iter()
        .map(|row| row.iter().map(|&x| x * scale).collect())
        .collect();
    let q_tile = rows_to_tile(&q_scaled);
    for block in blocks {
        let (k, v) = codec.decode(block.borrow(), scheme);
        let kt_tile = matrix_to_tile(&k).transposed();
        let s = matmul(engine, &q_tile, &kt_tile);
        let v_tile = matrix_to_tile(&v);
        state.step_tile_warped(&s, &v_tile, wn, cooperative);
    }
}

/// What the fused kernels would otherwise allocate per call or per block,
/// owned per thread: one set of buffers serves every unit a thread runs.
/// The serve session thread's set persists across steps; a thread a step
/// spawns warms its own set up and drops it when the step ends.
#[derive(Default)]
struct KernelScratch {
    /// Per-group dequantization LUT of the tensor being decoded.
    lut: Vec<f32>,
    /// Decoded K block as the `dim × tokens` Kᵀ tile (the packed walk's
    /// only; the residual kernel reads Kᵀ panels).
    k: TokenMatrix,
    /// Decoded V block.
    v: TokenMatrix,
    /// Engine-rounded `q · scale`, flat row-major (every sharer's rows
    /// back to back in the cascade walk).
    q_eff: Vec<f32>,
    /// One block's `rows × tokens` score tile, flat row-major (before the
    /// walk: `q · scale` on its way through FP16 into `q_eff`).
    scores: Vec<f32>,
    /// The residual kernel's `dim × 16` Kᵀ panels written per call, back to
    /// back: every group of a bare [`TokenMatrix`] window, or the partial
    /// group past a [`KeyWindow`]'s last sealed one.
    panels: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::default();
}

/// Appends `q · scale` (rows of `dim` channels) to `out`, rounded as the
/// engine's instruction rounds its A operand: `mma` loads it through FP16
/// fragments, `wgmma` consumes it unrounded.
fn push_effective_queries(
    q: &[Vec<f32>],
    dim: usize,
    scale: f32,
    engine: MatmulEngine,
    unrounded: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    unrounded.clear();
    for row in q {
        assert_eq!(row.len(), dim, "query row width");
        unrounded.extend(row.iter().map(|&x| x * scale));
    }
    let start = out.len();
    out.extend_from_slice(unrounded);
    if engine == MatmulEngine::Mma {
        round_through_f16(unrounded, &mut out[start..]);
    }
}

/// `S = Q_eff · Kᵀ` into `scores` (`rows × tokens`, flat) over the
/// `dim × tokens` Kᵀ tile: tokens on the lanes, every score adding its
/// `q[c] · k[c][t]` terms channel-ascending from `0.0` like the row-dot.
#[inline(always)]
fn score_block(isa: Isa, q_eff: &[f32], kt: &TokenMatrix, scores: &mut Vec<f32>) {
    let (dim, tokens) = (kt.tokens(), kt.dim());
    scores.clear();
    scores.resize(q_eff.len() / dim * tokens, 0.0);
    for (q_row, s_row) in q_eff
        .chunks_exact(dim)
        .zip(scores.chunks_exact_mut(tokens.max(1)))
    {
        row_times_matrix(isa, q_row, kt.as_slice(), s_row);
    }
}

impl KernelScratch {
    /// The packed walk — the one body every fused entry point runs — as the
    /// decoder's instance ([`bd_lowbit::isa::Isa::run`]). Block by block, in
    /// order: decode through the plan, score the Kᵀ tile against the
    /// `q_rows` elements of `q_eff`, and fold the scores into `states`,
    /// whose rows sit back to back in that range.
    fn walk<B: Borrow<PackedBlock>>(
        &mut self,
        decoder: &mut BlockDecoder,
        blocks: &[B],
        q_rows: std::ops::Range<usize>,
        states: &mut [OnlineSoftmax],
    ) -> FastDequantOps {
        decoder.isa.run(
            #[inline(always)]
            |isa| self.walk_blocks(isa, decoder, blocks, q_rows, states),
        )
    }

    /// [`KernelScratch::walk`]'s body, inlined into each instance with
    /// everything it calls per block; `isa` is the instance's constant.
    #[inline(always)]
    fn walk_blocks<B: Borrow<PackedBlock>>(
        &mut self,
        isa: Isa,
        decoder: &mut BlockDecoder,
        blocks: &[B],
        q_rows: std::ops::Range<usize>,
        states: &mut [OnlineSoftmax],
    ) -> FastDequantOps {
        let mut ops = FastDequantOps::default();
        for block in blocks {
            ops += decoder.decode(isa, block.borrow(), &mut self.lut, &mut self.k, &mut self.v);
            let q_eff = &self.q_eff[q_rows.clone()];
            score_block(isa, q_eff, &self.k, &mut self.scores);
            let mut scores = self.scores.as_mut_slice();
            for state in states.iter_mut() {
                let (own, rest) = scores.split_at_mut(state.rows() * self.v.tokens());
                state.step_scores(isa, own, &self.v);
                scores = rest;
            }
        }
        ops
    }
}

/// The fused flat-layout decode-and-attend kernel (paper §IV): for each
/// block, packed u16 words stream through the fast-dequant model straight
/// into the two B operands, each laid out along its GEMM's N dimension —
/// K channel-major, as the `dim × tokens` Kᵀ tile `Q·Kᵀ` walks with tokens
/// on the lanes, V token-major for the channel-lane `P·V` — so no K/V
/// matrices are materialized or transposed. Lanes only ever run along N:
/// every score and output channel still adds its terms in ascending K
/// order, bit for bit the scalar row-dot. Every buffer lives in the calling
/// thread's `KernelScratch` and the two fragment plans are resolved once
/// per call; per block only the dequantization LUT's *values* are
/// recomputed, because they depend on that block's quantization parameters.
///
/// The walk is sequential in block order on every host — this *is* the
/// definition of a head's partial, so a result is a function of the inputs
/// alone. Splitting a head's KV (across devices, or the GPU's split-KV
/// CTAs priced in [`crate::profiles`]) is the caller's explicit
/// [`OnlineSoftmax::merge`].
///
/// Operand precision mirrors the engine: the MMA path rounds both GEMM
/// operands through FP16 fragments (`ldmatrix`), the WGMMA `_SS` path
/// consumes shared-memory tiles unrounded — so results match
/// [`attend_packed_blocks`] (with `cooperative` softmax) to f32
/// accumulation-order noise.
///
/// Returns the modelled fast-dequant instruction counts streamed.
pub fn attend_packed_blocks_fused<B: Borrow<PackedBlock>>(
    q: &[Vec<f32>],
    blocks: &[B],
    codec: &FragmentCodec,
    scheme: QuantScheme,
    scale: f32,
    engine: MatmulEngine,
    state: &mut OnlineSoftmax,
) -> FastDequantOps {
    if blocks.is_empty() {
        return FastDequantOps::default();
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.q_eff.clear();
        let KernelScratch { q_eff, scores, .. } = scratch;
        push_effective_queries(q, state.dim(), scale, engine, scores, q_eff);
        let all_rows = 0..q_eff.len();
        let mut decoder = BlockDecoder::new(codec, scheme);
        scratch.walk(&mut decoder, blocks, all_rows, std::slice::from_mut(state))
    })
}

/// One sharer's inputs to [`crate::BitDecoder::attend_head_partial_multi`]:
/// its query block, the packed blocks past the shared prefix run (in
/// logical order), and its FP16 residual window. `prefix ++ suffix ++
/// residual` is exactly what the independent path would attend over.
/// [`attend_packed_blocks_multi`] reads the packed part (`q_block`,
/// `suffix`); the residual fold is the caller's.
pub struct PrefixSharer<'a, B, K = TokenMatrix> {
    /// The sharer's per-head query rows (un-scaled, as for the solo path).
    pub q_block: &'a [Vec<f32>],
    /// Packed blocks private to this sharer (past the shared prefix).
    pub suffix: &'a [B],
    /// The sharer's residual K window.
    pub res_k: &'a K,
    /// The sharer's residual V window.
    pub res_v: &'a TokenMatrix,
}

/// Cascade multi-query fused walk (Hydragen-style shared-prefix
/// attention): [`attend_packed_blocks_fused`]'s block walk with every
/// sharer's query rows back to back. Each shared `prefix` block is decoded
/// through the dequant LUTs and scored **once**, then folded into every
/// sharer's own un-normalized [`OnlineSoftmax`] partial; each sharer's
/// private `suffix` then runs the same walk over its rows alone. A partial
/// sees exactly the folds the solo walk over `prefix ++ suffix` would
/// make, in the same order, so it is bitwise identical to it. The compute
/// saving is the deduped decode, reflected in the returned
/// [`FastDequantOps`], which counts only work actually performed (shared
/// prefix blocks once, not once per sharer).
pub fn attend_packed_blocks_multi<B: Borrow<PackedBlock>, K>(
    prefix: &[B],
    sharers: &[PrefixSharer<'_, B, K>],
    dim: usize,
    codec: &FragmentCodec,
    scheme: QuantScheme,
    scale: f32,
    engine: MatmulEngine,
) -> (Vec<OnlineSoftmax>, FastDequantOps) {
    let decoder = BlockDecoder::new(codec, scheme);
    walk_shared(decoder, prefix, sharers, dim, scale, engine)
}

/// [`attend_packed_blocks_multi`] through `decoder`, in its instance.
fn walk_shared<B: Borrow<PackedBlock>, K>(
    mut decoder: BlockDecoder,
    prefix: &[B],
    sharers: &[PrefixSharer<'_, B, K>],
    dim: usize,
    scale: f32,
    engine: MatmulEngine,
) -> (Vec<OnlineSoftmax>, FastDequantOps) {
    let mut partials: Vec<OnlineSoftmax> = sharers
        .iter()
        .map(|s| OnlineSoftmax::new(s.q_block.len(), dim))
        .collect();
    let ops = SCRATCH.with_borrow_mut(|scratch| {
        scratch.q_eff.clear();
        let KernelScratch { q_eff, scores, .. } = scratch;
        for s in sharers {
            push_effective_queries(s.q_block, dim, scale, engine, scores, q_eff);
        }
        let all_rows = 0..q_eff.len();
        let mut ops = scratch.walk(&mut decoder, prefix, all_rows, &mut partials);
        let mut first = 0;
        for (s, partial) in sharers.iter().zip(&mut partials) {
            let own_rows = first..first + s.q_block.len() * dim;
            first = own_rows.end;
            ops += scratch.walk(
                &mut decoder,
                s.suffix,
                own_rows,
                std::slice::from_mut(partial),
            );
        }
        ops
    });
    (partials, ops)
}

/// Quantizes an `rows × cols` value generator to block-scaled FP4 along
/// its columns (`block`-sized groups), returning codes and per-(row,
/// block) scales.
fn quantize_fp4_operand(
    rows: usize,
    cols: usize,
    at: impl Fn(usize, usize) -> f32,
    kind: Fp4Kind,
) -> (Vec<Vec<E2M1>>, Vec<Vec<f32>>) {
    let block = kind.block_size();
    let mut codes = vec![vec![E2M1::from_bits(0); cols]; rows];
    let mut scales = vec![vec![0.0f32; cols.div_ceil(block)]; rows];
    for r in 0..rows {
        for b0 in (0..cols).step_by(block) {
            let b1 = (b0 + block).min(cols);
            let vals: Vec<f32> = (b0..b1).map(|c| at(r, c)).collect();
            let q = quantize_fp4_block(&vals, kind);
            scales[r][b0 / block] = q.scale.to_f32();
            for (i, code) in q.codes.iter().enumerate() {
                codes[r][b0 + i] = *code;
            }
        }
    }
    (codes, scales)
}

/// The Blackwell-native functional path: `S = Q_fp4 · K_fp4^T` and
/// `O += Quant(P)_fp4 · V_fp4` through the block-scaled MMA — no software
/// dequantization, but `P` is re-quantized after every softmax tile
/// (paper Challenge 2 / §V-D(2)).
///
/// With flat decoded blocks, each operand is quantized in a **single
/// pass** straight into its MMA orientation: K along channels scattered to
/// `(channel, token)`, V along tokens (the P·V contraction dimension) read
/// column-strided — the transpose → quantize → transpose round-trips of
/// the earlier nested-`Vec` implementation are gone.
pub fn attend_packed_blocks_fp4<B: Borrow<PackedBlock>>(
    q: &[Vec<f32>],
    blocks: &[B],
    codec: &FragmentCodec,
    scheme: QuantScheme,
    kind: Fp4Kind,
    scale: f32,
    state: &mut OnlineSoftmax,
) {
    if blocks.is_empty() {
        return;
    }
    let block_size = kind.block_size();
    let rows = q.len();
    let d = q[0].len();
    let (q_codes, q_scales) = quantize_fp4_operand(rows, d, |r, c| q[r][c] * scale, kind);

    for packed in blocks {
        let (k, v) = codec.decode(packed.borrow(), scheme);
        let tokens = k.tokens();
        // K as the S-GEMM B operand: codes per (channel, token). Quantize
        // each token's channels (the contraction dimension) and scatter the
        // codes directly into B orientation.
        let mut b_codes = vec![vec![E2M1::from_bits(0); tokens]; d];
        let mut b_scales = vec![vec![0.0f32; tokens]; d.div_ceil(block_size)];
        for t in 0..tokens {
            let row = k.row(t);
            for b0 in (0..d).step_by(block_size) {
                let b1 = (b0 + block_size).min(d);
                let qb = quantize_fp4_block(&row[b0..b1], kind);
                b_scales[b0 / block_size][t] = qb.scale.to_f32();
                for (i, code) in qb.codes.iter().enumerate() {
                    b_codes[b0 + i][t] = *code;
                }
            }
        }
        let mut s_tile = Tile::zeros(rows, tokens);
        mma_block_scaled_fp4(
            &q_codes,
            &q_scales,
            &b_codes,
            &b_scales,
            block_size,
            &mut s_tile,
        );

        // Softmax in FP16/FP32 registers, then requantize P to FP4 for the
        // second block-scaled MMA.
        let mut p = Tile::zeros(rows, tokens);
        let mut row_max = vec![f32::NEG_INFINITY; rows];
        for r in 0..rows {
            for t in 0..tokens {
                row_max[r] = row_max[r].max(s_tile[(r, t)]);
            }
            for t in 0..tokens {
                p[(r, t)] = (s_tile[(r, t)] - row_max[r]).exp();
            }
        }
        let (p_codes, p_scales) = quantize_fp4_operand(rows, tokens, |r, t| p[(r, t)], kind);

        // V as the P·V B operand: (k = token, n = channel), scale blocks
        // along tokens. One column-strided quantization pass.
        let dv = v.dim();
        let mut vb_codes = vec![vec![E2M1::from_bits(0); dv]; tokens];
        let mut vb_scales = vec![vec![0.0f32; dv]; tokens.div_ceil(block_size)];
        for c in 0..dv {
            for t0 in (0..tokens).step_by(block_size) {
                let t1 = (t0 + block_size).min(tokens);
                let vals: Vec<f32> = (t0..t1).map(|t| v.row(t)[c]).collect();
                let qb = quantize_fp4_block(&vals, kind);
                vb_scales[t0 / block_size][c] = qb.scale.to_f32();
                for (i, code) in qb.codes.iter().enumerate() {
                    vb_codes[t0 + i][c] = *code;
                }
            }
        }
        let mut pv = Tile::zeros(rows, dv);
        mma_block_scaled_fp4(
            &p_codes, &p_scales, &vb_codes, &vb_scales, block_size, &mut pv,
        );

        // Fold the pre-normalized tile into the online state: the tile's
        // exps used row_max as reference, matching step_tile's contract if
        // we feed (S, V); instead update the state manually.
        for r in 0..rows {
            let m_new = state.m[r].max(row_max[r]);
            let corr_old = (state.m[r] - m_new).exp();
            let corr_tile = (row_max[r] - m_new).exp();
            let mut l_tile = 0.0f32;
            for t in 0..tokens {
                l_tile += p[(r, t)];
            }
            state.l[r] = state.l[r] * corr_old + l_tile * corr_tile;
            for (c, acc) in state.acc_row_mut(r).iter_mut().enumerate() {
                *acc = *acc * corr_old + pv[(r, c)] * corr_tile;
            }
            state.m[r] = m_new;
        }
    }
}

/// The key side of a residual window as the residual kernel reads it:
/// token-major rows, and the window's Kᵀ panels when it keeps them. A
/// bare [`TokenMatrix`] keeps none; a store's [`KeyWindow`] keeps one per
/// sealed 16-token group, over rows that are FP16-exact.
pub trait ResidualKeys {
    /// The window's rows, token-major.
    fn rows(&self) -> &TokenMatrix;
    /// The window with its panels, if it keeps them.
    fn window(&self) -> Option<&KeyWindow> {
        None
    }
}

impl ResidualKeys for TokenMatrix {
    fn rows(&self) -> &TokenMatrix {
        self
    }
}

impl ResidualKeys for KeyWindow {
    fn rows(&self) -> &TokenMatrix {
        KeyWindow::rows(self)
    }
    fn window(&self) -> Option<&KeyWindow> {
        Some(self)
    }
}

/// Both modelled instruction families reduce K in 16-wide tiles.
const K_TILE: usize = 16;

/// One query row's scores against one `dim × 16` Kᵀ panel into `out` (at
/// most 16 lanes): for each 16-channel k-tile, each lane builds `partial`
/// from `0.0` in channel order, then `total += partial`, `total` from
/// `0.0` — the scalar k-tile tree, 16 tokens side by side.
#[inline(always)]
fn score_panel(q_row: &[f32], panel: &[f32], out: &mut [f32]) {
    let mut total = [0.0f32; PANEL_TOKENS];
    for (q_tile, k_tile) in q_row
        .chunks(K_TILE)
        .zip(panel.chunks(K_TILE * PANEL_TOKENS))
    {
        let mut partial = [0.0f32; PANEL_TOKENS];
        let (channels, _) = k_tile.as_chunks::<PANEL_TOKENS>();
        for (&x, k_lanes) in q_tile.iter().zip(channels) {
            for (lane, &y) in partial.iter_mut().zip(k_lanes) {
                *lane += x * y;
            }
        }
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    out.copy_from_slice(&total[..out.len()]);
}

/// The fused **Residual Kernel** body: FP16 attention over the residual
/// window with the window's tokens on the lanes. `Q·Kᵀ` reads the window
/// as `dim × 16` Kᵀ panels — the MMA's B operand — 16 tokens at a time:
/// a [`KeyWindow`]'s sealed groups from the panels its sealing pushes
/// wrote, the rest written into this thread's scratch per call,
/// zero-padded. No [`Tile`], transpose round-trip or fragment
/// scatter per step.
///
/// The arithmetic replicates the materializing [`attend_residual`] path
/// **bitwise** for every valid (cooperative or single-warp) configuration:
/// operands round exactly as the engine's instruction would round them
/// (`mma` loads both operands through FP16 fragments; `wgmma_SS` consumes
/// shared-memory tiles unrounded), and each score accumulates per 16-wide
/// k-tile partials in tile order — the same f32 summation tree the tiled
/// GEMM walk produces. A [`KeyWindow`]'s rows are FP16-exact, so neither
/// engine rounds them again; a bare [`TokenMatrix`] is rounded (`mma`) or
/// copied (`wgmma`) into its scratch panels. Tile zero-padding adds exact
/// zeros and so never changes a result bit.
/// `tests::fused_residual_matches_materializing_bitwise` and
/// `summation_order.rs` pin the equivalence. Runs in the host's instance
/// ([`Isa::host`]), with the same bits as the baseline's.
pub fn attend_residual_fused<K: ResidualKeys + ?Sized>(
    q: &[Vec<f32>],
    res_k: &K,
    res_v: &TokenMatrix,
    scale: f32,
    engine: MatmulEngine,
    state: &mut OnlineSoftmax,
) {
    let isa = Isa::host().without_avx512();
    attend_residual_in(isa, q, res_k, res_v, scale, engine, state);
}

/// [`attend_residual_fused`]'s body inside `isa`'s entry ([`Isa::run`]).
fn attend_residual_in<K: ResidualKeys + ?Sized>(
    isa: Isa,
    q: &[Vec<f32>],
    res_k: &K,
    res_v: &TokenMatrix,
    scale: f32,
    engine: MatmulEngine,
    state: &mut OnlineSoftmax,
) {
    let rows = res_k.rows();
    if rows.is_empty() {
        return;
    }
    let (tokens, dim) = (rows.tokens(), rows.dim());
    let window = res_k.window();
    let sealed = window.map_or(&[][..], KeyWindow::panels);
    SCRATCH.with_borrow_mut(|scratch| {
        let KernelScratch {
            q_eff,
            scores,
            panels,
            ..
        } = scratch;
        q_eff.clear();
        push_effective_queries(q, dim, scale, engine, scores, q_eff);
        let panel_len = dim * PANEL_TOKENS;
        // A sealed group's panel holds as many values as its rows.
        let rest = &rows.as_slice()[sealed.len()..];
        panels.resize(rest.len().div_ceil(panel_len) * panel_len, 0.0);
        let round = window.is_none() && engine == MatmulEngine::Mma;
        for (group, panel) in rest
            .chunks(panel_len)
            .zip(panels.chunks_exact_mut(panel_len))
        {
            write_panel(group, dim, round, panel);
        }
        scores.clear();
        scores.resize(q_eff.len() / dim * tokens, 0.0);
        isa.run(
            #[inline(always)]
            |isa| {
                let groups = (sealed.chunks_exact(panel_len)).chain(panels.chunks_exact(panel_len));
                for (group, panel) in groups.enumerate() {
                    let lanes = group * PANEL_TOKENS..tokens.min((group + 1) * PANEL_TOKENS);
                    for (q_row, s_row) in
                        q_eff.chunks_exact(dim).zip(scores.chunks_exact_mut(tokens))
                    {
                        score_panel(q_row, panel, &mut s_row[lanes.clone()]);
                    }
                }
                state.step_scores(isa, scores, res_v);
            },
        );
    });
}

/// The functional **Residual Kernel** attention body for one KV group:
/// FP16 attention over the residual region (same Tensor Core path), folded
/// into the shared state. Flushing (quantize + pack) is handled by the
/// cache via the codec.
///
/// This is the materializing walk — it builds and transposes [`Tile`]s and
/// round-trips fragments, which is what lets it model the non-cooperative
/// `Wn > 1` softmax race. Valid configurations should prefer
/// [`attend_residual_fused`], which produces bitwise-identical results
/// without the materialization.
#[allow(clippy::too_many_arguments)]
pub fn attend_residual(
    q: &[Vec<f32>],
    res_k: &TokenMatrix,
    res_v: &TokenMatrix,
    scale: f32,
    wn: usize,
    cooperative: bool,
    engine: MatmulEngine,
    state: &mut OnlineSoftmax,
) {
    if res_k.is_empty() {
        return;
    }
    let q_scaled: Vec<Vec<f32>> = q
        .iter()
        .map(|row| row.iter().map(|&x| x * scale).collect())
        .collect();
    let q_tile = rows_to_tile(&q_scaled);
    let kt_tile = matrix_to_tile(res_k).transposed();
    let s = matmul(engine, &q_tile, &kt_tile);
    // The residual region is narrower than a full warp tile set; it runs
    // single-warp slices when it cannot split evenly.
    let eff_wn = if s.cols().is_multiple_of(wn) { wn } else { 1 };
    state.step_tile_warped(&s, &matrix_to_tile(res_v), eff_wn, cooperative);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::reference_attention;
    use bd_kvcache::PackLayout;
    use bd_lowbit::isa::Isa;

    #[test]
    fn wgmma_matmul_matches_dense() {
        for (m, k, n) in [(4, 64, 24), (64, 16, 64), (5, 33, 70)] {
            let a = Tile::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.17 - 1.0);
            let b = Tile::from_fn(k, n, |r, c| ((r * 11 + c * 3) % 7) as f32 * 0.23 - 0.7);
            let got = matmul_via_wgmma(&a, &b);
            let want = a.matmul(&b);
            assert!(got.max_abs_diff(&want) < 1e-3, "({m},{k},{n})");
        }
    }

    #[test]
    fn wgmma_and_mma_engines_agree() {
        let a = Tile::from_fn(8, 64, |r, c| ((r * 13 + c) % 9) as f32 * 0.3 - 1.2);
        let b = Tile::from_fn(64, 40, |r, c| ((r + c * 5) % 11) as f32 * 0.2 - 1.0);
        let via_mma = matmul(MatmulEngine::Mma, &a, &b);
        let via_wgmma = matmul(MatmulEngine::Wgmma, &a, &b);
        // mma rounds operands through FP16 fragments; wgmma_SS is modelled
        // at tile granularity, so agreement is within FP16 operand noise.
        assert!(via_mma.max_abs_diff(&via_wgmma) < 0.05);
    }

    #[test]
    fn fp4_native_attention_tracks_reference() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let scheme = QuantScheme::mxfp4();
        let nr = 128;
        let d = 64;
        let gq = 4;
        let k = TokenMatrix::from_fn(nr, d, |t, c| ((t * d + c) as f32 * 0.37).sin());
        // Values with per-channel structure so the attention output has
        // O(1) magnitude — a zero-mean V produces pure cancellation noise
        // that no 4-bit format can track.
        let v = TokenMatrix::from_fn(nr, d, |t, c| {
            (c as f32 * 0.3).sin() + 0.3 * ((t * d + c) as f32 * 0.53).cos()
        });
        let q: Vec<Vec<f32>> = (0..gq)
            .map(|g| (0..d).map(|c| ((g * d + c) as f32 * 0.71).sin()).collect())
            .collect();
        let blocks = vec![codec.encode(&k, &v, scheme)];
        let scale = 1.0 / (d as f32).sqrt();
        let mut state = OnlineSoftmax::new(gq, d);
        attend_packed_blocks_fp4(&q, &blocks, &codec, scheme, Fp4Kind::Mx, scale, &mut state);
        let got = state.finish();
        let want = reference_attention(&q, &k, &v, scale);
        // FP4 everywhere (Q, K, P, V) is coarse: allow ~15% error on the
        // O(1) signal, and demand strong overall correlation.
        let mut dot = 0.0f64;
        let mut n1 = 0.0f64;
        let mut n2 = 0.0f64;
        for (gr, wr) in got.iter().zip(&want) {
            for (g, w) in gr.iter().zip(wr) {
                assert!((g - w).abs() < 0.2, "{g} vs {w}");
                dot += f64::from(*g) * f64::from(*w);
                n1 += f64::from(*g) * f64::from(*g);
                n2 += f64::from(*w) * f64::from(*w);
            }
        }
        let cos = dot / (n1.sqrt() * n2.sqrt()).max(1e-12);
        assert!(cos > 0.97, "cosine {cos}");
    }

    #[test]
    fn mma_matmul_matches_dense_for_odd_shapes() {
        for (m, k, n) in [(4, 64, 24), (16, 16, 8), (5, 33, 9), (1, 128, 40)] {
            let a = Tile::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.17 - 1.0);
            let b = Tile::from_fn(k, n, |r, c| ((r * 11 + c * 3) % 7) as f32 * 0.23 - 0.7);
            let got = matmul_via_mma(&a, &b);
            let want = a.matmul(&b);
            assert!(
                got.max_abs_diff(&want) < k as f32 * 0.01,
                "({m},{k},{n}): diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    fn synth_blocks(
        codec: &FragmentCodec,
        scheme: QuantScheme,
        nr: usize,
        n_blocks: usize,
        d: usize,
    ) -> (TokenMatrix, TokenMatrix, Vec<PackedBlock>) {
        let tokens = nr * n_blocks;
        let k = TokenMatrix::from_fn(tokens, d, |t, c| ((t * d + c) as f32 * 0.37).sin());
        let v = TokenMatrix::from_fn(tokens, d, |t, c| ((t * d + c) as f32 * 0.53).cos());
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

    #[test]
    fn packed_attention_close_to_fp32_reference() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let scheme = QuantScheme::kc4();
        let d = 32;
        let gq = 4;
        let (k, v, blocks) = synth_blocks(&codec, scheme, 128, 2, d);
        let q: Vec<Vec<f32>> = (0..gq)
            .map(|g| (0..d).map(|c| ((g * d + c) as f32 * 0.71).sin()).collect())
            .collect();

        let scale = 1.0 / (d as f32).sqrt();
        let mut state = OnlineSoftmax::new(gq, d);
        attend_packed_blocks(
            &q,
            &blocks,
            &codec,
            scheme,
            scale,
            4,
            true,
            MatmulEngine::Mma,
            &mut state,
        );
        let got = state.finish();
        let want = reference_attention(&q, &k, &v, scale);
        for (gr, wr) in got.iter().zip(&want) {
            for (g, w) in gr.iter().zip(wr) {
                assert!((g - w).abs() < 0.05, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn fused_matches_materializing_path() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        for scheme in [
            QuantScheme::kc4(),
            QuantScheme::kt4(),
            QuantScheme::kc2(),
            QuantScheme::mxfp4(),
            QuantScheme::nvfp4(),
        ] {
            let width = scheme.int_width().unwrap_or(bd_lowbit::BitWidth::B4);
            let nr = PackLayout::sm80_default().residual_block(width);
            let d = 32;
            let gq = 4;
            let (_, _, blocks) = synth_blocks(&codec, scheme, nr, 3, d);
            let q: Vec<Vec<f32>> = (0..gq)
                .map(|g| (0..d).map(|c| ((g * d + c) as f32 * 0.71).sin()).collect())
                .collect();
            let scale = 1.0 / (d as f32).sqrt();
            for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
                let mut reference = OnlineSoftmax::new(gq, d);
                attend_packed_blocks(
                    &q,
                    &blocks,
                    &codec,
                    scheme,
                    scale,
                    4,
                    true,
                    engine,
                    &mut reference,
                );
                let mut fused = OnlineSoftmax::new(gq, d);
                let ops = attend_packed_blocks_fused(
                    &q, &blocks, &codec, scheme, scale, engine, &mut fused,
                );
                if scheme.int_width().is_some() {
                    assert!(ops.total() > 0, "fused path must stream dequant work");
                }
                let a = reference.finish();
                let b = fused.finish();
                for (ar, br) in a.iter().zip(&b) {
                    for (x, y) in ar.iter().zip(br) {
                        assert!((x - y).abs() < 1e-4, "{scheme} {engine:?}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_instance_walks_to_the_baseline_bits() {
        // The cascade walk in each instance of this host: a prefix of half
        // the blocks, shared by every sharer, then each sharer's suffix of
        // the rest. Every partial's `m`, `l` and `acc` must match the
        // baseline instance's bit for bit. Two more sharers' query rows are
        // all `+0.0` and all `−0.0`: each of their scores is a zero (`+0.0`,
        // as every sum starts from `+0.0`), so their `m` pins the zero each
        // instance's row max keeps.
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let (d, gq) = (64, 2);
        let scale = 1.0 / (d as f32).sqrt();
        let isas = Isa::each();
        let empty = TokenMatrix::new(d);
        for scheme in [QuantScheme::kc4(), QuantScheme::kc2(), QuantScheme::kt4()] {
            let nr = layout.residual_block(scheme.int_width().unwrap());
            for n in [1, 3, 17] {
                let (_, _, blocks) = synth_blocks(&codec, scheme, nr, n, d);
                let (prefix, suffix) = blocks.split_at(n / 2);
                for (engine, sharers) in [MatmulEngine::Mma, MatmulEngine::Wgmma]
                    .into_iter()
                    .flat_map(|engine| [1, 16].map(|sharers| (engine, sharers)))
                {
                    let mut queries: Vec<Vec<Vec<f32>>> = (0..sharers * gq)
                        .map(|r| (0..d).map(|c| ((r * d + c) as f32 * 0.71).sin()).collect())
                        .collect::<Vec<_>>()
                        .chunks(gq)
                        .map(<[_]>::to_vec)
                        .collect();
                    queries.extend([0.0, -0.0].map(|zero| vec![vec![zero; d]; gq]));
                    let sharers: Vec<PrefixSharer<'_, PackedBlock>> = (queries.iter())
                        .map(|q_block| PrefixSharer {
                            q_block,
                            suffix,
                            res_k: &empty,
                            res_v: &empty,
                        })
                        .collect();
                    let walk = |isa| {
                        let mut decoder = BlockDecoder::new(&codec, scheme);
                        decoder.isa = isa;
                        let (partials, _) =
                            walk_shared(decoder, prefix, &sharers, d, scale, engine);
                        let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        (partials.iter())
                            .map(|p| {
                                let acc: Vec<f32> =
                                    (0..p.rows()).flat_map(|r| p.acc_row(r).to_vec()).collect();
                                [bits(&p.m), bits(&p.l), bits(&acc)]
                            })
                            .collect::<Vec<_>>()
                    };
                    let want = walk(Isa::BASELINE);
                    for &isa in &isas[1..] {
                        let at = format!("{isa:?} {scheme} {engine:?} {n} blocks");
                        assert_eq!(walk(isa), want, "{at}, {} sharers", sharers.len());
                    }
                }
            }
        }
    }

    #[test]
    fn fused_empty_block_list_is_identity() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let q = vec![vec![0.4f32; 16]; 2];
        let mut state = OnlineSoftmax::new(2, 16);
        let none: &[PackedBlock] = &[];
        let ops = attend_packed_blocks_fused(
            &q,
            none,
            &codec,
            QuantScheme::kc4(),
            0.25,
            MatmulEngine::Mma,
            &mut state,
        );
        assert_eq!(ops.total(), 0);
        let out = state.finish();
        assert!(out.iter().all(|row| row.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn fused_residual_matches_materializing_bitwise() {
        // The fused flat-layout residual walk must reproduce the
        // materializing tile path EXACTLY (bit for bit) for every valid
        // configuration — engines, odd head dims that underfill k-tiles,
        // window lengths from one token to a full Nr-1, and warp counts
        // that do or do not divide the window.
        for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
            for (rows, d, tokens) in [
                (1, 16, 1),
                (2, 32, 7),
                (4, 64, 20),
                (3, 24, 13), // d not a multiple of the 16-wide k-tile
                (4, 128, 127),
            ] {
                let res_k =
                    TokenMatrix::from_fn(tokens, d, |t, c| ((t * d + c) as f32 * 0.37).sin() * 2.0);
                let res_v =
                    TokenMatrix::from_fn(tokens, d, |t, c| ((t * 3 + c * 7) as f32 * 0.53).cos());
                let q: Vec<Vec<f32>> = (0..rows)
                    .map(|g| (0..d).map(|c| ((g * d + c) as f32 * 0.71).sin()).collect())
                    .collect();
                let scale = 1.0 / (d as f32).sqrt();
                for wn in [1usize, 4] {
                    let mut materializing = OnlineSoftmax::new(rows, d);
                    attend_residual(
                        &q,
                        &res_k,
                        &res_v,
                        scale,
                        wn,
                        true,
                        engine,
                        &mut materializing,
                    );
                    let a = materializing.finish();
                    for isa in Isa::each() {
                        let mut fused = OnlineSoftmax::new(rows, d);
                        attend_residual_in(isa, &q, &res_k, &res_v, scale, engine, &mut fused);
                        let b = fused.finish();
                        for (ar, br) in a.iter().zip(&b) {
                            for (x, y) in ar.iter().zip(br) {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{isa:?} {engine:?} rows={rows} d={d} tokens={tokens} wn={wn}: {x} vs {y}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_residual_empty_window_is_identity() {
        let empty = TokenMatrix::new(16);
        let q = vec![vec![0.4f32; 16]; 2];
        let mut state = OnlineSoftmax::new(2, 16);
        attend_residual_fused(&q, &empty, &empty, 0.25, MatmulEngine::Mma, &mut state);
        attend_residual_fused(
            &q,
            &KeyWindow::new(16, 128),
            &empty,
            0.25,
            MatmulEngine::Mma,
            &mut state,
        );
        assert!(state.finish().iter().all(|r| r.iter().all(|&x| x == 0.0)));
    }

    /// The residual kernel's `(m, l, acc)` bits for one query block in
    /// `isa`.
    fn residual_bits<K: ResidualKeys + ?Sized>(
        isa: Isa,
        q: &[Vec<f32>],
        k: &K,
        v: &TokenMatrix,
        engine: MatmulEngine,
    ) -> Vec<u32> {
        let dim = v.dim();
        let mut state = OnlineSoftmax::new(q.len(), dim);
        let scale = 1.0 / (dim as f32).sqrt();
        attend_residual_in(isa, q, k, v, scale, engine, &mut state);
        let acc = (0..q.len()).flat_map(|r| state.acc_row(r).to_vec());
        (state.m.iter().chain(&state.l).copied().chain(acc))
            .map(f32::to_bits)
            .collect()
    }

    #[test]
    fn built_slots_never_change_a_bit() {
        // The window entry against the TokenMatrix entry over the same
        // FP16-exact rows — and, on mma, over the unrounded rows they were
        // pushed from — for every window length below KC-4's Nr, every
        // whole group's panel written by the push that sealed it, and 8
        // query blocks reading one window at once on launches of 1, 2, 3
        // and 8 threads — in every instance, against the baseline's
        // TokenMatrix entry.
        let nr = PackLayout::sm80_default().residual_block(bd_lowbit::BitWidth::B4);
        let dim = 24;
        let raw_k = TokenMatrix::from_fn(nr, dim, |t, c| ((t * dim + c) as f32 * 0.37).sin() * 2.0);
        let all_v = TokenMatrix::from_fn(nr, dim, |t, c| ((t * 3 + c * 7) as f32 * 0.53).cos());
        let queries: Vec<Vec<Vec<f32>>> = (0..8)
            .map(|i| TokenMatrix::from_fn(2, dim, |g, c| ((i * 97 + g * dim + c) as f32).sin()))
            .map(|q| q.to_rows())
            .collect();
        for len in 1..nr {
            let raw = raw_k.slice_rows(0..len);
            let v = all_v.slice_rows(0..len);
            let window = KeyWindow::from_rows(&raw);
            let rounded = window.rows().clone();
            assert_eq!(window.sealed_groups(), len / PANEL_TOKENS);
            assert!(window.panels_match_rows());
            for engine in [MatmulEngine::Mma, MatmulEngine::Wgmma] {
                let want: Vec<Vec<u32>> = (queries.iter())
                    .map(|q| residual_bits(Isa::BASELINE, q, &rounded, &v, engine))
                    .collect();
                for isa in Isa::each() {
                    let at = format!("{isa:?} {engine:?} len {len}");
                    if engine == MatmulEngine::Mma {
                        for (q, want) in queries.iter().zip(&want) {
                            assert_eq!(&residual_bits(isa, q, &raw, &v, engine), want, "{at}");
                        }
                    }
                    for width in [1, 2, 3, 8] {
                        let got = bd_kvcache::launch(queries.len(), width, |i| {
                            residual_bits(isa, &queries[i], &window, &v, engine)
                        });
                        for (i, (got, want)) in got.into_iter().zip(&want).enumerate() {
                            assert_eq!(got.as_ref(), Some(want), "{at} width {width} query {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residual_attention_matches_reference() {
        let d = 16;
        let gq = 2;
        let res = 7;
        let k = TokenMatrix::from_fn(res, d, |t, c| ((t + c) as f32 * 0.3).sin());
        let v = TokenMatrix::from_fn(res, d, |t, c| ((t * 2 + c) as f32 * 0.21).cos());
        let q: Vec<Vec<f32>> = (0..gq).map(|g| vec![0.2 * (g + 1) as f32; d]).collect();
        let scale = 0.25;
        let mut state = OnlineSoftmax::new(gq, d);
        attend_residual(&q, &k, &v, scale, 4, true, MatmulEngine::Mma, &mut state);
        let got = state.finish();
        let want = reference_attention(&q, &k, &v, scale);
        for (gr, wr) in got.iter().zip(&want) {
            for (g, w) in gr.iter().zip(wr) {
                assert!((g - w).abs() < 2e-2, "{g} vs {w}");
            }
        }
    }
}
