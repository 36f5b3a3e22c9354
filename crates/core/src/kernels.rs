//! Functional kernel implementations: attention over real values.
//!
//! * [`attend_packed_blocks`] — the **materializing** reference path: each
//!   block is decoded to a full [`TokenMatrix`] and multiplied tile by tile
//!   on the simulated MMA fragments ([`bd_gpu_sim::mma`]), so a
//!   fragment-layout bug corrupts the output as it would on hardware. The
//!   fused path is tested against it, and it models the non-cooperative
//!   multi-warp softmax race (paper Table III).
//! * [`attend_packed_blocks_fused`] / [`attend_packed_blocks_multi`] — the
//!   **fused flat-layout** hot path (paper §IV): packed words stream
//!   through the fast-dequant model straight into each GEMM's B operand,
//!   laid out along its N dimension (K as a channel-major Kᵀ tile, V
//!   token-major). Both run one block walk, sequentially in block order,
//!   for one query block or for a cascade's sharers' rows back to back. A
//!   partial is a function of its inputs alone; parallelism lives across
//!   heads ([`crate::BitDecoder::decode`], the serve launch), never inside
//!   one. It matches the materializing path to f32 accumulation-order
//!   noise (`tests/proptests.rs`).
//!
//! The analytic twin of this code lives in [`crate::profiles`].

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

/// The `rows × cols` tile of `t` at `(r0, c0)`, zero past `t`'s edges.
fn padded_tile(t: &Tile, (r0, c0): (usize, usize), rows: usize, cols: usize) -> Tile {
    Tile::from_fn(rows, cols, |r, c| {
        let (gr, gc) = (r0 + r, c0 + c);
        if gr < t.rows() && gc < t.cols() {
            t[(gr, gc)]
        } else {
            0.0
        }
    })
}

/// Writes the part of `tile` that falls inside `out`, at `(r0, c0)`.
fn store_tile(out: &mut Tile, (r0, c0): (usize, usize), tile: &Tile) {
    for r in 0..tile.rows().min(out.rows() - r0) {
        for c in 0..tile.cols().min(out.cols() - c0) {
            out[(r0 + r, c0 + c)] = tile[(r, c)];
        }
    }
}

/// Multiplies `a (m × k)` by `b (k × n)` using `mma.m16n8k16` warp tiles,
/// padding every dimension to the tile grid (the padding models Tensor
/// Core tile underfill — partial query groups still issue full tiles).
pub(crate) fn matmul_via_mma(a: &Tile, b: &Tile) -> Tile {
    let shape = MmaShape::M16N8K16;
    let (m, k, n) = (shape.m(), shape.k(), shape.n());
    assert_eq!(b.rows(), a.cols(), "inner dimension mismatch");
    let mut out = Tile::zeros(a.rows(), b.cols());
    let la = FragmentLayout::new(shape, Operand::A);
    let lb = FragmentLayout::new(shape, Operand::B);
    for mi in 0..a.rows().div_ceil(m) {
        for ni in 0..b.cols().div_ceil(n) {
            let mut acc = AccFragment::zeroed(shape);
            for ki in 0..a.cols().div_ceil(k) {
                let fa = ldmatrix(&padded_tile(a, (mi * m, ki * k), m, k), la);
                let fb = ldmatrix(&padded_tile(b, (ki * k, ni * n), k, n), lb);
                mma(shape, &fa, &fb, &mut acc);
            }
            store_tile(&mut out, (mi * m, ni * n), &acc.to_tile());
        }
    }
    out
}

/// Multiplies `a (m × k)` by `b (k × n)` using `wgmma.m64n64k16` warpgroup
/// tiles. The B operand is consumed from (simulated) shared memory — on
/// Hopper, dequantized values reach it via `STSM` without register-layout
/// correction, which is exactly why the `_SS` form matters to BitDecoding.
pub(crate) fn matmul_via_wgmma(a: &Tile, b: &Tile) -> Tile {
    const M: usize = 64;
    const N: usize = 64;
    const K: usize = 16;
    assert_eq!(b.rows(), a.cols(), "inner dimension mismatch");
    let mut out = Tile::zeros(a.rows(), b.cols());
    for mi in 0..a.rows().div_ceil(M) {
        for ni in 0..b.cols().div_ceil(N) {
            let mut acc = Tile::zeros(M, N);
            for ki in 0..a.cols().div_ceil(K) {
                let a_tile = padded_tile(a, (mi * M, ki * K), M, K);
                wgmma_ss(&a_tile, &padded_tile(b, (ki * K, ni * N), K, N), &mut acc);
            }
            store_tile(&mut out, (mi * M, ni * N), &acc);
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
    let q_tile = Tile::from_fn(q.len(), q[0].len(), |r, c| q[r][c] * scale);
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
            score_block(isa, &self.q_eff[q_rows.clone()], &self.k, &mut self.scores);
            OnlineSoftmax::step_scores(isa, states, &mut self.scores, &self.v);
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

/// [`quantize_fp4_operand`] for a GEMM's B operand, whose contraction runs
/// along its `rows`: codes per (row, column), scales per (row block,
/// column).
fn quantize_fp4_b_operand(
    rows: usize,
    cols: usize,
    at: impl Fn(usize, usize) -> f32,
    kind: Fp4Kind,
) -> (Vec<Vec<E2M1>>, Vec<Vec<f32>>) {
    fn transpose<T: Copy>(m: &[Vec<T>]) -> Vec<Vec<T>> {
        let rows = m.first().map_or(0, Vec::len);
        (0..rows)
            .map(|r| m.iter().map(|col| col[r]).collect())
            .collect()
    }
    let (codes, scales) = quantize_fp4_operand(cols, rows, |c, r| at(r, c), kind);
    (transpose(&codes), transpose(&scales))
}

/// The Blackwell-native functional path: `S = Q_fp4 · K_fp4^T` and
/// `O += Quant(P)_fp4 · V_fp4` through the block-scaled MMA — no software
/// dequantization, but `P` is re-quantized after every softmax tile
/// (paper Challenge 2 / §V-D(2)). Each operand is quantized along its
/// GEMM's contraction dimension: Q and K along channels, P and V along
/// tokens.
pub(crate) fn attend_packed_blocks_fp4<B: Borrow<PackedBlock>>(
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
        // K as the S-GEMM B operand: codes per (channel, token), each
        // token's channels (the contraction dimension) quantized together.
        let (b_codes, b_scales) = quantize_fp4_b_operand(d, tokens, |c, t| k.row(t)[c], kind);
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
        let row_max: Vec<f32> = (0..rows)
            .map(|r| {
                s_tile
                    .row(r)
                    .iter()
                    .fold(f32::NEG_INFINITY, |m, &x| m.max(x))
            })
            .collect();
        let p = Tile::from_fn(rows, tokens, |r, t| (s_tile[(r, t)] - row_max[r]).exp());
        let (p_codes, p_scales) = quantize_fp4_operand(rows, tokens, |r, t| p[(r, t)], kind);

        // V as the P·V B operand: (k = token, n = channel), scale blocks
        // along tokens.
        let dv = v.dim();
        let (vb_codes, vb_scales) = quantize_fp4_b_operand(tokens, dv, |t, c| v.row(t)[c], kind);
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
            let l_tile = p.row(r).iter().fold(0.0f32, |l, &x| l + x);
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
/// as `dim × 16` Kᵀ panels (the MMA's B operand): a [`KeyWindow`]'s sealed
/// groups from the panels its sealing pushes wrote, the rest written
/// zero-padded into this thread's scratch per call.
///
/// The result is the materializing [`attend_residual`]'s **bit for bit**
/// in every valid (cooperative or single-warp) configuration: operands
/// round as the engine's instruction rounds them (`mma` loads both through
/// FP16 fragments, `wgmma_SS` consumes them unrounded; a [`KeyWindow`]'s
/// rows are FP16-exact already, a bare [`TokenMatrix`] is rounded or copied
/// into its panels), each score adds 16-channel k-tile partials in tile
/// order, and the padding adds exact zeros.
/// `tests::fused_residual_matches_materializing_bitwise` and
/// `summation_order.rs` pin it. Runs in the host's instance, or in the
/// AVX2 one on an AVX-512 host ([`Isa::without_avx512`]: wider, it timed
/// slower), with the baseline's bits.
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
                OnlineSoftmax::step_scores(isa, std::slice::from_mut(state), scores, res_v);
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
    let q_tile = Tile::from_fn(q.len(), q[0].len(), |r, c| q[r][c] * scale);
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
    use crate::softmax::{fold_rows, max_in_order, reference_attention};
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

    /// The stages of the packed walk, in order.
    const STAGES: [&str; 6] = ["decode", "scores", "max", "exp", "l", "P·V"];

    /// [`fold_rows`] over one group of `R` rows: their max, or (`sum`)
    /// `out` plus their sum.
    fn group_fold<const R: usize>(sum: bool, s: &[f32], out: &mut [f32]) {
        let folded = match sum {
            true => fold_rows::<R>(s, out.try_into().unwrap(), |l, p| l + p),
            false => fold_rows::<R>(s, [f32::NEG_INFINITY; R], max_in_order),
        };
        out.copy_from_slice(&folded);
    }

    /// [`KernelScratch::walk_blocks`] in `isa` with its softmax pass taken
    /// apart stage by stage over the whole block, adding each stage's time
    /// to `times`: the same groups and, for each row, the same operations
    /// in the same order.
    fn staged_walk(
        isa: Isa,
        decoder: &mut BlockDecoder,
        scratch: &mut KernelScratch,
        blocks: &[PackedBlock],
        states: &mut [OnlineSoftmax],
        times: &mut [std::time::Duration; STAGES.len()],
    ) {
        use std::time::Instant;
        let at: Vec<(usize, usize)> = (states.iter().enumerate())
            .flat_map(|(i, state)| (0..state.rows()).map(move |j| (i, j)))
            .collect();
        let rows = at.len();
        let (eights, pairs) = (rows / 8 * 8, rows / 8 * 8 + (rows % 8) / 2 * 2);
        let groups: Vec<std::ops::Range<usize>> = (0..rows)
            .step_by(8)
            .take(rows / 8)
            .map(|r| r..r + 8)
            .chain((eights..pairs).step_by(2).map(|r| r..r + 2))
            .chain((pairs..rows).map(|r| r..r + 1))
            .collect();
        let fold = |sum: bool, s: &[f32], out: &mut [f32]| match out.len() {
            8 => group_fold::<8>(sum, s, out),
            2 => group_fold::<2>(sum, s, out),
            _ => group_fold::<1>(sum, s, out),
        };
        let (mut m_new, mut correction, mut l) =
            (vec![0.0; rows], vec![0.0; rows], vec![0.0; rows]);
        isa.run(
            #[inline(always)]
            |isa| {
                let KernelScratch {
                    lut,
                    k,
                    v,
                    q_eff,
                    scores,
                    ..
                } = scratch;
                for block in blocks {
                    let mut lap = Instant::now();
                    let mut time = |stage: usize| {
                        let now = Instant::now();
                        times[stage] += now - lap;
                        lap = now;
                    };
                    decoder.decode(isa, block, lut, k, v);
                    time(0);
                    score_block(isa, q_eff, k, scores);
                    time(1);
                    let tokens = v.tokens();
                    let row = |r: usize| r * tokens..(r + 1) * tokens;
                    for g in &groups {
                        let s = &scores[g.start * tokens..g.end * tokens];
                        fold(false, s, &mut m_new[g.clone()]);
                    }
                    for (r, &(i, j)) in at.iter().enumerate() {
                        let m = states[i].m[j];
                        let m_new = &mut m_new[r];
                        *m_new = max_in_order(m, *m_new);
                        correction[r] = (m - *m_new).exp();
                        l[r] = states[i].l[j] * correction[r];
                        for p in &mut scores[row(r)] {
                            *p -= *m_new;
                        }
                    }
                    time(2);
                    for g in &groups {
                        isa.exp_in_place(&mut scores[g.start * tokens..g.end * tokens]);
                    }
                    time(3);
                    for g in &groups {
                        fold(
                            true,
                            &scores[g.start * tokens..g.end * tokens],
                            &mut l[g.clone()],
                        );
                    }
                    time(4);
                    for (r, &(i, j)) in at.iter().enumerate() {
                        let state = &mut states[i];
                        for a in state.acc_row_mut(j) {
                            *a *= correction[r];
                        }
                        row_times_matrix(isa, &scores[row(r)], v.as_slice(), state.acc_row_mut(j));
                        (state.m[j], state.l[j]) = (m_new[r], l[r]);
                    }
                    time(5);
                }
            },
        );
    }

    /// Every state's `m`, `l` and accumulator bits, in order.
    fn state_bits(states: &[OnlineSoftmax]) -> Vec<u32> {
        let rows = |p: &OnlineSoftmax| (0..p.rows()).flat_map(|r| p.acc_row(r).to_vec()).collect();
        (states.iter())
            .flat_map(|p| [p.m.clone(), p.l.clone(), rows(p)].concat())
            .map(f32::to_bits)
            .collect()
    }

    /// Best-of-`runs` nanoseconds of the walk of `blocks` in `isa`, as a
    /// prefix all `sharers` share, and of each stage of the staged walk;
    /// asserts that the two leave the same bits.
    fn best_split(
        isa: Isa,
        decoder: impl Fn() -> BlockDecoder,
        blocks: &[PackedBlock],
        sharers: &[PrefixSharer<'_, PackedBlock>],
        runs: usize,
    ) -> (f64, [f64; STAGES.len()]) {
        let (gq, d) = (sharers[0].q_block.len(), sharers[0].q_block[0].len());
        let scale = 1.0 / (d as f32).sqrt();
        let (mut walk_ns, mut want) = (f64::INFINITY, Vec::new());
        for _ in 0..runs {
            let start = std::time::Instant::now();
            let (partials, _) =
                walk_shared(decoder(), blocks, sharers, d, scale, MatmulEngine::Mma);
            walk_ns = walk_ns.min(start.elapsed().as_nanos() as f64);
            want = state_bits(&partials);
        }
        let mut scratch = KernelScratch::default();
        for s in sharers {
            let KernelScratch { q_eff, scores, .. } = &mut scratch;
            push_effective_queries(s.q_block, d, scale, MatmulEngine::Mma, scores, q_eff);
        }
        let mut best = [f64::INFINITY; STAGES.len()];
        for _ in 0..runs {
            let mut states: Vec<OnlineSoftmax> =
                sharers.iter().map(|_| OnlineSoftmax::new(gq, d)).collect();
            let mut times = [std::time::Duration::ZERO; STAGES.len()];
            let (decoder, scratch) = (&mut decoder(), &mut scratch);
            staged_walk(isa, decoder, scratch, blocks, &mut states, &mut times);
            let at = format!("{isa:?}, {} sharers", sharers.len());
            assert_eq!(state_bits(&states), want, "{at}");
            for (b, t) in best.iter_mut().zip(times) {
                *b = b.min(t.as_nanos() as f64);
            }
        }
        (walk_ns, best)
    }

    /// The stage split of the packed walk (run with `cargo test --release
    /// -p bd-core --lib -- --ignored --nocapture stage_split`): 64 blocks
    /// of KC-4, KC-2 and KT-4 at `dim` 64, solo (2 query rows) and as a
    /// 16-sharer × 2-row cascade over them as the shared prefix, in every
    /// instance; prints each stage's best-of-15 ns per KV token next to
    /// the whole walk's. Asserts only that the staged walk's bits equal
    /// the walk's.
    #[test]
    #[ignore = "timing; run in release with --ignored --nocapture"]
    fn stage_split() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let (d, gq, n) = (64, 2, 64);
        let empty = TokenMatrix::new(d);
        let queries: Vec<Vec<Vec<f32>>> = (0..16)
            .map(|s| {
                TokenMatrix::from_fn(gq, d, |g, c| (((s * gq + g) * d + c) as f32 * 0.71).sin())
                    .to_rows()
            })
            .collect();
        let sharers: Vec<PrefixSharer<'_, PackedBlock>> = (queries.iter())
            .map(|q_block| PrefixSharer {
                q_block,
                suffix: &[],
                res_k: &empty,
                res_v: &empty,
            })
            .collect();
        println!("stage split: {n} blocks, d {d}, g_q {gq}, Mma, best of 15, ns per KV token");
        for isa in Isa::each() {
            for scheme in [QuantScheme::kc4(), QuantScheme::kc2(), QuantScheme::kt4()] {
                let nr = layout.residual_block(scheme.int_width().unwrap());
                let (_, _, blocks) = synth_blocks(&codec, scheme, nr, n, d);
                let decoder = || {
                    let mut decoder = BlockDecoder::new(&codec, scheme);
                    decoder.isa = isa;
                    decoder
                };
                for count in [1, 16] {
                    let (walk, best) = best_split(isa, decoder, &blocks, &sharers[..count], 15);
                    let per_tok = (n * nr) as f64;
                    let split: Vec<String> = (STAGES.iter().zip(best))
                        .map(|(stage, ns)| format!("{stage} {:.1}", ns / per_tok))
                        .collect();
                    println!(
                        "  {isa:?} {scheme} {count:>2} x {gq} rows: walk {:.1} = {}",
                        walk / per_tok,
                        split.join(" / ")
                    );
                }
            }
        }
    }
}
