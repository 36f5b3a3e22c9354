//! Online (flash-style) softmax, split-KV merging, and the multi-warp
//! cooperative softmax of paper Algorithm 1.
//!
//! BitDecoding's warp layout puts `Wn` warps side by side along the token
//! dimension, so one score tile `S ∈ R^{Tm×Tn}` is distributed across warps
//! as column slices. The row-wise max/sum then *must* be reduced across
//! warps (via the `sTMP` shared buffer) before any warp exponentiates —
//! otherwise each warp normalizes against a stale/local maximum and the
//! shared accumulator is rescaled inconsistently. [`OnlineSoftmax::step_tile_warped`]
//! models both the cooperative protocol and, when disabled, the exact
//! inconsistency (Table III's "Valid ✗" row).

use bd_gpu_sim::Tile;
use bd_kvcache::TokenMatrix;
use bd_lowbit::isa::Isa;

/// `out[n] += Σ_k a[k] · b[k][n]` over row-major `b` (`a.len() × out.len()`)
/// — either attention GEMM for one query row — with the MMA's N dimension
/// on the lanes: each adds its terms in ascending `k`, literally the scalar
/// dot product's sequence, side by side instead of one after another.
#[inline(always)]
pub(crate) fn row_times_matrix(isa: Isa, a: &[f32], b: &[f32], out: &mut [f32]) {
    // 128- and 64-lane tiles are 8 independent `zmm` / `ymm` add chains
    // in the AVX-512 and AVX2 instances; on the baseline target 16 lanes
    // is what stays in registers. Columns past the last full tile go one
    // at a time.
    let done = match isa.avx512() {
        Some(_) => row_times_lanes::<128>(a, b, out, 0),
        None => 0,
    };
    let done = match isa.avx2() {
        Some(_) => row_times_lanes::<64>(a, b, out, done),
        None => done,
    };
    let done = row_times_lanes::<16>(a, b, out, done);
    row_times_lanes::<1>(a, b, out, done);
}

/// [`row_times_matrix`] over whole `L`-column tiles from `n`; returns its end.
#[inline(always)]
fn row_times_lanes<const L: usize>(a: &[f32], b: &[f32], out: &mut [f32], mut n: usize) -> usize {
    while n + L <= out.len() {
        let mut lanes = [0.0f32; L];
        lanes.copy_from_slice(&out[n..n + L]);
        for (&x, b_row) in a.iter().zip(b.chunks_exact(out.len())) {
            for (lane, &y) in lanes.iter_mut().zip(&b_row[n..n + L]) {
                *lane += x * y;
            }
        }
        out[n..n + L].copy_from_slice(&lanes);
        n += L;
    }
    n
}

/// `f32::max` in a fold from `−∞`, with the `+0` / `−0` tie it leaves
/// open (so that a compiler may vectorize its fold in any order) given to
/// `m`, the value seen first. A NaN `x` is skipped.
#[inline(always)]
pub(crate) fn max_in_order(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// `R` folds side by side, one per row of `s` (`R` rows back to back),
/// each in token order: `acc[r] = f(acc[r], s[r][t])`.
#[inline(always)]
pub(crate) fn fold_rows<const R: usize>(
    s: &[f32],
    mut acc: [f32; R],
    f: impl Fn(f32, f32) -> f32,
) -> [f32; R] {
    let tokens = s.len() / R;
    let mut rows = [&s[..0]; R];
    for (row, p) in rows.iter_mut().zip(s.chunks_exact(tokens)) {
        *row = p;
    }
    // Every row is `tokens` long, so the loop indexes them unchecked.
    assert!(rows.iter().all(|row| row.len() == tokens));
    for t in 0..tokens {
        for (a, row) in acc.iter_mut().zip(rows) {
            *a = f(*a, row[t]);
        }
    }
    acc
}

/// [`OnlineSoftmax::step_scores`] over whole groups of `R` rows of `s`,
/// from the row at `next` (state, row); returns the rest of `s`.
#[inline(always)]
fn step_groups<'s, const R: usize>(
    isa: Isa,
    states: &mut [OnlineSoftmax],
    next: &mut (usize, usize),
    s: &'s mut [f32],
    v: &TokenMatrix,
) -> &'s mut [f32] {
    let tokens = v.tokens();
    let mut groups = s.chunks_exact_mut((R * tokens).max(1));
    for s in &mut groups {
        let mut at = [(0, 0); R];
        for at in &mut at {
            while states[next.0].rows() == next.1 {
                *next = (next.0 + 1, 0);
            }
            *at = *next;
            next.1 += 1;
        }
        let row_max = fold_rows(s, [f32::NEG_INFINITY; R], max_in_order);
        let (mut m_new, mut correction, mut l) = ([0.0; R], [0.0; R], [0.0; R]);
        for (r, (&(i, j), p_row)) in at.iter().zip(s.chunks_exact_mut(tokens)).enumerate() {
            let m = states[i].m[j];
            m_new[r] = max_in_order(m, row_max[r]);
            correction[r] = (m - m_new[r]).exp();
            l[r] = states[i].l[j] * correction[r];
            for p in p_row {
                *p -= m_new[r];
            }
        }
        isa.exp_in_place(s);
        let l = fold_rows(s, l, |l, p| l + p);
        for (r, (&(i, j), p_row)) in at.iter().zip(s.chunks_exact(tokens)).enumerate() {
            let state = &mut states[i];
            let acc = &mut state.acc[j * state.dim..(j + 1) * state.dim];
            for a in acc.iter_mut() {
                *a *= correction[r];
            }
            row_times_matrix(isa, p_row, v.as_slice(), acc);
            (state.m[j], state.l[j]) = (m_new[r], l[r]);
        }
    }
    groups.into_remainder()
}

/// Running flash-attention state for a block of query rows.
///
/// The output accumulator is stored **flat** (`rows × dim` row-major in one
/// `Vec<f32>`) — the same flat-layout discipline as
/// [`bd_kvcache::TokenMatrix`], so per-tile rescale/accumulate loops run
/// over contiguous slices with no per-row indirection.
#[derive(Clone, Debug)]
pub struct OnlineSoftmax {
    /// Running row maxima `m_i`.
    pub m: Vec<f32>,
    /// Running row denominators `l_i`.
    pub l: Vec<f32>,
    /// Unnormalized output accumulator `O_i`, flat row-major `rows × dim`.
    acc: Vec<f32>,
    dim: usize,
}

impl OnlineSoftmax {
    /// Fresh state for `rows` query rows and `dim` output channels.
    pub fn new(rows: usize, dim: usize) -> Self {
        OnlineSoftmax {
            m: vec![f32::NEG_INFINITY; rows],
            l: vec![0.0; rows],
            acc: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Query rows tracked.
    pub fn rows(&self) -> usize {
        self.m.len()
    }

    /// Output channels tracked.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// One query row's unnormalized accumulator.
    pub fn acc_row(&self, r: usize) -> &[f32] {
        &self.acc[r * self.dim..(r + 1) * self.dim]
    }

    /// One query row's unnormalized accumulator, mutably.
    pub fn acc_row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.acc[r * self.dim..(r + 1) * self.dim]
    }

    /// Folds one `rows × Tn` score tile and its `Tn × dim` value tile into
    /// the state (the single-warp / reference path).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn step_tile(&mut self, s: &Tile, v: &Tile) {
        assert_eq!(s.rows(), self.rows(), "score tile rows");
        assert_eq!(s.cols(), v.rows(), "score/value token mismatch");
        let v = TokenMatrix::from_flat(v.as_slice().to_vec(), v.cols());
        let states = std::slice::from_mut(self);
        OnlineSoftmax::step_scores(Isa::BASELINE, states, &mut s.as_slice().to_vec(), &v);
    }

    /// [`OnlineSoftmax::step_tile`] over the fused kernels' scratch, in
    /// `isa`, for every row of `states` in one pass: `s` holds their
    /// scores back to back (flat row-major `rows × tokens`) and is
    /// overwritten with the probabilities `exp(s − m)`. The rows go in
    /// groups of 8, then 2, then 1, across states, as the MMA's M
    /// dimension holds a head's query rows and a cascade's sharers; a
    /// group's max and `l` chains run side by side. Every row still sees
    /// the operations it would alone, in the same order. Panics on a shape
    /// mismatch.
    #[inline(always)]
    pub(crate) fn step_scores(
        isa: Isa,
        states: &mut [OnlineSoftmax],
        s: &mut [f32],
        v: &TokenMatrix,
    ) {
        let rows: usize = states.iter().map(OnlineSoftmax::rows).sum();
        assert_eq!(s.len(), rows * v.tokens(), "score buffer shape");
        assert!(states.iter().all(|st| st.dim == v.dim()), "value dim");
        let next = &mut (0, 0);
        let s = step_groups::<8>(isa, states, next, s, v);
        let s = step_groups::<2>(isa, states, next, s, v);
        step_groups::<1>(isa, states, next, s, v);
    }

    /// The multi-warp path: the score tile is split into `wn` column
    /// slices, one per warp.
    ///
    /// With `cooperative` set, warps reduce their row maxima and sums
    /// through shared memory (`sTMP`) before exponentiating — numerically
    /// identical to [`OnlineSoftmax::step_tile`]. Without it, each warp
    /// uses its *local* max and rescales the shared accumulator
    /// independently, reproducing the data race that makes `Wn > 1` invalid
    /// without Algorithm 1 (paper Table III).
    ///
    /// # Panics
    ///
    /// Panics if `wn` does not divide the tile width, or on shape mismatch.
    pub fn step_tile_warped(&mut self, s: &Tile, v: &Tile, wn: usize, cooperative: bool) {
        assert!(
            wn > 0 && s.cols().is_multiple_of(wn),
            "Wn must divide the tile width"
        );
        if wn == 1 || cooperative {
            // Cooperative protocol: intra-warp register reduction, then an
            // sTMP round-trip, yields the exact global row max/sum. The
            // arithmetic is identical to the reference path.
            self.step_tile(s, v);
            return;
        }
        // Non-cooperative Wn > 1: without the sTMP reduction, each warp
        // only sees the row maximum of its own column slice. It
        // exponentiates against that *local* max and accumulates into the
        // shared buffers without rescaling anyone else's contribution —
        // mixing incompatible normalizations. The stored running max ends
        // up as whichever warp wrote last.
        let slice = s.cols() / wn;
        let dim = self.dim;
        for w in 0..wn {
            let t0 = w * slice;
            for i in 0..s.rows() {
                let mut local_max = f32::NEG_INFINITY;
                for t in t0..t0 + slice {
                    local_max = local_max.max(s[(i, t)]);
                }
                let acc = &mut self.acc[i * dim..(i + 1) * dim];
                for t in t0..t0 + slice {
                    let p = (s[(i, t)] - local_max).exp();
                    self.l[i] += p;
                    for (a, &vv) in acc.iter_mut().zip(v.row(t)) {
                        *a += p * vv;
                    }
                }
                self.m[i] = local_max; // last writer wins
            }
        }
    }

    /// Normalizes and returns the attention output (`rows × dim`).
    pub fn finish(self) -> Vec<Vec<f32>> {
        let dim = self.dim;
        self.acc
            .chunks_exact(dim.max(1))
            .zip(self.l)
            .map(|(row, l)| {
                let inv = if l > 0.0 { 1.0 / l } else { 0.0 };
                row.iter().map(|x| x * inv).collect()
            })
            .collect()
    }

    /// Merges split-KV partial states (log-sum-exp combine): each partial
    /// covered a disjoint token range; the merge is exact. This is the
    /// combine step of the paper's cooperative split-K softmax, and the
    /// reduction the parallel decode path uses to fold per-shard partials.
    ///
    /// # Panics
    ///
    /// Panics if `partials` is empty or shapes differ.
    pub fn merge(partials: Vec<OnlineSoftmax>) -> OnlineSoftmax {
        let mut iter = partials.into_iter();
        let Some(mut out) = iter.next() else {
            panic!("at least one partial");
        };
        let dim = out.dim;
        for p in iter {
            assert_eq!(p.rows(), out.rows(), "partial shape mismatch");
            assert_eq!(p.dim, out.dim, "partial dim mismatch");
            for i in 0..out.rows() {
                let m_new = out.m[i].max(p.m[i]);
                let c_out = (out.m[i] - m_new).exp();
                let c_p = (p.m[i] - m_new).exp();
                let acc = &mut out.acc[i * dim..(i + 1) * dim];
                for (a, b) in acc.iter_mut().zip(&p.acc[i * dim..(i + 1) * dim]) {
                    *a = *a * c_out + b * c_p;
                }
                out.l[i] = out.l[i] * c_out + p.l[i] * c_p;
                out.m[i] = m_new;
            }
        }
        out
    }
}

/// Dense reference attention `softmax(Q K^T · scale) V` for testing.
///
/// `q` holds `rows` queries of `d` channels (the kernels' query shape),
/// `k`/`v` are `tokens × d`.
pub fn reference_attention(
    q: &[Vec<f32>],
    k: &TokenMatrix,
    v: &TokenMatrix,
    scale: f32,
) -> Vec<Vec<f32>> {
    let mut out = vec![vec![0.0f32; v.dim()]; q.len()];
    for (q_row, out_row) in q.iter().zip(&mut out) {
        let scores: Vec<f32> = k
            .iter()
            .map(|k_row| q_row.iter().zip(k_row).map(|(a, b)| a * b).sum::<f32>() * scale)
            .collect();
        let m = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = scores.iter().map(|&s| (s - m).exp()).collect();
        let l: f32 = exps.iter().sum();
        for (&p, v_row) in exps.iter().zip(v) {
            for (o, &vv) in out_row.iter_mut().zip(v_row) {
                *o += p / l * vv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score_tile(rows: usize, cols: usize, seed: f32) -> Tile {
        Tile::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.61 + seed).sin() * 3.0
        })
    }

    fn value_tile(tokens: usize, dim: usize) -> Tile {
        Tile::from_fn(tokens, dim, |t, c| ((t * dim + c) as f32 * 0.37).cos())
    }

    fn run_tiled(s_tiles: &[Tile], v_tiles: &[Tile], rows: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = OnlineSoftmax::new(rows, dim);
        for (s, v) in s_tiles.iter().zip(v_tiles) {
            state.step_tile(s, v);
        }
        state.finish()
    }

    fn dense_reference(
        s_tiles: &[Tile],
        v_tiles: &[Tile],
        rows: usize,
        dim: usize,
    ) -> Vec<Vec<f32>> {
        // Concatenate tiles along tokens and run a dense softmax.
        let mut scores: Vec<Vec<f32>> = vec![Vec::new(); rows];
        let mut values: Vec<Vec<f32>> = Vec::new();
        for (s, v) in s_tiles.iter().zip(v_tiles) {
            for (i, row_scores) in scores.iter_mut().enumerate() {
                row_scores.extend(s.row(i));
            }
            for t in 0..v.rows() {
                values.push(v.row(t).to_vec());
            }
        }
        let mut out = vec![vec![0.0f32; dim]; rows];
        for (row_scores, out_row) in scores.iter().zip(out.iter_mut()) {
            let m = row_scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let exps: Vec<f32> = row_scores.iter().map(|&x| (x - m).exp()).collect();
            let l: f32 = exps.iter().sum();
            for (t, &p) in exps.iter().enumerate() {
                for c in 0..dim {
                    out_row[c] += p / l * values[t][c];
                }
            }
        }
        out
    }

    fn max_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
            .fold(0.0, f32::max)
    }

    #[test]
    fn online_matches_dense_softmax() {
        let (rows, dim) = (4, 8);
        let s_tiles: Vec<Tile> = (0..5).map(|i| score_tile(rows, 16, i as f32)).collect();
        let v_tiles: Vec<Tile> = (0..5).map(|_| value_tile(16, dim)).collect();
        let online = run_tiled(&s_tiles, &v_tiles, rows, dim);
        let dense = dense_reference(&s_tiles, &v_tiles, rows, dim);
        assert!(max_diff(&online, &dense) < 1e-5);
    }

    #[test]
    fn split_merge_is_exact() {
        let (rows, dim) = (4, 8);
        let s_tiles: Vec<Tile> = (0..6)
            .map(|i| score_tile(rows, 16, i as f32 * 1.3))
            .collect();
        let v_tiles: Vec<Tile> = (0..6).map(|_| value_tile(16, dim)).collect();

        // Full pass.
        let full = run_tiled(&s_tiles, &v_tiles, rows, dim);

        // Two splits of three tiles each, merged.
        let mut a = OnlineSoftmax::new(rows, dim);
        let mut b = OnlineSoftmax::new(rows, dim);
        for i in 0..3 {
            a.step_tile(&s_tiles[i], &v_tiles[i]);
            b.step_tile(&s_tiles[i + 3], &v_tiles[i + 3]);
        }
        let merged = OnlineSoftmax::merge(vec![a, b]).finish();
        assert!(max_diff(&full, &merged) < 1e-5);
    }

    #[test]
    fn cooperative_warped_matches_reference() {
        let (rows, dim) = (4, 8);
        let s = score_tile(rows, 32, 0.5);
        let v = value_tile(32, dim);
        let mut reference = OnlineSoftmax::new(rows, dim);
        reference.step_tile(&s, &v);
        for wn in [1, 2, 4] {
            let mut warped = OnlineSoftmax::new(rows, dim);
            warped.step_tile_warped(&s, &v, wn, true);
            assert!(
                max_diff(&warped.clone().finish(), &reference.clone().finish()) < 1e-6,
                "Wn={wn}"
            );
        }
    }

    #[test]
    fn non_cooperative_multi_warp_is_wrong() {
        // Table III: Wn=4 without cooperative softmax → invalid results.
        let (rows, dim) = (4, 8);
        let s = score_tile(rows, 32, 0.5);
        let v = value_tile(32, dim);
        let mut good = OnlineSoftmax::new(rows, dim);
        good.step_tile_warped(&s, &v, 4, true);
        let mut bad = OnlineSoftmax::new(rows, dim);
        bad.step_tile_warped(&s, &v, 4, false);
        let diff = max_diff(&good.finish(), &bad.finish());
        assert!(diff > 1e-3, "race must corrupt output, diff {diff}");
    }

    #[test]
    fn non_cooperative_single_warp_is_still_correct() {
        let (rows, dim) = (2, 4);
        let s = score_tile(rows, 16, 0.1);
        let v = value_tile(16, dim);
        let mut a = OnlineSoftmax::new(rows, dim);
        a.step_tile_warped(&s, &v, 1, false);
        let mut b = OnlineSoftmax::new(rows, dim);
        b.step_tile(&s, &v);
        assert!(max_diff(&a.finish(), &b.finish()) < 1e-7);
    }

    #[test]
    fn reference_attention_rows_sum_properly() {
        // With identical V rows, attention output equals that row.
        let q = vec![vec![0.3f32; 8]; 2];
        let k = TokenMatrix::from_fn(10, 8, |t, _| t as f32 * 0.1);
        let v = TokenMatrix::from_fn(10, 4, |_, _| 2.5);
        let out = reference_attention(&q, &k, &v, 0.35);
        for row in out {
            for x in row {
                assert!((x - 2.5).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn merge_single_partial_is_identity() {
        let (rows, dim) = (3, 4);
        let s = score_tile(rows, 8, 0.0);
        let v = value_tile(8, dim);
        let mut state = OnlineSoftmax::new(rows, dim);
        state.step_tile(&s, &v);
        let direct = state.clone().finish();
        let merged = OnlineSoftmax::merge(vec![state]).finish();
        assert!(max_diff(&direct, &merged) < 1e-9);
    }

    /// The row-at-a-time pass every fused kernel ran before rows were
    /// grouped, written out: per row, its max from `−∞` in token order,
    /// `m_new`, the correction, `s − m_new`, `exp`, `l` in token order,
    /// `acc *= correction`, then `acc[c] += p · v[t][c]` token-ascending.
    fn one_row_at_a_time(state: &mut OnlineSoftmax, s: &mut [f32], v: &TokenMatrix) {
        let (tokens, dim) = (v.tokens(), state.dim());
        for (i, p_row) in s.chunks_exact_mut(tokens).enumerate() {
            let max = |m: f32, x: f32| if x > m { x } else { m };
            let row_max = p_row.iter().fold(f32::NEG_INFINITY, |m, &x| max(m, x));
            let m_new = max(state.m[i], row_max);
            let correction = (state.m[i] - m_new).exp();
            for p in p_row.iter_mut() {
                *p = (*p - m_new).exp();
            }
            let l_new = p_row.iter().fold(state.l[i] * correction, |l, &p| l + p);
            let acc = &mut state.acc[i * dim..(i + 1) * dim];
            for a in acc.iter_mut() {
                *a *= correction;
            }
            for (&p, v_row) in p_row.iter().zip(v.iter()) {
                for (a, &x) in acc.iter_mut().zip(v_row) {
                    *a += p * x;
                }
            }
            state.m[i] = m_new;
            state.l[i] = l_new;
        }
    }

    /// Raw score bits for one row of `tokens`, of a kind picked by `kind`:
    /// ordinary values among NaN payloads, ±Inf, ±0 and subnormals; only
    /// signed zeros; signed zeros among negative values; only `−∞`; only
    /// NaN; ordinary values alone.
    fn hostile_row(kind: u64, tokens: usize, next: &mut impl FnMut() -> u64) -> Vec<f32> {
        const SPECIAL: [u32; 14] = [
            0x7FC0_0000, // quiet NaN
            0xFFC0_0001, // negative NaN with a payload
            0x7F80_0001, // signalling NaN
            0x7FFF_FFFF,
            0x7F80_0000, // +Inf
            0xFF80_0000, // −Inf
            0x0000_0000, // +0
            0x8000_0000, // −0
            0x0000_0001, // subnormals
            0x807F_FFFF,
            0x0040_0000,
            0x7F7F_FFFF, // ±f32::MAX
            0xFF7F_FFFF,
            0x4120_0000, // 10
        ];
        let ordinary = |x: u64| (x % 4001) as f32 / 100.0 - 20.0;
        (0..tokens)
            .map(|_| {
                let x = next();
                let zero = f32::from_bits(if x.is_multiple_of(2) { 0 } else { 0x8000_0000 });
                match kind % 6 {
                    0 if x.is_multiple_of(3) => {
                        f32::from_bits(SPECIAL[(x >> 8) as usize % SPECIAL.len()])
                    }
                    1 => zero,
                    2 if x % 8 < 3 => zero,
                    2 => -ordinary(x >> 8).abs() - 1.0,
                    3 => f32::NEG_INFINITY,
                    4 => f32::from_bits(0x7F80_0000 | (x >> 40) as u32 | 1 | ((x as u32) << 31)),
                    _ => ordinary(x >> 8),
                }
            })
            .collect()
    }

    #[test]
    fn grouped_pass_matches_one_row_at_a_time() {
        // Two blocks folded in turn (so the second rescales what the first
        // left) into 1, 2, 7, 8, 9 or 33 rows split over 1 to 16 states,
        // each block 1, 15, 128 or 129 tokens of raw-bit scores: in every
        // instance, every `m`, `l`, accumulator and probability equals
        // the row-at-a-time pass's bits ("is NaN" for NaN).
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let dim = 24;
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for isa in Isa::each() {
            for rows in [1, 2, 7, 8, 9, 33] {
                for states in [1, 2, 5, 16].into_iter().filter(|&n| n <= rows) {
                    let sizes: Vec<usize> = (0..states)
                        .map(|i| rows / states + usize::from(i < rows % states))
                        .collect();
                    for tokens in [1, 15, 128, 129] {
                        let mut want: Vec<OnlineSoftmax> =
                            sizes.iter().map(|&n| OnlineSoftmax::new(n, dim)).collect();
                        let mut got = want.clone();
                        for _ in 0..2 {
                            let s: Vec<f32> = (0..rows)
                                .flat_map(|_| hostile_row(next(), tokens, &mut next))
                                .collect();
                            let v = TokenMatrix::from_fn(tokens, dim, |t, c| {
                                ((t * dim + c) as f32 * 0.37).sin() * 3.0
                            });
                            let mut want_p = s.clone();
                            let mut first = 0;
                            for (state, &n) in want.iter_mut().zip(&sizes) {
                                let own = &mut want_p[first * tokens..(first + n) * tokens];
                                one_row_at_a_time(state, own, &v);
                                first += n;
                            }
                            let mut got_p = s.clone();
                            isa.run(|isa| {
                                OnlineSoftmax::step_scores(isa, &mut got, &mut got_p, &v)
                            });
                            let at =
                                format!("{isa:?}, {rows} rows in {states} states, {tokens} tokens");
                            for (i, (&a, &b)) in got_p.iter().zip(&want_p).enumerate() {
                                assert!(same(a, b), "{at}: p[{i}] {a:?} vs {b:?}");
                            }
                        }
                        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                            let at = format!("{isa:?}, {rows} rows in {states} states, {tokens} tokens, state {i}");
                            for (x, y) in
                                a.m.iter()
                                    .zip(&b.m)
                                    .chain(a.l.iter().zip(&b.l))
                                    .chain(a.acc.iter().zip(&b.acc))
                            {
                                assert!(
                                    same(*x, *y),
                                    "{at}: {x:?} vs {y:?} (m {:?} vs {:?})",
                                    a.m,
                                    b.m
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
