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
use bd_kvcache::{TokenMatrix, TokenRows};

/// `out[n] += Σ_k a[k] · b[k][n]` over row-major `b` (`a.len() × out.len()`)
/// — either attention GEMM for one query row — with the MMA's N dimension
/// on the lanes: each adds its terms in ascending `k`, literally the scalar
/// dot product's sequence, side by side instead of one after another.
pub(crate) fn row_times_matrix(a: &[f32], b: &[f32], out: &mut [f32]) {
    // Tiles of 16 lanes stay in registers on the baseline target; columns
    // past the last full tile go one at a time.
    let done = row_times_lanes::<16>(a, b, out, 0);
    row_times_lanes::<1>(a, b, out, done);
}

/// [`row_times_matrix`] over whole `L`-column tiles from `n`; returns its end.
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
    pub fn dim(&self) -> usize {
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
        self.step_scores(&mut s.as_slice().to_vec(), &v);
    }

    /// [`OnlineSoftmax::step_tile`] over the fused kernels' scratch: a flat
    /// row-major `rows × tokens` score buffer, overwritten with the
    /// probabilities `exp(s − m)` so `P·V` runs channel lanes over a whole
    /// row (every `l += p` and `acc += p·v` still in token order).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn step_scores(&mut self, s: &mut [f32], v: &TokenMatrix) {
        let (tokens, dim) = (v.tokens(), self.dim);
        assert_eq!(s.len(), self.rows() * tokens, "score buffer shape");
        assert_eq!(v.dim(), dim, "value dim mismatch");
        for (i, p_row) in s.chunks_exact_mut(tokens.max(1)).enumerate() {
            let row_max = p_row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let m_new = self.m[i].max(row_max);
            let correction = (self.m[i] - m_new).exp();
            let mut l_new = self.l[i] * correction;
            for p in p_row.iter_mut() {
                *p = (*p - m_new).exp();
                l_new += *p;
            }
            let acc = &mut self.acc[i * dim..(i + 1) * dim];
            for a in acc.iter_mut() {
                *a *= correction;
            }
            row_times_matrix(p_row, v.as_slice(), acc);
            self.m[i] = m_new;
            self.l[i] = l_new;
        }
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
/// `q` is `rows × d`, `k`/`v` are `tokens × d`. Accepts any token-matrix
/// representation (flat [`bd_kvcache::TokenMatrix`] or nested
/// `Vec<Vec<f32>>`) through [`TokenRows`].
pub fn reference_attention<Q, K, V>(q: &Q, k: &K, v: &V, scale: f32) -> Vec<Vec<f32>>
where
    Q: TokenRows + ?Sized,
    K: TokenRows + ?Sized,
    V: TokenRows + ?Sized,
{
    let rows = q.token_count();
    let tokens = k.token_count();
    let dim = v.token_dim();
    let mut out = vec![vec![0.0f32; dim]; rows];
    for (i, out_row) in out.iter_mut().enumerate() {
        let q_row = q.token_row(i);
        let scores: Vec<f32> = (0..tokens)
            .map(|t| {
                q_row
                    .iter()
                    .zip(k.token_row(t))
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    * scale
            })
            .collect();
        let m = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = scores.iter().map(|&s| (s - m).exp()).collect();
        let l: f32 = exps.iter().sum();
        for (t, &p) in exps.iter().enumerate() {
            for (o, &vv) in out_row.iter_mut().zip(v.token_row(t)) {
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
        let k: Vec<Vec<f32>> = (0..10).map(|t| vec![t as f32 * 0.1; 8]).collect();
        let v = vec![vec![2.5f32; 4]; 10];
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
}
