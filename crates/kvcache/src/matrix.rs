//! Flat, contiguous token-matrix storage — the hot-path value container.
//!
//! # Flat-layout invariants
//!
//! [`TokenMatrix`] replaces the historical `Vec<Vec<f32>>` representation
//! with one contiguous row-major buffer. Every producer and consumer in the
//! workspace relies on these invariants:
//!
//! * **Token-major order**: row `t` (one token's channels) occupies
//!   `data[t * dim .. (t + 1) * dim]`. This is exactly the orientation the
//!   fused decode kernel's `Q·Kᵀ` row-dot and `P·V` accumulation consume,
//!   so decoded blocks never need a transpose round-trip.
//! * **Fixed width**: `dim` is fixed at construction (or adopted from the
//!   first pushed row); `data.len()` is always a multiple of `dim`.
//! * **No per-row allocation**: growing by one token (`push_row`) extends
//!   the single backing `Vec<f32>` — the residual region of the cache grows
//!   amortized-O(dim) per decode step with no heap churn per token.
//!
//! Callers that still traffic in nested `Vec<Vec<f32>>` (tests, accuracy
//! harnesses, examples) interoperate through [`TokenRows`], the read-only
//! row-view trait implemented for both representations, plus the
//! `From`/`FromIterator` conversions.

use std::ops::{Index, IndexMut, Range};

/// Values for one block of tokens in flat row-major storage:
/// row `t` = `data[t * dim .. (t + 1) * dim]`, channel `c` at offset `c`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TokenMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl TokenMatrix {
    /// An empty matrix that will hold `dim`-channel tokens.
    pub fn new(dim: usize) -> Self {
        TokenMatrix {
            data: Vec::new(),
            dim,
        }
    }

    /// An empty matrix with capacity reserved for `tokens` rows.
    pub fn with_capacity(tokens: usize, dim: usize) -> Self {
        TokenMatrix {
            data: Vec::with_capacity(tokens * dim),
            dim,
        }
    }

    /// Reserves room for at least `tokens` more rows, growing the way a
    /// push would.
    pub fn reserve(&mut self, tokens: usize) {
        self.data.reserve(tokens * self.dim);
    }

    /// A zero-filled `tokens × dim` matrix.
    pub fn zeros(tokens: usize, dim: usize) -> Self {
        TokenMatrix {
            data: vec![0.0; tokens * dim],
            dim,
        }
    }

    /// Wraps an existing flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "flat buffer of {} values does not tile by dim {dim}",
            data.len()
        );
        TokenMatrix { data, dim }
    }

    /// Builds from a generator over `(token, channel)`.
    pub fn from_fn(tokens: usize, dim: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = TokenMatrix::with_capacity(tokens, dim);
        for t in 0..tokens {
            for c in 0..dim {
                m.data.push(f(t, c));
            }
        }
        m
    }

    /// Number of tokens (rows).
    pub fn tokens(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Number of tokens — alias kept for `Vec`-era call sites.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.tokens()
    }

    /// `true` when no tokens are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Channels per token (0 until the first row fixes it).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One token's channels.
    pub fn row(&self, t: usize) -> &[f32] {
        &self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// One token's channels, mutably.
    pub fn row_mut(&mut self, t: usize) -> &mut [f32] {
        &mut self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// Appends one token row.
    ///
    /// An empty matrix constructed with `dim == 0` adopts the first row's
    /// width; afterwards every row must match.
    ///
    /// # Panics
    ///
    /// Panics on a row-width mismatch.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.dim == 0 && self.data.is_empty() {
            self.dim = row.len();
        }
        assert_eq!(row.len(), self.dim, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends all rows of another matrix.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch (unless `self` is empty).
    pub fn extend_rows(&mut self, other: &TokenMatrix) {
        if other.is_empty() {
            return;
        }
        if self.dim == 0 && self.data.is_empty() {
            self.dim = other.dim;
        }
        assert_eq!(other.dim, self.dim, "matrix width mismatch");
        self.data.extend_from_slice(&other.data);
    }

    /// A copy of the token range `r` as a new matrix.
    pub fn slice_rows(&self, r: Range<usize>) -> TokenMatrix {
        TokenMatrix {
            data: self.data[r.start * self.dim..r.end * self.dim].to_vec(),
            dim: self.dim,
        }
    }

    /// Iterates over token rows as slices.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f32> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Iterates over token rows as mutable slices.
    pub fn iter_mut(&mut self) -> std::slice::ChunksExactMut<'_, f32> {
        self.data.chunks_exact_mut(self.dim.max(1))
    }

    /// The whole backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole backing buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the backing buffer.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Removes all tokens, keeping the width and capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Reshapes to `tokens × dim`, reusing the backing allocation.
    /// Newly exposed elements are zeroed; existing ones keep their values
    /// (callers that scatter into every slot may ignore them).
    pub fn resize_tokens(&mut self, tokens: usize, dim: usize) {
        self.dim = dim;
        self.data.resize(tokens * dim, 0.0);
    }

    /// Converts to the legacy nested representation (test/compat use only —
    /// this allocates one `Vec` per token).
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        self.iter().map(<[f32]>::to_vec).collect()
    }
}

impl Index<usize> for TokenMatrix {
    type Output = [f32];
    fn index(&self, t: usize) -> &[f32] {
        self.row(t)
    }
}

impl IndexMut<usize> for TokenMatrix {
    fn index_mut(&mut self, t: usize) -> &mut [f32] {
        self.row_mut(t)
    }
}

impl FromIterator<Vec<f32>> for TokenMatrix {
    fn from_iter<I: IntoIterator<Item = Vec<f32>>>(iter: I) -> Self {
        let mut m = TokenMatrix::new(0);
        for row in iter {
            m.push_row(&row);
        }
        m
    }
}

impl From<Vec<Vec<f32>>> for TokenMatrix {
    fn from(rows: Vec<Vec<f32>>) -> Self {
        rows.into_iter().collect()
    }
}

impl From<&[Vec<f32>]> for TokenMatrix {
    fn from(rows: &[Vec<f32>]) -> Self {
        let mut m = TokenMatrix::new(0);
        for row in rows {
            m.push_row(row);
        }
        m
    }
}

impl<'a> IntoIterator for &'a TokenMatrix {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut TokenMatrix {
    type Item = &'a mut [f32];
    type IntoIter = std::slice::ChunksExactMut<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// Read-only row view over any token-matrix representation.
///
/// The flat [`TokenMatrix`] is the hot-path type; nested `Vec<Vec<f32>>`
/// (tests, examples, accuracy harnesses) remains accepted at API
/// boundaries through this trait. It is `Sync` because prompt admission
/// reads one prompt from several threads of a
/// [launch](crate::launch::launch).
pub trait TokenRows: Sync {
    /// Number of tokens.
    fn token_count(&self) -> usize;
    /// Channels per token (0 for an empty matrix of unknown width).
    fn token_dim(&self) -> usize;
    /// One token's channels.
    fn token_row(&self, t: usize) -> &[f32];
}

impl TokenRows for TokenMatrix {
    fn token_count(&self) -> usize {
        self.tokens()
    }
    fn token_dim(&self) -> usize {
        self.dim()
    }
    fn token_row(&self, t: usize) -> &[f32] {
        self.row(t)
    }
}

impl TokenRows for [Vec<f32>] {
    fn token_count(&self) -> usize {
        self.len()
    }
    fn token_dim(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }
    fn token_row(&self, t: usize) -> &[f32] {
        &self[t]
    }
}

impl TokenRows for Vec<Vec<f32>> {
    fn token_count(&self) -> usize {
        self.len()
    }
    fn token_dim(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }
    fn token_row(&self, t: usize) -> &[f32] {
        &self[t]
    }
}

impl<const N: usize> TokenRows for [Vec<f32>; N] {
    fn token_count(&self) -> usize {
        N
    }
    fn token_dim(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }
    fn token_row(&self, t: usize) -> &[f32] {
        &self[t]
    }
}

impl TokenRows for bd_gpu_sim::Tile {
    fn token_count(&self) -> usize {
        self.rows()
    }
    fn token_dim(&self) -> usize {
        self.cols()
    }
    fn token_row(&self, t: usize) -> &[f32] {
        self.row(t)
    }
}

impl<T: TokenRows + ?Sized> TokenRows for &T {
    fn token_count(&self) -> usize {
        (**self).token_count()
    }
    fn token_dim(&self) -> usize {
        (**self).token_dim()
    }
    fn token_row(&self, t: usize) -> &[f32] {
        (**self).token_row(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_layout_round_trips_rows() {
        let rows: Vec<Vec<f32>> = (0..5).map(|t| vec![t as f32, t as f32 + 0.5]).collect();
        let m: TokenMatrix = rows.clone().into();
        assert_eq!(m.tokens(), 5);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m[3][1], 3.5);
        assert_eq!(m.as_slice()[3 * 2 + 1], 3.5);
    }

    #[test]
    fn push_adopts_width_and_enforces_it() {
        let mut m = TokenMatrix::new(0);
        m.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(m.dim(), 3);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.tokens(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut m = TokenMatrix::new(4);
        m.push_row(&[0.0; 3]);
    }

    #[test]
    fn slice_and_extend() {
        let m = TokenMatrix::from_fn(6, 2, |t, c| (t * 2 + c) as f32);
        let mid = m.slice_rows(2..4);
        assert_eq!(mid.tokens(), 2);
        assert_eq!(mid.row(0), &[4.0, 5.0]);
        let mut out = TokenMatrix::new(0);
        out.extend_rows(&mid);
        out.extend_rows(&m.slice_rows(0..1));
        assert_eq!(out.tokens(), 3);
        assert_eq!(out.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn iteration_yields_row_slices() {
        let m = TokenMatrix::from_fn(3, 4, |t, c| (t * 4 + c) as f32);
        let sums: Vec<f32> = (&m).into_iter().map(|r| r.iter().sum()).collect();
        assert_eq!(sums, vec![6.0, 22.0, 38.0]);
        let mut m = m;
        for row in &mut m {
            row[0] = -1.0;
        }
        assert_eq!(m[2][0], -1.0);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = TokenMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.tokens(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn token_rows_unifies_representations() {
        fn total<M: TokenRows + ?Sized>(m: &M) -> f32 {
            (0..m.token_count())
                .flat_map(|t| m.token_row(t).to_vec())
                .sum()
        }
        let nested = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let flat: TokenMatrix = nested.clone().into();
        assert_eq!(total(&nested), total(&flat));
        assert_eq!(nested.token_dim(), flat.token_dim());
    }
}
