//! The residual K window in the MMA's layout: FP16 rows plus the Kᵀ
//! panels of their whole groups, in storage fixed at creation.
//!
//! A [`KeyWindow`] holds a head's residual K rows token-major — the record
//! every comparison, checksum and flush reads — and, beside them, one
//! **panel** per whole [`PANEL_TOKENS`]-token group of rows, back to back
//! in one buffer. A panel holds its group as a `dim × 16` channel-major
//! tile, the `ldmatrix` shape of the `Q·Kᵀ` B operand, so the residual
//! kernel scores a sealed group with its 16 tokens on the lanes and no
//! per-step transpose.
//!
//! # Storage
//!
//! A window is created with all of its storage for its bound — `Nr` rows
//! in a store, where the row that reaches `Nr` flushes the window: room
//! for `Nr` rows and for the panels of the ⌊(`Nr` − 1)/16⌋ groups that can
//! seal before that. No push, seal or flush allocates: a flush encodes
//! straight from the rows and then clears the window, keeping its
//! storage.
//!
//! # Panel invariant
//!
//! - The push that seals a group writes that group's panel into the
//!   window's one buffer, so every whole group below the bound has its
//!   panel, equal to its transposed rows bit for bit. Every sealing push
//!   holds `&mut`; readers see plain slices.
//! - A group completed by the row that reaches the bound gets no panel:
//!   that row flushes the window.
//! - Panels are derived data. They are not counted in `head_bytes`, pages
//!   or swap bytes, and no equality, checksum or swap blob reads them.
//!
//! Every row a window gains is rounded through FP16 (the KV projection's
//! output precision) on the way in, so a window's rows — and hence its
//! panels — are FP16-exact: rounding them again, as `mma` rounds its
//! operands, changes no bit.

use crate::cache::push_rounded;
use crate::matrix::TokenMatrix;
use bd_lowbit::f16::round_through_f16_in_place;

/// Tokens per Kᵀ panel: the MMA's N extent, the lanes the residual kernel
/// scores side by side.
pub const PANEL_TOKENS: usize = 16;

/// A residual K window: FP16-exact token-major rows plus the Kᵀ panel of
/// every whole [`PANEL_TOKENS`]-token group, in storage fixed at creation
/// — see the [module docs](self) for the panel invariant.
#[derive(Clone, Debug)]
pub struct KeyWindow {
    rows: TokenMatrix,
    /// The whole groups' panels, back to back.
    panels: Vec<f32>,
    /// The most rows the window holds; the row that reaches it flushes.
    bound: usize,
}

impl KeyWindow {
    /// An empty window of `dim`-channel rows with all of its storage for
    /// `bound` rows.
    pub fn new(dim: usize, bound: usize) -> Self {
        let groups = bound.saturating_sub(1) / PANEL_TOKENS;
        KeyWindow {
            rows: TokenMatrix::with_capacity(bound, dim),
            panels: Vec::with_capacity(groups * dim * PANEL_TOKENS),
            bound,
        }
    }

    /// A window holding `rows`, each rounded through FP16, with room for
    /// one more and every whole group's panel written.
    pub fn from_rows(rows: &TokenMatrix) -> Self {
        let mut window = KeyWindow::new(rows.dim(), rows.tokens() + 1);
        for row in rows {
            window.push(row);
        }
        window
    }

    /// A window of bound `bound` over `rows`, flat `dim`-channel rows that
    /// are already FP16-exact (a fork's shared rows, a swap blob's), every
    /// whole group's panel written.
    pub(crate) fn from_rounded(rows: &[f32], dim: usize, bound: usize) -> Self {
        let mut window = KeyWindow::new(dim, bound);
        for row in rows.chunks_exact(dim) {
            window.rows.push_row(row);
            window.seal_if_whole();
        }
        window
    }

    /// Appends one row rounded through FP16; a row that completes a group
    /// below the bound writes that group's panel.
    ///
    /// # Panics
    ///
    /// Panics on a row-width mismatch.
    pub(crate) fn push(&mut self, row: &[f32]) {
        push_rounded(&mut self.rows, row);
        self.seal_if_whole();
    }

    /// Writes the last group's panel if the last row completed it below
    /// the bound.
    fn seal_if_whole(&mut self) {
        let (tokens, dim) = (self.rows.tokens(), self.rows.dim());
        if tokens.is_multiple_of(PANEL_TOKENS) && tokens < self.bound {
            let len = dim * PANEL_TOKENS;
            let at = self.panels.len();
            self.panels.resize(at + len, 0.0);
            let group = &self.rows.as_slice()[tokens * dim - len..];
            write_panel(group, dim, false, &mut self.panels[at..]);
        }
    }

    /// Empties the window after a flush, keeping its width and storage.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.panels.clear();
    }

    /// The window's rows, token-major — the record.
    pub fn rows(&self) -> &TokenMatrix {
        &self.rows
    }

    /// Consumes the window into its rows.
    pub(crate) fn into_rows(self) -> TokenMatrix {
        self.rows
    }

    /// Tokens in the window.
    pub(crate) fn tokens(&self) -> usize {
        self.rows.tokens()
    }

    /// Whole groups that have their panels.
    pub fn sealed_groups(&self) -> usize {
        (self.panels.len())
            .checked_div(self.rows.dim() * PANEL_TOKENS)
            .unwrap_or(0)
    }

    /// The sealed groups' Kᵀ panels, back to back: in group `g`'s panel
    /// `panels()[(g * dim + c) * PANEL_TOKENS + j]` is channel `c` of the
    /// group's token `j`.
    pub fn panels(&self) -> &[f32] {
        &self.panels
    }

    /// Checks the panel invariant: one panel per whole group below the
    /// bound, each equal, bit for bit, to its group's transposed rows.
    pub fn panels_match_rows(&self) -> bool {
        let dim = self.rows.dim();
        let len = (dim * PANEL_TOKENS).max(1);
        let whole = self.tokens().min(self.bound.saturating_sub(1)) / PANEL_TOKENS;
        let mut want = vec![0.0; self.panels.len()];
        for (group, panel) in
            (self.rows.as_slice().chunks_exact(len)).zip(want.chunks_exact_mut(len))
        {
            write_panel(group, dim, false, panel);
        }
        self.sealed_groups() == whole
            && (self.panels.iter().zip(&want)).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The rows' and the panels' buffers as `(data pointer, capacity)`.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> [(*const f32, usize); 2] {
        [
            self.rows.storage(),
            (self.panels.as_ptr(), self.panels.capacity()),
        ]
    }
}

/// Two windows are equal when their rows are: the panels derive from them.
impl PartialEq for KeyWindow {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

/// Writes up to [`PANEL_TOKENS`] token-major rows of `dim` channels as one
/// `dim × 16` channel-major Kᵀ panel, zero in the lanes past the last row —
/// each value rounded through FP16 on the way when `round` is set (an
/// `mma` operand that is not FP16-exact yet).
///
/// # Panics
///
/// Panics if `panel` is not `dim × 16` or `rows` holds more than 16 rows.
pub fn write_panel(rows: &[f32], dim: usize, round: bool, panel: &mut [f32]) {
    assert_eq!(panel.len(), dim * PANEL_TOKENS, "panel shape");
    assert!(rows.len() <= panel.len(), "more rows than panel lanes");
    // 16 channels at a time through a 16 × 16 block on the stack: row
    // segments in, channel lanes out.
    for c0 in (0..dim).step_by(PANEL_TOKENS) {
        let width = PANEL_TOKENS.min(dim - c0);
        let mut block = [[0.0f32; PANEL_TOKENS]; PANEL_TOKENS];
        for (lanes, row) in block.iter_mut().zip(rows.chunks_exact(dim)) {
            lanes[..width].copy_from_slice(&row[c0..c0 + width]);
        }
        if round {
            round_through_f16_in_place(block.as_flattened_mut());
        }
        let strip = &mut panel[c0 * PANEL_TOKENS..(c0 + width) * PANEL_TOKENS];
        for (c, out) in strip.chunks_exact_mut(PANEL_TOKENS).enumerate() {
            for (dst, lanes) in out.iter_mut().zip(&block) {
                *dst = lanes[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(tokens: usize, dim: usize) -> TokenMatrix {
        TokenMatrix::from_fn(tokens, dim, |t, c| ((t * dim + c) as f32 * 0.37).sin())
    }

    #[test]
    fn slots_track_whole_groups_and_panels_are_the_transposed_rows() {
        let dim = 24;
        let mut w = KeyWindow::new(dim, 64);
        for (t, row) in rows(50, dim).iter().enumerate() {
            w.push(row);
            assert_eq!(w.sealed_groups(), (t + 1) / PANEL_TOKENS);
            assert!(w.panels_match_rows());
        }
        let panel = &w.panels()[dim * PANEL_TOKENS..][..dim * PANEL_TOKENS];
        for c in 0..dim {
            for j in 0..PANEL_TOKENS {
                assert_eq!(panel[c * PANEL_TOKENS + j], w.rows()[PANEL_TOKENS + j][c]);
            }
        }
        w.clear();
        assert_eq!((w.tokens(), w.sealed_groups(), w.rows().dim()), (0, 0, dim));
    }

    #[test]
    fn the_row_that_reaches_the_bound_seals_nothing() {
        let dim = 8;
        let mut w = KeyWindow::new(dim, 32);
        for row in &rows(32, dim) {
            w.push(row);
        }
        assert_eq!((w.tokens(), w.sealed_groups()), (32, 1));
        assert!(w.panels_match_rows());
        assert_eq!(KeyWindow::from_rows(&rows(32, dim)).sealed_groups(), 2);
    }

    #[test]
    fn rows_are_fp16_exact_and_equality_ignores_slots() {
        let src = rows(33, 16);
        let a = KeyWindow::from_rows(&src);
        let b = KeyWindow::from_rounded(a.rows().as_slice(), 16, 128);
        assert_eq!((a.sealed_groups(), b.sealed_groups()), (2, 2));
        assert_eq!(a.panels(), b.panels());
        assert_eq!(a, KeyWindow::from_rounded(a.rows().as_slice(), 16, 32));
        let mut again = TokenMatrix::zeros(33, 16);
        bd_lowbit::f16::round_through_f16(a.rows().as_slice(), again.as_mut_slice());
        assert_eq!(&again, a.rows());
    }

    #[test]
    fn a_short_group_pads_its_panel_with_zeros() {
        let dim = 3;
        let src = rows(5, dim);
        let mut panel = vec![f32::NAN; dim * PANEL_TOKENS];
        write_panel(src.as_slice(), dim, false, &mut panel);
        for c in 0..dim {
            for j in 0..PANEL_TOKENS {
                let want = if j < 5 { src[j][c] } else { 0.0 };
                assert_eq!(panel[c * PANEL_TOKENS + j].to_bits(), want.to_bits());
            }
        }
    }
}
