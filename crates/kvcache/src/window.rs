//! The residual K window in the MMA's layout: FP16 rows plus write-once
//! Kᵀ panels.
//!
//! A [`KeyWindow`] holds a head's residual K rows token-major — the record
//! every comparison, checksum and flush reads — and, beside them, one
//! **panel slot** per whole [`PANEL_TOKENS`]-token group of rows. A slot
//! holds that group as a `dim × 16` channel-major tile, the `ldmatrix`
//! shape of the `Q·Kᵀ` B operand, so the residual kernel scores a sealed
//! group with its 16 tokens on the lanes and no per-step transpose.
//!
//! # Slot invariant
//!
//! - There is exactly one slot per whole group: `rows / 16` of them.
//! - A slot is filled at most once, by the first reader of its group
//!   ([`KeyWindow::panel`], through a shared reference — on the decode
//!   launch's threads, never during admission or by an append), and
//!   then equals the transposed rows of its group bit for bit.
//! - Only `&mut` methods clear or resize slots: a push that seals a group
//!   opens an empty slot, a flush or a rebuild from rows starts empty.
//! - Slots are a cache. They are not counted in `head_bytes`, pages or
//!   swap bytes, and no equality, checksum or swap blob reads them.
//!
//! Every row a window gains is rounded through FP16 (the KV projection's
//! output precision) on the way in, so a window's rows — and hence its
//! panels — are FP16-exact: rounding them again, as `mma` rounds its
//! operands, changes no bit.

use crate::cache::push_rounded;
use crate::matrix::TokenMatrix;
use bd_lowbit::f16::round_through_f16_in_place;
use std::sync::OnceLock;

/// Tokens per Kᵀ panel: the MMA's N extent, the lanes the residual kernel
/// scores side by side.
pub const PANEL_TOKENS: usize = 16;

/// A residual K window: FP16-exact token-major rows plus one write-once
/// Kᵀ panel slot per whole [`PANEL_TOKENS`]-token group — see the
/// [module docs](self) for the slot invariant.
#[derive(Clone, Debug, Default)]
pub struct KeyWindow {
    rows: TokenMatrix,
    panels: Vec<OnceLock<Box<[f32]>>>,
}

impl KeyWindow {
    /// An empty window of `dim`-channel rows.
    pub fn new(dim: usize) -> Self {
        KeyWindow {
            rows: TokenMatrix::new(dim),
            panels: Vec::new(),
        }
    }

    /// A window holding `rows`, each rounded through FP16, no slot filled.
    pub fn from_rows(rows: &TokenMatrix) -> Self {
        let mut window = KeyWindow::new(rows.dim());
        for row in rows {
            window.push(row);
        }
        window
    }

    /// A window over rows that are already FP16-exact (a flushed window's
    /// copy, a swap blob's rows), no slot filled.
    pub(crate) fn from_rounded(rows: TokenMatrix) -> Self {
        let panels = vec![OnceLock::new(); rows.tokens() / PANEL_TOKENS];
        KeyWindow { rows, panels }
    }

    /// Appends one row rounded through FP16; a row that completes a group
    /// opens that group's (empty) slot.
    ///
    /// # Panics
    ///
    /// Panics on a row-width mismatch.
    pub(crate) fn push(&mut self, row: &[f32]) {
        push_rounded(&mut self.rows, row);
        if self.rows.tokens().is_multiple_of(PANEL_TOKENS) {
            self.panels.push(OnceLock::new());
        }
    }

    /// Reserves room for one more row and the slot it may open, growing
    /// the way [`KeyWindow::push`] would, so that push allocates nothing.
    pub(crate) fn reserve_row(&mut self) {
        self.rows.reserve(1);
        self.panels.reserve(1);
    }

    /// Empties the window and returns its rows (a flush), keeping the width.
    pub(crate) fn take_rows(&mut self) -> TokenMatrix {
        self.panels.clear();
        let dim = self.rows.dim();
        std::mem::replace(&mut self.rows, TokenMatrix::new(dim))
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

    /// Whole groups, i.e. panel slots.
    pub fn sealed_groups(&self) -> usize {
        self.panels.len()
    }

    /// The Kᵀ panel of whole group `group`, built by the first reader —
    /// `panel[c * PANEL_TOKENS + j]` is channel `c` of the group's token
    /// `j`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not a whole group.
    pub fn panel(&self, group: usize) -> &[f32] {
        self.panels[group].get_or_init(|| {
            let mut panel = vec![0.0; self.rows.dim() * PANEL_TOKENS].into_boxed_slice();
            write_panel(self.group_rows(group), self.rows.dim(), false, &mut panel);
            panel
        })
    }

    /// The panel of whole group `group` if a reader has built it.
    pub fn built_panel(&self, group: usize) -> Option<&[f32]> {
        self.panels
            .get(group)
            .and_then(|slot| slot.get().map(|p| &**p))
    }

    /// Checks the slot invariant: one slot per whole group, and every
    /// built slot equal, bit for bit, to its group's transposed rows.
    pub fn panels_match_rows(&self) -> bool {
        let mut want = vec![0.0; self.rows.dim() * PANEL_TOKENS];
        self.panels.len() == self.tokens() / PANEL_TOKENS
            && (0..self.panels.len()).all(|g| {
                self.built_panel(g).is_none_or(|panel| {
                    write_panel(self.group_rows(g), self.rows.dim(), false, &mut want);
                    (panel.iter().zip(&want)).all(|(a, b)| a.to_bits() == b.to_bits())
                })
            })
    }

    /// Whole group `group`'s rows, token-major.
    fn group_rows(&self, group: usize) -> &[f32] {
        let len = PANEL_TOKENS * self.rows.dim();
        &self.rows.as_slice()[group * len..(group + 1) * len]
    }
}

/// Two windows are equal when their rows are: the slots are a cache.
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
        let mut w = KeyWindow::new(dim);
        for (t, row) in rows(50, dim).iter().enumerate() {
            w.push(row);
            assert_eq!(w.sealed_groups(), (t + 1) / PANEL_TOKENS);
        }
        assert!(w.built_panel(0).is_none());
        let panel = w.panel(1).to_vec();
        for c in 0..dim {
            for j in 0..PANEL_TOKENS {
                assert_eq!(panel[c * PANEL_TOKENS + j], w.rows()[PANEL_TOKENS + j][c]);
            }
        }
        assert_eq!(w.built_panel(1), Some(&panel[..]));
        assert!(w.built_panel(0).is_none() && w.panels_match_rows());
        let taken = w.take_rows();
        assert_eq!((taken.tokens(), w.tokens(), w.sealed_groups()), (50, 0, 0));
        assert_eq!(w.rows().dim(), dim);
    }

    #[test]
    fn rows_are_fp16_exact_and_equality_ignores_slots() {
        let src = rows(33, 16);
        let a = KeyWindow::from_rows(&src);
        let b = KeyWindow::from_rounded(a.rows().clone());
        assert_eq!(b.sealed_groups(), 2);
        a.panel(0);
        assert_eq!(a, b);
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
