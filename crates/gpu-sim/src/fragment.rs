//! Tensor Core fragment layouts: the value-to-thread mappings at the heart
//! of BitDecoding's layout-induction technique (paper §IV-A, Fig. 3).
//!
//! Every MMA instruction prescribes a rigid, *interleaved* assignment of
//! matrix elements to `(lane, register)` slots. `ldmatrix` fills registers in
//! exactly this assignment. BitDecoding's insight is that quantizing and
//! packing **per lane, in register order** implicitly preserves the
//! fragment layout, so unpacking with the *same* instruction configuration
//! lands values back in valid MMA positions with zero reshuffling — while
//! unpacking with a *different* configuration silently misplaces values.
//!
//! The mappings below follow the PTX ISA fragment diagrams for
//! `mma.sync.aligned` f16 shapes. They are pure bijections and are tested as
//! such; the MMA executor reads them when gathering operands, so a mapping
//! mismatch really corrupts the product, just like on silicon.

use crate::tile::Tile;
use bd_lowbit::F16;
use std::fmt;

/// Number of lanes in a warp.
pub const WARP_LANES: usize = 32;

/// The MMA instruction shapes modelled by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MmaShape {
    /// `mma.m16n8k16` on FP16 operands — the SM80/SM89 workhorse.
    M16N8K16,
    /// `mma.m16n8k8` on FP16 operands — the smaller legacy shape.
    M16N8K8,
    /// Blackwell block-scaled FP4 `mma.m16n8k32` (E2M1 operands).
    M16N8K32Fp4,
}

impl MmaShape {
    /// Rows of the accumulator (M).
    pub const fn m(self) -> usize {
        16
    }

    /// Columns of the accumulator (N).
    pub const fn n(self) -> usize {
        8
    }

    /// The reduction dimension (K).
    pub const fn k(self) -> usize {
        match self {
            MmaShape::M16N8K16 => 16,
            MmaShape::M16N8K8 => 8,
            MmaShape::M16N8K32Fp4 => 32,
        }
    }

    /// Elements of operand `B` each warp lane holds (`Pn · k / ...`); this
    /// is also the packing granularity of the Residual Kernel.
    pub const fn b_regs_per_lane(self) -> usize {
        self.k() * self.n() / WARP_LANES
    }

    /// Elements of operand `A` each warp lane holds.
    pub(crate) const fn a_regs_per_lane(self) -> usize {
        self.m() * self.k() / WARP_LANES
    }

    /// Elements of the accumulator each lane holds.
    pub(crate) const fn acc_regs_per_lane(self) -> usize {
        self.m() * self.n() / WARP_LANES
    }

    /// Elements along N processed per warp tile (`Pn` in paper Eq. 1).
    pub const fn pn(self) -> usize {
        self.n()
    }
}

impl fmt::Display for MmaShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmaShape::M16N8K16 => write!(f, "mma.m16n8k16"),
            MmaShape::M16N8K8 => write!(f, "mma.m16n8k8"),
            MmaShape::M16N8K32Fp4 => write!(f, "mma.m16n8k32.fp4"),
        }
    }
}

/// Which MMA operand a fragment feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Left operand, `M × K`, row coordinate is `m`, column is `k`.
    A,
    /// Right operand, `K × N`, row coordinate is `k`, column is `n`.
    B,
    /// Accumulator, `M × N`.
    Acc,
}

/// A concrete fragment layout: `(shape, operand)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FragmentLayout {
    /// The instruction shape.
    pub shape: MmaShape,
    /// The operand within the instruction.
    pub operand: Operand,
}

impl FragmentLayout {
    /// Convenience constructor.
    pub const fn new(shape: MmaShape, operand: Operand) -> Self {
        FragmentLayout { shape, operand }
    }

    /// `(rows, cols)` of the logical matrix this fragment covers.
    pub const fn dims(self) -> (usize, usize) {
        match self.operand {
            Operand::A => (self.shape.m(), self.shape.k()),
            Operand::B => (self.shape.k(), self.shape.n()),
            Operand::Acc => (self.shape.m(), self.shape.n()),
        }
    }

    /// Registers (elements) held per lane.
    pub const fn regs_per_lane(self) -> usize {
        match self.operand {
            Operand::A => self.shape.a_regs_per_lane(),
            Operand::B => self.shape.b_regs_per_lane(),
            Operand::Acc => self.shape.acc_regs_per_lane(),
        }
    }

    /// The instruction-defined `(lane, reg) → (row, col)` mapping.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 32` or `reg ≥ regs_per_lane()`.
    pub fn coords(self, lane: usize, reg: usize) -> (usize, usize) {
        assert!(lane < WARP_LANES, "lane {lane} out of range");
        assert!(
            reg < self.regs_per_lane(),
            "reg {reg} out of range for {self:?}"
        );
        let group = lane / 4; // "quad" row/col group in PTX diagrams
        let tig = lane % 4; // thread-in-group
        match self.operand {
            // A (M×K): pairs along k, replicated blocks along m (rows 0-7 /
            // 8-15) and along k in steps of 8.
            Operand::A => {
                let m = group + 8 * ((reg >> 1) & 1);
                let k = tig * 2 + (reg & 1) + 8 * (reg >> 2);
                (m, k)
            }
            // B (K×N): each lane owns one column (its quad group), pairs
            // along k with 8-row strides for higher registers.
            Operand::B => {
                let n = group;
                let k = tig * 2 + (reg & 1) + 8 * (reg >> 1);
                (k, n)
            }
            // Accumulator (M×N): pairs along n, rows split 0-7 / 8-15.
            Operand::Acc => {
                let m = group + 8 * (reg >> 1);
                let n = tig * 2 + (reg & 1);
                (m, n)
            }
        }
    }

    /// The inverse mapping `(row, col) → (lane, reg)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed [`FragmentLayout::dims`].
    pub fn position(self, row: usize, col: usize) -> (usize, usize) {
        let (rows, cols) = self.dims();
        assert!(row < rows && col < cols, "({row},{col}) outside {self:?}");
        match self.operand {
            Operand::A => {
                let (m, k) = (row, col);
                let lane = (m % 8) * 4 + (k % 8) / 2;
                let reg = (k & 1) + 2 * (m / 8) + 4 * (k / 8);
                (lane, reg)
            }
            Operand::B => {
                let (k, n) = (row, col);
                let lane = n * 4 + (k % 8) / 2;
                let reg = (k & 1) + 2 * (k / 8);
                (lane, reg)
            }
            Operand::Acc => {
                let (m, n) = (row, col);
                let lane = (m % 8) * 4 + n / 2;
                let reg = (n & 1) + 2 * (m / 8);
                (lane, reg)
            }
        }
    }
}

/// A warp-wide register fragment of FP16 values.
///
/// `regs[lane][reg]` is the value in lane `lane`'s `reg`-th fragment
/// register. How those slots map to matrix coordinates is *not* a property
/// of the data — it is imposed by whichever instruction consumes the
/// fragment, which is exactly why layout mismatches corrupt results.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    regs: Vec<[F16; 16]>,
    regs_per_lane: usize,
}

impl Fragment {
    /// An all-zero fragment with `regs_per_lane` registers.
    ///
    /// # Panics
    ///
    /// Panics if `regs_per_lane > 16` (no modelled shape needs more).
    pub(crate) fn zeroed(regs_per_lane: usize) -> Self {
        assert!(
            regs_per_lane <= 16,
            "at most 16 fragment registers per lane"
        );
        Fragment {
            regs: vec![[F16::ZERO; 16]; WARP_LANES],
            regs_per_lane,
        }
    }

    /// Registers per lane.
    pub(crate) fn regs_per_lane(&self) -> usize {
        self.regs_per_lane
    }

    /// Reads one register.
    pub(crate) fn get(&self, lane: usize, reg: usize) -> F16 {
        debug_assert!(reg < self.regs_per_lane);
        self.regs[lane][reg]
    }

    /// Writes one register.
    pub(crate) fn set(&mut self, lane: usize, reg: usize, v: F16) {
        debug_assert!(reg < self.regs_per_lane);
        self.regs[lane][reg] = v;
    }

    /// Gathers a tile from the fragment *interpreting* slots via `layout`
    /// (what an MMA instruction does internally).
    pub(crate) fn to_tile(&self, layout: FragmentLayout) -> Tile {
        let (rows, cols) = layout.dims();
        let mut t = Tile::zeros(rows, cols);
        for lane in 0..WARP_LANES {
            for reg in 0..layout.regs_per_lane() {
                let (r, c) = layout.coords(lane, reg);
                t[(r, c)] = self.get(lane, reg).to_f32();
            }
        }
        t
    }

    /// Scatters a tile into fragment slots via `layout` (what `ldmatrix`
    /// does when loading from shared memory).
    ///
    /// # Panics
    ///
    /// Panics if the tile shape does not match the layout.
    pub(crate) fn from_tile(tile: &Tile, layout: FragmentLayout) -> Self {
        let (rows, cols) = layout.dims();
        assert_eq!(
            (tile.rows(), tile.cols()),
            (rows, cols),
            "tile shape mismatch for {layout:?}"
        );
        let mut f = Fragment::zeroed(layout.regs_per_lane());
        for r in 0..rows {
            for c in 0..cols {
                let (lane, reg) = layout.position(r, c);
                f.set(lane, reg, F16::from_f32(tile[(r, c)]));
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_layouts() -> Vec<FragmentLayout> {
        let mut v = Vec::new();
        for shape in [MmaShape::M16N8K16, MmaShape::M16N8K8, MmaShape::M16N8K32Fp4] {
            for operand in [Operand::A, Operand::B, Operand::Acc] {
                v.push(FragmentLayout::new(shape, operand));
            }
        }
        v
    }

    #[test]
    fn mappings_are_bijective() {
        for layout in all_layouts() {
            let (rows, cols) = layout.dims();
            let mut seen = vec![false; WARP_LANES * 16];
            for r in 0..rows {
                for c in 0..cols {
                    let (lane, reg) = layout.position(r, c);
                    assert!(
                        lane < WARP_LANES && reg < layout.regs_per_lane(),
                        "{layout:?}"
                    );
                    let slot = lane * 16 + reg;
                    assert!(!seen[slot], "{layout:?}: slot collision at ({r},{c})");
                    seen[slot] = true;
                    assert_eq!(layout.coords(lane, reg), (r, c), "{layout:?}");
                }
            }
            assert_eq!(
                seen.iter().filter(|&&s| s).count(),
                rows * cols,
                "{layout:?} covers the matrix"
            );
        }
    }

    #[test]
    fn regs_per_lane_match_element_counts() {
        assert_eq!(
            FragmentLayout::new(MmaShape::M16N8K16, Operand::A).regs_per_lane(),
            8
        );
        assert_eq!(
            FragmentLayout::new(MmaShape::M16N8K16, Operand::B).regs_per_lane(),
            4
        );
        assert_eq!(
            FragmentLayout::new(MmaShape::M16N8K16, Operand::Acc).regs_per_lane(),
            4
        );
        assert_eq!(
            FragmentLayout::new(MmaShape::M16N8K8, Operand::B).regs_per_lane(),
            2
        );
        assert_eq!(
            FragmentLayout::new(MmaShape::M16N8K32Fp4, Operand::B).regs_per_lane(),
            8
        );
    }

    #[test]
    fn b_fragment_matches_ptx_diagram_shape() {
        // Thread 0 of m16n8k16 holds B elements (k,n) = (0,0),(1,0),(8,0),(9,0)
        // per the PTX interleaved pattern (pairs along k, +8 stride).
        let layout = FragmentLayout::new(MmaShape::M16N8K16, Operand::B);
        assert_eq!(layout.coords(0, 0), (0, 0));
        assert_eq!(layout.coords(0, 1), (1, 0));
        assert_eq!(layout.coords(0, 2), (8, 0));
        assert_eq!(layout.coords(0, 3), (9, 0));
        // Thread 1 shifts two rows down: (2,0),(3,0),(10,0),(11,0).
        assert_eq!(layout.coords(1, 0), (2, 0));
        assert_eq!(layout.coords(1, 3), (11, 0));
        // Thread 4 moves to column 1.
        assert_eq!(layout.coords(4, 0), (0, 1));
    }

    #[test]
    fn tile_round_trips_through_fragment() {
        for layout in all_layouts() {
            let (rows, cols) = layout.dims();
            let tile = Tile::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let frag = Fragment::from_tile(&tile, layout);
            assert_eq!(frag.to_tile(layout), tile, "{layout:?}");
        }
    }

    #[test]
    fn interpreting_with_wrong_layout_scrambles_values() {
        // The crux of paper Fig. 3: register slots filled under one mapping,
        // read under another, yield a *different* matrix. B and Acc layouts
        // of m16n8k16 share 16x8 dims but interleave differently.
        let lb = FragmentLayout::new(MmaShape::M16N8K16, Operand::B);
        let lacc = FragmentLayout::new(MmaShape::M16N8K16, Operand::Acc);
        let tile = Tile::from_fn(16, 8, |r, c| (r * 8 + c) as f32);
        let frag = Fragment::from_tile(&tile, lb);
        let reinterpreted = frag.to_tile(lacc);
        assert!(
            reinterpreted.max_abs_diff(&tile) > 0.0,
            "layouts must differ"
        );
    }

    #[test]
    fn contiguous_packing_breaks_fragment_alignment() {
        // Fig. 3b: if a thread's values are packed *contiguously* into the
        // flattened tile (the naive layout) instead of via ldmatrix's
        // interleaved mapping, reading them back as a fragment misplaces
        // almost everything.
        let layout = FragmentLayout::new(MmaShape::M16N8K16, Operand::B);
        let tile = Tile::from_fn(16, 8, |r, c| (r * 8 + c) as f32);
        let flat = tile.as_slice();
        let mut naive = Fragment::zeroed(layout.regs_per_lane());
        for lane in 0..WARP_LANES {
            for reg in 0..layout.regs_per_lane() {
                let v = flat[lane * layout.regs_per_lane() + reg];
                naive.set(lane, reg, F16::from_f32(v));
            }
        }
        let got = naive.to_tile(layout);
        assert!(
            got.max_abs_diff(&tile) > 50.0,
            "naive packing must scramble"
        );
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at most 16 fragment registers")]
    fn oversized_fragment_rejected() {
        Fragment::zeroed(17);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn out_of_range_lane_rejected() {
        FragmentLayout::new(MmaShape::M16N8K16, Operand::B).coords(32, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_position_rejected() {
        FragmentLayout::new(MmaShape::M16N8K16, Operand::B).position(16, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(MmaShape::M16N8K16.to_string(), "mma.m16n8k16");
        assert_eq!(MmaShape::M16N8K32Fp4.to_string(), "mma.m16n8k32.fp4");
    }
}
