//! Warp-level instruction models: `mma`, `ldmatrix`, `wgmma`, `lop3`,
//! `__shfl_xor_sync`, and the copy instructions the cost model charges for.
//!
//! The functional semantics here are deliberately *layout-blind*: `mma`
//! interprets whatever registers it is given through the instruction's own
//! fragment mapping, exactly like hardware. Feeding it registers filled
//! under a different mapping produces numerically wrong results — which is
//! the failure mode BitDecoding's layout induction exists to prevent.

use crate::fragment::{Fragment, FragmentLayout, MmaShape, Operand, WARP_LANES};
use crate::tile::Tile;
use bd_lowbit::E2M1;

/// A warp-wide accumulator fragment in FP32 registers.
#[derive(Clone, Debug, PartialEq)]
pub struct AccFragment {
    regs: Vec<[f32; 4]>,
    shape: MmaShape,
}

impl AccFragment {
    /// Zero accumulator for the given shape.
    pub fn zeroed(shape: MmaShape) -> Self {
        AccFragment {
            regs: vec![[0.0; 4]; WARP_LANES],
            shape,
        }
    }

    /// The instruction shape this accumulator belongs to.
    pub(crate) fn shape(&self) -> MmaShape {
        self.shape
    }

    /// Reads one accumulator register.
    pub(crate) fn get(&self, lane: usize, reg: usize) -> f32 {
        self.regs[lane][reg]
    }

    /// Writes one accumulator register.
    pub(crate) fn set(&mut self, lane: usize, reg: usize, v: f32) {
        self.regs[lane][reg] = v;
    }

    /// Gathers the `M × N` accumulator tile through the Acc layout.
    pub fn to_tile(&self) -> Tile {
        let layout = FragmentLayout::new(self.shape, Operand::Acc);
        let mut t = Tile::zeros(self.shape.m(), self.shape.n());
        for lane in 0..WARP_LANES {
            for reg in 0..layout.regs_per_lane() {
                let (r, c) = layout.coords(lane, reg);
                t[(r, c)] = self.get(lane, reg);
            }
        }
        t
    }
}

/// `ldmatrix`: loads a shared-memory tile into registers in the fragment
/// layout of the given operand. This is the *only* instruction that knows
/// how to produce a valid fragment from memory.
///
/// # Panics
///
/// Panics if the tile does not match the layout dimensions.
pub fn ldmatrix(tile: &Tile, layout: FragmentLayout) -> Fragment {
    Fragment::from_tile(tile, layout)
}

/// `mma.sync`: `D = A·B + C`, interpreting the operand registers through
/// the shape's fragment mappings and accumulating in FP32.
///
/// No validation of how `a`/`b` were produced is possible — mismatched
/// layouts silently compute the wrong product, as on hardware.
///
/// # Panics
///
/// Panics if register counts do not match the shape.
pub fn mma(shape: MmaShape, a: &Fragment, b: &Fragment, acc: &mut AccFragment) {
    let la = FragmentLayout::new(shape, Operand::A);
    let lb = FragmentLayout::new(shape, Operand::B);
    assert_eq!(a.regs_per_lane(), la.regs_per_lane(), "A register count");
    assert_eq!(b.regs_per_lane(), lb.regs_per_lane(), "B register count");
    assert_eq!(acc.shape(), shape, "accumulator shape");

    let at = a.to_tile(la);
    let bt = b.to_tile(lb);
    let prod = at.matmul(&bt);

    let lacc = FragmentLayout::new(shape, Operand::Acc);
    for r in 0..shape.m() {
        for c in 0..shape.n() {
            let (lane, reg) = lacc.position(r, c);
            let cur = acc.get(lane, reg);
            acc.set(lane, reg, cur + prod[(r, c)]);
        }
    }
}

/// Hopper `wgmma.mma_async.m64n64k16` with the `_SS` operand form: both
/// `A` (64×16) and `B` (16×64) are sourced from shared-memory tiles, the
/// property BitDecoding exploits to feed dequantized values via `STSM`
/// without register-layout gymnastics (paper §V-D(1)).
///
/// # Panics
///
/// Panics on operand shape mismatch.
pub fn wgmma_ss(a: &Tile, b: &Tile, acc: &mut Tile) {
    assert_eq!((a.rows(), a.cols()), (64, 16), "wgmma A must be 64x16");
    assert_eq!((b.rows(), b.cols()), (16, 64), "wgmma B must be 16x64");
    assert_eq!(
        (acc.rows(), acc.cols()),
        (64, 64),
        "wgmma acc must be 64x64"
    );
    let prod = a.matmul(b);
    for r in 0..64 {
        for c in 0..64 {
            acc[(r, c)] += prod[(r, c)];
        }
    }
}

/// Blackwell block-scaled FP4 MMA: operands are E2M1 codes with one scale
/// per K-block (32 for MXFP4); the hardware multiplies
/// `(a_code · a_scale) × (b_code · b_scale)` directly, with FP32
/// accumulation — no software dequantization.
///
/// `a_codes` is `M × K`, `b_codes` is `K × N`; scales are per
/// `(row, k_block)` for A and `(k_block, col)` for B.
///
/// # Panics
///
/// Panics on shape mismatches or when `K` is not a multiple of the block.
pub fn mma_block_scaled_fp4(
    a_codes: &[Vec<E2M1>],
    a_scales: &[Vec<f32>],
    b_codes: &[Vec<E2M1>],
    b_scales: &[Vec<f32>],
    block: usize,
    acc: &mut Tile,
) {
    let m = a_codes.len();
    let k = a_codes[0].len();
    let n = b_codes[0].len();
    assert_eq!(b_codes.len(), k, "B rows must equal K");
    assert_eq!(k % block, 0, "K must be a multiple of the scale block");
    assert_eq!((acc.rows(), acc.cols()), (m, n));
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for kk in 0..k {
                let blk = kk / block;
                let av = a_codes[i][kk].to_f32() * a_scales[i][blk];
                let bv = b_codes[kk][j].to_f32() * b_scales[blk][j];
                sum += av * bv;
            }
            acc[(i, j)] += sum;
        }
    }
}

/// `__shfl_xor_sync` butterfly reduction over a warp: folds each lane's
/// value with its XOR partner for masks 16, 8, 4, 2, 1, leaving every lane
/// holding the reduction of all 32 (paper §V-B(2): warp-level min/max
/// without shared memory).
///
/// Returns the per-lane results after the full butterfly (all equal) and the
/// number of shuffle steps executed (for the cost model).
pub fn shfl_xor_reduce<T: Copy>(
    values: &[T; WARP_LANES],
    combine: impl Fn(T, T) -> T,
) -> ([T; WARP_LANES], u32) {
    let mut vals = *values;
    let mut steps = 0;
    let mut mask = WARP_LANES / 2;
    while mask > 0 {
        let mut next = vals;
        for lane in 0..WARP_LANES {
            let partner = lane ^ mask;
            next[lane] = combine(vals[lane], vals[partner]);
        }
        vals = next;
        steps += 1;
        mask /= 2;
    }
    (vals, steps)
}

/// `lop3.b32`: the arbitrary three-input boolean LUT instruction. The
/// fast-dequant path uses immediate `0xEA` = `(a & b) | c`.
pub fn lop3(a: u32, b: u32, c: u32, imm: u8) -> u32 {
    let mut out = 0u32;
    for bit in 0..32 {
        let idx = (((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((c >> bit) & 1);
        out |= (((imm >> idx) & 1) as u32) << bit;
    }
    out
}

/// The LUT immediate for `(a & b) | c`, used by fast dequantization.
pub const LOP3_AND_OR: u8 = 0xEA;

/// `STSM` (store-matrix to shared memory): the inverse of `ldmatrix`,
/// scattering a register fragment into a shared-memory tile. Hopper path
/// uses it to hand dequantized FP16 values to `wgmma_SS`.
pub fn stsm(frag: &Fragment, layout: FragmentLayout) -> Tile {
    frag.to_tile(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{FragmentLayout, Operand};
    use bd_lowbit::Fp4Kind;

    fn tile_a(shape: MmaShape) -> Tile {
        Tile::from_fn(shape.m(), shape.k(), |r, c| {
            ((r * 7 + c * 3) % 9) as f32 * 0.25 - 1.0
        })
    }

    fn tile_b(shape: MmaShape) -> Tile {
        Tile::from_fn(shape.k(), shape.n(), |r, c| {
            ((r * 5 + c * 11) % 7) as f32 * 0.5 - 1.5
        })
    }

    #[test]
    fn mma_matches_reference_matmul() {
        for shape in [MmaShape::M16N8K16, MmaShape::M16N8K8] {
            let at = tile_a(shape);
            let bt = tile_b(shape);
            let a = ldmatrix(&at, FragmentLayout::new(shape, Operand::A));
            let b = ldmatrix(&bt, FragmentLayout::new(shape, Operand::B));
            let mut acc = AccFragment::zeroed(shape);
            mma(shape, &a, &b, &mut acc);
            let expect = at.matmul(&bt);
            assert!(acc.to_tile().max_abs_diff(&expect) < 1e-2, "{shape}");
        }
    }

    #[test]
    fn mma_accumulates() {
        let shape = MmaShape::M16N8K16;
        let at = tile_a(shape);
        let bt = tile_b(shape);
        let a = ldmatrix(&at, FragmentLayout::new(shape, Operand::A));
        let b = ldmatrix(&bt, FragmentLayout::new(shape, Operand::B));
        let mut acc = AccFragment::zeroed(shape);
        mma(shape, &a, &b, &mut acc);
        mma(shape, &a, &b, &mut acc);
        let mut expect = at.matmul(&bt);
        for v in expect.as_mut_slice() {
            *v *= 2.0;
        }
        assert!(acc.to_tile().max_abs_diff(&expect) < 2e-2);
    }

    #[test]
    fn mma_with_scrambled_b_layout_is_wrong() {
        // Fill B's registers under the Acc mapping (same dims, different
        // interleave): the product must be wrong. This is the hardware
        // behaviour that makes layout induction necessary.
        let shape = MmaShape::M16N8K16;
        let at = tile_a(shape);
        let bt = tile_b(shape);
        let a = ldmatrix(&at, FragmentLayout::new(shape, Operand::A));
        let b_wrong = Fragment::from_tile(&bt, FragmentLayout::new(shape, Operand::Acc));
        let mut acc = AccFragment::zeroed(shape);
        mma(shape, &a, &b_wrong, &mut acc);
        let expect = at.matmul(&bt);
        assert!(acc.to_tile().max_abs_diff(&expect) > 0.5);
    }

    #[test]
    fn wgmma_ss_matches_reference() {
        let a = Tile::from_fn(64, 16, |r, c| ((r + c) % 5) as f32 - 2.0);
        let b = Tile::from_fn(16, 64, |r, c| ((r * 3 + c) % 4) as f32 * 0.5);
        let mut acc = Tile::zeros(64, 64);
        wgmma_ss(&a, &b, &mut acc);
        assert!(acc.max_abs_diff(&a.matmul(&b)) < 1e-4);
    }

    #[test]
    fn block_scaled_fp4_mma_close_to_fp32() {
        // Quantize a small GEMM to MXFP4 on both sides and check the result
        // tracks the FP32 product within block-scale error bounds.
        let m = 4;
        let k = 32;
        let n = 4;
        let a = Tile::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.5);
        let b = Tile::from_fn(k, n, |r, c| ((r * 3 + c * 17) % 13) as f32 * 0.2 - 1.2);
        let block = Fp4Kind::Mx.block_size();

        let mut a_codes = vec![vec![E2M1::from_bits(0); k]; m];
        let mut a_scales = vec![vec![0.0f32; k / block]; m];
        for i in 0..m {
            for bk in 0..k / block {
                let vals: Vec<f32> = (0..block).map(|j| a[(i, bk * block + j)]).collect();
                let q = bd_lowbit::fp4::quantize_fp4_block(&vals, Fp4Kind::Mx);
                a_scales[i][bk] = q.scale.to_f32();
                for (j, c) in q.codes.iter().enumerate() {
                    a_codes[i][bk * block + j] = *c;
                }
            }
        }
        let mut b_codes = vec![vec![E2M1::from_bits(0); n]; k];
        let mut b_scales = vec![vec![0.0f32; n]; k / block];
        for j in 0..n {
            for bk in 0..k / block {
                let vals: Vec<f32> = (0..block).map(|i| b[(bk * block + i, j)]).collect();
                let q = bd_lowbit::fp4::quantize_fp4_block(&vals, Fp4Kind::Mx);
                b_scales[bk][j] = q.scale.to_f32();
                for (i, c) in q.codes.iter().enumerate() {
                    b_codes[bk * block + i][j] = *c;
                }
            }
        }

        let mut acc = Tile::zeros(m, n);
        mma_block_scaled_fp4(&a_codes, &a_scales, &b_codes, &b_scales, block, &mut acc);
        let expect = a.matmul(&b);
        // FP4 is coarse; per-element error stays well under the operand
        // magnitudes times the relative step (~1/6 per element, averaged).
        let scale = k as f32;
        assert!(
            acc.max_abs_diff(&expect) < scale * 0.25,
            "diff {} too large",
            acc.max_abs_diff(&expect)
        );
    }

    #[test]
    fn shfl_butterfly_reduces_all_lanes() {
        let mut vals = [0f32; WARP_LANES];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = (i as f32 * 0.7).sin();
        }
        let (maxes, steps) = shfl_xor_reduce(&vals, f32::max);
        let expect = vals.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        assert_eq!(steps, 5);
        for &m in &maxes {
            assert_eq!(m, expect);
        }
    }

    #[test]
    fn lop3_and_or_semantics() {
        let a = 0x1234_5678;
        let b = 0x000F_000F;
        let c = 0x6400_6400;
        assert_eq!(lop3(a, b, c, LOP3_AND_OR), (a & b) | c);
    }

    #[test]
    fn stsm_inverts_ldmatrix() {
        let layout = FragmentLayout::new(MmaShape::M16N8K16, Operand::B);
        let t = Tile::from_fn(16, 8, |r, c| (r * 8 + c) as f32);
        let frag = ldmatrix(&t, layout);
        assert_eq!(stsm(&frag, layout), t);
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "wgmma A must be 64x16")]
    fn wgmma_rejects_bad_a() {
        let a = Tile::zeros(32, 16);
        let b = Tile::zeros(16, 64);
        let mut acc = Tile::zeros(64, 64);
        wgmma_ss(&a, &b, &mut acc);
    }

    #[test]
    #[should_panic(expected = "multiple of the scale block")]
    fn block_scaled_rejects_ragged_k() {
        let a = vec![vec![E2M1::from_bits(0); 33]; 2];
        let asc = vec![vec![1.0f32; 2]; 2];
        let b = vec![vec![E2M1::from_bits(0); 2]; 33];
        let bsc = vec![vec![1.0f32; 2]; 2];
        let mut acc = Tile::zeros(2, 2);
        mma_block_scaled_fp4(&a, &asc, &b, &bsc, 32, &mut acc);
    }

    #[test]
    fn shfl_sum_reduction_works_too() {
        let mut vals = [0f32; WARP_LANES];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as f32;
        }
        let (sums, _) = shfl_xor_reduce(&vals, |a, b| a + b);
        for &s in &sums {
            assert_eq!(s, 496.0); // 0+1+..+31
        }
    }
}
