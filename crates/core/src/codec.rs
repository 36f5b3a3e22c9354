//! The fragment-true block codec: layout induction in executable form
//! (paper §IV-A(1), Fig. 5).
//!
//! The Residual Kernel loads KV values with `ldmatrix`, which scatters them
//! across lanes in the MMA B-operand fragment layout. Each lane then
//! quantizes **its own registers** and packs them — so the physical word
//! stream is ordered by `(warp, lane, k-tile, tile-in-warp, register)`,
//! with the 75316420 interleave applied at 32-bit register granularity and
//! each lane's register stream chunked densely across its k-tiles (a
//! register may span tiles; none is ever padded for a realistic shape).
//! Unpacking with the *same* [`PackLayout`] lands every value back in its
//! fragment slot with zero reshuffling; unpacking with a different
//! configuration silently permutes values, which is the paper's
//! "invalid layout" failure (Fig. 3b).
//!
//! Keys pack in the `Q·K^T` B-operand orientation (contraction over
//! channels), Values in the `P·V` orientation (contraction over tokens) —
//! mirroring how the Packing Kernel consumes them.
//!
//! The induced layout depends only on the configuration and the tensor
//! shape, never on the values, so it is computed once per shape as a
//! `FragmentPlan` — one table entry per 32-bit register of the stream — and
//! interned process-wide. Packing gathers through the table, unpacking
//! (fused with dequantization or not) scatters through the same one.

use bd_gpu_sim::{FragmentLayout, Operand};
use bd_kvcache::{
    dequantize_int_codes, quantize_int_codes, BlockCodec, KeyGranularity, PackLayout, PackedBlock,
    PackedPayload, PackedTensor, QuantScheme, ReferenceCodec, SchemeKind, TokenMatrix,
};
use bd_lowbit::f16::round_through_f16;
use bd_lowbit::fastpath::{register_ops, FastDequantOps};
use bd_lowbit::{
    codes_per_u32, fuse_words, split_register, unpack_u32_into, BitWidth, Half2, QuantParams,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything the physical position of a code depends on: the instruction
/// configuration, the tensor shape, the code width, the metadata grouping
/// and the B-operand orientation. Two tensors with equal keys share every
/// table entry, whatever their values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    layout: PackLayout,
    tokens: usize,
    dim: usize,
    width: BitWidth,
    granularity: KeyGranularity,
    group: usize,
    /// `true`: Kᵀ, B(k = channel, n = token). `false`: V, B(k = token,
    /// n = channel).
    key_orientation: bool,
}

/// `(token, channel, first dequant-LUT entry of the metadata group)` of a
/// code: a register's origin, or a position's offset from it.
type Slot = (u16, u16, u32);

/// Consecutive registers whose positions sit at the same offsets from
/// their origins (`None`: no value maps here — the tail of a lane stream
/// that ends mid-register). Realistic shapes are one run; tiny ones add more.
#[derive(Debug)]
struct Run {
    regs: usize,
    offsets: Vec<Option<Slot>>,
}

thread_local! {
    /// Token-major codes of the tensor being encoded on this thread.
    static CODES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// `dst` offset standing in for a position that holds no code.
const PAD: usize = usize::MAX;

/// One register's `N` code positions resolved against a destination: its
/// `(dst, lut)` origin, each position's offset, whether any is [`PAD`].
struct Codes<'a, const N: usize>((usize, usize), &'a [(usize, usize); N], bool);

impl<const N: usize> Codes<'_, N> {
    /// Calls `visit(shift, dst, lut)` for every code: its bit offset in
    /// the register, its destination and its metadata group's LUT base.
    #[inline]
    fn for_each(&self, mut visit: impl FnMut(u32, usize, usize)) {
        let Codes(origin, offsets, padded) = *self;
        for (p, &(dst, lut)) in offsets.iter().enumerate() {
            if !padded || dst != PAD {
                visit(p as u32 * (32 / N as u32), origin.0 + dst, origin.1 + lut);
            }
        }
    }
}

/// Layout induction as a value (paper §IV-A(1), Fig. 5): the fragment
/// mapping, the warp tiling and the in-register interleave resolved once
/// into one origin per 32-bit register of the word stream plus the offsets
/// its code positions share with their neighbours.
///
/// The Residual Kernel gathers codes into registers through it and the
/// Packing Kernel scatters them back out — token-major, or channel-major
/// into a Kᵀ tile, by choice of strides — so the "unified instruction
/// configuration" of §IV-A(4) is literally one table; this builder is the
/// only place the layout is still derived from first principles.
#[derive(Debug)]
pub(crate) struct FragmentPlan {
    key: PlanKey,
    /// Per register, the smallest token, channel and LUT base of its codes.
    regs: Vec<Slot>,
    /// Offset patterns covering `regs` front to back.
    runs: Vec<Run>,
}

impl FragmentPlan {
    /// Induces the table. The physical stream is ordered by `(warp, lane,
    /// register)`; each lane's logical stream runs over all of its k-tiles
    /// and its warp's n-tiles and is chunked densely into 32-bit registers
    /// (a register may span tiles, e.g. INT2's 16 codes vs 4 B-fragment
    /// registers per tile), so nothing is padded for a realistic shape and
    /// the register count matches the `elems / codes_per_u32` the cost
    /// model charges.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not tile evenly under the layout.
    fn build(key: PlanKey) -> Self {
        let shape = key.layout.shape;
        let blayout = FragmentLayout::new(shape, Operand::B);
        let (k_total, n_total) = if key.key_orientation {
            (key.dim, key.tokens)
        } else {
            (key.tokens, key.dim)
        };
        assert_eq!(k_total % shape.k(), 0, "K dim must tile by {}", shape.k());
        assert_eq!(n_total % shape.n(), 0, "N dim must tile by {}", shape.n());
        let levels = key.width.levels() as usize;
        assert!(
            key.tokens.max(key.dim) <= u16::MAX as usize
                && key.tokens * key.dim * levels <= u32::MAX as usize,
            "block too large for the plan's 16- and 32-bit offsets"
        );
        let kt = k_total / shape.k();
        let nt = n_total / shape.n();
        // Effective warp count along N: the configured `Wn` shrunk
        // (deterministically, on both kernels) until it divides the tile
        // count — narrow tensors simply idle the spare warps.
        let mut wn = key.layout.warps_n.min(nt).max(1);
        while !nt.is_multiple_of(wn) {
            wn -= 1;
        }
        let tiles_per_warp = nt / wn;
        let regs = blayout.regs_per_lane();
        let per_reg32 = codes_per_u32(key.width);
        let stream_len = kt * tiles_per_warp * regs;
        let regs32_per_lane = stream_len.div_ceil(per_reg32);
        let cgroups = key.dim.div_ceil(key.group);

        // The interleave, read off the unpacker itself: physical position
        // `p` holds the logical element whose code lights up when only
        // that position's bits are set (exactly one does; the identity
        // fallback only keeps this path free of `unwrap`).
        let mut probe = vec![0u8; per_reg32];
        let logical_of: Vec<usize> = (0..per_reg32)
            .map(|p| {
                let lit = 1u32 << (p as u32 * key.width.bits());
                unpack_u32_into(lit, key.width, key.layout.order, &mut probe);
                probe.iter().position(|&c| c != 0).unwrap_or(p)
            })
            .collect();

        let mut plan = FragmentPlan {
            key,
            regs: Vec::with_capacity(wn * 32 * regs32_per_lane),
            runs: Vec::new(),
        };
        for w in 0..wn {
            for lane in 0..32 {
                for r32 in 0..regs32_per_lane {
                    let codes = logical_of.iter().map(|&logical| {
                        let e = r32 * per_reg32 + logical;
                        (e < stream_len).then(|| {
                            let tile = e / regs;
                            let nj = w * tiles_per_warp + tile % tiles_per_warp;
                            let (kl, nl) = blayout.coords(lane, e % regs);
                            let k = (tile / tiles_per_warp) * shape.k() + kl;
                            let n = nj * shape.n() + nl;
                            let (t, c) = if key.key_orientation { (n, k) } else { (k, n) };
                            let group = match key.granularity {
                                KeyGranularity::ChannelWise => (t / key.group) * key.dim + c,
                                KeyGranularity::TensorWise => t * cgroups + c / key.group,
                            };
                            [t, c, group * levels]
                        })
                    });
                    plan.push_register(codes.collect());
                }
            }
        }
        plan
    }

    /// Appends one register given the `[token, channel, LUT base]` of each
    /// physical position, extending the last run if its offsets repeat.
    fn push_register(&mut self, codes: Vec<Option<[usize; 3]>>) {
        let slot = |[t, c, lut]: [usize; 3]| (t as u16, c as u16, lut as u32);
        let live = || codes.iter().flatten();
        let origin = std::array::from_fn(|i| live().map(|s| s[i]).min().unwrap_or(0));
        let offset = |s: [usize; 3]| slot(std::array::from_fn(|i| s[i] - origin[i]));
        let offsets: Vec<_> = codes.iter().map(|code| code.map(offset)).collect();
        self.regs.push(slot(origin));
        match self.runs.last_mut() {
            Some(run) if run.offsets == offsets => run.regs += 1,
            _ => self.runs.push(Run { regs: 1, offsets }),
        }
    }

    /// The process-wide plan for `key`, built on first use. Keyed by the
    /// *caller's* layout, so a mismatched decoder gets its own (wrong for
    /// the data, right for its configuration) table — the paper's invalid
    /// layout stays observable. Never panics on the lock: a poisoned
    /// intern table only costs a private rebuild.
    fn interned(key: PlanKey) -> Arc<FragmentPlan> {
        static PLANS: OnceLock<Mutex<HashMap<PlanKey, Arc<FragmentPlan>>>> = OnceLock::new();
        let plans = PLANS.get_or_init(Mutex::default);
        if let Ok(map) = plans.lock() {
            if let Some(plan) = map.get(&key) {
                return Arc::clone(plan);
            }
        }
        // Built outside the lock: a shape that does not tile panics here
        // without poisoning the table for everyone else.
        let built = Arc::new(FragmentPlan::build(key));
        match plans.lock() {
            Ok(mut map) => Arc::clone(map.entry(key).or_insert(built)),
            Err(_) => built,
        }
    }

    /// `(tokens, dim)` of the tensors this plan packs.
    fn shape(&self) -> (usize, usize) {
        (self.key.tokens, self.key.dim)
    }

    /// 16-bit storage words in a tensor packed under this plan.
    fn words(&self) -> usize {
        self.regs.len() * 2
    }

    /// `half2` metadata groups in a tensor quantized under this plan.
    fn params(&self) -> usize {
        let PlanKey {
            tokens, dim, group, ..
        } = self.key;
        match self.key.granularity {
            KeyGranularity::ChannelWise => tokens.div_ceil(group) * dim,
            KeyGranularity::TensorWise => tokens * dim.div_ceil(group),
        }
    }

    /// The integer payload of `tensor`, rejected up front — not somewhere
    /// inside the walk — if it was not packed under this plan's shape.
    fn payload<'t>(&self, tensor: &'t PackedTensor) -> (&'t [u16], &'t [Half2]) {
        let PackedPayload::Int { words, params } = &tensor.payload else {
            panic!("integer decode of FP4 payload");
        };
        assert!(
            words.len() == self.words() && params.len() == self.params(),
            "packed tensor has {} words and {} params, its plan expects {} and {}",
            words.len(),
            params.len(),
            self.words(),
            self.params()
        );
        (words, params)
    }

    /// The one walk over the table: hands `visit` every 32-bit register of
    /// the word stream in order — its index and its code positions resolved
    /// against a destination with `[per token, per channel]` strides.
    #[inline]
    fn for_each_register<const N: usize>(
        &self,
        [per_token, per_channel]: [usize; 2],
        mut visit: impl FnMut(usize, Codes<'_, N>),
    ) {
        let at = |&(t, c, _): &Slot| t as usize * per_token + c as usize * per_channel;
        let resolve = |s: &Slot| (at(s), s.2 as usize);
        let mut regs = self.regs.iter().enumerate();
        for run in &self.runs {
            let offsets =
                std::array::from_fn(|p| run.offsets[p].as_ref().map_or((PAD, 0), resolve));
            let padded = run.offsets.contains(&None);
            for (r, origin) in regs.by_ref().take(run.regs) {
                visit(r, Codes(resolve(origin), &offsets, padded));
            }
        }
    }

    /// The Residual Kernel's quantize + pack: token-major codes land in
    /// the calling thread's scratch and are gathered through the table
    /// straight into the tensor's word stream, each 32-bit register split
    /// into two 16-bit storage words.
    fn encode(&self, values: &TokenMatrix) -> PackedTensor {
        let PlanKey {
            width,
            granularity,
            group,
            ..
        } = self.key;
        CODES.with_borrow_mut(|codes| {
            let params = quantize_int_codes(values, width, granularity, group, codes);
            let mut words = Vec::with_capacity(self.words());
            match width {
                BitWidth::B4 => self.gather_regs::<8>(codes, &mut words),
                BitWidth::B2 => self.gather_regs::<16>(codes, &mut words),
            }
            PackedTensor {
                tokens: self.key.tokens,
                dim: self.key.dim,
                payload: PackedPayload::Int { words, params },
            }
        })
    }

    /// The gather half of the plan for registers of `N` codes.
    fn gather_regs<const N: usize>(&self, codes: &[u8], words: &mut Vec<u16>) {
        self.for_each_register::<N>([self.key.dim, 1], |_, positions| {
            let mut reg32 = 0u32;
            positions.for_each(|shift, dst, _| reg32 |= u32::from(codes[dst]) << shift);
            let (lo, hi) = split_register(reg32);
            words.extend([lo, hi]);
        });
    }

    /// The Packing Kernel's unpack: streams `words` register by register
    /// into `store(dst, lut, code)`, destinations laid out by `strides`.
    #[inline]
    fn scatter(&self, words: &[u16], strides: [usize; 2], store: impl FnMut(usize, usize, usize)) {
        // One arm per width, so each register's extraction unrolls with
        // constant shifts.
        match self.key.width {
            BitWidth::B4 => self.scatter_regs::<8>(words, strides, store),
            BitWidth::B2 => self.scatter_regs::<16>(words, strides, store),
        }
    }

    /// [`FragmentPlan::scatter`] for registers of `N` codes.
    #[inline]
    fn scatter_regs<const N: usize>(
        &self,
        words: &[u16],
        strides: [usize; 2],
        mut store: impl FnMut(usize, usize, usize),
    ) {
        let mask = (1u32 << (32 / N as u32)) - 1;
        let (pairs, _) = words.as_chunks::<2>();
        self.for_each_register::<N>(strides, |r, positions| {
            let [lo, hi] = pairs[r];
            let reg32 = fuse_words(lo, hi);
            positions
                .for_each(|shift, dst, lut| store(dst, lut, ((reg32 >> shift) & mask) as usize));
        });
    }

    /// The materializing decode: codes scattered into a token-major code
    /// matrix, then dequantized by the reference routine.
    fn decode(&self, tensor: &PackedTensor) -> TokenMatrix {
        let PlanKey {
            tokens,
            dim,
            width,
            granularity,
            group,
            ..
        } = self.key;
        let (words, params) = self.payload(tensor);
        let mut codes = vec![0u8; tokens * dim];
        self.scatter(words, [dim, 1], |dst, _, code| codes[dst] = code as u8);
        dequantize_int_codes(&codes, params, tokens, dim, width, granularity, group)
    }

    /// Fused unpack **and** dequantize: streams the packed words through
    /// the plan, converting each code to its FP16 value inline (the same
    /// per-group FMA as [`bd_kvcache::dequantize_int_codes`], hardware-
    /// realised by the `lop3` fast path) and scattering it into `out` —
    /// token-major, or `transposed` into the `dim × tokens` tile — with no
    /// intermediate code matrix, no second pass, no transpose. Values are
    /// bit-identical to [`FragmentPlan::decode`]'s.
    ///
    /// Returns the modelled fast-dequant instruction counts for the words
    /// streamed (two 16-bit storage words per 32-bit register conversion).
    fn decode_fused(
        &self,
        tensor: &PackedTensor,
        transposed: bool,
        lut: &mut Vec<f32>,
        out: &mut TokenMatrix,
    ) -> FastDequantOps {
        let (tokens, dim) = self.shape();
        let (words, params) = self.payload(tensor);
        let (rows, cols, strides) = if transposed {
            (dim, tokens, [1, tokens])
        } else {
            (tokens, dim, [dim, 1])
        };
        out.resize_tokens(rows, cols);
        let flat = out.as_mut_slice();
        let lut = dequant_lut(params, self.key.width.levels() as usize, lut);
        self.scatter(words, strides, |dst, lut0, code| {
            flat[dst] = lut[lut0 + code]
        });

        let regs32 = words.len() as u32 / 2;
        let per_reg = register_ops(self.key.width);
        FastDequantOps {
            lop3: per_reg.lop3 * regs32,
            shifts: per_reg.shifts * regs32,
            hfma2: per_reg.hfma2 * regs32,
        }
    }
}

/// Per-group dequantization LUT, entry `group · levels + code`: the
/// value-level equivalent of precomputing the fast path's FusedScale
/// constants once per group. Same f32 operations as
/// `QuantParams::dequantize` (an integer code is exact in FP16), with each
/// `half2` widened once and the FMA's FP16 rounding applied to the whole
/// slab, which is staged unrounded in the back half of `buf`.
fn dequant_lut<'b>(params: &[Half2], levels: usize, buf: &'b mut Vec<f32>) -> &'b [f32] {
    let codes: [f32; 16] = std::array::from_fn(|code| code as f32);
    buf.resize(2 * params.len() * levels, 0.0);
    let (lut, unrounded) = buf.split_at_mut(params.len() * levels);
    for (entries, &h) in unrounded.chunks_exact_mut(levels).zip(params) {
        let p = QuantParams::from_half2(h);
        let (scale, zero) = (p.scale.to_f32(), p.zero.to_f32());
        for (entry, code) in entries.iter_mut().zip(codes) {
            *entry = code * scale + zero;
        }
    }
    round_through_f16(unrounded, lut);
    lut
}

/// `(tokens, dim)` of a packed tensor — what selects its plan.
fn packed_shape(tensor: &PackedTensor) -> (usize, usize) {
    (tensor.tokens, tensor.dim)
}

/// Decodes a kernel call's packed blocks through plans resolved at the
/// first block (and again only if a later block has a different shape),
/// so the walk itself never touches the intern table.
#[derive(Debug)]
pub(crate) struct BlockDecoder {
    codec: FragmentCodec,
    scheme: QuantScheme,
    k_transposed: bool,
    plans: Option<[Arc<FragmentPlan>; 2]>,
}

impl BlockDecoder {
    /// With `k_transposed`, K lands as the `dim × tokens` Kᵀ tile.
    pub(crate) fn new(codec: &FragmentCodec, scheme: QuantScheme, k_transposed: bool) -> Self {
        BlockDecoder {
            codec: *codec,
            scheme,
            k_transposed,
            plans: None,
        }
    }

    /// [`FragmentCodec::decode_block_fused`] with the dequant LUT built in
    /// the caller's reusable `lut` buffer.
    pub(crate) fn decode(
        &mut self,
        block: &PackedBlock,
        lut: &mut Vec<f32>,
        k_out: &mut TokenMatrix,
        v_out: &mut TokenMatrix,
    ) -> FastDequantOps {
        let shapes = (packed_shape(&block.k), packed_shape(&block.v));
        let fits = |[k, v]: &[Arc<FragmentPlan>; 2]| (k.shape(), v.shape()) == shapes;
        if !self.plans.as_ref().is_some_and(fits) {
            self.plans = self.codec.block_plans(self.scheme, shapes.0, shapes.1);
        }
        let Some([k_plan, v_plan]) = &self.plans else {
            // FP4 blocks (hardware block-scale layout) decode through the
            // reference nibble walk, which is flat token-major.
            let (mut k, v) = ReferenceCodec.decode(block, self.scheme);
            if self.k_transposed {
                k = TokenMatrix::from_fn(k.dim(), k.tokens(), |c, t| k[t][c]);
            }
            for (out, decoded) in [(k_out, k), (v_out, v)] {
                out.resize_tokens(decoded.tokens(), decoded.dim());
                out.as_mut_slice().copy_from_slice(decoded.as_slice());
            }
            return FastDequantOps::default();
        };
        k_plan.decode_fused(&block.k, self.k_transposed, lut, k_out)
            + v_plan.decode_fused(&block.v, false, lut, v_out)
    }
}

/// The codec used by BitDecoding's Residual and Packing kernels.
///
/// Both kernels must be constructed with the *same* layout — this is the
/// "unified instruction configuration" of paper §IV-A(4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentCodec {
    /// The shared instruction configuration.
    pub layout: PackLayout,
}

impl FragmentCodec {
    /// Builds the codec from an instruction configuration.
    pub const fn new(layout: PackLayout) -> Self {
        FragmentCodec { layout }
    }

    /// The interned `[K, V]` plans for blocks whose tensors have the given
    /// `(tokens, dim)` shapes under this codec's layout; `None` for FP4
    /// schemes, whose hardware-mandated block-scale layout needs no plan.
    fn block_plans(
        &self,
        scheme: QuantScheme,
        k_shape: (usize, usize),
        v_shape: (usize, usize),
    ) -> Option<[Arc<FragmentPlan>; 2]> {
        let SchemeKind::Int {
            width,
            key_granularity,
            group,
        } = scheme.kind()
        else {
            return None;
        };
        let plan = |(tokens, dim), granularity, group, key_orientation| {
            FragmentPlan::interned(PlanKey {
                layout: self.layout,
                tokens,
                dim,
                width,
                granularity,
                group,
                key_orientation,
            })
        };
        Some([
            plan(k_shape, key_granularity, group, true),
            // V is always tensor-wise along channels.
            plan(
                v_shape,
                KeyGranularity::TensorWise,
                QuantScheme::DEFAULT_CHANNEL_GROUP,
                false,
            ),
        ])
    }

    /// Decodes one packed block straight into reusable flat buffers in the
    /// orientation the fused attention kernel consumes (`k_out`/`v_out`
    /// token-major). Integer schemes stream through the fused plan walk;
    /// FP4 blocks (hardware block-scale layout) decode through the
    /// reference nibble walk, which is already flat token-major.
    pub fn decode_block_fused(
        &self,
        block: &PackedBlock,
        scheme: QuantScheme,
        k_out: &mut TokenMatrix,
        v_out: &mut TokenMatrix,
    ) -> FastDequantOps {
        BlockDecoder::new(self, scheme, false).decode(block, &mut Vec::new(), k_out, v_out)
    }
}

impl BlockCodec for FragmentCodec {
    fn encode(&self, k: &TokenMatrix, v: &TokenMatrix, scheme: QuantScheme) -> PackedBlock {
        let shape = |m: &TokenMatrix| (m.tokens(), m.dim());
        match self.block_plans(scheme, shape(k), shape(v)) {
            Some([k_plan, v_plan]) => PackedBlock {
                k: k_plan.encode(k),
                v: v_plan.encode(v),
            },
            // Blackwell native FP4 blocks follow the hardware-mandated
            // block-scale layout, which the layout-agnostic transform maps
            // to directly (paper §V-D(2)); physically it matches the
            // reference nibble layout.
            None => ReferenceCodec.encode(k, v, scheme),
        }
    }

    fn decode(&self, block: &PackedBlock, scheme: QuantScheme) -> (TokenMatrix, TokenMatrix) {
        match self.block_plans(scheme, packed_shape(&block.k), packed_shape(&block.v)) {
            Some([k_plan, v_plan]) => (k_plan.decode(&block.k), v_plan.decode(&block.v)),
            None => ReferenceCodec.decode(block, scheme),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_gpu_sim::MmaShape;
    use bd_kvcache::{CacheConfig, PagedKvStore};
    use bd_lowbit::{pack_u32, PackOrder, F16};

    /// The hand-written five-deep `(warp, lane, k-tile, tile-in-warp,
    /// register)` walks the plan replaced, kept verbatim as the reference
    /// the table is checked against.
    mod reference_walk {
        use super::*;

        fn effective_wn(layout: PackLayout, nt: usize) -> usize {
            let mut wn = layout.warps_n.min(nt).max(1);
            while !nt.is_multiple_of(wn) {
                wn -= 1;
            }
            wn
        }

        pub fn pack_b_operand(
            layout: PackLayout,
            code_at: impl Fn(usize, usize) -> u8,
            k_total: usize,
            n_total: usize,
            width: BitWidth,
        ) -> Vec<u16> {
            let shape = layout.shape;
            let blayout = FragmentLayout::new(shape, Operand::B);
            let kt = k_total / shape.k();
            let nt = n_total / shape.n();
            let wn = effective_wn(layout, nt);
            let tiles_per_warp = nt / wn;
            let regs = blayout.regs_per_lane();
            let per_reg32 = codes_per_u32(width);

            let mut words = Vec::new();
            for w in 0..wn {
                for lane in 0..32 {
                    let mut stream = Vec::with_capacity(kt * tiles_per_warp * regs);
                    for ki in 0..kt {
                        for tw in 0..tiles_per_warp {
                            let nj = w * tiles_per_warp + tw;
                            for reg in 0..regs {
                                let (kl, nl) = blayout.coords(lane, reg);
                                stream.push(code_at(ki * shape.k() + kl, nj * shape.n() + nl));
                            }
                        }
                    }
                    for chunk in stream.chunks(per_reg32) {
                        let mut buf = chunk.to_vec();
                        buf.resize(per_reg32, 0);
                        let (lo, hi) = split_register(pack_u32(&buf, width, layout.order));
                        words.push(lo);
                        words.push(hi);
                    }
                }
            }
            words
        }

        pub fn unpack_b_operand(
            layout: PackLayout,
            words: &[u16],
            mut store: impl FnMut(usize, usize, u8),
            k_total: usize,
            n_total: usize,
            width: BitWidth,
        ) {
            let shape = layout.shape;
            let blayout = FragmentLayout::new(shape, Operand::B);
            let kt = k_total / shape.k();
            let nt = n_total / shape.n();
            let wn = effective_wn(layout, nt);
            let tiles_per_warp = nt / wn;
            let regs = blayout.regs_per_lane();
            let per_reg32 = codes_per_u32(width);
            let regs32_per_lane = (kt * tiles_per_warp * regs).div_ceil(per_reg32);

            let mut stream = vec![0u8; regs32_per_lane * per_reg32];
            let mut widx = 0usize;
            for w in 0..wn {
                for lane in 0..32 {
                    for r32 in 0..regs32_per_lane {
                        let reg32 = fuse_words(words[widx], words[widx + 1]);
                        widx += 2;
                        unpack_u32_into(
                            reg32,
                            width,
                            layout.order,
                            &mut stream[r32 * per_reg32..(r32 + 1) * per_reg32],
                        );
                    }
                    for ki in 0..kt {
                        for tw in 0..tiles_per_warp {
                            let nj = w * tiles_per_warp + tw;
                            for reg in 0..regs {
                                let (kl, nl) = blayout.coords(lane, reg);
                                store(
                                    ki * shape.k() + kl,
                                    nj * shape.n() + nl,
                                    stream[(ki * tiles_per_warp + tw) * regs + reg],
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every `(Wn, order, width, dim, granularity)` the property tests
    /// cover, as `(layout, scheme, tokens, dim)` — full residual blocks,
    /// plus one 32-token shape whose K lanes hold half a register, so the
    /// padding offsets are exercised, and one 48-token shape whose lane
    /// streams end mid-register or pair tiles unevenly, so a plan needs
    /// more than one offset pattern.
    fn plan_grid() -> Vec<(PackLayout, QuantScheme, usize, usize)> {
        let mut grid = Vec::new();
        for warps_n in [1, 2, 4] {
            for order in [PackOrder::Linear, PackOrder::FastDequant] {
                let layout = PackLayout {
                    shape: MmaShape::M16N8K16,
                    order,
                    warps_n,
                };
                for scheme in [
                    QuantScheme::kc4(),
                    QuantScheme::kt4(),
                    QuantScheme::kc2(),
                    QuantScheme::kt2(),
                ] {
                    let width = scheme.int_width().unwrap();
                    for dim in [16, 32, 64, 128] {
                        grid.push((layout, scheme, layout.residual_block(width), dim));
                    }
                    grid.push((layout, scheme, 32, 16));
                    grid.push((layout, scheme, 48, 16));
                }
            }
        }
        grid
    }

    /// The K and V plans `codec` resolves for a `tokens × dim` block.
    fn block_plans(
        codec: &FragmentCodec,
        scheme: QuantScheme,
        tokens: usize,
        dim: usize,
    ) -> [Arc<FragmentPlan>; 2] {
        codec
            .block_plans(scheme, (tokens, dim), (tokens, dim))
            .expect("integer schemes only")
    }

    #[test]
    fn plan_is_a_bijection_onto_the_block() {
        let (mut saw_padding, mut saw_runs) = (false, false);
        for (layout, scheme, tokens, dim) in plan_grid() {
            for plan in block_plans(&FragmentCodec::new(layout), scheme, tokens, dim) {
                let per_reg = codes_per_u32(plan.key.width);
                let lut_len = plan.params() * plan.key.width.levels() as usize;
                // Token-major and as the transposed tile: the same walk,
                // the same registers and LUT bases, mirrored destinations.
                let walk = |strides| {
                    let mut codes = Vec::new();
                    match plan.key.width {
                        BitWidth::B4 => plan.for_each_register::<8>(strides, |r, positions| {
                            positions.for_each(|shift, dst, lut| codes.push((r, shift, dst, lut)));
                        }),
                        BitWidth::B2 => plan.for_each_register::<16>(strides, |r, positions| {
                            positions.for_each(|shift, dst, lut| codes.push((r, shift, dst, lut)));
                        }),
                    }
                    codes
                };
                let (token_major, transposed) = (walk([dim, 1]), walk([1, tokens]));
                let mut hits = vec![0u32; tokens * dim];
                let mut positions = vec![0u32; plan.regs.len()];
                for (&(r, shift, dst, lut), &(rt, shift_t, dst_t, lut_t)) in
                    token_major.iter().zip(&transposed)
                {
                    assert_eq!((r, shift, lut), (rt, shift_t, lut_t));
                    assert_eq!(dst_t, dst % dim * tokens + dst / dim);
                    assert!(lut < lut_len);
                    hits[dst] += 1;
                    assert_eq!(positions[r] & (1 << (shift / plan.key.width.bits())), 0);
                    positions[r] |= 1 << (shift / plan.key.width.bits());
                }
                assert_eq!(token_major.len(), transposed.len());
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "{layout} {scheme} {tokens}x{dim}: every element exactly once"
                );
                assert_eq!(
                    plan.runs.iter().map(|run| run.regs).sum::<usize>(),
                    plan.regs.len()
                );
                assert!(plan.runs.iter().all(|run| run.offsets.len() == per_reg));
                saw_padding |= token_major.len() < plan.regs.len() * per_reg;
                saw_runs |= plan.runs.len() > 1;
            }
        }
        assert!(saw_padding, "the grid must include a padded shape");
        assert!(
            saw_runs,
            "the grid must include a shape with several offset patterns"
        );
    }

    #[test]
    fn plan_matches_reference_walk_both_ways() {
        for (layout, scheme, tokens, dim) in plan_grid() {
            let codec = FragmentCodec::new(layout);
            let width = scheme.int_width().unwrap();
            let k = test_matrix(tokens, dim, 0.3);
            let v = test_matrix(tokens, dim, 1.7);
            let block = codec.encode(&k, &v, scheme);
            let (dk, dv) = codec.decode(&block, scheme);
            let tensors = [(&k, &block.k, &dk), (&v, &block.v, &dv)];
            for ((values, packed, decoded), plan) in tensors
                .into_iter()
                .zip(block_plans(&codec, scheme, tokens, dim))
            {
                let PlanKey {
                    granularity,
                    group,
                    key_orientation,
                    ..
                } = plan.key;
                let mut codes = Vec::new();
                let params = quantize_int_codes(values, width, granularity, group, &mut codes);
                let (k_total, n_total) = if key_orientation {
                    (dim, tokens)
                } else {
                    (tokens, dim)
                };
                let index = |k: usize, n: usize| {
                    if key_orientation {
                        n * dim + k
                    } else {
                        k * dim + n
                    }
                };
                let want_words = reference_walk::pack_b_operand(
                    layout,
                    |k, n| codes[index(k, n)],
                    k_total,
                    n_total,
                    width,
                );
                let PackedPayload::Int {
                    words: got_words,
                    params: got_params,
                } = &packed.payload
                else {
                    panic!("integer payload");
                };
                assert_eq!(got_words, &want_words, "{layout} {scheme} {tokens}x{dim}");
                assert_eq!(got_params, &params);

                let mut unpacked = vec![0u8; tokens * dim];
                reference_walk::unpack_b_operand(
                    layout,
                    got_words,
                    |k, n, c| unpacked[index(k, n)] = c,
                    k_total,
                    n_total,
                    width,
                );
                assert_eq!(unpacked, codes, "walk must invert the plan's pack");
                let want = dequantize_int_codes(
                    &unpacked,
                    &params,
                    tokens,
                    dim,
                    width,
                    granularity,
                    group,
                );
                assert_eq!(decoded, &want, "{layout} {scheme} {tokens}x{dim}");
                // The same walk under the other strides lands the transpose.
                let mut tile = test_matrix(5, 3, 9.0);
                plan.decode_fused(packed, true, &mut Vec::new(), &mut tile);
                let transposed = TokenMatrix::from_fn(dim, tokens, |c, t| want[t][c]);
                assert_eq!(tile, transposed, "{layout} {scheme} {tokens}x{dim}: tile");
            }
        }
    }

    #[test]
    fn fused_decode_is_bit_identical_across_the_grid() {
        for (layout, scheme, tokens, dim) in plan_grid() {
            let codec = FragmentCodec::new(layout);
            let block = codec.encode(
                &test_matrix(tokens, dim, 0.4),
                &test_matrix(tokens, dim, 1.1),
                scheme,
            );
            let (dk, dv) = codec.decode(&block, scheme);
            // Dirty, wrongly-shaped buffers: every slot must be rewritten.
            let mut fk = test_matrix(3, 5, 9.0);
            let mut fv = test_matrix(300, 7, 9.0);
            codec.decode_block_fused(&block, scheme, &mut fk, &mut fv);
            assert_eq!(dk, fk, "{layout} {scheme} {tokens}x{dim}: K");
            assert_eq!(dv, fv, "{layout} {scheme} {tokens}x{dim}: V");
        }
    }

    #[test]
    fn slab_lut_equals_the_scalar_dequantization_entry_by_entry() {
        // Every class of `half2` bit pattern a block can carry: `scale`
        // zero, subnormal, ordinary, negative, huge; `zero` ±0, ordinary,
        // subnormal, huge, ±Inf, NaN.
        let scales = [
            0x0000, 0x0001, 0x03FF, 0x2E66, 0x3C00, 0xB800, 0x7BFF, 0x7C00,
        ];
        let zeros = [
            0x0000, 0x8000, 0x0200, 0xC100, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00, 0xFE01,
        ];
        let classes: Vec<Half2> = scales
            .iter()
            .flat_map(|&s| zeros.map(|z| Half2::new(F16::from_bits(s), F16::from_bits(z))))
            .collect();
        let finite = |h: &Half2| {
            (0..16).all(|code| (code as f32 * h.lo().to_f32() + h.hi().to_f32()).abs() < 65520.0)
        };
        let tame: Vec<Half2> = classes.iter().copied().filter(finite).collect();
        assert!(tame.len() > 20 && tame.len() < classes.len());
        let mut buf = vec![7.0; 3];
        for width in [BitWidth::B4, BitWidth::B2] {
            let levels = width.levels() as usize;
            // Alone, in the slab pass (`tame`), and beside groups whose
            // entries overflow FP16, which sends the slab to the
            // element-by-element fallback of `round_through_f16`.
            let singles = classes.iter().map(std::slice::from_ref);
            for params in singles.chain([&tame[..], &classes[..]]) {
                let lut = dequant_lut(params, levels, &mut buf);
                assert_eq!(lut.len(), params.len() * levels);
                for (entries, h) in lut.chunks_exact(levels).zip(params) {
                    let (scale, zero) = (h.lo().to_f32(), h.hi().to_f32());
                    for (code, got) in entries.iter().enumerate() {
                        // A NaN's sign is whatever the FMA's operand order
                        // made it — not defined even between two scalar
                        // evaluations — so NaN entries match as a class.
                        let same =
                            |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
                        let want = F16::from_f32(code as f32 * scale + zero).to_f32();
                        let reference = QuantParams::from_half2(*h).dequantize(code as u8);
                        assert!(same(*got, want), "{h:?} code {code}: {got} vs {want}");
                        assert!(same(want, reference.to_f32()), "{h:?} code {code}");
                    }
                }
            }
        }
    }

    #[test]
    fn interning_is_keyed_by_the_decoders_layout() {
        let layout = PackLayout::sm80_default();
        let narrow = PackLayout {
            warps_n: 2,
            ..layout
        };
        let scheme = QuantScheme::kc4();
        let [k4, _] = block_plans(&FragmentCodec::new(layout), scheme, 128, 32);
        let [k2, _] = block_plans(&FragmentCodec::new(narrow), scheme, 128, 32);
        let [again, _] = block_plans(&FragmentCodec::new(layout), scheme, 128, 32);
        assert!(Arc::ptr_eq(&k4, &again), "same key must share one table");
        assert!(!Arc::ptr_eq(&k4, &k2), "a Wn = 2 decoder gets its own");
        assert_eq!(k2.key.layout.warps_n, 2);
    }

    #[test]
    #[should_panic(expected = "its plan expects 1024 and 64")]
    fn truncated_payload_is_rejected_up_front() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let scheme = QuantScheme::kc4();
        let mut block = codec.encode(
            &test_matrix(128, 32, 0.2),
            &test_matrix(128, 32, 0.9),
            scheme,
        );
        let PackedPayload::Int { words, .. } = &mut block.k.payload else {
            panic!("integer payload");
        };
        words.truncate(1000);
        let (mut k, mut v) = (TokenMatrix::new(0), TokenMatrix::new(0));
        codec.decode_block_fused(&block, scheme, &mut k, &mut v);
    }

    #[test]
    fn fp4_fused_decode_reuses_the_callers_buffers() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let scheme = QuantScheme::mxfp4();
        let block = codec.encode(&test_matrix(64, 32, 0.3), &test_matrix(64, 32, 0.8), scheme);
        let mut k = TokenMatrix::zeros(64, 32);
        let mut v = TokenMatrix::zeros(64, 32);
        let (k_ptr, v_ptr) = (k.as_slice().as_ptr(), v.as_slice().as_ptr());
        codec.decode_block_fused(&block, scheme, &mut k, &mut v);
        assert_eq!(k.as_slice().as_ptr(), k_ptr, "K buffer must be reused");
        assert_eq!(v.as_slice().as_ptr(), v_ptr, "V buffer must be reused");
        assert_eq!((k, v), codec.decode(&block, scheme));
    }

    fn test_matrix(tokens: usize, dim: usize, seed: f32) -> TokenMatrix {
        (0..tokens)
            .map(|t| {
                (0..dim)
                    .map(|c| ((t * dim + c) as f32 * 0.619 + seed).sin() * 2.0)
                    .collect()
            })
            .collect()
    }

    fn max_err(a: &TokenMatrix, b: &TokenMatrix) -> f32 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
            .fold(0.0, f32::max)
    }

    #[test]
    fn one_store_fed_through_two_codecs_adopts_nothing() {
        // The source digest covers the input rows, not the codec: the same
        // prompt through another codec finds the cached run by digest, and
        // only the re-encoded first block tells the layouts apart.
        let config = CacheConfig::new(32, QuantScheme::kc4(), PackLayout::sm80_default());
        let mut store = PagedKvStore::new(config, 2, 64, 32);
        store.set_prefix_cache(true);
        let k = [test_matrix(2 * 128, 32, 0.2), test_matrix(2 * 128, 32, 0.6)];
        let v = [test_matrix(2 * 128, 32, 0.9), test_matrix(2 * 128, 32, 1.4)];
        let fragment = FragmentCodec::new(config.layout);
        let (a, first) = store
            .admit_prefill_cached(&k, &v, 256, &ReferenceCodec)
            .unwrap();
        let (b, second) = store.admit_prefill_cached(&k, &v, 256, &fragment).unwrap();
        assert_eq!((first.pages_reused, second.pages_reused), (0, 0));
        assert_ne!(store.packed_blocks(a, 0), store.packed_blocks(b, 0));
        for (seq, decoded) in [
            (
                a,
                ReferenceCodec.decode(store.packed_blocks(a, 0)[0], config.scheme),
            ),
            (
                b,
                fragment.decode(store.packed_blocks(b, 0)[0], config.scheme),
            ),
        ] {
            assert!(
                max_err(&decoded.0, &k[0].slice_rows(0..128)) < 0.2,
                "{seq:?}"
            );
        }
        // Each codec still hits its own registration.
        let (_, again) = store.admit_prefill_cached(&k, &v, 256, &fragment).unwrap();
        assert_eq!(again.pages_reused, 8);
    }

    #[test]
    fn fragment_codec_round_trips() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        for scheme in [QuantScheme::kc4(), QuantScheme::kt4(), QuantScheme::kc2()] {
            let width = scheme.int_width().unwrap();
            let nr = layout.residual_block(width);
            let k = test_matrix(nr, 64, 0.0);
            let v = test_matrix(nr, 64, 1.0);
            let block = codec.encode(&k, &v, scheme);
            let (dk, dv) = codec.decode(&block, scheme);
            // Half a quantization step over a ±2 value range, plus slack.
            let tol = 4.0 / (width.levels() - 1) as f32 * 0.6 + 0.05;
            assert!(max_err(&k, &dk) < tol, "{scheme} K: {}", max_err(&k, &dk));
            assert!(max_err(&v, &dv) < tol, "{scheme} V: {}", max_err(&v, &dv));
        }
    }

    #[test]
    fn fragment_and_reference_decode_to_same_values() {
        // Same quantization, different physical layout: logical values are
        // identical after each codec's own round trip.
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let scheme = QuantScheme::kc4();
        let nr = layout.residual_block(BitWidth::B4);
        let k = test_matrix(nr, 32, 0.2);
        let v = test_matrix(nr, 32, 0.9);
        let (fk, fv) = codec.decode(&codec.encode(&k, &v, scheme), scheme);
        let (rk, rv) = ReferenceCodec.decode(&ReferenceCodec.encode(&k, &v, scheme), scheme);
        assert!(max_err(&fk, &rk) < 1e-6);
        assert!(max_err(&fv, &rv) < 1e-6);
    }

    #[test]
    fn physical_words_differ_from_reference_layout() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let scheme = QuantScheme::kc4();
        let nr = layout.residual_block(BitWidth::B4);
        let k = test_matrix(nr, 32, 0.2);
        let v = test_matrix(nr, 32, 0.9);
        let frag = codec.encode(&k, &v, scheme);
        let reference = ReferenceCodec.encode(&k, &v, scheme);
        let words = |t: &PackedTensor| match &t.payload {
            PackedPayload::Int { words, .. } => words.clone(),
            _ => unreachable!(),
        };
        assert_eq!(words(&frag.k).len(), words(&reference.k).len());
        assert_ne!(
            words(&frag.k),
            words(&reference.k),
            "layouts must differ physically"
        );
    }

    #[test]
    fn mismatched_pack_order_decodes_garbage() {
        // Residual Kernel packs 75316420; a Packing Kernel configured with
        // a linear unpack reads permuted codes — invalid layout (Fig. 3).
        let scheme = QuantScheme::kc4();
        let encode_layout = PackLayout::sm80_default();
        let decode_layout = PackLayout {
            order: PackOrder::Linear,
            ..encode_layout
        };
        let nr = encode_layout.residual_block(BitWidth::B4);
        let k = test_matrix(nr, 32, 0.2);
        let v = test_matrix(nr, 32, 0.9);
        let block = FragmentCodec::new(encode_layout).encode(&k, &v, scheme);
        let (dk, _) = FragmentCodec::new(decode_layout).decode(&block, scheme);
        assert!(max_err(&k, &dk) > 0.5, "mismatch must corrupt values");
    }

    #[test]
    fn mismatched_warp_count_decodes_garbage() {
        // Same instruction, different Wn tiling: still invalid.
        let scheme = QuantScheme::kc4();
        let encode_layout = PackLayout::sm80_default(); // Wn = 4
        let decode_layout = PackLayout {
            warps_n: 2,
            ..encode_layout
        };
        let nr = encode_layout.residual_block(BitWidth::B4);
        let k = test_matrix(nr, 32, 0.2);
        let v = test_matrix(nr, 32, 0.9);
        let block = FragmentCodec::new(encode_layout).encode(&k, &v, scheme);
        let (dk, _) = FragmentCodec::new(decode_layout).decode(&block, scheme);
        assert!(max_err(&k, &dk) > 0.5, "Wn mismatch must corrupt values");
    }

    #[test]
    fn fused_decode_is_bit_identical_to_decode() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        for scheme in [
            QuantScheme::kc4(),
            QuantScheme::kt4(),
            QuantScheme::kc2(),
            QuantScheme::mxfp4(),
        ] {
            let nr = layout.residual_block(scheme.int_width().unwrap_or(BitWidth::B4));
            let k = test_matrix(nr, 32, 0.4);
            let v = test_matrix(nr, 32, 1.1);
            let block = codec.encode(&k, &v, scheme);
            let (dk, dv) = codec.decode(&block, scheme);
            let mut fk = TokenMatrix::new(0);
            let mut fv = TokenMatrix::new(0);
            let ops = codec.decode_block_fused(&block, scheme, &mut fk, &mut fv);
            assert_eq!(dk, fk, "{scheme}: fused K decode must be bit-identical");
            assert_eq!(dv, fv, "{scheme}: fused V decode must be bit-identical");
            if scheme.int_width().is_some() {
                assert!(ops.total() > 0, "{scheme}: dequant work must be charged");
            }
        }
    }

    #[test]
    fn int2_blocks_round_trip() {
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let scheme = QuantScheme::kc2();
        let nr = layout.residual_block(BitWidth::B2);
        assert_eq!(nr, 256);
        let k = test_matrix(nr, 16, 0.0);
        let v = test_matrix(nr, 16, 1.0);
        let block = codec.encode(&k, &v, scheme);
        let (dk, dv) = codec.decode(&block, scheme);
        // 2-bit is coarse: bound by a couple of quantization steps.
        assert!(max_err(&k, &dk) < 1.5);
        assert!(max_err(&v, &dv) < 1.5);
    }

    #[test]
    fn fp4_delegates_to_hardware_layout() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let scheme = QuantScheme::mxfp4();
        let k = test_matrix(64, 32, 0.3);
        let v = test_matrix(64, 32, 0.8);
        let block = codec.encode(&k, &v, scheme);
        let (dk, dv) = codec.decode(&block, scheme);
        assert!(max_err(&k, &dk) < 1.0);
        assert!(max_err(&v, &dv) < 1.0);
    }
}
