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
//! `FragmentPlan` — the list of `ldmatrix` tiles it is made of — and interned
//! process-wide. Packing, unpacking and the fused dequantization are one
//! walk over those tiles, a warp's 8 lanes side by side (§IV-A(2)).

use bd_gpu_sim::{FragmentLayout, Operand};
use bd_kvcache::{
    assert_block_shape, dequantize_int_codes, quantize_int_codes, BlockCodec, KeyGranularity,
    PackLayout, PackedBlock, PackedPayload, PackedTensor, QuantScheme, ReferenceCodec, SchemeKind,
    TokenMatrix,
};
use bd_lowbit::fastpath::{register_ops, FastDequantOps};
use bd_lowbit::isa::{Avx2, Avx512, Isa};
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

thread_local! {
    /// Token-major codes of the tensor being encoded on this thread.
    static CODES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Dequant LUT of the block [`FragmentCodec::decode_block_fused`]
    /// decodes on this thread (the packed walk keeps its own in its
    /// scratch).
    static LUT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Lanes of a warp that share a thread-in-group: one `ldmatrix` tile's.
const TILE_LANES: usize = 8;

/// One code position of a tile: bits `shift..` of its 8 registers hold one
/// K row's codes for 8 consecutive N coordinates, lane 0's at `(token,
/// channel)` under metadata group `group`'s dequant-LUT line (none for a
/// position past the end of a lane stream that ends mid-register). The 8
/// values are one 8-value chunk of the unit-stride layout the walk writes
/// (Kᵀ for a Key plan, token-major for a Value plan): its index and the
/// shift share one word, `chunk << 5 | shift`, so a segment stays 12 bytes.
#[derive(Debug)]
struct Segment {
    chunk_shift: u32,
    token: u16,
    channel: u16,
    group: u32,
}

impl Segment {
    /// The bit offset of the segment's codes in each register.
    fn shift(&self) -> u32 {
        self.chunk_shift % 32
    }

    /// Lane 0's 8-value chunk in the unit-stride layout.
    fn chunk(&self) -> usize {
        (self.chunk_shift >> 5) as usize
    }
}

/// Layout induction as a value (paper §IV-A(1), Fig. 5): the fragment
/// mapping, the warp tiling and the in-register interleave resolved once
/// into the list of `ldmatrix` tiles the layout is made of. A tile is the 8
/// registers, `reg_stride` apart in the word stream, that the lanes sharing
/// a thread-in-group hold at one register index; at every code position
/// they hold 8 consecutive N coordinates of one K row (tokens of a Kᵀ row,
/// channels of a V row), so a [`Segment`] names lane 0's. The Residual
/// Kernel gathers codes into a tile's registers, the Packing Kernel
/// dequantizes them back out into the plan's one unit-stride layout (the
/// `dim × tokens` Kᵀ tile for a Key plan, token-major for a Value plan:
/// the MMA B operand, N contiguous) — so §IV-A(4)'s "unified instruction
/// configuration" is one table; only `build` still derives the layout from
/// first principles.
#[derive(Debug)]
pub(crate) struct FragmentPlan {
    key: PlanKey,
    /// Per tile, its first register and the end of its run of `segments`.
    tiles: Vec<(u32, u32)>,
    segments: Vec<Segment>,
    /// Registers between a tile's consecutive lanes.
    reg_stride: usize,
    /// Metadata groups between a segment's consecutive lanes: one token's
    /// for tensor-wise Keys, else 0 (the lanes run along the group).
    group_step: usize,
    /// Empty, unless some lane's group is not `group + lane · group_step` (a
    /// group size 8 does not divide): then every segment's 8, at its `group`.
    lane_groups: Vec<[u32; TILE_LANES]>,
}

impl FragmentPlan {
    /// Induces the tiles. The physical stream is ordered by `(warp, lane,
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
        // With at least 4 levels this also bounds a chunk index below
        // 2^27, so `chunk << 5` fits a `u32`.
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

        // `[n, k, metadata group]` of element `e` of a lane's stream.
        let slot = |w: usize, lane: usize, e: usize| {
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
            [n, k, group]
        };
        let mut plan = FragmentPlan {
            key,
            tiles: Vec::with_capacity(wn * 4 * regs32_per_lane),
            segments: Vec::new(),
            reg_stride: 4 * regs32_per_lane,
            group_step: slot(0, 4, 0)[2] - slot(0, 0, 0)[2],
            lane_groups: Vec::new(),
        };
        let (mut lane_groups, mut affine) = (Vec::new(), true);
        for (w, tig) in (0..wn).flat_map(|w| (0..4).map(move |tig| (w, tig))) {
            for r32 in 0..regs32_per_lane {
                let elems = logical_of.iter().map(|logical| r32 * per_reg32 + logical);
                for (p, e) in elems.enumerate().filter(|&(_, e)| e < stream_len) {
                    let lanes: [_; TILE_LANES] =
                        std::array::from_fn(|lane| slot(w, 4 * lane + tig, e));
                    let [n, k, group] = lanes[0];
                    // What `ldmatrix` transposes: consecutive N, one K.
                    assert!((0..TILE_LANES).all(|i| lanes[i][..2] == [n + i, k]));
                    affine &= (0..TILE_LANES).all(|i| lanes[i][2] == group + i * plan.group_step);
                    let (t, c) = if key.key_orientation { (n, k) } else { (k, n) };
                    // N is the unit-stride axis, and lane 0's N a multiple of 8.
                    let chunk = (n + k * n_total) / TILE_LANES;
                    plan.segments.push(Segment {
                        chunk_shift: ((chunk as u32) << 5) | (p as u32 * key.width.bits()),
                        token: t as u16,
                        channel: c as u16,
                        group: group as u32,
                    });
                    lane_groups.push(lanes.map(|[.., group]| group as u32));
                }
                let first = (w * 32 + tig) * regs32_per_lane + r32;
                plan.tiles.push((first as u32, plan.segments.len() as u32));
            }
        }
        if !affine {
            (plan.segments.iter_mut().zip(0..)).for_each(|(s, index)| s.group = index);
            plan.lane_groups = lane_groups;
        }
        plan
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
        self.tiles.len() * TILE_LANES * 2
    }

    /// `half2` metadata groups in a tensor quantized under this plan.
    fn params(&self) -> usize {
        let key = self.key;
        match key.granularity {
            KeyGranularity::ChannelWise => key.tokens.div_ceil(key.group) * key.dim,
            KeyGranularity::TensorWise => key.tokens * key.dim.div_ceil(key.group),
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

    /// Lane 0 of `s` in the token-major code matrix, in 32 bits (`build`
    /// bounds the block): no window from it can wrap. Only the encode
    /// gather and the materializing decode read token-major codes; the
    /// fused decode writes the segment's chunk.
    fn at(&self, s: &Segment) -> usize {
        (u32::from(s.token) * self.key.dim as u32 + u32::from(s.channel)) as usize
    }

    /// The metadata group of `lane` of segment `s`.
    fn lane_group(&self, s: &Segment, lane: usize) -> usize {
        match self.lane_groups.get(s.group as usize) {
            Some(groups) => groups[lane] as usize,
            None => s.group as usize + lane * self.group_step,
        }
    }

    /// The stride between a segment's lanes (N) in the token-major code
    /// matrix: a Key plan's run along tokens, a Value plan's along channels.
    fn lane_stride(&self) -> usize {
        if self.key.key_orientation {
            self.key.dim
        } else {
            1
        }
    }

    /// The one walk over the plan: hands `visit` every tile — the word-
    /// stream indices of its 8 registers, and its segments.
    #[inline(always)]
    fn for_each_tile(&self, mut visit: impl FnMut([usize; TILE_LANES], &[Segment])) {
        let mut start = 0;
        for &(first, end) in &self.tiles {
            let regs = std::array::from_fn(|lane| first as usize + lane * self.reg_stride);
            visit(regs, &self.segments[start..end as usize]);
            start = end as usize;
        }
    }

    /// A tile's 8 registers, each fused from its two storage words, built
    /// where it is called: `regs.map(..)` stays an out-of-line call in an
    /// instance.
    #[inline(always)]
    fn tile(pairs: &[[u16; 2]], regs: [usize; TILE_LANES]) -> [u32; TILE_LANES] {
        let reg = |lane: usize| {
            let [low, high] = pairs[regs[lane]];
            fuse_words(low, high)
        };
        [
            reg(0),
            reg(1),
            reg(2),
            reg(3),
            reg(4),
            reg(5),
            reg(6),
            reg(7),
        ]
    }

    /// The Residual Kernel's quantize + pack: token-major codes land in
    /// the calling thread's scratch and are gathered tile by tile straight
    /// into the tensor's word stream, each 32-bit register split into two
    /// 16-bit storage words.
    fn encode(&self, values: &TokenMatrix) -> PackedTensor {
        let key = self.key;
        CODES.with_borrow_mut(|codes| {
            let params = quantize_int_codes(values, key.width, key.granularity, key.group, codes);
            let mut words = vec![0u16; self.words()];
            match self.lane_stride() == 1 {
                true => self.gather_tiles::<true>(codes, &mut words),
                false => self.gather_tiles::<false>(codes, &mut words),
            }
            PackedTensor {
                tokens: key.tokens,
                dim: key.dim,
                payload: PackedPayload::Int { words, params },
            }
        })
    }

    /// The gather; `UNIT` states the lane stride is 1 (a Value plan's
    /// codes) as a constant. A tile is built byte-sliced: a segment's 8
    /// codes, one byte per lane of a `u64` (one 8-byte load where `UNIT`),
    /// shift within their byte — a code never crosses one — and OR into
    /// the plane of register byte `shift / 8`; the 4 planes then transpose
    /// into the 8 registers once per tile ([`registers_of_planes`]).
    #[inline]
    fn gather_tiles<const UNIT: bool>(&self, codes: &[u8], words: &mut [u16]) {
        let lane_stride = if UNIT { 1 } else { self.lane_stride() };
        let (pairs, _) = words.as_chunks_mut::<2>();
        self.for_each_tile(|regs, segments| {
            let mut planes = [0u64; 4];
            for s in segments {
                let src = self.at(s);
                let window = &codes[src..src + (TILE_LANES - 1) * lane_stride + 1];
                let lanes = match window.first_chunk::<TILE_LANES>() {
                    Some(&bytes) if UNIT => u64::from_le_bytes(bytes),
                    _ => (0..TILE_LANES).fold(0, |w, lane| {
                        w | u64::from(window[lane * lane_stride]) << (8 * lane)
                    }),
                };
                planes[(s.shift() / 8) as usize % 4] |= lanes << (s.shift() % 8);
            }
            for (r, reg32) in regs.into_iter().zip(registers_of_planes(planes)) {
                pairs[r] = split_register(reg32).into();
            }
        });
    }

    /// The materializing decode: codes unpacked tile by tile into a
    /// token-major code matrix, then dequantized by the reference routine.
    fn decode(&self, tensor: &PackedTensor) -> TokenMatrix {
        let PlanKey { tokens, dim, .. } = self.key;
        let PlanKey { width, group, .. } = self.key;
        let (words, params) = self.payload(tensor);
        let (pairs, _) = words.as_chunks::<2>();
        let mut codes = vec![0u8; tokens * dim];
        let lane_stride = self.lane_stride();
        self.for_each_tile(|regs, segments| {
            let tile = Self::tile(pairs, regs);
            for s in segments {
                let dst = self.at(s);
                for (lane, reg) in tile.into_iter().enumerate() {
                    codes[dst + lane * lane_stride] = ((reg >> s.shift()) % width.levels()) as u8;
                }
            }
        });
        let granularity = self.key.granularity;
        dequantize_int_codes(&codes, params, tokens, dim, width, granularity, group)
    }

    /// Fused unpack **and** dequantize: streams the packed words through
    /// the plan tile by tile, converting each code to its FP16 value inline
    /// (the same per-group FMA as [`bd_kvcache::dequantize_int_codes`],
    /// hardware-realised by the `lop3` fast path) and landing it in `out`
    /// in the plan's unit-stride layout — the `dim × tokens` Kᵀ tile for a
    /// Key plan, token-major for a Value plan — with no intermediate code
    /// matrix, no second pass, no transpose: every instance writes each
    /// segment to the chunk the plan records. Values are bit-identical to
    /// [`FragmentPlan::decode`]'s (transposed for a Key plan) in every
    /// `isa`: the AVX2 and AVX-512 instances permute a LUT line where a
    /// segment's 8 lanes share it (every Kᵀ row of a channel-wise K, every
    /// V row), and look up lane by lane like the baseline elsewhere.
    ///
    /// Returns the modelled fast-dequant instruction counts for the words
    /// streamed (two 16-bit storage words per 32-bit register conversion).
    #[inline(always)]
    fn decode_fused(
        &self,
        isa: Isa,
        tensor: &PackedTensor,
        lut: &mut Vec<f32>,
        out: &mut TokenMatrix,
    ) -> FastDequantOps {
        let (tokens, dim) = self.shape();
        let (words, params) = self.payload(tensor);
        if self.key.key_orientation {
            out.resize_tokens(dim, tokens);
        } else {
            out.resize_tokens(tokens, dim);
        }
        let out = out.as_mut_slice();
        let lut = dequant_lut(isa, params, self.key.width.levels() as usize, lut);
        // One arm per width, so a LUT line is an array the code's mask
        // proves every index of.
        let avx2 = isa
            .avx2()
            .filter(|_| self.group_step == 0 && self.lane_groups.is_empty());
        let wide = isa.avx512();
        match (self.key.width, avx2) {
            (BitWidth::B4, Some(x)) => self.permute_tiles::<16>(x, wide, words, lut, out),
            (BitWidth::B2, Some(x)) => self.permute_tiles::<4>(x, wide, words, lut, out),
            (BitWidth::B4, None) => self.dequant_tiles::<16>(words, lut, out),
            (BitWidth::B2, None) => self.dequant_tiles::<4>(words, lut, out),
        }

        let regs32 = words.len() as u32 / 2;
        let per_reg = register_ops(self.key.width);
        FastDequantOps {
            lop3: per_reg.lop3 * regs32,
            shifts: per_reg.shifts * regs32,
            hfma2: per_reg.hfma2 * regs32,
        }
    }

    /// [`FragmentPlan::decode_fused`] for codes of `LEVELS` levels: a
    /// warp's lanes dequantized side by side (paper §IV-A(2)) into the
    /// 8-value chunk of `out` the plan names per segment, as in
    /// `permute_tiles`; where its lanes share one LUT line, no check is
    /// left per code. This is the baseline instance's path everywhere and
    /// the AVX2 and AVX-512 instances' where [`FragmentPlan::permute_tiles`]
    /// does not apply. Always inlined, so the per-lane path runs inside the
    /// instance's entry too.
    #[inline(always)]
    fn dequant_tiles<const LEVELS: usize>(&self, words: &[u16], lut: &[f32], out: &mut [f32]) {
        let (pairs, _) = words.as_chunks::<2>();
        let (lines, _) = lut.as_chunks::<LEVELS>();
        let (chunks, _) = out.as_chunks_mut::<TILE_LANES>();
        let one_line = self.group_step == 0 && self.lane_groups.is_empty();
        self.for_each_tile(
            #[inline(always)]
            |regs, segments| {
                let tile = Self::tile(pairs, regs);
                for s in segments {
                    let chunk = &mut chunks[s.chunk()];
                    let shared = one_line.then(|| &lines[s.group as usize]);
                    for (lane, reg) in tile.into_iter().enumerate() {
                        let line = shared.unwrap_or_else(|| &lines[self.lane_group(s, lane)]);
                        chunk[lane] = line[(reg >> s.shift()) as usize % LEVELS];
                    }
                }
            },
        );
    }

    /// [`FragmentPlan::dequant_tiles`]`::<LEVELS>` where every
    /// segment's lanes share one LUT line, in the AVX2 and AVX-512
    /// instances: the same entries, permuted in registers rather than
    /// loaded one by one, into `out`'s 8-value chunk the plan names per
    /// segment. Per segment that is a shift, the permute and one store: the
    /// destination is read, not computed. With `wide` a tile's segments go
    /// two per permute ([`Avx512::permute2`]), an odd last one alone.
    #[inline(always)]
    fn permute_tiles<const LEVELS: usize>(
        &self,
        avx2: Avx2,
        wide: Option<Avx512>,
        words: &[u16],
        lut: &[f32],
        out: &mut [f32],
    ) {
        let (pairs, _) = words.as_chunks::<2>();
        let (lines, _) = lut.as_chunks::<LEVELS>();
        let (chunks, _) = out.as_chunks_mut::<TILE_LANES>();
        self.for_each_tile(
            #[inline(always)]
            |regs, segments| {
                let tile = Self::tile(pairs, regs);
                let singles = match wide {
                    Some(wide) => {
                        let (twos, odd) = segments.as_chunks::<2>();
                        for [s0, s1] in twos {
                            let lines = [&lines[s0.group as usize], &lines[s1.group as usize]];
                            let (shifts, at) = ([s0.shift(), s1.shift()], [s0.chunk(), s1.chunk()]);
                            wide.permute2(&tile, shifts, lines, chunks, at);
                        }
                        odd
                    }
                    None => segments,
                };
                for s in singles {
                    let (line, chunk) = (&lines[s.group as usize], &mut chunks[s.chunk()]);
                    avx2.permute(&tile, s.shift(), line, chunk);
                }
            },
        );
    }
}

/// The 8 registers of a tile from its byte planes: byte `lane` of
/// `planes[b]` is byte `b` of register `lane`. Two 4 × 4 byte transposes
/// at once (lanes 0–3 in the low halves, 4–7 in the high), each two rounds
/// of swapping the off-diagonal halves of 2 × 2 sub-blocks.
#[inline(always)]
fn registers_of_planes(mut p: [u64; 4]) -> [u32; TILE_LANES] {
    for (step, shift, mask) in [
        (1, 8, 0x00FF_00FF_00FF_00FF),
        (2, 16, 0x0000_FFFF_0000_FFFF),
    ] {
        for i in [0, 1, 2, 3].into_iter().filter(|i| i & step == 0) {
            let t = ((p[i] >> shift) ^ p[i + step]) & mask;
            p[i + step] ^= t;
            p[i] ^= t << shift;
        }
    }
    std::array::from_fn(|lane| (p[lane % 4] >> (32 * (lane / 4))) as u32)
}

/// Per-group dequantization LUT, entry `group · levels + code`: the
/// value-level equivalent of precomputing the fast path's FusedScale
/// constants once per group. Same f32 operations as
/// `QuantParams::dequantize` (an integer code is exact in FP16) with each
/// `half2` widened once, and the FMA's FP16 rounding: in the baseline
/// instance over the whole slab once its entries are written, in the AVX2
/// and AVX-512 instances on each line in registers
/// ([`Avx2::dequant_lines`], [`Avx512::dequant_lines`]). Always inlined:
/// in an instance's entry only that instance's arm is left.
#[inline(always)]
fn dequant_lut<'b>(isa: Isa, params: &[Half2], levels: usize, buf: &'b mut Vec<f32>) -> &'b [f32] {
    buf.resize(params.len() * levels, 0.0);
    match (isa.avx512(), isa.avx2()) {
        (Some(wide), _) if levels == 16 => wide.dequant_lines(params, buf),
        (_, Some(avx2)) if levels == 16 => avx2.dequant_lines::<16>(params, buf),
        (_, Some(avx2)) => avx2.dequant_lines::<4>(params, buf),
        (_, None) => {
            let codes: [f32; 16] = std::array::from_fn(|code| code as f32);
            for (entries, &h) in buf.chunks_exact_mut(levels).zip(params) {
                let p = QuantParams::from_half2(h);
                let (scale, zero) = (p.scale.to_f32(), p.zero.to_f32());
                for (entry, code) in entries.iter_mut().zip(codes) {
                    *entry = code * scale + zero;
                }
            }
            isa.round_through_f16_in_place(buf);
        }
    }
    buf
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
    /// The instance of the walk the decoder runs in: the host's, unless
    /// set.
    pub(crate) isa: Isa,
    plans: Option<[Arc<FragmentPlan>; 2]>,
}

impl BlockDecoder {
    /// A decoder running in the host's instance.
    pub(crate) fn new(codec: &FragmentCodec, scheme: QuantScheme) -> Self {
        BlockDecoder {
            codec: *codec,
            scheme,
            isa: Isa::host(),
            plans: None,
        }
    }

    /// [`FragmentCodec::decode_block_fused`] in `isa` (the instance the
    /// caller runs in), with the dequant LUT built in the caller's
    /// reusable `lut` buffer.
    #[inline(always)]
    pub(crate) fn decode(
        &mut self,
        isa: Isa,
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
            // reference nibble walk, which is flat token-major: K is
            // transposed to the Kᵀ tile.
            let (k, v) = ReferenceCodec.decode(block, self.scheme);
            let kt = TokenMatrix::from_fn(k.dim(), k.tokens(), |c, t| k[t][c]);
            for (out, decoded) in [(k_out, kt), (v_out, v)] {
                out.resize_tokens(decoded.tokens(), decoded.dim());
                out.as_mut_slice().copy_from_slice(decoded.as_slice());
            }
            return FastDequantOps::default();
        };
        k_plan.decode_fused(isa, &block.k, lut, k_out)
            + v_plan.decode_fused(isa, &block.v, lut, v_out)
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

    /// Decodes one packed block straight into reusable flat buffers as the
    /// fused attention kernel's walk decodes it, in the host's instance: K
    /// as the `dim × tokens` Kᵀ tile in `k_out`, V token-major in `v_out`
    /// (each its MMA B operand, N contiguous). Integer schemes stream
    /// through the fused plan walk; FP4 blocks (hardware block-scale
    /// layout) decode through the reference nibble walk, K then transposed.
    pub fn decode_block_fused(
        &self,
        block: &PackedBlock,
        scheme: QuantScheme,
        k_out: &mut TokenMatrix,
        v_out: &mut TokenMatrix,
    ) -> FastDequantOps {
        let mut decoder = BlockDecoder::new(self, scheme);
        LUT.with_borrow_mut(|lut| {
            decoder.isa.run(
                #[inline(always)]
                |isa| decoder.decode(isa, block, lut, k_out, v_out),
            )
        })
    }
}

impl BlockCodec for FragmentCodec {
    fn encode(&self, k: &TokenMatrix, v: &TokenMatrix, scheme: QuantScheme) -> PackedBlock {
        assert_block_shape(k, v);
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

        pub(crate) fn pack_b_operand(
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

        /// `(k, n)` at every code position of every 32-bit register of the
        /// stream (`None`: padding), from `FragmentLayout::coords` and the
        /// packer alone: the same five-deep walk as `pack_b_operand`.
        pub(crate) fn stream_coords(
            layout: PackLayout,
            k_total: usize,
            n_total: usize,
            width: BitWidth,
        ) -> Vec<Vec<Option<(usize, usize)>>> {
            let shape = layout.shape;
            let blayout = FragmentLayout::new(shape, Operand::B);
            let kt = k_total / shape.k();
            let nt = n_total / shape.n();
            let wn = effective_wn(layout, nt);
            let tiles_per_warp = nt / wn;
            let per_reg32 = codes_per_u32(width);
            // Where the packer puts logical element `j` of a register.
            let physical_of: Vec<usize> = (0..per_reg32)
                .map(|j| {
                    let mut one_hot = vec![0u8; per_reg32];
                    one_hot[j] = 1;
                    (pack_u32(&one_hot, width, layout.order).trailing_zeros() / width.bits())
                        as usize
                })
                .collect();

            let mut regs = Vec::new();
            for w in 0..wn {
                for lane in 0..32 {
                    let mut stream = Vec::new();
                    for ki in 0..kt {
                        for tw in 0..tiles_per_warp {
                            let nj = w * tiles_per_warp + tw;
                            for reg in 0..blayout.regs_per_lane() {
                                let (kl, nl) = blayout.coords(lane, reg);
                                stream.push((ki * shape.k() + kl, nj * shape.n() + nl));
                            }
                        }
                    }
                    for chunk in stream.chunks(per_reg32) {
                        let mut positions = vec![None; per_reg32];
                        for (j, &kn) in chunk.iter().enumerate() {
                            positions[physical_of[j]] = Some(kn);
                        }
                        regs.push(positions);
                    }
                }
            }
            regs
        }

        pub(crate) fn unpack_b_operand(
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

    /// Every code the tile walk visits, as `(register, shift, token-major
    /// destination, LUT base)`.
    fn walk(plan: &FragmentPlan) -> Vec<(usize, u32, usize, usize)> {
        let mut codes = Vec::new();
        plan.for_each_tile(|regs, segments| {
            for s in segments {
                for (lane, reg) in regs.into_iter().enumerate() {
                    codes.push((
                        reg,
                        s.shift(),
                        plan.at(s) + lane * plan.lane_stride(),
                        plan.lane_group(s, lane) * plan.key.width.levels() as usize,
                    ));
                }
            }
        });
        codes
    }

    #[test]
    fn plan_is_a_bijection_onto_the_block() {
        let (mut saw_padding, mut saw_patterns) = (false, false);
        for (layout, scheme, tokens, dim) in plan_grid() {
            for plan in block_plans(&FragmentCodec::new(layout), scheme, tokens, dim) {
                let per_reg = codes_per_u32(plan.key.width);
                let lut_len = plan.params() * plan.key.width.levels() as usize;
                let regs = plan.words() / 2;
                let codes = walk(&plan);
                let mut hits = vec![0u32; tokens * dim];
                let mut positions = vec![0u32; regs];
                for &(r, shift, dst, lut) in &codes {
                    assert!(lut < lut_len);
                    hits[dst] += 1;
                    assert_eq!(positions[r] & (1 << (shift / plan.key.width.bits())), 0);
                    positions[r] |= 1 << (shift / plan.key.width.bits());
                }
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "{layout} {scheme} {tokens}x{dim}: every element exactly once"
                );
                // Every register belongs to exactly one tile.
                let mut owners = vec![0u32; regs];
                plan.for_each_tile(|tile, _| tile.into_iter().for_each(|r| owners[r] += 1));
                assert!(owners.iter().all(|&o| o == 1));
                saw_padding |= codes.len() < regs * per_reg;
                // Segments relative to their tile's first: the offset
                // patterns the tiles come in.
                let mut patterns = std::collections::HashSet::new();
                plan.for_each_tile(|_, segments| {
                    let origin = segments.first().map_or(0, |s| plan.at(s) as isize);
                    let relative = |s: &Segment| (s.shift(), plan.at(s) as isize - origin);
                    patterns.insert(segments.iter().map(relative).collect::<Vec<_>>());
                });
                saw_patterns |= patterns.len() > 1;
            }
        }
        assert!(saw_padding, "the grid must include a padded shape");
        assert!(
            saw_patterns,
            "the grid must include a shape with several offset patterns"
        );
    }

    #[test]
    fn segment_chunks_are_the_unit_stride_destinations() {
        for (layout, scheme, tokens, dim) in plan_grid() {
            for plan in block_plans(&FragmentCodec::new(layout), scheme, tokens, dim) {
                let mut hits = vec![0u32; tokens * dim / TILE_LANES];
                for s in &plan.segments {
                    // N contiguous: Kᵀ for a Key plan, token-major for a
                    // Value plan.
                    let (t, c) = (usize::from(s.token), usize::from(s.channel));
                    let unit = if plan.key.key_orientation {
                        c * tokens + t
                    } else {
                        t * dim + c
                    };
                    assert_eq!(TILE_LANES * s.chunk(), unit);
                    hits[s.chunk()] += 1;
                }
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "{layout} {scheme} {tokens}x{dim}: every chunk exactly once"
                );
            }
        }
    }

    #[test]
    fn tiles_are_the_ldmatrix_transposes_of_the_fragment_mapping() {
        // The structure, stated from `FragmentLayout::coords` alone: the 8
        // lanes `tig + 4g` of a warp hold, at one position of their `r`-th
        // register, nothing at all or 8 consecutive N of one K — and that,
        // tile for tile and segment for segment, is what the plan lists.
        let mut grid = plan_grid();
        for (warps_n, scheme, tokens, dim) in [
            (4, QuantScheme::kc4(), 64, 32),
            (2, QuantScheme::kt2(), 128, 16),
            (4, QuantScheme::kc2(), 24, 8),
        ] {
            let layout = PackLayout {
                shape: MmaShape::M16N8K8,
                order: PackOrder::FastDequant,
                warps_n,
            };
            grid.push((layout, scheme, tokens, dim));
        }
        for (layout, scheme, tokens, dim) in grid {
            for plan in block_plans(&FragmentCodec::new(layout), scheme, tokens, dim) {
                let PlanKey {
                    width,
                    key_orientation,
                    ..
                } = plan.key;
                let (k_total, n_total) = if key_orientation {
                    (dim, tokens)
                } else {
                    (tokens, dim)
                };
                let truth = reference_walk::stream_coords(layout, k_total, n_total, width);
                assert_eq!(truth.len(), plan.words() / 2);
                let regs32_per_lane = plan.reg_stride / 4;
                let mut tiles = Vec::new();
                plan.for_each_tile(|regs, segments| tiles.push((regs, segments.len())));
                let mut tiles = tiles.into_iter();
                let mut covered = vec![0u32; k_total * n_total];
                let mut listed = walk(&plan).into_iter();
                for w in 0..truth.len() / (32 * regs32_per_lane) {
                    for tig in 0..4 {
                        for r32 in 0..regs32_per_lane {
                            let quad: [usize; TILE_LANES] = std::array::from_fn(|g| {
                                (w * 32 + tig + 4 * g) * regs32_per_lane + r32
                            });
                            let (regs, segments) = tiles.next().expect("a tile per quad register");
                            assert_eq!(regs, quad, "{layout} {scheme} {tokens}x{dim}");
                            let mut present = 0;
                            for (p, &lane0) in truth[quad[0]].iter().enumerate() {
                                let Some((k, n)) = lane0 else {
                                    assert!(quad.iter().all(|&r| truth[r][p].is_none()));
                                    continue;
                                };
                                present += 1;
                                for (g, &r) in quad.iter().enumerate() {
                                    assert_eq!(truth[r][p], Some((k, n + g)), "lane {g}");
                                    covered[k * n_total + n + g] += 1;
                                    // The plan lists exactly this code here.
                                    let (t, c) = if key_orientation {
                                        (n + g, k)
                                    } else {
                                        (k, n + g)
                                    };
                                    let (reg, shift, dst, _) = listed.next().expect("a code");
                                    assert_eq!(
                                        (reg, shift as usize, dst),
                                        (r, p * width.bits() as usize, t * dim + c)
                                    );
                                }
                            }
                            assert_eq!(segments, present);
                        }
                    }
                }
                assert!(tiles.next().is_none() && listed.next().is_none());
                assert!(covered.iter().all(|&hits| hits == 1));
            }
        }
    }

    #[test]
    fn a_group_that_ends_inside_a_segment_decodes_like_the_reference() {
        // 12 and 20 are no multiples of 8, so a run of 8 lanes straddles a
        // group boundary: along tokens for channel-wise Keys, along channels
        // for the Value orientation. Such plans carry per-lane groups.
        let layout = PackLayout::sm80_default();
        let mut irregular = 0;
        for (group, width) in [
            (12, BitWidth::B4),
            (20, BitWidth::B4),
            (12, BitWidth::B2),
            (20, BitWidth::B2),
        ] {
            for granularity in [KeyGranularity::ChannelWise, KeyGranularity::TensorWise] {
                for key_orientation in [true, false] {
                    let (tokens, dim) = (layout.residual_block(width), 64);
                    let plan = FragmentPlan::interned(PlanKey {
                        layout,
                        tokens,
                        dim,
                        width,
                        granularity,
                        group,
                        key_orientation,
                    });
                    // Lanes run along tokens for Keys, channels for Values;
                    // groups along tokens only for channel-wise scaling.
                    let straddles = key_orientation == (granularity == KeyGranularity::ChannelWise);
                    assert_eq!(!plan.lane_groups.is_empty(), straddles);
                    irregular += usize::from(straddles);

                    let values = test_matrix(tokens, dim, 0.7);
                    let mut codes = Vec::new();
                    let params = quantize_int_codes(&values, width, granularity, group, &mut codes);
                    let want = dequantize_int_codes(
                        &codes,
                        &params,
                        tokens,
                        dim,
                        width,
                        granularity,
                        group,
                    );
                    let packed = plan.encode(&values);
                    assert_eq!(plan.decode(&packed), want, "{granularity:?} group {group}");
                    let mut fused = TokenMatrix::new(0);
                    plan.decode_fused(Isa::BASELINE, &packed, &mut Vec::new(), &mut fused);
                    let want = in_layout(&plan, want);
                    assert_eq!(fused, want, "{granularity:?} group {group}: fused");
                }
            }
        }
        assert_eq!(irregular, 8);

        // And through the public codec, Keys channel- and tensor-wise.
        for key_granularity in [KeyGranularity::ChannelWise, KeyGranularity::TensorWise] {
            let scheme = QuantScheme::from_kind(SchemeKind::Int {
                width: BitWidth::B4,
                key_granularity,
                group: 12,
            });
            let codec = FragmentCodec::new(layout);
            let block = codec.encode(
                &test_matrix(128, 64, 0.4),
                &test_matrix(128, 64, 1.1),
                scheme,
            );
            let (dk, dv) = codec.decode(&block, scheme);
            let (mut fk, mut fv) = (TokenMatrix::new(0), TokenMatrix::new(0));
            codec.decode_block_fused(&block, scheme, &mut fk, &mut fv);
            assert_eq!((transposed(&dk), dv), (fk, fv), "{scheme}");
        }
    }

    #[test]
    fn hostile_metadata_decodes_to_the_reference_bits() {
        // `half2` groups patched to every class a corrupted or degenerate
        // block can carry — `(scale, zero)` bit patterns: ±Inf, NaN, a
        // subnormal scale, `scale = 0` — decode through the fused tile walk,
        // into each plan's own layout, in every instance of the walk, to
        // the value `FragmentPlan::decode` → `dequantize_int_codes` defines
        // for them: bit for bit, NaN for NaN (a NaN's sign and payload follow
        // the FMA's operand order, which is not defined even between two
        // scalar evaluations). Between instances, which build the same LUT
        // and only move its entries, even a NaN's bits must agree.
        let hostile = [
            (0x7C00, 0x3C00), // scale = +Inf
            (0xFC00, 0x0000), // scale = -Inf, zero = 0: code 0 gives NaN
            (0x3C00, 0x7C00), // zero = +Inf
            (0x3C00, 0xFC00), // zero = -Inf
            (0x7E00, 0x3C00), // scale = NaN
            (0x3C00, 0xFE01), // zero = NaN
            (0x0001, 0xC100), // subnormal scale
            (0x0000, 0x4200), // scale = 0
            (0x7BFF, 0x7BFF), // overflows FP16 from code 1 on
        ];
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
        let layout = PackLayout::sm80_default();
        let codec = FragmentCodec::new(layout);
        let (mut nans, mut infs) = (0, 0);
        for scheme in [QuantScheme::kc4(), QuantScheme::kc2(), QuantScheme::kt4()] {
            let tokens = layout.residual_block(scheme.int_width().unwrap());
            let mut block = codec.encode(
                &test_matrix(tokens, 64, 0.3),
                &test_matrix(tokens, 64, 1.9),
                scheme,
            );
            for tensor in [&mut block.k, &mut block.v] {
                let PackedPayload::Int { params, .. } = &mut tensor.payload else {
                    panic!("integer payload");
                };
                // Two of every three groups hostile, taking the patterns in
                // turn, one left as encoded.
                let patched = params.iter_mut().enumerate().filter(|(i, _)| i % 3 != 2);
                for ((_, param), &(scale, zero)) in patched.zip(hostile.iter().cycle()) {
                    *param = Half2::new(F16::from_bits(scale), F16::from_bits(zero));
                }
            }
            let plans = block_plans(&codec, scheme, tokens, 64);
            for (packed, plan) in [&block.k, &block.v].into_iter().zip(plans) {
                let want = in_layout(&plan, plan.decode(packed));
                nans += want.as_slice().iter().filter(|x| x.is_nan()).count();
                infs += want.as_slice().iter().filter(|x| x.is_infinite()).count();
                let mut baseline = None;
                for isa in Isa::each() {
                    let mut fused = TokenMatrix::new(0);
                    plan.decode_fused(isa, packed, &mut Vec::new(), &mut fused);
                    assert_eq!((fused.tokens(), fused.dim()), (want.tokens(), want.dim()));
                    for (i, (&got, &want)) in
                        fused.as_slice().iter().zip(want.as_slice()).enumerate()
                    {
                        assert!(same(got, want), "{isa:?} {scheme} value {i}");
                    }
                    let got: Vec<u32> = fused.as_slice().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        baseline.get_or_insert(got.clone()),
                        &got,
                        "{isa:?} {scheme}"
                    );
                }
            }
        }
        assert!(nans > 0 && infs > 0, "the patches must reach the output");
    }

    #[test]
    fn both_codecs_reject_a_block_whose_k_and_v_disagree_alike() {
        let codec = FragmentCodec::new(PackLayout::sm80_default());
        let k = test_matrix(128, 64, 0.0);
        let panic_message = |encode: &dyn Fn() -> PackedBlock| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(encode)).err()?;
            err.downcast_ref::<String>().cloned()
        };
        for v in [test_matrix(64, 64, 1.0), test_matrix(128, 32, 1.0)] {
            for scheme in [QuantScheme::kc4(), QuantScheme::kt2(), QuantScheme::nvfp4()] {
                let fragment = panic_message(&|| codec.encode(&k, &v, scheme));
                let reference = panic_message(&|| ReferenceCodec.encode(&k, &v, scheme));
                let at = format!("{scheme}, V {} × {}", v.tokens(), v.dim());
                assert!(
                    fragment
                        .as_deref()
                        .is_some_and(|m| m.starts_with("K/V shape mismatch")),
                    "{at}: {fragment:?}"
                );
                assert_eq!(fragment, reference, "{at}");
            }
        }
    }

    #[test]
    fn plane_transpose_moves_every_byte_where_stated() {
        let planes: [u64; 4] = std::array::from_fn(|b| {
            u64::from_le_bytes(std::array::from_fn(|lane| (16 * b + lane) as u8))
        });
        let regs = registers_of_planes(planes);
        for (lane, reg) in regs.into_iter().enumerate() {
            let want: [u8; 4] = std::array::from_fn(|b| planes[b].to_le_bytes()[lane]);
            assert_eq!(reg.to_le_bytes(), want, "lane {lane}");
        }
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
                // The fused walk lands the same values in the plan's layout.
                let mut fused = test_matrix(5, 3, 9.0);
                plan.decode_fused(Isa::BASELINE, packed, &mut Vec::new(), &mut fused);
                let want = in_layout(&plan, want);
                assert_eq!(fused, want, "{layout} {scheme} {tokens}x{dim}: fused");
            }
        }
    }

    #[test]
    fn fused_decode_is_bit_identical_across_the_grid() {
        let isas = Isa::each();
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
            let dkt = transposed(&dk);
            assert_eq!(dkt, fk, "{layout} {scheme} {tokens}x{dim}: Kᵀ");
            assert_eq!(dv, fv, "{layout} {scheme} {tokens}x{dim}: V");
            // The same in every instance.
            for &isa in &isas {
                let mut decoder = BlockDecoder::new(&codec, scheme);
                let (mut fkt, mut fv) = (test_matrix(3, 5, 9.0), test_matrix(300, 7, 9.0));
                decoder.decode(isa, &block, &mut vec![9.0; 5], &mut fkt, &mut fv);
                let at = format!("{isa:?} {layout} {scheme} {tokens}x{dim}");
                assert_eq!(dkt, fkt, "{at}: Kᵀ");
                assert_eq!(dv, fv, "{at}: V");
            }
            // A tile's segment count is even in every plan (a lane's stream
            // is whole B-fragment registers, 2 or 4 of them per tile), so
            // the AVX-512 instance's unpaired last segment runs on plans
            // with each tile's last segment dropped.
            let [k_plan, v_plan] = block_plans(&codec, scheme, tokens, dim);
            for (plan, packed) in [(&k_plan, &block.k), (&v_plan, &block.v)] {
                let odd = without_last_segments(plan);
                let decode = |isa| {
                    let mut out = test_matrix(3, 5, 9.0);
                    odd.decode_fused(isa, packed, &mut Vec::new(), &mut out);
                    out
                };
                let want = decode(Isa::BASELINE);
                for &isa in &isas[1..] {
                    let at = format!("{isa:?} {layout} {scheme} {tokens}x{dim}");
                    assert_eq!(decode(isa), want, "{at}: odd segment runs");
                }
            }
        }
    }

    /// `plan` with each tile's last segment dropped.
    fn without_last_segments(plan: &FragmentPlan) -> FragmentPlan {
        let mut odd = FragmentPlan {
            key: plan.key,
            tiles: Vec::new(),
            segments: Vec::new(),
            reg_stride: plan.reg_stride,
            group_step: plan.group_step,
            lane_groups: plan.lane_groups.clone(),
        };
        plan.for_each_tile(|regs, segments| {
            let kept = &segments[..segments.len() - 1];
            assert!(kept.len() % 2 == 1, "a tile of {} segments", segments.len());
            odd.segments.extend(kept.iter().map(|s| Segment { ..*s }));
            odd.tiles.push((regs[0] as u32, odd.segments.len() as u32));
        });
        odd
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
        let half2 = |scale, zero| Half2::new(F16::from_bits(scale), F16::from_bits(zero));
        let classes: Vec<Half2> = scales
            .iter()
            .flat_map(|&s| zeros.map(|z| half2(s, z)))
            .collect();
        let finite = |h: &Half2| {
            (0..16).all(|code| (code as f32 * h.lo().to_f32() + h.hi().to_f32()).abs() < 65520.0)
        };
        let tame: Vec<Half2> = classes.iter().copied().filter(finite).collect();
        assert!(tame.len() > 20 && tame.len() < classes.len());
        // And every 16-bit scale against the edges of `zero`, every 16-bit
        // zero against the same values as scales.
        let edges = [
            0x0000, 0x8000, 0x3C00, 0xBC00, 0x0200, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00,
        ];
        let sweep: Vec<Half2> = edges
            .iter()
            .flat_map(|&e| (0..=u16::MAX).flat_map(move |x| [half2(x, e), half2(e, x)]))
            .collect();
        // A NaN's sign is whatever the FMA's operand order made it — not
        // defined even between two scalar evaluations — so NaN entries
        // match the scalar dequantization as a class. Between instances a
        // NaN's payload must agree too (both canonicalize it through `F16`),
        // but not its sign: `code · scale + zero` with a NaN product and a
        // NaN `zero` returns the NaN the compiler put first, and it commutes
        // the sum (a release build adds `zero + product` in the AVX2 line).
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
        let unsigned_nan = |x: &f32| x.to_bits() & if x.is_nan() { 0x7FFF_FFFF } else { !0 };
        let isas = Isa::each();
        let mut buf = vec![7.0; 3];
        for width in [BitWidth::B4, BitWidth::B2] {
            let levels = width.levels() as usize;
            // Alone, in the baseline's slab pass (`tame`), and beside groups
            // whose entries overflow FP16, which sends the baseline's slab to
            // the element-by-element fallback of its round (the AVX2
            // instance falls back per line).
            let singles = classes.iter().map(std::slice::from_ref);
            let slabs = singles
                .chain([&tame[..], &classes[..]])
                .chain(sweep.chunks(8));
            for params in slabs {
                let want: Vec<f32> = params
                    .iter()
                    .flat_map(|&h| {
                        (0..levels as u8).map(move |c| QuantParams::from_half2(h).dequantize(c))
                    })
                    .map(F16::to_f32)
                    .collect();
                let mut first = None;
                for &isa in &isas {
                    let lut = dequant_lut(isa, params, levels, &mut buf);
                    assert_eq!(lut.len(), want.len());
                    for (i, (&got, &want)) in lut.iter().zip(&want).enumerate() {
                        let (h, code) = (params[i / levels], i % levels);
                        assert!(
                            same(got, want),
                            "{isa:?} {h:?} code {code}: {got} vs {want}"
                        );
                    }
                    let bits: Vec<u32> = lut.iter().map(unsigned_nan).collect();
                    assert_eq!(
                        first.get_or_insert(bits.clone()),
                        &bits,
                        "{isa:?} {params:?}"
                    );
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
        let (dk, dv) = codec.decode(&block, scheme);
        assert_eq!((k, v), (transposed(&dk), dv));
    }

    /// `m` with tokens and channels swapped: a token-major K as its Kᵀ tile.
    fn transposed(m: &TokenMatrix) -> TokenMatrix {
        TokenMatrix::from_fn(m.dim(), m.tokens(), |c, t| m[t][c])
    }

    /// A token-major `m` in `plan`'s unit-stride layout, what
    /// `decode_fused` writes: transposed for a Key plan.
    fn in_layout(plan: &FragmentPlan, m: TokenMatrix) -> TokenMatrix {
        match plan.key.key_orientation {
            true => transposed(&m),
            false => m,
        }
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
            assert_eq!(
                transposed(&dk),
                fk,
                "{scheme}: fused Kᵀ decode must be bit-identical"
            );
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
