//! The public `BitDecoder` API: one object that owns the instruction
//! configuration, runs functional decodes, and prices decode steps on its
//! target GPU.

use crate::codec::FragmentCodec;
use crate::config::{query_transform, ungroup_outputs, AttentionConfig, QueryHeads};
use crate::kernels::{
    attend_packed_blocks, attend_packed_blocks_fp4, attend_packed_blocks_fused,
    attend_packed_blocks_multi, attend_residual, attend_residual_fused, MatmulEngine, PrefixSharer,
    ResidualKeys,
};
use crate::profiles::{decode_plan, ArchPath, OptimizationFlags};
use crate::shape::DecodeShape;
use crate::softmax::OnlineSoftmax;
use bd_gpu_sim::{GpuArch, LatencyBreakdown};
use bd_kvcache::SchemeKind;
use bd_kvcache::{
    launch, CacheConfig, CacheError, PackLayout, PackedBlock, QuantScheme, QuantizedKvCache,
    TokenMatrix,
};
use bd_lowbit::fastpath::FastDequantOps;
use bd_lowbit::Fp4Kind;
use std::borrow::Borrow;
use std::fmt;
use std::num::NonZeroUsize;

/// Errors returned by [`BitDecoder`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The query batch does not match the cache's head slots.
    BatchMismatch {
        /// Batch implied by the queries.
        queries: usize,
        /// Batch implied by the cache.
        cache: usize,
    },
    /// A query had the wrong number of heads or channels.
    QueryShape {
        /// Description of the mismatch.
        detail: String,
    },
    /// An underlying cache operation failed.
    Cache(CacheError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BatchMismatch { queries, cache } => {
                write!(
                    f,
                    "query batch {queries} does not match cache batch {cache}"
                )
            }
            DecodeError::QueryShape { detail } => write!(f, "bad query shape: {detail}"),
            DecodeError::Cache(e) => write!(f, "cache error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for DecodeError {
    fn from(e: CacheError) -> Self {
        DecodeError::Cache(e)
    }
}

/// Fewest packed blocks in one [`BitDecoder::decode`] call that pay for
/// fanning its heads over a [launch] (two threads' worth of ≥ 1K-token
/// walks at INT4 `Nr = 128`); below it the heads run on the caller.
const FAN_OUT_MIN_BLOCKS: usize = 16;

/// Which kernels a configuration's heads run on, resolved once from the
/// architecture path, scheme and flags.
struct Route {
    engine: MatmulEngine,
    /// Blackwell native FP4: block-scaled MMA consumes the packed operands
    /// directly (no dequantization, P requantized per tile).
    fp4: Option<Fp4Kind>,
    /// `Some(Wn)` for non-cooperative `Wn > 1`: the softmax race of paper
    /// Table III, which only the materializing warp-sliced walk reproduces.
    /// Every valid configuration computes the exact cooperative softmax and
    /// takes the fused flat-layout kernels.
    race_wn: Option<usize>,
}

/// Per-step latency report: one entry per launched kernel plus totals.
#[derive(Clone, Debug)]
pub struct DecodeReport {
    /// `(kernel name, latency breakdown)` in launch order.
    pub kernels: Vec<(String, LatencyBreakdown)>,
    /// End-to-end step latency in seconds.
    pub total_s: f64,
}

impl DecodeReport {
    /// Tensor Core utilization across the step.
    pub fn tc_utilization(&self) -> f64 {
        let busy: f64 = self.kernels.iter().map(|(_, b)| b.tc_wall).sum();
        if self.total_s > 0.0 {
            (busy / self.total_s).min(1.0)
        } else {
            0.0
        }
    }

    /// Fraction of step time spent on dequantization work (Fig. 15a).
    pub fn dequant_fraction(&self) -> f64 {
        let busy: f64 = self.kernels.iter().map(|(_, b)| b.dequant_wall).sum();
        if self.total_s > 0.0 {
            (busy / self.total_s).min(1.0)
        } else {
            0.0
        }
    }
}

impl fmt::Display for DecodeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "decode step: {:.3} ms", self.total_s * 1e3)?;
        for (name, b) in &self.kernels {
            writeln!(f, "  {name}: {b}")?;
        }
        Ok(())
    }
}

/// Output of a functional decode step.
#[derive(Clone, Debug)]
pub struct DecodeOutput {
    /// Attention outputs per batch element (`h_q × d` each).
    pub outputs: Vec<QueryHeads>,
    /// The priced latency report for this step's shape.
    pub report: DecodeReport,
}

/// Builder for [`BitDecoder`].
#[derive(Clone, Debug)]
pub struct BitDecoderBuilder {
    arch: GpuArch,
    attn: Option<AttentionConfig>,
    scheme: QuantScheme,
    layout: PackLayout,
    flags: OptimizationFlags,
    paged: bool,
}

impl BitDecoderBuilder {
    /// Sets the attention head structure (required).
    pub fn attention(mut self, attn: AttentionConfig) -> Self {
        self.attn = Some(attn);
        self
    }

    /// Sets the quantization scheme (default KC-4).
    pub fn scheme(mut self, scheme: QuantScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the instruction configuration (default SM80 m16n8k16,
    /// fast-dequant order, `Wn = 4`).
    pub fn layout(mut self, layout: PackLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides the optimization flags (for ablations).
    pub fn flags(mut self, flags: OptimizationFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Enables paged KV management (the "Pages" evaluation setting).
    pub fn paged(mut self, paged: bool) -> Self {
        self.paged = paged;
        self
    }

    /// Finalizes the decoder.
    ///
    /// # Panics
    ///
    /// Panics if no attention configuration was provided.
    pub fn build(self) -> BitDecoder {
        let Some(attn) = self.attn else {
            panic!("attention configuration is required");
        };
        let path = ArchPath::select(&self.arch, self.scheme);
        BitDecoder {
            arch: self.arch,
            attn,
            scheme: self.scheme,
            layout: self.layout,
            flags: self.flags,
            paged: self.paged,
            path,
        }
    }
}

/// A configured BitDecoding engine for one model/GPU pair.
///
/// # Examples
///
/// ```
/// use bd_core::{AttentionConfig, BitDecoder, DecodeShape};
/// use bd_gpu_sim::GpuArch;
/// use bd_kvcache::QuantScheme;
///
/// let dec = BitDecoder::builder(GpuArch::rtx4090())
///     .attention(AttentionConfig::gqa(32, 8, 128))
///     .scheme(QuantScheme::kc4())
///     .build();
/// let shape = DecodeShape::new(1, AttentionConfig::gqa(32, 8, 128), 32768);
/// let report = dec.latency(&shape);
/// assert!(report.total_s > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct BitDecoder {
    arch: GpuArch,
    attn: AttentionConfig,
    scheme: QuantScheme,
    layout: PackLayout,
    flags: OptimizationFlags,
    paged: bool,
    path: ArchPath,
}

impl BitDecoder {
    /// Starts a builder targeting `arch`.
    pub fn builder(arch: GpuArch) -> BitDecoderBuilder {
        BitDecoderBuilder {
            arch,
            attn: None,
            scheme: QuantScheme::kc4(),
            layout: PackLayout::sm80_default(),
            flags: OptimizationFlags::ALL,
            paged: false,
        }
    }

    /// The target GPU.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The attention configuration.
    pub fn attention(&self) -> &AttentionConfig {
        &self.attn
    }

    /// The quantization scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// The selected architecture path.
    pub fn path(&self) -> ArchPath {
        self.path
    }

    /// The fragment-true codec matching this decoder's configuration —
    /// use it for cache appends so Residual and Packing kernels agree
    /// (paper §IV-A(4)).
    pub fn codec(&self) -> FragmentCodec {
        FragmentCodec::new(self.layout)
    }

    /// Cache configuration matching this decoder.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::new(self.attn.head_dim, self.scheme, self.layout)
    }

    /// Creates an empty cache for `batch` sequences
    /// (`batch × h_kv` head slots).
    pub fn new_cache(&self, batch: usize) -> QuantizedKvCache {
        QuantizedKvCache::new(self.cache_config(), batch * self.attn.heads_kv)
    }

    /// Functionally decodes one step: `q[b]` holds the batch's single-token
    /// queries (`h_q × d`). Returns per-batch attention outputs plus the
    /// priced report.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on shape mismatches.
    pub fn decode(
        &self,
        q: &[QueryHeads],
        cache: &QuantizedKvCache,
    ) -> Result<DecodeOutput, DecodeError> {
        let batch = q.len();
        let expected_heads = batch * self.attn.heads_kv;
        if cache.heads() != expected_heads {
            return Err(DecodeError::BatchMismatch {
                queries: batch,
                cache: cache.heads() / self.attn.heads_kv,
            });
        }
        for (b, heads) in q.iter().enumerate() {
            if heads.len() != self.attn.heads_q {
                return Err(DecodeError::QueryShape {
                    detail: format!(
                        "batch {b}: {} query heads, expected {}",
                        heads.len(),
                        self.attn.heads_q
                    ),
                });
            }
            for row in heads {
                if row.len() != self.attn.head_dim {
                    return Err(DecodeError::QueryShape {
                        detail: format!(
                            "batch {b}: head dim {} != {}",
                            row.len(),
                            self.attn.head_dim
                        ),
                    });
                }
            }
        }

        // The `batch × h_kv` heads are independent work units: a call that
        // holds enough packed blocks fans them over the launch, results
        // collected in unit order. Each head's walk is the same sequential
        // kernel either way, so the outputs do not depend on the host.
        let heads_kv = self.attn.heads_kv;
        let grouped: Vec<_> = q.iter().map(|h| query_transform(h, &self.attn)).collect();
        let unit = |head: usize| {
            let (res_k, res_v) = cache.residual(head);
            let q_block = &grouped[head / heads_kv][head % heads_kv];
            let (rows, _ops) = self.attend_head(q_block, cache.packed_blocks(head), res_k, res_v);
            rows
        };
        let units = cache.heads();
        let packed: usize = (0..units).map(|h| cache.packed_blocks(h).len()).sum();
        let threads = if packed < FAN_OUT_MIN_BLOCKS {
            1
        } else {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        };
        let rows: Vec<Vec<Vec<f32>>> = launch(units, threads, unit)
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| panic!("a decode launch thread panicked")))
            .collect();
        let outputs = rows
            .chunks(heads_kv)
            .map(|blocks_out| ungroup_outputs(blocks_out, &self.attn))
            .collect();

        let max_len = (0..units).map(|h| cache.len(h)).max().unwrap_or(0);
        let max_res = (0..units).map(|h| cache.residual_len(h)).max().unwrap_or(0);
        let shape = DecodeShape::new(batch, self.attn, max_len.max(1)).with_residual(max_res);
        Ok(DecodeOutput {
            outputs,
            report: self.latency(&shape),
        })
    }

    fn route(&self) -> Route {
        let wn = if self.flags.warp_parallelism {
            self.layout.warps_n
        } else {
            1
        };
        Route {
            engine: match self.path {
                ArchPath::Sm90 => MatmulEngine::Wgmma,
                _ => MatmulEngine::Mma,
            },
            fp4: match (self.path, self.scheme.kind()) {
                (ArchPath::Sm100Fp4, SchemeKind::Fp4(kind)) => Some(kind),
                _ => None,
            },
            race_wn: (!self.flags.cooperative_softmax && wn > 1).then_some(wn),
        }
    }

    /// Attention for one `(sequence, kv-head)` **work unit**: the grouped
    /// `g_q × d` query block against that head's packed blocks and FP16
    /// residual window. This is exactly the per-head body of
    /// [`BitDecoder::decode`], exposed so the batched serve runtime can fan
    /// independent units across a worker pool while staying **bitwise
    /// identical** to the single-sequence decode path.
    ///
    /// The block list is generic over [`Borrow<PackedBlock>`]: a contiguous
    /// cache passes its slice, [`bd_kvcache::PagedKvStore`] passes the
    /// references it gathered through its page table. Valid (cooperative /
    /// single-warp) configurations run the fused flat-layout kernels, one
    /// sequential walk in block order — the result is a function of the
    /// inputs alone, on every host; non-cooperative `Wn > 1`
    /// configurations run the materializing walk that models the paper
    /// Table III softmax race; Blackwell FP4 schemes run the native
    /// block-scaled MMA path.
    ///
    /// Returns the normalized `g_q × d` output rows plus the fast-dequant
    /// instruction counts the fused path streamed (zero on the other
    /// paths).
    pub fn attend_head<B: Borrow<PackedBlock>, K: ResidualKeys + ?Sized>(
        &self,
        q_block: &[Vec<f32>],
        blocks: &[B],
        res_k: &K,
        res_v: &TokenMatrix,
    ) -> (Vec<Vec<f32>>, FastDequantOps) {
        let (state, ops) = self.attend_head_partial(q_block, blocks, res_k, res_v);
        (state.finish(), ops)
    }

    /// [`BitDecoder::attend_head`] without the final normalization: returns
    /// the raw [`OnlineSoftmax`] partial — the `(m, l, unnormalized
    /// weighted-V)` triple — so callers that shard a head's KV across
    /// devices or ranges can combine partials **exactly** through
    /// [`OnlineSoftmax::merge`] before normalizing once. This is the
    /// all-reduce payload of the tensor-parallel serve path: merging the
    /// device partials and then calling
    /// [`OnlineSoftmax::finish`](OnlineSoftmax::finish) reconstructs the
    /// single-device [`BitDecoder::attend_head`] output bit for bit
    /// (merging a single partial is the identity).
    pub fn attend_head_partial<B: Borrow<PackedBlock>, K: ResidualKeys + ?Sized>(
        &self,
        q_block: &[Vec<f32>],
        blocks: &[B],
        res_k: &K,
        res_v: &TokenMatrix,
    ) -> (OnlineSoftmax, FastDequantOps) {
        let route = self.route();
        let engine = route.engine;
        let codec = self.codec();
        let scale = self.attn.scale();
        let mut state = OnlineSoftmax::new(q_block.len(), self.attn.head_dim);
        let mut ops = FastDequantOps::default();
        if let Some(kind) = route.fp4 {
            attend_packed_blocks_fp4(
                q_block,
                blocks,
                &codec,
                self.scheme,
                kind,
                scale,
                &mut state,
            );
        } else if let Some(wn) = route.race_wn {
            attend_packed_blocks(
                q_block,
                blocks,
                &codec,
                self.scheme,
                scale,
                wn,
                false,
                engine,
                &mut state,
            );
        } else {
            ops = attend_packed_blocks_fused(
                q_block,
                blocks,
                &codec,
                self.scheme,
                scale,
                engine,
                &mut state,
            );
        }
        match route.race_wn {
            Some(wn) => attend_residual(
                q_block,
                res_k.rows(),
                res_v,
                scale,
                wn,
                false,
                engine,
                &mut state,
            ),
            // Bitwise identical to the materializing kernel, without the
            // tile/transpose/fragment round-trips.
            None => attend_residual_fused(q_block, res_k, res_v, scale, engine, &mut state),
        }
        (state, ops)
    }

    /// [`BitDecoder::attend_head_partial`] for a group of sequences that
    /// share a packed-prefix run (cascade / Hydragen-style shared-prefix
    /// attention): the shared `prefix` blocks stream through the dequant
    /// LUTs **once** and score against every sharer's query block in the
    /// same pass, then each sharer's private suffix blocks and FP16
    /// residual window run as today. Returns one un-normalized partial
    /// per sharer, in input order — each bitwise identical to what
    /// [`BitDecoder::attend_head_partial`] would return for that sharer's
    /// full `prefix ++ suffix` block list, so grouping is purely an
    /// optimization. The returned [`FastDequantOps`] counts work actually
    /// performed (deduped on the fused path). Configurations outside the
    /// fused fast path (native FP4, non-cooperative multi-warp) fall back
    /// to per-sharer independent walks.
    pub fn attend_head_partial_multi<B: Borrow<PackedBlock>, K: ResidualKeys>(
        &self,
        prefix: &[B],
        sharers: &[PrefixSharer<'_, B, K>],
    ) -> (Vec<OnlineSoftmax>, FastDequantOps) {
        let route = self.route();
        if route.fp4.is_some() || route.race_wn.is_some() {
            // Outside the fused fast path the solo kernel has no
            // shared-decode structure to exploit; run each sharer
            // independently over its concatenated block list.
            let mut ops = FastDequantOps::default();
            let partials = sharers
                .iter()
                .map(|s| {
                    let all: Vec<&PackedBlock> = prefix
                        .iter()
                        .map(Borrow::borrow)
                        .chain(s.suffix.iter().map(Borrow::borrow))
                        .collect();
                    let (state, solo_ops) =
                        self.attend_head_partial(s.q_block, &all, s.res_k, s.res_v);
                    ops += solo_ops;
                    state
                })
                .collect();
            return (partials, ops);
        }
        let scale = self.attn.scale();
        let (mut partials, ops) = attend_packed_blocks_multi(
            prefix,
            sharers,
            self.attn.head_dim,
            &self.codec(),
            self.scheme,
            scale,
            route.engine,
        );
        for (state, s) in partials.iter_mut().zip(sharers) {
            attend_residual_fused(s.q_block, s.res_k, s.res_v, scale, route.engine, state);
        }
        (partials, ops)
    }

    /// Prices one decode step of the given shape on the target GPU.
    pub fn latency(&self, shape: &DecodeShape) -> DecodeReport {
        let nr = self.cache_config().residual_block();
        let plan = decode_plan(
            shape,
            self.scheme,
            &self.arch,
            self.path,
            self.flags,
            self.paged,
            nr,
        );
        let kernels: Vec<(String, LatencyBreakdown)> = plan
            .iter()
            .map(|p| (p.name.clone(), self.arch.evaluate(p)))
            .collect();
        let total_s = kernels.iter().map(|(_, b)| b.total).sum();
        DecodeReport { kernels, total_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::reference_attention;

    fn decoder(arch: GpuArch, scheme: QuantScheme) -> BitDecoder {
        BitDecoder::builder(arch)
            .attention(AttentionConfig::gqa(8, 2, 32))
            .scheme(scheme)
            .build()
    }

    type StoredKv = Vec<(TokenMatrix, TokenMatrix)>;

    fn fill_cache(dec: &BitDecoder, cache: &mut QuantizedKvCache, len: usize) -> StoredKv {
        let codec = dec.codec();
        let d = dec.attention().head_dim;
        let mut stored = Vec::new();
        for head in 0..cache.heads() {
            let k =
                TokenMatrix::from_fn(len, d, |t, c| ((head * 31 + t * d + c) as f32 * 0.37).sin());
            let v =
                TokenMatrix::from_fn(len, d, |t, c| ((head * 17 + t * d + c) as f32 * 0.53).cos());
            cache.prefill(head, &k, &v, &codec).unwrap();
            stored.push((k, v));
        }
        stored
    }

    fn query(dec: &BitDecoder, b: usize) -> QueryHeads {
        let attn = dec.attention();
        (0..attn.heads_q)
            .map(|h| {
                (0..attn.head_dim)
                    .map(|c| ((b * 7 + h * attn.head_dim + c) as f32 * 0.71).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn decode_matches_fp32_reference_within_quant_error() {
        let dec = decoder(GpuArch::rtx4090(), QuantScheme::kc4());
        let mut cache = dec.new_cache(1);
        let len = 128 + 37; // one packed block + residual
        fill_cache(&dec, &mut cache, len);
        let q = vec![query(&dec, 0)];
        let out = dec.decode(&q, &cache).unwrap();

        // Reference: logical dequantized KV through plain f32 attention.
        let codec = dec.codec();
        let attn = *dec.attention();
        let gq = attn.group_factor();
        for (h, q_head) in q[0].iter().enumerate() {
            let kv_head = h / gq;
            let (k, v) = cache.logical_kv(kv_head, &codec);
            let reference = reference_attention(std::slice::from_ref(q_head), &k, &v, attn.scale());
            for (got, want) in out.outputs[0][h].iter().zip(&reference[0]) {
                assert!((got - want).abs() < 5e-3, "head {h}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn decode_tracks_unquantized_attention() {
        // End-to-end: output should be close to attention over the ORIGINAL
        // (pre-quantization) values — the accuracy claim.
        let dec = decoder(GpuArch::rtx4090(), QuantScheme::kc4());
        let mut cache = dec.new_cache(1);
        let stored = fill_cache(&dec, &mut cache, 128 + 5);
        let q = vec![query(&dec, 0)];
        let out = dec.decode(&q, &cache).unwrap();
        let attn = *dec.attention();
        for h in 0..attn.heads_q {
            let (k, v) = &stored[h / attn.group_factor()];
            let reference = reference_attention(&[q[0][h].clone()], k, v, attn.scale());
            for (got, want) in out.outputs[0][h].iter().zip(&reference[0]) {
                assert!((got - want).abs() < 0.06, "head {h}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn disabling_cooperative_softmax_corrupts_output() {
        let good = decoder(GpuArch::rtx4090(), QuantScheme::kc4());
        let bad = BitDecoder::builder(GpuArch::rtx4090())
            .attention(AttentionConfig::gqa(8, 2, 32))
            .flags(OptimizationFlags {
                cooperative_softmax: false,
                ..OptimizationFlags::ALL
            })
            .build();
        let mut cache = good.new_cache(1);
        fill_cache(&good, &mut cache, 256);
        let q = vec![query(&good, 0)];
        let out_good = good.decode(&q, &cache).unwrap();
        let out_bad = bad.decode(&q, &cache).unwrap();
        let mut max_diff = 0.0f32;
        for (a, b) in out_good.outputs[0].iter().zip(&out_bad.outputs[0]) {
            for (x, y) in a.iter().zip(b) {
                max_diff = max_diff.max((x - y).abs());
            }
        }
        // The corruption magnitude depends on how much per-slice maxima
        // differ in the data; with smooth KV it is small but must be
        // clearly above FP16 noise. The softmax-level test exercises the
        // large-deviation case directly.
        assert!(
            max_diff > 1e-4,
            "race must corrupt outputs, diff {max_diff}"
        );
    }

    #[test]
    fn batched_decode_shapes() {
        let dec = decoder(GpuArch::a100(), QuantScheme::kc2());
        let mut cache = dec.new_cache(2);
        fill_cache(&dec, &mut cache, 64);
        let q = vec![query(&dec, 0), query(&dec, 1)];
        let out = dec.decode(&q, &cache).unwrap();
        assert_eq!(out.outputs.len(), 2);
        assert_eq!(out.outputs[0].len(), 8);
        assert_eq!(out.outputs[1][7].len(), 32);
    }

    #[test]
    fn decode_with_head_fan_out_equals_the_per_head_loop_bitwise() {
        // Batch 2 × 4 KV heads × 2 packed blocks reaches the spawn
        // threshold, so on a multi-core host the units run on scoped
        // threads; per-head data and queries all differ, so a unit landing
        // in the wrong slot shows.
        let attn = AttentionConfig::gqa(8, 4, 32);
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn)
            .build();
        let mut cache = dec.new_cache(2);
        fill_cache(&dec, &mut cache, 128 * 2 + 19);
        let packed: usize = (0..cache.heads())
            .map(|h| cache.packed_blocks(h).len())
            .sum();
        assert!(packed >= FAN_OUT_MIN_BLOCKS);
        let q = vec![query(&dec, 0), query(&dec, 1)];
        let out = dec.decode(&q, &cache).unwrap();
        for (b, heads) in q.iter().enumerate() {
            let rows: Vec<_> = query_transform(heads, &attn)
                .iter()
                .enumerate()
                .map(|(kv, q_block)| {
                    let head = b * attn.heads_kv + kv;
                    let (res_k, res_v) = cache.residual(head);
                    dec.attend_head(q_block, cache.packed_blocks(head), res_k, res_v)
                        .0
                })
                .collect();
            let want = ungroup_outputs(&rows, &attn);
            let bits =
                |o: &QueryHeads| -> Vec<u32> { o.iter().flatten().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&out.outputs[b]), bits(&want), "batch {b}");
        }
    }

    #[test]
    fn batch_mismatch_rejected() {
        let dec = decoder(GpuArch::a100(), QuantScheme::kc4());
        let cache = dec.new_cache(2);
        let q = vec![query(&dec, 0)];
        assert!(matches!(
            dec.decode(&q, &cache),
            Err(DecodeError::BatchMismatch {
                queries: 1,
                cache: 2
            })
        ));
    }

    #[test]
    fn latency_reports_scale_with_sequence() {
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(AttentionConfig::gqa(32, 8, 128))
            .build();
        let attn = AttentionConfig::gqa(32, 8, 128);
        let short = dec.latency(&DecodeShape::new(8, attn, 1024));
        let long = dec.latency(&DecodeShape::new(8, attn, 16384));
        assert!(long.total_s > short.total_s * 4.0);
        assert!(short.tc_utilization() > 0.0);
    }

    #[test]
    fn fp4_path_on_blackwell() {
        let dec = BitDecoder::builder(GpuArch::rtx5090())
            .attention(AttentionConfig::gqa(32, 8, 128))
            .scheme(QuantScheme::mxfp4())
            .build();
        assert_eq!(dec.path(), ArchPath::Sm100Fp4);
        let shape = DecodeShape::new(8, AttentionConfig::gqa(32, 8, 128), 8192);
        let report = dec.latency(&shape);
        assert!(
            report.dequant_fraction() < 1e-9,
            "native FP4 has no dequant"
        );
    }

    #[test]
    fn hopper_decode_uses_wgmma_and_matches_reference() {
        // Functional decode on the SM90 path (wgmma_SS engine) must agree
        // with the SM80 mma path to FP16 noise.
        let attn = AttentionConfig::gqa(8, 2, 32);
        let sm80 = BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn)
            .build();
        let sm90 = BitDecoder::builder(GpuArch::h100()).attention(attn).build();
        assert_eq!(sm90.path(), ArchPath::Sm90);
        let mut cache = sm80.new_cache(1);
        fill_cache(&sm80, &mut cache, 200);
        let q = vec![query(&sm80, 0)];
        let a = sm80.decode(&q, &cache).unwrap();
        let b = sm90.decode(&q, &cache).unwrap();
        for (x, y) in a.outputs[0].iter().zip(&b.outputs[0]) {
            for (p, r) in x.iter().zip(y) {
                assert!((p - r).abs() < 2e-2, "{p} vs {r}");
            }
        }
    }

    #[test]
    fn blackwell_functional_decode_with_native_fp4() {
        let attn = AttentionConfig::gqa(8, 2, 32);
        let dec = BitDecoder::builder(GpuArch::rtx5090())
            .attention(attn)
            .scheme(QuantScheme::nvfp4())
            .build();
        assert_eq!(dec.path(), ArchPath::Sm100Fp4);
        let mut cache = dec.new_cache(1);
        let stored = fill_cache(&dec, &mut cache, 128 + 9);
        let q = vec![query(&dec, 0)];
        let out = dec.decode(&q, &cache).unwrap();
        // FP4 operands everywhere: coarse but must track the reference.
        for h in 0..attn.heads_q {
            let (k, v) = &stored[h / attn.group_factor()];
            let reference = reference_attention(&[q[0][h].clone()], k, v, attn.scale());
            for (got, want) in out.outputs[0][h].iter().zip(&reference[0]) {
                assert!((got - want).abs() < 0.25, "head {h}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn attend_head_partial_merges_to_attend_head_bitwise() {
        // The tensor-parallel all-reduce contract: finishing a merged set of
        // per-head partials reproduces the direct attend_head output bit
        // for bit — both for the single-partial (head-sharded) case and
        // for a genuine two-way token split of one head's KV.
        let dec = decoder(GpuArch::rtx4090(), QuantScheme::kc4());
        let mut cache = dec.new_cache(1);
        fill_cache(&dec, &mut cache, 128 * 2 + 19);
        let attn = *dec.attention();
        let q = query(&dec, 0);
        let grouped = query_transform(&q, &attn);
        for (kv, q_block) in grouped.iter().enumerate() {
            let blocks = cache.packed_blocks(kv);
            let (res_k, res_v) = cache.residual(kv);
            let (direct, ops) = dec.attend_head(q_block, blocks, res_k, res_v);

            // Single partial (the head-partitioned device case).
            let (partial, pops) = dec.attend_head_partial(q_block, blocks, res_k, res_v);
            assert_eq!(ops, pops);
            assert_eq!(OnlineSoftmax::merge(vec![partial]).finish(), direct);

            // Two-way split of the packed region plus a residual-only
            // partial: merge is the exact log-sum-exp combine, so the
            // values agree to f32 merge-order noise (NOT bitwise — the
            // summation tree differs); the exactness claim for serve rests
            // on the single-partial identity above.
            let empty = TokenMatrix::new(attn.head_dim);
            let (p1, _) = dec.attend_head_partial(q_block, &blocks[..1], &empty, &empty);
            let (p2, _) = dec.attend_head_partial(q_block, &blocks[1..], res_k, res_v);
            let merged = OnlineSoftmax::merge(vec![p1, p2]).finish();
            for (a, b) in merged.iter().flatten().zip(direct.iter().flatten()) {
                assert!((a - b).abs() < 1e-5, "head {kv}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn decode_accepts_codec_built_cache_via_append() {
        let dec = decoder(GpuArch::rtx4090(), QuantScheme::kc4());
        let mut cache = dec.new_cache(1);
        let codec = dec.codec();
        let d = dec.attention().head_dim;
        for t in 0..200usize {
            let k: Vec<f32> = (0..d).map(|c| ((t * d + c) as f32 * 0.3).sin()).collect();
            for head in 0..cache.heads() {
                cache.append_token(head, &k, &k, &codec).unwrap();
            }
        }
        assert_eq!(cache.residual_len(0), 200 - 128);
        let q = vec![query(&dec, 0)];
        let out = dec.decode(&q, &cache).unwrap();
        assert!(out.report.total_s > 0.0);
    }
}
