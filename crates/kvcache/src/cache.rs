//! The quantized KV cache with its half-precision residual region
//! (paper §V-B(1)).
//!
//! Per cached head, tokens live in two regions:
//!
//! * `X_pack` — residual blocks that filled up and were flushed through a
//!   [`BlockCodec`] into packed low-bit storage;
//! * `X_res` — the FP16 tail of up to `Nr − 1` tokens still accumulating.
//!
//! Every appended token lands in the residual first; when the residual
//! reaches the Tensor-Core-aligned block size `Nr` (paper Eq. 1) it is
//! flushed as one packed block. Prefill bulk-quantizes `L − (L mod Nr)`
//! tokens and leaves the remainder resident.

use crate::block::PackedBlock;
use crate::codec::BlockCodec;
use crate::layout::PackLayout;
use crate::matrix::TokenMatrix;
use crate::scheme::QuantScheme;
use bd_lowbit::f16::round_through_f16;
use bd_lowbit::BitWidth;
use std::fmt;

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A token row had the wrong number of channels.
    DimMismatch {
        /// Expected channel count.
        expected: usize,
        /// Provided channel count.
        got: usize,
    },
    /// A head index was out of range.
    BadHead {
        /// Provided head index.
        head: usize,
        /// Number of heads in the cache.
        heads: usize,
    },
    /// A prefill's K and V matrices hold different token counts.
    LengthMismatch {
        /// Tokens in K.
        k: usize,
        /// Tokens in V.
        v: usize,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "token dimension {got} does not match cache dimension {expected}"
                )
            }
            CacheError::BadHead { head, heads } => {
                write!(f, "head index {head} out of range for {heads} heads")
            }
            CacheError::LengthMismatch { k, v } => {
                write!(f, "prefill K holds {k} tokens but V holds {v}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Static configuration of a quantized cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Channels per head.
    pub dim: usize,
    /// Quantization scheme.
    pub scheme: QuantScheme,
    /// Shared instruction configuration (fixes `Nr`).
    pub layout: PackLayout,
}

impl CacheConfig {
    /// Builds a config; `Nr` follows from layout × scheme.
    pub fn new(dim: usize, scheme: QuantScheme, layout: PackLayout) -> Self {
        CacheConfig {
            dim,
            scheme,
            layout,
        }
    }

    /// The residual block size `Nr` for this configuration.
    ///
    /// FP4 schemes pack at the INT4 ratio (4 codes per 16-bit word).
    pub fn residual_block(&self) -> usize {
        let width = self.scheme.int_width().unwrap_or(BitWidth::B4);
        self.layout.residual_block(width)
    }
}

/// Cache state for a single `(batch, kv_head)` pair.
#[derive(Clone, Debug)]
struct HeadCache {
    packed: Vec<PackedBlock>,
    residual_k: TokenMatrix,
    residual_v: TokenMatrix,
}

impl HeadCache {
    /// An empty slot whose residual window already carries the head
    /// dimension. (A defaulted `TokenMatrix` has `dim == 0` until its
    /// first push; a prefill of exactly `Nr`-aligned length never pushes
    /// into the window, and an empty dim-0 window would then compare
    /// unequal to the paged store's empty dim-`d` window even though both
    /// hold zero bytes.)
    fn new(dim: usize) -> Self {
        HeadCache {
            packed: Vec::new(),
            residual_k: TokenMatrix::new(dim),
            residual_v: TokenMatrix::new(dim),
        }
    }
    fn packed_tokens(&self) -> usize {
        self.packed.iter().map(PackedBlock::tokens).sum()
    }
}

/// A quantized KV cache over `heads` independent `(batch, kv_head)` slots.
///
/// # Examples
///
/// ```
/// use bd_kvcache::{CacheConfig, PackLayout, QuantScheme, QuantizedKvCache, ReferenceCodec};
///
/// let cfg = CacheConfig::new(64, QuantScheme::kc4(), PackLayout::sm80_default());
/// let mut cache = QuantizedKvCache::new(cfg, 2);
/// let token = vec![0.5f32; 64];
/// cache.append_token(0, &token, &token, &ReferenceCodec)?;
/// assert_eq!(cache.len(0), 1);
/// assert_eq!(cache.residual_len(0), 1);
/// # Ok::<(), bd_kvcache::CacheError>(())
/// ```
#[derive(Clone, Debug)]
pub struct QuantizedKvCache {
    config: CacheConfig,
    heads: Vec<HeadCache>,
}

impl QuantizedKvCache {
    /// Creates an empty cache with `heads` slots.
    pub fn new(config: CacheConfig, heads: usize) -> Self {
        QuantizedKvCache {
            config,
            heads: vec![HeadCache::new(config.dim); heads],
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of head slots.
    pub fn heads(&self) -> usize {
        self.heads.len()
    }

    /// Residual block size `Nr`.
    pub fn residual_block(&self) -> usize {
        self.config.residual_block()
    }

    fn head(&self, head: usize) -> Result<&HeadCache, CacheError> {
        self.heads.get(head).ok_or(CacheError::BadHead {
            head,
            heads: self.heads.len(),
        })
    }

    fn check_dim(&self, row: &[f32]) -> Result<(), CacheError> {
        check_width(row.len(), self.config.dim)
    }

    /// Total cached tokens for a head (packed + residual).
    pub fn len(&self, head: usize) -> usize {
        self.heads[head].packed_tokens() + self.heads[head].residual_k.len()
    }

    /// `true` if the head holds no tokens.
    pub fn is_empty(&self, head: usize) -> bool {
        self.len(head) == 0
    }

    /// Tokens currently in the FP16 residual region.
    pub fn residual_len(&self, head: usize) -> usize {
        self.heads[head].residual_k.len()
    }

    /// The packed blocks of a head, oldest first.
    pub fn packed_blocks(&self, head: usize) -> &[PackedBlock] {
        &self.heads[head].packed
    }

    /// The residual FP16 region of a head (`(k, v)`, each `tokens × dim`).
    pub fn residual(&self, head: usize) -> (&TokenMatrix, &TokenMatrix) {
        (&self.heads[head].residual_k, &self.heads[head].residual_v)
    }

    /// Appends one decode-step token to a head. Values are rounded through
    /// FP16 (the KV projection output precision). When the residual fills to
    /// `Nr`, it is flushed through `codec` into a packed block — the
    /// Residual Kernel's quantize-once-per-`Nr`-steps behaviour.
    ///
    /// Returns `true` when this append triggered a flush.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::DimMismatch`] or [`CacheError::BadHead`].
    pub fn append_token(
        &mut self,
        head: usize,
        k: &[f32],
        v: &[f32],
        codec: &impl BlockCodec,
    ) -> Result<bool, CacheError> {
        self.check_dim(k)?;
        self.check_dim(v)?;
        self.head(head)?;
        let nr = self.residual_block();
        let dim = self.config.dim;
        let slot = &mut self.heads[head];
        // Rounding through FP16 happens in place on the flat residual tail —
        // one contiguous extend, no per-token heap allocation.
        push_rounded(&mut slot.residual_k, k);
        push_rounded(&mut slot.residual_v, v);
        if slot.residual_k.tokens() == nr {
            let k_block = std::mem::replace(&mut slot.residual_k, TokenMatrix::new(dim));
            let v_block = std::mem::replace(&mut slot.residual_v, TokenMatrix::new(dim));
            let packed = codec.encode(&k_block, &v_block, self.config.scheme);
            slot.packed.push(packed);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Bulk-loads a prefill of `tokens × dim` K/V for a head: the largest
    /// `Nr`-aligned prefix is quantized block-by-block, the tail becomes the
    /// residual (paper §V-B(1)).
    ///
    /// # Errors
    ///
    /// Nothing is stored on error: [`CacheError::LengthMismatch`] when K
    /// and V hold different token counts, [`CacheError::DimMismatch`] when
    /// a non-empty matrix is not `dim` wide, [`CacheError::BadHead`].
    pub fn prefill(
        &mut self,
        head: usize,
        k: &TokenMatrix,
        v: &TokenMatrix,
        codec: &impl BlockCodec,
    ) -> Result<(), CacheError> {
        let len = k.tokens();
        if v.tokens() != len {
            return Err(CacheError::LengthMismatch {
                k: len,
                v: v.tokens(),
            });
        }
        if len > 0 {
            check_width(k.dim(), self.config.dim)?;
            check_width(v.dim(), self.config.dim)?;
        }
        self.head(head)?;
        let nr = self.residual_block();
        let (packed_len, _res) = crate::layout::partition_prefill(len, nr);
        let scheme = self.config.scheme;

        // Values pass through the FP16 KV projection output before
        // quantization, exactly as in the append path.
        let slot = &mut self.heads[head];
        let (mut kb, mut vb) = (TokenMatrix::new(0), TokenMatrix::new(0));
        for b0 in (0..packed_len).step_by(nr) {
            round_rows_into(k, b0, b0 + nr, &mut kb);
            round_rows_into(v, b0, b0 + nr, &mut vb);
            slot.packed.push(codec.encode(&kb, &vb, scheme));
        }
        for t in packed_len..len {
            push_rounded(&mut slot.residual_k, k.row(t));
            push_rounded(&mut slot.residual_v, v.row(t));
        }
        Ok(())
    }

    /// Reconstructs the full logical `(K, V)` of a head by decoding every
    /// packed block and appending the residual — the reference view used by
    /// functional attention checks.
    pub fn logical_kv(&self, head: usize, codec: &impl BlockCodec) -> (TokenMatrix, TokenMatrix) {
        let slot = &self.heads[head];
        let mut k = TokenMatrix::with_capacity(self.len(head), self.config.dim);
        let mut v = TokenMatrix::with_capacity(self.len(head), self.config.dim);
        for block in &slot.packed {
            let (bk, bv) = codec.decode(block, self.config.scheme);
            k.extend_rows(&bk);
            v.extend_rows(&bv);
        }
        k.extend_rows(&slot.residual_k);
        v.extend_rows(&slot.residual_v);
        (k, v)
    }

    /// Device bytes held by one head (packed payloads + FP16 residual).
    pub(crate) fn head_bytes(&self, head: usize) -> usize {
        let slot = &self.heads[head];
        let packed: usize = slot.packed.iter().map(PackedBlock::byte_size).sum();
        let residual = slot.residual_k.len() * self.config.dim * 2 * 2;
        packed + residual
    }

    /// Total device bytes across all heads.
    pub fn total_bytes(&self) -> usize {
        (0..self.heads.len()).map(|h| self.head_bytes(h)).sum()
    }
}

/// Appends `row` to `m` rounded through FP16 (the KV projection output
/// precision) — no temporary row allocation. Shared with the paged store
/// so both containers round identically (the contiguous-equivalence
/// invariant depends on it).
pub(crate) fn push_rounded(m: &mut TokenMatrix, row: &[f32]) {
    let t = m.tokens();
    m.push_row(row);
    round_through_f16(row, m.row_mut(t));
}

/// Refills `dst` with token range `[t0, t1)` of `src`, FP16-rounded in
/// one pass over the range's contiguous slice; `dst` is a scratch matrix
/// its caller reuses across blocks. Shared with the paged store (see
/// [`push_rounded`]).
pub(crate) fn round_rows_into(src: &TokenMatrix, t0: usize, t1: usize, dst: &mut TokenMatrix) {
    let dim = src.dim();
    dst.resize_tokens(t1 - t0, dim);
    round_through_f16(&src.as_slice()[t0 * dim..t1 * dim], dst.as_mut_slice());
}

/// Rejects a width that is not the cache's `expected` channel count.
pub(crate) fn check_width(got: usize, expected: usize) -> Result<(), CacheError> {
    if got == expected {
        Ok(())
    } else {
        Err(CacheError::DimMismatch { expected, got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ReferenceCodec;

    fn cfg(dim: usize) -> CacheConfig {
        CacheConfig::new(dim, QuantScheme::kc4(), PackLayout::sm80_default())
    }

    fn token(dim: usize, t: usize) -> Vec<f32> {
        (0..dim)
            .map(|c| ((t * dim + c) as f32 * 0.37).sin())
            .collect()
    }

    #[test]
    fn residual_never_reaches_block_size() {
        let mut cache = QuantizedKvCache::new(cfg(16), 1);
        let nr = cache.residual_block();
        assert_eq!(nr, 128);
        for t in 0..nr * 3 + 7 {
            let k = token(16, t);
            cache.append_token(0, &k, &k, &ReferenceCodec).unwrap();
            assert!(cache.residual_len(0) < nr);
        }
        assert_eq!(cache.len(0), nr * 3 + 7);
        assert_eq!(cache.packed_blocks(0).len(), 3);
        assert_eq!(cache.residual_len(0), 7);
    }

    #[test]
    fn flush_signalled_exactly_at_block_boundary() {
        let mut cache = QuantizedKvCache::new(cfg(16), 1);
        let nr = cache.residual_block();
        for t in 0..nr {
            let k = token(16, t);
            let flushed = cache.append_token(0, &k, &k, &ReferenceCodec).unwrap();
            assert_eq!(flushed, t == nr - 1, "t={t}");
        }
    }

    #[test]
    fn prefill_partitions_by_nr() {
        let dim = 16;
        let mut cache = QuantizedKvCache::new(cfg(dim), 1);
        let len = 128 * 2 + 50;
        let k: TokenMatrix = (0..len).map(|t| token(dim, t)).collect();
        cache.prefill(0, &k, &k, &ReferenceCodec).unwrap();
        assert_eq!(cache.len(0), len);
        assert_eq!(cache.packed_blocks(0).len(), 2);
        assert_eq!(cache.residual_len(0), 50);
    }

    #[test]
    fn logical_kv_round_trips_within_quant_error() {
        let dim = 16;
        let mut cache = QuantizedKvCache::new(cfg(dim), 1);
        let len = 128 + 9;
        let k: TokenMatrix = (0..len).map(|t| token(dim, t)).collect();
        let v: TokenMatrix = (0..len).map(|t| token(dim, t + 999)).collect();
        cache.prefill(0, &k, &v, &ReferenceCodec).unwrap();
        let (dk, dv) = cache.logical_kv(0, &ReferenceCodec);
        assert_eq!(dk.len(), len);
        for t in 0..len {
            for c in 0..dim {
                assert!((dk[t][c] - k[t][c]).abs() < 0.15, "K t={t} c={c}");
                assert!((dv[t][c] - v[t][c]).abs() < 0.15, "V t={t} c={c}");
            }
        }
    }

    #[test]
    fn memory_shrinks_versus_fp16() {
        let dim = 128;
        let mut cache = QuantizedKvCache::new(cfg(dim), 1);
        let len = 128 * 8;
        let k: TokenMatrix = (0..len).map(|t| token(dim, t)).collect();
        cache.prefill(0, &k, &k, &ReferenceCodec).unwrap();
        let fp16_bytes = len * dim * 2 * 2;
        let ratio = fp16_bytes as f64 / cache.total_bytes() as f64;
        assert!(ratio > 3.4, "compression {ratio}");
    }

    #[test]
    fn prefill_length_mismatch_is_a_typed_error() {
        let mut cache = QuantizedKvCache::new(cfg(16), 1);
        let k: TokenMatrix = (0..130).map(|t| token(16, t)).collect();
        let v = k.slice_rows(0..129);
        assert_eq!(
            cache.prefill(0, &k, &v, &ReferenceCodec),
            Err(CacheError::LengthMismatch { k: 130, v: 129 })
        );
        assert_eq!(cache.len(0), 0, "nothing stored on error");
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut cache = QuantizedKvCache::new(cfg(16), 1);
        let bad = vec![0.0f32; 8];
        let good = vec![0.0f32; 16];
        assert!(matches!(
            cache.append_token(0, &bad, &good, &ReferenceCodec),
            Err(CacheError::DimMismatch {
                expected: 16,
                got: 8
            })
        ));
    }

    #[test]
    fn bad_head_rejected() {
        let mut cache = QuantizedKvCache::new(cfg(16), 2);
        let t = vec![0.0f32; 16];
        assert!(matches!(
            cache.append_token(5, &t, &t, &ReferenceCodec),
            Err(CacheError::BadHead { head: 5, heads: 2 })
        ));
    }

    #[test]
    fn heads_are_independent() {
        let mut cache = QuantizedKvCache::new(cfg(16), 3);
        let t = token(16, 0);
        cache.append_token(1, &t, &t, &ReferenceCodec).unwrap();
        assert_eq!(cache.len(0), 0);
        assert_eq!(cache.len(1), 1);
        assert_eq!(cache.len(2), 0);
        assert!(cache.is_empty(0));
        assert!(!cache.is_empty(1));
    }
}
