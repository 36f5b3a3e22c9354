//! Packed storage blocks: the opaque physical representation of one flushed
//! residual block.
//!
//! The cache does not interpret the words — only the codec that produced
//! them (the fragment-true kernels in `bd-core`, or the
//! [reference codec](crate::codec::ReferenceCodec)) can map them back to
//! `(token, channel)` values, and only under the same [`PackLayout`]
//! configuration (see paper Fig. 3).

#[cfg(doc)]
use crate::layout::PackLayout;
use bd_lowbit::Half2;

/// Physical payload of one packed tensor (K or V) for one block of tokens.
#[derive(Clone, Debug, PartialEq)]
pub enum PackedPayload {
    /// Integer codes packed into 16-bit words plus `half2` group metadata.
    Int {
        /// Packed code words in codec-defined physical order.
        words: Vec<u16>,
        /// Per-group `(scale, zero)` pairs in codec-defined group order.
        params: Vec<Half2>,
    },
    /// FP4 codes (two per byte) plus one scale byte per hardware block.
    Fp4 {
        /// E2M1 nibbles, two per byte, in codec-defined order.
        codes: Vec<u8>,
        /// E8M0/E4M3 block scales.
        scales: Vec<u8>,
    },
}

impl PackedPayload {
    /// Bytes occupied in device memory.
    pub(crate) fn byte_size(&self) -> usize {
        match self {
            PackedPayload::Int { words, params } => words.len() * 2 + params.len() * 4,
            PackedPayload::Fp4 { codes, scales } => codes.len() + scales.len(),
        }
    }
}

/// A packed tensor covering `tokens × dim` values.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedTensor {
    /// Tokens covered by this block.
    pub tokens: usize,
    /// Channels per token.
    pub dim: usize,
    /// The physical payload.
    pub payload: PackedPayload,
}

impl PackedTensor {
    /// Bytes occupied in device memory.
    pub(crate) fn byte_size(&self) -> usize {
        self.payload.byte_size()
    }

    /// Logical element count.
    pub fn elems(&self) -> usize {
        self.tokens * self.dim
    }
}

/// One flushed residual block: packed K and V plus bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedBlock {
    /// Packed Key tensor.
    pub k: PackedTensor,
    /// Packed Value tensor.
    pub v: PackedTensor,
}

impl PackedBlock {
    /// Tokens covered.
    pub fn tokens(&self) -> usize {
        self.k.tokens
    }

    /// Total device bytes.
    pub fn byte_size(&self) -> usize {
        self.k.byte_size() + self.v.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_payload_bytes() {
        let p = PackedPayload::Int {
            words: vec![0; 100],
            params: vec![Half2::default(); 10],
        };
        assert_eq!(p.byte_size(), 240);
    }

    #[test]
    fn fp4_payload_bytes() {
        let p = PackedPayload::Fp4 {
            codes: vec![0; 64],
            scales: vec![0; 4],
        };
        assert_eq!(p.byte_size(), 68);
    }

    #[test]
    fn block_accounting() {
        let t = PackedTensor {
            tokens: 128,
            dim: 64,
            payload: PackedPayload::Int {
                words: vec![0; 128 * 64 / 4],
                params: vec![Half2::default(); 64],
            },
        };
        assert_eq!(t.elems(), 8192);
        let b = PackedBlock { k: t.clone(), v: t };
        assert_eq!(b.tokens(), 128);
        assert_eq!(b.byte_size(), 2 * (2048 * 2 + 256));
    }
}
