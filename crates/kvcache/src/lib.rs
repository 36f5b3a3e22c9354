#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-kvcache — quantized KV-cache containers for BitDecoding-RS
//!
//! The dynamic low-bit KV cache the paper is built around: quantization
//! [schemes](crate::scheme) (KT/KC × 4/2-bit, MXFP4/NVFP4), the shared
//! [pack-layout configuration](crate::layout) that fixes the residual block
//! size `Nr = Pn × Wn × R` (paper Eq. 1), the
//! [packed + residual cache](crate::cache) itself, pluggable
//! [block codecs](crate::codec), [paged management](crate::paged), the
//! [paged physical store](crate::store) that puts packed blocks and
//! residual windows behind the page tables for the serving setting (one
//! file per seam under `store/`), and the
//! [device/placement layer](crate::placement) with its
//! [head-sharded multi-device store](crate::sharded) for tensor-parallel
//! serving (its all-device admissions share one preflight-then-apply
//! transaction). Each stored residual K window is a
//! [`KeyWindow`]: FP16 rows plus write-once Kᵀ panels the residual kernel
//! reads in the MMA's layout. Prompt admission's bulk passes and the serve layer's
//! decode step run on one [scoped launch](mod@crate::launch).
//!
//! The cache is a *container*: how values are physically packed is decided
//! by the [`BlockCodec`] that flushes each residual block. The
//! fragment-true codec lives in `bd-core`; the [`ReferenceCodec`] here is
//! the logical linear layout non-tensor-core systems use.

pub mod block;
pub mod cache;
pub mod codec;
mod fold;
pub mod launch;
pub mod layout;
pub mod matrix;
pub mod paged;
pub mod placement;
mod radix;
pub mod scheme;
pub mod sharded;
pub mod store;
pub mod window;

pub use block::{PackedBlock, PackedPayload, PackedTensor};
pub use cache::{CacheConfig, CacheError, QuantizedKvCache};
pub use codec::{
    dequantize_int_codes, quantize_int_codes, reconstruction_error, BlockCodec, ReferenceCodec,
};
pub use launch::launch;
pub use layout::{partition_prefill, PackLayout};
pub use matrix::{TokenMatrix, TokenRows};
pub use paged::{PageId, PagedOom, PagedPool, SeqId};
pub use placement::{DeviceId, Partitioning, Placement};
pub use scheme::{KeyGranularity, QuantScheme, SchemeKind};
pub use sharded::{DeviceKvStats, ShardedKvStore, SwappedShardedSeq};
pub use store::{
    KvSharingStats, LaunchPages, LaunchSeq, PagedKvStore, PrefixAdmit, PrefixCacheStats,
    StoreError, SwappedSeq,
};
pub use window::{KeyWindow, PANEL_TOKENS};
