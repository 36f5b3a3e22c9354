//! KV-cache quantization schemes: bit-width × scaling granularity.
//!
//! BitDecoding supports the configuration space of published KV-cache
//! quantization algorithms (paper §V-B): integer 4-/2-bit caches with
//! **tensor-wise** (per-token groups along the hidden dimension — KVQuant,
//! Atom style) or **channel-wise** (per-channel groups along the sequence —
//! KIVI, Gear style) Key scaling, plus Blackwell-native MXFP4/NVFP4. Values
//! are always quantized tensor-wise, matching the paper.

use bd_lowbit::{BitWidth, Fp4Kind};
use std::fmt;

/// Scaling granularity for the Key tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyGranularity {
    /// One group per token, spanning `group` channels ("KT").
    TensorWise,
    /// One group per channel, spanning `group` tokens ("KC") — required for
    /// accuracy because Key outliers are channel-structured.
    ChannelWise,
}

impl fmt::Display for KeyGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyGranularity::TensorWise => write!(f, "KT"),
            KeyGranularity::ChannelWise => write!(f, "KC"),
        }
    }
}

/// The numeric format of a quantized cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Asymmetric affine integer quantization with `half2` metadata.
    Int {
        /// Code width (4- or 2-bit).
        width: BitWidth,
        /// Key scaling granularity.
        key_granularity: KeyGranularity,
        /// Group size: tokens per group for channel-wise Keys, channels per
        /// group for tensor-wise Keys and for Values.
        group: usize,
    },
    /// Blackwell block-scaled FP4 (no integer metadata; scales are E8M0 or
    /// E4M3 per hardware block).
    Fp4(Fp4Kind),
}

/// A complete KV-cache quantization configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    kind: SchemeKind,
}

impl QuantScheme {
    /// Default group size along tokens for channel-wise Keys.
    pub const DEFAULT_TOKEN_GROUP: usize = 64;
    /// Default group size along channels for tensor-wise scaling.
    pub const DEFAULT_CHANNEL_GROUP: usize = 128;

    /// Builds a scheme from an explicit kind.
    pub const fn from_kind(kind: SchemeKind) -> Self {
        QuantScheme { kind }
    }

    /// 4-bit Keys with tensor-wise scaling ("KT-4").
    pub const fn kt4() -> Self {
        QuantScheme::from_kind(SchemeKind::Int {
            width: BitWidth::B4,
            key_granularity: KeyGranularity::TensorWise,
            group: Self::DEFAULT_CHANNEL_GROUP,
        })
    }

    /// 4-bit Keys with channel-wise scaling ("KC-4"), the accuracy-preserving
    /// default used in the paper's end-to-end runs.
    pub const fn kc4() -> Self {
        QuantScheme::from_kind(SchemeKind::Int {
            width: BitWidth::B4,
            key_granularity: KeyGranularity::ChannelWise,
            group: Self::DEFAULT_TOKEN_GROUP,
        })
    }

    /// 2-bit Keys with channel-wise scaling ("KC-2").
    pub const fn kc2() -> Self {
        QuantScheme::from_kind(SchemeKind::Int {
            width: BitWidth::B2,
            key_granularity: KeyGranularity::ChannelWise,
            group: Self::DEFAULT_TOKEN_GROUP,
        })
    }

    /// 2-bit Keys with tensor-wise scaling ("KT-2").
    pub const fn kt2() -> Self {
        QuantScheme::from_kind(SchemeKind::Int {
            width: BitWidth::B2,
            key_granularity: KeyGranularity::TensorWise,
            group: Self::DEFAULT_CHANNEL_GROUP,
        })
    }

    /// Blackwell-native MXFP4 (E2M1 + E8M0 scale per 32).
    pub const fn mxfp4() -> Self {
        QuantScheme::from_kind(SchemeKind::Fp4(Fp4Kind::Mx))
    }

    /// Blackwell-native NVFP4 (E2M1 + E4M3 scale per 16).
    pub const fn nvfp4() -> Self {
        QuantScheme::from_kind(SchemeKind::Fp4(Fp4Kind::Nv))
    }

    /// The scheme kind.
    pub const fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Integer bit-width, if this is an integer scheme.
    pub fn int_width(&self) -> Option<BitWidth> {
        match self.kind {
            SchemeKind::Int { width, .. } => Some(width),
            SchemeKind::Fp4(_) => None,
        }
    }

    /// Key granularity for integer schemes (FP4 is block-wise by hardware).
    pub fn key_granularity(&self) -> Option<KeyGranularity> {
        match self.kind {
            SchemeKind::Int {
                key_granularity, ..
            } => Some(key_granularity),
            SchemeKind::Fp4(_) => None,
        }
    }

    /// Group size for integer schemes.
    pub fn group(&self) -> Option<usize> {
        match self.kind {
            SchemeKind::Int { group, .. } => Some(group),
            SchemeKind::Fp4(_) => None,
        }
    }

    /// Bits per stored element (payload only).
    pub fn bits_per_value(&self) -> u32 {
        match self.kind {
            SchemeKind::Int { width, .. } => width.bits(),
            SchemeKind::Fp4(_) => 4,
        }
    }

    /// Payload bytes for one token of one head (`dim` channels, K **and** V).
    pub(crate) fn payload_bytes_per_token(&self, dim: usize) -> f64 {
        2.0 * dim as f64 * self.bits_per_value() as f64 / 8.0
    }

    /// Metadata (scale/zero or block-scale) bytes per token of one head
    /// (K and V combined).
    pub fn params_bytes_per_token(&self, dim: usize) -> f64 {
        match self.kind {
            SchemeKind::Int {
                key_granularity,
                group,
                ..
            } => {
                // half2 = 4 bytes per group.
                let k = match key_granularity {
                    // one group per channel per `group` tokens
                    KeyGranularity::ChannelWise => 4.0 * dim as f64 / group as f64,
                    // one group per token per `group` channels
                    KeyGranularity::TensorWise => 4.0 * (dim as f64 / group as f64).max(1.0),
                };
                // V is tensor-wise along channels.
                let v = 4.0 * (dim as f64 / QuantScheme::DEFAULT_CHANNEL_GROUP as f64).max(1.0);
                k + v
            }
            SchemeKind::Fp4(kind) => {
                // one scale byte per block, K and V.
                2.0 * dim as f64 / kind.block_size() as f64
            }
        }
    }

    /// Total cache bytes per token of one head (payload + metadata).
    pub fn bytes_per_token(&self, dim: usize) -> f64 {
        self.payload_bytes_per_token(dim) + self.params_bytes_per_token(dim)
    }

    /// Paper-style label, e.g. `"KC-4"` or `"mxfp4"`.
    pub fn label(&self) -> String {
        match self.kind {
            SchemeKind::Int {
                width,
                key_granularity,
                ..
            } => format!("{key_granularity}-{}", width.bits()),
            SchemeKind::Fp4(kind) => kind.to_string(),
        }
    }
}

impl fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(QuantScheme::kt4().label(), "KT-4");
        assert_eq!(QuantScheme::kc4().label(), "KC-4");
        assert_eq!(QuantScheme::kc2().label(), "KC-2");
        assert_eq!(QuantScheme::mxfp4().label(), "mxfp4");
        assert_eq!(QuantScheme::nvfp4().label(), "nvfp4");
    }

    #[test]
    fn compression_ratios() {
        let d = 128;
        // INT4 ≈ 4x minus metadata overhead; INT2 ≈ 8x minus metadata.
        let fp16 = (2 * d * 2) as f64;
        let c4 = fp16 / QuantScheme::kc4().bytes_per_token(d);
        let c2 = fp16 / QuantScheme::kc2().bytes_per_token(d);
        assert!(c4 > 3.5 && c4 < 4.0, "KC-4 compression {c4}");
        assert!(c2 > 6.2 && c2 < 8.0, "KC-2 compression {c2}");
        assert!(c2 > c4);
    }

    #[test]
    fn channel_wise_costs_more_metadata_than_tensor_wise() {
        let d = 128;
        assert!(
            QuantScheme::kc4().params_bytes_per_token(d)
                > QuantScheme::kt4().params_bytes_per_token(d)
        );
    }

    #[test]
    fn fp4_metadata_is_per_block() {
        let d = 128;
        // MX: 1 byte per 32 values, K+V → 2*128/32 = 8 B/token.
        assert_eq!(QuantScheme::mxfp4().params_bytes_per_token(d), 8.0);
        // NV: blocks of 16 → 16 B/token.
        assert_eq!(QuantScheme::nvfp4().params_bytes_per_token(d), 16.0);
    }

    #[test]
    fn accessors() {
        assert_eq!(QuantScheme::kc2().int_width(), Some(BitWidth::B2));
        assert_eq!(QuantScheme::mxfp4().int_width(), None);
        assert_eq!(
            QuantScheme::kc4().key_granularity(),
            Some(KeyGranularity::ChannelWise)
        );
        assert_eq!(QuantScheme::kt4().group(), Some(128));
    }
}
