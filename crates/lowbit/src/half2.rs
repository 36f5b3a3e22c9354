//! The packed `half2` pair used for quantization metadata.
//!
//! BitDecoding stores the per-group quantization parameters (scale and
//! zero-point) as a single `half2` so that one 32-bit load fetches both and a
//! single `HFMA2` applies them (paper §V-B: "both the scale and zero-point
//! are stored in a compact `half2` format").

use crate::f16::F16;
use std::fmt;

/// Two packed binary16 values occupying one 32-bit word.
///
/// # Examples
///
/// ```
/// use bd_lowbit::{F16, Half2};
///
/// let h2 = Half2::new(F16::from_f32(0.5), F16::from_f32(-3.0));
/// assert_eq!(h2.lo().to_f32(), 0.5);
/// assert_eq!(h2.hi().to_f32(), -3.0);
/// assert_eq!(Half2::from_bits(h2.to_bits()), h2);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Half2 {
    lo: F16,
    hi: F16,
}

impl Half2 {
    /// Packs two halves; `lo` occupies the low 16 bits of the word.
    #[inline]
    pub const fn new(lo: F16, hi: F16) -> Self {
        Half2 { lo, hi }
    }

    /// The low element.
    #[inline]
    pub const fn lo(self) -> F16 {
        self.lo
    }

    /// The high element.
    #[inline]
    pub const fn hi(self) -> F16 {
        self.hi
    }

    /// The packed 32-bit representation (`hi` in the upper half-word).
    #[inline]
    pub fn to_bits(self) -> u32 {
        (self.lo.to_bits() as u32) | ((self.hi.to_bits() as u32) << 16)
    }

    /// Reconstructs from the packed 32-bit representation.
    #[inline]
    pub fn from_bits(bits: u32) -> Self {
        Half2 {
            lo: F16::from_bits(bits as u16),
            hi: F16::from_bits((bits >> 16) as u16),
        }
    }

    /// Element-wise fused multiply-add: `self * a + b`, the `HFMA2`
    /// instruction applied during dequantization.
    pub(crate) fn hfma2(self, a: Half2, b: Half2) -> Self {
        Half2 {
            lo: self.lo.hfma(a.lo, b.lo),
            hi: self.hi.hfma(a.hi, b.hi),
        }
    }
}

impl fmt::Debug for Half2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "half2({}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        let h = Half2::new(F16::from_f32(1.5), F16::from_f32(-2.25));
        assert_eq!(Half2::from_bits(h.to_bits()), h);
        assert_eq!(h.to_bits() & 0xFFFF, 0x3E00);
    }

    #[test]
    fn hfma2_is_elementwise() {
        let x = Half2::new(F16::from_f32(2.0), F16::from_f32(3.0));
        let a = Half2::new(F16::from_f32(0.5), F16::from_f32(2.0));
        let b = Half2::new(F16::from_f32(1.0), F16::from_f32(-1.0));
        let y = x.hfma2(a, b);
        assert_eq!(y.lo().to_f32(), 2.0);
        assert_eq!(y.hi().to_f32(), 5.0);
    }
}
