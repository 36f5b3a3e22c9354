//! Bit-packing of quantization codes into 16-bit words and 32-bit registers.
//!
//! BitDecoding packs per-thread codes into INT16 storage words (ω = 16,
//! packing ratio `R = ω/β` — paper Eq. 1) and, for dequantization, views
//! register pairs as INT32 and extracts values in the interleaved
//! **75316420** pattern so that the `lop3`-based conversion emits halves that
//! already match the Tensor Core fragment order (paper §IV-A(3)).
//!
//! Reading a 32-bit register's nibbles from most- to least-significant, the
//! 4-bit fast-dequant layout holds logical elements `7 5 3 1 6 4 2 0` — i.e.
//! physical nibble `p` holds logical element `FAST_PERM_INT4[p]`. Extraction
//! step `i` masks physical positions `i` and `i + 4` (one `lop3` producing a
//! `half2`), yielding logical elements `2i` and `2i + 1` in order.

use crate::quant::BitWidth;

/// Physical-position → logical-element permutation for 4-bit fast dequant
/// (8 nibbles per 32-bit register).
pub const FAST_PERM_INT4: [usize; 8] = [0, 2, 4, 6, 1, 3, 5, 7];

/// Physical-position → logical-element permutation for 2-bit fast dequant
/// (16 crumbs per 32-bit register).
pub const FAST_PERM_INT2: [usize; 16] = [0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15];

/// Order in which codes are laid out inside a packed register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PackOrder {
    /// Sequential: logical element `i` in physical position `i`.
    ///
    /// This is what a naive `static_cast` dequantization loop expects.
    Linear,
    /// The interleaved 75316420 layout consumed by the `lop3` fast path.
    #[default]
    FastDequant,
}

/// Number of codes held by one 32-bit register at the given width.
pub const fn codes_per_u32(width: BitWidth) -> usize {
    (32 / width.bits()) as usize
}

/// Number of codes held by one 16-bit storage word.
pub(crate) const fn codes_per_u16(width: BitWidth) -> usize {
    width.packing_ratio()
}

fn perm(width: BitWidth, order: PackOrder, physical: usize) -> usize {
    match (order, width) {
        (PackOrder::Linear, _) => physical,
        (PackOrder::FastDequant, BitWidth::B4) => FAST_PERM_INT4[physical],
        (PackOrder::FastDequant, BitWidth::B2) => FAST_PERM_INT2[physical],
    }
}

/// Packs `codes` (logical order) into a 32-bit register.
///
/// # Panics
///
/// Panics if `codes.len() != codes_per_u32(width)` or any code exceeds the
/// width's maximum.
pub fn pack_u32(codes: &[u8], width: BitWidth, order: PackOrder) -> u32 {
    let n = codes_per_u32(width);
    assert_eq!(codes.len(), n, "expected {n} codes for {width}");
    let bits = width.bits();
    let mask = width.max_code() as u32;
    let mut word = 0u32;
    for (physical, _) in codes.iter().enumerate() {
        let logical = perm(width, order, physical);
        let c = codes[logical] as u32;
        assert!(c <= mask, "code {c} out of range for {width}");
        word |= c << (physical as u32 * bits);
    }
    word
}

/// Unpacks a 32-bit register into codes in logical order.
pub fn unpack_u32(word: u32, width: BitWidth, order: PackOrder) -> Vec<u8> {
    let n = codes_per_u32(width);
    let mut out = vec![0u8; n];
    unpack_u32_into(word, width, order, &mut out);
    out
}

/// Allocation-free form of [`unpack_u32`]: writes the register's codes in
/// logical order into `out[..codes_per_u32(width)]`. This is the hot-loop
/// primitive the fused decode kernel streams registers through.
///
/// # Panics
///
/// Panics if `out` is shorter than `codes_per_u32(width)`.
#[inline]
pub fn unpack_u32_into(word: u32, width: BitWidth, order: PackOrder, out: &mut [u8]) {
    let n = codes_per_u32(width);
    let bits = width.bits();
    let mask = width.max_code() as u32;
    assert!(out.len() >= n, "output buffer too small");
    for physical in 0..n {
        let logical = perm(width, order, physical);
        out[logical] = ((word >> (physical as u32 * bits)) & mask) as u8;
    }
}

/// Packs `codes` (logical order) into a 16-bit storage word (linear layout).
///
/// Storage words always use the linear layout; the interleave is applied at
/// register granularity when two words are fused into a 32-bit register.
///
/// # Panics
///
/// Panics if `codes.len() != width.packing_ratio()`.
pub fn pack_u16(codes: &[u8], width: BitWidth) -> u16 {
    let n = codes_per_u16(width);
    assert_eq!(codes.len(), n, "expected {n} codes for {width}");
    let bits = width.bits();
    let mut word = 0u16;
    for (i, &c) in codes.iter().enumerate() {
        assert!(c <= width.max_code(), "code {c} out of range for {width}");
        word |= (c as u16) << (i as u32 * bits);
    }
    word
}

/// Unpacks a 16-bit storage word (linear layout).
pub fn unpack_u16(word: u16, width: BitWidth) -> Vec<u8> {
    let n = codes_per_u16(width);
    let bits = width.bits();
    let mask = width.max_code() as u16;
    (0..n)
        .map(|i| ((word >> (i as u32 * bits)) & mask) as u8)
        .collect()
}

/// Fuses two 16-bit storage words into the 32-bit register view used by the
/// fast dequantization path (`lo` occupies the low half).
#[inline]
pub const fn fuse_words(lo: u16, hi: u16) -> u32 {
    (lo as u32) | ((hi as u32) << 16)
}

/// Splits a 32-bit register back into two 16-bit storage words.
#[inline]
pub const fn split_register(reg: u32) -> (u16, u16) {
    (reg as u16, (reg >> 16) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_are_bijective() {
        let mut seen4 = [false; 8];
        for &p in &FAST_PERM_INT4 {
            assert!(!seen4[p]);
            seen4[p] = true;
        }
        let mut seen2 = [false; 16];
        for &p in &FAST_PERM_INT2 {
            assert!(!seen2[p]);
            seen2[p] = true;
        }
    }

    #[test]
    fn msb_to_lsb_reads_75316420() {
        // Pack logical elements 0..8 and read nibbles from most significant
        // to least significant: must spell 7,5,3,1,6,4,2,0.
        let codes: Vec<u8> = (0..8).collect();
        let w = pack_u32(&codes, BitWidth::B4, PackOrder::FastDequant);
        let nibbles: Vec<u8> = (0..8).rev().map(|i| ((w >> (4 * i)) & 0xF) as u8).collect();
        assert_eq!(nibbles, vec![7, 5, 3, 1, 6, 4, 2, 0]);
    }

    #[test]
    fn pack_unpack_round_trip_all_orders() {
        for width in [BitWidth::B4, BitWidth::B2] {
            let n = codes_per_u32(width);
            let codes: Vec<u8> = (0..n)
                .map(|i| (i as u8 * 3 + 1) & width.max_code())
                .collect();
            for order in [PackOrder::Linear, PackOrder::FastDequant] {
                let w = pack_u32(&codes, width, order);
                assert_eq!(unpack_u32(w, width, order), codes, "{width} {order:?}");
            }
        }
    }

    #[test]
    fn linear_u16_round_trip() {
        for width in [BitWidth::B4, BitWidth::B2] {
            let n = codes_per_u16(width);
            let codes: Vec<u8> = (0..n)
                .map(|i| (i as u8 * 5 + 2) & width.max_code())
                .collect();
            let w = pack_u16(&codes, width);
            assert_eq!(unpack_u16(w, width), codes);
        }
    }

    #[test]
    fn fuse_split_round_trip() {
        let (lo, hi) = (0xBEEF, 0xDEAD);
        assert_eq!(split_register(fuse_words(lo, hi)), (lo, hi));
    }

    #[test]
    fn fast_extraction_masks_yield_sequential_pairs() {
        // The property the layout exists for: masking physical positions
        // (i, i+4) after shifting by 4*i yields logical elements (2i, 2i+1).
        let codes: Vec<u8> = vec![10, 11, 12, 13, 14, 15, 1, 2];
        let w = pack_u32(&codes, BitWidth::B4, PackOrder::FastDequant);
        for i in 0..4 {
            let shifted = w >> (4 * i);
            let lo = (shifted & 0xF) as u8;
            let hi = ((shifted >> 16) & 0xF) as u8;
            assert_eq!((lo, hi), (codes[2 * i], codes[2 * i + 1]));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_code_out_of_range() {
        pack_u16(&[4, 0, 0, 0, 0, 0, 0, 0], BitWidth::B2);
    }
}
