//! Shared-memory bank model: conflict counting and the XOR swizzle
//! (paper Eq. 2, `col_id = row_id ⊕ col_id`) that makes `ldmatrix` loads
//! conflict-free.
//!
//! Shared memory is organised as 32 banks of 4-byte words. A warp access is
//! serialized into as many transactions as the most-contended bank needs;
//! accesses to the *same* word broadcast and count once.

/// Number of shared-memory banks.
pub const NUM_BANKS: usize = 32;
/// Bytes per bank word.
pub const BANK_WORD_BYTES: usize = 4;

/// Swizzling applied to a tile's column index when staging in shared memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Swizzle {
    /// Plain row-major staging (conflict-prone for column accesses).
    None,
    /// XOR swizzle `col' = col ⊕ (row % groups)` on 16-byte chunks — the
    /// CUTLASS scheme referenced by the paper.
    #[default]
    Xor,
}

/// Counts the transactions one warp-wide access phase needs.
///
/// `byte_addrs` holds each lane's starting byte address; `bytes_per_lane` is
/// the contiguous span each lane reads (e.g. 16 for an `ldmatrix` row
/// pointer). Conflicting words in the same bank serialize; identical words
/// broadcast.
pub fn warp_transactions(byte_addrs: &[usize], bytes_per_lane: usize) -> u32 {
    let mut words_per_bank: Vec<Vec<usize>> = vec![Vec::new(); NUM_BANKS];
    for &addr in byte_addrs {
        let first_word = addr / BANK_WORD_BYTES;
        let last_word = (addr + bytes_per_lane - 1) / BANK_WORD_BYTES;
        for w in first_word..=last_word {
            let bank = w % NUM_BANKS;
            if !words_per_bank[bank].contains(&w) {
                words_per_bank[bank].push(w);
            }
        }
    }
    words_per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
}

/// Byte offset of `(row, col_16B_chunk)` within a staged tile, applying the
/// swizzle. `row_stride_bytes` is the padded row pitch, and columns are
/// addressed in 16-byte chunks (the `ldmatrix` access granularity).
pub(crate) fn staged_offset(
    row: usize,
    chunk: usize,
    row_stride_bytes: usize,
    swizzle: Swizzle,
) -> usize {
    let chunks_per_row = (row_stride_bytes / 16).max(1);
    let chunk = chunk % chunks_per_row;
    let c = match swizzle {
        Swizzle::None => chunk,
        Swizzle::Xor => {
            if chunks_per_row.is_power_of_two() && chunks_per_row > 1 {
                (chunk ^ (row % chunks_per_row)) % chunks_per_row
            } else {
                chunk
            }
        }
    };
    row * row_stride_bytes + c * 16
}

/// Minimum transactions the access set needs if banks were perfectly
/// balanced: `ceil(distinct words / 32)`.
pub fn optimal_transactions(byte_addrs: &[usize], bytes_per_lane: usize) -> u32 {
    let mut words: Vec<usize> = byte_addrs
        .iter()
        .flat_map(|&addr| {
            let first = addr / BANK_WORD_BYTES;
            let last = (addr + bytes_per_lane - 1) / BANK_WORD_BYTES;
            first..=last
        })
        .collect();
    words.sort_unstable();
    words.dedup();
    words.len().div_ceil(NUM_BANKS) as u32
}

/// Conflict multiplier for an `ldmatrix.x4` load from a
/// `row_stride_bytes`-pitch staging buffer: 1.0 means conflict-free
/// (actual transactions equal the balanced-bank minimum).
pub fn conflict_factor(row_stride_bytes: usize, swizzle: Swizzle) -> f64 {
    let col_chunk = |lane: usize| (lane / 8) % 2;
    let addrs: Vec<usize> = (0..32)
        .map(|lane| {
            let row = lane % 8 + (lane / 16) * 8;
            staged_offset(row, col_chunk(lane), row_stride_bytes, swizzle)
        })
        .collect();
    let actual = warp_transactions(&addrs, 16);
    let optimal = optimal_transactions(&addrs, 16).max(1);
    f64::from(actual) / f64::from(optimal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_counts_once() {
        // All lanes read the same 4-byte word: one transaction.
        let addrs = vec![128usize; 32];
        assert_eq!(warp_transactions(&addrs, 4), 1);
    }

    #[test]
    fn fully_sequential_is_conflict_free() {
        // Lanes read consecutive 4-byte words: each bank sees one word.
        let addrs: Vec<usize> = (0..32).map(|l| l * 4).collect();
        assert_eq!(warp_transactions(&addrs, 4), 1);
    }

    #[test]
    fn same_bank_strided_serializes() {
        // Stride of 128 bytes puts every lane in bank 0: 32-way conflict.
        let addrs: Vec<usize> = (0..32).map(|l| l * 128).collect();
        assert_eq!(warp_transactions(&addrs, 4), 32);
    }

    #[test]
    fn xor_swizzle_removes_ldmatrix_conflicts() {
        // A 128-byte-pitch staging buffer (e.g. d=64 halves per row):
        // without swizzle the 16-byte row chunks collide heavily; the XOR
        // swizzle makes the load conflict-free.
        let no = conflict_factor(128, Swizzle::None);
        let yes = conflict_factor(128, Swizzle::Xor);
        assert!(no > 1.5, "unswizzled should conflict, got {no}");
        assert!(
            (yes - 1.0).abs() < 1e-9,
            "swizzled should be clean, got {yes}"
        );
    }

    #[test]
    fn swizzle_is_a_permutation_within_each_row() {
        for row in 0..8 {
            let mut seen = [false; 8];
            for chunk in 0..8 {
                let off = staged_offset(row, chunk, 128, Swizzle::Xor);
                assert_eq!(off / 128, row);
                let c = (off % 128) / 16;
                assert!(!seen[c], "collision in row {row}");
                seen[c] = true;
            }
        }
    }

    #[test]
    fn narrow_rows_degenerate_gracefully() {
        // A 16-byte pitch has a single chunk per row; swizzle is identity
        // and the column access serializes by construction.
        assert_eq!(staged_offset(3, 0, 16, Swizzle::Xor), 48);
        assert!(conflict_factor(16, Swizzle::Xor) >= 1.0);
    }
}
