//! Multi-lane word folds: the hashes behind the prefix cache's leaves and
//! the swap-blob checksum.
//!
//! A byte-at-a-time hash is one multiply per byte on one dependency chain.
//! A [`WordFold`] takes 64-bit words and spreads them round-robin over four
//! independent lanes, so the multiplies of four words overlap.
//!
//! **One changed word always changes the result.** A lane step
//! `(lane.rotate_left(R) ^ word) · M`, with `M` odd, is a bijection of the
//! word for a fixed lane and of the lane for a fixed word. A changed word
//! therefore changes its lane's state, every later step on that lane maps
//! distinct states to distinct states, and [`WordFold::finish`] folds the
//! lanes in order with the same step, which again keeps them distinct.
//! Position is not commutative either: lanes start from different states
//! and finish folds them in a fixed order, so two words trading lanes
//! changes the result except by a 64-bit coincidence.

use bd_lowbit::Half2;

/// One fold chain: a state that [`Chain::step`] mixes a 64-bit word into.
pub(crate) trait Chain: Copy {
    /// Mixes `word` into the state.
    fn step(self, word: u64) -> Self;
    /// Mixes another chain's state in: one step per word of it.
    fn absorb(self, other: Self) -> Self;
}

/// A 64-bit chain whose step is `(state.rotate_left(R) ^ word) · M`. `M`
/// must be odd. The rotate carries each word's high bits into positions
/// the next multiply spreads, so flips of two words' top bits cannot
/// cancel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Mix<const R: u32, const M: u64>(pub u64);

impl<const R: u32, const M: u64> Chain for Mix<R, M> {
    #[inline(always)]
    fn step(self, word: u64) -> Self {
        Mix((self.0.rotate_left(R) ^ word).wrapping_mul(M))
    }

    fn absorb(self, other: Self) -> Self {
        self.step(other.0)
    }
}

/// Two chains fed the same words: a 128-bit state from two 64-bit ones.
impl<A: Chain, B: Chain> Chain for (A, B) {
    #[inline(always)]
    fn step(self, word: u64) -> Self {
        (self.0.step(word), self.1.step(word))
    }

    fn absorb(self, other: Self) -> Self {
        (self.0.absorb(other.0), self.1.absorb(other.1))
    }
}

/// A value a fold packs into 64-bit words, [`Unit::PER_WORD`] to a word,
/// the first in the low bits.
pub(crate) trait Unit: Copy {
    /// Units per 64-bit word.
    const PER_WORD: usize;
    /// The unit's bits, zero-extended.
    fn bits(self) -> u64;
    /// The word of up to [`Unit::PER_WORD`] units; missing high units are
    /// zero.
    #[inline(always)]
    fn word(units: &[Self]) -> u64 {
        let shift = 64 / Self::PER_WORD;
        (units.iter().rev()).fold(0, |w, u| w << shift | u.bits())
    }
}

impl Unit for u8 {
    const PER_WORD: usize = 8;
    fn bits(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn word(units: &[u8]) -> u64 {
        let mut bytes = [0; 8];
        bytes[..units.len()].copy_from_slice(units);
        u64::from_le_bytes(bytes)
    }
}

impl Unit for u16 {
    const PER_WORD: usize = 4;
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

impl Unit for f32 {
    const PER_WORD: usize = 2;
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Unit for Half2 {
    const PER_WORD: usize = 2;
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Lanes of a [`WordFold`].
const LANES: usize = 4;

/// A fold of 64-bit words over [`LANES`] lanes of chain `C`. The words of
/// a slice go to the lanes round-robin, one group of four at a time; the
/// slice's last words that fill no group, and every single
/// [`WordFold::word`], go to lane 0. See the [module docs](self) for why
/// one changed word always changes [`WordFold::finish`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct WordFold<C: Chain>([C; LANES]);

impl<C: Chain> WordFold<C> {
    /// A fold whose lanes start at `seed` stepped by the lane index.
    pub(crate) fn new(seed: C) -> Self {
        WordFold([0, 1, 2, 3].map(|lane| seed.step(lane)))
    }

    /// Folds one word into lane 0.
    pub(crate) fn word(&mut self, word: u64) {
        self.0[0] = self.0[0].step(word);
    }

    /// Folds `units` without their count — for slices whose length the
    /// fold's caller has already fixed.
    #[inline]
    pub(crate) fn units<T: Unit>(&mut self, units: &[T]) {
        let mut groups = units.chunks_exact(LANES * T::PER_WORD);
        for group in &mut groups {
            for (lane, word) in self.0.iter_mut().zip(group.chunks_exact(T::PER_WORD)) {
                *lane = lane.step(T::word(word));
            }
        }
        for word in groups.remainder().chunks(T::PER_WORD) {
            self.word(T::word(word));
        }
    }

    /// Folds a variable-length slice: its length word, then its units.
    pub(crate) fn slice<T: Unit>(&mut self, units: &[T]) {
        self.word(units.len() as u64);
        self.units(units);
    }

    /// The lanes folded in order into one state.
    pub(crate) fn finish(self) -> C {
        let [a, b, c, d] = self.0;
        a.absorb(b).absorb(c).absorb(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fold = WordFold<Mix<31, 0xFF51_AFD7_ED55_8CCD>>;

    fn fold_u16s(words: &[u16]) -> u64 {
        let mut f = Fold::new(Mix(1));
        f.slice(words);
        f.finish().0
    }

    #[test]
    fn units_pack_low_first_and_zero_pad() {
        assert_eq!(u16::word(&[1, 2, 3, 4]), 0x0004_0003_0002_0001);
        assert_eq!(u16::word(&[0xABCD]), 0xABCD);
        assert_eq!(u8::word(&[1, 2, 3]), 0x0003_0201);
        assert_eq!(u8::word(&[1, 2, 3, 4, 5, 6, 7, 8]), 0x0807_0605_0403_0201);
        assert_eq!(
            f32::word(&[f32::from_bits(7), f32::from_bits(9)]),
            9 << 32 | 7
        );
        let h = Half2::from_bits(0x1234_5678);
        assert_eq!(Half2::word(&[h, h]), 0x1234_5678_1234_5678);
    }

    #[test]
    fn a_tail_and_its_zero_padding_are_told_apart_by_the_length_word() {
        // 17 code words: 4 full words in the lanes, one partial word in
        // lane 0. Padding it with a zero unit must not be the same slice.
        let words: Vec<u16> = (1..=17).collect();
        let mut padded = words.clone();
        padded.push(0);
        assert_ne!(fold_u16s(&words), fold_u16s(&padded));
        assert_ne!(fold_u16s(&[]), fold_u16s(&[0]));
    }

    #[test]
    fn lanes_with_the_same_history_still_tell_their_words_apart() {
        // One group into a fresh fold: lanes 1 and 2 have seen nothing
        // else, so only their seeds and the ordered finish separate the
        // two words trading places.
        let fold = |words: &[u16]| {
            let mut f = Fold::new(Mix(1));
            f.units(words);
            f.finish().0
        };
        let words: Vec<u16> = (1..=16).collect();
        let mut swapped = words.clone();
        let (a, b) = swapped[4..12].split_at_mut(4);
        a.swap_with_slice(b);
        assert_ne!(fold(&words), fold(&swapped));
    }
}
