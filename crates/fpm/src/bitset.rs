//! Packed bit vectors over transaction positions: the dense tidset
//! representation shared by the [`crate::dense`] engine and the
//! [`crate::recount`] fold.

use crate::kernels::{self, AlignedWords};

/// A packed bit vector over transaction positions, backed by 64-byte-aligned
/// word storage so the counting kernels' wide loads never split a cache
/// line. Counting goes through the process-selected [`kernels::Kernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: AlignedWords,
}

impl Bitset {
    /// An all-zero bitset for `n` transactions.
    pub fn zeros(n: usize) -> Self {
        Bitset {
            words: AlignedWords::zeroed(n.div_ceil(64)),
        }
    }

    /// Wraps an existing word buffer (e.g. one recycled from a pool).
    pub fn from_words(words: AlignedWords) -> Self {
        Bitset { words }
    }

    /// Unwraps into the word buffer, for recycling.
    pub fn into_words(self) -> AlignedWords {
        self.words
    }

    /// The backing words (exactly `n_words()` long).
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Number of `u64` words backing the set.
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        self.words.as_mut_slice()[i / 64] |= 1u64 << (i % 64);
    }

    /// True iff bit `i` is set.
    pub fn get(&self, i: usize) -> bool {
        self.words.as_slice()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        kernels::selected().count(self.words.as_slice())
    }

    /// Binary operations are only defined over bitsets of the same
    /// universe; a `zip` over mismatched word buffers would silently
    /// truncate to the shorter one.
    #[track_caller]
    fn check_len(&self, other: &Bitset) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "bitset word lengths must match"
        );
    }

    /// The intersection `self & other`.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    #[track_caller]
    pub fn and(&self, other: &Bitset) -> Bitset {
        self.check_len(other);
        let mut out = AlignedWords::zeroed(self.words.len());
        for ((o, a), b) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.words.as_slice())
            .zip(other.words.as_slice())
        {
            *o = a & b;
        }
        Bitset { words: out }
    }

    /// Popcount of the intersection without materializing it, through
    /// the process-selected counting kernel.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    #[track_caller]
    pub fn and_count(&self, other: &Bitset) -> u64 {
        self.check_len(other);
        kernels::selected().and_count(self.words.as_slice(), other.words.as_slice())
    }

    /// Writes the intersection `self & other` into `out` (cleared first),
    /// reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    #[track_caller]
    pub fn and_into(&self, other: &Bitset, out: &mut AlignedWords) {
        self.check_len(other);
        out.resize_for_overwrite(self.words.len());
        for ((o, a), b) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.words.as_slice())
            .zip(other.words.as_slice())
        {
            *o = a & b;
        }
    }

    /// Appends the indices of the set bits of `self & other` to `out`,
    /// ascending, without materializing the intersection bitset.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    #[track_caller]
    pub fn and_collect(&self, other: &Bitset, out: &mut Vec<u32>) {
        self.check_len(other);
        for (wi, (a, b)) in self
            .words
            .as_slice()
            .iter()
            .zip(other.words.as_slice())
            .enumerate()
        {
            let mut w = a & b;
            while w != 0 {
                out.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// Appends the indices of the set bits of `self & !other` to `out`,
    /// ascending — the dEclat diffset `t(self) \ t(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    #[track_caller]
    pub fn and_not_collect(&self, other: &Bitset, out: &mut Vec<u32>) {
        self.check_len(other);
        for (wi, (a, b)) in self
            .words
            .as_slice()
            .iter()
            .zip(other.words.as_slice())
            .enumerate()
        {
            let mut w = a & !b;
            while w != 0 {
                out.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// Iterates the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .as_slice()
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| {
                let mut w = word;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut bs = Bitset::zeros(130);
        bs.set(0);
        bs.set(64);
        bs.set(129);
        assert_eq!(bs.count(), 3);
        assert!(bs.get(64));
        assert!(!bs.get(63));
        let ones: Vec<usize> = bs.iter_ones().collect();
        assert_eq!(ones, vec![0, 64, 129]);
    }

    #[test]
    fn mismatched_word_lengths_panic_instead_of_truncating() {
        // Regression: `and_count` used to zip-truncate to the shorter
        // buffer and return a wrong count; `and` only checked in debug.
        let mut a = Bitset::zeros(200);
        let mut b = Bitset::zeros(64);
        for i in 0..64 {
            a.set(i);
            b.set(i);
        }
        a.set(190); // lives in a word `b` does not have
        for op in [
            (|a: &Bitset, b: &Bitset| {
                a.and_count(b);
            }) as fn(&Bitset, &Bitset),
            |a, b| {
                a.and(b);
            },
            |a, b| {
                a.and_into(b, &mut AlignedWords::new());
            },
            |a, b| {
                a.and_collect(b, &mut Vec::new());
            },
            |a, b| {
                a.and_not_collect(b, &mut Vec::new());
            },
        ] {
            let err = std::panic::catch_unwind(|| op(&a, &b)).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("word lengths"), "got panic: {msg:?}");
        }
    }

    #[test]
    fn collect_variants_match_materialized_ops() {
        let mut a = Bitset::zeros(300);
        let mut b = Bitset::zeros(300);
        for i in (0..300).step_by(2) {
            a.set(i);
        }
        for i in (0..300).step_by(3) {
            b.set(i);
        }
        let mut inter = Vec::new();
        a.and_collect(&b, &mut inter);
        let expected: Vec<u32> = a.and(&b).iter_ones().map(|i| i as u32).collect();
        assert_eq!(inter, expected);

        let mut diff = Vec::new();
        a.and_not_collect(&b, &mut diff);
        let expected_diff: Vec<u32> = a
            .iter_ones()
            .filter(|&i| !b.get(i))
            .map(|i| i as u32)
            .collect();
        assert_eq!(diff, expected_diff);

        let mut words = AlignedWords::from_slice(&[0xDEAD]); // stale content must be cleared
        a.and_into(&b, &mut words);
        assert_eq!(Bitset::from_words(words), a.and(&b));
    }

    #[test]
    fn and_and_count_agree() {
        let mut a = Bitset::zeros(200);
        let mut b = Bitset::zeros(200);
        for i in (0..200).step_by(2) {
            a.set(i);
        }
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        let both = a.and(&b);
        assert_eq!(both.count(), a.and_count(&b));
        // Multiples of 6 in 0..200: 34 of them (0, 6, …, 198).
        assert_eq!(both.count(), 34);
    }
}
