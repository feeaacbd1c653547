//! Runtime-dispatched AND+popcount kernels behind every tally.
//!
//! All engines in this crate reduce the paper's `(T, F, ⊥)` tallies to
//! popcounts of tidsets over the range layout of
//! [`crate::masks::ClassMasks`], where each counting class is one range
//! of bit positions. This module owns those inner loops, so the
//! bit-identical contract lives in exactly one place:
//!
//! - [`Kernel::count`] / [`Kernel::and_count`] — population count of a
//!   word buffer / of an intersection, without materializing it.
//! - [`Kernel::split_count`] — one pass that returns a tidset's popcount
//!   and the popcount below each class boundary (its *cuts*).
//! - [`Kernel::and_split_into`] — the split count fused into an
//!   intersection that it also stores: a dense node's words, support and
//!   class counts from one pass.
//!
//! Two implementations are selectable: `Scalar` (the reference
//! word-by-word zip) and `Simd` (AVX2 256-bit loads/ANDs with hardware
//! popcounts on `x86_64`, running the scalar body elsewhere or when the
//! CPU lacks `avx2`/`popcnt`). [`selected`] resolves the process-wide
//! choice once — best available, overridable via the `FPM_KERNEL`
//! environment variable (`scalar` / `simd`) — and every engine records
//! it in its obs counters.
//!
//! Every kernel reads exactly the words `[0, len)` of its inputs (full
//! 8-word blocks plus a scalar tail), so odd lengths and trailing-word
//! masks are handled identically by both and neither can read out of
//! bounds. [`AlignedWords`] provides 64-byte-aligned backing storage so
//! the wide loads of full blocks never split a cache line.

use std::sync::OnceLock;

/// Words per 64-byte cache line; the kernels' block size.
pub const BLOCK_WORDS: usize = 8;

/// One 64-byte-aligned block of eight words.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct Block([u64; BLOCK_WORDS]);

/// A growable `u64` buffer whose storage is 64-byte aligned.
///
/// Backing store for [`crate::bitset::Bitset`] words and the dense
/// engine's buffer pool. The buffer rounds its capacity up to whole [`Block`]s; the logical length
/// is tracked in words, and padding words past `len` inside the last
/// block are never observable through [`AlignedWords::as_slice`].
#[derive(Debug, Clone, Default)]
pub struct AlignedWords {
    blocks: Vec<Block>,
    len: usize,
}

impl AlignedWords {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-zero buffer of `n_words` words.
    pub fn zeroed(n_words: usize) -> Self {
        AlignedWords {
            blocks: vec![Block::default(); n_words.div_ceil(BLOCK_WORDS)],
            len: n_words,
        }
    }

    /// Copies a word slice into fresh aligned storage.
    pub fn from_slice(words: &[u64]) -> Self {
        let mut out = Self::zeroed(words.len());
        out.as_mut_slice().copy_from_slice(words);
        out
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words as a slice (exactly `len()` long; padding is hidden).
    pub fn as_slice(&self) -> &[u64] {
        // Sound: `Block` is `repr(C)` over `[u64; 8]`, so `blocks` is a
        // contiguous array of `blocks.len() * 8 >= len` u64s.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr() as *const u64, self.len) }
    }

    /// The words as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        unsafe { std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr() as *mut u64, self.len) }
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resizes to `n_words` without clearing: recycled words keep stale
    /// values (grown blocks start zeroed), so the caller must overwrite
    /// every word before reading any.
    pub fn resize_for_overwrite(&mut self, n_words: usize) {
        self.blocks
            .resize(n_words.div_ceil(BLOCK_WORDS), Block::default());
        self.len = n_words;
    }
}

impl From<Vec<u64>> for AlignedWords {
    fn from(words: Vec<u64>) -> Self {
        Self::from_slice(&words)
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AlignedWords {}

/// One AND+popcount implementation. All variants compute bit-identical
/// results; they differ only in instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Word-by-word zip — the differential-testing reference.
    Scalar,
    /// AVX2 256-bit loads and ANDs with hardware popcounts. Requires
    /// `x86_64` with `avx2` + `popcnt`; transparently executes as
    /// [`Kernel::Scalar`] anywhere else, so calling it is always safe.
    Simd,
}

impl Kernel {
    /// Every kernel, reference first.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Simd];

    /// Stable lower-case name (`FPM_KERNEL` values, counter suffixes,
    /// RunReport `kernel` field).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }

    /// Parses a [`Kernel::name`] back.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "simd" => Some(Kernel::Simd),
            _ => None,
        }
    }

    /// True iff this kernel runs its own code path on this machine
    /// (rather than falling back to another variant).
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Simd => simd_available(),
        }
    }

    /// Obs counter bumped once per engine run selecting this kernel.
    pub fn selected_counter(self) -> &'static str {
        match self {
            Kernel::Scalar => "fpm.kernel.selected.scalar",
            Kernel::Simd => "fpm.kernel.selected.simd",
        }
    }

    /// Obs counter accumulating words ANDed through this kernel.
    pub fn words_counter(self) -> &'static str {
        match self {
            Kernel::Scalar => "fpm.kernel.words_anded.scalar",
            Kernel::Simd => "fpm.kernel.words_anded.simd",
        }
    }

    /// True iff this call should take the AVX2 path.
    #[cfg(target_arch = "x86_64")]
    fn use_avx2(self) -> bool {
        self == Kernel::Simd && simd_available()
    }

    /// Population count of `words`: a split count with no cuts.
    pub fn count(self, words: &[u64]) -> u64 {
        self.split_count(words, &[], &mut [])
    }

    /// Popcount of `a & b` without materializing the intersection.
    ///
    /// Both slices must have equal length (callers enforce the bitset
    /// universe contract; this is re-checked in debug builds).
    pub fn and_count(self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len(), "kernel operands must match");
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` just checked that the CPU has avx2 and popcnt.
            return unsafe { avx2::and_count(a, b) };
        }
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }

    /// The split count: returns the popcount of `words`, and overwrites
    /// `prefix[i]` with the popcount of the bits below position `cuts[i]`.
    /// `cuts` must ascend (equal cuts are an empty class), stay within
    /// `64 · words.len()`, and be as long as `prefix`.
    pub fn split_count(self, words: &[u64], cuts: &[u32], prefix: &mut [u64]) -> u64 {
        let mut split = Split::new(cuts, prefix, words.len());
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` just checked that the CPU has avx2 and popcnt.
            unsafe { avx2::split_count(words, &mut split) };
            return split.finish();
        }
        split.count(words);
        split.finish()
    }

    /// The fused intersection: overwrites `out` with `a & b` and returns
    /// its [`Kernel::split_count`], in one pass over the operands, which
    /// must have `out`'s length.
    pub fn and_split_into(
        self,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
        cuts: &[u32],
        prefix: &mut [u64],
    ) -> u64 {
        // The AVX2 body reads and writes through raw pointers: these
        // bounds keep it in range, so they hold in release builds too.
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "kernel operands must match"
        );
        let mut split = Split::new(cuts, prefix, out.len());
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` just checked that the CPU has avx2 and
            // popcnt, and the assert above keeps every access in range.
            unsafe { avx2::and_split_into(a, b, out, &mut split) };
            return split.finish();
        }
        for (w, ((o, x), y)) in out.iter_mut().zip(a).zip(b).enumerate() {
            *o = x & y;
            split.word(w, *o);
        }
        split.finish()
    }
}

/// The running state of a split count: the total so far, and the next
/// cut whose prefix is still to be recorded.
struct Split<'a> {
    cuts: &'a [u32],
    prefix: &'a mut [u64],
    /// Index of the next unrecorded cut.
    next: usize,
    /// The word that holds that cut (`usize::MAX` once none is left).
    next_word: usize,
    total: u64,
}

impl<'a> Split<'a> {
    fn new(cuts: &'a [u32], prefix: &'a mut [u64], n_words: usize) -> Self {
        // Only the results rest on these: every access is bounds-checked.
        debug_assert_eq!(cuts.len(), prefix.len(), "one prefix per cut");
        debug_assert!(
            cuts.windows(2).all(|w| w[0] <= w[1])
                && cuts.last().is_none_or(|&c| c as usize <= 64 * n_words),
            "cuts must ascend inside the tidset"
        );
        let next_word = cuts.first().map_or(usize::MAX, |&c| c as usize / 64);
        Split {
            cuts,
            prefix,
            next: 0,
            next_word,
            total: 0,
        }
    }

    /// True iff no unrecorded cut lies before word `end`.
    #[inline(always)]
    fn clear_before(&self, end: usize) -> bool {
        self.next_word >= end
    }

    /// Counts word `w`, whose (ANDed) value is `x`, recording the
    /// prefixes of the cuts inside it. Words arrive in order.
    #[inline(always)]
    fn word(&mut self, w: usize, x: u64) {
        while self.next_word == w {
            let below = x & ((1u64 << (self.cuts[self.next] % 64)) - 1);
            self.prefix[self.next] = self.total + below.count_ones() as u64;
            self.next += 1;
            self.next_word = self
                .cuts
                .get(self.next)
                .map_or(usize::MAX, |&c| c as usize / 64);
        }
        self.total += x.count_ones() as u64;
    }

    /// Counts `words` from word 0: each aligned 8-word block that holds
    /// no cut in bulk, the other words one by one.
    #[inline(always)]
    fn count(&mut self, words: &[u64]) {
        let mut w = 0;
        while w < words.len() {
            match words.get(w..w + BLOCK_WORDS) {
                Some(run) if w % BLOCK_WORDS == 0 && self.clear_before(w + BLOCK_WORDS) => {
                    self.total += run.iter().map(|x| x.count_ones() as u64).sum::<u64>();
                    w += BLOCK_WORDS;
                }
                _ => {
                    self.word(w, words[w]);
                    w += 1;
                }
            }
        }
    }

    /// Records the cuts past the last word (at `64 · n_words`) and
    /// returns the total.
    fn finish(self) -> u64 {
        self.prefix[self.next..].fill(self.total);
        self.total
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide kernel: `FPM_KERNEL` if set to an available kernel,
/// otherwise the best available (`Simd` where supported, else
/// `Scalar`). Resolved once; tests compare kernels by passing them
/// explicitly instead.
pub fn selected() -> Kernel {
    static SELECTED: OnceLock<Kernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        let best = if simd_available() {
            Kernel::Simd
        } else {
            Kernel::Scalar
        };
        match std::env::var("FPM_KERNEL") {
            Ok(name) => match Kernel::from_name(name.trim()) {
                // A forced-but-unavailable kernel (e.g. `simd` on arm)
                // would silently execute as its fallback; resolve the
                // honest name here so counters and reports never lie.
                Some(k) if k.available() => k,
                _ => best,
            },
            Err(_) => best,
        }
    })
}

/// Publishes which kernel an engine run used (pair with the per-kernel
/// words counter from [`Kernel::words_counter`]).
pub fn publish_selected(words_anded: u64) {
    let k = selected();
    obs::counter(k.selected_counter(), 1);
    obs::counter(k.words_counter(), words_anded);
}

/// AVX2 bodies: 256-bit loads and ANDs, per-lane hardware popcounts,
/// scalar tails. Callers must verify `avx2` + `popcnt` at runtime.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Split, BLOCK_WORDS};
    use std::arch::x86_64::*;

    /// Popcount of one 8-word block already ANDed into two 256-bit
    /// lanes. `popcnt` is enabled, so `count_ones` is the hardware
    /// instruction.
    #[inline]
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn popcount_2x256(lo: __m256i, hi: __m256i) -> u64 {
        let mut lanes = [0u64; BLOCK_WORDS];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, hi);
        lanes.iter().map(|w| w.count_ones() as u64).sum()
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn and_count(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let full = n / BLOCK_WORDS;
        let mut total = 0u64;
        for blk in 0..full {
            let pa = a.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            let pb = b.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            let lo = _mm256_and_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(pb));
            let hi = _mm256_and_si256(_mm256_loadu_si256(pa.add(1)), _mm256_loadu_si256(pb.add(1)));
            total += popcount_2x256(lo, hi);
        }
        for i in full * BLOCK_WORDS..n {
            total += (a[i] & b[i]).count_ones() as u64;
        }
        total
    }

    /// [`super::Kernel::split_count`]'s body, with hardware popcounts.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn split_count(words: &[u64], split: &mut Split<'_>) {
        split.count(words);
    }

    /// [`super::Kernel::and_split_into`]'s body: each aligned 8-word
    /// block that holds no cut is ANDed and stored 256 bits at a time,
    /// the other words one by one (an unaligned run would split cache
    /// lines). The caller checked the three lengths.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn and_split_into(a: &[u64], b: &[u64], out: &mut [u64], split: &mut Split<'_>) {
        let n = out.len();
        let mut w = 0;
        while w < n {
            if w % BLOCK_WORDS == 0 && w + BLOCK_WORDS <= n && split.clear_before(w + BLOCK_WORDS) {
                let (pa, pb) = (
                    a.as_ptr().add(w) as *const __m256i,
                    b.as_ptr().add(w) as *const __m256i,
                );
                let lo = _mm256_and_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(pb));
                let hi =
                    _mm256_and_si256(_mm256_loadu_si256(pa.add(1)), _mm256_loadu_si256(pb.add(1)));
                let po = out.as_mut_ptr().add(w) as *mut __m256i;
                _mm256_storeu_si256(po, lo);
                _mm256_storeu_si256(po.add(1), hi);
                split.total += popcount_2x256(lo, hi);
                w += BLOCK_WORDS;
            } else {
                out[w] = a[w] & b[w];
                split.word(w, out[w]);
                w += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (splitmix64).
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// The split count by definition: the popcount of `words`, and the
    /// popcount below each cut, one bit at a time.
    fn split_reference(words: &[u64], cuts: &[u32]) -> (u64, Vec<u64>) {
        let bit = |i: usize| words[i / 64] >> (i % 64) & 1;
        let below = |cut: u32| (0..cut as usize).map(bit).sum();
        (
            Kernel::Scalar.count(words),
            cuts.iter().map(|&c| below(c)).collect(),
        )
    }

    /// Every kernel matches the scalar reference on ragged lengths —
    /// including lengths straddling the 8-word block boundary and a
    /// trailing partial word pattern — for count, and_count and both
    /// split kernels. Odd lengths prove no kernel reads past `len`: the
    /// buffers are exactly `len` words long, so an out-of-bounds block
    /// read would fault or (under the aligned storage) read padding and
    /// diverge from the scalar result.
    #[test]
    fn kernels_match_scalar_on_ragged_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a = words(n, 1);
            let mut b = words(n, 2);
            if let Some(last) = b.last_mut() {
                *last &= 0x00FF_FFFF_0000_FFFF; // trailing-word mask
            }
            let want_count = Kernel::Scalar.count(&a);
            let want_and = Kernel::Scalar.and_count(&a, &b);
            let both: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            // Cuts in the first block, mid-way, in the tail and at the end.
            let bits = 64 * n as u32;
            let cuts = [bits / 9, bits / 2, bits * 7 / 8, bits];
            let (want_total, want_prefix) = split_reference(&both, &cuts);
            for k in Kernel::ALL {
                assert_eq!(k.count(&a), want_count, "{k} count n={n}");
                assert_eq!(k.and_count(&a, &b), want_and, "{k} and_count n={n}");
                let mut prefix = vec![u64::MAX; cuts.len()];
                let total = k.split_count(&both, &cuts, &mut prefix);
                assert_eq!(
                    (total, &prefix),
                    (want_total, &want_prefix),
                    "{k} split n={n}"
                );
                let mut out = vec![u64::MAX; n];
                let mut prefix = vec![u64::MAX; cuts.len()];
                let total = k.and_split_into(&a, &b, &mut out, &cuts, &mut prefix);
                assert_eq!(out, both, "{k} and_split_into words n={n}");
                assert_eq!(
                    (total, &prefix),
                    (want_total, &want_prefix),
                    "{k} fused n={n}"
                );
            }
        }
    }

    #[test]
    fn no_cuts_and_empty_tidsets_are_plain_counts() {
        let t = words(20, 3);
        for k in Kernel::ALL {
            assert_eq!(k.split_count(&t, &[], &mut []), k.count(&t), "{k}");
            let mut prefix = vec![7u64; 2];
            assert_eq!(k.split_count(&[], &[0, 0], &mut prefix), 0, "{k}");
            assert_eq!(prefix, vec![0, 0], "{k}: empty tidset zeroes prefixes");
            assert_eq!(k.count(&[]), 0, "{k}");
            assert_eq!(k.and_count(&[], &[]), 0, "{k}");
        }
    }

    #[test]
    fn aligned_words_storage_is_64_byte_aligned_and_padding_is_hidden() {
        for n in [1usize, 7, 8, 9, 1000] {
            let mut buf = AlignedWords::zeroed(n);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0, "n={n}");
            buf.as_mut_slice().fill(u64::MAX);
            assert_eq!(buf.as_slice().len(), n);
            // Shrink then regrow for overwrite: the length follows, and
            // the recycled words are not cleared.
            buf.clear();
            buf.resize_for_overwrite(n + 3);
            assert_eq!(buf.as_slice().len(), n + 3);
            assert!(buf.as_slice()[..n].iter().all(|&w| w == u64::MAX), "n={n}");
        }
    }

    #[test]
    fn aligned_words_round_trips_slices() {
        let src = words(13, 9);
        let buf = AlignedWords::from_slice(&src);
        assert_eq!(buf.as_slice(), src.as_slice());
        assert_eq!(AlignedWords::from(src.clone()), buf);
        assert_ne!(buf, AlignedWords::zeroed(13));
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
            assert!(k.selected_counter().ends_with(k.name()));
            assert!(k.words_counter().ends_with(k.name()));
        }
        assert_eq!(Kernel::from_name("avx512"), None);
        // The resolved kernel is always one that actually runs its own
        // code path on this machine.
        assert!(selected().available());
    }
}
