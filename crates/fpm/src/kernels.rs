//! Runtime-dispatched AND+popcount kernels behind every tally.
//!
//! All engines in this crate reduce the paper's `(T, F, ⊥)` tallies to
//! `popcount(tidset & class_mask)`; this module owns that inner loop so
//! the bit-identical contract lives in exactly one place:
//!
//! - [`Kernel::count`] / [`Kernel::and_count`] — population count of a
//!   word buffer / of an intersection, without materializing it.
//! - [`Kernel::tally`] — the **fused multi-mask tally**: one streaming
//!   pass over the tidset's words that accumulates popcounts against
//!   *all* class masks simultaneously. The masks are laid out
//!   cache-blocked (see [`plane_words`]): per 8-word block of the tidset,
//!   each class contributes one contiguous 64-byte line, so a tidset
//!   cache line is touched once — not once per class as the historical
//!   per-class loop did.
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
/// Backing store for [`crate::bitset::Bitset`] words, the dense
/// engine's buffer pool, and [`crate::masks::ClassMasks`] planes. The
/// buffer rounds its capacity up to whole [`Block`]s; the logical length
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

    /// Resizes to `n_words`, zero-filling any newly exposed words (both
    /// grown blocks and recycled padding).
    pub fn resize_zeroed(&mut self, n_words: usize) {
        self.blocks
            .resize(n_words.div_ceil(BLOCK_WORDS), Block::default());
        let old = self.len;
        self.len = n_words;
        if n_words > old {
            self.as_mut_slice()[old..].fill(0);
        }
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

    /// Population count of `words`.
    pub fn count(self, words: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` just checked that the CPU has avx2 and popcnt.
            return unsafe { avx2::count(words) };
        }
        words.iter().map(|w| w.count_ones() as u64).sum()
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

    /// The fused multi-mask tally: overwrites `counts[c]` with
    /// `popcount(tids & mask_c)` for every class in one streaming pass
    /// over `tids`.
    ///
    /// `planes` is the cache-blocked mask layout of [`plane_words`]: for
    /// each 8-word block `blk` of the tidset, class `c`'s words occupy
    /// `planes[blk * 8 * n_classes + c * 8 ..][..8]` — one 64-byte line
    /// per (block, class), zero-padded past the tidset's last word so
    /// full-block arithmetic never consults the tail length.
    pub fn tally(self, tids: &[u64], planes: &[u64], n_classes: usize, counts: &mut [u64]) {
        // The AVX2 body reads planes through raw pointers: these bounds
        // are what keep it in range, so they hold in release builds too.
        assert_eq!(counts.len(), n_classes, "one count per class");
        assert_eq!(
            planes.len(),
            plane_words(tids.len(), n_classes),
            "planes must hold one line per (block, class)"
        );
        counts.fill(0);
        if n_classes == 0 || tids.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: `use_avx2` just checked that the CPU has avx2 and
            // popcnt, and the asserts above keep every plane read inside
            // `planes`.
            unsafe { avx2::tally(tids, planes, counts) };
            return;
        }
        for (blk, tblock) in tids.chunks(BLOCK_WORDS).enumerate() {
            let base = blk * BLOCK_WORDS * n_classes;
            for (c, slot) in counts.iter_mut().enumerate() {
                let plane = &planes[base + c * BLOCK_WORDS..][..BLOCK_WORDS];
                *slot += tblock
                    .iter()
                    .zip(plane)
                    .map(|(t, p)| (t & p).count_ones() as u64)
                    .sum::<u64>();
            }
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Length of the cache-blocked plane buffer for `n_words`-word masks and
/// `n_classes` classes: one zero-padded 8-word line per (block, class).
pub fn plane_words(n_words: usize, n_classes: usize) -> usize {
    n_words.div_ceil(BLOCK_WORDS) * BLOCK_WORDS * n_classes
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
    use super::BLOCK_WORDS;
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
    pub unsafe fn count(words: &[u64]) -> u64 {
        let full = words.len() / BLOCK_WORDS;
        let mut total = 0u64;
        for blk in 0..full {
            let p = words.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            total += popcount_2x256(_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)));
        }
        for w in &words[full * BLOCK_WORDS..] {
            total += w.count_ones() as u64;
        }
        total
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

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn tally(tids: &[u64], planes: &[u64], counts: &mut [u64]) {
        let full = tids.len() / BLOCK_WORDS;
        let mut base = 0;
        for blk in 0..full {
            // Load the tidset line once; it stays in registers while the
            // classes' lines stream past.
            let pt = tids.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            let t_lo = _mm256_loadu_si256(pt);
            let t_hi = _mm256_loadu_si256(pt.add(1));
            for slot in counts.iter_mut() {
                let pp = planes.as_ptr().add(base) as *const __m256i;
                let lo = _mm256_and_si256(t_lo, _mm256_loadu_si256(pp));
                let hi = _mm256_and_si256(t_hi, _mm256_loadu_si256(pp.add(1)));
                *slot += popcount_2x256(lo, hi);
                base += BLOCK_WORDS;
            }
        }
        let tail = &tids[full * BLOCK_WORDS..];
        if !tail.is_empty() {
            for slot in counts.iter_mut() {
                let plane = &planes[base..base + BLOCK_WORDS];
                let mut s = 0u64;
                for (t, p) in tail.iter().zip(plane) {
                    s += (t & p).count_ones() as u64;
                }
                *slot += s;
                base += BLOCK_WORDS;
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

    /// Builds the cache-blocked plane layout from per-class mask words.
    fn planes_of(masks: &[Vec<u64>], n_words: usize) -> Vec<u64> {
        let n_classes = masks.len();
        let mut planes = vec![0u64; plane_words(n_words, n_classes)];
        for (c, mask) in masks.iter().enumerate() {
            for (w, &word) in mask.iter().enumerate() {
                planes[(w / BLOCK_WORDS) * BLOCK_WORDS * n_classes
                    + c * BLOCK_WORDS
                    + w % BLOCK_WORDS] = word;
            }
        }
        planes
    }

    /// Every kernel matches the scalar reference on ragged lengths —
    /// including lengths straddling the 8-word block boundary and a
    /// trailing partial word pattern — for count, and_count and the
    /// fused tally. Odd lengths prove no kernel reads past `len`: the
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
            let masks: Vec<Vec<u64>> = (0..3).map(|c| words(n, 10 + c)).collect();
            let planes = planes_of(&masks, n);
            let mut want_tally = vec![0u64; 3];
            Kernel::Scalar.tally(&a, &planes, 3, &mut want_tally);
            // The scalar tally itself must equal per-class and_counts.
            for (c, mask) in masks.iter().enumerate() {
                assert_eq!(
                    want_tally[c],
                    Kernel::Scalar.and_count(&a, mask),
                    "n={n} c={c}"
                );
            }
            for k in Kernel::ALL {
                assert_eq!(k.count(&a), want_count, "{k} count n={n}");
                assert_eq!(k.and_count(&a, &b), want_and, "{k} and_count n={n}");
                let mut got = vec![0u64; 3];
                k.tally(&a, &planes, 3, &mut got);
                assert_eq!(got, want_tally, "{k} tally n={n}");
            }
        }
    }

    #[test]
    fn tally_overwrites_stale_counts() {
        let t = words(20, 3);
        let masks: Vec<Vec<u64>> = (0..2).map(|c| words(20, 20 + c)).collect();
        let planes = planes_of(&masks, 20);
        for k in Kernel::ALL {
            let mut counts = vec![u64::MAX; 2];
            k.tally(&t, &planes, 2, &mut counts);
            assert_eq!(counts[0], k.and_count(&t, &masks[0]), "{k}");
            assert_eq!(counts[1], k.and_count(&t, &masks[1]), "{k}");
        }
    }

    #[test]
    fn zero_classes_and_empty_tidsets_are_noops() {
        for k in Kernel::ALL {
            k.tally(&[1, 2, 3], &[], 0, &mut []);
            let mut counts = vec![7u64; 2];
            k.tally(&[], &[], 2, &mut counts);
            assert_eq!(counts, vec![0, 0], "{k}: empty tidset zeroes counts");
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
            // Shrink then regrow: recycled padding must come back zeroed.
            buf.clear();
            buf.resize_zeroed(n + 3);
            assert!(buf.as_slice().iter().all(|&w| w == 0), "n={n}");
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
