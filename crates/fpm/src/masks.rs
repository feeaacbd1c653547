//! Class-mask lowering: payload aggregation as `popcount(tidset & mask)`.
//!
//! Algorithm 1 of the paper fuses the `(T, F, ⊥)` outcome tallies into
//! mining, and the merge-based miners realize that fusion as one
//! [`Payload::merge`] call per covering transaction. For payloads whose
//! aggregate is really a handful of *class counts* — "how many covering
//! rows fall into class `c`" — there is a much cheaper realization: build
//! one packed bitmask per class over the whole database once, and compute
//! every counter as `popcount(tidset & class_mask)`. Counting an itemset
//! then costs a few cache lines of word-wide ANDs instead of a per-tid
//! merge walk.
//!
//! The lowering is described by a [`MaskSpec`] (how many classes, and how
//! composite payloads nest) and materialized as [`ClassMasks`] (one
//! [`Bitset`] per class). A payload type opts in by overriding the
//! `mask_spec` / `encode_classes` / `decode_classes` hooks on
//! [`Payload`]; types that keep the default (`mask_spec` → `None`) simply
//! fall back to merge-based counting in [`crate::dense`].

use crate::bitset::Bitset;
use crate::kernels::{self, AlignedWords, Kernel, BLOCK_WORDS};
use crate::payload::Payload;

/// Shape of a payload type's lowering into counting classes.
///
/// A *leaf* spec says the payload decomposes into `n_classes` flat
/// counters. A *composite* spec concatenates the class ranges of its
/// children in order — how tuple and array payloads compose.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaskSpec {
    n_classes: usize,
    children: Vec<MaskSpec>,
}

impl MaskSpec {
    /// A flat spec with `n_classes` counting classes.
    pub fn leaf(n_classes: usize) -> Self {
        MaskSpec {
            n_classes,
            children: Vec::new(),
        }
    }

    /// A composite spec: children own consecutive class ranges.
    pub fn composite(children: Vec<MaskSpec>) -> Self {
        MaskSpec {
            n_classes: children.iter().map(|c| c.n_classes).sum(),
            children,
        }
    }

    /// Total number of counting classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Component specs of a composite payload (empty for leaves).
    pub fn children(&self) -> &[MaskSpec] {
        &self.children
    }
}

/// One packed bitmask per counting class over the whole database:
/// bit `t` of mask `c` is set iff transaction `t` belongs to class `c`.
///
/// Built once per mining run; read-only afterwards, so the parallel
/// engine shares one instance across all workers.
#[derive(Debug, Clone)]
pub struct ClassMasks {
    spec: MaskSpec,
    n_rows: usize,
    n_words: usize,
    masks: Vec<Bitset>,
    /// The masks again, cache-blocked for the fused tally (see
    /// [`kernels::plane_words`]): per 8-word tidset block, each class's
    /// words form one contiguous 64-byte line, zero-padded past the last
    /// word. One streaming pass over a tidset then touches each of its
    /// cache lines exactly once for *all* classes.
    planes: AlignedWords,
}

impl ClassMasks {
    /// Lowers a run's per-transaction payloads into class masks.
    ///
    /// Returns `None` when the payload type does not support the
    /// lowering, or when these particular values don't (e.g. a counts
    /// payload where some per-row tally exceeds 1 and therefore is not
    /// a class membership).
    pub fn build<P: Payload>(payloads: &[P]) -> Option<ClassMasks> {
        let spec = P::mask_spec(payloads)?;
        let mut masks = vec![Bitset::zeros(payloads.len()); spec.n_classes()];
        for (t, p) in payloads.iter().enumerate() {
            p.encode_classes(&spec, &mut |class| masks[class].set(t));
        }
        let n_classes = spec.n_classes();
        let n_words = payloads.len().div_ceil(64);
        let mut planes = AlignedWords::zeroed(kernels::plane_words(n_words, n_classes));
        let p = planes.as_mut_slice();
        for (c, mask) in masks.iter().enumerate() {
            for (w, &word) in mask.words().iter().enumerate() {
                p[(w / BLOCK_WORDS) * BLOCK_WORDS * n_classes
                    + c * BLOCK_WORDS
                    + w % BLOCK_WORDS] = word;
            }
        }
        Some(ClassMasks {
            spec,
            n_rows: payloads.len(),
            n_words,
            masks,
            planes,
        })
    }

    /// The lowering shape these masks realize.
    pub fn spec(&self) -> &MaskSpec {
        &self.spec
    }

    /// Number of counting classes (= number of masks).
    pub fn n_classes(&self) -> usize {
        self.spec.n_classes
    }

    /// Number of transactions the masks cover.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Tallies a dense tidset: `counts[c] = popcount(tids & mask_c)` for
    /// every class in **one** streaming pass over the tidset (the fused
    /// multi-mask kernel, with the process-selected [`Kernel`]).
    /// Returns the number of words ANDed (for telemetry).
    pub fn count_dense(&self, tids: &Bitset, counts: &mut [u64]) -> u64 {
        self.count_dense_with(kernels::selected(), tids, counts)
    }

    /// [`ClassMasks::count_dense`] under an explicit [`Kernel`] — how
    /// tests and benches pin a kernel without touching process state.
    pub fn count_dense_with(&self, kernel: Kernel, tids: &Bitset, counts: &mut [u64]) -> u64 {
        debug_assert_eq!(counts.len(), self.masks.len());
        if !self.masks.is_empty() {
            assert_eq!(
                tids.n_words(),
                self.n_words,
                "tidset word length must match the masks' universe"
            );
        }
        kernel.tally(
            tids.words(),
            self.planes.as_slice(),
            self.spec.n_classes,
            counts,
        );
        (self.n_words * self.spec.n_classes) as u64
    }

    /// The historical per-class tally — one full pass over the tidset
    /// *per* class mask. Kept as the differential/benchmark baseline the
    /// fused path is measured against; engines use [`count_dense`].
    ///
    /// [`count_dense`]: ClassMasks::count_dense
    pub fn count_dense_per_class(&self, kernel: Kernel, tids: &Bitset, counts: &mut [u64]) -> u64 {
        debug_assert_eq!(counts.len(), self.masks.len());
        let mut words = 0u64;
        for (mask, slot) in self.masks.iter().zip(counts.iter_mut()) {
            *slot = kernel.and_count(tids.words(), mask.words());
            words += mask.n_words() as u64;
        }
        words
    }

    /// Tallies a sorted tid-list: `counts[c] = |{t ∈ tids : mask_c[t]}|`.
    pub fn count_sparse(&self, tids: &[u32], counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.masks.len());
        for (mask, slot) in self.masks.iter().zip(counts.iter_mut()) {
            *slot = tids.iter().filter(|&&t| mask.get(t as usize)).count() as u64;
        }
    }

    /// Subtracts the per-class membership of `tids` from `counts` —
    /// the dEclat step: `counts(child) = counts(parent) − counts(diffset)`.
    pub fn subtract_sparse(&self, tids: &[u32], counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.masks.len());
        for (mask, slot) in self.masks.iter().zip(counts.iter_mut()) {
            *slot -= tids.iter().filter(|&&t| mask.get(t as usize)).count() as u64;
        }
    }

    /// Rebuilds an aggregate payload from per-class counts.
    pub fn decode<P: Payload>(&self, counts: &[u64]) -> P {
        P::decode_classes(&self.spec, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::vertical;

    #[test]
    fn composite_spec_concatenates_class_ranges() {
        let spec = MaskSpec::composite(vec![MaskSpec::leaf(3), MaskSpec::leaf(2)]);
        assert_eq!(spec.n_classes(), 5);
        assert_eq!(spec.children().len(), 2);
    }

    #[test]
    fn count_payload_round_trips_through_masks() {
        // Values 0..6 need 3 bit-plane classes; popcount of each plane
        // over any subset must decode to the subset's payload sum.
        let payloads: Vec<CountPayload> = (0..10u64).map(|t| CountPayload(t % 6)).collect();
        let masks = ClassMasks::build(&payloads).expect("CountPayload is maskable");
        assert_eq!(masks.n_classes(), 3);

        let tids: Vec<u32> = vec![1, 4, 7, 9];
        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&tids, &mut counts);
        let decoded: CountPayload = masks.decode(&counts);
        assert_eq!(decoded, vertical::sum_payloads(&tids, &payloads));
    }

    #[test]
    fn dense_and_sparse_tallies_agree() {
        let payloads: Vec<CountPayload> = (0..200u64).map(|t| CountPayload(t % 4)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let tids: Vec<u32> = (0..200).step_by(3).collect();
        let mut bs = Bitset::zeros(200);
        for &t in &tids {
            bs.set(t as usize);
        }
        let mut dense = vec![0u64; masks.n_classes()];
        let mut sparse = vec![0u64; masks.n_classes()];
        masks.count_dense(&bs, &mut dense);
        masks.count_sparse(&tids, &mut sparse);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn subtract_sparse_implements_the_diffset_step() {
        let payloads: Vec<CountPayload> = (0..50u64).map(|t| CountPayload(t % 3)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let parent: Vec<u32> = (0..50).collect();
        let child: Vec<u32> = (0..50).filter(|t| t % 5 != 0).collect();
        let diff: Vec<u32> = (0..50).step_by(5).collect();

        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&parent, &mut counts);
        masks.subtract_sparse(&diff, &mut counts);
        let mut expected = vec![0u64; masks.n_classes()];
        masks.count_sparse(&child, &mut expected);
        assert_eq!(counts, expected);
    }

    /// The fused multi-mask tally must equal the per-class reference —
    /// for every kernel, on a ≥3-class composite spec, across tidset
    /// sizes that exercise partial blocks and trailing words.
    #[test]
    fn fused_tally_matches_per_class_reference_for_every_kernel() {
        for n_rows in [8usize, 63, 64, 65, 511, 512, 513, 1000] {
            // (values % 8, values % 4) → 3 + 2 = 5 bit-plane classes.
            let payloads: Vec<(CountPayload, CountPayload)> = (0..n_rows as u64)
                .map(|t| (CountPayload(t % 8), CountPayload(t % 4)))
                .collect();
            let masks = ClassMasks::build(&payloads).unwrap();
            assert_eq!(masks.n_classes(), 5, "n_rows={n_rows}");
            let mut tids = Bitset::zeros(n_rows);
            for t in (0..n_rows).step_by(3) {
                tids.set(t);
            }
            let mut reference = vec![0u64; 5];
            let ref_words = masks.count_dense_per_class(Kernel::Scalar, &tids, &mut reference);
            for kernel in Kernel::ALL {
                let mut fused = vec![u64::MAX; 5]; // stale: must be overwritten
                let words = masks.count_dense_with(kernel, &tids, &mut fused);
                assert_eq!(fused, reference, "{kernel} n_rows={n_rows}");
                assert_eq!(
                    words, ref_words,
                    "{kernel} n_rows={n_rows}: telemetry words"
                );
            }
        }
    }

    #[test]
    fn unit_payload_lowers_to_zero_classes() {
        let masks = ClassMasks::build(&[(), (), ()]).expect("() is trivially maskable");
        assert_eq!(masks.n_classes(), 0);
        let decoded: () = masks.decode(&[]);
        let () = decoded;
    }
}
