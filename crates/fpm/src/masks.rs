//! Class-mask lowering: payload aggregation as split popcounts over a
//! cell-ordered row layout.
//!
//! Algorithm 1 of the paper fuses the `(T, F, ⊥)` outcome tallies into
//! mining, and the merge-based miners realize that fusion as one
//! [`Payload::merge`] call per covering transaction. When the aggregate
//! is a handful of *class counts* and every row is in at most one class,
//! [`ClassMasks`] numbers the rows class by class: class 0's rows in table
//! order, then class 1's, and so on, with the rows in no class last.
//! Engines build their tidsets over these *positions*, so each class is
//! one range of bits and a tidset's class counts are its popcount split
//! at the class boundaries ([`crate::kernels::Kernel::split_count`]).
//!
//! A payload type opts in through the `mask_spec` / `class_of` /
//! `decode_classes` hooks on [`Payload`]; types that keep the default
//! (`mask_spec` → `None`), or whose rows may sit in several classes,
//! fall back to merge-based counting in [`crate::dense`].

use crate::bitset::Bitset;
use crate::kernels::{self, AlignedWords, Kernel};
use crate::payload::Payload;

/// Shape of a payload type's lowering: how many counting classes its
/// aggregate decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaskSpec {
    n_classes: usize,
}

impl MaskSpec {
    /// A flat spec with `n_classes` counting classes.
    pub fn leaf(n_classes: usize) -> Self {
        MaskSpec { n_classes }
    }

    /// Total number of counting classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// The cell-ordered row layout of one run: bit position `p` of every
/// tidset stands for row `rows()[p]`, and class `c` holds the positions
/// `cuts()[c - 1]..cuts()[c]` (from 0 for class 0).
///
/// Built once per mining run from the run's payloads; read-only
/// afterwards, so the parallel engine shares one instance across all
/// workers. It costs one `u32` per row.
#[derive(Debug, Clone)]
pub struct ClassMasks {
    /// The table row at each position.
    rows: Vec<u32>,
    /// One past each class's last position, ascending.
    cuts: Vec<u32>,
}

impl ClassMasks {
    /// Lowers a run's per-transaction payloads into the range layout.
    ///
    /// Returns `None` when the payload type does not support the
    /// lowering, or when these particular values don't (e.g. a counts
    /// payload where some row is in two classes, or a per-row tally
    /// exceeds 1 and therefore is not a class membership).
    pub fn build<P: Payload>(payloads: &[P]) -> Option<ClassMasks> {
        let n_classes = P::mask_spec(payloads)?.n_classes();
        let class = |p: &P| p.class_of().unwrap_or(n_classes);
        // A counting sort by class: sizes, then each class's first
        // position, then the rows in table order within their class.
        let mut next = vec![0u32; n_classes + 1];
        for p in payloads {
            next[class(p)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        let cuts = next[1..].to_vec();
        let mut rows = vec![0u32; payloads.len()];
        for (t, p) in payloads.iter().enumerate() {
            let slot = &mut next[class(p)];
            rows[*slot as usize] = t as u32;
            *slot += 1;
        }
        Some(ClassMasks { rows, cuts })
    }

    /// Number of counting classes.
    pub fn n_classes(&self) -> usize {
        self.cuts.len()
    }

    /// The table row at each position: engines walk this to build their
    /// tidsets, so tid-lists come out sorted by position.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// One past each class's last position: the class boundaries.
    pub fn cuts(&self) -> &[u32] {
        &self.cuts
    }

    /// Tallies a dense tidset over positions: `counts[c]` becomes the
    /// number of its positions in class `c`, through one split count under
    /// the process-selected [`Kernel`]. Returns the tidset's support.
    pub fn count_dense(&self, tids: &Bitset, counts: &mut [u64]) -> u64 {
        self.count_dense_with(kernels::selected(), tids, counts)
    }

    /// [`ClassMasks::count_dense`] under an explicit [`Kernel`] — how
    /// tests and benches pin a kernel without touching process state.
    pub fn count_dense_with(&self, kernel: Kernel, tids: &Bitset, counts: &mut [u64]) -> u64 {
        let support = kernel.split_count(tids.words(), &self.cuts, counts);
        prefixes_to_counts(counts);
        support
    }

    /// Writes `a & b` into `out` and tallies it like
    /// [`ClassMasks::count_dense`], in one fused pass over `a` and `b`.
    /// Returns the intersection's support.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different word lengths.
    pub fn and_count_into(
        &self,
        a: &Bitset,
        b: &Bitset,
        out: &mut AlignedWords,
        counts: &mut [u64],
    ) -> u64 {
        out.resize_for_overwrite(a.n_words());
        let support = kernels::selected().and_split_into(
            a.words(),
            b.words(),
            out.as_mut_slice(),
            &self.cuts,
            counts,
        );
        prefixes_to_counts(counts);
        support
    }

    /// Tallies a tid-list sorted by position: `counts[c] = |{p ∈ tids :
    /// p in class c}|`, by binary search for each class boundary.
    pub fn count_sparse(&self, tids: &[u32], counts: &mut [u64]) {
        self.fold_sparse(tids, counts, |slot, n| *slot = n);
    }

    /// Subtracts the per-class membership of `tids` from `counts` —
    /// the dEclat step: `counts(child) = counts(parent) − counts(diffset)`.
    pub fn subtract_sparse(&self, tids: &[u32], counts: &mut [u64]) {
        self.fold_sparse(tids, counts, |slot, n| *slot -= n);
    }

    /// Calls `apply(counts[c], n)` with the number `n` of `tids` in class
    /// `c`, for every class.
    fn fold_sparse(&self, tids: &[u32], counts: &mut [u64], apply: impl Fn(&mut u64, u64)) {
        debug_assert_eq!(counts.len(), self.cuts.len());
        let mut below = 0;
        for (slot, &cut) in counts.iter_mut().zip(&self.cuts) {
            let upto = below + tids[below..].partition_point(|&p| p < cut);
            apply(slot, (upto - below) as u64);
            below = upto;
        }
    }

    /// Rebuilds an aggregate payload from per-class counts.
    pub fn decode<P: Payload>(&self, counts: &[u64]) -> P {
        P::decode_classes(counts)
    }
}

/// Turns the popcounts below each cut into per-class counts.
fn prefixes_to_counts(counts: &mut [u64]) {
    for c in (1..counts.len()).rev() {
        counts[c] -= counts[c - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tests::Classes;
    use crate::payload::CountPayload;
    use crate::vertical;

    /// The positions of `rows`, ascending: how a test hands row ids to
    /// the position-based tallies.
    fn positions(masks: &ClassMasks, rows: &[u32]) -> Vec<u32> {
        (0..masks.rows().len() as u32)
            .filter(|&p| rows.contains(&masks.rows()[p as usize]))
            .collect()
    }

    #[test]
    fn rows_are_numbered_class_by_class_in_table_order() {
        // Rows 0..10 in class t % 4, where class 3 is none.
        let payloads: Vec<Classes> = (0..10).map(Classes::of_row).collect();
        let masks = ClassMasks::build(&payloads).expect("indicators are maskable");
        assert_eq!(masks.n_classes(), 3);
        assert_eq!(masks.rows(), &[0, 4, 8, 1, 5, 9, 2, 6, 3, 7]);
        assert_eq!(masks.cuts(), &[3, 6, 8]);
    }

    #[test]
    fn indicator_payload_round_trips_through_the_layout() {
        let payloads: Vec<Classes> = (0..10).map(Classes::of_row).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let rows: Vec<u32> = vec![1, 4, 7, 9];
        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&positions(&masks, &rows), &mut counts);
        let decoded: Classes = masks.decode(&counts);
        assert_eq!(decoded, vertical::sum_payloads(&rows, &payloads));
    }

    #[test]
    fn dense_and_sparse_tallies_agree() {
        let payloads: Vec<Classes> = (0..200).map(Classes::of_row).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let tids = positions(&masks, &(0..200).step_by(3).collect::<Vec<u32>>());
        let mut bs = Bitset::zeros(200);
        for &t in &tids {
            bs.set(t as usize);
        }
        let mut dense = vec![0u64; masks.n_classes()];
        let mut sparse = vec![0u64; masks.n_classes()];
        assert_eq!(masks.count_dense(&bs, &mut dense), tids.len() as u64);
        masks.count_sparse(&tids, &mut sparse);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn subtract_sparse_implements_the_diffset_step() {
        let payloads: Vec<Classes> = (0..50).map(Classes::of_row).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let parent: Vec<u32> = (0..50).collect();
        let child: Vec<u32> = (0..50).filter(|p| p % 5 != 0).collect();
        let diff: Vec<u32> = (0..50).step_by(5).collect();

        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&parent, &mut counts);
        masks.subtract_sparse(&diff, &mut counts);
        let mut expected = vec![0u64; masks.n_classes()];
        masks.count_sparse(&child, &mut expected);
        assert_eq!(counts, expected);
    }

    /// The fused AND + split count must equal a per-position scan of
    /// the intersection, under every kernel, across universes that
    /// exercise partial blocks and trailing words.
    #[test]
    fn fused_intersection_matches_a_scan_for_every_kernel() {
        for n_rows in [8usize, 63, 64, 65, 511, 512, 513, 1000] {
            let payloads: Vec<Classes> = (0..n_rows).map(Classes::of_row).collect();
            let masks = ClassMasks::build(&payloads).unwrap();
            let (mut a, mut b) = (Bitset::zeros(n_rows), Bitset::zeros(n_rows));
            for p in (0..n_rows).step_by(2) {
                a.set(p);
            }
            for p in (0..n_rows).step_by(3) {
                b.set(p);
            }
            let both: Vec<u32> = a.and(&b).iter_ones().map(|p| p as u32).collect();
            let mut reference = vec![0u64; 3];
            masks.count_sparse(&both, &mut reference);
            let mut out = AlignedWords::from_slice(&vec![u64::MAX; 40]); // stale
            let mut fused = vec![u64::MAX; 3]; // stale: must be overwritten
            let support = masks.and_count_into(&a, &b, &mut out, &mut fused);
            assert_eq!(support, both.len() as u64, "n_rows={n_rows}");
            assert_eq!(fused, reference, "n_rows={n_rows}");
            assert_eq!(Bitset::from_words(out), a.and(&b), "n_rows={n_rows}");
            for kernel in Kernel::ALL {
                let mut counts = vec![u64::MAX; 3];
                let support = masks.count_dense_with(kernel, &a.and(&b), &mut counts);
                assert_eq!(support, both.len() as u64, "{kernel} n_rows={n_rows}");
                assert_eq!(counts, reference, "{kernel} n_rows={n_rows}");
            }
        }
    }

    #[test]
    fn rows_in_several_classes_do_not_lower() {
        // Bit planes, pairs and arrays put one row in several classes.
        let counts: Vec<CountPayload> = (0..6).map(CountPayload).collect();
        assert!(ClassMasks::build(&counts).is_none());
        let pairs: Vec<(Classes, Classes)> = (0..6)
            .map(|t| (Classes::of_row(t), Classes::of_row(t)))
            .collect();
        assert!(ClassMasks::build(&pairs).is_none());
        let arrays: Vec<[Classes; 2]> = (0..6).map(|t| [Classes::of_row(t); 2]).collect();
        assert!(ClassMasks::build(&arrays).is_none());
    }

    #[test]
    fn unit_payload_lowers_to_zero_classes() {
        let masks = ClassMasks::build(&[(), (), ()]).expect("() is trivially maskable");
        assert_eq!(masks.n_classes(), 0);
        assert_eq!(
            masks.rows(),
            &[0, 1, 2],
            "rows in no class keep table order"
        );
        let decoded: () = masks.decode(&[]);
        let () = decoded;
    }
}
