//! The confusion cells every pass tallies, and the outcome tallies
//! `(T, F, ⊥)` each metric derives from them.
//!
//! Every [`Metric`] is an outcome function of `(v, u)` (Definition 3.2),
//! so the four confusion cells of a row set fix every metric's tallies.
//! Mining and the recount therefore fold one payload, [`CountedCells`],
//! whatever the metric list, and a metric's `(T, F, ⊥)` is derived from
//! the cells when it is read.

use crate::stats::BetaPosterior;
use crate::{Metric, Outcome};
use fpm::MaskSpec;
use serde::{Deserialize, Serialize};

/// Outcome tallies of one instance set: how many instances had outcome `T`,
/// `F`, and `⊥` under a given outcome function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Count of `T` outcomes (`k⁺` in the paper's §3.3).
    pub t: u32,
    /// Count of `F` outcomes (`k⁻`).
    pub f: u32,
    /// Count of `⊥` outcomes (outside the reference class).
    pub bot: u32,
}

impl OutcomeCounts {
    /// Tally of a single instance.
    pub fn from_outcome(o: Outcome) -> Self {
        match o {
            Outcome::T => OutcomeCounts { t: 1, f: 0, bot: 0 },
            Outcome::F => OutcomeCounts { t: 0, f: 1, bot: 0 },
            Outcome::Bot => OutcomeCounts { t: 0, f: 0, bot: 1 },
        }
    }

    /// Number of instances inside the reference class (`k⁺ + k⁻`).
    pub fn n(&self) -> u32 {
        self.t + self.f
    }

    /// Total instances tallied, including `⊥` (the itemset's support count).
    pub fn total(&self) -> u32 {
        self.t + self.f + self.bot
    }

    /// The positive outcome rate `k⁺ / (k⁺ + k⁻)` (Eq. 2).
    ///
    /// Returns `NaN` when the reference class is empty (e.g. the FPR of an
    /// itemset in which every instance has positive ground truth) — such
    /// rates are undefined and excluded from rankings.
    pub fn rate(&self) -> f64 {
        if self.n() == 0 {
            f64::NAN
        } else {
            count_as_f64(self.t) / count_as_f64(self.n())
        }
    }

    /// The Bayesian posterior `Beta(k⁺ + 1, k⁻ + 1)` of the positive rate,
    /// starting from the uniform prior (§3.3). Well-defined even when
    /// `k⁺ + k⁻ = 0`.
    pub fn posterior(&self) -> BetaPosterior {
        BetaPosterior::new(count_as_f64(self.t) + 1.0, count_as_f64(self.f) + 1.0)
    }
}

/// `x as f64`, built from the bits of `2⁵² + x` into a whole register:
/// the scalar conversion writes half of one and so waits on its last
/// writer, in a loop over patterns the previous pattern's division.
fn count_as_f64(x: u32) -> f64 {
    f64::from_bits(0x4330_0000_0000_0000 | u64::from(x)) - 4_503_599_627_370_496.0
}

impl fpm::Payload for OutcomeCounts {
    fn zero() -> Self {
        OutcomeCounts::default()
    }
    fn merge(&mut self, other: &Self) {
        self.t += other.t;
        self.f += other.f;
        self.bot += other.bot;
    }

    /// Lowers to three counting classes — `T`, `F`, `⊥` — when every
    /// per-transaction tally is the indicator of at most one outcome, the
    /// [`OutcomeCounts::from_outcome`] shape.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        payloads
            .iter()
            .all(|c| u64::from(c.t) + u64::from(c.f) + u64::from(c.bot) <= 1)
            .then(|| MaskSpec::leaf(3))
    }
    fn class_of(&self) -> Option<usize> {
        [self.t, self.f, self.bot].iter().position(|&c| c == 1)
    }
    fn decode_classes(counts: &[u64]) -> Self {
        OutcomeCounts {
            t: counts[0] as u32,
            f: counts[1] as u32,
            bot: counts[2] as u32,
        }
    }
}

/// The `(T, F, ⊥)` tallies of a report's metrics over one row set, in the
/// report's metric order: a value derived from the row set's cells
/// ([`crate::DivergenceReport::counts`]), never tallied. It has room for
/// every [`Metric`], so building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiCounts {
    counts: [OutcomeCounts; Metric::ALL.len()],
    len: u8,
}

impl MultiCounts {
    /// The tallies of each of `metrics` over a row set of `support` rows
    /// whose counted cells are `cells`.
    pub(crate) fn derive(support: u64, cells: &CountedCells, metrics: &[MetricCells]) -> Self {
        let mut mc = MultiCounts {
            counts: [OutcomeCounts::default(); Metric::ALL.len()],
            len: metrics.len() as u8,
        };
        for (slot, metric) in mc.counts.iter_mut().zip(metrics) {
            *slot = metric.counts(support, cells);
        }
        mc
    }

    /// Number of live metrics.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no metrics are tallied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tally of metric `m`.
    pub fn get(&self, m: usize) -> OutcomeCounts {
        debug_assert!(m < self.len());
        self.counts[m]
    }

    /// The live tallies as a slice.
    pub fn as_slice(&self) -> &[OutcomeCounts] {
        &self.counts[..self.len()]
    }
}

/// The `(v, u)` of each confusion cell: TP, FP and FN in [`CountedCells`]
/// order, then TN.
const CELLS: [(bool, bool); 4] = [(true, true), (false, true), (true, false), (false, false)];

/// The payload every pass tallies: the TP, FP and FN cells of a row set,
/// three class masks whatever the metric count. TN is the row set's
/// support minus the other three. Each metric's `(T, F, ⊥)` is derived
/// from it ([`CountedCells::outcome_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountedCells([u32; 3]);

impl CountedCells {
    /// The payload of one row with ground truth `v` and prediction `u`:
    /// the indicator of its cell, all zero for TN.
    pub fn of_row(v: bool, u: bool) -> Self {
        let mut cells = [0; 3];
        if let Some(cell) = CELLS[..3].iter().position(|&c| c == (v, u)) {
            cells[cell] = 1;
        }
        CountedCells(cells)
    }

    /// The cells of all the rows together: row `r` has ground truth
    /// `v[r]` and prediction `u[r]`.
    pub fn of_rows(v: &[bool], u: &[bool]) -> Self {
        assert_eq!(v.len(), u.len(), "one prediction per row");
        let mut cells = CountedCells::default();
        for (&v, &u) in v.iter().zip(u) {
            fpm::Payload::merge(&mut cells, &CountedCells::of_row(v, u));
        }
        cells
    }

    /// `metric`'s `(T, F, ⊥)` tallies over a row set of `support` rows
    /// whose counted cells are `self`: each cell's rows land in the bucket
    /// of `metric.outcome(v, u)`.
    pub fn outcome_counts(&self, support: u64, metric: Metric) -> OutcomeCounts {
        MetricCells::of(metric).counts(support, self)
    }

    /// The four cells of a row set with `support` rows, in [`CELLS`]
    /// order.
    #[inline]
    fn with_true_neg(&self, support: u64) -> [u32; 4] {
        let [true_pos, false_pos, false_neg] = self.0;
        let true_neg = support as u32 - true_pos - false_pos - false_neg;
        [true_pos, false_pos, false_neg, true_neg]
    }
}

impl fpm::Payload for CountedCells {
    fn zero() -> Self {
        CountedCells::default()
    }
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Lowers to the three classes TP, FP, FN when every per-row payload
    /// is the indicator of at most one cell, the [`CountedCells::of_row`]
    /// shape (a TN row is in no class).
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        payloads
            .iter()
            .all(|p| p.0.iter().map(|&c| u64::from(c)).sum::<u64>() <= 1)
            .then(|| MaskSpec::leaf(3))
    }
    fn class_of(&self) -> Option<usize> {
        self.0.iter().position(|&c| c == 1)
    }
    fn decode_classes(counts: &[u64]) -> Self {
        CountedCells([counts[0] as u32, counts[1] as u32, counts[2] as u32])
    }
}

/// Which cells one metric's `T` and `F` outcomes cover, resolved once from
/// [`Metric::outcome`] as a mask per cell: a lookup adds masked cells,
/// with no branch and no outcome function evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetricCells {
    t: [u32; 4],
    f: [u32; 4],
}

impl MetricCells {
    /// Each of `metrics` resolved, with its tallies over a dataset of
    /// `n_rows` rows whose cells are `dataset`.
    pub(crate) fn with_dataset(
        metrics: &[Metric],
        n_rows: usize,
        dataset: &CountedCells,
    ) -> Vec<(MetricCells, OutcomeCounts)> {
        metrics
            .iter()
            .map(|&m| {
                let cells = MetricCells::of(m);
                (cells, cells.counts(n_rows as u64, dataset))
            })
            .collect()
    }

    pub(crate) fn of(metric: Metric) -> Self {
        let mask = |o| CELLS.map(|(v, u)| u32::MAX * u32::from(metric.outcome(v, u) == o));
        MetricCells {
            t: mask(Outcome::T),
            f: mask(Outcome::F),
        }
    }

    /// The metric's `(T, F, ⊥)` over a row set of `support` rows whose
    /// counted cells are `cells`.
    #[inline]
    pub(crate) fn counts(&self, support: u64, cells: &CountedCells) -> OutcomeCounts {
        let c = cells.with_true_neg(support);
        let sum = |m: [u32; 4]| (c[0] & m[0]) + (c[1] & m[1]) + (c[2] & m[2]) + (c[3] & m[3]);
        let (t, f) = (sum(self.t), sum(self.f));
        OutcomeCounts {
            t,
            f,
            bot: support as u32 - t - f,
        }
    }
}

/// The confusion matrix of one row set, TN included: what the recount
/// keeps per candidate ([`crate::LatticeTallies`], 16 bytes), since moving
/// rows to new predictions moves them between TN and FP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ConfusionCells {
    /// Rows with `v = 1, u = 1`.
    true_pos: u32,
    /// Rows with `v = 0, u = 1`.
    false_pos: u32,
    /// Rows with `v = 1, u = 0`.
    false_neg: u32,
    /// Rows with `v = 0, u = 0`.
    true_neg: u32,
}

impl ConfusionCells {
    /// Rows in the set (the sum of the four cells).
    pub(crate) fn support(&self) -> u64 {
        self.true_pos as u64 + self.false_pos as u64 + self.false_neg as u64 + self.true_neg as u64
    }

    /// The cells the payload counts; TN is what they leave of
    /// [`ConfusionCells::support`].
    pub(crate) fn counted(&self) -> CountedCells {
        CountedCells([self.true_pos, self.false_pos, self.false_neg])
    }

    /// The cells after the rows of `moved` flipped their prediction.
    ///
    /// `moved` counts those rows in their *new* cells. A row now in
    /// `(v, u)` was in `(v, ¬u)`, so rows move between TP and FN and
    /// between FP and TN. Each cell first loses the rows that left it —
    /// they were counted in it, so the subtraction cannot underflow —
    /// and then gains the rows that entered it.
    pub(crate) fn with_moved_rows(&self, moved: &ConfusionCells) -> Self {
        ConfusionCells {
            true_pos: self.true_pos - moved.false_neg + moved.true_pos,
            false_pos: self.false_pos - moved.true_neg + moved.false_pos,
            false_neg: self.false_neg - moved.true_pos + moved.false_neg,
            true_neg: self.true_neg - moved.false_pos + moved.true_neg,
        }
    }

    /// The cells of a row set with `support` rows whose TP, FP and FN
    /// cells the recount counted as `counted`; TN is the rest.
    pub(crate) fn from_counted(support: u64, counted: &CountedCells) -> Self {
        let [true_pos, false_pos, false_neg, true_neg] = counted.with_true_neg(support);
        ConfusionCells {
            true_pos,
            false_pos,
            false_neg,
            true_neg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::Payload;

    /// The cells of `rows`, with their count.
    fn cells_of(rows: &[(bool, bool)]) -> (u64, CountedCells) {
        let mut cells = CountedCells::zero();
        for &(v, u) in rows {
            cells.merge(&CountedCells::of_row(v, u));
        }
        (rows.len() as u64, cells)
    }

    #[test]
    fn derived_counts_match_the_per_row_outcome_for_every_metric_and_cell() {
        let rows = [(true, true), (false, true), (false, true), (true, false)];
        let resolved: Vec<MetricCells> = Metric::ALL.iter().map(|&m| MetricCells::of(m)).collect();
        let (support, cells) = cells_of(&rows);
        let derived = MultiCounts::derive(support, &cells, &resolved);
        assert_eq!(
            derived.len(),
            Metric::ALL.len(),
            "one pass holds every metric"
        );
        for (m, &metric) in Metric::ALL.iter().enumerate() {
            for &(v, u) in &CELLS {
                let (support, cells) = cells_of(&[(v, u)]);
                assert_eq!(
                    cells.outcome_counts(support, metric),
                    OutcomeCounts::from_outcome(metric.outcome(v, u)),
                    "{metric} at v={v} u={u}"
                );
            }
            let mut merged = OutcomeCounts::zero();
            for &(v, u) in &rows {
                merged.merge(&OutcomeCounts::from_outcome(metric.outcome(v, u)));
            }
            assert_eq!(derived.get(m), merged, "{metric}");
        }
    }

    #[test]
    fn counted_cells_round_trip_through_three_class_masks() {
        let rows = [
            (true, true),
            (false, true),
            (true, false),
            (false, false),
            (true, true),
        ];
        let payloads: Vec<CountedCells> = rows
            .iter()
            .map(|&(v, u)| CountedCells::of_row(v, u))
            .collect();
        let masks = fpm::ClassMasks::build(&payloads).expect("indicators are maskable");
        assert_eq!(masks.n_classes(), 3);
        // TP rows first, then FP, then FN; the TN row is in no class.
        assert_eq!(masks.rows(), &[0, 4, 1, 2, 3]);
        assert_eq!(masks.cuts(), &[2, 3, 4]);
        let picked_rows = [0u32, 2, 3, 4];
        let tids = positions(&masks, &picked_rows);
        let mut counts = vec![0u64; 3];
        masks.count_sparse(&tids, &mut counts);
        let decoded: CountedCells = masks.decode(&counts);
        let picked: Vec<(bool, bool)> = picked_rows.iter().map(|&t| rows[t as usize]).collect();
        assert_eq!((tids.len() as u64, decoded), cells_of(&picked));
    }

    /// The positions of `rows` in `masks`' layout, ascending: how a test
    /// hands row ids to the position-based tallies.
    fn positions(masks: &fpm::ClassMasks, rows: &[u32]) -> Vec<u32> {
        (0..masks.rows().len() as u32)
            .filter(|&p| rows.contains(&masks.rows()[p as usize]))
            .collect()
    }

    #[test]
    fn aggregated_counted_cells_are_not_maskable() {
        // A tally of 2 is not a class membership, and a row counted in
        // two cells is in two classes; the lowering must bail on both.
        let (_, cells) = cells_of(&[(true, true), (true, true)]);
        assert!(CountedCells::mask_spec(&[cells]).is_none());
        let (_, cells) = cells_of(&[(true, true), (false, true)]);
        assert!(CountedCells::mask_spec(&[cells]).is_none());
    }

    #[test]
    fn moving_rows_flips_their_prediction_cells() {
        // Base: rows (v, u) = TP, TP, FP, FN, TN. Rows 0 and 2 flip u.
        let base_rows = [
            (true, true),
            (true, true),
            (false, true),
            (true, false),
            (false, false),
        ];
        let flipped_rows: Vec<(bool, bool)> = base_rows
            .iter()
            .enumerate()
            .map(|(r, &(v, u))| (v, u ^ (r == 0 || r == 2)))
            .collect();
        let confusion = |rows: &[(bool, bool)]| {
            let (support, cells) = cells_of(rows);
            ConfusionCells::from_counted(support, &cells)
        };
        let base = confusion(&base_rows);
        let moved = confusion(&[flipped_rows[0], flipped_rows[2]]);
        assert_eq!(base.with_moved_rows(&moved), confusion(&flipped_rows));
        assert_eq!(base.with_moved_rows(&ConfusionCells::default()), base);
        assert_eq!(base.support(), 5);
        assert_eq!(base.counted(), cells_of(&base_rows).1);
    }

    #[test]
    fn counts_convert_to_floats_exactly() {
        for x in [0, 1, 2, 12_345, 1 << 31, u32::MAX - 1, u32::MAX] {
            assert_eq!(count_as_f64(x).to_bits(), (x as f64).to_bits(), "{x}");
        }
    }

    #[test]
    fn rate_is_nan_on_empty_reference_class() {
        let c = OutcomeCounts { t: 0, f: 0, bot: 5 };
        assert!(c.rate().is_nan());
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn rate_and_posterior_agree_in_the_large_sample_limit() {
        let c = OutcomeCounts {
            t: 300,
            f: 100,
            bot: 0,
        };
        assert!((c.rate() - 0.75).abs() < 1e-12);
        assert!((c.posterior().mean() - 0.75).abs() < 0.01);
    }

    #[test]
    fn outcome_counts_merge_is_componentwise() {
        let mut a = OutcomeCounts { t: 1, f: 2, bot: 3 };
        a.merge(&OutcomeCounts {
            t: 10,
            f: 20,
            bot: 30,
        });
        assert_eq!(
            a,
            OutcomeCounts {
                t: 11,
                f: 22,
                bot: 33
            }
        );
    }

    #[test]
    fn outcome_counts_round_trip_through_class_masks() {
        use crate::Outcome::{Bot, F, T};
        let payloads: Vec<OutcomeCounts> = [T, F, Bot, T, T, F]
            .into_iter()
            .map(OutcomeCounts::from_outcome)
            .collect();
        let masks = fpm::ClassMasks::build(&payloads).expect("indicators are maskable");
        assert_eq!(masks.n_classes(), 3);
        let rows = [0u32, 2, 3, 5];
        let mut counts = vec![0u64; 3];
        masks.count_sparse(&positions(&masks, &rows), &mut counts);
        let decoded: OutcomeCounts = masks.decode(&counts);
        let mut expected = OutcomeCounts::zero();
        for &t in &rows {
            expected.merge(&payloads[t as usize]);
        }
        assert_eq!(decoded, expected);
    }

    #[test]
    fn aggregated_outcome_counts_are_not_maskable() {
        // A tally of 2 is not a class membership, and a row with two
        // outcomes is in two classes; the lowering must bail on both.
        let payloads = [OutcomeCounts { t: 2, f: 0, bot: 0 }];
        assert!(OutcomeCounts::mask_spec(&payloads).is_none());
        let payloads = [OutcomeCounts { t: 1, f: 0, bot: 1 }];
        assert!(OutcomeCounts::mask_spec(&payloads).is_none());
    }
}
