//! Outcome tallies `(T, F, ⊥)` carried through mining as [`fpm::Payload`]s,
//! and the confusion cells every metric's tallies derive from.

use crate::stats::BetaPosterior;
use crate::{Metric, Outcome};
use fpm::MaskSpec;
use serde::{Deserialize, Serialize};

/// Maximum number of metrics that one mining pass can tally simultaneously.
///
/// Algorithm 1 of the paper extends "straightforwardly" to multiple outcome
/// functions; we bound the number so the per-FP-tree-node payload stays a
/// fixed-size value (no heap allocation on the mining hot path).
pub const MAX_METRICS: usize = 8;

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
            self.t as f64 / self.n() as f64
        }
    }

    /// The Bayesian posterior `Beta(k⁺ + 1, k⁻ + 1)` of the positive rate,
    /// starting from the uniform prior (§3.3). Well-defined even when
    /// `k⁺ + k⁻ = 0`.
    pub fn posterior(&self) -> BetaPosterior {
        BetaPosterior::new(self.t as f64 + 1.0, self.f as f64 + 1.0)
    }
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
    /// per-transaction tally is a membership indicator (each field 0 or
    /// 1), which is exactly the [`OutcomeCounts::from_outcome`] shape the
    /// explorer fuses into mining.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        payloads
            .iter()
            .all(|c| c.t <= 1 && c.f <= 1 && c.bot <= 1)
            .then(|| MaskSpec::leaf(3))
    }
    fn encode_classes(&self, _spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        if self.t == 1 {
            set(0);
        }
        if self.f == 1 {
            set(1);
        }
        if self.bot == 1 {
            set(2);
        }
    }
    fn decode_classes(_spec: &MaskSpec, counts: &[u64]) -> Self {
        OutcomeCounts {
            t: counts[0] as u32,
            f: counts[1] as u32,
            bot: counts[2] as u32,
        }
    }
}

/// A fixed-capacity stack of [`OutcomeCounts`], one per analyzed metric.
///
/// This is the payload DivExplorer fuses into mining when several metrics
/// are explored in one pass. Capacity is [`MAX_METRICS`]; the live prefix
/// length is uniform across all payloads of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiCounts {
    counts: [OutcomeCounts; MAX_METRICS],
    len: u8,
}

impl MultiCounts {
    /// An all-zero tally for `n_metrics` metrics.
    ///
    /// # Panics
    ///
    /// Panics if `n_metrics > MAX_METRICS`.
    pub fn empty(n_metrics: usize) -> Self {
        assert!(
            n_metrics <= MAX_METRICS,
            "at most {MAX_METRICS} metrics per pass"
        );
        MultiCounts {
            counts: [OutcomeCounts::default(); MAX_METRICS],
            len: n_metrics as u8,
        }
    }

    /// Tally of a single instance under each metric's outcome.
    pub fn from_outcomes(outcomes: &[Outcome]) -> Self {
        let mut mc = Self::empty(outcomes.len());
        for (i, &o) in outcomes.iter().enumerate() {
            mc.counts[i] = OutcomeCounts::from_outcome(o);
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

    /// The tallies of each of `metrics` over a row set whose confusion
    /// matrix is `cells`: each metric's `(T, F, ⊥)` are sums of cells
    /// through [`Metric::outcome`], so they equal the per-row tallies
    /// merged over the same rows, exactly.
    ///
    /// # Panics
    ///
    /// Panics if `metrics.len() > MAX_METRICS`.
    pub(crate) fn derive(cells: &ConfusionCells, metrics: &[Metric]) -> Self {
        let mut mc = Self::empty(metrics.len());
        for (slot, &metric) in mc.counts.iter_mut().zip(metrics) {
            *slot = cells.outcome_counts(metric);
        }
        mc
    }
}

impl fpm::Payload for MultiCounts {
    fn zero() -> Self {
        // The zero of the monoid adapts its arity on first merge.
        MultiCounts {
            counts: [OutcomeCounts::default(); MAX_METRICS],
            len: 0,
        }
    }
    fn merge(&mut self, other: &Self) {
        if self.len == 0 {
            self.len = other.len;
        }
        debug_assert!(other.len == 0 || other.len == self.len);
        for i in 0..self.len as usize {
            fpm::Payload::merge(&mut self.counts[i], &other.counts[i]);
        }
    }

    /// Lowers to `3 × n_metrics` classes (metric `m`'s `T`/`F`/`⊥` are
    /// classes `3m`, `3m+1`, `3m+2`) when the run's payloads share one
    /// arity and every per-transaction tally is a membership indicator.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let len = payloads.first().map_or(0, |p| p.len());
        let uniform_indicators = payloads.iter().all(|p| {
            p.len() == len
                && p.as_slice()
                    .iter()
                    .all(|c| c.t <= 1 && c.f <= 1 && c.bot <= 1)
        });
        uniform_indicators.then(|| MaskSpec::leaf(3 * len))
    }
    fn encode_classes(&self, _spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        for (m, c) in self.as_slice().iter().enumerate() {
            if c.t == 1 {
                set(3 * m);
            }
            if c.f == 1 {
                set(3 * m + 1);
            }
            if c.bot == 1 {
                set(3 * m + 2);
            }
        }
    }
    fn decode_classes(spec: &MaskSpec, counts: &[u64]) -> Self {
        let len = spec.n_classes() / 3;
        let mut mc = MultiCounts::empty(len);
        for m in 0..len {
            mc.counts[m] = OutcomeCounts {
                t: counts[3 * m] as u32,
                f: counts[3 * m + 1] as u32,
                bot: counts[3 * m + 2] as u32,
            };
        }
        mc
    }
}

/// The confusion matrix of one row set: how many of its rows fall in
/// each (ground truth `v`, prediction `u`) cell.
///
/// Every [`Metric`] is an outcome function of `(v, u)` (Definition 3.2),
/// so these four counts determine every metric's `(T, F, ⊥)` tallies
/// ([`ConfusionCells::outcome_counts`], [`MultiCounts::derive`]). This
/// is what the recount path tallies: 16 bytes per row set, whatever the
/// metric count.
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
    /// Counts one more row with ground truth `v` and prediction `u`.
    pub(crate) fn add_row(&mut self, v: bool, u: bool) {
        *self.cell_mut(v, u) += 1;
    }

    /// The number of rows in cell `(v, u)`.
    fn cell(&self, v: bool, u: bool) -> u32 {
        match (v, u) {
            (true, true) => self.true_pos,
            (false, true) => self.false_pos,
            (true, false) => self.false_neg,
            (false, false) => self.true_neg,
        }
    }

    fn cell_mut(&mut self, v: bool, u: bool) -> &mut u32 {
        match (v, u) {
            (true, true) => &mut self.true_pos,
            (false, true) => &mut self.false_pos,
            (true, false) => &mut self.false_neg,
            (false, false) => &mut self.true_neg,
        }
    }

    /// Rows in the set (the sum of the four cells).
    pub(crate) fn support(&self) -> u64 {
        self.true_pos as u64 + self.false_pos as u64 + self.false_neg as u64 + self.true_neg as u64
    }

    /// `metric`'s `(T, F, ⊥)` tallies over the row set: each cell's rows
    /// land in the bucket of `metric.outcome(v, u)`.
    pub(crate) fn outcome_counts(&self, metric: Metric) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for v in [false, true] {
            for u in [false, true] {
                let n = self.cell(v, u);
                match metric.outcome(v, u) {
                    Outcome::T => counts.t += n,
                    Outcome::F => counts.f += n,
                    Outcome::Bot => counts.bot += n,
                }
            }
        }
        counts
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
        let [true_pos, false_pos, false_neg] = counted.0;
        ConfusionCells {
            true_pos,
            false_pos,
            false_neg,
            true_neg: (support - true_pos as u64 - false_pos as u64 - false_neg as u64) as u32,
        }
    }
}

/// The recount payload behind [`ConfusionCells`]: the TP, FP and FN
/// cells of a row set. It lowers to three class masks whatever the
/// metric count; TN is never counted, since it is the support minus the
/// other three ([`ConfusionCells::from_counted`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CountedCells([u32; 3]);

impl CountedCells {
    /// The payload of one row: the indicator of its cell, all zero for TN.
    pub(crate) fn of_row(v: bool, u: bool) -> Self {
        let mut cells = [0; 3];
        match (v, u) {
            (true, true) => cells[0] = 1,
            (false, true) => cells[1] = 1,
            (true, false) => cells[2] = 1,
            (false, false) => {}
        }
        CountedCells(cells)
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
    /// is a cell indicator, the [`CountedCells::of_row`] shape.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        payloads
            .iter()
            .all(|p| p.0.iter().all(|&c| c <= 1))
            .then(|| MaskSpec::leaf(3))
    }
    fn encode_classes(&self, _spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        for (class, &c) in self.0.iter().enumerate() {
            if c == 1 {
                set(class);
            }
        }
    }
    fn decode_classes(_spec: &MaskSpec, counts: &[u64]) -> Self {
        CountedCells([counts[0] as u32, counts[1] as u32, counts[2] as u32])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::Payload;

    #[test]
    fn derived_counts_match_the_per_row_outcome_for_every_metric_and_cell() {
        const ALL: [Metric; 12] = [
            Metric::FalsePositiveRate,
            Metric::FalseNegativeRate,
            Metric::ErrorRate,
            Metric::Accuracy,
            Metric::TruePositiveRate,
            Metric::TrueNegativeRate,
            Metric::PositivePredictiveValue,
            Metric::NegativePredictiveValue,
            Metric::FalseDiscoveryRate,
            Metric::FalseOmissionRate,
            Metric::PositiveRate,
            Metric::PredictedPositiveRate,
        ];
        for metric in ALL {
            for v in [false, true] {
                for u in [false, true] {
                    let mut cells = ConfusionCells::default();
                    cells.add_row(v, u);
                    assert_eq!(
                        cells.outcome_counts(metric),
                        OutcomeCounts::from_outcome(metric.outcome(v, u)),
                        "{metric} at v={v} u={u}"
                    );
                }
            }
        }
        for pass in ALL.chunks(MAX_METRICS) {
            let mut merged = MultiCounts::zero();
            let mut cells = ConfusionCells::default();
            for (v, u) in [(true, true), (false, true), (false, true), (true, false)] {
                let outcomes: Vec<Outcome> = pass.iter().map(|m| m.outcome(v, u)).collect();
                merged.merge(&MultiCounts::from_outcomes(&outcomes));
                cells.add_row(v, u);
            }
            assert_eq!(MultiCounts::derive(&cells, pass), merged);
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
        let tids = [0u32, 2, 3, 4];
        let mut counts = vec![0u64; 3];
        masks.count_sparse(&tids, &mut counts);
        let decoded: CountedCells = masks.decode(&counts);
        let mut expected = ConfusionCells::default();
        for &t in &tids {
            let (v, u) = rows[t as usize];
            expected.add_row(v, u);
        }
        assert_eq!(
            ConfusionCells::from_counted(tids.len() as u64, &decoded),
            expected
        );
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
        let mut base = ConfusionCells::default();
        let mut flipped = ConfusionCells::default();
        let mut moved = ConfusionCells::default();
        for (r, &(v, u)) in base_rows.iter().enumerate() {
            base.add_row(v, u);
            let u2 = if r == 0 || r == 2 { !u } else { u };
            flipped.add_row(v, u2);
            if u2 != u {
                moved.add_row(v, u2);
            }
        }
        assert_eq!(base.with_moved_rows(&moved), flipped);
        assert_eq!(base.with_moved_rows(&ConfusionCells::default()), base);
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
    fn multi_counts_tracks_each_metric() {
        use crate::Outcome::{Bot, F, T};
        let mut a = MultiCounts::from_outcomes(&[T, Bot]);
        a.merge(&MultiCounts::from_outcomes(&[F, Bot]));
        a.merge(&MultiCounts::from_outcomes(&[T, T]));
        assert_eq!(a.get(0), OutcomeCounts { t: 2, f: 1, bot: 0 });
        assert_eq!(a.get(1), OutcomeCounts { t: 1, f: 0, bot: 2 });
    }

    #[test]
    fn multi_counts_zero_adapts_arity() {
        use crate::Outcome::T;
        let mut z = MultiCounts::zero();
        assert!(z.is_empty());
        z.merge(&MultiCounts::from_outcomes(&[T, T, T]));
        assert_eq!(z.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_metrics_panics() {
        let _ = MultiCounts::empty(MAX_METRICS + 1);
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
        let tids = [0u32, 2, 3, 5];
        let mut counts = vec![0u64; 3];
        masks.count_sparse(&tids, &mut counts);
        let decoded: OutcomeCounts = masks.decode(&counts);
        let mut expected = OutcomeCounts::zero();
        for &t in &tids {
            expected.merge(&payloads[t as usize]);
        }
        assert_eq!(decoded, expected);
    }

    #[test]
    fn aggregated_outcome_counts_are_not_maskable() {
        // A tally of 2 is not a class membership; the lowering must bail.
        let payloads = [OutcomeCounts { t: 2, f: 0, bot: 0 }];
        assert!(OutcomeCounts::mask_spec(&payloads).is_none());
    }

    #[test]
    fn multi_counts_round_trip_through_class_masks() {
        use crate::Outcome::{Bot, F, T};
        let payloads: Vec<MultiCounts> = [[T, Bot], [F, T], [Bot, Bot], [T, F]]
            .iter()
            .map(|os| MultiCounts::from_outcomes(os))
            .collect();
        let masks = fpm::ClassMasks::build(&payloads).expect("indicators are maskable");
        assert_eq!(masks.n_classes(), 6);
        let tids = [1u32, 2, 3];
        let mut counts = vec![0u64; 6];
        masks.count_sparse(&tids, &mut counts);
        let decoded: MultiCounts = masks.decode(&counts);
        let mut expected = MultiCounts::zero();
        for &t in &tids {
            expected.merge(&payloads[t as usize]);
        }
        assert_eq!(decoded, expected);
    }

    #[test]
    fn mixed_arity_multi_counts_are_not_maskable() {
        use crate::Outcome::T;
        let payloads = [
            MultiCounts::from_outcomes(&[T, T]),
            MultiCounts::from_outcomes(&[T]),
        ];
        assert!(MultiCounts::mask_spec(&payloads).is_none());
    }
}
