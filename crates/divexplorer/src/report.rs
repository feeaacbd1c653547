//! The output of an exploration: every frequent pattern with its outcome
//! tallies, divergences and significance, indexed for `O(1)` lookup.
//!
//! Patterns live in an [`ItemsetArena`] — one flat item buffer plus a
//! record per pattern — so building a report from a mining run moves the
//! arena in without copying a single itemset, and lookups share the
//! arena's lazily built itemset → id index. Each 24-byte record holds the
//! pattern's [`CountedCells`]; per-metric values are derived on read.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fpm::{Completeness, ItemsetArena, SubsetEdge};

use crate::counts::{ConfusionCells, CountedCells, MetricCells, MultiCounts, OutcomeCounts};
use crate::explorer::LatticeTallies;
use crate::item::ItemId;
use crate::schema::Schema;
use crate::stats::p_value_two_sided;
use crate::Metric;

/// A borrowed view of one frequent pattern (itemset) in a report.
///
/// Obtained from [`DivergenceReport::pattern`] or by iterating
/// [`DivergenceReport::patterns`]; the items point into the report's
/// arena and the tallies are derived on the stack, so no per-pattern
/// allocation happens on access.
#[derive(Debug, Clone, Copy)]
pub struct PatternRef<'a> {
    /// Canonical (sorted) item ids.
    pub items: &'a [ItemId],
    /// Support count `|D(I)|`.
    pub support: u64,
    /// Per-metric `(T, F, ⊥)` tallies, derived from the pattern's cells.
    pub counts: MultiCounts,
}

impl PatternRef<'_> {
    /// The itemset length (number of conjuncts).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty pattern (never stored in a report).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Ranking orders for [`DivergenceReport::ranked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortBy {
    /// Most positive divergence first (the paper's default ranking).
    Divergence,
    /// Most negative divergence first.
    NegativeDivergence,
    /// Largest `|Δ|` first.
    AbsDivergence,
    /// Largest support first.
    Support,
    /// Largest Welch t-statistic first.
    TStatistic,
}

/// The result of a DivExplorer run: all frequent patterns, the dataset-level
/// tallies, and lookup/ranking utilities.
///
/// By Theorem 5.1 the pattern set is *sound and complete*: it contains
/// exactly the itemsets with support ≥ the threshold, each with its exact
/// divergence — *provided* [`DivergenceReport::completeness`] is
/// [`Completeness::Complete`]. A budget-truncated exploration produces a
/// report over a subset of the frequent lattice (every stored pattern
/// still carries its exact tallies); closure-dependent analyses (Shapley,
/// global divergence) must refuse or warn on such a report.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    schema: Schema,
    metrics: Vec<Metric>,
    /// Where each metric's `T` and `F` outcomes fall among the cells.
    metric_cells: Vec<MetricCells>,
    n_rows: usize,
    min_support_count: u64,
    dataset_cells: CountedCells,
    /// Every metric's tallies over the whole dataset, derived once.
    dataset_counts: MultiCounts,
    store: ItemsetArena<CountedCells>,
    completeness: Completeness,
}

impl DivergenceReport {
    /// Assembles a report from an already-mined arena of cells.
    ///
    /// [`crate::DivExplorer::explore`] is the usual way to get a report;
    /// this constructor exists for callers that stream mining through
    /// their own [`fpm::ItemsetSink`] stack (e.g. a significance or
    /// divergence filter) into an arena and want the full report API over
    /// the filtered result. `dataset_counts` must be the cells of the
    /// whole dataset of `n_rows` rows and `store` must hold canonical
    /// itemsets.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` names a metric twice.
    pub fn from_store(
        schema: Schema,
        metrics: Vec<Metric>,
        n_rows: usize,
        min_support_count: u64,
        dataset_counts: CountedCells,
        store: ItemsetArena<CountedCells>,
    ) -> Self {
        for (i, m) in metrics.iter().enumerate() {
            assert!(!metrics[..i].contains(m), "metric {m} named twice");
        }
        let metric_cells: Vec<MetricCells> = metrics.iter().map(|&m| MetricCells::of(m)).collect();
        DivergenceReport {
            schema,
            metrics,
            n_rows,
            min_support_count,
            dataset_counts: MultiCounts::derive(n_rows as u64, &dataset_counts, &metric_cells),
            dataset_cells: dataset_counts,
            metric_cells,
            store,
            completeness: Completeness::Complete,
        }
    }

    /// Tags the report with the exploration's [`Completeness`] verdict
    /// (builder-style; [`DivergenceReport::from_store`] defaults to
    /// [`Completeness::Complete`]).
    pub fn with_completeness(mut self, completeness: Completeness) -> Self {
        self.completeness = completeness;
        self
    }

    /// Whether the exploration saw the whole frequent lattice. Truncated
    /// reports hold exact tallies for a *subset* of the frequent
    /// patterns; Theorem 5.1's completeness half does not apply to them.
    pub fn completeness(&self) -> &Completeness {
        &self.completeness
    }

    /// The report's canonical candidate lattice, the unit-payload arena
    /// that artifacts persist and the recount reads, together with the
    /// [`LatticeTallies`] of the report's own `(v, u)` over it. No row is
    /// read: the report's arena is sorted in place and its item buffer
    /// moves into the lattice.
    ///
    /// The cells are the integers the mining pass folded, so the tallies
    /// equal [`crate::DivExplorer::tally_lattice`] over the lattice under
    /// the same `(v, u)`, cell for cell; [`LatticeTallies::recount_rows`]
    /// reads 0.
    ///
    /// # Panics
    ///
    /// Panics if the report is truncated: it holds part of its lattice.
    pub fn into_lattice(self) -> (ItemsetArena<()>, LatticeTallies) {
        assert!(
            self.completeness.is_complete(),
            "a truncated report holds part of its lattice"
        );
        let mut store = self.store;
        store.sort_canonical();
        let (candidates, counted) = store.split_payloads();
        let cells = counted
            .iter()
            .enumerate()
            .map(|(id, cells)| ConfusionCells::from_counted(candidates.support(id), cells))
            .collect();
        let dataset = ConfusionCells::from_counted(self.n_rows as u64, &self.dataset_cells);
        (candidates, LatticeTallies::counted(cells, dataset))
    }

    /// Shorthand: true iff the exploration was not truncated.
    pub fn is_exploration_complete(&self) -> bool {
        self.completeness.is_complete()
    }

    /// The schema of the analyzed dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The metrics analyzed, in tally order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The tally index of a metric, if it was analyzed.
    pub fn metric_index(&self, metric: Metric) -> Option<usize> {
        self.metrics.iter().position(|&m| m == metric)
    }

    /// Number of dataset instances `|D|`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The absolute support-count threshold used by the exploration.
    pub fn min_support_count(&self) -> u64 {
        self.min_support_count
    }

    /// Number of frequent patterns found.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff no pattern met the support threshold.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The pattern at index `idx` (mining output order).
    pub fn pattern(&self, idx: usize) -> PatternRef<'_> {
        let entry = self.store.entry(idx);
        PatternRef {
            items: entry.items,
            support: entry.support,
            counts: MultiCounts::derive(entry.support, entry.payload, &self.metric_cells),
        }
    }

    /// Iterates all patterns in mining output order.
    pub fn patterns(&self) -> impl Iterator<Item = PatternRef<'_>> + '_ {
        (0..self.store.len()).map(move |idx| self.pattern(idx))
    }

    /// The items of pattern `idx`.
    pub fn items(&self, idx: usize) -> &[ItemId] {
        self.store.items(idx)
    }

    /// The support count of pattern `idx`.
    pub fn support(&self, idx: usize) -> u64 {
        self.store.support(idx)
    }

    /// The per-metric tallies of pattern `idx`, derived from its cells.
    pub fn counts(&self, idx: usize) -> MultiCounts {
        MultiCounts::derive(
            self.support(idx),
            self.store.payload(idx),
            &self.metric_cells,
        )
    }

    /// The tallies of metric `m` alone on pattern `idx`: the one
    /// derivation behind every per-metric value.
    #[inline]
    pub(crate) fn metric_counts(&self, idx: usize, m: usize) -> OutcomeCounts {
        self.metric_cells[m].counts(self.support(idx), self.store.payload(idx))
    }

    /// Index of the pattern with exactly these (sorted) items.
    ///
    /// Served by the arena's shared hash index (built once, `O(1)` per
    /// lookup). Returns `None` for the empty itemset, which is not
    /// stored; use [`DivergenceReport::divergence_of`] for divergence
    /// lookups that handle ∅.
    pub fn find(&self, items: &[ItemId]) -> Option<usize> {
        self.store.find(items)
    }

    /// The immediate sub-patterns of pattern `idx`: entry `j` says where
    /// `items(idx)` without its item `j` is — a pattern index (the one
    /// [`DivergenceReport::find`] returns), ∅, or absent from the report.
    ///
    /// Served by the arena's immediate-subset index, built for the whole
    /// report on the first call (4 bytes per stored item) and shared by
    /// the lattice-wide analyses (pruning, global divergence, corrective
    /// items).
    pub fn subsets(&self, idx: usize) -> &[SubsetEdge] {
        self.store.subsets(idx)
    }

    /// The dataset-level tallies of metric `m`.
    pub fn dataset_counts(&self, m: usize) -> OutcomeCounts {
        self.dataset_counts.get(m)
    }

    /// The overall rate `f(D)` of metric `m`.
    #[inline]
    pub fn dataset_rate(&self, m: usize) -> f64 {
        self.dataset_counts.get(m).rate()
    }

    /// The rate `f(I)` of metric `m` on pattern `idx`.
    #[inline]
    pub fn rate(&self, idx: usize, m: usize) -> f64 {
        self.metric_counts(idx, m).rate()
    }

    /// The divergence `Δ_f(I) = f(I) − f(D)` of pattern `idx` (Eq. 1).
    ///
    /// `NaN` when `f(I)` is undefined (empty reference class).
    #[inline]
    pub fn divergence(&self, idx: usize, m: usize) -> f64 {
        self.rate(idx, m) - self.dataset_rate(m)
    }

    /// The divergence of an arbitrary (sorted) itemset: `Some(0.0)` for the
    /// empty itemset (by definition `Δ(∅) = 0`), the stored value for a
    /// frequent itemset, `None` for an infrequent one.
    pub fn divergence_of(&self, items: &[ItemId], m: usize) -> Option<f64> {
        if items.is_empty() {
            return Some(0.0);
        }
        self.find(items).map(|idx| self.divergence(idx, m))
    }

    /// Support fraction `sup(I)` of pattern `idx`.
    pub fn support_fraction(&self, idx: usize) -> f64 {
        self.support(idx) as f64 / self.n_rows as f64
    }

    /// Welch t-statistic between the Beta posteriors of the pattern's rate
    /// and the dataset's rate (§3.3).
    pub fn t_statistic(&self, idx: usize, m: usize) -> f64 {
        self.t_statistics(m)(idx)
    }

    /// Metric `m`'s t-statistic of any pattern, the dataset side computed once.
    fn t_statistics(&self, m: usize) -> impl Fn(usize) -> f64 + '_ {
        let against_dataset = self.dataset_counts.get(m).posterior().welch_t_against();
        move |idx| against_dataset(&self.metric_counts(idx, m).posterior())
    }

    /// Two-sided p-value of the pattern's divergence (normal approximation
    /// of the Welch test on the Beta posteriors).
    pub fn p_value(&self, idx: usize, m: usize) -> f64 {
        p_value_two_sided(self.t_statistic(idx, m))
    }

    /// Pattern indices whose divergence is significant under
    /// Benjamini–Hochberg false-discovery-rate control at level `q` —
    /// the multiple-comparisons-aware way to screen an exhaustive
    /// exploration. Sorted by ascending p-value; equal p-values keep
    /// report order (ascending index). Past `t ≈ 8.3` the p-value is
    /// exactly 0, so on a large lattice many flagged patterns tie. The
    /// sequence therefore follows the mining engine's emission order;
    /// the set of flagged patterns does not depend on the engine.
    pub fn significant_at_fdr(&self, m: usize, q: f64) -> Vec<usize> {
        let _span = obs::span("stats.fdr");
        let t = self.t_statistics(m);
        crate::stats::benjamini_hochberg_by(self.len(), |idx| p_value_two_sided(t(idx)), q)
    }

    /// `(key, idx)` for every pattern whose ranking key under `order` is
    /// defined (not `NaN`); larger keys rank first. The dataset-level terms
    /// are computed once, so each key costs one derivation of one metric.
    fn keyed(&self, m: usize, order: SortBy) -> impl Iterator<Item = (f64, usize)> + '_ {
        let dataset_rate = self.dataset_rate(m);
        let t = self.t_statistics(m);
        let key = move |idx| match order {
            SortBy::Divergence => self.rate(idx, m) - dataset_rate,
            SortBy::NegativeDivergence => -(self.rate(idx, m) - dataset_rate),
            SortBy::AbsDivergence => (self.rate(idx, m) - dataset_rate).abs(),
            SortBy::Support => self.support(idx) as f64,
            SortBy::TStatistic => t(idx),
        };
        (0..self.len())
            .map(move |idx| (key(idx), idx))
            .filter(|(k, _)| !k.is_nan())
    }

    /// The ranking order over [`Self::keyed`] pairs: key descending, then
    /// shorter itemset, then lexicographic items, then index (a total
    /// order, so every sort agrees).
    #[inline]
    fn rank_cmp(&self, (ka, a): (f64, usize), (kb, b): (f64, usize)) -> Ordering {
        kb.partial_cmp(&ka)
            .expect("NaN keys are never ranked")
            .then_with(|| self.items(a).len().cmp(&self.items(b).len()))
            .then_with(|| self.items(a).cmp(self.items(b)))
            .then_with(|| a.cmp(&b))
    }

    /// Pattern indices ranked by the requested order for metric `m`.
    /// Patterns whose divergence is undefined (`NaN`) are excluded from
    /// divergence-based orders. Ties break toward shorter, then
    /// lexicographically smaller itemsets.
    pub fn ranked(&self, m: usize, order: SortBy) -> Vec<usize> {
        let _span = obs::span("report.rank");
        let mut keyed: Vec<(f64, usize)> = self.keyed(m, order).collect();
        keyed.sort_unstable_by(|&a, &b| self.rank_cmp(a, b));
        keyed.into_iter().map(|(_, idx)| idx).collect()
    }

    /// The first `k` patterns of [`DivergenceReport::ranked`], selected in
    /// one pass with a `k`-sized heap: `O(n log k)` time, `O(k)` memory.
    pub fn top_k(&self, m: usize, k: usize, order: SortBy) -> Vec<usize> {
        let _span = obs::span("report.rank");
        k_smallest_by(self.keyed(m, order), k, |&a, &b| self.rank_cmp(a, b))
            .into_iter()
            .map(|(_, idx)| idx)
            .collect()
    }

    /// Renders an itemset with the schema's display names.
    pub fn display_itemset(&self, items: &[ItemId]) -> String {
        self.schema.display_itemset(items)
    }

    /// Derives the report that exploring at a *higher* support threshold
    /// would produce, by filtering this one — no re-mining (monotonicity of
    /// support makes this exact). Useful for threshold sweeps like the
    /// paper's Figures 6–7: mine once at the lowest threshold, refine
    /// upward.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` resolves to a threshold below this report's
    /// (the refinement would be incomplete).
    pub fn refine_to_support(&self, min_support: f64) -> DivergenceReport {
        let count = ((min_support * self.n_rows as f64).ceil() as u64).max(1);
        assert!(
            count >= self.min_support_count,
            "cannot refine downward: {} < {}",
            count,
            self.min_support_count
        );
        let mut store = ItemsetArena::new();
        for entry in self.store.iter() {
            if entry.support >= count {
                store.push(entry.items, entry.support, *entry.payload);
            }
        }
        DivergenceReport::from_store(
            self.schema.clone(),
            self.metrics.clone(),
            self.n_rows,
            count,
            self.dataset_cells,
            store,
        )
        // A subset of a truncated lattice is still truncated.
        .with_completeness(self.completeness)
    }
}

/// Serializable snapshot of a report (see [`DivergenceReport::export`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ReportExport {
    /// Metric short names, in tally order.
    pub metrics: Vec<String>,
    /// Dataset size `|D|`.
    pub n_rows: usize,
    /// Absolute support-count threshold.
    pub min_support_count: u64,
    /// Overall rate `f(D)` per metric (`None` where undefined).
    pub dataset_rates: Vec<Option<f64>>,
    /// One entry per frequent pattern.
    pub patterns: Vec<PatternExport>,
}

/// One exported pattern row.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PatternExport {
    /// Display form, e.g. `"sex=Male, #prior=>3"`.
    pub itemset: String,
    /// Raw item ids (schema-dependent).
    pub items: Vec<ItemId>,
    /// Support count.
    pub support: u64,
    /// Support fraction.
    pub support_fraction: f64,
    /// Per-metric rate, divergence and t-statistic (`None` where undefined).
    pub rates: Vec<Option<f64>>,
    /// Per-metric divergence.
    pub divergences: Vec<Option<f64>>,
    /// Per-metric Welch t-statistic.
    pub t_statistics: Vec<f64>,
}

/// The `k` smallest items under `cmp`, ascending. Keeps a max-heap of the
/// best `k` seen so far, so it runs in `O(n log k)` time and `O(k)` memory
/// however long `items` is. `cmp` must be a total order for the result to
/// match a full sort.
pub(crate) fn k_smallest_by<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    /// A heap entry ordered by the caller's comparator.
    struct By<'c, T, F>(T, &'c F);
    impl<T, F: Fn(&T, &T) -> Ordering> Ord for By<'_, T, F> {
        fn cmp(&self, other: &Self) -> Ordering {
            (self.1)(&self.0, &other.0)
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> PartialOrd for By<'_, T, F> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> PartialEq for By<'_, T, F> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> Eq for By<'_, T, F> {}

    if k == 0 {
        return Vec::new();
    }
    let items = items.into_iter();
    let mut heap = BinaryHeap::with_capacity(items.size_hint().1.map_or(0, |n| n.min(k)));
    for item in items {
        if heap.len() < k {
            heap.push(By(item, &cmp));
        } else if let Some(mut worst) = heap.peek_mut() {
            if cmp(&item, &worst.0) == Ordering::Less {
                *worst = By(item, &cmp);
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|By(item, _)| item)
        .collect()
}

fn noneify(x: f64) -> Option<f64> {
    if x.is_nan() {
        None
    } else {
        Some(x)
    }
}

impl DivergenceReport {
    /// Exports the report into a plain serializable structure (rates and
    /// divergences materialized), e.g. for JSON dashboards:
    ///
    /// ```
    /// # use divexplorer::{DatasetBuilder, DivExplorer, Metric};
    /// # let mut b = DatasetBuilder::new();
    /// # b.categorical("g", &["a", "b"], &[0, 0, 1, 1]);
    /// # let data = b.build().unwrap();
    /// # let report = DivExplorer::new(0.5)
    /// #     .explore(&data, &[false; 4], &[true, false, false, false],
    /// #              &[Metric::FalsePositiveRate]).unwrap();
    /// let json = serde_json::to_string_pretty(&report.export()).unwrap();
    /// assert!(json.contains("\"metrics\""));
    /// ```
    pub fn export(&self) -> ReportExport {
        let n_metrics = self.metrics.len();
        ReportExport {
            metrics: self
                .metrics
                .iter()
                .map(|m| m.short_name().to_string())
                .collect(),
            n_rows: self.n_rows,
            min_support_count: self.min_support_count,
            dataset_rates: (0..n_metrics)
                .map(|m| noneify(self.dataset_rate(m)))
                .collect(),
            patterns: (0..self.len())
                .map(|idx| PatternExport {
                    itemset: self.display_itemset(self.items(idx)),
                    items: self.items(idx).to_vec(),
                    support: self.support(idx),
                    support_fraction: self.support_fraction(idx),
                    rates: (0..n_metrics).map(|m| noneify(self.rate(idx, m))).collect(),
                    divergences: (0..n_metrics)
                        .map(|m| noneify(self.divergence(idx, m)))
                        .collect(),
                    t_statistics: (0..n_metrics).map(|m| self.t_statistic(idx, m)).collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    fn report() -> DivergenceReport {
        let g = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        let data = b.build().unwrap();
        let v = vec![false; 12];
        let u = vec![
            true, true, true, true, true, false, // g=a: FPR 5/6
            false, false, false, false, false, false, // g=b: FPR 0
        ];
        DivExplorer::new(0.2)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap()
    }

    #[test]
    fn p_values_track_t_statistics() {
        let r = report();
        let ga = r.schema().item_by_name("g", "a").unwrap();
        let gb = r.schema().item_by_name("g", "b").unwrap();
        let ia = r.find(&[ga]).unwrap();
        let ib = r.find(&[gb]).unwrap();
        assert!(r.t_statistic(ia, 0) > 0.0);
        assert!(r.p_value(ia, 0) < 1.0);
        // Larger |t| -> smaller p.
        if r.t_statistic(ia, 0) > r.t_statistic(ib, 0) {
            assert!(r.p_value(ia, 0) <= r.p_value(ib, 0));
        }
    }

    #[test]
    fn fdr_screen_returns_sorted_significant_subset() {
        let r = report();
        let flagged = r.significant_at_fdr(0, 0.5);
        assert_eq!(flagged.capacity(), flagged.len());
        // Whatever is flagged must have small p-values, ascending.
        let ps: Vec<f64> = flagged.iter().map(|&i| r.p_value(i, 0)).collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]));
        // A strict level flags no more than a loose one.
        assert!(r.significant_at_fdr(0, 0.01).len() <= flagged.len());
    }

    #[test]
    fn export_round_trips_through_json() {
        let r = report();
        let export = r.export();
        assert_eq!(export.metrics, vec!["FPR"]);
        assert_eq!(export.n_rows, 12);
        assert_eq!(export.patterns.len(), r.len());
        let json = serde_json::to_string(&export).unwrap();
        let back: ReportExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.patterns.len(), export.patterns.len());
        assert_eq!(back.patterns[0].itemset, export.patterns[0].itemset);
    }

    #[test]
    fn refinement_matches_a_fresh_exploration() {
        let g = [0, 0, 0, 0, 0, 1, 1, 2u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b", "c"], &g);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u = vec![true, false, true, false, false, true, false, false];
        let coarse = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        for s in [0.2, 0.3, 0.6] {
            let refined = coarse.refine_to_support(s);
            let fresh = DivExplorer::new(s)
                .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
                .unwrap();
            assert_eq!(refined.len(), fresh.len(), "s={s}");
            assert_eq!(refined.min_support_count(), fresh.min_support_count());
            for p in fresh.patterns() {
                let idx = refined.find(p.items).unwrap();
                assert_eq!(refined.support(idx), p.support);
            }
            // Dataset-level statistics are untouched by refinement.
            assert_eq!(refined.dataset_rate(0), coarse.dataset_rate(0));
        }
    }

    #[test]
    #[should_panic(expected = "cannot refine downward")]
    fn refining_downward_panics() {
        let r = report();
        let _ = r.refine_to_support(0.01);
    }

    #[test]
    fn pattern_views_share_the_arena() {
        let r = report();
        assert!(r.len() >= 2);
        let p = r.pattern(0);
        assert_eq!(p.items, r.items(0));
        assert_eq!(p.support, r.support(0));
        assert_eq!(p.counts, r.counts(0));
        assert!(!p.is_empty());
        assert_eq!(p.len(), p.items.len());
        assert_eq!(r.patterns().count(), r.len());
    }

    /// A 4-attribute table whose errors depend on two attributes jointly.
    fn audit_table() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as u16
        };
        let cols: Vec<Vec<u16>> = (0..4)
            .map(|_| (0..240).map(|_| next(3)).collect())
            .collect();
        let mut b = DatasetBuilder::new();
        for (a, col) in cols.iter().enumerate() {
            b.categorical(format!("a{a}"), &["x", "y", "z"], col);
        }
        let v = vec![false; 240];
        let u = (0..240)
            .map(|r| (cols[0][r] == 0 && cols[1][r] != 2) || next(5) == 0)
            .collect();
        (b.build().unwrap(), v, u)
    }

    /// Asserts that every edge is what `find` says of the item-removed
    /// set, or ∅; returns whether some edge is absent.
    fn check_edges(r: &DivergenceReport) -> bool {
        let mut absent = false;
        for idx in 0..r.len() {
            let items = r.items(idx);
            assert_eq!(r.subsets(idx).len(), items.len());
            for (j, edge) in r.subsets(idx).iter().enumerate() {
                let mut removed = items.to_vec();
                removed.remove(j);
                let expected = match r.find(&removed) {
                    _ if removed.is_empty() => fpm::Subset::Empty,
                    Some(found) => fpm::Subset::Stored(found),
                    None => fpm::Subset::Absent,
                };
                assert_eq!(edge.get(), expected, "edge {j} of {items:?}");
                absent |= expected == fpm::Subset::Absent;
            }
        }
        absent
    }

    #[test]
    fn subsets_are_exact_on_complete_filtered_and_truncated_reports() {
        let (data, v, u) = audit_table();
        let metrics = [Metric::FalsePositiveRate];
        let explorer = DivExplorer::new(0.02);
        let full = explorer.explore(&data, &v, &u, &metrics).unwrap();
        assert!(!check_edges(&full), "a complete lattice is closed");

        let mut sink = crate::DivergenceFilterSink::new(
            ItemsetArena::new(),
            &metrics,
            v.len(),
            CountedCells::of_rows(&v, &u),
            0.15,
        );
        let stats = explorer
            .explore_into(&data, &v, &u, &metrics, &mut sink)
            .unwrap();
        let filtered = DivergenceReport::from_store(
            data.schema().clone(),
            metrics.to_vec(),
            stats.n_rows,
            stats.min_support_count,
            stats.dataset_counts,
            sink.into_inner(),
        );
        assert!(filtered.len() < full.len());
        assert!(check_edges(&filtered), "filtering leaves gaps");

        let truncated = DivExplorer::new(0.02)
            .with_budget(fpm::Budget::unlimited().with_max_itemsets(full.len() as u64 / 2))
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        assert!(!truncated.is_exploration_complete());
        check_edges(&truncated);
    }

    #[test]
    fn export_materializes_consistent_values() {
        let r = report();
        let export = r.export();
        for (idx, p) in export.patterns.iter().enumerate() {
            assert_eq!(p.support, r.support(idx));
            if let Some(d) = p.divergences[0] {
                assert!((d - r.divergence(idx, 0)).abs() < 1e-12);
            }
        }
    }
}
