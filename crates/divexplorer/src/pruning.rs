//! Redundancy pruning (§3.5): a compact summary of the divergent patterns.
//!
//! A pattern `I` is pruned when some item `α ∈ I` has absolute marginal
//! contribution `|Δ(I) − Δ(I ∖ {α})| ≤ ε`: the shorter pattern `I ∖ {α}`
//! already captures the divergence of `I`. The paper shows (Table 6,
//! Figure 10) that even small `ε` collapses thousands of patterns to a few
//! diverse representatives.
//!
//! Two layers operate here:
//!
//! - [`DivergenceFilterSink`], a streaming [`fpm::ItemsetSink`] that keeps
//!   only patterns with `|Δ| ≥ t` *during* mining — compose it with
//!   [`crate::DivExplorer::explore_into`] to avoid ever storing the
//!   uninteresting bulk of the lattice;
//! - [`prune_redundant`], which must run *post hoc* over a complete
//!   report: the ε-marginal rule compares each pattern against its
//!   immediate sub-patterns, so it needs the whole lattice present
//!   (a streaming form would have to buffer everything anyway).

use fpm::{ItemsetSink, Subset};

use crate::counts::{CountedCells, MetricCells, OutcomeCounts};
use crate::item::ItemId;
use crate::report::DivergenceReport;
use crate::Metric;

/// Indices of the patterns that survive ε-redundancy pruning for metric `m`.
///
/// A pattern is *retained* iff every item has marginal contribution
/// strictly above `ε` in absolute value (w.r.t. the immediate sub-pattern
/// obtained by removing that item). Patterns with undefined divergence, or
/// whose sub-pattern divergence is undefined, are pruned: their marginal
/// contribution cannot be established.
pub fn prune_redundant(report: &DivergenceReport, m: usize, epsilon: f64) -> Vec<usize> {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let _span = obs::span("pruning.prune");
    let mut retained = Vec::new();
    'patterns: for idx in 0..report.len() {
        let delta = report.divergence(idx, m);
        if delta.is_nan() {
            continue;
        }
        for edge in report.subsets(idx) {
            let delta_base = match edge.get() {
                Subset::Empty => 0.0,
                Subset::Stored(base) => report.divergence(base, m),
                // Missing sub-pattern (max_len cap): treat conservatively
                // as redundant, matching the paper's requirement of a
                // complete exploration for this analysis.
                Subset::Absent => continue 'patterns,
            };
            if delta_base.is_nan() || (delta - delta_base).abs() <= epsilon {
                continue 'patterns;
            }
        }
        retained.push(idx);
    }
    retained
}

/// The number of patterns retained at each of several `ε` values — the
/// series plotted in Figure 10 of the paper.
pub fn pruning_curve(report: &DivergenceReport, m: usize, epsilons: &[f64]) -> Vec<(f64, usize)> {
    epsilons
        .iter()
        .map(|&eps| (eps, prune_redundant(report, m, eps).len()))
        .collect()
}

/// A streaming sink keeping only patterns with `|Δ(I)| ≥ threshold` for
/// some of its metrics, forwarding them to `inner`.
///
/// Divergence is computed against the fixed dataset-level cells supplied
/// at construction (obtainable without mining via
/// [`CountedCells::of_rows`]). Because a pattern's extensions can be
/// *more* divergent than the pattern itself, `wants_extensions` always
/// answers true — only emission is filtered, so mining completeness for
/// the surviving patterns is preserved.
#[derive(Debug)]
pub struct DivergenceFilterSink<S> {
    inner: S,
    /// Each metric's cells and its tallies over the whole dataset.
    metrics: Vec<(MetricCells, OutcomeCounts)>,
    threshold: f64,
}

impl<S> DivergenceFilterSink<S> {
    /// Filters at `|Δ| ≥ threshold` under any of `metrics`, against a
    /// dataset of `n_rows` rows whose cells are `dataset_counts`.
    pub fn new(
        inner: S,
        metrics: &[Metric],
        n_rows: usize,
        dataset_counts: CountedCells,
        threshold: f64,
    ) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        DivergenceFilterSink {
            inner,
            metrics: MetricCells::with_dataset(metrics, n_rows, &dataset_counts),
            threshold,
        }
    }

    /// Consumes the filter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ItemsetSink<CountedCells>> ItemsetSink<CountedCells> for DivergenceFilterSink<S> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &CountedCells) {
        let passes = self.metrics.iter().any(|(cells, dataset)| {
            let delta = cells.counts(support, payload).rate() - dataset.rate();
            delta.abs() >= self.threshold
        });
        if passes {
            self.inner.emit(items, support, payload);
        }
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        // |Δ| is not anti-monotone: extensions of a filtered-out pattern
        // may pass, so never prune the search.
        self.inner.wants_extensions(items, support)
    }

    fn should_stop(&mut self) -> bool {
        self.inner.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::item::without;
    use crate::report::SortBy;
    use crate::Metric;

    /// Errors depend only on g: any pattern mentioning h is redundant.
    fn fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let mut g = Vec::new();
        let mut h = Vec::new();
        let mut v = Vec::new();
        let mut u = Vec::new();
        for rep in 0..8u16 {
            for gi in 0..2u16 {
                for hi in 0..2u16 {
                    g.push(gi);
                    h.push(hi);
                    v.push(false);
                    u.push(gi == 0 && rep < 6); // FPR(g=a)=0.75, no h effect
                }
            }
        }
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        (b.build().unwrap(), v, u)
    }

    #[test]
    fn redundant_patterns_are_pruned() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let retained = prune_redundant(&report, 0, 0.05);
        // Only the two g-patterns survive: every h-item adds nothing.
        let names: Vec<String> = retained
            .iter()
            .map(|&i| report.display_itemset(report.items(i)))
            .collect();
        assert_eq!(names, vec!["g=a", "g=b"]);
    }

    #[test]
    fn epsilon_zero_prunes_only_exact_redundancy() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let retained = prune_redundant(&report, 0, 0.0);
        // h alone has Δ=0 — equal to Δ(∅): marginal contribution 0 ≤ ε.
        for &idx in &retained {
            assert!(!report.display_itemset(report.items(idx)).starts_with("h="));
        }
    }

    #[test]
    fn retention_is_monotone_in_epsilon() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.05)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let curve = pruning_curve(&report, 0, &[0.0, 0.01, 0.05, 0.1, 0.5]);
        assert!(curve.windows(2).all(|w| w[0].1 >= w[1].1));
        // ε larger than any divergence prunes everything.
        assert_eq!(curve.last().unwrap().1, 0);
    }

    #[test]
    fn retained_pattern_has_all_items_contributing() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.05)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let eps = 0.02;
        for &idx in &prune_redundant(&report, 0, eps) {
            let items = report.items(idx);
            let delta = report.divergence(idx, 0);
            for &alpha in items {
                let base = without(items, alpha);
                let delta_base = report.divergence_of(&base, 0).unwrap();
                assert!((delta - delta_base).abs() > eps);
            }
        }
    }

    #[test]
    fn pruning_keeps_the_signal_pattern_ranked_first() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let retained = prune_redundant(&report, 0, 0.05);
        let ranked = report.ranked(0, SortBy::Divergence);
        let best_retained = ranked.iter().find(|i| retained.contains(i)).unwrap();
        assert_eq!(report.display_itemset(report.items(*best_retained)), "g=a");
    }

    #[test]
    fn divergence_filter_sink_matches_post_hoc_filtering() {
        let (data, v, u) = fixture();
        let explorer = DivExplorer::new(0.1);
        let metrics = [Metric::FalsePositiveRate];
        let full = explorer.explore(&data, &v, &u, &metrics).unwrap();
        let threshold = 0.1;

        // Dataset cells are available without mining (line 2 of Alg. 1).
        let mut sink = DivergenceFilterSink::new(
            fpm::ItemsetArena::new(),
            &metrics,
            v.len(),
            CountedCells::of_rows(&v, &u),
            threshold,
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

        let expected: Vec<&[crate::ItemId]> = (0..full.len())
            .filter(|&i| full.divergence(i, 0).abs() >= threshold)
            .map(|i| full.items(i))
            .collect();
        assert!(!expected.is_empty() && expected.len() < full.len());
        assert_eq!(filtered.len(), expected.len());
        for items in expected {
            let idx = filtered.find(items).unwrap();
            let reference = full.find(items).unwrap();
            assert_eq!(filtered.support(idx), full.support(reference));
            assert!((filtered.divergence(idx, 0) - full.divergence(reference, 0)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_filter_threshold_panics() {
        let _ = DivergenceFilterSink::new(
            fpm::VecSink::<CountedCells>::new(),
            &[Metric::ErrorRate],
            1,
            CountedCells::default(),
            -0.5,
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_panics() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let _ = prune_redundant(&report, 0, -0.1);
    }
}
