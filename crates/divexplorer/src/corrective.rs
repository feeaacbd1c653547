//! Corrective items (§4.2, Definition 4.2): items that *reduce* the absolute
//! divergence when added to a pattern.
//!
//! Divergence is not monotone over the itemset lattice, so a pruned search
//! would never see these; finding them requires the exhaustive exploration
//! DivExplorer performs.

use std::cmp::Ordering;

use fpm::Subset;

use crate::item::ItemId;
use crate::report::{k_smallest_by, DivergenceReport};

/// One corrective observation: adding `item` to `base` shrinks `|Δ|`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectiveItem {
    /// The base pattern `I` (sorted items).
    pub base: Vec<ItemId>,
    /// The corrective item `α ∉ I`.
    pub item: ItemId,
    /// `Δ(I)`.
    pub delta_base: f64,
    /// `Δ(I ∪ {α})`.
    pub delta_extended: f64,
    /// The corrective factor `|Δ(I)| − |Δ(I ∪ {α})| > 0`.
    pub corrective_factor: f64,
    /// Welch t-statistic between the base and extended posterior rates — the
    /// significance of the corrective effect.
    pub t: f64,
}

/// A corrective pair found on a subset edge, before anything is copied
/// out of the report: pattern `ext` is pattern `base` plus `item`.
#[derive(Debug, Clone, Copy)]
struct Pair {
    base: usize,
    ext: usize,
    item: ItemId,
    delta_base: f64,
    delta_ext: f64,
    factor: f64,
}

impl Pair {
    /// Welch t-statistic between the base and extended posterior rates.
    fn t(&self, report: &DivergenceReport, m: usize) -> f64 {
        let p_base = report.metric_counts(self.base, m).posterior();
        let p_ext = report.metric_counts(self.ext, m).posterior();
        p_base.welch_t(&p_ext)
    }

    fn to_item(self, report: &DivergenceReport, m: usize) -> CorrectiveItem {
        CorrectiveItem {
            base: report.items(self.base).to_vec(),
            item: self.item,
            delta_base: self.delta_base,
            delta_extended: self.delta_ext,
            corrective_factor: self.factor,
            t: self.t(report, m),
        }
    }
}

/// Every corrective pair of the report for metric `m`, by extended
/// pattern, then by item: each extended pattern `K` is compared against
/// its immediate sub-patterns along [`DivergenceReport::subsets`].
fn corrective_pairs(report: &DivergenceReport, m: usize) -> impl Iterator<Item = Pair> + '_ {
    (0..report.len()).flat_map(move |ext| {
        let delta_ext = report.divergence(ext, m);
        let edges = if delta_ext.is_nan() {
            &[][..]
        } else {
            report.subsets(ext)
        };
        report
            .items(ext)
            .iter()
            .zip(edges)
            .filter_map(move |(&item, edge)| {
                // Correcting the empty pattern (Δ=0) is impossible:
                // |Δ({α})| ≥ 0 = |Δ(∅)|. An absent base is only possible
                // under a max_len cap; skip it quietly.
                let Subset::Stored(base) = edge.get() else {
                    return None;
                };
                let delta_base = report.divergence(base, m);
                let factor = delta_base.abs() - delta_ext.abs();
                // An undefined base divergence gives a NaN factor.
                (factor > 0.0).then_some(Pair {
                    base,
                    ext,
                    item,
                    delta_base,
                    delta_ext,
                    factor,
                })
            })
    })
}

/// The order of [`corrective_items`]: corrective factor descending, then
/// base items, then item. The extended pattern breaks the ties only
/// duplicate patterns leave, so the order is total.
fn rank(report: &DivergenceReport) -> impl Fn(&Pair, &Pair) -> Ordering + '_ {
    move |a, b| {
        b.factor
            .partial_cmp(&a.factor)
            .expect("corrective factors are positive")
            .then_with(|| report.items(a.base).cmp(report.items(b.base)))
            .then_with(|| a.item.cmp(&b.item))
            .then_with(|| a.ext.cmp(&b.ext))
    }
}

/// Finds every corrective `(base, item)` pair among the frequent patterns of
/// the report, for metric `m`.
///
/// Iterates over the extended patterns `K = I ∪ {α}` (every frequent pattern
/// of length ≥ 1) and compares each against its `|K|` immediate sub-patterns,
/// which are frequent by closure. Pairs whose base or extended divergence is
/// undefined are skipped. Results are sorted by corrective factor, largest
/// first.
pub fn corrective_items(report: &DivergenceReport, m: usize) -> Vec<CorrectiveItem> {
    let mut pairs: Vec<Pair> = corrective_pairs(report, m).collect();
    pairs.sort_unstable_by(rank(report));
    pairs.iter().map(|pair| pair.to_item(report, m)).collect()
}

/// The `k` most corrective observations, optionally requiring a minimum
/// significance `min_t` of the corrective effect: the first `k` of
/// [`corrective_items`] with `t ≥ min_t`.
///
/// Selects the winners in one pass with a `k`-sized heap under the same
/// order and copies out only their base patterns.
pub fn top_corrective(
    report: &DivergenceReport,
    m: usize,
    k: usize,
    min_t: Option<f64>,
) -> Vec<CorrectiveItem> {
    let pairs = corrective_pairs(report, m)
        .filter(|pair| min_t.is_none_or(|min_t| pair.t(report, m) >= min_t));
    k_smallest_by(pairs, k, rank(report))
        .iter()
        .map(|pair| pair.to_item(report, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    /// g=a concentrates the false positives (Δ = +0.25), but within
    /// g=a ∧ h=y the FPR drops back toward the overall rate: h=y corrects
    /// g=a with factor 0.125.
    fn fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let g = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1u16];
        let h = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        let data = b.build().unwrap();
        let v = vec![false; 16];
        let u = vec![
            true, true, true, false, true, false, true, false, // g=a: 5 FP / 8
            true, false, false, false, false, false, false, false, // g=b: 1 FP / 8
        ];
        (data, v, u)
    }

    #[test]
    fn detects_the_planted_corrective_item() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hy = report.schema().item_by_name("h", "y").unwrap();
        let found = corrective_items(&report, 0);
        let hit = found
            .iter()
            .find(|c| c.base == vec![ga] && c.item == hy)
            .expect("h=y should correct g=a");
        // Overall FPR = 6/16. Δ(g=a) = 5/8 − 6/16 = 0.25;
        // Δ(g=a, h=y) = 1/4 − 6/16 = −0.125; factor = 0.25 − 0.125.
        assert!((hit.delta_base - 0.25).abs() < 1e-12);
        assert!((hit.delta_extended + 0.125).abs() < 1e-12);
        assert!((hit.corrective_factor - 0.125).abs() < 1e-12);
        assert!(hit.t > 0.0);
    }

    #[test]
    fn every_result_satisfies_the_definition() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        for c in corrective_items(&report, 0) {
            assert!(c.delta_extended.abs() < c.delta_base.abs());
            assert!(c.corrective_factor > 0.0);
            assert!(
                (c.corrective_factor - (c.delta_base.abs() - c.delta_extended.abs())).abs() < 1e-12
            );
            assert!(!c.base.contains(&c.item));
        }
    }

    #[test]
    fn results_are_sorted_by_factor() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let found = corrective_items(&report, 0);
        assert!(found
            .windows(2)
            .all(|w| w[0].corrective_factor >= w[1].corrective_factor));
    }

    /// The fixture plus `k`, an exact copy of `h`: every corrective pair
    /// through `h` has a twin through `k` with the same factor.
    fn tied_fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let h = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1u16];
        let g = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        b.categorical("k", &["x", "y"], &h);
        let (_, v, u) = fixture();
        (b.build().unwrap(), v, u)
    }

    #[test]
    fn top_corrective_is_the_filtered_prefix_of_corrective_items() {
        let (data, v, u) = tied_fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let all = corrective_items(&report, 0);
        assert!(
            all.windows(2)
                .any(|w| w[0].corrective_factor == w[1].corrective_factor),
            "the fixture must have exact factor ties"
        );
        let n = all.len();
        for min_t in [None, Some(0.5), Some(2.0), Some(f64::INFINITY)] {
            for k in [0, 1, 10, n, n + 1] {
                let mut expected = all.clone();
                if let Some(min_t) = min_t {
                    expected.retain(|c| c.t >= min_t);
                }
                expected.truncate(k);
                assert_eq!(
                    top_corrective(&report, 0, k, min_t),
                    expected,
                    "k={k} min_t={min_t:?}"
                );
            }
        }
    }

    #[test]
    fn top_corrective_filters_by_t() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let all = top_corrective(&report, 0, 100, None);
        let strict = top_corrective(&report, 0, 100, Some(f64::INFINITY));
        assert!(strict.is_empty());
        assert!(!all.is_empty());
        let top1 = top_corrective(&report, 0, 1, None);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], all[0]);
    }
}
