//! Model comparison via divergence profiles — one of the applications the
//! paper motivates (§1, citing MLCube and Slice Finder's model-validation
//! use case): two models with similar overall performance can fail on very
//! different subgroups.
//!
//! Given two prediction vectors over the *same* dataset, this module
//! explores both divergence profiles in one pass each and exposes:
//!
//! - the per-pattern **divergence gap** `Δ_A(I) − Δ_B(I)`, ranking the
//!   subgroups where the models' behaviors differ most;
//! - the **disagreement profile**: the rate at which the two models
//!   disagree, itself explored as a divergence (a subgroup where models
//!   disagree far more than average is exactly where an ensemble or a
//!   human review queue should look).

use crate::dataset::DiscreteDataset;
use crate::explorer::{DivExplorer, ExploreError};
use crate::item::ItemId;
use crate::report::{k_smallest_by, DivergenceReport};
use crate::Metric;

/// Paired exploration of two models over the same dataset and metrics.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Report of model A.
    pub report_a: DivergenceReport,
    /// Report of model B.
    pub report_b: DivergenceReport,
}

/// One subgroup where the two models' divergences differ.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceGap {
    /// The subgroup.
    pub items: Vec<ItemId>,
    /// `Δ_A(I)`.
    pub delta_a: f64,
    /// `Δ_B(I)`.
    pub delta_b: f64,
    /// `Δ_A(I) − Δ_B(I)`.
    pub gap: f64,
}

/// Explores both models with identical parameters.
///
/// Both reports share the support threshold and therefore contain the same
/// pattern set (support does not depend on predictions), which makes the
/// per-pattern comparison total.
pub fn compare_models(
    data: &DiscreteDataset,
    v: &[bool],
    u_a: &[bool],
    u_b: &[bool],
    metrics: &[Metric],
    min_support: f64,
) -> Result<ModelComparison, ExploreError> {
    let explorer = DivExplorer::new(min_support);
    let report_a = explorer.explore(data, v, u_a, metrics)?;
    let report_b = explorer.explore(data, v, u_b, metrics)?;
    Ok(ModelComparison { report_a, report_b })
}

impl ModelComparison {
    /// The divergence gap of one subgroup for metric `m` (`None` if the
    /// subgroup is infrequent or either divergence is undefined).
    pub fn gap_of(&self, items: &[ItemId], m: usize) -> Option<f64> {
        let da = self.report_a.divergence_of(items, m)?;
        let db = self.report_b.divergence_of(items, m)?;
        if da.is_nan() || db.is_nan() {
            None
        } else {
            Some(da - db)
        }
    }

    /// The `k` subgroups with the largest absolute divergence gap for
    /// metric `m`, most different first.
    /// Ties break toward lexicographically smaller itemsets. One pass with
    /// a `k`-sized heap; only the `k` winners' itemsets are copied.
    pub fn top_gaps(&self, m: usize, k: usize) -> Vec<DivergenceGap> {
        let a = &self.report_a;
        let candidates = (0..a.len()).filter_map(|idx| {
            let delta_a = a.divergence(idx, m);
            let delta_b = self.report_b.divergence_of(a.items(idx), m)?;
            if delta_a.is_nan() || delta_b.is_nan() {
                return None;
            }
            Some((idx, delta_a, delta_b))
        });
        let gap_desc = |&(x, xa, xb): &(usize, f64, f64), &(y, ya, yb): &(usize, f64, f64)| {
            (ya - yb)
                .abs()
                .partial_cmp(&(xa - xb).abs())
                .expect("NaN gaps are never ranked")
                .then_with(|| a.items(x).cmp(a.items(y)))
                .then_with(|| x.cmp(&y))
        };
        k_smallest_by(candidates, k, gap_desc)
            .into_iter()
            .map(|(idx, delta_a, delta_b)| DivergenceGap {
                items: a.items(idx).to_vec(),
                delta_a,
                delta_b,
                gap: delta_a - delta_b,
            })
            .collect()
    }
}

/// Explores the *disagreement rate* of two models as a divergence: treating
/// model A's predictions as the reference and model B's as the
/// "classification", the error rate *is* the disagreement rate, and its
/// divergence flags subgroups where the models disagree unusually often.
pub fn disagreement_report(
    data: &DiscreteDataset,
    u_a: &[bool],
    u_b: &[bool],
    min_support: f64,
) -> Result<DivergenceReport, ExploreError> {
    DivExplorer::new(min_support).explore(data, u_a, u_b, &[Metric::ErrorRate])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    /// Model A errs on g=a; model B errs on g=b; they agree elsewhere.
    fn fixture() -> (DiscreteDataset, Vec<bool>, Vec<bool>, Vec<bool>) {
        let g = [0, 0, 0, 0, 1, 1, 1, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u_a = vec![true, true, false, false, false, false, false, false];
        let u_b = vec![false, false, false, false, true, true, false, false];
        (data, v, u_a, u_b)
    }

    #[test]
    fn gap_ranks_where_models_differ() {
        let (data, v, u_a, u_b) = fixture();
        let cmp =
            compare_models(&data, &v, &u_a, &u_b, &[Metric::FalsePositiveRate], 0.25).unwrap();
        let gaps = cmp.top_gaps(0, 2);
        assert_eq!(gaps.len(), 2);
        // Both subgroups differ with symmetric gap: |Δ_A − Δ_B| = 0.5.
        for g in &gaps {
            assert!((g.gap.abs() - 0.5) < 1e-9);
            assert!((g.delta_a - g.delta_b - g.gap).abs() < 1e-12);
        }
        // Signs are opposite between g=a (A worse) and g=b (B worse).
        assert!(gaps[0].gap * gaps[1].gap < 0.0);
    }

    #[test]
    fn top_gaps_is_the_prefix_of_a_full_sort() {
        let n = 96;
        let code = |i: usize, salt: usize, card: usize| ((i * 7 + salt) * 13 % 31 % card) as u16;
        let mut b = DatasetBuilder::new();
        b.categorical(
            "x",
            &["0", "1", "2"],
            &(0..n).map(|i| code(i, 1, 3)).collect::<Vec<_>>(),
        );
        b.categorical(
            "y",
            &["0", "1"],
            &(0..n).map(|i| code(i, 5, 2)).collect::<Vec<_>>(),
        );
        b.categorical(
            "z",
            &["0", "1", "2"],
            &(0..n).map(|i| (i % 3) as u16).collect::<Vec<_>>(),
        );
        let data = b.build().unwrap();
        let v: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        let u_a: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let u_b: Vec<bool> = (0..n).map(|i| i % 6 < 2).collect();
        let cmp =
            compare_models(&data, &v, &u_a, &u_b, &[Metric::FalsePositiveRate], 0.02).unwrap();
        let mut all: Vec<DivergenceGap> = cmp
            .report_a
            .patterns()
            .filter_map(|p| {
                let gap = cmp.gap_of(p.items, 0)?;
                Some(DivergenceGap {
                    items: p.items.to_vec(),
                    delta_a: cmp.report_a.divergence_of(p.items, 0)?,
                    delta_b: cmp.report_b.divergence_of(p.items, 0)?,
                    gap,
                })
            })
            .collect();
        all.sort_by(|x, y| {
            y.gap
                .abs()
                .partial_cmp(&x.gap.abs())
                .unwrap()
                .then_with(|| x.items.cmp(&y.items))
        });
        assert!(all.len() > 20);
        for k in [0, 1, 10, all.len(), all.len() + 1] {
            assert_eq!(cmp.top_gaps(0, k), all[..k.min(all.len())], "k={k}");
        }
    }

    #[test]
    fn gap_of_handles_empty_and_missing() {
        let (data, v, u_a, u_b) = fixture();
        let cmp =
            compare_models(&data, &v, &u_a, &u_b, &[Metric::FalsePositiveRate], 0.25).unwrap();
        assert_eq!(cmp.gap_of(&[], 0), Some(0.0));
        assert_eq!(cmp.gap_of(&[99], 0), None);
    }

    #[test]
    fn both_reports_share_the_pattern_set() {
        let (data, v, u_a, u_b) = fixture();
        let cmp = compare_models(&data, &v, &u_a, &u_b, &[Metric::ErrorRate], 0.25).unwrap();
        assert_eq!(cmp.report_a.len(), cmp.report_b.len());
        for p in cmp.report_a.patterns() {
            assert!(cmp.report_b.find(p.items).is_some());
        }
    }

    #[test]
    fn disagreement_profile_flags_divergent_subgroups() {
        let (data, _v, u_a, u_b) = fixture();
        let report = disagreement_report(&data, &u_a, &u_b, 0.25).unwrap();
        // Models disagree on rows 0,1 (g=a) and 4,5 (g=b): overall 0.5,
        // and both subgroups sit exactly at the overall rate.
        assert!((report.dataset_rate(0) - 0.5).abs() < 1e-12);
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let idx = report.find(&[ga]).unwrap();
        assert!(report.divergence(idx, 0).abs() < 1e-12);
    }

    #[test]
    fn identical_models_have_zero_gaps_everywhere() {
        let (data, v, u_a, _) = fixture();
        let cmp =
            compare_models(&data, &v, &u_a, &u_a, &[Metric::FalsePositiveRate], 0.25).unwrap();
        for g in cmp.top_gaps(0, 10) {
            assert_eq!(g.gap, 0.0);
        }
        let report = disagreement_report(&data, &u_a, &u_a, 0.25).unwrap();
        assert_eq!(report.dataset_rate(0), 0.0);
    }
}
