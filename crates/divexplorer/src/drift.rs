//! Divergence drift: comparing the subgroup-divergence profile of a model
//! across two datasets with the same schema — typically a validation period
//! and a production period. A subgroup whose divergence *changed* between
//! periods signals data/behavior drift localized to that subgroup, which a
//! global drift statistic would dilute.
//!
//! This is a production-monitoring application of the paper's machinery:
//! the same exhaustive exploration runs on both periods, and the per-pattern
//! deltas are compared with the Bayesian significance of §3.3.

use crate::dataset::DiscreteDataset;
use crate::explorer::{DivExplorer, ExploreError};
use crate::item::ItemId;
use crate::report::DivergenceReport;
use crate::Metric;

/// Paired exploration of two periods.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// The baseline (e.g. validation) period.
    pub baseline: DivergenceReport,
    /// The current (e.g. production) period.
    pub current: DivergenceReport,
}

/// One subgroup's drift between the two periods.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternDrift {
    /// The subgroup.
    pub items: Vec<ItemId>,
    /// Divergence in the baseline period.
    pub delta_baseline: f64,
    /// Divergence in the current period.
    pub delta_current: f64,
    /// `Δ_current − Δ_baseline`.
    pub drift: f64,
    /// Welch t-statistic between the two periods' subgroup rates.
    pub t: f64,
}

/// Errors from [`drift_between`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriftError {
    /// The two datasets have different schemas.
    SchemaMismatch,
    /// One of the explorations failed.
    Explore(ExploreError),
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftError::SchemaMismatch => write!(f, "the two periods have different schemas"),
            DriftError::Explore(e) => write!(f, "exploration failed: {e}"),
        }
    }
}

impl std::error::Error for DriftError {}

/// Explores both periods with identical parameters.
// Two (data, v, u) triples plus metric and support: flattening keeps the
// call sites obvious; a params struct would obscure which side is which.
#[allow(clippy::too_many_arguments)]
pub fn drift_between(
    baseline_data: &DiscreteDataset,
    baseline_v: &[bool],
    baseline_u: &[bool],
    current_data: &DiscreteDataset,
    current_v: &[bool],
    current_u: &[bool],
    metric: Metric,
    min_support: f64,
) -> Result<DriftReport, DriftError> {
    if baseline_data.schema() != current_data.schema() {
        return Err(DriftError::SchemaMismatch);
    }
    let explorer = DivExplorer::new(min_support);
    let baseline = explorer
        .explore(baseline_data, baseline_v, baseline_u, &[metric])
        .map_err(DriftError::Explore)?;
    let current = explorer
        .explore(current_data, current_v, current_u, &[metric])
        .map_err(DriftError::Explore)?;
    Ok(DriftReport { baseline, current })
}

impl DriftReport {
    /// Drift of every subgroup frequent in *both* periods, sorted by |drift|
    /// descending.
    pub fn pattern_drift(&self) -> Vec<PatternDrift> {
        let mut out: Vec<PatternDrift> = self
            .baseline
            .patterns()
            .filter_map(|p| {
                let b_idx = self.baseline.find(p.items)?;
                let c_idx = self.current.find(p.items)?;
                let delta_baseline = self.baseline.divergence(b_idx, 0);
                let delta_current = self.current.divergence(c_idx, 0);
                if delta_baseline.is_nan() || delta_current.is_nan() {
                    return None;
                }
                let t = self
                    .baseline
                    .metric_counts(b_idx, 0)
                    .posterior()
                    .welch_t(&self.current.metric_counts(c_idx, 0).posterior());
                Some(PatternDrift {
                    items: p.items.to_vec(),
                    delta_baseline,
                    delta_current,
                    drift: delta_current - delta_baseline,
                    t,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.drift
                .abs()
                .partial_cmp(&a.drift.abs())
                .unwrap()
                .then_with(|| a.items.cmp(&b.items))
        });
        out
    }

    /// Subgroups frequent in the current period but not the baseline —
    /// *emerged* subgroups (population drift), with their current Δ.
    pub fn emerged(&self) -> Vec<(Vec<ItemId>, f64)> {
        self.current
            .patterns()
            .filter(|p| self.baseline.find(p.items).is_none())
            .map(|p| {
                let idx = self.current.find(p.items).expect("own pattern");
                (p.items.to_vec(), self.current.divergence(idx, 0))
            })
            .collect()
    }

    /// Subgroups frequent in the baseline but no longer in the current
    /// period — *vanished* subgroups.
    pub fn vanished(&self) -> Vec<(Vec<ItemId>, f64)> {
        self.baseline
            .patterns()
            .filter(|p| self.current.find(p.items).is_none())
            .map(|p| {
                let idx = self.baseline.find(p.items).expect("own pattern");
                (p.items.to_vec(), self.baseline.divergence(idx, 0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn period(errors_in_a: bool) -> (DiscreteDataset, Vec<bool>, Vec<bool>) {
        let g = [0, 0, 0, 0, 1, 1, 1, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u = if errors_in_a {
            vec![true, true, false, false, false, false, false, false]
        } else {
            vec![false, false, false, false, true, true, false, false]
        };
        (data, v, u)
    }

    #[test]
    fn detects_a_shifted_error_subgroup() {
        let (d1, v1, u1) = period(true);
        let (d2, v2, u2) = period(false);
        let report = drift_between(
            &d1,
            &v1,
            &u1,
            &d2,
            &v2,
            &u2,
            Metric::FalsePositiveRate,
            0.25,
        )
        .unwrap();
        let drifts = report.pattern_drift();
        assert_eq!(drifts.len(), 2);
        // g=a: Δ went from +0.25 to −0.25 (drift −0.5); g=b the reverse.
        for d in &drifts {
            assert!((d.drift.abs() - 0.5).abs() < 1e-9);
            assert!((d.delta_current - d.delta_baseline - d.drift).abs() < 1e-12);
            assert!(d.t > 0.0);
        }
        assert!(drifts[0].drift * drifts[1].drift < 0.0);
    }

    #[test]
    fn stable_model_has_zero_drift() {
        let (d1, v1, u1) = period(true);
        let report = drift_between(
            &d1,
            &v1,
            &u1,
            &d1,
            &v1,
            &u1,
            Metric::FalsePositiveRate,
            0.25,
        )
        .unwrap();
        for d in report.pattern_drift() {
            assert_eq!(d.drift, 0.0);
            assert_eq!(d.t, 0.0);
        }
        assert!(report.emerged().is_empty());
        assert!(report.vanished().is_empty());
    }

    #[test]
    fn emerged_and_vanished_track_population_shift() {
        // Baseline: only g=a rows; current: only g=b rows.
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &[0, 0, 0, 0]);
        let d1 = b.build().unwrap();
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &[1, 1, 1, 1]);
        let d2 = b.build().unwrap();
        let v = vec![false; 4];
        let u = vec![true, false, false, false];
        let report =
            drift_between(&d1, &v, &u, &d2, &v, &u, Metric::FalsePositiveRate, 0.25).unwrap();
        let emerged = report.emerged();
        let vanished = report.vanished();
        assert_eq!(emerged.len(), 1);
        assert_eq!(vanished.len(), 1);
        assert_eq!(report.baseline.display_itemset(&vanished[0].0), "g=a");
        assert_eq!(report.current.display_itemset(&emerged[0].0), "g=b");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let (d1, v1, u1) = period(true);
        let mut b = DatasetBuilder::new();
        b.categorical("other", &["x", "y"], &[0, 1]);
        let d2 = b.build().unwrap();
        let err = drift_between(
            &d1,
            &v1,
            &u1,
            &d2,
            &[false, false],
            &[false, true],
            Metric::FalsePositiveRate,
            0.25,
        )
        .unwrap_err();
        assert_eq!(err, DriftError::SchemaMismatch);
    }
}
