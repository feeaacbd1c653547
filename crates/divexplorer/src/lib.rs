//! # DivExplorer: analyzing classifier behavior via pattern divergence
//!
//! A Rust implementation of *"Looking for Trouble: Analyzing Classifier
//! Behavior via Pattern Divergence"* (Eliana Pastor, Luca de Alfaro, Elena
//! Baralis — SIGMOD 2021).
//!
//! Machine-learning models may perform differently on different data
//! subgroups. This crate represents subgroups as *itemsets* (conjunctions of
//! `attribute = value` predicates) and measures, for **every** itemset whose
//! support exceeds a threshold `s`, the *divergence* of a performance
//! statistic — e.g. the false-positive rate — between the subgroup and the
//! whole dataset:
//!
//! ```text
//! Δ_f(I) = f(I) − f(D)
//! ```
//!
//! The exhaustive exploration is fused into frequent-pattern mining (the
//! [`fpm`] crate): the confusion cells of every itemset ride along with
//! support counting, and every metric's three-valued outcome tallies
//! `(T, F, ⊥)` are derived from them, so one mining pass yields the
//! divergence of all frequent itemsets under every metric (Algorithm 1 of
//! the paper; sound and complete per its Theorem 5.1).
//!
//! On top of the exploration the crate provides the paper's full analysis
//! toolkit:
//!
//! - [`stats`] — Bayesian significance: `Beta(k⁺+1, k⁻+1)` posteriors and a
//!   Welch t-statistic against the whole-dataset rate (§3.3);
//! - [`shapley`] — exact Shapley-value attribution of an itemset's
//!   divergence to its items (§4.1);
//! - [`corrective`] — items that *reduce* divergence when added (§4.2);
//! - [`global_div`] — the generalized Shapley value measuring each item's
//!   contribution to divergence across the whole frequent lattice (§4.3);
//! - [`pruning`] — ε-redundancy summarization of the result (§3.5);
//! - [`lattice`] — sub-lattice exploration and DOT/ASCII rendering (§6.4);
//! - [`discretize`] — binning of continuous attributes, which by
//!   Property 3.1 never hides divergence.
//!
//! Beyond the paper (see DESIGN.md §5b): [`continuous`] generalizes
//! divergence to real-valued statistics, [`fairness`] scores subgroups
//! against the classic group-fairness criteria, [`compare`] and [`drift`]
//! contrast two models or two time periods, [`mod@neighborhood`] navigates the
//! lattice around a pattern, [`query`] filters reports declaratively, and
//! [`summary`] renders them for humans.
//!
//! # Quickstart
//!
//! ```
//! use divexplorer::{DatasetBuilder, DivExplorer, Metric};
//!
//! // A tiny dataset: one attribute, ground truth v, prediction u.
//! let mut b = DatasetBuilder::new();
//! b.categorical("sex", &["M", "F"], &[0, 0, 0, 0, 1, 1, 1, 1]);
//! let data = b.build().unwrap();
//! let v = [false, false, false, false, false, false, false, false];
//! let u = [true, true, true, false, false, false, false, false];
//!
//! let report = DivExplorer::new(0.25)
//!     .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
//!     .unwrap();
//!
//! // Males have FPR 0.75 vs 0.375 overall: divergence +0.375.
//! let top = report.ranked(0, divexplorer::SortBy::Divergence);
//! assert_eq!(report.display_itemset(report.items(top[0])), "sex=M");
//! let delta = report.divergence(top[0], 0);
//! assert!((delta - 0.375).abs() < 1e-12);
//! ```

pub mod cache;
pub mod compare;
pub mod continuous;
pub mod corrective;
pub mod counts;
pub mod dataset;
pub mod discretize;
pub mod drift;
pub mod explorer;
pub mod fairness;
pub mod global_div;
pub mod item;
pub mod lattice;
pub mod neighborhood;
pub mod pruning;
pub mod query;
pub mod report;
pub mod schema;
pub mod shapley;
pub mod stats;
pub mod summary;

pub use cache::{ArenaCache, ArenaKey};
pub use compare::{compare_models, disagreement_report, ModelComparison};
pub use continuous::{explore_statistic, ContinuousReport, MomentCounts};
pub use counts::{CountedCells, MultiCounts, OutcomeCounts};
pub use dataset::{DatasetBuilder, DiscreteDataset};
pub use discretize::BinningStrategy;
pub use drift::{drift_between, DriftReport, PatternDrift};
pub use explorer::{DivExplorer, ExplorationStats, ExploreError, LatticeTallies, StageTimings};
pub use fairness::{audit_fairness, FairnessAudit};
pub use item::{Item, ItemId};
pub use lattice::{Lattice, LatticeNode};
pub use neighborhood::{neighborhood, Neighborhood};
pub use pruning::DivergenceFilterSink;
pub use query::PatternQuery;
pub use report::{DivergenceReport, PatternRef, SortBy};
pub use schema::{Attribute, Schema};
pub use stats::{BetaPosterior, SignificanceSink};
pub use summary::{render_summary, SummaryOptions};

use serde::{Deserialize, Serialize};

/// The classification-performance statistic whose divergence is analyzed.
///
/// Every metric is expressed as the *positive rate* of a three-valued outcome
/// function `o(x) ∈ {T, F, ⊥}` of the ground truth `v(x)` and the prediction
/// `u(x)` (Definition 3.2 of the paper). Instances with `o(x) = ⊥` do not
/// participate in the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// `FP / (FP + TN)` — positive class wrongly predicted among true negatives.
    FalsePositiveRate,
    /// `FN / (FN + TP)` — negative class wrongly predicted among true positives.
    FalseNegativeRate,
    /// `(FP + FN) / N` — misclassification rate (never ⊥).
    ErrorRate,
    /// `(TP + TN) / N` — classification accuracy (never ⊥).
    Accuracy,
    /// `TP / (TP + FN)` — recall / sensitivity.
    TruePositiveRate,
    /// `TN / (TN + FP)` — specificity.
    TrueNegativeRate,
    /// `TP / (TP + FP)` — precision.
    PositivePredictiveValue,
    /// `TN / (TN + FN)`.
    NegativePredictiveValue,
    /// `FP / (FP + TP)` — complement of precision.
    FalseDiscoveryRate,
    /// `FN / (FN + TN)`.
    FalseOmissionRate,
    /// Rate of positive *ground truth* labels (ignores the prediction).
    PositiveRate,
    /// Rate of positive *predicted* labels (ignores the ground truth).
    PredictedPositiveRate,
}

/// A three-valued outcome (Definition 3.2): `T` contributes to the numerator
/// and denominator of the positive rate, `F` only to the denominator, and
/// `Bot` (⊥) to neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The outcome of interest occurred.
    T,
    /// The outcome of interest did not occur (but could have).
    F,
    /// The instance is outside the metric's reference class.
    Bot,
}

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; 12] = [
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

    /// Evaluates the outcome function on one instance with ground truth `v`
    /// and predicted label `u`.
    pub fn outcome(self, v: bool, u: bool) -> Outcome {
        use Outcome::{Bot, F, T};
        match self {
            Metric::FalsePositiveRate => match (v, u) {
                (false, true) => T,
                (false, false) => F,
                (true, _) => Bot,
            },
            Metric::FalseNegativeRate => match (v, u) {
                (true, false) => T,
                (true, true) => F,
                (false, _) => Bot,
            },
            Metric::ErrorRate => {
                if v != u {
                    T
                } else {
                    F
                }
            }
            Metric::Accuracy => {
                if v == u {
                    T
                } else {
                    F
                }
            }
            Metric::TruePositiveRate => match (v, u) {
                (true, true) => T,
                (true, false) => F,
                (false, _) => Bot,
            },
            Metric::TrueNegativeRate => match (v, u) {
                (false, false) => T,
                (false, true) => F,
                (true, _) => Bot,
            },
            Metric::PositivePredictiveValue => match (v, u) {
                (true, true) => T,
                (false, true) => F,
                (_, false) => Bot,
            },
            Metric::NegativePredictiveValue => match (v, u) {
                (false, false) => T,
                (true, false) => F,
                (_, true) => Bot,
            },
            Metric::FalseDiscoveryRate => match (v, u) {
                (false, true) => T,
                (true, true) => F,
                (_, false) => Bot,
            },
            Metric::FalseOmissionRate => match (v, u) {
                (true, false) => T,
                (false, false) => F,
                (_, true) => Bot,
            },
            Metric::PositiveRate => {
                if v {
                    T
                } else {
                    F
                }
            }
            Metric::PredictedPositiveRate => {
                if u {
                    T
                } else {
                    F
                }
            }
        }
    }

    /// Short display name matching the paper's notation.
    pub fn short_name(self) -> &'static str {
        match self {
            Metric::FalsePositiveRate => "FPR",
            Metric::FalseNegativeRate => "FNR",
            Metric::ErrorRate => "ER",
            Metric::Accuracy => "ACC",
            Metric::TruePositiveRate => "TPR",
            Metric::TrueNegativeRate => "TNR",
            Metric::PositivePredictiveValue => "PPV",
            Metric::NegativePredictiveValue => "NPV",
            Metric::FalseDiscoveryRate => "FDR",
            Metric::FalseOmissionRate => "FOR",
            Metric::PositiveRate => "PR",
            Metric::PredictedPositiveRate => "PPR",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{Bot, F, T};

    #[test]
    fn fpr_outcome_matches_paper_definition() {
        // o(x) = T if u ∧ ¬v; F if ¬u ∧ ¬v; ⊥ if v.
        assert_eq!(Metric::FalsePositiveRate.outcome(false, true), T);
        assert_eq!(Metric::FalsePositiveRate.outcome(false, false), F);
        assert_eq!(Metric::FalsePositiveRate.outcome(true, true), Bot);
        assert_eq!(Metric::FalsePositiveRate.outcome(true, false), Bot);
    }

    #[test]
    fn fnr_is_fpr_with_classes_swapped() {
        for v in [false, true] {
            for u in [false, true] {
                assert_eq!(
                    Metric::FalseNegativeRate.outcome(v, u),
                    Metric::FalsePositiveRate.outcome(!v, !u)
                );
            }
        }
    }

    #[test]
    fn error_rate_and_accuracy_are_complementary_and_total() {
        for v in [false, true] {
            for u in [false, true] {
                let er = Metric::ErrorRate.outcome(v, u);
                let acc = Metric::Accuracy.outcome(v, u);
                assert_ne!(er, Bot);
                assert_ne!(acc, Bot);
                assert_eq!(er == T, acc == F);
            }
        }
    }

    #[test]
    fn precision_family_bot_on_negative_predictions() {
        assert_eq!(Metric::PositivePredictiveValue.outcome(true, false), Bot);
        assert_eq!(Metric::FalseDiscoveryRate.outcome(false, false), Bot);
        assert_eq!(Metric::FalseOmissionRate.outcome(true, true), Bot);
        assert_eq!(Metric::NegativePredictiveValue.outcome(false, true), Bot);
    }

    #[test]
    fn ground_truth_positive_rate_ignores_prediction() {
        assert_eq!(Metric::PositiveRate.outcome(true, false), T);
        assert_eq!(Metric::PositiveRate.outcome(true, true), T);
        assert_eq!(Metric::PositiveRate.outcome(false, true), F);
    }
}
