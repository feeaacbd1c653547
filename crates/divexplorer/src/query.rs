//! Declarative filtering of an exploration's patterns — the programmatic
//! counterpart of a fairness auditor's questions: *"show me the divergent
//! subgroups involving a protected attribute"*, *"only short patterns"*,
//! *"only patterns over these departments"*.
//!
//! A [`PatternQuery`] composes predicates over the (already computed)
//! report, so querying is cheap and never re-mines.

use crate::item::ItemId;
use crate::report::{DivergenceReport, SortBy};

/// A composable filter over the patterns of a [`DivergenceReport`].
///
/// All conditions are conjunctive. Construction is builder-style:
///
/// ```
/// # use divexplorer::{DatasetBuilder, DivExplorer, Metric};
/// # use divexplorer::query::PatternQuery;
/// # let mut b = DatasetBuilder::new();
/// # b.categorical("race", &["A", "B"], &[0, 0, 1, 1]);
/// # b.categorical("sex", &["M", "F"], &[0, 1, 0, 1]);
/// # let data = b.build().unwrap();
/// # let report = DivExplorer::new(0.25)
/// #     .explore(&data, &[false; 4], &[true, false, false, false],
/// #              &[Metric::ErrorRate]).unwrap();
/// let race = report.schema().attribute_index("race").unwrap();
/// let hits = PatternQuery::new()
///     .require_attribute(race)   // only subgroups mentioning race
///     .max_len(2)
///     .min_abs_divergence(0.1)
///     .run(&report, 0);
/// # assert!(!hits.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternQuery {
    require_attributes: Vec<usize>,
    forbid_attributes: Vec<usize>,
    require_items: Vec<ItemId>,
    min_len: Option<usize>,
    max_len: Option<usize>,
    min_support: Option<f64>,
    min_abs_divergence: Option<f64>,
    min_t: Option<f64>,
    order: Option<SortBy>,
    limit: Option<usize>,
}

impl PatternQuery {
    /// An unconstrained query (matches every pattern with defined Δ).
    pub fn new() -> Self {
        Self::default()
    }

    /// The pattern must mention attribute `a` (schema index).
    pub fn require_attribute(mut self, a: usize) -> Self {
        self.require_attributes.push(a);
        self
    }

    /// The pattern must not mention attribute `a`.
    pub fn forbid_attribute(mut self, a: usize) -> Self {
        self.forbid_attributes.push(a);
        self
    }

    /// The pattern must contain this exact item.
    pub fn require_item(mut self, item: ItemId) -> Self {
        self.require_items.push(item);
        self
    }

    /// Minimum pattern length.
    pub fn min_len(mut self, len: usize) -> Self {
        self.min_len = Some(len);
        self
    }

    /// Maximum pattern length.
    pub fn max_len(mut self, len: usize) -> Self {
        self.max_len = Some(len);
        self
    }

    /// Minimum support fraction.
    pub fn min_support(mut self, s: f64) -> Self {
        self.min_support = Some(s);
        self
    }

    /// Minimum `|Δ|`.
    pub fn min_abs_divergence(mut self, d: f64) -> Self {
        self.min_abs_divergence = Some(d);
        self
    }

    /// Minimum Welch t-statistic.
    pub fn min_t(mut self, t: f64) -> Self {
        self.min_t = Some(t);
        self
    }

    /// Result ordering (default: the report's `AbsDivergence`).
    pub fn order_by(mut self, order: SortBy) -> Self {
        self.order = Some(order);
        self
    }

    /// Cap the number of results.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// True iff pattern `idx` of `report` matches under metric `m`.
    pub fn matches(&self, report: &DivergenceReport, idx: usize, m: usize) -> bool {
        let items = report.items(idx);
        let delta = report.divergence(idx, m);
        if delta.is_nan() {
            return false;
        }
        if let Some(min) = self.min_len {
            if items.len() < min {
                return false;
            }
        }
        if let Some(max) = self.max_len {
            if items.len() > max {
                return false;
            }
        }
        if let Some(s) = self.min_support {
            if report.support_fraction(idx) < s {
                return false;
            }
        }
        if let Some(d) = self.min_abs_divergence {
            if delta.abs() < d {
                return false;
            }
        }
        if let Some(t) = self.min_t {
            if report.t_statistic(idx, m) < t {
                return false;
            }
        }
        if !self.require_items.iter().all(|item| items.contains(item)) {
            return false;
        }
        if !self.require_attributes.is_empty() || !self.forbid_attributes.is_empty() {
            let attrs = report.schema().itemset_attributes(items);
            if !self.require_attributes.iter().all(|a| attrs.contains(a)) {
                return false;
            }
            if self.forbid_attributes.iter().any(|a| attrs.contains(a)) {
                return false;
            }
        }
        true
    }

    /// Runs the query: matching pattern indices in the requested order.
    pub fn run(&self, report: &DivergenceReport, m: usize) -> Vec<usize> {
        let order = self.order.unwrap_or(SortBy::AbsDivergence);
        let mut out: Vec<usize> = report
            .ranked(m, order)
            .into_iter()
            .filter(|&idx| self.matches(report, idx, m))
            .collect();
        if let Some(k) = self.limit {
            out.truncate(k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    fn report() -> DivergenceReport {
        let race = [0, 0, 0, 0, 1, 1, 1, 1u16];
        let sex = [0, 1, 0, 1, 0, 1, 0, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("race", &["A", "B"], &race);
        b.categorical("sex", &["M", "F"], &sex);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u = vec![true, true, true, false, false, false, false, false];
        DivExplorer::new(0.2)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap()
    }

    #[test]
    fn require_attribute_restricts_to_protected_subgroups() {
        let r = report();
        let race = r.schema().attribute_index("race").unwrap();
        let hits = PatternQuery::new().require_attribute(race).run(&r, 0);
        assert!(!hits.is_empty());
        for idx in hits {
            let attrs = r.schema().itemset_attributes(r.items(idx));
            assert!(attrs.contains(&race));
        }
    }

    #[test]
    fn forbid_attribute_excludes_it() {
        let r = report();
        let sex = r.schema().attribute_index("sex").unwrap();
        let hits = PatternQuery::new().forbid_attribute(sex).run(&r, 0);
        assert!(!hits.is_empty());
        for idx in hits {
            assert!(!r.schema().itemset_attributes(r.items(idx)).contains(&sex));
        }
    }

    #[test]
    fn length_support_and_divergence_bounds_compose() {
        let r = report();
        let hits = PatternQuery::new()
            .min_len(2)
            .max_len(2)
            .min_support(0.2)
            .min_abs_divergence(0.01)
            .run(&r, 0);
        for idx in &hits {
            assert_eq!(r.items(*idx).len(), 2);
            assert!(r.support_fraction(*idx) >= 0.2);
            assert!(r.divergence(*idx, 0).abs() >= 0.01);
        }
    }

    #[test]
    fn require_item_pins_one_value() {
        let r = report();
        let race_a = r.schema().item_by_name("race", "A").unwrap();
        let hits = PatternQuery::new().require_item(race_a).run(&r, 0);
        assert!(!hits.is_empty());
        for idx in hits {
            assert!(r.items(idx).contains(&race_a));
        }
    }

    #[test]
    fn limit_and_order_apply() {
        let r = report();
        let hits = PatternQuery::new()
            .order_by(SortBy::Support)
            .limit(2)
            .run(&r, 0);
        assert_eq!(hits.len(), 2);
        assert!(r.support(hits[0]) >= r.support(hits[1]));
    }

    #[test]
    fn min_t_filters_weak_evidence() {
        let r = report();
        let all = PatternQuery::new().run(&r, 0).len();
        let strict = PatternQuery::new().min_t(1e9).run(&r, 0).len();
        assert!(strict < all);
        assert_eq!(strict, 0);
    }
}
