//! Local Shapley values: attributing an itemset's divergence to its items
//! (§4.1, Definition 4.1).
//!
//! The contribution of item `α` to the divergence of itemset `I` is
//!
//! ```text
//! Δ(α|I) = Σ_{J ⊆ I∖{α}}  |J|!(|I|−|J|−1)!/|I|!  ·  [Δ(J ∪ {α}) − Δ(J)]
//! ```
//!
//! Since every subset of a frequent itemset is frequent, all terms can be
//! looked up in a complete [`DivergenceReport`] — the payoff of the paper's
//! exhaustive exploration.

use crate::item::ItemId;
use crate::report::DivergenceReport;

/// Errors from Shapley attribution.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapleyError {
    /// A subset's divergence is not in the report (the exploration was run
    /// with a `max_len` cap, or the itemset itself is not frequent).
    MissingSubset(Vec<ItemId>),
    /// A subset's divergence is undefined (NaN: empty reference class).
    UndefinedDivergence(Vec<ItemId>),
    /// The metric index is out of range.
    BadMetric(usize),
    /// The report comes from a budget-truncated exploration: subset
    /// closure does not hold, so attribution would silently mix missing
    /// and present terms. Re-run the exploration without (or within) the
    /// budget.
    TruncatedReport(fpm::TruncationReason),
}

impl std::fmt::Display for ShapleyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapleyError::MissingSubset(items) => {
                write!(
                    f,
                    "subset {items:?} is not in the report (incomplete exploration?)"
                )
            }
            ShapleyError::UndefinedDivergence(items) => {
                write!(
                    f,
                    "subset {items:?} has undefined divergence for this metric"
                )
            }
            ShapleyError::BadMetric(m) => write!(f, "metric index {m} out of range"),
            ShapleyError::TruncatedReport(reason) => {
                write!(
                    f,
                    "report is from a truncated exploration ({reason}); \
                     Shapley attribution needs the complete frequent lattice"
                )
            }
        }
    }
}

/// Shapley attribution requires subset closure, which only a complete
/// exploration guarantees.
fn require_complete(report: &DivergenceReport) -> Result<(), ShapleyError> {
    match report.completeness().truncation_reason() {
        Some(reason) => Err(ShapleyError::TruncatedReport(reason)),
        None => Ok(()),
    }
}

impl std::error::Error for ShapleyError {}

/// The Shapley contribution of every item of `items` to `Δ(items)` under
/// metric `m`, in item order.
///
/// The contributions satisfy *efficiency*: they sum to `Δ(items)` (verified
/// by property tests). Negative contributions indicate items that pull the
/// itemset's divergence toward zero (cf. Figure 3 of the paper).
pub fn item_contributions(
    report: &DivergenceReport,
    items: &[ItemId],
    m: usize,
) -> Result<Vec<(ItemId, f64)>, ShapleyError> {
    if m >= report.metrics().len() {
        return Err(ShapleyError::BadMetric(m));
    }
    require_complete(report)?;
    let k = items.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    assert!(k <= 64, "itemset too long for bitmask enumeration");
    let _span = obs::span("shapley.contributions");
    obs::counter("shapley.subset_evals", 1u64 << k);
    // Precompute the permutation weights w(|J|) = |J|!(k−|J|−1)!/k!.
    let weights = subset_weights(k);

    // Δ of the subset of `items` at the positions set in `mask`, failing
    // fast on gaps.
    let mut subset = Vec::with_capacity(k);
    let mut delta = |mask: u64| -> Result<f64, ShapleyError> {
        subset.clear();
        subset.extend(
            items
                .iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 != 0)
                .map(|(_, &item)| item),
        );
        match report.divergence_of(&subset, m) {
            None => Err(ShapleyError::MissingSubset(subset.clone())),
            Some(d) if d.is_nan() => Err(ShapleyError::UndefinedDivergence(subset.clone())),
            Some(d) => Ok(d),
        }
    };

    let mut out = Vec::with_capacity(k);
    for (a, &alpha) in items.iter().enumerate() {
        let bit = 1u64 << a;
        let mut contribution = 0.0;
        // J runs over the subsets of I ∖ {α} in binary counting order of
        // the remaining positions: `rest`'s bits from position a on move
        // up one place, past α's.
        for rest in 0..(1u64 << (k - 1)) {
            let j = (rest & (bit - 1)) | ((rest & !(bit - 1)) << 1);
            let d1 = delta(j | bit)?;
            let d0 = delta(j)?;
            contribution += weights[rest.count_ones() as usize] * (d1 - d0);
        }
        out.push((alpha, contribution));
    }
    Ok(out)
}

/// The Shapley weights `w(j) = j!(k−j−1)!/k!` for subsets of size `j` of a
/// `k`-item itemset, computed iteratively to avoid factorial overflow.
pub(crate) fn subset_weights(k: usize) -> Vec<f64> {
    // w(j) = 1 / (k * C(k-1, j)).
    let mut weights = Vec::with_capacity(k);
    let mut binom = 1.0f64; // C(k-1, 0)
    for j in 0..k {
        weights.push(1.0 / (k as f64 * binom));
        // C(k-1, j+1) = C(k-1, j) * (k-1-j) / (j+1)
        binom *= (k - 1 - j) as f64 / (j + 1) as f64;
    }
    weights
}

/// Monte-Carlo approximation of [`item_contributions`] for long itemsets.
///
/// Exact attribution enumerates `2^k` subsets; beyond ~20 items that is
/// prohibitive. This estimator samples `n_permutations` random orders of
/// the items and averages each item's marginal `Δ(prefix ∪ {α}) − Δ(prefix)`
/// along them — the classic permutation form of the Shapley value (Eq. 4 of
/// the paper). The estimate is unbiased and *exactly* efficient per
/// permutation (the marginals telescope to `Δ(I)`), so the returned
/// contributions always sum to `Δ(items)`.
///
/// `seed` makes the estimate reproducible.
pub fn item_contributions_sampled(
    report: &DivergenceReport,
    items: &[ItemId],
    m: usize,
    n_permutations: usize,
    seed: u64,
) -> Result<Vec<(ItemId, f64)>, ShapleyError> {
    if m >= report.metrics().len() {
        return Err(ShapleyError::BadMetric(m));
    }
    require_complete(report)?;
    let k = items.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    assert!(n_permutations > 0, "need at least one permutation");
    let _span = obs::span("shapley.contributions_sampled");
    obs::counter("shapley.permutations", n_permutations as u64);

    let delta = |subset: &[ItemId]| -> Result<f64, ShapleyError> {
        match report.divergence_of(subset, m) {
            None => Err(ShapleyError::MissingSubset(subset.to_vec())),
            Some(d) if d.is_nan() => Err(ShapleyError::UndefinedDivergence(subset.to_vec())),
            Some(d) => Ok(d),
        }
    };

    // A tiny deterministic xorshift: no RNG dependency needed for shuffles.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut totals = vec![0.0f64; k];
    let mut order: Vec<usize> = (0..k).collect();
    let mut prefix: Vec<ItemId> = Vec::with_capacity(k);
    for _ in 0..n_permutations {
        // Fisher-Yates.
        for i in (1..k).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        prefix.clear();
        let mut previous = 0.0; // Δ(∅)
        for &pos in &order {
            prefix.push(items[pos]);
            prefix.sort_unstable();
            let current = delta(&prefix)?;
            totals[pos] += current - previous;
            previous = current;
        }
    }
    Ok(items
        .iter()
        .zip(totals)
        .map(|(&item, total)| (item, total / n_permutations as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    #[test]
    fn weights_sum_over_all_subsets_is_one_per_item() {
        // Σ_{j=0}^{k-1} C(k-1, j) * w(j) = 1 (Shapley weights normalize).
        for k in 1..=8 {
            let w = subset_weights(k);
            let mut total = 0.0;
            let mut binom = 1.0;
            for (j, wj) in w.iter().enumerate() {
                total += binom * wj;
                binom *= (k - 1 - j) as f64 / (j + 1) as f64;
            }
            assert!((total - 1.0).abs() < 1e-12, "k={k}");
        }
    }

    /// Dataset where errors concentrate on g=a ∧ h=x.
    fn fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let g = [0, 0, 0, 0, 1, 1, 1, 1u16];
        let h = [0, 0, 1, 1, 0, 0, 1, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        // Both g=a,h=x rows are false positives; one more in g=b,h=y.
        let u = vec![true, true, false, false, false, false, true, false];
        (data, v, u)
    }

    #[test]
    fn efficiency_contributions_sum_to_divergence() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        for p in report.patterns() {
            let idx = report.find(p.items).unwrap();
            let delta = report.divergence(idx, 0);
            let contributions = item_contributions(&report, p.items, 0).unwrap();
            let total: f64 = contributions.iter().map(|(_, c)| c).sum();
            assert!(
                (total - delta).abs() < 1e-12,
                "efficiency violated for {}: {total} vs {delta}",
                report.display_itemset(p.items)
            );
        }
    }

    #[test]
    fn single_item_contribution_is_its_divergence() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let contributions = item_contributions(&report, &[ga], 0).unwrap();
        let idx = report.find(&[ga]).unwrap();
        assert_eq!(contributions.len(), 1);
        assert!((contributions[0].1 - report.divergence(idx, 0)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_items_get_equal_contributions() {
        // g and h play interchangeable roles around the pattern (a, x).
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hx = report.schema().item_by_name("h", "x").unwrap();
        let contributions = item_contributions(&report, &[ga, hx], 0).unwrap();
        // Δ(g=a) == Δ(h=x) by construction (2 FP each among 4 rows)… then
        // symmetry forces equal Shapley shares.
        let ia = report.find(&[ga]).unwrap();
        let ix = report.find(&[hx]).unwrap();
        assert!((report.divergence(ia, 0) - report.divergence(ix, 0)).abs() < 1e-12);
        assert!((contributions[0].1 - contributions[1].1).abs() < 1e-12);
    }

    #[test]
    fn missing_subset_is_reported() {
        let (data, v, u) = fixture();
        // Cap the exploration at length 1: pairs are absent.
        let report = DivExplorer::new(0.1)
            .with_max_len(1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hx = report.schema().item_by_name("h", "x").unwrap();
        let err = item_contributions(&report, &[ga, hx], 0).unwrap_err();
        assert!(matches!(err, ShapleyError::MissingSubset(_)));
    }

    #[test]
    fn a_long_absent_itemset_fails_on_its_first_missing_subset() {
        // Every combination of g (2 values), h (2) and k (24) on one row,
        // so every itemset with one item per attribute is frequent.
        let combos: Vec<[u16; 3]> = (0..2)
            .flat_map(|g| (0..2).flat_map(move |h| (0..24).map(move |k| [g, h, k])))
            .collect();
        let column = |a: usize| combos.iter().map(|c| c[a]).collect::<Vec<u16>>();
        let k_values: Vec<String> = (0..24).map(|k| k.to_string()).collect();
        let k_labels: Vec<&str> = k_values.iter().map(String::as_str).collect();
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &column(0));
        b.categorical("h", &["x", "y"], &column(1));
        b.categorical("k", &k_labels, &column(2));
        let data = b.build().unwrap();
        let v = vec![false; combos.len()];
        let u: Vec<bool> = (0..combos.len()).map(|r| r % 3 == 0).collect();
        let report = DivExplorer::new(0.01)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let schema = report.schema();
        let ga = schema.item_by_name("g", "a").unwrap();
        let hx = schema.item_by_name("h", "x").unwrap();
        let ks: Vec<ItemId> = k_labels
            .iter()
            .map(|k| schema.item_by_name("k", k).unwrap())
            .collect();
        // 26 items, so 2^26 subsets, of which only those before the first
        // gap are looked up. In the reference order (α in item order, J
        // over the rest in binary counting order, J ∪ {α} before J) the
        // first absent subset is g=a ∧ k=0 ∧ k=1.
        let mut items = vec![ga, hx];
        items.extend(&ks);
        assert_eq!(
            item_contributions(&report, &items, 0),
            Err(ShapleyError::MissingSubset(vec![ga, ks[0], ks[1]]))
        );
    }

    #[test]
    fn empty_itemset_has_no_contributions() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(item_contributions(&report, &[], 0).unwrap().is_empty());
    }

    #[test]
    fn sampled_contributions_are_efficient_and_converge() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hx = report.schema().item_by_name("h", "x").unwrap();
        let items = [ga, hx];
        let exact = item_contributions(&report, &items, 0).unwrap();
        let sampled = item_contributions_sampled(&report, &items, 0, 400, 9).unwrap();
        // Efficiency is exact even in the sampled estimator.
        let idx = report.find(&items).unwrap();
        let total: f64 = sampled.iter().map(|(_, c)| c).sum();
        assert!((total - report.divergence(idx, 0)).abs() < 1e-12);
        // And with 2 items, 400 permutations nail the exact values closely.
        for ((i1, c1), (i2, c2)) in exact.iter().zip(&sampled) {
            assert_eq!(i1, i2);
            assert!((c1 - c2).abs() < 0.05, "exact {c1} vs sampled {c2}");
        }
    }

    #[test]
    fn sampled_handles_missing_subsets_and_bad_metric() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .with_max_len(1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hx = report.schema().item_by_name("h", "x").unwrap();
        assert!(matches!(
            item_contributions_sampled(&report, &[ga, hx], 0, 10, 0),
            Err(ShapleyError::MissingSubset(_))
        ));
        assert!(matches!(
            item_contributions_sampled(&report, &[ga], 4, 10, 0),
            Err(ShapleyError::BadMetric(4))
        ));
        assert!(item_contributions_sampled(&report, &[], 0, 10, 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bad_metric_index() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(matches!(
            item_contributions(&report, &[0], 5),
            Err(ShapleyError::BadMetric(5))
        ));
    }
}
