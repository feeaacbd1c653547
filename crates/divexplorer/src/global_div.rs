//! Global item divergence (§4.3): a generalization of the Shapley value
//! measuring an item's contribution to divergence across the *whole*
//! frequent-itemset lattice.
//!
//! For an itemset `I`, the paper's Definition 4.3 gives
//!
//! ```text
//! Δᵍ(I) = Σ_{B ⊆ A∖attr(I)}  |B|!(|A|−|B|−|I|)! / (|A|! · Π_{b ∈ B∪attr(I)} m_b)
//!           · Σ_{J ∈ 𝓘_B} [Δ(J ∪ I) − Δ(J)]
//! ```
//!
//! and Eq. 8 approximates it by restricting `J ∪ I` to *frequent* itemsets,
//! which is exactly what a complete [`DivergenceReport`] contains. This
//! module computes the Eq. 8 approximation `Δ̃ᵍ(I, s)`.

use fpm::Subset;

use crate::item::{is_subset, ItemId};
use crate::report::DivergenceReport;

/// Checked form of [`global_item_divergence`]: refuses a report produced by
/// a budget-truncated exploration.
///
/// Eq. 8 approximates `Δᵍ` by summing marginal contributions over the
/// *complete* frequent lattice at support `s`; a truncated report is missing
/// an unknown subset of frequent patterns, so the sum is silently biased
/// rather than merely less precise. Use this entry point when the report may
/// come from a bounded run (see [`fpm::Budget`]).
pub fn global_item_divergence_checked(
    report: &DivergenceReport,
    m: usize,
) -> Result<Vec<(ItemId, f64)>, fpm::TruncationReason> {
    match report.completeness().truncation_reason() {
        Some(reason) => Err(reason),
        None => Ok(global_item_divergence(report, m)),
    }
}

/// Checked form of [`global_itemset_divergence`]: refuses a report produced
/// by a budget-truncated exploration (see [`global_item_divergence_checked`]
/// for why truncation silently biases Eq. 8).
pub fn global_itemset_divergence_checked(
    report: &DivergenceReport,
    items: &[ItemId],
    m: usize,
) -> Result<Option<f64>, fpm::TruncationReason> {
    match report.completeness().truncation_reason() {
        Some(reason) => Err(reason),
        None => Ok(global_itemset_divergence(report, items, m)),
    }
}

/// The approximate global divergence `Δ̃ᵍ({α}, s)` of every frequent single
/// item, computed in one scan over the report.
///
/// Assumes `report` covers the complete frequent lattice at its support
/// threshold; for reports that may be budget-truncated, prefer
/// [`global_item_divergence_checked`].
///
/// For each frequent pattern `K ∋ α` with `J = K ∖ {α}` (frequent by
/// closure), the term weight is
/// `|J|!(|A|−|J|−1)! / (|A|! · Π_{b ∈ attr(K)} m_b)` — note
/// `attr(J) ∪ attr(α) = attr(K)`. Terms with undefined `Δ` are skipped.
///
/// Returns `(item, Δ̃ᵍ)` pairs for every frequent item, sorted by item id.
pub fn global_item_divergence(report: &DivergenceReport, m: usize) -> Vec<(ItemId, f64)> {
    global_item_divergence_of(report, |report, idx| report.divergence(idx, m))
}

/// Generalized form of [`global_item_divergence`]: computes `Δ̃ᵍ` for an
/// arbitrary divergence function over the report's patterns, given by
/// pattern index (`NaN` = undefined, which skips the term; `Δ(∅) = 0` by
/// definition and is never asked for).
///
/// This is the hook behind Theorem 4.1's *linearity* axiom: combining two
/// divergence notions linearly combines their global divergences (see the
/// axiom tests). It also admits custom statistics, e.g. loss-based
/// divergences, without re-mining.
///
/// Each `J = K ∖ {α}` is read from [`DivergenceReport::subsets`]; a `J`
/// absent from the report (only under a `max_len` cap or a filtered
/// report) skips its term. Terms are summed per item in pattern order.
pub fn global_item_divergence_of(
    report: &DivergenceReport,
    delta_of: impl Fn(&DivergenceReport, usize) -> f64,
) -> Vec<(ItemId, f64)> {
    let _span = obs::span("global_div.item_divergence");
    let schema = report.schema();
    let weights = positional_weights(schema.n_attributes());

    // Dense per-item accumulators; `present` marks the items reported.
    let n_items = schema.n_items() as usize;
    let mut acc = vec![0.0f64; n_items];
    let mut present = vec![false; n_items];

    for k_idx in 0..report.len() {
        let k_items = report.items(k_idx);
        // Every frequent single item is reported, even with zero net
        // effect.
        if let [item] = *k_items {
            present[item as usize] = true;
        }
        let delta_k = delta_of(report, k_idx);
        if delta_k.is_nan() {
            continue;
        }
        // Π_{b ∈ attr(K)} m_b — shared by all items of K.
        let w = weights[k_items.len() - 1] / schema.domain_product(k_items);
        for (&alpha, edge) in k_items.iter().zip(report.subsets(k_idx)) {
            let delta_j = match edge.get() {
                Subset::Empty => 0.0,
                Subset::Stored(j_idx) => delta_of(report, j_idx),
                Subset::Absent => continue,
            };
            if delta_j.is_nan() {
                continue;
            }
            acc[alpha as usize] += w * (delta_k - delta_j);
            present[alpha as usize] = true;
        }
    }

    (0..n_items)
        .filter(|&item| present[item])
        .map(|item| (item as ItemId, acc[item]))
        .collect()
}

/// The approximate global divergence `Δ̃ᵍ(I, s)` of an arbitrary frequent
/// itemset `I` (Definition 4.3 / Eq. 8), by scanning all frequent supersets
/// `K ⊇ I`.
///
/// Returns `None` if `I` is empty or not frequent.
pub fn global_itemset_divergence(
    report: &DivergenceReport,
    items: &[ItemId],
    m: usize,
) -> Option<f64> {
    if items.is_empty() || report.find(items).is_none() {
        return None;
    }
    let n_attrs = report.schema().n_attributes();
    let i_len = items.len();
    // weight(b) = b!(n−b−i)!/n! for |B| = b.
    let weights = itemset_weights(n_attrs, i_len);

    let mut total = 0.0;
    for k_idx in 0..report.len() {
        let k_items = report.items(k_idx);
        if k_items.len() < i_len || !is_subset(items, k_items) {
            continue;
        }
        let delta_k = report.divergence(k_idx, m);
        if delta_k.is_nan() {
            continue;
        }
        let j: Vec<ItemId> = k_items
            .iter()
            .copied()
            .filter(|i| !items.contains(i))
            .collect();
        let Some(delta_j) = report.divergence_of(&j, m) else {
            continue;
        };
        if delta_j.is_nan() {
            continue;
        }
        let domain_product = report.schema().domain_product(k_items);
        total += weights[j.len()] / domain_product * (delta_k - delta_j);
    }
    Some(total)
}

/// `w(j) = j!(n−j−1)!/n!` for `j = 0..n`, indexed by `j` (the single-item
/// case of the weight in Eq. 6). Computed iteratively as `1/(n·C(n−1, j))`.
fn positional_weights(n: usize) -> Vec<f64> {
    itemset_weights(n, 1)
}

/// `w(b) = b!(n−b−i)!/n!` for `b = 0..=n−i`, the general Eq. 6 weight for an
/// itemset of length `i`.
fn itemset_weights(n: usize, i: usize) -> Vec<f64> {
    assert!(i >= 1 && i <= n);
    // w(b) = b!(n-b-i)!/n!. Compute via logs-free iteration:
    // w(0) = (n-i)!/n! = 1 / (n·(n-1)·…·(n-i+1)).
    let mut w0 = 1.0f64;
    for t in 0..i {
        w0 /= (n - t) as f64;
    }
    let mut weights = Vec::with_capacity(n - i + 1);
    let mut w = w0;
    weights.push(w);
    // w(b+1)/w(b) = (b+1)/(n-b-i).
    for b in 0..(n - i) {
        w *= (b + 1) as f64 / (n - b - i) as f64;
        weights.push(w);
    }
    weights
}

/// The right-hand side of the paper's efficiency property (Eq. 7): the mean
/// divergence over all *complete* itemsets (those with every attribute),
/// estimated from the frequent complete itemsets in the report.
///
/// With a support threshold low enough that every nonempty-support complete
/// itemset is frequent, `Σ_items Δ̃ᵍ = mean_complete Δ` exactly when every
/// cell of the attribute cross-product is populated (see the
/// `efficiency_property` test).
pub fn mean_complete_divergence(report: &DivergenceReport, m: usize) -> f64 {
    let n_attrs = report.schema().n_attributes();
    let n_complete: f64 = (0..n_attrs)
        .map(|a| report.schema().cardinality(a) as f64)
        .product();
    let mut total = 0.0;
    for idx in 0..report.len() {
        if report.items(idx).len() == n_attrs {
            let d = report.divergence(idx, m);
            if !d.is_nan() {
                total += d;
            }
        }
    }
    total / n_complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    #[test]
    fn weights_match_factorial_formula() {
        for n in 1..=10usize {
            for i in 1..=n {
                let w = itemset_weights(n, i);
                assert_eq!(w.len(), n - i + 1);
                for (b, &wb) in w.iter().enumerate() {
                    let expected = factorial(b) * factorial(n - b - i) / factorial(n);
                    assert!(
                        (wb - expected).abs() < 1e-12 * expected.max(1.0),
                        "n={n} i={i} b={b}: {wb} vs {expected}"
                    );
                }
            }
        }
    }

    fn factorial(n: usize) -> f64 {
        (1..=n).map(|x| x as f64).product()
    }

    /// A 3-attribute dataset covering the full cross product, with errors
    /// concentrated where x=1 ∧ y=1.
    fn full_coverage_fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut v = Vec::new();
        let mut u = Vec::new();
        // Four copies of the full 2x2x2 cube.
        for rep in 0..4u16 {
            for xi in 0..2u16 {
                for yi in 0..2u16 {
                    for zi in 0..2u16 {
                        x.push(xi);
                        y.push(yi);
                        z.push(zi);
                        v.push(false);
                        // FP iff x=1 ∧ y=1, plus one noise FP.
                        u.push((xi == 1 && yi == 1) || (rep == 0 && xi == 0 && yi == 0 && zi == 1));
                    }
                }
            }
        }
        let mut b = DatasetBuilder::new();
        b.categorical("x", &["0", "1"], &x);
        b.categorical("y", &["0", "1"], &y);
        b.categorical("z", &["0", "1"], &z);
        (b.build().unwrap(), v, u)
    }

    #[test]
    fn efficiency_property() {
        // Eq. 7: Σ_{a,c} Δᵍ(a=c) = mean over complete itemsets of Δ.
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let globals = global_item_divergence(&report, 0);
        let lhs: f64 = globals.iter().map(|(_, g)| g).sum();
        let rhs = mean_complete_divergence(&report, 0);
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn joint_cause_items_have_high_global_divergence() {
        // §4.4's phenomenon in miniature: x and y cause divergence jointly;
        // z does not. Global divergence ranks x, y above z.
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let globals = global_item_divergence(&report, 0);
        let schema = report.schema();
        let g = |name: &str, val: &str| {
            let id = schema.item_by_name(name, val).unwrap();
            globals.iter().find(|(i, _)| *i == id).unwrap().1
        };
        assert!(g("x", "1") > g("z", "0").abs());
        assert!(g("y", "1") > g("z", "1").abs());
        // x=1 and y=1 are symmetric by construction up to the noise FP.
        assert!((g("x", "1") - g("y", "1")).abs() < 0.05);
    }

    #[test]
    fn single_item_global_matches_itemset_form() {
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let globals = global_item_divergence(&report, 0);
        for &(item, g) in &globals {
            let via_itemset = global_itemset_divergence(&report, &[item], 0).unwrap();
            assert!((g - via_itemset).abs() < 1e-12, "item {item}");
        }
    }

    #[test]
    fn null_item_has_zero_global_divergence() {
        // An attribute independent of errors and of other attributes:
        // adding it never changes Δ, so Δᵍ ≈ 0 (Theorem 4.1, null items).
        let mut x = Vec::new();
        let mut w = Vec::new();
        let mut v = Vec::new();
        let mut u = Vec::new();
        for rep in 0..8u16 {
            for xi in 0..2u16 {
                for wi in 0..2u16 {
                    x.push(xi);
                    w.push(wi);
                    v.push(false);
                    u.push(xi == 1 && rep < 4); // errors depend only on x
                }
            }
        }
        let mut b = DatasetBuilder::new();
        b.categorical("x", &["0", "1"], &x);
        b.categorical("w", &["0", "1"], &w);
        let data = b.build().unwrap();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let globals = global_item_divergence(&report, 0);
        let schema = report.schema();
        for val in ["0", "1"] {
            let id = schema.item_by_name("w", val).unwrap();
            let g = globals.iter().find(|(i, _)| *i == id).unwrap().1;
            assert!(g.abs() < 1e-12, "w={val} got {g}");
        }
    }

    #[test]
    fn linearity_axiom_theorem_4_1() {
        // Δ = γ1·Δ_FPR + γ2·Δ_ER  =>  Δᵍ = γ1·Δᵍ_FPR + γ2·Δᵍ_ER.
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.0)
            .explore(
                &data,
                &v,
                &u,
                &[Metric::FalsePositiveRate, Metric::ErrorRate],
            )
            .unwrap();
        let (g1, g2) = (2.0, -0.5);
        let combined = global_item_divergence_of(&report, |r, idx| {
            g1 * r.divergence(idx, 0) + g2 * r.divergence(idx, 1)
        });
        let fpr = global_item_divergence(&report, 0);
        let er = global_item_divergence(&report, 1);
        for ((item, g), ((_, gf), (_, ge))) in combined.iter().zip(fpr.iter().zip(&er)) {
            assert!(
                (g - (g1 * gf + g2 * ge)).abs() < 1e-12,
                "linearity violated for item {item}"
            );
        }
    }

    #[test]
    fn symmetry_axiom_theorem_4_1() {
        // Two items with identical effect in every context get identical
        // global divergence. Build a dataset where x and y are exact copies.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut v = Vec::new();
        let mut u = Vec::new();
        for rep in 0..8u16 {
            for xi in 0..2u16 {
                for zi in 0..2u16 {
                    x.push(xi);
                    y.push(xi); // y ≡ x
                    z.push(zi);
                    v.push(false);
                    u.push(xi == 1 && rep < 3);
                }
            }
        }
        let mut b = DatasetBuilder::new();
        b.categorical("x", &["0", "1"], &x);
        b.categorical("y", &["0", "1"], &y);
        b.categorical("z", &["0", "1"], &z);
        let data = b.build().unwrap();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let globals = global_item_divergence(&report, 0);
        let schema = report.schema();
        for val in ["0", "1"] {
            let gx = globals
                .iter()
                .find(|(i, _)| *i == schema.item_by_name("x", val).unwrap())
                .unwrap()
                .1;
            let gy = globals
                .iter()
                .find(|(i, _)| *i == schema.item_by_name("y", val).unwrap())
                .unwrap()
                .1;
            assert!(
                (gx - gy).abs() < 1e-12,
                "symmetry violated at {val}: {gx} vs {gy}"
            );
        }
    }

    #[test]
    fn checked_forms_refuse_truncated_reports() {
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        assert!(global_item_divergence_checked(&report, 0).is_ok());

        let truncated = report
            .clone()
            .with_completeness(fpm::Completeness::Truncated {
                reason: fpm::TruncationReason::Timeout,
                emitted: 3,
                elapsed: std::time::Duration::from_millis(7),
            });
        assert_eq!(
            global_item_divergence_checked(&truncated, 0),
            Err(fpm::TruncationReason::Timeout)
        );
        let schema = truncated.schema();
        let item = schema.item_by_name("x", "1").unwrap();
        assert_eq!(
            global_itemset_divergence_checked(&truncated, &[item], 0),
            Err(fpm::TruncationReason::Timeout)
        );
    }

    #[test]
    fn infrequent_or_empty_itemset_returns_none() {
        let (data, v, u) = full_coverage_fixture();
        let report = DivExplorer::new(0.3)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        assert_eq!(global_itemset_divergence(&report, &[], 0), None);
        // The full triple has support 1/8 < 0.3.
        let schema = report.schema();
        let triple = vec![
            schema.item_by_name("x", "1").unwrap(),
            schema.item_by_name("y", "1").unwrap(),
            schema.item_by_name("z", "1").unwrap(),
        ];
        assert_eq!(global_itemset_divergence(&report, &triple, 0), None);
    }
}
