//! Property tests for the theoretical guarantees (Theorems 4.1/4.2,
//! Shapley axioms, cross-module consistency) on randomized inputs.

use divexplorer::{
    continuous::explore_statistic, global_div, shapley::item_contributions, DatasetBuilder,
    DiscreteDataset, DivExplorer, Metric,
};
use proptest::prelude::*;

/// A random dataset covering the FULL cross product of a random small
/// schema (each cell with multiplicity ≥ 1), plus random labels — the
/// regime where the support-restricted Eq. 8 equals the exact Eq. 6.
fn full_coverage_input() -> impl Strategy<Value = (DiscreteDataset, Vec<bool>, Vec<bool>)> {
    (2u16..3, 2u16..4, 2u16..3, 1usize..3, any::<u64>()).prop_map(|(ca, cb, cc, mult, seed)| {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for ai in 0..ca {
            for bi in 0..cb {
                for ci in 0..cc {
                    for _ in 0..mult {
                        a.push(ai);
                        b.push(bi);
                        c.push(ci);
                    }
                }
            }
        }
        let n = a.len();
        // Deterministic pseudo-random labels from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let v: Vec<bool> = (0..n).map(|_| next() % 2 == 0).collect();
        let u: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
        let mut builder = DatasetBuilder::new();
        builder.categorical("A", &["0", "1", "2"][..ca as usize], &a);
        builder.categorical("B", &["0", "1", "2"][..cb as usize], &b);
        builder.categorical("C", &["0", "1", "2"][..cc as usize], &c);
        (builder.build().unwrap(), v, u)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 4.1, efficiency: Σ_items Δᵍ(item) = mean over complete
    /// itemsets of Δ, when every complete itemset is frequent.
    #[test]
    fn global_divergence_efficiency((data, v, u) in full_coverage_input()) {
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let globals = global_div::global_item_divergence(&report, 0);
        let lhs: f64 = globals.iter().map(|(_, g)| g).sum();
        let rhs = global_div::mean_complete_divergence(&report, 0);
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    /// Theorem 4.1, linearity: Δᵍ of a linear combination of divergences is
    /// the linear combination of the Δᵍ.
    #[test]
    fn global_divergence_linearity(
        (data, v, u) in full_coverage_input(),
        g1 in -3.0f64..3.0,
        g2 in -3.0f64..3.0,
    ) {
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::ErrorRate, Metric::PositiveRate])
            .unwrap();
        let combined = global_div::global_item_divergence_of(&report, |r, idx| {
            g1 * r.divergence(idx, 0) + g2 * r.divergence(idx, 1)
        });
        let d0 = global_div::global_item_divergence(&report, 0);
        let d1 = global_div::global_item_divergence(&report, 1);
        for ((item, g), ((_, a), (_, b))) in combined.iter().zip(d0.iter().zip(&d1)) {
            prop_assert!((g - (g1 * a + g2 * b)).abs() < 1e-9, "item {item}");
        }
    }

    /// Shapley dummy axiom: in a report where Δ never depends on attribute
    /// C's value (labels constructed from A/B coordinates only, uniform
    /// over C), C-items receive (near-)zero contribution in every pattern
    /// that contains them.
    #[test]
    fn shapley_dummy_axiom(ca in 2u16..3, cb in 2u16..3, mult in 1usize..3) {
        // Errors iff A=0 ∧ B=0; C purely partitions each cell evenly.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        let mut u = Vec::new();
        for ai in 0..ca {
            for bi in 0..cb {
                for ci in 0..2u16 {
                    for _ in 0..mult {
                        a.push(ai);
                        b.push(bi);
                        c.push(ci);
                        v.push(false);
                        u.push(ai == 0 && bi == 0);
                    }
                }
            }
        }
        let mut builder = DatasetBuilder::new();
        builder.categorical("A", &["0", "1", "2"][..ca as usize], &a);
        builder.categorical("B", &["0", "1", "2"][..cb as usize], &b);
        builder.categorical("C", &["0", "1"], &c);
        let data = builder.build().unwrap();
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let c_attr = report.schema().attribute_index("C").unwrap();
        for idx in 0..report.len() {
            let items = report.items(idx).to_vec();
            let Ok(contributions) = item_contributions(&report, &items, 0) else { continue };
            for (item, contribution) in contributions {
                if report.schema().decode(item).attribute as usize == c_attr {
                    prop_assert!(
                        contribution.abs() < 1e-9,
                        "dummy item got {contribution} in {}",
                        report.display_itemset(&items)
                    );
                }
            }
        }
    }

    /// Cross-module consistency: exploring the 0/1 error indicator as a
    /// continuous statistic yields exactly the ErrorRate divergences.
    #[test]
    fn continuous_explorer_matches_boolean_on_error_rate((data, v, u) in full_coverage_input()) {
        let boolean = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let values: Vec<f64> = v.iter().zip(&u)
            .map(|(&vi, &ui)| if vi != ui { 1.0 } else { 0.0 })
            .collect();
        let continuous = explore_statistic(&data, &values, 0.1, fpm::Algorithm::FpGrowth);
        prop_assert_eq!(boolean.len(), continuous.len());
        for p in boolean.patterns() {
            let c_idx = continuous.find(p.items).unwrap();
            let b_idx = boolean.find(p.items).unwrap();
            let bd = boolean.divergence(b_idx, 0);
            let cd = continuous.divergence(c_idx);
            prop_assert!((bd - cd).abs() < 1e-12, "{bd} vs {cd}");
        }
    }

    /// Theorem 4.2's direction on arbitrary data: global and individual
    /// divergence are *both* defined for every frequent item, and they are
    /// genuinely different functions (they disagree somewhere on most
    /// random inputs — we only assert they are finite and well-formed, plus
    /// the sum rule against the itemset form).
    #[test]
    fn global_divergence_is_well_formed((data, v, u) in full_coverage_input()) {
        let report = DivExplorer::new(0.0)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let globals = global_div::global_item_divergence(&report, 0);
        prop_assert!(!globals.is_empty());
        for &(item, g) in &globals {
            prop_assert!(g.is_finite());
            let via_itemset =
                global_div::global_itemset_divergence(&report, &[item], 0).unwrap();
            prop_assert!((g - via_itemset).abs() < 1e-9);
        }
    }
}
