//! Property tests for the condensed representations (closed/maximal
//! itemsets) and association rules, against brute-force definitions.

use fpm::closed::{closed_itemsets, condensation_flags, maximal_itemsets};
use fpm::rules::{generate_rules, RuleParams};
use fpm::{Algorithm, FrequentItemset, MiningTask, TransactionDb};

/// Unit-payload mining through the canonical `MiningTask` entry point.
fn mine_counts(
    algo: Algorithm,
    db: &TransactionDb,
    min_support_count: u64,
) -> Vec<FrequentItemset<()>> {
    MiningTask::new(db, min_support_count)
        .algorithm(algo)
        .run()
        .into_itemsets()
}
use proptest::prelude::*;

fn small_db() -> impl Strategy<Value = TransactionDb> {
    let row = proptest::collection::vec(0u32..6, 0..5);
    proptest::collection::vec(row, 1..12).prop_map(|rows| TransactionDb::from_rows(6, &rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_flags_match_bruteforce_definition(db in small_db(), min_support in 1u64..3) {
        let found = mine_counts(Algorithm::FpGrowth, &db, min_support);
        let flags = condensation_flags(&found);
        for (i, fi) in found.iter().enumerate() {
            // Brute force: closed iff no strict superset has equal support;
            // maximal iff no strict superset exists at all.
            let mut has_equal_superset = false;
            let mut has_superset = false;
            for other in &found {
                if other.items.len() > fi.items.len() && fi.is_subset_of(other) {
                    has_superset = true;
                    if other.support == fi.support {
                        has_equal_superset = true;
                    }
                }
            }
            prop_assert_eq!(flags.closed[i], !has_equal_superset, "closed flag of {:?}", fi.items);
            prop_assert_eq!(flags.maximal[i], !has_superset, "maximal flag of {:?}", fi.items);
        }
    }

    #[test]
    fn closure_preserves_support_information(db in small_db()) {
        let found = mine_counts(Algorithm::Eclat, &db, 1);
        let closed = closed_itemsets(&found);
        // Every frequent itemset has a closed superset of equal support
        // (the defining property of the closed representation).
        for fi in &found {
            prop_assert!(
                closed.iter().any(|c| fi.is_subset_of(c) && c.support == fi.support),
                "no closure for {:?}", fi.items
            );
        }
        // Maximal ⊆ closed.
        let maximal = maximal_itemsets(&found);
        for m in &maximal {
            prop_assert!(closed.iter().any(|c| c.items == m.items));
        }
    }

    #[test]
    fn rule_statistics_match_direct_counts(db in small_db(), min_conf in 0.0f64..1.0) {
        let found = mine_counts(Algorithm::Eclat, &db, 1);
        let rules = generate_rules(&found, &RuleParams {
            min_confidence: min_conf,
            n_transactions: db.len(),
        });
        for rule in &rules {
            prop_assert!(rule.confidence >= min_conf);
            // Recount directly from the database.
            let both: Vec<u32> = {
                let mut v = rule.antecedent.clone();
                v.extend_from_slice(&rule.consequent);
                v.sort_unstable();
                v
            };
            let count = |items: &[u32]| {
                (0..db.len()).filter(|&t| db.covers(t, items)).count() as f64
            };
            let sup_both = count(&both);
            let sup_a = count(&rule.antecedent);
            let sup_c = count(&rule.consequent);
            let n = db.len() as f64;
            prop_assert!((rule.support - sup_both / n).abs() < 1e-12);
            prop_assert!((rule.confidence - sup_both / sup_a).abs() < 1e-12);
            prop_assert!((rule.lift - (sup_both / sup_a) / (sup_c / n)).abs() < 1e-9);
        }
    }

    #[test]
    fn rule_sides_are_disjoint_and_nonempty(db in small_db()) {
        let found = mine_counts(Algorithm::FpGrowth, &db, 1);
        let rules = generate_rules(&found, &RuleParams { min_confidence: 0.1, n_transactions: db.len() });
        for rule in &rules {
            prop_assert!(!rule.antecedent.is_empty());
            prop_assert!(!rule.consequent.is_empty());
            prop_assert!(rule.antecedent.iter().all(|i| !rule.consequent.contains(i)));
        }
    }
}
