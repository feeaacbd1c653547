//! Association rules derived from a frequent-itemset collection
//! (Agrawal & Srikant, VLDB 1994): `antecedent ⇒ consequent` with support,
//! confidence and lift.
//!
//! Rule mining rounds out the FPM substrate: DivExplorer itself consumes
//! raw itemsets, but rule confidence is the natural language for reading a
//! mined pattern ("misdemeanor + short stay ⇒ no priors, confidence 0.8"),
//! and lift reveals the attribute correlations that the divergence analyses
//! (e.g. Figure 9's Masters/Prof confound) rest on.

use rustc_hash::FxHashMap;

use crate::itemset::FrequentItemset;
use crate::transaction::ItemId;

/// One association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Left-hand side (sorted, non-empty).
    pub antecedent: Vec<ItemId>,
    /// Right-hand side (sorted, non-empty, disjoint from the antecedent).
    pub consequent: Vec<ItemId>,
    /// Support fraction of `antecedent ∪ consequent`.
    pub support: f64,
    /// `sup(A ∪ C) / sup(A)`.
    pub confidence: f64,
    /// `confidence / sup(C)` — > 1 means positive association.
    pub lift: f64,
}

/// Parameters of [`generate_rules`].
#[derive(Debug, Clone)]
pub struct RuleParams {
    /// Minimum confidence for a rule to be emitted.
    pub min_confidence: f64,
    /// Total transactions in the mined database (for support fractions).
    pub n_transactions: usize,
}

/// Generates all association rules from a *complete* frequent-itemset
/// collection (as produced by any miner in this crate, no `max_len` cap),
/// keeping those with confidence ≥ the threshold.
///
/// Every rule's antecedent and consequent are frequent by closure, so all
/// statistics come from lookups — no data re-scan.
pub fn generate_rules<P>(found: &[FrequentItemset<P>], params: &RuleParams) -> Vec<Rule> {
    assert!(
        params.n_transactions > 0,
        "need a positive transaction count"
    );
    assert!(
        (0.0..=1.0).contains(&params.min_confidence),
        "confidence must be in [0, 1]"
    );
    let support_of: FxHashMap<&[ItemId], u64> = found
        .iter()
        .map(|fi| (fi.items.as_slice(), fi.support))
        .collect();
    let n = params.n_transactions as f64;

    let mut rules = Vec::new();
    let mut antecedent = Vec::new();
    let mut consequent = Vec::new();
    for fi in found {
        let k = fi.items.len();
        if k < 2 {
            continue;
        }
        debug_assert!(k < 64);
        // All proper, non-empty splits of the itemset.
        for mask in 1u64..((1u64 << k) - 1) {
            antecedent.clear();
            consequent.clear();
            for (i, &item) in fi.items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    antecedent.push(item);
                } else {
                    consequent.push(item);
                }
            }
            let Some(&sup_a) = support_of.get(antecedent.as_slice()) else {
                continue; // impossible on complete inputs
            };
            let confidence = fi.support as f64 / sup_a as f64;
            if confidence < params.min_confidence {
                continue;
            }
            let Some(&sup_c) = support_of.get(consequent.as_slice()) else {
                continue;
            };
            rules.push(Rule {
                antecedent: antecedent.clone(),
                consequent: consequent.clone(),
                support: fi.support as f64 / n,
                confidence,
                lift: confidence / (sup_c as f64 / n),
            });
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap()
            .then_with(|| b.lift.partial_cmp(&a.lift).unwrap())
            .then_with(|| a.antecedent.cmp(&b.antecedent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningTask};

    /// Item 1 occurs iff item 0 occurs (perfect implication 0 ⇒ 1);
    /// item 2 is independent.
    fn rules_fixture() -> Vec<Rule> {
        let db = TransactionDb::from_rows(
            3,
            &[
                vec![0, 1],
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 1, 2],
                vec![2],
                vec![],
                vec![2],
                vec![],
            ],
        );
        let found = MiningTask::new(&db, 1)
            .algorithm(Algorithm::FpGrowth)
            .run()
            .into_itemsets();
        generate_rules(
            &found,
            &RuleParams {
                min_confidence: 0.0,
                n_transactions: db.len(),
            },
        )
    }

    fn find<'a>(rules: &'a [Rule], a: &[u32], c: &[u32]) -> &'a Rule {
        rules
            .iter()
            .find(|r| r.antecedent == a && r.consequent == c)
            .unwrap_or_else(|| panic!("rule {a:?} => {c:?} missing"))
    }

    #[test]
    fn perfect_implication_has_confidence_one() {
        let rules = rules_fixture();
        let r = find(&rules, &[0], &[1]);
        assert!((r.confidence - 1.0).abs() < 1e-12);
        assert!((r.support - 0.5).abs() < 1e-12);
        // lift = 1.0 / sup(1) = 1 / 0.5 = 2.
        assert!((r.lift - 2.0).abs() < 1e-12);
    }

    #[test]
    fn independent_items_have_lift_one() {
        let rules = rules_fixture();
        // sup(0)=0.5, sup(2)=0.5, sup(0,2)=0.25: independent.
        let r = find(&rules, &[0], &[2]);
        assert!((r.lift - 1.0).abs() < 1e-12);
        assert!((r.confidence - 0.5).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        let db = TransactionDb::from_rows(2, &[vec![0, 1], vec![0], vec![0], vec![0]]);
        let found = MiningTask::new(&db, 1)
            .algorithm(Algorithm::FpGrowth)
            .run()
            .into_itemsets();
        let strict = generate_rules(
            &found,
            &RuleParams {
                min_confidence: 0.9,
                n_transactions: 4,
            },
        );
        // 0 => 1 has confidence 0.25 (dropped); 1 => 0 has confidence 1.
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].antecedent, vec![1]);
        assert_eq!(strict[0].consequent, vec![0]);
    }

    #[test]
    fn rules_are_sorted_by_confidence() {
        let rules = rules_fixture();
        assert!(rules.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn all_splits_of_triples_are_generated() {
        let rules = rules_fixture();
        // The triple {0,1,2} yields 2^3 - 2 = 6 rules.
        let from_triple = rules
            .iter()
            .filter(|r| r.antecedent.len() + r.consequent.len() == 3)
            .count();
        assert_eq!(from_triple, 6);
    }
}
