//! Differential tests at paper scale for the lattice analyses: those that
//! walk the report's immediate-subset index ([`DivergenceReport::subsets`])
//! and Shapley attribution, which looks its subsets up by position.
//!
//! Each analysis must equal, bit for bit, a reference form kept here that
//! rebuilds every `I ∖ {α}` into a fresh `Vec` and hashes it through
//! `find` — the way the analyses worked before the index existed. The
//! paper-scale cells are german, heart and bank at s = 0.05 (seed 42,
//! metrics [FPR, FNR]), plus german reports that are not downward-closed:
//! one filtered by divergence during mining and one cut by a budget.
//! German at s = 0.02 (640,948 patterns), and the FDR screen over german
//! at s = 0.01 (2,926,696 hypotheses) mined by FP-growth and by dense, are
//! ignored by default and meant for a release build:
//!
//! ```text
//! cargo test --release -p datasets --test lattice_analyses -- --ignored
//! ```

use std::collections::HashMap;

use datasets::DatasetId;
use divexplorer::corrective::{corrective_items, CorrectiveItem};
use divexplorer::global_div::global_item_divergence;
use divexplorer::item::{for_each_subset, with, without};
use divexplorer::pruning::prune_redundant;
use divexplorer::shapley::{item_contributions, ShapleyError};
use divexplorer::{
    CountedCells, DivExplorer, DivergenceFilterSink, DivergenceReport, ItemId, Metric, SortBy,
};
use fpm::closed::{condensation_flags_arena, CondensationFlags};
use fpm::{Algorithm, Budget, ItemsetArena, Subset};

const SEED: u64 = 42;
const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];

fn explore(id: DatasetId, support: f64) -> DivergenceReport {
    let t = id.generate(SEED);
    let report = DivExplorer::new(support)
        .explore(&t.data, &t.v, &t.u, &METRICS)
        .unwrap();
    assert!(report.is_exploration_complete());
    report
}

/// The patterns with `|Δ| ≥ threshold` under some metric, kept by
/// filtering during mining: a report that is not downward-closed.
fn explore_filtered(id: DatasetId, support: f64, threshold: f64) -> DivergenceReport {
    let t = id.generate(SEED);
    let mut sink = DivergenceFilterSink::new(
        ItemsetArena::new(),
        &METRICS,
        t.v.len(),
        CountedCells::of_rows(&t.v, &t.u),
        threshold,
    );
    let stats = DivExplorer::new(support)
        .explore_into(&t.data, &t.v, &t.u, &METRICS, &mut sink)
        .unwrap();
    DivergenceReport::from_store(
        t.data.schema().clone(),
        METRICS.to_vec(),
        stats.n_rows,
        stats.min_support_count,
        stats.dataset_counts,
        sink.into_inner(),
    )
}

fn has_absent_edge(report: &DivergenceReport) -> bool {
    (0..report.len()).any(|idx| {
        report
            .subsets(idx)
            .iter()
            .any(|edge| edge.get() == Subset::Absent)
    })
}

// ---------------------------------------------------------------------
// Reference forms: one `without` + `find` per edge.

fn reference_prune(report: &DivergenceReport, m: usize, epsilon: f64) -> Vec<usize> {
    let mut retained = Vec::new();
    'patterns: for idx in 0..report.len() {
        let items = report.items(idx);
        let delta = report.divergence(idx, m);
        if delta.is_nan() {
            continue;
        }
        for &alpha in items {
            let base = without(items, alpha);
            let Some(delta_base) = report.divergence_of(&base, m) else {
                continue 'patterns;
            };
            if delta_base.is_nan() || (delta - delta_base).abs() <= epsilon {
                continue 'patterns;
            }
        }
        retained.push(idx);
    }
    retained
}

fn reference_global(report: &DivergenceReport, m: usize) -> Vec<(ItemId, f64)> {
    let schema = report.schema();
    let n = schema.n_attributes();
    // w(j) = j!(n−j−1)!/n!, iteratively as the library computes it.
    let mut weights = Vec::with_capacity(n);
    let mut w = 1.0 / n as f64;
    weights.push(w);
    for b in 0..n - 1 {
        w *= (b + 1) as f64 / (n - b - 1) as f64;
        weights.push(w);
    }
    let mut acc: HashMap<ItemId, f64> = HashMap::new();
    for p in report.patterns() {
        if p.items.len() == 1 {
            acc.entry(p.items[0]).or_insert(0.0);
        }
    }
    for k_idx in 0..report.len() {
        let k_items = report.items(k_idx);
        let delta_k = report.divergence_of(k_items, m).unwrap_or(f64::NAN);
        if delta_k.is_nan() {
            continue;
        }
        let domain_product: f64 = schema
            .itemset_attributes(k_items)
            .into_iter()
            .map(|a| schema.cardinality(a) as f64)
            .product();
        let w = weights[k_items.len() - 1] / domain_product;
        for &alpha in k_items {
            let j = without(k_items, alpha);
            let Some(delta_j) = report.divergence_of(&j, m) else {
                continue;
            };
            if delta_j.is_nan() {
                continue;
            }
            *acc.entry(alpha).or_insert(0.0) += w * (delta_k - delta_j);
        }
    }
    let mut out: Vec<(ItemId, f64)> = acc.into_iter().collect();
    out.sort_by_key(|&(item, _)| item);
    out
}

fn reference_corrective(report: &DivergenceReport, m: usize) -> Vec<CorrectiveItem> {
    let mut out = Vec::new();
    for k_idx in 0..report.len() {
        let extended = report.pattern(k_idx);
        let delta_ext = report.divergence(k_idx, m);
        if delta_ext.is_nan() {
            continue;
        }
        for &alpha in extended.items {
            let base = without(extended.items, alpha);
            if base.is_empty() {
                continue;
            }
            let Some(base_idx) = report.find(&base) else {
                continue;
            };
            let delta_base = report.divergence(base_idx, m);
            if delta_base.is_nan() {
                continue;
            }
            let factor = delta_base.abs() - delta_ext.abs();
            if factor > 0.0 {
                let p_base = report.counts(base_idx).get(m).posterior();
                let p_ext = extended.counts.get(m).posterior();
                out.push(CorrectiveItem {
                    base,
                    item: alpha,
                    delta_base,
                    delta_extended: delta_ext,
                    corrective_factor: factor,
                    t: p_base.welch_t(&p_ext),
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.corrective_factor
            .partial_cmp(&a.corrective_factor)
            .unwrap()
            .then_with(|| a.base.cmp(&b.base))
            .then_with(|| a.item.cmp(&b.item))
    });
    out
}

fn reference_shapley(
    report: &DivergenceReport,
    items: &[ItemId],
    m: usize,
) -> Result<Vec<(ItemId, f64)>, ShapleyError> {
    let k = items.len();
    let mut weights = Vec::with_capacity(k);
    let mut binom = 1.0f64;
    for j in 0..k {
        weights.push(1.0 / (k as f64 * binom));
        binom *= (k - 1 - j) as f64 / (j + 1) as f64;
    }
    let delta = |subset: &[ItemId]| match report.divergence_of(subset, m) {
        None => Err(ShapleyError::MissingSubset(subset.to_vec())),
        Some(d) if d.is_nan() => Err(ShapleyError::UndefinedDivergence(subset.to_vec())),
        Some(d) => Ok(d),
    };
    let mut out = Vec::with_capacity(k);
    for &alpha in items {
        let rest = without(items, alpha);
        let mut contribution = 0.0;
        let mut err = None;
        for_each_subset(&rest, |j_subset| {
            if err.is_some() {
                return;
            }
            match (delta(&with(j_subset, alpha)), delta(j_subset)) {
                (Ok(d1), Ok(d0)) => contribution += weights[j_subset.len()] * (d1 - d0),
                (Err(e), _) | (_, Err(e)) => err = Some(e),
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        out.push((alpha, contribution));
    }
    Ok(out)
}

fn reference_benjamini_hochberg(p_values: &[f64], q: f64) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = p_values
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, p)| !p.is_nan())
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let m = ranked.len() as f64;
    let mut cutoff = 0usize;
    for (rank, &(_, p)) in ranked.iter().enumerate() {
        if p <= (rank + 1) as f64 / m * q {
            cutoff = rank + 1;
        }
    }
    ranked.truncate(cutoff);
    ranked.into_iter().map(|(i, _)| i).collect()
}

fn reference_condensation<P>(arena: &ItemsetArena<P>) -> CondensationFlags {
    let n = arena.len();
    let mut closed = vec![true; n];
    let mut maximal = vec![true; n];
    for id in 0..n {
        let items = arena.items(id);
        for &alpha in items {
            let sub = without(items, alpha);
            if sub.is_empty() {
                continue;
            }
            if let Some(sub) = arena.find(&sub) {
                maximal[sub] = false;
                if arena.support(sub) == arena.support(id) {
                    closed[sub] = false;
                }
            }
        }
    }
    CondensationFlags { closed, maximal }
}

// ---------------------------------------------------------------------

fn bits(values: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    values.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

fn corrective_bits(found: &[CorrectiveItem]) -> Vec<(Vec<ItemId>, ItemId, [u64; 4])> {
    found
        .iter()
        .map(|c| {
            let values = [c.delta_base, c.delta_extended, c.corrective_factor, c.t];
            (c.base.clone(), c.item, values.map(f64::to_bits))
        })
        .collect()
}

/// Every analysis over the subset index equals its reference form.
fn check_lattice(report: &DivergenceReport) {
    for idx in 0..report.len() {
        let items = report.items(idx);
        for (j, edge) in report.subsets(idx).iter().enumerate() {
            let mut removed = items.to_vec();
            removed.remove(j);
            let expected = match report.find(&removed) {
                _ if removed.is_empty() => Subset::Empty,
                Some(found) => Subset::Stored(found),
                None => Subset::Absent,
            };
            assert_eq!(edge.get(), expected, "edge {j} of pattern {idx}");
        }
    }

    for m in 0..METRICS.len() {
        for epsilon in [0.0, 0.01, 0.05] {
            assert_eq!(
                prune_redundant(report, m, epsilon),
                reference_prune(report, m, epsilon),
                "prune m={m} ε={epsilon}"
            );
        }
        assert_eq!(
            bits(&global_item_divergence(report, m)),
            bits(&reference_global(report, m)),
            "global m={m}"
        );
        assert_eq!(
            corrective_bits(&corrective_items(report, m)),
            corrective_bits(&reference_corrective(report, m)),
            "corrective m={m}"
        );
        for idx in report.top_k(m, 10, SortBy::Divergence) {
            let items = report.items(idx);
            let found = item_contributions(report, items, m).map(|c| bits(&c));
            if let Some(reason) = report.completeness().truncation_reason() {
                assert_eq!(found, Err(ShapleyError::TruncatedReport(reason)));
                continue;
            }
            let expected = reference_shapley(report, items, m).map(|c| bits(&c));
            assert_eq!(found, expected, "shapley m={m} pattern {idx}");
        }
        let p_values: Vec<f64> = (0..report.len())
            .map(|idx| report.p_value(idx, m))
            .collect();
        for q in [0.0, 0.05, 1.0] {
            assert_eq!(
                report.significant_at_fdr(m, q),
                reference_benjamini_hochberg(&p_values, q),
                "fdr m={m} q={q}"
            );
        }
    }

    let mut arena = ItemsetArena::with_capacity(report.len(), 0);
    for p in report.patterns() {
        arena.push(p.items, p.support, ());
    }
    assert_eq!(
        condensation_flags_arena(&arena),
        reference_condensation(&arena)
    );
}

#[test]
fn german_at_five_percent_support() {
    check_lattice(&explore(DatasetId::German, 0.05));
}

#[test]
fn heart_at_five_percent_support() {
    check_lattice(&explore(DatasetId::Heart, 0.05));
}

#[test]
fn bank_at_five_percent_support() {
    check_lattice(&explore(DatasetId::Bank, 0.05));
}

#[test]
fn absent_itemsets_fail_on_the_reference_subset() {
    let report = explore(DatasetId::German, 0.05);
    let schema = report.schema();
    assert!(schema.n_attributes() >= 14);
    // Several values of the first attributes, and one value of each of
    // the first 14 attributes: the first gap lies deeper in the second.
    let crowded: Vec<ItemId> = (0..14).collect();
    let spread: Vec<ItemId> = (0..14).map(|a| schema.item_id(a, 0)).collect();
    for items in [crowded, spread] {
        assert_eq!(report.find(&items), None);
        for m in 0..METRICS.len() {
            let found = item_contributions(&report, &items, m);
            assert!(found.is_err(), "{items:?} m={m}");
            assert_eq!(
                found,
                reference_shapley(&report, &items, m),
                "{items:?} m={m}"
            );
        }
    }
}

#[test]
fn a_divergence_filtered_german_report() {
    let report = explore_filtered(DatasetId::German, 0.05, 0.1);
    assert!(has_absent_edge(&report), "filtering must leave gaps");
    // Shapley meets those gaps: top patterns miss some sub-pattern.
    let top = report.top_k(0, 10, SortBy::Divergence);
    assert!(top
        .iter()
        .any(|&idx| item_contributions(&report, report.items(idx), 0).is_err()));
    check_lattice(&report);
}

#[test]
fn a_budget_truncated_german_report() {
    let t = DatasetId::German.generate(SEED);
    let report = DivExplorer::new(0.05)
        .with_budget(Budget::unlimited().with_max_itemsets(20_000))
        .explore(&t.data, &t.v, &t.u, &METRICS)
        .unwrap();
    assert!(!report.is_exploration_complete());
    check_lattice(&report);
}

#[test]
#[ignore = "640,948 patterns: run in release with --ignored"]
fn german_at_two_percent_support() {
    check_lattice(&explore(DatasetId::German, 0.02));
}

/// Benjamini–Hochberg at q = 0.05 over german at s = 0.01, per metric.
/// The sequence equals the reference, and patterns with equal p-values
/// come in ascending report index. Ties are the rule here: FNR flags
/// 3,662 patterns with 36 distinct p-values, because patterns with equal
/// tallies share one. (No p-value on this lattice underflows to 0: the
/// largest |t| is 7.27, and p reaches 0 near t = 8.3.) FP-growth and
/// dense emit in different orders, so their sequences may differ, but
/// they flag the same set of itemsets.
#[test]
#[ignore = "2,926,696 hypotheses per metric: run in release with --ignored"]
fn fdr_over_german_at_one_percent_support() {
    const FLAGGED: [usize; 2] = [0, 3_662];
    let t = DatasetId::German.generate(SEED);
    let mut flagged_sets = Vec::new();
    for algorithm in [Algorithm::FpGrowth, Algorithm::Dense] {
        let report = DivExplorer::new(0.01)
            .with_algorithm(algorithm)
            .explore(&t.data, &t.v, &t.u, &METRICS)
            .unwrap();
        assert!(report.is_exploration_complete());
        assert_eq!(report.len(), 2_926_696, "{algorithm}");
        let mut sets = Vec::new();
        for (m, expected) in FLAGGED.into_iter().enumerate() {
            let p_values: Vec<f64> = (0..report.len())
                .map(|idx| report.p_value(idx, m))
                .collect();
            let flagged = report.significant_at_fdr(m, 0.05);
            assert_eq!(flagged.len(), expected, "{algorithm} m={m}");
            assert_eq!(
                flagged,
                reference_benjamini_hochberg(&p_values, 0.05),
                "{algorithm} m={m}"
            );
            let order = |a: usize, b: usize| (p_values[a], a).partial_cmp(&(p_values[b], b));
            assert!(
                flagged
                    .windows(2)
                    .all(|w| order(w[0], w[1]) == Some(std::cmp::Ordering::Less)),
                "{algorithm} m={m}: equal p-values keep report order"
            );
            let mut set: Vec<Vec<ItemId>> = flagged
                .iter()
                .map(|&idx| report.items(idx).to_vec())
                .collect();
            set.sort_unstable();
            sets.push(set);
        }
        flagged_sets.push(sets);
    }
    assert_eq!(flagged_sets[0], flagged_sets[1], "FP-growth vs dense");
}
