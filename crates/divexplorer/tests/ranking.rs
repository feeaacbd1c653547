//! Ranking must not depend on how it is computed: `ranked` equals a plain
//! comparator sort that re-evaluates every key on each comparison, and
//! `top_k` equals the matching prefix of `ranked`, for every order.

use divexplorer::{DatasetBuilder, DivExplorer, DivergenceReport, Metric, SortBy};

const ORDERS: [SortBy; 5] = [
    SortBy::Divergence,
    SortBy::NegativeDivergence,
    SortBy::AbsDivergence,
    SortBy::Support,
    SortBy::TStatistic,
];

/// The straightforward ranking: filter `NaN` keys, then sort with a
/// comparator that recomputes both keys (key descending, then shorter,
/// then lexicographic items).
fn reference_ranked(r: &DivergenceReport, m: usize, order: SortBy) -> Vec<usize> {
    let key = |idx: usize| -> f64 {
        match order {
            SortBy::Divergence => r.divergence(idx, m),
            SortBy::NegativeDivergence => -r.divergence(idx, m),
            SortBy::AbsDivergence => r.divergence(idx, m).abs(),
            SortBy::Support => r.support(idx) as f64,
            SortBy::TStatistic => r.t_statistic(idx, m),
        }
    };
    let mut idxs: Vec<usize> = (0..r.len()).filter(|&i| !key(i).is_nan()).collect();
    idxs.sort_by(|&a, &b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap()
            .then_with(|| r.items(a).len().cmp(&r.items(b).len()))
            .then_with(|| r.items(a).cmp(r.items(b)))
    });
    idxs
}

/// Four attributes over 240 rows with small, tie-prone tallies. Every row
/// with `a=z` has positive ground truth, so for FPR that subgroup and all
/// its refinements are all-⊥ and their divergence is `NaN`.
fn report() -> DivergenceReport {
    let n = 240;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |modulus: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % modulus) as u16
    };
    let (mut a, mut b, mut c, mut d) = (vec![], vec![], vec![], vec![]);
    let (mut v, mut u) = (vec![], vec![]);
    for _ in 0..n {
        let ai = next(4);
        a.push(ai);
        b.push(next(2));
        c.push(next(3));
        d.push(next(2));
        v.push(ai == 3 || next(2) == 0);
        u.push(next(3) == 0);
    }
    let mut builder = DatasetBuilder::new();
    builder.categorical("a", &["w", "x", "y", "z"], &a);
    builder.categorical("b", &["0", "1"], &b);
    builder.categorical("c", &["0", "1", "2"], &c);
    builder.categorical("d", &["0", "1"], &d);
    let data = builder.build().unwrap();
    DivExplorer::new(0.01)
        .explore(
            &data,
            &v,
            &u,
            &[Metric::FalsePositiveRate, Metric::FalseNegativeRate],
        )
        .unwrap()
}

#[test]
fn fixture_exercises_nan_exclusion_and_tie_breaks() {
    let r = report();
    assert!(r.len() > 100, "only {} patterns", r.len());
    let nan = (0..r.len())
        .filter(|&i| r.divergence(i, 0).is_nan())
        .count();
    assert!(nan > 0, "no all-⊥ subgroup for FPR");
    // Some adjacent pair in the divergence order has an exactly equal key
    // but different lengths, and another an equal key and equal length.
    let ranked = r.ranked(0, SortBy::Divergence);
    let ties: Vec<(usize, usize)> = ranked
        .windows(2)
        .filter(|w| r.divergence(w[0], 0) == r.divergence(w[1], 0))
        .map(|w| (r.items(w[0]).len(), r.items(w[1]).len()))
        .collect();
    assert!(ties.iter().any(|(x, y)| x != y), "no length tie-break");
    assert!(
        ties.iter().any(|(x, y)| x == y),
        "no lexicographic tie-break"
    );
    assert_eq!(ranked.len(), r.len() - nan);
}

#[test]
fn ranked_and_top_k_match_the_reference_sort() {
    let r = report();
    let n = r.len();
    for m in 0..r.metrics().len() {
        for order in ORDERS {
            let ranked = r.ranked(m, order);
            assert_eq!(ranked, reference_ranked(&r, m, order), "m={m} {order:?}");
            for k in [0, 1, 10, n, n + 1] {
                let top = r.top_k(m, k, order);
                assert_eq!(top, ranked[..k.min(ranked.len())], "m={m} {order:?} k={k}");
            }
        }
    }
}
