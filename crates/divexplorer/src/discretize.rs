//! Discretization of continuous attributes.
//!
//! FPM algorithms require discrete data, so continuous attributes are binned
//! before analysis (§5). By Property 3.1 of the paper, refining a
//! discretization never hides divergence: for every divergent itemset under
//! the coarse binning, at least one finer itemset is at least as divergent —
//! see the `refinement_never_hides_divergence` integration test.

/// How a continuous column is split into bins.
#[derive(Debug, Clone, PartialEq)]
pub enum BinningStrategy {
    /// `k` equal-width bins between the observed minimum and maximum.
    UniformWidth(usize),
    /// `k` equal-frequency bins (cut points at the `i/k` quantiles;
    /// duplicate cut points are merged, so fewer bins may result).
    Quantile(usize),
    /// Explicit ascending cut points `c₁ < … < c_m`, yielding the `m+1` bins
    /// `(−∞, c₁)`, `[c₁, c₂)`, …, `[c_m, +∞)`.
    Custom(Vec<f64>),
}

/// The result of discretizing one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Discretized {
    /// Bin code per input value.
    pub codes: Vec<u16>,
    /// Human-readable label per bin, e.g. `"<4"`, `"[4,7)"`, `">=7"`.
    pub labels: Vec<String>,
    /// The cut points that define the bins.
    pub cuts: Vec<f64>,
}

/// Discretizes `values` according to `strategy`.
///
/// # Panics
///
/// Panics if `values` is empty, contains a NaN, or the strategy requests
/// zero bins / non-ascending custom cuts.
pub fn discretize(values: &[f64], strategy: &BinningStrategy) -> Discretized {
    assert!(!values.is_empty(), "cannot discretize an empty column");
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "NaN values are not supported"
    );
    let cuts = match strategy {
        BinningStrategy::UniformWidth(k) => uniform_cuts(values, *k),
        BinningStrategy::Quantile(k) => quantile_cuts(values, *k),
        BinningStrategy::Custom(cuts) => {
            assert!(
                cuts.windows(2).all(|w| w[0] < w[1]),
                "custom cut points must be strictly ascending"
            );
            cuts.clone()
        }
    };
    let labels = bin_labels(&cuts);
    let codes = values.iter().map(|&v| bin_of(v, &cuts)).collect();
    Discretized {
        codes,
        labels,
        cuts,
    }
}

/// The bin index of `v` given ascending cut points: the number of cuts ≤ v.
pub fn bin_of(v: f64, cuts: &[f64]) -> u16 {
    cuts.partition_point(|&c| c <= v) as u16
}

fn uniform_cuts(values: &[f64], k: usize) -> Vec<f64> {
    assert!(k >= 1, "need at least one bin");
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min == max || k == 1 {
        return Vec::new();
    }
    let width = (max - min) / k as f64;
    (1..k).map(|i| min + width * i as f64).collect()
}

fn quantile_cuts(values: &[f64], k: usize) -> Vec<f64> {
    assert!(k >= 1, "need at least one bin");
    // Past one bin per value every extra cut repeats a value and dedups
    // away: capping `k` at the value count yields the same cuts.
    let k = k.min(values.len());
    if k == 1 {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let mut cuts: Vec<f64> = (1..k)
        .map(|i| {
            let pos = (i * n) / k;
            sorted[pos.min(n - 1)]
        })
        .collect();
    cuts.dedup();
    // A cut equal to the minimum would create an empty first bin.
    cuts.retain(|&c| c > sorted[0]);
    cuts
}

/// Renders bin labels for ascending cut points.
fn bin_labels(cuts: &[f64]) -> Vec<String> {
    if cuts.is_empty() {
        return vec!["all".to_string()];
    }
    let mut labels = Vec::with_capacity(cuts.len() + 1);
    labels.push(format!("<{}", fmt_num(cuts[0])));
    for w in cuts.windows(2) {
        labels.push(format!("[{},{})", fmt_num(w[0]), fmt_num(w[1])));
    }
    labels.push(format!(">={}", fmt_num(cuts[cuts.len() - 1])));
    labels
}

/// Formats a cut point compactly (integers without a trailing `.0`).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_width_bins_cover_range() {
        let values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let d = discretize(&values, &BinningStrategy::UniformWidth(2));
        assert_eq!(d.cuts, vec![4.5]);
        assert_eq!(d.labels, vec!["<4.5", ">=4.5"]);
        assert_eq!(&d.codes[..5], &[0, 0, 0, 0, 0]);
        assert_eq!(&d.codes[5..], &[1, 1, 1, 1, 1]);
    }

    #[test]
    fn quantile_bins_balance_counts() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = discretize(&values, &BinningStrategy::Quantile(4));
        assert_eq!(d.labels.len(), 4);
        for bin in 0..4u16 {
            let count = d.codes.iter().filter(|&&c| c == bin).count();
            assert_eq!(count, 25, "bin {bin}");
        }
    }

    #[test]
    fn quantile_merges_duplicate_cuts() {
        // Heavily skewed column: most mass at 0.
        let mut values = vec![0.0; 90];
        values.extend((1..=10).map(|i| i as f64));
        let d = discretize(&values, &BinningStrategy::Quantile(4));
        // Cuts at the 25/50/75 percentiles would all be 0; they collapse and
        // are dropped because a cut at the minimum makes an empty bin.
        assert!(d.labels.len() <= 2);
        assert!(d.codes.contains(&0));
    }

    #[test]
    fn quantile_bins_beyond_the_row_count_give_the_per_value_cuts() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let per_value = discretize(&values, &BinningStrategy::Quantile(values.len()));
        assert_eq!(per_value.cuts, vec![2.0, 3.0, 4.0, 5.0, 6.0, 9.0]);
        for k in [values.len() + 1, 1 << 20, 1 << 40] {
            let d = discretize(&values, &BinningStrategy::Quantile(k));
            assert_eq!(d, per_value, "k = {k}");
        }
    }

    #[test]
    fn custom_cuts_match_paper_prior_binning() {
        // The paper's 3-interval #prior discretization: 0, [1,3], >3.
        let priors = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 9.0];
        let d = discretize(&priors, &BinningStrategy::Custom(vec![1.0, 4.0]));
        assert_eq!(d.codes, vec![0, 0, 1, 1, 1, 2, 2]);
        assert_eq!(d.labels, vec!["<1", "[1,4)", ">=4"]);
    }

    #[test]
    fn constant_column_gets_single_bin() {
        let d = discretize(&[5.0; 4], &BinningStrategy::UniformWidth(3));
        assert_eq!(d.labels, vec!["all"]);
        assert_eq!(d.codes, vec![0; 4]);
    }

    #[test]
    fn bin_of_is_monotone() {
        let cuts = [1.0, 2.0, 3.0];
        assert_eq!(bin_of(0.5, &cuts), 0);
        assert_eq!(bin_of(1.0, &cuts), 1); // cut point belongs to upper bin
        assert_eq!(bin_of(2.9, &cuts), 2);
        assert_eq!(bin_of(3.0, &cuts), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_custom_cuts_panic() {
        let _ = discretize(&[1.0], &BinningStrategy::Custom(vec![2.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_values_panic() {
        let _ = discretize(&[f64::NAN], &BinningStrategy::UniformWidth(2));
    }
}
