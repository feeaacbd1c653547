//! Bayesian treatment of statistical significance (§3.3 of the paper).
//!
//! The outcome function is Boolean, so observing `k⁺` T-outcomes and `k⁻`
//! F-outcomes under a uniform prior yields the posterior
//! `Beta(k⁺ + 1, k⁻ + 1)` for the positive rate. Itemset and dataset rates
//! are then compared with a Welch t-statistic over the posterior means and
//! variances, which stays numerically stable even when `k⁺ + k⁻ = 0`.

use fpm::ItemsetSink;
use serde::{Deserialize, Serialize};

use crate::counts::{CountedCells, MetricCells, OutcomeCounts};
use crate::item::ItemId;
use crate::Metric;

/// A Beta distribution used as the posterior of a Bernoulli positive rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaPosterior {
    /// Shape parameter `α > 0`.
    pub alpha: f64,
    /// Shape parameter `β > 0`.
    pub beta: f64,
}

impl BetaPosterior {
    /// Constructs `Beta(α, β)`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && beta > 0.0,
            "Beta parameters must be positive"
        );
        BetaPosterior { alpha, beta }
    }

    /// Posterior after observing `k_pos` successes and `k_neg` failures from
    /// the uniform prior: `Beta(k⁺ + 1, k⁻ + 1)`.
    pub fn from_observations(k_pos: u64, k_neg: u64) -> Self {
        BetaPosterior::new(k_pos as f64 + 1.0, k_neg as f64 + 1.0)
    }

    /// Posterior mean `μ = α / (α + β)` — Eq. 3's
    /// `(k⁺ + 1) / (k⁺ + k⁻ + 2)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Posterior variance `ν = αβ / ((α + β)² (α + β + 1))` — Eq. 3's
    /// `(k⁺ + 1)(k⁻ + 1) / ((k⁺ + k⁻ + 2)² (k⁺ + k⁻ + 3))`.
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Welch t-statistic between two posteriors:
    /// `t = |μ₁ − μ₂| / √(ν₁ + ν₂)` (§3.3).
    pub fn welch_t(&self, other: &BetaPosterior) -> f64 {
        other.welch_t_against()(self)
    }

    /// `p.welch_t(self)` for any `p`, this side's mean and variance computed once.
    pub(crate) fn welch_t_against(&self) -> impl Fn(&BetaPosterior) -> f64 {
        let (mean, variance) = (self.mean(), self.variance());
        move |p| (p.mean() - mean).abs() / (p.variance() + variance).sqrt()
    }
}

/// Welch t-statistic from raw means and variances, used where the two sides
/// are not Beta posteriors (e.g. Slice Finder's loss-based effect test).
pub fn welch_t_stat(mean_a: f64, var_a: f64, mean_b: f64, var_b: f64) -> f64 {
    let denom = (var_a + var_b).sqrt();
    if denom == 0.0 {
        if mean_a == mean_b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (mean_a - mean_b).abs() / denom
    }
}

/// The standard normal CDF `Φ(x)`, via the Abramowitz–Stegun 7.1.26 erf
/// approximation (max absolute error ≈ 1.5e-7 — ample for screening
/// p-values).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Two-sided p-value of a (large-sample) t-statistic under the normal
/// approximation. With the Beta posteriors' effective sample sizes this is
/// accurate for the dataset sizes the tool targets.
pub fn p_value_two_sided(t: f64) -> f64 {
    if t.is_nan() {
        return f64::NAN;
    }
    (2.0 * (1.0 - normal_cdf(t.abs()))).clamp(0.0, 1.0)
}

/// Benjamini–Hochberg false-discovery-rate control: given the p-values of
/// all explored patterns, returns the indices of those significant at FDR
/// level `q`, smallest p-value first.
///
/// Exhaustively exploring thousands of itemsets is a textbook multiple-
/// comparisons setting; BH keeps the expected fraction of false discoveries
/// among the flagged patterns below `q`. `NaN` p-values are skipped.
pub fn benjamini_hochberg(p_values: &[f64], q: f64) -> Vec<usize> {
    benjamini_hochberg_by(p_values.len(), |i| p_values[i], q)
}

/// [`benjamini_hochberg`] over the p-values `p(0..n)`, computed twice
/// rather than stored: once to find the cutoff p-value `p*` from the
/// sorted values, once to collect `{i : p(i) ≤ p*}`. The BH thresholds
/// `k/m·q` never decrease with the rank `k`, so the cutoff never splits
/// a tie and that set is exactly the first `k` hypotheses in
/// (p-value, index) order. Only the flagged indices are ever paired
/// with their p-values, and the result owns a buffer of its own length.
pub(crate) fn benjamini_hochberg_by(n: usize, p: impl Fn(usize) -> f64, q: f64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&q), "FDR level must be in [0, 1]");
    let mut sorted: Vec<f64> = (0..n).map(&p).filter(|p| !p.is_nan()).collect();
    sorted.sort_unstable_by(f64::total_cmp);
    let m = sorted.len() as f64;
    // Largest k with p_(k) <= k/m * q; everything up to it is significant.
    let Some(cutoff) = sorted
        .iter()
        .enumerate()
        .rev()
        .find(|&(rank, &p)| p <= (rank + 1) as f64 / m * q)
        .map(|(_, &p)| p)
    else {
        return Vec::new();
    };
    drop(sorted);
    let mut flagged: Vec<(f64, usize)> = (0..n)
        .filter_map(|i| {
            let p = p(i);
            (p <= cutoff).then_some((p, i))
        })
        .collect();
    flagged.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    flagged.iter().map(|&(_, i)| i).collect()
}

/// A streaming sink keeping only patterns whose Welch t-statistic against
/// the dataset rate reaches `min_t` for some tallied metric (§3.3's
/// significance screen applied *during* mining), forwarding them to
/// `inner`.
///
/// Compose with [`crate::DivExplorer::explore_into`] and an
/// [`fpm::ItemsetArena`] to build a significance-screened
/// [`crate::DivergenceReport`] without ever materializing the
/// insignificant patterns. `wants_extensions` always answers true:
/// significance is not anti-monotone (a noisy pattern can have a sharply
/// significant extension), so only emission is filtered.
#[derive(Debug)]
pub struct SignificanceSink<S> {
    inner: S,
    /// Each metric's cells and its tallies over the whole dataset.
    metrics: Vec<(MetricCells, OutcomeCounts)>,
    min_t: f64,
}

impl<S> SignificanceSink<S> {
    /// Keeps patterns with `t ≥ min_t` under any of `metrics`, judged
    /// against a dataset of `n_rows` rows whose cells are
    /// `dataset_counts`.
    pub fn new(
        inner: S,
        metrics: &[Metric],
        n_rows: usize,
        dataset_counts: CountedCells,
        min_t: f64,
    ) -> Self {
        assert!(min_t >= 0.0, "t threshold must be non-negative");
        SignificanceSink {
            inner,
            metrics: MetricCells::with_dataset(metrics, n_rows, &dataset_counts),
            min_t,
        }
    }

    /// Consumes the filter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ItemsetSink<CountedCells>> ItemsetSink<CountedCells> for SignificanceSink<S> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &CountedCells) {
        let passes = self.metrics.iter().any(|(cells, dataset)| {
            let pattern = cells.counts(support, payload).posterior();
            let t = pattern.welch_t(&dataset.posterior());
            t >= self.min_t
        });
        if passes {
            self.inner.emit(items, support, payload);
        }
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        self.inner.wants_extensions(items, support)
    }

    fn should_stop(&mut self) -> bool {
        self.inner.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prior_is_beta_one_one() {
        let p = BetaPosterior::from_observations(0, 0);
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.beta, 1.0);
        assert!((p.mean() - 0.5).abs() < 1e-12);
        // Var of Uniform(0,1) = 1/12.
        assert!((p.variance() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_matches_paper_equation_three() {
        let (kp, kn) = (7u64, 3u64);
        let p = BetaPosterior::from_observations(kp, kn);
        let mu = (kp as f64 + 1.0) / (kp as f64 + kn as f64 + 2.0);
        let nu = ((kp as f64 + 1.0) * (kn as f64 + 1.0))
            / ((kp as f64 + kn as f64 + 2.0).powi(2) * (kp as f64 + kn as f64 + 3.0));
        assert!((p.mean() - mu).abs() < 1e-12);
        assert!((p.variance() - nu).abs() < 1e-12);
    }

    #[test]
    fn variance_shrinks_with_evidence() {
        let small = BetaPosterior::from_observations(2, 2);
        let large = BetaPosterior::from_observations(2000, 2000);
        assert!(large.variance() < small.variance());
        assert!((large.mean() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn welch_t_is_symmetric_and_zero_on_identical() {
        let a = BetaPosterior::from_observations(10, 5);
        let b = BetaPosterior::from_observations(100, 200);
        assert!((a.welch_t(&b) - b.welch_t(&a)).abs() < 1e-12);
        assert_eq!(a.welch_t(&a), 0.0);
        assert!(a.welch_t(&b) > 0.0);
    }

    #[test]
    fn welch_t_stat_handles_zero_variance() {
        assert_eq!(welch_t_stat(1.0, 0.0, 1.0, 0.0), 0.0);
        assert_eq!(welch_t_stat(1.0, 0.0, 2.0, 0.0), f64::INFINITY);
        assert!((welch_t_stat(1.0, 0.04, 2.0, 0.05) - 1.0 / 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_parameters_panic() {
        let _ = BetaPosterior::new(0.0, 1.0);
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999_999);
    }

    #[test]
    fn p_values_behave() {
        assert!((p_value_two_sided(0.0) - 1.0).abs() < 1e-6);
        assert!((p_value_two_sided(1.96) - 0.05).abs() < 2e-3);
        assert!(p_value_two_sided(5.0) < 1e-5);
        assert!(p_value_two_sided(f64::NAN).is_nan());
        // Symmetric in sign.
        assert_eq!(p_value_two_sided(2.0), p_value_two_sided(-2.0));
    }

    #[test]
    fn benjamini_hochberg_flags_the_right_set() {
        // Classic example: m=5, q=0.25.
        let p = [0.01, 0.04, 0.03, 0.5, 0.20];
        let mut flagged = benjamini_hochberg(&p, 0.25);
        flagged.sort_unstable();
        // sorted p: .01(k1, thr .05 ok) .03(k2, thr .10 ok) .04(k3, .15 ok)
        // .20(k4, .20 ok!) .5(k5, .25 no) -> first four significant.
        assert_eq!(flagged, vec![0, 1, 2, 4]);
    }

    #[test]
    fn benjamini_hochberg_handles_nan_and_extremes() {
        let p = [f64::NAN, 0.001, 1.0];
        assert_eq!(benjamini_hochberg(&p, 0.05), vec![1]);
        assert!(benjamini_hochberg(&[0.9, 0.95], 0.05).is_empty());
        assert!(benjamini_hochberg(&[], 0.05).is_empty());
    }

    /// The Benjamini–Hochberg screen as it was first written: sort every
    /// (index, p-value) pair, find the cutoff rank, truncate.
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

    #[test]
    fn benjamini_hochberg_matches_the_reference_on_ties_and_nans() {
        let fixtures: [&[f64]; 5] = [
            &[0.01, 0.04, 0.03, 0.5, 0.20],
            &[0.02, f64::NAN, 0.02, 0.001, 0.02, 0.9, f64::NAN, 0.02, 0.0],
            &[0.05, 0.05, 0.05, 0.05, 0.05],
            &[f64::NAN, f64::NAN],
            &[0.3, 0.0, 0.3, 0.0, 1.0, 0.04, 0.3, 0.04],
        ];
        for p in fixtures {
            for q in [0.0, 0.05, 0.25, 0.5, 1.0] {
                assert_eq!(
                    benjamini_hochberg(p, q),
                    reference_benjamini_hochberg(p, q),
                    "{p:?} at q={q}"
                );
            }
        }
        // Seeded random p-values drawn from a few levels, so ties abound.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let p: Vec<f64> = (0..2_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 50 {
                    0 => f64::NAN,
                    r => (r % 25) as f64 / 400.0,
                }
            })
            .collect();
        for q in [0.0, 0.05, 0.5, 1.0] {
            assert_eq!(
                benjamini_hochberg(&p, q),
                reference_benjamini_hochberg(&p, q)
            );
        }
    }

    #[test]
    fn benjamini_hochberg_owns_no_more_than_it_returns() {
        let p: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
        for q in [0.0, 0.05, 1.0] {
            let flagged = benjamini_hochberg(&p, q);
            assert_eq!(flagged.capacity(), flagged.len(), "q={q}");
        }
        assert_eq!(benjamini_hochberg(&p, 0.0).len(), 100);
        assert_eq!(benjamini_hochberg(&p, 1.0).len(), 10_000);
    }

    #[test]
    fn significance_grows_with_sample_size_at_fixed_rates() {
        // Same rate gap, more data -> larger t (the paper's motivation for
        // the support threshold: small itemsets are statistically noisy).
        let d_small = BetaPosterior::from_observations(10, 90);
        let i_small = BetaPosterior::from_observations(3, 7);
        let d_large = BetaPosterior::from_observations(1000, 9000);
        let i_large = BetaPosterior::from_observations(300, 700);
        assert!(d_large.welch_t(&i_large) > d_small.welch_t(&i_small));
    }
}
