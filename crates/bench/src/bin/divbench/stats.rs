//! Order statistics and the small measurement rules the benchmark applies:
//! medians and quartiles, the tail-percentile rule, geometric means, the
//! inner-repeat rule for short cells, the even spread of set-ups over a
//! run's passes, span self time, and `VmHWM` parsing.

use std::time::Duration;

/// A cell that runs under this long repeats inside a pass until it has
/// accumulated this much, and its mean time per repetition is used.
pub const MIN_CELL_TIME: Duration = Duration::from_millis(50);

/// A tail percentile is only reported with at least this many samples
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this program prints match that tool's.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = i + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile, at most 99, that has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it; never below the median, so
/// a short run still reports a value (labelled with its percentile).
pub fn tail_percentile(n: usize) -> f64 {
    let p = (100 * n.saturating_sub(TAIL_SAMPLES)) / n.max(1);
    p.clamp(50, 99) as f64
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Calls `f` once, then again until the times it reports add up to at
/// least [`MIN_CELL_TIME`]; `f` returns the time of its own timed region.
/// Returns the accumulated time and the number of calls, whose quotient
/// is the cell's time.
pub fn repeat_until_min(mut f: impl FnMut() -> Duration) -> (Duration, u32) {
    let mut total = f();
    let mut runs = 1u32;
    while total < MIN_CELL_TIME {
        total += f();
        runs += 1;
    }
    (total, runs)
}

/// How many of `total` repetitions spread evenly over `passes` passes
/// are due by the start of pass `pass` (counted from 0): at least one
/// before the first pass, all of them before the last.
pub fn due_by(total: usize, pass: usize, passes: usize) -> usize {
    (total * (pass + 1)).div_ceil(passes.max(1)).min(total)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A span's self time: its duration minus the part its child spans
/// cover, floored at zero (children timed by separate clocks can add up
/// to slightly more than the parent).
pub fn self_time(parent: Duration, children: &[Duration]) -> Duration {
    parent.saturating_sub(children.iter().sum())
}

/// Peak resident set size in MB (MiB, 2^20 bytes) from the text of a
/// `/proc/<pid>/status` file: its `VmHWM` line.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one).
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mb(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(2000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(60), 83.0);
        assert_eq!(tail_percentile(30), 66.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in 1..3000 {
            let p = tail_percentile(n);
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(
                p == 50.0 || beyond >= TAIL_SAMPLES as f64 - 1e-9,
                "n={n} p={p}"
            );
            assert!(p == 99.0 || n as f64 * (1.0 - (p + 1.0) / 100.0) < TAIL_SAMPLES as f64);
        }
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn short_cells_repeat_until_the_minimum_accumulates() {
        let mut calls = 0;
        let (total, runs) = repeat_until_min(|| {
            calls += 1;
            Duration::from_millis(20)
        });
        assert_eq!(
            (runs, calls),
            (3, 3),
            "20 ms runs need three to reach 50 ms"
        );
        assert_eq!(total / runs, Duration::from_millis(20));
        let (_, runs) = repeat_until_min(|| Duration::from_millis(25));
        assert_eq!(runs, 2, "exactly 50 ms is enough");
    }

    #[test]
    fn long_cells_run_once() {
        let (total, runs) = repeat_until_min(|| Duration::from_millis(80));
        assert_eq!((total, runs), (Duration::from_millis(80), 1));
    }

    #[test]
    fn repetitions_spread_evenly_over_the_passes() {
        let due =
            |passes: usize| -> Vec<usize> { (0..passes).map(|p| due_by(9, p, passes)).collect() };
        assert_eq!(due(1), [9]);
        assert_eq!(due(3), [3, 6, 9]);
        assert_eq!(due(6), [2, 3, 5, 6, 8, 9]);
        let many = due(25);
        assert_eq!((many[0], many[24]), (1, 9));
        assert!(many.windows(2).all(|w| w[1] - w[0] <= 1));
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let ms = Duration::from_millis;
        assert_eq!(self_time(ms(100), &[ms(30), ms(50)]), ms(20));
        assert_eq!(self_time(ms(100), &[]), ms(100));
        assert_eq!(self_time(ms(100), &[ms(60), ms(60)]), Duration::ZERO);
    }

    #[test]
    fn vm_hwm_is_read_in_mebibytes() {
        let status =
            "Name:\tdivbench\nVmPeak:\t  900000 kB\nVmHWM:\t  482304 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(471.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(vm_hwm_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
