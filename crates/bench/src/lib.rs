//! Shared infrastructure for the experiment binaries (`src/bin/exp_*.rs`),
//! one per table/figure of the paper — see DESIGN.md §5 for the index.

pub mod userstudy;

use divexplorer::{DivergenceReport, SortBy};
use std::time::{Duration, Instant};

/// A fixed-width text table printed to stdout, matching the row/column
/// layout of the paper's tables.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{self}");
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with fixed precision, rendering NaN as `-`.
pub fn fmt_f(x: f64, precision: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.precision$}")
    }
}

/// Runs `f`, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Renders the paper's standard "top-k divergent patterns" rows
/// (Itemset, Sup, Δ, t) for metric index `m`.
pub fn top_pattern_rows(report: &DivergenceReport, m: usize, k: usize) -> Vec<[String; 4]> {
    report
        .top_k(m, k, SortBy::Divergence)
        .into_iter()
        .map(|idx| {
            [
                report.display_itemset(report.items(idx)),
                fmt_f(report.support_fraction(idx), 2),
                fmt_f(report.divergence(idx, m), 3),
                fmt_f(report.t_statistic(idx, m), 1),
            ]
        })
        .collect()
}

/// Prints a section banner for one experiment.
pub fn banner(id: &str, description: &str) {
    println!("\n=== {id}: {description} ===\n");
}

/// Telemetry plumbing shared by the experiment binaries: record a run
/// on the global [`obs`] facade, flatten the miner's verdict, and write
/// the `BENCH_<experiment>.json` run report.
pub mod telemetry {
    use fpm::{Completeness, TruncationReason};
    use obs::{RunReport, StatsRecorder, StatsSnapshot};
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Where run reports land: `$BENCH_REPORT_DIR`, or
    /// `target/bench-reports` relative to the working directory.
    pub fn report_dir() -> PathBuf {
        std::env::var_os("BENCH_REPORT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/bench-reports"))
    }

    /// An installed [`StatsRecorder`] plus the wall clock since
    /// [`Session::start`]. Finish it before writing a report.
    pub struct Session {
        recorder: Arc<StatsRecorder>,
        start: Instant,
    }

    impl Session {
        /// Installs a fresh aggregating recorder on the global facade.
        pub fn start() -> Session {
            let recorder = Arc::new(StatsRecorder::new());
            obs::install(recorder.clone());
            Session {
                recorder,
                start: Instant::now(),
            }
        }

        /// Uninstalls the recorder and returns what it aggregated
        /// together with the session's wall clock.
        pub fn finish(self) -> (StatsSnapshot, Duration) {
            obs::uninstall();
            (self.recorder.snapshot(), self.start.elapsed())
        }
    }

    /// The mining engine of a recorded run ([`StatsSnapshot::engine`]);
    /// `"none"` if the run mined nothing.
    pub fn engine(snapshot: &StatsSnapshot) -> &str {
        snapshot.engine().unwrap_or("none")
    }

    /// The stable slug a truncation reason gets in `RunReport::verdict`.
    pub fn verdict_slug(reason: TruncationReason) -> &'static str {
        match reason {
            TruncationReason::Timeout => "timeout",
            TruncationReason::ItemsetLimit => "itemset-limit",
            TruncationReason::MemoryLimit => "memory-limit",
            TruncationReason::DepthLimit => "depth-limit",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::WorkerPanic => "worker-panic",
        }
    }

    /// Flattens a miner verdict into the report's verdict fields.
    pub fn apply_verdict(report: &mut RunReport, completeness: &Completeness) {
        match *completeness {
            Completeness::Complete => report.verdict = "complete".to_string(),
            Completeness::Truncated {
                reason,
                emitted,
                elapsed,
            } => {
                report.verdict = verdict_slug(reason).to_string();
                report.truncated_emitted = Some(emitted);
                report.truncated_elapsed_us = Some(elapsed.as_micros() as u64);
            }
        }
    }

    /// Records which counting kernel this process dispatches to, so a
    /// report's timings can be compared against runs on other hardware
    /// (or with `FPM_KERNEL` forced).
    pub fn apply_kernel(report: &mut RunReport) {
        report.kernel = Some(fpm::kernels::selected().name().to_string());
    }

    /// Writes the report to [`report_dir`] and prints where it went.
    /// A write failure is reported, not fatal — the experiment's stdout
    /// output is still the primary artifact.
    pub fn write(report: &RunReport) {
        match report.write_to_dir(&report_dir()) {
            Ok(path) => println!("run report: {}", path.display()),
            Err(e) => println!("run report: write failed: {e}"),
        }
    }
}

/// Renders a magnitude as a unicode bar (for the figure-style outputs).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value.is_nan() {
        return String::new();
    }
    let filled = ((value.abs() / max) * width as f64).round() as usize;
    let mut s = String::new();
    if value < 0.0 {
        s.push('-');
    }
    s.push_str(&"█".repeat(filled.min(width)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["xxx", "y"]);
        t.row(["z", "wwww"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[2].starts_with("xxx"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn fmt_f_handles_nan() {
        assert_eq!(fmt_f(f64::NAN, 3), "-");
        assert_eq!(fmt_f(0.12345, 3), "0.123");
    }

    #[test]
    fn bar_scales_and_signs() {
        assert_eq!(bar(1.0, 1.0, 4), "████");
        assert_eq!(bar(0.5, 1.0, 4), "██");
        assert_eq!(bar(-0.5, 1.0, 4), "-██");
        assert_eq!(bar(0.0, 0.0, 4), "");
    }

    #[test]
    fn timed_measures_something() {
        let (value, d) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(d.as_nanos() > 0);
    }
}
