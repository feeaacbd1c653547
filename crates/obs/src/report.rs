//! Machine-readable run reports (`BENCH_*.json`).
//!
//! A [`RunReport`] is the durable, comparable record of one mining /
//! exploration run: what ran, on which dataset, under which budget, how
//! long each phase took, and the shape of the result (itemset-support
//! histogram). Bench binaries write one per experiment so perf PRs can
//! diff trajectories instead of eyeballing stdout.
//!
//! The struct is deliberately flat (named-field structs, no
//! data-carrying enums) so it round-trips through the workspace's
//! offline serde derive; budget verdicts arrive flattened as a
//! `verdict` string plus optional `truncated_*` fields.

use serde::{Deserialize, Serialize};

use crate::stats::StatsSnapshot;

/// Schema tag written into every report.
pub const RUN_REPORT_SCHEMA: &str = "divexplorer.run_report.v1";

/// One aggregated span: total wall clock across `count` executions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Sum of their wall-clock durations, microseconds.
    pub total_us: u64,
    /// Longest single execution, microseconds.
    pub max_us: u64,
}

/// One monotone counter total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub value: u64,
}

/// One non-empty log2 bucket of the itemset-support histogram:
/// `count` itemsets had support in `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// Disabled-telemetry overhead measurement (see `exp_overhead`):
/// estimated cost of the instrumentation fast path relative to the
/// whole run. The contract is `overhead_ratio < 0.02`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadStat {
    /// Instrumentation call sites exercised by the run (from counters).
    pub obs_calls: u64,
    /// Measured cost of one disabled-path call, nanoseconds.
    pub per_call_ns: f64,
    /// End-to-end run wall clock with telemetry disabled, microseconds.
    pub run_us: u64,
    /// `obs_calls * per_call_ns / run_us / 1000`.
    pub overhead_ratio: f64,
}

/// The machine-readable record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Always [`RUN_REPORT_SCHEMA`].
    pub schema: String,
    /// Experiment id, e.g. `"table1"`; names the `BENCH_<id>.json` file.
    pub experiment: String,
    /// Dataset name, e.g. `"compas"`.
    pub dataset: String,
    /// Dataset rows `|D|`.
    pub n_rows: u64,
    /// Mining backend, e.g. `"fp-growth"`.
    pub algorithm: String,
    /// Relative support threshold `s`.
    pub min_support: f64,
    /// Worker threads (1 = sequential).
    pub threads: u64,
    /// Budget verdict: `"complete"`, or the truncation reason slug
    /// (`"timeout"`, `"itemset-limit"`, `"memory-limit"`,
    /// `"depth-limit"`, `"cancelled"`, `"worker-panic"`).
    pub verdict: String,
    /// Itemsets emitted before a truncated run stopped.
    pub truncated_emitted: Option<u64>,
    /// Wall clock of a truncated run, microseconds.
    pub truncated_elapsed_us: Option<u64>,
    /// Patterns in the final result.
    pub patterns: u64,
    /// End-to-end wall clock, microseconds.
    pub total_us: u64,
    /// Aggregated spans, name-ascending.
    pub phases: Vec<PhaseTiming>,
    /// Counter totals, name-ascending.
    pub counters: Vec<CounterEntry>,
    /// Non-empty log2 buckets of the itemset-support histogram.
    pub support_histogram: Vec<HistogramBucket>,
    /// Disabled-telemetry overhead, when the experiment measures it.
    pub overhead: Option<OverheadStat>,
    /// Telemetry of the retired sharded engine. No run sets these any
    /// more: they stay, always `None`, so committed reports that carry
    /// them still parse; absent fields in older reports parse as `None`.
    ///
    /// Configured shard count `K`.
    pub shard_count: Option<u64>,
    /// Shards whose candidate mining completed in phase 1.
    pub shards_mined: Option<u64>,
    /// Size of the deduplicated candidate union.
    pub shard_candidates: Option<u64>,
    /// Rows streamed by the recount pass (phase 2).
    pub shard_recount_rows: Option<u64>,
    /// Wall-clock of phase 1, microseconds.
    pub shard_mine_us: Option<u64>,
    /// Wall-clock of phase 2 (recount + emission), microseconds.
    pub shard_recount_us: Option<u64>,
    /// Largest single-shard footprint loaded at any point, bytes.
    pub shard_peak_bytes: Option<u64>,
    /// Footprint of the candidate arena, bytes.
    pub shard_candidate_bytes: Option<u64>,
    /// The phase a budget cut interrupted (`"mine"` / `"recount"`), if
    /// any.
    pub shard_truncated_phase: Option<String>,
    /// Time the recount workers spent waiting on shard IO (inline loads
    /// or blocked prefetch-queue pops), microseconds.
    pub shard_io_wait_us: Option<u64>,
    /// Fraction of the recount wall clock not spent waiting on IO, in
    /// `[0, 1]` (`1.0` = fully overlapped).
    pub shard_overlap_ratio: Option<f64>,
    /// On-disk/encoded bytes behind the shards, when the source reports
    /// a size hint (compressed sources); `None` otherwise.
    pub shard_compressed_bytes: Option<u64>,
    /// Streamed (decoded) bytes over encoded bytes — the effective
    /// compression ratio, when the source reports sizes.
    pub shard_compression_ratio: Option<f64>,
    /// Counting kernel the run dispatched to (`"scalar"` / `"simd"`),
    /// when the caller records it. Per-kernel word volumes
    /// arrive as `fpm.kernel.words_anded.<name>` counters alongside.
    /// Absent in older reports; parses as `None`.
    pub kernel: Option<String>,
}

impl RunReport {
    /// A report skeleton with empty telemetry sections.
    pub fn new(experiment: &str, dataset: &str, algorithm: &str) -> Self {
        RunReport {
            schema: RUN_REPORT_SCHEMA.to_string(),
            experiment: experiment.to_string(),
            dataset: dataset.to_string(),
            n_rows: 0,
            algorithm: algorithm.to_string(),
            min_support: 0.0,
            threads: 1,
            verdict: "complete".to_string(),
            truncated_emitted: None,
            truncated_elapsed_us: None,
            patterns: 0,
            total_us: 0,
            phases: Vec::new(),
            counters: Vec::new(),
            support_histogram: Vec::new(),
            overhead: None,
            shard_count: None,
            shards_mined: None,
            shard_candidates: None,
            shard_recount_rows: None,
            shard_mine_us: None,
            shard_recount_us: None,
            shard_peak_bytes: None,
            shard_candidate_bytes: None,
            shard_truncated_phase: None,
            shard_io_wait_us: None,
            shard_overlap_ratio: None,
            shard_compressed_bytes: None,
            shard_compression_ratio: None,
            kernel: None,
        }
    }

    /// Fills `phases`, `counters` and `support_histogram` from an
    /// aggregated snapshot. `support_counter` names the histogram that
    /// feeds `support_histogram` (pass `"fpm.itemset_support"`).
    pub fn with_snapshot(mut self, snap: &StatsSnapshot, support_hist: &str) -> Self {
        self.phases = snap
            .spans
            .iter()
            .map(|(name, s)| PhaseTiming {
                name: name.clone(),
                count: s.count,
                total_us: s.total_us,
                max_us: s.max_us,
            })
            .collect();
        self.counters = snap
            .counters
            .iter()
            .map(|(name, v)| CounterEntry {
                name: name.clone(),
                value: *v,
            })
            .collect();
        if let Some(h) = snap.histogram(support_hist) {
            self.support_histogram = h
                .nonzero_buckets()
                .map(|(lo, hi, count)| HistogramBucket { lo, hi, count })
                .collect();
        }
        self
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report serialization is infallible")
    }

    /// Parses a report back (schema-checked).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: RunReport =
            serde_json::from_str(text).map_err(|e| format!("run report parse: {e}"))?;
        if report.schema != RUN_REPORT_SCHEMA {
            return Err(format!(
                "run report schema mismatch: got {:?}, want {RUN_REPORT_SCHEMA:?}",
                report.schema
            ));
        }
        Ok(report)
    }

    /// Writes `BENCH_<experiment>.json` under `dir`, returning the path.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, Recorder, StatsRecorder};

    #[test]
    fn report_roundtrips_through_json() {
        let rec = StatsRecorder::new();
        rec.span_enter("explore.mine", 1);
        rec.span_exit("explore.mine", 1, 5000);
        rec.add_counter("fpm.itemsets_emitted", 12);
        let mut h = Histogram::new();
        for s in [2u64, 5, 5, 900] {
            h.record(s);
        }
        rec.merge_histogram("fpm.itemset_support", &h);

        let mut report = RunReport::new("unit", "toy", "eclat")
            .with_snapshot(&rec.snapshot(), "fpm.itemset_support");
        report.n_rows = 64;
        report.min_support = 0.05;
        report.patterns = 12;
        report.total_us = 6000;
        report.verdict = "itemset-limit".to_string();
        report.truncated_emitted = Some(12);
        report.truncated_elapsed_us = Some(5500);
        report.overhead = Some(OverheadStat {
            obs_calls: 1000,
            per_call_ns: 1.5,
            run_us: 6000,
            overhead_ratio: 0.00025,
        });
        report.shard_count = Some(4);
        report.shards_mined = Some(4);
        report.shard_candidates = Some(120);
        report.shard_recount_rows = Some(64);
        report.shard_mine_us = Some(900);
        report.shard_recount_us = Some(150);
        report.shard_peak_bytes = Some(4096);
        report.shard_candidate_bytes = Some(2048);
        report.shard_truncated_phase = Some("recount".to_string());
        report.shard_io_wait_us = Some(40);
        report.shard_overlap_ratio = Some(0.73);
        report.shard_compressed_bytes = Some(512);
        report.shard_compression_ratio = Some(3.4);
        report.kernel = Some("simd".to_string());

        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.phases.len(), 1);
        assert_eq!(back.phases[0].total_us, 5000);
        assert_eq!(back.counters[0].value, 12);
        assert_eq!(back.support_histogram.len(), 3);
        assert_eq!(
            back.support_histogram[0],
            HistogramBucket {
                lo: 2,
                hi: 3,
                count: 1
            }
        );
    }

    #[test]
    fn reports_without_shard_fields_still_parse() {
        // Pre-shard-telemetry reports omit the shard_* keys entirely;
        // they must round-trip to None, not fail.
        let mut report = RunReport::new("old", "toy", "sharded");
        let mut json = report.to_json();
        for key in [
            "shard_count",
            "shards_mined",
            "shard_candidates",
            "shard_recount_rows",
            "shard_mine_us",
            "shard_recount_us",
            "shard_peak_bytes",
            "shard_candidate_bytes",
            "shard_truncated_phase",
            "shard_io_wait_us",
            "shard_overlap_ratio",
            "shard_compressed_bytes",
            "shard_compression_ratio",
            "kernel",
        ] {
            json = json
                .lines()
                .filter(|l| !l.contains(key))
                .collect::<Vec<_>>()
                .join("\n");
        }
        // Strip any trailing comma left before the closing brace.
        let json = json.replace(",\n}", "\n}");
        let back = RunReport::from_json(&json).unwrap();
        report.shard_count = None;
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut report = RunReport::new("x", "toy", "eclat");
        report.schema = "something.else".to_string();
        let json = report.to_json();
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn write_to_dir_names_the_bench_file() {
        let dir = std::env::temp_dir().join(format!("obs-report-test-{}", std::process::id()));
        let report = RunReport::new("smoke", "toy", "fp-growth");
        let path = report.write_to_dir(&dir).unwrap();
        assert!(path.ends_with("BENCH_smoke.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::from_json(&text).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
