//! Layer attribution: the bench's own timers around public calls, the
//! spans and counters the program already records, and the per-layer
//! metrics a traced run reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::{PhaseTiming, RunReport, StatsSnapshot};

use crate::stats::self_time;
use crate::{Metric, Outcome};

/// Bench-timed layers of one operation, in call order. A layer called
/// twice accumulates.
#[derive(Debug, Default)]
pub struct Clock(Vec<(&'static str, Duration)>);

impl Clock {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    pub fn add(&mut self, layer: &'static str, d: Duration) {
        match self.0.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += d,
            None => self.0.push((layer, d)),
        }
    }

    pub fn get(&self, layer: &str) -> Duration {
        self.0
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(Duration::ZERO, |&(_, d)| d)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.0.iter().copied()
    }
}

/// Spans that time a layer from inside the program. Where one exists its
/// value is used, so bench numbers and service traces compare directly.
const SPAN_LAYERS: [&str; 8] = [
    "explore.tally",
    "explore.encode",
    "explore.mine",
    "explore.recount",
    "global_div.item_divergence",
    "shapley.contributions",
    "artifact.load",
    "artifact.save",
];

/// Bench timers that wrap a call whose layers are the spans above; they
/// are parents, not layers, and are never summed with them. A bench
/// timer named like a span is the same layer; the span's value wins.
const PARENT_TIMERS: [&str; 2] = ["explore", "recount"];

fn span_us(snap: &StatsSnapshot, name: &str) -> u64 {
    snap.span(name).map_or(0, |s| s.total_us)
}

/// One traced operation: its wall time, its spans and counters, and the
/// bench-timed layers around them.
pub struct Traced {
    pub wall: Duration,
    pub snap: StatsSnapshot,
    pub clock: Clock,
}

impl Traced {
    /// Every layer's time, microseconds: spans where the program has
    /// one, the bench's timers for the rest.
    pub fn layer_us(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for name in SPAN_LAYERS {
            let us = span_us(&self.snap, name);
            if us > 0 {
                out.insert(name.to_string(), us);
            }
        }
        for (name, d) in self.clock.iter() {
            if !PARENT_TIMERS.contains(&name) && !out.contains_key(name) {
                out.insert(name.to_string(), d.as_micros() as u64);
            }
        }
        out
    }

    /// Wall time no layer accounts for: the operation's self time.
    pub fn unattributed(&self) -> Duration {
        let layers: Vec<Duration> = self
            .layer_us()
            .values()
            .map(|&us| Duration::from_micros(us))
            .collect();
        self_time(self.wall, &layers)
    }

    /// The `divexplorer.run_report.v1` record of this operation.
    pub fn run_report(
        &self,
        workload: &str,
        dataset: &str,
        n_rows: usize,
        support: f64,
    ) -> RunReport {
        let algorithm = self
            .snap
            .spans
            .iter()
            .find_map(|(name, _)| name.strip_prefix("fpm.mine."))
            .unwrap_or("none");
        let mut report = RunReport::new(workload, dataset, algorithm)
            .with_snapshot(&self.snap, "fpm.itemset_support");
        report.n_rows = n_rows as u64;
        report.min_support = support;
        report.total_us = self.wall.as_micros() as u64;
        report.patterns = self.snap.counter("fpm.itemsets_emitted");
        for (name, d) in self.clock.iter() {
            if report.phases.iter().all(|p| p.name != name) {
                let us = d.as_micros() as u64;
                report.phases.push(PhaseTiming {
                    name: name.to_string(),
                    count: 1,
                    total_us: us,
                    max_us: us,
                });
            }
        }
        report.phases.sort_by(|a, b| a.name.cmp(&b.name));
        bench::telemetry::apply_kernel(&mut report);
        report
    }
}

/// Share of each traced operation's wall time its layers must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Flags a traced operation whose layers leave more than 5% of its wall
/// time unexplained.
pub fn check_coverage(name: &str, op: &Traced, outcome: &mut Outcome) {
    let covered = 1.0 - op.unattributed().as_secs_f64() / op.wall.as_secs_f64().max(1e-9);
    if covered < MIN_COVERAGE {
        outcome.wrong(format!(
            "{name}: layers cover {:.1}% of {:.3} ms, need {:.0}%",
            covered * 100.0,
            op.wall.as_secs_f64() * 1e3,
            MIN_COVERAGE * 100.0
        ));
    }
}

/// The per-layer metrics of a traced run, in the order `BENCHMARK.json`
/// lists them. Every workload reports every one; a layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("datasets.generate_ms", "ms"),
    ("explore.tally_ms", "ms"),
    ("explore.encode_ms", "ms"),
    ("explore.mine_ms", "ms"),
    ("explore.recount_ms", "ms"),
    ("fpm.itemsets_emitted", "count"),
    ("mine_ns_per_itemset", "ns"),
    ("fpm.fpgrowth.cond_trees", "count"),
    ("fpm.dense.words_anded", "count"),
    ("fpm.arena_bytes", "bytes"),
    ("report.rank_ms", "ms"),
    ("stats.fdr_ms", "ms"),
    ("pruning.prune_ms", "ms"),
    ("global_div.item_divergence_ms", "ms"),
    ("shapley.contributions_ms", "ms"),
    ("shapley.subset_evals", "count"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.read_bytes", "bytes"),
    ("artifact.write_bytes", "bytes"),
    ("serve.parse_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.restart_ms", "ms"),
    ("divexplorer.cache.hit_ratio", "ratio"),
    ("analysis_to_mine_ratio", "ratio"),
    ("attributed_pct", "%"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Layers that analyse a mined lattice (the numerator of
/// `analysis_to_mine_ratio`).
const ANALYSIS_LAYERS: [&str; 5] = [
    "report.rank",
    "stats.fdr",
    "pruning.prune",
    "global_div.item_divergence",
    "shapley.contributions",
];

/// Sums traced operations into a workload's per-layer metrics.
#[derive(Default)]
pub struct Totals {
    layer_us: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    arena_bytes: u64,
    wall: Duration,
    unattributed: Duration,
    generate: Duration,
    cache_hit_ratio: f64,
    restart_ms: f64,
}

/// Counters summed into per-layer metrics of the same name.
const COUNTERS: [&str; 6] = [
    "fpm.itemsets_emitted",
    "fpm.fpgrowth.cond_trees",
    "fpm.dense.words_anded",
    "shapley.subset_evals",
    "artifact.read_bytes",
    "artifact.write_bytes",
];

impl Totals {
    /// Totals of a traced run whose set-up generated its tables in
    /// `generate`. Where a service runs, it answered `cache_hit_ratio` of
    /// the queries' lattice lookups from cache and restarted in
    /// `restart_ms` (both 0 otherwise).
    pub fn new(generate: Duration, cache_hit_ratio: f64, restart_ms: f64) -> Totals {
        Totals {
            generate,
            cache_hit_ratio,
            restart_ms,
            ..Totals::default()
        }
    }

    pub fn add(&mut self, op: &Traced) {
        for (name, us) in op.layer_us() {
            *self.layer_us.entry(name).or_default() += us;
        }
        for name in COUNTERS {
            *self.counters.entry(name.to_string()).or_default() += op.snap.counter(name);
        }
        self.arena_bytes = self.arena_bytes.max(op.snap.counter("fpm.arena_bytes"));
        self.wall += op.wall;
        self.unattributed += op.unattributed();
    }

    fn ms(&self, layer: &str) -> f64 {
        self.layer_us.get(layer).copied().unwrap_or(0) as f64 / 1e3
    }

    /// The per-layer metrics. `overhead_pct` compares the traced pass's
    /// wall time with an untraced pass of the same operations.
    pub fn metrics(&self, overhead_pct: f64) -> Vec<Metric> {
        let mine_ms = self.ms("explore.mine");
        let emitted = self.counters["fpm.itemsets_emitted"];
        let analysis_ms: f64 = ANALYSIS_LAYERS.iter().map(|l| self.ms(l)).sum();
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let unattributed_ms = self.unattributed.as_secs_f64() * 1e3;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "datasets.generate_ms" => self.generate.as_secs_f64() * 1e3,
                    "mine_ns_per_itemset" if emitted > 0 => mine_ms * 1e6 / emitted as f64,
                    "mine_ns_per_itemset" => 0.0,
                    "fpm.arena_bytes" => self.arena_bytes as f64,
                    "divexplorer.cache.hit_ratio" => self.cache_hit_ratio,
                    "serve.restart_ms" => self.restart_ms,
                    "analysis_to_mine_ratio" if mine_ms > 0.0 => analysis_ms / mine_ms,
                    "analysis_to_mine_ratio" => 0.0,
                    "attributed_pct" => 100.0 * (1.0 - unattributed_ms / wall_ms.max(1e-9)),
                    "unattributed_ms" => unattributed_ms,
                    "trace_overhead_pct" => overhead_pct,
                    counter if self.counters.contains_key(counter) => self.counters[counter] as f64,
                    ms_layer => self.ms(ms_layer.trim_end_matches("_ms")),
                };
                Metric::new(name, value, unit, 0)
            })
            .collect()
    }
}

/// Writes a traced run's records as `BENCH_<workload>.json`: a JSON array
/// of `divexplorer.run_report.v1` records, one per operation.
pub fn write_reports(workload: &str, reports: &[RunReport]) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(crate::check::REPORT_DIR);
    let path = dir.join(format!("BENCH_{workload}.json"));
    let json = serde_json::to_string_pretty(&reports.to_vec())
        .map_err(|e| format!("run report serialization: {e}"))?;
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Recorder, StatsRecorder};

    fn traced(
        wall_ms: u64,
        spans: &[(&'static str, u64)],
        timers: &[(&'static str, u64)],
    ) -> Traced {
        let rec = StatsRecorder::new();
        for (i, &(name, ms)) in spans.iter().enumerate() {
            rec.span_enter(name, i as u64);
            rec.span_exit(name, i as u64, ms * 1000);
        }
        rec.add_counter("fpm.itemsets_emitted", 1000);
        let mut clock = Clock::default();
        for &(name, ms) in timers {
            clock.add(name, Duration::from_millis(ms));
        }
        Traced {
            wall: Duration::from_millis(wall_ms),
            snap: rec.snapshot(),
            clock,
        }
    }

    #[test]
    fn spans_and_timers_partition_the_wall_time() {
        let op = traced(
            100,
            &[
                ("explore.tally", 5),
                ("explore.encode", 5),
                ("explore.mine", 60),
            ],
            &[("explore", 72), ("report.rank", 25)],
        );
        let layers = op.layer_us();
        assert_eq!(layers.len(), 4, "the explore timer is a parent: {layers:?}");
        assert_eq!(layers["report.rank"], 25_000);
        assert_eq!(op.unattributed(), Duration::from_millis(5));
    }

    #[test]
    fn totals_derive_ratios_from_the_summed_layers() {
        let mut t = Totals::default();
        t.add(&traced(
            100,
            &[("explore.mine", 40)],
            &[("explore", 41), ("report.rank", 50)],
        ));
        let metrics = t.metrics(1.5);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(get("explore.mine_ms"), 40.0);
        assert_eq!(get("report.rank_ms"), 50.0);
        assert_eq!(get("analysis_to_mine_ratio"), 1.25);
        assert_eq!(get("mine_ns_per_itemset"), 40_000.0);
        assert_eq!(get("unattributed_ms"), 10.0);
        assert!((get("attributed_pct") - 90.0).abs() < 1e-9);
        assert_eq!(get("trace_overhead_pct"), 1.5);
        assert_eq!(get("stats.fdr_ms"), 0.0);
    }

    #[test]
    fn run_reports_carry_bench_timed_layers_as_phases() {
        let op = traced(10, &[("fpm.mine.fp-growth", 6)], &[("report.rank", 3)]);
        let report = op.run_report("fig6-deep", "german", 1000, 0.05);
        assert_eq!(report.algorithm, "fp-growth");
        assert_eq!(report.total_us, 10_000);
        assert_eq!(report.patterns, 1000);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["fpm.mine.fp-growth", "report.rank"]);
        let back = obs::RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
