//! The batch-audit workloads: a sweep of (dataset, support) cells, each
//! explored with the library defaults and then analysed — Figure 6's
//! "mining + divergence + significance" on `fig6-deep` and `fig6-wide`,
//! and the CLI's `--fdr`/`--prune`/`global`/`shapley` path on
//! `lattice-analysis`.

use std::time::{Duration, Instant};

use datasets::{DatasetId, GeneratedDataset};
use divexplorer::{global_div, pruning, shapley, DivExplorer, DivergenceReport, SortBy};

use crate::check::{self, Lattice, METRICS};
use crate::inputs;
use crate::layers::{self, Clock, Totals, Traced};
use crate::stats::{self, ms};
use crate::{Config, Metric, Outcome, Workload};

/// Figure 6's support thresholds.
const SUPPORTS: [f64; 5] = [0.01, 0.05, 0.1, 0.15, 0.2];

/// `--smoke` raises german's support to at least this: its lattice at
/// s=0.01 holds about 2.9 million patterns.
const SMOKE_GERMAN_MIN_SUPPORT: f64 = 0.05;

/// Set-up repeats inside one run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Ranked patterns per metric, as the CLI prints by default.
const TOP: usize = 10;

/// FDR level and pruning ε of the lattice analyses.
const FDR_Q: f64 = 0.05;
const PRUNE_EPS: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Analysis {
    /// Top-10 by divergence with t-statistics, for every metric.
    Fig6,
    /// For FPR: top-10, BH-FDR screen, ε-pruning, global item
    /// divergence and the Shapley contributions of the top-10.
    Lattice,
}

struct Spec {
    analysis: Analysis,
    cells: Vec<(DatasetId, f64)>,
    /// Wall time of one pass on the reference machine (2-core x86-64);
    /// with `--seconds` it fixes the pass count.
    nominal_pass_s: f64,
}

fn grid(ids: [DatasetId; 3]) -> Vec<(DatasetId, f64)> {
    ids.into_iter()
        .flat_map(|id| SUPPORTS.map(|s| (id, s)))
        .collect()
}

fn spec(workload: Workload, smoke: bool) -> Spec {
    use DatasetId::*;
    let (analysis, mut cells, nominal_pass_s) = match workload {
        // Lattice-bound: more than 10 patterns per row.
        Workload::Fig6Deep => (Analysis::Fig6, grid([German, Heart, Bank]), 9.0),
        // Row-bound: under one pattern per row.
        Workload::Fig6Wide => (Analysis::Fig6, grid([Adult, Artificial, Compas]), 1.0),
        Workload::LatticeAnalysis => (
            Analysis::Lattice,
            vec![(German, 0.02), (Bank, 0.01), (Heart, 0.01), (Adult, 0.01)],
            4.5,
        ),
        Workload::ServeWarm => unreachable!("serve-warm is not a batch workload"),
    };
    if smoke {
        let mut capped: Vec<(DatasetId, f64)> = Vec::new();
        for (id, s) in cells {
            let s = if id == German {
                s.max(SMOKE_GERMAN_MIN_SUPPORT)
            } else {
                s
            };
            if !capped.contains(&(id, s)) {
                capped.push((id, s));
            }
        }
        cells = capped;
    }
    Spec {
        analysis,
        cells,
        nominal_pass_s,
    }
}

/// Every cell any batch workload runs (the pinned set).
pub fn all_cells() -> Vec<(DatasetId, f64)> {
    let mut cells: Vec<(DatasetId, f64)> = Vec::new();
    for w in [
        Workload::Fig6Deep,
        Workload::Fig6Wide,
        Workload::LatticeAnalysis,
    ] {
        for cell in spec(w, false).cells {
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
    }
    cells
}

/// A workload's tables and the set-ups that generated them. A set-up
/// generates every table of the workload; `setup_s` is the median of
/// [`SETUPS`] of them.
struct Tables {
    ids: Vec<DatasetId>,
    seed: u64,
    sets: Vec<(DatasetId, GeneratedDataset)>,
    /// Wall time of each set-up, seconds.
    times: Vec<f64>,
}

impl Tables {
    /// The tables of `cells`, after one set-up.
    fn new(cells: &[(DatasetId, f64)], seed: u64) -> Tables {
        let mut ids: Vec<DatasetId> = Vec::new();
        for &(id, _) in cells {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut tables = Tables {
            ids,
            seed,
            sets: Vec::new(),
            times: Vec::new(),
        };
        tables.set_up_until(1);
        tables
    }

    /// Runs set-ups until `due` have run; each replaces the tables with
    /// an identical new set.
    fn set_up_until(&mut self, due: usize) {
        while self.times.len() < due {
            let start = Instant::now();
            let sets = self
                .ids
                .iter()
                .map(|&id| (id, inputs::table(id, self.seed)))
                .collect();
            self.times.push(start.elapsed().as_secs_f64());
            self.sets = sets;
        }
    }

    fn get(&self, id: DatasetId) -> &GeneratedDataset {
        &self
            .sets
            .iter()
            .find(|(t, _)| *t == id)
            .expect("generated")
            .1
    }

    fn setup_time(&self) -> Duration {
        Duration::from_secs_f64(stats::median(&self.times))
    }
}

fn mix(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
}

/// What one execution of a cell answered.
struct Answer {
    report: DivergenceReport,
    /// Digest of every answer; must repeat exactly across executions.
    digest: u64,
    /// Wall time of each query on the mined lattice: one per analysed
    /// metric.
    queries: Vec<Duration>,
}

/// One execution of a cell: `explore` with the library defaults, then the
/// workload's analyses, each timed on `clock`.
fn execute(
    t: &GeneratedDataset,
    support: f64,
    analysis: Analysis,
    clock: &mut Clock,
) -> Result<Answer, String> {
    let report = clock
        .time("explore", || {
            DivExplorer::new(support).explore(&t.data, &t.v, &t.u, &METRICS)
        })
        .map_err(|e| format!("explore: {e}"))?;
    if let Some(reason) = report.completeness().truncation_reason() {
        return Err(format!("explore truncated ({reason})"));
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let metrics = match analysis {
        Analysis::Fig6 => METRICS.len(),
        Analysis::Lattice => 1,
    };
    let mut queries = Vec::with_capacity(metrics);
    for m in 0..metrics {
        let start = Instant::now();
        query(&report, m, analysis, clock, &mut digest)?;
        queries.push(start.elapsed());
    }
    Ok(Answer {
        report,
        digest,
        queries,
    })
}

/// Runs [`execute`] and returns the wall time of all of it, the drop of
/// its answer included. `inspect` sees a successful answer between the
/// two, outside the timed region.
fn run_cell(
    t: &GeneratedDataset,
    support: f64,
    analysis: Analysis,
    clock: &mut Clock,
    inspect: impl FnOnce(&Answer),
) -> (Duration, Result<(), String>) {
    let start = Instant::now();
    let answer = execute(t, support, analysis, clock);
    let mut wall = start.elapsed();
    let answer = match answer {
        Ok(answer) => answer,
        Err(e) => return (wall, Err(e)),
    };
    inspect(&answer);
    let start = Instant::now();
    drop(answer);
    wall += start.elapsed();
    (wall, Ok(()))
}

/// One query on a mined lattice: the top-10 by divergence with their
/// t-statistics for metric `m`, plus the lattice analyses on
/// `lattice-analysis`. Folds every answer into `h`.
fn query(
    report: &DivergenceReport,
    m: usize,
    analysis: Analysis,
    clock: &mut Clock,
    h: &mut u64,
) -> Result<(), String> {
    let (top, t_stats) = clock.time("report.rank", || {
        let top = report.top_k(m, TOP, SortBy::Divergence);
        let t: Vec<f64> = top.iter().map(|&i| report.t_statistic(i, m)).collect();
        (top, t)
    });
    for (&idx, t) in top.iter().zip(&t_stats) {
        report.items(idx).iter().for_each(|&i| mix(h, u64::from(i)));
        mix(h, report.divergence(idx, m).to_bits());
        mix(h, t.to_bits());
    }
    if analysis == Analysis::Lattice {
        let flagged = clock.time("stats.fdr", || report.significant_at_fdr(m, FDR_Q));
        let kept = clock.time("pruning.prune", || {
            pruning::prune_redundant(report, m, PRUNE_EPS)
        });
        let global = clock.time("global_div.item_divergence", || {
            global_div::global_item_divergence(report, m)
        });
        mix(h, flagged.len() as u64);
        mix(h, kept.len() as u64);
        global.iter().for_each(|&(_, g)| mix(h, g.to_bits()));
        for &idx in &top {
            let items = report.items(idx);
            let contributions = clock
                .time("shapley.contributions", || {
                    shapley::item_contributions(report, items, m)
                })
                .map_err(|e| format!("shapley: {e}"))?;
            let sum: f64 = contributions.iter().map(|&(_, c)| c).sum();
            let delta = report.divergence(idx, m);
            if (sum - delta).abs() > 1e-9 {
                return Err(format!(
                    "Shapley contributions sum to {sum}, divergence is {delta}"
                ));
            }
            contributions.iter().for_each(|&(_, c)| mix(h, c.to_bits()));
        }
    }
    Ok(())
}

/// Per-cell samples of the untraced passes, milliseconds.
#[derive(Default)]
struct Samples {
    cell_ms: Vec<f64>,
    explore_ms: Vec<f64>,
    query_ms: Vec<f64>,
    lattice: Option<Lattice>,
    digest: Option<u64>,
}

/// Runs `passes` untraced passes over every cell, with the set-ups
/// spread evenly between them so `setup_s` samples the whole run, as
/// the passes do. Also returns this process's peak RSS at the end of the
/// first pass: later passes only repeat its work, and how far heap
/// fragmentation lifts their peak depends on how often the short cells
/// happened to repeat.
fn measure(
    spec: &Spec,
    tables: &mut Tables,
    passes: usize,
    outcome: &mut Outcome,
) -> (Vec<Samples>, f64) {
    let mut samples: Vec<Samples> = spec.cells.iter().map(|_| Samples::default()).collect();
    let mut peak_rss_mb = None;
    for pass in 0..passes {
        tables.set_up_until(stats::due_by(SETUPS, pass, passes));
        for (cell, &(id, support)) in samples.iter_mut().zip(&spec.cells) {
            let t = tables.get(id);
            let name = format!("{} s={support}", id.name());
            let mut explore = Duration::ZERO;
            let mut queries: Vec<Duration> = Vec::new();
            let (total, runs) = stats::repeat_until_min(|| {
                let mut clock = Clock::default();
                let (wall, result) = run_cell(t, support, spec.analysis, &mut clock, |answer| {
                    if *cell.digest.get_or_insert(answer.digest) != answer.digest {
                        outcome.wrong(format!("{name}: answers differ between runs"));
                    }
                    match cell.lattice {
                        Some(l) if l.patterns != answer.report.len() as u64 => {
                            outcome.wrong(format!(
                                "{name}: {} patterns, earlier runs found {}",
                                answer.report.len(),
                                l.patterns
                            ))
                        }
                        Some(_) => {}
                        None => cell.lattice = Some(check::lattice_of(&answer.report)),
                    }
                    queries.resize(answer.queries.len(), Duration::ZERO);
                    queries
                        .iter_mut()
                        .zip(&answer.queries)
                        .for_each(|(q, a)| *q += *a);
                });
                match result {
                    Ok(()) => {
                        outcome.attempt(Ok(()));
                        explore += clock.get("explore");
                        wall
                    }
                    Err(e) => {
                        outcome.attempt(Err(format!("{name}: {e}")));
                        stats::MIN_CELL_TIME
                    }
                }
            });
            let mean = |d: Duration| ms(d) / f64::from(runs);
            cell.cell_ms.push(mean(total));
            cell.explore_ms.push(mean(explore));
            cell.query_ms.extend(queries.into_iter().map(mean));
        }
        peak_rss_mb.get_or_insert_with(|| stats::vm_hwm_mb("self").unwrap_or(0.0));
    }
    (samples, peak_rss_mb.unwrap_or(0.0))
}

fn end_to_end(
    spec: &Spec,
    samples: &[Samples],
    passes: usize,
    setup: Duration,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let medians: Vec<f64> = samples.iter().map(|s| stats::median(&s.cell_ms)).collect();
    let queries: Vec<f64> = samples.iter().flat_map(|s| s.query_ms.clone()).collect();
    let mines: Vec<f64> = samples.iter().flat_map(|s| s.explore_ms.clone()).collect();
    let n = samples.len() * passes;
    let shape = format!("{} cells x {passes} passes", spec.cells.len());
    let tail = stats::tail_percentile(queries.len());
    vec![
        Metric::new("sweep_s", medians.iter().sum::<f64>() / 1e3, "s", n).with_note(shape.clone()),
        Metric::new("cell_ms_geomean", stats::geomean(&medians), "ms", n).with_note(shape),
        Metric::new("query_p50_ms", stats::median(&queries), "ms", queries.len())
            .with_note("query = one cell's analyses".to_string())
            .with_quartiles(&queries),
        Metric::new(
            "query_p99_ms",
            stats::percentile(&queries, tail),
            "ms",
            queries.len(),
        )
        .with_note(format!("p{tail}")),
        Metric::new("mine_cold_ms", stats::median(&mines), "ms", mines.len())
            .with_note("cold mine = one cell's explore".to_string()),
        Metric::new("setup_s", setup.as_secs_f64(), "s", SETUPS),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1).with_note("first pass".to_string()),
    ]
}

/// The traced run: every cell once untraced and once with the telemetry
/// recorder installed; per-layer metrics and one run report per cell.
fn trace(
    workload: Workload,
    spec: &Spec,
    tables: &Tables,
    outcome: &mut Outcome,
) -> Result<(Vec<Metric>, Vec<Lattice>), String> {
    let mut totals = Totals::new(tables.setup_time(), 0.0, 0.0);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut reports = Vec::new();
    let mut lattices = Vec::new();
    for &(id, support) in &spec.cells {
        let t = tables.get(id);
        let name = format!("{} s={support}", id.name());
        untraced += run_cell(t, support, spec.analysis, &mut Clock::default(), |_| {}).0;

        let session = bench::telemetry::Session::start();
        let mut clock = Clock::default();
        let mut lattice = Lattice::default();
        let (wall, result) = run_cell(t, support, spec.analysis, &mut clock, |answer| {
            lattice = check::lattice_of(&answer.report);
        });
        let (snap, _) = session.finish();
        traced += wall;
        lattices.push(lattice);
        outcome.attempt(result.map_err(|e| format!("{name}: {e}")));
        let op = Traced { wall, snap, clock };
        layers::check_coverage(&name, &op, outcome);
        totals.add(&op);
        reports.push(op.run_report(workload.name(), id.name(), t.n_rows(), support));
    }
    let path = layers::write_reports(workload.name(), &reports)?;
    eprintln!("divbench: run reports written to {}", path.display());
    let overhead = 100.0 * (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0);
    Ok((totals.metrics(overhead), lattices))
}

pub fn run(workload: Workload, config: &Config) -> Result<Outcome, String> {
    let spec = spec(workload, config.smoke);
    let mut tables = Tables::new(&spec.cells, config.seed);
    let mut outcome = Outcome::default();
    let lattices = if config.trace {
        tables.set_up_until(SETUPS);
        let (metrics, lattices) = trace(workload, &spec, &tables, &mut outcome)?;
        outcome.metrics = metrics;
        lattices
    } else {
        let passes = config.passes(spec.nominal_pass_s);
        let (samples, peak_rss_mb) = measure(&spec, &mut tables, passes, &mut outcome);
        outcome.metrics = end_to_end(&spec, &samples, passes, tables.setup_time(), peak_rss_mb);
        samples
            .iter()
            .map(|s| s.lattice.unwrap_or_default())
            .collect()
    };
    let want = check::references(config.seed, &spec.cells, &tables.sets)?;
    for e in check::compare(&spec.cells, &lattices, &want) {
        outcome.wrong(e);
    }
    Ok(outcome)
}
