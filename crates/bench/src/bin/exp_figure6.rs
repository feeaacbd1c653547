//! Figure 6: DivExplorer execution time (mining + divergence + significance)
//! as a function of the minimum support threshold, on all six datasets —
//! and the engine comparison behind the library's default engine.
//!
//! Each of the 30 cells (six datasets at seed 42 × five supports) is
//! explored over [FPR, FNR] with FP-growth, the paper's miner, and with
//! dense, the library default. A cell's time runs from the `explore` call
//! until its report is dropped; each figure is the best of `DIVEXP_REPS`
//! runs (default 3), and the engine that runs first alternates from one
//! repetition to the next. Both engines must yield the same lattice: the
//! same pattern count and the same fingerprint over items, support and
//! per-metric tallies (the fingerprint of `reports/bench/pins.json`).
//!
//! Writes `BENCH_figure6.json` into `$BENCH_REPORT_DIR`: a JSON array of
//! `divexplorer.run_report.v1` records, one per (cell, engine), with
//! `algorithm` set, `total_us` the best time and `lattice_fingerprint`
//! the 64-bit fingerprint as 16 hex digits (a JSON number would round it
//! above 2^53).
//!
//! Absolute times depend on the machine; the paper-shape checks are:
//! time decreases with support, and *german* dominates at low support.

use bench::{banner, telemetry, TextTable};
use datasets::artifact::lattice_fingerprint;
use datasets::DatasetId;
use divexplorer::{DivExplorer, Metric};
use fpm::Algorithm;
use serde::Serialize;
use std::time::{Duration, Instant};

const SUPPORTS: [f64; 5] = [0.01, 0.05, 0.1, 0.15, 0.2];
const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
const ENGINES: [Algorithm; 2] = [Algorithm::FpGrowth, Algorithm::Dense];

/// One timed exploration: the time from the call until the report is
/// dropped (fingerprinting excluded), the pattern count and fingerprint.
fn run(data: &datasets::GeneratedDataset, support: f64, engine: Algorithm) -> (Duration, u64, u64) {
    let start = Instant::now();
    let report = DivExplorer::new(support)
        .with_algorithm(engine)
        .explore(&data.data, &data.v, &data.u, &METRICS)
        .expect("explore");
    let explored = start.elapsed();
    assert!(report.is_exploration_complete());
    let identity = (report.len() as u64, lattice_fingerprint(&report));
    let start = Instant::now();
    drop(report);
    (explored + start.elapsed(), identity.0, identity.1)
}

fn main() {
    banner("Figure 6", "Execution time vs minimum support threshold");
    let reps: usize = std::env::var("DIVEXP_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);

    let mut times = TextTable::new(["dataset", "s=0.01", "s=0.05", "s=0.1", "s=0.15", "s=0.2"]);
    let mut engines = TextTable::new([
        "dataset",
        "s",
        "patterns",
        "FP-growth ms",
        "dense ms",
        "FP-growth/dense",
    ]);
    let mut records = Vec::new();
    let mut sums = [Duration::ZERO; 2];
    let mut dense_wins = 0;
    for id in DatasetId::ALL {
        let gd = id.generate(42);
        let mut row = vec![id.name().to_string()];
        let mut dense_times = Vec::new();
        for &s in &SUPPORTS {
            let mut best = [Duration::MAX; 2];
            let mut lattice = None;
            for rep in 0..reps {
                for k in 0..ENGINES.len() {
                    let e = (k + rep) % ENGINES.len();
                    let (elapsed, patterns, fp) = run(&gd, s, ENGINES[e]);
                    best[e] = best[e].min(elapsed);
                    assert_eq!(
                        *lattice.get_or_insert((patterns, fp)),
                        (patterns, fp),
                        "{} s={s}: every run of every engine must mine the same lattice",
                        id.name()
                    );
                }
            }
            let (patterns, fp) = lattice.expect("every engine ran");
            for (e, engine) in ENGINES.iter().enumerate() {
                sums[e] += best[e];
                let mut report = obs::RunReport::new("figure6", id.name(), &engine.to_string());
                report.n_rows = gd.data.n_rows() as u64;
                report.min_support = s;
                report.patterns = patterns;
                report.total_us = best[e].as_micros() as u64;
                telemetry::apply_kernel(&mut report);
                let mut record = report.to_value();
                if let serde::Value::Object(fields) = &mut record {
                    fields.push((
                        "lattice_fingerprint".to_string(),
                        serde::Value::String(format!("{fp:016x}")),
                    ));
                }
                records.push(record);
            }
            if best[1] <= best[0] {
                dense_wins += 1;
            }
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            engines.row([
                id.name().to_string(),
                s.to_string(),
                patterns.to_string(),
                format!("{:.1}", ms(best[0])),
                format!("{:.1}", ms(best[1])),
                format!("{:.2}x", ms(best[0]) / ms(best[1])),
            ]);
            dense_times.push(best[1].as_secs_f64());
            row.push(format!("{:.3}s", best[1].as_secs_f64()));
        }
        times.row(row);
        // Shape check: lower support never gets *much* faster than higher.
        assert!(
            dense_times[0] >= dense_times[dense_times.len() - 1] * 0.5,
            "{}: time should not increase with support",
            id.name()
        );
    }
    println!("Library default (dense), best of {reps}:\n");
    times.print();
    println!("\nFP-growth vs dense, best of {reps}, engine order alternating:\n");
    engines.print();
    let cells = SUPPORTS.len() * DatasetId::ALL.len();
    println!(
        "\nsums: FP-growth {:.0} ms, dense {:.0} ms; dense at least as fast on {dense_wins} of {cells} cells",
        sums[0].as_secs_f64() * 1e3,
        sums[1].as_secs_f64() * 1e3,
    );
    println!(
        "\nShape check (paper): runtime decreases as the support threshold grows;\n\
              german is the most expensive dataset at s=0.01."
    );

    let dir = telemetry::report_dir();
    let path = dir.join("BENCH_figure6.json");
    let json = serde_json::to_string_pretty(&serde::Value::Array(records))
        .expect("run report serialization is infallible");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json + "\n")) {
        Ok(()) => println!("run report: {}", path.display()),
        Err(e) => println!("run report: write failed: {e}"),
    }
}
