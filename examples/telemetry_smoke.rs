//! Telemetry smoke test: run a small instrumented exploration, validate
//! the NDJSON trace it streams, and write a machine-readable run report.
//!
//! CI runs this to prove the observability surface end to end:
//!
//! ```text
//! cargo run --example telemetry_smoke -- /tmp/trace.ndjson /tmp/reports
//! ```
//!
//! Exits nonzero (via assert) if the trace is malformed, timestamps go
//! backwards, spans are unbalanced, or the counters disagree with the
//! exploration result.

use divexplorer::{DivExplorer, Metric};
use std::sync::Arc;

fn main() {
    let mut argv = std::env::args().skip(1);
    let trace_path = argv
        .next()
        .unwrap_or_else(|| "target/telemetry_smoke.ndjson".to_string());
    let report_dir = argv.next().unwrap_or_else(|| "target".to_string());

    // One run, two recorders: the NDJSON stream and the aggregator.
    let file = std::fs::File::create(&trace_path).expect("create trace file");
    let stats = Arc::new(obs::StatsRecorder::new());
    obs::install(Arc::new(obs::Tee(vec![
        Arc::new(obs::NdjsonRecorder::new(std::io::BufWriter::new(file))),
        stats.clone(),
    ])));

    let d = datasets::compas::generate(6172, 42).into_dataset();
    let start = std::time::Instant::now();
    let report = DivExplorer::new(0.01)
        .explore(
            &d.data,
            &d.v,
            &d.u,
            &[Metric::FalsePositiveRate, Metric::FalseNegativeRate],
        )
        .expect("explore");
    let total = start.elapsed();
    obs::uninstall();

    // Validate the trace: every line parses, timestamps never go
    // backwards, every span enter has its exit.
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let mut last_ts = 0u64;
    let mut open = std::collections::HashMap::<(String, u64), i64>::new();
    let mut lines = 0u64;
    for line in text.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line ({e}): {line}"));
        let ts = v["ts_us"].as_u64().expect("ts_us");
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        let key = || {
            (
                v["name"].as_str().expect("name").to_string(),
                v["id"].as_u64().expect("id"),
            )
        };
        match v["ev"].as_str().expect("ev") {
            "span_enter" => *open.entry(key()).or_insert(0) += 1,
            "span_exit" => *open.entry(key()).or_insert(0) -= 1,
            "counter" | "histogram" => {}
            other => panic!("unknown event {other}"),
        }
        lines += 1;
    }
    assert!(lines > 0, "instrumented run must emit events");
    assert!(
        open.values().all(|&n| n == 0),
        "unbalanced spans in the trace"
    );

    let snapshot = stats.snapshot();
    assert_eq!(
        snapshot.counter("fpm.itemsets_emitted"),
        report.len() as u64,
        "counters must agree with the exploration result"
    );

    let engine = snapshot
        .engine()
        .expect("the run records its mining engine's span");
    let mut run = obs::RunReport::new("telemetry_smoke", "compas", engine)
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = 6172;
    run.min_support = 0.01;
    run.patterns = report.len() as u64;
    run.total_us = total.as_micros() as u64;
    let path = run
        .write_to_dir(std::path::Path::new(&report_dir))
        .expect("write run report");

    println!(
        "telemetry smoke: OK — {lines} trace events, {} patterns, report at {}",
        report.len(),
        path.display()
    );
    println!("{}", snapshot.render().trim_end());
}
