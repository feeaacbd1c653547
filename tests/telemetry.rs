//! Integration tests for the telemetry layer: the NDJSON trace produced
//! by a real exploration must be schema-valid, timestamp-monotone and
//! span-balanced, and the aggregated counters must agree with the
//! exploration's own result — including under budget truncation, across
//! miners and thread counts.

use divexplorer::{DivExplorer, Metric};
use fpm::{Algorithm, Budget, Completeness};
use std::sync::{Mutex, OnceLock};

/// [`obs`] installs a process-global recorder, so every test that
/// installs one must hold this lock for its whole install/uninstall
/// window (tests in one binary run on parallel threads).
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn compas() -> datasets::GeneratedDataset {
    datasets::compas::generate(2000, 42).into_dataset()
}

#[test]
fn trace_is_valid_ndjson_monotone_and_span_balanced() {
    let _guard = obs_lock().lock().unwrap();
    let path = std::env::temp_dir().join(format!("telemetry-trace-{}.ndjson", std::process::id()));

    let file = std::fs::File::create(&path).unwrap();
    obs::install(std::sync::Arc::new(obs::NdjsonRecorder::new(
        std::io::BufWriter::new(file),
    )));
    let d = compas();
    // FP-growth, so the trace carries its tree-build span too.
    let report = DivExplorer::new(0.05)
        .with_algorithm(Algorithm::FpGrowth)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("explore");
    obs::uninstall(); // flushes the BufWriter through the recorder

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "an instrumented run must emit events");

    let mut last_ts = 0u64;
    let mut open: std::collections::HashMap<(String, u64), u64> = std::collections::HashMap::new();
    let mut seen_events: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut seen_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut emitted_total = 0u64;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("every line must be valid JSON, got {e}: {line}"));
        let ev = v["ev"].as_str().expect("ev field").to_string();
        assert!(
            ["span_enter", "span_exit", "counter", "histogram"].contains(&ev.as_str()),
            "unknown event kind {ev}"
        );
        let ts = v["ts_us"].as_u64().expect("ts_us field");
        assert!(ts >= last_ts, "ts_us must be non-decreasing in file order");
        last_ts = ts;
        let name = v["name"].as_str().expect("name field").to_string();
        match ev.as_str() {
            "span_enter" => {
                *open
                    .entry((name.clone(), v["id"].as_u64().unwrap()))
                    .or_insert(0) += 1;
            }
            "span_exit" => {
                let key = (name.clone(), v["id"].as_u64().unwrap());
                let n = open.get_mut(&key).expect("exit without matching enter");
                *n -= 1;
                if *n == 0 {
                    open.remove(&key);
                }
            }
            "counter" if name == "fpm.itemsets_emitted" => {
                emitted_total += v["delta"].as_u64().unwrap();
            }
            _ => {}
        }
        seen_events.insert(ev);
        seen_names.insert(name);
    }
    assert!(open.is_empty(), "unbalanced spans: {open:?}");
    for ev in ["span_enter", "span_exit", "counter", "histogram"] {
        assert!(seen_events.contains(ev), "missing event kind {ev}");
    }
    // Every exploration stage and the miner's own span must appear.
    for name in [
        "explore.tally",
        "explore.encode",
        "explore.mine",
        "fpm.mine.fp-growth",
        "fpm.fpgrowth.tree_build",
        "fpm.itemsets_emitted",
        "fpm.itemset_support",
        "fpm.arena_bytes",
    ] {
        assert!(
            seen_names.contains(name),
            "missing {name}; got {seen_names:?}"
        );
    }
    assert_eq!(emitted_total, report.len() as u64);
}

#[test]
fn every_miner_emits_its_phase_span_and_matching_counters() {
    let _guard = obs_lock().lock().unwrap();
    let d = compas();
    for algo in [
        Algorithm::FpGrowth,
        Algorithm::Eclat,
        Algorithm::Dense,
        Algorithm::Naive,
    ] {
        let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
        obs::install(recorder.clone());
        let report = DivExplorer::new(0.05)
            .with_algorithm(algo)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("explore");
        obs::uninstall();

        let snap = recorder.snapshot();
        let span = snap
            .span(algo.span_name())
            .unwrap_or_else(|| panic!("{algo:?} must record {}", algo.span_name()));
        assert_eq!(span.count, 1, "{algo:?}");
        assert_eq!(
            snap.counter("fpm.itemsets_emitted"),
            report.len() as u64,
            "{algo:?}: stream counter must match the report"
        );
        let hist = snap
            .histogram("fpm.itemset_support")
            .unwrap_or_else(|| panic!("{algo:?} must publish the support histogram"));
        assert_eq!(hist.count(), report.len() as u64, "{algo:?}");
    }

    // The library's default engine is dense.
    let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(recorder.clone());
    DivExplorer::new(0.05)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("explore");
    obs::uninstall();
    let snap = recorder.snapshot();
    assert_eq!(snap.span("fpm.mine.dense").map(|s| s.count), Some(1));
    assert!(snap.span("fpm.mine.fp-growth").is_none());
}

/// A request scope must attribute the whole exploration — including
/// events emitted by parallel mining workers on their own threads — to
/// the request, and close its trace even though no event ever crosses
/// the loop thread's boundary explicitly.
#[test]
fn request_context_propagates_through_parallel_mining_workers() {
    let _guard = obs_lock().lock().unwrap();
    let d = compas();
    let flight = std::sync::Arc::new(obs::FlightRecorder::new(8, 65_536));
    let stats = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(std::sync::Arc::new(obs::Tee(vec![
        flight.clone(),
        stats.clone(),
    ])));
    {
        let _req = obs::request_scope(77, "mine");
        DivExplorer::new(0.05)
            .with_threads(4)
            .with_algorithm(Algorithm::Dense)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("explore");
    }
    obs::uninstall();

    let trace = flight
        .trace_of(77)
        .expect("the request's trace must be retained");
    assert_eq!(trace.op, "mine");
    assert!(trace.dur_us.is_some(), "scope drop must complete the trace");
    let names: std::collections::HashSet<&str> = trace
        .events
        .iter()
        .map(|e| match e {
            obs::FlightEvent::SpanEnter { name, .. }
            | obs::FlightEvent::SpanExit { name, .. }
            | obs::FlightEvent::Counter { name, .. }
            | obs::FlightEvent::Histogram { name, .. } => *name,
        })
        .collect();
    for name in ["explore.mine", "fpm.parallel.mine", "fpm.itemsets_emitted"] {
        assert!(names.contains(name), "missing {name}; got {names:?}");
    }
    // Worker-side batched publishes carry the adopted context: the
    // per-worker stats land inside the request's event stream.
    assert!(
        names.iter().any(|n| n.starts_with("fpm.dense.")),
        "worker-emitted counters must be attributed: {names:?}"
    );
    // And the aggregate registry recorded the request's latency.
    let snap = stats.snapshot();
    let lat = snap.latency("mine").expect("per-op latency histogram");
    assert_eq!(lat.count(), 1);
}

/// Satellite regression: under every budget and thread count, the
/// `Truncated` verdict's `emitted` must equal both the patterns kept in
/// the report and the `fpm.itemsets_emitted` counter — the exit-4 path
/// reports exactly what the miner kept.
#[test]
fn truncated_verdict_agrees_with_report_and_counters() {
    let _guard = obs_lock().lock().unwrap();
    let d = compas();
    for threads in [1usize, 2] {
        let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
        obs::install(recorder.clone());
        let report = DivExplorer::new(0.05)
            .with_threads(threads)
            .with_budget(Budget::unlimited().with_max_itemsets(5))
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("budget exhaustion is not an error");
        obs::uninstall();

        match *report.completeness() {
            Completeness::Truncated { emitted, .. } => {
                assert_eq!(
                    emitted,
                    report.len() as u64,
                    "threads={threads}: verdict must count what the report holds"
                );
                assert_eq!(
                    recorder.snapshot().counter("fpm.itemsets_emitted"),
                    emitted,
                    "threads={threads}: telemetry must agree with the verdict"
                );
            }
            Completeness::Complete => {
                panic!("threads={threads}: a 5-itemset cap must truncate this dataset")
            }
        }
    }
}

/// The lattice analyses emit their own spans: the FDR screen, pruning,
/// and — nested in whichever analysis first needs it — the one build of
/// the report's immediate-subset index.
#[test]
fn fdr_pruning_and_the_subset_index_build_record_their_spans() {
    let _guard = obs_lock().lock().unwrap();
    let d = compas();
    let report = DivExplorer::new(0.05)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("explore");
    let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(recorder.clone());
    let retained = divexplorer::pruning::prune_redundant(&report, 0, 0.05);
    let flagged = report.significant_at_fdr(0, 0.05);
    let again = divexplorer::pruning::prune_redundant(&report, 0, 0.05);
    obs::uninstall();

    assert_eq!(retained, again);
    assert!(flagged.len() <= report.len());
    let snap = recorder.snapshot();
    assert_eq!(snap.span("pruning.prune").map(|s| s.count), Some(2));
    assert_eq!(snap.span("stats.fdr").map(|s| s.count), Some(1));
    // Built once, inside the first pruning pass.
    let build = snap.span("arena.subsets").expect("index build span");
    assert_eq!(build.count, 1);
    assert!(build.total_us <= snap.span("pruning.prune").unwrap().total_us);
}
