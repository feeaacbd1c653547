//! The Figure-6 lattice pins as a test tier.
//!
//! `reports/bench/pins.json` fingerprints every cell divbench runs at
//! table seed 42 over [FPR, FNR]: the pattern count, plus the wrapping
//! sum over patterns of FNV-1a over the pattern's items, support and
//! per-metric T/F/⊥ (all little-endian). This suite recomputes each
//! cell's identity through the public report API alone — `items(idx)`,
//! `support(idx)` and `counts(idx).get(m)` — on every mining path that
//! must produce the same lattice: FP-growth, Eclat, dense, the parallel
//! engine (2 threads) and the `from_artifact` recount over the canonical
//! lattice. The fingerprint is order-free, so each engine's emission
//! order does not matter. The pins are never re-pinned: a change to the
//! payload, an engine or the recount must reproduce them.
//!
//! The default tier runs the cells with s ≥ 0.1. The rest, german at
//! s = 0.01 (2,926,696 patterns) included, are ignored by default and
//! meant for a release build:
//!
//! ```text
//! cargo test --release -p datasets --test pins -- --ignored
//! ```

use datasets::artifact::lattice_fingerprint;
use datasets::DatasetId;
use divexplorer::{DivExplorer, DivergenceReport, Metric};
use fpm::{Algorithm, ItemsetArena};
use serde_json::Value;

const TABLE_SEED: u64 = 42;
const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
/// The lowest support the default tier runs.
const DEFAULT_TIER_MIN_SUPPORT: f64 = 0.1;

/// One pinned cell: the lattice of `dataset` at `support`.
#[derive(Debug)]
struct Pin {
    dataset: DatasetId,
    support: f64,
    patterns: u64,
    fingerprint: u64,
}

fn load_pins() -> Vec<Pin> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports/bench/pins.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let pins: Value = serde_json::from_str(&text).expect("pins.json is JSON");
    assert_eq!(pins["table_seed"].as_u64(), Some(TABLE_SEED));
    let names: Vec<&str> = METRICS.iter().map(|m| m.short_name()).collect();
    let pinned: Vec<&str> = pins["metrics"]
        .as_array()
        .expect("pinned metrics")
        .iter()
        .map(|m| m.as_str().expect("metric name"))
        .collect();
    assert_eq!(pinned, names, "the pins cover these metrics, in this order");
    pins["cells"]
        .as_array()
        .expect("pinned cells")
        .iter()
        .map(|c| Pin {
            dataset: DatasetId::ALL
                .into_iter()
                .find(|id| Some(id.name()) == c["dataset"].as_str())
                .expect("a known dataset"),
            support: c["support"].as_f64().expect("support"),
            patterns: c["patterns"].as_u64().expect("pattern count"),
            fingerprint: c["fingerprint"]
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .expect("hex fingerprint"),
        })
        .collect()
}

/// The pattern count and the order-free fingerprint of a report.
fn identity(report: &DivergenceReport) -> (u64, u64) {
    (report.len() as u64, lattice_fingerprint(report))
}

/// A way to compute a cell's report.
#[derive(Debug, Clone, Copy)]
enum Route {
    Mine(Algorithm),
    /// The parallel engine with 2 worker threads.
    Parallel,
    /// `from_artifact` over the canonical lattice the default engine mines.
    FromArtifact,
}

fn report_of(route: Route, id: DatasetId, support: f64) -> DivergenceReport {
    let t = id.generate(TABLE_SEED);
    let explore = |explorer: DivExplorer| explorer.explore(&t.data, &t.v, &t.u, &METRICS);
    let report = match route {
        Route::Mine(algorithm) => explore(DivExplorer::new(support).with_algorithm(algorithm)),
        Route::Parallel => explore(DivExplorer::new(support).with_threads(2)),
        Route::FromArtifact => {
            let mined = explore(DivExplorer::new(support)).expect("mine the lattice");
            let mut lattice = ItemsetArena::with_capacity(mined.len(), 0);
            for idx in 0..mined.len() {
                lattice.push(mined.items(idx), mined.support(idx), ());
            }
            drop(mined);
            lattice.sort_canonical();
            DivExplorer::new(support).from_artifact(&t.data, &lattice, &t.v, &t.u, &METRICS)
        }
    }
    .unwrap_or_else(|e| panic!("{route:?} on {} s={support}: {e}", id.name()));
    assert!(report.is_exploration_complete());
    report
}

/// Checks every pinned cell `tier` selects on `route`.
fn check(route: Route, tier: impl Fn(&Pin) -> bool) {
    let pins: Vec<Pin> = load_pins().into_iter().filter(|p| tier(p)).collect();
    assert!(!pins.is_empty(), "the tier selects some cells");
    for pin in pins {
        let (patterns, fingerprint) = identity(&report_of(route, pin.dataset, pin.support));
        assert_eq!(
            (patterns, format!("{fingerprint:016x}")),
            (pin.patterns, format!("{:016x}", pin.fingerprint)),
            "{route:?} on {} at s = {}",
            pin.dataset.name(),
            pin.support
        );
    }
}

fn default_tier(pin: &Pin) -> bool {
    pin.support >= DEFAULT_TIER_MIN_SUPPORT
}

fn slow_tier(pin: &Pin) -> bool {
    !default_tier(pin)
}

#[test]
fn fp_growth_reproduces_the_pins() {
    check(Route::Mine(Algorithm::FpGrowth), default_tier);
}

#[test]
fn eclat_reproduces_the_pins() {
    check(Route::Mine(Algorithm::Eclat), default_tier);
}

#[test]
fn dense_reproduces_the_pins() {
    check(Route::Mine(Algorithm::Dense), default_tier);
}

#[test]
fn the_parallel_engine_reproduces_the_pins() {
    check(Route::Parallel, default_tier);
}

#[test]
fn from_artifact_reproduces_the_pins() {
    check(Route::FromArtifact, default_tier);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn fp_growth_reproduces_the_low_support_pins() {
    check(Route::Mine(Algorithm::FpGrowth), slow_tier);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn eclat_reproduces_the_low_support_pins() {
    check(Route::Mine(Algorithm::Eclat), slow_tier);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn dense_reproduces_the_low_support_pins() {
    check(Route::Mine(Algorithm::Dense), slow_tier);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn the_parallel_engine_reproduces_the_low_support_pins() {
    check(Route::Parallel, slow_tier);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn from_artifact_reproduces_the_low_support_pins() {
    check(Route::FromArtifact, slow_tier);
}
