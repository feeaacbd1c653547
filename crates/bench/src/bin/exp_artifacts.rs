//! Artifact round-trip benchmark: mine once, recount forever.
//!
//! Measures the cold path (encode + mine + tally via
//! `DivExplorer::explore`) against the warm path (load persisted
//! artifacts, streaming recount via `DivExplorer::from_artifact`) on the
//! artificial dataset, asserting three contracts from DESIGN.md §6g:
//!
//! 1. the warm report is **bit-identical** to the cold one — same
//!    patterns, same supports, same divergence bits for every metric;
//! 2. the warm path is **≥ 5× faster** than the cold one (asserted on
//!    the full-size run only; `--smoke` still checks correctness);
//! 3. tampered and version-bumped artifacts **fail closed** with typed
//!    errors, never panics.
//!
//! The workload sits in the paper's interactive regime — a COMPAS-sized
//! table with a deep lattice — where re-analysis latency is what users
//! feel and mining dominates the cold path. At bulk scale (tens of
//! thousands of rows) the recount's per-candidate popcounts grow with
//! row count and the ratio narrows; there the artifact win is skipping
//! CSV parse + lattice discovery, not raw counting (see DESIGN.md §6g).
//!
//! Writes `BENCH_artifacts.json` with cold/warm timings and the
//! `artifact.*` byte counters captured from the run.

use bench::{banner, telemetry};
use datasets::artifact::{self, ArenaKey, ArtifactError};
use divexplorer::{DivExplorer, DivergenceReport, Metric};
use std::time::Instant;

const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
const SUPPORT: f64 = 0.02;

fn assert_bit_identical(cold: &DivergenceReport, warm: &DivergenceReport) {
    assert_eq!(cold.len(), warm.len(), "pattern count differs");
    for idx in 0..cold.len() {
        let items = cold.items(idx);
        let widx = warm
            .find(items)
            .unwrap_or_else(|| panic!("pattern {items:?} missing from the warm report"));
        assert_eq!(
            cold.support(idx),
            warm.support(widx),
            "support on {items:?}"
        );
        for m in 0..METRICS.len() {
            assert_eq!(
                cold.divergence(idx, m).to_bits(),
                warm.divergence(widx, m).to_bits(),
                "divergence bits differ on {items:?} metric {m}"
            );
        }
    }
}

/// FNV-1a 64 matching the artifact checksum — used to *re-seal* a
/// version-tampered file so the typed version error (not the checksum)
/// is what rejects it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_fails_closed(dir: &std::path::Path) {
    let arena_path = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "dxa"))
        .expect("an arena artifact was written");
    let pristine = std::fs::read(&arena_path).unwrap();

    // Any flipped body byte fails the checksum.
    let mut tampered = pristine.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x20;
    assert!(
        matches!(
            artifact::decode_arena(&tampered),
            Err(ArtifactError::ChecksumMismatch { .. })
        ),
        "flipped byte must fail the checksum"
    );

    // A version bump fails closed even when the checksum is re-sealed.
    let mut bumped = pristine.clone();
    bumped[4..8].copy_from_slice(&(artifact::FORMAT_VERSION + 1).to_le_bytes());
    let end = bumped.len() - 8;
    let sum = fnv1a(&bumped[..end]);
    bumped[end..].copy_from_slice(&sum.to_le_bytes());
    match artifact::decode_arena(&bumped) {
        Err(ArtifactError::UnsupportedVersion { got, .. }) => {
            assert_eq!(got, artifact::FORMAT_VERSION + 1);
        }
        other => panic!("version bump must be typed, got {other:?}"),
    }

    // Truncation anywhere is typed too.
    assert!(matches!(
        artifact::decode_arena(&pristine[..pristine.len() / 3]),
        Err(ArtifactError::TooShort { .. } | ArtifactError::ChecksumMismatch { .. })
    ));
    println!("tampered / version-bumped / truncated artifacts fail closed (typed errors)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 3_000 };
    banner(
        "Artifacts",
        "persisted dataset + lattice: cold mine vs warm streaming recount",
    );
    let d = datasets::artificial::generate(n, 7);
    let explorer = DivExplorer::new(SUPPORT);

    let dir = std::env::temp_dir().join(format!("exp-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let session = telemetry::Session::start();

    // Cold path: encode + mine + tally, then persist both artifacts.
    let start = Instant::now();
    let cold = explorer
        .explore(&d.data, &d.v, &d.u, &METRICS)
        .expect("cold explore");
    let cold_us = start.elapsed().as_micros() as u64;
    assert!(cold.completeness().is_complete());

    let dataset_path = dir.join(artifact::dataset_file_name("artificial"));
    let hash = artifact::save_dataset(&dataset_path, &d.data, &d.v, &d.u).unwrap();
    let mut candidates = fpm::ItemsetArena::with_capacity(cold.len(), 0);
    for idx in 0..cold.len() {
        candidates.push(cold.items(idx), cold.support(idx), ());
    }
    candidates.sort_canonical();
    let key = ArenaKey {
        dataset_hash: hash,
        min_support_count: cold.min_support_count(),
        max_len: None,
        engine: fpm::Algorithm::Dense.to_string(),
        n_rows: d.data.n_rows() as u64,
    };
    let arena_path = dir.join(artifact::arena_file_name(&key));
    artifact::save_arena(&arena_path, &key, &candidates).unwrap();

    // Warm path: load both artifacts, one streaming recount, no mining.
    let start = Instant::now();
    let ds = artifact::load_dataset(&dataset_path).unwrap();
    let (loaded_key, loaded) = artifact::load_arena(&arena_path).unwrap();
    assert_eq!(loaded_key, key);
    let warm = explorer
        .from_artifact(&ds.data, &loaded, &ds.v, &ds.u, &METRICS)
        .expect("warm recount");
    let warm_us = start.elapsed().as_micros() as u64;
    assert!(warm.completeness().is_complete());

    assert_bit_identical(&cold, &warm);
    let speedup = cold_us as f64 / warm_us.max(1) as f64;
    println!(
        "cold {cold_us:>10} µs   warm {warm_us:>10} µs   {speedup:>6.1}x   \
         {} patterns, {} rows",
        cold.len(),
        n
    );
    println!("warm report bit-identical to cold (patterns, supports, divergence bits)");
    if smoke {
        println!("smoke run: speedup assertion skipped (correctness still checked)");
    } else {
        assert!(
            speedup >= 5.0,
            "recount must be >= 5x faster than the cold mine, got {speedup:.1}x"
        );
    }

    assert_fails_closed(&dir);

    let (snapshot, total) = session.finish();
    let mut run = obs::RunReport::new("artifacts", "artificial", telemetry::engine(&snapshot))
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = n as u64;
    run.min_support = SUPPORT;
    run.patterns = cold.len() as u64;
    run.total_us = total.as_micros() as u64;
    run.counters.extend([
        obs::CounterEntry {
            name: "cold_us".to_string(),
            value: cold_us,
        },
        obs::CounterEntry {
            name: "warm_us".to_string(),
            value: warm_us,
        },
        obs::CounterEntry {
            name: "speedup_x10".to_string(),
            value: (speedup * 10.0) as u64,
        },
    ]);
    run.counters.sort_by(|a, b| a.name.cmp(&b.name));
    telemetry::write(&run);

    let _ = std::fs::remove_dir_all(&dir);
}
