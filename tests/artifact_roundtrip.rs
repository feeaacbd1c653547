//! Differential property tests for the artifact layer (DESIGN.md §6g):
//! persisting a mined lattice and recounting from the decoded bytes must
//! be bit-identical to the in-memory pipeline for every engine, encoded
//! artifacts must round-trip byte-for-byte, and corrupted bytes must
//! surface typed errors — never panics, never silently wrong tallies.

use datasets::artifact::{self, ArenaKey, ArtifactError};
use divexplorer::{DatasetBuilder, DiscreteDataset, DivExplorer, DivergenceReport, Metric};
use fpm::{Algorithm, ItemsetArena};
use proptest::prelude::*;

const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::ErrorRate];

/// The engine matrix from the acceptance criteria: each entry configures
/// a `DivExplorer` whose mined lattice the artifact must reproduce.
fn engines(support: f64) -> Vec<(&'static str, DivExplorer)> {
    vec![
        (
            "eclat",
            DivExplorer::new(support).with_algorithm(Algorithm::Eclat),
        ),
        (
            "dense",
            DivExplorer::new(support).with_algorithm(Algorithm::Dense),
        ),
        (
            "fp-growth",
            DivExplorer::new(support).with_algorithm(Algorithm::FpGrowth),
        ),
        ("parallel-t2", DivExplorer::new(support).with_threads(2)),
    ]
}

/// Strategy: a random discrete dataset over 3 attributes plus random
/// ground truth and predictions (same shape as proptest_pipeline.rs).
fn random_input() -> impl Strategy<Value = (DiscreteDataset, Vec<bool>, Vec<bool>)> {
    (2u16..4, 2u16..4, 8usize..26).prop_flat_map(|(card_a, card_b, n)| {
        let col_a = proptest::collection::vec(0..card_a, n);
        let col_b = proptest::collection::vec(0..card_b, n);
        let col_c = proptest::collection::vec(0..2u16, n);
        let v = proptest::collection::vec(any::<bool>(), n);
        let u = proptest::collection::vec(any::<bool>(), n);
        (col_a, col_b, col_c, v, u).prop_map(move |(a, b, c, v, u)| {
            let labels_a: Vec<&str> = ["a0", "a1", "a2"][..card_a as usize].to_vec();
            let labels_b: Vec<&str> = ["b0", "b1", "b2"][..card_b as usize].to_vec();
            let mut builder = DatasetBuilder::new();
            builder.categorical("A", &labels_a, &a);
            builder.categorical("B", &labels_b, &b);
            builder.categorical("C", &["c0", "c1"], &c);
            (builder.build().unwrap(), v, u)
        })
    })
}

/// The canonical candidate arena an artifact persists for a report.
fn candidates_of(report: &DivergenceReport) -> ItemsetArena<()> {
    let mut arena = ItemsetArena::with_capacity(report.len(), 0);
    for idx in 0..report.len() {
        arena.push(report.items(idx), report.support(idx), ());
    }
    arena.sort_canonical();
    arena
}

fn assert_reports_bit_identical(cold: &DivergenceReport, warm: &DivergenceReport, tag: &str) {
    assert_eq!(cold.len(), warm.len(), "{tag}: pattern count");
    assert_eq!(cold.metrics(), warm.metrics(), "{tag}: metrics");
    for m in 0..cold.metrics().len() {
        assert_eq!(
            cold.dataset_rate(m).to_bits(),
            warm.dataset_rate(m).to_bits(),
            "{tag}: dataset rate of metric {m}"
        );
    }
    for idx in 0..cold.len() {
        let items = cold.items(idx);
        let widx = warm
            .find(items)
            .unwrap_or_else(|| panic!("{tag}: {items:?} missing after round-trip"));
        assert_eq!(
            cold.support(idx),
            warm.support(widx),
            "{tag}: support on {items:?}"
        );
        assert_eq!(
            cold.counts(idx),
            warm.counts(widx),
            "{tag}: per-metric counts on {items:?}"
        );
        for m in 0..cold.metrics().len() {
            assert_eq!(
                cold.divergence(idx, m).to_bits(),
                warm.divergence(widx, m).to_bits(),
                "{tag}: divergence bits on {items:?} metric {m}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → recount equals the in-memory pipeline bit for bit,
    /// for every engine, and the encoded bytes themselves round-trip
    /// losslessly (decode → re-encode is the identity on bytes).
    #[test]
    fn persisted_lattices_recount_bit_identically(
        (data, v, u) in random_input(),
        support in 0.05f64..0.5,
    ) {
        let dataset_bytes = artifact::encode_dataset(&data, &v, &u);
        let ds = artifact::decode_dataset(&dataset_bytes).unwrap();
        prop_assert_eq!(&artifact::encode_dataset(&ds.data, &ds.v, &ds.u), &dataset_bytes);
        prop_assert_eq!(ds.hash, artifact::dataset_hash(&data));
        prop_assert_eq!(&ds.v, &v);
        prop_assert_eq!(&ds.u, &u);

        let mut engine_bytes: Option<Vec<u8>> = None;
        for (name, explorer) in engines(support) {
            let cold = explorer.explore(&data, &v, &u, &METRICS).unwrap();
            let candidates = candidates_of(&cold);
            let key = ArenaKey {
                dataset_hash: ds.hash,
                min_support_count: cold.min_support_count(),
                max_len: None,
                engine: "any".to_string(),
                n_rows: data.n_rows() as u64,
            };
            let bytes = artifact::encode_arena(&key, &candidates);
            let (loaded_key, loaded) = artifact::decode_arena(&bytes).unwrap();
            prop_assert_eq!(&loaded_key, &key);
            prop_assert_eq!(&artifact::encode_arena(&loaded_key, &loaded), &bytes);

            // The canonical lattice is engine-independent, so so are
            // the artifact bytes (keys held equal).
            match &engine_bytes {
                None => engine_bytes = Some(bytes),
                Some(first) => prop_assert_eq!(first, &bytes, "{} bytes diverge", name),
            }

            let warm = explorer
                .from_artifact(&ds.data, &loaded, &ds.v, &ds.u, &METRICS)
                .unwrap();
            assert_reports_bit_identical(&cold, &warm, name);
        }
    }

    /// Recounting the persisted lattice under a *different* prediction
    /// vector matches mining from scratch under that vector — the
    /// recount-not-remine invariant that makes artifacts reusable. The
    /// delta path agrees too: base tallies under `u`, moved to `u2` by
    /// recounting only the rows that differ, derive every metric exactly
    /// as a cold `explore` under `u2` does, for random, empty and
    /// every-row flip sets, with mining threads {1, 2}.
    #[test]
    fn recounting_under_new_predictions_matches_a_fresh_mine(
        (data, v, u) in random_input(),
        flip_mask in proptest::collection::vec(any::<bool>(), 8..26),
    ) {
        let explorer = DivExplorer::new(0.1).with_algorithm(Algorithm::Eclat);
        let cold = explorer.explore(&data, &v, &u, &METRICS).unwrap();
        let candidates = candidates_of(&cold);

        let u2: Vec<bool> = u
            .iter()
            .zip(flip_mask.iter().chain(std::iter::repeat(&false)))
            .map(|(&b, &f)| b ^ f)
            .collect();
        let warm = explorer.from_artifact(&data, &candidates, &v, &u2, &METRICS).unwrap();
        let fresh = explorer.explore(&data, &v, &u2, &METRICS).unwrap();
        assert_reports_bit_identical(&fresh, &warm, "new-u recount");

        let every_row: Vec<bool> = u.iter().map(|&b| !b).collect();
        for (flips, target) in [("random", &u2), ("empty", &u), ("every row", &every_row)] {
            let differing = u.iter().zip(target.iter()).filter(|(a, b)| a != b).count();
            for threads in [1, 2] {
                let knobs = explorer.clone().with_threads(threads);
                let base = knobs.tally_lattice(&data, &candidates, &v, &u).unwrap();
                let delta = knobs
                    .retally(&data, &candidates, &base, &v, &u, target)
                    .unwrap();
                prop_assert!(delta.completeness().is_complete());
                prop_assert_eq!(delta.recount_rows() as usize, differing);
                let tag = format!("{flips} flips, t={threads}");
                let derived = knobs
                    .report_from_tallies(&data, &candidates, &delta, &Metric::ALL)
                    .unwrap();
                let cold = explorer.explore(&data, &v, target, &Metric::ALL).unwrap();
                assert_reports_bit_identical(&cold, &derived, &tag);
            }
        }
    }

    /// One cold pass over all 12 metrics gives each metric exactly what a
    /// pass over that metric alone gives: the same patterns, tallies,
    /// dataset rate, divergences and t-statistics, bit for bit.
    #[test]
    fn one_pass_over_every_metric_matches_single_metric_passes(
        (data, v, u) in random_input(),
        support in 0.05f64..0.5,
    ) {
        let explorer = DivExplorer::new(support);
        let all = explorer.explore(&data, &v, &u, &Metric::ALL).unwrap();
        prop_assert_eq!(all.metrics(), &Metric::ALL[..]);
        for (m, metric) in Metric::ALL.into_iter().enumerate() {
            let single = explorer.explore(&data, &v, &u, &[metric]).unwrap();
            prop_assert_eq!(all.len(), single.len(), "{}", metric);
            prop_assert_eq!(
                all.dataset_rate(m).to_bits(),
                single.dataset_rate(0).to_bits(),
                "{}", metric
            );
            for idx in 0..single.len() {
                let a = all.find(single.items(idx)).unwrap();
                prop_assert_eq!(all.counts(a).get(m), single.counts(idx).get(0), "{}", metric);
                prop_assert_eq!(
                    all.divergence(a, m).to_bits(),
                    single.divergence(idx, 0).to_bits(),
                    "{}", metric
                );
                prop_assert_eq!(
                    all.t_statistic(a, m).to_bits(),
                    single.t_statistic(idx, 0).to_bits(),
                    "{}", metric
                );
            }
        }
    }

    /// Any single flipped bit anywhere in an artifact is detected as a
    /// typed error — decoding never panics and never succeeds.
    #[test]
    fn any_single_bit_flip_fails_closed(
        (data, v, u) in random_input(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = artifact::encode_dataset(&data, &v, &u);
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(artifact::decode_dataset(&bytes).is_err());
    }

    /// Truncating an artifact at any point is detected, never a panic.
    #[test]
    fn any_truncation_fails_closed(
        (data, v, u) in random_input(),
        cut in any::<usize>(),
    ) {
        let report = DivExplorer::new(0.1).explore(&data, &v, &u, &METRICS).unwrap();
        let key = ArenaKey {
            dataset_hash: artifact::dataset_hash(&data),
            min_support_count: report.min_support_count(),
            max_len: None,
            engine: "eclat".to_string(),
            n_rows: data.n_rows() as u64,
        };
        let bytes = artifact::encode_arena(&key, &candidates_of(&report));
        let cut = cut % bytes.len();
        prop_assert!(artifact::decode_arena(&bytes[..cut]).is_err());
    }
}

/// A future format version is rejected with the typed version error even
/// when the checksum is recomputed to match — readers must not guess at
/// layouts they don't know.
#[test]
fn version_bumps_are_rejected_with_a_typed_error() {
    let mut builder = DatasetBuilder::new();
    builder.categorical("A", &["x", "y"], &[0, 1, 0, 1]);
    let data = builder.build().unwrap();
    let v = vec![true, false, true, false];
    let u = vec![true, true, false, false];
    let mut bytes = artifact::encode_dataset(&data, &v, &u);

    bytes[4..8].copy_from_slice(&(artifact::FORMAT_VERSION + 1).to_le_bytes());
    // Re-seal the trailing FNV-1a 64 checksum so only the version differs.
    let end = bytes.len() - 8;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..end] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&h.to_le_bytes());

    match artifact::decode_dataset(&bytes) {
        Err(ArtifactError::UnsupportedVersion { got, want }) => {
            assert_eq!(got, artifact::FORMAT_VERSION + 1);
            assert_eq!(want, artifact::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// Loading a dataset artifact as an arena (and vice versa) is a typed
/// kind error, not a misparse.
#[test]
fn kind_confusion_is_a_typed_error() {
    let mut builder = DatasetBuilder::new();
    builder.categorical("A", &["x", "y"], &[0, 1, 0, 1]);
    let data = builder.build().unwrap();
    let v = vec![true, false, true, false];
    let u = vec![false, true, true, false];
    let dataset_bytes = artifact::encode_dataset(&data, &v, &u);
    assert!(matches!(
        artifact::decode_arena(&dataset_bytes),
        Err(ArtifactError::WrongKind { .. })
    ));

    let report = DivExplorer::new(0.25)
        .explore(&data, &v, &u, &METRICS)
        .unwrap();
    let key = ArenaKey {
        dataset_hash: artifact::dataset_hash(&data),
        min_support_count: report.min_support_count(),
        max_len: None,
        engine: "eclat".to_string(),
        n_rows: 4,
    };
    let arena_bytes = artifact::encode_arena(&key, &candidates_of(&report));
    assert!(matches!(
        artifact::decode_dataset(&arena_bytes),
        Err(ArtifactError::WrongKind { .. })
    ));
}
