//! Differential property tests for the compressed shard artifact: a
//! sharded mine (or recount) over a decoded `.dxs` source must be
//! bit-identical to dense in-memory mining on arbitrary datasets, for
//! every (threads, prefetch) pipeline configuration — and any tampered
//! artifact bytes must fail closed with a typed error, never a panic.
//!
//! Run with `FPM_KERNEL={scalar,simd}` to pin the counting
//! kernel; the expected results are kernel-invariant.

use datasets::artifact::{decode_shards, encode_shards, ArtifactError};
use divexplorer::{DatasetBuilder, DiscreteDataset};
use fpm::itemset::sort_canonical;
use proptest::prelude::*;

/// Strategy: a random 3-attribute dataset with mixed cardinalities
/// (2, 3 and 5) over up to 20 rows — cardinality 5 needs 3 bits, so
/// codes straddle packed-word boundaries at several row counts.
fn small_dataset() -> impl Strategy<Value = DiscreteDataset> {
    let row = (0u16..2, 0u16..3, 0u16..5);
    proptest::collection::vec(row, 1..20).prop_map(|rows| {
        let mut b = DatasetBuilder::new();
        let col = |f: fn(&(u16, u16, u16)) -> u16| rows.iter().map(f).collect::<Vec<_>>();
        b.categorical("pair", &["p0", "p1"], &col(|r| r.0));
        b.categorical("trio", &["t0", "t1", "t2"], &col(|r| r.1));
        b.categorical("penta", &["q0", "q1", "q2", "q3", "q4"], &col(|r| r.2));
        b.build().expect("codes are in-domain by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mining through the compressed source reproduces dense in-memory
    /// mining exactly, across shard counts and pipeline knobs, and the
    /// source reports its encoded bytes through `size_hint`.
    #[test]
    fn compressed_sharded_mining_matches_dense(data in small_dataset(), min_support in 1u64..4) {
        let db = data.to_transactions();
        let params = fpm::MiningParams::with_min_support_count(min_support);
        let mut expected = fpm::MiningTask::with_params(&db, params.clone())
            .algorithm(fpm::Algorithm::Dense)
            .run()
            .into_itemsets();
        sort_canonical(&mut expected);
        for shards in [1usize, 2, 7] {
            let source = decode_shards(&encode_shards(&data, shards)).unwrap();
            for (threads, prefetch) in [(1usize, 0usize), (4, 0), (1, 2), (4, 2)] {
                let mut sink = fpm::VecSink::new();
                let (completeness, stats) = fpm::sharded::mine_into_bounded(
                    &source,
                    &params,
                    threads,
                    prefetch,
                    &fpm::Budget::unlimited(),
                    None,
                    &mut sink,
                );
                prop_assert!(completeness.is_complete(),
                    "K={} t={} d={}", shards, threads, prefetch);
                prop_assert_eq!(stats.truncated_phase, None);
                prop_assert_eq!(stats.recount_rows as usize, data.n_rows());
                // The compressed source reports encoded bytes, and the
                // ratio against streamed bytes is well-formed.
                prop_assert!(stats.compressed_bytes > 0, "size hints must flow into stats");
                let ratio = stats.compression_ratio().expect("compressed source has a ratio");
                prop_assert!(ratio > 0.0, "K={} ratio {}", shards, ratio);
                let mut got = sink.found;
                sort_canonical(&mut got);
                prop_assert_eq!(&got, &expected,
                    "compressed K={} t={} d={} vs dense", shards, threads, prefetch);
            }
        }
    }

    /// The recount pass over a compressed source agrees with the mine
    /// pass it feeds: warm recounts over `.dxs` shards are exact.
    #[test]
    fn compressed_recount_matches_the_mine(data in small_dataset(), min_support in 1u64..4) {
        let db = data.to_transactions();
        let params = fpm::MiningParams::with_min_support_count(min_support);
        let full = fpm::MiningTask::with_params(&db, params.clone())
            .algorithm(fpm::Algorithm::Dense)
            .run();
        let candidates = full.store.to_candidates();
        let mut expected = full.into_itemsets();
        sort_canonical(&mut expected);
        let source = decode_shards(&encode_shards(&data, 3)).unwrap();
        for (threads, prefetch) in [(1usize, 0usize), (4, 2)] {
            let mut sink = fpm::VecSink::new();
            let (completeness, stats) = fpm::sharded::recount_into_bounded(
                &source,
                &candidates,
                params.min_support_count,
                threads,
                prefetch,
                &fpm::Budget::unlimited(),
                None,
                &mut sink,
            );
            prop_assert!(completeness.is_complete(), "t={} d={}", threads, prefetch);
            if !candidates.is_empty() {
                // With no candidates the recount short-circuits before
                // streaming a single shard; otherwise every row flows.
                prop_assert_eq!(stats.recount_rows as usize, data.n_rows());
            }
            let mut got = sink.found;
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &expected, "recount t={} d={}", threads, prefetch);
        }
    }

    /// Fail-closed fuzz: flipping any byte or truncating at any point
    /// yields a typed [`ArtifactError`] — never a panic, never a
    /// silently different dataset.
    #[test]
    fn tampered_dxs_bytes_fail_closed(
        data in small_dataset(),
        at in any::<usize>(),
        bit in 0u8..8,
        cut in any::<usize>(),
    ) {
        let bytes = encode_shards(&data, 3);

        let mut flipped = bytes.clone();
        let i = at % flipped.len();
        flipped[i] ^= 1 << bit;
        prop_assert!(decode_shards(&flipped).is_err(), "flip byte {} bit {}", i, bit);

        let cut_at = cut % bytes.len();
        let err = decode_shards(&bytes[..cut_at]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                ArtifactError::TooShort { .. } | ArtifactError::ChecksumMismatch { .. }
            ),
            "cut at {}: {}", cut_at, err
        );
    }
}
