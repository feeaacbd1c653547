//! Differential property tests: every production miner must agree with the
//! naive oracle on arbitrary small databases, for both supports and payloads,
//! and the output must satisfy structural invariants of frequent-itemset
//! mining (anti-monotonicity, canonical ordering, no duplicates).

use fpm::itemset::sort_canonical;
use fpm::{Algorithm, CountPayload, FrequentItemset, MiningParams, MiningTask, TransactionDb};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

/// Runs `algo` over `db` through the `MiningTask` builder (the canonical
/// entry point) and materializes the result.
fn mine<P: fpm::Payload + Send + Sync>(
    algo: Algorithm,
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
) -> Vec<FrequentItemset<P>> {
    MiningTask::with_params(db, params.clone())
        .payloads(payloads)
        .algorithm(algo)
        .run()
        .into_itemsets()
}

/// Strategy: a small random database over up to 8 items and up to 14 rows.
fn small_db() -> impl Strategy<Value = TransactionDb> {
    let row = proptest::collection::vec(0u32..8, 0..6);
    proptest::collection::vec(row, 0..14).prop_map(|rows| TransactionDb::from_rows(8, &rows))
}

fn payloads_for(db: &TransactionDb) -> Vec<CountPayload> {
    (0..db.len()).map(|t| CountPayload(t as u64 + 1)).collect()
}

/// A payload in the shape the dense engine's range layout counts: each
/// row is in at most one of three classes, and an aggregate holds the
/// class counts. Bit planes and composites put a row in several classes,
/// so they count through the Eclat fallback instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Classes([u64; 3]);

impl Classes {
    /// The payload of a row in class `class`; 3 and above mean none.
    fn of_class(class: usize) -> Self {
        let mut classes = [0; 3];
        if let Some(slot) = classes.get_mut(class) {
            *slot = 1;
        }
        Classes(classes)
    }

    /// Row `t`'s payload: a class scattered by a hash of `t`, so that
    /// every class (and none) meets every item; one row in four is in none.
    fn of_row(t: usize) -> Self {
        Classes::of_class((t.wrapping_mul(0x9E37_79B9) >> 7) % 4)
    }
}

impl fpm::Payload for Classes {
    fn zero() -> Self {
        Classes::default()
    }
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
    fn mask_spec(payloads: &[Self]) -> Option<fpm::MaskSpec> {
        payloads
            .iter()
            .all(|p| p.0.iter().sum::<u64>() <= 1)
            .then(|| fpm::MaskSpec::leaf(3))
    }
    fn class_of(&self) -> Option<usize> {
        self.0.iter().position(|&c| c == 1)
    }
    fn decode_classes(counts: &[u64]) -> Self {
        Classes([counts[0], counts[1], counts[2]])
    }
}

fn classes_for(db: &TransactionDb) -> Vec<Classes> {
    (0..db.len()).map(Classes::of_row).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn miners_agree_with_oracle(db in small_db(), min_support in 1u64..5, max_len in prop::option::of(1usize..4)) {
        let payloads = payloads_for(&db);
        let mut params = MiningParams::with_min_support_count(min_support);
        params.max_len = max_len;
        let mut expected = mine(Algorithm::Naive, &db, &payloads, &params);
        sort_canonical(&mut expected);
        for algo in Algorithm::ALL {
            let mut got = mine(algo, &db, &payloads, &params);
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &expected, "{} disagrees with oracle", algo);
        }
    }

    /// Tentpole acceptance: for every algorithm, mining into an
    /// [`fpm::ItemsetArena`] sink yields exactly the itemsets, supports and
    /// payloads of the materializing `mine()` API on arbitrary databases.
    #[test]
    fn sink_mining_equals_vec_mining(db in small_db(), min_support in 1u64..5, max_len in prop::option::of(1usize..4)) {
        let payloads = payloads_for(&db);
        let mut params = MiningParams::with_min_support_count(min_support);
        params.max_len = max_len;
        for algo in Algorithm::ALL {
            let mut expected = mine(algo, &db, &payloads, &params);
            sort_canonical(&mut expected);
            let mut arena = MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo)
                .run()
                .store;
            arena.sort_canonical();
            prop_assert_eq!(arena.len(), expected.len(), "{}: cardinality", algo);
            for (entry, fi) in arena.iter().zip(&expected) {
                prop_assert_eq!(entry.items, fi.items.as_slice(), "{}: items", algo);
                prop_assert_eq!(entry.support, fi.support, "{}: support", algo);
                prop_assert_eq!(*entry.payload, fi.payload, "{}: payload", algo);
            }
            // The arena's hash index resolves every mined itemset.
            for fi in &expected {
                prop_assert!(arena.find(&fi.items).is_some(), "{}: find", algo);
            }
        }
    }

    /// A `VecSink` driven through `mine_into` reproduces `mine()` verbatim —
    /// the adapters really are thin.
    #[test]
    fn vec_sink_equals_vec_mining(db in small_db(), min_support in 1u64..5) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        for algo in Algorithm::ALL {
            let mut expected = mine(algo, &db, &payloads, &params);
            sort_canonical(&mut expected);
            let mut sink = fpm::VecSink::new();
            MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo)
                .run_into(&mut sink);
            let mut got = sink.found;
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &expected, "{} via VecSink", algo);
        }
    }

    #[test]
    fn support_is_antimonotone(db in small_db(), min_support in 1u64..4) {
        let params = MiningParams::with_min_support_count(min_support);
        let found = mine(Algorithm::FpGrowth, &db, &vec![(); db.len()], &params);
        let by_items: FxHashMap<&[u32], u64> =
            found.iter().map(|f| (f.items.as_slice(), f.support)).collect();
        for fi in &found {
            // Every immediate subset of a frequent itemset is frequent with
            // support at least as large.
            for skip in 0..fi.items.len() {
                if fi.items.len() == 1 { break; }
                let sub: Vec<u32> = fi.items.iter().enumerate()
                    .filter(|&(i, _)| i != skip).map(|(_, &x)| x).collect();
                let sub_support = by_items.get(sub.as_slice());
                prop_assert!(sub_support.is_some(), "closure violated for {:?}", sub);
                prop_assert!(*sub_support.unwrap() >= fi.support);
            }
        }
    }

    #[test]
    fn output_is_duplicate_free_and_canonical(db in small_db(), min_support in 1u64..4) {
        let params = MiningParams::with_min_support_count(min_support);
        for algo in Algorithm::ALL {
            let found = mine(algo, &db, &vec![(); db.len()], &params);
            let mut seen = std::collections::HashSet::new();
            for fi in &found {
                prop_assert!(fi.items.windows(2).all(|w| w[0] < w[1]),
                    "{}: items not strictly sorted: {:?}", algo, fi.items);
                prop_assert!(seen.insert(fi.items.clone()),
                    "{}: duplicate itemset {:?}", algo, fi.items);
                prop_assert!(fi.support >= min_support.max(1));
            }
        }
    }

    /// The dense popcount engine must agree with merge-based Eclat under
    /// *every* representation mix — all-bitset, all-tid-list, diffsets at
    /// the first opportunity, and a cutoff that lands mid-lattice so
    /// recursions cross the dense/sparse boundary — for an indicator
    /// payload whose `(T, F, ⊥)`-style tallies ride through the range
    /// layout (tid-lists and diffsets count by boundary search).
    #[test]
    fn dense_configs_agree_with_eclat(db in small_db(), min_support in 1u64..5, max_len in prop::option::of(1usize..4)) {
        use fpm::dense::{self, Config};
        let payloads = classes_for(&db);
        let mut params = MiningParams::with_min_support_count(min_support);
        params.max_len = max_len;
        let mut expected = mine(Algorithm::Eclat, &db, &payloads, &params);
        sort_canonical(&mut expected);
        for config in [
            Config::default(),
            Config { sparse_cutoff: 0.0, diffset_ratio: 1.0 }, // all dense, no diffsets
            Config { sparse_cutoff: 2.0, diffset_ratio: 1.0 }, // all sparse, no diffsets
            Config { sparse_cutoff: 0.0, diffset_ratio: 0.0 }, // diffsets asap from bitsets
            Config { sparse_cutoff: 2.0, diffset_ratio: 0.0 }, // diffsets asap from tid-lists
            Config { sparse_cutoff: 0.5, diffset_ratio: 0.5 }, // boundary mid-lattice
        ] {
            let mut arena = fpm::ItemsetArena::new();
            dense::mine_into_with(config, &db, &payloads, &params, &mut arena);
            let mut got = arena.into_itemsets();
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &expected, "config {:?}", config);
        }
    }

    /// Dense under budgets and cancellation: a truncated run emits a
    /// subset of the full run with bit-exact supports and payloads, and a
    /// pre-fired token stops the run before any emission.
    #[test]
    fn dense_bounded_runs_emit_exact_subsets(db in small_db(), min_support in 1u64..4, cap in 1u64..8) {
        let payloads = classes_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        let mut full = mine(Algorithm::Dense, &db, &payloads, &params);
        sort_canonical(&mut full);

        let mut sink = fpm::VecSink::new();
        let budget = fpm::Budget::unlimited().with_max_itemsets(cap);
        let verdict = MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Dense)
            .budget(budget)
            .run_into(&mut sink);
        prop_assert!(sink.found.len() as u64 <= cap);
        if (full.len() as u64) > cap {
            prop_assert!(verdict.truncation_reason().is_some());
        }
        for fi in &sink.found {
            let reference = full.iter().find(|r| r.items == fi.items);
            prop_assert_eq!(Some(fi), reference, "emitted itemset must match the full run");
        }

        let token = fpm::CancelToken::new();
        token.cancel();
        let mut sink = fpm::VecSink::new();
        let verdict = MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Dense)
            .cancel(token)
            .run_into(&mut sink);
        if !full.is_empty() {
            prop_assert_eq!(verdict.truncation_reason(),
                Some(fpm::TruncationReason::Cancelled));
        }
        prop_assert!(sink.found.is_empty(), "pre-fired token must stop before emission");
    }

    #[test]
    fn payload_equals_scan_of_covering_transactions(db in small_db(), min_support in 1u64..4) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        let found: Vec<FrequentItemset<CountPayload>> =
            mine(Algorithm::Eclat, &db, &payloads, &params);
        for fi in &found {
            let mut expected = 0u64;
            let mut support = 0u64;
            #[allow(clippy::needless_range_loop)] // t indexes both db and payloads
            for t in 0..db.len() {
                if db.covers(t, &fi.items) {
                    expected += payloads[t].0;
                    support += 1;
                }
            }
            prop_assert_eq!(fi.payload.0, expected);
            prop_assert_eq!(fi.support, support);
        }
    }

    /// A cut recount holds no tallies and names its reason: a pre-fired
    /// cancel token stops the warm recount path before any tally, so no
    /// partially counted sums ever escape.
    #[test]
    fn a_cut_recount_holds_no_tallies_and_names_its_reason(db in small_db(), min_support in 1u64..4) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        let candidates = MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .run()
            .store
            .split_payloads()
            .0;
        let token = fpm::CancelToken::new();
        token.cancel();
        let tallies = MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .cancel(token)
            .recount(&candidates);
        if !db.is_empty() && !candidates.is_empty() {
            prop_assert!(tallies.supports.is_empty(), "a cut recount holds no supports");
            prop_assert!(tallies.payloads.is_empty(), "a cut recount holds no payloads");
            prop_assert_eq!(
                tallies.completeness.truncation_reason(),
                Some(fpm::TruncationReason::Cancelled)
            );
        }
    }

    /// Every counting kernel computes the exact population counts of the
    /// scalar reference on arbitrary ragged buffers — lengths straddling
    /// the 8-word block boundary exercise both the wide body and the
    /// scalar tail.
    #[test]
    fn kernels_count_like_scalar_on_ragged_buffers(
        a in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        use fpm::Kernel;
        let b: Vec<u64> = a.iter().map(|w| w.rotate_left(17) ^ 0xA5A5_5A5A_F00F_0FF0).collect();
        let want_count = Kernel::Scalar.count(&a);
        let want_and = Kernel::Scalar.and_count(&a, &b);
        for k in Kernel::ALL {
            prop_assert_eq!(k.count(&a), want_count, "{} count", k);
            prop_assert_eq!(k.and_count(&a, &b), want_and, "{} and_count", k);
        }
    }

    /// Dense, tid-list and diffset tallies over the range layout equal
    /// per-row scans: rows map to positions, and every representation the
    /// engines hold counts the rows a scan of the table counts. Each row
    /// is `(class, in a, in b)`; the tallied set is `a & b`.
    #[test]
    fn tallies_equal_per_row_scans_in_every_representation(
        rows in proptest::collection::vec((0usize..4, any::<bool>(), any::<bool>()), 1..200),
    ) {
        use fpm::bitset::Bitset;
        use fpm::{AlignedWords, ClassMasks, Kernel, Payload};
        let n = rows.len();
        let payloads: Vec<Classes> = rows.iter().map(|&(c, _, _)| Classes::of_class(c)).collect();
        let masks = ClassMasks::build(&payloads).expect("indicators are maskable");
        let (mut scan, mut support) = (Classes::zero(), 0u64);
        for (&(_, in_a, in_b), p) in rows.iter().zip(&payloads) {
            if in_a && in_b {
                scan.merge(p);
                support += 1;
            }
        }
        let (mut a, mut b, mut both) = (Bitset::zeros(n), Bitset::zeros(n), Bitset::zeros(n));
        let mut tid_list: Vec<u32> = Vec::new();
        for (pos, &row) in masks.rows().iter().enumerate() {
            let (_, in_a, in_b) = rows[row as usize];
            if in_a { a.set(pos); }
            if in_b { b.set(pos); }
            if in_a && in_b {
                both.set(pos);
                tid_list.push(pos as u32);
            }
        }
        for k in Kernel::ALL {
            let mut counts = vec![u64::MAX; 3]; // stale: must be overwritten
            prop_assert_eq!(masks.count_dense_with(k, &both, &mut counts), support, "{} support", k);
            prop_assert_eq!(masks.decode::<Classes>(&counts), scan, "{} dense vs scan", k);
        }
        let mut counts = vec![u64::MAX; 3];
        let mut out = AlignedWords::new();
        prop_assert_eq!(masks.and_count_into(&a, &b, &mut out, &mut counts), support);
        prop_assert_eq!(masks.decode::<Classes>(&counts), scan, "fused AND vs scan");
        prop_assert_eq!(&Bitset::from_words(out), &both, "fused AND words");
        let mut counts = vec![u64::MAX; 3];
        masks.count_sparse(&tid_list, &mut counts);
        prop_assert_eq!(masks.decode::<Classes>(&counts), scan, "tid-list vs scan");
        // Diffset: counts(universe) − counts(complement) = counts(tids).
        let universe: Vec<u32> = (0..n as u32).collect();
        let complement: Vec<u32> = universe.iter().copied().filter(|&p| !both.get(p as usize)).collect();
        let mut diff = vec![0u64; 3];
        masks.count_sparse(&universe, &mut diff);
        masks.subtract_sparse(&complement, &mut diff);
        prop_assert_eq!(masks.decode::<Classes>(&diff), scan, "diffset vs scan");
    }

    /// The split kernels, standalone and fused into an AND, compute the
    /// same popcount and prefixes under every kernel as a per-word
    /// reference, on ragged lengths, with cuts at every bit offset, two
    /// cuts in one word, an empty class, and all rows in one class.
    #[test]
    fn split_kernels_agree_on_ragged_lengths_at_any_cuts(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        raw in proptest::collection::vec(any::<u32>(), 3),
    ) {
        use fpm::Kernel;
        let b: Vec<u64> = a.iter().map(|w| w.rotate_left(17) ^ 0xA5A5_5A5A_F00F_0FF0).collect();
        let both: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let end = 64 * a.len() as u32;
        let mut random: Vec<u32> = raw.iter().map(|r| r % (end + 1)).collect();
        random.sort_unstable();
        let mut cut_sets: Vec<Vec<u32>> = vec![
            random,
            vec![0, 0, end],       // all rows in the last class
            vec![end, end, end],   // all rows in the first class
            vec![0, 0, 0],         // every row in no class
        ];
        if end >= 128 {
            for offset in 0..64 {
                cut_sets.push(vec![offset, 64 + offset, end - 63 + offset.min(62)]);
                cut_sets.push(vec![64 + offset / 2, 64 + offset, end]); // two cuts in one word
                cut_sets.push(vec![offset, offset, end]); // an empty class
            }
        }
        // The reference: whole words below the cut's word, plus that
        // word's low bits.
        let below = |words: &[u64], cut: u32| -> u64 {
            let (w, bit) = (cut as usize / 64, cut % 64);
            let whole: u64 = words[..w].iter().map(|x| x.count_ones() as u64).sum();
            whole + words.get(w).map_or(0, |x| (x & ((1u64 << bit) - 1)).count_ones() as u64)
        };
        let total: u64 = both.iter().map(|x| x.count_ones() as u64).sum();
        for cuts in &cut_sets {
            let want: Vec<u64> = cuts.iter().map(|&c| below(&both, c)).collect();
            for k in Kernel::ALL {
                let mut prefix = vec![u64::MAX; cuts.len()];
                prop_assert_eq!(k.split_count(&both, cuts, &mut prefix), total, "{} split {:?}", k, cuts);
                prop_assert_eq!(&prefix, &want, "{} split prefixes {:?}", k, cuts);
                let mut out = vec![u64::MAX; a.len()];
                let mut prefix = vec![u64::MAX; cuts.len()];
                prop_assert_eq!(k.and_split_into(&a, &b, &mut out, cuts, &mut prefix), total, "{} fused {:?}", k, cuts);
                prop_assert_eq!(&prefix, &want, "{} fused prefixes {:?}", k, cuts);
                prop_assert_eq!(&out, &both, "{} fused words", k);
            }
        }
    }

}

/// Regression: odd-length buffers whose trailing block carries stale
/// non-zero padding (left behind by a shrink) must tally exactly the
/// logical words — a kernel that strayed past `len` would count the
/// stale all-ones padding and fail, and one that read past the block
/// storage would trip the slice bounds checks of the safe paths.
#[test]
fn kernels_never_read_past_odd_lengths() {
    use fpm::bitset::Bitset;
    use fpm::{AlignedWords, Kernel};
    for n_words in [1usize, 3, 7, 9, 15, 17, 31, 33] {
        // Fill two whole blocks beyond the target length with ones, then
        // shrink: padding past `len` stays all-ones in storage.
        let mut a = AlignedWords::from_slice(&vec![u64::MAX; 48]);
        a.resize_for_overwrite(n_words);
        assert_eq!(a.as_slice().len(), n_words);
        let b = AlignedWords::from_slice(&vec![u64::MAX; n_words]);
        for k in Kernel::ALL {
            assert_eq!(
                k.count(a.as_slice()),
                64 * n_words as u64,
                "{k} count n={n_words}"
            );
            assert_eq!(
                k.and_count(a.as_slice(), b.as_slice()),
                64 * n_words as u64,
                "{k} and_count n={n_words}"
            );
        }
        // The same stale-padding storage behind a Bitset: popcounts stay
        // confined to the logical bit universe.
        let bits = Bitset::from_words(a);
        for k in Kernel::ALL {
            assert_eq!(
                k.count(bits.words()),
                64 * n_words as u64,
                "{k} bitset n={n_words}"
            );
        }
    }
}
