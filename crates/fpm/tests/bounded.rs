//! Differential property tests for bounded execution: truncating a run
//! with a budget must yield a prefix (sequential miners) or subset
//! (parallel merge) of the unbudgeted run — never different itemsets,
//! supports, or payloads — with the verdict reported correctly.

use proptest::prelude::*;

use fpm::{
    Algorithm, Budget, CancelToken, Completeness, CountPayload, MiningParams, MiningTask,
    TransactionDb, TruncationReason, VecSink,
};

fn small_db() -> impl Strategy<Value = TransactionDb> {
    let row = proptest::collection::vec(0u32..8, 0..6);
    proptest::collection::vec(row, 0..14).prop_map(|rows| TransactionDb::from_rows(8, &rows))
}

fn payloads_for(db: &TransactionDb) -> Vec<CountPayload> {
    (0..db.len()).map(|t| CountPayload(t as u64 + 1)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The emission-order prefix property: each sequential miner is
    /// deterministic, so capping `max_itemsets` at `k` must reproduce
    /// exactly the first `k` emissions of the unbudgeted run.
    #[test]
    fn budgeted_sequential_run_is_a_prefix_of_the_full_run(
        db in small_db(),
        min_support in 1u64..4,
        cap in 0u64..12,
    ) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        for algo in Algorithm::ALL {
            let task = MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo);
            let mut full = VecSink::new();
            task.run_into(&mut full);

            let mut capped = VecSink::new();
            let budget = Budget::unlimited().with_max_itemsets(cap);
            let verdict = task
                .clone()
                .budget(budget)
                .run_into(&mut capped);

            let expected_len = full.found.len().min(cap as usize);
            prop_assert_eq!(capped.found.len(), expected_len, "{}: emission count", algo);
            prop_assert_eq!(
                &capped.found[..],
                &full.found[..expected_len],
                "{}: not an emission-order prefix", algo
            );
            if (full.found.len() as u64) > cap {
                prop_assert_eq!(
                    verdict.truncation_reason(),
                    Some(TruncationReason::ItemsetLimit),
                    "{}: verdict", algo
                );
            } else {
                prop_assert_eq!(verdict, Completeness::Complete, "{}: verdict", algo);
            }
        }
    }

    /// The parallel engine merges shard results in nondeterministic order,
    /// so the guarantee weakens to: a subset of the full run with exact
    /// supports and payloads, of exactly the admitted size.
    #[test]
    fn budgeted_parallel_run_is_a_subset_of_the_full_run(
        db in small_db(),
        min_support in 1u64..4,
        cap in 0u64..12,
    ) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        let full = fpm::parallel::mine_arena(&db, &payloads, &params, 3);

        let budget = Budget::unlimited().with_max_itemsets(cap);
        let (capped, verdict) =
            fpm::parallel::mine_arena_bounded(&db, &payloads, &params, 3, &budget, None);

        let expected_len = full.len().min(cap as usize);
        prop_assert_eq!(capped.len(), expected_len);
        for entry in capped.iter() {
            let reference = full.find(entry.items);
            prop_assert!(reference.is_some(), "itemset {:?} not in full run", entry.items);
            let reference = reference.unwrap();
            prop_assert_eq!(entry.support, full.support(reference));
            prop_assert_eq!(entry.payload, full.payload(reference));
        }
        if (full.len() as u64) > cap {
            prop_assert_eq!(
                verdict.truncation_reason(),
                Some(TruncationReason::ItemsetLimit)
            );
        } else {
            prop_assert_eq!(verdict, Completeness::Complete);
        }
    }

    /// A pre-fired cancel token stops every miner before any emission.
    /// On a database with no frequent itemsets the miners may finish
    /// before reaching a checkpoint — that run is vacuously complete.
    #[test]
    fn cancelled_runs_emit_nothing_and_report_cancelled(
        db in small_db(),
        min_support in 1u64..4,
    ) {
        let payloads = payloads_for(&db);
        let params = MiningParams::with_min_support_count(min_support);
        let mut full = VecSink::new();
        MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Eclat)
            .run_into(&mut full);

        let token = CancelToken::new();
        token.cancel();
        for algo in Algorithm::ALL {
            let mut sink = VecSink::new();
            let verdict = MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo)
                .cancel(token.clone())
                .run_into(&mut sink);
            prop_assert_eq!(sink.found.len(), 0, "{}", algo);
            if !full.found.is_empty() {
                prop_assert_eq!(
                    verdict.truncation_reason(),
                    Some(TruncationReason::Cancelled),
                    "{}", algo
                );
            }
        }
    }
}
