//! The unified mining entry point.
//!
//! [`MiningTask`] is a builder collapsing the historical free-function
//! zoo (`mine`, `mine_arena`, `mine_into`, `mine_into_bounded`,
//! `mine_counts`) into one configurable run description:
//!
//! ```
//! use fpm::{Algorithm, MiningTask, TransactionDb};
//!
//! let db = TransactionDb::from_rows(5, &[
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 3],
//!     vec![1, 2, 4],
//! ]);
//! let outcome = MiningTask::new(&db, 2)
//!     .algorithm(Algorithm::FpGrowth)
//!     .run();
//! // {0}, {1}, {2}, {0,1}, {1,2} are frequent at minimum support 2.
//! assert_eq!(outcome.store.len(), 5);
//! assert!(outcome.completeness.is_complete());
//! ```
//!
//! Every axis of a run is a setter: the backend ([`MiningTask::algorithm`],
//! including [`Algorithm::Sharded`]), fused payloads
//! ([`MiningTask::payloads`]), resource bounds ([`MiningTask::budget`],
//! [`MiningTask::cancel`]), parallelism ([`MiningTask::threads`]),
//! sharding ([`MiningTask::shards`]) and IO overlap
//! ([`MiningTask::prefetch`]). Terminal methods:
//! [`MiningTask::run`] materializes an [`ItemsetArena`] inside a
//! [`MiningOutcome`]; [`MiningTask::run_into`] streams into any
//! [`ItemsetSink`] and returns the [`MiningVerdict`].

use crate::arena::ItemsetArena;
use crate::budget::{Budget, BudgetSink, CancelToken, Completeness};
use crate::itemset::FrequentItemset;
use crate::parallel;
use crate::payload::Payload;
use crate::sharded::{self, MemShardSource, RecountTallies, ShardStats};
use crate::sink::ItemsetSink;
use crate::transaction::TransactionDb;
use crate::{Algorithm, MiningParams};

/// A fully described mining run: database, threshold, backend, payloads,
/// bounds, and parallelism, executed by [`MiningTask::run`] or
/// [`MiningTask::run_into`].
///
/// See the [module docs](crate::task) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct MiningTask<'a, P = ()> {
    db: &'a TransactionDb,
    payloads: Option<&'a [P]>,
    params: MiningParams,
    algorithm: Algorithm,
    budget: Budget,
    cancel: Option<CancelToken>,
    threads: usize,
    shards: Option<usize>,
    prefetch: usize,
}

/// What [`MiningTask::run_into`] reports after streaming into a sink.
#[derive(Debug, Clone)]
pub struct MiningVerdict {
    /// Whether the run finished, or which limit cut it.
    pub completeness: Completeness,
    /// Telemetry of the sharded engine; `None` for unsharded runs.
    pub shards: Option<ShardStats>,
}

/// What [`MiningTask::run`] materializes.
#[derive(Debug, Clone)]
pub struct MiningOutcome<P> {
    /// Every emitted itemset, in the engine's output order.
    pub store: ItemsetArena<P>,
    /// Whether the run finished, or which limit cut it.
    pub completeness: Completeness,
    /// Telemetry of the sharded engine; `None` for unsharded runs.
    pub shards: Option<ShardStats>,
}

impl<P> MiningOutcome<P> {
    /// Materializes the store into the seed `Vec<FrequentItemset<P>>`
    /// representation, consuming the outcome.
    pub fn into_itemsets(self) -> Vec<FrequentItemset<P>> {
        self.store.into_itemsets()
    }
}

impl<'a> MiningTask<'a, ()> {
    /// A run over `db` with an absolute support-count threshold, unit
    /// payloads, the [`Algorithm::Dense`] backend, no bounds, one
    /// thread, and no sharding.
    pub fn new(db: &'a TransactionDb, min_support_count: u64) -> Self {
        Self::with_params(db, MiningParams::with_min_support_count(min_support_count))
    }

    /// A run over `db` with explicit [`MiningParams`].
    pub fn with_params(db: &'a TransactionDb, params: MiningParams) -> Self {
        MiningTask {
            db,
            payloads: None,
            params,
            algorithm: Algorithm::Dense,
            budget: Budget::unlimited(),
            cancel: None,
            threads: 1,
            shards: None,
            prefetch: 0,
        }
    }
}

impl<'a, P: Payload + Send + Sync> MiningTask<'a, P> {
    /// Attaches per-transaction payloads (one per row), re-typing the
    /// task. Settings configured so far carry over.
    ///
    /// The length is validated when the task runs, not here, so the
    /// builder chain stays infallible.
    pub fn payloads<Q: Payload + Send + Sync>(self, payloads: &'a [Q]) -> MiningTask<'a, Q> {
        MiningTask {
            db: self.db,
            payloads: Some(payloads),
            params: self.params,
            algorithm: self.algorithm,
            budget: self.budget,
            cancel: self.cancel,
            threads: self.threads,
            shards: self.shards,
            prefetch: self.prefetch,
        }
    }

    /// Selects the mining backend. [`Algorithm::Sharded`] routes through
    /// the two-pass engine with [`sharded::DEFAULT_SHARDS`] shards unless
    /// [`MiningTask::shards`] picked a count.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Bounds the run; exhausting any axis truncates instead of panicking.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Worker threads for the parallel and sharded engines (`1` =
    /// sequential).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one thread");
        self.threads = n;
        self
    }

    /// Splits the table into `k` horizontal row shards and runs the
    /// two-pass [`crate::sharded`] engine, regardless of the configured
    /// algorithm (each shard is mined with the dense engine).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k > 0, "need at least one shard");
        self.shards = Some(k);
        self
    }

    /// Shards loaded ahead of the recount under the sharded engine:
    /// `d > 0` dedicates a loader thread that keeps up to `d` shards
    /// materialized ahead of consumption, overlapping IO with counting.
    /// `0` (the default) loads inline on the counting threads. Tallies
    /// are bit-identical either way.
    pub fn prefetch(mut self, d: usize) -> Self {
        self.prefetch = d;
        self
    }

    /// Caps itemset length (forwarded to [`MiningParams::max_len`]).
    pub fn max_len(mut self, max_len: usize) -> Self {
        self.params.max_len = Some(max_len);
        self
    }

    /// The shard count this task will run with, if the sharded engine is
    /// engaged (explicit [`MiningTask::shards`], or the default for
    /// [`Algorithm::Sharded`]).
    fn effective_shards(&self) -> Option<usize> {
        self.shards
            .or((self.algorithm == Algorithm::Sharded).then_some(sharded::DEFAULT_SHARDS))
    }

    /// Runs the task, materializing every emitted itemset into an arena.
    ///
    /// # Panics
    ///
    /// Panics if attached payloads don't have one entry per transaction.
    pub fn run(&self) -> MiningOutcome<P> {
        if self.effective_shards().is_none() && self.threads > 1 {
            // The parallel engine's native form is an arena: take it
            // directly instead of replaying through a collecting sink.
            let owned;
            let payloads = match self.payloads {
                Some(p) => p,
                None => {
                    owned = vec![P::zero(); self.db.len()];
                    &owned
                }
            };
            let (store, completeness) = parallel::mine_arena_bounded(
                self.db,
                payloads,
                &self.params,
                self.threads,
                &self.budget,
                self.cancel.as_ref(),
            );
            return MiningOutcome {
                store,
                completeness,
                shards: None,
            };
        }
        let mut store = ItemsetArena::new();
        let verdict = self.run_into(&mut store);
        MiningOutcome {
            store,
            completeness: verdict.completeness,
            shards: verdict.shards,
        }
    }

    /// Runs the task, streaming every emitted itemset into `sink`.
    ///
    /// Emission order is engine-specific (the parallel and sharded
    /// engines emit in canonical order); the *set* of emissions is
    /// engine-independent. The parallel and sharded engines do not
    /// consult [`ItemsetSink::wants_extensions`] — budgets are the
    /// supported way to bound them (see [`crate::parallel`]).
    ///
    /// # Panics
    ///
    /// Panics if attached payloads don't have one entry per transaction.
    pub fn run_into<S: ItemsetSink<P>>(&self, sink: &mut S) -> MiningVerdict {
        let owned;
        let payloads = match self.payloads {
            Some(p) => p,
            None => {
                owned = vec![P::zero(); self.db.len()];
                &owned
            }
        };
        assert_eq!(
            payloads.len(),
            self.db.len(),
            "payload slice length must match transaction count"
        );

        if let Some(k) = self.effective_shards() {
            let _span = obs::span(Algorithm::Sharded.span_name());
            let source = MemShardSource::new(self.db, payloads, k);
            let (completeness, stats) = sharded::mine_into_bounded(
                &source,
                &self.params,
                self.threads,
                self.prefetch,
                &self.budget,
                self.cancel.as_ref(),
                sink,
            );
            return MiningVerdict {
                completeness,
                shards: Some(stats),
            };
        }

        if self.threads > 1 {
            let (arena, completeness) = parallel::mine_arena_bounded(
                self.db,
                payloads,
                &self.params,
                self.threads,
                &self.budget,
                self.cancel.as_ref(),
            );
            for entry in arena.iter() {
                sink.emit(entry.items, entry.support, entry.payload);
            }
            return MiningVerdict {
                completeness,
                shards: None,
            };
        }

        if self.budget.is_unlimited() && self.cancel.is_none() {
            // Unbounded sequential fast path: no wrapper sink.
            crate::dispatch_mine_into(self.algorithm, self.db, payloads, &self.params, sink);
            return MiningVerdict {
                completeness: Completeness::Complete,
                shards: None,
            };
        }
        let mut bounded = BudgetSink::new(&mut *sink, self.budget);
        if let Some(token) = &self.cancel {
            bounded = bounded.with_cancel(token.clone());
        }
        crate::dispatch_mine_into(
            self.algorithm,
            self.db,
            payloads,
            &self.params,
            &mut bounded,
        );
        MiningVerdict {
            completeness: bounded.verdict(),
            shards: None,
        }
    }

    /// Recounts a previously mined candidate lattice against this task's
    /// database and payloads — no mining phase runs — and returns every
    /// candidate's exact support and payload, indexed by candidate id,
    /// with no threshold filter ([`sharded::recount`]).
    ///
    /// This is the warm path behind on-disk artifacts: the lattice
    /// depends only on the dataset and the support threshold, so
    /// re-analysis under a new payload vector (a different classifier's
    /// labels) is exactly one streaming recount pass. The task's
    /// deadline, cancel token, threads, shard count and prefetch depth
    /// all apply; [`RecountTallies::emit_frequent`] applies the
    /// threshold and the itemset cap.
    ///
    /// # Panics
    ///
    /// Panics if attached payloads don't have one entry per transaction.
    pub fn recount(&self, candidates: &ItemsetArena<()>) -> RecountTallies<P> {
        let owned;
        let payloads = match self.payloads {
            Some(p) => p,
            None => {
                owned = vec![P::zero(); self.db.len()];
                &owned
            }
        };
        assert_eq!(
            payloads.len(),
            self.db.len(),
            "payload slice length must match transaction count"
        );
        let k = self.effective_shards().unwrap_or(1);
        let source = MemShardSource::new(self.db, payloads, k);
        sharded::recount(
            &source,
            candidates,
            self.threads,
            self.prefetch,
            &self.budget,
            self.cancel.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::TruncationReason;
    use crate::itemset::sort_canonical;
    use crate::payload::CountPayload;
    use crate::sink::VecSink;

    fn db() -> TransactionDb {
        TransactionDb::from_rows(
            6,
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 3],
                vec![1, 2, 4],
                vec![0, 1, 2, 5],
            ],
        )
    }

    #[test]
    fn default_task_matches_the_naive_oracle() {
        let db = db();
        let params = MiningParams::with_min_support_count(2);
        let mut reference = crate::naive::mine(&db, &vec![(); db.len()], &params);
        reference.sort();
        let mut got = MiningTask::new(&db, 2).run().into_itemsets();
        got.sort();
        assert_eq!(got, reference);
    }

    #[test]
    fn every_backend_agrees_through_the_builder() {
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(t as u64)).collect();
        let mut reference =
            crate::eclat::mine(&db, &payloads, &MiningParams::with_min_support_count(2));
        sort_canonical(&mut reference);
        for algorithm in Algorithm::ALL {
            let mut got = MiningTask::new(&db, 2)
                .payloads(&payloads)
                .algorithm(algorithm)
                .run()
                .into_itemsets();
            sort_canonical(&mut got);
            assert_eq!(got, reference, "{algorithm}");
        }
    }

    #[test]
    fn threads_and_shards_compose_with_budgets() {
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(t as u64)).collect();
        let mut reference =
            crate::eclat::mine(&db, &payloads, &MiningParams::with_min_support_count(1));
        sort_canonical(&mut reference);
        let threaded = MiningTask::new(&db, 1).payloads(&payloads).threads(4).run();
        assert!(threaded.completeness.is_complete());
        assert!(threaded.shards.is_none());
        assert_eq!(threaded.into_itemsets(), reference);
        let sharded = MiningTask::new(&db, 1)
            .payloads(&payloads)
            .threads(2)
            .shards(3)
            .run();
        assert!(sharded.completeness.is_complete());
        assert_eq!(sharded.shards.expect("sharded run").n_shards, 3);
        assert_eq!(sharded.into_itemsets(), reference);
    }

    #[test]
    fn sharded_algorithm_defaults_the_shard_count() {
        let db = db();
        let outcome = MiningTask::new(&db, 2).algorithm(Algorithm::Sharded).run();
        assert_eq!(
            outcome.shards.expect("sharded run").n_shards,
            sharded::DEFAULT_SHARDS
        );
        let mut got = outcome.into_itemsets();
        got.sort();
        let mut reference = crate::naive::mine(
            &db,
            &vec![(); db.len()],
            &MiningParams::with_min_support_count(2),
        );
        reference.sort();
        assert_eq!(got, reference);
    }

    #[test]
    fn run_into_streams_and_reports_truncation() {
        let db = db();
        let mut sink = VecSink::new();
        let verdict = MiningTask::new(&db, 1)
            .budget(Budget::unlimited().with_max_itemsets(3))
            .run_into(&mut sink);
        assert_eq!(
            verdict.completeness.truncation_reason(),
            Some(TruncationReason::ItemsetLimit)
        );
        assert_eq!(sink.found.len(), 3);
    }

    #[test]
    fn pre_fired_token_cancels_the_sequential_path() {
        let db = db();
        let token = CancelToken::new();
        token.cancel();
        let outcome = MiningTask::new(&db, 1).cancel(token).run();
        assert_eq!(
            outcome.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn recount_reproduces_a_mined_run_under_new_payloads() {
        let db = db();
        let old: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(t as u64)).collect();
        let new: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        let candidates = MiningTask::new(&db, 2)
            .payloads(&old)
            .algorithm(Algorithm::Eclat)
            .run()
            .store
            .to_candidates();
        let mut reference = crate::eclat::mine(&db, &new, &MiningParams::with_min_support_count(2));
        sort_canonical(&mut reference);
        for shards in [None, Some(1), Some(3)] {
            let mut task = MiningTask::new(&db, 2).payloads(&new);
            if let Some(k) = shards {
                task = task.shards(k);
            }
            let tallies = task.recount(&candidates);
            let mut sink = VecSink::new();
            let completeness = tallies.emit_frequent(&candidates, 2, None, &mut sink);
            assert!(completeness.is_complete(), "shards={shards:?}");
            let stats = tallies
                .verdict
                .shards
                .as_ref()
                .expect("recount reports stats");
            assert_eq!(stats.shards_mined, 0, "no mining phase ran");
            let mut got = sink.found;
            sort_canonical(&mut got);
            assert_eq!(got, reference, "shards={shards:?}");
        }
    }

    #[test]
    #[should_panic(expected = "payload slice length")]
    fn mismatched_payload_length_panics() {
        let db = db();
        let payloads = [CountPayload(1), CountPayload(2)];
        let _ = MiningTask::new(&db, 2).payloads(&payloads).run();
    }
}
