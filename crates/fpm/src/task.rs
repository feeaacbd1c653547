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
//! Every axis of a run is a setter: the backend ([`MiningTask::algorithm`]),
//! fused payloads ([`MiningTask::payloads`]), resource bounds
//! ([`MiningTask::budget`], [`MiningTask::cancel`]) and parallelism
//! ([`MiningTask::threads`]). Terminal methods: [`MiningTask::run`]
//! materializes an [`ItemsetArena`] inside a [`MiningOutcome`];
//! [`MiningTask::run_into`] streams into any [`ItemsetSink`] and returns
//! the run's [`Completeness`]; [`MiningTask::recount`] tallies a stored
//! lattice with no mining phase.

use crate::arena::ItemsetArena;
use crate::budget::{Budget, BudgetSink, CancelToken, Completeness};
use crate::itemset::FrequentItemset;
use crate::parallel;
use crate::payload::Payload;
use crate::recount::{self, RecountTallies};
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
}

/// What [`MiningTask::run`] materializes.
#[derive(Debug, Clone)]
pub struct MiningOutcome<P> {
    /// Every emitted itemset, in the engine's output order.
    pub store: ItemsetArena<P>,
    /// Whether the run finished, or which limit cut it.
    pub completeness: Completeness,
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
    /// payloads, the [`Algorithm::Dense`] backend, no bounds and one
    /// thread.
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
        }
    }

    /// Selects the mining backend.
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

    /// Worker threads for mining: `n > 1` runs the [`crate::parallel`]
    /// engine, `1` the configured backend sequentially. The recount is
    /// sequential either way.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one thread");
        self.threads = n;
        self
    }

    /// Caps itemset length (forwarded to [`MiningParams::max_len`]).
    pub fn max_len(mut self, max_len: usize) -> Self {
        self.params.max_len = Some(max_len);
        self
    }

    /// Runs the task, materializing every emitted itemset into an arena.
    ///
    /// # Panics
    ///
    /// Panics if attached payloads don't have one entry per transaction.
    pub fn run(&self) -> MiningOutcome<P> {
        if self.threads > 1 {
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
            };
        }
        let mut store = ItemsetArena::new();
        let completeness = self.run_into(&mut store);
        MiningOutcome {
            store,
            completeness,
        }
    }

    /// Runs the task, streaming every emitted itemset into `sink`.
    ///
    /// Emission order is engine-specific (the parallel engine emits in
    /// canonical order); the *set* of emissions is engine-independent.
    /// The parallel engine does not consult
    /// [`ItemsetSink::wants_extensions`] — budgets are the supported way
    /// to bound it (see [`crate::parallel`]).
    ///
    /// # Panics
    ///
    /// Panics if attached payloads don't have one entry per transaction.
    pub fn run_into<S: ItemsetSink<P>>(&self, sink: &mut S) -> Completeness {
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
            return completeness;
        }

        if self.budget.is_unlimited() && self.cancel.is_none() {
            // Unbounded sequential fast path: no wrapper sink.
            crate::dispatch_mine_into(self.algorithm, self.db, payloads, &self.params, sink);
            return Completeness::Complete;
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
        bounded.verdict()
    }

    /// Recounts a previously mined candidate lattice against this task's
    /// database and payloads — no mining phase runs — and returns every
    /// candidate's exact support and payload, indexed by candidate id,
    /// with no threshold filter.
    ///
    /// This is the warm path behind on-disk artifacts: the lattice
    /// depends only on the dataset and the support threshold, so
    /// re-analysis under a new payload vector (a different classifier's
    /// labels) is exactly one fold over the resident rows, in place and
    /// sequential. The task's deadline and cancel token apply; the caller
    /// applies the threshold and the itemset cap where it emits. The
    /// candidates may be in any order: the fold reuses the prefixes that
    /// consecutive candidates share.
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
        recount::recount(
            self.db,
            payloads,
            candidates,
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
    fn threads_run_the_parallel_engine() {
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(t as u64)).collect();
        let mut reference =
            crate::eclat::mine(&db, &payloads, &MiningParams::with_min_support_count(1));
        sort_canonical(&mut reference);
        let threaded = MiningTask::new(&db, 1).payloads(&payloads).threads(4).run();
        assert!(threaded.completeness.is_complete());
        assert_eq!(threaded.into_itemsets(), reference);
    }

    #[test]
    fn run_into_streams_and_reports_truncation() {
        let db = db();
        let mut sink = VecSink::new();
        let completeness = MiningTask::new(&db, 1)
            .budget(Budget::unlimited().with_max_itemsets(3))
            .run_into(&mut sink);
        assert_eq!(
            completeness.truncation_reason(),
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
            .split_payloads()
            .0;
        let mut reference = crate::eclat::mine(&db, &new, &MiningParams::with_min_support_count(2));
        sort_canonical(&mut reference);
        let tallies = MiningTask::new(&db, 2).payloads(&new).recount(&candidates);
        assert!(tallies.completeness.is_complete());
        assert_eq!(tallies.rows, db.len() as u64);
        let mut got: Vec<_> = (0..candidates.len())
            .filter(|&id| tallies.supports[id] >= 2)
            .map(|id| {
                FrequentItemset::new(
                    candidates.items(id).to_vec(),
                    tallies.supports[id],
                    tallies.payloads[id],
                )
            })
            .collect();
        sort_canonical(&mut got);
        assert_eq!(got, reference);
    }

    #[test]
    #[should_panic(expected = "payload slice length")]
    fn mismatched_payload_length_panics() {
        let db = db();
        let payloads = [CountPayload(1), CountPayload(2)];
        let _ = MiningTask::new(&db, 2).payloads(&payloads).run();
    }
}
