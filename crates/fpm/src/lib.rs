//! Frequent pattern mining (FPM) substrate for DivExplorer.
//!
//! This crate implements two classic frequent-itemset mining algorithms —
//! [FP-growth](fpgrowth) over an FP-tree and vertical [Eclat](eclat) over
//! tid-lists — plus the class-mask popcount engine [`dense`] (adaptive
//! bitset / tid-list / dEclat-diffset representation over cell-ordered
//! row positions, with payload counters computed as a tidset's popcount
//! split at the class boundaries), the multi-threaded
//! [`parallel`] engine, and a [naive reference miner](naive) used for
//! differential testing.
//!
//! The distinguishing feature, required by Algorithm 1 of the DivExplorer
//! paper (Pastor et al., SIGMOD 2021), is that every miner is generic over a
//! per-transaction [`Payload`] that is *fused* into support counting: when a
//! miner tallies the support of an itemset, it simultaneously merges the
//! payloads of the covering transactions. DivExplorer uses this to carry the
//! `(T, F, ⊥)` outcome-function counters through the mining pass, so the
//! divergence of every frequent itemset is known the moment mining ends,
//! without a second scan of the data.
//!
//! # The `MiningTask` entry point
//!
//! Every run is described by a [`MiningTask`] builder: database and
//! threshold, then any combination of backend, payloads, budget, cancel
//! token and worker threads, executed with
//! [`MiningTask::run`] (materializes an [`ItemsetArena`]) or
//! [`MiningTask::run_into`] (*streams* each frequent itemset into an
//! [`ItemsetSink`] as soon as its support is known — the itemset is
//! passed as a borrowed slice, so sinks that filter, count, or aggregate
//! never pay a per-itemset allocation). The historical free functions
//! (`mine`, `mine_arena`, `mine_into`, `mine_into_bounded`,
//! `mine_counts`) went through a deprecation cycle and have been
//! removed; the builder is the only entry point. For re-analysis of an
//! already mined lattice under a new payload vector, use
//! [`MiningTask::recount`] — an exact recount with no mining phase
//! ([`recount`]).
//!
//! Sinks compose. For example, a sink that keeps only itemsets whose
//! payload-derived statistic clears a threshold:
//!
//! ```
//! use fpm::{Algorithm, ItemsetSink, MiningTask, TransactionDb};
//! use fpm::sink::{FilterSink, VecSink};
//!
//! let db = TransactionDb::from_rows(3, &[
//!     vec![0, 1], vec![0, 1], vec![0, 2], vec![1, 2],
//! ]);
//! // Keep only itemsets covering at least 3 of the 4 transactions.
//! let mut sink = FilterSink::new(VecSink::new(), |_items: &[u32], support, _p: &()| {
//!     support >= 3
//! });
//! MiningTask::new(&db, 1)
//!     .algorithm(Algorithm::FpGrowth)
//!     .run_into(&mut sink);
//! let kept = sink.into_inner().found;
//! assert!(kept.iter().all(|fi| fi.support >= 3));
//! assert_eq!(kept.len(), 2); // {0} and {1}
//! ```
//!
//! # Example
//!
//! ```
//! use fpm::{Algorithm, MiningTask, TransactionDb};
//!
//! // Four transactions over items 0..4.
//! let db = TransactionDb::from_rows(5, &[
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 3],
//!     vec![1, 2, 4],
//! ]);
//! let found = MiningTask::new(&db, 2)
//!     .algorithm(Algorithm::FpGrowth)
//!     .run()
//!     .into_itemsets();
//! // {0}, {1}, {2}, {0,1}, {1,2} are frequent at minimum support 2.
//! assert_eq!(found.len(), 5);
//! ```

pub mod anchored;
pub mod arena;
pub mod bitset;
pub mod budget;
pub mod closed;
pub mod dense;
pub mod eclat;
pub mod fpgrowth;
pub mod fptree;
pub mod itemset;
pub mod kernels;
pub mod masks;
pub mod naive;
pub mod parallel;
pub mod payload;
pub mod recount;
pub mod rules;
pub mod sink;
pub mod task;
pub mod trace;
pub mod transaction;
pub mod vertical;

pub use arena::{ArenaEntry, ItemsetArena, Subset, SubsetEdge};
pub use budget::{Budget, BudgetSink, CancelToken, Completeness, TruncationReason};
pub use itemset::FrequentItemset;
pub use kernels::{AlignedWords, Kernel};
pub use masks::{ClassMasks, MaskSpec};
pub use payload::{CountPayload, Payload};
pub use recount::RecountTallies;
pub use sink::{CountingSink, FilterSink, ItemsetSink, TopKBySupportSink, VecSink};
pub use task::{MiningOutcome, MiningTask};
pub use trace::TracingSink;
pub use transaction::{ItemId, TransactionDb, TransactionDbBuilder};

use rustc_hash::FxHashMap;

/// Parameters controlling a mining run.
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// Minimum support expressed as an absolute transaction count.
    ///
    /// An itemset is frequent iff at least this many transactions contain it.
    /// A value of `0` is treated as `1` (an itemset with empty support is
    /// never reported).
    pub min_support_count: u64,
    /// Optional cap on itemset length. `None` mines itemsets of every length.
    pub max_len: Option<usize>,
}

impl MiningParams {
    /// Parameters with an absolute support-count threshold and no length cap.
    pub fn with_min_support_count(min_support_count: u64) -> Self {
        Self {
            min_support_count,
            max_len: None,
        }
    }

    /// Parameters with a relative support threshold `s` in `[0, 1]`, resolved
    /// against a database of `n_transactions` rows.
    ///
    /// DivExplorer's support threshold `s` is a fraction; the paper defines
    /// frequent itemsets as those with `sup(I) >= s`, i.e. support count
    /// `>= ceil(s * |D|)`.
    pub fn with_min_support_fraction(s: f64, n_transactions: usize) -> Self {
        let count = (s * n_transactions as f64).ceil() as u64;
        Self {
            min_support_count: count.max(1),
            max_len: None,
        }
    }

    /// Builder-style setter for the maximum itemset length.
    pub fn max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// The effective threshold: at least one transaction.
    pub(crate) fn threshold(&self) -> u64 {
        self.min_support_count.max(1)
    }
}

/// Selects which mining algorithm executes a run.
///
/// All algorithms produce the same set of frequent itemsets with the same
/// supports and payload sums (verified by differential property tests); they
/// differ only in performance characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pattern growth over an FP-tree (Han, Pei & Yin, SIGMOD 2000). This is
    /// the algorithm the paper couples with DivExplorer in all reported
    /// experiments.
    FpGrowth,
    /// Depth-first vertical mining over tid-lists (Zaki, 1997).
    Eclat,
    /// Class-mask popcount counting with adaptive tidsets (bitsets,
    /// sorted tid-lists, dEclat diffsets) over cell-ordered rows: payload
    /// counters are a tidset's popcount split at the class boundaries
    /// instead of per-tid merges. Payloads that don't lower (see
    /// [`masks`]) fall back to [`Algorithm::Eclat`] transparently.
    Dense,
    /// Exhaustive depth-first enumeration with per-candidate scans. Only
    /// suitable for small inputs; used as the differential-testing oracle.
    Naive,
}

impl Algorithm {
    /// Every production algorithm (excludes [`Algorithm::Naive`]).
    pub const ALL: [Algorithm; 3] = [Algorithm::FpGrowth, Algorithm::Eclat, Algorithm::Dense];

    /// The telemetry span name wrapping a [`mine_into`] run with this
    /// backend.
    pub fn span_name(&self) -> &'static str {
        match self {
            Algorithm::FpGrowth => "fpm.mine.fp-growth",
            Algorithm::Eclat => "fpm.mine.eclat",
            Algorithm::Dense => "fpm.mine.dense",
            Algorithm::Naive => "fpm.mine.naive",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::FpGrowth => "fp-growth",
            Algorithm::Eclat => "eclat",
            Algorithm::Dense => "dense",
            Algorithm::Naive => "naive",
        };
        f.write_str(name)
    }
}

/// Streams all frequent itemsets of `db` into `sink` with the chosen
/// backend — the internal, non-deprecated dispatcher behind
/// [`MiningTask`]'s sequential path.
///
/// # Panics
///
/// Panics if `payloads.len() != db.len()`.
pub(crate) fn dispatch_mine_into<P: Payload + Send + Sync, S: ItemsetSink<P>>(
    algorithm: Algorithm,
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    sink: &mut S,
) {
    assert_eq!(
        payloads.len(),
        db.len(),
        "payload slice length must match transaction count"
    );
    let _span = obs::span(algorithm.span_name());
    match algorithm {
        Algorithm::FpGrowth => fpgrowth::mine_into(db, payloads, params, sink),
        Algorithm::Eclat => eclat::mine_into(db, payloads, params, sink),
        Algorithm::Dense => dense::mine_into(db, payloads, params, sink),
        Algorithm::Naive => naive::mine_into(db, payloads, params, sink),
    }
}

/// Indexes a mining result by itemset for `O(1)` lookup.
///
/// Keys are the canonical (sorted) item slices of each frequent itemset.
pub fn index_by_itemset<P: Payload>(found: &[FrequentItemset<P>]) -> FxHashMap<&[ItemId], usize> {
    let mut map = FxHashMap::default();
    map.reserve(found.len());
    for (i, fi) in found.iter().enumerate() {
        map.insert(fi.items.as_slice(), i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_db() -> TransactionDb {
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
    fn all_algorithms_agree_on_toy_db() {
        let db = toy_db();
        let params = MiningParams::with_min_support_count(2);
        let mut reference = naive::mine(&db, &vec![(); db.len()], &params);
        reference.sort();
        for algo in Algorithm::ALL {
            let mut got = MiningTask::with_params(&db, params.clone())
                .algorithm(algo)
                .run()
                .into_itemsets();
            got.sort();
            assert_eq!(got, reference, "{algo} disagrees with naive oracle");
        }
    }

    #[test]
    fn min_support_fraction_resolves_to_ceil() {
        let p = MiningParams::with_min_support_fraction(0.1, 25);
        assert_eq!(p.min_support_count, 3);
        let p = MiningParams::with_min_support_fraction(0.5, 10);
        assert_eq!(p.min_support_count, 5);
        let p = MiningParams::with_min_support_fraction(0.0, 10);
        assert_eq!(p.min_support_count, 1);
    }

    #[test]
    fn max_len_caps_output() {
        let db = toy_db();
        let params = MiningParams::with_min_support_count(1).max_len(2);
        for algo in Algorithm::ALL {
            let found = MiningTask::with_params(&db, params.clone())
                .algorithm(algo)
                .run()
                .into_itemsets();
            assert!(found.iter().all(|fi| fi.items.len() <= 2), "{algo}");
            assert!(found.iter().any(|fi| fi.items.len() == 2), "{algo}");
        }
    }

    #[test]
    fn index_by_itemset_round_trips() {
        let db = toy_db();
        let found = MiningTask::new(&db, 2)
            .algorithm(Algorithm::FpGrowth)
            .run()
            .into_itemsets();
        let idx = index_by_itemset(&found);
        for (i, fi) in found.iter().enumerate() {
            assert_eq!(idx[fi.items.as_slice()], i);
        }
    }

    #[test]
    #[should_panic(expected = "payload slice length")]
    fn mismatched_payload_length_panics() {
        let db = toy_db();
        let _ = MiningTask::new(&db, 2)
            .payloads(&[(), ()])
            .algorithm(Algorithm::FpGrowth)
            .run();
    }
}
