//! Streaming result handling: the [`ItemsetSink`] trait.
//!
//! The seed implementation of every miner materialized its result as
//! `Vec<FrequentItemset<P>>` — one heap-allocated `Vec<ItemId>` per
//! frequent itemset. At low support thresholds the result set dominates
//! both memory and allocation time. Sinks invert the control flow: a
//! miner *emits* each frequent itemset as a borrowed slice the moment
//! its support is known, and the caller decides what to keep.
//!
//! The default collecting sink is [`crate::arena::ItemsetArena`], which
//! stores all itemsets in one flat buffer; filtering, counting, or
//! top-k sinks can drop itemsets without ever allocating for them.
//!
//! # Contract
//!
//! - `emit` receives the itemset in canonical (sorted ascending,
//!   deduplicated) item order. The slice is only valid for the duration
//!   of the call — sinks that retain itemsets must copy it.
//! - Each frequent itemset is emitted exactly once per mining run.
//! - After emitting an itemset `I`, a depth-first miner consults
//!   [`ItemsetSink::wants_extensions`]`(I)`; returning `false` prunes
//!   the entire subtree of proper supersets of `I` grown from `I`.
//!   Because support is anti-monotone, this is the hook for top-k
//!   cutoffs ("no extension can beat the current k-th support") and
//!   depth limits beyond [`crate::MiningParams::max_len`]. The hook is
//!   advisory: merged-parallel ([`crate::parallel`]) execution applies
//!   it where its traversal order allows (see the module docs), and a
//!   sink must therefore filter in `emit` if it *requires* suppression
//!   rather than pruning.

use crate::itemset::FrequentItemset;
use crate::payload::Payload;
use crate::transaction::ItemId;

/// Receives frequent itemsets as they are discovered.
pub trait ItemsetSink<P: Payload> {
    /// Called once per frequent itemset, with `items` in canonical
    /// order. `items` is a borrowed scratch buffer — copy it to keep it.
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P);

    /// Pruning hook: `false` tells a depth-first miner not to grow
    /// proper supersets from the just-emitted itemset. Defaults to
    /// `true` (mine everything).
    fn wants_extensions(&mut self, _items: &[ItemId], _support: u64) -> bool {
        true
    }

    /// Cooperative-cancellation checkpoint: `true` tells the miner to
    /// abandon the run as soon as its traversal allows, keeping whatever
    /// has already been emitted. Miners poll this at periodic
    /// checkpoints (per subtree, every N transactions of a
    /// counting pass) — the hook that makes wall-clock budgets and
    /// [`crate::budget::CancelToken`] effective even where
    /// `wants_extensions` is only advisory. Defaults to `false` (never
    /// stop); implementations must be cheap, as hot loops call this.
    fn should_stop(&mut self) -> bool {
        false
    }
}

/// Sinks compose by mutable reference.
impl<P: Payload, S: ItemsetSink<P> + ?Sized> ItemsetSink<P> for &mut S {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        (**self).emit(items, support, payload)
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        (**self).wants_extensions(items, support)
    }

    fn should_stop(&mut self) -> bool {
        (**self).should_stop()
    }
}

/// Collects emissions into `FrequentItemset` values (the seed
/// representation). Mostly useful in tests and benchmarks comparing the
/// materialized path against streaming sinks.
#[derive(Debug, Default)]
pub struct VecSink<P> {
    /// Everything emitted so far, in emission order.
    pub found: Vec<FrequentItemset<P>>,
}

impl<P> VecSink<P> {
    pub fn new() -> Self {
        VecSink { found: Vec::new() }
    }
}

impl<P: Payload> ItemsetSink<P> for VecSink<P> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        self.found.push(FrequentItemset {
            items: items.to_vec(),
            support,
            payload: payload.clone(),
        });
    }
}

/// Counts emissions without retaining anything: the zero-allocation
/// baseline for benchmarks and cardinality estimates.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    pub emitted: u64,
    /// Sum of emitted itemset lengths (items that a materializing
    /// consumer would have had to store).
    pub total_items: u64,
}

impl CountingSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Payload> ItemsetSink<P> for CountingSink {
    fn emit(&mut self, items: &[ItemId], _support: u64, _payload: &P) {
        self.emitted += 1;
        self.total_items += items.len() as u64;
    }
}

/// Forwards only itemsets matching a predicate; the search space is not
/// pruned (extensions of a rejected itemset are still mined, since a
/// predicate is in general not anti-monotone).
pub struct FilterSink<S, F> {
    pub inner: S,
    predicate: F,
}

impl<S, F> FilterSink<S, F> {
    pub fn new(inner: S, predicate: F) -> Self {
        FilterSink { inner, predicate }
    }

    /// Recovers the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<P, S, F> ItemsetSink<P> for FilterSink<S, F>
where
    P: Payload,
    S: ItemsetSink<P>,
    F: FnMut(&[ItemId], u64, &P) -> bool,
{
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        if (self.predicate)(items, support, payload) {
            self.inner.emit(items, support, payload);
        }
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        self.inner.wants_extensions(items, support)
    }

    fn should_stop(&mut self) -> bool {
        self.inner.should_stop()
    }
}

/// Keeps only the `k` highest-support itemsets seen so far and — because
/// support is anti-monotone — prunes any subtree whose root already
/// falls below the current k-th support.
pub struct TopKBySupportSink<P> {
    k: usize,
    /// `(support, items, payload)` min-heap by support (via sorted Vec;
    /// k is small in practice).
    entries: Vec<FrequentItemset<P>>,
}

impl<P: Payload> TopKBySupportSink<P> {
    pub fn new(k: usize) -> Self {
        TopKBySupportSink {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// Current support floor: extensions at or below this cannot enter.
    fn floor(&self) -> Option<u64> {
        if self.entries.len() < self.k {
            None
        } else {
            self.entries.last().map(|fi| fi.support)
        }
    }

    /// The retained itemsets, highest support first.
    pub fn into_top(self) -> Vec<FrequentItemset<P>> {
        self.entries
    }
}

impl<P: Payload> ItemsetSink<P> for TopKBySupportSink<P> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        if self.k == 0 {
            return;
        }
        if let Some(floor) = self.floor() {
            if support <= floor {
                return;
            }
        }
        let at = self.entries.partition_point(|fi| fi.support >= support);
        self.entries.insert(
            at,
            FrequentItemset {
                items: items.to_vec(),
                support,
                payload: payload.clone(),
            },
        );
        self.entries.truncate(self.k);
    }

    fn wants_extensions(&mut self, _items: &[ItemId], support: u64) -> bool {
        // A proper superset has support <= this support; once the heap
        // is full and this subtree's root cannot beat the floor, no
        // descendant can either.
        match self.floor() {
            Some(floor) => support > floor,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams};

    fn db() -> TransactionDb {
        TransactionDb::from_rows(
            4,
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 3],
                vec![1, 2],
                vec![0, 1, 2],
            ],
        )
    }

    #[test]
    fn vec_sink_matches_materialized_mine() {
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        let params = MiningParams::with_min_support_count(2);
        let task = crate::MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::FpGrowth);
        let expected = task.run().into_itemsets();
        let mut sink = VecSink::new();
        task.run_into(&mut sink);
        assert_eq!(sink.found, expected);
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let task = crate::MiningTask::with_params(&db, params.clone()).algorithm(Algorithm::Eclat);
        let expected = task.run().into_itemsets();
        let mut sink = CountingSink::new();
        task.run_into(&mut sink);
        assert_eq!(sink.emitted as usize, expected.len());
        let total: u64 = expected.iter().map(|fi| fi.items.len() as u64).sum();
        assert_eq!(sink.total_items, total);
    }

    #[test]
    fn filter_sink_forwards_matching_only() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let mut sink = FilterSink::new(VecSink::new(), |items: &[u32], _, _: &()| items.len() == 2);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Dense)
            .run_into(&mut sink);
        assert!(!sink.inner.found.is_empty());
        assert!(sink.inner.found.iter().all(|fi| fi.items.len() == 2));
    }

    #[test]
    fn top_k_by_support_keeps_the_k_best() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let task = crate::MiningTask::with_params(&db, params.clone()).algorithm(Algorithm::Eclat);
        let mut all = task.run().into_itemsets();
        all.sort_by_key(|fi| std::cmp::Reverse(fi.support));
        for k in [1usize, 3, 5] {
            let mut sink = TopKBySupportSink::new(k);
            task.run_into(&mut sink);
            let top = sink.into_top();
            assert_eq!(top.len(), k.min(all.len()), "k={k}");
            // Supports must match the k highest overall (itemset choice
            // may differ on ties; support multiset may not).
            for (got, want) in top.iter().zip(&all) {
                assert_eq!(got.support, want.support, "k={k}");
            }
        }
    }
}
