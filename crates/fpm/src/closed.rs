//! Closed and maximal frequent itemsets — condensed representations of a
//! mining result.
//!
//! An itemset is **closed** if no proper superset has the same support, and
//! **maximal** if no proper superset is frequent at all. Closed itemsets
//! preserve every support value losslessly; maximal itemsets preserve only
//! the frequent/infrequent boundary. Both are standard condensations of the
//! (often huge) frequent-itemset collection and pair naturally with
//! DivExplorer's redundancy pruning: an itemset that is not closed has a
//! superset over the *same* support set and hence the same divergence.
//!
//! Subset lookups go through [`ItemsetArena::subsets`], the arena's
//! immediate-subset index, built once per arena and shared with every
//! other lattice analysis over it.

use crate::arena::{ItemsetArena, Subset};
use crate::itemset::FrequentItemset;

/// Flags per input itemset: whether it is closed / maximal within the given
/// (complete) mining result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondensationFlags {
    /// `closed[i]` iff itemset `i` is a closed frequent itemset.
    pub closed: Vec<bool>,
    /// `maximal[i]` iff itemset `i` is a maximal frequent itemset.
    pub maximal: Vec<bool>,
}

/// Computes closed/maximal flags in one pass over an arena-stored result,
/// walking the arena's immediate-subset index ([`ItemsetArena::subsets`]).
///
/// Requires the arena to hold the *complete* set of frequent itemsets (as
/// produced by any miner in this crate without a `max_len` cap): the
/// algorithm walks each itemset's immediate subsets, so a frequent itemset
/// marks its sub-itemsets as non-maximal (and non-closed on support ties).
pub fn condensation_flags_arena<P>(arena: &ItemsetArena<P>) -> CondensationFlags {
    let n = arena.len();
    let mut closed = vec![true; n];
    let mut maximal = vec![true; n];
    for id in 0..n {
        // Every immediate subset of a frequent itemset has a frequent
        // proper superset (this one); ∅ is never flagged.
        for edge in arena.subsets(id) {
            if let Subset::Stored(sub) = edge.get() {
                maximal[sub] = false;
                if arena.support(sub) == arena.support(id) {
                    closed[sub] = false;
                }
            }
        }
    }
    CondensationFlags { closed, maximal }
}

/// Computes closed/maximal flags for a `Vec`-form mining result.
///
/// Adapter over [`condensation_flags_arena`]; callers holding several
/// queries against the same result should build the arena themselves
/// (via [`ItemsetArena::from_itemsets`]) to share its index.
pub fn condensation_flags<P: Clone>(found: &[FrequentItemset<P>]) -> CondensationFlags {
    condensation_flags_arena(&ItemsetArena::from_itemsets(found))
}

/// Filters a mining result down to its closed itemsets.
pub fn closed_itemsets<P: Clone>(found: &[FrequentItemset<P>]) -> Vec<FrequentItemset<P>> {
    let flags = condensation_flags(found);
    found
        .iter()
        .zip(flags.closed)
        .filter(|(_, keep)| *keep)
        .map(|(fi, _)| fi.clone())
        .collect()
}

/// Filters a mining result down to its maximal itemsets.
pub fn maximal_itemsets<P: Clone>(found: &[FrequentItemset<P>]) -> Vec<FrequentItemset<P>> {
    let flags = condensation_flags(found);
    found
        .iter()
        .zip(flags.maximal)
        .filter(|(_, keep)| *keep)
        .map(|(fi, _)| fi.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams, MiningTask};

    /// Textbook instance: items 0 and 1 always co-occur, so {0} and {1} are
    /// not closed (their closure is {0,1}).
    fn db() -> TransactionDb {
        TransactionDb::from_rows(3, &[vec![0, 1], vec![0, 1], vec![0, 1, 2], vec![2]])
    }

    fn found() -> Vec<FrequentItemset<()>> {
        MiningTask::new(&db(), 1)
            .algorithm(Algorithm::FpGrowth)
            .run()
            .into_itemsets()
    }

    fn items_of(set: &[FrequentItemset<()>]) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = set.iter().map(|fi| fi.items.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn closed_itemsets_match_definition() {
        let all = found();
        let closed = closed_itemsets(&all);
        // {0}, {1} absorbed by {0,1}; {0,2}, {1,2} absorbed by {0,1,2}.
        assert_eq!(items_of(&closed), vec![vec![0, 1], vec![0, 1, 2], vec![2]]);
    }

    #[test]
    fn maximal_itemsets_match_definition() {
        let all = found();
        let maximal = maximal_itemsets(&all);
        assert_eq!(items_of(&maximal), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn maximal_implies_closed() {
        let all = found();
        let flags = condensation_flags(&all);
        for (i, fi) in all.iter().enumerate() {
            if flags.maximal[i] {
                assert!(flags.closed[i], "{:?} maximal but not closed", fi.items);
            }
        }
    }

    #[test]
    fn every_itemset_has_a_closed_superset_with_equal_support() {
        let all = found();
        let closed = closed_itemsets(&all);
        for fi in &all {
            let superset = closed
                .iter()
                .find(|c| fi.is_subset_of(c) && c.support == fi.support);
            assert!(superset.is_some(), "no closure for {:?}", fi.items);
        }
    }

    #[test]
    fn singleton_result_is_closed_and_maximal() {
        let db = TransactionDb::from_rows(1, &[vec![0]]);
        let all = MiningTask::new(&db, 1)
            .algorithm(Algorithm::FpGrowth)
            .run()
            .into_itemsets();
        let flags = condensation_flags(&all);
        assert_eq!(flags.closed, vec![true]);
        assert_eq!(flags.maximal, vec![true]);
    }

    #[test]
    fn arena_flags_agree_with_vec_flags_on_payload_results() {
        // Regression: condensation over payload-carrying results must not
        // disturb payloads, and the arena-index path must agree with the
        // slice adapter for every algorithm.
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        let params = MiningParams::with_min_support_count(1);
        for algo in Algorithm::ALL {
            let task = MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo);
            let found = task.run().into_itemsets();
            let via_slices = condensation_flags(&found);
            let arena = task.run().store;
            let via_arena = condensation_flags_arena(&arena);
            assert_eq!(via_arena, via_slices, "{algo}");
            // Closed filtering keeps payloads intact.
            let closed = closed_itemsets(&found);
            for fi in &closed {
                let original = found.iter().find(|f| f.items == fi.items).unwrap();
                assert_eq!(fi.payload, original.payload, "{algo}");
            }
        }
    }
}
