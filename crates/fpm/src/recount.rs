//! The recount: exact tallies of a stored candidate lattice, with no
//! mining phase.
//!
//! The frequent-itemset lattice depends only on the table and the support
//! threshold. A new payload vector (e.g. another classifier's labels)
//! changes only the tallies, so re-analysis folds the caller's rows once
//! over the stored candidates. [`crate::MiningTask::recount`] is the one
//! entry point; it runs sequentially on the resident table, in place.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::arena::ItemsetArena;
use crate::bitset::Bitset;
use crate::budget::{Budget, CancelToken, Completeness, TruncationReason};
use crate::kernels::{self, AlignedWords};
use crate::masks::ClassMasks;
use crate::parallel::SharedLimits;
use crate::payload::Payload;
use crate::transaction::{ItemId, TransactionDb};

/// Exact per-candidate tallies of one recount, as
/// [`crate::MiningTask::recount`] returns them: `supports[id]` and
/// `payloads[id]` are the support and the merged payload of
/// `candidates.items(id)`, with no threshold filter, so a caller can keep
/// them aligned with the candidate arena.
///
/// A recount cut by the deadline, the cancel token or a panicking payload
/// merge holds no tallies (both vectors are empty): partially recounted
/// sums never leave the engine.
#[derive(Debug, Clone)]
pub struct RecountTallies<P> {
    /// Support of each candidate, by candidate id.
    pub supports: Vec<u64>,
    /// Merged payload of each candidate's covering rows, by candidate id.
    pub payloads: Vec<P>,
    /// Whether the recount finished, or which limit cut it.
    pub completeness: Completeness,
    /// Rows the fold read: the table's rows, or 0 when it never started.
    pub rows: u64,
}

/// Recounts `candidates` over `db`'s rows and their `payloads`. Polls the
/// budget's deadline and the cancel token every 64 candidates; a payload
/// merge that panics becomes [`TruncationReason::WorkerPanic`]. The itemset
/// cap applies where the caller emits candidates; byte and depth caps were
/// spent when the lattice was mined. Records the `fpm.sharded.recount`
/// span and the `fpm.sharded.recount_rows` counter.
pub(crate) fn recount<P: Payload>(
    db: &TransactionDb,
    payloads: &[P],
    candidates: &ItemsetArena<()>,
    budget: &Budget,
    cancel: Option<&CancelToken>,
) -> RecountTallies<P> {
    let start = Instant::now();
    let mut supports = vec![0u64; candidates.len()];
    let mut acc: Vec<P> = (0..candidates.len()).map(|_| P::zero()).collect();
    if candidates.is_empty() || db.is_empty() {
        return RecountTallies {
            supports,
            payloads: acc,
            completeness: Completeness::Complete,
            rows: 0,
        };
    }

    let shared = SharedLimits::new(budget, cancel, start);
    let _span = obs::span("fpm.sharded.recount");
    let mut words = 0u64;
    let mut rows = 0u64;
    if !shared.poll() {
        rows = db.len() as u64;
        let folded = catch_unwind(AssertUnwindSafe(|| {
            fold(
                db,
                payloads,
                candidates,
                &mut supports,
                &mut acc,
                &mut words,
                &shared,
            )
        }));
        if folded.is_err() {
            shared.trip(TruncationReason::WorkerPanic);
        }
    }
    obs::counter("fpm.sharded.recount_rows", rows);
    kernels::publish_selected(words);

    let completeness = match shared.resolve_reason() {
        None => Completeness::Complete,
        Some(reason) => {
            supports = Vec::new();
            acc = Vec::new();
            Completeness::Truncated {
                reason,
                emitted: 0,
                elapsed: start.elapsed(),
            }
        }
    };
    RecountTallies {
        supports,
        payloads: acc,
        completeness,
        rows,
    }
}

/// AND-folds per-item bitsets over `db`'s rows for every candidate, adding
/// each candidate's support and payload into `supports` and `acc`. Returns
/// early, leaving the sums partial, once `shared` reports a cut.
fn fold<P: Payload>(
    db: &TransactionDb,
    payloads: &[P],
    candidates: &ItemsetArena<()>,
    supports: &mut [u64],
    acc: &mut [P],
    words_anded: &mut u64,
    shared: &SharedLimits<'_>,
) {
    let n_rows = db.len();
    // Per-item bitsets, built only for items some candidate mentions.
    let mut dense_ix: Vec<u32> = vec![u32::MAX; db.n_items() as usize];
    let mut order: Vec<ItemId> = Vec::new();
    for id in 0..candidates.len() {
        for &item in candidates.items(id) {
            if dense_ix[item as usize] == u32::MAX {
                dense_ix[item as usize] = order.len() as u32;
                order.push(item);
            }
        }
    }
    // Bit `p` stands for the row at position `p` of the payloads' range
    // layout, or for row `p` when they do not lower.
    let masks = ClassMasks::build(payloads);
    let row_at = |p: usize| masks.as_ref().map_or(p, |m| m.rows()[p] as usize);
    let mut bits: Vec<Bitset> = vec![Bitset::zeros(n_rows); order.len()];
    for p in 0..n_rows {
        for &item in db.transaction(row_at(p)) {
            let ix = dense_ix[item as usize];
            if ix != u32::MAX {
                bits[ix as usize].set(p);
            }
        }
    }
    let mut counts = vec![0u64; masks.as_ref().map_or(0, ClassMasks::n_classes)];
    // Prefix-reuse AND-fold: keep a stack of partial intersections and
    // recompute only the suffix that differs from the previous
    // candidate, in place, from pooled buffers. A canonical arena is
    // ordered by length first, then lexicographically — not DFS
    // preorder — so only candidates of one length share prefixes, and
    // each length level restarts the stack. On the seed-42 lattices
    // that costs 1.58–1.75× the ANDs of a lexicographic (DFS) order,
    // e.g. 6,665 against 3,798 on adult at s = 0.05. Any order stays
    // correct: an unshared prefix just recomputes.
    let mut stack: Vec<Bitset> = Vec::new();
    let mut prev: Vec<ItemId> = Vec::new();
    let mut pool: Vec<AlignedWords> = Vec::new();
    for id in 0..candidates.len() {
        if id & 63 == 0 && shared.poll() {
            return;
        }
        let items = candidates.items(id);
        let mut l = 0;
        while l < stack.len() && prev.get(l) == items.get(l) {
            l += 1;
        }
        while stack.len() > l {
            pool.push(stack.pop().expect("stack is non-empty").into_words());
        }
        for d in l..items.len() {
            let item_bits = &bits[dense_ix[items[d] as usize] as usize];
            let next = if d == 0 {
                item_bits.clone()
            } else {
                let mut words = pool.pop().unwrap_or_default();
                stack[d - 1].and_into(item_bits, &mut words);
                *words_anded += item_bits.n_words() as u64;
                Bitset::from_words(words)
            };
            stack.push(next);
        }
        prev.clear();
        prev.extend_from_slice(items);
        let folded = stack.last().expect("candidates are non-empty");
        *words_anded += folded.n_words() as u64;
        match &masks {
            // One split count gives the leaf's support and class counts.
            Some(m) => {
                supports[id] = m.count_dense(folded, &mut counts);
                acc[id] = m.decode(&counts);
            }
            None => {
                supports[id] = folded.count();
                for t in folded.iter_ones() {
                    acc[id].merge(&payloads[t]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tests::Classes;
    use crate::payload::CountPayload;
    use crate::{Algorithm, FrequentItemset, MiningParams, MiningTask};

    fn db() -> TransactionDb {
        let rows: Vec<Vec<u32>> = (0..40)
            .map(|t| {
                let mut row = vec![t % 5];
                if t % 2 == 0 {
                    row.push(5);
                }
                if t % 3 == 0 {
                    row.push(6);
                }
                row
            })
            .collect();
        TransactionDb::from_rows(7, &rows)
    }

    /// Each row in at most one class, so the recount counts over the
    /// range layout.
    fn payloads(n: usize) -> Vec<Classes> {
        (0..n).map(Classes::of_row).collect()
    }

    /// The canonical lattice the default engine mines at `min_support`.
    fn mined<P: Payload + Send + Sync>(
        db: &TransactionDb,
        payloads: &[P],
        min_support: u64,
    ) -> ItemsetArena<()> {
        let mut lattice = MiningTask::new(db, min_support)
            .payloads(payloads)
            .run()
            .store
            .split_payloads()
            .0;
        lattice.sort_canonical();
        lattice
    }

    /// The candidates whose recounted support meets `threshold`, in
    /// candidate-id order, with their tallies.
    fn frequent<P: Payload>(
        candidates: &ItemsetArena<()>,
        tallies: &RecountTallies<P>,
        threshold: u64,
    ) -> Vec<FrequentItemset<P>> {
        (0..candidates.len())
            .filter(|&id| tallies.supports[id] >= threshold)
            .map(|id| {
                FrequentItemset::new(
                    candidates.items(id).to_vec(),
                    tallies.supports[id],
                    tallies.payloads[id].clone(),
                )
            })
            .collect()
    }

    fn unbounded<P: Payload>(
        db: &TransactionDb,
        payloads: &[P],
        candidates: &ItemsetArena<()>,
    ) -> RecountTallies<P> {
        recount(db, payloads, candidates, &Budget::unlimited(), None)
    }

    #[test]
    fn recount_of_mined_candidates_matches_dense() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(3);
        let mut expected = MiningTask::with_params(&db, params)
            .payloads(&payloads)
            .algorithm(Algorithm::Dense)
            .run()
            .into_itemsets();
        crate::itemset::sort_canonical(&mut expected);
        let candidates = mined(&db, &payloads, 3);
        let tallies = unbounded(&db, &payloads, &candidates);
        assert_eq!(tallies.completeness, Completeness::Complete);
        assert_eq!(tallies.rows, db.len() as u64);
        assert_eq!(frequent(&candidates, &tallies, 3), expected);
    }

    #[test]
    fn recount_filters_candidates_below_threshold() {
        let db = db();
        let payloads = payloads(db.len());
        // Mine permissively, recount strictly: the stricter threshold
        // must filter the candidate lattice down to its frequent core.
        let candidates = mined(&db, &payloads, 1);
        let strict = MiningParams::with_min_support_count(6);
        let mut reference = crate::eclat::mine(&db, &payloads, &strict);
        crate::itemset::sort_canonical(&mut reference);
        let tallies = unbounded(&db, &payloads, &candidates);
        assert_eq!(tallies.completeness, Completeness::Complete);
        assert_eq!(frequent(&candidates, &tallies, 6), reference);
    }

    /// Bit planes do not lower (a row sits in several classes), so the
    /// fold merges each leaf's rows one by one.
    #[test]
    fn recount_of_an_unmaskable_payload_merges_row_by_row() {
        let db = db();
        let payloads: Vec<CountPayload> =
            (0..db.len()).map(|t| CountPayload(t as u64 % 9)).collect();
        let candidates = mined(&db, &payloads, 1);
        let strict = MiningParams::with_min_support_count(6);
        let mut reference = crate::eclat::mine(&db, &payloads, &strict);
        crate::itemset::sort_canonical(&mut reference);
        let tallies = unbounded(&db, &payloads, &candidates);
        assert_eq!(tallies.completeness, Completeness::Complete);
        assert_eq!(frequent(&candidates, &tallies, 6), reference);
    }

    #[test]
    fn cancelled_recount_holds_no_tallies_and_names_the_reason() {
        let db = db();
        let payloads = payloads(db.len());
        let candidates = mined(&db, &payloads, 1);
        let token = CancelToken::new();
        token.cancel();
        let tallies = recount(
            &db,
            &payloads,
            &candidates,
            &Budget::unlimited(),
            Some(&token),
        );
        assert_eq!(
            tallies.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
        assert!(tallies.supports.is_empty());
        assert!(tallies.payloads.is_empty());
        assert_eq!(tallies.rows, 0, "the fold never started");
    }

    #[test]
    fn empty_source_is_complete_and_empty() {
        let empty = TransactionDb::from_rows::<Vec<u32>>(7, &[]);
        let candidates = mined(&db(), &payloads(40), 3);
        let tallies = unbounded::<Classes>(&empty, &[], &candidates);
        assert!(tallies.completeness.is_complete());
        assert_eq!(tallies.supports, vec![0; candidates.len()]);
        assert_eq!(tallies.rows, 0);

        let tallies = unbounded(&db(), &payloads(40), &ItemsetArena::new());
        assert!(tallies.completeness.is_complete());
        assert!(tallies.supports.is_empty());
    }

    /// A payload whose merge always panics and that does not lower to
    /// class masks, so the fold merges it row by row.
    #[derive(Debug, Clone)]
    struct Poisoned;

    impl Payload for Poisoned {
        fn zero() -> Self {
            Poisoned
        }
        fn merge(&mut self, _other: &Self) {
            panic!("poisoned payload merge");
        }
    }

    #[test]
    fn a_panicking_merge_becomes_a_worker_panic_with_no_tallies() {
        let db = db();
        let candidates = mined(&db, &payloads(db.len()), 3);
        let poisoned = vec![Poisoned; db.len()];
        let tallies = recount(&db, &poisoned, &candidates, &Budget::unlimited(), None);
        assert_eq!(
            tallies.completeness.truncation_reason(),
            Some(TruncationReason::WorkerPanic)
        );
        assert!(tallies.supports.is_empty());
        assert!(tallies.payloads.is_empty());
    }
}
