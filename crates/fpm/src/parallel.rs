//! Thread-parallel vertical mining.
//!
//! The paper's DivExplorer "does not enforce parallel execution" (§6.5);
//! this backend shows the exploration parallelizes naturally: each frequent
//! item's subtree of the search space is independent given the shared
//! vertical representation, so subtrees are distributed over a scoped
//! thread pool with work-stealing-free static partitioning (round-robin by
//! root, which balances well because item frequencies are interleaved).
//!
//! Each worker streams its subtrees into a thread-local
//! [`ItemsetArena`]; the arenas are merged at join, sorted canonically,
//! and replayed into the caller's sink. Because emission happens after
//! the parallel search completes, [`ItemsetSink::wants_extensions`] is
//! *not* consulted during the search — a sink needing suppression must
//! filter in `emit` (see the [`crate::sink`] contract).
//!
//! When the run's payloads lower into [`ClassMasks`] (see
//! [`crate::masks`]), each worker runs the [`crate::dense`] popcount
//! engine with its own buffer [`crate::dense::Pool`] over root nodes
//! built once and shared read-only; otherwise the workers fall back to
//! merge-based tid-list subtrees. Both paths honor the same shared
//! limits.
//!
//! Results are identical to [`crate::eclat`] up to output order (the public
//! [`mine`] sorts canonically, and the differential tests enforce equality).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

use crate::arena::ItemsetArena;
use crate::budget::{Budget, CancelToken, Completeness, TruncationReason};
use crate::dense;
use crate::itemset::FrequentItemset;
use crate::masks::ClassMasks;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::{ItemId, TransactionDb};
use crate::vertical;
use crate::MiningParams;

/// Mines all frequent itemsets using `n_threads` worker threads
/// (`n_threads = 1` degenerates to sequential Eclat). Output is in
/// canonical order.
///
/// # Panics
///
/// Panics if `n_threads == 0` or `payloads.len() != db.len()`.
pub fn mine<P: Payload + Send + Sync>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    n_threads: usize,
) -> Vec<FrequentItemset<P>> {
    mine_arena(db, payloads, params, n_threads).into_itemsets()
}

/// Streams all frequent itemsets into `sink` in canonical order.
///
/// The search itself runs on `n_threads` workers collecting into
/// per-thread arenas; `sink` receives the merged, canonically sorted
/// result. `wants_extensions` is not consulted (see the module docs).
pub fn mine_into<P: Payload + Send + Sync, S: ItemsetSink<P>>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    n_threads: usize,
    sink: &mut S,
) {
    let arena = mine_arena(db, payloads, params, n_threads);
    for entry in arena.iter() {
        sink.emit(entry.items, entry.support, entry.payload);
    }
}

/// Parallel mining into a canonically sorted arena — the shared engine
/// behind [`mine`] and [`mine_into`]. Exposed so callers that keep the
/// arena form (e.g. the explorer's report) skip the replay entirely.
///
/// # Panics
///
/// Panics if `n_threads == 0`, `payloads.len() != db.len()`, or a worker
/// subtree panics (use [`mine_arena_bounded`] for contained degradation).
pub fn mine_arena<P: Payload + Send + Sync>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    n_threads: usize,
) -> ItemsetArena<P> {
    let (arena, completeness) =
        mine_arena_bounded(db, payloads, params, n_threads, &Budget::unlimited(), None);
    if completeness.truncation_reason() == Some(TruncationReason::WorkerPanic) {
        panic!("worker panicked");
    }
    arena
}

/// Atomic encoding of `Option<TruncationReason>` (0 = none); first trip
/// wins so the verdict names the limit that actually stopped the run.
fn encode(reason: TruncationReason) -> u8 {
    match reason {
        TruncationReason::Timeout => 1,
        TruncationReason::ItemsetLimit => 2,
        TruncationReason::MemoryLimit => 3,
        TruncationReason::DepthLimit => 4,
        TruncationReason::Cancelled => 5,
        TruncationReason::WorkerPanic => 6,
    }
}

fn decode(code: u8) -> Option<TruncationReason> {
    Some(match code {
        1 => TruncationReason::Timeout,
        2 => TruncationReason::ItemsetLimit,
        3 => TruncationReason::MemoryLimit,
        4 => TruncationReason::DepthLimit,
        5 => TruncationReason::Cancelled,
        6 => TruncationReason::WorkerPanic,
        _ => return None,
    })
}

/// Budget state shared by all workers. Kept separate from the sink
/// machinery: here enforcement is global (the caps bound the *merged*
/// result, not each worker's share). Also reused by [`crate::recount`],
/// which polls the same deadline and cancel token.
pub(crate) struct SharedLimits<'a> {
    stop: AtomicBool,
    reason: AtomicU8,
    emitted: AtomicU64,
    bytes: AtomicU64,
    pub(crate) panicked: AtomicUsize,
    pub(crate) depth_pruned: AtomicBool,
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
    max_itemsets: Option<u64>,
    max_bytes: Option<u64>,
}

impl<'a> SharedLimits<'a> {
    /// Fresh limits for a run that began at `start`.
    pub(crate) fn new(
        budget: &Budget,
        cancel: Option<&'a CancelToken>,
        start: Instant,
    ) -> SharedLimits<'a> {
        SharedLimits {
            stop: AtomicBool::new(false),
            reason: AtomicU8::new(0),
            emitted: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            panicked: AtomicUsize::new(0),
            depth_pruned: AtomicBool::new(false),
            deadline: budget.timeout.map(|t| start + t),
            cancel,
            max_itemsets: budget.max_itemsets,
            max_bytes: budget.max_bytes,
        }
    }

    pub(crate) fn trip(&self, reason: TruncationReason) {
        let _ =
            self.reason
                .compare_exchange(0, encode(reason), Ordering::Relaxed, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Re-checks the cancel token and deadline; true iff the run is over.
    pub(crate) fn poll(&self) -> bool {
        if self.stopped() {
            return true;
        }
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            self.trip(TruncationReason::Cancelled);
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip(TruncationReason::Timeout);
            return true;
        }
        false
    }

    /// Claims one emission slot of `n_items` items; `false` means a cap
    /// is exhausted and the itemset must not be stored. With no caps set
    /// this takes no atomic at all (the unbounded fast path).
    pub(crate) fn admit(&self, n_items: usize) -> bool {
        self.admit_count() && self.admit_bytes(n_items)
    }

    /// Claims one slot against the itemset-count cap only.
    pub(crate) fn admit_count(&self) -> bool {
        if let Some(max) = self.max_itemsets {
            if self.emitted.fetch_add(1, Ordering::Relaxed) >= max {
                self.trip(TruncationReason::ItemsetLimit);
                return false;
            }
        }
        true
    }

    /// Claims the storage cost of one `n_items`-item itemset against the
    /// byte cap only.
    pub(crate) fn admit_bytes(&self, n_items: usize) -> bool {
        if let Some(max) = self.max_bytes {
            let cost = (n_items * std::mem::size_of::<ItemId>() + 24) as u64;
            if self.bytes.fetch_add(cost, Ordering::Relaxed) + cost > max {
                self.trip(TruncationReason::MemoryLimit);
                return false;
            }
        }
        true
    }

    /// Resolves the run's truncation reason: an explicitly tripped limit
    /// wins, then worker panics, then silent depth pruning.
    pub(crate) fn resolve_reason(&self) -> Option<TruncationReason> {
        decode(self.reason.load(Ordering::Relaxed))
            .or_else(|| {
                (self.panicked.load(Ordering::Relaxed) > 0).then_some(TruncationReason::WorkerPanic)
            })
            .or_else(|| {
                self.depth_pruned
                    .load(Ordering::Relaxed)
                    .then_some(TruncationReason::DepthLimit)
            })
    }
}

/// Worker-local sink adapting the [`crate::dense`] engine's streaming
/// hooks to the shared limits: `emit` admits into the worker's arena,
/// `wants_extensions` enforces the budget's depth cap, and `should_stop`
/// polls time-based limits every 64 nodes (mirroring the tid-list path).
struct DenseWorkerSink<'a, 'b, P: Payload> {
    shared: &'a SharedLimits<'b>,
    arena: ItemsetArena<P>,
    ticks: u32,
    depth_cap: usize,
}

impl<P: Payload> ItemsetSink<P> for DenseWorkerSink<'_, '_, P> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        if self.shared.stopped() || !self.shared.admit(items.len()) {
            return;
        }
        self.arena.push(items, support, payload.clone());
    }

    fn wants_extensions(&mut self, items: &[ItemId], _support: u64) -> bool {
        if items.len() >= self.depth_cap {
            // The budget's depth cap (not the caller's max_len) gated
            // this subtree: the result may be missing deeper itemsets.
            self.shared.depth_pruned.store(true, Ordering::Relaxed);
            return false;
        }
        !self.shared.stopped()
    }

    fn should_stop(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & 63 == 0 {
            self.shared.poll()
        } else {
            self.shared.stopped()
        }
    }
}

/// Runs `work(worker, n_workers)` on at most one scoped worker per root
/// subtree, so a thread count far above the root count spawns and sizes
/// nothing extra, and joins the worker shards. Each worker
/// adopts the caller's request context, so its telemetry stays
/// attributable to the originating request. A panic that escaped the
/// per-root `catch_unwind` (e.g. in the loop glue) loses that worker's
/// shard but still degrades gracefully.
fn run_workers<P: Payload + Send>(
    n_threads: usize,
    n_roots: usize,
    shared: &SharedLimits<'_>,
    work: impl Fn(usize, usize) -> ItemsetArena<P> + Sync,
) -> Vec<ItemsetArena<P>> {
    let n_workers = n_threads.min(n_roots);
    obs::counter("fpm.workers", n_workers as u64);
    let (req_token, work) = (obs::request_token(), &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|worker| {
                scope.spawn(move || {
                    let _req = req_token.adopt();
                    work(worker, n_workers)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|handle| match handle.join() {
                Ok(local) => Some(local),
                Err(_) => {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    None
                }
            })
            .collect()
    })
}

/// Parallel mining under a [`Budget`] and optional [`CancelToken`],
/// returning the merged (canonically sorted) partial result and its
/// [`Completeness`] verdict.
///
/// Enforcement is global across workers: the itemset/byte caps bound the
/// merged result, every worker honors the deadline and the token at
/// per-node checkpoints, and each root subtree runs under
/// `catch_unwind`, so one poisoned shard degrades the run (verdict
/// [`TruncationReason::WorkerPanic`], that subtree's itemsets missing)
/// instead of aborting it. Never panics on exhaustion; the returned
/// arena always holds every itemset admitted before the cut.
///
/// Note that [`crate::ItemsetSink::wants_extensions`]-style sink pruning
/// still does not apply here (see the module docs) — budgets are the
/// supported way to bound this engine.
///
/// # Panics
///
/// Panics if `n_threads == 0` or `payloads.len() != db.len()` (caller
/// bugs, not resource conditions).
pub fn mine_arena_bounded<P: Payload + Send + Sync>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    n_threads: usize,
    budget: &Budget,
    cancel: Option<&CancelToken>,
) -> (ItemsetArena<P>, Completeness) {
    assert!(n_threads > 0, "need at least one thread");
    assert_eq!(payloads.len(), db.len(), "payload length mismatch");
    let start = Instant::now();
    let threshold = params.threshold();
    let max_len = params.max_len.unwrap_or(usize::MAX);
    let depth_cap = budget.max_depth.unwrap_or(usize::MAX);
    if max_len == 0 || depth_cap == 0 || db.is_empty() {
        return (ItemsetArena::new(), Completeness::Complete);
    }

    let mine_span = obs::span("fpm.parallel.mine");
    let shared = SharedLimits::new(budget, cancel, start);
    let shared = &shared;

    let locals: Vec<ItemsetArena<P>> = if let Some(masks) = ClassMasks::build(payloads) {
        // Dense path: popcount counting over the shared range layout.
        // Root nodes are built once and shared read-only; each worker has
        // its own buffer pool, stats, and arena.
        let ctx = dense::Ctx {
            masks: &masks,
            threshold,
            max_len,
            n_rows: db.len(),
            config: dense::Config::default(),
        };
        let mut root_pool = dense::Pool::new();
        let mut root_stats = dense::EngineStats::default();
        let roots = dense::build_roots(db, &ctx, &mut root_pool, &mut root_stats);
        root_stats.publish(&root_pool);
        let (roots, ctx) = (&roots, &ctx);
        run_workers(n_threads, roots.len(), shared, |worker, stride| {
            let mut pool = dense::Pool::new();
            let mut stats = dense::EngineStats::default();
            let mut prefix: Vec<ItemId> = Vec::new();
            let mut sink = DenseWorkerSink {
                shared,
                arena: ItemsetArena::new(),
                ticks: 0,
                depth_cap,
            };
            // Round-robin partition of the root items.
            let mut pos = worker;
            while pos < roots.len() {
                if shared.poll() {
                    break;
                }
                // Contain a poisoned subtree: record the panic,
                // drop whatever state it left in `prefix`, keep
                // mining the worker's remaining roots.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    dense::extend(
                        ctx,
                        roots,
                        pos,
                        &mut prefix,
                        &mut pool,
                        &mut stats,
                        &mut sink,
                    )
                }));
                if outcome.is_err() {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    prefix.clear();
                }
                pos += stride;
            }
            // One batched publish per worker, so a lock-holding
            // recorder never serializes the workers.
            stats.publish(&pool);
            sink.arena
        })
    } else {
        // Merge path: shared vertical representation, per-tid payload
        // merges.
        let tid_build = obs::span("fpm.eclat.tid_build");
        let roots: Vec<(ItemId, Vec<u32>)> = vertical::tid_lists(db)
            .into_iter()
            .enumerate()
            .filter(|(_, tids)| tids.len() as u64 >= threshold)
            .map(|(item, tids)| (item as ItemId, tids))
            .collect();
        drop(tid_build);
        let roots = &roots;
        run_workers(n_threads, roots.len(), shared, |worker, stride| {
            let mut local = ItemsetArena::new();
            let mut prefix: Vec<ItemId> = Vec::new();
            let mut ticks = 0u32;
            // Intersections are tallied locally and published once
            // per worker: one facade call instead of one per node,
            // so a lock-holding recorder never serializes the
            // workers.
            let mut inters = 0u64;
            // Round-robin partition of the root items.
            let mut pos = worker;
            while pos < roots.len() {
                if shared.poll() {
                    break;
                }
                // Contain a poisoned subtree: record the panic,
                // drop whatever state it left in `prefix`, keep
                // mining the worker's remaining roots.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    subtree(
                        roots,
                        pos,
                        payloads,
                        threshold,
                        max_len,
                        depth_cap,
                        shared,
                        &mut ticks,
                        &mut inters,
                        &mut prefix,
                        &mut local,
                    )
                }));
                if outcome.is_err() {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    prefix.clear();
                }
                pos += stride;
            }
            obs::counter("fpm.tid_intersections", inters);
            local
        })
    };
    drop(mine_span);

    let merge_span = obs::span("fpm.parallel.merge");
    let mut merged = ItemsetArena::new();
    for local in locals {
        merged.absorb(local);
    }
    merged.sort_canonical();
    drop(merge_span);

    obs::counter(
        "fpm.worker_panics",
        shared.panicked.load(Ordering::Relaxed) as u64,
    );
    let completeness = match shared.resolve_reason() {
        None => Completeness::Complete,
        Some(reason) => Completeness::Truncated {
            reason,
            emitted: merged.len() as u64,
            elapsed: start.elapsed(),
        },
    };
    (merged, completeness)
}

/// Sequential Eclat over the subtree rooted at `siblings[pos]`, honoring
/// the shared limits at every node.
#[allow(clippy::too_many_arguments)]
fn subtree<P: Payload>(
    siblings: &[(ItemId, Vec<u32>)],
    pos: usize,
    payloads: &[P],
    threshold: u64,
    max_len: usize,
    depth_cap: usize,
    shared: &SharedLimits<'_>,
    ticks: &mut u32,
    inters: &mut u64,
    prefix: &mut Vec<ItemId>,
    out: &mut ItemsetArena<P>,
) {
    if shared.stopped() {
        return;
    }
    // Time-based limits are re-polled every 64 nodes; the stop flag
    // (itemset/byte caps tripped by any worker) is checked every node.
    *ticks = ticks.wrapping_add(1);
    if *ticks & 63 == 0 && shared.poll() {
        return;
    }
    let (item, ref tids) = siblings[pos];
    prefix.push(item);
    let payload = vertical::sum_payloads(tids, payloads);
    if !shared.admit(prefix.len()) {
        prefix.pop();
        return;
    }
    out.push(prefix, tids.len() as u64, payload);
    if prefix.len() < max_len {
        if prefix.len() >= depth_cap {
            // The budget's depth cap (not the caller's max_len) gated
            // this subtree: the result may be missing deeper itemsets.
            shared.depth_pruned.store(true, Ordering::Relaxed);
        } else {
            let mut children: Vec<(ItemId, Vec<u32>)> = Vec::new();
            for (sib_item, sib_tids) in &siblings[pos + 1..] {
                let inter = vertical::intersect(tids, sib_tids);
                if inter.len() as u64 >= threshold {
                    children.push((*sib_item, inter));
                }
            }
            *inters += (siblings.len() - pos - 1) as u64;
            for child_pos in 0..children.len() {
                subtree(
                    &children, child_pos, payloads, threshold, max_len, depth_cap, shared, ticks,
                    inters, prefix, out,
                );
            }
        }
    }
    prefix.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::sort_canonical;
    use crate::payload::tests::Classes;
    use crate::payload::CountPayload;
    use crate::sink::VecSink;
    use crate::{Algorithm, MiningTask};

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

    #[test]
    fn parallel_matches_sequential_for_any_thread_count() {
        let db = db();
        let payloads: Vec<Classes> = (0..db.len()).map(Classes::of_row).collect();
        let params = MiningParams::with_min_support_count(3);
        let mut reference = MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Eclat)
            .run()
            .into_itemsets();
        sort_canonical(&mut reference);
        for n_threads in [1, 2, 3, 8] {
            let got = mine(&db, &payloads, &params, n_threads);
            assert_eq!(got, reference, "n_threads={n_threads}");
        }
    }

    #[test]
    fn sink_path_replays_the_canonical_order() {
        let db = db();
        let payloads: Vec<Classes> = (0..db.len()).map(Classes::of_row).collect();
        let params = MiningParams::with_min_support_count(3);
        let expected = mine(&db, &payloads, &params, 4);
        let mut sink = VecSink::new();
        mine_into(&db, &payloads, &params, 4, &mut sink);
        assert_eq!(sink.found, expected);
    }

    #[test]
    fn respects_max_len_and_thresholds() {
        let db = db();
        let params = MiningParams::with_min_support_count(5).max_len(2);
        let found = mine(&db, &vec![(); db.len()], &params, 4);
        assert!(found.iter().all(|fi| fi.items.len() <= 2));
        assert!(found.iter().all(|fi| fi.support >= 5));
    }

    #[test]
    fn more_threads_than_roots_is_fine() {
        // At most one worker per root subtree: even 10^11 requested
        // threads size nothing by the request, on the class-mask path and
        // the merge path alike, and return the sequential result.
        let db = TransactionDb::from_rows(2, &[vec![0], vec![1], vec![0, 1]]);
        let params = MiningParams::with_min_support_count(1);
        let counted: Vec<CountPayload> = (0..3).map(CountPayload).collect();
        for n_threads in [16, 100_000_000_000] {
            let found = mine(&db, &[(); 3], &params, n_threads);
            assert_eq!(found.len(), 3);
            let sequential = mine(&db, &counted, &params, 1);
            assert_eq!(mine(&db, &counted, &params, n_threads), sequential);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let db = db();
        let _ = mine(
            &db,
            &vec![(); db.len()],
            &MiningParams::with_min_support_count(1),
            0,
        );
    }

    #[test]
    fn unlimited_bounded_run_is_complete_and_identical() {
        let db = db();
        let payloads: Vec<Classes> = (0..db.len()).map(Classes::of_row).collect();
        let params = MiningParams::with_min_support_count(2);
        let plain = mine(&db, &payloads, &params, 4);
        let (arena, completeness) =
            mine_arena_bounded(&db, &payloads, &params, 4, &Budget::unlimited(), None);
        assert_eq!(completeness, Completeness::Complete);
        assert_eq!(arena.into_itemsets(), plain);
    }

    #[test]
    fn itemset_cap_yields_a_subset_with_exact_supports() {
        let db = db();
        let payloads: Vec<Classes> = (0..db.len()).map(Classes::of_row).collect();
        let params = MiningParams::with_min_support_count(1);
        let full = mine(&db, &payloads, &params, 4);
        assert!(full.len() > 5);
        let budget = Budget::unlimited().with_max_itemsets(5);
        let (arena, completeness) = mine_arena_bounded(&db, &payloads, &params, 3, &budget, None);
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::ItemsetLimit)
        );
        let partial = arena.into_itemsets();
        assert_eq!(partial.len(), 5);
        for fi in &partial {
            let reference = full
                .iter()
                .find(|r| r.items == fi.items)
                .expect("partial result must be a subset of the full run");
            assert_eq!(
                (fi.support, fi.payload),
                (reference.support, reference.payload)
            );
        }
    }

    #[test]
    fn fired_token_stops_all_workers() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let token = CancelToken::new();
        token.cancel();
        let (arena, completeness) = mine_arena_bounded(
            &db,
            &vec![(); db.len()],
            &params,
            4,
            &Budget::unlimited(),
            Some(&token),
        );
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
        assert!(arena.len() < mine(&db, &vec![(); db.len()], &params, 4).len());
    }

    #[test]
    fn depth_cap_bounds_lengths_and_reports() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let budget = Budget::unlimited().with_max_depth(1);
        let (arena, completeness) =
            mine_arena_bounded(&db, &vec![(); db.len()], &params, 4, &budget, None);
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::DepthLimit)
        );
        assert!(arena.iter().all(|e| e.items.len() <= 1));
    }

    /// A payload whose merge panics on a poisoned transaction, simulating
    /// a corrupted shard.
    #[derive(Debug, Clone, PartialEq)]
    struct Poison(bool);
    impl Payload for Poison {
        fn zero() -> Self {
            Poison(false)
        }
        fn merge(&mut self, other: &Self) {
            assert!(!other.0, "poisoned payload");
        }
    }

    #[test]
    fn poisoned_shard_degrades_instead_of_aborting() {
        let db = db();
        // Poison one transaction: every subtree whose tid-list covers it
        // panics in sum_payloads; the rest of the lattice must survive.
        let payloads: Vec<Poison> = (0..db.len()).map(|t| Poison(t == 0)).collect();
        let params = MiningParams::with_min_support_count(1);
        let (arena, completeness) =
            mine_arena_bounded(&db, &payloads, &params, 4, &Budget::unlimited(), None);
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::WorkerPanic)
        );
        // Transaction 0 is {0, 5, 6}; subtrees rooted at items untouched
        // by it still produce results.
        assert!(!arena.is_empty());
    }

    #[test]
    fn unbounded_wrapper_still_panics_on_worker_panic() {
        let db = db();
        let payloads: Vec<Poison> = (0..db.len()).map(|t| Poison(t == 0)).collect();
        let outcome = std::panic::catch_unwind(|| {
            mine_arena(&db, &payloads, &MiningParams::with_min_support_count(1), 2)
        });
        assert!(outcome.is_err());
    }
}
