//! Sharded two-pass (Partition-style) mining.
//!
//! The classic Savasere–Omiecinski–Navathe partition scheme, adapted to
//! payload-fused mining: split the transaction table into `K` horizontal
//! row shards, mine each shard independently at a *proportionally scaled*
//! local threshold (phase 1), union the local frequent itemsets into one
//! global candidate arena, then stream the shards once more and recount
//! every candidate exactly (phase 2). Because supports and [`Payload`]
//! aggregates are additive over disjoint row subsets, summing the
//! per-shard recounts yields the exact global tallies.
//!
//! **Soundness and completeness.** Let `T` be the global threshold over
//! `N` rows and give shard `k` (holding `n_k` rows) the local threshold
//! `t_k = max(1, ceil(T·n_k/N))`. If an itemset is locally infrequent in
//! *every* shard, its global support is at most `Σ_k (t_k − 1) < T`
//! (since `Σ_k t_k < T + K`), so every globally frequent itemset is
//! locally frequent in at least one shard and survives into the
//! candidate union — phase 1 loses nothing. Phase 2 computes exact
//! global supports and payloads for every candidate and keeps exactly
//! those meeting `T`, discarding the false positives phase 1 admitted.
//!
//! **Memory model.** Phase 1 workers hold one shard each plus their local
//! candidate arenas; phase 2 is sequential and holds exactly one shard at
//! a time plus the candidate arena and its accumulators. With a
//! [`ShardSource`] that re-reads rows from storage (e.g. a CSV window
//! reader), peak residency is one shard + the candidate arena, not the
//! whole table.
//!
//! **Budgets.** The run is coordinated through the same shared-limit
//! machinery as [`crate::parallel`]: the deadline and cancel token are
//! polled in both phases, `max_bytes` bounds the candidate arena,
//! `max_itemsets` bounds the final emission, and `max_depth` caps the
//! candidate lattice depth. A budget that expires *before* the recount
//! finishes yields an **empty** truncated result — partially recounted
//! supports would violate the contract that every emitted itemset carries
//! exact tallies — and [`ShardStats::truncated_phase`] records which
//! phase was cut. An `ItemsetLimit` tripped during the final emission
//! still yields a sound prefix with exact counts (phase `None`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::arena::ItemsetArena;
use crate::bitset::Bitset;
use crate::budget::{Budget, CancelToken, Completeness, TruncationReason};
use crate::dense;
use crate::kernels::{self, AlignedWords};
use crate::masks::ClassMasks;
use crate::parallel::SharedLimits;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::task::MiningVerdict;
use crate::transaction::{ItemId, TransactionDb, TransactionDbBuilder};
use crate::MiningParams;

/// Shard count used when [`crate::Algorithm::Sharded`] is selected
/// without an explicit `K` (e.g. via [`crate::MiningTask::algorithm`]).
pub const DEFAULT_SHARDS: usize = 4;

/// Which phase of a sharded run a budget cut interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Phase 1: per-shard candidate mining.
    Mine,
    /// Phase 2: the exact recount pass over the shards.
    Recount,
}

impl std::fmt::Display for ShardPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardPhase::Mine => "mine",
            ShardPhase::Recount => "recount",
        })
    }
}

/// Telemetry of one sharded run, returned alongside its
/// [`Completeness`] verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Configured shard count `K`.
    pub n_shards: usize,
    /// Shards whose candidate mining completed in phase 1.
    pub shards_mined: u64,
    /// Size of the deduplicated candidate union.
    pub candidates: u64,
    /// Rows streamed by the recount pass (phase 2).
    pub recount_rows: u64,
    /// Wall-clock of phase 1 in microseconds.
    pub mine_us: u64,
    /// Wall-clock of phase 2 (recount + emission) in microseconds.
    pub recount_us: u64,
    /// Peak *resident* shard footprint (bytes, CSR rows + payloads):
    /// the maximum over time of the summed size of every concurrently
    /// loaded shard — parallel workers and prefetched shards all count
    /// while resident, not just the largest single shard.
    pub peak_shard_bytes: u64,
    /// Footprint of the candidate arena (bytes). Peak residency of the
    /// run is `peak_shard_bytes + candidate_bytes`.
    pub candidate_bytes: u64,
    /// Time counting threads spent acquiring shards during phase 2
    /// (µs, summed across workers): inline materialize time when
    /// self-loading, blocked queue-pop time under prefetch. Low values
    /// mean IO was hidden behind compute.
    pub io_wait_us: u64,
    /// Decoded (resident CSR + payload) bytes streamed through phase 2.
    pub streamed_bytes: u64,
    /// Encoded bytes read from the backing store during phase 2, summed
    /// from [`ShardSource::size_hint`]. `0` when the source doesn't
    /// report encoded sizes (e.g. in-memory sources).
    pub compressed_bytes: u64,
    /// The phase a budget cut interrupted, if any. `None` for complete
    /// runs *and* for truncations that still emitted a sound prefix
    /// (itemset cap at emission, depth-capped candidates).
    pub truncated_phase: Option<ShardPhase>,
}

impl ShardStats {
    /// Fraction of the recount phase *not* stalled on shard IO:
    /// `1 − io_wait_us / recount_us`, clamped to `[0, 1]`. `1.0` when
    /// no recount ran.
    pub fn overlap_ratio(&self) -> f64 {
        if self.recount_us == 0 {
            return 1.0;
        }
        (1.0 - self.io_wait_us as f64 / self.recount_us as f64).clamp(0.0, 1.0)
    }

    /// How much smaller the encoded shards are than their decoded CSR
    /// form: `streamed_bytes / compressed_bytes`. `None` when the source
    /// reported no encoded sizes.
    pub fn compression_ratio(&self) -> Option<f64> {
        if self.compressed_bytes == 0 {
            return None;
        }
        Some(self.streamed_bytes as f64 / self.compressed_bytes as f64)
    }
}

/// Tracks the summed footprint of all concurrently resident shards and
/// its high-water mark — the honest form of
/// [`ShardStats::peak_shard_bytes`] now that workers and the prefetch
/// queue hold several shards at once.
#[derive(Default)]
struct ResidentGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl ResidentGauge {
    fn add(&self, bytes: u64) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One materialized horizontal shard: a contiguous row window of the
/// global table, re-rooted at row 0, with its payload slice.
#[derive(Debug, Clone)]
pub struct Shard<P> {
    /// Global index of the shard's first row.
    pub start_row: usize,
    /// The shard's rows as a transaction table over the *global* item
    /// universe (`n_items` must match across shards).
    pub db: TransactionDb,
    /// One payload per shard row.
    pub payloads: Vec<P>,
}

impl<P> Shard<P> {
    /// Approximate resident size of this shard in bytes (CSR items +
    /// offsets + payloads).
    pub fn approx_bytes(&self) -> u64 {
        (self.db.total_item_occurrences() * std::mem::size_of::<ItemId>()
            + (self.db.len() + 1) * std::mem::size_of::<usize>()
            + self.payloads.len() * std::mem::size_of::<P>()) as u64
    }
}

/// An opened-but-not-yet-materialized shard: the ticket returned by
/// [`ShardSource::open`].
///
/// Handles are owned and `Send`, so the pipeline can open a shard on the
/// coordinating thread and perform the actual IO/decode on whichever
/// worker or prefetch thread consumes the ticket. [`materialize`]
/// consumes the handle; a handle is good for exactly one load.
///
/// [`materialize`]: ShardHandle::materialize
pub trait ShardHandle<P: Payload>: Send {
    /// Performs the load/decode, producing the shard's rows.
    fn materialize(self: Box<Self>) -> Shard<P>;
}

/// Wraps a closure as a [`ShardHandle`] — the one-line migration path
/// for sources whose load is a plain function of `(source, k)`.
struct FnShardHandle<F>(F);

impl<P, F> ShardHandle<P> for FnShardHandle<F>
where
    P: Payload,
    F: FnOnce() -> Shard<P> + Send,
{
    fn materialize(self: Box<Self>) -> Shard<P> {
        (self.0)()
    }
}

/// Boxes a `Send` closure into a [`ShardHandle`]; the returned handle
/// borrows whatever the closure captures (typically the source).
pub fn handle_from_fn<'f, P, F>(f: F) -> Box<dyn ShardHandle<P> + 'f>
where
    P: Payload,
    F: FnOnce() -> Shard<P> + Send + 'f,
{
    Box::new(FnShardHandle(f))
}

/// Where the two passes pull shards from: an in-memory table
/// ([`MemShardSource`]) or re-read storage (e.g.
/// `datasets::csv::CsvShardSource`), so the recount pass never needs the
/// whole table resident.
///
/// Implementations must be deterministic — both phases may open the same
/// shard, and phase 2 relies on seeing exactly the rows phase 1 mined.
/// Every shard's `db` must share one item universe.
pub trait ShardSource<P: Payload>: Sync {
    /// Number of shards `K`. Shards may be empty.
    fn n_shards(&self) -> usize;
    /// Total rows across all shards.
    fn n_rows(&self) -> usize;
    /// Opens shard `k` (`k < n_shards()`): returns an owned ticket whose
    /// [`ShardHandle::materialize`] performs the actual IO/decode, on
    /// whichever thread the recount pipeline schedules it.
    fn open(&self, k: usize) -> Box<dyn ShardHandle<P> + '_>;
    /// Encoded (on-storage) footprint of shard `k` in bytes, if the
    /// backing store knows it. `None` for purely in-memory sources; a
    /// compressed source reports its compressed section size, which
    /// feeds [`ShardStats`] compression accounting.
    fn size_hint(&self, _k: usize) -> Option<u64> {
        None
    }
}

/// A [`ShardSource`] over an in-memory table: `K` balanced contiguous
/// row windows, copied out on `materialize`.
#[derive(Debug, Clone, Copy)]
pub struct MemShardSource<'a, P> {
    db: &'a TransactionDb,
    payloads: &'a [P],
    n_shards: usize,
}

impl<'a, P: Payload> MemShardSource<'a, P> {
    /// Splits `db` into `n_shards` balanced row windows.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0` or `payloads.len() != db.len()`.
    pub fn new(db: &'a TransactionDb, payloads: &'a [P], n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert_eq!(
            payloads.len(),
            db.len(),
            "payload slice length must match transaction count"
        );
        MemShardSource {
            db,
            payloads,
            n_shards,
        }
    }

    /// Row window `[lo, hi)` of shard `k`. With `K > n_rows` the trailing
    /// shards are empty.
    fn bounds(&self, k: usize) -> (usize, usize) {
        let n = self.db.len();
        (k * n / self.n_shards, (k + 1) * n / self.n_shards)
    }

    fn materialize_window(&self, k: usize) -> Shard<P> {
        let (lo, hi) = self.bounds(k);
        let mut builder = TransactionDbBuilder::new(self.db.n_items());
        for t in lo..hi {
            builder.push(self.db.transaction(t));
        }
        Shard {
            start_row: lo,
            db: builder.build(),
            payloads: self.payloads[lo..hi].to_vec(),
        }
    }
}

impl<P: Payload + Send + Sync> ShardSource<P> for MemShardSource<'_, P> {
    fn n_shards(&self) -> usize {
        self.n_shards
    }

    fn n_rows(&self) -> usize {
        self.db.len()
    }

    fn open(&self, k: usize) -> Box<dyn ShardHandle<P> + '_> {
        handle_from_fn(move || self.materialize_window(k))
    }
}

/// The local threshold of a shard: `max(1, ceil(T·n_k/N))`. See the
/// module docs for why this preserves completeness.
fn local_threshold(global: u64, shard_rows: usize, total_rows: usize) -> u64 {
    if total_rows == 0 {
        return 1;
    }
    let num = global as u128 * shard_rows as u128;
    let t = num.div_ceil(total_rows as u128) as u64;
    t.max(1)
}

/// Phase-1 sink: collects candidate itemsets (supports and payloads are
/// discarded — phase 2 recounts exactly), charging the byte cap for the
/// candidate storage and honoring the depth cap and stop flag.
struct CandidateSink<'a, 'b> {
    shared: &'a SharedLimits<'b>,
    out: ItemsetArena<()>,
    ticks: u32,
    depth_cap: usize,
}

impl ItemsetSink<()> for CandidateSink<'_, '_> {
    fn emit(&mut self, items: &[ItemId], support: u64, _payload: &()) {
        if self.shared.stopped() || !self.shared.admit_bytes(items.len()) {
            return;
        }
        self.out.push(items, support, ());
    }

    fn wants_extensions(&mut self, items: &[ItemId], _support: u64) -> bool {
        if items.len() >= self.depth_cap {
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

/// Phase 1 worker: pulls shard indices off the shared counter until the
/// source is drained or the run is stopped, mining each shard's frequent
/// itemsets (unit payloads — candidates only) with the dense engine.
#[allow(clippy::too_many_arguments)]
fn mine_shard_candidates<P: Payload, C: ShardSource<P>>(
    source: &C,
    params: &MiningParams,
    shared: &SharedLimits<'_>,
    next: &AtomicUsize,
    depth_cap: usize,
    threshold: u64,
    resident: &ResidentGauge,
    shards_mined: &AtomicU64,
) -> ItemsetArena<()> {
    let total_rows = source.n_rows();
    let mut sink = CandidateSink {
        shared,
        out: ItemsetArena::new(),
        ticks: 0,
        depth_cap,
    };
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= source.n_shards() || shared.poll() {
            break;
        }
        let shard = source.open(k).materialize();
        let bytes = shard.approx_bytes();
        resident.add(bytes);
        if !shard.db.is_empty() {
            let local_params = MiningParams {
                min_support_count: local_threshold(threshold, shard.db.len(), total_rows),
                max_len: params.max_len,
            };
            let unit = vec![(); shard.db.len()];
            // Contain a poisoned shard: the run degrades to WorkerPanic
            // instead of aborting, same as the parallel engine.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                dense::mine_into(&shard.db, &unit, &local_params, &mut sink);
            }));
            if outcome.is_err() {
                shared.panicked.fetch_add(1, Ordering::Relaxed);
                resident.sub(bytes);
                continue;
            }
        }
        resident.sub(bytes);
        shards_mined.fetch_add(1, Ordering::Relaxed);
    }
    sink.out
}

/// Phase 2 over one shard: AND-folds per-item bitsets over the shard's
/// rows for every candidate, adding the shard's exact support and payload
/// contribution into the global accumulators.
///
/// Payload contributions go through the *shard's own* [`ClassMasks`]:
/// value-dependent specs (e.g. [`crate::CountPayload`] bit planes) can
/// differ across shards, so raw class counts must never be summed
/// globally — each shard decodes its counts into a payload first, and
/// payloads merge exactly by the monoid laws.
fn recount_shard<P: Payload>(
    shard: &Shard<P>,
    candidates: &ItemsetArena<()>,
    supports: &mut [u64],
    acc: &mut [P],
    words_anded: &mut u64,
    shared: &SharedLimits<'_>,
) -> bool {
    let n_rows = shard.db.len();
    let n_items = shard.db.n_items() as usize;
    // Per-item bitsets, built only for items some candidate mentions.
    let mut dense_ix: Vec<u32> = vec![u32::MAX; n_items];
    let mut order: Vec<ItemId> = Vec::new();
    for id in 0..candidates.len() {
        for &item in candidates.items(id) {
            if dense_ix[item as usize] == u32::MAX {
                dense_ix[item as usize] = order.len() as u32;
                order.push(item);
            }
        }
    }
    let mut bits: Vec<Bitset> = vec![Bitset::zeros(n_rows); order.len()];
    for t in 0..n_rows {
        for &item in shard.db.transaction(t) {
            let ix = dense_ix[item as usize];
            if ix != u32::MAX {
                bits[ix as usize].set(t);
            }
        }
    }
    let masks = ClassMasks::build(&shard.payloads);
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
            return false;
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
        let sup = folded.count();
        *words_anded += folded.n_words() as u64;
        if sup == 0 {
            continue;
        }
        supports[id] += sup;
        match &masks {
            Some(m) => {
                *words_anded += m.count_dense(folded, &mut counts);
                acc[id].merge(&m.decode::<P>(&counts));
            }
            None => {
                for t in folded.iter_ones() {
                    acc[id].merge(&shard.payloads[t]);
                }
            }
        }
    }
    true
}

/// A minimal bounded MPMC channel for the prefetch pipeline (the
/// workspace vendors no channel crate). `close` wakes all waiters once
/// the producer is done; `close_now` additionally hands back the queued
/// items so a cut run can release their resident bytes promptly.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks while full; returns `false` (dropping nothing — the item
    /// is handed back implicitly by not enqueueing it) once closed.
    fn push(&self, item: T) -> bool {
        let mut st = self.lock();
        while st.items.len() >= st.capacity && !st.closed {
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Blocks while empty; `None` means closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Producer-side close: queued items remain poppable.
    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Consumer-side abort: closes and returns everything still queued.
    fn close_now(&self) -> Vec<T> {
        let mut st = self.lock();
        st.closed = true;
        let drained = st.items.drain(..).collect();
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drained
    }
}

/// One shard's recount contribution, awaiting its turn in the ordered
/// merge.
struct ShardPartial<P> {
    supports: Vec<u64>,
    acc: Vec<P>,
}

/// Merges per-shard partial tallies into the global accumulators in
/// ascending shard order, whatever order workers finish in.
///
/// This reproduces the sequential pass bit-for-bit: sequentially, shard
/// `k`'s contribution for candidate `id` is merged after shards
/// `0..k`'s and before shards `k+1..`'s, and contributions to distinct
/// candidates are independent — so replaying the per-shard partials in
/// ascending `k` performs the exact same sequence of `merge` calls per
/// candidate. The one extra step is that a worker first accumulates its
/// shard into `P::zero()`; the payload identity law
/// (`zero().merge(&x) == x`) makes that a no-op.
struct OrderedMerger<P> {
    state: Mutex<MergeState<P>>,
}

struct MergeState<P> {
    /// Next shard index awaiting its ordered merge.
    next: usize,
    /// Deposited-but-not-yet-merged partials (`None` = empty shard).
    slots: Vec<Option<ShardPartial<P>>>,
    /// Which shards have deposited.
    done: Vec<bool>,
    supports: Vec<u64>,
    acc: Vec<P>,
}

impl<P: Payload> OrderedMerger<P> {
    fn new(n_shards: usize, n_candidates: usize) -> Self {
        OrderedMerger {
            state: Mutex::new(MergeState {
                next: 0,
                slots: (0..n_shards).map(|_| None).collect(),
                done: vec![false; n_shards],
                supports: vec![0u64; n_candidates],
                acc: (0..n_candidates).map(|_| P::zero()).collect(),
            }),
        }
    }

    /// Records shard `k`'s partial and merges every shard that is now
    /// ready in order. Returns `false` if the recount must be abandoned
    /// (a payload merge panicked, poisoning the global sums).
    fn deposit(
        &self,
        k: usize,
        partial: Option<ShardPartial<P>>,
        shared: &SharedLimits<'_>,
    ) -> bool {
        let Ok(mut st) = self.state.lock() else {
            // A sibling worker panicked mid-merge; the run is already cut.
            return false;
        };
        st.done[k] = true;
        st.slots[k] = partial;
        // Catch a panicking payload merge *inside* the critical section
        // so the mutex is never poisoned by it; the run degrades to
        // WorkerPanic like every other contained panic.
        let merged = catch_unwind(AssertUnwindSafe(|| st.merge_ready()));
        if merged.is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            shared.trip(TruncationReason::WorkerPanic);
            return false;
        }
        true
    }

    fn into_results(self) -> (Vec<u64>, Vec<P>) {
        let st = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        (st.supports, st.acc)
    }
}

impl<P: Payload> MergeState<P> {
    fn merge_ready(&mut self) {
        while self.next < self.done.len() && self.done[self.next] {
            if let Some(partial) = self.slots[self.next].take() {
                for id in 0..self.supports.len() {
                    self.supports[id] += partial.supports[id];
                    self.acc[id].merge(&partial.acc[id]);
                }
            }
            self.next += 1;
        }
    }
}

/// What [`recount_pass`] hands back besides the tallies.
#[derive(Default)]
struct RecountPassStats {
    rows: u64,
    io_wait_us: u64,
    streamed_bytes: u64,
    compressed_bytes: u64,
    kernel_words: u64,
    cut: bool,
}

/// Recounts one already-materialized shard into a fresh partial and
/// deposits it. Returns `false` if the recount must be abandoned.
#[allow(clippy::too_many_arguments)]
fn process_shard<P: Payload>(
    k: usize,
    shard: &Shard<P>,
    candidates: &ItemsetArena<()>,
    merger: &OrderedMerger<P>,
    shared: &SharedLimits<'_>,
    rows: &AtomicU64,
    streamed: &AtomicU64,
    words: &mut u64,
) -> bool {
    if shard.db.is_empty() {
        // Empty shards still deposit so the ordered merge advances.
        return merger.deposit(k, None, shared);
    }
    rows.fetch_add(shard.db.len() as u64, Ordering::Relaxed);
    streamed.fetch_add(shard.approx_bytes(), Ordering::Relaxed);
    let mut partial = ShardPartial {
        supports: vec![0u64; candidates.len()],
        acc: (0..candidates.len()).map(|_| P::zero()).collect(),
    };
    // Same containment as the sequential pass: a payload merge that
    // panics poisons this shard's partial sums, so the whole recount is
    // abandoned (nothing emitted).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        recount_shard(
            shard,
            candidates,
            &mut partial.supports,
            &mut partial.acc,
            words,
            shared,
        )
    }));
    match outcome {
        Ok(true) => merger.deposit(k, Some(partial), shared),
        Ok(false) => false,
        Err(_) => {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            shared.trip(TruncationReason::WorkerPanic);
            false
        }
    }
}

/// Phase 2 as a pipeline: recounts every shard of `source` against
/// `candidates`, spreading shards over `n_threads` workers with up to
/// `prefetch` shards loaded ahead of consumption, and returns the
/// globally merged `(supports, acc)` tallies.
///
/// With `n_threads == 1 && prefetch == 0` this is the original
/// sequential loop (one shard resident at a time, merged in place).
/// With `prefetch > 0` a dedicated loader thread materializes shards
/// in order into a bounded queue while workers count; with
/// `n_threads > 1` and no prefetch, workers self-load off a shared
/// counter. Either way the per-shard partials are merged in ascending
/// shard order (see [`OrderedMerger`]), so the tallies are bit-identical
/// to the sequential pass. A budget cut or contained panic anywhere
/// sets `cut` — the caller emits nothing, exactly as before.
fn recount_pass<P, C>(
    source: &C,
    candidates: &ItemsetArena<()>,
    n_threads: usize,
    prefetch: usize,
    shared: &SharedLimits<'_>,
    resident: &ResidentGauge,
) -> (Vec<u64>, Vec<P>, RecountPassStats)
where
    P: Payload + Send + Sync,
    C: ShardSource<P>,
{
    let n_shards = source.n_shards();
    let n_workers = n_threads.min(n_shards).max(1);
    let mut pass = RecountPassStats::default();

    if n_workers == 1 && prefetch == 0 {
        // Sequential fast path: merge in place, no partials.
        let mut supports = vec![0u64; candidates.len()];
        let mut acc: Vec<P> = (0..candidates.len()).map(|_| P::zero()).collect();
        for k in 0..n_shards {
            if shared.poll() {
                pass.cut = true;
                break;
            }
            let io_start = Instant::now();
            let opened = source.open(k);
            let encoded = source.size_hint(k).unwrap_or(0);
            let shard = match catch_unwind(AssertUnwindSafe(|| opened.materialize())) {
                Ok(shard) => shard,
                Err(_) => {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    shared.trip(TruncationReason::WorkerPanic);
                    pass.cut = true;
                    break;
                }
            };
            pass.io_wait_us += io_start.elapsed().as_micros() as u64;
            pass.compressed_bytes += encoded;
            let bytes = shard.approx_bytes();
            resident.add(bytes);
            if !shard.db.is_empty() {
                pass.rows += shard.db.len() as u64;
                pass.streamed_bytes += bytes;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    recount_shard(
                        &shard,
                        candidates,
                        &mut supports,
                        &mut acc,
                        &mut pass.kernel_words,
                        shared,
                    )
                }));
                match outcome {
                    Ok(true) => {}
                    Ok(false) => {
                        resident.sub(bytes);
                        pass.cut = true;
                        break;
                    }
                    Err(_) => {
                        shared.panicked.fetch_add(1, Ordering::Relaxed);
                        shared.trip(TruncationReason::WorkerPanic);
                        resident.sub(bytes);
                        pass.cut = true;
                        break;
                    }
                }
            }
            resident.sub(bytes);
        }
        return (supports, acc, pass);
    }

    // Pipelined path.
    let cut = AtomicBool::new(false);
    let rows = AtomicU64::new(0);
    let io_wait = AtomicU64::new(0);
    let streamed = AtomicU64::new(0);
    let compressed = AtomicU64::new(0);
    let kernel_words = AtomicU64::new(0);
    let merger = OrderedMerger::new(n_shards, candidates.len());

    let mut worker_panics = 0usize;
    if prefetch == 0 {
        // Self-loading workers off a shared counter: loads overlap other
        // workers' counting.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut words = 0u64;
            loop {
                if cut.load(Ordering::Relaxed) || shared.stopped() {
                    break;
                }
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n_shards {
                    break;
                }
                if shared.poll() {
                    cut.store(true, Ordering::Relaxed);
                    break;
                }
                let io_start = Instant::now();
                let opened = source.open(k);
                let encoded = source.size_hint(k).unwrap_or(0);
                let shard = match catch_unwind(AssertUnwindSafe(|| opened.materialize())) {
                    Ok(shard) => shard,
                    Err(_) => {
                        shared.panicked.fetch_add(1, Ordering::Relaxed);
                        shared.trip(TruncationReason::WorkerPanic);
                        cut.store(true, Ordering::Relaxed);
                        break;
                    }
                };
                io_wait.fetch_add(io_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                compressed.fetch_add(encoded, Ordering::Relaxed);
                let bytes = shard.approx_bytes();
                resident.add(bytes);
                let ok = process_shard(
                    k, &shard, candidates, &merger, shared, &rows, &streamed, &mut words,
                );
                resident.sub(bytes);
                if !ok {
                    cut.store(true, Ordering::Relaxed);
                    break;
                }
            }
            kernel_words.fetch_add(words, Ordering::Relaxed);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                if handle.join().is_err() {
                    worker_panics += 1;
                }
            }
        });
    } else {
        // Loader + workers: a bounded queue holds up to `prefetch`
        // materialized shards ahead of consumption.
        let queue: BoundedQueue<(usize, Shard<P>)> = BoundedQueue::new(prefetch);
        let queue = &queue;
        let loader = || {
            for k in 0..n_shards {
                if cut.load(Ordering::Relaxed) || shared.stopped() {
                    break;
                }
                let opened = source.open(k);
                let encoded = source.size_hint(k).unwrap_or(0);
                let shard = match catch_unwind(AssertUnwindSafe(|| opened.materialize())) {
                    Ok(shard) => shard,
                    Err(_) => {
                        shared.panicked.fetch_add(1, Ordering::Relaxed);
                        shared.trip(TruncationReason::WorkerPanic);
                        cut.store(true, Ordering::Relaxed);
                        break;
                    }
                };
                compressed.fetch_add(encoded, Ordering::Relaxed);
                let bytes = shard.approx_bytes();
                resident.add(bytes);
                if !queue.push((k, shard)) {
                    // A worker aborted and closed the queue; the shard
                    // was dropped instead of enqueued.
                    resident.sub(bytes);
                    break;
                }
            }
            queue.close();
        };
        let worker = || {
            let mut words = 0u64;
            loop {
                let io_start = Instant::now();
                let item = queue.pop();
                io_wait.fetch_add(io_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                let Some((k, shard)) = item else { break };
                let bytes = shard.approx_bytes();
                let ok = if shared.poll() || cut.load(Ordering::Relaxed) {
                    false
                } else {
                    process_shard(
                        k, &shard, candidates, &merger, shared, &rows, &streamed, &mut words,
                    )
                };
                resident.sub(bytes);
                if !ok {
                    cut.store(true, Ordering::Relaxed);
                    for (_, dropped) in queue.close_now() {
                        resident.sub(dropped.approx_bytes());
                    }
                    break;
                }
            }
            kernel_words.fetch_add(words, Ordering::Relaxed);
        };
        std::thread::scope(|scope| {
            let loader_handle = scope.spawn(loader);
            let handles: Vec<_> = (0..n_workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                if handle.join().is_err() {
                    worker_panics += 1;
                }
            }
            // Workers are done; anything the loader still queues after
            // this point is unreachable — close and release it.
            for (_, dropped) in queue.close_now() {
                resident.sub(dropped.approx_bytes());
            }
            if loader_handle.join().is_err() {
                worker_panics += 1;
            }
        });
    }
    if worker_panics > 0 {
        shared.panicked.fetch_add(worker_panics, Ordering::Relaxed);
        shared.trip(TruncationReason::WorkerPanic);
        cut.store(true, Ordering::Relaxed);
    }

    pass.rows = rows.load(Ordering::Relaxed);
    pass.io_wait_us = io_wait.load(Ordering::Relaxed);
    pass.streamed_bytes = streamed.load(Ordering::Relaxed);
    pass.compressed_bytes = compressed.load(Ordering::Relaxed);
    pass.kernel_words = kernel_words.load(Ordering::Relaxed);
    pass.cut = cut.load(Ordering::Relaxed);
    let (supports, acc) = merger.into_results();
    (supports, acc, pass)
}

/// Runs the full two-pass scheme over `source`, streaming the globally
/// frequent itemsets (exact supports and payloads) into `sink` in
/// canonical order.
///
/// Phase 1 distributes shards over `n_threads` workers through a shared
/// work counter (idle workers steal the next un-mined shard). Phase 2 is
/// the pipelined recount ([`recount_pass`]): `n_threads` also spreads the
/// recount across workers, and `prefetch > 0` additionally overlaps IO by
/// loading up to that many shards ahead of consumption — the tallies stay
/// bit-identical to the sequential order either way. Returns the run's
/// [`Completeness`] verdict and its [`ShardStats`].
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn mine_into_bounded<P, C, S>(
    source: &C,
    params: &MiningParams,
    n_threads: usize,
    prefetch: usize,
    budget: &Budget,
    cancel: Option<&CancelToken>,
    sink: &mut S,
) -> (Completeness, ShardStats)
where
    P: Payload + Send + Sync,
    C: ShardSource<P>,
    S: ItemsetSink<P>,
{
    assert!(n_threads > 0, "need at least one thread");
    let start = Instant::now();
    let threshold = params.threshold();
    let max_len = params.max_len.unwrap_or(usize::MAX);
    let depth_cap = budget.max_depth.unwrap_or(usize::MAX);
    let n_shards = source.n_shards();
    let mut stats = ShardStats {
        n_shards,
        ..ShardStats::default()
    };
    if max_len == 0 || depth_cap == 0 || source.n_rows() == 0 {
        return (Completeness::Complete, stats);
    }

    let shared = SharedLimits::new(budget, cancel, start);
    let shared = &shared;
    let next = AtomicUsize::new(0);
    let resident = ResidentGauge::default();
    let shards_mined = AtomicU64::new(0);

    // Phase 1: local candidate mining over a work-stealing shard queue.
    let mine_start = Instant::now();
    let mine_span = obs::span("fpm.sharded.mine");
    let n_workers = n_threads.min(n_shards);
    let locals: Vec<ItemsetArena<()>> = if n_workers == 1 {
        vec![mine_shard_candidates(
            source,
            params,
            shared,
            &next,
            depth_cap,
            threshold,
            &resident,
            &shards_mined,
        )]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    scope.spawn(|| {
                        mine_shard_candidates(
                            source,
                            params,
                            shared,
                            &next,
                            depth_cap,
                            threshold,
                            &resident,
                            &shards_mined,
                        )
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
    };
    drop(mine_span);
    stats.shards_mined = shards_mined.load(Ordering::Relaxed);
    stats.mine_us = mine_start.elapsed().as_micros() as u64;
    obs::counter("fpm.sharded.shards_mined", stats.shards_mined);
    let mine_cut = shared.stopped();

    // Candidate union: merge the local arenas, canonicalize, dedup.
    let mut all = ItemsetArena::new();
    for local in locals {
        all.absorb(local);
    }
    all.sort_canonical();
    let mut candidates: ItemsetArena<()> = ItemsetArena::new();
    for id in 0..all.len() {
        let items = all.items(id);
        if candidates.is_empty() || candidates.items(candidates.len() - 1) != items {
            candidates.push(items, 0, ());
        }
    }
    drop(all);
    stats.candidates = candidates.len() as u64;
    stats.candidate_bytes = candidates.approx_bytes();
    obs::counter("fpm.sharded.candidates_union", stats.candidates);

    // Phase 2: the pipelined exact recount.
    let mut emitted = 0u64;
    if mine_cut {
        stats.truncated_phase = Some(ShardPhase::Mine);
    } else {
        let recount_start = Instant::now();
        let recount_span = obs::span("fpm.sharded.recount");
        let (supports, acc, pass) =
            recount_pass(source, &candidates, n_threads, prefetch, shared, &resident);
        stats.recount_rows = pass.rows;
        stats.io_wait_us = pass.io_wait_us;
        stats.streamed_bytes = pass.streamed_bytes;
        stats.compressed_bytes = pass.compressed_bytes;
        obs::counter("fpm.sharded.recount_rows", stats.recount_rows);
        kernels::publish_selected(pass.kernel_words);
        if pass.cut {
            stats.truncated_phase = Some(ShardPhase::Recount);
        } else {
            // Emission: exact global filter, canonical order. Only the
            // itemset cap applies here (candidate bytes were already
            // charged in phase 1).
            for id in 0..candidates.len() {
                if supports[id] < threshold {
                    continue;
                }
                if !shared.admit_count() {
                    break;
                }
                sink.emit(candidates.items(id), supports[id], &acc[id]);
                emitted += 1;
            }
        }
        drop(recount_span);
        stats.recount_us = recount_start.elapsed().as_micros() as u64;
    }
    stats.peak_shard_bytes = resident.peak();

    let completeness = match shared.resolve_reason() {
        None => Completeness::Complete,
        Some(reason) => Completeness::Truncated {
            reason,
            emitted,
            elapsed: start.elapsed(),
        },
    };
    (completeness, stats)
}

/// Exact per-candidate tallies of one recount pass, as [`recount`]
/// returns them: `supports[id]` and `payloads[id]` are the support and
/// the merged payload of `candidates.items(id)`, with no threshold
/// filter, so a caller can keep them aligned with the candidate arena.
///
/// A pass cut by the budget or the cancel token holds no tallies (both
/// vectors are empty): partially recounted sums never leave the engine.
/// Its verdict is truncated and [`ShardStats::truncated_phase`] reads
/// [`ShardPhase::Recount`].
#[derive(Debug, Clone)]
pub struct RecountTallies<P> {
    /// Support of each candidate, by candidate id.
    pub supports: Vec<u64>,
    /// Merged payload of each candidate's covering rows, by candidate id.
    pub payloads: Vec<P>,
    /// Whether the pass finished, and its [`ShardStats`] (always `Some`).
    pub verdict: MiningVerdict,
}

impl<P: Payload> RecountTallies<P> {
    /// Streams every candidate whose support meets `threshold` into
    /// `sink`, in candidate-id order, stopping after `max_itemsets`
    /// emissions when a cap is set. A cut pass streams nothing.
    ///
    /// Returns the completeness of the stream: the pass's own verdict
    /// when it was cut, [`TruncationReason::ItemsetLimit`] when the cap
    /// stopped the stream (the emitted prefix carries exact tallies),
    /// and [`Completeness::Complete`] otherwise.
    pub fn emit_frequent<S: ItemsetSink<P>>(
        &self,
        candidates: &ItemsetArena<()>,
        threshold: u64,
        max_itemsets: Option<u64>,
        sink: &mut S,
    ) -> Completeness {
        if self.verdict.completeness.is_truncated() {
            return self.verdict.completeness;
        }
        let start = Instant::now();
        let threshold = threshold.max(1);
        let mut emitted = 0u64;
        for (id, &support) in self.supports.iter().enumerate() {
            if support < threshold {
                continue;
            }
            if max_itemsets.is_some_and(|max| emitted >= max) {
                return Completeness::Truncated {
                    reason: TruncationReason::ItemsetLimit,
                    emitted,
                    elapsed: start.elapsed(),
                };
            }
            sink.emit(candidates.items(id), support, &self.payloads[id]);
            emitted += 1;
        }
        Completeness::Complete
    }
}

/// Recounts a previously mined candidate lattice against `source`:
/// every candidate's exact global support and freshly merged payload,
/// indexed by candidate id, with no threshold filter.
///
/// This is phase 2 of the two-pass scheme run alone, and the one
/// recount fold every warm path shares. The frequent-itemset lattice
/// depends only on the dataset and the threshold; a new payload vector
/// (e.g. a different classifier's label column) only changes the
/// payload tallies. Re-analysis therefore needs exactly this streaming
/// recount, never a fresh mining phase — the invariant the on-disk
/// artifact layer is built on. The source may hold any rows over the
/// candidates' item universe, e.g. only the rows whose payload changed.
///
/// The budget's deadline and the cancel token are polled throughout; a
/// cut pass returns empty tallies (see [`RecountTallies`]). The itemset
/// cap applies where candidates are emitted
/// ([`RecountTallies::emit_frequent`]); byte and depth caps were spent
/// when the lattice was mined.
///
/// `n_threads` and `prefetch` engage the same pipelined recount as
/// [`mine_into_bounded`]; `(1, 0)` is the sequential one-shard-resident
/// pass. Records the `fpm.sharded.recount` span and the
/// `fpm.sharded.recount_rows` counter.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn recount<P, C>(
    source: &C,
    candidates: &ItemsetArena<()>,
    n_threads: usize,
    prefetch: usize,
    budget: &Budget,
    cancel: Option<&CancelToken>,
) -> RecountTallies<P>
where
    P: Payload + Send + Sync,
    C: ShardSource<P>,
{
    assert!(n_threads > 0, "need at least one thread");
    let start = Instant::now();
    let mut stats = ShardStats {
        n_shards: source.n_shards(),
        candidates: candidates.len() as u64,
        candidate_bytes: candidates.approx_bytes(),
        ..ShardStats::default()
    };
    if candidates.is_empty() || source.n_rows() == 0 {
        return RecountTallies {
            supports: vec![0; candidates.len()],
            payloads: (0..candidates.len()).map(|_| P::zero()).collect(),
            verdict: MiningVerdict {
                completeness: Completeness::Complete,
                shards: Some(stats),
            },
        };
    }

    let shared = SharedLimits::new(budget, cancel, start);
    let resident = ResidentGauge::default();
    let recount_span = obs::span("fpm.sharded.recount");
    let (mut supports, mut payloads, pass) =
        recount_pass(source, candidates, n_threads, prefetch, &shared, &resident);
    stats.recount_rows = pass.rows;
    stats.io_wait_us = pass.io_wait_us;
    stats.streamed_bytes = pass.streamed_bytes;
    stats.compressed_bytes = pass.compressed_bytes;
    obs::counter("fpm.sharded.recount_rows", stats.recount_rows);
    kernels::publish_selected(pass.kernel_words);
    // Every cut trips a reason first (deadline, cancel or a contained
    // panic), so the reason alone decides whether the tallies are whole.
    let reason = shared.resolve_reason();
    debug_assert!(
        !pass.cut || reason.is_some(),
        "a cut recount names its reason"
    );
    if reason.is_some() {
        stats.truncated_phase = Some(ShardPhase::Recount);
        supports = Vec::new();
        payloads = Vec::new();
    }
    drop(recount_span);
    stats.recount_us = start.elapsed().as_micros() as u64;
    stats.peak_shard_bytes = resident.peak();

    let completeness = match reason {
        None => Completeness::Complete,
        Some(reason) => Completeness::Truncated {
            reason,
            emitted: 0,
            elapsed: start.elapsed(),
        },
    };
    RecountTallies {
        supports,
        payloads,
        verdict: MiningVerdict {
            completeness,
            shards: Some(stats),
        },
    }
}

/// Recounts a previously mined candidate lattice against `source` and
/// streams every candidate meeting `threshold` — with exact global
/// supports and freshly merged payloads — into `sink` in candidate-id
/// order: [`recount`] followed by [`RecountTallies::emit_frequent`].
///
/// Candidates must be canonical (as produced by [`mine_into_bounded`]
/// or [`ItemsetArena::sort_canonical`]) for the output to be canonical;
/// the recount itself never reorders. A budget cut mid-recount yields an
/// **empty** truncated result with [`ShardStats::truncated_phase`] =
/// [`ShardPhase::Recount`], matching the full pipeline: partially
/// recounted tallies are never emitted. An itemset cap tripped during
/// emission still yields a sound prefix.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn recount_into_bounded<P, C, S>(
    source: &C,
    candidates: &ItemsetArena<()>,
    threshold: u64,
    n_threads: usize,
    prefetch: usize,
    budget: &Budget,
    cancel: Option<&CancelToken>,
    sink: &mut S,
) -> (Completeness, ShardStats)
where
    P: Payload + Send + Sync,
    C: ShardSource<P>,
    S: ItemsetSink<P>,
{
    let tallies = recount(source, candidates, n_threads, prefetch, budget, cancel);
    let completeness = tallies.emit_frequent(candidates, threshold, budget.max_itemsets, sink);
    let stats = tallies
        .verdict
        .shards
        .expect("a recount always reports its shard statistics");
    (completeness, stats)
}

/// Unbounded single-threaded convenience over [`mine_into_bounded`].
pub fn mine_into<P, C, S>(source: &C, params: &MiningParams, sink: &mut S) -> ShardStats
where
    P: Payload + Send + Sync,
    C: ShardSource<P>,
    S: ItemsetSink<P>,
{
    let (_, stats) = mine_into_bounded(source, params, 1, 0, &Budget::unlimited(), None, sink);
    stats
}

/// Mines an in-memory table through `n_shards` shards into an arena —
/// the convenience form mirroring [`crate::parallel::mine_arena`].
pub fn mine_arena<P: Payload + Send + Sync>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    n_shards: usize,
) -> ItemsetArena<P> {
    let source = MemShardSource::new(db, payloads, n_shards);
    let mut arena = ItemsetArena::new();
    mine_into(&source, params, &mut arena);
    arena
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::sink::VecSink;

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

    fn payloads(n: usize) -> Vec<CountPayload> {
        (0..n).map(|t| CountPayload(t as u64 % 9)).collect()
    }

    #[test]
    fn local_threshold_preserves_completeness_bound() {
        // Σ t_k ≤ T + K − 1 ⇒ an itemset missed everywhere has support < T.
        for (total, global, splits) in [(40usize, 7u64, 4usize), (13, 5, 7), (8, 8, 3)] {
            let mut sum = 0u64;
            for k in 0..splits {
                let lo = k * total / splits;
                let hi = (k + 1) * total / splits;
                sum += local_threshold(global, hi - lo, total);
            }
            // Σ t_k ≤ T + K − 1, written strictly for clippy's sake.
            assert!(sum < global + splits as u64, "{total} {global} {splits}");
        }
    }

    #[test]
    fn sharded_matches_eclat_for_various_shard_counts() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(3);
        let mut reference = crate::eclat::mine(&db, &payloads, &params);
        crate::itemset::sort_canonical(&mut reference);
        for n_shards in [1, 2, 7, 64] {
            let got = mine_arena(&db, &payloads, &params, n_shards).into_itemsets();
            assert_eq!(got, reference, "n_shards={n_shards}");
        }
    }

    #[test]
    fn work_stealing_pool_matches_sequential() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(2);
        let expected = mine_arena(&db, &payloads, &params, 5).into_itemsets();
        for n_threads in [2, 3, 8] {
            let source = MemShardSource::new(&db, &payloads, 5);
            let mut sink = VecSink::new();
            let (completeness, stats) = mine_into_bounded(
                &source,
                &params,
                n_threads,
                0,
                &Budget::unlimited(),
                None,
                &mut sink,
            );
            assert_eq!(completeness, Completeness::Complete, "threads={n_threads}");
            assert_eq!(stats.shards_mined, 5);
            assert_eq!(stats.truncated_phase, None);
            assert_eq!(sink.found, expected, "threads={n_threads}");
        }
    }

    #[test]
    fn zero_row_shards_are_harmless() {
        // K far beyond the row count: trailing shards hold zero rows.
        let db = TransactionDb::from_rows(3, &[vec![0, 1], vec![0, 2], vec![1, 2], vec![0, 1]]);
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(2);
        let mut reference = crate::eclat::mine(&db, &payloads, &params);
        crate::itemset::sort_canonical(&mut reference);
        let got = mine_arena(&db, &payloads, &params, 11).into_itemsets();
        assert_eq!(got, reference);
    }

    #[test]
    fn empty_source_is_complete_and_empty() {
        let db = TransactionDb::from_rows::<Vec<u32>>(3, &[]);
        let payloads: Vec<CountPayload> = Vec::new();
        let arena = mine_arena(&db, &payloads, &MiningParams::with_min_support_count(1), 4);
        assert!(arena.is_empty());
    }

    #[test]
    fn expired_deadline_cuts_the_mine_phase_and_emits_nothing() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(1);
        let source = MemShardSource::new(&db, &payloads, 4);
        let budget = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
        let mut sink = VecSink::new();
        let (completeness, stats) =
            mine_into_bounded(&source, &params, 1, 0, &budget, None, &mut sink);
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::Timeout)
        );
        assert_eq!(stats.truncated_phase, Some(ShardPhase::Mine));
        assert!(sink.found.is_empty());
    }

    /// A source that fires a cancel token on the first phase-2 open,
    /// forcing a deterministic mid-recount cut.
    struct CancelOnRecount<'a> {
        inner: MemShardSource<'a, CountPayload>,
        opens: AtomicUsize,
        token: CancelToken,
    }

    impl ShardSource<CountPayload> for CancelOnRecount<'_> {
        fn n_shards(&self) -> usize {
            self.inner.n_shards()
        }
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn open(&self, k: usize) -> Box<dyn ShardHandle<CountPayload> + '_> {
            // Phase 1 opens every shard exactly once; the next open is
            // the recount's first.
            if self.opens.fetch_add(1, Ordering::Relaxed) == self.inner.n_shards() {
                self.token.cancel();
            }
            self.inner.open(k)
        }
    }

    #[test]
    fn cancellation_between_phases_reports_the_recount_phase() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(1);
        let token = CancelToken::new();
        let source = CancelOnRecount {
            inner: MemShardSource::new(&db, &payloads, 3),
            opens: AtomicUsize::new(0),
            token: token.clone(),
        };
        let mut sink = VecSink::new();
        let (completeness, stats) = mine_into_bounded(
            &source,
            &params,
            1,
            0,
            &Budget::unlimited(),
            Some(&token),
            &mut sink,
        );
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
        assert_eq!(stats.truncated_phase, Some(ShardPhase::Recount));
        assert!(sink.found.is_empty());
    }

    #[test]
    fn itemset_cap_at_emission_yields_an_exact_prefix() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(1);
        let full = mine_arena(&db, &payloads, &params, 4).into_itemsets();
        assert!(full.len() > 5);
        let source = MemShardSource::new(&db, &payloads, 4);
        let budget = Budget::unlimited().with_max_itemsets(5);
        let mut sink = VecSink::new();
        let (completeness, stats) =
            mine_into_bounded(&source, &params, 1, 0, &budget, None, &mut sink);
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::ItemsetLimit)
        );
        // The cut happened after both phases: not a phase truncation.
        assert_eq!(stats.truncated_phase, None);
        assert_eq!(sink.found.len(), 5);
        assert_eq!(sink.found, full[..5].to_vec());
    }

    #[test]
    fn recount_of_mined_candidates_matches_the_full_pipeline() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(3);
        let expected = mine_arena(&db, &payloads, &params, 4).into_itemsets();
        // Candidates are the mined lattice itself (supports reset by the
        // recount); a recount over any shard count reproduces it exactly.
        let candidates = ItemsetArena::from_itemsets(&expected).to_candidates();
        for n_shards in [1, 3, 7] {
            let source = MemShardSource::new(&db, &payloads, n_shards);
            let mut sink = VecSink::new();
            let (completeness, stats) = recount_into_bounded(
                &source,
                &candidates,
                params.threshold(),
                1,
                0,
                &Budget::unlimited(),
                None,
                &mut sink,
            );
            assert_eq!(completeness, Completeness::Complete, "K={n_shards}");
            assert_eq!(stats.shards_mined, 0);
            assert_eq!(stats.mine_us, 0);
            assert_eq!(stats.recount_rows, db.len() as u64);
            assert_eq!(sink.found, expected, "K={n_shards}");
        }
    }

    #[test]
    fn recount_filters_candidates_below_threshold() {
        let db = db();
        let payloads = payloads(db.len());
        // Mine permissively, recount strictly: the stricter threshold
        // must filter the candidate lattice down to its frequent core.
        let loose = MiningParams::with_min_support_count(1);
        let strict = MiningParams::with_min_support_count(6);
        let candidates = mine_arena(&db, &payloads, &loose, 2).to_candidates();
        let mut reference = crate::eclat::mine(&db, &payloads, &strict);
        crate::itemset::sort_canonical(&mut reference);
        let source = MemShardSource::new(&db, &payloads, 2);
        let mut sink = VecSink::new();
        let (completeness, _) = recount_into_bounded(
            &source,
            &candidates,
            strict.threshold(),
            1,
            0,
            &Budget::unlimited(),
            None,
            &mut sink,
        );
        assert_eq!(completeness, Completeness::Complete);
        assert_eq!(sink.found, reference);
    }

    #[test]
    fn cancelled_recount_emits_nothing_and_names_the_phase() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(1);
        let candidates = mine_arena(&db, &payloads, &params, 2).to_candidates();
        let token = CancelToken::new();
        token.cancel();
        let source = MemShardSource::new(&db, &payloads, 2);
        let mut sink = VecSink::new();
        let (completeness, stats) = recount_into_bounded(
            &source,
            &candidates,
            params.threshold(),
            1,
            0,
            &Budget::unlimited(),
            Some(&token),
            &mut sink,
        );
        assert_eq!(
            completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
        assert_eq!(stats.truncated_phase, Some(ShardPhase::Recount));
        assert!(sink.found.is_empty());
    }

    #[test]
    fn parallel_and_prefetched_recounts_match_the_sequential_pass() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(2);
        let expected = mine_arena(&db, &payloads, &params, 7).into_itemsets();
        for (threads, prefetch) in [(1, 2), (4, 0), (4, 2), (8, 5)] {
            let source = MemShardSource::new(&db, &payloads, 7);
            let mut sink = VecSink::new();
            let (completeness, stats) = mine_into_bounded(
                &source,
                &params,
                threads,
                prefetch,
                &Budget::unlimited(),
                None,
                &mut sink,
            );
            assert_eq!(
                completeness,
                Completeness::Complete,
                "threads={threads} prefetch={prefetch}"
            );
            assert_eq!(stats.recount_rows, db.len() as u64);
            assert!(stats.streamed_bytes > 0);
            assert_eq!(stats.compressed_bytes, 0, "mem source has no encoding");
            assert_eq!(
                sink.found, expected,
                "threads={threads} prefetch={prefetch}"
            );

            let candidates = ItemsetArena::from_itemsets(&expected).to_candidates();
            let mut resink = VecSink::new();
            let (re_comp, re_stats) = recount_into_bounded(
                &source,
                &candidates,
                params.threshold(),
                threads,
                prefetch,
                &Budget::unlimited(),
                None,
                &mut resink,
            );
            assert_eq!(re_comp, Completeness::Complete);
            assert_eq!(re_stats.recount_rows, db.len() as u64);
            assert_eq!(
                resink.found, expected,
                "threads={threads} prefetch={prefetch}"
            );
        }
    }

    #[test]
    fn cancelled_parallel_recount_emits_nothing_and_names_the_phase() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(1);
        let candidates = mine_arena(&db, &payloads, &params, 2).to_candidates();
        for (threads, prefetch) in [(4, 0), (1, 2), (4, 2)] {
            let token = CancelToken::new();
            token.cancel();
            let source = MemShardSource::new(&db, &payloads, 4);
            let mut sink = VecSink::new();
            let (completeness, stats) = recount_into_bounded(
                &source,
                &candidates,
                params.threshold(),
                threads,
                prefetch,
                &Budget::unlimited(),
                Some(&token),
                &mut sink,
            );
            assert_eq!(
                completeness.truncation_reason(),
                Some(TruncationReason::Cancelled),
                "threads={threads} prefetch={prefetch}"
            );
            assert_eq!(stats.truncated_phase, Some(ShardPhase::Recount));
            assert!(sink.found.is_empty());
        }
    }

    #[test]
    fn peak_resident_bytes_count_concurrent_shards_under_prefetch() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(2);
        let source = MemShardSource::new(&db, &payloads, 7);
        // One shard's footprint, for scale.
        let one_shard = source.open(0).materialize().approx_bytes();
        let mut sink = VecSink::new();
        let (_, stats) = mine_into_bounded(
            &source,
            &params,
            4,
            0,
            &Budget::unlimited(),
            None,
            &mut sink,
        );
        // With 4 phase-1 workers the gauge may legitimately exceed a
        // single shard; it can never report less than the largest one.
        assert!(
            stats.peak_shard_bytes >= one_shard,
            "peak {} < single shard {}",
            stats.peak_shard_bytes,
            one_shard
        );
        assert!(stats.io_wait_us <= stats.recount_us + stats.mine_us + 1_000_000);
        let ratio = stats.overlap_ratio();
        assert!((0.0..=1.0).contains(&ratio), "overlap_ratio {ratio}");
        assert_eq!(stats.compression_ratio(), None);
    }

    #[test]
    fn stats_report_memory_and_coverage() {
        let db = db();
        let payloads = payloads(db.len());
        let params = MiningParams::with_min_support_count(2);
        let source = MemShardSource::new(&db, &payloads, 4);
        // Shard 1 of 4 over 40 rows is the window [10, 20), and an
        // in-memory source knows no encoded size.
        let shard = source.open(1).materialize();
        assert_eq!(shard.start_row, 10);
        assert_eq!(shard.db.len(), 10);
        assert_eq!(shard.payloads, payloads[10..20]);
        assert_eq!(source.size_hint(1), None);
        let mut arena = ItemsetArena::new();
        let stats = mine_into(&source, &params, &mut arena);
        assert_eq!(stats.n_shards, 4);
        assert_eq!(stats.shards_mined, 4);
        assert_eq!(stats.recount_rows, db.len() as u64);
        assert!(stats.candidates >= arena.len() as u64);
        assert!(stats.peak_shard_bytes > 0);
        assert!(stats.candidate_bytes > 0);
        assert_eq!(stats.truncated_phase, None);
    }
}
