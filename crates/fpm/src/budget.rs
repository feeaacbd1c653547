//! Bounded execution: budgets, cooperative cancellation and graceful
//! degradation.
//!
//! DivExplorer's soundness/completeness guarantee holds *per support
//! threshold*: at a pathologically low threshold the frequent-itemset
//! lattice explodes combinatorially, and an unbounded miner runs until it
//! exhausts memory or the caller gives up. This module makes resource
//! exhaustion a first-class, recoverable outcome instead of a hang:
//!
//! - [`Budget`] bounds a run along four axes — wall-clock time, emitted
//!   itemsets, approximate result-store bytes and lattice depth.
//! - [`CancelToken`] is a shareable flag (`Arc<AtomicBool>`) that any
//!   thread can fire to stop a run cooperatively.
//! - [`BudgetSink`] is a composable [`ItemsetSink`] adapter enforcing both
//!   in `emit` / [`ItemsetSink::wants_extensions`] /
//!   [`ItemsetSink::should_stop`]; it wraps any inner sink.
//! - [`Completeness`] is the verdict: budget-bounded runs never panic and
//!   never return an error-with-nothing — they return the partial result
//!   mined so far, tagged [`Completeness::Truncated`] with the reason.
//!
//! # Enforcement model
//!
//! Emission-side enforcement alone is not enough. Depth-first miners
//! (Eclat, dense, FP-growth, the naive oracle) consult `wants_extensions`
//! after every emission, so a `false` from an exhausted `BudgetSink`
//! prunes every subtree immediately. The merged-parallel
//! ([`crate::parallel`]) miner applies `wants_extensions` only where its
//! traversal order allows, and can spend unbounded time inside a single
//! worker subtree. Every miner therefore also polls
//! [`ItemsetSink::should_stop`] at periodic checkpoints (per root
//! subtree, per subtree node), which re-checks the deadline and the
//! cancel token even when no emission has happened for a while.
//!
//! A truncated run's output is always a subset of the unbudgeted run's
//! output with identical supports and payloads, and for the deterministic
//! sequential miners it is exactly an emission-order prefix (verified by
//! differential tests).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::ItemId;

/// How often (in emissions) the deadline and cancel token are re-polled
/// from `emit`. Checkpoint-driven polls via `should_stop` are unthrottled.
const POLL_MASK: u64 = 0xF;

/// Resource limits for one mining or exploration run.
///
/// All axes default to unlimited; combine with builder-style setters:
///
/// ```
/// use std::time::Duration;
/// use fpm::Budget;
///
/// let b = Budget::unlimited()
///     .with_timeout(Duration::from_millis(100))
///     .with_max_itemsets(10_000);
/// assert!(!b.is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the run, measured from the sink's creation.
    pub timeout: Option<Duration>,
    /// Maximum number of itemsets forwarded to the inner sink.
    pub max_itemsets: Option<u64>,
    /// Approximate cap on bytes a collecting store would retain
    /// (items + per-record bookkeeping; payload sizes are not counted).
    pub max_bytes: Option<u64>,
    /// Maximum lattice depth (itemset length) explored.
    pub max_depth: Option<usize>,
}

impl Budget {
    /// A budget with no limits (the identity adapter).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock limit.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the emitted-itemset cap.
    pub fn with_max_itemsets(mut self, max: u64) -> Self {
        self.max_itemsets = Some(max);
        self
    }

    /// Sets the approximate result-store byte cap.
    pub fn with_max_bytes(mut self, max: u64) -> Self {
        self.max_bytes = Some(max);
        self
    }

    /// Sets the lattice-depth cap.
    pub fn with_max_depth(mut self, max: usize) -> Self {
        self.max_depth = Some(max);
        self
    }

    /// True iff no axis is limited.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.max_itemsets.is_none()
            && self.max_bytes.is_none()
            && self.max_depth.is_none()
    }
}

/// A shareable cooperative-cancellation flag.
///
/// Clones share the flag; firing [`CancelToken::cancel`] from any thread
/// stops every bounded run holding a clone at its next checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True iff [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a bounded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The wall-clock budget elapsed.
    Timeout,
    /// The emitted-itemset cap was reached.
    ItemsetLimit,
    /// The approximate result-store byte cap was reached.
    MemoryLimit,
    /// The lattice-depth cap pruned at least one subtree.
    DepthLimit,
    /// A [`CancelToken`] was fired.
    Cancelled,
    /// One or more parallel worker subtrees, or a recount's payload
    /// merge, panicked and were contained; their results are missing.
    WorkerPanic,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TruncationReason::Timeout => "wall-clock budget elapsed",
            TruncationReason::ItemsetLimit => "itemset budget reached",
            TruncationReason::MemoryLimit => "memory budget reached",
            TruncationReason::DepthLimit => "depth budget reached",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::WorkerPanic => "worker subtree panicked",
        };
        f.write_str(s)
    }
}

/// The verdict of a bounded run: did the miner see the whole frequent
/// lattice, or only part of it?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completeness {
    /// Every frequent itemset was emitted; the soundness/completeness
    /// guarantee of Theorem 5.1 holds.
    Complete,
    /// The run stopped early; the emitted itemsets are a subset of the
    /// full result (exact supports/payloads, but not all of them).
    Truncated {
        /// Which limit stopped the run.
        reason: TruncationReason,
        /// Itemsets emitted before stopping.
        emitted: u64,
        /// Wall-clock time spent mining.
        elapsed: Duration,
    },
}

impl Completeness {
    /// True iff the run saw the whole lattice.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// True iff the run stopped early.
    pub fn is_truncated(&self) -> bool {
        !self.is_complete()
    }

    /// The truncation reason, if any.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        match self {
            Completeness::Complete => None,
            Completeness::Truncated { reason, .. } => Some(*reason),
        }
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Complete => f.write_str("complete"),
            Completeness::Truncated {
                reason,
                emitted,
                elapsed,
            } => write!(
                f,
                "truncated ({reason}; {emitted} itemsets in {:.1?})",
                elapsed
            ),
        }
    }
}

/// A composable sink adapter enforcing a [`Budget`] and a [`CancelToken`].
///
/// Wrap any inner sink; once a limit trips, every further emission is
/// dropped, `wants_extensions` answers `false` (pruning all depth-first
/// subtrees) and [`ItemsetSink::should_stop`] answers `true` (stopping
/// parallel and long counting passes at their next checkpoint).
/// The final [`BudgetSink::verdict`] reports what happened.
pub struct BudgetSink<S> {
    inner: S,
    budget: Budget,
    cancel: Option<CancelToken>,
    start: Instant,
    deadline: Option<Instant>,
    emitted: u64,
    bytes: u64,
    stopped: Option<TruncationReason>,
    depth_pruned: bool,
}

/// Approximate retained bytes for one stored itemset: its items plus a
/// record's fixed bookkeeping (offset/len/support in an arena).
fn itemset_cost(items: &[ItemId]) -> u64 {
    (std::mem::size_of_val(items) + 24) as u64
}

impl<S> BudgetSink<S> {
    /// Wraps `inner`, starting the wall clock now.
    pub fn new(inner: S, budget: Budget) -> Self {
        let start = Instant::now();
        BudgetSink {
            inner,
            budget,
            cancel: None,
            start,
            deadline: budget.timeout.map(|t| start + t),
            emitted: 0,
            bytes: 0,
            stopped: None,
            depth_pruned: false,
        }
    }

    /// Attaches a cancellation token (checked at every poll).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Itemsets forwarded to the inner sink so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The verdict so far: [`Completeness::Complete`] if no limit has
    /// tripped, otherwise the truncation record.
    pub fn verdict(&self) -> Completeness {
        let reason = match self.stopped {
            Some(reason) => reason,
            None if self.depth_pruned => TruncationReason::DepthLimit,
            None => return Completeness::Complete,
        };
        Completeness::Truncated {
            reason,
            emitted: self.emitted,
            elapsed: self.start.elapsed(),
        }
    }

    /// Recovers the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Borrows the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Re-checks the cancel token and the deadline. Unthrottled — callers
    /// on hot paths throttle themselves (see `POLL_MASK`).
    fn poll(&mut self) {
        if self.stopped.is_some() {
            return;
        }
        obs::counter("fpm.budget_checkpoints", 1);
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.stopped = Some(TruncationReason::Cancelled);
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stopped = Some(TruncationReason::Timeout);
        }
    }
}

impl<P: Payload, S: ItemsetSink<P>> ItemsetSink<P> for BudgetSink<S> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        if self.stopped.is_some() {
            return;
        }
        if self.budget.max_depth.is_some_and(|max| items.len() > max) {
            // Advisory-pruning miners can still generate over-deep
            // itemsets; suppress them and record the degradation.
            self.depth_pruned = true;
            return;
        }
        if self
            .budget
            .max_itemsets
            .is_some_and(|max| self.emitted >= max)
        {
            self.stopped = Some(TruncationReason::ItemsetLimit);
            return;
        }
        let bytes = self.bytes + itemset_cost(items);
        if self.budget.max_bytes.is_some_and(|max| bytes > max) {
            self.stopped = Some(TruncationReason::MemoryLimit);
            return;
        }
        if self.emitted & POLL_MASK == 0 {
            self.poll();
            if self.stopped.is_some() {
                return;
            }
        }
        self.bytes = bytes;
        self.emitted += 1;
        self.inner.emit(items, support, payload);
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        if self.stopped.is_some() {
            return false;
        }
        if self.budget.max_depth.is_some_and(|max| items.len() >= max) {
            self.depth_pruned = true;
            return false;
        }
        self.inner.wants_extensions(items, support)
    }

    fn should_stop(&mut self) -> bool {
        self.poll();
        self.stopped.is_some() || self.inner.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams};

    fn db() -> TransactionDb {
        let rows: Vec<Vec<u32>> = (0..32)
            .map(|t| {
                (0..6)
                    .filter(|&i| (t >> i) & 1 == 0 || t % 3 == 0)
                    .collect()
            })
            .collect();
        TransactionDb::from_rows(6, &rows)
    }

    #[test]
    fn unlimited_budget_is_the_identity() {
        let db = db();
        let params = MiningParams::with_min_support_count(2);
        let mut plain = VecSink::new();
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut plain);
        let mut sink = BudgetSink::new(VecSink::new(), Budget::unlimited());
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut sink);
        assert_eq!(sink.verdict(), Completeness::Complete);
        assert_eq!(sink.into_inner().found, plain.found);
    }

    #[test]
    fn max_itemsets_truncates_to_an_emission_prefix() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let mut plain = VecSink::new();
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut plain);
        assert!(plain.found.len() > 10);
        let budget = Budget::unlimited().with_max_itemsets(7);
        let mut sink = BudgetSink::new(VecSink::new(), budget);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut sink);
        match sink.verdict() {
            Completeness::Truncated {
                reason: TruncationReason::ItemsetLimit,
                emitted: 7,
                ..
            } => {}
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(sink.into_inner().found, plain.found[..7]);
    }

    #[test]
    fn max_bytes_truncates() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let budget = Budget::unlimited().with_max_bytes(200);
        let mut sink = BudgetSink::new(VecSink::new(), budget);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::FpGrowth)
            .run_into(&mut sink);
        assert_eq!(
            sink.verdict().truncation_reason(),
            Some(TruncationReason::MemoryLimit)
        );
        assert!(
            sink.emitted() > 0,
            "partial results, not error-with-nothing"
        );
    }

    #[test]
    fn max_depth_prunes_and_reports() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let budget = Budget::unlimited().with_max_depth(2);
        let mut sink = BudgetSink::new(VecSink::new(), budget);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut sink);
        assert_eq!(
            sink.verdict().truncation_reason(),
            Some(TruncationReason::DepthLimit)
        );
        assert!(sink.inner().found.iter().all(|fi| fi.items.len() <= 2));
    }

    #[test]
    fn cancel_token_stops_the_run() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let token = CancelToken::new();
        token.cancel();
        let mut sink = BudgetSink::new(VecSink::new(), Budget::unlimited()).with_cancel(token);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::Eclat)
            .run_into(&mut sink);
        assert_eq!(
            sink.verdict().truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn elapsed_deadline_times_out() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let budget = Budget::unlimited().with_timeout(Duration::ZERO);
        let mut sink = BudgetSink::new(VecSink::new(), budget);
        crate::MiningTask::with_params(&db, params.clone())
            .algorithm(Algorithm::FpGrowth)
            .run_into(&mut sink);
        assert_eq!(
            sink.verdict().truncation_reason(),
            Some(TruncationReason::Timeout)
        );
    }

    #[test]
    fn completeness_display_is_informative() {
        assert_eq!(Completeness::Complete.to_string(), "complete");
        let t = Completeness::Truncated {
            reason: TruncationReason::Timeout,
            emitted: 5,
            elapsed: Duration::from_millis(100),
        };
        assert!(t.to_string().contains("truncated"));
        assert!(t.to_string().contains("5 itemsets"));
    }
}
