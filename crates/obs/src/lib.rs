//! Lightweight telemetry for the mining/exploration stack.
//!
//! The crate is deliberately tiny and has no external dependencies: a
//! [`Recorder`] trait (spans, counters, histograms), a global facade in
//! the style of the `log` crate, and three concrete recorders —
//! [`StatsRecorder`] (in-memory aggregation for `--stats` summaries and
//! [`RunReport`]s), [`NdjsonRecorder`] (newline-delimited JSON trace
//! events for `--trace-json`) and [`Tee`] (fan-out to both).
//!
//! # Overhead contract
//!
//! Instrumentation sites call the free functions [`counter`],
//! [`merge_histogram`] and [`span`]. When no recorder is installed each
//! call is one relaxed atomic load plus a predictable branch — nothing
//! else happens, no `Instant::now()`, no locking, no allocation. Hot
//! loops additionally batch locally (one `counter` call per lattice
//! node or per worker, never per element), so the *enabled* path stays
//! cheap too. The disabled path is benchmarked against the run itself
//! by `exp_overhead` in the `bench` crate; the contract is < 2% of
//! end-to-end mining wall clock.
//!
//! # Span model
//!
//! [`span`] returns a RAII guard: entering emits a `span_enter` event,
//! dropping the guard emits `span_exit` with the measured duration,
//! rounded to the nearest microsecond.
//! Span ids come from a global atomic counter, so concurrent spans from
//! parallel workers never collide. Timestamps are assigned *by the
//! recorder* (under its own lock for NDJSON), which makes the event
//! stream's `ts_us` monotone in file order by construction.

pub mod export;
mod flight;
mod hist;
mod live;
mod ndjson;
mod report;
mod request;
mod stats;

pub use flight::{FlightEvent, FlightRecorder, RequestTrace};
pub use hist::Histogram;
pub use live::LiveRecorder;
pub use ndjson::NdjsonRecorder;
pub use report::{CounterEntry, HistogramBucket, OverheadStat, PhaseTiming, RunReport};
pub use request::{
    current_request, request_scope, request_token, RequestAdoption, RequestScope, RequestToken,
};
pub use stats::{SpanStat, StatsRecorder, StatsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A telemetry backend. All methods take `&self`: recorders are shared
/// across threads (parallel mining workers record concurrently).
pub trait Recorder: Send + Sync {
    /// A named span was entered. `id` pairs this with its exit.
    fn span_enter(&self, name: &'static str, id: u64);

    /// The span `id` exited after `dur_us` microseconds (rounded to the
    /// nearest one).
    fn span_exit(&self, name: &'static str, id: u64, dur_us: u64);

    /// Adds `delta` to the named monotone counter.
    fn add_counter(&self, name: &'static str, delta: u64);

    /// Merges a locally-accumulated histogram into the named one.
    /// Instrumentation sites batch per-value observations locally and
    /// publish once, so this is called rarely.
    fn merge_histogram(&self, name: &'static str, hist: &Histogram);

    /// A logical request began. Emitted by [`request_scope`]; `id` is
    /// the service-assigned monotone request id and `op` the request's
    /// operation label. No-op by default — batch recorders that predate
    /// the request plane need not care.
    fn request_start(&self, _id: u64, _op: &'static str) {}

    /// The request `id` finished (successfully or not) after `dur_us`
    /// microseconds. No-op by default.
    fn request_end(&self, _id: u64, _op: &'static str, _dur_us: u64) {}

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-global telemetry backend and
/// enables the instrumentation fast path. Replaces any previous one.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap() = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Disables telemetry and returns the previously installed recorder
/// (flushing it first), if any.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    let prev = RECORDER.write().unwrap().take();
    if let Some(r) = &prev {
        r.flush();
    }
    prev
}

/// True iff a recorder is installed. Instrumentation sites may use this
/// to skip *computing* an observation; the free functions below already
/// check it themselves.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A handle to the currently installed recorder, if any. Lets a caller
/// that wants to *augment* telemetry (e.g. `serve` teeing its live
/// registry with a `--trace-json` recorder installed earlier) compose
/// with whatever is already there instead of silently replacing it.
pub fn current() -> Option<Arc<dyn Recorder>> {
    RECORDER.read().unwrap().clone()
}

fn with(f: impl FnOnce(&dyn Recorder)) {
    if let Some(r) = RECORDER.read().unwrap().as_ref() {
        f(r.as_ref());
    }
}

/// Adds `delta` to the named counter. No-op (one atomic load) when
/// telemetry is disabled or `delta` is zero.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with(|r| r.add_counter(name, delta));
}

/// Publishes a locally-accumulated [`Histogram`] under `name`. No-op
/// when telemetry is disabled or the histogram is empty.
#[inline]
pub fn merge_histogram(name: &'static str, hist: &Histogram) {
    if !enabled() || hist.is_empty() {
        return;
    }
    with(|r| r.merge_histogram(name, hist));
}

/// Flushes the installed recorder's buffered output, if any.
pub fn flush() {
    if enabled() {
        with(|r| r.flush());
    }
}

/// Opens a span; the returned guard closes it on drop. Inert (no clock
/// read, no allocation) when telemetry is disabled at entry.
#[inline]
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    with(|r| r.span_enter(name, id));
    SpanGuard(Some(ActiveSpan {
        name,
        id,
        start: Instant::now(),
    }))
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    start: Instant,
}

/// RAII guard returned by [`span`]; emits `span_exit` on drop.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Closes the span now instead of at end of scope.
    pub fn close(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            with(|r| r.span_exit(s.name, s.id, round_to_micros(s.start.elapsed())));
        }
    }
}

/// `d` in whole microseconds, rounded to the nearest one (halves round
/// up). Truncating would drop up to 1 µs from every span, which a trace
/// of sub-millisecond work can no longer attribute.
fn round_to_micros(d: Duration) -> u64 {
    ((d.as_nanos() + 500) / 1000) as u64
}

/// A recorder that fans every event out to each inner recorder, e.g.
/// aggregate stats *and* an NDJSON trace in one run.
pub struct Tee(pub Vec<Arc<dyn Recorder>>);

impl Recorder for Tee {
    fn span_enter(&self, name: &'static str, id: u64) {
        for r in &self.0 {
            r.span_enter(name, id);
        }
    }

    fn span_exit(&self, name: &'static str, id: u64, dur_us: u64) {
        for r in &self.0 {
            r.span_exit(name, id, dur_us);
        }
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        for r in &self.0 {
            r.add_counter(name, delta);
        }
    }

    fn merge_histogram(&self, name: &'static str, hist: &Histogram) {
        for r in &self.0 {
            r.merge_histogram(name, hist);
        }
    }

    fn request_start(&self, id: u64, op: &'static str) {
        for r in &self.0 {
            r.request_start(id, op);
        }
    }

    fn request_end(&self, id: u64, op: &'static str, dur_us: u64) {
        for r in &self.0 {
            r.request_end(id, op, dur_us);
        }
    }

    fn flush(&self) {
        for r in &self.0 {
            r.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_facade_is_inert() {
        // Not installed (tests in this crate never install globally):
        // the free functions must be callable and do nothing.
        assert!(!enabled());
        counter("x", 3);
        let mut h = Histogram::new();
        h.record(7);
        merge_histogram("h", &h);
        let g = span("s");
        drop(g);
        flush();
    }

    #[test]
    fn span_ids_are_unique_across_threads() {
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..100)
                            .map(|_| NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn spans_round_to_the_nearest_microsecond() {
        let us = |ns| round_to_micros(Duration::from_nanos(ns));
        assert_eq!(us(1_499), 1);
        assert_eq!(us(1_500), 2);
        assert_eq!(us(600), 1);
        assert_eq!(us(499), 0);
        assert_eq!(us(0), 0);
        assert_eq!(round_to_micros(Duration::from_millis(3)), 3_000);
    }

    #[test]
    fn tee_fans_out() {
        let a = Arc::new(StatsRecorder::default());
        let b = Arc::new(StatsRecorder::default());
        let tee = Tee(vec![a.clone(), b.clone()]);
        tee.add_counter("c", 2);
        tee.add_counter("c", 3);
        assert_eq!(a.snapshot().counter("c"), 5);
        assert_eq!(b.snapshot().counter("c"), 5);
    }
}
