//! In-memory aggregating recorder and its human-readable summary.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::Recorder;

/// Aggregate wall-clock statistics of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans with this name.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

/// The aggregation core shared by [`StatsRecorder`] (alone behind a
/// mutex) and [`crate::LiveRecorder`] (fused with a flight ring behind
/// one mutex). All methods expect the caller to hold that lock.
#[derive(Default)]
pub(crate) struct Agg {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStat>,
    open_spans: u64,
    hists: BTreeMap<&'static str, Histogram>,
    latencies: BTreeMap<&'static str, Histogram>,
    open_requests: u64,
}

impl Agg {
    pub(crate) fn on_span_enter(&mut self) {
        self.open_spans += 1;
    }

    pub(crate) fn on_span_exit(&mut self, name: &'static str, dur_us: u64) {
        self.open_spans = self.open_spans.saturating_sub(1);
        let stat = self.spans.entry(name).or_default();
        stat.count += 1;
        stat.total_us += dur_us;
        stat.max_us = stat.max_us.max(dur_us);
    }

    pub(crate) fn on_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    pub(crate) fn on_histogram(&mut self, name: &'static str, hist: &Histogram) {
        self.hists.entry(name).or_default().merge(hist);
    }

    pub(crate) fn on_request_start(&mut self) {
        self.open_requests += 1;
    }

    pub(crate) fn on_request_end(&mut self, op: &'static str, dur_us: u64) {
        self.open_requests = self.open_requests.saturating_sub(1);
        self.latencies.entry(op).or_default().record(dur_us);
    }

    pub(crate) fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(&n, _)| n == name)
            .map_or(0, |(_, &v)| v)
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            open_spans: self.open_spans,
            hists: self
                .hists
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
            latencies: self
                .latencies
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
            open_requests: self.open_requests,
        }
    }
}

/// A [`Recorder`] that aggregates everything in memory: counters sum,
/// spans collapse to per-name `count/total/max`, histograms merge.
/// Cheap enough for production runs; the basis of `--stats` and
/// [`crate::RunReport`].
#[derive(Default)]
pub struct StatsRecorder {
    agg: Mutex<Agg>,
}

impl StatsRecorder {
    pub fn new() -> Self {
        StatsRecorder::default()
    }

    /// Current total of one counter, without cloning a full snapshot
    /// (cheap enough to call per request).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.agg.lock().unwrap().counter_value(name)
    }

    /// A point-in-time copy of everything aggregated so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.agg.lock().unwrap().snapshot()
    }
}

impl Recorder for StatsRecorder {
    fn span_enter(&self, _name: &'static str, _id: u64) {
        self.agg.lock().unwrap().on_span_enter();
    }

    fn span_exit(&self, name: &'static str, _id: u64, dur_us: u64) {
        self.agg.lock().unwrap().on_span_exit(name, dur_us);
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        self.agg.lock().unwrap().on_counter(name, delta);
    }

    fn merge_histogram(&self, name: &'static str, hist: &Histogram) {
        self.agg.lock().unwrap().on_histogram(name, hist);
    }

    fn request_start(&self, _id: u64, _op: &'static str) {
        self.agg.lock().unwrap().on_request_start();
    }

    fn request_end(&self, _id: u64, op: &'static str, dur_us: u64) {
        self.agg.lock().unwrap().on_request_end(op, dur_us);
    }
}

/// An owned copy of a [`StatsRecorder`]'s state, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// `(name, total)` pairs, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, stat)` pairs, name-ascending.
    pub spans: Vec<(String, SpanStat)>,
    /// Spans entered but not yet exited at snapshot time.
    pub open_spans: u64,
    /// `(name, histogram)` pairs, name-ascending.
    pub hists: Vec<(String, Histogram)>,
    /// Per-op request latency histograms (microseconds), op-ascending.
    /// Fed by `request_end` events from [`crate::request_scope`].
    pub latencies: Vec<(String, Histogram)>,
    /// Requests started but not yet ended at snapshot time.
    pub open_requests: u64,
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{b5}s")
    }
}

impl StatsSnapshot {
    /// Total of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Aggregate stats of the named span, if it ever completed.
    pub fn span(&self, name: &str) -> Option<SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|&(_, s)| s)
    }

    /// The named histogram, if anything was merged into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Latency histogram of the named request op, if any completed.
    pub fn latency(&self, op: &str) -> Option<&Histogram> {
        self.latencies.iter().find(|(n, _)| n == op).map(|(_, h)| h)
    }

    /// The mining engine of the recorded run, as its `fpm.mine.<engine>`
    /// span names it; `None` if the run mined nothing.
    pub fn engine(&self) -> Option<&str> {
        self.spans
            .iter()
            .find_map(|(name, _)| name.strip_prefix("fpm.mine."))
    }

    /// Renders the multi-line human summary printed by `--stats`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("── telemetry ──────────────────────────────────────\n");
        if !self.spans.is_empty() {
            out.push_str("spans (wall clock):\n");
            for (name, s) in &self.spans {
                out.push_str(&format!(
                    "  {name:<34} {:>6} \u{d7} {:>9}  (max {})\n",
                    s.count,
                    fmt_us(s.total_us),
                    fmt_us(s.max_us)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<34} {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.hists {
                out.push_str(&format!("  {name:<34} {}\n", hist_line(h)));
            }
        }
        if !self.latencies.is_empty() {
            out.push_str("request latency (per op):\n");
            for (op, h) in &self.latencies {
                out.push_str(&format!("  {op:<34} {}\n", hist_line(h)));
            }
        }
        if self.spans.is_empty()
            && self.counters.is_empty()
            && self.hists.is_empty()
            && self.latencies.is_empty()
        {
            out.push_str("  (no events recorded)\n");
        }
        out
    }
}

/// Summary of one histogram: `n`, `min`, `p50/p95/p99` bucket bounds
/// and `max` — or an explicit `(empty)` marker, instead of the
/// misleading `min=0 p50≤0 max=0` a bare `unwrap_or(0)` would print
/// when nothing was recorded.
fn hist_line(h: &Histogram) -> String {
    match (h.min(), h.max()) {
        (Some(min), Some(max)) => format!(
            "n={} min={min} p50\u{2264}{} p95\u{2264}{} p99\u{2264}{} max={max}",
            h.count(),
            h.quantile_le(0.50).unwrap_or(max),
            h.quantile_le(0.95).unwrap_or(max),
            h.quantile_le(0.99).unwrap_or(max),
        ),
        _ => "n=0 (empty)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_merge_across_parallel_workers() {
        // The satellite test: N workers hammer the same recorder; the
        // aggregate must be the exact sum with no lost updates.
        let rec = Arc::new(StatsRecorder::new());
        const WORKERS: u64 = 8;
        const PER_WORKER: u64 = 10_000;
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let rec = rec.clone();
                scope.spawn(move || {
                    let mut local = Histogram::new();
                    for i in 0..PER_WORKER {
                        rec.add_counter("work.items", 1);
                        local.record(w * PER_WORKER + i);
                    }
                    rec.add_counter("work.batches", 1);
                    rec.merge_histogram("work.values", &local);
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("work.items"), WORKERS * PER_WORKER);
        assert_eq!(snap.counter("work.batches"), WORKERS);
        let h = snap.histogram("work.values").unwrap();
        assert_eq!(h.count(), WORKERS * PER_WORKER);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(WORKERS * PER_WORKER - 1));
    }

    #[test]
    fn span_stats_aggregate_per_name() {
        let rec = StatsRecorder::new();
        rec.span_enter("phase", 1);
        rec.span_exit("phase", 1, 100);
        rec.span_enter("phase", 2);
        rec.span_exit("phase", 2, 300);
        rec.span_enter("other", 3);
        let snap = rec.snapshot();
        assert_eq!(
            snap.span("phase"),
            Some(SpanStat {
                count: 2,
                total_us: 400,
                max_us: 300
            })
        );
        assert_eq!(snap.span("other"), None, "unclosed spans don't aggregate");
        assert_eq!(snap.open_spans, 1);
    }

    #[test]
    fn the_engine_is_read_from_its_mine_span() {
        let rec = StatsRecorder::new();
        rec.span_enter("explore.mine", 1);
        rec.span_exit("explore.mine", 1, 10);
        assert_eq!(rec.snapshot().engine(), None);
        rec.span_enter("fpm.mine.dense", 2);
        rec.span_exit("fpm.mine.dense", 2, 9);
        assert_eq!(rec.snapshot().engine(), Some("dense"));
    }

    #[test]
    fn render_mentions_every_section() {
        let rec = StatsRecorder::new();
        rec.add_counter("c.a", 7);
        rec.span_enter("s.x", 1);
        rec.span_exit("s.x", 1, 1_500);
        let mut h = Histogram::new();
        h.record(42);
        rec.merge_histogram("h.y", &h);
        let text = rec.snapshot().render();
        assert!(text.contains("c.a"));
        assert!(text.contains('7'));
        assert!(text.contains("s.x"));
        assert!(text.contains("1.5ms"));
        assert!(text.contains("h.y"));
        assert!(StatsRecorder::new()
            .snapshot()
            .render()
            .contains("no events"));
    }

    #[test]
    fn render_prints_all_three_quantiles() {
        let rec = StatsRecorder::new();
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        rec.merge_histogram("lat", &h);
        let text = rec.snapshot().render();
        assert!(text.contains("p50\u{2264}"), "{text}");
        assert!(text.contains("p95\u{2264}"), "{text}");
        assert!(text.contains("p99\u{2264}"), "{text}");
    }

    #[test]
    fn render_marks_empty_histograms_instead_of_fake_bounds() {
        // An empty histogram must not render as `min=0 p50≤0 max=0`,
        // which reads as "observed zeros".
        let rec = StatsRecorder::new();
        rec.merge_histogram("empty", &Histogram::new());
        let text = rec.snapshot().render();
        assert!(text.contains("n=0 (empty)"), "{text}");
        assert!(!text.contains("p50\u{2264}0"), "{text}");
    }

    #[test]
    fn request_events_build_per_op_latency_histograms() {
        let rec = StatsRecorder::new();
        rec.request_start(1, "mine");
        rec.request_start(2, "query");
        rec.request_end(1, "mine", 1_000);
        rec.request_end(2, "query", 50);
        rec.request_start(3, "mine");
        rec.request_end(3, "mine", 3_000);
        rec.request_start(4, "mine"); // still in flight
        let snap = rec.snapshot();
        let mine = snap.latency("mine").unwrap();
        assert_eq!(mine.count(), 2);
        assert_eq!(mine.max(), Some(3_000));
        assert_eq!(snap.latency("query").unwrap().count(), 1);
        assert_eq!(snap.open_requests, 1);
        assert!(snap.render().contains("request latency"));
    }
}
