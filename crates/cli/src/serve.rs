//! `serve`: a resident, fault-tolerant analysis service over NDJSON.
//!
//! One request per line on stdin, one JSON response per line on stdout.
//! The service keeps registered datasets in memory and mined lattices in
//! a byte-bounded LRU [`ArenaCache`]; with `--artifact DIR` it also
//! reads and writes the on-disk artifact registry, so a lattice is
//! mined at most once across restarts. Each registration keeps the
//! confusion cells of its registered predictions over a lattice (the
//! *base*). A lattice the session mines carries its base: the cells the
//! mine counted. A lattice loaded from the registry, or cached by
//! another registration, tallies its base on its first query, once.
//! Every query derives its metric from the base without reading a row,
//! and a query with a *new* prediction vector supplied inline recounts
//! only the rows where it differs from the registered one. Serving a
//! fresh model's analysis never re-mines.
//!
//! # Protocol
//!
//! ```text
//! {"op":"register","name":"d1","path":"data.csv","label":"y","pred":"yhat"}
//! {"op":"register","name":"d1","artifact":"dir/d1.dxd"}
//! {"op":"mine","name":"d1","support":0.1}
//! {"op":"query","name":"d1","support":0.1,"metric":"FPR","top":5}
//! {"op":"query","name":"d1","support":0.1,"u":[0,1,1,0]}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"metrics","format":"json"}
//! {"op":"trace"}
//! {"op":"trace","req":7}
//! {"op":"panic"}
//! {"op":"shutdown"}
//! ```
//!
//! Every response carries `"ok": true|false`; a malformed line or an
//! unknown op yields `{"ok":false,"error":...}` and the loop continues.
//! Only `shutdown` (or end of input) ends the loop. `register`, `mine`
//! and `query` take the CLI's `SHARED_KNOBS` as fields, checked by the
//! flags' own rules; the retired `shards` and `prefetch` fields fail the
//! request by name.
//!
//! # Fault model (see DESIGN.md §6h)
//!
//! The loop is built so that no single request — malformed, poisoned,
//! panicking or slow — can take the service down or wedge it:
//!
//! - **Panic isolation.** Each request runs under `catch_unwind`; a
//!   panicking handler produces `{"ok":false,...}` and the loop
//!   continues. `{"op":"panic"}` is a deliberate fault drill that
//!   exercises exactly this path.
//! - **Deadlines.** `--request-timeout-ms MS` wires a per-request
//!   wall-clock budget into the mining/recount [`fpm::Budget`]
//!   machinery; an over-budget request fails soft with a deadline
//!   message instead of holding the loop.
//! - **Quarantine + rebuild.** A corrupt, truncated or version-skewed
//!   registry artifact is renamed to `*.quarantine`, the request falls
//!   back cache → registry → cold mine, and the rebuilt lattice is
//!   re-persisted (crash-safely: temp file + fsync + atomic rename).
//!   The response carries a `warnings` array describing the recovery.
//! - **Soft persistence.** A failing registry write degrades to
//!   serving from memory with a warning, never to a failed request.
//!
//! # Live observability (see DESIGN.md §6i)
//!
//! Every request gets a monotone id and runs under an
//! [`obs::request_scope`], so all telemetry it emits — spans, counters,
//! histograms, even from parallel mining workers — is attributable to
//! it. The loop installs (teeing with any recorder already present,
//! e.g. `--trace-json`) one fused [`obs::LiveRecorder`] *plane* — the
//! metrics registry and the always-on flight recorder behind a single
//! lock, so every event pays one mutex and both views stay mutually
//! consistent — for the loop's lifetime:
//!
//! - The registry half is the **single source of truth** for every
//!   session counter. `stats` (operator-friendly JSON), `metrics`
//!   (Prometheus text exposition with per-op latency histograms and
//!   p50/p95/p99) and `--metrics-file` periodic snapshots are all
//!   derived views of the same registry — they cannot diverge.
//! - The flight half retains the last N requests' complete event
//!   streams in a fixed-size ring. `trace` dumps it; a panicking,
//!   timed-out or `--slow-ms`-slow request automatically dumps its own
//!   trace to stderr, so every soft failure ships its span tree.
//!
//! `stats` fields: `requests`, `failures`, `panics`, `timeouts`,
//! `quarantines`, `persist_failures`, `io_retries`, and the cache's
//! `cache_hits`/`cache_misses`/`cache_evictions`.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use datasets::artifact::{self, ArenaKey, DatasetArtifact};
use datasets::artifact_io::{self, DiskIo};
use divexplorer::{ArenaCache, LatticeTallies, SortBy};
use fpm::{ItemsetArena, TruncationReason};
use obs::LiveRecorder;
use serde_json::Value;

use crate::artifacts::mine_lattice;
use crate::{explorer_from_args, prepare, set_knob, Args, CliError, SHARED_KNOBS};

/// Default lattice-cache budget: 256 MiB of resident arenas.
const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

struct ServeState {
    /// On-disk artifact registry, if `--artifact DIR` was given.
    dir: Option<PathBuf>,
    datasets: HashMap<String, DatasetArtifact>,
    cache: ArenaCache,
    /// Each registration's base tallies, by registered name: one per
    /// lattice it mined or was queried on (see [`base_tallies`]).
    bases: HashMap<String, Vec<Base>>,
    /// The session's live telemetry plane: metrics registry and flight
    /// ring fused behind one lock — the single source of truth every
    /// counter in `stats`, `metrics`, `trace` and `--metrics-file`
    /// derives from.
    plane: Arc<LiveRecorder>,
}

/// The confusion tallies of one registration's `(v, u)` over one cached
/// lattice, kept from the mine that built the lattice or tallied on its
/// first query. A base is used only with the lattice it was tallied
/// over (the `Weak` identifies it and dies with its [`ArenaCache`] slot)
/// and the registration it was tallied from (re-registering a name
/// drops its bases). 16 bytes per candidate.
struct Base {
    lattice: Weak<ItemsetArena<()>>,
    tallies: LatticeTallies,
}

/// Serializes serve sessions' use of the process-global obs facade
/// (in-process test loops would otherwise cross-pollute registries).
static OBS_SESSION: Mutex<()> = Mutex::new(());

/// Installs the serve telemetry plane (the fused [`LiveRecorder`],
/// teeing with any recorder already present, e.g. `--trace-json`) for
/// the lifetime of the guard; restores the previous state on drop.
struct ObsSession {
    _lock: MutexGuard<'static, ()>,
    prev: Option<Arc<dyn obs::Recorder>>,
}

impl ObsSession {
    fn install(plane: Arc<LiveRecorder>) -> ObsSession {
        // A panicked serve test must not poison later sessions; the
        // lock only serializes, it guards no invariant of its own.
        let lock = OBS_SESSION
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let prev = obs::current();
        match prev.clone() {
            // The common production shape: the plane alone, no tee hop.
            None => obs::install(plane),
            Some(extra) => obs::install(Arc::new(obs::Tee(vec![plane, extra]))),
        }
        ObsSession { _lock: lock, prev }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(prev) => obs::install(prev),
            None => {
                obs::uninstall();
            }
        }
    }
}

/// Periodic `--metrics-file` snapshots: the registry rendered as a
/// Prometheus exposition, written through the crash-safe
/// [`artifact_io::atomic_write`] protocol so a scraper never reads a
/// torn file.
struct MetricsSink {
    path: Option<PathBuf>,
    interval: Duration,
    last_write: Option<Instant>,
}

impl MetricsSink {
    fn new(args: &Args) -> MetricsSink {
        MetricsSink {
            path: args.metrics_file.as_ref().map(PathBuf::from),
            interval: Duration::from_millis(args.metrics_interval_ms),
            last_write: None,
        }
    }

    fn maybe_write(&mut self, registry: &LiveRecorder, force: bool, diag: &mut dyn Write) {
        let Some(path) = &self.path else { return };
        let due = match self.last_write {
            None => true,
            Some(at) => at.elapsed() >= self.interval,
        };
        if !force && !due {
            return;
        }
        self.last_write = Some(Instant::now());
        let body = obs::export::prometheus(&registry.snapshot());
        if let Err(e) = artifact_io::atomic_write(&DiskIo, path, body.as_bytes()) {
            // Best-effort like all telemetry: a full disk must not take
            // down the service, but the operator should hear about it.
            obs::counter("serve.metrics_write_failures", 1);
            let _ = writeln!(
                diag,
                "serve: metrics snapshot {} failed: {e}",
                path.display()
            );
        }
    }
}

/// Maps the (possibly unparseable) request to a static op label for
/// request scoping and the per-op latency histograms.
fn op_label(parsed: &Result<Value, String>) -> &'static str {
    match parsed {
        Err(_) => "invalid",
        Ok(request) => match request["op"].as_str() {
            Some("register") => "register",
            Some("mine") => "mine",
            Some("query") => "query",
            Some("stats") => "stats",
            Some("metrics") => "metrics",
            Some("trace") => "trace",
            Some("panic") => "panic",
            Some("shutdown") => "shutdown",
            Some(_) => "unknown",
            None => "invalid",
        },
    }
}

/// Writes one flagged request's flight-recorder slice to the diagnostic
/// stream (stderr in production): a one-line header, then the trace as
/// NDJSON — the request's complete span tree.
fn dump_flagged_trace(
    flight: &LiveRecorder,
    req_id: u64,
    reason: &str,
    elapsed: Duration,
    diag: &mut dyn Write,
) {
    let header = format!(
        "serve: request {req_id} flagged ({reason}, {}ms); flight-recorder trace follows",
        elapsed.as_millis()
    );
    match flight.trace_of(req_id) {
        Some(trace) => {
            let _ = writeln!(diag, "{header}");
            let _ = diag.write_all(trace.render_ndjson().as_bytes());
        }
        None => {
            let _ = writeln!(diag, "{header} (trace already evicted)");
        }
    }
    let _ = diag.flush();
}

/// Runs the request loop until `shutdown` or end of input. Exposed over
/// generic reader/writer so tests drive it in-process. Flight-recorder
/// dumps for flagged requests go to stderr.
pub fn serve_loop<R: BufRead, W: Write>(args: &Args, input: R, out: W) -> Result<(), CliError> {
    serve_loop_with_diag(args, input, out, &mut std::io::stderr())
}

/// [`serve_loop`] with an explicit diagnostic stream, so tests can
/// capture the slow/panic/timeout trace dumps in-process.
pub fn serve_loop_with_diag<R: BufRead, W: Write>(
    args: &Args,
    mut input: R,
    mut out: W,
    diag: &mut dyn Write,
) -> Result<(), CliError> {
    let plane = Arc::new(LiveRecorder::default());
    let _obs = ObsSession::install(Arc::clone(&plane));
    let mut state = ServeState {
        dir: (!args.artifact.is_empty()).then(|| PathBuf::from(&args.artifact)),
        datasets: HashMap::new(),
        cache: ArenaCache::new(DEFAULT_CACHE_BYTES),
        bases: HashMap::new(),
        plane: Arc::clone(&plane),
    };
    let mut metrics_sink = MetricsSink::new(args);
    let mut next_request_id: u64 = 1;
    // Raw bytes, not `lines()`: a line that is not UTF-8 is one bad
    // request, answered like any other, not the end of the session.
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = input
            .read_until(b'\n', &mut buf)
            .map_err(|e| CliError::Input(format!("request stream: {e}")))?;
        if n == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let parsed: Result<Value, String> = match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => serde_json::from_str(text).map_err(|e| format!("bad request: {e}")),
            Err(e) => Err(format!("bad request: {e}")),
        };
        let req_id = next_request_id;
        next_request_id += 1;
        obs::counter("serve.requests", 1);
        let op = op_label(&parsed);
        let timeouts_before = plane.counter_value("serve.timeouts");
        let started = Instant::now();
        let mut panicked = false;
        // Per-request isolation: a panicking handler is contained here
        // and becomes a soft failure; the loop (and every registered
        // dataset and cached lattice) survives.
        let (mut response, shutdown) = {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The request scope lives *inside* catch_unwind so its
                // drop runs during unwinding — the flight recorder sees
                // request_end and the trace below is complete.
                let _req = obs::request_scope(req_id, op);
                let _span = obs::span("serve.request");
                handle_request(&mut state, args, &parsed)
            }));
            match outcome {
                Ok(reply) => reply,
                Err(payload) => {
                    panicked = true;
                    obs::counter("serve.panics", 1);
                    (
                        fail(format!(
                            "request handler panicked: {}; the service continues",
                            panic_message(&payload)
                        )),
                        false,
                    )
                }
            }
        };
        let elapsed = started.elapsed();
        if response["ok"].as_bool() != Some(true) {
            obs::counter("serve.failures", 1);
        }
        // Every soft failure ships its own trace: panics and expired
        // deadlines always dump, plus anything over `--slow-ms`.
        let timed_out = plane.counter_value("serve.timeouts") > timeouts_before;
        let slow = args
            .slow_ms
            .is_some_and(|ms| elapsed.as_millis() as u64 >= ms);
        if panicked || timed_out || slow {
            let reason = if panicked {
                "panic"
            } else if timed_out {
                "timeout"
            } else {
                "slow"
            };
            dump_flagged_trace(&plane, req_id, reason, elapsed, diag);
        }
        // A NaN or infinite statistic (a degenerate slice's divergence)
        // must not poison the response stream: non-finite floats become
        // JSON null, and serialization failure is itself a soft error.
        sanitize(&mut response);
        let text = serde_json::to_string(&response)
            .unwrap_or_else(|_| r#"{"ok":false,"error":"unserializable response"}"#.to_string());
        writeln!(out, "{text}").map_err(|e| CliError::Input(format!("response stream: {e}")))?;
        out.flush()
            .map_err(|e| CliError::Input(format!("response stream: {e}")))?;
        metrics_sink.maybe_write(&plane, false, diag);
        if shutdown {
            break;
        }
    }
    // Final snapshot so a scraper sees the session's last word.
    metrics_sink.maybe_write(&plane, true, diag);
    Ok(())
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Replaces every non-finite number in the tree with JSON `null`.
fn sanitize(value: &mut Value) {
    match value {
        Value::Number(n) if !n.is_finite() => *value = Value::Null,
        Value::Array(items) => items.iter_mut().for_each(sanitize),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, v)| sanitize(v)),
        _ => {}
    }
}

// ---------------------------------------------------------------------
// JSON plumbing (the serde shim has no `json!` macro; responses are
// built as literal `Value` trees).

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

fn ok(op: &str, mut extra: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![("ok", Value::Bool(true)), ("op", text(op))];
    fields.append(&mut extra);
    obj(fields)
}

fn fail(message: impl Into<String>) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String(message.into())),
    ])
}

fn str_field(request: &Value, key: &str) -> Option<String> {
    request[key].as_str().map(str::to_string)
}

fn require(request: &Value, key: &str) -> Result<String, Value> {
    str_field(request, key).ok_or_else(|| fail(format!("'{key}' (string) is required")))
}

/// Request fields of the retired shard pipeline. serve ignores unknown
/// fields, so these are refused by name rather than silently dropped.
const REMOVED_FIELDS: [&str; 2] = ["shards", "prefetch"];

/// The request's own [`Args`]: the session's flags with the request's
/// [`SHARED_KNOBS`] fields overlaid, each checked by the command line's
/// own rule ([`set_knob`]). Numeric knobs take JSON numbers only — a
/// string `"0.1"` is never coerced — and `--request-timeout-ms` becomes
/// the exploration deadline. A malformed field, or one of the
/// [`REMOVED_FIELDS`], fails the request before any side effect; an
/// absent one keeps the flag's value.
fn request_args(args: &Args, request: &Value) -> Result<Args, Value> {
    if let Some(field) = REMOVED_FIELDS.iter().find(|f| !request[**f].is_null()) {
        return Err(fail(format!(
            "'{field}' was removed: mining and the recount run on the resident table"
        )));
    }
    let mut overlaid = args.clone();
    for knob in SHARED_KNOBS {
        let raw = match (&request[knob], matches!(knob, "engine" | "metric")) {
            (Value::Null, _) => continue,
            (Value::String(s), true) => s.clone(),
            (Value::Number(n), false) => n.to_string(),
            (_, true) => return Err(fail(format!("'{knob}' must be a string"))),
            (_, false) => {
                return Err(fail(format!(
                    "'{knob}' must be a number; strings are not coerced"
                )))
            }
        };
        set_knob(&mut overlaid, knob, &raw).map_err(|e| fail(format!("'{knob}': {e}")))?;
    }
    overlaid.timeout_ms = args.request_timeout_ms.or(args.timeout_ms);
    Ok(overlaid)
}

/// Parses an optional label vector: JSON numbers (0/1) or booleans.
fn bool_vector(value: &Value, n_rows: usize) -> Result<Vec<bool>, Value> {
    let items = value
        .as_array()
        .ok_or_else(|| fail("'u' must be an array of 0/1 or booleans"))?;
    if items.len() != n_rows {
        return Err(fail(format!(
            "'u' has {} entries, dataset has {n_rows} rows",
            items.len()
        )));
    }
    items
        .iter()
        .map(|v| match (v.as_bool(), v.as_f64()) {
            (Some(b), _) => Ok(b),
            (None, Some(x)) if x == 0.0 || x == 1.0 => Ok(x == 1.0),
            _ => Err(fail("'u' entries must be 0/1 or booleans")),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Request dispatch

fn handle_request(
    state: &mut ServeState,
    args: &Args,
    parsed: &Result<Value, String>,
) -> (Value, bool) {
    let request = match parsed {
        Ok(v) => v,
        Err(e) => return (fail(e.clone()), false),
    };
    let op = match request["op"].as_str() {
        Some(op) => op.to_string(),
        None => return (fail("'op' (string) is required"), false),
    };
    let response = match op.as_str() {
        "register" => handle_register(state, args, request),
        "mine" => handle_mine(state, args, request),
        "query" => handle_query(state, args, request),
        "stats" => Ok(handle_stats(state)),
        "metrics" => handle_metrics(state, request),
        "trace" => handle_trace(state, request),
        // Deliberate fault drill: proves panic containment end to end.
        "panic" => panic!("panic op requested"),
        "shutdown" => return (ok("shutdown", vec![]), true),
        other => Err(fail(format!("unknown op '{other}'"))),
    };
    (response.unwrap_or_else(|e| e), false)
}

/// The `stats` reply. Every counter is read back from the obs registry
/// — the same store `metrics` renders — so the two views cannot
/// diverge; only the structural gauges (dataset/cache occupancy) come
/// from the state directly.
fn handle_stats(state: &ServeState) -> Value {
    let reg = &state.plane;
    ok(
        "stats",
        vec![
            ("datasets", num(state.datasets.len() as u64)),
            ("cached_lattices", num(state.cache.len() as u64)),
            ("resident_bytes", num(state.cache.resident_bytes())),
            ("capacity_bytes", num(state.cache.capacity_bytes())),
            ("requests", num(reg.counter_value("serve.requests"))),
            ("failures", num(reg.counter_value("serve.failures"))),
            ("panics", num(reg.counter_value("serve.panics"))),
            ("timeouts", num(reg.counter_value("serve.timeouts"))),
            ("quarantines", num(reg.counter_value("serve.quarantines"))),
            (
                "persist_failures",
                num(reg.counter_value("serve.persist_failures")),
            ),
            ("io_retries", num(reg.counter_value("artifact.io_retries"))),
            (
                "cache_hits",
                num(reg.counter_value("divexplorer.cache.hit")),
            ),
            (
                "cache_misses",
                num(reg.counter_value("divexplorer.cache.miss")),
            ),
            (
                "cache_evictions",
                num(reg.counter_value("divexplorer.cache.eviction")),
            ),
        ],
    )
}

/// The `metrics` reply: the registry as a Prometheus text exposition
/// (default), or as a machine-friendly JSON digest with
/// `"format":"json"`.
fn handle_metrics(state: &ServeState, request: &Value) -> Result<Value, Value> {
    let snap = state.plane.snapshot();
    match str_field(request, "format").as_deref() {
        None | Some("prometheus") => Ok(ok(
            "metrics",
            vec![
                ("format", text("prometheus")),
                ("body", text(obs::export::prometheus(&snap))),
            ],
        )),
        Some("json") => {
            let counters = Value::Object(
                snap.counters
                    .iter()
                    .map(|(name, v)| (name.clone(), num(*v)))
                    .collect(),
            );
            let latencies = Value::Object(
                snap.latencies
                    .iter()
                    .map(|(op, h)| {
                        let max = h.max().unwrap_or(0);
                        (
                            op.clone(),
                            obj(vec![
                                ("count", num(h.count())),
                                ("p50_le_us", num(h.quantile_le(0.50).unwrap_or(max))),
                                ("p95_le_us", num(h.quantile_le(0.95).unwrap_or(max))),
                                ("p99_le_us", num(h.quantile_le(0.99).unwrap_or(max))),
                                ("max_us", num(max)),
                            ]),
                        )
                    })
                    .collect(),
            );
            Ok(ok(
                "metrics",
                vec![
                    ("format", text("json")),
                    ("counters", counters),
                    ("latencies", latencies),
                    ("open_requests", num(snap.open_requests)),
                ],
            ))
        }
        Some(other) => Err(fail(format!(
            "unknown metrics format '{other}' (want 'prometheus' or 'json')"
        ))),
    }
}

/// The `trace` reply: the flight recorder's retained traces (or one
/// request's, with `"req":N`) rendered as NDJSON in `body`.
fn handle_trace(state: &ServeState, request: &Value) -> Result<Value, Value> {
    match &request["req"] {
        Value::Null => {
            let traces = state.plane.traces();
            Ok(ok(
                "trace",
                vec![
                    ("retained", num(traces.len() as u64)),
                    ("evicted", num(state.plane.evicted())),
                    (
                        "body",
                        text(
                            traces
                                .iter()
                                .map(obs::RequestTrace::render_ndjson)
                                .collect::<String>(),
                        ),
                    ),
                ],
            ))
        }
        v => {
            let id = v
                .as_u64()
                .ok_or_else(|| fail("'req' must be a request id (non-negative integer)"))?;
            let trace = state.plane.trace_of(id).ok_or_else(|| {
                fail(format!(
                    "request {id} is not in the flight recorder (never seen or evicted)"
                ))
            })?;
            Ok(ok(
                "trace",
                vec![
                    ("req", num(id)),
                    ("events", num(trace.events.len() as u64)),
                    ("body", text(trace.render_ndjson())),
                ],
            ))
        }
    }
}

fn handle_register(state: &mut ServeState, args: &Args, request: &Value) -> Result<Value, Value> {
    let name = require(request, "name")?;
    let mut csv_args = request_args(args, request)?;
    let registered = if let Some(path) = str_field(request, "artifact") {
        // A persisted dataset artifact: decoding re-validates checksum,
        // schema and the one-hot invariant.
        artifact::load_dataset(Path::new(&path)).map_err(|e| fail(format!("{path}: {e}")))?
    } else {
        let path = require(request, "path")?;
        csv_args.label = require(request, "label")?;
        csv_args.pred = require(request, "pred")?;
        let content = std::fs::read_to_string(&path).map_err(|e| fail(format!("{path}: {e}")))?;
        let prepared = prepare(&content, &csv_args).map_err(|e| fail(e.to_string()))?;
        DatasetArtifact {
            hash: artifact::dataset_hash(&prepared.data),
            data: prepared.data,
            v: prepared.v,
            u: prepared.u,
        }
    };
    let rows = registered.data.n_rows();
    let hash = registered.hash;
    state.datasets.insert(name.clone(), registered);
    // The old registration's predictions may differ even where its rows,
    // and so its lattices, do not.
    state.bases.remove(&name);
    Ok(ok(
        "register",
        vec![
            ("name", text(name)),
            ("rows", num(rows as u64)),
            ("hash", text(format!("{hash:016x}"))),
        ],
    ))
}

/// Maps a truncation to a soft error, counting deadline expiries.
fn truncation_failure(reason: TruncationReason, what: &str) -> Value {
    if matches!(
        reason,
        TruncationReason::Timeout | TruncationReason::Cancelled
    ) {
        obs::counter("serve.timeouts", 1);
        fail(format!(
            "request deadline expired during {what} ({reason}); raise \
             --request-timeout-ms or the support threshold"
        ))
    } else {
        fail(format!(
            "{what} truncated ({reason}); refusing to serve a partial lattice"
        ))
    }
}

/// The mine-or-load path shared by `mine` and `query`: the cache, then
/// the on-disk registry through [`artifact::resolve_lattice`] (verify,
/// quarantine a poisoned slot, mine, write through), or a plain cold
/// mine without `--artifact`. Every recovery step lands in `warnings`.
/// A lattice mined here seeds registration `name`'s base with the cells
/// the mine counted.
fn ensure_lattice(
    state: &mut ServeState,
    args: &Args,
    name: &str,
    warnings: &mut Vec<String>,
) -> Result<(Arc<ItemsetArena<()>>, &'static str), Value> {
    let reg = state
        .datasets
        .get(name)
        .ok_or_else(|| fail(format!("dataset '{name}' is not registered")))?;
    let key = ArenaKey::new(reg.hash, reg.data.n_rows(), args.support, args.engine);
    if let Some(arena) = state.cache.get(&key) {
        return Ok((arena, "cache"));
    }
    // A mine counts the registration's cells under its own predictions
    // as it goes; they become its base, so no query recounts the table.
    let mut mined = None;
    let mut mine = || {
        let (lattice, tallies) =
            mine_lattice(args, &reg.data, &reg.v, &reg.u).map_err(|e| match e {
                CliError::Truncated(reason) => truncation_failure(reason, "mining"),
                other => fail(other.to_string()),
            })?;
        mined = Some(tallies);
        Ok(lattice)
    };
    let (lattice, source) = match &state.dir {
        None => (mine()?, "mined"),
        Some(dir) => {
            let path = dir.join(artifact::arena_file_name(&key));
            let resolved = artifact::resolve_lattice(&DiskIo, &path, &key, mine)?;
            if resolved.quarantined {
                obs::counter("serve.quarantines", 1);
            }
            if resolved.persist_failed {
                obs::counter("serve.persist_failures", 1);
            }
            warnings.extend(resolved.warnings);
            (resolved.lattice, resolved.source)
        }
    };
    let arena = Arc::new(lattice);
    state.cache.insert(key, Arc::clone(&arena));
    // After the insert, so the sweep drops the bases of what it evicted.
    if let Some(tallies) = mined {
        base_tallies(&mut state.bases, name, &arena, || Ok(tallies))?;
    }
    Ok((arena, source))
}

/// Appends the warnings array to a successful response, if any.
fn with_warnings(mut response: Value, warnings: Vec<String>) -> Value {
    if !warnings.is_empty() {
        if let Value::Object(fields) = &mut response {
            fields.push((
                "warnings".to_string(),
                Value::Array(warnings.into_iter().map(Value::String).collect()),
            ));
        }
    }
    response
}

fn handle_mine(state: &mut ServeState, args: &Args, request: &Value) -> Result<Value, Value> {
    let name = require(request, "name")?;
    let args = request_args(args, request)?;
    let mut warnings = Vec::new();
    let (arena, source) = ensure_lattice(state, &args, &name, &mut warnings)?;
    Ok(with_warnings(
        ok(
            "mine",
            vec![
                ("name", text(name)),
                ("patterns", num(arena.len() as u64)),
                ("support", Value::Number(args.support)),
                ("source", text(source)),
            ],
        ),
        warnings,
    ))
}

/// The base tallies of registration `name` over `lattice`: kept from
/// the mine that built it, or tallied by `tally` on the first query
/// that needs them. Bases whose lattice left the cache are swept first.
/// A tally cut by the deadline or the cancel token fails soft and is
/// never cached, so the next query tallies anew.
fn base_tallies<'b>(
    bases: &'b mut HashMap<String, Vec<Base>>,
    name: &str,
    lattice: &Arc<ItemsetArena<()>>,
    tally: impl FnOnce() -> Result<LatticeTallies, Value>,
) -> Result<&'b LatticeTallies, Value> {
    bases.retain(|_, held| {
        held.retain(|base| base.lattice.strong_count() > 0);
        !held.is_empty()
    });
    let held = bases.entry(name.to_string()).or_default();
    let target = Arc::downgrade(lattice);
    let at = match held.iter().position(|base| base.lattice.ptr_eq(&target)) {
        Some(at) => at,
        None => {
            let tallies = tally()?;
            if let Some(reason) = tallies.completeness().truncation_reason() {
                return Err(truncation_failure(reason, "recount"));
            }
            held.push(Base {
                lattice: target,
                tallies,
            });
            held.len() - 1
        }
    };
    Ok(&held[at].tallies)
}

fn handle_query(state: &mut ServeState, args: &Args, request: &Value) -> Result<Value, Value> {
    let name = require(request, "name")?;
    // Validate every request field before ensure_lattice: a malformed
    // request must fail fast without side effects (no mine, no
    // quarantine, no registry write).
    let args = request_args(args, request)?;
    let n_rows = state
        .datasets
        .get(&name)
        .map(|reg| reg.data.n_rows())
        .ok_or_else(|| fail(format!("dataset '{name}' is not registered")))?;
    let u_override = if request["u"].is_null() {
        None
    } else {
        Some(bool_vector(&request["u"], n_rows)?)
    };
    let mut warnings = Vec::new();
    let (arena, source) = ensure_lattice(state, &args, &name, &mut warnings)?;
    let reg = &state.datasets[&name];
    let explorer = explorer_from_args(&args);

    // The warm path (see DESIGN.md §6g): the registered predictions'
    // base tallies, kept from the mine or tallied on the first query of
    // this lattice; an inline `u` recounts only the rows where it
    // differs from them. No mining phase runs.
    let base = base_tallies(&mut state.bases, &name, &arena, || {
        explorer
            .tally_lattice(&reg.data, &arena, &reg.v, &reg.u)
            .map_err(|e| fail(e.to_string()))
    })?;
    let retallied;
    let tallies = match &u_override {
        None => base,
        Some(u) => {
            retallied = explorer
                .retally(&reg.data, &arena, base, &reg.v, &reg.u, u)
                .map_err(|e| fail(e.to_string()))?;
            &retallied
        }
    };
    let report = explorer
        .report_from_tallies(&reg.data, &arena, tallies, &args.metrics)
        .map_err(|e| fail(e.to_string()))?;
    if let Some(reason) = report.completeness().truncation_reason() {
        // A cut recount holds no tallies, so a truncated one must fail
        // soft — not return empty results that look like "no divergence
        // anywhere".
        return Err(truncation_failure(reason, "recount"));
    }

    let mut rows = Vec::new();
    for idx in report.top_k(0, args.top, SortBy::Divergence) {
        rows.push(obj(vec![
            ("itemset", text(report.display_itemset(report.items(idx)))),
            ("support", Value::Number(report.support_fraction(idx))),
            ("divergence", Value::Number(report.divergence(idx, 0))),
            ("t", Value::Number(report.t_statistic(idx, 0))),
        ]));
    }
    Ok(with_warnings(
        ok(
            "query",
            vec![
                ("name", text(name)),
                ("metric", text(args.metrics[0].short_name())),
                ("dataset_rate", Value::Number(report.dataset_rate(0))),
                ("patterns", num(report.len() as u64)),
                ("source", text(source)),
                ("results", Value::Array(rows)),
            ],
        ),
        warnings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Command;
    use proptest::prelude::*;

    const CSV: &str = "\
grp,other,y,yhat
a,x,0,1
a,y,0,1
a,x,0,1
a,y,0,0
b,x,0,0
b,y,0,0
b,x,0,0
b,y,0,1
";

    fn serve_args(artifact_dir: &str) -> Args {
        let mut argv = vec!["serve".to_string()];
        if !artifact_dir.is_empty() {
            argv.extend(["--artifact".to_string(), artifact_dir.to_string()]);
        }
        let args = Args::parse(argv).unwrap();
        assert_eq!(args.command, Command::Serve);
        args
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cli-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Drives the loop over in-memory NDJSON and parses each response,
    /// also returning the captured diagnostic (trace-dump) stream.
    fn drive_with_diag(args: &Args, requests: &[&str]) -> (Vec<Value>, String) {
        let input = requests.join("\n");
        let mut out = Vec::new();
        let mut diag = Vec::new();
        serve_loop_with_diag(args, input.as_bytes(), &mut out, &mut diag).unwrap();
        let responses = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        (responses, String::from_utf8(diag).unwrap())
    }

    /// Drives the loop over in-memory NDJSON and parses each response.
    fn drive(args: &Args, requests: &[&str]) -> Vec<Value> {
        drive_with_diag(args, requests).0
    }

    fn register_line(csv_path: &std::path::Path) -> String {
        format!(
            r#"{{"op":"register","name":"toy","path":"{}","label":"y","pred":"yhat"}}"#,
            csv_path.display()
        )
    }

    #[test]
    fn register_mine_query_roundtrip() {
        let dir = temp_dir("roundtrip");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":3}"#,
                r#"{"op":"stats"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        assert_eq!(responses.len(), 6);
        for r in &responses {
            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
        }
        assert_eq!(responses[0]["rows"].as_u64(), Some(8));
        assert_eq!(responses[1]["source"].as_str(), Some("mined"));
        assert_eq!(responses[2]["source"].as_str(), Some("cache"));
        let results = responses[3]["results"].as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0]["itemset"].as_str(), Some("grp=a, other=x"));
        assert!((results[0]["divergence"].as_f64().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(responses[4]["cached_lattices"].as_u64(), Some(1));
        assert_eq!(responses[4]["requests"].as_u64(), Some(5));
        assert_eq!(responses[4]["failures"].as_u64(), Some(0));
        assert_eq!(responses[4]["panics"].as_u64(), Some(0));
        assert_eq!(responses[4]["quarantines"].as_u64(), Some(0));
        assert!(responses[4]["cache_hits"].as_u64().unwrap() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_with_an_inline_label_vector_recounts_without_remining() {
        let dir = temp_dir("relabel");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        // A second query predicts positive everywhere: every subgroup's
        // FPR equals the overall rate, so all divergences collapse to
        // zero — while the lattice is served from cache, not re-mined.
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"query","name":"toy","support":0.25,"top":1}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":1,"u":[1,1,1,1,1,1,1,1]}"#,
            ],
        );
        assert_eq!(responses[1]["source"].as_str(), Some("mined"));
        assert_eq!(responses[2]["source"].as_str(), Some("cache"));
        assert_eq!(responses[1]["patterns"], responses[2]["patterns"]);
        let before = responses[1]["results"][0]["divergence"].as_f64().unwrap();
        let after = responses[2]["results"][0]["divergence"].as_f64().unwrap();
        assert!((before - 0.5).abs() < 1e-9, "{before}");
        assert!(after.abs() < 1e-9, "{after}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lattices_persist_to_the_artifact_registry_across_restarts() {
        let dir = temp_dir("registry");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let registry = dir.join("artifacts");
        let args = serve_args(registry.to_str().unwrap());
        let register = register_line(&csv_path);
        let mine = r#"{"op":"mine","name":"toy","support":0.25}"#;
        let first = drive(&args, &[&register, mine]);
        assert_eq!(first[1]["source"].as_str(), Some("mined"));
        // A fresh loop (fresh cache) finds the persisted artifact.
        let second = drive(&args, &[&register, mine]);
        assert_eq!(second[1]["source"].as_str(), Some("artifact"));
        assert_eq!(second[1]["patterns"], first[1]["patterns"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_accepts_a_dataset_artifact() {
        let dir = temp_dir("from-artifact");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        // First loop registers from CSV and we persist the dataset via
        // the artifact API; second loop registers from the artifact.
        let mut csv_args = serve_args("");
        csv_args.label = "y".to_string();
        csv_args.pred = "yhat".to_string();
        let prepared = prepare(CSV, &csv_args).unwrap();
        let ds_path = dir.join("toy.dxd");
        artifact::save_dataset(&ds_path, &prepared.data, &prepared.v, &prepared.u).unwrap();

        let register = format!(
            r#"{{"op":"register","name":"toy","artifact":"{}"}}"#,
            ds_path.display()
        );
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"query","name":"toy","support":0.25,"top":1}"#,
            ],
        );
        assert_eq!(responses[0]["ok"].as_bool(), Some(true));
        assert_eq!(responses[0]["rows"].as_u64(), Some(8));
        assert_eq!(
            responses[1]["results"][0]["itemset"].as_str(),
            Some("grp=a, other=x")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_requests_fail_soft_and_the_loop_continues() {
        let responses = drive(
            &serve_args(""),
            &[
                "this is not json",
                r#"{"no_op_field":1}"#,
                r#"{"op":"launch"}"#,
                r#"{"op":"mine","name":"ghost"}"#,
                r#"{"op":"register","name":"x"}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(responses.len(), 6);
        for r in &responses[..5] {
            assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
            assert!(r["error"].as_str().is_some());
        }
        assert_eq!(responses[5]["ok"].as_bool(), Some(true));
        assert_eq!(responses[5]["failures"].as_u64(), Some(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any byte line is one request: invalid UTF-8, control bytes or
        /// JSON of the wrong shape each get exactly one typed `ok:false`
        /// reply and count as a failure, and a final `stats` still
        /// answers. Lines are printable ASCII or raw bytes, half each.
        #[test]
        fn every_byte_line_gets_one_typed_failure_and_the_loop_goes_on(
            lines in prop::collection::vec(
                (any::<bool>(), prop::collection::vec(any::<u8>(), 1..48)),
                1..8,
            ),
        ) {
            let mut input = Vec::new();
            let mut utf8 = Vec::new();
            for (ascii, mut bytes) in lines {
                for b in &mut bytes {
                    if ascii {
                        *b = b' ' + *b % 95;
                    } else if *b == b'\n' {
                        *b = 0xFF;
                    }
                }
                let text = std::str::from_utf8(&bytes);
                // Blank lines are skipped by the protocol, not answered.
                if text.is_ok_and(|t| t.trim().is_empty()) {
                    continue;
                }
                utf8.push(text.is_ok());
                input.extend_from_slice(&bytes);
                input.push(b'\n');
            }
            input.extend_from_slice(br#"{"op":"stats"}"#);
            let mut out = Vec::new();
            serve_loop_with_diag(&serve_args(""), input.as_slice(), &mut out, &mut Vec::new())
                .unwrap();
            let responses: Vec<Value> = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(|line| serde_json::from_str(line).unwrap())
                .collect();
            prop_assert_eq!(responses.len(), utf8.len() + 1);
            for (r, &is_utf8) in responses.iter().zip(&utf8) {
                prop_assert_eq!(r["ok"].as_bool(), Some(false), "{:?}", r);
                let error = r["error"].as_str().unwrap_or_default();
                prop_assert!(is_utf8 || error.starts_with("bad request: "), "{:?}", r);
                prop_assert!(!error.is_empty(), "{:?}", r);
            }
            let stats = &responses[utf8.len()];
            prop_assert_eq!(stats["ok"].as_bool(), Some(true));
            prop_assert_eq!(stats["failures"].as_u64(), Some(utf8.len() as u64));
        }
    }

    #[test]
    fn engine_spellings_share_one_lattice_and_unknown_engines_touch_nothing() {
        let dir = temp_dir("engine-key");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let registry = dir.join("artifacts");
        let args = serve_args(registry.to_str().unwrap());
        let register = register_line(&csv_path);
        let registry_files = || -> Vec<std::path::PathBuf> {
            let mut files: Vec<_> = std::fs::read_dir(&registry)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            files.sort();
            files
        };
        let responses = drive(
            &args,
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25,"engine":"Dense"}"#,
                r#"{"op":"mine","name":"toy","support":0.25,"engine":"dense"}"#,
                r#"{"op":"mine","name":"toy","support":0.25,"engine":" dense "}"#,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"mine","name":"toy","support":0.25,"engine":"fp-growth"}"#,
            ],
        );
        assert_eq!(responses[1]["source"].as_str(), Some("mined"));
        assert_eq!(responses[2]["source"].as_str(), Some("cache"));
        assert_eq!(responses[3]["source"].as_str(), Some("cache"));
        // A request that names no engine keys `dense`, the default.
        assert_eq!(responses[4]["source"].as_str(), Some("cache"));
        // Another engine is another key: the same lattice, mined again
        // into a second slot.
        assert_eq!(responses[5]["source"].as_str(), Some("mined"));
        assert_eq!(responses[5]["patterns"], responses[1]["patterns"]);
        let files = registry_files();
        let dxa: Vec<String> = files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "dxa"))
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(dxa.len(), 2, "{files:?}");
        assert!(dxa.iter().any(|f| f.ends_with("-dense.dxa")), "{dxa:?}");
        assert!(dxa.iter().any(|f| f.ends_with("-fp-growth.dxa")), "{dxa:?}");

        // An unknown engine is rejected before the cache or the registry
        // is consulted, naming the engines that exist.
        let responses = drive(
            &args,
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25,"engine":"apriori"}"#,
            ],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(false));
        let error = responses[1]["error"].as_str().unwrap();
        for engine in ["fp-growth", "eclat", "dense"] {
            assert!(error.contains(engine), "{error}");
        }
        assert_eq!(registry_files(), files);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_malformed_support_field_is_rejected_not_defaulted() {
        let dir = temp_dir("bad-support");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        // A string support must NOT silently mine at the CLI default
        // (0.05) — that would serve tallies at a threshold the caller
        // never asked for.
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":"0.25"}"#,
                r#"{"op":"query","name":"toy","support":1.5}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":"three"}"#,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
            ],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(false));
        assert!(
            responses[1]["error"].as_str().unwrap().contains("support"),
            "{:?}",
            responses[1]
        );
        assert_eq!(responses[2]["ok"].as_bool(), Some(false));
        assert!(responses[2]["error"].as_str().unwrap().contains("(0, 1]"));
        assert_eq!(responses[3]["ok"].as_bool(), Some(false));
        assert!(responses[3]["error"].as_str().unwrap().contains("top"));
        // The loop continued and a well-formed request still succeeds.
        assert_eq!(responses[4]["ok"].as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_knob_fields_parse_strictly_and_keep_results_identical() {
        let dir = temp_dir("scale-knobs");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        // Malformed knobs and the retired shard fields are hard errors
        // (no silent CLI-default fallback, no side effects); a
        // well-formed thread count changes the mining engine but never
        // the tallies.
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25,"threads":"4"}"#,
                r#"{"op":"query","name":"toy","support":0.25,"shards":3}"#,
                r#"{"op":"query","name":"toy","support":0.25,"prefetch":2}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":3}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":3,"threads":4}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        for (i, field) in [(1, "threads"), (2, "shards"), (3, "prefetch")] {
            assert_eq!(responses[i]["ok"].as_bool(), Some(false), "{i}");
            assert!(
                responses[i]["error"].as_str().unwrap().contains(field),
                "{:?}",
                responses[i]
            );
        }
        assert_eq!(
            responses[4]["ok"].as_bool(),
            Some(true),
            "{:?}",
            responses[4]
        );
        assert_eq!(
            responses[5]["ok"].as_bool(),
            Some(true),
            "{:?}",
            responses[5]
        );
        assert_eq!(responses[4]["patterns"], responses[5]["patterns"]);
        assert_eq!(responses[4]["results"], responses[5]["results"]);
        // The refused queries must not have mined anything: the first
        // well-formed query is the one that reports "mined".
        assert_eq!(responses[4]["source"].as_str(), Some("mined"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// (knob, command-line value, request JSON value): each value breaks
    /// the knob's one rule. JSON cannot spell NaN, so the request side
    /// uses a string where the command line uses a non-number.
    const BAD_KNOBS: [(&str, &str, &str); 16] = [
        ("support", "0", "0"),
        ("support", "1.5", "1.5"),
        ("support", "-0.25", "-0.25"),
        ("support", "nan", r#""0.25""#),
        ("engine", "apriori", r#""apriori""#),
        ("engine", "sharded", r#""sharded""#),
        ("metric", "NOPE", r#""NOPE""#),
        ("metric", "FPR,FPR", r#""FPR,FPR""#),
        ("top", "-1", "-1"),
        ("top", "2.5", "2.5"),
        ("bins", "0", "0"),
        ("bins", "-3", r#""3""#),
        ("threads", "0", "0"),
        ("threads", "1.5", "1.5"),
        // The retired shard pipeline's knobs, at values they used to take.
        ("shards", "3", "3"),
        ("prefetch", "2", "2"),
    ];

    #[test]
    fn bad_knob_values_are_rejected_alike_by_the_cli_and_serve() {
        let dir = temp_dir("bad-knobs");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let mut requests = vec![register_line(&csv_path)];
        for (knob, _, json) in BAD_KNOBS {
            requests.push(format!(
                r#"{{"op":"register","name":"again","path":"{}","label":"y","pred":"yhat","{knob}":{json}}}"#,
                csv_path.display()
            ));
            requests.push(format!(r#"{{"op":"mine","name":"toy","{knob}":{json}}}"#));
            requests.push(format!(r#"{{"op":"query","name":"toy","{knob}":{json}}}"#));
        }
        requests.push(r#"{"op":"stats"}"#.to_string());
        let lines: Vec<&str> = requests.iter().map(String::as_str).collect();
        let responses = drive(&serve_args(""), &lines);
        assert_eq!(responses.len(), lines.len());
        assert_eq!(responses[0]["ok"].as_bool(), Some(true));

        for (i, (knob, cli, _)) in BAD_KNOBS.iter().enumerate() {
            let argv = format!("explore --input mem.csv --label y --pred yhat --{knob} {cli}");
            let err = Args::parse(argv.split_whitespace().map(String::from)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--{knob} {cli}: {err}");
            assert!(err.to_string().contains(&format!("--{knob}")), "{err}");

            for r in &responses[1 + 3 * i..4 + 3 * i] {
                assert_eq!(r["ok"].as_bool(), Some(false), "{knob}: {r:?}");
                let error = r["error"].as_str().unwrap();
                assert!(error.contains(&format!("'{knob}'")), "{knob}: {error}");
            }
        }
        let stats = responses.last().unwrap();
        assert_eq!(stats["datasets"].as_u64(), Some(1), "{stats:?}");
        assert_eq!(stats["cached_lattices"].as_u64(), Some(0), "{stats:?}");
        assert_eq!(stats["panics"].as_u64(), Some(0), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The rows request `trace`'s recounts read: the sum of its
    /// `fpm.sharded.recount_rows` counter events.
    fn recount_rows_of(trace: &Value) -> u64 {
        trace["body"]
            .as_str()
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str::<Value>(line).unwrap())
            .filter(|ev| ev["ev"] == "counter" && ev["name"] == "fpm.sharded.recount_rows")
            .map(|ev| ev["delta"].as_u64().unwrap())
            .sum()
    }

    /// Whether request `trace` ran a recount layer: the full tally's
    /// cells, its encode, or the fold itself.
    fn recounted(trace: &Value) -> bool {
        let body = trace["body"].as_str().unwrap();
        [
            r#""span":"explore.tally""#,
            r#""span":"explore.encode""#,
            r#""span":"fpm.sharded.recount""#,
        ]
        .iter()
        .any(|span| body.contains(span))
    }

    #[test]
    fn a_duplicate_metric_fails_before_a_cached_lattice_is_tallied() {
        let dir = temp_dir("duplicate-metric");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let args = serve_args(dir.join("artifacts").to_str().unwrap());
        let query = r#"{"op":"query","name":"toy","support":0.25,"top":3"#;
        let session = [
            register_line(&csv_path),
            r#"{"op":"mine","name":"toy","support":0.25}"#.to_string(),
            format!(r#"{query},"metric":"FPR,FPR"}}"#),
            r#"{"op":"stats"}"#.to_string(),
            r#"{"op":"trace","req":3}"#.to_string(),
            format!("{query}}}"),
            r#"{"op":"trace","req":6}"#.to_string(),
        ];
        let session: Vec<&str> = session.iter().map(String::as_str).collect();
        // The first session mines the lattice, which carries its base;
        // the restarted one loads it from the registry, with no base.
        let mined = drive(&args, &session);
        let loaded = drive(&args, &session);
        for (responses, source) in [(&mined, "mined"), (&loaded, "artifact")] {
            assert_eq!(responses[1]["source"].as_str(), Some(source));
            assert_eq!(
                responses[2]["ok"].as_bool(),
                Some(false),
                "{:?}",
                responses[2]
            );
            let error = responses[2]["error"].as_str().unwrap();
            assert!(error.contains("'metric'"), "{error}");
            assert_eq!(responses[3]["cached_lattices"].as_u64(), Some(1));
            // The malformed request fails fast: its trace holds the
            // request's own span and no layer of the recount.
            let failed = responses[4]["body"].as_str().unwrap();
            assert!(failed.contains(r#""span":"serve.request""#), "{failed}");
            assert!(!recounted(&responses[4]), "{failed}");
            assert_eq!(
                responses[5]["ok"].as_bool(),
                Some(true),
                "{:?}",
                responses[5]
            );
        }
        // The first valid query tallies a loaded lattice's base, and
        // reads no row of a mined one.
        assert!(!recounted(&mined[6]), "{:?}", mined[6]);
        assert_eq!(recount_rows_of(&mined[6]), 0);
        assert!(recounted(&loaded[6]), "{:?}", loaded[6]);
        assert_eq!(recount_rows_of(&loaded[6]), 8);
        assert_eq!(mined[5]["results"], loaded[5]["results"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_a_mine_a_query_reads_only_the_rows_its_inline_u_changes() {
        let dir = temp_dir("seeded-base");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let args = serve_args(dir.join("artifacts").to_str().unwrap());
        let register = register_line(&csv_path);
        let fpr = r#"{"op":"query","name":"toy","support":0.25,"top":3}"#;
        let er = r#"{"op":"query","name":"toy","support":0.25,"top":3,"metric":"ER"}"#;
        // `yhat` is 1,1,1,0,0,0,0,1: this `u` differs in rows 3 and 4.
        let inline = r#"{"op":"query","name":"toy","support":0.25,"top":3,"u":[1,1,1,1,1,0,0,1]}"#;
        let session = [
            register.as_str(),
            r#"{"op":"mine","name":"toy","support":0.25}"#,
            fpr,
            er,
            inline,
            r#"{"op":"trace","req":3}"#,
            r#"{"op":"trace","req":4}"#,
            r#"{"op":"trace","req":5}"#,
        ];
        let mined = drive(&args, &session);
        let restarted = drive(&args, &session);
        assert_eq!(mined[1]["source"].as_str(), Some("mined"));
        assert_eq!(restarted[1]["source"].as_str(), Some("artifact"));
        for responses in [&mined, &restarted] {
            for r in responses {
                assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
            }
        }
        // After the mine no query tallies; the metric switch reads no
        // row, the inline `u` only the two it changes.
        for trace in &mined[5..7] {
            assert!(!recounted(trace), "{trace:?}");
            assert_eq!(recount_rows_of(trace), 0);
        }
        assert_eq!(recount_rows_of(&mined[7]), 2);
        // A lattice from the `.dxa` still tallies its base once, on its
        // first query, and both sessions answer bit for bit alike.
        assert!(recounted(&restarted[5]), "{:?}", restarted[5]);
        assert_eq!(recount_rows_of(&restarted[5]), 8);
        assert!(!recounted(&restarted[6]), "{:?}", restarted[6]);
        assert_eq!(recount_rows_of(&restarted[7]), 2);
        for q in 2..5 {
            assert_eq!(mined[q]["results"], restarted[q]["results"], "query {q}");
            assert_eq!(mined[q]["dataset_rate"], restarted[q]["dataset_rate"]);
        }

        // A query that mines inside itself uses the base it mined.
        let fresh = drive(
            &serve_args(""),
            &[&register, fpr, r#"{"op":"trace","req":2}"#],
        );
        assert_eq!(fresh[1]["source"].as_str(), Some("mined"));
        assert_eq!(fresh[1]["results"], mined[2]["results"]);
        assert_eq!(recount_rows_of(&fresh[2]), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_session_that_only_mines_keeps_only_the_bases_of_resident_lattices() {
        let dir = temp_dir("mine-only");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let args = serve_args("");
        let plane = Arc::new(LiveRecorder::default());
        let _obs = ObsSession::install(Arc::clone(&plane));
        // A one-byte cache keeps only the lattice it took last.
        let mut state = ServeState {
            dir: None,
            datasets: HashMap::new(),
            cache: ArenaCache::new(1),
            bases: HashMap::new(),
            plane,
        };
        let send = |state: &mut ServeState, line: &str| {
            let (reply, _) = handle_request(state, &args, &Ok(serde_json::from_str(line).unwrap()));
            assert_eq!(reply["ok"].as_bool(), Some(true), "{reply:?}");
            reply
        };
        send(&mut state, &register_line(&csv_path));
        // The last mine re-mines a lattice the cache evicted.
        for support in [0.25, 0.5, 0.75, 0.25] {
            let line = format!(r#"{{"op":"mine","name":"toy","support":{support}}}"#);
            let reply = send(&mut state, &line);
            assert_eq!(reply["source"].as_str(), Some("mined"));
            assert_eq!(state.cache.len(), 1);
            let held = &state.bases["toy"];
            assert_eq!(held.len(), 1, "support {support}");
            assert!(held[0].lattice.strong_count() > 0, "support {support}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_knob_values_get_one_reply_each_and_never_panic() {
        // Counts far beyond the data must not size an allocation or a
        // loop: each line gets one reply and no handler panics.
        let dir = temp_dir("hostile-knobs");
        let csv_path = dir.join("ages.csv");
        std::fs::write(
            &csv_path,
            "age,grp,y,yhat\n23,a,0,1\n31,a,0,1\n45,a,0,1\n52,a,0,0\n\
             23,b,0,0\n38,b,0,0\n61,b,0,0\n70,b,0,1\n",
        )
        .unwrap();
        let register = |name: &str, extra: &str| {
            format!(
                r#"{{"op":"register","name":"{name}","path":"{}","label":"y","pred":"yhat"{extra}}}"#,
                csv_path.display()
            )
        };
        let lines = [
            register("ages", ""),
            r#"{"op":"query","name":"ages","support":0.25,"top":3,"engine":"fp-growth"}"#.to_string(),
            r#"{"op":"query","name":"ages","support":0.25,"top":3,"engine":"dense","threads":100000000000}"#.to_string(),
            r#"{"op":"query","name":"ages","support":0.25,"top":3,"engine":"eclat","shards":1000000000000}"#.to_string(),
            register("wide", r#","bins":100000000000"#),
            register("none", r#","bins":0"#),
            r#"{"op":"stats"}"#.to_string(),
        ];
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let responses = drive(&serve_args(""), &lines);
        assert_eq!(responses.len(), lines.len(), "{responses:?}");
        for i in [0, 1, 2, 4] {
            assert_eq!(
                responses[i]["ok"].as_bool(),
                Some(true),
                "{i}: {:?}",
                responses[i]
            );
        }
        // The parallel engine mined the same lattice with one worker per
        // root subtree: the first query keyed `fp-growth`, so the dense
        // one missed the cache and mined.
        assert_eq!(responses[2]["source"].as_str(), Some("mined"));
        assert_eq!(responses[2]["patterns"], responses[1]["patterns"]);
        assert_eq!(responses[2]["results"], responses[1]["results"]);
        for (i, field) in [(3, "shards"), (5, "bins")] {
            assert_eq!(responses[i]["ok"].as_bool(), Some(false), "{i}");
            let error = responses[i]["error"].as_str().unwrap();
            assert!(error.contains(field), "{error}");
        }
        let stats = &responses[6];
        assert_eq!(stats["panics"].as_u64(), Some(0), "{stats:?}");
        assert_eq!(stats["datasets"].as_u64(), Some(2), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_statistics_serialize_as_null_not_a_crash() {
        // All-positive ground truth: FPR has no negatives to divide by,
        // so the dataset rate and every divergence are NaN. The reply
        // must sanitize them to null and the loop must keep serving.
        let degenerate = "\
grp,other,y,yhat
a,x,1,1
a,y,1,1
a,x,1,0
b,y,1,0
b,x,1,1
b,y,1,0
b,x,1,1
a,y,1,0
";
        let dir = temp_dir("nan");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, degenerate).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"query","name":"toy","support":0.25,"metric":"FPR","top":2}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(
            responses[1]["ok"].as_bool(),
            Some(true),
            "{:?}",
            responses[1]
        );
        assert!(
            responses[1]["dataset_rate"].is_null(),
            "NaN must become null: {:?}",
            responses[1]
        );
        assert_eq!(responses[2]["ok"].as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_malformed_query_fails_fast_without_mining() {
        let dir = temp_dir("fail-fast");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        // A wrong-length u vector must be rejected before any lattice
        // work: no mine, no cache entry, no registry side effects.
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"query","name":"toy","support":0.25,"u":[1,0]}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(false));
        assert!(responses[1]["error"].as_str().unwrap().contains("8 rows"));
        assert_eq!(responses[2]["cached_lattices"].as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_handler_is_contained_and_counted() {
        let responses = drive(
            &serve_args(""),
            &[
                r#"{"op":"panic"}"#,
                r#"{"op":"panic"}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(responses.len(), 3);
        for r in &responses[..2] {
            assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
            assert!(r["error"].as_str().unwrap().contains("panicked"), "{r:?}");
        }
        assert_eq!(responses[2]["ok"].as_bool(), Some(true));
        assert_eq!(responses[2]["panics"].as_u64(), Some(2));
        assert_eq!(responses[2]["failures"].as_u64(), Some(2));
    }

    #[test]
    fn an_expired_request_deadline_fails_soft_and_is_counted() {
        let dir = temp_dir("deadline");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let mut args = serve_args("");
        args.request_timeout_ms = Some(0);
        let register = register_line(&csv_path);
        let responses = drive(
            &args,
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(false));
        assert!(
            responses[1]["error"].as_str().unwrap().contains("deadline"),
            "{:?}",
            responses[1]
        );
        assert_eq!(responses[2]["ok"].as_bool(), Some(true));
        assert!(responses[2]["timeouts"].as_u64().unwrap() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_query_past_its_deadline_fails_soft_and_caches_no_cut_tally() {
        let dir = temp_dir("query-deadline");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let registry = dir.join("artifacts");
        let register = register_line(&csv_path);
        let query = r#"{"op":"query","name":"toy","support":0.25,"top":3}"#;
        let mined = drive(
            &serve_args(registry.to_str().unwrap()),
            &[&register, r#"{"op":"mine","name":"toy","support":0.25}"#],
        );
        assert_eq!(mined[1]["source"].as_str(), Some("mined"));

        // The lattice loads from the registry, so only the tally runs
        // under the expired deadline — and no cut tally is cached: the
        // second query meets the same deadline, not a partial base.
        let mut args = serve_args(registry.to_str().unwrap());
        args.request_timeout_ms = Some(0);
        let responses = drive(
            &args,
            &[
                &register,
                query,
                query,
                r#"{"op":"stats"}"#,
                r#"{"op":"trace","req":3}"#,
            ],
        );
        for r in &responses[1..3] {
            assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
            let error = r["error"].as_str().unwrap();
            assert!(error.contains("deadline"), "{error}");
            assert!(error.contains("recount"), "{error}");
        }
        assert_eq!(
            responses[3]["timeouts"].as_u64(),
            Some(2),
            "{:?}",
            responses[3]
        );
        let second = responses[4]["body"].as_str().unwrap();
        assert!(
            second.contains(r#""span":"explore.tally""#),
            "the second query tallies anew: {second}"
        );

        let responses = drive(&serve_args(registry.to_str().unwrap()), &[&register, query]);
        assert_eq!(responses[1]["source"].as_str(), Some("artifact"));
        let mut csv_args = serve_args("");
        csv_args.label = "y".to_string();
        csv_args.pred = "yhat".to_string();
        let prepared = prepare(CSV, &csv_args).unwrap();
        let library = divexplorer::DivExplorer::new(0.25)
            .explore(
                &prepared.data,
                &prepared.v,
                &prepared.u,
                &[divexplorer::Metric::FalsePositiveRate],
            )
            .unwrap();
        let results = responses[1]["results"].as_array().unwrap();
        let top = library.top_k(0, 3, SortBy::Divergence);
        assert_eq!(results.len(), top.len());
        for (row, &idx) in results.iter().zip(&top) {
            let itemset = library.display_itemset(library.items(idx));
            assert_eq!(row["itemset"].as_str(), Some(itemset.as_str()));
            assert_eq!(
                row["divergence"].as_f64().map(f64::to_bits),
                Some(library.divergence(idx, 0).to_bits())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn re_registering_a_name_drops_the_tallies_of_its_old_predictions() {
        let dir = temp_dir("re-register");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        // Same rows, so the same lattice; other predictions.
        let other = CSV.replace("a,x,0,1\na,y,0,1", "a,x,0,0\na,y,0,0");
        assert_ne!(other, CSV);
        let other_path = dir.join("other.csv");
        std::fs::write(&other_path, &other).unwrap();
        let query = r#"{"op":"query","name":"toy","support":0.25,"top":3}"#;
        let responses = drive(
            &serve_args(""),
            &[
                &register_line(&csv_path),
                query,
                &register_line(&other_path),
                query,
            ],
        );
        let fresh = drive(&serve_args(""), &[&register_line(&other_path), query]);
        assert_eq!(responses[3]["source"].as_str(), Some("cache"));
        assert_ne!(responses[1]["results"], fresh[1]["results"]);
        assert_eq!(responses[3]["results"], fresh[1]["results"]);
        assert_eq!(responses[3]["dataset_rate"], fresh[1]["dataset_rate"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_lattice_of_a_registration_gets_its_own_base() {
        let dir = temp_dir("base-per-lattice");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let strict = r#"{"op":"query","name":"toy","support":0.5,"top":3}"#;
        let loose = r#"{"op":"query","name":"toy","support":0.25,"top":3}"#;
        let responses = drive(&serve_args(""), &[&register, strict, loose, strict]);
        let fresh = drive(&serve_args(""), &[&register, loose]);
        for r in &responses[1..] {
            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
        }
        assert_ne!(responses[1]["patterns"], responses[2]["patterns"]);
        assert_eq!(responses[2]["patterns"], fresh[1]["patterns"]);
        assert_eq!(responses[2]["results"], fresh[1]["results"]);
        assert_eq!(responses[3]["results"], responses[1]["results"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_inline_u_query_leaves_the_registered_tallies_untouched() {
        let dir = temp_dir("base-untouched");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let er = r#"{"op":"query","name":"toy","support":0.25,"top":3,"metric":"ER"}"#;
        let fpr = r#"{"op":"query","name":"toy","support":0.25,"top":3}"#;
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                fpr,
                r#"{"op":"query","name":"toy","support":0.25,"top":3,"u":[0,0,0,1,1,1,1,0]}"#,
                er,
                fpr,
            ],
        );
        let fresh = drive(&serve_args(""), &[&register, er]);
        for r in &responses[1..] {
            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
        }
        assert_ne!(responses[2]["results"], responses[1]["results"]);
        assert_eq!(responses[3]["results"], fresh[1]["results"]);
        assert_eq!(responses[3]["dataset_rate"], fresh[1]["dataset_rate"]);
        assert_eq!(responses[4]["results"], responses[1]["results"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_stops_the_loop_before_later_requests() {
        let responses = drive(
            &serve_args(""),
            &[r#"{"op":"shutdown"}"#, r#"{"op":"stats"}"#],
        );
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0]["op"].as_str(), Some("shutdown"));
    }

    /// Flips one byte in the registry's persisted arena artifact.
    fn poison_registry_arena(registry: &std::path::Path) -> std::path::PathBuf {
        let arena_file = std::fs::read_dir(registry)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "dxa"))
            .unwrap();
        let mut bytes = std::fs::read(&arena_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&arena_file, &bytes).unwrap();
        arena_file
    }

    #[test]
    fn a_tampered_registry_artifact_is_quarantined_and_rebuilt() {
        let dir = temp_dir("quarantine");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let registry = dir.join("artifacts");
        let args = serve_args(registry.to_str().unwrap());
        let register = register_line(&csv_path);
        let mine = r#"{"op":"mine","name":"toy","support":0.25}"#;
        let first = drive(&args, &[&register, mine]);
        let patterns = first[1]["patterns"].as_u64().unwrap();
        let arena_file = poison_registry_arena(&registry);

        // The poisoned artifact is quarantined, the lattice re-mined
        // and re-persisted — the request succeeds with a warning
        // instead of erroring the session.
        let responses = drive(&args, &[&register, mine, r#"{"op":"stats"}"#]);
        assert_eq!(
            responses[1]["ok"].as_bool(),
            Some(true),
            "{:?}",
            responses[1]
        );
        assert_eq!(responses[1]["source"].as_str(), Some("mined"));
        assert_eq!(responses[1]["patterns"].as_u64(), Some(patterns));
        let warnings = responses[1]["warnings"].as_array().unwrap();
        assert!(
            warnings[0].as_str().unwrap().contains("checksum mismatch"),
            "{warnings:?}"
        );
        assert!(warnings[0].as_str().unwrap().contains("quarantined"));
        assert_eq!(responses[2]["quarantines"].as_u64(), Some(1));

        // Forensics: the poisoned bytes moved aside; the registry slot
        // holds a fresh, valid artifact a later session loads cleanly.
        assert!(artifact::quarantine_path(&arena_file).exists());
        assert!(arena_file.exists(), "registry slot rebuilt");
        let third = drive(&args, &[&register, mine]);
        assert_eq!(third[1]["source"].as_str(), Some("artifact"));
        assert_eq!(third[1]["patterns"].as_u64(), Some(patterns));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_skewed_artifact_is_quarantined_and_rebuilt() {
        let dir = temp_dir("version-skew");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let registry = dir.join("artifacts");
        let args = serve_args(registry.to_str().unwrap());
        let register = register_line(&csv_path);
        let mine = r#"{"op":"mine","name":"toy","support":0.25}"#;
        drive(&args, &[&register, mine]);

        // Bump the format version and fix up the trailing checksum so
        // only the version differs — a file from a future release.
        let arena_file = std::fs::read_dir(&registry)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "dxa"))
            .unwrap();
        let mut bytes = std::fs::read(&arena_file).unwrap();
        bytes[4..8].copy_from_slice(&(artifact::FORMAT_VERSION + 9).to_le_bytes());
        let end = bytes.len() - 8;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes[..end] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[end..].copy_from_slice(&h.to_le_bytes());
        std::fs::write(&arena_file, &bytes).unwrap();

        let responses = drive(&args, &[&register, mine]);
        assert_eq!(
            responses[1]["ok"].as_bool(),
            Some(true),
            "{:?}",
            responses[1]
        );
        let warnings = responses[1]["warnings"].as_array().unwrap();
        assert!(
            warnings[0]
                .as_str()
                .unwrap()
                .contains("unsupported artifact version"),
            "{warnings:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_exposition_is_valid_prometheus_with_latency_quantiles() {
        let dir = temp_dir("metrics");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"query","name":"toy","support":0.25,"top":1}"#,
                r#"{"op":"metrics"}"#,
            ],
        );
        let metrics = &responses[3];
        assert_eq!(metrics["ok"].as_bool(), Some(true), "{metrics:?}");
        assert_eq!(metrics["format"].as_str(), Some("prometheus"));
        let body = metrics["body"].as_str().unwrap();
        obs::export::validate_prometheus(body).unwrap();
        // Session counters, per-op latency histograms, and the three
        // quantile gauges the issue demands.
        assert!(body.contains("divex_serve_requests_total 4"), "{body}");
        assert!(
            body.contains("divex_request_duration_us_bucket{op=\"mine\",le=\"+Inf\"} 1"),
            "{body}"
        );
        for q in ["p50", "p95", "p99"] {
            assert!(
                body.contains(&format!("divex_request_duration_us_{q}{{op=\"query\"}}")),
                "missing {q}: {body}"
            );
        }
        // Mining spans landed in the same registry.
        assert!(
            body.contains("divex_span_total{span=\"serve.request\"}"),
            "{body}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_metrics_derive_from_one_registry_and_cannot_diverge() {
        // The satellite regression: after mixed traffic (successes,
        // failures, a panic, a timeout), `stats` and `metrics` must
        // report the *same* fault counters — and consecutive replies
        // must show `requests` advancing by exactly one, proving both
        // read one live ledger rather than two hand-rolled ones.
        let dir = temp_dir("one-registry");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"launch"}"#,
                r#"{"op":"panic"}"#,
                r#"{"op":"stats"}"#,
                r#"{"op":"metrics","format":"json"}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        let (stats_a, metrics, stats_b) = (&responses[4], &responses[5], &responses[6]);
        assert_eq!(metrics["ok"].as_bool(), Some(true), "{metrics:?}");
        let counters = &metrics["counters"];
        for (stats_key, counter_key) in [
            ("failures", "serve.failures"),
            ("panics", "serve.panics"),
            ("timeouts", "serve.timeouts"),
            ("quarantines", "serve.quarantines"),
            ("persist_failures", "serve.persist_failures"),
        ] {
            let in_stats = stats_a[stats_key].as_u64().unwrap();
            let in_metrics = counters[counter_key].as_u64().unwrap_or(0);
            assert_eq!(in_stats, in_metrics, "{stats_key} diverged");
            assert_eq!(stats_b[stats_key].as_u64().unwrap(), in_stats);
        }
        assert_eq!(stats_a["panics"].as_u64(), Some(1));
        assert_eq!(stats_a["failures"].as_u64(), Some(2));
        // One shared monotone requests counter: each reply sees itself.
        assert_eq!(stats_a["requests"].as_u64(), Some(5));
        assert_eq!(counters["serve.requests"].as_u64(), Some(6));
        assert_eq!(stats_b["requests"].as_u64(), Some(7));
        // Per-op latency histograms cover every op seen so far.
        for op in ["register", "mine", "unknown", "panic", "stats"] {
            assert!(
                metrics["latencies"][op]["count"].as_u64().unwrap() >= 1,
                "no latency for {op}: {metrics:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_trace_shows_the_ranking_layer() {
        let dir = temp_dir("trace-rank");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"query","name":"toy","support":0.25,"top":2}"#,
                r#"{"op":"trace","req":2}"#,
            ],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(true), "{responses:?}");
        let body = responses[2]["body"].as_str().unwrap();
        assert!(body.contains(r#""span":"report.rank""#), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_op_returns_the_requests_complete_span_tree() {
        let dir = temp_dir("trace-op");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let register = register_line(&csv_path);
        let responses = drive(
            &serve_args(""),
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"trace","req":2}"#,
                r#"{"op":"trace"}"#,
                r#"{"op":"trace","req":99}"#,
            ],
        );
        let one = &responses[2];
        assert_eq!(one["ok"].as_bool(), Some(true), "{one:?}");
        let body = one["body"].as_str().unwrap();
        assert!(
            body.contains(r#""ev":"request_start","op":"mine""#),
            "{body}"
        );
        assert!(body.contains(r#""ev":"request_end""#), "{body}");
        // The mine request's span tree is attributed to it, down to the
        // mining engine spans, with matched enter/exit pairs.
        assert!(body.contains(r#""span":"serve.request""#), "{body}");
        assert!(body.contains(r#""span":"explore.mine""#), "{body}");
        let enters = body.matches(r#""ev":"span_enter""#).count();
        let exits = body.matches(r#""ev":"span_exit""#).count();
        assert!(enters >= 2, "{body}");
        assert_eq!(enters, exits, "unbalanced span tree: {body}");
        for line in body.lines() {
            assert!(line.contains("\"req\":2"), "foreign event in trace: {line}");
        }
        let all = &responses[3];
        assert_eq!(all["retained"].as_u64(), Some(4), "{all:?}");
        assert!(all["body"].as_str().unwrap().contains(r#""op":"register""#));
        let missing = &responses[4];
        assert_eq!(missing["ok"].as_bool(), Some(false));
        assert!(missing["error"]
            .as_str()
            .unwrap()
            .contains("flight recorder"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flagged_requests_dump_their_traces_to_the_diagnostic_stream() {
        // --slow-ms 0 flags every request; panics and timeouts always
        // dump. Each dump must carry the flagged request's own span
        // tree, complete (request_end present) even across a panic.
        let dir = temp_dir("dump");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let mut args = serve_args("");
        args.slow_ms = Some(0);
        let register = register_line(&csv_path);
        let (responses, diag) = drive_with_diag(
            &args,
            &[&register, r#"{"op":"panic"}"#, r#"{"op":"stats"}"#],
        );
        assert_eq!(responses.len(), 3);
        assert!(diag.contains("request 1 flagged (slow"), "{diag}");
        assert!(diag.contains("request 2 flagged (panic"), "{diag}");
        assert!(
            diag.contains(r#""req":2,"ev":"request_start","op":"panic""#),
            "{diag}"
        );
        assert!(
            diag.contains(r#""req":2,"ev":"request_end","op":"panic""#),
            "{diag}"
        );

        // A timeout dump, without --slow-ms in the way.
        let mut args = serve_args("");
        args.request_timeout_ms = Some(0);
        let (responses, diag) = drive_with_diag(
            &args,
            &[&register, r#"{"op":"mine","name":"toy","support":0.25}"#],
        );
        assert_eq!(responses[1]["ok"].as_bool(), Some(false));
        assert!(diag.contains("request 2 flagged (timeout"), "{diag}");
        assert!(diag.contains(r#""name":"serve.timeouts""#), "{diag}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_file_snapshots_are_written_atomically_and_validate() {
        let dir = temp_dir("metrics-file");
        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, CSV).unwrap();
        let metrics_path = dir.join("metrics.prom");
        let mut args = serve_args("");
        args.metrics_file = Some(metrics_path.display().to_string());
        let register = register_line(&csv_path);
        drive(
            &args,
            &[
                &register,
                r#"{"op":"mine","name":"toy","support":0.25}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        let body = std::fs::read_to_string(&metrics_path).unwrap();
        obs::export::validate_prometheus(&body).unwrap();
        // The final forced snapshot saw the whole session.
        assert!(body.contains("divex_serve_requests_total 3"), "{body}");
        assert!(
            body.contains("divex_request_duration_us_count{op=\"mine\"} 1"),
            "{body}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_nulls_non_finite_numbers_recursively() {
        let mut v = obj(vec![
            ("a", Value::Number(f64::NAN)),
            (
                "b",
                Value::Array(vec![
                    Value::Number(f64::INFINITY),
                    Value::Number(1.5),
                    obj(vec![("c", Value::Number(f64::NEG_INFINITY))]),
                ]),
            ),
        ]);
        sanitize(&mut v);
        assert!(v["a"].is_null());
        assert!(v["b"][0].is_null());
        assert_eq!(v["b"][1].as_f64(), Some(1.5));
        assert!(v["b"][2]["c"].is_null());
    }
}
