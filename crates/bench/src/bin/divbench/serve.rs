//! `serve-warm`: the resident service answering re-analysis queries.
//!
//! Each session spawns the `divexplorer-cli serve` binary on a fresh
//! artifact registry, registers the adult `.dxd` written at set-up, mines
//! once cold, then sends 50 queries from one closed-loop client with no
//! think time. Queries alternate between an inline prediction vector `u`
//! from one of eight seeded alternative models and a metric switch (FNR
//! or ER) without `u`. The session ends with a restart on the same
//! registry: a new process, `register`, and a `mine` served from the
//! `.dxa` the cold mine wrote.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use datasets::{artifact, DatasetId, GeneratedDataset};
use divexplorer::{DivExplorer, Metric as DivMetric, SortBy};
use serde_json::Value;

use crate::batch::SETUPS;
use crate::check::{self, METRICS};
use crate::inputs;
use crate::layers::{self, Clock, Totals, Traced};
use crate::stats::{self, ms};
use crate::{Config, Metric, Outcome, Workload};

/// Table 5's configuration: adult (45,222 rows) at s = 0.05.
const DATASET: DatasetId = DatasetId::Adult;
const SUPPORT: f64 = 0.05;
const NAME: &str = "adult";

/// The engine `serve` mines with when a request names none: the CLI's
/// `--engine` default. The traced replay mines and keys with it too.
const SERVE_ENGINE: fpm::Algorithm = fpm::Algorithm::FpGrowth;

const QUERIES_PER_SESSION: usize = 50;
const SMOKE_QUERIES: usize = 100;
const TOP: usize = 10;

/// Alternative models queried inline; each flips
/// [`inputs::FLIP_FRACTION`] of the registered predictions.
const ALT_MODELS: usize = 8;

/// Metrics of the queries without `u`, alternating.
const SWITCH_METRICS: [DivMetric; 2] = [DivMetric::FalseNegativeRate, DivMetric::ErrorRate];

/// Wall time of one session on the reference machine (2-core x86-64);
/// with `--seconds` it fixes the session count.
const NOMINAL_SESSION_S: f64 = 1.0;

/// Divergences in responses must match the library's to this much.
const TOLERANCE: f64 = 1e-12;

/// A running `serve` child with a closed-loop client on its stdio.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(cli: &Path, registry: &Path) -> Result<Server, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--artifact")
            .arg(registry)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", cli.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line; returns the time from writing it to
    /// reading the response line, and the parsed response.
    fn request(&mut self, line: &str) -> Result<(Duration, Value), String> {
        let mut response = String::new();
        let start = Instant::now();
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("serve request: {e}"))?;
        let read = self
            .stdout
            .read_line(&mut response)
            .map_err(|e| format!("serve response: {e}"))?;
        let elapsed = start.elapsed();
        if read == 0 {
            return Err("serve exited before responding".to_string());
        }
        let value = serde_json::from_str(&response).map_err(|e| format!("serve response: {e}"))?;
        Ok((elapsed, value))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        stats::vm_hwm_mb(&self.child.id().to_string())
    }

    fn shutdown(mut self) -> Result<(), String> {
        let (_, response) = self.request(r#"{"op":"shutdown"}"#)?;
        let status = self.child.wait().map_err(|e| format!("serve: {e}"))?;
        if response["ok"].as_bool() != Some(true) || !status.success() {
            return Err(format!("serve shutdown: {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// A session that failed midway still stops its child.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The serve binary users run, built next to this executable.
fn cli_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate divbench: {e}"))?;
    let cli = exe.with_file_name("divexplorer-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found; build it with the benchmark (see README.md)",
            cli.display()
        ))
    }
}

/// Scratch space for registries, next to this executable in the build
/// directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate divbench: {e}"))?;
    let dir = exe.with_file_name(format!("divbench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    dir.canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// One distinct query: an inline `u` from an alternative model, or a
/// metric switch on the registered predictions.
struct Shape {
    label: String,
    line: String,
    u: Option<Vec<bool>>,
    metric: DivMetric,
    /// The library's answer: top-10 itemsets and divergences.
    expected: Vec<(String, f64)>,
}

fn shapes(t: &GeneratedDataset, seed: u64) -> Result<Vec<Shape>, String> {
    // A stream apart from the one that picked the registered predictions.
    let mut rng = inputs::Rng::new(!seed);
    let mut out = Vec::new();
    for k in 0..ALT_MODELS {
        let u = rng.flip(&t.u);
        let bits: Vec<&str> = u.iter().map(|&b| if b { "1" } else { "0" }).collect();
        let line = format!(
            r#"{{"op":"query","name":"{NAME}","support":{SUPPORT},"top":{TOP},"u":[{}]}}"#,
            bits.join(",")
        );
        out.push(Shape {
            label: format!("u{k}"),
            line,
            u: Some(u),
            metric: DivMetric::FalsePositiveRate,
            expected: Vec::new(),
        });
    }
    for metric in SWITCH_METRICS {
        out.push(Shape {
            label: metric.short_name().to_string(),
            line: format!(
                r#"{{"op":"query","name":"{NAME}","support":{SUPPORT},"top":{TOP},"metric":"{}"}}"#,
                metric.short_name()
            ),
            u: None,
            metric,
            expected: Vec::new(),
        });
    }
    for shape in &mut out {
        let u = shape.u.as_deref().unwrap_or(&t.u);
        let report = DivExplorer::new(SUPPORT)
            .explore(&t.data, &t.v, u, &[shape.metric])
            .map_err(|e| format!("library answer: {e}"))?;
        shape.expected = report
            .top_k(0, TOP, SortBy::Divergence)
            .into_iter()
            .map(|i| {
                (
                    report.display_itemset(report.items(i)),
                    report.divergence(i, 0),
                )
            })
            .collect();
    }
    Ok(out)
}

/// The shape of the `i`-th query of a session: even queries cycle through
/// the alternative models, odd ones alternate the metric switches.
fn shape_of(i: usize) -> usize {
    if i.is_multiple_of(2) {
        (i / 2) % ALT_MODELS
    } else {
        ALT_MODELS + (i / 2) % SWITCH_METRICS.len()
    }
}

fn ok(response: &Value, what: &str) -> Result<(), String> {
    if response["ok"].as_bool() == Some(true) {
        Ok(())
    } else {
        Err(format!(
            "{what}: {}",
            serde_json::to_string(response).unwrap_or_default()
        ))
    }
}

/// Compares a query response with the library's answer.
fn check_answer(response: &Value, shape: &Shape) -> Result<(), String> {
    let rows = response["results"].as_array().cloned().unwrap_or_default();
    let got: Vec<(String, f64)> = rows
        .iter()
        .map(|r| {
            (
                r["itemset"].as_str().unwrap_or_default().to_string(),
                r["divergence"].as_f64().unwrap_or(f64::NAN),
            )
        })
        .collect();
    let same = got.len() == shape.expected.len()
        && got
            .iter()
            .zip(&shape.expected)
            .all(|((gi, gd), (wi, wd))| gi == wi && (gd - wd).abs() <= TOLERANCE);
    if same {
        Ok(())
    } else {
        Err(format!(
            "query {}: answer differs from the library's",
            shape.label
        ))
    }
}

/// The registered dataset and the set-ups that made it. A set-up is
/// table generation, the `.dxd` save, and a spawn + `register` on a
/// fresh registry; `setup_s` is the median of [`SETUPS`] of them.
struct Setup {
    seed: u64,
    table: GeneratedDataset,
    dxd: PathBuf,
    /// Wall time of each set-up, and of its table generation, seconds.
    times: Vec<f64>,
    generate: Vec<f64>,
}

impl Setup {
    /// The dataset after one set-up.
    fn new(cli: &Path, work: &Path, seed: u64) -> Result<Setup, String> {
        let dxd = work.join(artifact::dataset_file_name(NAME));
        let (table, time, generate) = set_up(cli, work, &dxd, seed, 0)?;
        Ok(Setup {
            seed,
            table,
            dxd,
            times: vec![time],
            generate: vec![generate],
        })
    }

    /// Runs set-ups until `due` have run; each rewrites the `.dxd` with
    /// identical content.
    fn set_up_until(&mut self, due: usize, cli: &Path, work: &Path) -> Result<(), String> {
        while self.times.len() < due {
            let i = self.times.len();
            let (table, time, generate) = set_up(cli, work, &self.dxd, self.seed, i)?;
            self.table = table;
            self.times.push(time);
            self.generate.push(generate);
        }
        Ok(())
    }

    fn time(&self) -> Duration {
        Duration::from_secs_f64(stats::median(&self.times))
    }

    fn generate_time(&self) -> Duration {
        Duration::from_secs_f64(stats::median(&self.generate))
    }
}

fn register_line(dxd: &Path) -> String {
    format!(
        r#"{{"op":"register","name":"{NAME}","artifact":"{}"}}"#,
        dxd.display()
    )
}

fn mine_line() -> String {
    format!(r#"{{"op":"mine","name":"{NAME}","support":{SUPPORT}}}"#)
}

/// Set-up `i`: generates the table, saves it to `dxd`, and registers it
/// with a new service on a fresh registry. Returns the table, the
/// set-up's time and its table generation's time, seconds.
fn set_up(
    cli: &Path,
    work: &Path,
    dxd: &Path,
    seed: u64,
    i: usize,
) -> Result<(GeneratedDataset, f64, f64), String> {
    let start = Instant::now();
    let t = inputs::table(DATASET, seed);
    let generate = start.elapsed().as_secs_f64();
    artifact::save_dataset(dxd, &t.data, &t.v, &t.u).map_err(|e| e.to_string())?;
    let mut server = Server::spawn(cli, &work.join(format!("setup-{i}")))?;
    let (_, response) = server.request(&register_line(dxd))?;
    let time = start.elapsed().as_secs_f64();
    ok(&response, "register")?;
    server.shutdown()?;
    Ok((t, time, generate))
}

/// Client-side samples, milliseconds.
#[derive(Default)]
struct Samples {
    queries: Vec<f64>,
    by_shape: Vec<Vec<f64>>,
    mine_cold: Vec<f64>,
    restart: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl Samples {
    fn new(shapes: usize) -> Samples {
        Samples {
            by_shape: vec![Vec::new(); shapes],
            ..Samples::default()
        }
    }
}

/// Sends a request and records it as an attempt; `Err` only when the
/// session cannot continue.
fn attempt(
    server: &mut Server,
    line: &str,
    what: &str,
    outcome: &mut Outcome,
) -> Result<(Duration, Value), String> {
    let (elapsed, response) = server.request(line)?;
    outcome.attempt(ok(&response, what));
    Ok((elapsed, response))
}

/// Everything the sessions share, prepared at set-up.
struct Prepared {
    cli: PathBuf,
    work: PathBuf,
    setup: Setup,
    shapes: Vec<Shape>,
    /// Size of the library's lattice; every `mine` must report it.
    patterns: u64,
}

/// The service's own `metrics` digest before and after a session's
/// queries.
struct ServiceMetrics {
    before: Value,
    after: Value,
}

impl Prepared {
    fn check_mine(&self, response: &Value, source: &str, outcome: &mut Outcome) {
        if response["source"].as_str() != Some(source)
            || response["patterns"].as_u64() != Some(self.patterns)
        {
            outcome.wrong(format!(
                "mine: expected {} patterns from {source}, got {}",
                self.patterns,
                serde_json::to_string(response).unwrap_or_default()
            ));
        }
    }

    /// One session on a fresh registry: spawn, register, cold mine, the
    /// queries, then a restart on the same registry. With `service`, the
    /// service's metrics are read before and after the queries.
    fn session(
        &self,
        registry: &Path,
        service: bool,
        samples: &mut Samples,
        outcome: &mut Outcome,
    ) -> Result<Option<ServiceMetrics>, String> {
        let register = register_line(&self.setup.dxd);
        let metrics_line = r#"{"op":"metrics","format":"json"}"#;
        let mut server = Server::spawn(&self.cli, registry)?;
        attempt(&mut server, &register, "register", outcome)?;
        let (elapsed, response) = attempt(&mut server, &mine_line(), "mine", outcome)?;
        self.check_mine(&response, "mined", outcome);
        samples.mine_cold.push(ms(elapsed));
        let before = if service {
            Some(attempt(&mut server, metrics_line, "metrics", outcome)?.1)
        } else {
            None
        };
        for i in 0..QUERIES_PER_SESSION {
            let shape = &self.shapes[shape_of(i)];
            let (elapsed, response) = attempt(&mut server, &shape.line, "query", outcome)?;
            if let Err(e) = check_answer(&response, shape) {
                outcome.wrong(e);
            }
            samples.queries.push(ms(elapsed));
            samples.by_shape[shape_of(i)].push(ms(elapsed));
        }
        let service = match before {
            Some(before) => Some(ServiceMetrics {
                before,
                after: attempt(&mut server, metrics_line, "metrics", outcome)?.1,
            }),
            None => None,
        };
        samples.rss_mb.extend(server.peak_rss_mb());
        server.shutdown()?;

        let start = Instant::now();
        let mut server = Server::spawn(&self.cli, registry)?;
        attempt(&mut server, &register, "register", outcome)?;
        let (_, response) = attempt(&mut server, &mine_line(), "mine", outcome)?;
        samples.restart.push(ms(start.elapsed()));
        self.check_mine(&response, "artifact", outcome);
        server.shutdown()?;
        Ok(service)
    }
}

fn end_to_end(samples: &Samples, sessions: usize, setup: Duration) -> Vec<Metric> {
    let mut cells: Vec<f64> = samples.by_shape.iter().map(|v| stats::median(v)).collect();
    cells.push(stats::median(&samples.mine_cold));
    cells.push(stats::median(&samples.restart));
    let n = samples.queries.len();
    let tail = stats::tail_percentile(n);
    let shape = format!("{} request kinds x {sessions} sessions", cells.len());
    vec![
        Metric::new("sweep_s", cells.iter().sum::<f64>() / 1e3, "s", sessions)
            .with_note(shape.clone()),
        Metric::new("cell_ms_geomean", stats::geomean(&cells), "ms", sessions).with_note(shape),
        Metric::new("query_p50_ms", stats::median(&samples.queries), "ms", n)
            .with_quartiles(&samples.queries),
        Metric::new(
            "query_p99_ms",
            stats::percentile(&samples.queries, tail),
            "ms",
            n,
        )
        .with_note(format!("p{tail}")),
        Metric::new(
            "mine_cold_ms",
            stats::median(&samples.mine_cold),
            "ms",
            sessions,
        ),
        Metric::new("setup_s", setup.as_secs_f64(), "s", crate::batch::SETUPS),
        Metric::new(
            "peak_rss_mb",
            stats::median(&samples.rss_mb),
            "MB",
            samples.rss_mb.len(),
        )
        .with_note("serve process".to_string()),
    ]
}

/// What an in-process replay keeps between requests, as the service
/// does: the registered dataset and the cached lattice.
#[derive(Default)]
struct Resident {
    dataset: Option<artifact::DatasetArtifact>,
    lattice: Option<fpm::ItemsetArena<()>>,
}

/// One request replayed in process through the public calls the service
/// makes for it, each timed as a layer. `mine` resolves like the service:
/// cached lattice, then the registry's `.dxa`, then a cold mine written
/// through to the registry.
fn replay(
    line: &str,
    s: &Setup,
    registry: &Path,
    resident: &mut Resident,
    clock: &mut Clock,
) -> Result<(), String> {
    let request: Value = clock
        .time("serve.parse", || serde_json::from_str(line))
        .map_err(|e| format!("replay: {e}"))?;
    if request["op"].as_str() == Some("register") {
        let loaded = clock
            .time("artifact.load", || artifact::load_dataset(&s.dxd))
            .map_err(|e| e.to_string())?;
        let rows = Value::Number(loaded.data.n_rows() as f64);
        *resident = Resident {
            dataset: Some(loaded),
            lattice: None,
        };
        return respond(&rows, clock);
    }
    let data = resident
        .dataset
        .as_ref()
        .ok_or("replay: nothing registered")?;
    if resident.lattice.is_none() {
        let (key, arena_path, persisted) = clock.time("serve.resolve", || {
            let key = artifact::ArenaKey {
                dataset_hash: data.hash,
                min_support_count: fpm::MiningParams::with_min_support_fraction(
                    SUPPORT,
                    data.data.n_rows(),
                )
                .min_support_count,
                max_len: None,
                engine: SERVE_ENGINE.to_string(),
                n_rows: data.data.n_rows() as u64,
            };
            let path = registry.join(artifact::arena_file_name(&key));
            let persisted = path.exists();
            (key, path, persisted)
        });
        let lattice = if persisted {
            clock
                .time("artifact.load", || artifact::load_arena(&arena_path))
                .map_err(|e| e.to_string())?
                .1
        } else {
            let report = clock
                .time("explore", || {
                    DivExplorer::new(SUPPORT)
                        .with_algorithm(SERVE_ENGINE)
                        .explore(&data.data, &data.v, &data.u, &METRICS[..1])
                })
                .map_err(|e| e.to_string())?;
            let candidates = clock.time("serve.resolve", || {
                let mut c = fpm::ItemsetArena::with_capacity(report.len(), 0);
                for idx in 0..report.len() {
                    c.push(report.items(idx), report.support(idx), ());
                }
                c.sort_canonical();
                c
            });
            clock
                .time("artifact.save", || {
                    artifact::save_arena(&arena_path, &key, &candidates)
                })
                .map_err(|e| e.to_string())?;
            candidates
        };
        resident.lattice = Some(lattice);
    }
    let arena = resident.lattice.as_ref().expect("resolved above");
    let response = match request["op"].as_str() {
        Some("mine") => Value::Number(arena.len() as f64),
        Some("query") => {
            let u = clock.time("serve.parse", || {
                request["u"].as_array().map(|bits| {
                    bits.iter()
                        .map(|b| b.as_f64() == Some(1.0))
                        .collect::<Vec<bool>>()
                })
            });
            let metric = match request["metric"].as_str() {
                Some("FNR") => DivMetric::FalseNegativeRate,
                Some("ER") => DivMetric::ErrorRate,
                _ => DivMetric::FalsePositiveRate,
            };
            let u = u.as_deref().unwrap_or(&data.u);
            let report = clock
                .time("recount", || {
                    DivExplorer::new(SUPPORT).from_artifact(
                        &data.data,
                        arena,
                        &data.v,
                        u,
                        &[metric],
                    )
                })
                .map_err(|e| e.to_string())?;
            let rows = clock.time("report.rank", || {
                report
                    .ranked(0, SortBy::Divergence)
                    .into_iter()
                    .take(TOP)
                    .map(|i| {
                        Value::Object(vec![
                            (
                                "itemset".to_string(),
                                Value::String(report.display_itemset(report.items(i))),
                            ),
                            (
                                "divergence".to_string(),
                                Value::Number(report.divergence(i, 0)),
                            ),
                            ("t".to_string(), Value::Number(report.t_statistic(i, 0))),
                        ])
                    })
                    .collect()
            });
            Value::Array(rows)
        }
        other => return Err(format!("replay: unexpected op {other:?}")),
    };
    respond(&response, clock)
}

fn respond(response: &Value, clock: &mut Clock) -> Result<(), String> {
    clock
        .time("serve.respond", || serde_json::to_string(response))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The traced run: one session against the service (which reports its
/// own metrics), then every distinct request replayed in process once
/// untraced and once traced.
fn trace(p: &Prepared, outcome: &mut Outcome) -> Result<Vec<Metric>, String> {
    let mut samples = Samples::new(p.shapes.len());
    let service = p
        .session(&p.work.join("trace-session"), true, &mut samples, outcome)?
        .expect("requested");
    let counter = |v: &Value, name: &str| v["counters"][name].as_f64().unwrap_or(0.0);
    let delta = |name: &str| counter(&service.after, name) - counter(&service.before, name);
    let (hits, misses) = (
        delta("divexplorer.cache.hit"),
        delta("divexplorer.cache.miss"),
    );
    let path = Path::new(check::REPORT_DIR).join("SERVICE_serve-warm.json");
    std::fs::create_dir_all(check::REPORT_DIR)
        .and_then(|()| {
            let json = serde_json::to_string_pretty(&service.after).unwrap_or_default();
            std::fs::write(&path, json + "\n")
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // Each distinct request once, in session order; the restart re-registers
    // (a new process starts empty) and mines from the registry.
    let register = register_line(&p.setup.dxd);
    let mut requests: Vec<(String, String)> = vec![
        ("register".to_string(), register.clone()),
        ("mine".to_string(), mine_line()),
    ];
    requests.extend(
        p.shapes
            .iter()
            .map(|q| (format!("query-{}", q.label), q.line.clone())),
    );
    requests.push(("restart-register".to_string(), register));
    requests.push(("restart-mine".to_string(), mine_line()));

    let mut totals = Totals::new(
        p.setup.generate_time(),
        hits / (hits + misses).max(1.0),
        samples.restart[0],
    );
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut reports = Vec::new();
    for pass in ["untraced", "traced"] {
        let registry = p.work.join(format!("replay-{pass}"));
        std::fs::create_dir_all(&registry).map_err(|e| format!("{}: {e}", registry.display()))?;
        let mut resident = Resident::default();
        for (label, line) in &requests {
            let session = (pass == "traced").then(bench::telemetry::Session::start);
            let mut clock = Clock::default();
            let start = Instant::now();
            let result = replay(line, &p.setup, &registry, &mut resident, &mut clock);
            let wall = start.elapsed();
            outcome.attempt(result);
            let Some(session) = session else {
                untraced += wall;
                continue;
            };
            let (snap, _) = session.finish();
            traced += wall;
            let op = Traced { wall, snap, clock };
            layers::check_coverage(label, &op, outcome);
            totals.add(&op);
            let workload = Workload::ServeWarm.name();
            let mut report = op.run_report(workload, NAME, p.setup.table.n_rows(), SUPPORT);
            report.experiment = format!("{workload}/{label}");
            reports.push(report);
        }
    }
    let path = layers::write_reports(Workload::ServeWarm.name(), &reports)?;
    eprintln!("divbench: run reports written to {}", path.display());
    let overhead = 100.0 * (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0);
    Ok(totals.metrics(overhead))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let work = work_dir()?;
    let result = run_in(work.clone(), config);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(work: PathBuf, config: &Config) -> Result<Outcome, String> {
    let cli = cli_path()?;
    let setup = Setup::new(&cli, &work, config.seed)?;
    let mut outcome = Outcome::default();

    // The library's answers and lattice, outside every timed region.
    let t = &setup.table;
    let shapes = shapes(t, config.seed)?;
    let lattice = DivExplorer::new(SUPPORT)
        .explore(&t.data, &t.v, &t.u, &METRICS)
        .map(|r| check::lattice_of(&r))
        .map_err(|e| e.to_string())?;
    let cell = [(DATASET, SUPPORT)];
    let want = check::references(config.seed, &cell, &[(DATASET, t.clone())])?;
    for e in check::compare(&cell, &[lattice], &want) {
        outcome.wrong(e);
    }
    let mut p = Prepared {
        cli,
        work,
        setup,
        shapes,
        patterns: lattice.patterns,
    };

    if config.trace {
        p.setup.set_up_until(SETUPS, &p.cli, &p.work)?;
        outcome.metrics = trace(&p, &mut outcome)?;
        return Ok(outcome);
    }
    let sessions = if config.smoke {
        SMOKE_QUERIES / QUERIES_PER_SESSION
    } else {
        config.passes(NOMINAL_SESSION_S)
    };
    let mut samples = Samples::new(p.shapes.len());
    for i in 0..sessions {
        // Set-ups spread between the sessions, so `setup_s` samples the
        // whole run as the sessions do.
        p.setup
            .set_up_until(stats::due_by(SETUPS, i, sessions), &p.cli, &p.work)?;
        let registry = p.work.join(format!("registry-{i}"));
        p.session(&registry, false, &mut samples, &mut outcome)?;
        let _ = std::fs::remove_dir_all(&registry);
    }
    outcome.metrics = end_to_end(&samples, sessions, p.setup.time());
    Ok(outcome)
}
