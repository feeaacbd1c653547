//! Library behind the `divexplorer` command-line tool.
//!
//! The CLI analyzes a CSV with feature columns plus a ground-truth column
//! and a prediction column, and exposes the main analyses as subcommands:
//!
//! ```text
//! divexplorer explore    --input data.csv --label y --pred yhat [--metric FPR,FNR]
//!                        [--support 0.05] [--top 10] [--bins 3] [--prune 0.05]
//!                        [--fdr 0.05] [--json]
//! divexplorer shapley    --input data.csv --label y --pred yhat --itemset "a=1,b=x"
//! divexplorer corrective --input data.csv --label y --pred yhat [--top 5]
//! divexplorer global     --input data.csv --label y --pred yhat [--top 15]
//! divexplorer lattice    --input data.csv --label y --pred yhat --itemset "a=1,b=x"
//!                        [--threshold 0.1] [--dot]
//! divexplorer fairness   --input data.csv --label y --pred yhat [--top 3]
//! ```
//!
//! The artifact suite (see [`artifacts`] and [`serve`]) persists the
//! expensive mine and re-analyzes by streaming recount:
//!
//! ```text
//! divexplorer index      --input data.csv --label y --pred yhat --name d1 --artifact DIR
//! divexplorer probe      --artifact DIR/d1.dxd
//! divexplorer analyze    --artifact DIR --name d1 [--metric FNR] [--support 0.05]
//! divexplorer serve      [--artifact DIR]         # NDJSON request loop on stdin
//! ```
//!
//! The CLI and `serve` share one path per job: one rule per shared knob
//! (`SHARED_KNOBS`), one [`DivExplorer`] builder, one lattice key
//! ([`divexplorer::ArenaKey`]) and one registry ladder
//! ([`datasets::artifact::resolve_lattice`]).
//!
//! All logic lives here (parameterized over the CSV *content* and an output
//! writer) so it is unit-testable without touching the filesystem.

pub mod artifacts;
pub mod serve;

use std::fmt::Write as _;

use datasets::csv::{parse_csv, CsvTable};
use divexplorer::{
    corrective::top_corrective,
    fairness::{audit_fairness, Criterion},
    global_div::global_item_divergence_checked,
    lattice::sublattice,
    pruning::prune_redundant,
    shapley::item_contributions,
    DiscreteDataset, DivExplorer, ItemId, Metric, SortBy,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand.
    pub command: Command,
    /// CSV path.
    pub input: String,
    /// Ground-truth column name.
    pub label: String,
    /// Prediction column name.
    pub pred: String,
    /// Metrics to analyze.
    pub metrics: Vec<Metric>,
    /// Minimum support threshold.
    pub support: f64,
    /// How many rows to print.
    pub top: usize,
    /// Quantile bins for numeric columns.
    pub bins: usize,
    /// Optional ε-redundancy pruning.
    pub prune: Option<f64>,
    /// Optional FDR level for significance screening.
    pub fdr: Option<f64>,
    /// Emit JSON instead of a table (explore only).
    pub json: bool,
    /// Target itemset (shapley/lattice), as `attr=value` pairs.
    pub itemset: Vec<(String, String)>,
    /// Lattice highlight threshold.
    pub threshold: f64,
    /// Emit Graphviz DOT (lattice only).
    pub dot: bool,
    /// Wall-clock budget for the exploration, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request wall-clock deadline for `serve`, in milliseconds: an
    /// over-budget request fails soft and the loop continues.
    pub request_timeout_ms: Option<u64>,
    /// Periodically snapshot the serve metrics registry to this path as
    /// a Prometheus text exposition (crash-safe atomic writes).
    pub metrics_file: Option<String>,
    /// Interval between `--metrics-file` snapshots, in milliseconds.
    pub metrics_interval_ms: u64,
    /// Slow-request threshold for `serve`, in milliseconds: a request at
    /// or over it dumps its flight-recorder trace to stderr.
    pub slow_ms: Option<u64>,
    /// Cap on the number of mined itemsets.
    pub max_itemsets: Option<u64>,
    /// Cap on the itemset length explored.
    pub max_depth: Option<usize>,
    /// Stream telemetry events (spans, counters, histograms) as NDJSON
    /// to this path.
    pub trace_json: Option<String>,
    /// Print an aggregated telemetry summary to stderr after the run.
    pub stats: bool,
    /// Mining engine backing the exploration.
    pub engine: fpm::Algorithm,
    /// Worker threads for mining (the recount is sequential).
    pub threads: usize,
    /// Artifact path: a file for `probe`, the registry directory for
    /// `index`, `analyze` and `serve`.
    pub artifact: String,
    /// Dataset name in the artifact registry (`index`, `analyze`).
    pub name: String,
}

/// The supported subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Rank divergent subgroups.
    Explore,
    /// Shapley attribution of one itemset.
    Shapley,
    /// Top corrective items.
    Corrective,
    /// Global item divergence.
    Global,
    /// Sub-lattice rendering.
    Lattice,
    /// Group-fairness audit (four criteria per subgroup).
    Fairness,
    /// Validate an artifact's envelope and print its header.
    Probe,
    /// Encode the dataset and mine + persist its frequent lattice.
    Index,
    /// Re-analyze from persisted artifacts (recount, no mining phase).
    Analyze,
    /// Resident NDJSON analysis service on stdin/stdout.
    Serve,
}

/// CLI errors, all user-facing.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad usage with an explanation.
    Usage(String),
    /// Input processing failed.
    Input(String),
    /// The analysis needs a complete exploration but the budget truncated
    /// it (closure-dependent commands: shapley, global).
    Truncated(fpm::TruncationReason),
}

impl CliError {
    /// The process exit code for this error: usage errors exit 2, bad
    /// input exits 3, budget truncation exits 4.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Truncated(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Input(msg) => write!(f, "input error: {msg}"),
            CliError::Truncated(reason) => write!(
                f,
                "exploration truncated ({reason}): this analysis needs the complete \
                 frequent lattice — raise the budget or the support threshold"
            ),
        }
    }
}

impl std::error::Error for CliError {}

/// What a successful run saw of the frequent lattice: [`RunStatus::Truncated`]
/// means the printed results are a valid but partial view (exit code 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The exploration covered the whole frequent lattice.
    Complete,
    /// The budget cut the exploration short; results are partial.
    Truncated(fpm::TruncationReason),
}

impl RunStatus {
    /// The process exit code: 0 for complete runs, 4 for truncated ones.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunStatus::Complete => 0,
            RunStatus::Truncated(_) => 4,
        }
    }
}

/// The usage banner printed on `--help` or bad usage.
pub const USAGE: &str = "\
divexplorer — pattern-divergence analysis of classifier behavior

USAGE:
  divexplorer <explore|shapley|corrective|global|lattice|fairness> --input FILE \\
      --label COL --pred COL [options]
  divexplorer index   --input FILE --label COL --pred COL --name NAME --artifact DIR
  divexplorer probe   --artifact FILE
  divexplorer analyze --artifact DIR --name NAME [options]
  divexplorer serve   [--artifact DIR] [--request-timeout-ms MS] \\
      [--metrics-file FILE] [--slow-ms MS]

ARTIFACTS:
  `index` encodes the dataset and mines + persists its frequent lattice as
  checksummed artifacts under DIR; `analyze` re-analyzes from them with a
  recount (no mining phase) — use the same --support/--engine as the
  index run so the registry key matches (--threads never enters the
  key). `serve` answers NDJSON requests
  (register/mine/query/stats/metrics/trace/shutdown) on stdin, one JSON
  reply per line, caching lattices in memory and in DIR when given. A
  request may set support, engine, metric, top, bins and threads as
  fields named like the flags, checked by the same rules (numbers as
  JSON numbers, never strings). Registry writes are crash-safe (temp
  file + fsync + atomic rename); a corrupt lattice
  artifact is quarantined (*.quarantine) and rebuilt by re-mining, and
  serve isolates every request (panics and expired deadlines fail soft,
  the loop continues).

OPTIONS:
  --artifact PATH    artifact file (probe) or registry directory (index,
                     analyze, serve)
  --name NAME        dataset name in the artifact registry
  --metric LIST      comma-separated metrics (FPR,FNR,ER,ACC,TPR,TNR,PPV,NPV,FDR,FOR) [FPR]
  --support S        minimum support threshold in (0,1] [0.05]
  --top K            rows to print [10]
  --bins B           quantile bins for numeric columns, B >= 1 [3]
  --prune EPS        apply ε-redundancy pruning, EPS finite and >= 0 (explore)
  --fdr Q            keep only FDR-significant patterns at level Q in [0,1]
                     (explore)
  --json             JSON output (explore)
  --itemset SPEC     target pattern, e.g. \"sex=Male,#prior=>3\" (shapley, lattice)
  --threshold T      lattice highlight threshold [0.1]
  --dot              emit Graphviz DOT (lattice)
  --timeout-ms MS    wall-clock budget for the exploration; on expiry the
                     partial results found so far are printed (exit code 4)
  --request-timeout-ms MS
                     per-request deadline for serve; an over-budget request
                     answers {\"ok\":false,...} and the loop continues
  --metrics-file FILE
                     serve: periodically snapshot the live metrics registry
                     to FILE as a Prometheus text exposition (atomic writes)
  --metrics-interval-ms MS
                     interval between --metrics-file snapshots [1000]
  --slow-ms MS       serve: a request taking >= MS dumps its flight-recorder
                     trace (full span tree) to stderr; panics and expired
                     deadlines always dump
  --max-itemsets N   stop after mining N itemsets (exit code 4 when hit)
  --max-depth D      do not explore itemsets longer than D (exit code 4)
  --trace-json FILE  stream telemetry (spans, counters, histograms) to FILE
                     as newline-delimited JSON
  --stats            print an aggregated telemetry summary to stderr
  --engine NAME      mining engine: dense (class-mask popcount counting),
                     fp-growth (faster on tall tables) or eclat; the
                     registry key records it [dense]
  --threads N        worker threads (N >= 1) for mining; at most one per
                     root subtree runs, and the recount stays sequential [1]

EXIT CODES:
  0 success    2 usage error    3 bad input    4 truncated by budget
";

impl Args {
    /// Parses arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
        let mut it = argv.into_iter().peekable();
        let command = match it.next().as_deref() {
            Some("explore") => Command::Explore,
            Some("shapley") => Command::Shapley,
            Some("corrective") => Command::Corrective,
            Some("global") => Command::Global,
            Some("lattice") => Command::Lattice,
            Some("fairness") => Command::Fairness,
            Some("probe") => Command::Probe,
            Some("index") => Command::Index,
            Some("analyze") => Command::Analyze,
            Some("serve") => Command::Serve,
            Some(other) => return Err(CliError::Usage(format!("unknown command '{other}'"))),
            None => return Err(CliError::Usage("missing command".to_string())),
        };
        let mut args = Args {
            command,
            input: String::new(),
            label: String::new(),
            pred: String::new(),
            metrics: vec![Metric::FalsePositiveRate],
            support: 0.05,
            top: 10,
            bins: 3,
            prune: None,
            fdr: None,
            json: false,
            itemset: Vec::new(),
            threshold: 0.1,
            dot: false,
            timeout_ms: None,
            request_timeout_ms: None,
            metrics_file: None,
            metrics_interval_ms: 1_000,
            slow_ms: None,
            max_itemsets: None,
            max_depth: None,
            trace_json: None,
            stats: false,
            engine: fpm::Algorithm::Dense,
            threads: 1,
            artifact: String::new(),
            name: String::new(),
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, CliError> {
                it.next()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--input" => args.input = value(&flag)?,
                "--label" => args.label = value(&flag)?,
                "--pred" => args.pred = value(&flag)?,
                "--support" | "--engine" | "--metric" | "--top" | "--bins" | "--threads"
                | "--prune" | "--fdr" => {
                    let raw = value(&flag)?;
                    set_knob(&mut args, &flag[2..], &raw)
                        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))?
                }
                "--json" => args.json = true,
                "--itemset" => args.itemset = parse_itemset_spec(&value(&flag)?)?,
                "--threshold" => args.threshold = parse_num(&value(&flag)?, &flag)?,
                "--dot" => args.dot = true,
                "--timeout-ms" => args.timeout_ms = Some(parse_num(&value(&flag)?, &flag)?),
                "--request-timeout-ms" => {
                    args.request_timeout_ms = Some(parse_num(&value(&flag)?, &flag)?)
                }
                "--metrics-file" => args.metrics_file = Some(value(&flag)?),
                "--metrics-interval-ms" => {
                    args.metrics_interval_ms = parse_num(&value(&flag)?, &flag)?
                }
                "--slow-ms" => args.slow_ms = Some(parse_num(&value(&flag)?, &flag)?),
                "--max-itemsets" => args.max_itemsets = Some(parse_num(&value(&flag)?, &flag)?),
                "--max-depth" => args.max_depth = Some(parse_num(&value(&flag)?, &flag)?),
                "--trace-json" => args.trace_json = Some(value(&flag)?),
                "--stats" => args.stats = true,
                "--artifact" => args.artifact = value(&flag)?,
                "--name" => args.name = value(&flag)?,
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        // Required flags are per-command: artifact commands read from
        // the registry instead of (or in addition to) a CSV.
        match command {
            Command::Probe => {
                if args.artifact.is_empty() {
                    return Err(CliError::Usage(
                        "--artifact FILE is required for probe".to_string(),
                    ));
                }
            }
            Command::Analyze => {
                if args.artifact.is_empty() || args.name.is_empty() {
                    return Err(CliError::Usage(
                        "--artifact DIR and --name are required for analyze".to_string(),
                    ));
                }
            }
            Command::Serve => {}
            _ => {
                if args.input.is_empty() {
                    return Err(CliError::Usage("--input is required".to_string()));
                }
                if args.label.is_empty() || args.pred.is_empty() {
                    return Err(CliError::Usage(
                        "--label and --pred are required".to_string(),
                    ));
                }
                if command == Command::Index && (args.artifact.is_empty() || args.name.is_empty()) {
                    return Err(CliError::Usage(
                        "--artifact DIR and --name are required for index".to_string(),
                    ));
                }
                if matches!(command, Command::Shapley | Command::Lattice) && args.itemset.is_empty()
                {
                    return Err(CliError::Usage(
                        "--itemset is required for this command".to_string(),
                    ));
                }
            }
        }
        Ok(args)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot parse '{s}'")))
}

/// The knobs `serve` requests share with the command line, each settable
/// per request under the flag's name without the dashes.
pub(crate) const SHARED_KNOBS: [&str; 6] =
    ["support", "engine", "metric", "top", "bins", "threads"];

/// Parses and range-checks one knob value into `args`: the one rule
/// behind both the `--KNOB` flags and serve's request fields (the
/// [`SHARED_KNOBS`], plus the CLI-only `prune` and `fdr`). The error
/// states the rule; each surface prefixes the knob's name.
pub(crate) fn set_knob(args: &mut Args, knob: &str, raw: &str) -> Result<(), String> {
    fn parsed<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("must be {what}, got '{raw}'"))
    }
    fn count(raw: &str, min: usize) -> Result<usize, String> {
        let n = parsed(raw, "a non-negative integer")?;
        (n >= min)
            .then_some(n)
            .ok_or_else(|| format!("must be at least {min}, got {n}"))
    }
    fn number(raw: &str, ok: impl Fn(f64) -> bool, range: &str) -> Result<f64, String> {
        let x = parsed(raw, "a number")?;
        ok(x)
            .then_some(x)
            .ok_or_else(|| format!("must be {range}, got {raw}"))
    }
    match knob {
        "support" => args.support = number(raw, |s| s > 0.0 && s <= 1.0, "in (0, 1]")?,
        "engine" => args.engine = parse_engine(raw)?,
        "metric" => args.metrics = parse_metrics(raw)?,
        "top" => args.top = count(raw, 0)?,
        "bins" => args.bins = count(raw, 1)?,
        "threads" => args.threads = count(raw, 1)?,
        "prune" => args.prune = Some(number(raw, |e| e.is_finite() && e >= 0.0, "finite, >= 0")?),
        "fdr" => args.fdr = Some(number(raw, |q| (0.0..=1.0).contains(&q), "in [0, 1]")?),
        other => unreachable!("'{other}' is not a knob"),
    }
    Ok(())
}

fn parse_engine(s: &str) -> Result<fpm::Algorithm, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "fp-growth" => Ok(fpm::Algorithm::FpGrowth),
        "eclat" => Ok(fpm::Algorithm::Eclat),
        "dense" => Ok(fpm::Algorithm::Dense),
        other => Err(format!(
            "unknown engine '{other}' (expected fp-growth, eclat or dense)"
        )),
    }
}

fn parse_metrics(s: &str) -> Result<Vec<Metric>, String> {
    let mut metrics: Vec<Metric> = Vec::new();
    for name in s.split(',') {
        let metric = match name.trim().to_ascii_uppercase().as_str() {
            "FPR" => Metric::FalsePositiveRate,
            "FNR" => Metric::FalseNegativeRate,
            "ER" => Metric::ErrorRate,
            "ACC" => Metric::Accuracy,
            "TPR" => Metric::TruePositiveRate,
            "TNR" => Metric::TrueNegativeRate,
            "PPV" => Metric::PositivePredictiveValue,
            "NPV" => Metric::NegativePredictiveValue,
            "FDR" => Metric::FalseDiscoveryRate,
            "FOR" => Metric::FalseOmissionRate,
            other => return Err(format!("unknown metric '{other}'")),
        };
        if metrics.contains(&metric) {
            return Err(format!("metric {metric} named twice"));
        }
        metrics.push(metric);
    }
    Ok(metrics)
}

fn parse_itemset_spec(s: &str) -> Result<Vec<(String, String)>, CliError> {
    s.split(',')
        .map(|pair| {
            let (attr, value) = pair
                .split_once('=')
                .ok_or_else(|| CliError::Usage(format!("bad itemset element '{pair}'")))?;
            Ok((attr.trim().to_string(), value.trim().to_string()))
        })
        .collect()
}

/// The analysis input assembled from a CSV.
pub struct Prepared {
    /// Feature table (label/pred columns removed).
    pub data: DiscreteDataset,
    /// Ground truth.
    pub v: Vec<bool>,
    /// Predictions.
    pub u: Vec<bool>,
}

/// Builds the dataset from CSV *content* (exposed for tests; `run_with_content`
/// drives it).
pub fn prepare(content: &str, args: &Args) -> Result<Prepared, CliError> {
    let table = parse_csv(content, ',').map_err(|e| CliError::Input(e.to_string()))?;
    let label_col = column_index(&table, &args.label)?;
    let pred_col = column_index(&table, &args.pred)?;
    let v = parse_bool_column(&table.columns[label_col], &args.label)?;
    let u = parse_bool_column(&table.columns[pred_col], &args.pred)?;

    let mut header = Vec::new();
    let mut columns = Vec::new();
    for (i, name) in table.header.iter().enumerate() {
        if i != label_col && i != pred_col {
            header.push(name.clone());
            columns.push(table.columns[i].clone());
        }
    }
    if header.is_empty() {
        return Err(CliError::Input("no feature columns left".to_string()));
    }
    let data = CsvTable { header, columns }
        .into_dataset(args.bins)
        .map_err(|e| CliError::Input(e.to_string()))?;
    Ok(Prepared { data, v, u })
}

fn column_index(table: &CsvTable, name: &str) -> Result<usize, CliError> {
    table
        .header
        .iter()
        .position(|h| h == name)
        .ok_or_else(|| CliError::Input(format!("column '{name}' not found")))
}

fn parse_bool_column(column: &[String], name: &str) -> Result<Vec<bool>, CliError> {
    column
        .iter()
        .map(|cell| match cell.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "t" | "yes" => Ok(true),
            "0" | "false" | "f" | "no" => Ok(false),
            other => Err(CliError::Input(format!(
                "column '{name}': cannot parse '{other}' as a boolean"
            ))),
        })
        .collect()
}

/// Resolves an `attr=value` spec against the schema.
fn resolve_itemset(
    data: &DiscreteDataset,
    spec: &[(String, String)],
) -> Result<Vec<ItemId>, CliError> {
    let mut items: Vec<ItemId> = spec
        .iter()
        .map(|(attr, value)| {
            data.schema()
                .item_by_name(attr, value)
                .ok_or_else(|| CliError::Input(format!("unknown item {attr}={value}")))
        })
        .collect::<Result<_, _>>()?;
    items.sort_unstable();
    Ok(items)
}

/// Telemetry sinks requested on the command line (`--trace-json`,
/// `--stats`), installed on the global [`obs`] facade for the duration
/// of one run.
pub struct Telemetry {
    stats: Option<std::sync::Arc<obs::StatsRecorder>>,
    installed: bool,
}

impl Telemetry {
    /// Opens the trace file (if any) and installs the requested
    /// recorders. With neither flag set this is a no-op and telemetry
    /// stays disabled — the zero-overhead path.
    pub fn install(args: &Args) -> Result<Telemetry, CliError> {
        use std::sync::Arc;
        let mut recorders: Vec<Arc<dyn obs::Recorder>> = Vec::new();
        if let Some(path) = &args.trace_json {
            let file =
                std::fs::File::create(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            recorders.push(Arc::new(obs::NdjsonRecorder::new(std::io::BufWriter::new(
                file,
            ))));
        }
        let stats = if args.stats {
            let recorder = Arc::new(obs::StatsRecorder::new());
            recorders.push(recorder.clone());
            Some(recorder)
        } else {
            None
        };
        let installed = !recorders.is_empty();
        if installed {
            let recorder: Arc<dyn obs::Recorder> = if recorders.len() == 1 {
                recorders.pop().expect("just checked non-empty")
            } else {
                Arc::new(obs::Tee(recorders))
            };
            obs::install(recorder);
        }
        Ok(Telemetry { stats, installed })
    }

    /// Uninstalls the recorders (flushing the trace file) and renders
    /// the `--stats` summary, if one was requested.
    pub fn finish(self) -> Option<String> {
        if self.installed {
            obs::uninstall();
        }
        self.stats.map(|recorder| recorder.snapshot().render())
    }
}

/// The [`DivExplorer`] configured by `args` — the one builder behind the
/// cold commands, `index`, `analyze` and every `serve` request.
pub(crate) fn explorer_from_args(args: &Args) -> DivExplorer {
    let mut budget = fpm::Budget::unlimited();
    if let Some(ms) = args.timeout_ms {
        budget = budget.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = args.max_itemsets {
        budget = budget.with_max_itemsets(n);
    }
    if let Some(d) = args.max_depth {
        budget = budget.with_max_depth(d);
    }
    DivExplorer::new(args.support)
        .with_algorithm(args.engine)
        .with_threads(args.threads)
        .with_budget(budget)
}

/// Renders an `explore`-style report (table or `--json`) including the
/// truncation warning, and maps the report's completeness to the run
/// status. Shared by the cold `explore` path and `analyze --artifact`.
pub(crate) fn render_explore(
    args: &Args,
    report: &divexplorer::DivergenceReport,
    out: &mut String,
) -> Result<RunStatus, CliError> {
    if args.json {
        let export = report.export();
        let json = serde_json::to_string_pretty(&export)
            .map_err(|e| CliError::Input(format!("cannot serialize report: {e}")))?;
        out.push_str(&json);
        out.push('\n');
        return Ok(match report.completeness().truncation_reason() {
            Some(reason) => RunStatus::Truncated(reason),
            None => RunStatus::Complete,
        });
    }
    for (m, metric) in args.metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "Δ_{metric} (overall {metric} = {:.3}, {} patterns):",
            report.dataset_rate(m),
            report.len()
        );
        let kept: Option<std::collections::HashSet<usize>> = match (args.prune, args.fdr) {
            (Some(eps), _) => Some(prune_redundant(report, m, eps).into_iter().collect()),
            (None, Some(q)) => Some(report.significant_at_fdr(m, q).into_iter().collect()),
            (None, None) => None,
        };
        // `--top 0` has always printed the single best row.
        let top = args.top.max(1);
        let rows = match kept {
            None => report.top_k(m, top, SortBy::Divergence),
            Some(kept) => report
                .ranked(m, SortBy::Divergence)
                .into_iter()
                .filter(|idx| kept.contains(idx))
                .take(top)
                .collect(),
        };
        for idx in rows {
            let _ = writeln!(
                out,
                "  {:<55} sup={:.2} Δ={:+.3} t={:.1}",
                report.display_itemset(report.items(idx)),
                report.support_fraction(idx),
                report.divergence(idx, m),
                report.t_statistic(idx, m),
            );
        }
    }
    Ok(completeness_status(report, out))
}

/// The shared completeness tail: prints the truncation warning and
/// returns the status.
fn completeness_status(report: &divexplorer::DivergenceReport, out: &mut String) -> RunStatus {
    match *report.completeness() {
        fpm::Completeness::Truncated {
            reason,
            emitted,
            elapsed,
        } => {
            // Report the miner's own verdict verbatim (reason, itemsets
            // kept, wall clock) so partial results are auditable.
            let _ = writeln!(
                out,
                "warning: exploration truncated ({reason}) after {emitted} itemsets \
                 in {:.1}ms — results above are partial",
                elapsed.as_secs_f64() * 1e3
            );
            RunStatus::Truncated(reason)
        }
        fpm::Completeness::Complete => RunStatus::Complete,
    }
}

/// Runs the command against CSV content, writing the report to `out`.
///
/// Commands that tolerate a budget-truncated exploration (explore,
/// corrective, lattice) print the partial results and return
/// [`RunStatus::Truncated`]; closure-dependent commands (shapley, global)
/// refuse truncated input with [`CliError::Truncated`].
pub fn run_with_content(
    args: &Args,
    content: &str,
    out: &mut String,
) -> Result<RunStatus, CliError> {
    match args.command {
        Command::Index => {
            artifacts::run_index(args, content, out)?;
            return Ok(RunStatus::Complete);
        }
        Command::Probe | Command::Analyze | Command::Serve => {
            return Err(CliError::Usage(
                "this command does not analyze CSV content".to_string(),
            ));
        }
        _ => {}
    }
    let prepared = prepare(content, args)?;
    if args.command == Command::Fairness {
        run_fairness(args, &prepared, out)?;
        return Ok(RunStatus::Complete);
    }
    let report = explorer_from_args(args)
        .explore(&prepared.data, &prepared.v, &prepared.u, &args.metrics)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let truncation = report.completeness().truncation_reason();

    match args.command {
        Command::Explore => return render_explore(args, &report, out),
        Command::Shapley => {
            if let Some(reason) = truncation {
                return Err(CliError::Truncated(reason));
            }
            let items = resolve_itemset(&prepared.data, &args.itemset)?;
            let idx = report
                .find(&items)
                .ok_or_else(|| CliError::Input("itemset is not frequent".to_string()))?;
            let _ = writeln!(
                out,
                "{}  Δ = {:+.3}",
                report.display_itemset(&items),
                report.divergence(idx, 0)
            );
            let contributions = item_contributions(&report, &items, 0)
                .map_err(|e| CliError::Input(e.to_string()))?;
            for (item, c) in contributions {
                let _ = writeln!(out, "  {:<40} {c:+.3}", report.schema().display_item(item));
            }
        }
        Command::Corrective => {
            for c in top_corrective(&report, 0, args.top, None) {
                let _ = writeln!(
                    out,
                    "  {} + {}  |Δ| {:.3} → {:.3} (c_f {:.3}, t {:.1})",
                    report.display_itemset(&c.base),
                    report.schema().display_item(c.item),
                    c.delta_base.abs(),
                    c.delta_extended.abs(),
                    c.corrective_factor,
                    c.t,
                );
            }
        }
        Command::Global => {
            let mut globals =
                global_item_divergence_checked(&report, 0).map_err(CliError::Truncated)?;
            globals.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (item, g) in globals.into_iter().take(args.top) {
                let _ = writeln!(out, "  {:<40} {g:+.5}", report.schema().display_item(item));
            }
        }
        Command::Lattice => {
            let items = resolve_itemset(&prepared.data, &args.itemset)?;
            let lattice = sublattice(&report, &items, 0, args.threshold)
                .map_err(|e| CliError::Input(e.to_string()))?;
            out.push_str(&if args.dot {
                lattice.to_dot()
            } else {
                lattice.to_ascii()
            });
        }
        Command::Fairness | Command::Probe | Command::Index | Command::Analyze | Command::Serve => {
            unreachable!("dispatched before exploration")
        }
    }
    Ok(completeness_status(&report, out))
}

fn run_fairness(args: &Args, prepared: &Prepared, out: &mut String) -> Result<(), CliError> {
    let audit = audit_fairness(&prepared.data, &prepared.v, &prepared.u, args.support)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let _ = writeln!(
        out,
        "{} subgroups scored against 4 criteria",
        audit.violations.len()
    );
    for criterion in Criterion::ALL {
        let _ = writeln!(out, "\nworst by {}:", criterion.name());
        for violation in audit.worst(criterion, args.top.min(5)) {
            let _ = writeln!(
                out,
                "  {:<50} deviation {:+.3} (sup {:.2})",
                audit.report.display_itemset(&violation.items),
                violation.deviation(criterion),
                violation.support,
            );
        }
    }
    Ok(())
}

/// Entry point for the binary: installs the requested telemetry, reads
/// the input file and runs the command. Returns the rendered output,
/// the run's [`RunStatus`] and the `--stats` summary (if requested) —
/// the telemetry recorders are always uninstalled before returning.
pub fn run(args: &Args) -> Result<(String, RunStatus, Option<String>), CliError> {
    let telemetry = Telemetry::install(args)?;
    let outcome = run_dispatch(args);
    let summary = telemetry.finish();
    outcome.map(|(out, status)| (out, status, summary))
}

fn run_dispatch(args: &Args) -> Result<(String, RunStatus), CliError> {
    let mut out = String::new();
    match args.command {
        // Artifact commands don't read a CSV; `serve` streams responses
        // straight to stdout (one per request) instead of returning them.
        Command::Probe => {
            artifacts::run_probe(args, &mut out)?;
            Ok((out, RunStatus::Complete))
        }
        Command::Analyze => {
            let status = artifacts::run_analyze(args, &mut out)?;
            Ok((out, status))
        }
        Command::Serve => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve::serve_loop(args, stdin.lock(), stdout.lock())?;
            Ok((String::new(), RunStatus::Complete))
        }
        _ => {
            let content = std::fs::read_to_string(&args.input)
                .map_err(|e| CliError::Input(format!("{}: {e}", args.input)))?;
            let status = run_with_content(args, &content, &mut out)?;
            Ok((out, status))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A table with a numeric column, so `--bins` reaches quantile binning.
    const NUMERIC_CSV: &str = "\
age,grp,y,yhat
23,a,0,1
31,a,0,1
45,a,0,1
52,a,0,0
23,b,0,0
38,b,0,0
61,b,0,0
70,b,0,1
";

    fn explore_output(argv: Vec<String>, content: &str) -> Result<String, CliError> {
        let args = Args::parse(argv)?;
        let mut out = String::new();
        run_with_content(&args, content, &mut out)?;
        Ok(out)
    }

    fn base_args(command: &str) -> Vec<String> {
        [
            command,
            "--input",
            "mem.csv",
            "--label",
            "y",
            "--pred",
            "yhat",
            "--support",
            "0.25",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn parse_requires_command_and_io_flags() {
        assert!(matches!(
            Args::parse(Vec::<String>::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Args::parse(vec!["explore".to_string()]),
            Err(CliError::Usage(_))
        ));
        let args = Args::parse(base_args("explore")).unwrap();
        assert_eq!(args.command, Command::Explore);
        assert_eq!(args.support, 0.25);
    }

    #[test]
    fn parse_rejects_unknown_flags_metrics_and_specs() {
        let mut argv = base_args("explore");
        argv.push("--bogus".to_string());
        assert!(matches!(Args::parse(argv), Err(CliError::Usage(_))));

        let mut argv = base_args("explore");
        argv.extend(["--metric".to_string(), "NOPE".to_string()]);
        assert!(matches!(Args::parse(argv), Err(CliError::Usage(_))));

        let mut argv = base_args("shapley");
        argv.extend(["--itemset".to_string(), "broken".to_string()]);
        assert!(matches!(Args::parse(argv), Err(CliError::Usage(_))));
    }

    #[test]
    fn explore_prints_the_divergent_group_first() {
        let args = Args::parse(base_args("explore")).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        // The pair (grp=a, other=x) has FPR 1.0 vs overall 0.5 and tops
        // the ranking; the single grp=a (Δ = +0.25) must also appear.
        let first_row = out.lines().nth(1).unwrap();
        assert!(first_row.contains("grp=a"), "got: {first_row}");
        assert!(first_row.contains("Δ=+0.500"), "got: {first_row}");
        assert!(out.contains("Δ=+0.250"));
    }

    #[test]
    fn every_metric_name_explores_in_one_pass_like_its_own_run() {
        const NAMES: [&str; 10] = [
            "FPR", "FNR", "ER", "ACC", "TPR", "TNR", "PPV", "NPV", "FDR", "FOR",
        ];
        let explore = |metrics: &str| {
            let mut argv = base_args("explore");
            argv.extend(["--metric".to_string(), metrics.to_string()]);
            let args = Args::parse(argv).unwrap();
            let mut out = String::new();
            let status = run_with_content(&args, CSV, &mut out).unwrap();
            assert_eq!(status, RunStatus::Complete, "{metrics}");
            out
        };
        let all = explore(&NAMES.join(","));
        assert_eq!(all.matches("Δ_").count(), NAMES.len(), "{all}");
        let each: String = NAMES.iter().map(|name| explore(name)).collect();
        assert_eq!(all, each, "each block equals its metric's own run");
    }

    #[test]
    fn explore_json_emits_a_parsable_export() {
        let mut argv = base_args("explore");
        argv.push("--json".to_string());
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["metrics"][0], "FPR");
        assert!(parsed["patterns"].as_array().unwrap().len() > 2);
    }

    #[test]
    fn shapley_command_attributes_the_pair() {
        let mut argv = base_args("shapley");
        argv.extend(["--itemset".to_string(), "grp=a,other=x".to_string()]);
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        assert!(out.contains("grp=a, other=x"));
        assert!(out.contains("grp=a") && out.contains("other=x"));
    }

    #[test]
    fn lattice_command_renders_ascii_and_dot() {
        let mut argv = base_args("lattice");
        argv.extend(["--itemset".to_string(), "grp=a,other=x".to_string()]);
        let args = Args::parse(argv.clone()).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        assert!(out.contains("level 0:"));

        argv.push("--dot".to_string());
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn unknown_columns_and_items_error_cleanly() {
        let mut argv = base_args("explore");
        argv[4] = "nope".to_string(); // --label value
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        assert!(matches!(
            run_with_content(&args, CSV, &mut out),
            Err(CliError::Input(_))
        ));

        let mut argv = base_args("shapley");
        argv.extend(["--itemset".to_string(), "grp=zzz".to_string()]);
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        assert!(matches!(
            run_with_content(&args, CSV, &mut out),
            Err(CliError::Input(_))
        ));
    }

    #[test]
    fn fairness_command_scores_criteria() {
        let args = Args::parse(base_args("fairness")).unwrap();
        let mut out = String::new();
        run_with_content(&args, CSV, &mut out).unwrap();
        assert!(out.contains("worst by demographic parity"));
        assert!(out.contains("worst by equalized odds"));
        assert!(out.contains("grp="));
    }

    #[test]
    fn corrective_and_global_commands_run() {
        for cmd in ["corrective", "global"] {
            let args = Args::parse(base_args(cmd)).unwrap();
            let mut out = String::new();
            run_with_content(&args, CSV, &mut out).unwrap();
        }
    }

    #[test]
    fn budget_flags_parse() {
        let mut argv = base_args("explore");
        argv.extend([
            "--timeout-ms".to_string(),
            "250".to_string(),
            "--max-itemsets".to_string(),
            "100".to_string(),
            "--max-depth".to_string(),
            "2".to_string(),
        ]);
        let args = Args::parse(argv).unwrap();
        assert_eq!(args.timeout_ms, Some(250));
        assert_eq!(args.max_itemsets, Some(100));
        assert_eq!(args.max_depth, Some(2));

        let mut argv = base_args("explore");
        argv.extend(["--timeout-ms".to_string(), "soon".to_string()]);
        assert!(matches!(Args::parse(argv), Err(CliError::Usage(_))));
    }

    #[test]
    fn engine_flag_parses_and_rejects_unknown_names() {
        // The library's default engine, so a plain `explore` mines the
        // way `DivExplorer::new` does.
        let args = Args::parse(base_args("explore")).unwrap();
        assert_eq!(args.engine, fpm::Algorithm::Dense);

        for (name, algo) in [
            ("fp-growth", fpm::Algorithm::FpGrowth),
            ("eclat", fpm::Algorithm::Eclat),
            ("dense", fpm::Algorithm::Dense),
        ] {
            let mut argv = base_args("explore");
            argv.extend(["--engine".to_string(), name.to_string()]);
            assert_eq!(Args::parse(argv).unwrap().engine, algo, "{name}");
        }

        for name in ["quantum", "apriori", "eclat-bitset", "sharded"] {
            let mut argv = base_args("explore");
            argv.extend(["--engine".to_string(), name.to_string()]);
            assert!(
                matches!(Args::parse(argv), Err(CliError::Usage(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn every_engine_prints_the_same_explore_report() {
        let reference = {
            let args = Args::parse(base_args("explore")).unwrap();
            let mut out = String::new();
            run_with_content(&args, CSV, &mut out).unwrap();
            out
        };
        for name in ["eclat", "dense"] {
            let mut argv = base_args("explore");
            argv.extend(["--engine".to_string(), name.to_string()]);
            let args = Args::parse(argv).unwrap();
            let mut out = String::new();
            run_with_content(&args, CSV, &mut out).unwrap();
            assert_eq!(out, reference, "engine {name}");
        }
    }

    #[test]
    fn unbudgeted_run_reports_complete_status() {
        let args = Args::parse(base_args("explore")).unwrap();
        let mut out = String::new();
        let status = run_with_content(&args, CSV, &mut out).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(status.exit_code(), 0);
        assert!(!out.contains("warning"));
    }

    #[test]
    fn truncated_explore_prints_partial_results_and_a_warning() {
        let mut argv = base_args("explore");
        argv.extend(["--max-itemsets".to_string(), "2".to_string()]);
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        let status = run_with_content(&args, CSV, &mut out).unwrap();
        assert_eq!(
            status,
            RunStatus::Truncated(fpm::TruncationReason::ItemsetLimit)
        );
        assert_eq!(status.exit_code(), 4);
        assert!(out.contains("2 patterns"), "got: {out}");
        assert!(out.contains("warning: exploration truncated"), "got: {out}");
    }

    #[test]
    fn truncation_warning_reports_the_miner_emitted_count() {
        // The warning's itemset count must come from the miner's own
        // Completeness verdict and agree with the patterns printed:
        // the exit-4 path must not under- or over-report what was kept.
        for limit in [1usize, 2, 3] {
            let mut argv = base_args("explore");
            argv.extend(["--max-itemsets".to_string(), limit.to_string()]);
            let args = Args::parse(argv).unwrap();
            let mut out = String::new();
            let status = run_with_content(&args, CSV, &mut out).unwrap();
            assert_eq!(
                status,
                RunStatus::Truncated(fpm::TruncationReason::ItemsetLimit)
            );
            assert!(
                out.contains(&format!("{limit} patterns")),
                "limit {limit}: got: {out}"
            );
            assert!(
                out.contains(&format!("after {limit} itemsets")),
                "limit {limit}: got: {out}"
            );
        }
    }

    #[test]
    fn closure_dependent_commands_refuse_truncated_input() {
        for cmd in ["shapley", "global"] {
            let mut argv = base_args(cmd);
            argv.extend(["--max-itemsets".to_string(), "2".to_string()]);
            if cmd == "shapley" {
                argv.extend(["--itemset".to_string(), "grp=a".to_string()]);
            }
            let args = Args::parse(argv).unwrap();
            let mut out = String::new();
            let err = run_with_content(&args, CSV, &mut out).unwrap_err();
            assert_eq!(
                err,
                CliError::Truncated(fpm::TruncationReason::ItemsetLimit),
                "{cmd}"
            );
            assert_eq!(err.exit_code(), 4, "{cmd}");
        }
    }

    #[test]
    fn depth_capped_explore_shows_only_short_patterns() {
        let mut argv = base_args("explore");
        argv.extend(["--max-depth".to_string(), "1".to_string()]);
        let args = Args::parse(argv).unwrap();
        let mut out = String::new();
        let status = run_with_content(&args, CSV, &mut out).unwrap();
        assert_eq!(
            status,
            RunStatus::Truncated(fpm::TruncationReason::DepthLimit)
        );
        // No pattern line mentions two attributes.
        assert!(!out.contains("grp=a, other="), "got: {out}");
    }

    #[test]
    fn prune_and_fdr_reject_values_their_analyses_cannot_take() {
        // A value the analysis would assert on is a usage error up front.
        // The knobs shared with serve have their table in `serve::tests`.
        for (flag, bad) in [
            ("--prune", "nan"),
            ("--prune", "-1"),
            ("--prune", "inf"),
            ("--fdr", "5"),
            ("--fdr", "nan"),
            ("--fdr", "-0.1"),
        ] {
            let mut argv = base_args("explore");
            argv.extend([flag.to_string(), bad.to_string()]);
            let err = Args::parse(argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag} {bad}: {err}");
            assert_eq!(err.exit_code(), 2, "{flag} {bad}");
            assert!(err.to_string().contains(flag), "{flag} {bad}: {err}");
        }
        // The edges of each range are accepted.
        for (flag, edge) in [("--prune", "0"), ("--fdr", "0"), ("--fdr", "1")] {
            let mut argv = base_args("explore");
            argv.extend([flag.to_string(), edge.to_string()]);
            explore_output(argv, CSV).unwrap();
        }
    }

    #[test]
    fn huge_thread_and_bin_counts_neither_abort_nor_hang() {
        // Counts far beyond the data must not size an allocation or a loop.
        let reference = explore_output(base_args("explore"), CSV).unwrap();
        let mut argv = base_args("explore");
        argv.extend(["--threads".to_string(), "100000000000".to_string()]);
        assert_eq!(explore_output(argv, CSV).unwrap(), reference);

        // More quantile bins than rows give the one-bin-per-value cuts.
        let mut per_value = base_args("explore");
        per_value.extend(["--bins".to_string(), "8".to_string()]);
        let mut huge = base_args("explore");
        huge.extend(["--bins".to_string(), "100000000000".to_string()]);
        assert_eq!(
            explore_output(huge, NUMERIC_CSV).unwrap(),
            explore_output(per_value, NUMERIC_CSV).unwrap()
        );
    }

    #[test]
    fn threads_flag_parses_and_rejects_bad_values() {
        let mut argv = base_args("explore");
        argv.extend(["--threads".to_string(), "4".to_string()]);
        assert_eq!(Args::parse(argv).unwrap().threads, 4);

        for bad in ["0", "nope"] {
            let mut argv = base_args("explore");
            argv.extend(["--threads".to_string(), bad.to_string()]);
            assert!(
                matches!(Args::parse(argv), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn the_retired_shard_flags_and_engine_are_usage_errors() {
        // The flags of the retired shard pipeline fail like any unknown
        // flag, naming it, with a value that used to be valid.
        for (flag, value) in [("--shards", "3"), ("--prefetch", "2"), ("--format", "dxs")] {
            let mut argv = base_args("explore");
            argv.extend([flag.to_string(), value.to_string()]);
            let err = Args::parse(argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag}: {err}");
            assert!(err.to_string().contains(flag), "{flag}: {err}");
        }
        let mut argv = base_args("explore");
        argv.extend(["--engine".to_string(), "sharded".to_string()]);
        let err = Args::parse(argv).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("sharded"), "{err}");
        for engine in ["fp-growth", "eclat", "dense"] {
            assert!(err.to_string().contains(engine), "{err}");
        }
    }

    fn artifact_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cli-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn index_args(dir: &std::path::Path) -> Vec<String> {
        let mut argv = base_args("index");
        argv.extend([
            "--name".to_string(),
            "toy".to_string(),
            "--artifact".to_string(),
            dir.to_str().unwrap().to_string(),
        ]);
        argv
    }

    #[test]
    fn artifact_commands_validate_their_required_flags() {
        // probe/analyze need --artifact (and --name), not --input.
        assert!(matches!(
            Args::parse(vec!["probe".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Args::parse(vec![
                "analyze".to_string(),
                "--artifact".to_string(),
                "dir".to_string()
            ]),
            Err(CliError::Usage(_))
        ));
        // index additionally needs the CSV flags.
        assert!(matches!(
            Args::parse(base_args("index")),
            Err(CliError::Usage(_))
        ));
        // serve needs nothing.
        let args = Args::parse(vec!["serve".to_string()]).unwrap();
        assert_eq!(args.command, Command::Serve);
        let args = Args::parse(vec![
            "probe".to_string(),
            "--artifact".to_string(),
            "x.dxd".to_string(),
        ])
        .unwrap();
        assert_eq!(args.command, Command::Probe);
        assert_eq!(args.artifact, "x.dxd");
    }

    #[test]
    fn index_then_analyze_matches_the_cold_explore() {
        let dir = artifact_temp_dir("warm");
        let args = Args::parse(index_args(&dir)).unwrap();
        let mut index_out = String::new();
        run_with_content(&args, CSV, &mut index_out).unwrap();
        assert!(index_out.contains("dataset 'toy'"), "got: {index_out}");
        assert!(index_out.contains("lattice:"), "got: {index_out}");

        let cold = {
            let args = Args::parse(base_args("explore")).unwrap();
            let mut out = String::new();
            run_with_content(&args, CSV, &mut out).unwrap();
            out
        };
        let mut argv = vec![
            "analyze".to_string(),
            "--artifact".to_string(),
            dir.to_str().unwrap().to_string(),
            "--name".to_string(),
            "toy".to_string(),
            "--support".to_string(),
            "0.25".to_string(),
        ];
        let analyze = Args::parse(argv.clone()).unwrap();
        let mut warm = String::new();
        let status = artifacts::run_analyze(&analyze, &mut warm).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(warm, cold, "recount must reproduce the cold explore");

        // A different metric recounts the same lattice.
        argv.extend(["--metric".to_string(), "FNR".to_string()]);
        let analyze = Args::parse(argv).unwrap();
        let mut fnr = String::new();
        artifacts::run_analyze(&analyze, &mut fnr).unwrap();
        assert!(fnr.contains("Δ_FNR"), "got: {fnr}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_prints_the_artifact_header() {
        let dir = artifact_temp_dir("probe");
        let args = Args::parse(index_args(&dir)).unwrap();
        run_with_content(&args, CSV, &mut String::new()).unwrap();

        let probe_of = |path: &std::path::Path| {
            let probe = Args::parse(vec![
                "probe".to_string(),
                "--artifact".to_string(),
                path.to_str().unwrap().to_string(),
            ])
            .unwrap();
            let mut out = String::new();
            artifacts::run_probe(&probe, &mut out).unwrap();
            out
        };
        let dataset = dir.join("toy.dxd");
        let out = probe_of(&dataset);
        assert!(out.contains("kind:     dataset"), "got: {out}");
        assert!(out.contains("version:  1"), "got: {out}");

        // An old `.dxs` file still probes by its kind number, 3: the same
        // envelope with the kind rewritten and the checksum resealed.
        let mut bytes = std::fs::read(&dataset).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let end = bytes.len() - 8;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes[..end] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[end..].copy_from_slice(&h.to_le_bytes());
        let old = dir.join("toy.dxs");
        std::fs::write(&old, &bytes).unwrap();
        let out = probe_of(&old);
        assert!(out.contains("kind:     shards"), "got: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tampered_lattice_artifact_is_quarantined_and_rebuilt() {
        let dir = artifact_temp_dir("tamper");
        let args = Args::parse(index_args(&dir)).unwrap();
        run_with_content(&args, CSV, &mut String::new()).unwrap();
        let cold = {
            let args = Args::parse(base_args("explore")).unwrap();
            let mut out = String::new();
            run_with_content(&args, CSV, &mut out).unwrap();
            out
        };
        let arena_file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "dxa"))
            .unwrap();
        let mut bytes = std::fs::read(&arena_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&arena_file, &bytes).unwrap();

        let analyze = Args::parse(vec![
            "analyze".to_string(),
            "--artifact".to_string(),
            dir.to_str().unwrap().to_string(),
            "--name".to_string(),
            "toy".to_string(),
            "--support".to_string(),
            "0.25".to_string(),
        ])
        .unwrap();
        // The poisoned lattice is quarantined and rebuilt from the
        // dataset artifact: the analysis still succeeds, with a warning,
        // and the output below the warning matches the cold explore.
        let mut out = String::new();
        let status = artifacts::run_analyze(&analyze, &mut out).unwrap();
        assert_eq!(status, RunStatus::Complete);
        let warning = out.lines().next().unwrap();
        assert!(warning.contains("checksum mismatch"), "got: {warning}");
        assert!(warning.contains("quarantined"), "got: {warning}");
        let body = out.split_once('\n').unwrap().1;
        assert_eq!(body, cold, "rebuilt recount must match the cold explore");
        // The poisoned bytes moved aside; the registry slot was rebuilt
        // and the next analyze is warm again (no warning).
        assert!(datasets::artifact::quarantine_path(&arena_file).exists());
        let mut again = String::new();
        artifacts::run_analyze(&analyze, &mut again).unwrap();
        assert_eq!(again, cold, "re-persisted artifact must load cleanly");

        // A missing arena (wrong support → different registry key) still
        // fails typed, with a hint to re-index: a key miss is a parameter
        // mismatch, not corruption.
        let mut missing = analyze.clone();
        missing.support = 0.5;
        let err = artifacts::run_analyze(&missing, &mut String::new()).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("index"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tampered_dataset_artifact_still_fails_closed_with_exit_code_3() {
        let dir = artifact_temp_dir("tamper-dataset");
        let args = Args::parse(index_args(&dir)).unwrap();
        run_with_content(&args, CSV, &mut String::new()).unwrap();
        // Flip a byte in the *dataset* artifact: there is no deeper
        // source of truth on disk to rebuild it from, so analyze must
        // fail closed rather than quarantine.
        let dataset_file = dir.join("toy.dxd");
        let mut bytes = std::fs::read(&dataset_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&dataset_file, &bytes).unwrap();

        let analyze = Args::parse(vec![
            "analyze".to_string(),
            "--artifact".to_string(),
            dir.to_str().unwrap().to_string(),
            "--name".to_string(),
            "toy".to_string(),
            "--support".to_string(),
            "0.25".to_string(),
        ])
        .unwrap();
        let err = artifacts::run_analyze(&analyze, &mut String::new()).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(
            !datasets::artifact::quarantine_path(&dataset_file).exists(),
            "dataset artifacts are never quarantined"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_engine_miss_names_the_engine_the_registry_holds() {
        // A registry indexed under another engine than the default: a
        // plain analyze misses its key, stays a typed exit-3 error, and
        // says which slot is there instead of reading or mining it.
        let dir = artifact_temp_dir("engine-miss");
        let mut argv = index_args(&dir);
        argv.extend(["--engine".to_string(), "fp-growth".to_string()]);
        let args = Args::parse(argv).unwrap();
        run_with_content(&args, CSV, &mut String::new()).unwrap();
        let slots = || -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name.ends_with(".dxa"))
                .collect();
            names.sort();
            names
        };
        let indexed = slots();
        assert!(indexed[0].ends_with("-fp-growth.dxa"), "{indexed:?}");

        let analyze = Args::parse(vec![
            "analyze".to_string(),
            "--artifact".to_string(),
            dir.to_str().unwrap().to_string(),
            "--name".to_string(),
            "toy".to_string(),
            "--support".to_string(),
            "0.25".to_string(),
        ])
        .unwrap();
        let err = artifacts::run_analyze(&analyze, &mut String::new()).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        let message = err.to_string();
        assert!(
            message.contains("-dense.dxa: artifact not found"),
            "{message}"
        );
        assert!(message.contains("--engine fp-growth"), "{message}");
        assert_eq!(slots(), indexed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_timeout_flag_parses() {
        let args = Args::parse(vec![
            "serve".to_string(),
            "--request-timeout-ms".to_string(),
            "750".to_string(),
        ])
        .unwrap();
        assert_eq!(args.request_timeout_ms, Some(750));
        assert!(matches!(
            Args::parse(vec![
                "serve".to_string(),
                "--request-timeout-ms".to_string(),
                "soon".to_string(),
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn index_refuses_to_persist_a_truncated_lattice() {
        let dir = artifact_temp_dir("truncated");
        let mut argv = index_args(&dir);
        argv.extend(["--max-itemsets".to_string(), "2".to_string()]);
        let args = Args::parse(argv).unwrap();
        let err = run_with_content(&args, CSV, &mut String::new()).unwrap_err();
        assert_eq!(
            err,
            CliError::Truncated(fpm::TruncationReason::ItemsetLimit)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_boolean_labels_error() {
        let args = Args::parse(base_args("explore")).unwrap();
        let mut out = String::new();
        let bad = "grp,y,yhat\na,maybe,1\n";
        assert!(matches!(
            run_with_content(&args, bad, &mut out),
            Err(CliError::Input(_))
        ));
    }
}
