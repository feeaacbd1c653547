//! `divbench`: the repository benchmark. It measures what users of this
//! repository wait for — a batch audit (explore, then rank and analyse
//! the lattice; the paper's Figure 6) and a resident `serve` session
//! answering re-analysis queries — and checks every answer. See README.md
//! in this directory for the workloads, metrics and how to compare
//! commits.
//!
//! ```text
//! divbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!          [--smoke] [--write-pins]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of stdout is a JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Without it, every workload runs in a child process of its
//! own (so `peak_rss_mb` belongs to one workload) and the last line
//! merges their results. A failed operation or a wrong answer exits 1.

mod batch;
mod check;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::process::ExitCode;

use serde_json::Value;

/// `--seconds` when none is given; matches `run_seconds` in the
/// repository's `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// The benchmark's workloads. Names are fixed: later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6Deep,
    Fig6Wide,
    LatticeAnalysis,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Deep,
        Workload::Fig6Wide,
        Workload::LatticeAnalysis,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Deep => "fig6-deep",
            Workload::Fig6Wide => "fig6-wide",
            Workload::LatticeAnalysis => "lattice-analysis",
            Workload::ServeWarm => "serve-warm",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Measurement budget. It fixes the number of passes through a
    /// workload's nominal pass cost, so both sides of a comparison do the
    /// same work however fast they are.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Config {
    /// Passes to run for a workload whose pass nominally takes
    /// `nominal_s` on the reference machine: one in smoke and traced
    /// runs, otherwise `seconds / nominal_s` rounded, at least one.
    pub fn passes(&self, nominal_s: f64) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            ((self.seconds / nominal_s).round() as usize).max(1)
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 when it is not a statistic).
    pub n: usize,
    /// Extra qualification printed after the sample count, e.g. which
    /// percentile a tail value is.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            n,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }

    /// Appends the first and third quartile of the samples the value
    /// summarizes.
    pub fn with_quartiles(mut self, samples: &[f64]) -> Metric {
        if samples.len() >= 2 {
            let [q1, _, q3] = stats::quartiles(samples);
            let sep = if self.note.is_empty() { "" } else { ", " };
            self.note = format!("{}{sep}q1 {q1:.3}, q3 {q3:.3}", self.note);
        }
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: cell executions or serve requests.
    pub attempted: u64,
    /// Operations that failed: `Err` results, truncated cells, `ok:false`
    /// responses.
    pub failed: u64,
    /// Every failure and wrong answer, for the diagnostic stream.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one attempted operation and, if it failed, why.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Records a wrong answer (not a failed operation).
    pub fn wrong(&mut self, why: String) {
        self.errors.push(why);
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Number(attempted as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&line).expect("result serialization is infallible")
}

struct Args {
    workload: Option<Workload>,
    config: Config,
    write_pins: bool,
}

const USAGE: &str = "usage: divbench [--workload fig6-deep|fig6-wide|lattice-analysis|serve-warm] \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--write-pins]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        config: Config {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        write_pins: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.config.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                args.config.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.config.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.config.smoke = true,
            "--write-pins" => args.write_pins = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run_workload(workload: Workload, config: &Config) -> Result<Outcome, String> {
    match workload {
        Workload::ServeWarm => serve::run(config),
        batch_workload => batch::run(batch_workload, config),
    }
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let detail = match (m.n, m.note.as_str()) {
            (0, "") => String::new(),
            (n, "") => format!(" (n={n})"),
            (n, note) => format!(" (n={n}, {note})"),
        };
        println!("{workload} {} {} {}{detail}", m.name, m.value, m.unit);
    }
}

/// Runs one workload here and prints its metrics and result line.
fn run_one(workload: Workload, config: &Config) -> ExitCode {
    match run_workload(workload, config) {
        Ok(outcome) => {
            print_metrics(workload.name(), &outcome.metrics);
            for e in &outcome.errors {
                eprintln!("divbench: {}: {e}", workload.name());
            }
            let correct = outcome.errors.is_empty();
            println!(
                "{}",
                result_line(
                    correct,
                    outcome.attempted.max(1),
                    outcome.failed,
                    metrics_json(&outcome.metrics)
                )
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("divbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process of its own, passes their
/// metric lines through, and merges their result lines (metric names
/// prefixed with the workload's).
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("divbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for workload in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", workload.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("divbench: {}: cannot start: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        let result: Value = match serde_json::from_str(last) {
            Ok(v) => v,
            Err(_) => {
                eprintln!("divbench: {}: no result line", workload.name());
                return ExitCode::FAILURE;
            }
        };
        correct &= output.status.success() && result["correct"].as_bool() == Some(true);
        attempted += result["attempted"].as_u64().unwrap_or(0);
        failed += result["failed"].as_u64().unwrap_or(0);
        if let Some(fields) = result["metrics"].as_object() {
            for (name, value) in fields {
                merged.push((format!("{}.{name}", workload.name()), value.clone()));
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, Value::Object(merged))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("divbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_pins {
        return match check::write_pins() {
            Ok(path) => {
                println!("pins written to {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("divbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match args.workload {
        Some(workload) => run_one(workload, &args.config),
        None => run_all(&argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn benchmark_command_arguments_parse() {
        let a = parse_args(&argv(
            "--workload serve-warm --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeWarm));
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.seconds, 20.0);
        assert!(!a.config.trace);
        let a = parse_args(&argv("--trace 1 --smoke")).unwrap();
        assert!(a.config.trace && a.config.smoke);
        assert_eq!(a.workload, None);
        let a = parse_args(&argv("--trace --seed 3")).unwrap();
        assert!(a.config.trace);
        assert_eq!(a.config.seed, 3);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv("--workload fig7")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--fast")).is_err());
    }

    #[test]
    fn passes_follow_the_budget_not_the_speed() {
        let mut c = Config {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        };
        assert_eq!(c.passes(8.0), 3);
        assert_eq!(c.passes(0.5), 40);
        assert_eq!(c.passes(100.0), 1);
        c.smoke = true;
        assert_eq!(c.passes(0.5), 1);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric::new("sweep_s", 1.25, "s", 3)];
        let line = result_line(true, 4, 0, metrics_json(&m));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["sweep_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["sweep_s"]["unit"].as_str(), Some("s"));
    }
}
