//! Artifact-backed subcommands: `probe`, `index` and `analyze`.
//!
//! `index` runs the expensive part once — encode the dataset, mine the
//! frequent lattice — and persists both as checksummed artifacts.
//! `analyze --artifact` then re-analyzes any number of times by
//! recount ([`divexplorer::DivExplorer::from_artifact`]),
//! never re-mining. `probe` validates an artifact's envelope and prints
//! its header without decoding the sections.
//!
//! Nothing here panics on untrusted bytes, and corruption degrades by
//! provenance (DESIGN.md §6h): a tampered, truncated or version-skewed
//! **lattice** artifact is quarantined (`*.quarantine`) and rebuilt by
//! re-mining the dataset artifact — `analyze` still succeeds, with a
//! warning. That ladder is [`artifact::resolve_lattice`], shared with
//! `serve`. A poisoned **dataset** artifact fails closed with a typed
//! [`CliError::Input`] (exit code 3): there is nothing on disk to
//! rebuild it from.

use std::fmt::Write as _;
use std::path::Path;

use datasets::artifact::{self, ArenaKey};
use datasets::artifact_io::DiskIo;
use divexplorer::{DiscreteDataset, LatticeTallies};

use crate::{explorer_from_args, prepare, render_explore, Args, CliError, RunStatus};

fn input_err(context: &dyn std::fmt::Display, e: &dyn std::fmt::Display) -> CliError {
    CliError::Input(format!("{context}: {e}"))
}

/// `probe`: validates the envelope (magic, version, checksum, section
/// table) and prints the header.
pub fn run_probe(args: &Args, out: &mut String) -> Result<(), CliError> {
    let path = Path::new(&args.artifact);
    let info = artifact::probe(path).map_err(|e| input_err(&path.display(), &e))?;
    let _ = writeln!(out, "artifact: {}", path.display());
    let _ = writeln!(out, "  kind:     {}", info.kind_name());
    let _ = writeln!(out, "  version:  {}", info.version);
    let _ = writeln!(out, "  hash:     {:016x}", info.hash);
    let _ = writeln!(out, "  bytes:    {}", info.bytes);
    let _ = writeln!(out, "  sections: {}", info.sections);
    Ok(())
}

/// `index`: encodes the CSV into a dataset artifact and mines + persists
/// its frequent lattice under the registry key.
pub fn run_index(args: &Args, content: &str, out: &mut String) -> Result<(), CliError> {
    let prepared = prepare(content, args)?;
    let (candidates, _) = mine_lattice(args, &prepared.data, &prepared.v, &prepared.u)?;
    let dir = Path::new(&args.artifact);
    std::fs::create_dir_all(dir).map_err(|e| input_err(&dir.display(), &e))?;

    let dataset_path = dir.join(artifact::dataset_file_name(&args.name));
    let hash = artifact::save_dataset(&dataset_path, &prepared.data, &prepared.v, &prepared.u)
        .map_err(|e| input_err(&dataset_path.display(), &e))?;

    let key = ArenaKey::new(hash, prepared.data.n_rows(), args.support, args.engine);
    let arena_path = dir.join(artifact::arena_file_name(&key));
    artifact::save_arena(&arena_path, &key, &candidates)
        .map_err(|e| input_err(&arena_path.display(), &e))?;

    let _ = writeln!(
        out,
        "dataset '{}': {} rows, hash {hash:016x} -> {}",
        args.name,
        prepared.data.n_rows(),
        dataset_path.display()
    );
    let _ = writeln!(
        out,
        "lattice: {} patterns at support >= {} ({} rows) -> {}",
        candidates.len(),
        args.support,
        key.min_support_count,
        arena_path.display()
    );
    Ok(())
}

/// Mines the candidate lattice (items + supports, unit payload) of
/// `data` as `args` configure it, with the tallies of `(v, u)` over it
/// that the mining pass counted: the one mine step behind `index`, the
/// rebuild of a quarantined registry slot and serve's cold mine. Refuses
/// a budget-truncated lattice, since a partial candidate set would
/// silently poison every later recount, and normalizes to canonical
/// order so the artifact bytes do not depend on the engine's emission
/// order.
pub(crate) fn mine_lattice(
    args: &Args,
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
) -> Result<(fpm::ItemsetArena<()>, LatticeTallies), CliError> {
    let report = explorer_from_args(args)
        .explore(data, v, u, &args.metrics)
        .map_err(|e| CliError::Input(e.to_string()))?;
    if let Some(reason) = report.completeness().truncation_reason() {
        return Err(CliError::Truncated(reason));
    }
    Ok(report.into_lattice())
}

/// `analyze --artifact`: loads the dataset and lattice artifacts and
/// recounts — the warm path. No mining phase runs on healthy artifacts;
/// a poisoned lattice artifact is quarantined and rebuilt (one re-mine,
/// a warning, exit 0). A *missing* lattice artifact stays a typed error
/// with a re-index hint: a registry-key miss is a parameter mismatch,
/// not corruption, and silently mining at the wrong key would mask it.
/// The hint names the engines whose slot does hold this lattice, so a
/// registry indexed under another `--engine` says so.
pub fn run_analyze(args: &Args, out: &mut String) -> Result<RunStatus, CliError> {
    let dir = Path::new(&args.artifact);
    let dataset_path = dir.join(artifact::dataset_file_name(&args.name));
    let ds = artifact::load_dataset(&dataset_path)
        .map_err(|e| input_err(&dataset_path.display(), &e))?;
    let explorer = explorer_from_args(args);

    let key_of = |engine| ArenaKey::new(ds.hash, ds.data.n_rows(), args.support, engine);
    let key = key_of(args.engine);
    let arena_path = dir.join(artifact::arena_file_name(&key));
    if !arena_path.exists() {
        let held: Vec<String> = fpm::Algorithm::ALL
            .into_iter()
            .map(key_of)
            .filter(|other| dir.join(artifact::arena_file_name(other)).exists())
            .map(|other| other.engine)
            .collect();
        let hint = if held.is_empty() {
            "index this dataset first with `divexplorer index` using the same \
             --support and --engine"
                .to_string()
        } else {
            format!(
                "this lattice is indexed under --engine {}; pass that engine, \
                 or index again with this one",
                held.join(", ")
            )
        };
        return Err(CliError::Input(format!(
            "{}: artifact not found ({hint})",
            arena_path.display()
        )));
    }
    let resolved = artifact::resolve_lattice(&DiskIo, &arena_path, &key, || {
        let (lattice, _) = mine_lattice(args, &ds.data, &ds.v, &ds.u)?;
        Ok(lattice)
    })?;
    for warning in &resolved.warnings {
        let _ = writeln!(out, "warning: {warning}");
    }
    let report = explorer
        .from_artifact(&ds.data, &resolved.lattice, &ds.v, &ds.u, &args.metrics)
        .map_err(|e| CliError::Input(e.to_string()))?;
    render_explore(args, &report, out)
}
