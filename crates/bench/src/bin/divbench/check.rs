//! Correctness gates. Every lattice a workload mines is reduced to a
//! fingerprint outside the timed regions and compared against the pins
//! committed in `reports/bench/pins.json` when the tables' own
//! predictions are audited (`--seed` 42), or else against a dense
//! exploration of the same cell.

use std::path::{Path, PathBuf};

use datasets::{DatasetId, GeneratedDataset};
use divexplorer::{DivExplorer, DivergenceReport, Metric};
use serde_json::Value;

use crate::batch;
use crate::inputs::TABLE_SEED;

/// Where committed results live, relative to the repository root.
pub const REPORT_DIR: &str = "reports/bench";

const PINS_FILE: &str = "pins.json";

/// The metrics every batch cell explores; fingerprints cover their tallies.
pub const METRICS: [Metric; 2] = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A lattice's identity: its pattern count and a fingerprint over every
/// pattern's canonical (items, support, per-metric T/F/⊥ counts). Each
/// pattern is hashed with FNV-1a and the hashes are summed, so the
/// fingerprint does not depend on the order an engine emits patterns in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lattice {
    pub patterns: u64,
    pub fingerprint: u64,
}

pub fn lattice_of(report: &DivergenceReport) -> Lattice {
    let mut sum = 0u64;
    for p in report.patterns() {
        let mut h = FNV_OFFSET;
        for &item in p.items {
            h = fnv1a(h, &item.to_le_bytes());
        }
        h = fnv1a(h, &p.support.to_le_bytes());
        for c in p.counts.as_slice() {
            for x in [c.t, c.f, c.bot] {
                h = fnv1a(h, &x.to_le_bytes());
            }
        }
        sum = sum.wrapping_add(h);
    }
    Lattice {
        patterns: report.len() as u64,
        fingerprint: sum,
    }
}

/// One (dataset, support) cell's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    pub dataset: DatasetId,
    pub support: f64,
    pub lattice: Lattice,
}

fn pins_path() -> PathBuf {
    Path::new(REPORT_DIR).join(PINS_FILE)
}

fn dataset_by_name(name: &str) -> Option<DatasetId> {
    DatasetId::ALL.into_iter().find(|id| id.name() == name)
}

/// Loads the committed pins, if there are any.
fn load_pins() -> Result<Option<Vec<Pin>>, String> {
    let path = pins_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let bad = |what: &str| format!("{}: {what}", path.display());
    let v: Value = serde_json::from_str(&text).map_err(|e| bad(&e.to_string()))?;
    if v["table_seed"].as_u64() != Some(TABLE_SEED) {
        return Err(bad(&format!(
            "pins are not for tables of seed {TABLE_SEED}"
        )));
    }
    let cells = v["cells"].as_array().ok_or_else(|| bad("no cells"))?;
    cells
        .iter()
        .map(|c| {
            let fingerprint = c["fingerprint"]
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            Ok(Pin {
                dataset: c["dataset"]
                    .as_str()
                    .and_then(dataset_by_name)
                    .ok_or_else(|| bad("bad dataset"))?,
                support: c["support"].as_f64().ok_or_else(|| bad("bad support"))?,
                lattice: Lattice {
                    patterns: c["patterns"].as_u64().ok_or_else(|| bad("bad patterns"))?,
                    fingerprint: fingerprint.ok_or_else(|| bad("bad fingerprint"))?,
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Some)
}

/// Explores a cell with the dense engine.
fn dense_lattice(table: &GeneratedDataset, support: f64) -> Result<Lattice, String> {
    DivExplorer::new(support)
        .with_algorithm(fpm::Algorithm::Dense)
        .explore(&table.data, &table.v, &table.u, &METRICS)
        .map(|r| lattice_of(&r))
        .map_err(|e| format!("dense reference: {e}"))
}

/// The reference identity of every cell: its pin for [`TABLE_SEED`] (when
/// pins are committed), otherwise a dense exploration of the cell.
pub fn references(
    seed: u64,
    cells: &[(DatasetId, f64)],
    tables: &[(DatasetId, GeneratedDataset)],
) -> Result<Vec<Lattice>, String> {
    if let Some(pins) = load_pins()?.filter(|_| seed == TABLE_SEED) {
        return cells
            .iter()
            .map(|&(id, s)| {
                pins.iter()
                    .find(|p| p.dataset == id && p.support == s)
                    .map(|p| p.lattice)
                    .ok_or_else(|| {
                        format!("{}: no pin for {} s={s}", pins_path().display(), id.name())
                    })
            })
            .collect();
    }
    cells
        .iter()
        .map(|&(id, s)| {
            let (_, table) = tables
                .iter()
                .find(|(t, _)| *t == id)
                .expect("every cell's table is generated");
            dense_lattice(table, s)
        })
        .collect()
}

/// Compares measured lattices against their references.
pub fn compare(cells: &[(DatasetId, f64)], got: &[Lattice], want: &[Lattice]) -> Vec<String> {
    cells
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| g != w)
        .map(|(&(id, s), (g, w))| {
            format!(
                "{} s={s}: lattice {} patterns / {:016x}, expected {} / {:016x}",
                id.name(),
                g.patterns,
                g.fingerprint,
                w.patterns,
                w.fingerprint
            )
        })
        .collect()
}

/// Pins every batch cell: explores each with the default engine and with
/// the dense engine, refuses if they disagree, and writes the pins file.
pub fn write_pins() -> Result<PathBuf, String> {
    let mut rows = Vec::new();
    for (id, support) in batch::all_cells() {
        let table = id.generate(TABLE_SEED);
        let default = DivExplorer::new(support)
            .explore(&table.data, &table.v, &table.u, &METRICS)
            .map(|r| lattice_of(&r))
            .map_err(|e| e.to_string())?;
        let dense = dense_lattice(&table, support)?;
        if default != dense {
            return Err(format!(
                "{} s={support}: default engine and dense disagree",
                id.name()
            ));
        }
        rows.push(Value::Object(vec![
            ("dataset".to_string(), Value::String(id.name().to_string())),
            ("support".to_string(), Value::Number(support)),
            (
                "patterns".to_string(),
                Value::Number(default.patterns as f64),
            ),
            (
                "fingerprint".to_string(),
                Value::String(format!("{:016x}", default.fingerprint)),
            ),
        ]));
    }
    let doc = Value::Object(vec![
        ("table_seed".to_string(), Value::Number(TABLE_SEED as f64)),
        (
            "metrics".to_string(),
            Value::Array(
                METRICS
                    .iter()
                    .map(|m| Value::String(m.short_name().to_string()))
                    .collect(),
            ),
        ),
        ("cells".to_string(), Value::Array(rows)),
    ]);
    let path = pins_path();
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(REPORT_DIR)
        .and_then(|()| std::fs::write(&path, json + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_emission_order_but_not_content() {
        let t = DatasetId::Heart.generate_sized(200, 5);
        let fp = DivExplorer::new(0.2)
            .explore(&t.data, &t.v, &t.u, &METRICS)
            .unwrap();
        let dense = DivExplorer::new(0.2)
            .with_algorithm(fpm::Algorithm::Dense)
            .explore(&t.data, &t.v, &t.u, &METRICS)
            .unwrap();
        assert_eq!(lattice_of(&fp), lattice_of(&dense));
        let mut u = t.u.clone();
        u[0] = !u[0];
        let flipped = DivExplorer::new(0.2)
            .explore(&t.data, &t.v, &u, &METRICS)
            .unwrap();
        assert_eq!(lattice_of(&flipped).patterns, lattice_of(&fp).patterns);
        assert_ne!(
            lattice_of(&flipped).fingerprint,
            lattice_of(&fp).fingerprint
        );
    }
}
