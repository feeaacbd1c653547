//! The DivExplorer algorithm (Algorithm 1 of the paper): frequent-pattern
//! mining with fused outcome tallies.
//!
//! Given a dataset `D`, ground truth `v`, black-box predictions `u`, a list
//! of metrics and a minimum support `s`, the exploration:
//!
//! 1. one-hot encodes every instance's confusion cell as a
//!    [`CountedCells`] payload, whatever the metrics (lines 1–2),
//! 2. runs a frequent-pattern miner whose payload mechanism sums the
//!    cells of covering transactions per candidate itemset (lines 4–12),
//! 3. derives each metric's `(T, F, ⊥)` tallies from the cells, and from
//!    them rates and divergences, when the report is read (lines 13–14).
//!
//! The result is *sound and complete* (Theorem 5.1): it contains exactly the
//! itemsets with support ≥ `s`, each with its exact divergence.

use std::time::Instant;

use crate::counts::{ConfusionCells, CountedCells, OutcomeCounts};
use crate::dataset::DiscreteDataset;
use crate::report::DivergenceReport;
use crate::Metric;
use fpm::{
    Budget, BudgetSink, CancelToken, Completeness, ItemsetArena, ItemsetSink, Payload, TracingSink,
    TruncationReason,
};

/// Errors from [`DivExplorer::explore`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// `v` or `u` does not have one entry per dataset row.
    LengthMismatch {
        /// `"ground truth"` or `"predictions"`.
        which: &'static str,
        /// Supplied length.
        got: usize,
        /// Dataset row count.
        expected: usize,
    },
    /// No metrics were requested.
    NoMetrics,
    /// The same metric was requested twice.
    DuplicateMetric(Metric),
    /// The dataset has no rows.
    EmptyDataset,
    /// The support threshold is not a finite value in `[0, 1]`.
    InvalidSupport(f64),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::LengthMismatch {
                which,
                got,
                expected,
            } => {
                write!(
                    f,
                    "{which} has {got} entries but the dataset has {expected} rows"
                )
            }
            ExploreError::NoMetrics => write!(f, "at least one metric is required"),
            ExploreError::DuplicateMetric(m) => write!(f, "metric {m} requested twice"),
            ExploreError::EmptyDataset => write!(f, "the dataset has no rows"),
            ExploreError::InvalidSupport(s) => {
                write!(f, "support threshold {s} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// The exploration driver. Configure the support threshold, the mining
/// backend and an optional itemset-length cap, then call
/// [`DivExplorer::explore`].
#[derive(Debug, Clone)]
pub struct DivExplorer {
    min_support: f64,
    algorithm: fpm::Algorithm,
    max_len: Option<usize>,
    threads: usize,
    budget: Budget,
    cancel: Option<CancelToken>,
}

impl DivExplorer {
    /// A new explorer with relative support threshold `min_support`,
    /// mining with [`fpm::Algorithm::Dense`], the class-mask popcount
    /// engine: it yields the same report as the paper's FP-growth and is
    /// faster on every Figure-6 cell (EXPERIMENTS.md). The CLI and `serve`
    /// keep `--engine fp-growth` as their default for now, because the
    /// engine is part of every cached lattice's key.
    pub fn new(min_support: f64) -> Self {
        DivExplorer {
            min_support,
            algorithm: fpm::Algorithm::Dense,
            max_len: None,
            threads: 1,
            budget: Budget::unlimited(),
            cancel: None,
        }
    }

    /// Selects the mining backend (FP-growth, Eclat or dense — all
    /// produce identical reports).
    pub fn with_algorithm(mut self, algorithm: fpm::Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Caps the itemset length. Note that a cap breaks the subset-closure
    /// guarantees required by Shapley and global-divergence analysis; use it
    /// only for raw top-pattern queries.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Mines with `n` worker threads (the [`fpm::parallel`] engine; `1` =
    /// sequential with the configured backend). The paper's tool is
    /// single-threaded — this is an extension, and the report is identical
    /// either way. The recount behind [`DivExplorer::tally_lattice`] and
    /// [`DivExplorer::retally`] is sequential whatever `n` is.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one thread");
        self.threads = n;
        self
    }

    /// Bounds the exploration by a [`Budget`] (wall clock, emitted
    /// itemsets, store bytes, lattice depth). An exhausted budget never
    /// fails the run: the report holds the patterns mined so far, tagged
    /// [`Completeness::Truncated`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a [`CancelToken`]: firing it (from any thread) stops the
    /// exploration at its next checkpoint with a partial, truncated
    /// result.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured support threshold.
    pub fn min_support(&self) -> f64 {
        self.min_support
    }

    /// Runs the exploration: mines every itemset with support ≥ the
    /// threshold and tallies its confusion cells, from which the report
    /// derives each metric's outcomes.
    ///
    /// The miners stream straight into the report's [`ItemsetArena`] —
    /// no intermediate per-pattern `Vec` is materialized.
    pub fn explore(
        &self,
        data: &DiscreteDataset,
        v: &[bool],
        u: &[bool],
        metrics: &[Metric],
    ) -> Result<DivergenceReport, ExploreError> {
        self.validate(data, v, u, metrics)?;

        // Lines 1–2: each instance's confusion cell, one-hot encoded.
        let n = data.n_rows();
        let (payloads, dataset_counts) = {
            let _span = obs::span("explore.tally");
            tally_cells(v.iter().copied().zip(u.iter().copied()))
        };

        // Lines 4–12: frequent-pattern mining with fused tallies, emitted
        // directly into the arena that backs the report.
        let db = {
            let _span = obs::span("explore.encode");
            data.to_transactions()
        };
        let mut params = fpm::MiningParams::with_min_support_fraction(self.min_support, n);
        params.max_len = self.max_len;
        let min_support_count = params.min_support_count;
        let (store, completeness) = {
            let _span = obs::span("explore.mine");
            self.mine_bounded(&db, &payloads, &params)
        };

        // Lines 13–15: rates/divergences are computed lazily by the report.
        Ok(DivergenceReport::from_store(
            data.schema().clone(),
            metrics.to_vec(),
            n,
            min_support_count,
            dataset_counts,
            store,
        )
        .with_completeness(completeness))
    }

    /// Re-analyzes a dataset against a previously mined candidate
    /// lattice — the warm path behind on-disk artifacts and the
    /// [`crate::ArenaCache`]. The frequent-itemset lattice depends only
    /// on the dataset and the support threshold; new label vectors only
    /// change which confusion cell each row lands in. So this tallies
    /// the lattice's confusion cells in one exact recount
    /// ([`DivExplorer::tally_lattice`]) and derives the metrics from them
    /// ([`DivExplorer::report_from_tallies`]), with **no mining phase**.
    /// The report is bit-identical to a cold [`DivExplorer::explore`] of
    /// the same configuration.
    ///
    /// `candidates` must be the canonical lattice mined from `data` at
    /// this explorer's support threshold (artifacts persist the key
    /// alongside the lattice; callers match it before recounting). A
    /// *stricter* threshold than the lattice was mined at is also sound —
    /// the derivation filters — but a looser one silently misses
    /// patterns, so key-checking is on the caller.
    pub fn from_artifact(
        &self,
        data: &DiscreteDataset,
        candidates: &ItemsetArena<()>,
        v: &[bool],
        u: &[bool],
        metrics: &[Metric],
    ) -> Result<DivergenceReport, ExploreError> {
        self.validate(data, v, u, metrics)?;
        let tallies = self.tally_lattice(data, candidates, v, u)?;
        self.report_from_tallies(data, candidates, &tallies, metrics)
    }

    /// Tallies the confusion cells of every candidate in `candidates`
    /// under ground truth `v` and predictions `u`: one full recount of
    /// `data`, sequential, under this explorer's budget and cancel token
    /// ([`fpm::MiningTask::recount`]). The result is metric-free; derive
    /// any metric list from it with [`DivExplorer::report_from_tallies`],
    /// or move it to other predictions with [`DivExplorer::retally`].
    ///
    /// A deadline or cancellation mid-recount yields tallies with no
    /// cells and a truncated [`LatticeTallies::completeness`].
    pub fn tally_lattice(
        &self,
        data: &DiscreteDataset,
        candidates: &ItemsetArena<()>,
        v: &[bool],
        u: &[bool],
    ) -> Result<LatticeTallies, ExploreError> {
        validate_labels(data, v, u)?;
        let (payloads, dataset) = {
            let _span = obs::span("explore.tally");
            tally_cells(v.iter().copied().zip(u.iter().copied()))
        };
        let db = {
            let _span = obs::span("explore.encode");
            data.to_transactions()
        };
        let _span = obs::span("explore.recount");
        let (cells, completeness, rows) = self.recount_cells(&db, &payloads, candidates);
        // Released under the span, so a trace attributes the release too.
        drop((db, payloads));
        Ok(LatticeTallies {
            cells,
            dataset: ConfusionCells::from_counted(v.len() as u64, &dataset),
            completeness,
            rows,
        })
    }

    /// The tallies of `candidates` under predictions `u`, from `base`,
    /// their tallies under `u_base`: only the rows where `u` and
    /// `u_base` differ are recounted, as a sub-table, and each
    /// candidate's cells gain the exact integer delta. A differing row
    /// that is now in cell `(v, u)` was in `(v, ¬u)`, so rows only move
    /// between TP and FN and between FP and TN. The result is
    /// bit-identical to [`DivExplorer::tally_lattice`] under `u`, at a
    /// cost that grows with the number of differing rows; `base` is left
    /// as it was.
    ///
    /// A truncated `base` yields itself; a deadline or cancellation
    /// mid-recount yields tallies with no cells.
    ///
    /// # Panics
    ///
    /// Panics if a complete `base` was not tallied over `candidates`.
    pub fn retally(
        &self,
        data: &DiscreteDataset,
        candidates: &ItemsetArena<()>,
        base: &LatticeTallies,
        v: &[bool],
        u_base: &[bool],
        u: &[bool],
    ) -> Result<LatticeTallies, ExploreError> {
        validate_labels(data, v, u_base)?;
        validate_labels(data, v, u)?;
        if base.completeness.is_truncated() {
            return Ok(base.clone());
        }
        assert_eq!(
            base.cells.len(),
            candidates.len(),
            "base tallies belong to another lattice"
        );
        let (rows, payloads, moved_dataset) = {
            let _span = obs::span("explore.tally");
            let rows: Vec<usize> = (0..u.len()).filter(|&r| u[r] != u_base[r]).collect();
            let (payloads, moved) = tally_cells(rows.iter().map(|&r| (v[r], u[r])));
            let moved = ConfusionCells::from_counted(rows.len() as u64, &moved);
            (rows, payloads, moved)
        };
        let db = {
            let _span = obs::span("explore.encode");
            data.transactions_of(rows.iter().copied())
        };
        let _span = obs::span("explore.recount");
        let (moved, completeness, rows) = self.recount_cells(&db, &payloads, candidates);
        drop((db, payloads));
        // A cut recount has no cells, so neither has the result.
        let cells = base
            .cells
            .iter()
            .zip(&moved)
            .map(|(cells, moved)| cells.with_moved_rows(moved))
            .collect();
        Ok(LatticeTallies {
            cells,
            dataset: base.dataset.with_moved_rows(&moved_dataset),
            completeness,
            rows,
        })
    }

    /// Derives the report of `metrics` from `tallies` — no recount, no
    /// row is read. Every candidate that meets this explorer's support
    /// threshold keeps its cells, in candidate-id order, up to the
    /// budget's itemset cap; the report equals
    /// [`DivExplorer::from_artifact`] under the tallies' predictions, bit
    /// for bit. Truncated tallies give an empty report with their
    /// truncated completeness.
    ///
    /// `tallies` must have been tallied over `candidates` from `data`.
    /// The derivation runs under the `explore.recount` span, so every
    /// step of [`DivExplorer::from_artifact`] is inside a layer span.
    ///
    /// # Panics
    ///
    /// Panics if complete `tallies` hold another number of candidates.
    pub fn report_from_tallies(
        &self,
        data: &DiscreteDataset,
        candidates: &ItemsetArena<()>,
        tallies: &LatticeTallies,
        metrics: &[Metric],
    ) -> Result<DivergenceReport, ExploreError> {
        validate_metrics(metrics)?;
        self.validate_support()?;
        let _span = obs::span("explore.recount");
        let n = data.n_rows();
        let min_support_count =
            fpm::MiningParams::with_min_support_fraction(self.min_support, n).min_support_count;
        let mut traced = TracingSink::new(ItemsetArena::new());
        let mut completeness = tallies.completeness;
        if completeness.is_complete() {
            assert_eq!(
                tallies.cells.len(),
                candidates.len(),
                "tallies belong to another lattice"
            );
            let start = Instant::now();
            let mut emitted = 0u64;
            for (id, cells) in tallies.cells.iter().enumerate() {
                let support = cells.support();
                if support < min_support_count {
                    continue;
                }
                if self.budget.max_itemsets.is_some_and(|max| emitted >= max) {
                    completeness = Completeness::Truncated {
                        reason: TruncationReason::ItemsetLimit,
                        emitted,
                        elapsed: start.elapsed(),
                    };
                    break;
                }
                traced.emit(candidates.items(id), support, &cells.counted());
                emitted += 1;
            }
        }
        let store = traced.into_inner();
        obs::counter("fpm.arena_bytes", store.approx_bytes());
        Ok(DivergenceReport::from_store(
            data.schema().clone(),
            metrics.to_vec(),
            n,
            min_support_count,
            tallies.dataset.counted(),
            store,
        )
        .with_completeness(completeness))
    }

    /// The one recount behind every tally, full or delta: folds `db`'s
    /// rows over `candidates` through [`fpm::MiningTask::recount`] under
    /// this explorer's budget and cancel token, and returns each
    /// candidate's confusion cells (none when the pass was cut), the
    /// pass's completeness and the rows it read.
    fn recount_cells(
        &self,
        db: &fpm::TransactionDb,
        payloads: &[CountedCells],
        candidates: &ItemsetArena<()>,
    ) -> (Vec<ConfusionCells>, Completeness, u64) {
        let params = fpm::MiningParams::with_min_support_count(1);
        let tallies = self.mining_task(db, payloads, &params).recount(candidates);
        let cells = tallies
            .supports
            .iter()
            .zip(&tallies.payloads)
            .map(|(&support, counted)| ConfusionCells::from_counted(support, counted))
            .collect();
        (cells, tallies.completeness, tallies.rows)
    }

    /// Builds the configured [`fpm::MiningTask`] over `db` — the single
    /// place where explorer knobs (backend, threads, budget,
    /// cancellation) are translated into the mining API.
    fn mining_task<'a, P: Payload + Send + Sync>(
        &self,
        db: &'a fpm::TransactionDb,
        payloads: &'a [P],
        params: &fpm::MiningParams,
    ) -> fpm::MiningTask<'a, P> {
        let mut task = fpm::MiningTask::with_params(db, params.clone())
            .payloads(payloads)
            .algorithm(self.algorithm)
            .threads(self.threads)
            .budget(self.budget);
        if let Some(token) = &self.cancel {
            task = task.cancel(token.clone());
        }
        task
    }

    /// The shared bounded mining step: one [`fpm::MiningTask`] run
    /// (sequential or parallel) under the configured budget and
    /// cancel token, streamed through a [`TracingSink`] so every engine
    /// publishes the same `fpm.*` stream counters.
    fn mine_bounded(
        &self,
        db: &fpm::TransactionDb,
        payloads: &[CountedCells],
        params: &fpm::MiningParams,
    ) -> (ItemsetArena<CountedCells>, Completeness) {
        let mut traced = TracingSink::new(ItemsetArena::new());
        let completeness = self.mining_task(db, payloads, params).run_into(&mut traced);
        let store = traced.into_inner();
        obs::counter("fpm.arena_bytes", store.approx_bytes());
        (store, completeness)
    }

    /// Streams the exploration into a caller-supplied [`ItemsetSink`]
    /// instead of building a report.
    ///
    /// This is the composable form of [`DivExplorer::explore`]: stack
    /// filters (e.g. [`crate::SignificanceSink`] or
    /// [`crate::DivergenceFilterSink`]) over an [`ItemsetArena`] and pass
    /// the result to [`DivergenceReport::from_store`] together with the
    /// returned [`ExplorationStats`]. With `threads > 1` the sink receives
    /// the merged canonical result after the parallel search (its
    /// `wants_extensions` hook is not consulted — see
    /// [`fpm::parallel::mine_into`]).
    pub fn explore_into<S: ItemsetSink<CountedCells>>(
        &self,
        data: &DiscreteDataset,
        v: &[bool],
        u: &[bool],
        metrics: &[Metric],
        sink: &mut S,
    ) -> Result<ExplorationStats, ExploreError> {
        self.validate(data, v, u, metrics)?;
        let total = Instant::now();
        let n = data.n_rows();
        let tally_start = Instant::now();
        let (payloads, dataset_counts) = {
            let _span = obs::span("explore.tally");
            tally_cells(v.iter().copied().zip(u.iter().copied()))
        };
        let tally_us = tally_start.elapsed().as_micros() as u64;
        let encode_start = Instant::now();
        let db = {
            let _span = obs::span("explore.encode");
            data.to_transactions()
        };
        let encode_us = encode_start.elapsed().as_micros() as u64;
        let mut params = fpm::MiningParams::with_min_support_fraction(self.min_support, n);
        params.max_len = self.max_len;
        let mine_start = Instant::now();
        let mine_span = obs::span("explore.mine");
        let mut traced = TracingSink::new(sink);
        let completeness = self
            .mining_task(&db, &payloads, &params)
            .run_into(&mut traced);
        let patterns_emitted = traced.emitted();
        traced.publish();
        drop(mine_span);
        let mine_us = mine_start.elapsed().as_micros() as u64;
        Ok(ExplorationStats {
            n_rows: n,
            min_support_count: params.min_support_count,
            dataset_counts,
            completeness,
            patterns_emitted,
            stages: StageTimings {
                tally_us,
                encode_us,
                mine_us,
                total_us: total.elapsed().as_micros() as u64,
            },
        })
    }

    /// Like [`DivExplorer::explore`], but mines only the itemsets that
    /// contain `anchor` (e.g. a protected attribute value), pushing the
    /// constraint into the miner instead of post-filtering a full
    /// exploration.
    ///
    /// The resulting report contains only anchored patterns, so the
    /// analyses that need subset closure (Shapley, global divergence,
    /// pruning) require a full exploration instead; use this for fast
    /// focused ranking at supports where the full lattice is too large.
    pub fn explore_containing(
        &self,
        data: &DiscreteDataset,
        v: &[bool],
        u: &[bool],
        metrics: &[Metric],
        anchor: crate::ItemId,
    ) -> Result<DivergenceReport, ExploreError> {
        self.validate(data, v, u, metrics)?;
        let n = data.n_rows();
        let (payloads, dataset_counts) = {
            let _span = obs::span("explore.tally");
            tally_cells(v.iter().copied().zip(u.iter().copied()))
        };
        let db = {
            let _span = obs::span("explore.encode");
            data.to_transactions()
        };
        let mut params = fpm::MiningParams::with_min_support_fraction(self.min_support, n);
        params.max_len = self.max_len;
        let min_support_count = params.min_support_count;
        let mut store = ItemsetArena::new();
        let completeness = {
            let _span = obs::span("explore.mine");
            let mut traced = TracingSink::new(&mut store);
            let mut bounded = BudgetSink::new(&mut traced, self.budget);
            if let Some(token) = &self.cancel {
                bounded = bounded.with_cancel(token.clone());
            }
            fpm::anchored::mine_containing_into(
                self.algorithm,
                &db,
                &payloads,
                &params,
                anchor,
                &mut bounded,
            );
            let verdict = bounded.verdict();
            traced.publish();
            verdict
        };
        obs::counter("fpm.arena_bytes", store.approx_bytes());
        Ok(DivergenceReport::from_store(
            data.schema().clone(),
            metrics.to_vec(),
            n,
            min_support_count,
            dataset_counts,
            store,
        )
        .with_completeness(completeness))
    }

    fn validate(
        &self,
        data: &DiscreteDataset,
        v: &[bool],
        u: &[bool],
        metrics: &[Metric],
    ) -> Result<(), ExploreError> {
        validate_labels(data, v, u)?;
        validate_metrics(metrics)?;
        self.validate_support()
    }

    fn validate_support(&self) -> Result<(), ExploreError> {
        if !(0.0..=1.0).contains(&self.min_support) || self.min_support.is_nan() {
            return Err(ExploreError::InvalidSupport(self.min_support));
        }
        Ok(())
    }
}

fn validate_labels(data: &DiscreteDataset, v: &[bool], u: &[bool]) -> Result<(), ExploreError> {
    if data.n_rows() == 0 {
        return Err(ExploreError::EmptyDataset);
    }
    if v.len() != data.n_rows() {
        return Err(ExploreError::LengthMismatch {
            which: "ground truth",
            got: v.len(),
            expected: data.n_rows(),
        });
    }
    if u.len() != data.n_rows() {
        return Err(ExploreError::LengthMismatch {
            which: "predictions",
            got: u.len(),
            expected: data.n_rows(),
        });
    }
    Ok(())
}

fn validate_metrics(metrics: &[Metric]) -> Result<(), ExploreError> {
    if metrics.is_empty() {
        return Err(ExploreError::NoMetrics);
    }
    for (i, &m) in metrics.iter().enumerate() {
        if metrics[..i].contains(&m) {
            return Err(ExploreError::DuplicateMetric(m));
        }
    }
    Ok(())
}

/// The confusion cells of every candidate of one lattice under one
/// `(v, u)`, plus the whole table's: what [`DivExplorer::tally_lattice`]
/// counts, [`DivergenceReport::into_lattice`] keeps from a mining pass
/// and [`DivExplorer::retally`] moves to new predictions.
///
/// Metric-free: [`DivExplorer::report_from_tallies`] derives any metric
/// list from it without reading a row. The cells are aligned with the
/// candidate arena they were tallied over (cell `id` belongs to
/// `candidates.items(id)`), 16 bytes per candidate. Tallies that a
/// deadline or a cancellation cut hold no cells.
#[derive(Debug, Clone)]
pub struct LatticeTallies {
    cells: Vec<ConfusionCells>,
    dataset: ConfusionCells,
    completeness: Completeness,
    rows: u64,
}

impl LatticeTallies {
    /// Complete tallies of cells a mining pass already counted
    /// ([`DivergenceReport::into_lattice`]): no row was recounted.
    pub(crate) fn counted(cells: Vec<ConfusionCells>, dataset: ConfusionCells) -> Self {
        LatticeTallies {
            cells,
            dataset,
            completeness: Completeness::Complete,
            rows: 0,
        }
    }

    /// Whether the recount finished, or which limit cut it.
    pub fn completeness(&self) -> &Completeness {
        &self.completeness
    }

    /// The rows the recount that produced these tallies read: for a
    /// [`DivExplorer::retally`], the differing rows only.
    pub fn recount_rows(&self) -> u64 {
        self.rows
    }
}

/// Dataset-level facts of one exploration pass, returned by
/// [`DivExplorer::explore_into`] — exactly what
/// [`DivergenceReport::from_store`] needs besides the mined store, plus
/// the pass's own telemetry (stage timings and the emission count).
#[derive(Debug, Clone)]
pub struct ExplorationStats {
    /// Number of dataset instances `|D|`.
    pub n_rows: usize,
    /// The absolute support-count threshold used.
    pub min_support_count: u64,
    /// The cells of the whole dataset (of [`ExplorationStats::n_rows`] rows).
    pub dataset_counts: CountedCells,
    /// Whether the mining pass saw the whole frequent lattice; pass this
    /// on via [`DivergenceReport::with_completeness`] when assembling a
    /// report from the sink's contents.
    pub completeness: Completeness,
    /// Itemsets streamed into the sink (after budget enforcement).
    pub patterns_emitted: u64,
    /// Wall-clock of each stage of the pass.
    pub stages: StageTimings,
}

/// Per-stage wall-clock of one exploration pass, in microseconds. The
/// same figures are recorded as `explore.*` spans on the global
/// telemetry facade; this struct carries them in-band for callers that
/// don't install a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Each row's confusion cell, one-hot encoded (Algorithm 1 lines 1–2).
    pub tally_us: u64,
    /// Dataset → transaction encoding.
    pub encode_us: u64,
    /// Frequent-pattern mining with fused tallies (lines 4–12).
    pub mine_us: u64,
    /// The whole pass, validation excluded.
    pub total_us: u64,
}

/// Lines 1–2 of Algorithm 1, for mining and the recount alike: each
/// `(v, u)` row's confusion cell as a three-mask payload, plus the cells
/// of all the rows together.
fn tally_cells(rows: impl Iterator<Item = (bool, bool)>) -> (Vec<CountedCells>, CountedCells) {
    let mut total = CountedCells::default();
    let payloads = rows
        .map(|(v, u)| {
            let cells = CountedCells::of_row(v, u);
            total.merge(&cells);
            cells
        })
        .collect();
    (payloads, total)
}

/// Computes dataset-level outcome tallies without mining — useful for
/// reporting overall rates (e.g. the paper's "overall FPR is 0.088").
pub fn dataset_outcome_counts(v: &[bool], u: &[bool], metric: Metric) -> OutcomeCounts {
    CountedCells::of_rows(v, u).outcome_counts(v.len() as u64, metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::report::SortBy;

    /// 8 rows, attribute "g" splitting the data in two halves; the first
    /// half gets all the false positives.
    fn fixture() -> (DiscreteDataset, Vec<bool>, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &[0, 0, 0, 0, 1, 1, 1, 1]);
        b.categorical("h", &["x", "y"], &[0, 1, 0, 1, 0, 1, 0, 1]);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u = vec![true, true, true, false, false, false, false, false];
        (data, v, u)
    }

    #[test]
    fn divergence_matches_hand_computation() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.2)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        // Overall FPR = 3/8.
        assert!((report.dataset_rate(0) - 0.375).abs() < 1e-12);
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let idx = report.find(&[ga]).unwrap();
        // FPR(g=a) = 3/4, divergence = 0.375.
        assert!((report.divergence(idx, 0) - 0.375).abs() < 1e-12);
        let gb = report.schema().item_by_name("g", "b").unwrap();
        let idx_b = report.find(&[gb]).unwrap();
        assert!((report.divergence(idx_b, 0) + 0.375).abs() < 1e-12);
    }

    #[test]
    fn all_backends_produce_identical_reports() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate, Metric::ErrorRate];
        let reference = DivExplorer::new(0.1)
            .with_algorithm(fpm::Algorithm::Naive)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        for algo in fpm::Algorithm::ALL {
            let report = DivExplorer::new(0.1)
                .with_algorithm(algo)
                .explore(&data, &v, &u, &metrics)
                .unwrap();
            assert_eq!(report.len(), reference.len(), "{algo}");
            for p in reference.patterns() {
                let idx = report.find(p.items).unwrap();
                assert_eq!(report.support(idx), p.support, "{algo}");
                assert_eq!(report.counts(idx), p.counts, "{algo}");
            }
        }
    }

    #[test]
    fn from_artifact_recount_matches_a_cold_explore() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate, Metric::ErrorRate];
        // Mine once under the original predictions; persistable lattice.
        let warm = DivExplorer::new(0.1);
        let report = warm.explore(&data, &v, &u, &metrics).unwrap();
        let mut candidates = ItemsetArena::new();
        for p in report.patterns() {
            candidates.push(p.items, p.support, ());
        }
        candidates.sort_canonical();
        // A new classifier flips half the predictions: the recount must
        // reproduce a cold exploration of the new labels exactly.
        let u2: Vec<bool> = u
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ (i % 2 == 0))
            .collect();
        let cold = warm.explore(&data, &v, &u2, &metrics).unwrap();
        let recounted = warm
            .from_artifact(&data, &candidates, &v, &u2, &metrics)
            .unwrap();
        assert!(recounted.completeness().is_complete());
        assert_eq!(recounted.len(), cold.len());
        for p in cold.patterns() {
            let idx = recounted.find(p.items).unwrap();
            assert_eq!(recounted.support(idx), p.support);
            assert_eq!(recounted.counts(idx), p.counts);
        }
    }

    /// The canonical candidate lattice of a report, as artifacts hold it.
    fn candidates_of(report: &DivergenceReport) -> ItemsetArena<()> {
        let mut candidates = ItemsetArena::new();
        for p in report.patterns() {
            candidates.push(p.items, p.support, ());
        }
        candidates.sort_canonical();
        candidates
    }

    /// 120 seeded rows over three small domains, so most rows repeat.
    fn duplicate_rows() -> (DiscreteDataset, Vec<bool>, Vec<bool>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 120;
        let mut column =
            |domain: u16| -> Vec<u16> { (0..n).map(|_| rng.gen_range(0..domain)).collect() };
        let (p, q, r) = (column(2), column(3), column(2));
        let mut b = DatasetBuilder::new();
        b.categorical("p", &["0", "1"], &p);
        b.categorical("q", &["0", "1", "2"], &q);
        b.categorical("r", &["0", "1"], &r);
        let v: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let u: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
        (b.build().unwrap(), v, u)
    }

    #[test]
    fn a_mined_lattice_carries_the_tallies_a_full_recount_counts() {
        let metrics = Metric::ALL;
        for (data, v, u) in [fixture(), duplicate_rows()] {
            let distinct: std::collections::HashSet<_> =
                (0..data.n_rows()).map(|r| data.row(r).to_vec()).collect();
            assert!(distinct.len() < data.n_rows(), "the table repeats rows");
            for algorithm in fpm::Algorithm::ALL {
                let explorer = DivExplorer::new(0.05).with_algorithm(algorithm);
                let report = explorer.explore(&data, &v, &u, &metrics).unwrap();
                let reference = candidates_of(&report);
                let (candidates, kept) = report.into_lattice();
                assert_eq!(candidates.len(), reference.len(), "{algorithm}");
                assert_eq!(candidates.total_items(), reference.total_items());
                for id in 0..reference.len() {
                    assert_eq!(candidates.items(id), reference.items(id), "{algorithm}");
                    assert_eq!(candidates.support(id), reference.support(id));
                }

                let recounted = explorer.tally_lattice(&data, &candidates, &v, &u).unwrap();
                assert!(kept.completeness().is_complete());
                assert_eq!(kept.recount_rows(), 0);
                assert_eq!(recounted.recount_rows(), data.n_rows() as u64);
                assert_eq!(kept.cells, recounted.cells, "{algorithm}");
                assert_eq!(kept.dataset, recounted.dataset, "{algorithm}");

                let derive = |tallies: &LatticeTallies| {
                    explorer
                        .report_from_tallies(&data, &candidates, tallies, &metrics)
                        .unwrap()
                };
                let (from_kept, from_recount) = (derive(&kept), derive(&recounted));
                assert_eq!(from_kept.len(), from_recount.len());
                for m in 0..metrics.len() {
                    let rate = |r: &DivergenceReport| r.dataset_rate(m).to_bits();
                    assert_eq!(rate(&from_kept), rate(&from_recount));
                    for idx in 0..from_kept.len() {
                        assert_eq!(from_kept.items(idx), from_recount.items(idx));
                        assert_eq!(from_kept.counts(idx), from_recount.counts(idx));
                        let bits = |r: &DivergenceReport| {
                            (
                                r.divergence(idx, m).to_bits(),
                                r.t_statistic(idx, m).to_bits(),
                            )
                        };
                        assert_eq!(bits(&from_kept), bits(&from_recount), "{algorithm}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "part of its lattice")]
    fn a_truncated_report_has_no_lattice_to_give() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_itemsets(2))
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(report.completeness().is_truncated());
        let _ = report.into_lattice();
    }

    #[test]
    fn retally_recounts_only_the_differing_rows_and_matches_a_full_tally() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate, Metric::ErrorRate];
        let explorer = DivExplorer::new(0.1);
        let candidates = candidates_of(&explorer.explore(&data, &v, &u, &metrics).unwrap());
        let base = explorer.tally_lattice(&data, &candidates, &v, &u).unwrap();
        let before = base.clone();
        let mut u2 = u.clone();
        u2[1] = !u2[1];
        u2[6] = !u2[6];

        let delta = explorer
            .retally(&data, &candidates, &base, &v, &u, &u2)
            .unwrap();
        let full = explorer.tally_lattice(&data, &candidates, &v, &u2).unwrap();
        assert!(delta.completeness().is_complete());
        assert_eq!(delta.cells, full.cells);
        assert_eq!(delta.dataset, full.dataset);
        assert_eq!(delta.recount_rows(), 2);
        assert_eq!(full.recount_rows(), 8);
        assert_eq!(base.cells, before.cells, "the base is left as it was");

        let derived = explorer
            .report_from_tallies(&data, &candidates, &delta, &metrics)
            .unwrap();
        let cold = explorer.explore(&data, &v, &u2, &metrics).unwrap();
        assert_eq!(derived.len(), cold.len());
        assert_eq!(derived.dataset_rate(0), cold.dataset_rate(0));
        for p in cold.patterns() {
            let idx = derived.find(p.items).unwrap();
            assert_eq!(derived.support(idx), p.support);
            assert_eq!(derived.counts(idx), p.counts);
        }
    }

    #[test]
    fn a_cut_tally_has_no_cells_and_derives_an_empty_truncated_report() {
        let (data, v, u) = fixture();
        let metrics = [Metric::ErrorRate];
        let candidates = candidates_of(
            &DivExplorer::new(0.1)
                .explore(&data, &v, &u, &metrics)
                .unwrap(),
        );
        let token = CancelToken::new();
        token.cancel();
        let explorer = DivExplorer::new(0.1).with_cancel_token(token);
        let cut = explorer.tally_lattice(&data, &candidates, &v, &u).unwrap();
        assert!(cut.cells.is_empty());
        assert_eq!(
            cut.completeness().truncation_reason(),
            Some(fpm::TruncationReason::Cancelled)
        );
        let report = explorer
            .report_from_tallies(&data, &candidates, &cut, &metrics)
            .unwrap();
        assert!(report.is_empty());
        assert_eq!(
            report.completeness().truncation_reason(),
            Some(fpm::TruncationReason::Cancelled)
        );
        // A cut base stays cut under a delta; nothing is recounted.
        let delta = explorer
            .retally(&data, &candidates, &cut, &v, &u, &v)
            .unwrap();
        assert!(delta.cells.is_empty());
    }

    #[test]
    fn an_itemset_cap_keeps_the_first_frequent_candidates_of_a_derivation() {
        let (data, v, u) = fixture();
        let metrics = [Metric::ErrorRate];
        let full = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        let candidates = candidates_of(&full);
        let capped = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_itemsets(3))
            .from_artifact(&data, &candidates, &v, &u, &metrics)
            .unwrap();
        assert_eq!(capped.len(), 3);
        assert_eq!(
            capped.completeness().truncation_reason(),
            Some(fpm::TruncationReason::ItemsetLimit)
        );
        for (idx, p) in capped.patterns().enumerate() {
            assert_eq!(p.items, candidates.items(idx));
            assert_eq!(full.counts(full.find(p.items).unwrap()), p.counts);
        }
    }

    #[test]
    fn completeness_every_supported_itemset_is_reported() {
        // Theorem 5.1 on a small instance: enumerate all itemsets by brute
        // force and check against the report.
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.25)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let schema = data.schema();
        let all_items: Vec<_> = (0..schema.n_items()).collect();
        crate::item::for_each_subset(&all_items, |subset| {
            if subset.is_empty() {
                return;
            }
            // Skip ill-formed itemsets (two items of one attribute).
            if schema.itemset_attributes(subset).len() != subset.len() {
                return;
            }
            let support = data.support_set(subset).len();
            let frequent = support as f64 / data.n_rows() as f64 >= 0.25;
            assert_eq!(
                report.find(subset).is_some(),
                frequent,
                "itemset {:?} support {}",
                subset,
                support
            );
        });
    }

    #[test]
    fn ranked_excludes_undefined_divergences() {
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &[0, 0, 1, 1]);
        let data = b.build().unwrap();
        // g=a instances all have positive ground truth: FPR undefined there.
        let v = vec![true, true, false, false];
        let u = vec![true, false, false, true];
        let report = DivExplorer::new(0.5)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let idx = report.find(&[ga]).unwrap();
        assert!(report.divergence(idx, 0).is_nan());
        let ranked = report.ranked(0, SortBy::Divergence);
        assert!(!ranked.contains(&idx));
    }

    #[test]
    fn t_statistic_uses_beta_posteriors() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.2)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let idx = report.find(&[ga]).unwrap();
        let pi = crate::BetaPosterior::from_observations(3, 1);
        let pd = crate::BetaPosterior::from_observations(3, 5);
        assert!((report.t_statistic(idx, 0) - pi.welch_t(&pd)).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        let (data, v, u) = fixture();
        let m = [Metric::ErrorRate];
        assert!(matches!(
            DivExplorer::new(0.1).explore(&data, &v[..3], &u, &m),
            Err(ExploreError::LengthMismatch {
                which: "ground truth",
                ..
            })
        ));
        assert!(matches!(
            DivExplorer::new(0.1).explore(&data, &v, &u[..3], &m),
            Err(ExploreError::LengthMismatch {
                which: "predictions",
                ..
            })
        ));
        assert!(matches!(
            DivExplorer::new(0.1).explore(&data, &v, &u, &[]),
            Err(ExploreError::NoMetrics)
        ));
        assert!(matches!(
            DivExplorer::new(1.5).explore(&data, &v, &u, &m),
            Err(ExploreError::InvalidSupport(_))
        ));
        assert!(matches!(
            DivExplorer::new(0.1).explore(&data, &v, &u, &[Metric::ErrorRate, Metric::ErrorRate]),
            Err(ExploreError::DuplicateMetric(Metric::ErrorRate))
        ));
    }

    #[test]
    fn anchored_exploration_matches_filtered_full_exploration() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate];
        let full = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        let ga = data.schema().item_by_name("g", "a").unwrap();
        let anchored = DivExplorer::new(0.1)
            .explore_containing(&data, &v, &u, &metrics, ga)
            .unwrap();
        let expected: Vec<_> = full.patterns().filter(|p| p.items.contains(&ga)).collect();
        assert_eq!(anchored.len(), expected.len());
        for p in expected {
            let idx = anchored.find(p.items).unwrap();
            assert_eq!(anchored.support(idx), p.support);
            assert_eq!(anchored.counts(idx), p.counts);
        }
        // Dataset-level rates are the true global ones, not conditional.
        assert_eq!(anchored.dataset_rate(0), full.dataset_rate(0));
    }

    #[test]
    fn threaded_exploration_matches_sequential() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate, Metric::ErrorRate];
        let sequential = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        for threads in [2, 4] {
            let parallel = DivExplorer::new(0.1)
                .with_threads(threads)
                .explore(&data, &v, &u, &metrics)
                .unwrap();
            assert_eq!(parallel.len(), sequential.len(), "threads={threads}");
            for p in sequential.patterns() {
                let idx = parallel.find(p.items).unwrap();
                assert_eq!(parallel.counts(idx), p.counts);
            }
        }
    }

    #[test]
    fn support_threshold_excludes_rare_patterns() {
        let (data, v, u) = fixture();
        // h splits into two length-1 patterns of support 0.5 each; pairs
        // (g, h) have support 0.25.
        let report = DivExplorer::new(0.3)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(report.patterns().all(|p| p.len() == 1));
        let report = DivExplorer::new(0.25)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(report.patterns().any(|p| p.len() == 2));
    }

    #[test]
    fn explore_into_an_arena_reproduces_explore() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate, Metric::ErrorRate];
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        let mut store = ItemsetArena::new();
        let stats = DivExplorer::new(0.1)
            .explore_into(&data, &v, &u, &metrics, &mut store)
            .unwrap();
        let rebuilt = DivergenceReport::from_store(
            data.schema().clone(),
            metrics.to_vec(),
            stats.n_rows,
            stats.min_support_count,
            stats.dataset_counts,
            store,
        );
        assert_eq!(rebuilt.len(), report.len());
        for p in report.patterns() {
            let idx = rebuilt.find(p.items).unwrap();
            assert_eq!(rebuilt.support(idx), p.support);
            assert_eq!(rebuilt.counts(idx), p.counts);
            assert_eq!(rebuilt.dataset_rate(0), report.dataset_rate(0));
        }
    }

    #[test]
    fn dataset_outcome_counts_standalone() {
        let v = [true, false, false, true];
        let u = [true, true, false, false];
        let c = dataset_outcome_counts(&v, &u, Metric::FalsePositiveRate);
        assert_eq!((c.t, c.f, c.bot), (1, 1, 2));
    }

    #[test]
    fn unlimited_budget_reports_complete() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(report.is_exploration_complete());
        assert_eq!(*report.completeness(), Completeness::Complete);
    }

    #[test]
    fn itemset_budget_truncates_and_patterns_match_full_run() {
        let (data, v, u) = fixture();
        let metrics = [Metric::FalsePositiveRate];
        let full = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &metrics)
            .unwrap();
        assert!(full.len() > 3);
        for threads in [1, 2] {
            let capped = DivExplorer::new(0.1)
                .with_threads(threads)
                .with_budget(Budget::unlimited().with_max_itemsets(3))
                .explore(&data, &v, &u, &metrics)
                .unwrap();
            assert_eq!(capped.len(), 3, "threads={threads}");
            assert_eq!(
                capped.completeness().truncation_reason(),
                Some(fpm::TruncationReason::ItemsetLimit),
                "threads={threads}"
            );
            // Every retained pattern carries its exact counts.
            for p in capped.patterns() {
                let idx = full.find(p.items).unwrap();
                assert_eq!(full.support(idx), p.support, "threads={threads}");
                assert_eq!(full.counts(idx), p.counts, "threads={threads}");
            }
        }
    }

    #[test]
    fn pre_fired_cancel_token_yields_an_empty_truncated_report() {
        let (data, v, u) = fixture();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2] {
            let report = DivExplorer::new(0.1)
                .with_threads(threads)
                .with_cancel_token(token.clone())
                .explore(&data, &v, &u, &[Metric::ErrorRate])
                .unwrap();
            assert_eq!(
                report.completeness().truncation_reason(),
                Some(fpm::TruncationReason::Cancelled),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn depth_budget_caps_pattern_length() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_depth(1))
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        assert!(report.patterns().all(|p| p.len() == 1));
        assert_eq!(
            report.completeness().truncation_reason(),
            Some(fpm::TruncationReason::DepthLimit)
        );
    }

    #[test]
    fn explore_into_surfaces_completeness_in_stats() {
        let (data, v, u) = fixture();
        let metrics = [Metric::ErrorRate];
        let mut store = ItemsetArena::new();
        let stats = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_itemsets(2))
            .explore_into(&data, &v, &u, &metrics, &mut store)
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(
            stats.completeness.truncation_reason(),
            Some(fpm::TruncationReason::ItemsetLimit)
        );
    }

    #[test]
    fn anchored_exploration_respects_the_budget() {
        let (data, v, u) = fixture();
        let ga = data.schema().item_by_name("g", "a").unwrap();
        let report = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_itemsets(1))
            .explore_containing(&data, &v, &u, &[Metric::ErrorRate], ga)
            .unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(
            report.completeness().truncation_reason(),
            Some(fpm::TruncationReason::ItemsetLimit)
        );
    }

    #[test]
    fn truncated_report_is_refused_by_shapley() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .with_budget(Budget::unlimited().with_max_itemsets(2))
            .explore(&data, &v, &u, &[Metric::ErrorRate])
            .unwrap();
        let ga = data.schema().item_by_name("g", "a").unwrap();
        assert!(matches!(
            crate::shapley::item_contributions(&report, &[ga], 0),
            Err(crate::shapley::ShapleyError::TruncatedReport(
                fpm::TruncationReason::ItemsetLimit
            ))
        ));
    }
}
