//! The streaming exploration API: mine through a sink stack instead of
//! materializing the full report, keeping only patterns that are both
//! divergent and significant.
//!
//! Run with: cargo run --release --example streaming_sinks

use divexplorer::{
    CountedCells, DatasetBuilder, DivExplorer, DivergenceFilterSink, DivergenceReport, Metric,
    SignificanceSink,
};
use fpm::ItemsetArena;

fn main() {
    // One department concentrates the false positives.
    let dept = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1u16];
    let level = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1u16];
    let mut b = DatasetBuilder::new();
    b.categorical("dept", &["eng", "sales"], &dept);
    b.categorical("level", &["junior", "senior"], &level);
    let data = b.build().unwrap();
    let v = vec![false; 12];
    let u = vec![
        true, true, true, true, false, false, // eng: 4 FP / 6
        true, false, false, false, false, false, // sales: 1 FP / 6
    ];
    let metrics = [Metric::FalsePositiveRate];

    // The dataset's confusion cells are known before mining (line 2 of
    // Algorithm 1); each filter derives its metrics' dataset rates from
    // them.
    let dataset_counts = CountedCells::of_rows(&v, &u);

    // The sink stack: arena <- significance screen <- divergence filter.
    // Patterns failing either filter are never stored anywhere.
    let arena: ItemsetArena<CountedCells> = ItemsetArena::new();
    let significant = SignificanceSink::new(arena, &metrics, v.len(), dataset_counts, 0.5);
    let mut sink = DivergenceFilterSink::new(significant, &metrics, v.len(), dataset_counts, 0.1);

    let explorer = DivExplorer::new(0.25);
    let stats = explorer
        .explore_into(&data, &v, &u, &metrics, &mut sink)
        .unwrap();
    let store = sink.into_inner().into_inner();
    println!(
        "streamed over {} rows; {} of the frequent patterns survived both filters",
        stats.n_rows,
        store.len()
    );

    // The surviving arena is a fully functional report.
    let report = DivergenceReport::from_store(
        data.schema().clone(),
        metrics.to_vec(),
        stats.n_rows,
        stats.min_support_count,
        stats.dataset_counts,
        store,
    );
    for idx in 0..report.len() {
        println!(
            "  {:<24} Δ={:+.3}  t={:.2}",
            report.display_itemset(report.items(idx)),
            report.divergence(idx, 0),
            report.t_statistic(idx, 0),
        );
    }
}
