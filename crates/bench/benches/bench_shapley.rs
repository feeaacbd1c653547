//! Ablation: cost of the analysis layers on top of the exploration — exact
//! local Shapley attribution as a function of itemset length, global item
//! divergence, corrective-item scan, and redundancy pruning. The paper
//! reports the post-mining analysis at <7% of total time; these benches
//! make that decomposition measurable. The layers share the report's
//! immediate-subset index, which the first iteration builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::DatasetId;
use divexplorer::{
    corrective::{corrective_items, top_corrective},
    global_div::global_item_divergence,
    pruning::prune_redundant,
    shapley::item_contributions,
    DivExplorer, Metric,
};

fn bench_analysis(c: &mut Criterion) {
    let gd = DatasetId::Compas.generate(42);
    let report = DivExplorer::new(0.02)
        .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalsePositiveRate])
        .unwrap();

    // Local Shapley vs itemset length (cost is O(2^len) lookups).
    let mut group = c.benchmark_group("shapley_by_length");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for len in 1..=5usize {
        if let Some(idx) = (0..report.len()).find(|&i| report.items(i).len() == len) {
            let items = report.items(idx).to_vec();
            group.bench_with_input(BenchmarkId::from_parameter(len), &items, |b, items| {
                b.iter(|| item_contributions(&report, items, 0).unwrap())
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("analysis_layers");
    group.sample_size(20);
    group.bench_function("global_item_divergence", |b| {
        b.iter(|| global_item_divergence(&report, 0))
    });
    group.bench_function("corrective_items", |b| {
        b.iter(|| corrective_items(&report, 0))
    });
    group.bench_function("top_corrective_10", |b| {
        b.iter(|| top_corrective(&report, 0, 10, None))
    });
    group.bench_function("redundancy_pruning", |b| {
        b.iter(|| prune_redundant(&report, 0, 0.05))
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
