//! Ablation: the production mining backends (FP-growth, Eclat, dense) on
//! the same exploration workload. The paper couples DivExplorer with
//! FP-growth; this bench compares that default against the others.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::DatasetId;
use divexplorer::{DivExplorer, Metric};
use fpm::Algorithm;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpm_backend");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (id, s) in [
        (DatasetId::Compas, 0.05),
        (DatasetId::Bank, 0.1),
        (DatasetId::German, 0.1),
    ] {
        let gd = id.generate(42);
        for algo in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("{}@{s}", id.name()), algo),
                &algo,
                |bencher, &algo| {
                    bencher.iter(|| {
                        DivExplorer::new(s)
                            .with_algorithm(algo)
                            .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalsePositiveRate])
                            .unwrap()
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_mining");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let gd = DatasetId::Adult.generate_sized(20_000, 42);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("adult@0.02", threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| {
                    DivExplorer::new(0.02)
                        .with_threads(threads)
                        .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalsePositiveRate])
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_anchored(c: &mut Criterion) {
    // Focused auditing: mining only the subgroups containing one protected
    // item vs full mining + post-filter.
    let mut group = c.benchmark_group("anchored_mining");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let gd = DatasetId::Compas.generate(42);
    let db = gd.data.to_transactions();
    let anchor = gd.data.schema().item_by_name("race", "Afr-Am").unwrap();
    let params = fpm::MiningParams::with_min_support_fraction(0.01, db.len());
    group.bench_function("anchored", |b| {
        b.iter(|| {
            fpm::anchored::mine_containing(
                Algorithm::FpGrowth,
                &db,
                &vec![(); db.len()],
                &params,
                anchor,
            )
            .len()
        })
    });
    group.bench_function("full_plus_filter", |b| {
        b.iter(|| {
            fpm::MiningTask::with_params(&db, params.clone())
                .algorithm(Algorithm::FpGrowth)
                .run()
                .into_itemsets()
                .into_iter()
                .filter(|fi| fi.items.contains(&anchor))
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_backends, bench_parallel, bench_anchored);
criterion_main!(benches);
