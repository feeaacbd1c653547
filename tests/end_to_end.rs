//! End-to-end integration: dataset generation → classifier training →
//! divergence exploration → analysis layers, across crates.

use datasets::DatasetId;
use divexplorer::{DivExplorer, Metric, SortBy};
use models::{Classifier, ConfusionMatrix, RandomForest, RandomForestParams};

#[test]
fn full_pipeline_dataset_model_explorer() {
    // Generate data, train a forest, analyze its errors.
    let gd = DatasetId::Heart.generate_sized(600, 5);
    let x = gd.features();
    let split = models::split::stratified_split(&gd.v, 0.3, 5);
    let x_train = x.select_rows(&split.train);
    let y_train: Vec<bool> = split.train.iter().map(|&i| gd.v[i]).collect();
    let forest = RandomForest::fit(
        &x_train,
        &y_train,
        &RandomForestParams {
            n_trees: 8,
            max_depth: Some(8),
            ..Default::default()
        },
        5,
    );
    let u = forest.predict_batch(&x);

    let cm = ConfusionMatrix::from_labels(&gd.v, &u);
    assert!(
        cm.accuracy() > 0.6,
        "forest should beat chance: {}",
        cm.accuracy()
    );

    let report = DivExplorer::new(0.1)
        .explore(&gd.data, &gd.v, &u, &[Metric::ErrorRate])
        .expect("explore");
    assert!(!report.is_empty());

    // Every reported pattern's tallies must equal a direct scan.
    for idx in report.top_k(0, 10, SortBy::AbsDivergence) {
        let pattern = report.pattern(idx);
        let rows = gd.data.support_set(pattern.items);
        assert_eq!(rows.len() as u64, pattern.support);
        let mut t = 0u32;
        let mut f = 0u32;
        for &r in &rows {
            match Metric::ErrorRate.outcome(gd.v[r], u[r]) {
                divexplorer::Outcome::T => t += 1,
                divexplorer::Outcome::F => f += 1,
                divexplorer::Outcome::Bot => {}
            }
        }
        let counts = pattern.counts.get(0);
        assert_eq!((counts.t, counts.f), (t, f));
    }
}

#[test]
fn all_mining_backends_agree_on_generated_data() {
    let gd = DatasetId::Compas.generate_sized(800, 9);
    let reference = DivExplorer::new(0.08)
        .with_algorithm(fpm::Algorithm::FpGrowth)
        .explore(
            &gd.data,
            &gd.v,
            &gd.u,
            &[Metric::FalsePositiveRate, Metric::FalseNegativeRate],
        )
        .unwrap();
    for algo in [fpm::Algorithm::Eclat, fpm::Algorithm::Dense] {
        let report = DivExplorer::new(0.08)
            .with_algorithm(algo)
            .explore(
                &gd.data,
                &gd.v,
                &gd.u,
                &[Metric::FalsePositiveRate, Metric::FalseNegativeRate],
            )
            .unwrap();
        assert_eq!(report.len(), reference.len(), "{algo}");
        for p in reference.patterns() {
            let idx = report.find(p.items).unwrap_or_else(|| {
                panic!("{algo} missing {:?}", reference.display_itemset(p.items))
            });
            assert_eq!(report.support(idx), p.support);
            assert_eq!(report.counts(idx), p.counts);
        }
    }
}

#[test]
fn multi_metric_pass_equals_single_metric_passes() {
    let gd = DatasetId::Bank.generate_sized(700, 2);
    let metrics = [
        Metric::FalsePositiveRate,
        Metric::FalseNegativeRate,
        Metric::ErrorRate,
        Metric::Accuracy,
    ];
    let combined = DivExplorer::new(0.1)
        .explore(&gd.data, &gd.v, &gd.u, &metrics)
        .unwrap();
    for (m, &metric) in metrics.iter().enumerate() {
        let single = DivExplorer::new(0.1)
            .explore(&gd.data, &gd.v, &gd.u, &[metric])
            .unwrap();
        assert_eq!(single.len(), combined.len());
        for p in single.patterns() {
            let idx = combined.find(p.items).unwrap();
            assert_eq!(combined.counts(idx).get(m), p.counts.get(0), "{metric}");
        }
    }
}

#[test]
fn error_rate_and_accuracy_divergences_are_opposite() {
    let gd = DatasetId::German.generate_sized(500, 3);
    let report = DivExplorer::new(0.1)
        .explore(
            &gd.data,
            &gd.v,
            &gd.u,
            &[Metric::ErrorRate, Metric::Accuracy],
        )
        .unwrap();
    for idx in 0..report.len() {
        let er = report.divergence(idx, 0);
        let acc = report.divergence(idx, 1);
        assert!((er + acc).abs() < 1e-9, "Δ_ER = -Δ_ACC must hold");
    }
}

#[test]
fn csv_to_divergence_pipeline() {
    // Load a small CSV and run the exploration over it.
    let csv = "\
age,city,label,pred
23,rome,0,1
31,rome,0,1
45,turin,1,1
52,turin,1,0
28,rome,0,0
39,milan,1,1
61,milan,0,0
44,rome,1,1
";
    let table = datasets::csv::parse_csv(csv, ',').expect("parse");
    // Use the label/pred columns, drop them from the feature table.
    let label_col = table.header.iter().position(|h| h == "label").unwrap();
    let pred_col = table.header.iter().position(|h| h == "pred").unwrap();
    let v: Vec<bool> = table.columns[label_col].iter().map(|s| s == "1").collect();
    let u: Vec<bool> = table.columns[pred_col].iter().map(|s| s == "1").collect();
    let features = datasets::csv::CsvTable {
        header: table.header[..2].to_vec(),
        columns: table.columns[..2].to_vec(),
    };
    let data = features.into_dataset(2).expect("dataset");
    let report = DivExplorer::new(0.25)
        .explore(&data, &v, &u, &[Metric::ErrorRate])
        .expect("explore");
    assert!(!report.is_empty());
}
