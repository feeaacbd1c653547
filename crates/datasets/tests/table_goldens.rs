//! Paper-scale goldens for the ranking and statistics layers: the top-3
//! rows of Table 2 (COMPAS, s = 0.1, four metrics) and Table 5 (adult,
//! s = 0.05, FPR and FNR), as `exp_table2` and `exp_table5` print them
//! (EXPERIMENTS.md). Each row pins the itemset, its support, and Δ and t
//! bit for bit.
//!
//! The rows must come out the same whichever engine mines the lattice:
//! engines emit patterns in different orders, and the ranking breaks ties
//! by itemset, never by report index. Both tables run under the library's
//! default engine and under FP-growth, the paper's miner.

use datasets::{compas, DatasetId, GeneratedDataset};
use divexplorer::{DivExplorer, Metric, SortBy};
use fpm::Algorithm;

/// One pinned top-k row: Δ and t as `f64::to_bits`.
#[derive(Debug, PartialEq)]
struct Row {
    items: String,
    support: u64,
    delta: u64,
    t: u64,
}

fn row(items: &str, support: u64, delta: u64, t: u64) -> Row {
    Row {
        items: items.to_string(),
        support,
        delta,
        t,
    }
}

/// The top-3 rows of every metric of `data` at `support`, mined by
/// `algorithm` (`None`: the library default).
fn top_rows(
    data: &GeneratedDataset,
    support: f64,
    metrics: &[Metric],
    algorithm: Option<Algorithm>,
) -> Vec<Vec<Row>> {
    let mut explorer = DivExplorer::new(support);
    if let Some(algorithm) = algorithm {
        explorer = explorer.with_algorithm(algorithm);
    }
    let report = explorer
        .explore(&data.data, &data.v, &data.u, metrics)
        .expect("explore");
    (0..metrics.len())
        .map(|m| {
            report
                .top_k(m, 3, SortBy::Divergence)
                .into_iter()
                .map(|idx| Row {
                    items: report.display_itemset(report.items(idx)),
                    support: report.support(idx),
                    delta: report.divergence(idx, m).to_bits(),
                    t: report.t_statistic(idx, m).to_bits(),
                })
                .collect()
        })
        .collect()
}

fn check(data: &GeneratedDataset, support: f64, metrics: &[Metric], pinned: &[Vec<Row>]) {
    for algorithm in [None, Some(Algorithm::FpGrowth)] {
        let got = top_rows(data, support, metrics, algorithm);
        for ((metric, got), want) in metrics.iter().zip(&got).zip(pinned) {
            assert_eq!(got, want, "{metric} under {algorithm:?}");
        }
    }
}

#[test]
fn table_2_top_rows_are_pinned() {
    let d = compas::generate(6172, 42).into_dataset();
    let metrics = [
        Metric::FalsePositiveRate,
        Metric::FalseNegativeRate,
        Metric::ErrorRate,
        Metric::Accuracy,
    ];
    let pinned = [
        vec![
            // Δ 0.2547, t 7.45
            row(
                "age=25-45, #prior=>3, race=Afr-Am, sex=Male",
                637,
                0x3fd04d2c79e349ab,
                0x401dd0a641b8d364,
            ),
            // Δ 0.2420, t 8.14
            row(
                "charge=F, #prior=>3, race=Afr-Am, sex=Male",
                749,
                0x3fcef9bba8b74c44,
                0x4020468c876dd794,
            ),
            // Δ 0.2330, t 7.34
            row(
                "age=25-45, charge=F, #prior=>3",
                679,
                0x3fcdd24976b4a278,
                0x401d5cccea2a25f5,
            ),
        ],
        vec![
            // Δ 0.3097, t 18.76
            row(
                "age=25-45, #prior=0, stay=<week",
                633,
                0x3fd3d2d82f03571a,
                0x4032c1e7320864df,
            ),
            // Δ 0.2991, t 20.00
            row(
                "#prior=0, stay=<week",
                1030,
                0x3fd324a32b1823f8,
                0x4033ff8ba2531934,
            ),
            // Δ 0.2990, t 18.23
            row(
                "#prior=0, sex=Male, stay=<week",
                752,
                0x3fd322f185e63d0c,
                0x40323b4e3b4b3fdd,
            ),
        ],
        vec![
            // Δ 0.0957, t 5.69
            row(
                "#prior=[1,3], sex=Male, stay=<week",
                998,
                0x3fb87dff0bb73f80,
                0x4016c1639615e0a9,
            ),
            // Δ 0.0951, t 4.59
            row(
                "age=25-45, #prior=[1,3], sex=Male, stay=<week",
                624,
                0x3fb8581c7c4e2818,
                0x40125db88a8626da,
            ),
            // Δ 0.0942, t 5.67
            row(
                "charge=M, sex=Male, stay=<week",
                1024,
                0x3fb81d08cb131468,
                0x4016a95bec68c29c,
            ),
        ],
        vec![
            // Δ 0.0670, t 3.87
            row(
                "age=>45, charge=F",
                778,
                0x3fb1276866486558,
                0x400ef4fca7454222,
            ),
            // Δ 0.0610, t 3.20
            row(
                "age=25-45, race=Afr-Am, stay=1w-3M",
                636,
                0x3faf41e7f9258370,
                0x4009978344be4e49,
            ),
            // Δ 0.0608, t 3.21
            row(
                "#prior=0, stay=1w-3M",
                646,
                0x3faf25d50d1ecb50,
                0x4009add75745dbe7,
            ),
        ],
    ];
    check(&d, 0.1, &metrics, &pinned);
}

#[test]
fn table_5_top_rows_are_pinned() {
    let d = DatasetId::Adult.generate(42);
    let metrics = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
    let pinned = [
        vec![
            // Δ 0.5672, t 29.80
            row(
                "status=Married, occup=Prof, race=White, loss=0",
                2822,
                0x3fe226c3a9d2a230,
                0x403dcd4e5463ed70,
            ),
            // Δ 0.5668, t 27.85
            row(
                "workclass=Private, status=Married, occup=Prof, loss=0",
                2343,
                0x3fe2238baf792c2e,
                0x403bda7b74b5c55a,
            ),
            // Δ 0.5664, t 32.50
            row(
                "status=Married, occup=Prof, loss=0",
                3358,
                0x3fe21feb05041531,
                0x40403f831cc77a64,
            ),
        ],
        vec![
            // Δ 0.6291, t 37.06
            row(
                "age=<=28, status=Unmarried, relation=Own-child, race=White, gain=0, \
                 hoursXW=<=40",
                2534,
                0x3fe421db823dc518,
                0x404287d3cd4526ed,
            ),
            // Δ 0.6279, t 34.95
            row(
                "age=<=28, status=Unmarried, relation=Own-child, race=White, gain=0, \
                 loss=0, hoursXW=<=40",
                2416,
                0x3fe417d17833bb0e,
                0x40417a2ae75a5eee,
            ),
            // Δ 0.6233, t 36.83
            row(
                "age=<=28, status=Unmarried, relation=Own-child, gain=0, hoursXW=<=40",
                3007,
                0x3fe3f236b664e7e4,
                0x404269b62e2fdb4a,
            ),
        ],
    ];
    check(&d, 0.05, &metrics, &pinned);
}
