//! Table 1: example patterns in the COMPAS dataset along with their FPR or
//! FNR, against the overall rates.

use bench::{banner, fmt_f, telemetry, TextTable};
use datasets::compas;
use divexplorer::{explorer::dataset_outcome_counts, DivExplorer, Metric};

fn main() {
    banner("Table 1", "Example COMPAS patterns with their FPR/FNR");
    let d = compas::generate(6172, 42).into_dataset();

    let fpr = dataset_outcome_counts(&d.v, &d.u, Metric::FalsePositiveRate).rate();
    let fnr = dataset_outcome_counts(&d.v, &d.u, Metric::FalseNegativeRate).rate();
    println!("overall FPR = {fpr:.3}   overall FNR = {fnr:.3}   (paper: 0.088 / 0.698)\n");

    let session = telemetry::Session::start();
    let report = DivExplorer::new(0.01)
        .explore(
            &d.data,
            &d.v,
            &d.u,
            &[Metric::FalsePositiveRate, Metric::FalseNegativeRate],
        )
        .expect("explore");
    let (snapshot, total) = session.finish();
    let schema = report.schema().clone();
    let item = |attr: &str, value: &str| {
        schema
            .item_by_name(attr, value)
            .unwrap_or_else(|| panic!("unknown item {attr}={value}"))
    };

    // The table's example patterns.
    let examples: Vec<(Vec<divexplorer::ItemId>, Metric, usize)> = vec![
        (
            vec![
                item("age", "25-45"),
                item("#prior", ">3"),
                item("race", "Afr-Am"),
                item("sex", "Male"),
            ],
            Metric::FalsePositiveRate,
            0,
        ),
        (
            vec![item("age", ">45"), item("race", "Cauc")],
            Metric::FalseNegativeRate,
            1,
        ),
        (
            vec![item("race", "Afr-Am"), item("sex", "Male")],
            Metric::FalsePositiveRate,
            0,
        ),
        (
            vec![
                item("race", "Afr-Am"),
                item("sex", "Male"),
                item("#prior", ">3"),
            ],
            Metric::FalsePositiveRate,
            0,
        ),
        (
            vec![
                item("race", "Afr-Am"),
                item("sex", "Male"),
                item("#prior", "0"),
            ],
            Metric::FalsePositiveRate,
            0,
        ),
    ];

    let mut table = TextTable::new(["Itemset", "metric", "rate"]);
    let mut rates = Vec::new();
    for (mut items, metric, m) in examples {
        items.sort_unstable();
        let rate = report
            .find(&items)
            .map(|idx| report.rate(idx, m))
            .unwrap_or(f64::NAN);
        table.row([
            report.display_itemset(&items),
            metric.short_name().to_string(),
            fmt_f(rate, 3),
        ]);
        rates.push((metric, rate));
    }
    table.print();
    println!(
        "\nShape check (paper): the 4-item pattern has the highest FPR; adding #prior=0 \
         instead of #prior>3 drops the Afr-Am/Male FPR below the pair's rate."
    );
    let four_item = rates[0].1;
    let highest_fpr = rates
        .iter()
        .filter(|(metric, _)| *metric == Metric::FalsePositiveRate)
        .map(|&(_, rate)| rate)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        four_item == highest_fpr,
        "the 4-item pattern's FPR {four_item:.3} must be the highest FPR row ({highest_fpr:.3})"
    );
    let (pair, prior_zero) = (rates[2].1, rates[4].1);
    assert!(
        prior_zero < pair,
        "#prior=0 must drop the Afr-Am/Male FPR below the pair's: {prior_zero:.3} vs {pair:.3}"
    );

    let mut run = obs::RunReport::new("table1", "compas", telemetry::engine(&snapshot))
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = 6172;
    run.min_support = 0.01;
    run.patterns = report.len() as u64;
    run.total_us = total.as_micros() as u64;
    telemetry::apply_verdict(&mut run, report.completeness());
    telemetry::write(&run);
}
