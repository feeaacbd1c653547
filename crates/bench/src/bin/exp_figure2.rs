//! Figure 2: Shapley contributions of individual items to the divergence of
//! the COMPAS patterns with greatest FPR and FNR divergence.

use bench::{banner, bar, fmt_f, telemetry, TextTable};
use datasets::compas;
use divexplorer::{shapley::item_contributions, DivExplorer, Metric, SortBy};

fn main() {
    banner(
        "Figure 2",
        "Item contributions to the top FPR/FNR COMPAS patterns (s=0.1)",
    );
    let d = compas::generate(6172, 42).into_dataset();
    let metrics = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
    // The session covers exploration AND the Shapley attributions, so
    // the report carries both mining counters and shapley.subset_evals.
    let session = telemetry::Session::start();
    let report = DivExplorer::new(0.1)
        .explore(&d.data, &d.v, &d.u, &metrics)
        .expect("explore");

    for (m, metric) in metrics.iter().enumerate() {
        let top = report.top_k(m, 1, SortBy::Divergence)[0];
        let items = report.items(top).to_vec();
        let delta = report.divergence(top, m);
        println!(
            "top Δ_{metric} pattern: {}  (Δ = {})",
            report.display_itemset(&items),
            fmt_f(delta, 3)
        );
        let contributions = item_contributions(&report, &items, m).expect("shapley");
        let max_abs = contributions
            .iter()
            .map(|(_, c)| c.abs())
            .fold(0.0, f64::max);
        let mut table = TextTable::new(["item", "Δ(α|I)", ""]);
        let mut total = 0.0;
        for (item, c) in &contributions {
            table.row([
                report.schema().display_item(*item),
                fmt_f(*c, 3),
                bar(*c, max_abs, 30),
            ]);
            total += c;
        }
        table.print();
        println!("Σ contributions = {} (= Δ, efficiency)\n", fmt_f(total, 3));
        assert!((total - delta).abs() < 1e-9, "Shapley efficiency violated");
    }

    let (snapshot, total) = session.finish();
    let mut run = obs::RunReport::new("figure2", "compas", telemetry::engine(&snapshot))
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = 6172;
    run.min_support = 0.1;
    run.patterns = report.len() as u64;
    run.total_us = total.as_micros() as u64;
    telemetry::apply_verdict(&mut run, report.completeness());
    telemetry::write(&run);
}
