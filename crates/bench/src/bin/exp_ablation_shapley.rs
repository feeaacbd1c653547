//! Ablation: exact vs Monte-Carlo Shapley attribution.
//!
//! Exact attribution enumerates `2^k` subsets of a length-`k` pattern; the
//! sampled estimator pays `k · n_permutations` lookups instead. This
//! experiment measures, per pattern length, the runtime of both and the
//! worst-case estimation error, justifying the exact default at the paper's
//! typical pattern lengths (≤ 6) and the sampled fallback beyond.

use bench::{banner, fmt_f, telemetry, timed, TextTable};
use datasets::DatasetId;
use divexplorer::{
    shapley::{item_contributions, item_contributions_sampled},
    DivExplorer, Metric,
};

fn main() {
    banner(
        "Ablation",
        "Exact vs sampled Shapley attribution (adult FPR, s=0.05)",
    );
    let gd = DatasetId::Adult.generate_sized(20_000, 42);
    // The session spans mining plus every attribution below, so the
    // report compares shapley.subset_evals against shapley.permutations.
    let session = telemetry::Session::start();
    let report = DivExplorer::new(0.05)
        .explore(&gd.data, &gd.v, &gd.u, &[Metric::FalsePositiveRate])
        .expect("explore");

    let mut table = TextTable::new([
        "len",
        "patterns",
        "exact (µs/pattern)",
        "sampled-200 (µs/pattern)",
        "max |error|",
    ]);
    for len in 1..=7usize {
        let sample: Vec<usize> = (0..report.len())
            .filter(|&i| report.items(i).len() == len)
            .take(30)
            .collect();
        if sample.is_empty() {
            continue;
        }
        let (exact_all, t_exact) = timed(|| {
            sample
                .iter()
                .filter_map(|&i| item_contributions(&report, report.items(i), 0).ok())
                .collect::<Vec<_>>()
        });
        let (sampled_all, t_sampled) = timed(|| {
            sample
                .iter()
                .filter_map(|&i| {
                    item_contributions_sampled(&report, report.items(i), 0, 200, 42).ok()
                })
                .collect::<Vec<_>>()
        });
        let mut max_err = 0.0f64;
        for (exact, sampled) in exact_all.iter().zip(&sampled_all) {
            for ((_, e), (_, s)) in exact.iter().zip(sampled) {
                max_err = max_err.max((e - s).abs());
            }
        }
        let per = |d: std::time::Duration| d.as_micros() as f64 / sample.len() as f64;
        table.row([
            len.to_string(),
            sample.len().to_string(),
            fmt_f(per(t_exact), 1),
            fmt_f(per(t_sampled), 1),
            fmt_f(max_err, 4),
        ]);
    }
    table.print();
    println!(
        "\nReading: exact cost grows as 2^len; the sampled estimator's cost is flat in\n\
         len with bounded error — the fallback for long patterns."
    );

    let (snapshot, total) = session.finish();
    let mut run = obs::RunReport::new("ablation_shapley", "adult", telemetry::engine(&snapshot))
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = 20_000;
    run.min_support = 0.05;
    run.patterns = report.len() as u64;
    run.total_us = total.as_micros() as u64;
    telemetry::apply_verdict(&mut run, report.completeness());
    telemetry::write(&run);
}
