//! §6.5: comparison with Slice Finder on the artificial dataset.
//!
//! DivExplorer (s = 0.01) identifies `a=b=c=0` and `a=b=c=1` as the top
//! FPR-divergent itemsets. Slice Finder with default parameters stops at
//! their length-2 subsets (its search prunes once a slice is already
//! "problematic"); raising the effect-size threshold to 1.65 lets it reach
//! the true length-3 sources. Timings for both tools are reported.

use bench::{banner, fmt_f, telemetry, timed, TextTable};
use datasets::artificial;
use divexplorer::{DivExplorer, Metric, SortBy};
use models::log_loss;
use slicefinder::{find_slices, SliceFinderParams};

fn main() {
    banner(
        "§6.5",
        "DivExplorer vs Slice Finder on the artificial dataset",
    );
    let d = artificial::generate(50_000, 42);
    // One session over both tools: the report carries the miner's
    // counters next to slicefinder.evaluated / slicefinder.expanded.
    let session = telemetry::Session::start();

    // --- DivExplorer, s = 0.01. ---
    let (report, t_div) = timed(|| {
        DivExplorer::new(0.01)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("explore")
    });
    assert!(
        report.is_exploration_complete(),
        "comparison needs the complete frequent lattice"
    );
    println!(
        "DivExplorer (s=0.01): {:.2}s, {} itemsets",
        t_div.as_secs_f64(),
        report.len()
    );
    let mut table = TextTable::new(["rank", "itemset", "Δ_FPR", "len"]);
    let top = report.top_k(0, 2, SortBy::Divergence);
    for (rank, &idx) in top.iter().enumerate() {
        table.row([
            (rank + 1).to_string(),
            report.display_itemset(report.items(idx)),
            fmt_f(report.divergence(idx, 0), 3),
            report.items(idx).len().to_string(),
        ]);
    }
    table.print();
    let top_names: Vec<String> = top
        .iter()
        .map(|&i| report.display_itemset(report.items(i)))
        .collect();
    let found_abc = top_names.iter().all(|n| {
        (n.contains("a=0") && n.contains("b=0") && n.contains("c=0"))
            || (n.contains("a=1") && n.contains("b=1") && n.contains("c=1"))
    });
    assert!(
        found_abc,
        "DivExplorer must rank a=b=c itemsets first, got {top_names:?}"
    );
    println!("=> DivExplorer identifies both a=b=c itemsets as the top divergences.\n");

    // --- Slice Finder: losses from the same predictions (0/1 loss through
    // log loss on hard labels, as its published code does with predicted
    // probabilities; hard labels keep the comparison tool-agnostic). ---
    let losses: Vec<f64> =
        d.v.iter()
            .zip(&d.u)
            .map(|(&vi, &ui)| log_loss(vi, if ui { 0.99 } else { 0.01 }))
            .collect();

    // The paper raises T to 1.65 on its loss scale; with our hard-label log
    // loss the a=b=c triples sit at Cohen's d ≈ 1.1 and their length-2
    // subsets at ≈ 0.48, so the equivalent raised threshold — between the
    // pairs and the triples — is 0.8.
    for (label, threshold) in [("default (T=0.4)", 0.4), ("raised (T=0.8)", 0.8)] {
        let params = SliceFinderParams {
            k: 8,
            degree: 3,
            min_size: 500, // = s*|D| = 0.01 * 50k, aligned with DivExplorer
            effect_size_threshold: threshold,
            ..Default::default()
        };
        let (result, t_sf) = timed(|| find_slices(&d.data, &losses, &params));
        println!(
            "Slice Finder {label}: {:.2}s, {} slices, {} evaluated",
            t_sf.as_secs_f64(),
            result.slices.len(),
            result.stats.evaluated
        );
        // An unbudgeted run must never report truncation; the comparison
        // below is only meaningful against the fully-terminated search.
        assert!(
            !result.stats.truncated,
            "Slice Finder search was truncated; comparison invalid"
        );
        let mut table = TextTable::new(["slice", "len", "effect size"]);
        for s in &result.slices {
            table.row([
                d.data.schema().display_itemset(&s.items),
                s.items.len().to_string(),
                fmt_f(s.effect_size, 2),
            ]);
        }
        table.print();
        let lengths: Vec<usize> = result.slices.iter().map(|s| s.items.len()).collect();
        if threshold <= 0.4 {
            assert!(
                !lengths.is_empty() && lengths.iter().all(|&l| l <= 2),
                "with default T the pruned search must stop at short subsets, got {lengths:?}"
            );
            println!("=> pruned at the length-2 subsets: the true sources are never reached.\n");
        } else {
            assert!(
                result.slices.iter().any(|s| s.items.len() == 3),
                "with the raised T Slice Finder should reach the length-3 itemsets"
            );
            println!("=> only with the raised threshold does it reach the length-3 sources.\n");
        }
    }
    println!(
        "Timing note (paper): DivExplorer was 4.5x faster than single-worker Slice Finder;\n\
         absolute ratios here depend on this machine and implementation, the completeness\n\
         contrast is the reproduced result."
    );

    let (snapshot, total) = session.finish();
    let mut run = obs::RunReport::new("slicefinder", "artificial", telemetry::engine(&snapshot))
        .with_snapshot(&snapshot, "fpm.itemset_support");
    run.n_rows = 50_000;
    run.min_support = 0.01;
    run.patterns = report.len() as u64;
    run.total_us = total.as_micros() as u64;
    telemetry::apply_verdict(&mut run, report.completeness());
    telemetry::write(&run);
}
