//! Acceptance tests for bounded execution (the robustness tentpole): a
//! pathologically low support threshold must not hang, panic, or OOM —
//! it must return partial results tagged `Completeness::Truncated` within
//! a small multiple of the budget, and a `CancelToken` fired from another
//! thread must stop the run at its next checkpoint.

use std::time::{Duration, Instant};

use datasets::artificial;
use divexplorer::{DivExplorer, Metric};
use fpm::{Budget, CancelToken, TruncationReason};

/// At support 0 the artificial dataset's lattice has 3^10 − 1 = 59 048
/// frequent itemsets and merge-based Eclat needs seconds to mine them
/// unbudgeted on 50k rows — far beyond the 100 ms budget.
const PATHOLOGICAL_SUPPORT: f64 = 0.0;

#[test]
fn hundred_ms_budget_truncates_fast_with_partial_results() {
    let d = artificial::generate(50_000, 42);
    let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
        .with_algorithm(fpm::Algorithm::Eclat)
        .with_budget(Budget::unlimited().with_timeout(Duration::from_millis(100)));

    let start = Instant::now();
    let report = explorer
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("budget exhaustion must not be an error");
    let elapsed = start.elapsed();

    assert!(
        elapsed < Duration::from_millis(500),
        "must stop within one checkpoint interval of the deadline, took {elapsed:?}"
    );
    assert_eq!(
        report.completeness().truncation_reason(),
        Some(TruncationReason::Timeout)
    );
    // Partial results, not error-with-nothing: depth-first mining starts
    // emitting at its first root, well within the budget.
    assert!(!report.is_empty(), "expected partial results");
    // The partial patterns carry exact statistics: spot-check an emitted
    // singleton against a direct count over the rows.
    let p = report
        .patterns()
        .find(|p| p.items.len() == 1)
        .expect("the first root is emitted before its subtree");
    let direct = (0..d.data.n_rows())
        .filter(|&r| d.data.covers(r, p.items))
        .count() as u64;
    assert_eq!(p.support, direct);
}

#[test]
fn cancel_token_fired_from_another_thread_stops_the_run() {
    let d = artificial::generate(50_000, 42);
    let token = CancelToken::new();
    let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
        .with_algorithm(fpm::Algorithm::Eclat)
        .with_cancel_token(token.clone());

    let canceller = std::thread::spawn({
        let token = token.clone();
        move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        }
    });

    let start = Instant::now();
    let report = explorer
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("cancellation must not be an error");
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(
        elapsed < Duration::from_millis(500),
        "cancel must take effect within one checkpoint interval, took {elapsed:?}"
    );
    assert_eq!(
        report.completeness().truncation_reason(),
        Some(TruncationReason::Cancelled)
    );
}

#[test]
fn parallel_engine_respects_the_same_budget() {
    let d = artificial::generate(50_000, 42);
    let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
        .with_threads(4)
        .with_budget(Budget::unlimited().with_max_itemsets(1_000));

    let report = explorer
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("budget exhaustion must not be an error");
    assert_eq!(report.len(), 1_000);
    assert_eq!(
        report.completeness().truncation_reason(),
        Some(TruncationReason::ItemsetLimit)
    );
}

#[test]
fn generous_budget_reproduces_the_unbudgeted_report() {
    let d = artificial::generate(2_000, 7);
    let unbudgeted = DivExplorer::new(0.05)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .unwrap();
    let budgeted = DivExplorer::new(0.05)
        .with_budget(
            Budget::unlimited()
                .with_timeout(Duration::from_secs(600))
                .with_max_itemsets(u64::MAX),
        )
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .unwrap();
    assert!(budgeted.is_exploration_complete());
    assert_eq!(budgeted.len(), unbudgeted.len());
    for p in unbudgeted.patterns() {
        let idx = budgeted.find(p.items).unwrap();
        assert_eq!(budgeted.support(idx), p.support);
        assert_eq!(budgeted.counts(idx), p.counts);
    }
}
