//! CI smoke test for bounded execution: mines the artificial dataset at a
//! pathologically low support (the full lattice has 3^10 − 1 = 59 048
//! itemsets) under a 100 ms wall-clock budget, asserting a clean truncated
//! exit with partial results — no hang, no panic, no OOM.
//!
//! ```sh
//! cargo run --release --example budget_smoke
//! ```

use std::time::{Duration, Instant};

use datasets::artificial;
use divexplorer::{DivExplorer, Metric};
use fpm::Budget;

fn main() {
    let d = artificial::generate(50_000, 42);
    let budget = Budget::unlimited().with_timeout(Duration::from_millis(100));

    let start = Instant::now();
    let report = DivExplorer::new(0.0)
        .with_algorithm(fpm::Algorithm::Eclat)
        .with_budget(budget)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("budget exhaustion must not be an error");
    let elapsed = start.elapsed();

    println!(
        "mined {} patterns in {elapsed:?} ({})",
        report.len(),
        report.completeness()
    );

    assert!(
        report.completeness().is_truncated(),
        "a 100ms budget cannot cover the 59k-itemset lattice"
    );
    assert!(!report.is_empty(), "partial results expected, got none");
    assert!(
        elapsed < Duration::from_millis(500),
        "truncation must land within one checkpoint interval, took {elapsed:?}"
    );
    println!("budget smoke test OK");
}
