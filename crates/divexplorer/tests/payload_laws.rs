//! Property tests for the algebra the streaming miners rely on: the payload
//! types must be commutative monoids under `merge` with `zero` as identity,
//! or the order in which a sink receives partial tallies (depth-first,
//! breadth-first, per-thread shards) would change the result.

use divexplorer::{CountedCells, Metric, Outcome, OutcomeCounts};
use fpm::Payload;
use proptest::prelude::*;

fn outcome() -> impl Strategy<Value = Outcome> {
    (0u8..3).prop_map(|i| match i {
        0 => Outcome::T,
        1 => Outcome::F,
        _ => Outcome::Bot,
    })
}

/// A random `OutcomeCounts` built the only way production code builds them:
/// merging per-row outcomes.
fn outcome_counts() -> impl Strategy<Value = OutcomeCounts> {
    proptest::collection::vec(outcome(), 0..20).prop_map(|outcomes| {
        let mut acc = OutcomeCounts::zero();
        for o in outcomes {
            acc.merge(&OutcomeCounts::from_outcome(o));
        }
        acc
    })
}

/// A random set of rows, each a `(v, u)` pair.
fn rows() -> impl Strategy<Value = Vec<(bool, bool)>> {
    proptest::collection::vec((any::<bool>(), any::<bool>()), 0..20)
}

/// The cells of `rows`, built the way the explorer builds them: merging
/// per-row payloads. Returns the row count (the set's support) too.
fn cells_of(rows: &[(bool, bool)]) -> (u64, CountedCells) {
    let mut acc = CountedCells::zero();
    for &(v, u) in rows {
        acc.merge(&CountedCells::of_row(v, u));
    }
    (rows.len() as u64, acc)
}

/// A random `CountedCells`.
fn counted_cells() -> impl Strategy<Value = CountedCells> {
    rows().prop_map(|rows| cells_of(&rows).1)
}

fn merged<P: Payload>(a: &P, b: &P) -> P {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn outcome_counts_identity(a in outcome_counts()) {
        prop_assert_eq!(merged(&OutcomeCounts::zero(), &a), a);
        prop_assert_eq!(merged(&a, &OutcomeCounts::zero()), a);
    }

    #[test]
    fn outcome_counts_commutativity(a in outcome_counts(), b in outcome_counts()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn outcome_counts_associativity(
        a in outcome_counts(), b in outcome_counts(), c in outcome_counts()
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn counted_cells_identity(a in counted_cells()) {
        prop_assert_eq!(merged(&CountedCells::zero(), &a), a);
        prop_assert_eq!(merged(&a, &CountedCells::zero()), a);
    }

    #[test]
    fn counted_cells_commutativity(a in counted_cells(), b in counted_cells()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn counted_cells_associativity(
        a in counted_cells(), b in counted_cells(), c in counted_cells()
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// Deriving a metric from merged cells equals merging the tallies
    /// derived from each part, for every metric: the mined cells of a
    /// pattern give each metric exactly the tallies its rows would.
    #[test]
    fn deriving_a_metric_commutes_with_merging(a in rows(), b in rows()) {
        let (support_a, cells_a) = cells_of(&a);
        let (support_b, cells_b) = cells_of(&b);
        let cells = merged(&cells_a, &cells_b);
        for metric in Metric::ALL {
            let derived = cells.outcome_counts(support_a + support_b, metric);
            let parts = merged(
                &cells_a.outcome_counts(support_a, metric),
                &cells_b.outcome_counts(support_b, metric),
            );
            prop_assert_eq!(derived, parts, "{}", metric);
            prop_assert_eq!(u64::from(derived.total()), support_a + support_b);
        }
    }
}
