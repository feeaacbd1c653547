//! Per-transaction payloads fused into support counting.
//!
//! Algorithm 1 of the DivExplorer paper augments frequent-pattern mining so
//! that the `(T, F, ⊥)` outcome tallies of every itemset are computed during
//! the mining pass itself. This module abstracts that mechanism: a
//! [`Payload`] is any commutative-monoid value attached to each transaction;
//! miners merge the payloads of the covering transactions of every itemset
//! they count.

use crate::masks::MaskSpec;

/// A commutative monoid merged alongside support counting.
///
/// Laws (relied upon by the miners, checked by property tests):
/// - `zero` is an identity: `merge(x, zero()) == x`;
/// - `merge` is commutative and associative, so the merge order chosen by a
///   particular algorithm (horizontal scan, FP-tree accumulation, tid-list
///   intersection) does not affect the result.
///
/// # Class-mask lowering
///
/// Payloads whose aggregate is a vector of *class counts* ("how many
/// covering transactions fall into class `c`"), with every transaction
/// in **at most one** class, can additionally opt into the popcount
/// counting path of [`crate::dense`] by overriding the three mask hooks.
/// [`crate::masks::ClassMasks`] then numbers the rows class by class, so
/// each class is one range of tidset positions. The contract, checked by
/// differential property tests:
///
/// - `mask_spec(payloads)` returns `Some(spec)` only if every payload in
///   the slice is exactly the indicator of at most one class — i.e.
///   `decode_classes(class_counts_of(tids))` equals the `merge` of
///   `payloads[t]` over `tids`, for every subset `tids`.
/// - `class_of` names the one class the (single transaction) payload
///   belongs to, or `None` for a transaction in no class.
/// - `decode_classes` rebuilds the aggregate from per-class counts.
///
/// The default `mask_spec` returns `None`: the payload only supports
/// merge-based counting, and mask-driven engines fall back transparently.
/// So do payloads whose rows may sit in several classes (bit planes,
/// pairs, arrays), whatever their components.
pub trait Payload: Clone {
    /// The identity element.
    fn zero() -> Self;
    /// Merges `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Describes how a run's payloads lower into counting classes, or
    /// `None` (the default) if they don't.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let _ = payloads;
        None
    }

    /// The class this per-transaction payload belongs to, if any. Only
    /// invoked when [`Payload::mask_spec`] returned `Some` for the run.
    fn class_of(&self) -> Option<usize> {
        unreachable!("class_of called on a payload without a mask spec");
    }

    /// Rebuilds an aggregate payload from per-class counts. Only invoked
    /// when [`Payload::mask_spec`] returned `Some` for the run.
    fn decode_classes(counts: &[u64]) -> Self {
        let _ = counts;
        unreachable!("decode_classes called on a payload without a mask spec");
    }
}

/// The trivial payload: plain frequent-itemset mining.
impl Payload for () {
    fn zero() -> Self {}
    fn merge(&mut self, _other: &Self) {}

    /// Lowers to zero classes: support is the only counter.
    fn mask_spec(_payloads: &[Self]) -> Option<MaskSpec> {
        Some(MaskSpec::leaf(0))
    }
    fn class_of(&self) -> Option<usize> {
        None
    }
    fn decode_classes(_counts: &[u64]) -> Self {}
}

/// A payload carrying a single `u64` counter (e.g. a weighted support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct CountPayload(pub u64);

impl Payload for CountPayload {
    fn zero() -> Self {
        CountPayload(0)
    }
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

/// Pairs compose: merged component-wise.
impl<A: Payload, B: Payload> Payload for (A, B) {
    fn zero() -> Self {
        (A::zero(), B::zero())
    }
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }
}

/// Fixed-size arrays compose: merged element-wise.
impl<P: Payload, const N: usize> Payload for [P; N] {
    fn zero() -> Self {
        std::array::from_fn(|_| P::zero())
    }
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.merge(b);
        }
    }
}

/// Merges all payloads of an iterator starting from the identity.
pub fn merge_all<P: Payload>(iter: impl IntoIterator<Item = P>) -> P {
    let mut acc = P::zero();
    for p in iter {
        acc.merge(&p);
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::masks::ClassMasks;

    /// A payload in the shape the range layout counts: each row is in at
    /// most one of three classes, and an aggregate holds the class counts.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Classes(pub [u64; 3]);

    impl Classes {
        /// Row `t`'s payload: class `t % 4`, where class 3 means none.
        pub(crate) fn of_row(t: usize) -> Self {
            let mut classes = [0; 3];
            if let Some(slot) = classes.get_mut(t % 4) {
                *slot = 1;
            }
            Classes(classes)
        }
    }

    impl Payload for Classes {
        fn zero() -> Self {
            Classes::default()
        }
        fn merge(&mut self, other: &Self) {
            for (a, b) in self.0.iter_mut().zip(other.0) {
                *a += b;
            }
        }
        fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
            payloads
                .iter()
                .all(|p| p.0.iter().sum::<u64>() <= 1)
                .then(|| MaskSpec::leaf(3))
        }
        fn class_of(&self) -> Option<usize> {
            self.0.iter().position(|&c| c == 1)
        }
        fn decode_classes(counts: &[u64]) -> Self {
            Classes([counts[0], counts[1], counts[2]])
        }
    }

    #[test]
    fn count_payload_is_a_monoid() {
        let mut a = CountPayload(3);
        a.merge(&CountPayload::zero());
        assert_eq!(a, CountPayload(3));
        a.merge(&CountPayload(4));
        assert_eq!(a, CountPayload(7));
    }

    #[test]
    fn pair_payload_merges_componentwise() {
        let mut p = (CountPayload(1), CountPayload(10));
        p.merge(&(CountPayload(2), CountPayload(20)));
        assert_eq!(p, (CountPayload(3), CountPayload(30)));
    }

    #[test]
    fn array_payload_merges_elementwise() {
        let mut p = [CountPayload(1), CountPayload(2)];
        p.merge(&[CountPayload(10), CountPayload(20)]);
        assert_eq!(p, [CountPayload(11), CountPayload(22)]);
    }

    #[test]
    fn merge_all_folds_from_zero() {
        let total = merge_all((1..=4).map(CountPayload));
        assert_eq!(total, CountPayload(10));
    }

    /// An indicator payload round-trips through class counts: the
    /// decoded tally of any row subset is the merge of its payloads.
    /// Composites put a row in several classes, so they never lower.
    #[test]
    fn indicator_payloads_round_trip_through_class_counts() {
        let payloads: Vec<Classes> = (0..12).map(Classes::of_row).collect();
        let masks = ClassMasks::build(&payloads).expect("indicators are maskable");
        let rows: Vec<u32> = vec![0, 3, 5, 8, 11];
        let tids: Vec<u32> = (0..12u32)
            .filter(|&p| rows.contains(&masks.rows()[p as usize]))
            .collect();
        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&tids, &mut counts);
        let decoded: Classes = masks.decode(&counts);
        let expected = merge_all(rows.iter().map(|&t| payloads[t as usize]));
        assert_eq!(decoded, expected);

        type Composite = (Classes, [Classes; 2]);
        let composites: Vec<Composite> = payloads.iter().map(|&p| (p, [p, p])).collect();
        assert!(<Composite>::mask_spec(&composites).is_none());
    }

    #[test]
    fn a_row_in_two_classes_is_not_an_indicator() {
        let both = Classes([1, 1, 0]);
        assert!(Classes::mask_spec(&[Classes::of_row(0), both]).is_none());
        assert!(ClassMasks::build(&[both]).is_none());
    }
}
