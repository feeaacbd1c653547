//! Interactive-style neighborhood navigation around a pattern: its
//! immediate generalizations (remove one item) and specializations (add one
//! item), each annotated with the divergence change. This is the
//! programmatic counterpart of "users can explore the lattice around any
//! divergent itemset" (§4.1) — where [`crate::lattice`] materializes the
//! full sub-lattice *below* a pattern, this module answers local one-step
//! questions in both directions.

use crate::item::{is_subset, with, without, ItemId};
use crate::report::DivergenceReport;

/// One lattice step from a focus pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The item removed (generalization) or added (specialization).
    pub item: ItemId,
    /// The neighbor pattern.
    pub items: Vec<ItemId>,
    /// `Δ` of the neighbor.
    pub delta: f64,
    /// `Δ(neighbor) − Δ(focus)`.
    pub delta_change: f64,
    /// Neighbor support count.
    pub support: u64,
}

/// The one-step neighborhood of a frequent pattern.
#[derive(Debug, Clone)]
pub struct Neighborhood {
    /// The focus pattern.
    pub items: Vec<ItemId>,
    /// `Δ` of the focus pattern.
    pub delta: f64,
    /// Generalizations: one item removed. Empty for single items' parents
    /// toward ∅? No — removing the last item yields ∅ with `Δ = 0`, which
    /// *is* included (item = the removed one, items = []).
    pub generalizations: Vec<Step>,
    /// Specializations: one frequent item added.
    pub specializations: Vec<Step>,
}

/// Builds the neighborhood of `items` under metric `m`.
///
/// Returns `None` if `items` is empty or not frequent, or its divergence is
/// undefined. Specializations with undefined divergence are skipped.
pub fn neighborhood(report: &DivergenceReport, items: &[ItemId], m: usize) -> Option<Neighborhood> {
    let idx = report.find(items)?;
    let delta = report.divergence(idx, m);
    if delta.is_nan() {
        return None;
    }

    let mut generalizations = Vec::with_capacity(items.len());
    for &item in items {
        let parent = without(items, item);
        let (parent_delta, support) = if parent.is_empty() {
            (0.0, report.n_rows() as u64)
        } else {
            let p_idx = report.find(&parent)?;
            (report.divergence(p_idx, m), report.support(p_idx))
        };
        if parent_delta.is_nan() {
            continue;
        }
        generalizations.push(Step {
            item,
            items: parent,
            delta: parent_delta,
            delta_change: parent_delta - delta,
            support,
        });
    }

    // Specializations: every frequent superset with exactly one more item.
    let mut specializations = Vec::new();
    for c_idx in 0..report.len() {
        let candidate = report.items(c_idx);
        if candidate.len() != items.len() + 1 || !is_subset(items, candidate) {
            continue;
        }
        let added = *candidate
            .iter()
            .find(|i| !items.contains(i))
            .expect("superset has one extra item");
        debug_assert_eq!(with(items, added), candidate);
        let c_delta = report.divergence(c_idx, m);
        if c_delta.is_nan() {
            continue;
        }
        specializations.push(Step {
            item: added,
            items: candidate.to_vec(),
            delta: c_delta,
            delta_change: c_delta - delta,
            support: report.support(c_idx),
        });
    }
    specializations.sort_by(|a, b| {
        b.delta_change
            .abs()
            .partial_cmp(&a.delta_change.abs())
            .unwrap()
            .then_with(|| a.item.cmp(&b.item))
    });

    Some(Neighborhood {
        items: items.to_vec(),
        delta,
        generalizations,
        specializations,
    })
}

impl Neighborhood {
    /// Specializations that *increase* `|Δ|` (drill-down candidates).
    pub fn amplifying(&self) -> Vec<&Step> {
        self.specializations
            .iter()
            .filter(|s| s.delta.abs() > self.delta.abs())
            .collect()
    }

    /// Specializations that *decrease* `|Δ|` — the corrective items of
    /// Definition 4.2, seen from the focus pattern.
    pub fn corrective(&self) -> Vec<&Step> {
        self.specializations
            .iter()
            .filter(|s| s.delta.abs() < self.delta.abs())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    fn report() -> DivergenceReport {
        let g = [0, 0, 0, 0, 1, 1, 1, 1u16];
        let h = [0, 1, 0, 1, 0, 1, 0, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        let data = b.build().unwrap();
        let v = vec![false; 8];
        let u = vec![true, false, true, false, false, false, false, false];
        DivExplorer::new(0.2)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap()
    }

    #[test]
    fn generalizations_include_the_empty_set() {
        let r = report();
        let ga = r.schema().item_by_name("g", "a").unwrap();
        let n = neighborhood(&r, &[ga], 0).unwrap();
        assert_eq!(n.generalizations.len(), 1);
        let g = &n.generalizations[0];
        assert!(g.items.is_empty());
        assert_eq!(g.delta, 0.0);
        assert_eq!(g.support, 8);
        assert!((g.delta_change + n.delta).abs() < 1e-12);
    }

    #[test]
    fn specializations_cover_all_frequent_extensions() {
        let r = report();
        let ga = r.schema().item_by_name("g", "a").unwrap();
        let n = neighborhood(&r, &[ga], 0).unwrap();
        // Extensions: (g=a,h=x) and (g=a,h=y), both with support 2/8 = 0.25.
        assert_eq!(n.specializations.len(), 2);
        for s in &n.specializations {
            assert_eq!(s.items.len(), 2);
            assert_eq!(s.support, 2);
        }
    }

    #[test]
    fn amplifying_and_corrective_partition_by_abs_delta() {
        let r = report();
        let ga = r.schema().item_by_name("g", "a").unwrap();
        let n = neighborhood(&r, &[ga], 0).unwrap();
        // FPR(g=a)=0.5, Δ=0.25; FPR(g=a,h=x)=1.0, Δ=0.75 (amplifying);
        // FPR(g=a,h=y)=0, Δ=-0.25 (same |Δ|: neither).
        assert_eq!(n.amplifying().len(), 1);
        let hx = r.schema().item_by_name("h", "x").unwrap();
        assert_eq!(n.amplifying()[0].item, hx);
        assert!(n.corrective().is_empty());
    }

    #[test]
    fn infrequent_or_empty_focus_returns_none() {
        let r = report();
        assert!(neighborhood(&r, &[], 0).is_none());
        assert!(neighborhood(&r, &[99], 0).is_none());
    }
}
