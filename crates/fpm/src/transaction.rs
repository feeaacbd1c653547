//! Horizontal transaction database in CSR (compressed sparse row) layout.

/// Identifier of a single item (an attribute=value predicate in DivExplorer,
/// an opaque integer at this layer).
pub type ItemId = u32;

/// An immutable transaction database.
///
/// Transactions are stored back-to-back in a single `Vec<ItemId>` with an
/// offsets array, which keeps the mining scans cache-friendly and avoids one
/// heap allocation per transaction. Each transaction's items are sorted and
/// deduplicated at construction time, so miners may rely on canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionDb {
    n_items: u32,
    offsets: Vec<usize>,
    items: Vec<ItemId>,
}

impl TransactionDb {
    /// Builds a database over the item universe `0..n_items` from explicit
    /// rows. Items within a row are sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any row references an item `>= n_items`.
    pub fn from_rows<R: AsRef<[ItemId]>>(n_items: u32, rows: &[R]) -> Self {
        let mut builder = TransactionDbBuilder::new(n_items);
        for row in rows {
            builder.push(row.as_ref());
        }
        builder.build()
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the item universe (valid ids are `0..n_items`).
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// The sorted, deduplicated item slice of transaction `t`.
    pub fn transaction(&self, t: usize) -> &[ItemId] {
        &self.items[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Iterates over all transactions in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[ItemId]> + '_ {
        (0..self.len()).map(move |t| self.transaction(t))
    }

    /// Per-item support counts over the whole database (a length-`n_items`
    /// histogram). This is the first scan of every mining algorithm.
    pub fn item_support_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n_items as usize];
        for &item in &self.items {
            counts[item as usize] += 1;
        }
        counts
    }

    /// True iff transaction `t` contains every item of `itemset`
    /// (`itemset` must be sorted).
    pub fn covers(&self, t: usize, itemset: &[ItemId]) -> bool {
        is_sorted_subset(itemset, self.transaction(t))
    }
}

/// Returns true iff sorted slice `needle` is a subset of sorted slice `hay`.
pub(crate) fn is_sorted_subset(needle: &[ItemId], hay: &[ItemId]) -> bool {
    let mut hay_iter = hay.iter();
    'outer: for &n in needle {
        for &h in hay_iter.by_ref() {
            if h == n {
                continue 'outer;
            }
            if h > n {
                return false;
            }
        }
        return false;
    }
    true
}

/// Incremental builder for [`TransactionDb`].
#[derive(Debug, Clone)]
pub struct TransactionDbBuilder {
    n_items: u32,
    offsets: Vec<usize>,
    items: Vec<ItemId>,
    scratch: Vec<ItemId>,
}

impl TransactionDbBuilder {
    /// Starts an empty database over the universe `0..n_items`.
    pub fn new(n_items: u32) -> Self {
        Self::with_capacity(n_items, 0, 0)
    }

    /// Starts an empty database over the universe `0..n_items` with room
    /// for `rows` transactions of `items` items in total, so pushing
    /// that many reallocates nothing.
    pub fn with_capacity(n_items: u32, rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            n_items,
            offsets,
            items: Vec::with_capacity(items),
            scratch: Vec::new(),
        }
    }

    /// Appends one transaction. A strictly ascending row is copied as it
    /// is; any other row is copied, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the row references an item `>= n_items`.
    pub fn push(&mut self, row: &[ItemId]) {
        let row = if row.windows(2).all(|w| w[0] < w[1]) {
            row
        } else {
            self.scratch.clear();
            self.scratch.extend_from_slice(row);
            self.scratch.sort_unstable();
            self.scratch.dedup();
            &self.scratch
        };
        if let Some(&max) = row.last() {
            assert!(
                max < self.n_items,
                "item id {max} out of universe 0..{}",
                self.n_items
            );
        }
        self.items.extend_from_slice(row);
        self.offsets.push(self.items.len());
    }

    /// Number of transactions pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff no transactions were pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the database.
    pub fn build(self) -> TransactionDb {
        TransactionDb {
            n_items: self.n_items,
            offsets: self.offsets,
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_sorted_and_deduplicated() {
        let rows = [vec![3, 1, 3, 2], vec![0, 2, 4], vec![4, 0, 2], vec![5, 5]];
        let db = TransactionDb::from_rows(10, &rows);
        let want: [&[ItemId]; 4] = [&[1, 2, 3], &[0, 2, 4], &[0, 2, 4], &[5]];
        assert_eq!(db.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let db = TransactionDb::from_rows(4, &[vec![], vec![0]]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.transaction(0), &[] as &[ItemId]);
        assert_eq!(db.transaction(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_item_panics() {
        let _ = TransactionDb::from_rows(2, &[vec![2]]);
    }

    #[test]
    fn item_support_counts_histogram() {
        let db = TransactionDb::from_rows(3, &[vec![0, 1], vec![1], vec![1, 2]]);
        assert_eq!(db.item_support_counts(), vec![1, 3, 1]);
    }

    #[test]
    fn covers_checks_subset() {
        let db = TransactionDb::from_rows(5, &[vec![0, 2, 4]]);
        assert!(db.covers(0, &[0, 4]));
        assert!(db.covers(0, &[]));
        assert!(!db.covers(0, &[1]));
        assert!(!db.covers(0, &[0, 3]));
    }

    #[test]
    fn sorted_subset_edge_cases() {
        assert!(is_sorted_subset(&[], &[]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(!is_sorted_subset(&[1], &[]));
        assert!(is_sorted_subset(&[1, 2], &[0, 1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 5], &[0, 1, 2, 3]));
    }

    #[test]
    fn iter_yields_all_transactions() {
        let db = TransactionDb::from_rows(4, &[vec![0], vec![1, 2], vec![3]]);
        let all: Vec<_> = db.iter().collect();
        assert_eq!(all, vec![&[0u32] as &[_], &[1, 2], &[3]]);
    }
}
