//! Anchored mining: all frequent itemsets *containing* a given anchor item.
//!
//! A fairness auditor often cares only about subgroups mentioning a
//! protected attribute value. Post-filtering a full exploration works, but
//! wastes the whole non-anchored part of the search space; anchoring pushes
//! the constraint into the miner: restrict the database to the anchor's
//! covering transactions (a conditional database), mine it over the
//! remaining items, and prepend the anchor to every result.

use crate::arena::ItemsetArena;
use crate::itemset::FrequentItemset;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::{ItemId, TransactionDb, TransactionDbBuilder};
use crate::{Algorithm, MiningParams};

/// Mines all frequent itemsets of `db` that contain `anchor`.
///
/// Support is counted against the *full* database (an itemset containing
/// the anchor is only supported by transactions that contain the anchor, so
/// the conditional counts are already the global counts). The anchor item
/// itself is reported too (as the itemset `{anchor}`) when frequent.
///
/// # Panics
///
/// Panics if `anchor >= db.n_items()` or `payloads.len() != db.len()`.
pub fn mine_containing<P: Payload + Send + Sync>(
    algorithm: Algorithm,
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    anchor: ItemId,
) -> Vec<FrequentItemset<P>> {
    let mut arena = ItemsetArena::new();
    mine_containing_into(algorithm, db, payloads, params, anchor, &mut arena);
    arena.into_itemsets()
}

/// Wraps a sink, re-inserting the anchor into every conditional itemset
/// before forwarding.
struct AnchorSink<'a, S> {
    inner: &'a mut S,
    anchor: ItemId,
    buf: Vec<ItemId>,
}

/// Writes `items` with `anchor` spliced in at its canonical position
/// into `buf`.
fn splice_anchor(buf: &mut Vec<ItemId>, items: &[ItemId], anchor: ItemId) {
    let pos = items.partition_point(|&i| i < anchor);
    debug_assert!(items.get(pos) != Some(&anchor), "anchor in conditional db");
    buf.clear();
    buf.extend_from_slice(&items[..pos]);
    buf.push(anchor);
    buf.extend_from_slice(&items[pos..]);
}

impl<P: Payload, S: ItemsetSink<P>> ItemsetSink<P> for AnchorSink<'_, S> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        splice_anchor(&mut self.buf, items, self.anchor);
        self.inner.emit(&self.buf, support, payload);
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        splice_anchor(&mut self.buf, items, self.anchor);
        self.inner.wants_extensions(&self.buf, support)
    }

    fn should_stop(&mut self) -> bool {
        self.inner.should_stop()
    }
}

/// Streams all frequent itemsets of `db` that contain `anchor` into
/// `sink`. The sink sees full itemsets (anchor included, canonical
/// order); `{anchor}` itself is emitted first when frequent.
pub fn mine_containing_into<P: Payload + Send + Sync, S: ItemsetSink<P>>(
    algorithm: Algorithm,
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    anchor: ItemId,
    sink: &mut S,
) {
    assert!(anchor < db.n_items(), "anchor out of the item universe");
    assert_eq!(payloads.len(), db.len(), "payload length mismatch");
    let threshold = params.threshold();

    // Conditional database: the anchor's covering transactions, with the
    // anchor removed from each row.
    let cond_db_span = obs::span("fpm.anchored.cond_db");
    let mut builder = TransactionDbBuilder::new(db.n_items());
    let mut cond_payloads: Vec<P> = Vec::new();
    let mut anchor_support = 0u64;
    let mut anchor_payload = P::zero();
    let mut buf: Vec<ItemId> = Vec::new();
    for (t, row) in db.iter().enumerate() {
        if row.binary_search(&anchor).is_ok() {
            anchor_support += 1;
            anchor_payload.merge(&payloads[t]);
            buf.clear();
            buf.extend(row.iter().copied().filter(|&i| i != anchor));
            builder.push(&buf);
            cond_payloads.push(payloads[t].clone());
        }
    }
    if anchor_support < threshold {
        return;
    }
    sink.emit(&[anchor], anchor_support, &anchor_payload);
    if !sink.wants_extensions(&[anchor], anchor_support) {
        return;
    }

    let cond_db = builder.build();
    drop(cond_db_span);
    let mut cond_params = params.clone();
    if let Some(max_len) = params.max_len {
        if max_len <= 1 {
            return;
        }
        cond_params.max_len = Some(max_len - 1);
    }
    let mut anchor_sink = AnchorSink {
        inner: sink,
        anchor,
        buf: Vec::new(),
    };
    crate::dispatch_mine_into(
        algorithm,
        &cond_db,
        &cond_payloads,
        &cond_params,
        &mut anchor_sink,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::sort_canonical;
    use crate::payload::CountPayload;
    use crate::sink::VecSink;

    fn db() -> TransactionDb {
        TransactionDb::from_rows(
            4,
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![1, 2, 3],
                vec![0, 2, 3],
                vec![0, 1, 3],
            ],
        )
    }

    #[test]
    fn matches_post_filtered_full_mining() {
        let db = db();
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        for anchor in 0..4u32 {
            for min_support in 1..=3u64 {
                let params = MiningParams::with_min_support_count(min_support);
                let mut anchored =
                    mine_containing(Algorithm::FpGrowth, &db, &payloads, &params, anchor);
                let mut filtered: Vec<_> = crate::MiningTask::with_params(&db, params.clone())
                    .payloads(&payloads)
                    .algorithm(Algorithm::FpGrowth)
                    .run()
                    .into_itemsets()
                    .into_iter()
                    .filter(|fi| fi.items.contains(&anchor))
                    .collect();
                sort_canonical(&mut anchored);
                sort_canonical(&mut filtered);
                assert_eq!(anchored, filtered, "anchor={anchor} s={min_support}");
            }
        }
    }

    #[test]
    fn sink_sees_full_anchored_itemsets() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let mut sink = VecSink::new();
        mine_containing_into(Algorithm::Eclat, &db, &[(); 5], &params, 2, &mut sink);
        assert!(!sink.found.is_empty());
        assert!(sink.found.iter().all(|fi| fi.items.contains(&2)));
        assert!(sink
            .found
            .iter()
            .all(|fi| fi.items.windows(2).all(|w| w[0] < w[1])));
        let expected = mine_containing(Algorithm::Eclat, &db, &[(); 5], &params, 2);
        let mut got = sink.found;
        sort_canonical(&mut got);
        let mut want = expected;
        sort_canonical(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn infrequent_anchor_yields_nothing() {
        let db = db();
        let params = MiningParams::with_min_support_count(4);
        let found = mine_containing(Algorithm::Eclat, &db, &[(); 5], &params, 3);
        assert!(found.is_empty());
    }

    #[test]
    fn max_len_counts_the_anchor() {
        let db = db();
        let params = MiningParams::with_min_support_count(1).max_len(2);
        let found = mine_containing(Algorithm::Dense, &db, &[(); 5], &params, 0);
        assert!(found.iter().all(|fi| fi.items.len() <= 2));
        assert!(found.iter().all(|fi| fi.items.contains(&0)));
        // With max_len 1, only the anchor itself.
        let params = MiningParams::with_min_support_count(1).max_len(1);
        let found = mine_containing(Algorithm::Dense, &db, &[(); 5], &params, 0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].items, vec![0]);
    }

    #[test]
    #[should_panic(expected = "anchor out of the item universe")]
    fn bad_anchor_panics() {
        let db = db();
        let _ = mine_containing(
            Algorithm::FpGrowth,
            &db,
            &[(); 5],
            &MiningParams::with_min_support_count(1),
            99,
        );
    }
}
