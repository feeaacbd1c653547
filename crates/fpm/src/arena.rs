//! Arena-backed itemset store: the default collecting sink.
//!
//! [`ItemsetArena`] keeps every stored itemset's items in one flat
//! `Vec<ItemId>`, with a per-itemset record of `(offset, len, support,
//! payload)`. Compared to `Vec<FrequentItemset<P>>` this removes the
//! per-itemset heap allocation (the seed's dominant allocation hot
//! path), keeps items contiguous for cache-friendly iteration, and
//! supports `O(1)` id-based access plus an itemset → id hash index that
//! is built once and shared by every lookup (closed/maximal extraction,
//! subset queries in the explorer). On top of that index sits a lazily
//! built immediate-subset index ([`ItemsetArena::subsets`]): for every
//! stored itemset `K` and item `α ∈ K`, where `K ∖ {α}` is stored — the
//! one question every lattice-wide analysis asks per edge.

use std::sync::OnceLock;

use crate::itemset::FrequentItemset;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::ItemId;

/// One stored itemset: a view into the arena's flat item buffer.
///
/// Offsets and supports are `u32`, like the engines' row ids, so a
/// record with a 12-byte payload (the explorer's confusion cells) takes
/// 24 bytes, not 32: a lattice costs a quarter less record memory to
/// hold, and to free when its report drops. An arena therefore holds
/// fewer than 2^32 items in total, with supports below 2^32.
#[derive(Debug, Clone)]
struct Record<P> {
    offset: u32,
    len: u32,
    support: u32,
    payload: P,
}

impl<P> Record<P> {
    /// The record's range in the flat item buffer.
    fn range(&self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// Where the immediate subset `items(id) ∖ {items(id)[j]}` of a stored
/// itemset lives: the decoded entry `j` of [`ItemsetArena::subsets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    /// The empty itemset: the itemset has one item.
    Empty,
    /// Stored under this id — the id [`ItemsetArena::find`] returns.
    Stored(usize),
    /// Not stored in the arena (a truncated or filtered result).
    Absent,
}

/// One immediate-subset edge `(K, K ∖ {α})` packed into 4 bytes:
/// a stored id, or one of two reserved markers. [`SubsetEdge::get`]
/// decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct SubsetEdge(u32);

impl SubsetEdge {
    const EMPTY: SubsetEdge = SubsetEdge(u32::MAX);
    const ABSENT: SubsetEdge = SubsetEdge(u32::MAX - 1);

    fn stored(found: Option<usize>) -> Self {
        found.map_or(SubsetEdge::ABSENT, |id| SubsetEdge(id as u32))
    }

    /// Where the subset this edge points to lives.
    pub fn get(self) -> Subset {
        match self {
            SubsetEdge::EMPTY => Subset::Empty,
            SubsetEdge::ABSENT => Subset::Absent,
            SubsetEdge(id) => Subset::Stored(id as usize),
        }
    }
}

/// A borrowed view of one stored itemset.
#[derive(Debug, Clone, Copy)]
pub struct ArenaEntry<'a, P> {
    /// Canonical (sorted ascending) item ids.
    pub items: &'a [ItemId],
    pub support: u64,
    pub payload: &'a P,
}

/// Flat store of itemsets with supports and payloads.
///
/// Ids are assigned in insertion order (`0..len`). [`Self::sort_canonical`]
/// permutes the records (not the item buffer) into canonical order —
/// by length, then lexicographically — renumbering ids accordingly.
#[derive(Debug, Default)]
pub struct ItemsetArena<P> {
    items: Vec<ItemId>,
    recs: Vec<Record<P>>,
    /// Lazily built itemset → id index, carrying the lazily built
    /// immediate-subset index; any mutation drops both.
    index: OnceLock<SliceIndex>,
}

impl<P> ItemsetArena<P> {
    pub fn new() -> Self {
        ItemsetArena {
            items: Vec::new(),
            recs: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// Pre-sizes for `n_itemsets` records over ~`n_items` total items.
    pub fn with_capacity(n_itemsets: usize, n_items: usize) -> Self {
        ItemsetArena {
            items: Vec::with_capacity(n_items),
            recs: Vec::with_capacity(n_itemsets),
            index: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Total items stored across all itemsets.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Approximate heap footprint: the flat item buffer plus the record
    /// table, counted at capacity (what the allocator actually holds).
    pub fn approx_bytes(&self) -> u64 {
        (self.items.capacity() * std::mem::size_of::<ItemId>()
            + self.recs.capacity() * std::mem::size_of::<Record<P>>()) as u64
    }

    /// Appends an itemset (`items` must be in canonical order) and
    /// returns its id.
    pub fn push(&mut self, items: &[ItemId], support: u64, payload: P) -> usize {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be canonical"
        );
        self.index.take();
        let offset = u32::try_from(self.items.len()).expect("an arena holds fewer than 2^32 items");
        self.items.extend_from_slice(items);
        self.recs.push(Record {
            offset,
            len: items.len() as u32,
            support: u32::try_from(support).expect("supports count rows, which fit in u32"),
            payload,
        });
        self.recs.len() - 1
    }

    /// The items of itemset `id`.
    pub fn items(&self, id: usize) -> &[ItemId] {
        &self.items[self.recs[id].range()]
    }

    pub fn support(&self, id: usize) -> u64 {
        u64::from(self.recs[id].support)
    }

    pub fn payload(&self, id: usize) -> &P {
        &self.recs[id].payload
    }

    /// Replaces the payload of itemset `id`, returning the old one.
    pub fn set_payload(&mut self, id: usize, payload: P) -> P {
        std::mem::replace(&mut self.recs[id].payload, payload)
    }

    pub fn entry(&self, id: usize) -> ArenaEntry<'_, P> {
        let rec = &self.recs[id];
        ArenaEntry {
            items: &self.items[rec.range()],
            support: u64::from(rec.support),
            payload: &rec.payload,
        }
    }

    /// Iterates entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = ArenaEntry<'_, P>> + '_ {
        (0..self.recs.len()).map(move |id| self.entry(id))
    }

    /// Sorts records into canonical order (length, then lexicographic
    /// items). Only the records permute; the flat item buffer stays
    /// put. Ids refer to the new order afterwards.
    pub fn sort_canonical(&mut self) {
        self.index.take();
        let items = std::mem::take(&mut self.items);
        self.recs.sort_by(|a, b| {
            let (ia, ib) = (&items[a.range()], &items[b.range()]);
            ia.len().cmp(&ib.len()).then_with(|| ia.cmp(ib))
        });
        self.items = items;
    }

    /// Appends every record of `other`, preserving their order. Ids of
    /// `self` are unchanged; `other`'s itemsets get the next ids.
    pub fn absorb(&mut self, other: ItemsetArena<P>) {
        self.index.take();
        let shift = self.items.len();
        assert!(
            u32::try_from(shift + other.items.len()).is_ok(),
            "an arena holds fewer than 2^32 items"
        );
        self.items.extend_from_slice(&other.items);
        self.recs.extend(other.recs.into_iter().map(|mut rec| {
            rec.offset += shift as u32;
            rec
        }));
    }

    /// Looks up an itemset (canonical item order) and returns its id.
    ///
    /// The first lookup builds a hash index over all stored itemsets;
    /// subsequent lookups are `O(1)`. Any mutation invalidates the
    /// index, and the next `find` rebuilds it.
    pub fn find(&self, items: &[ItemId]) -> Option<usize> {
        self.slice_index().find(self, items)
    }

    fn slice_index(&self) -> &SliceIndex {
        self.index.get_or_init(|| SliceIndex::build(self))
    }

    /// The immediate subsets of itemset `id`: entry `j` says where
    /// `items(id) ∖ {items(id)[j]}` is stored ([`Subset::Stored`], the id
    /// [`Self::find`] returns for it), that it is empty (a one-item
    /// itemset), or that it is absent.
    ///
    /// The first call builds the index for every stored itemset, with
    /// one [`Self::find`] per edge; it costs 4 bytes per stored item, is
    /// dropped by any mutation like the hash index, and is exact on any
    /// arena — truncated, filtered (not downward-closed) or holding
    /// duplicate itemsets.
    pub fn subsets(&self, id: usize) -> &[SubsetEdge] {
        let index = self.slice_index();
        let edges = index.subsets.get_or_init(|| index.build_subsets(self));
        &edges[self.recs[id].range()]
    }

    /// Materializes the arena into the seed representation (one `Vec`
    /// per itemset), consuming it.
    pub fn into_itemsets(self) -> Vec<FrequentItemset<P>> {
        let items = self.items;
        self.recs
            .into_iter()
            .map(|rec| FrequentItemset {
                items: items[rec.range()].to_vec(),
                support: u64::from(rec.support),
                payload: rec.payload,
            })
            .collect()
    }

    /// Splits the arena into its lattice shape — items and supports, a
    /// unit-payload arena with the same ids, the form persisted by
    /// on-disk artifacts and consumed by [`crate::MiningTask::recount`] —
    /// and its payloads in id order. The flat item buffer moves into the
    /// shape; nothing is copied but the records.
    pub fn split_payloads(self) -> (ItemsetArena<()>, Vec<P>) {
        let mut recs = Vec::with_capacity(self.recs.len());
        let mut payloads = Vec::with_capacity(self.recs.len());
        for rec in self.recs {
            recs.push(Record {
                offset: rec.offset,
                len: rec.len,
                support: rec.support,
                payload: (),
            });
            payloads.push(rec.payload);
        }
        let shape = ItemsetArena {
            items: self.items,
            recs,
            index: OnceLock::new(),
        };
        (shape, payloads)
    }

    /// Builds an arena from the seed representation.
    pub fn from_itemsets(found: &[FrequentItemset<P>]) -> Self
    where
        P: Clone,
    {
        let total: usize = found.iter().map(|fi| fi.items.len()).sum();
        let mut arena = ItemsetArena::with_capacity(found.len(), total);
        for fi in found {
            arena.push(&fi.items, fi.support, fi.payload.clone());
        }
        arena
    }
}

// Manual impl: `OnceLock<SliceIndex>` is not `Clone`; the copy starts
// with an empty index and rebuilds it on its first `find`.
impl<P: Clone> Clone for ItemsetArena<P> {
    fn clone(&self) -> Self {
        ItemsetArena {
            items: self.items.clone(),
            recs: self.recs.clone(),
            index: OnceLock::new(),
        }
    }
}

impl<P: Payload> ItemsetSink<P> for ItemsetArena<P> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        self.push(items, support, payload.clone());
    }
}

// ---------------------------------------------------------------------
// Slice index

/// Open-addressing hash table mapping an itemset slice to its arena id.
///
/// Stored as `id + 1` (0 = empty slot) so the table is a plain `Vec<u32>`
/// with no self-referential borrows into the arena.
#[derive(Debug)]
struct SliceIndex {
    slots: Vec<u32>,
    mask: usize,
    /// The immediate-subset index, parallel to the arena's flat item
    /// buffer: entry `offset + j` of itemset `(offset, len)` is the edge
    /// that removes its item `j`. Living inside the hash index, it is
    /// dropped wherever that index is.
    subsets: OnceLock<Vec<SubsetEdge>>,
}

fn hash_items(items: &[ItemId]) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    for &i in items {
        h.write_u32(i);
    }
    h.finish()
}

impl SliceIndex {
    fn build<P>(arena: &ItemsetArena<P>) -> Self {
        let capacity = (arena.len() * 2).next_power_of_two().max(8);
        let mut index = SliceIndex {
            slots: vec![0; capacity],
            mask: capacity - 1,
            subsets: OnceLock::new(),
        };
        for id in 0..arena.len() {
            index.insert(arena, id);
        }
        index
    }

    fn insert<P>(&mut self, arena: &ItemsetArena<P>, id: usize) {
        let items = arena.items(id);
        let mut slot = hash_items(items) as usize & self.mask;
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = (id + 1) as u32;
                    return;
                }
                occupied => {
                    // Duplicates keep the first id, matching the seed's
                    // index_by_itemset insert-wins-last... the seed used
                    // HashMap::insert (last wins); keep last for parity.
                    if arena.items((occupied - 1) as usize) == items {
                        self.slots[slot] = (id + 1) as u32;
                        return;
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// One lookup per edge: the last item's subset is the itemset's own
    /// prefix, every other one is copied into a reused buffer.
    fn build_subsets<P>(&self, arena: &ItemsetArena<P>) -> Vec<SubsetEdge> {
        let _span = obs::span("arena.subsets");
        assert!(
            arena.len() < SubsetEdge::ABSENT.0 as usize,
            "too many itemsets for 32-bit subset edges"
        );
        let mut edges = vec![SubsetEdge::ABSENT; arena.items.len()];
        let mut buf: Vec<ItemId> = Vec::new();
        for rec in &arena.recs {
            let items = &arena.items[rec.range()];
            let out = &mut edges[rec.range()];
            match items.len() {
                0 => {}
                1 => out[0] = SubsetEdge::EMPTY,
                len => {
                    for j in 0..len - 1 {
                        buf.clear();
                        buf.extend_from_slice(&items[..j]);
                        buf.extend_from_slice(&items[j + 1..]);
                        out[j] = SubsetEdge::stored(self.find(arena, &buf));
                    }
                    out[len - 1] = SubsetEdge::stored(self.find(arena, &items[..len - 1]));
                }
            }
        }
        edges
    }

    fn find<P>(&self, arena: &ItemsetArena<P>, items: &[ItemId]) -> Option<usize> {
        let mut slot = hash_items(items) as usize & self.mask;
        loop {
            match self.slots[slot] {
                0 => return None,
                occupied => {
                    let id = (occupied - 1) as usize;
                    if arena.items(id) == items {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams};

    /// A record with the explorer's 12-byte confusion cells is 24 bytes;
    /// supports and offsets round-trip up to 2^32 − 1.
    #[test]
    fn records_are_compact_and_hold_32_bit_supports() {
        assert_eq!(std::mem::size_of::<Record<[u32; 3]>>(), 24);
        let mut arena = ItemsetArena::new();
        arena.push(&[0, 1], u64::from(u32::MAX), [1u32, 2, 3]);
        arena.push(&[2], 7, [4, 5, 6]);
        assert_eq!(arena.support(0), u64::from(u32::MAX));
        assert_eq!(arena.items(1), &[2]);
        assert_eq!(arena.entry(1).support, 7);
    }

    #[test]
    #[should_panic(expected = "supports count rows")]
    fn a_support_beyond_32_bits_is_refused() {
        ItemsetArena::new().push(&[0], 1 << 32, ());
    }

    fn sample_arena() -> ItemsetArena<CountPayload> {
        let mut arena = ItemsetArena::new();
        arena.push(&[0], 5, CountPayload(1));
        arena.push(&[1], 4, CountPayload(2));
        arena.push(&[0, 1], 3, CountPayload(3));
        arena.push(&[0, 2], 2, CountPayload(4));
        arena
    }

    #[test]
    fn push_and_access() {
        let arena = sample_arena();
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_items(), 6);
        assert_eq!(arena.items(2), &[0, 1]);
        assert_eq!(arena.support(2), 3);
        assert_eq!(*arena.payload(3), CountPayload(4));
        let entry = arena.entry(0);
        assert_eq!((entry.items, entry.support), (&[0u32][..], 5));
    }

    #[test]
    fn find_uses_the_shared_index() {
        let arena = sample_arena();
        assert_eq!(arena.find(&[0, 1]), Some(2));
        assert_eq!(arena.find(&[1]), Some(1));
        assert_eq!(arena.find(&[2]), None);
        assert_eq!(arena.find(&[]), None);
    }

    #[test]
    fn mutation_invalidates_the_index() {
        let mut arena = sample_arena();
        assert_eq!(arena.find(&[0, 2]), Some(3));
        arena.push(&[1, 2], 1, CountPayload(9));
        assert_eq!(arena.find(&[1, 2]), Some(4));
        assert_eq!(arena.find(&[0, 1]), Some(2));
    }

    /// What [`ItemsetArena::subsets`] must say, by definition: one `find`
    /// of the item-removed set, or ∅ for a one-item itemset.
    fn expected_edges<P>(arena: &ItemsetArena<P>, id: usize) -> Vec<Subset> {
        let items = arena.items(id);
        (0..items.len())
            .map(|j| {
                if items.len() == 1 {
                    return Subset::Empty;
                }
                let mut removed = items.to_vec();
                removed.remove(j);
                arena.find(&removed).map_or(Subset::Absent, Subset::Stored)
            })
            .collect()
    }

    fn edges<P>(arena: &ItemsetArena<P>, id: usize) -> Vec<Subset> {
        arena.subsets(id).iter().map(|e| e.get()).collect()
    }

    #[test]
    fn subsets_name_each_immediate_subset() {
        let arena = sample_arena();
        // {0, 1}: removing 0 leaves {1} (id 1), removing 1 leaves {0} (id 0).
        assert_eq!(edges(&arena, 2), vec![Subset::Stored(1), Subset::Stored(0)]);
        // {0, 2}: {2} is not stored.
        assert_eq!(edges(&arena, 3), vec![Subset::Absent, Subset::Stored(0)]);
        assert_eq!(edges(&arena, 0), vec![Subset::Empty]);
        assert_eq!(arena.subsets(2).len(), arena.items(2).len());
    }

    #[test]
    fn mutation_invalidates_the_subset_index() {
        let mut arena = sample_arena();
        assert_eq!(edges(&arena, 3), vec![Subset::Absent, Subset::Stored(0)]);
        arena.push(&[2], 1, CountPayload(9));
        assert_eq!(edges(&arena, 3), vec![Subset::Stored(4), Subset::Stored(0)]);
        arena.sort_canonical();
        // Canonical order: {0} {1} {2} {0,1} {0,2}.
        assert_eq!(edges(&arena, 4), vec![Subset::Stored(2), Subset::Stored(0)]);
        let mut other = ItemsetArena::new();
        other.push(&[1, 2], 1, CountPayload(0));
        arena.absorb(other);
        assert_eq!(edges(&arena, 5), vec![Subset::Stored(2), Subset::Stored(1)]);
        assert_eq!(edges(&arena.clone(), 5), edges(&arena, 5));
    }

    #[test]
    fn empty_itemsets_have_no_edges_and_duplicates_point_where_find_does() {
        let mut arena = ItemsetArena::new();
        arena.push(&[], 9, ());
        arena.push(&[3], 4, ());
        arena.push(&[3], 4, ());
        arena.push(&[3, 5], 2, ());
        assert!(arena.subsets(0).is_empty());
        assert_eq!(arena.find(&[3]), Some(2));
        assert_eq!(edges(&arena, 3), vec![Subset::Absent, Subset::Stored(2)]);
        assert_eq!(edges(&arena, 1), vec![Subset::Empty]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random arenas — not downward-closed, with duplicate and empty
        /// itemsets, canonical order or not — resolve every edge exactly
        /// as one `find` of the item-removed set does.
        #[test]
        fn every_edge_is_the_find_of_its_item_removed_set(
            masks in proptest::collection::vec(0u8..128, 0..40),
            canonical in proptest::prelude::any::<bool>(),
            extra in 0u8..128,
        ) {
            let itemset = |mask: u8| -> Vec<ItemId> {
                (0..7).filter(|i| mask & (1 << i) != 0).collect()
            };
            let mut arena = ItemsetArena::new();
            for &mask in &masks {
                arena.push(&itemset(mask), u64::from(mask), ());
            }
            if canonical {
                arena.sort_canonical();
            }
            for id in 0..arena.len() {
                proptest::prop_assert_eq!(edges(&arena, id), expected_edges(&arena, id));
            }
            arena.push(&itemset(extra), 0, ());
            for id in 0..arena.len() {
                proptest::prop_assert_eq!(edges(&arena, id), expected_edges(&arena, id));
            }
        }
    }

    #[test]
    fn sort_canonical_matches_vec_sort() {
        let mut arena = ItemsetArena::new();
        arena.push(&[2], 1, ());
        arena.push(&[0, 1], 1, ());
        arena.push(&[0], 1, ());
        arena.push(&[0, 2], 1, ());
        arena.sort_canonical();
        let order: Vec<&[ItemId]> = arena.iter().map(|e| e.items).collect();
        assert_eq!(order, vec![&[0][..], &[2], &[0, 1], &[0, 2]]);
        assert_eq!(arena.find(&[0, 1]), Some(2));
    }

    #[test]
    fn split_payloads_keeps_ids_and_moves_the_item_buffer() {
        let mut arena = sample_arena();
        arena.push(&[2], 1, CountPayload(5));
        arena.sort_canonical();
        let kept: Vec<(Vec<ItemId>, u64, CountPayload)> = arena
            .iter()
            .map(|e| (e.items.to_vec(), e.support, *e.payload))
            .collect();
        let buffer = arena.items.as_ptr();
        let (shape, payloads) = arena.split_payloads();
        assert_eq!(shape.items.as_ptr(), buffer);
        let split: Vec<(Vec<ItemId>, u64, CountPayload)> = shape
            .iter()
            .zip(payloads)
            .map(|(e, payload)| (e.items.to_vec(), e.support, payload))
            .collect();
        assert_eq!(split, kept);
        assert_eq!(shape.find(&[0, 1]), Some(3));
    }

    #[test]
    fn absorb_appends_with_shifted_offsets() {
        let mut a = sample_arena();
        let mut b = ItemsetArena::new();
        b.push(&[7], 9, CountPayload(7));
        b.push(&[7, 8], 8, CountPayload(8));
        a.absorb(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.items(4), &[7]);
        assert_eq!(a.items(5), &[7, 8]);
        assert_eq!(a.find(&[7, 8]), Some(5));
    }

    #[test]
    fn roundtrip_through_itemsets() {
        let db = TransactionDb::from_rows(4, &[vec![0, 1, 2], vec![0, 1], vec![0, 3], vec![1, 2]]);
        let params = MiningParams::with_min_support_count(1);
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        let found = crate::MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Eclat)
            .run()
            .into_itemsets();
        let arena = ItemsetArena::from_itemsets(&found);
        assert_eq!(arena.into_itemsets(), found);
    }
}
