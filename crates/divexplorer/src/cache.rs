//! Warm in-memory registry of mined candidate lattices.
//!
//! [`ArenaCache`] holds the candidate lattices the artifact layer
//! persists — keyed by [`ArenaKey`], the same key the on-disk registry
//! stores in every `.dxa` file — so a resident analysis service
//! pays the mine (or the artifact load) once and serves every following
//! query from memory. Entries are [`Arc`]-shared immutable arenas:
//! exploration queries (top-k divergence, Shapley, corrective items)
//! recount against them concurrently without cloning, and eviction never
//! invalidates an arena a query still holds.
//!
//! Eviction is LRU by resident bytes: the cache tracks each arena's
//! [`fpm::ItemsetArena::approx_bytes`] and evicts least-recently-used
//! entries once the configured byte budget is exceeded. The entry
//! serving the current request is never evicted, even if it alone
//! exceeds the budget. Hits, misses and evictions are published as
//! `divexplorer.cache.*` counters.

use std::collections::HashMap;
use std::sync::Arc;

use fpm::ItemsetArena;

/// What a lattice was mined from and under which parameters: the key of
/// both the [`ArenaCache`] and the on-disk artifact registry
/// (`datasets::artifact` re-exports it and stores it in every `.dxa`).
/// A recount is only sound against the same dataset (by content hash)
/// at the same or a stricter threshold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArenaKey {
    /// Content hash of the mined table.
    pub dataset_hash: u64,
    /// Absolute support-count threshold the lattice was mined at.
    pub min_support_count: u64,
    /// Itemset length cap, if one applied.
    pub max_len: Option<usize>,
    /// Mining backend name (`fpm::Algorithm` display form). Engines
    /// agree on the lattice; the key keeps them distinct for telemetry.
    pub engine: String,
    /// Rows of the mined table, for threshold arithmetic on load.
    pub n_rows: u64,
}

impl ArenaKey {
    /// The key of the full lattice `engine` mines from a table of
    /// `n_rows` rows with content hash `dataset_hash` at relative
    /// support `support`. How the mine runs (its thread count) never
    /// changes the lattice, so it never enters the key.
    pub fn new(dataset_hash: u64, n_rows: usize, support: f64, engine: fpm::Algorithm) -> Self {
        ArenaKey {
            dataset_hash,
            min_support_count: fpm::MiningParams::with_min_support_fraction(support, n_rows)
                .min_support_count,
            max_len: None,
            engine: engine.to_string(),
            n_rows: n_rows as u64,
        }
    }
}

#[derive(Debug)]
struct Slot {
    arena: Arc<ItemsetArena<()>>,
    bytes: u64,
    last_used: u64,
}

/// Byte-bounded LRU cache of shared immutable candidate lattices.
#[derive(Debug)]
pub struct ArenaCache {
    capacity_bytes: u64,
    resident_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    slots: HashMap<ArenaKey, Slot>,
}

impl ArenaCache {
    /// A cache that evicts once resident arenas exceed `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        ArenaCache {
            capacity_bytes,
            resident_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            slots: HashMap::new(),
        }
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by the byte budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cached lattices currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes held by resident arenas.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// The configured eviction budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Looks up a lattice, refreshing its LRU position. Publishes a
    /// `divexplorer.cache.hit` or `.miss` counter either way.
    pub fn get(&mut self, key: &ArenaKey) -> Option<Arc<ItemsetArena<()>>> {
        self.tick += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                obs::counter("divexplorer.cache.hit", 1);
                Some(Arc::clone(&slot.arena))
            }
            None => {
                self.misses += 1;
                obs::counter("divexplorer.cache.miss", 1);
                None
            }
        }
    }

    /// Inserts (or replaces) a lattice and evicts LRU entries until the
    /// byte budget holds again, never evicting `key` itself. Returns the
    /// number of evictions.
    pub fn insert(&mut self, key: ArenaKey, arena: Arc<ItemsetArena<()>>) -> usize {
        self.tick += 1;
        let bytes = arena.approx_bytes();
        if let Some(old) = self.slots.remove(&key) {
            self.resident_bytes -= old.bytes;
        }
        self.resident_bytes += bytes;
        self.slots.insert(
            key.clone(),
            Slot {
                arena,
                bytes,
                last_used: self.tick,
            },
        );
        let mut evicted = 0;
        while self.resident_bytes > self.capacity_bytes && self.slots.len() > 1 {
            let oldest = self
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    let slot = self.slots.remove(&k).expect("key just observed");
                    self.resident_bytes -= slot.bytes;
                    evicted += 1;
                }
                None => break,
            }
        }
        self.evictions += evicted as u64;
        obs::counter("divexplorer.cache.eviction", evicted as u64);
        evicted
    }

    /// The cache-through read: returns the cached lattice or builds,
    /// caches and returns it. Counters record the hit or miss.
    pub fn get_or_insert_with(
        &mut self,
        key: &ArenaKey,
        build: impl FnOnce() -> ItemsetArena<()>,
    ) -> Arc<ItemsetArena<()>> {
        if let Some(arena) = self.get(key) {
            return arena;
        }
        let arena = Arc::new(build());
        self.insert(key.clone(), Arc::clone(&arena));
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> ArenaKey {
        ArenaKey::new(tag, 8, 0.25, fpm::Algorithm::Dense)
    }

    fn arena(n: usize) -> Arc<ItemsetArena<()>> {
        let mut a = ItemsetArena::new();
        for i in 0..n as u32 {
            a.push(&[i], 1, ());
        }
        Arc::new(a)
    }

    #[test]
    fn get_after_insert_hits_and_shares() {
        let mut cache = ArenaCache::new(1 << 20);
        assert!(cache.get(&key(1)).is_none());
        let a = arena(4);
        cache.insert(key(1), Arc::clone(&a));
        let b = cache.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&a, &b), "cache shares, never clones");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), a.approx_bytes());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = arena(8);
        // Budget fits two arenas but not three.
        let mut cache = ArenaCache::new(2 * one.approx_bytes() + 1);
        cache.insert(key(1), arena(8));
        cache.insert(key(2), arena(8));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&key(1)).is_some());
        let evicted = cache.insert(key(3), arena(8));
        assert_eq!(evicted, 1);
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn an_oversized_entry_survives_alone() {
        let mut cache = ArenaCache::new(1);
        cache.insert(key(1), arena(64));
        assert_eq!(cache.len(), 1, "the serving entry is never evicted");
        cache.insert(key(2), arena(64));
        assert_eq!(cache.len(), 1, "previous entry made room");
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut cache = ArenaCache::new(1 << 20);
        cache.insert(key(1), arena(4));
        cache.insert(key(1), arena(16));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), arena(16).approx_bytes());
    }

    #[test]
    fn session_counters_track_hits_misses_and_evictions() {
        let one = arena(8);
        let mut cache = ArenaCache::new(2 * one.approx_bytes() + 1);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 0, 0));
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), arena(8));
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(2), arena(8));
        cache.insert(key(3), arena(8)); // evicts the LRU entry
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn get_or_insert_builds_once() {
        let mut cache = ArenaCache::new(1 << 20);
        let mut builds = 0;
        for _ in 0..3 {
            let a = cache.get_or_insert_with(&key(9), || {
                builds += 1;
                let mut a = ItemsetArena::new();
                a.push(&[1, 2], 5, ());
                a
            });
            assert_eq!(a.len(), 1);
        }
        assert_eq!(builds, 1);
    }
}
