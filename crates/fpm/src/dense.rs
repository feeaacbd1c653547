//! Class-mask popcount counting engine with adaptive tidset representation.
//!
//! The merge-based miners realize payload fusion as a per-tid
//! [`Payload::merge`] walk; on DivExplorer's dense one-item-per-attribute
//! databases that walk dominates runtime. This engine removes it entirely
//! for payloads that lower into [`ClassMasks`]: tidsets hold the rows'
//! cell-ordered positions, so each counting class is one range of bits and
//! a node's outcome counters are its popcount split at the class
//! boundaries.
//!
//! Three tidset representations are used adaptively per lattice node:
//!
//! - **Dense** ([`Bitset`]): support density at or above
//!   [`Config::sparse_cutoff`]. A frequent child's support is first an
//!   AND + popcount that materializes nothing; the survivors are then
//!   ANDed, stored and split-counted in one fused pass.
//! - **Sparse** (sorted tid-list): below the cutoff, where a word scan
//!   would mostly touch zeros. Counting binary-searches the list for
//!   each class boundary.
//! - **Diffset** (dEclat, Zaki & Gouda 2003): when every frequent child
//!   of a node retains more than [`Config::diffset_ratio`] of its
//!   parent's support — the deep-recursion regime on dense data — the
//!   whole child family stores `d(PX) = t(P) \ t(PX)` instead.
//!   `support(child) = support(parent) − |diffset|`, and the counters
//!   follow by subtraction: `counts(child) = counts(parent) −
//!   class_counts(diffset)`. Diffsets of diffsets need only sorted
//!   differences: `d(PXY) = d(PY) \ d(PX)`.
//!
//! Intersection output (bitset words, tid-lists, count vectors, child
//! node vectors) is recycled through a per-run [`Pool`], so steady-state
//! mining performs no per-node allocation. The parallel engine gives each
//! worker its own pool.
//!
//! Payloads that do not lower into class masks (the default
//! [`Payload::mask_spec`]) fall back transparently to merge-based
//! [`crate::eclat`], so [`crate::Algorithm::Dense`] is safe for any
//! payload type.

use crate::arena::ItemsetArena;
use crate::bitset::Bitset;
use crate::eclat;
use crate::itemset::FrequentItemset;
use crate::kernels::{self, AlignedWords};
use crate::masks::ClassMasks;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::{ItemId, TransactionDb};
use crate::MiningParams;

/// Tuning knobs of the adaptive representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Tidsets whose density `support / |D|` falls below this threshold
    /// are stored as sorted tid-lists instead of packed words.
    ///
    /// Rationale: a word-wide operation costs `|D| / 64` words no matter
    /// how few bits are set, while a tid-list walk costs one probe per
    /// set bit. The word kernels (SIMD or scalar) AND and count far faster
    /// per word than a tid-list probes per tid, so bitsets pay well below
    /// density `1/64`. Measured with [`mine_into_with`] over the
    /// explorer's cell payloads on the seed-42 tables (release build,
    /// 2-core x86-64 with AVX2, SIMD kernel, best of 5), cutoffs `1/64`,
    /// `1/256`, `1/512`, `1/1024` and `0` mined bank at s = 0.003 in
    /// 3,853, 1,295, 908, 1,016 and 908 ms, adult at s = 0.002 in 852,
    /// 418, 366, 365 and 351 ms, and artificial at s = 0.002 in 476, 129,
    /// 103, 103 and 112 ms. At s = 0.01, where no node falls below
    /// `1/128`, `1/64` against `1/512` read german 1,065 vs 631 ms, bank
    /// 706 vs 222 ms and artificial 294 vs 78 ms. The break-even sits near
    /// density `1/1000`; the default, `1/512`, keeps every node of a run
    /// at s ≥ `1/512` (every Figure-6 cell) a bitset.
    ///
    /// The price is memory: a bitset costs `|D| / 8` bytes and a tid-list
    /// 4 bytes per set bit, so a node at density `d` costs `1 / (32·d)`
    /// times its tid-list as a bitset — at most 16× at the `1/512`
    /// default. The seed-42 tables above have at most 50,000 rows; on adult
    /// generated at 500,000 rows, explored at s = `1/1024`, the cutoffs
    /// `1/64`, `1/512` and `0` all peaked at 70–72 MB resident, and took
    /// 14.5, 6.1 and 7.6 s. `0.0` forces every node dense; anything above
    /// `1.0` forces every node sparse.
    pub sparse_cutoff: f64,
    /// A sibling family switches to dEclat diffsets when every frequent
    /// child retains more than this fraction of its parent's support
    /// (each diffset is then smaller than `(1 − ratio) · support(parent)`).
    /// Values `>= 1.0` disable diffsets; `0.0` switches at the first
    /// opportunity.
    pub diffset_ratio: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sparse_cutoff: 1.0 / 512.0,
            diffset_ratio: 0.75,
        }
    }
}

/// Recycling pool for the engine's intersection output: bitset word
/// buffers, tid-lists, per-class count vectors and child-node vectors.
/// One per run — or one per worker in the parallel engine, so pools are
/// never shared across threads.
#[derive(Debug, Default)]
pub struct Pool {
    words: Vec<AlignedWords>,
    tids: Vec<Vec<u32>>,
    counts: Vec<Vec<u64>>,
    nodes: Vec<Vec<Node>>,
    hits: u64,
    misses: u64,
}

impl Pool {
    pub fn new() -> Self {
        Self::default()
    }

    fn grab<T>(bin: &mut Vec<T>, hits: &mut u64, misses: &mut u64, empty: impl FnOnce() -> T) -> T {
        match bin.pop() {
            Some(buf) => {
                *hits += 1;
                buf
            }
            None => {
                *misses += 1;
                empty()
            }
        }
    }

    fn take_words(&mut self) -> AlignedWords {
        Self::grab(
            &mut self.words,
            &mut self.hits,
            &mut self.misses,
            AlignedWords::new,
        )
    }
    fn put_words(&mut self, mut buf: AlignedWords) {
        buf.clear();
        self.words.push(buf);
    }
    fn take_tids(&mut self) -> Vec<u32> {
        Self::grab(&mut self.tids, &mut self.hits, &mut self.misses, Vec::new)
    }
    fn put_tids(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.tids.push(buf);
    }
    fn take_counts(&mut self) -> Vec<u64> {
        Self::grab(&mut self.counts, &mut self.hits, &mut self.misses, Vec::new)
    }
    fn put_counts(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        self.counts.push(buf);
    }
    fn take_nodes(&mut self) -> Vec<Node> {
        Self::grab(&mut self.nodes, &mut self.hits, &mut self.misses, Vec::new)
    }
    fn put_nodes(&mut self, buf: Vec<Node>) {
        debug_assert!(buf.is_empty(), "recycle nodes before returning the vec");
        self.nodes.push(buf);
    }
}

/// Per-run engine telemetry, published once per run (or per worker) so a
/// lock-holding recorder never sits on the hot path.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EngineStats {
    intersections: u64,
    pruned: u64,
    words_anded: u64,
    repr_switches: u64,
    diffset_families: u64,
}

impl EngineStats {
    pub(crate) fn publish(&self, pool: &Pool) {
        obs::counter("fpm.tid_intersections", self.intersections);
        obs::counter("fpm.candidates_pruned", self.pruned);
        obs::counter("fpm.dense.words_anded", self.words_anded);
        obs::counter("fpm.dense.repr_switches", self.repr_switches);
        obs::counter("fpm.dense.diffset_families", self.diffset_families);
        obs::counter("fpm.dense.pool_hits", pool.hits);
        obs::counter("fpm.dense.pool_misses", pool.misses);
        // Which counting kernel this run (or worker) went through, and
        // how many words it pushed through that kernel.
        kernels::publish_selected(self.words_anded);
    }
}

/// A lattice node's transaction set, in one of the three representations.
/// Sibling families are uniform in *kind*: tids-families mix `Dense` and
/// `Sparse` freely, but `Diff` nodes only ever have `Diff` siblings.
#[derive(Debug)]
pub(crate) enum TidSet {
    Dense(Bitset),
    Sparse(Vec<u32>),
    /// Tids in the parent but *not* in this node (dEclat diffset).
    Diff(Vec<u32>),
}

/// One frequent lattice node: item, support, per-class counts and tidset.
#[derive(Debug)]
pub(crate) struct Node {
    item: ItemId,
    support: u64,
    counts: Vec<u64>,
    tids: TidSet,
}

impl Node {
    fn recycle(self, pool: &mut Pool) {
        pool.put_counts(self.counts);
        match self.tids {
            TidSet::Dense(bs) => pool.put_words(bs.into_words()),
            TidSet::Sparse(list) | TidSet::Diff(list) => pool.put_tids(list),
        }
    }
}

/// Immutable per-run context shared by the recursion (and, in the
/// parallel engine, by all workers).
pub(crate) struct Ctx<'a> {
    pub masks: &'a ClassMasks,
    pub threshold: u64,
    pub max_len: usize,
    pub n_rows: usize,
    pub config: Config,
}

/// Mines all frequent itemsets with the default [`Config`].
pub fn mine<P: Payload>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
) -> Vec<FrequentItemset<P>> {
    let mut arena = ItemsetArena::new();
    mine_into(db, payloads, params, &mut arena);
    arena.into_itemsets()
}

/// Streams all frequent itemsets into `sink` with the default [`Config`].
pub fn mine_into<P: Payload, S: ItemsetSink<P>>(
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    sink: &mut S,
) {
    mine_into_with(Config::default(), db, payloads, params, sink)
}

/// Streams all frequent itemsets into `sink` under an explicit [`Config`]
/// — the entry point for forcing a representation (all-dense, all-sparse,
/// diffset-eager) in tests and experiments.
pub fn mine_into_with<P: Payload, S: ItemsetSink<P>>(
    config: Config,
    db: &TransactionDb,
    payloads: &[P],
    params: &MiningParams,
    sink: &mut S,
) {
    let threshold = params.threshold();
    let max_len = params.max_len.unwrap_or(usize::MAX);
    if max_len == 0 || db.is_empty() {
        return;
    }
    let Some(masks) = ClassMasks::build(payloads) else {
        // The payload doesn't lower into class masks; count by merging.
        obs::counter("fpm.dense.mask_fallbacks", 1);
        return eclat::mine_into(db, payloads, params, sink);
    };
    let ctx = Ctx {
        masks: &masks,
        threshold,
        max_len,
        n_rows: db.len(),
        config,
    };
    let mut pool = Pool::new();
    let mut stats = EngineStats::default();
    let roots = build_roots(db, &ctx, &mut pool, &mut stats);
    let mut prefix: Vec<ItemId> = Vec::new();
    for pos in 0..roots.len() {
        // Checkpoint between root subtrees; within a subtree the sink's
        // emit/wants_extensions hooks fire at every node.
        if sink.should_stop() {
            break;
        }
        extend(&ctx, &roots, pos, &mut prefix, &mut pool, &mut stats, sink);
    }
    stats.publish(&pool);
}

/// Builds the frequent 1-itemset nodes, choosing each root's
/// representation up front from the per-item support histogram (so the
/// fill pass neither reallocates nor builds bitsets it will discard).
/// The fill walks positions, not rows, so tid-lists come out sorted.
pub(crate) fn build_roots(
    db: &TransactionDb,
    ctx: &Ctx<'_>,
    pool: &mut Pool,
    stats: &mut EngineStats,
) -> Vec<Node> {
    let _span = obs::span("fpm.eclat.tid_build");
    enum Slot {
        Skip,
        Dense(Bitset),
        Sparse(Vec<u32>),
    }
    let n = db.len();
    let mut slots: Vec<Slot> = db
        .item_support_counts()
        .into_iter()
        .map(|c| {
            if c < ctx.threshold {
                Slot::Skip
            } else if c as f64 / n as f64 >= ctx.config.sparse_cutoff {
                Slot::Dense(Bitset::zeros(n))
            } else {
                Slot::Sparse(Vec::with_capacity(c as usize))
            }
        })
        .collect();
    for (p, &row) in ctx.masks.rows().iter().enumerate() {
        for &item in db.transaction(row as usize) {
            match &mut slots[item as usize] {
                Slot::Skip => {}
                Slot::Dense(bs) => bs.set(p),
                Slot::Sparse(list) => list.push(p as u32),
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(item, slot)| {
            let tids = match slot {
                Slot::Skip => return None,
                Slot::Dense(bs) => TidSet::Dense(bs),
                Slot::Sparse(list) => TidSet::Sparse(list),
            };
            let mut counts = pool.take_counts();
            counts.resize(ctx.masks.n_classes(), 0);
            let support = match &tids {
                TidSet::Dense(bs) => {
                    stats.words_anded += bs.n_words() as u64;
                    ctx.masks.count_dense(bs, &mut counts)
                }
                TidSet::Sparse(list) => {
                    ctx.masks.count_sparse(list, &mut counts);
                    list.len() as u64
                }
                TidSet::Diff(_) => unreachable!("roots are never diffsets"),
            };
            Some(Node {
                item: item as ItemId,
                support,
                counts,
                tids,
            })
        })
        .collect()
}

/// Depth-first recursion over the subtree rooted at `siblings[pos]`.
pub(crate) fn extend<P: Payload, S: ItemsetSink<P>>(
    ctx: &Ctx<'_>,
    siblings: &[Node],
    pos: usize,
    prefix: &mut Vec<ItemId>,
    pool: &mut Pool,
    stats: &mut EngineStats,
    sink: &mut S,
) {
    let node = &siblings[pos];
    prefix.push(node.item);
    let payload: P = ctx.masks.decode(&node.counts);
    sink.emit(prefix, node.support, &payload);
    if prefix.len() < ctx.max_len && sink.wants_extensions(prefix, node.support) {
        // The sibling intersections below run before any child emission;
        // checkpoint so an exhausted budget skips them.
        if sink.should_stop() {
            prefix.pop();
            return;
        }
        let right = &siblings[pos + 1..];
        if !right.is_empty() {
            let mut children = pool.take_nodes();
            match &node.tids {
                TidSet::Diff(_) => diff_children(ctx, node, right, &mut children, pool, stats),
                _ => tids_children(ctx, node, right, &mut children, pool, stats),
            }
            for child_pos in 0..children.len() {
                extend(ctx, &children, child_pos, prefix, pool, stats, sink);
            }
            for child in children.drain(..) {
                child.recycle(pool);
            }
            pool.put_nodes(children);
        }
    }
    prefix.pop();
}

/// Children of a tids-mode node (`Dense` or `Sparse` parent/siblings).
///
/// Two phases: first the support of every candidate (materializing only
/// where counting *is* materializing — sparse merges), then — knowing all
/// frequent children — the family-level diffset decision and the final
/// representation of each survivor.
fn tids_children(
    ctx: &Ctx<'_>,
    parent: &Node,
    right: &[Node],
    out: &mut Vec<Node>,
    pool: &mut Pool,
    stats: &mut EngineStats,
) {
    struct Cand {
        sib: usize,
        support: u64,
        mat: Option<Vec<u32>>,
    }
    stats.intersections += right.len() as u64;
    let mut cands: Vec<Cand> = Vec::with_capacity(right.len());
    for (i, sib) in right.iter().enumerate() {
        let (support, mat) = match (&parent.tids, &sib.tids) {
            (TidSet::Dense(a), TidSet::Dense(b)) => {
                stats.words_anded += a.n_words() as u64;
                (a.and_count(b), None)
            }
            (TidSet::Dense(a), TidSet::Sparse(b)) => {
                let mut list = pool.take_tids();
                list.extend(b.iter().copied().filter(|&t| a.get(t as usize)));
                (list.len() as u64, Some(list))
            }
            (TidSet::Sparse(a), TidSet::Dense(b)) => {
                let mut list = pool.take_tids();
                list.extend(a.iter().copied().filter(|&t| b.get(t as usize)));
                (list.len() as u64, Some(list))
            }
            (TidSet::Sparse(a), TidSet::Sparse(b)) => {
                let mut list = pool.take_tids();
                intersect_into(a, b, &mut list);
                (list.len() as u64, Some(list))
            }
            _ => unreachable!("diffset nodes never share a family with tids nodes"),
        };
        if support >= ctx.threshold {
            cands.push(Cand {
                sib: i,
                support,
                mat,
            });
        } else if let Some(list) = mat {
            pool.put_tids(list);
        }
    }
    stats.pruned += right.len() as u64 - cands.len() as u64;
    if cands.is_empty() {
        return;
    }

    // Family decision: diffsets when every frequent child retains most of
    // the parent — each diffset is then small, and so is every descendant
    // diffset (they only shrink under sorted difference).
    let diff_mode = ctx.config.diffset_ratio < 1.0
        && cands
            .iter()
            .all(|c| c.support as f64 > ctx.config.diffset_ratio * parent.support as f64);
    if diff_mode {
        stats.diffset_families += 1;
        stats.repr_switches += 1;
        for c in cands {
            let sib = &right[c.sib];
            let mut diff = pool.take_tids();
            // d(child) = t(parent) \ t(sibling); with the intersection
            // already materialized, t(parent) \ inter is the same set and
            // cheaper (inter ⊆ parent).
            match (&parent.tids, &c.mat) {
                (TidSet::Dense(a), None) => {
                    let TidSet::Dense(b) = &sib.tids else {
                        unreachable!("phase 1 materializes every mixed/sparse pair")
                    };
                    stats.words_anded += a.n_words() as u64;
                    a.and_not_collect(b, &mut diff);
                }
                (TidSet::Dense(a), Some(inter)) => difference_ones_into(a, inter, &mut diff),
                (TidSet::Sparse(a), Some(inter)) => difference_into(a, inter, &mut diff),
                (TidSet::Sparse(a), None) => {
                    let TidSet::Dense(b) = &sib.tids else {
                        unreachable!("phase 1 materializes every sparse/sparse pair")
                    };
                    diff.extend(a.iter().copied().filter(|&t| !b.get(t as usize)));
                }
                _ => unreachable!("diffset nodes never share a family with tids nodes"),
            }
            if let Some(list) = c.mat {
                pool.put_tids(list);
            }
            debug_assert_eq!(diff.len() as u64, parent.support - c.support);
            let mut counts = pool.take_counts();
            counts.extend_from_slice(&parent.counts);
            ctx.masks.subtract_sparse(&diff, &mut counts);
            out.push(Node {
                item: sib.item,
                support: c.support,
                counts,
                tids: TidSet::Diff(diff),
            });
        }
        return;
    }

    for c in cands {
        let sib = &right[c.sib];
        let mut counts = pool.take_counts();
        counts.resize(ctx.masks.n_classes(), 0);
        let tids = match c.mat {
            // Already a sorted list; intersections only shrink, so a
            // sparse node is never promoted back to a bitset.
            Some(list) => {
                ctx.masks.count_sparse(&list, &mut counts);
                TidSet::Sparse(list)
            }
            None => {
                let (TidSet::Dense(a), TidSet::Dense(b)) = (&parent.tids, &sib.tids) else {
                    unreachable!("phase 1 only skips materialization for dense pairs")
                };
                stats.words_anded += a.n_words() as u64;
                if c.support as f64 / ctx.n_rows as f64 >= ctx.config.sparse_cutoff {
                    // One fused pass: the child's words, support and
                    // class counts.
                    let mut words = pool.take_words();
                    let support = ctx.masks.and_count_into(a, b, &mut words, &mut counts);
                    debug_assert_eq!(support, c.support);
                    TidSet::Dense(Bitset::from_words(words))
                } else {
                    // Crossed the density cutoff: fall to a tid-list.
                    stats.repr_switches += 1;
                    let mut list = pool.take_tids();
                    a.and_collect(b, &mut list);
                    ctx.masks.count_sparse(&list, &mut counts);
                    TidSet::Sparse(list)
                }
            }
        };
        out.push(Node {
            item: sib.item,
            support: c.support,
            counts,
            tids,
        });
    }
}

/// Children of a diff-mode node: every sibling is a diffset relative to
/// the same grandparent, so `d(PXY) = d(PY) \ d(PX)` is one sorted
/// difference, and support/counts follow by subtraction from the parent.
fn diff_children(
    ctx: &Ctx<'_>,
    parent: &Node,
    right: &[Node],
    out: &mut Vec<Node>,
    pool: &mut Pool,
    stats: &mut EngineStats,
) {
    let TidSet::Diff(d_parent) = &parent.tids else {
        unreachable!("diff_children only runs for diffset parents")
    };
    stats.intersections += right.len() as u64;
    let mut kept = 0u64;
    for sib in right {
        let TidSet::Diff(d_sib) = &sib.tids else {
            unreachable!("diffset families are uniform")
        };
        let mut diff = pool.take_tids();
        difference_into(d_sib, d_parent, &mut diff);
        let support = parent.support - diff.len() as u64;
        if support >= ctx.threshold {
            let mut counts = pool.take_counts();
            counts.extend_from_slice(&parent.counts);
            ctx.masks.subtract_sparse(&diff, &mut counts);
            out.push(Node {
                item: sib.item,
                support,
                counts,
                tids: TidSet::Diff(diff),
            });
            kept += 1;
        } else {
            pool.put_tids(diff);
        }
    }
    stats.pruned += right.len() as u64 - kept;
}

/// Appends the intersection of two sorted lists to `out`.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Appends the sorted difference `a \ b` to `out`.
fn difference_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
}

/// Appends `ones(a) \ b` to `out`, for a sorted list `b ⊆ ones(a)`-ish.
fn difference_ones_into(a: &Bitset, b: &[u32], out: &mut Vec<u32>) {
    let mut j = 0;
    for t in a.iter_ones() {
        let t = t as u32;
        while j < b.len() && b[j] < t {
            j += 1;
        }
        if j >= b.len() || b[j] != t {
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::sort_canonical;
    use crate::naive;
    use crate::payload::tests::Classes;

    fn db() -> TransactionDb {
        TransactionDb::from_rows(
            6,
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 3],
                vec![1, 2, 4],
                vec![0, 1, 2, 5],
                vec![2, 3],
                vec![0, 2],
            ],
        )
    }

    fn mine_with<P: Payload>(
        config: Config,
        db: &TransactionDb,
        payloads: &[P],
        params: &MiningParams,
    ) -> Vec<FrequentItemset<P>> {
        let mut arena = ItemsetArena::new();
        mine_into_with(config, db, payloads, params, &mut arena);
        arena.into_itemsets()
    }

    /// Every representation mix must agree with the naive oracle,
    /// payloads included.
    #[test]
    fn agrees_with_naive_across_all_configs() {
        let db = db();
        let payloads: Vec<Classes> = (0..db.len()).map(Classes::of_row).collect();
        let configs = [
            Config::default(),
            // All-dense, no diffsets.
            Config {
                sparse_cutoff: 0.0,
                diffset_ratio: 1.0,
            },
            // All-sparse, no diffsets.
            Config {
                sparse_cutoff: 2.0,
                diffset_ratio: 1.0,
            },
            // Diffsets at the first opportunity, both base reprs.
            Config {
                sparse_cutoff: 0.0,
                diffset_ratio: 0.0,
            },
            Config {
                sparse_cutoff: 2.0,
                diffset_ratio: 0.0,
            },
            // Cutoff in the middle of this db's support range.
            Config {
                sparse_cutoff: 0.5,
                diffset_ratio: 0.6,
            },
        ];
        for config in configs {
            for min_support in 1..=3 {
                for max_len in [None, Some(2)] {
                    let mut params = MiningParams::with_min_support_count(min_support);
                    params.max_len = max_len;
                    let mut expected = naive::mine(&db, &payloads, &params);
                    let mut got = mine_with(config, &db, &payloads, &params);
                    sort_canonical(&mut expected);
                    sort_canonical(&mut got);
                    assert_eq!(
                        got, expected,
                        "config={config:?} s={min_support} max_len={max_len:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unmaskable_payload_falls_back_to_eclat() {
        #[derive(Debug, Clone, PartialEq)]
        struct Opaque(u64);
        impl Payload for Opaque {
            fn zero() -> Self {
                Opaque(0)
            }
            fn merge(&mut self, other: &Self) {
                self.0 += other.0;
            }
        }
        let db = db();
        let payloads: Vec<Opaque> = (0..db.len()).map(|t| Opaque(t as u64)).collect();
        let params = MiningParams::with_min_support_count(2);
        let mut expected = eclat::mine(&db, &payloads, &params);
        let mut got = mine(&db, &payloads, &params);
        sort_canonical(&mut expected);
        sort_canonical(&mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn unit_payload_mines_supports_only() {
        let db = db();
        let params = MiningParams::with_min_support_count(2);
        let mut expected = naive::mine(&db, &vec![(); db.len()], &params);
        let mut got = mine(&db, &vec![(); db.len()], &params);
        sort_canonical(&mut expected);
        sort_canonical(&mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn handles_a_db_spanning_multiple_words() {
        // 150 transactions: {0} in all, {1} in even ones — forces
        // multi-word bitsets and a dense/diff recursion.
        let rows: Vec<Vec<u32>> = (0..150)
            .map(|t| if t % 2 == 0 { vec![0, 1] } else { vec![0] })
            .collect();
        let db = TransactionDb::from_rows(2, &rows);
        let payloads: Vec<Classes> = (0..150).map(Classes::of_row).collect();
        let mut expected = naive::mine(&db, &payloads, &MiningParams::with_min_support_count(70));
        let mut got = mine(&db, &payloads, &MiningParams::with_min_support_count(70));
        sort_canonical(&mut expected);
        sort_canonical(&mut got);
        assert_eq!(got, expected);
    }
}
