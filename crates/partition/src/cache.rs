//! A level-aware cache of computed partitions.
//!
//! The level-wise discovery driver needs, while processing lattice level `ℓ`:
//!
//! * `Π_X` for each level-`ℓ` node `X` (a cached level-`ℓ−1` subset
//!   refined on the one column it lacks, or the partition of a subset it
//!   equals, shared),
//! * `Π_{X\{A,B}}` (level `ℓ−2`) as the *context* partition for OC
//!   candidates at node `X`.
//!
//! Anything below level `ℓ−2` can be dropped — [`PartitionCache::retain_min_level`]
//! implements that eviction so peak memory stays at two lattice levels
//! rather than the whole lattice.
//!
//! The cache is one map. The discovery engine's per-level workers read it
//! through a shared borrow — each level's executor map runs inside
//! [`std::thread::scope`], so workers can borrow the map the driver owns
//! — and the driver inserts the next level's partitions once the map has
//! returned.
//!
//! Entries can be shared: [`PartitionCache::share`] caches a set under the
//! same allocation as a set already cached, for a set whose partition is
//! known to equal that one's. Eviction then drops one reference, and the
//! partition lives while any set still names it. Readers only ever see
//! `&Partition`.
//!
//! ## Free sets
//!
//! Each entry also records whether its set is *free*: every one-smaller
//! subset has fewer classes, `|Π_{S∖c}| < |Π_S|` for every `c ∈ S`
//! (unstripped counts; `∅` is free). Otherwise `S∖C → C` holds exactly
//! for some `C ∈ S`, and since `Π_S` refines `Π_{S∖C}`, the two
//! partitions are equal. Every superset of a set that is not free is not
//! free either. [`PartitionCache::insert`] decides freeness from the
//! cached one-smaller subsets, [`PartitionCache::share`] records a set
//! that shares a subset's partition as not free, and
//! [`PartitionCache::is_free`] reads the flag, which is evicted with its
//! partition. The discovery engine answers an OC candidate whose context
//! is not free without validating it, and shares a parent's partition
//! with each child of a set that is not free instead of refining it.

use crate::attrset::{AttrSet, AttrSetMap};
use crate::stripped::Partition;
use std::sync::Arc;

/// One cached set: its partition, maybe shared with other sets, and
/// whether the set is free (see the module docs).
#[derive(Debug)]
struct Entry {
    partition: Arc<Partition>,
    free: bool,
}

/// Cache of `AttrSet → Partition` with level-based eviction.
#[derive(Debug, Default)]
pub struct PartitionCache {
    map: AttrSetMap<Entry>,
}

impl PartitionCache {
    /// An empty cache.
    pub fn new() -> PartitionCache {
        PartitionCache::default()
    }

    /// Looks up a cached partition.
    pub fn get(&self, set: AttrSet) -> Option<&Partition> {
        self.map.get(&set).map(|e| &*e.partition)
    }

    /// Inserts a partition computed elsewhere, and decides whether `set`
    /// is free by comparing its unstripped class count with those of the
    /// set's one-smaller subsets. A set already cached is left untouched
    /// — a partition's classes are canonical per attribute set (only
    /// their order depends on how it was built).
    ///
    /// # Panics
    /// If a one-smaller subset of `set` is not cached.
    pub fn insert(&mut self, set: AttrSet, partition: Partition) {
        let n_classes = partition.n_classes_unstripped();
        let free = set.iter().all(|c| {
            let subset = self
                .get(set.without(c))
                .expect("one-smaller subset is cached");
            subset.n_classes_unstripped() < n_classes
        });
        self.map.entry(set).or_insert(Entry {
            partition: Arc::new(partition),
            free,
        });
    }

    /// Caches `set` under the partition of `from`, a cached proper subset
    /// of `set`, without copying it: the caller knows `Π_set = Π_from`,
    /// so `set` is not free. The shared partition keeps the class order
    /// it was built with. A set already cached is left untouched, as with
    /// [`insert`](Self::insert).
    pub fn share(&mut self, set: AttrSet, from: AttrSet) {
        let partition = Arc::clone(&self.map[&from].partition);
        self.map.entry(set).or_insert(Entry {
            partition,
            free: false,
        });
    }

    /// Is `set` free (see the module docs)?
    ///
    /// # Panics
    /// If `set` is not cached.
    pub fn is_free(&self, set: AttrSet) -> bool {
        self.map[&set].free
    }

    /// Drops all cached partitions of level `< min_level`. A partition
    /// shared with a set that stays is kept for that set.
    pub fn retain_min_level(&mut self, min_level: usize) {
        // aod-lint: allow(D1) -- retain by per-key predicate, order-insensitive
        self.map.retain(|set, _| set.len() >= min_level);
    }

    /// The attribute sets currently cached, in no particular order. Used
    /// by the eviction-invariant tests to assert peak residency stays at
    /// two lattice levels.
    pub fn cached_sets(&self) -> Vec<AttrSet> {
        // aod-lint: allow(D1) -- documented unordered; the eviction tests sort before comparing
        self.map.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn ranked() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// Caches every subset of `set`, smallest first, each built by
    /// `Partition::for_attrs`.
    fn insert_lattice(cache: &mut PartitionCache, table: &RankedTable, set: AttrSet) {
        let mut subsets: Vec<AttrSet> = (0u64..1 << set.len())
            .map(|mask| {
                let attrs = set.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
                AttrSet::from_attrs(attrs.map(|(_, a)| a))
            })
            .collect();
        subsets.sort_by_key(|s| s.len());
        for s in subsets {
            cache.insert(s, Partition::for_attrs(table, s.iter()));
        }
    }

    #[test]
    fn eviction_by_level() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        insert_lattice(&mut cache, &r, AttrSet::from_attrs([0, 1, 3]));
        cache.retain_min_level(2);
        assert!(cache.get(AttrSet::EMPTY).is_none());
        assert!(cache.get(AttrSet::singleton(0)).is_none());
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        assert!(cache.get(AttrSet::from_attrs([0, 1, 3])).is_some());
    }

    #[test]
    fn eviction_keeps_context_level_two_below_frontier() {
        // While the driver processes level ℓ it needs level ℓ−2 context
        // partitions; `retain_min_level(ℓ−2)` (issued as `advance` moves
        // ℓ−1 → ℓ) must preserve them and the ℓ−1 parents, i.e. peak
        // residency is two completed lattice levels plus the frontier.
        let r = ranked();
        let mut cache = PartitionCache::new();
        // Levels 0 and 1 must go; {0,1} is a level-2 context at ℓ = 4,
        // {0,1,3} a level-3 parent and {0,1,3,4} the frontier node.
        insert_lattice(&mut cache, &r, AttrSet::from_attrs([0, 1, 3, 4]));
        cache.retain_min_level(2);
        let surviving: Vec<usize> = cache.cached_sets().iter().map(|s| s.len()).collect();
        assert!(
            surviving.iter().all(|&l| (2..=4).contains(&l)),
            "{surviving:?}"
        );
        // The ℓ−2 context partition specifically survives.
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        // And levels below the window are really gone (peak = 2 levels + frontier).
        assert!(cache.get(AttrSet::EMPTY).is_none());
        assert!(cache.get(AttrSet::singleton(0)).is_none());
    }

    #[test]
    fn shared_entries_outlive_the_set_they_came_from() {
        // Column 1 is a function of column 0, so Π_{0,1} = Π_0.
        let r = RankedTable::from_u32_columns(vec![vec![0, 0, 1, 1, 2], vec![5, 5, 6, 6, 7]]);
        let mut cache = PartitionCache::new();
        let (from, set) = (AttrSet::singleton(0), AttrSet::from_attrs([0, 1]));
        insert_lattice(&mut cache, &r, from);
        cache.share(set, from);
        assert!(std::ptr::eq(
            cache.get(set).unwrap(),
            cache.get(from).unwrap()
        ));
        cache.retain_min_level(2);
        assert!(cache.get(from).is_none());
        assert_eq!(cache.get(set), Some(&Partition::for_attrs(&r, [0, 1])));
    }

    /// `insert` decides freeness from the cached one-smaller subsets: a
    /// constant column has as many classes as `Π_∅`, so it is not free,
    /// and neither is a set that shares a subset's partition.
    #[test]
    fn constant_columns_and_shared_sets_are_not_free() {
        // Column 0 is constant; columns 1 and 2 split each other's classes.
        let r = RankedTable::from_u32_columns(vec![
            vec![0, 0, 0, 0],
            vec![0, 0, 1, 1],
            vec![0, 1, 0, 1],
        ]);
        let mut cache = PartitionCache::new();
        cache.insert(AttrSet::EMPTY, Partition::unit(r.n_rows()));
        for c in 0..3 {
            cache.insert(
                AttrSet::singleton(c),
                Partition::from_ranked_column(r.column(c)),
            );
        }
        assert!(cache.is_free(AttrSet::EMPTY));
        assert!(!cache.is_free(AttrSet::singleton(0)), "constant column");
        assert!(cache.is_free(AttrSet::singleton(1)));
        for (set, free) in [([1, 2], true), ([0, 1], false)] {
            let set = AttrSet::from_attrs(set);
            cache.insert(set, Partition::for_attrs(&r, set.iter()));
            assert_eq!(cache.is_free(set), free, "{set}");
        }
        let shared = AttrSet::from_attrs([0, 2]);
        cache.share(shared, AttrSet::singleton(2));
        assert!(!cache.is_free(shared), "shared");
    }

    #[test]
    fn unit_partition_for_empty_set() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.insert(AttrSet::EMPTY, Partition::unit(r.n_rows()));
        let p = cache.get(AttrSet::EMPTY).unwrap();
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0).len(), 9);
    }
}
