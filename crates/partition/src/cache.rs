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

use crate::attrset::{AttrSet, AttrSetMap};
use crate::stripped::{Partition, RefineScratch};
use aod_table::RankedTable;
use std::sync::Arc;

/// Cache of `AttrSet → Partition` with level-based eviction.
#[derive(Debug, Default)]
pub struct PartitionCache {
    map: AttrSetMap<Arc<Partition>>,
    scratch: RefineScratch,
}

impl PartitionCache {
    /// An empty cache.
    pub fn new() -> PartitionCache {
        PartitionCache::default()
    }

    /// Looks up a cached partition.
    pub fn get(&self, set: AttrSet) -> Option<&Partition> {
        self.map.get(&set).map(|p| &**p)
    }

    /// Inserts a partition computed elsewhere. A set already cached is left
    /// untouched — a partition's classes are canonical per attribute set
    /// (only their order depends on how it was built).
    pub fn insert(&mut self, set: AttrSet, partition: Partition) {
        self.map.entry(set).or_insert_with(|| Arc::new(partition));
    }

    /// Caches `set` under the partition of `from`, which must be cached,
    /// without copying it: the caller knows `Π_set = Π_from`. The shared
    /// partition keeps the class order it was built with. A set already
    /// cached is left untouched, as with [`insert`](Self::insert).
    pub fn share(&mut self, set: AttrSet, from: AttrSet) {
        let partition = Arc::clone(&self.map[&from]);
        self.map.entry(set).or_insert(partition);
    }

    /// Ensures `Π_X` is cached, refining `Π_{X∖{a}}` (ensured first, down
    /// to the unit partition of `∅`) on `a`, the lowest column of `X`.
    /// Seeds discovery's levels 0 and 1 and serves one-off validation; the
    /// discovery driver builds the later levels itself.
    pub fn ensure(&mut self, table: &RankedTable, set: AttrSet) -> &Partition {
        if !self.map.contains_key(&set) {
            let partition = match set.first() {
                None => Partition::unit(table.n_rows()),
                Some(a) => {
                    let rest = set.without(a);
                    self.ensure(table, rest);
                    let col = table.column(a);
                    self.map[&rest].refine(col.ranks(), col.n_distinct(), &mut self.scratch)
                }
            };
            self.map.insert(set, Arc::new(partition));
        }
        &self.map[&set]
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

    #[test]
    fn ensure_builds_recursively() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let set = AttrSet::from_attrs([0, 1, 3]);
        let p = cache.ensure(&r, set).clone();
        let direct = Partition::for_attrs(&r, [0, 1, 3]);
        assert_eq!(p.n_classes(), direct.n_classes());
        assert_eq!(p.n_grouped_rows(), direct.n_grouped_rows());
        // The subsets it was refined from are cached too.
        assert!(cache.get(AttrSet::from_attrs([1, 3])).is_some());
        assert!(cache.get(AttrSet::singleton(3)).is_some());
        assert!(cache.get(AttrSet::EMPTY).is_some());
    }

    #[test]
    fn eviction_by_level() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::EMPTY);
        cache.ensure(&r, AttrSet::singleton(0));
        cache.ensure(&r, AttrSet::from_attrs([0, 1]));
        cache.ensure(&r, AttrSet::from_attrs([0, 1, 3]));
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
        let sets: Vec<AttrSet> = vec![
            AttrSet::from_attrs([0usize, 1]),       // level 2: context at ℓ = 4
            AttrSet::from_attrs([0usize, 1, 3]),    // level 3: parent at ℓ = 4
            AttrSet::from_attrs([0usize, 1, 3, 4]), // level 4: frontier node
            AttrSet::EMPTY,                         // level 0: must go
            AttrSet::singleton(0),                  // level 1: must go
        ];
        for &set in &sets {
            cache.ensure(&r, set);
        }
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
        cache.ensure(&r, from);
        cache.share(set, from);
        assert!(std::ptr::eq(
            cache.get(set).unwrap(),
            cache.get(from).unwrap()
        ));
        cache.retain_min_level(2);
        assert!(cache.get(from).is_none());
        assert_eq!(cache.get(set), Some(&Partition::for_attrs(&r, [0, 1])));
    }

    #[test]
    fn unit_partition_for_empty_set() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let p = cache.ensure(&r, AttrSet::EMPTY);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0).len(), 9);
    }
}
