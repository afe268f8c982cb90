//! A level-aware cache of computed partitions.
//!
//! The level-wise discovery driver needs, while processing lattice level `ℓ`:
//!
//! * `Π_X` for each level-`ℓ` node `X` (built as the product of two cached
//!   level-`ℓ−1` parents),
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
//! — and the driver inserts the next level's products once the map has
//! returned.

use crate::attrset::{AttrSet, AttrSetMap};
use crate::stripped::{Partition, ProductScratch};
use aod_table::RankedTable;

/// Cache of `AttrSet → Partition` with level-based eviction.
#[derive(Debug, Default)]
pub struct PartitionCache {
    map: AttrSetMap<Partition>,
    scratch: ProductScratch,
}

impl PartitionCache {
    /// An empty cache.
    pub fn new() -> PartitionCache {
        PartitionCache::default()
    }

    /// Looks up a cached partition.
    pub fn get(&self, set: AttrSet) -> Option<&Partition> {
        self.map.get(&set)
    }

    /// Inserts a partition computed elsewhere. A set already cached is left
    /// untouched — partitions are canonical per attribute set, so the
    /// existing value is identical.
    pub fn insert(&mut self, set: AttrSet, partition: Partition) {
        self.map.entry(set).or_insert(partition);
    }

    /// Ensures `Π_X` is cached, computing it bottom-up from singleton
    /// columns if needed. Used by one-off validation entry points; the
    /// discovery driver populates the cache level-wise instead.
    pub fn ensure(&mut self, table: &RankedTable, set: AttrSet) -> &Partition {
        if !self.map.contains_key(&set) {
            let partition = self.build(table, set);
            self.map.insert(set, partition);
        }
        &self.map[&set]
    }

    fn build(&mut self, table: &RankedTable, set: AttrSet) -> Partition {
        match set.len() {
            0 => Partition::unit(table.n_rows()),
            1 => Partition::from_ranked_column(table.column(set.first().expect("non-empty"))),
            _ => {
                let a = set.first().expect("non-empty");
                let (rest, single) = (set.without(a), AttrSet::singleton(a));
                // Recurse on the smaller pieces first (each is cached).
                self.ensure(table, rest);
                self.ensure(table, single);
                self.map[&rest].product_with_scratch(&self.map[&single], &mut self.scratch)
            }
        }
    }

    /// Drops all cached partitions of level `< min_level`.
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
        // Intermediate results are cached too.
        assert!(cache.get(AttrSet::from_attrs([1, 3])).is_some());
        assert!(cache.get(AttrSet::singleton(0)).is_some());
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
    fn unit_partition_for_empty_set() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let p = cache.ensure(&r, AttrSet::EMPTY);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0).len(), 9);
    }
}
