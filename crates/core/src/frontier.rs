//! The lattice frontier: the set of live nodes at the current level and
//! the prefix-join generation of the next level.
//!
//! A frontier at level `ℓ` holds every surviving size-`ℓ` attribute set
//! with its TANE RHS-candidate set `Cc⁺(X)`. Advancing it (a) drops *dead*
//! nodes (see [`node_is_dead`]), (b) prefix-joins the
//! survivors into level `ℓ+1`, (c) intersects the parents' `Cc⁺` sets, and
//! (d) computes each child's partition by refining a cached parent on the
//! one column it lacks — exactly the retention/generation tail of the
//! paper's Figure 1 driver, factored out of the per-level candidate
//! validation. Seeding and advancing also record every set whose partition
//! equals a one-smaller subset's (see the `prune_state.rs` module docs).

use crate::candidates::oc_candidates;
use crate::config::PruneConfig;
use crate::prune_state::PruneState;
use crate::stats::DiscoveryStats;
use aod_exec::Executor;
use aod_partition::{prefix_join, AttrSet, AttrSetMap, PartitionCache, RefineScratch};
use aod_table::RankedTable;

/// A lattice node: the attribute set plus its TANE RHS-candidate set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// The attribute set `X`.
    pub set: AttrSet,
    /// `Cc⁺(X)` — RHS candidates still admissible for OFDs under `X`.
    pub rhs: AttrSet,
}

/// The live nodes of one lattice level.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Nodes of the current level, in deterministic generation order.
    pub nodes: Vec<Node>,
    /// The current lattice level (`|X|` of every node).
    pub level: usize,
    /// The columns discovery runs over: every child's initial `Cc⁺`.
    scope: AttrSet,
}

impl Frontier {
    /// Seeds level 1 with the singleton sets of `scope`, caching the empty
    /// and singleton partitions the driver relies on. A singleton whose
    /// partition equals `Π_∅` (a constant column) is recorded as not free.
    pub fn seed(
        table: &RankedTable,
        scope: AttrSet,
        cache: &mut PartitionCache,
        prune: &mut PruneState,
    ) -> Frontier {
        let n_empty = cache.ensure(table, AttrSet::EMPTY).n_classes_unstripped();
        let nodes = scope
            .iter()
            .map(|a| {
                let set = AttrSet::singleton(a);
                if cache.ensure(table, set).n_classes_unstripped() == n_empty {
                    prune.record_non_free(set);
                }
                Node { set, rhs: scope }
            })
            .collect();
        Frontier {
            nodes,
            level: 1,
            scope,
        }
    }

    /// `true` when no nodes remain — the lattice is exhausted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Replaces the frontier with the next lattice level: retention (node
    /// deletion), prefix join, `Cc⁺` intersection and partition
    /// refinement. Evicts cached partitions below level `ℓ−1` afterwards
    /// so peak memory stays at two lattice levels.
    ///
    /// Each child `X` refines its cached `ℓ`-subset `X∖{c}` with the
    /// fewest grouped rows (ties go to the lowest `c`) on column `c`, and
    /// is recorded as not free when some subset `X∖{c}` has as many
    /// classes as `X`. The refinements run on the executor, whose workers
    /// borrow the cache read-only and own one [`RefineScratch`] each; the
    /// partitions are inserted in child order once the map returns, so the
    /// cache contents and counts do not depend on the worker count. The
    /// caller times the call (the `partitioning` phase).
    pub fn advance(
        &mut self,
        table: &RankedTable,
        prune_cfg: &PruneConfig,
        prune: &mut PruneState,
        cache: &mut PartitionCache,
        stats: &mut DiscoveryStats,
        exec: &Executor,
    ) {
        let retained: Vec<AttrSet> = self
            .nodes
            .iter()
            .filter(|n| !prune_cfg.node_deletion || !node_is_dead(n, cache))
            .map(|n| n.set)
            .collect();
        let rhs_map: AttrSetMap<AttrSet> = self.nodes.iter().map(|n| (n.set, n.rhs)).collect();

        // Every level-ℓ subset of a child is retained, so it has a Cc⁺ set
        // and a cached partition. Cc⁺(child) = ∩ over those subsets.
        let next: Vec<Node> = prefix_join(&retained)
            .into_iter()
            .map(|set| Node {
                set,
                rhs: set
                    .iter()
                    .fold(self.scope, |rhs, c| rhs.intersect(rhs_map[&set.without(c)])),
            })
            .collect();

        // Partitions built here materialize level ℓ+1, so they are
        // charged to that level's counters (level 1 is seeded, count 0).
        if !next.is_empty() {
            stats.level_mut(self.level + 1).n_products += next.len();
        }

        let parents: &PartitionCache = cache;
        let partitions =
            exec.par_map_with_state(RefineScratch::default, &next, |scratch, _, node| {
                let parent = |c| parents.get(node.set.without(c)).expect("subset is cached");
                let c = node
                    .set
                    .iter()
                    .min_by_key(|&c| parent(c).n_grouped_rows())
                    .expect("a child has two or more columns");
                let col = table.column(c);
                let partition = parent(c).refine(col.ranks(), col.n_distinct(), scratch);
                let n_classes = partition.n_classes_unstripped();
                let free = node
                    .set
                    .iter()
                    .all(|d| parent(d).n_classes_unstripped() < n_classes);
                (partition, free)
            });
        for (node, (partition, free)) in next.iter().zip(partitions) {
            if !free {
                prune.record_non_free(node.set);
            }
            cache.insert(node.set, partition);
        }

        // Keep levels ℓ-1 (contexts at level ℓ+1), ℓ (parents) and ℓ+1.
        cache.retain_min_level(self.level.saturating_sub(1));
        self.nodes = next;
        self.level += 1;
    }
}

/// A node is dead when it can produce no further OFD candidates (empty
/// `Cc⁺`) and no OC candidate of any descendant can survive R4: every pair
/// context `X∖{A,B}` under it has a keyed partition. Those contexts are
/// lattice sets two levels below the node, which the cache still holds
/// when the frontier advances; below two rows even `Π_∅` is a key.
///
/// Deadness is hereditary: `Cc⁺` only shrinks going up, and for any
/// descendant `Z ⊇ X` and pair `{A,B} ⊆ Z` the context `Z∖{A,B}`
/// contains some `X∖{A',B'}` (take `A' = A` if `A ∈ X` else any;
/// likewise `B'`), and supersets of keys are keys. Dead nodes are
/// therefore dropped before candidate generation without losing
/// completeness — this is what keeps the wide-schema experiments
/// (Figure 3) tractable, and why approximate discovery (whose
/// OFDs/OCs appear at *lower* levels, pruning earlier) can outrun
/// exact discovery (Exp-5).
fn node_is_dead(node: &Node, cache: &PartitionCache) -> bool {
    node.rhs.is_empty()
        && node.set.len() >= 2
        && oc_candidates(node.set).iter().all(|cand| {
            cache
                .get(cand.context)
                .expect("pair context is cached")
                .is_key()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_partition::Partition;
    use aod_table::{employee_table, RankedTable};

    #[test]
    fn seed_covers_scope_only() {
        let t = RankedTable::from_table(&employee_table());
        let mut cache = PartitionCache::new();
        let mut prune = PruneState::new(t.n_cols());
        let scope = AttrSet::from_attrs([0, 2, 5]);
        let f = Frontier::seed(&t, scope, &mut cache, &mut prune);
        assert_eq!(f.level, 1);
        assert_eq!(f.nodes.len(), 3);
        assert!(f.nodes.iter().all(|n| n.rhs == scope));
        assert!(cache.get(AttrSet::EMPTY).is_some());
        assert!(cache.get(AttrSet::singleton(2)).is_some());
        assert!(cache.get(AttrSet::singleton(1)).is_none());
    }

    #[test]
    fn advance_builds_pairs_and_caches_products() {
        let t = RankedTable::from_table(&employee_table());
        let mut cache = PartitionCache::new();
        let scope = AttrSet::from_attrs([0, 1, 2]);
        let mut prune = PruneState::new(t.n_cols());
        let mut f = Frontier::seed(&t, scope, &mut cache, &mut prune);
        let mut stats = DiscoveryStats::default();
        f.advance(
            &t,
            &PruneConfig::default(),
            &mut prune,
            &mut cache,
            &mut stats,
            &Executor::new(1),
        );
        assert_eq!(f.level, 2);
        assert_eq!(f.nodes.len(), 3); // {0,1}, {0,2}, {1,2}
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        // Cc+ starts as the intersection of the singleton rhs sets.
        assert!(f.nodes.iter().all(|n| n.rhs == scope));
    }

    /// One and four workers build the same levels, and both record exactly
    /// the sets that are not free by the class counts of `for_attrs`.
    #[test]
    fn advance_matches_across_worker_counts() {
        let t = RankedTable::from_table(&employee_table());
        let scope = AttrSet::full(t.n_cols());
        let (one, four) = (Executor::new(1), Executor::new(4));

        let mut one_cache = PartitionCache::new();
        let mut one_prune = PruneState::new(t.n_cols());
        let mut one_f = Frontier::seed(&t, scope, &mut one_cache, &mut one_prune);
        let mut four_cache = PartitionCache::new();
        let mut four_prune = PruneState::new(t.n_cols());
        let mut four_f = Frontier::seed(&t, scope, &mut four_cache, &mut four_prune);
        let (mut one_stats, mut four_stats) =
            (DiscoveryStats::default(), DiscoveryStats::default());
        let mut n_non_free = 0;
        for _ in 0..3 {
            for (f, cache, prune, stats, exec) in [
                (
                    &mut one_f,
                    &mut one_cache,
                    &mut one_prune,
                    &mut one_stats,
                    &one,
                ),
                (
                    &mut four_f,
                    &mut four_cache,
                    &mut four_prune,
                    &mut four_stats,
                    &four,
                ),
            ] {
                f.advance(&t, &PruneConfig::default(), prune, cache, stats, exec);
            }
            assert_eq!(four_f.level, one_f.level);
            assert_eq!(four_f.nodes.len(), one_f.nodes.len());
            for (p, s) in four_f.nodes.iter().zip(&one_f.nodes) {
                assert_eq!(p.set, s.set);
                assert_eq!(p.rhs, s.rhs);
            }
            // Identical cache contents and partition counts.
            assert_eq!(four_stats.per_level, one_stats.per_level);
            let mut p_sets = four_cache.cached_sets();
            let mut s_sets = one_cache.cached_sets();
            p_sets.sort_unstable();
            s_sets.sort_unstable();
            assert_eq!(p_sets, s_sets);
            for &set in &s_sets {
                assert_eq!(four_cache.get(set), one_cache.get(set), "{set}");
                // Not free ⇔ some one-smaller subset has as many classes.
                let n = |s: AttrSet| Partition::for_attrs(&t, s.iter()).n_classes_unstripped();
                let non_free = set.iter().any(|c| n(set.without(c)) == n(set));
                assert_eq!(one_prune.is_non_free(set), non_free, "{set}");
                assert_eq!(four_prune.is_non_free(set), non_free, "{set}");
                n_non_free += usize::from(non_free);
            }
        }
        assert!(n_non_free > 0, "employee has sets that are not free");
    }

    /// Below two rows `Π_∅` is a key, so a pair node with an empty `Cc⁺`
    /// is dead; at nine rows it is not.
    #[test]
    fn tiny_tables_key_the_empty_context() {
        for (n_rows, dead) in [(0u32, true), (1, true), (9, false)] {
            let t = RankedTable::from_u32_columns(vec![(0..n_rows).collect(); 2]);
            let mut cache = PartitionCache::new();
            cache.ensure(&t, AttrSet::EMPTY);
            let node = Node {
                set: AttrSet::from_attrs([0, 1]),
                rhs: AttrSet::EMPTY,
            };
            // Both pair contexts of {0,1} are the empty set.
            assert_eq!(node_is_dead(&node, &cache), dead, "{n_rows} rows");
        }
    }

    /// A node with OFD candidates left stays alive even when every pair
    /// context is a key.
    #[test]
    fn live_rhs_keeps_nodes_alive() {
        for n_rows in [0u32, 1, 9] {
            // Three key columns: every singleton context is a key.
            let t = RankedTable::from_u32_columns(vec![(0..n_rows).collect(); 3]);
            let mut cache = PartitionCache::new();
            for c in 0..3 {
                cache.ensure(&t, AttrSet::singleton(c));
            }
            let set = AttrSet::from_attrs([0, 1, 2]);
            let dead_rhs = Node {
                set,
                rhs: AttrSet::EMPTY,
            };
            let live_rhs = Node {
                set,
                rhs: AttrSet::singleton(2),
            };
            assert!(node_is_dead(&dead_rhs, &cache), "{n_rows} rows");
            assert!(!node_is_dead(&live_rhs, &cache), "{n_rows} rows");
        }
    }
}
