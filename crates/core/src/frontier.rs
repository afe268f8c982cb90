//! The lattice frontier: the set of live nodes at the current level and
//! the prefix-join generation of the next level.
//!
//! A frontier at level `ℓ` holds every surviving size-`ℓ` attribute set
//! with its TANE RHS-candidate set `Cc⁺(X)`. Advancing it (a) drops *dead*
//! nodes (see [`PruneState::node_is_dead`]), (b) prefix-joins the
//! survivors into level `ℓ+1`, (c) intersects the parents' `Cc⁺` sets, and
//! (d) computes each child's partition as the product of two cached
//! parents — exactly the retention/generation tail of the paper's Figure 1
//! driver, factored out of the per-level candidate validation.

use crate::config::PruneConfig;
use crate::prune_state::PruneState;
use crate::stats::DiscoveryStats;
use aod_exec::Executor;
use aod_partition::{
    prefix_join, AttrSet, AttrSetMap, JoinedChild, Partition, PartitionCache, ProductScratch,
};
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
}

impl Frontier {
    /// Seeds level 1 with the singleton sets of `scope`, caching the empty
    /// and singleton partitions the driver relies on.
    pub fn seed(table: &RankedTable, scope: AttrSet, cache: &mut PartitionCache) -> Frontier {
        cache.insert(AttrSet::EMPTY, Partition::unit(table.n_rows()));
        let nodes = scope
            .iter()
            .map(|a| {
                cache.insert(
                    AttrSet::singleton(a),
                    Partition::from_ranked_column(table.column(a)),
                );
                Node {
                    set: AttrSet::singleton(a),
                    rhs: scope,
                }
            })
            .collect();
        Frontier { nodes, level: 1 }
    }

    /// `true` when no nodes remain — the lattice is exhausted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Replaces the frontier with the next lattice level: retention (node
    /// deletion), prefix join, `Cc⁺` intersection and partition products.
    /// Evicts cached partitions below level `ℓ−1` afterwards so peak
    /// memory stays at two lattice levels.
    ///
    /// The partition products run on the executor, whose workers borrow
    /// the cache read-only and own one [`ProductScratch`] each; the
    /// products are inserted in child order once the map returns, so the
    /// cache contents and product counts do not depend on the worker
    /// count. The caller times the call (the `partitioning` phase).
    pub fn advance(
        &mut self,
        prune_cfg: &PruneConfig,
        prune: &PruneState,
        scope: AttrSet,
        cache: &mut PartitionCache,
        stats: &mut DiscoveryStats,
        exec: &Executor,
    ) {
        let retained: Vec<AttrSet> = self
            .nodes
            .iter()
            .filter(|n| !prune_cfg.node_deletion || !prune.node_is_dead(n, self.level))
            .map(|n| n.set)
            .collect();
        let rhs_map: AttrSetMap<AttrSet> = self.nodes.iter().map(|n| (n.set, n.rhs)).collect();

        // Survivors of the apriori check, with their children's Cc⁺ sets.
        let mut joins: Vec<(JoinedChild, AttrSet)> = Vec::new();
        for join in prefix_join(&retained) {
            // Cc+(child) = ∩ over all level-ℓ subsets.
            let mut rhs = scope;
            let mut all_present = true;
            for c in join.child.iter() {
                match rhs_map.get(&join.child.without(c)) {
                    Some(r) => rhs = rhs.intersect(*r),
                    None => {
                        all_present = false;
                        break;
                    }
                }
            }
            if all_present {
                joins.push((join, rhs));
            }
        }

        // Products computed here materialize level ℓ+1, so they are
        // charged to that level's counters (level 1 is seeded, count 0).
        if !joins.is_empty() {
            stats.level_mut(self.level + 1).n_products += joins.len();
        }

        let parents: &PartitionCache = cache;
        let products = exec.par_map_with_state(
            ProductScratch::default,
            &joins,
            |scratch, _i, (join, _rhs)| {
                let l = parents.get(join.parent_a).expect("parent is cached");
                let r = parents.get(join.parent_b).expect("parent is cached");
                l.product_with_scratch(r, scratch)
            },
        );
        let mut next = Vec::with_capacity(joins.len());
        for ((join, rhs), product) in joins.into_iter().zip(products) {
            cache.insert(join.child, product);
            next.push(Node {
                set: join.child,
                rhs,
            });
        }

        // Keep levels ℓ-1 (contexts at level ℓ+1), ℓ (parents) and ℓ+1.
        cache.retain_min_level(self.level.saturating_sub(1));
        self.nodes = next;
        self.level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    #[test]
    fn seed_covers_scope_only() {
        let t = RankedTable::from_table(&employee_table());
        let mut cache = PartitionCache::new();
        let scope = AttrSet::from_attrs([0, 2, 5]);
        let f = Frontier::seed(&t, scope, &mut cache);
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
        let mut f = Frontier::seed(&t, scope, &mut cache);
        let prune = PruneState::new(t.n_cols(), t.n_rows());
        let mut stats = DiscoveryStats::default();
        f.advance(
            &PruneConfig::default(),
            &prune,
            scope,
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

    #[test]
    fn advance_matches_across_worker_counts() {
        let t = RankedTable::from_table(&employee_table());
        let scope = AttrSet::full(t.n_cols());
        let prune = PruneState::new(t.n_cols(), t.n_rows());
        let (one, four) = (Executor::new(1), Executor::new(4));

        let mut one_cache = PartitionCache::new();
        let mut one_f = Frontier::seed(&t, scope, &mut one_cache);
        let mut four_cache = PartitionCache::new();
        let mut four_f = Frontier::seed(&t, scope, &mut four_cache);
        let (mut one_stats, mut four_stats) =
            (DiscoveryStats::default(), DiscoveryStats::default());
        for _ in 0..3 {
            for (f, cache, stats, exec) in [
                (&mut one_f, &mut one_cache, &mut one_stats, &one),
                (&mut four_f, &mut four_cache, &mut four_stats, &four),
            ] {
                f.advance(&PruneConfig::default(), &prune, scope, cache, stats, exec);
            }
            assert_eq!(four_f.level, one_f.level);
            assert_eq!(four_f.nodes.len(), one_f.nodes.len());
            for (p, s) in four_f.nodes.iter().zip(&one_f.nodes) {
                assert_eq!(p.set, s.set);
                assert_eq!(p.rhs, s.rhs);
            }
            // Identical cache contents and product accounting.
            assert_eq!(four_stats.per_level, one_stats.per_level);
            let mut p_sets = four_cache.cached_sets();
            let mut s_sets = one_cache.cached_sets();
            p_sets.sort_unstable();
            s_sets.sort_unstable();
            assert_eq!(p_sets, s_sets);
            for &set in &s_sets {
                assert_eq!(four_cache.get(set), one_cache.get(set), "{set}");
            }
        }
    }
}
