//! Level-wise lattice candidate generation (apriori-style prefix join).
//!
//! Level `ℓ+1` nodes are produced by joining pairs of retained level-`ℓ`
//! nodes that share their first `ℓ−1` attributes ("prefix blocks", as in
//! TANE/FASTOD), then keeping only children **all** of whose `ℓ`-subsets
//! were retained. Because deadness (no OFD candidates *and* every OC
//! context below the node is a key) is hereditary — see
//! `aod-core`'s driver — a missing subset proves the child can contribute
//! nothing, so skipping it preserves completeness.

use crate::attrset::{AttrSet, AttrSetMap, AttrSetSet};

/// The highest attribute index of a non-empty set.
fn highest(set: AttrSet) -> usize {
    debug_assert!(!set.is_empty());
    63 - set.bits().leading_zeros() as usize
}

/// Joins retained level-`ℓ` nodes into level-`ℓ+1` candidates.
///
/// Returns children in deterministic order. Children with any non-retained
/// `ℓ`-subset are dropped (classic apriori pruning).
pub fn prefix_join(retained: &[AttrSet]) -> Vec<AttrSet> {
    // Group by prefix (set minus highest attribute).
    let mut blocks: AttrSetMap<Vec<usize>> = AttrSetMap::default();
    for &set in retained {
        blocks
            .entry(set.without(highest(set)))
            .or_default()
            .push(highest(set));
    }
    let retained_set: AttrSetSet = retained.iter().copied().collect();

    let mut block_keys: Vec<AttrSet> = blocks.keys().copied().collect();
    block_keys.sort_unstable(); // deterministic output order
    let mut out = Vec::new();
    for prefix in block_keys {
        let mut lasts = blocks.remove(&prefix).expect("key from map");
        lasts.sort_unstable();
        for i in 0..lasts.len() {
            for j in i + 1..lasts.len() {
                let child = prefix.with(lasts[i]).with(lasts[j]);
                if child
                    .iter()
                    .all(|c| retained_set.contains(&child.without(c)))
                {
                    out.push(child);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(v: &[&[usize]]) -> Vec<AttrSet> {
        v.iter()
            .map(|s| AttrSet::from_attrs(s.iter().copied()))
            .collect()
    }

    #[test]
    fn joins_singletons_into_all_pairs() {
        let level1 = sets(&[&[0], &[1], &[2]]);
        assert_eq!(prefix_join(&level1), sets(&[&[0, 1], &[0, 2], &[1, 2]]));
    }

    #[test]
    fn apriori_pruning_drops_children_with_missing_subsets() {
        // {0,1}, {0,2} present but {1,2} missing -> child {0,1,2} dropped.
        let level2 = sets(&[&[0, 1], &[0, 2]]);
        assert!(prefix_join(&level2).is_empty());
        // With {1,2} present the child appears.
        let full = sets(&[&[0, 1], &[0, 2], &[1, 2]]);
        assert_eq!(prefix_join(&full), sets(&[&[0, 1, 2]]));
    }

    #[test]
    fn join_requires_shared_prefix() {
        // {0,1} and {2,3} share no prefix -> no children.
        let level2 = sets(&[&[0, 1], &[2, 3]]);
        assert!(prefix_join(&level2).is_empty());
    }

    #[test]
    fn full_lattice_counts() {
        // From all C(5,2) pairs we should get all C(5,3) triples.
        let mut level2 = Vec::new();
        for a in 0..5 {
            for b in a + 1..5 {
                level2.push(AttrSet::from_attrs([a, b]));
            }
        }
        let children = prefix_join(&level2);
        assert_eq!(children.len(), 10); // C(5,3)
        let unique: std::collections::BTreeSet<AttrSet> = children.into_iter().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn empty_input() {
        assert!(prefix_join(&[]).is_empty());
    }
}
