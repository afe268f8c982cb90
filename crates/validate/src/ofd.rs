//! Order functional dependency (OFD) validation.
//!
//! An OFD `X: [] |-> A` states that `A` is constant within each equivalence
//! class of `X` (Definition 2.11) — it is the FD `X -> A` in canonical
//! clothing. The approximate variant asks for the fewest tuples whose
//! removal makes it hold; per class that means keeping only the most
//! frequent `A` value, which is exactly TANE's `g₃` error [Huhtala et
//! al. '99] that the paper reuses ("an efficient linear-time algorithm for
//! validating approximate OFDs has already been established [3]").
//!
//! [`min_removal_ofd`] counts with its own early-exit loop; an exact
//! check is its limit of 0, which stops at the first class `A` splits.
//! [`removal_set_ofd`] extracts the rows. [`Partition::fd_removal_count`]
//! is the same count written independently; the OFD spec oracle in
//! `tests/discovery_completeness.rs` checks discovery against it.

use aod_partition::Partition;

/// Minimal removal-set size for the approximate OFD `ctx: [] |-> A`, with
/// early exit: `None` once the count exceeds `limit`. With `limit = 0`
/// this is exact validation: `Some(0)` iff every class of the context
/// partition is constant on `A`.
///
/// Linear in the grouped rows of the context partition.
pub fn min_removal_ofd(
    ctx: &Partition,
    a_ranks: &[u32],
    a_n_distinct: u32,
    limit: usize,
) -> Option<usize> {
    let mut counts = vec![0u32; a_n_distinct as usize];
    let mut removed = 0usize;
    for class in ctx.classes() {
        let mut max = 0u32;
        for &row in class {
            let c = &mut counts[a_ranks[row as usize] as usize];
            *c += 1;
            if *c > max {
                max = *c;
            }
        }
        removed += class.len() - max as usize;
        for &row in class {
            counts[a_ranks[row as usize] as usize] = 0;
        }
        if removed > limit {
            return None;
        }
    }
    Some(removed)
}

/// A minimal removal set (ascending row ids) for the approximate OFD
/// `ctx: [] |-> A`: within each class every row not carrying the class's
/// most frequent `A` value.
pub fn removal_set_ofd(ctx: &Partition, a_ranks: &[u32], a_n_distinct: u32) -> Vec<u32> {
    let mut counts = vec![0u32; a_n_distinct as usize];
    let mut removal = Vec::new();
    for class in ctx.classes() {
        let mut best_rank = a_ranks[class[0] as usize];
        let mut best = 0u32;
        for &row in class {
            let rank = a_ranks[row as usize];
            let c = &mut counts[rank as usize];
            *c += 1;
            if *c > best {
                best = *c;
                best_rank = rank;
            }
        }
        for &row in class {
            if a_ranks[row as usize] != best_rank {
                removal.push(row);
            }
            counts[a_ranks[row as usize] as usize] = 0;
        }
    }
    removal.sort_unstable();
    removal
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    #[test]
    fn sal_determines_taxgrp() {
        // sal |-> taxGrp holds, so {sal}: [] |-> taxGrp must hold.
        let t = employee();
        let ctx = Partition::from_ranked_column(t.column(2));
        let tg = t.column(3);
        assert_eq!(
            min_removal_ofd(&ctx, tg.ranks(), tg.n_distinct(), 0),
            Some(0)
        );
        assert_eq!(
            min_removal_ofd(&ctx, tg.ranks(), tg.n_distinct(), usize::MAX),
            Some(0)
        );
        assert!(removal_set_ofd(&ctx, tg.ranks(), tg.n_distinct()).is_empty());
    }

    #[test]
    fn pos_exp_to_sal_needs_one_removal() {
        // Section 1.1: pos, exp -> sal fails only via the t6/t7 split.
        let t = employee();
        let ctx = Partition::for_attrs(&t, [0, 1]);
        let sal = t.column(2);
        assert_eq!(
            min_removal_ofd(&ctx, sal.ranks(), sal.n_distinct(), 0),
            None
        );
        assert_eq!(
            min_removal_ofd(&ctx, sal.ranks(), sal.n_distinct(), usize::MAX),
            Some(1)
        );
        let set = removal_set_ofd(&ctx, sal.ranks(), sal.n_distinct());
        assert_eq!(set.len(), 1);
        // The removed row is t6 or t7 (both minimal choices).
        assert!(set[0] == 5 || set[0] == 6);
    }

    #[test]
    fn early_exit() {
        let t = employee();
        // {}: [] |-> pos needs removing all but the most common position
        // (5 devs kept, 4 rows removed).
        let ctx = Partition::unit(9);
        let pos = t.column(0);
        assert_eq!(
            min_removal_ofd(&ctx, pos.ranks(), pos.n_distinct(), usize::MAX),
            Some(4)
        );
        assert_eq!(
            min_removal_ofd(&ctx, pos.ranks(), pos.n_distinct(), 3),
            None
        );
        assert_eq!(
            min_removal_ofd(&ctx, pos.ranks(), pos.n_distinct(), 4),
            Some(4)
        );
    }

    #[test]
    fn removal_set_matches_count_and_validates() {
        let t = employee();
        let ctx = Partition::unit(9);
        let pos = t.column(0);
        let set = removal_set_ofd(&ctx, pos.ranks(), pos.n_distinct());
        assert_eq!(set.len(), 4);
        // After removal every class is constant: simulate by filtering.
        let kept: Vec<u32> = (0..9u32).filter(|r| !set.contains(r)).collect();
        let first = pos.ranks()[kept[0] as usize];
        assert!(kept.iter().all(|&r| pos.ranks()[r as usize] == first));
    }

    #[test]
    fn keyed_context_is_trivially_valid() {
        let t = employee();
        let ctx = Partition::from_ranked_column(t.column(2)); // sal is a key
        assert!(ctx.is_key());
        let bonus = t.column(6);
        assert_eq!(
            min_removal_ofd(&ctx, bonus.ranks(), bonus.n_distinct(), 0),
            Some(0)
        );
    }
}
