//! Brute-force oracles for property testing.
//!
//! These compute *exact* minimal removal sets by exhaustive subset search.
//! They are exponential (`O(2^m · m²)` per context class) and guarded to
//! small classes, but provide ground truth for:
//!
//! * Theorem 3.3 — the LNDS validator's removal sets are minimal;
//! * the iterative baseline's overestimation (never an *under*estimate);
//! * the OD variant's split+swap handling.
//!
//! [`brute_disjoint_swaps`] is a reference of another kind: a closed form
//! for the pair count of the linear disjoint-swaps pass, written without
//! that pass's pending row.
//!
//! They live in the library (not `#[cfg(test)]`) so that integration tests
//! and the property suites of other crates can reuse them.

use crate::swap::{is_split, is_swap};
use aod_partition::Partition;

/// Largest class size the brute-force search accepts.
pub const MAX_BRUTE_CLASS: usize = 20;

/// What counts as a violation between two kept tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Swaps only — validates OCs `A ~ B`.
    SwapOnly,
    /// Swaps and splits — validates ODs `A |-> B`.
    SwapOrSplit,
}

fn violates(kind: ViolationKind, s: (u32, u32), t: (u32, u32)) -> bool {
    match kind {
        ViolationKind::SwapOnly => is_swap(s, t),
        ViolationKind::SwapOrSplit => is_swap(s, t) || is_split(s, t),
    }
}

/// Exact minimum number of pairs to drop from `pairs` so no violation
/// remains, by exhaustive subset enumeration.
///
/// # Panics
/// If `pairs.len() > MAX_BRUTE_CLASS`.
pub fn brute_min_removal_pairs(pairs: &[(u32, u32)], kind: ViolationKind) -> usize {
    let m = pairs.len();
    assert!(
        m <= MAX_BRUTE_CLASS,
        "brute force capped at {MAX_BRUTE_CLASS} tuples"
    );
    if m == 0 {
        return 0;
    }
    // Precompute the conflict graph.
    let mut conflict = vec![0u32; m];
    for i in 0..m {
        for j in 0..m {
            if i != j && violates(kind, pairs[i], pairs[j]) {
                conflict[i] |= 1 << j;
            }
        }
    }
    let mut best_keep = 0usize;
    for mask in 0u32..(1u32 << m) {
        let keep = mask.count_ones() as usize;
        if keep <= best_keep {
            continue;
        }
        let mut ok = true;
        let mut probe = mask;
        while probe != 0 {
            let i = probe.trailing_zeros() as usize;
            probe &= probe - 1;
            if conflict[i] & mask != 0 {
                ok = false;
                break;
            }
        }
        if ok {
            best_keep = keep;
        }
    }
    m - best_keep
}

/// Exact minimal removal-set size for the AOC `ctx: A ~ B` — per-class
/// brute force, summed (classes are independent; see the proof of
/// Theorem 3.3).
pub fn brute_min_removal_oc(ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32]) -> usize {
    brute_min_removal(ctx, a_ranks, b_ranks, ViolationKind::SwapOnly)
}

/// Exact minimal removal-set size for the canonical AOD `ctx: A |-> B`.
pub fn brute_min_removal_od(ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32]) -> usize {
    brute_min_removal(ctx, a_ranks, b_ranks, ViolationKind::SwapOrSplit)
}

/// The number of pairs [`oc_disjoint_swaps`](crate::oc_disjoint_swaps)
/// counts, in closed form and with no pending row. In each class, in
/// ascending row id, take the maximal runs of consecutive rows that each
/// swap with the row before them: the pass, pairing greedily from the
/// left, pairs every other row of a run, starting with its first, so a
/// run of `r` rows gives `⌈r / 2⌉` pairs.
pub fn brute_disjoint_swaps(ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32]) -> usize {
    let pair = |row: u32| (a_ranks[row as usize], b_ranks[row as usize]);
    let mut total = 0usize;
    for class in ctx.classes() {
        let mut run = 0usize;
        for rows in class.windows(2) {
            if is_swap(pair(rows[0]), pair(rows[1])) {
                run += 1;
            } else {
                total += run.div_ceil(2);
                run = 0;
            }
        }
        total += run.div_ceil(2);
    }
    total
}

fn brute_min_removal(
    ctx: &Partition,
    a_ranks: &[u32],
    b_ranks: &[u32],
    kind: ViolationKind,
) -> usize {
    let mut total = 0usize;
    let mut pairs = Vec::new();
    for class in ctx.classes() {
        pairs.clear();
        pairs.extend(
            class
                .iter()
                .map(|&row| (a_ranks[row as usize], b_ranks[row as usize])),
        );
        total += brute_min_removal_pairs(&pairs, kind);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oc::OcValidator;
    use aod_table::{employee_table, RankedTable};

    #[test]
    fn brute_matches_paper_example() {
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let sal = t.column(2).ranks();
        let tax = t.column(5).ranks();
        assert_eq!(brute_min_removal_oc(&ctx, sal, tax), 4); // Example 2.15
    }

    #[test]
    fn empty_and_clean_classes() {
        assert_eq!(brute_min_removal_pairs(&[], ViolationKind::SwapOnly), 0);
        let clean = [(0, 0), (1, 1), (2, 2)];
        assert_eq!(brute_min_removal_pairs(&clean, ViolationKind::SwapOnly), 0);
        assert_eq!(
            brute_min_removal_pairs(&clean, ViolationKind::SwapOrSplit),
            0
        );
    }

    #[test]
    fn splits_matter_only_for_ods() {
        let split = [(0, 0), (0, 1)];
        assert_eq!(brute_min_removal_pairs(&split, ViolationKind::SwapOnly), 0);
        assert_eq!(
            brute_min_removal_pairs(&split, ViolationKind::SwapOrSplit),
            1
        );
    }

    #[test]
    fn optimal_validator_agrees_with_brute_on_employee_pairs() {
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let mut v = OcValidator::new();
        for a in 0..7 {
            for b in 0..7 {
                if a == b {
                    continue;
                }
                let (ar, br) = (t.column(a).ranks(), t.column(b).ranks());
                assert_eq!(
                    v.min_removal_optimal(&ctx, ar, br, usize::MAX).unwrap(),
                    brute_min_removal_oc(&ctx, ar, br),
                    "OC cols {a},{b}"
                );
                assert_eq!(
                    v.min_removal_od(&ctx, ar, br, usize::MAX).unwrap(),
                    brute_min_removal_od(&ctx, ar, br),
                    "OD cols {a},{b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn brute_rejects_large_classes() {
        let pairs = vec![(0u32, 0u32); MAX_BRUTE_CLASS + 1];
        brute_min_removal_pairs(&pairs, ViolationKind::SwapOnly);
    }
}
