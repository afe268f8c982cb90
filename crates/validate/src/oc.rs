//! Order-compatibility validators: optimal (Algorithm 2) and iterative
//! (Algorithm 1).
//!
//! Both share the same per-class pipeline — gather the context class's
//! `(rank_A, rank_B)` pairs, sort by `[A ASC, B ASC]` — and differ in what
//! they do with the sorted `B` projection:
//!
//! * **optimal** — LNDS: the complement of a longest non-decreasing
//!   subsequence is a *minimal* removal set (Theorem 3.3), `O(m log m)`;
//!   the length kernel stops inside a class once the removal budget left
//!   over from earlier classes is spent. An exact check is a budget of 0,
//!   where the kernel stops at the first descent of the projection;
//! * **iterative** — the PVLDB'17 baseline: repeatedly drop a tuple with the
//!   most swaps, `O(m log m + ε m²)`, *not* minimal (Example 3.1).
//!
//! The same machinery with a descending `B` tie-break validates canonical
//! ODs `X: A |-> B` (Section 3.3) — see [`PairMode::OdDescB`].

use crate::swap::{is_swap, pack_asc, pack_desc_b, unpack_a, unpack_b_asc, unpack_b_desc};
use aod_lis::{
    lnds_indices, per_element_inversions_compressed, subsequence_length_within, Monotonicity,
};
use aod_partition::Partition;

/// How `(A, B)` pairs are ordered before the projection step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// `[A ASC, B ASC]` — validates the OC `A ~ B` (swaps only).
    OcAsc,
    /// `[A ASC, B DESC]` — validates the OD `A |-> B` (swaps *and* splits):
    /// within an equal-`A` run the descending tie-break forces any
    /// non-decreasing selection to be `B`-constant.
    OdDescB,
}

impl PairMode {
    #[inline]
    fn pack(self, a: u32, b: u32) -> u64 {
        match self {
            PairMode::OcAsc => pack_asc(a, b),
            PairMode::OdDescB => pack_desc_b(a, b),
        }
    }

    #[inline]
    fn unpack_b(self, key: u64) -> u32 {
        match self {
            PairMode::OcAsc => unpack_b_asc(key),
            PairMode::OdDescB => unpack_b_desc(key),
        }
    }
}

/// Reusable validator holding scratch buffers (one per discovery run /
/// thread; the perf-book "workhorse collection" pattern keeps the hot path
/// allocation-free across candidates).
#[derive(Debug, Default)]
pub struct OcValidator {
    keys: Vec<u64>,
    rows: Vec<u32>,
    bbuf: Vec<u32>,
    tails: Vec<u32>,
}

impl OcValidator {
    /// A fresh validator.
    pub fn new() -> OcValidator {
        OcValidator::default()
    }

    /// Gathers and sorts one class; fills `self.keys` (packed pairs) and,
    /// when `track_rows`, `self.rows` such that `rows[i]` is the source row
    /// of `keys[i]` after sorting.
    fn gather_class(
        &mut self,
        class: &[u32],
        a_ranks: &[u32],
        b_ranks: &[u32],
        mode: PairMode,
        track_rows: bool,
    ) {
        self.keys.clear();
        self.keys.extend(
            class
                .iter()
                .map(|&row| mode.pack(a_ranks[row as usize], b_ranks[row as usize])),
        );
        if track_rows {
            // Sort an index permutation so row ids follow their keys.
            let mut perm: Vec<u32> = (0..class.len() as u32).collect();
            perm.sort_unstable_by_key(|&i| self.keys[i as usize]);
            self.rows.clear();
            self.rows.extend(perm.iter().map(|&i| class[i as usize]));
            let keys = std::mem::take(&mut self.keys);
            let mut sorted: Vec<u64> = perm.iter().map(|&i| keys[i as usize]).collect();
            std::mem::swap(&mut self.keys, &mut sorted);
        } else {
            self.keys.sort_unstable();
        }
        self.bbuf.clear();
        self.bbuf
            .extend(self.keys.iter().map(|&k| mode.unpack_b(k)));
    }

    /// Exact validation of `ctx: A ~ B`: `true` iff no class contains a
    /// swap, i.e. the minimal removal set fits a budget of 0.
    pub fn exact_oc_holds(&mut self, ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32]) -> bool {
        self.min_removal_lnds(ctx, a_ranks, b_ranks, PairMode::OcAsc, 0) == Some(0)
    }

    /// Exact validation of the canonical OD `ctx: A |-> B` (no swap, no
    /// split), as a budget of 0.
    pub fn exact_od_holds(&mut self, ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32]) -> bool {
        self.min_removal_lnds(ctx, a_ranks, b_ranks, PairMode::OdDescB, 0) == Some(0)
    }

    /// **Algorithm 2** — minimal removal-set *size* for the AOC
    /// `ctx: A ~ B`, with early exit.
    ///
    /// Returns `Some(count)` when a minimal removal set of size
    /// `count <= limit` exists, `None` as soon as the count is known to
    /// exceed `limit` — possibly in the middle of a class (pass
    /// `usize::MAX` for the exact minimum).
    pub fn min_removal_optimal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        self.min_removal_lnds(ctx, a_ranks, b_ranks, PairMode::OcAsc, limit)
    }

    /// **Algorithm 2 with the Section 3.3 tie-break** — minimal removal-set
    /// size for the canonical AOD `ctx: A |-> B`.
    pub fn min_removal_od(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        self.min_removal_lnds(ctx, a_ranks, b_ranks, PairMode::OdDescB, limit)
    }

    fn min_removal_lnds(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        mode: PairMode,
        limit: usize,
    ) -> Option<usize> {
        let mut removed = 0usize;
        for class in ctx.classes() {
            self.gather_class(class, a_ranks, b_ranks, mode, false);
            // The class may spend what earlier classes left of `limit`; the
            // kernel stops inside the class once it needs more. Disjoint
            // field borrows: the LNDS reads `bbuf`, reuses `tails`.
            let kept = subsequence_length_within(
                &self.bbuf,
                Monotonicity::NonDecreasing,
                limit - removed,
                &mut self.tails,
            )?;
            removed += class.len() - kept;
        }
        Some(removed)
    }

    /// **Algorithm 2** returning the actual minimal removal set (ascending
    /// row ids) for the AOC `ctx: A ~ B`.
    pub fn removal_set_optimal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
    ) -> Vec<u32> {
        self.removal_set_lnds(ctx, a_ranks, b_ranks, PairMode::OcAsc)
    }

    /// Minimal removal set for the canonical AOD `ctx: A |-> B`.
    pub fn removal_set_od(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
    ) -> Vec<u32> {
        self.removal_set_lnds(ctx, a_ranks, b_ranks, PairMode::OdDescB)
    }

    fn removal_set_lnds(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        mode: PairMode,
    ) -> Vec<u32> {
        let mut removal = Vec::new();
        for class in ctx.classes() {
            self.gather_class(class, a_ranks, b_ranks, mode, true);
            let keep = lnds_indices(&self.bbuf);
            let mut keep_iter = keep.iter().peekable();
            for (i, &row) in self.rows.iter().enumerate() {
                match keep_iter.peek() {
                    Some(&&k) if k as usize == i => {
                        keep_iter.next();
                    }
                    _ => removal.push(row),
                }
            }
        }
        removal.sort_unstable();
        removal
    }

    /// **Algorithm 1** — the iterative baseline: removal-set *size*
    /// (possibly an overestimate) for the AOC `ctx: A ~ B`, with early exit.
    ///
    /// Returns `None` as soon as the accumulated removals exceed `limit`
    /// (line 14 of the paper's pseudocode returns "INVALID").
    pub fn min_removal_iterative(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        let mut removed = 0usize;
        for class in ctx.classes() {
            self.gather_class(class, a_ranks, b_ranks, PairMode::OcAsc, false);
            removed += self.iterative_class(None, limit.checked_sub(removed)?)?;
        }
        Some(removed)
    }

    /// **Algorithm 1** returning the removal set it constructs (ascending
    /// row ids). No early exit — used to measure overestimation (Exp-4).
    pub fn removal_set_iterative(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
    ) -> Vec<u32> {
        let mut removal = Vec::new();
        for class in ctx.classes() {
            self.gather_class(class, a_ranks, b_ranks, PairMode::OcAsc, true);
            let rows = std::mem::take(&mut self.rows);
            let mut sink = Vec::new();
            self.iterative_class(Some(&mut sink), usize::MAX)
                .expect("limit is MAX");
            removal.extend(sink.iter().map(|&i| rows[i as usize]));
            self.rows = rows;
        }
        removal.sort_unstable();
        removal
    }

    /// Runs Algorithm 1's inner loop on the gathered class
    /// (`self.keys`/`self.bbuf` already `[A ASC, B ASC]`-sorted).
    ///
    /// Removes, among live tuples, a leftmost tuple with the maximum swap
    /// count until the class is swap-free; updates the remaining counts by
    /// rescanning (lines 9–11). Appends removed *positions* to `sink` when
    /// given. Returns `None` once more than `budget` tuples were removed.
    fn iterative_class(&mut self, mut sink: Option<&mut Vec<u32>>, budget: usize) -> Option<usize> {
        let m = self.keys.len();
        // Initial swap counts: strict inversions of the B projection
        // (equal-A pairs are tie-broken ascending, so they never invert;
        // equal-B pairs are not swaps — see Algorithm 1 line 4).
        let mut counts: Vec<u32> = per_element_inversions_compressed(&self.bbuf);
        let mut alive = vec![true; m];
        let mut removed = 0usize;
        loop {
            let mut max_pos = usize::MAX;
            let mut max_cnt = 0u32;
            for i in 0..m {
                if alive[i] && counts[i] > max_cnt {
                    max_cnt = counts[i];
                    max_pos = i;
                }
            }
            if max_cnt == 0 {
                return Some(removed);
            }
            alive[max_pos] = false;
            removed += 1;
            if removed > budget {
                return None;
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(max_pos as u32);
            }
            let dead = (
                unpack_a(self.keys[max_pos]),
                unpack_b_asc(self.keys[max_pos]),
            );
            for i in 0..m {
                if alive[i] {
                    let live = (unpack_a(self.keys[i]), unpack_b_asc(self.keys[i]));
                    if is_swap(live, dead) {
                        counts[i] -= 1;
                    }
                }
            }
        }
    }
}

/// A lower bound on the removal-set size of the OC `Y: A ~ B` from four
/// unstripped class counts, read without touching a row:
/// `|Π_{YAB}| + |Π_Y| − |Π_{YA}| − |Π_{YB}|`, or 0 when that is negative.
///
/// Take a class of `Π_Y` with `d_A` and `d_B` distinct `A` and `B`
/// values and `d_AB` distinct `(A, B)` pairs. The rows an OC keeps
/// hold no swap, so their pairs form a chain in the `(A ≤, B ≤)` order,
/// and a chain holds at most `d_A + d_B − 1` distinct pairs. Each of the
/// other `d_AB − d_A − d_B + 1` or more pairs loses all of its rows, at
/// least one apiece. The class counts of `Π_{YA}`, `Π_{YB}` and `Π_{YAB}`
/// sum `d_A`, `d_B` and `d_AB` over the classes of `Π_Y`, and a singleton
/// class adds `1 + 1 − 1 − 1 = 0`, so the sum is the bound (a class whose
/// own term is negative only weakens it). It never exceeds
/// [`OcValidator::min_removal_optimal`], hence any
/// [`OcValidatorBackend`](crate::OcValidatorBackend), which must never
/// underestimate, rejects a candidate whose bound exceeds its budget. It
/// is the OC analogue of the OFD bound `|Π_{YA}| − |Π_Y|`, and tight on a
/// `k × k` grid of `(A, B)` values in one class: `(k − 1)²`.
pub fn oc_removal_lower_bound(
    y: &Partition,
    ya: &Partition,
    yb: &Partition,
    yab: &Partition,
) -> usize {
    (yab.n_classes_unstripped() + y.n_classes_unstripped())
        .saturating_sub(ya.n_classes_unstripped() + yb.n_classes_unstripped())
}

/// A lower bound on the removal-set size of the OC `Y: A ~ B` from one
/// linear pass over the classes of `ctx = Π_Y`: the number of disjoint
/// swapped row pairs it finds, or `limit + 1` as soon as that number
/// exceeds `limit` (pass `usize::MAX` for the whole count).
///
/// Each class starts with no pending row. The pass reads the class's rows
/// in ascending row id and pairs each with the pending row when the two
/// swap ([`is_swap`], strict on `A` and on `B`, so rows tied on either
/// never pair); a paired row leaves the class with no pending row, and
/// any other row becomes the pending one
/// ([`brute_disjoint_swaps`](crate::brute_disjoint_swaps) counts the same
/// pairs in closed form). The pairs are
/// disjoint and each is a swap inside one class, so every swap-free
/// subset keeps at most one row of each: a matching of the swap graph
/// never exceeds its minimum vertex cover, which is the minimal removal
/// set. The count therefore never exceeds
/// [`OcValidator::min_removal_optimal`], and any
/// [`OcValidatorBackend`](crate::OcValidatorBackend) rejects a candidate
/// whose count exceeds its budget.
///
/// It sorts nothing and allocates nothing. Unlike the LNDS kernel it can
/// only refute a candidate, never accept one: a count within the budget
/// proves nothing.
///
/// The loop over a class's rows has no branch that depends on the data.
/// The swap test is the four strict comparisons joined by non-short-circuit
/// `&` and `|`, it is added to the count as an integer, and the pending
/// flag and the previous row's ranks are overwritten on every row. In the
/// contexts discovery visits about a quarter of the rows pair (10.9M on
/// flight 50,000 × 12 at ε = 0.1), in no pattern a predictor can learn,
/// so a branch on the test mispredicts often and costs several times the
/// loads of the two ranks. The one branch per row, the limit check, stays
/// false until the last row read.
pub fn oc_disjoint_swaps(ctx: &Partition, a_ranks: &[u32], b_ranks: &[u32], limit: usize) -> usize {
    let mut pairs = 0usize;
    for class in ctx.classes() {
        // The previous row's ranks count only while `pending` holds.
        let (mut pending, mut last_a, mut last_b) = (false, 0, 0);
        for &row in class {
            let (a, b) = (a_ranks[row as usize], b_ranks[row as usize]);
            let swap = pending & (((last_a < a) & (b < last_b)) | ((a < last_a) & (last_b < b)));
            pairs += usize::from(swap);
            if pairs > limit {
                return limit + 1;
            }
            pending = !swap;
            (last_a, last_b) = (a, b);
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_partition::Partition;
    use aod_table::{employee_table, RankedTable};

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    fn unit_ctx(n: usize) -> Partition {
        Partition::unit(n)
    }

    /// Column indices in Table 1.
    const POS: usize = 0;
    const EXP: usize = 1;
    const SAL: usize = 2;
    const TAXGRP: usize = 3;
    const TAX: usize = 5;
    const BONUS: usize = 6;

    fn ranks(t: &RankedTable, c: usize) -> &[u32] {
        t.column(c).ranks()
    }

    #[test]
    fn exact_oc_taxgrp_sal_holds() {
        // Example 2.4: taxGrp ~ sal holds in Table 1.
        let t = employee();
        let mut v = OcValidator::new();
        assert!(v.exact_oc_holds(&unit_ctx(9), ranks(&t, TAXGRP), ranks(&t, SAL)));
        // and is symmetric
        assert!(v.exact_oc_holds(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAXGRP)));
    }

    #[test]
    fn exact_oc_sal_tax_fails() {
        // The dirty `perc` column breaks sal ~ tax (Section 1.1).
        let t = employee();
        let mut v = OcValidator::new();
        assert!(!v.exact_oc_holds(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX)));
    }

    #[test]
    fn optimal_reproduces_example_3_2() {
        // e(sal ~ tax) = 4/9: minimal removal set {t1, t2, t4, t6}.
        let t = employee();
        let mut v = OcValidator::new();
        let removed = v
            .min_removal_optimal(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX), usize::MAX)
            .unwrap();
        assert_eq!(removed, 4);
        let set = v.removal_set_optimal(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX));
        assert_eq!(set, vec![0, 1, 3, 5]); // t1, t2, t4, t6 (0-based)
    }

    #[test]
    fn iterative_reproduces_example_3_1_overestimate() {
        // Algorithm 1 removes {t3, t4, t5, t6, t7}: 5 tuples, not 4.
        let t = employee();
        let mut v = OcValidator::new();
        let removed = v
            .min_removal_iterative(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX), usize::MAX)
            .unwrap();
        assert_eq!(removed, 5);
        let set = v.removal_set_iterative(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX));
        assert_eq!(set, vec![2, 3, 4, 5, 6]); // t3, t4, t5, t6, t7 (0-based)
    }

    #[test]
    fn early_exit_when_budget_exceeded() {
        let t = employee();
        let mut v = OcValidator::new();
        assert_eq!(
            v.min_removal_optimal(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX), 3),
            None
        );
        assert_eq!(
            v.min_removal_iterative(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX), 3),
            None
        );
        // budget exactly at the answer passes
        assert_eq!(
            v.min_removal_optimal(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX), 4),
            Some(4)
        );
    }

    #[test]
    fn contexted_oc_example_2_12() {
        // {pos}: sal ~ bonus holds in Table 1.
        let t = employee();
        let ctx = Partition::from_ranked_column(t.column(POS));
        let mut v = OcValidator::new();
        assert!(v.exact_oc_holds(&ctx, ranks(&t, SAL), ranks(&t, BONUS)));
        assert_eq!(
            v.min_removal_optimal(&ctx, ranks(&t, SAL), ranks(&t, BONUS), usize::MAX),
            Some(0)
        );
    }

    #[test]
    fn contexted_oc_intro_example() {
        // Section 1.1: for pos,exp ~ pos,sal i.e. {pos}: exp ~ sal, the
        // minimal removal set is {t8} (the dev with -1 experience).
        let t = employee();
        let ctx = Partition::from_ranked_column(t.column(POS));
        let mut v = OcValidator::new();
        let removed = v
            .min_removal_optimal(&ctx, ranks(&t, EXP), ranks(&t, SAL), usize::MAX)
            .unwrap();
        assert_eq!(removed, 1);
        let set = v.removal_set_optimal(&ctx, ranks(&t, EXP), ranks(&t, SAL));
        assert_eq!(set, vec![7]); // t8
    }

    #[test]
    fn exact_od_detects_splits() {
        // {}: pos |-> taxGrp? pos has dev < dir < sec lexicographically;
        // within `dev` rows taxGrp varies (A, B, C) -> split -> fails.
        let t = employee();
        let mut v = OcValidator::new();
        assert!(!v.exact_od_holds(&unit_ctx(9), ranks(&t, POS), ranks(&t, TAXGRP)));
        // sal |-> taxGrp holds (the motivating OD of Section 1.1).
        assert!(v.exact_od_holds(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAXGRP)));
    }

    #[test]
    fn od_removal_counts_splits_and_swaps() {
        // A values all equal: pure split case. B = [0,0,1] keeps the two 0s.
        let ctx = unit_ctx(3);
        let a = vec![5u32, 5, 5];
        let b = vec![0u32, 0, 1];
        let mut v = OcValidator::new();
        assert_eq!(v.min_removal_od(&ctx, &a, &b, usize::MAX), Some(1));
        // As an OC this needs no removals at all.
        assert_eq!(v.min_removal_optimal(&ctx, &a, &b, usize::MAX), Some(0));
    }

    #[test]
    fn od_removal_set_is_consistent_with_count() {
        let t = employee();
        let mut v = OcValidator::new();
        let ctx = Partition::from_ranked_column(t.column(POS));
        let count = v
            .min_removal_od(&ctx, ranks(&t, EXP), ranks(&t, SAL), usize::MAX)
            .unwrap();
        let set = v.removal_set_od(&ctx, ranks(&t, EXP), ranks(&t, SAL));
        assert_eq!(set.len(), count);
    }

    #[test]
    fn removing_the_removal_set_validates_the_oc() {
        let t = employee();
        let mut v = OcValidator::new();
        let set = v.removal_set_optimal(&unit_ctx(9), ranks(&t, SAL), ranks(&t, TAX));
        // Rebuild table without removed rows and re-validate.
        let keep: Vec<usize> = (0..9).filter(|&r| !set.contains(&(r as u32))).collect();
        let table = employee_table().take_rows(&keep);
        let ranked = RankedTable::from_table(&table);
        assert!(v.exact_oc_holds(
            &unit_ctx(keep.len()),
            ranked.column(SAL).ranks(),
            ranked.column(TAX).ranks()
        ));
    }

    #[test]
    fn iterative_never_beats_optimal() {
        // On every pair of columns of Table 1 (empty context).
        let t = employee();
        let mut v = OcValidator::new();
        for a in 0..7 {
            for b in 0..7 {
                if a == b {
                    continue;
                }
                let opt = v
                    .min_removal_optimal(&unit_ctx(9), ranks(&t, a), ranks(&t, b), usize::MAX)
                    .unwrap();
                let it = v
                    .min_removal_iterative(&unit_ctx(9), ranks(&t, a), ranks(&t, b), usize::MAX)
                    .unwrap();
                assert!(it >= opt, "cols {a},{b}: iterative {it} < optimal {opt}");
            }
        }
    }

    #[test]
    fn class_count_bound_is_tight_on_a_grid() {
        // One class holding every pair of a k × k grid: a chain keeps
        // 2k − 1 of the k² pairs, so (k − 1)² rows must go.
        for k in 2..=5u32 {
            let a: Vec<u32> = (0..k * k).map(|i| i / k).collect();
            let b: Vec<u32> = (0..k * k).map(|i| i % k).collect();
            let t = RankedTable::from_u32_columns(vec![a, b]);
            let part = |attrs: &[usize]| Partition::for_attrs(&t, attrs.iter().copied());
            let bound =
                oc_removal_lower_bound(&part(&[]), &part(&[0]), &part(&[1]), &part(&[0, 1]));
            let optimal = OcValidator::new().min_removal_optimal(
                &part(&[]),
                ranks(&t, 0),
                ranks(&t, 1),
                usize::MAX,
            );
            let expected = ((k - 1) * (k - 1)) as usize;
            assert_eq!(bound, expected, "k = {k}");
            assert_eq!(optimal, Some(expected), "k = {k}");
        }
    }

    #[test]
    fn a_two_row_class_pairs_exactly_when_its_rows_swap() {
        let ctx = unit_ctx(2);
        for a in 0..3u32 {
            for b in 0..3u32 {
                let (ar, br) = ([1, a], [1, b]);
                let swaps = (a < 1 && b > 1) || (a > 1 && b < 1);
                assert_eq!(
                    oc_disjoint_swaps(&ctx, &ar, &br, usize::MAX),
                    usize::from(swaps),
                    "(1, 1) and ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn rows_tied_on_a_or_on_b_never_pair() {
        // Equal A and descending B, then descending A and equal B: every
        // adjacent pair is opposite on one column and tied on the other.
        let ctx = unit_ctx(4);
        for (a, b) in [
            ([5u32, 5, 5, 5], [3u32, 2, 1, 0]),
            ([3, 2, 1, 0], [5, 5, 5, 5]),
        ] {
            assert_eq!(
                oc_disjoint_swaps(&ctx, &a, &b, usize::MAX),
                0,
                "{a:?} {b:?}"
            );
        }
    }

    #[test]
    fn a_pending_row_does_not_cross_a_class_boundary() {
        // Classes {0, 1} and {2, 3}, each co-ordered inside; only rows 1
        // and 2, in different classes, are ordered opposite ways.
        let ctx = Partition::from_ranks(&[0, 0, 1, 1], 2);
        assert_eq!(ctx.classes().collect::<Vec<_>>(), [[0, 1], [2, 3]]);
        let (a, b) = ([0u32, 1, 0, 2], [0u32, 1, 2, 3]);
        assert!(is_swap((a[1], b[1]), (a[2], b[2])));
        assert_eq!(oc_disjoint_swaps(&ctx, &a, &b, usize::MAX), 0);
    }

    #[test]
    fn the_pair_count_stops_once_it_passes_the_limit() {
        // A strictly descending class of 8 rows: rows 2i and 2i + 1 pair,
        // four pairs in all, and the minimal removal set is 7 rows.
        let ctx = unit_ctx(8);
        let a: Vec<u32> = (0..8).collect();
        let b: Vec<u32> = (0..8).rev().collect();
        for limit in 0..4 {
            assert_eq!(oc_disjoint_swaps(&ctx, &a, &b, limit), limit + 1);
        }
        for limit in [4, 7, usize::MAX] {
            assert_eq!(oc_disjoint_swaps(&ctx, &a, &b, limit), 4);
        }
        let optimal = OcValidator::new().min_removal_optimal(&ctx, &a, &b, usize::MAX);
        assert_eq!(optimal, Some(7));
    }

    #[test]
    fn empty_context_partition_is_trivially_valid() {
        // A keyed context (stripped empty) has no swaps at all.
        let ctx = Partition::unit(1);
        let mut v = OcValidator::new();
        assert!(v.exact_oc_holds(&ctx, &[0], &[0]));
        assert_eq!(v.min_removal_optimal(&ctx, &[0], &[0], usize::MAX), Some(0));
    }
}
