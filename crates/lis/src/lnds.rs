//! Longest increasing / non-decreasing subsequence in `O(m log m)`.
//!
//! This is the engine of the paper's optimal AOC validator (Algorithm 2,
//! line 4): per context class the tuples are sorted by `[A asc, B asc]` and a
//! longest **non-decreasing** subsequence (LNDS) of the `B` projection is the
//! maximal set of tuples that can be kept; its complement is a *minimal*
//! removal set (Theorem 3.3).
//!
//! Two forms of the patience/Fredman tails algorithm [Fredman '75] live
//! here:
//!
//! * [`subsequence_length_within`] — the length kernel on the discovery
//!   path. `tails` holds *values* (the smallest tail of each pile), so a
//!   binary-search probe reads the tails array and nothing else; a value
//!   that extends the longest pile is appended without a search; and the
//!   kernel stops with `None` as soon as the prefix already read proves
//!   that more than `budget` elements must go (a budget of `usize::MAX`
//!   gives the plain length).
//! * [`lnds_indices`] / [`lis_indices`] — index tails plus parent pointers,
//!   so one optimal subsequence can be rebuilt (removal-set reporting, off
//!   the discovery path).
//!
//! The paper's `Ω(m log m)` lower bound (Theorem 3.4) makes both optimal.

/// Strictness of the subsequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// Strictly increasing (`<`): used for the LIS-DEC reduction and tests.
    Strict,
    /// Non-decreasing (`<=`): used by the validators.
    NonDecreasing,
}

/// Computes the indices (ascending) of one longest non-decreasing
/// subsequence of `seq`.
///
/// `O(m log m)` time, `O(m)` space. Ties are resolved so that the
/// lexicographically-first witness among optimal tails is produced, but any
/// caller must only rely on (a) the indices being strictly increasing,
/// (b) the projected values being non-decreasing, and (c) maximal length.
pub fn lnds_indices<T: Ord>(seq: &[T]) -> Vec<u32> {
    subsequence_indices(seq, Monotonicity::NonDecreasing)
}

/// Computes the indices (ascending) of one longest strictly increasing
/// subsequence of `seq`.
pub fn lis_indices<T: Ord>(seq: &[T]) -> Vec<u32> {
    subsequence_indices(seq, Monotonicity::Strict)
}

/// Length of the longest subsequence of `seq` under `mode`, provided at
/// most `budget` elements lie outside it; `None` otherwise.
///
/// Returns `Some(k)` exactly when `seq.len() - k <= budget`. It stops
/// early: after reading `seq[..=i]`, at least `i + 1 - tails.len()`
/// elements of that prefix are outside every optimal subsequence of it,
/// and the longest subsequence of the whole sequence keeps no more of the
/// prefix than that, so the kernel returns `None` as soon as this
/// lower bound exceeds `budget`. Pass `usize::MAX` for the plain length.
///
/// `tails` is caller-provided scratch, cleared on entry, so a hot loop
/// computing one length per context class reuses its capacity and does
/// not allocate per call. It holds at most `seq.len()` values.
pub fn subsequence_length_within<T: Ord + Copy>(
    seq: &[T],
    mode: Monotonicity,
    budget: usize,
    tails: &mut Vec<T>,
) -> Option<usize> {
    // One monomorphised loop per mode keeps the comparison out of the
    // per-probe branch.
    match mode {
        Monotonicity::NonDecreasing => value_tails(seq, budget, tails, |tail, v| tail <= v),
        Monotonicity::Strict => value_tails(seq, budget, tails, |tail, v| tail < v),
    }
}

/// The bounded value-tails loop behind [`subsequence_length_within`];
/// `extends(tail, v)` says whether `v` may follow `tail`.
#[inline(always)]
fn value_tails<T: Copy>(
    seq: &[T],
    budget: usize,
    tails: &mut Vec<T>,
    extends: impl Fn(&T, &T) -> bool,
) -> Option<usize> {
    // tails[k] = smallest tail value of a subsequence of length k+1 seen
    // so far; non-decreasing in k.
    tails.clear();
    for (i, v) in seq.iter().enumerate() {
        match tails.last() {
            Some(last) if !extends(last, v) => {
                // `v` cannot extend the longest pile: it replaces the first
                // tail it cannot follow, which exists because the last
                // tail is one. The length stays, so the prefix's removal
                // lower bound grows by one; only this branch can bust it.
                let pos = tails.partition_point(|tail| extends(tail, v));
                tails[pos] = *v;
                if i + 1 - tails.len() > budget {
                    return None;
                }
            }
            _ => tails.push(*v),
        }
    }
    Some(tails.len())
}

/// Full patience algorithm with parent pointers; returns indices of one
/// optimal subsequence.
fn subsequence_indices<T: Ord>(seq: &[T], mode: Monotonicity) -> Vec<u32> {
    if seq.is_empty() {
        return Vec::new();
    }
    let mut tails: Vec<u32> = Vec::new();
    // parent[i] = index of the predecessor of seq[i] in the best subsequence
    // ending at i, or u32::MAX for none.
    let mut parent: Vec<u32> = vec![u32::MAX; seq.len()];
    for (i, v) in seq.iter().enumerate() {
        let pos = insertion_point(seq, &tails, v, mode);
        if pos > 0 {
            parent[i] = tails[pos - 1];
        }
        if pos == tails.len() {
            tails.push(i as u32);
        } else {
            tails[pos] = i as u32;
        }
    }
    let mut out = Vec::with_capacity(tails.len());
    let mut cur = *tails.last().expect("non-empty seq has a tail");
    loop {
        out.push(cur);
        if parent[cur as usize] == u32::MAX {
            break;
        }
        cur = parent[cur as usize];
    }
    out.reverse();
    out
}

/// Binary search for the patience pile `v` lands on.
///
/// For non-decreasing subsequences we replace the first tail **greater
/// than** `v` (upper bound); for strictly increasing the first tail
/// **greater than or equal to** `v` (lower bound).
#[inline]
fn insertion_point<T: Ord>(seq: &[T], tails: &[u32], v: &T, mode: Monotonicity) -> usize {
    tails.partition_point(|&t| match mode {
        Monotonicity::NonDecreasing => seq[t as usize] <= *v,
        Monotonicity::Strict => seq[t as usize] < *v,
    })
}

/// Quadratic dynamic-programming reference implementation.
///
/// Exists so property tests can cross-check the `O(m log m)` algorithm;
/// returns only the optimal length.
pub fn lnds_length_brute<T: Ord>(seq: &[T], mode: Monotonicity) -> usize {
    let n = seq.len();
    let mut best = vec![1usize; n];
    let mut answer = 0usize;
    for i in 0..n {
        for j in 0..i {
            let ok = match mode {
                Monotonicity::NonDecreasing => seq[j] <= seq[i],
                Monotonicity::Strict => seq[j] < seq[i],
            };
            if ok && best[j] + 1 > best[i] {
                best[i] = best[j] + 1;
            }
        }
        answer = answer.max(best[i]);
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_subsequence(seq: &[u32], idx: &[u32], mode: Monotonicity) {
        for w in idx.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing: {idx:?}");
            let (a, b) = (seq[w[0] as usize], seq[w[1] as usize]);
            match mode {
                Monotonicity::NonDecreasing => {
                    assert!(a <= b, "not non-decreasing: {seq:?} {idx:?}")
                }
                Monotonicity::Strict => assert!(a < b, "not strict: {seq:?} {idx:?}"),
            }
        }
    }

    #[test]
    fn paper_example_3_2() {
        // Projection of Table 1 over `tax` after sorting by [sal, tax]:
        // [2K, 2.5K, 0.3K, 12K, 1.5K, 16.5K, 1.8K, 7.2K, 16K] (in hundreds).
        let tax = [20, 25, 3, 120, 15, 165, 18, 72, 160];
        let idx = lnds_indices(&tax);
        assert_eq!(idx.len(), 5);
        let vals: Vec<u32> = idx.iter().map(|&i| tax[i as usize]).collect();
        // The paper's LNDS: [0.3K, 1.5K, 1.8K, 7.2K, 16K].
        assert_eq!(vals, vec![3, 15, 18, 72, 160]);
        // Removal set = rows {t1, t2, t4, t6} => positions {0, 1, 3, 5}.
        let removed: Vec<u32> = (0..9).filter(|i| !idx.contains(i)).collect();
        assert_eq!(removed, vec![0, 1, 3, 5]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(lnds_indices::<u32>(&[]), Vec::<u32>::new());
        assert_eq!(lnds_indices(&[7u32]), vec![0]);
        assert_eq!(lis_indices::<u32>(&[]), Vec::<u32>::new());
    }

    #[test]
    fn all_equal_values() {
        let seq = [5u32; 6];
        assert_eq!(lnds_indices(&seq).len(), 6); // non-decreasing keeps all
        assert_eq!(lis_indices(&seq).len(), 1); // strict keeps one
    }

    #[test]
    fn decreasing_sequence() {
        let seq = [9u32, 7, 5, 3, 1];
        assert_eq!(lnds_indices(&seq).len(), 1);
        assert_eq!(lis_indices(&seq).len(), 1);
    }

    #[test]
    fn sorted_sequence_keeps_everything() {
        let seq = [1u32, 2, 2, 3, 10];
        assert_eq!(lnds_indices(&seq).len(), 5);
        assert_eq!(lis_indices(&seq).len(), 4); // one of the 2s dropped
    }

    #[test]
    fn classic_lis_case() {
        let seq = [10u32, 9, 2, 5, 3, 7, 101, 18];
        let idx = lis_indices(&seq);
        assert_eq!(idx.len(), 4); // e.g. 2,3,7,18
        assert_valid_subsequence(&seq, &idx, Monotonicity::Strict);
    }

    #[test]
    fn brute_force_agreement_small_exhaustive() {
        // Every sequence over {0,1,2} of length <= 7, against every
        // removal budget of the bounded kernel.
        let mut tails = Vec::new();
        for len in 0..=7usize {
            let mut seq = vec![0u32; len];
            loop {
                for mode in [Monotonicity::NonDecreasing, Monotonicity::Strict] {
                    let brute = lnds_length_brute(&seq, mode);
                    let fast = subsequence_indices(&seq, mode);
                    assert_valid_subsequence(&seq, &fast, mode);
                    assert_eq!(fast.len(), brute, "length mismatch on {seq:?} ({mode:?})");
                    for budget in 0..=len {
                        let bounded = subsequence_length_within(&seq, mode, budget, &mut tails);
                        let expected = (len - brute <= budget).then_some(brute);
                        assert_eq!(bounded, expected, "budget {budget} on {seq:?} ({mode:?})");
                    }
                }
                // next sequence in base-3 counting
                let mut i = 0;
                while i < len {
                    seq[i] += 1;
                    if seq[i] < 3 {
                        break;
                    }
                    seq[i] = 0;
                    i += 1;
                }
                if i == len {
                    break;
                }
            }
            if len == 0 {
                continue;
            }
        }
    }

    #[test]
    fn works_with_generic_ord_types() {
        let words = ["apple", "bee", "bee", "ant", "cat"];
        let idx = lnds_indices(&words);
        assert_eq!(idx.len(), 4); // apple, bee, bee, cat
    }
}
