//! Inversion counting.
//!
//! The iterative baseline validator (Algorithm 1) needs, per tuple, the
//! number of *swaps* that tuple participates in. After a context class is
//! sorted by `[A asc, B asc]`, the swaps are exactly the strict inversions of
//! the `B` projection (pairs `i < j` with `B[j] < B[i]`): equal-`A` pairs are
//! tie-broken ascending by `B` and therefore contribute no inversion, and
//! equal-`B` pairs are not swaps by Definition 2.5.
//!
//! [`per_element_inversions_compressed`] yields those per-element
//! participation counts with two Fenwick-tree passes in `O(m log m)`. (The
//! paper keeps per-tuple `swapCnt`s; a Fenwick tree yields identical counts
//! with identical asymptotics and is simpler to update-test.)

/// A Fenwick (binary indexed) tree over prefix sums of counts.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over the value domain `0..size`.
    fn new(size: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; size + 1],
        }
    }

    /// Adds `delta` occurrences of value `idx`.
    fn add(&mut self, idx: usize, delta: u32) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of values `< idx` inserted so far.
    fn prefix(&self, idx: usize) -> u32 {
        let mut i = idx;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Clears the tree for reuse without reallocating.
    fn clear(&mut self) {
        self.tree.iter_mut().for_each(|v| *v = 0);
    }
}

/// Per-element strict inversion participation counts.
///
/// `out[i]` = number of `j` such that `(min(i,j), max(i,j))` is an inversion
/// involving `i`, i.e. `#(j < i, seq[j] > seq[i]) + #(j > i, seq[j] < seq[i])`.
/// Values must be dense-ish (`max(seq) = O(m)` for the Fenwick tree to stay
/// linear in memory); [`per_element_inversions_compressed`] compresses its
/// input to dense ranks first.
fn per_element_inversions(seq: &[u32]) -> Vec<u32> {
    let domain = seq.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut counts = vec![0u32; seq.len()];
    let mut fen = Fenwick::new(domain);
    // Pass 1 (left to right): earlier elements strictly greater than seq[i].
    for (i, &v) in seq.iter().enumerate() {
        let le = fen.prefix(v as usize + 1); // elements <= v so far
        counts[i] += i as u32 - le;
        fen.add(v as usize, 1);
    }
    fen.clear();
    // Pass 2 (right to left): later elements strictly smaller than seq[i].
    for (i, &v) in seq.iter().enumerate().rev() {
        counts[i] += fen.prefix(v as usize); // elements < v to the right
        fen.add(v as usize, 1);
    }
    counts
}

/// Per-element strict inversion participation counts of arbitrary `Ord`
/// values: `out[i]` counts the `j` with `j < i, seq[j] > seq[i]` or
/// `j > i, seq[j] < seq[i]`. The values are compressed to dense ranks, then
/// counted with two Fenwick-tree passes.
pub fn per_element_inversions_compressed<T: Ord>(seq: &[T]) -> Vec<u32> {
    let mut sorted: Vec<&T> = seq.iter().collect();
    sorted.sort();
    sorted.dedup();
    let compressed: Vec<u32> = seq
        .iter()
        .map(|v| sorted.partition_point(|&s| s < v) as u32)
        .collect();
    per_element_inversions(&compressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_total(seq: &[u32]) -> u64 {
        let mut count = 0;
        for i in 0..seq.len() {
            for j in i + 1..seq.len() {
                if seq[j] < seq[i] {
                    count += 1;
                }
            }
        }
        count
    }

    fn brute_per_element(seq: &[u32]) -> Vec<u32> {
        let n = seq.len();
        let mut counts = vec![0u32; n];
        for i in 0..n {
            for j in i + 1..n {
                if seq[j] < seq[i] {
                    counts[i] += 1;
                    counts[j] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn per_element_paper_example() {
        // Table 1 sorted by [sal asc, tax asc]; tax projection in hundreds.
        let tax = [20u32, 25, 3, 120, 15, 165, 18, 72, 160];
        let counts = per_element_inversions(&tax);
        // t7 (tax 1.8K, position 6) has swaps with t1, t2, t4, t6 -> 4.
        assert_eq!(counts[6], 4);
        // That is the maximum in the class (Example 3.1).
        assert_eq!(*counts.iter().max().unwrap(), 4);
        assert_eq!(counts.iter().filter(|&&c| c == 4).count(), 1);
    }

    #[test]
    fn per_element_matches_brute_exhaustive() {
        // All sequences over {0..3} of length <= 6.
        for len in 0..=6usize {
            let mut seq = vec![0u32; len];
            loop {
                assert_eq!(
                    per_element_inversions(&seq),
                    brute_per_element(&seq),
                    "{seq:?}"
                );
                let mut i = 0;
                while i < len {
                    seq[i] += 1;
                    if seq[i] < 4 {
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
    fn per_element_sum_is_twice_total() {
        let seq = [9u32, 1, 8, 2, 7, 3, 6, 4, 5, 0];
        let counts = per_element_inversions(&seq);
        let total = brute_total(&seq);
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 2 * total);
    }

    #[test]
    fn compressed_variant_handles_sparse_values() {
        let sparse = [1_000_000u32, 5, 999_999, 5];
        let compressed = per_element_inversions_compressed(&sparse);
        assert_eq!(compressed, brute_per_element(&[2, 0, 1, 0]));
    }

    #[test]
    fn compressed_variant_handles_strings() {
        let words = ["pear", "apple", "orange", "apple"];
        let counts = per_element_inversions_compressed(&words);
        // Inverting pairs: (pear,apple), (pear,orange), (pear,apple),
        // (orange,apple) -> pear participates 3x, orange 2x, the second
        // apple 2x, the first apple once.
        assert_eq!(counts, vec![3, 1, 2, 2]);
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(10);
        f.add(3, 1);
        f.add(3, 1);
        f.add(7, 1);
        assert_eq!(f.prefix(3), 0);
        assert_eq!(f.prefix(4), 2);
        assert_eq!(f.prefix(8), 3);
        assert_eq!(f.prefix(10), 3);
        f.clear();
        assert_eq!(f.prefix(10), 0);
    }
}
