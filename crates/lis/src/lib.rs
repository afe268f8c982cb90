//! # aod-lis — subsequence and inversion algorithms
//!
//! The algorithmic substrate behind both AOC validators of the paper:
//!
//! * [`subsequence_length_within`] — the bounded length kernel of the
//!   **optimal** validator (Algorithm 2): the patience/Fredman tails
//!   algorithm in `O(m log m)` with *value* tails, an append fast path for
//!   values that extend the longest pile, and an early `None` once the
//!   prefix read so far needs more removals than the caller's budget.
//!   [`lnds_length`] / [`lis_length`] are its unlimited-budget calls.
//! * [`lnds_indices`] / [`lis_indices`] — one longest non-decreasing /
//!   strictly increasing subsequence as indices (parent pointers), for
//!   reporting the minimal removal set itself.
//! * [`count_inversions`] / [`per_element_inversions`] — merge-sort and
//!   Fenwick-tree inversion counting, the core of the **iterative** baseline
//!   validator (Algorithm 1).
//!
//! Brute-force reference implementations ([`lnds_length_brute`],
//! `per_element_inversions_compressed`'s tests) back the property tests.
//!
//! ```
//! use aod_lis::{count_inversions, lnds_indices, subsequence_length_within, Monotonicity};
//!
//! let seq = [20u32, 25, 3, 120, 15, 165, 18, 72, 160];
//! assert_eq!(lnds_indices(&seq).len(), 5); // keep 5, remove 4 (Example 3.2)
//! let mut tails = Vec::new();
//! let nd = Monotonicity::NonDecreasing;
//! assert_eq!(subsequence_length_within(&seq, nd, 4, &mut tails), Some(5));
//! assert_eq!(subsequence_length_within(&seq, nd, 3, &mut tails), None);
//! assert!(count_inversions(&seq) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inversions;
mod lnds;

pub use inversions::{
    count_inversions, per_element_inversions, per_element_inversions_compressed, Fenwick,
};
pub use lnds::{
    lis_indices, lis_length, lnds_indices, lnds_length, lnds_length_brute,
    subsequence_length_within, Monotonicity,
};
