//! # aod-lis — subsequence and inversion algorithms
//!
//! The algorithmic substrate behind both AOC validators of the paper:
//!
//! * [`subsequence_length_within`] — the bounded length kernel of the
//!   **optimal** validator (Algorithm 2): the patience/Fredman tails
//!   algorithm in `O(m log m)` with *value* tails, an append fast path for
//!   values that extend the longest pile, and an early `None` once the
//!   prefix read so far needs more removals than the caller's budget.
//! * [`lnds_indices`] / [`lis_indices`] — one longest non-decreasing /
//!   strictly increasing subsequence as indices (parent pointers), for
//!   reporting the minimal removal set itself.
//! * [`per_element_inversions_compressed`] — per-element inversion counts
//!   by two Fenwick-tree passes, the core of the **iterative** baseline
//!   validator (Algorithm 1).
//!
//! Brute-force reference implementations ([`lnds_length_brute`] and the
//! inversion module's tests) back the property tests.
//!
//! ```
//! use aod_lis::{
//!     lnds_indices, per_element_inversions_compressed, subsequence_length_within, Monotonicity,
//! };
//!
//! let seq = [20u32, 25, 3, 120, 15, 165, 18, 72, 160];
//! assert_eq!(lnds_indices(&seq).len(), 5); // keep 5, remove 4 (Example 3.2)
//! let mut tails = Vec::new();
//! let nd = Monotonicity::NonDecreasing;
//! assert_eq!(subsequence_length_within(&seq, nd, 4, &mut tails), Some(5));
//! assert_eq!(subsequence_length_within(&seq, nd, 3, &mut tails), None);
//! // 1.8K (index 6) swaps with four earlier, larger values (Example 3.1).
//! assert_eq!(per_element_inversions_compressed(&seq)[6], 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inversions;
mod lnds;

pub use inversions::per_element_inversions_compressed;
pub use lnds::{
    lis_indices, lnds_indices, lnds_length_brute, subsequence_length_within, Monotonicity,
};
