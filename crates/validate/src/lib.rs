//! # aod-validate — exact and approximate dependency validators
//!
//! Implements Section 3 of *Efficient Discovery of Approximate Order
//! Dependencies* (EDBT 2021):
//!
//! * [`OcValidator`] — the per-candidate engine: **Algorithm 2**
//!   (LNDS-based, minimal and optimal; an exact check is its budget of 0)
//!   and **Algorithm 1** (the iterative PVLDB'17 baseline, quadratic and
//!   non-minimal), plus the descending-tie-break variant for canonical ODs.
//! * [`OcValidatorBackend`] — the pluggable strategy-object form of
//!   Algorithms 2 and 1 ([`strategy_backend`] builds the backend of either
//!   [`AocStrategy`]); the `aod-core` discovery
//!   engine dispatches through this trait, so custom backends drop in
//!   without touching the driver. Exact discovery runs them with a
//!   removal budget of 0, where Algorithm 2's bounded kernel stops at the
//!   first descent — the swap scan.
//! * [`min_removal_ofd`] and friends — linear approximate OFD validation
//!   (TANE's `g₃`).
//! * [`oc_removal_lower_bound`] — a lower bound on an OC's removal count
//!   from four partitions' class counts, which lets discovery reject a
//!   candidate without reading a row.
//! * [`oc_disjoint_swaps`] — a second lower bound on that count: the
//!   disjoint swapped row pairs one linear pass over the context's classes
//!   finds, which lets discovery reject a candidate without sorting.
//! * [`list_od_holds`] / [`list_od_min_removal`] — list-based `X |-> Y`
//!   validation through lexicographic projection ranks (footnote 1).
//! * [`brute_min_removal_oc`] / [`brute_min_removal_od`] — exponential
//!   ground-truth oracles used by the property-test suites, and
//!   [`brute_disjoint_swaps`], a closed-form reference for
//!   [`oc_disjoint_swaps`].
//!
//! High-level one-shot entry points ([`validate_aoc`], [`validate_aofd`],
//! [`validate_aod`]) build the context partition on the fly and report an
//! [`Outcome`] with the approximation factor, mirroring the problem
//! statement of Section 2.3: *given `r`, `φ` and `ε`, decide whether
//! `e(φ) ≤ ε`*.
//!
//! ```
//! use aod_table::{employee_table, RankedTable};
//! use aod_partition::AttrSet;
//! use aod_validate::{validate_aoc, AocStrategy};
//!
//! let t = RankedTable::from_table(&employee_table());
//! // Example 2.15: e(sal ~ tax) = 4/9 ≈ 0.44.
//! let out = validate_aoc(&t, AttrSet::EMPTY, 2, 5, 0.5, AocStrategy::Optimal);
//! assert!(out.is_valid());
//! assert_eq!(out.removed, Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod brute;
mod oc;
mod od;
mod ofd;
mod swap;

pub use backend::{strategy_backend, OcValidatorBackend, SampleVerdict};
pub use brute::{
    brute_disjoint_swaps, brute_min_removal_oc, brute_min_removal_od, brute_min_removal_pairs,
    ViolationKind, MAX_BRUTE_CLASS,
};
pub use oc::{oc_disjoint_swaps, oc_removal_lower_bound, OcValidator, PairMode};
pub use od::{
    list_oc_holds, list_oc_min_removal, list_od_holds, list_od_min_removal, list_od_removal_set,
    projection_ranks,
};
pub use ofd::{min_removal_ofd, removal_set_ofd};
pub use swap::{is_split, is_swap, pack_asc, pack_desc_b};

use aod_partition::{AttrSet, Partition};
use aod_table::RankedTable;

/// The largest removal-set size admissible under threshold `epsilon`:
/// `e(φ) = |s|/n ≤ ε  ⟺  |s| ≤ ⌊ε·n⌋` (removal sets have integer size).
///
/// A small guard absorbs floating-point noise like `0.1 * 30 = 2.9999…`.
///
/// An `epsilon` outside `[0, 1]` is a caller bug: it trips a debug
/// assertion, and release builds clamp into range instead of computing a
/// nonsense budget. Boundary code range-checks first — the CLI's
/// `--epsilon` and the HTTP job spec's `epsilon` each reject a value
/// outside `[0, 1]` — so a bad threshold surfaces as a clean error, never
/// a panic.
pub fn removal_budget(n_rows: usize, epsilon: f64) -> usize {
    debug_assert!(
        (0.0..=1.0).contains(&epsilon),
        "epsilon must be within [0, 1]"
    );
    let epsilon = if epsilon.is_nan() {
        0.0
    } else {
        epsilon.clamp(0.0, 1.0)
    };
    ((epsilon * n_rows as f64) + 1e-9).floor() as usize
}

/// Which AOC validation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AocStrategy {
    /// Algorithm 2 — LNDS-based, minimal removal sets, `O(n log n)`.
    #[default]
    Optimal,
    /// Algorithm 1 — iterative max-swap removal, `O(n log n + εn²)`,
    /// may overestimate.
    Iterative,
}

impl AocStrategy {
    /// Short stable name ("optimal", "iterative") for logs, wire
    /// encodings and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AocStrategy::Optimal => "optimal",
            AocStrategy::Iterative => "iterative",
        }
    }

    /// The inverse of [`name`](AocStrategy::name). This is the one shared
    /// name→strategy mapping for every validation boundary (CLI flags,
    /// HTTP job specs), so the accepted set can't drift between surfaces.
    ///
    /// # Errors
    /// An unknown name is a user-facing error.
    pub fn from_name(name: &str) -> Result<AocStrategy, String> {
        match name {
            "optimal" => Ok(AocStrategy::Optimal),
            "iterative" => Ok(AocStrategy::Iterative),
            other => Err(format!("unknown strategy `{other}` (optimal|iterative)")),
        }
    }
}

/// Result of validating one approximate dependency against a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Removal-set size found, or `None` when validation aborted because
    /// the count exceeded the budget (the paper's "INVALID").
    pub removed: Option<usize>,
    /// The admissible budget `⌊ε·n⌋`.
    pub budget: usize,
    /// Table size the factor is relative to.
    pub n_rows: usize,
}

impl Outcome {
    /// `true` iff the dependency holds approximately w.r.t. the threshold.
    pub fn is_valid(&self) -> bool {
        matches!(self.removed, Some(r) if r <= self.budget)
    }

    /// The approximation factor `e(φ) = |s| / n`, when known.
    pub fn factor(&self) -> Option<f64> {
        match (self.removed, self.n_rows) {
            (Some(_), 0) => Some(0.0),
            (Some(r), n) => Some(r as f64 / n as f64),
            (None, _) => None,
        }
    }
}

/// Validates the canonical AOC `context: A ~ B` against `epsilon`,
/// building `Π_context` on the fly.
pub fn validate_aoc(
    table: &RankedTable,
    context: AttrSet,
    a: usize,
    b: usize,
    epsilon: f64,
    strategy: AocStrategy,
) -> Outcome {
    let ctx = Partition::for_attrs(table, context.iter());
    let budget = removal_budget(table.n_rows(), epsilon);
    let (ar, br) = (table.column(a).ranks(), table.column(b).ranks());
    let mut v = OcValidator::new();
    let removed = match strategy {
        AocStrategy::Optimal => v.min_removal_optimal(&ctx, ar, br, budget),
        AocStrategy::Iterative => v.min_removal_iterative(&ctx, ar, br, budget),
    };
    Outcome {
        removed,
        budget,
        n_rows: table.n_rows(),
    }
}

/// Validates the approximate OFD `context: [] |-> A` against `epsilon`.
pub fn validate_aofd(table: &RankedTable, context: AttrSet, a: usize, epsilon: f64) -> Outcome {
    let ctx = Partition::for_attrs(table, context.iter());
    let budget = removal_budget(table.n_rows(), epsilon);
    let col = table.column(a);
    let removed = min_removal_ofd(&ctx, col.ranks(), col.n_distinct(), budget);
    Outcome {
        removed,
        budget,
        n_rows: table.n_rows(),
    }
}

/// Validates the canonical AOD `context: A |-> B` (splits **and** swaps)
/// against `epsilon`, using the Section 3.3 descending tie-break.
pub fn validate_aod(
    table: &RankedTable,
    context: AttrSet,
    a: usize,
    b: usize,
    epsilon: f64,
) -> Outcome {
    let ctx = Partition::for_attrs(table, context.iter());
    let budget = removal_budget(table.n_rows(), epsilon);
    let (ar, br) = (table.column(a).ranks(), table.column(b).ranks());
    let removed = OcValidator::new().min_removal_od(&ctx, ar, br, budget);
    Outcome {
        removed,
        budget,
        n_rows: table.n_rows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};
    use proptest::prelude::*;

    #[test]
    fn removal_budget_boundaries() {
        assert_eq!(removal_budget(9, 0.0), 0);
        assert_eq!(removal_budget(9, 1.0), 9);
        assert_eq!(removal_budget(9, 0.44), 3); // 3.96 floors to 3
        assert_eq!(removal_budget(9, 4.0 / 9.0), 4); // exactly representable intent
        assert_eq!(removal_budget(30, 0.1), 3); // fp guard: 0.1*30 = 2.9999…
        assert_eq!(removal_budget(0, 0.5), 0);
    }

    // A debug assertion, not a release panic: boundaries (CLI / HTTP)
    // range-check first.
    // Gated on debug_assertions so `cargo test --release` (which compiles
    // the assertion out and clamps instead) doesn't expect a panic.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn removal_budget_rejects_bad_epsilon_in_debug() {
        removal_budget(10, 1.5);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn removal_budget_clamps_bad_epsilon_in_release() {
        assert_eq!(removal_budget(10, 1.5), 10);
        assert_eq!(removal_budget(10, -3.0), 0);
        assert_eq!(removal_budget(10, f64::NAN), 0);
    }

    #[test]
    fn strategy_from_name_round_trips_and_validates() {
        assert_eq!(AocStrategy::Optimal.name(), "optimal");
        assert_eq!(AocStrategy::Iterative.name(), "iterative");
        // Round trip: every strategy parses back from its own name.
        for s in [AocStrategy::Optimal, AocStrategy::Iterative] {
            assert_eq!(AocStrategy::from_name(s.name()), Ok(s));
        }
        // Boundary errors, shared by CLI and HTTP surfaces.
        for bad in ["fast", "hybrid"] {
            assert!(AocStrategy::from_name(bad)
                .unwrap_err()
                .contains("unknown strategy"));
        }
    }

    #[test]
    fn outcome_semantics() {
        let valid = Outcome {
            removed: Some(2),
            budget: 3,
            n_rows: 10,
        };
        assert!(valid.is_valid());
        assert_eq!(valid.factor(), Some(0.2));
        let invalid = Outcome {
            removed: None,
            budget: 3,
            n_rows: 10,
        };
        assert!(!invalid.is_valid());
        assert_eq!(invalid.factor(), None);
        let over = Outcome {
            removed: Some(4),
            budget: 3,
            n_rows: 10,
        };
        assert!(!over.is_valid());
    }

    #[test]
    fn paper_example_2_15_through_high_level_api() {
        let t = RankedTable::from_table(&employee_table());
        // e(sal ~ tax) = 4/9 ≈ 0.44: valid at ε = 0.45, invalid at ε = 0.40.
        let hi = validate_aoc(&t, AttrSet::EMPTY, 2, 5, 0.45, AocStrategy::Optimal);
        assert!(hi.is_valid());
        assert!((hi.factor().unwrap() - 4.0 / 9.0).abs() < 1e-12);
        let lo = validate_aoc(&t, AttrSet::EMPTY, 2, 5, 0.40, AocStrategy::Optimal);
        assert!(!lo.is_valid());
    }

    #[test]
    fn iterative_misses_near_threshold_aoc() {
        // The pattern behind Exp-4: the iterative algorithm overestimates
        // e(sal ~ tax) as 5/9 ≈ 0.56, so at ε = 0.5 it wrongly rejects.
        let t = RankedTable::from_table(&employee_table());
        let opt = validate_aoc(&t, AttrSet::EMPTY, 2, 5, 0.5, AocStrategy::Optimal);
        let it = validate_aoc(&t, AttrSet::EMPTY, 2, 5, 0.5, AocStrategy::Iterative);
        assert!(opt.is_valid());
        assert!(!it.is_valid());
    }

    #[test]
    fn aofd_and_aod_high_level() {
        let t = RankedTable::from_table(&employee_table());
        // {pos,exp}: [] |-> sal has factor 1/9.
        let ofd = validate_aofd(&t, AttrSet::from_attrs([0, 1]), 2, 0.2);
        assert!(ofd.is_valid());
        assert_eq!(ofd.removed, Some(1));
        // {}: sal |-> taxGrp holds exactly.
        let od = validate_aod(&t, AttrSet::EMPTY, 2, 3, 0.0);
        assert!(od.is_valid());
        assert_eq!(od.removed, Some(0));
    }

    /// Strategy: a small table as two rank columns plus a context column
    /// with few distinct values, so contexts have multiple classes.
    fn small_instance() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<u32>)> {
        (1usize..14).prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..6, n),
                proptest::collection::vec(0u32..6, n),
                proptest::collection::vec(0u32..3, n),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Theorem 3.3: Algorithm 2 finds a *minimal* removal set, and its
        /// early exit (between and inside classes) answers every limit.
        #[test]
        fn optimal_oc_matches_brute_force((a, b, ctx_vals) in small_instance()) {
            let n = a.len();
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let fast = v.min_removal_optimal(&ctx, &a, &b, usize::MAX).unwrap();
            let brute = brute_min_removal_oc(&ctx, &a, &b);
            prop_assert_eq!(fast, brute);
            prop_assert!(fast <= n);
            for limit in 0..=brute + 1 {
                let bounded = v.min_removal_optimal(&ctx, &a, &b, limit);
                prop_assert_eq!(bounded, (brute <= limit).then_some(brute), "limit {}", limit);
            }
        }

        /// The disjoint swapped pairs are the closed-form reference's
        /// count, or `limit + 1` under every limit that count exceeds.
        #[test]
        fn disjoint_swaps_match_the_reference((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let count = brute_disjoint_swaps(&ctx, &a, &b);
            for limit in (0..=count + 1).chain([usize::MAX]) {
                let expected = if count > limit { limit + 1 } else { count };
                prop_assert_eq!(oc_disjoint_swaps(&ctx, &a, &b, limit), expected, "limit {}", limit);
            }
        }

        /// The OD variant (desc tie-break) is minimal for swap+split
        /// removal, under every limit.
        #[test]
        fn optimal_od_matches_brute_force((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let fast = v.min_removal_od(&ctx, &a, &b, usize::MAX).unwrap();
            let brute = brute_min_removal_od(&ctx, &a, &b);
            prop_assert_eq!(fast, brute);
            for limit in 0..=brute + 1 {
                let bounded = v.min_removal_od(&ctx, &a, &b, limit);
                prop_assert_eq!(bounded, (brute <= limit).then_some(brute), "limit {}", limit);
            }
        }

        /// The iterative baseline never *under*estimates (it may overestimate).
        #[test]
        fn iterative_upper_bounds_optimal((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let opt = v.min_removal_optimal(&ctx, &a, &b, usize::MAX).unwrap();
            let it = v.min_removal_iterative(&ctx, &a, &b, usize::MAX).unwrap();
            prop_assert!(it >= opt);
        }

        /// The iterative algorithm's removal set, while possibly non-minimal,
        /// is still a *removal set*: removing it makes the OC hold.
        #[test]
        fn iterative_set_repairs_the_oc((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let set = v.removal_set_iterative(&ctx, &a, &b);
            let keep: Vec<u32> = (0..a.len() as u32).filter(|r| !set.contains(r)).collect();
            let a2: Vec<u32> = keep.iter().map(|&r| a[r as usize]).collect();
            let b2: Vec<u32> = keep.iter().map(|&r| b[r as usize]).collect();
            let c2: Vec<u32> = keep.iter().map(|&r| ctx_vals[r as usize]).collect();
            let ctx2 = aod_partition::Partition::from_ranks(&c2, 3);
            prop_assert!(v.exact_oc_holds(&ctx2, &a2, &b2));
        }

        /// Optimal removal sets repair the OC and match the reported size.
        #[test]
        fn optimal_set_repairs_and_matches_count((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let count = v.min_removal_optimal(&ctx, &a, &b, usize::MAX).unwrap();
            let set = v.removal_set_optimal(&ctx, &a, &b);
            prop_assert_eq!(set.len(), count);
            let keep: Vec<u32> = (0..a.len() as u32).filter(|r| !set.contains(r)).collect();
            let a2: Vec<u32> = keep.iter().map(|&r| a[r as usize]).collect();
            let b2: Vec<u32> = keep.iter().map(|&r| b[r as usize]).collect();
            let c2: Vec<u32> = keep.iter().map(|&r| ctx_vals[r as usize]).collect();
            let ctx2 = aod_partition::Partition::from_ranks(&c2, 3);
            prop_assert!(v.exact_oc_holds(&ctx2, &a2, &b2));
        }

        /// Exact validation agrees with "minimal removal set is empty".
        #[test]
        fn exact_iff_zero_removals((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let holds = v.exact_oc_holds(&ctx, &a, &b);
            let removed = v.min_removal_optimal(&ctx, &a, &b, usize::MAX).unwrap();
            prop_assert_eq!(holds, removed == 0);
            let od_holds = v.exact_od_holds(&ctx, &a, &b);
            let od_removed = v.min_removal_od(&ctx, &a, &b, usize::MAX).unwrap();
            prop_assert_eq!(od_holds, od_removed == 0);
        }

        /// OCs are symmetric (Definition 2.3): validating A ~ B and B ~ A
        /// yields the same minimal removal size.
        #[test]
        fn oc_is_symmetric((a, b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let mut v = OcValidator::new();
            let ab = v.min_removal_optimal(&ctx, &a, &b, usize::MAX).unwrap();
            let ba = v.min_removal_optimal(&ctx, &b, &a, usize::MAX).unwrap();
            prop_assert_eq!(ab, ba);
        }

        /// OFD minimal removal matches a brute-force majority count.
        #[test]
        fn ofd_matches_majority_rule((a, _b, ctx_vals) in small_instance()) {
            let ctx = aod_partition::Partition::from_ranks(&ctx_vals, 3);
            let fast = min_removal_ofd(&ctx, &a, 6, usize::MAX).unwrap();
            let mut brute = 0usize;
            for class in ctx.classes() {
                let mut counts = [0usize; 6];
                for &row in class {
                    counts[a[row as usize] as usize] += 1;
                }
                brute += class.len() - counts.iter().max().unwrap();
            }
            prop_assert_eq!(fast, brute);
        }
    }
}
