//! Metamorphic relations over the whole discovery pipeline: change the
//! input in a way the OD definitions say cannot matter, then require the
//! same output, on random small-domain tables at ε ∈ {0, 0.1}.
//!
//! * (a) Permuting the rows changes no reported OC or OFD — contexts,
//!   pairs, removal counts, factors and coverage — for both strategies.
//! * (b) Permuting the columns renames the dependency set through the
//!   permutation for the optimal strategy. Algorithm 1 is not symmetric in
//!   `A` and `B`, and a candidate's orientation follows column order, so
//!   `iterative` is not held to (b).
//! * (c) Repeating every row `k` times, at an ε whose budget grows `k`-fold
//!   with the rows, keeps the contexts, pairs and factors of the optimal
//!   strategy and multiplies every removal count by `k`. Coverage is not
//!   compared: repeated rows are never singletons.
//! * (d) Reversing the value order of every column changes no dependency
//!   of the optimal strategy.
//! * (e) A run scoped to a column set `S` reports exactly the dependencies
//!   of the full run whose columns lie in `S`, for the optimal strategy.
//!   The scoped lattice has fewer nodes, so pruning facts and the
//!   candidates answered from an equal sub-context partition fall at
//!   different nodes; the output must not move.

use aod::prelude::*;
use proptest::prelude::*;

/// Columns of a table with 5–60 rows and 3–6 columns over domains of at
/// most five values, plus a random row order and column order.
fn case() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<usize>, Vec<usize>)> {
    (5usize..=60, 3usize..=6)
        .prop_flat_map(|(n, k)| {
            let column = (1u32..6).prop_flat_map(move |d| proptest::collection::vec(0..d, n));
            (
                proptest::collection::vec(column, k),
                proptest::collection::vec(0u64..u64::MAX, n),
                proptest::collection::vec(0u64..u64::MAX, k),
            )
        })
        .prop_map(|(cols, row_keys, col_keys)| (cols, order(&row_keys), order(&col_keys)))
}

/// The permutation that sorts `keys`.
fn order(keys: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by_key(|&i| (keys[i], i));
    idx
}

fn run(cols: &[Vec<u32>], epsilon: f64, strategy: AocStrategy) -> DiscoveryResult {
    let table = RankedTable::from_u32_columns(cols.to_vec());
    DiscoveryBuilder::new()
        .approximate(epsilon)
        .strategy(strategy)
        .run(&table)
}

/// The dependencies of `r` with column `c` renamed `to[c]`, OC pairs
/// normalised to `a < b`, in sorted order.
fn renamed(r: &DiscoveryResult, to: &[usize]) -> (Vec<OcDep>, Vec<OfdDep>) {
    let set = |s: AttrSet| AttrSet::from_attrs(s.iter().map(|c| to[c]));
    let (mut ocs, mut ofds) = (r.ocs.clone(), r.ofds.clone());
    for d in &mut ocs {
        let (a, b) = (to[d.a], to[d.b]);
        (d.context, d.a, d.b) = (set(d.context), a.min(b), a.max(b));
    }
    for d in &mut ofds {
        (d.context, d.rhs) = (set(d.context), to[d.rhs]);
    }
    ocs.sort_by_key(|d| (d.context, d.a, d.b));
    ofds.sort_by_key(|d| (d.context, d.rhs));
    (ocs, ofds)
}

/// The dependencies of `r` with every removal count multiplied by `k` and
/// coverage left out.
fn scaled(r: &DiscoveryResult, k: usize) -> (Vec<OcDep>, Vec<OfdDep>) {
    let (mut ocs, mut ofds) = (r.ocs.clone(), r.ofds.clone());
    for d in &mut ocs {
        (d.removed, d.coverage) = (d.removed * k, 0.0);
    }
    for d in &mut ofds {
        (d.removed, d.coverage) = (d.removed * k, 0.0);
    }
    (ocs, ofds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Row ids carry no meaning.
    #[test]
    fn permuting_rows_changes_no_dependency((cols, rows, _) in case()) {
        let permuted: Vec<Vec<u32>> =
            cols.iter().map(|c| rows.iter().map(|&r| c[r]).collect()).collect();
        for epsilon in [0.0, 0.1] {
            for strategy in [AocStrategy::Optimal, AocStrategy::Iterative] {
                let (base, moved) = (run(&cols, epsilon, strategy), run(&permuted, epsilon, strategy));
                prop_assert_eq!(&moved.ocs, &base.ocs, "ε {} {:?}", epsilon, strategy);
                prop_assert_eq!(&moved.ofds, &base.ofds, "ε {} {:?}", epsilon, strategy);
            }
        }
    }

    /// (b) Column `c` of the table becomes column `perm[c]`.
    #[test]
    fn permuting_columns_renames_the_dependencies((cols, _, perm) in case()) {
        let mut permuted = vec![Vec::new(); cols.len()];
        for (c, col) in cols.iter().enumerate() {
            permuted[perm[c]] = col.clone();
        }
        let identity: Vec<usize> = (0..cols.len()).collect();
        for epsilon in [0.0, 0.1] {
            let want = renamed(&run(&cols, epsilon, AocStrategy::Optimal), &perm);
            let got = renamed(&run(&permuted, epsilon, AocStrategy::Optimal), &identity);
            prop_assert_eq!(got, want, "ε {}", epsilon);
        }
    }

    /// (c) Each row becomes `k` equal rows.
    #[test]
    fn repeating_rows_scales_the_removal_counts((cols, _, _) in case()) {
        let n = cols[0].len();
        for epsilon in [0.0, 0.1] {
            let base = run(&cols, epsilon, AocStrategy::Optimal);
            for k in [2usize, 3] {
                if removal_budget(k * n, epsilon) != k * removal_budget(n, epsilon) {
                    continue;
                }
                let repeated: Vec<Vec<u32>> = cols
                    .iter()
                    .map(|c| c.iter().flat_map(|&v| std::iter::repeat(v).take(k)).collect())
                    .collect();
                let got = scaled(&run(&repeated, epsilon, AocStrategy::Optimal), 1);
                prop_assert_eq!(got, scaled(&base, k), "k {} ε {}", k, epsilon);
            }
        }
    }

    /// (d) Value `v` of every column becomes `u32::MAX − v`.
    #[test]
    fn reversing_every_column_changes_no_dependency((cols, _, _) in case()) {
        let reversed: Vec<Vec<u32>> =
            cols.iter().map(|c| c.iter().map(|&v| u32::MAX - v).collect()).collect();
        for epsilon in [0.0, 0.1] {
            let base = run(&cols, epsilon, AocStrategy::Optimal);
            let flipped = run(&reversed, epsilon, AocStrategy::Optimal);
            prop_assert_eq!(&flipped.ocs, &base.ocs, "ε {}", epsilon);
            prop_assert_eq!(&flipped.ofds, &base.ofds, "ε {}", epsilon);
        }
    }

    /// (e) `S` is the first `1 + perm[0]` columns of the random column
    /// order: a uniform size in `1..=k`, then a uniform subset of it.
    #[test]
    fn scoping_restricts_the_full_run((cols, _, perm) in case()) {
        let scope = AttrSet::from_attrs(perm[..=perm[0]].iter().copied());
        let table = RankedTable::from_u32_columns(cols.clone());
        let identity: Vec<usize> = (0..cols.len()).collect();
        for epsilon in [0.0, 0.1] {
            let mut full = run(&cols, epsilon, AocStrategy::Optimal);
            full.ocs.retain(|d| d.context.with(d.a).with(d.b).is_subset_of(scope));
            full.ofds.retain(|d| d.context.with(d.rhs).is_subset_of(scope));
            let scoped = DiscoveryBuilder::new()
                .approximate(epsilon)
                .scope(scope.iter())
                .run(&table);
            let (got, want) = (renamed(&scoped, &identity), renamed(&full, &identity));
            prop_assert_eq!(got, want, "ε {} S {}", epsilon, scope);
        }
    }
}
