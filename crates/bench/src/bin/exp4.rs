//! Exp-4 — removal-set overestimation by the iterative validator and the
//! valid AOCs it consequently misses.
//!
//! The paper reports: iterative removal sets are "on average around 1%
//! larger than the true minimal removal set", and "the iterative approach
//! misses up to 2% of the valid AOCs found using our optimal approach";
//! the flagship example is `arrivalDelay ~ lateAircraftDelay`, whose true
//! factor 9.5% the iterative algorithm overestimates as 10.5%, losing the
//! AOC at the 10% threshold.
//!
//! This binary measures both effects: over every empty-context column pair
//! of both datasets, it compares the two validators' removal sets, then
//! reruns the planted near-threshold candidate.
//!
//! It closes with Section 3's per-candidate costs: on one context class of
//! `m` rows, Algorithm 2 runs in `O(m log m)` and Algorithm 1 in
//! `O(m log m + εm²)`, so the iterative column grows super-linearly in `m`
//! while the exact check and Algorithm 2 stay close together. Beside them
//! stands the linear pass discovery runs before either validator, the
//! disjoint swapped pairs (`oc_disjoint_swaps`): its pair count, a lower
//! bound on Algorithm 2's removals, and its cost. The class sizes are
//! fixed; `--rows` does not change them.
//!
//! Usage: `cargo run --release -p aod-bench --bin exp4 [--rows 10000]`

use aod_bench::{print_table, Dataset, ExpArgs};
use aod_datagen::{ColumnKind, ColumnSpec, Generator};
use aod_obs::{Clock, MonotonicClock};
use aod_partition::Partition;
use aod_validate::{oc_disjoint_swaps, removal_budget, OcValidator};

fn main() {
    let args = ExpArgs::from_env();
    let rows = args.usize("rows", 10_000);
    let epsilon = args.epsilon(0.10);

    println!("# Exp-4: iterative removal-set overestimation and missed AOCs — {rows} tuples\n");

    for ds in [Dataset::Flight, Dataset::Ncvoter] {
        let table = ds.ranked_10(rows, 42);
        let ctx = Partition::unit(rows);
        let mut v = OcValidator::new();
        let budget = removal_budget(rows, epsilon);

        let (mut n_pairs, mut n_dirty, mut overest_sum, mut missed, mut valid_opt) =
            (0usize, 0usize, 0.0f64, 0usize, 0usize);
        for a in 0..table.n_cols() {
            for b in a + 1..table.n_cols() {
                let (ar, br) = (table.column(a).ranks(), table.column(b).ranks());
                let opt = v.min_removal_optimal(&ctx, ar, br, usize::MAX).unwrap();
                let iter = v.min_removal_iterative(&ctx, ar, br, usize::MAX).unwrap();
                n_pairs += 1;
                if opt > 0 {
                    n_dirty += 1;
                    overest_sum += (iter as f64 - opt as f64) / opt as f64;
                }
                if opt <= budget {
                    valid_opt += 1;
                    if iter > budget {
                        missed += 1;
                    }
                }
            }
        }
        println!("## {} (empty-context pairs, ε = {epsilon})\n", ds.name());
        print_table(
            &[
                "pairs",
                "dirty pairs",
                "avg overestimation",
                "valid AOCs (opt)",
                "missed by iter",
            ],
            &[vec![
                n_pairs.to_string(),
                n_dirty.to_string(),
                format!("{:.2}%", 100.0 * overest_sum / n_dirty.max(1) as f64),
                valid_opt.to_string(),
                format!(
                    "{} ({:.1}%)",
                    missed,
                    100.0 * missed as f64 / valid_opt.max(1) as f64
                ),
            ]],
        );
        println!();
    }

    // The near-threshold candidate, in isolation and at scale: tile the
    // sal/tax structure of Table 1 (on which the greedy max-swap heuristic
    // provably removes 5 tuples where 4 suffice — Examples 3.1/3.2) into
    // independent blocks. Optimal factor 4/9 ≈ 0.444 vs iterative estimate
    // 5/9 ≈ 0.556, at any scale — so at ε = 0.5 the iterative algorithm
    // loses a true AOC, exactly the paper's arrivalDelay story.
    println!("## near-threshold case study (Table 1's sal/tax pattern, tiled)\n");
    let blocks = (rows / 9).max(1);
    let sal_pat: [u32; 9] = [20, 25, 30, 40, 50, 55, 60, 90, 200];
    let tax_pat: [u32; 9] = [20, 25, 3, 120, 15, 165, 18, 72, 160];
    let (mut sal, mut tax) = (Vec::new(), Vec::new());
    for block in 0..blocks as u32 {
        for i in 0..9 {
            sal.push(block * 1_000 + sal_pat[i]);
            tax.push(block * 1_000 + tax_pat[i]);
        }
    }
    let t = aod_table::RankedTable::from_u32_columns(vec![sal, tax]);
    let n = t.n_rows();
    let ctx = Partition::unit(n);
    let mut v = OcValidator::new();
    let opt = v
        .min_removal_optimal(&ctx, t.column(0).ranks(), t.column(1).ranks(), usize::MAX)
        .unwrap();
    let iter = v
        .min_removal_iterative(&ctx, t.column(0).ranks(), t.column(1).ranks(), usize::MAX)
        .unwrap();
    let (e_opt, e_iter) = (opt as f64 / n as f64, iter as f64 / n as f64);
    println!("{n} tuples ({blocks} blocks of Table 1's 9-tuple pattern)");
    println!("true factor (optimal):        {e_opt:.4}  (= 4/9)");
    println!("estimated factor (iterative): {e_iter:.4}  (= 5/9)");
    let threshold = 0.5;
    println!(
        "at ε = {threshold}: optimal -> {}, iterative -> {}   {}",
        if e_opt <= threshold {
            "VALID"
        } else {
            "invalid"
        },
        if e_iter <= threshold {
            "VALID"
        } else {
            "invalid"
        },
        if e_opt <= threshold && e_iter > threshold {
            "(the true AOC the iterative algorithm loses — the paper's arrivalDelay example)"
        } else {
            ""
        }
    );
    println!();

    per_candidate_costs();
}

/// Section 3's per-candidate costs: both validators' removal counts and
/// the disjoint swapped pairs on one class of `m` rows, and the µs per
/// call of the pairs pass, the exact check (Algorithm 2 at budget 0),
/// Algorithm 2 and Algorithm 1.
fn per_candidate_costs() {
    println!(
        "## per-candidate cost (one class of m rows; µs per call, median of 5 batches of ≥ 1 ms)\n"
    );
    let clock = MonotonicClock::new();
    let mut rows = Vec::new();
    for noise_rate in [0.02, 0.10] {
        for m in [1_000usize, 4_000, 16_000] {
            let (a, b) = dirty_pair(m, noise_rate);
            let ctx = Partition::unit(m);
            let mut v = OcValidator::new();
            let unlimited = "an unlimited budget is never exceeded";
            let opt = v
                .min_removal_optimal(&ctx, &a, &b, usize::MAX)
                .expect(unlimited);
            let iter = v
                .min_removal_iterative(&ctx, &a, &b, usize::MAX)
                .expect(unlimited);
            let pairs = oc_disjoint_swaps(&ctx, &a, &b, usize::MAX);
            let pairs_us = median_us(&clock, || oc_disjoint_swaps(&ctx, &a, &b, usize::MAX));
            let exact_us = median_us(&clock, || v.exact_oc_holds(&ctx, &a, &b));
            let opt_us = median_us(&clock, || v.min_removal_optimal(&ctx, &a, &b, usize::MAX));
            let iter_us = median_us(&clock, || v.min_removal_iterative(&ctx, &a, &b, usize::MAX));
            rows.push(vec![
                m.to_string(),
                format!("{noise_rate:.2}"),
                opt.to_string(),
                iter.to_string(),
                pairs.to_string(),
                format!("{pairs_us:.2}"),
                format!("{exact_us:.2}"),
                format!("{opt_us:.2}"),
                format!("{iter_us:.2}"),
            ]);
        }
    }
    print_table(
        &[
            "m",
            "noise",
            "removed (Alg. 2)",
            "removed (Alg. 1)",
            "pairs",
            "pairs µs",
            "exact µs",
            "Alg. 2 µs",
            "Alg. 1 µs",
        ],
        &rows,
    );
}

/// `A` uniform over `m / 2` values and `B` a monotone image of `A` whose
/// rows are replaced by uniform noise at `noise_rate` (seed 99).
fn dirty_pair(m: usize, noise_rate: f64) -> (Vec<u32>, Vec<u32>) {
    let cardinality = (m / 2) as u32;
    let mut cols = Generator::new(
        vec![
            ColumnSpec::new("a", ColumnKind::Uniform { cardinality }),
            ColumnSpec::new(
                "b",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate,
                },
            ),
        ],
        99,
    )
    .generate_u32(m);
    let b = cols.pop().expect("two columns");
    let a = cols.pop().expect("two columns");
    (a, b)
}

/// The median time per call of `call`, in microseconds on `clock`, over
/// five batches of one size. The size doubles until a batch spans at least
/// 1 ms, so a call of a few µs is not read at the clock's resolution.
fn median_us<T>(clock: &dyn Clock, mut call: impl FnMut() -> T) -> f64 {
    let mut batch_us = |calls: u32| {
        let t0 = clock.now_us();
        for _ in 0..calls {
            std::hint::black_box(call());
        }
        clock.now_us() - t0
    };
    let mut calls = 1;
    while batch_us(calls) < 1_000 {
        calls *= 2;
    }
    let mut us: [f64; 5] = std::array::from_fn(|_| batch_us(calls) as f64 / f64::from(calls));
    us.sort_unstable_by(f64::total_cmp);
    us[2]
}
