//! Exp-3 / Figure 4 — effect of the approximation threshold, and the
//! share of runtime spent validating AOC candidates.
//!
//! 10K tuples (as in the paper), ε ∈ {0, 5, 10, 15, 20, 25}%. Expected
//! shape: the optimal validator's runtime is flat (or falls, through
//! better pruning) while the iterative baseline grows ~linearly in ε.
//! The paper's companion claim is also measured here: with the iterative
//! validator "up to 99.6% of the total runtime is spent on validation";
//! the LNDS validator cuts the time spent validating AOCs "by up to
//! 99.8%".
//!
//! Usage: `cargo run --release -p aod-bench --bin exp3 [--rows 10000]
//!         [--timeout 300]`

use aod_bench::{print_table, Dataset, ExpArgs};
use aod_core::{AocStrategy, DiscoveryBuilder};
use std::time::Duration;

fn main() {
    let args = ExpArgs::from_env();
    let rows = args.usize("rows", 10_000);
    let timeout = Duration::from_secs(args.usize("timeout", 300) as u64);

    println!("# Exp-3 (Figure 4): effect of the approximation threshold — {rows} tuples, 10 attributes\n");

    for ds in [Dataset::Flight, Dataset::Ncvoter] {
        println!("## {}\n", ds.name());
        let table = ds.ranked_10(rows, 42);
        let mut rows_out = Vec::new();
        let mut max_iter_share = 0.0f64;
        let mut opt_val_time = Duration::ZERO;
        let mut iter_val_time = Duration::ZERO;
        for pct in [0usize, 5, 10, 15, 20, 25] {
            let eps = pct as f64 / 100.0;
            let opt = DiscoveryBuilder::new().approximate(eps).run(&table);
            let iter = DiscoveryBuilder::new()
                .approximate(eps)
                .strategy(AocStrategy::Iterative)
                .timeout(timeout)
                .run(&table);
            max_iter_share = max_iter_share.max(iter.stats.oc_validation_share());
            opt_val_time += opt.stats.oc_validation;
            iter_val_time += iter.stats.oc_validation;
            rows_out.push(vec![
                pct.to_string(),
                format!("{:.2}", opt.stats.total.as_secs_f64()),
                format!(
                    "{:.2}{}",
                    iter.stats.total.as_secs_f64(),
                    if iter.stats.timed_out { "*" } else { "" }
                ),
                opt.n_ocs().to_string(),
                iter.n_ocs().to_string(),
                format!("{:.1}%", 100.0 * opt.stats.oc_validation_share()),
                format!("{:.1}%", 100.0 * iter.stats.oc_validation_share()),
            ]);
        }
        print_table(
            &[
                "eps (%)",
                "AOD opt (s)",
                "AOD iter (s)",
                "#AOCs opt",
                "#AOCs iter",
                "val% opt",
                "val% iter",
            ],
            &rows_out,
        );
        let reduction = if iter_val_time.as_secs_f64() > 0.0 {
            100.0 * (1.0 - opt_val_time.as_secs_f64() / iter_val_time.as_secs_f64())
        } else {
            0.0
        };
        println!(
            "\nmax share of runtime in AOC validation (iterative): {:.1}%  (paper: up to 99.6%)",
            100.0 * max_iter_share
        );
        println!(
            "time spent validating AOCs reduced by the optimal validator: {reduction:.1}%  (paper: up to 99.8%)\n"
        );
    }
}
