//! Ablation of the discovery framework's pruning rules (their soundness
//! arguments are in the module docs of `aod-core`'s `prune_state.rs`).
//!
//! The paper attributes AOD discovery's surprising speed ("up to 76%
//! faster than exact discovery") to pruning firing earlier when
//! approximate dependencies surface at lower lattice levels. This binary
//! quantifies each rule's contribution by disabling them one at a time:
//!
//! * **R2** — context implication (valid OC in sub-context),
//! * **R3** — constancy implication (valid OFD on either attribute),
//! * **R4** — keyed-context skipping,
//! * **node deletion** — dropping dead lattice nodes.
//!
//! With a rule off, its candidates are validated instead of skipped, so
//! the OC count grows by exactly the implied/trivial dependencies that the
//! rule proves redundant — a useful cross-check that the rules prune only
//! implied candidates.
//!
//! Usage: `cargo run --release -p aod-bench --bin ablation [--rows 10000]
//!         [--epsilon 0.1] [--max-level 6]`

use aod_bench::{print_table, Dataset, ExpArgs};
use aod_core::{discover, DiscoveryConfig, PruneConfig};

fn main() {
    let args = ExpArgs::from_env();
    let rows = args.usize("rows", 10_000);
    let epsilon = args.epsilon(0.1);
    // Without node deletion the lattice is exhaustive; cap the level so the
    // no-pruning baseline terminates at any scale.
    let max_level = args.usize("max-level", 6);

    println!(
        "# Ablation of pruning rules — {rows} tuples, 10 attributes, ε = {epsilon}, \
         levels ≤ {max_level}\n"
    );

    let variants: Vec<(&str, PruneConfig)> = vec![
        ("all rules (paper-faithful)", PruneConfig::default()),
        (
            "without R2 (context implication)",
            PruneConfig {
                r2_context_implication: false,
                ..PruneConfig::default()
            },
        ),
        (
            "without R3 (constancy implication)",
            PruneConfig {
                r3_constancy_implication: false,
                ..PruneConfig::default()
            },
        ),
        (
            "without R4 (key pruning)",
            PruneConfig {
                r4_key_pruning: false,
                ..PruneConfig::default()
            },
        ),
        (
            "without node deletion",
            PruneConfig {
                node_deletion: false,
                ..PruneConfig::default()
            },
        ),
        ("no pruning at all", PruneConfig::none()),
    ];

    for ds in [Dataset::Flight, Dataset::Ncvoter] {
        println!("## {}\n", ds.name());
        let table = ds.ranked_10(rows, 42);
        let mut rows_out = Vec::new();
        for (label, prune) in &variants {
            let config = DiscoveryConfig::approximate(epsilon)
                .with_max_level(max_level)
                .with_pruning(*prune);
            let result = discover(&table, &config);
            let pruned: usize = result.stats.per_level.iter().map(|l| l.n_oc_pruned).sum();
            let validated: usize = result
                .stats
                .per_level
                .iter()
                .map(|l| l.n_oc_candidates)
                .sum();
            rows_out.push(vec![
                label.to_string(),
                format!("{:.2}", result.stats.total.as_secs_f64()),
                validated.to_string(),
                pruned.to_string(),
                result.n_ocs().to_string(),
            ]);
        }
        print_table(
            &[
                "configuration",
                "time (s)",
                "OC candidates validated",
                "OC candidates pruned",
                "#AOCs reported",
            ],
            &rows_out,
        );
        println!(
            "\n(disabled rules validate their candidates instead of skipping them, so the\nreported count grows by exactly the implied/trivial dependencies)\n"
        );
    }
}
