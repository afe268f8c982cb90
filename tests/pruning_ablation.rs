//! Semantics of the pruning ablation: disabling rules must only ever *add*
//! implied/trivial dependencies to the output, never remove or change the
//! paper-faithful ones — the machine-checked version of the rules'
//! soundness arguments in `aod-core`'s driver docs.

use aod::core::PruneConfig;
use aod::prelude::*;
use aod_bench::Dataset;
use std::collections::BTreeSet;

type Key = (u64, usize, usize);

fn keys(result: &DiscoveryResult) -> BTreeSet<Key> {
    result
        .ocs
        .iter()
        .map(|d| (d.context.bits(), d.a, d.b))
        .collect()
}

fn run(table: &RankedTable, eps: f64, prune: PruneConfig) -> DiscoveryResult {
    DiscoveryBuilder::new()
        .approximate(eps)
        .max_level(5)
        .prune(prune)
        .run(table)
}

#[test]
fn disabling_rules_is_monotone() {
    for ds in [Dataset::Flight, Dataset::Ncvoter] {
        let table = ds.ranked_10(1_500, 3);
        let baseline = keys(&run(&table, 0.1, PruneConfig::default()));
        for variant in [
            PruneConfig {
                r2_context_implication: false,
                ..PruneConfig::default()
            },
            PruneConfig {
                r3_constancy_implication: false,
                ..PruneConfig::default()
            },
            PruneConfig {
                r4_key_pruning: false,
                ..PruneConfig::default()
            },
            PruneConfig {
                node_deletion: false,
                ..PruneConfig::default()
            },
            PruneConfig::none(),
        ] {
            let relaxed = keys(&run(&table, 0.1, variant));
            for k in &baseline {
                assert!(
                    relaxed.contains(k),
                    "{}: {variant:?} lost baseline dependency {k:?}",
                    ds.name()
                );
            }
        }
    }
}

#[test]
fn r4_extras_are_exactly_keyed_contexts() {
    let table = Dataset::Flight.ranked_10(1_000, 5);
    let with = run(&table, 0.1, PruneConfig::default());
    let without = run(
        &table,
        0.1,
        PruneConfig {
            r4_key_pruning: false,
            ..PruneConfig::default()
        },
    );
    let base = keys(&with);
    for extra in keys(&without).difference(&base) {
        let (bits, _, _) = *extra;
        let ctx = Partition::for_attrs(
            &table,
            (0..table.n_cols()).filter(|&a| bits & (1 << a) != 0),
        );
        assert!(ctx.is_key(), "extra OC in non-keyed context {bits:#b}");
    }
}

#[test]
fn r2_extras_have_a_valid_subcontext() {
    let table = Dataset::Ncvoter.ranked_10(1_500, 5);
    let with = run(&table, 0.15, PruneConfig::default());
    let without = run(
        &table,
        0.15,
        PruneConfig {
            r2_context_implication: false,
            ..PruneConfig::default()
        },
    );
    let base = keys(&with);
    let relaxed = keys(&without);
    let budget = removal_budget(table.n_rows(), 0.15);
    let mut v = OcValidator::new();
    for &(bits, a, b) in relaxed.difference(&base) {
        // every extra must be implied: some reported sub-context OC for the
        // same pair, or (rarely) an R3/valid-OFD implication — in all cases
        // the extra is at least *valid*, never garbage.
        let ctx = Partition::for_attrs(
            &table,
            (0..table.n_cols()).filter(|&x| bits & (1 << x) != 0),
        );
        let removed = v
            .min_removal_optimal(
                &ctx,
                table.column(a).ranks(),
                table.column(b).ranks(),
                usize::MAX,
            )
            .expect("no limit");
        assert!(removed <= budget, "invalid extra ({bits:#b},{a},{b})");
    }
}
