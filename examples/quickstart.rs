//! Quickstart: discover approximate order dependencies in the paper's
//! running example (Table 1, employee salaries) with the streaming
//! `DiscoverySession` API.
//!
//! Run with: `cargo run --release --example quickstart`

use aod::prelude::*;

fn main() {
    // Table 1 of the paper: 9 employees, 7 attributes, with the dirty
    // `perc` column ("10%" instead of "1%" in some rows).
    let table = employee_table();
    let ranked = RankedTable::from_table(&table);
    let names = table.schema().names();

    // --- Exact discovery (one-shot): the dirt hides most dependencies. --
    let exact = DiscoveryBuilder::new().exact().run(&ranked);
    println!("=== exact ODs ===");
    println!("{}", exact.report(&names));

    // --- Approximate discovery at ε = 25%, streamed. --------------------
    // The session emits an event per found dependency and per completed
    // lattice level; long runs stay observable and cancellable.
    // `.parallelism(0)` validates each lattice level on one worker per
    // core — results (and this event stream) are bit-identical to a
    // one-thread run, so parallelism is purely a wall-clock knob.
    println!("=== approximate ODs (ε = 25%), streaming ===");
    let mut session = DiscoveryBuilder::new()
        .approximate(0.25)
        .parallelism(0)
        .build(&ranked);
    for event in session.by_ref() {
        match event {
            DiscoveryEvent::OcFound(dep) => println!("  found {}", dep.display(&names)),
            DiscoveryEvent::OfdFound(dep) => println!("  found {}", dep.display(&names)),
            DiscoveryEvent::LevelComplete(outcome) => println!(
                "  -- level {} done: {} nodes, {} candidates pruned",
                outcome.level, outcome.stats.n_nodes, outcome.stats.n_oc_pruned
            ),
            _ => {}
        }
    }
    let approx = session.into_result();
    println!("\n{}", approx.report(&names));

    // --- Validate a single candidate: Example 2.15. ---------------------
    // e(sal ~ tax) = 4/9 ≈ 0.44: the intended dependency between salary
    // and tax survives the dirty percentages once 4 tuples are set aside.
    let sal = table.schema().index_of("sal").unwrap();
    let tax = table.schema().index_of("tax").unwrap();
    let outcome = validate_aoc(&ranked, AttrSet::EMPTY, sal, tax, 0.5, AocStrategy::Optimal);
    println!(
        "e(sal ~ tax) = {}/{} = {:.3} -> {}",
        outcome.removed.unwrap(),
        outcome.n_rows,
        outcome.factor().unwrap(),
        if outcome.is_valid() {
            "VALID at ε = 0.5"
        } else {
            "INVALID at ε = 0.5"
        },
    );

    // The minimal removal set pinpoints the rows carrying the errors.
    let mut validator = OcValidator::new();
    let ctx = Partition::unit(ranked.n_rows());
    let removal =
        validator.removal_set_optimal(&ctx, ranked.column(sal).ranks(), ranked.column(tax).ranks());
    println!("rows to inspect for data errors (0-based): {removal:?}");
    for &row in &removal {
        let values: Vec<String> = table
            .row(row as usize)
            .iter()
            .map(ToString::to_string)
            .collect();
        println!("  t{} = [{}]", row + 1, values.join(", "));
    }
}
