//! Data-cleaning workflow on a flight-shaped dataset (the paper's Exp-4 /
//! Exp-6 scenario): discover approximate OCs, then use their minimal
//! removal sets to surface the rows that violate the intended rule.
//!
//! The synthetic `flight` dataset plants the AOC
//! `arrDelay ~ lateAircraftDelay` at ≈ 9.5% — "delays in arrival are due to
//! the aircraft and not other causes" — and `originAirport ~ originIATA`
//! at ≈ 8%, the airport-identifier consistency rule.
//!
//! Run with: `cargo run --release --example data_cleaning`

use aod::datagen::flight;
use aod::prelude::*;

fn main() {
    let rows = 20_000;
    let generator = flight::flight(42);
    let ranked_full = generator.ranked(rows);
    let names_full = generator.names();

    // Work on the default 10-attribute projection the paper uses.
    let cols: Vec<Vec<u32>> = flight::DEFAULT_10
        .iter()
        .map(|&c| ranked_full.column(c).ranks().to_vec())
        .collect();
    let names: Vec<&str> = flight::DEFAULT_10.iter().map(|&c| names_full[c]).collect();
    let ranked = RankedTable::from_u32_columns(cols);

    println!(
        "discovering AOCs over {rows} flights × {} attributes (ε = 10%)...",
        names.len()
    );
    let result = DiscoveryBuilder::new().approximate(0.10).run(&ranked);
    println!(
        "found {} AOCs and {} AOFDs in {:.2}s\n",
        result.n_ocs(),
        result.n_ofds(),
        result.stats.total.as_secs_f64()
    );

    println!("top approximate OCs by interestingness:");
    for dep in result.ranked_ocs().into_iter().take(8) {
        println!("  {}", dep.display(&names));
    }

    // Drill into the planted rule: arrDelay ~ lateAircraftDelay.
    let a = names.iter().position(|&n| n == "arrDelay").unwrap();
    let b = names
        .iter()
        .position(|&n| n == "lateAircraftDelay")
        .unwrap();
    let mut validator = OcValidator::new();
    let ctx = Partition::unit(ranked.n_rows());
    let removal =
        validator.removal_set_optimal(&ctx, ranked.column(a).ranks(), ranked.column(b).ranks());
    println!(
        "\narrDelay ~ lateAircraftDelay: e = {}/{} = {:.3}",
        removal.len(),
        rows,
        removal.len() as f64 / rows as f64
    );
    println!(
        "-> {} rows flagged as exceptions; in a cleaning pipeline these go \
         to review (weather/security delays or data errors)",
        removal.len()
    );
    println!(
        "   first flagged rows: {:?}",
        &removal[..removal.len().min(10)]
    );

    // An exact run on the same data would have lost the rule entirely.
    let exact = DiscoveryBuilder::new().exact().run(&ranked);
    let kept = exact
        .ocs
        .iter()
        .any(|d| (d.a, d.b) == (a.min(b), a.max(b)) && d.context.is_empty());
    println!(
        "\nexact discovery {} the arrDelay rule ({} exact OCs total) — \
         approximate discovery is what recovers it",
        if kept { "kept" } else { "missed" },
        exact.n_ocs()
    );
}
