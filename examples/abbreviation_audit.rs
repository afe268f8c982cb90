//! Auditing code/label consistency on an ncvoter-shaped dataset — the
//! paper's Exp-6 example: `municipalityAbbrv ~ municipalityDesc` holds
//! approximately because most abbreviations follow alphabetical order, but
//! some ("RAL" for Raleigh vs. "CLT" for Charlotte) break it.
//!
//! The example also shows the paper's threshold-sensitivity point: the
//! same dependency is valid at ε = 20% but invalid at ε = 5%, so the
//! threshold controls how general a rule the analyst accepts.
//!
//! Run with: `cargo run --release --example abbreviation_audit`

use aod::datagen::ncvoter;
use aod::prelude::*;

fn main() {
    let rows = 20_000;
    let generator = ncvoter::ncvoter(7);
    let ranked = generator.ranked(rows);
    let names = generator.names();

    let desc = ncvoter::MUNICIPALITY_DESC;
    let abbrv = ncvoter::MUNICIPALITY_ABBRV;
    let street = ncvoter::STREET_ADDRESS;
    let mail = ncvoter::MAIL_ADDRESS;

    println!("auditing {rows} voter records for naming-consistency rules\n");

    // Sweep the threshold for the two planted rules.
    for (a, b, label) in [
        (desc, abbrv, "municipalityDesc ~ municipalityAbbrv"),
        (street, mail, "streetAddress ~ mailAddress"),
    ] {
        let exact = validate_aoc(&ranked, AttrSet::EMPTY, a, b, 0.0, AocStrategy::Optimal);
        print!(
            "{label}: exact? {}",
            if exact.is_valid() { "yes" } else { "no" }
        );
        let factor = validate_aoc(&ranked, AttrSet::EMPTY, a, b, 1.0, AocStrategy::Optimal)
            .factor()
            .unwrap();
        println!("  (true approximation factor {factor:.3})");
        for eps in [0.05, 0.10, 0.20, 0.25] {
            let out = validate_aoc(&ranked, AttrSet::EMPTY, a, b, eps, AocStrategy::Optimal);
            println!(
                "   ε = {:>4.0}% -> {}",
                eps * 100.0,
                if out.is_valid() { "VALID" } else { "invalid" }
            );
        }
    }

    // The exceptions themselves are the audit targets: voters whose
    // municipality abbreviation breaks the alphabetical-consistency rule.
    let mut validator = OcValidator::new();
    let ctx = Partition::unit(ranked.n_rows());
    let removal = validator.removal_set_optimal(
        &ctx,
        ranked.column(desc).ranks(),
        ranked.column(abbrv).ranks(),
    );
    println!(
        "\n{} records carry abbreviation exceptions ({}% of the table)",
        removal.len(),
        100 * removal.len() / rows
    );

    // Discovery over the 10-column projection confirms both rules rank
    // among the most interesting AOCs, as the paper reports.
    let cols: Vec<Vec<u32>> = ncvoter::DEFAULT_10
        .iter()
        .map(|&c| ranked.column(c).ranks().to_vec())
        .collect();
    let proj_names: Vec<&str> = ncvoter::DEFAULT_10.iter().map(|&c| names[c]).collect();
    let proj = RankedTable::from_u32_columns(cols);
    let result = DiscoveryBuilder::new().approximate(0.20).run(&proj);
    println!("\ntop AOCs at ε = 20% (of {} discovered):", result.n_ocs());
    for dep in result.ranked_ocs().into_iter().take(8) {
        println!("  {}", dep.display(&proj_names));
    }
}
