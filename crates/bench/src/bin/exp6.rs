//! Exp-6 — discovered AOCs compared to exact OCs: more (and more
//! meaningful) dependencies survive dirt.
//!
//! The paper's qualitative findings: the exact algorithm loses rules that
//! a single bad value breaks; approximate discovery recovers, e.g.,
//! `originAirport ~ IATACode` (8% factor) on flight and
//! `streetAddress ~ mailAddress` (18%) plus
//! `municipalityAbbrv ~ municipalityDesc` (≈19%, only visible at ε = 20%)
//! on ncvoter — all ranked among the most interesting AOCs. Our synthetic
//! datasets plant those rules at the reported rates; this binary verifies
//! the pipeline recovers and ranks them.
//!
//! Usage: `cargo run --release -p aod-bench --bin exp6 [--rows 20000]`

use aod_bench::{print_table, Dataset, ExpArgs};
use aod_core::{DiscoveryBuilder, OcDep};

/// (pair-a, pair-b, printable label, planted dirt rate).
type PlantedRule = (usize, usize, &'static str, f64);

fn rank_of(deps: &[&OcDep], a: usize, b: usize) -> Option<usize> {
    deps.iter()
        .position(|d| d.context.is_empty() && (d.a, d.b) == (a.min(b), a.max(b)))
        .map(|p| p + 1)
}

fn main() {
    let args = ExpArgs::from_env();
    let rows = args.usize("rows", 20_000);

    println!("# Exp-6: AOCs vs exact OCs — {rows} tuples, 10 attributes\n");

    // Named rules planted in the DEFAULT_10 projections (by position).
    // flight DEFAULT_10: [originAirport, originIATA, arrDelay, lateAircraftDelay, ...]
    // ncvoter DEFAULT_10: [countyId, countyDesc, municipalityDesc, municipalityAbbrv,
    //                      streetAddress, mailAddress, ...]
    let cases: [(Dataset, f64, Vec<PlantedRule>); 2] = [
        (
            Dataset::Flight,
            0.10,
            vec![
                (0, 1, "originAirport ~ originIATA", 0.08),
                (2, 3, "arrDelay ~ lateAircraftDelay", 0.095),
            ],
        ),
        (
            Dataset::Ncvoter,
            0.20,
            vec![
                (2, 3, "municipalityDesc ~ municipalityAbbrv", 0.19),
                (4, 5, "streetAddress ~ mailAddress", 0.18),
            ],
        ),
    ];

    for (ds, epsilon, rules) in cases {
        let table = ds.ranked_10(rows, 42);
        let names = ds.names_10();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let exact = DiscoveryBuilder::new().exact().run(&table);
        let approx = DiscoveryBuilder::new().approximate(epsilon).run(&table);

        println!("## {} (ε = {epsilon})\n", ds.name());
        print_table(
            &["mode", "#OCs", "#OFDs", "time (s)"],
            &[
                vec![
                    "exact".into(),
                    exact.n_ocs().to_string(),
                    exact.n_ofds().to_string(),
                    format!("{:.2}", exact.stats.total.as_secs_f64()),
                ],
                vec![
                    format!("approx ε={epsilon}"),
                    approx.n_ocs().to_string(),
                    approx.n_ofds().to_string(),
                    format!("{:.2}", approx.stats.total.as_secs_f64()),
                ],
            ],
        );

        println!("\nplanted semantically meaningful rules (paper's named examples):");
        let ranked = approx.ranked_ocs();
        for (a, b, label, planted_rate) in rules {
            let found_exact = exact
                .ocs
                .iter()
                .any(|d| d.context.is_empty() && (d.a, d.b) == (a.min(b), a.max(b)));
            match approx
                .ocs
                .iter()
                .find(|d| d.context.is_empty() && (d.a, d.b) == (a.min(b), a.max(b)))
            {
                Some(dep) => println!(
                    "  {label}: recovered with e = {:.3} (planted ≈ {planted_rate}), \
                     interestingness rank #{} of {}; exact discovery {}",
                    dep.factor,
                    rank_of(&ranked, a, b).unwrap_or(0),
                    ranked.len(),
                    if found_exact {
                        "also finds it"
                    } else {
                        "LOSES it"
                    },
                ),
                None => println!(
                    "  {label}: not recovered at ε = {epsilon} in the empty context \
                     (may hold in a larger context or exceed the threshold on this sample)"
                ),
            }
        }
        println!("\ntop-5 AOCs by interestingness:");
        for dep in ranked.iter().take(5) {
            println!("  {}", dep.display(&name_refs));
        }
        println!();
    }
}
