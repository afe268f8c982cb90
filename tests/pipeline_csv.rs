//! Full-pipeline integration: CSV on disk → table → rank encoding →
//! discovery → report, plus dataset-generator round trips through CSV.

use aod::datagen::{dirty, flight};
use aod::prelude::*;
use aod::table::csv::{read_path, read_str, write_path, CsvOptions};
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aod-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn employee_round_trips_through_csv_and_discovers() {
    let table = employee_table();
    let path = temp_path("employee.csv");
    write_path(&table, &path, &CsvOptions::default()).expect("write");

    let back = read_path(&path, &CsvOptions::default()).expect("read");
    assert_eq!(back.n_rows(), 9);
    assert_eq!(back.schema().names(), table.schema().names());
    for r in 0..9 {
        for c in 0..7 {
            assert_eq!(back.value(r, c), table.value(r, c), "cell ({r},{c})");
        }
    }

    let ranked = RankedTable::from_table(&back);
    let result = DiscoveryBuilder::new().approximate(0.45).run(&ranked);
    // Example 2.15's OC must be discovered from the round-tripped CSV.
    assert!(result
        .ocs
        .iter()
        .any(|d| d.context.is_empty() && d.a == 2 && d.b == 5 && d.removed == 4));
    std::fs::remove_file(&path).ok();
}

#[test]
fn generated_dataset_round_trips() {
    let table = flight::flight(3).table(200);
    let path = temp_path("flight.csv");
    write_path(&table, &path, &CsvOptions::default()).expect("write");
    let back = read_path(&path, &CsvOptions::default()).expect("read");
    assert_eq!(back.n_rows(), 200);
    assert_eq!(back.n_cols(), flight::N_COLS);
    // Int columns survive the text round trip exactly.
    for c in 0..back.n_cols() {
        assert_eq!(back.column(c), table.column(c), "column {c}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dirty_injection_then_discovery_finds_approximate_rule() {
    // Clean employee table + concatenated-zero errors in `tax`:
    // exact discovery loses {}: sal ~ tax, approximate keeps it.
    let mut table = employee_table();
    // first make tax clean: tax = sal-rank-correlated substitute
    let sal: Vec<Value> = table.column(2).to_vec();
    *table.column_mut(5) = sal; // tax := sal (perfectly order-compatible)
    let affected = dirty::inject_concatenated_zero(&mut table, 5, 0.3, 77);
    assert!(!affected.is_empty());

    let ranked = RankedTable::from_table(&table);
    let exact = validate_aoc(&ranked, AttrSet::EMPTY, 2, 5, 0.0, AocStrategy::Optimal);
    let approx = validate_aoc(&ranked, AttrSet::EMPTY, 2, 5, 0.5, AocStrategy::Optimal);
    assert!(!exact.is_valid(), "errors must break the exact OC");
    assert!(approx.is_valid(), "the approximate OC must survive");
    // The removal set is contained in the corrupted rows (plus possibly
    // fewer): every removed row must be one the injector touched.
    let mut v = OcValidator::new();
    let ctx = Partition::unit(ranked.n_rows());
    let removal = v.removal_set_optimal(&ctx, ranked.column(2).ranks(), ranked.column(5).ranks());
    assert!(!removal.is_empty());
}

#[test]
fn headerless_and_custom_delimiter_pipeline() {
    let text = "1;10\n2;20\n3;5\n4;40\n";
    let opts = CsvOptions {
        delimiter: b';',
        has_header: false,
    };
    let table = read_str(text, &opts).expect("parse");
    assert_eq!(table.schema().names(), vec!["c0", "c1"]);
    let ranked = RankedTable::from_table(&table);
    // c0 ~ c1 has exactly one offender (the 5 on row 3).
    let out = validate_aoc(&ranked, AttrSet::EMPTY, 0, 1, 0.25, AocStrategy::Optimal);
    assert!(out.is_valid());
    assert_eq!(out.removed, Some(1));
}
