//! # aod-bench — experiment drivers reproducing the paper's evaluation
//!
//! One binary per experiment (`exp1`..`exp6`, mapping to Figures 2–5 and
//! the Exp-1..Exp-6 discussion of Section 4) plus `ablation` for the
//! pruning rules. Binaries print the same rows/series the paper reports;
//! scales default to laptop-friendly sizes and grow with `--scale`/`--rows`.
//! `exp4` closes with single-candidate validation costs for Section 3's
//! complexity claims.
//!
//! These drivers reproduce the paper's figures; speed claims about this
//! implementation come from the benchmark described in
//! `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aod_core::{AocStrategy, DiscoveryBuilder, DiscoveryResult};
use aod_datagen::{flight, ncvoter};
use aod_table::RankedTable;
use std::time::Duration;

/// Which of the paper's two dataset families to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// BTS flight-shaped synthetic data (35 attrs).
    Flight,
    /// NC voter-shaped synthetic data (30 attrs).
    Ncvoter,
}

impl Dataset {
    /// Display name, matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Flight => "flight",
            Dataset::Ncvoter => "ncvoter",
        }
    }

    /// Total attribute count of the preset.
    pub fn max_attrs(self) -> usize {
        match self {
            Dataset::Flight => flight::N_COLS,
            Dataset::Ncvoter => ncvoter::N_COLS,
        }
    }

    /// Generates the dataset with the default 10-attribute projection the
    /// paper uses ("unless mentioned otherwise … ten attributes").
    pub fn ranked_10(self, rows: usize, seed: u64) -> RankedTable {
        let (full, proj): (RankedTable, &[usize]) = match self {
            Dataset::Flight => (flight::flight(seed).ranked(rows), &flight::DEFAULT_10),
            Dataset::Ncvoter => (ncvoter::ncvoter(seed).ranked(rows), &ncvoter::DEFAULT_10),
        };
        project(&full, proj)
    }

    /// Generates the dataset with its first `n_attrs` preset columns
    /// (the attribute-sweep of Exp-2).
    pub fn ranked_first_attrs(self, rows: usize, n_attrs: usize, seed: u64) -> RankedTable {
        let full = match self {
            Dataset::Flight => flight::flight(seed).ranked(rows),
            Dataset::Ncvoter => ncvoter::ncvoter(seed).ranked(rows),
        };
        full.with_first_columns(n_attrs)
    }

    /// Column names for the default 10-attribute projection.
    pub fn names_10(self) -> Vec<String> {
        match self {
            Dataset::Flight => {
                let g = flight::flight(0);
                flight::DEFAULT_10
                    .iter()
                    .map(|&c| g.names()[c].to_string())
                    .collect()
            }
            Dataset::Ncvoter => {
                let g = ncvoter::ncvoter(0);
                ncvoter::DEFAULT_10
                    .iter()
                    .map(|&c| g.names()[c].to_string())
                    .collect()
            }
        }
    }
}

/// Projects a ranked table onto the given columns (re-densified).
pub fn project(table: &RankedTable, cols: &[usize]) -> RankedTable {
    RankedTable::from_u32_columns(
        cols.iter()
            .map(|&c| table.column(c).ranks().to_vec())
            .collect(),
    )
}

/// One timed discovery run.
#[derive(Debug)]
pub struct Run {
    /// Configuration label ("OD", "AOD (optimal)", "AOD (iterative)").
    pub label: &'static str,
    /// The discovery output (partial when `timed_out`).
    pub result: DiscoveryResult,
}

impl Run {
    /// Wall time of the run.
    pub fn time(&self) -> Duration {
        self.result.stats.total
    }

    /// Formats the time in seconds, with the paper's `*` marker (projected
    /// / exceeded budget) when the run timed out.
    pub fn time_label(&self) -> String {
        if self.result.stats.timed_out {
            format!("> {:.1}*", self.time().as_secs_f64())
        } else {
            format!("{:.2}", self.time().as_secs_f64())
        }
    }
}

/// Runs the paper's three configurations on one table: exact OD discovery,
/// AOD with the optimal validator, and AOD with the iterative baseline
/// (wall-clock capped by `iterative_timeout`, as the paper caps it at 24h).
pub fn run_three_modes(table: &RankedTable, epsilon: f64, iterative_timeout: Duration) -> Vec<Run> {
    vec![
        Run {
            label: "OD",
            result: DiscoveryBuilder::new().exact().run(table),
        },
        Run {
            label: "AOD (optimal)",
            result: DiscoveryBuilder::new().approximate(epsilon).run(table),
        },
        Run {
            label: "AOD (iterative)",
            result: DiscoveryBuilder::new()
                .approximate(epsilon)
                .strategy(AocStrategy::Iterative)
                .timeout(iterative_timeout)
                .run(table),
        },
    ]
}

/// Minimal `--key value` argument parsing for the experiment binaries.
///
/// Every option takes a value. A missing or malformed value, or a stray
/// positional argument, is a usage error: the driver prints it and exits
/// with status 2 instead of running with a default it was not asked for.
pub struct ExpArgs {
    args: Vec<(String, String)>,
}

impl ExpArgs {
    /// Parses `std::env::args()`. `--help`/`-h` prints the shared option
    /// summary and exits (each binary's module docs list its specifics).
    pub fn from_env() -> ExpArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!(
                "experiment driver — common options:\n\
                 \x20 --scale K      multiply every row count (default 1)\n\
                 \x20 --rows N       override the row count where applicable\n\
                 \x20 --epsilon E    approximation threshold in [0,1] (default 0.1)\n\
                 \x20 --timeout S    wall-clock cap in seconds for iterative runs\n\
                 every option takes a value: a missing or malformed value exits 2.\n\
                 unknown --key value options are ignored; see the binary's\n\
                 module docs for which options it reads"
            );
            std::process::exit(0);
        }
        let mut args = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                usage_error(&format!("unexpected argument `{arg}`"));
            };
            match argv.next() {
                Some(value) if !value.starts_with("--") => args.push((name.to_string(), value)),
                _ => usage_error(&format!("--{name}: missing value")),
            }
        }
        ExpArgs { args }
    }

    /// The last value given for `--name` parsed as `T`, or `default` when
    /// the option is absent. A value that does not parse is a usage error.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T, what: &str) -> T {
        match self.args.iter().rev().find(|(k, _)| k == name) {
            None => default,
            Some((_, v)) => v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--{name}: `{v}` is not {what}"))),
        }
    }

    /// Integer option with default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.parsed(name, default, "an integer")
    }

    /// Integer option with default that must be at least 1, such as a
    /// level cap: 0 is a usage error, as it is for `aod discover`.
    pub fn positive(&self, name: &str, default: usize) -> usize {
        let n = self.usize(name, default);
        if n == 0 {
            usage_error(&format!("--{name}: must be at least 1"));
        }
        n
    }

    /// Float option with default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.parsed(name, default, "a number")
    }

    /// `--epsilon` with range validation: a bad threshold is a usage error
    /// reported here, not a panic in the validators' `assert!`.
    pub fn epsilon(&self, default: f64) -> f64 {
        let epsilon = self.f64("epsilon", default);
        if !(0.0..=1.0).contains(&epsilon) {
            usage_error(&format!("--epsilon: `{epsilon}` is not within [0, 1]"));
        }
        epsilon
    }
}

/// Reports a command-line mistake and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Prints a markdown table: a header row then aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_project_to_10_attrs() {
        for ds in [Dataset::Flight, Dataset::Ncvoter] {
            let t = ds.ranked_10(500, 1);
            assert_eq!(t.n_cols(), 10);
            assert_eq!(t.n_rows(), 500);
            assert_eq!(ds.names_10().len(), 10);
        }
    }

    #[test]
    fn attr_sweep_respects_counts() {
        let t = Dataset::Flight.ranked_first_attrs(200, 15, 1);
        assert_eq!(t.n_cols(), 15);
        assert_eq!(Dataset::Flight.max_attrs(), 35);
        assert_eq!(Dataset::Ncvoter.max_attrs(), 30);
    }

    #[test]
    fn three_modes_run_and_label() {
        let t = Dataset::Flight.ranked_10(300, 2);
        let runs = run_three_modes(&t, 0.1, Duration::from_secs(30));
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].label, "OD");
        assert!(runs.iter().all(|r| !r.result.stats.timed_out));
        // Approximate discovery can report more OCs (dirt forgiven) or
        // fewer (implied by approximate OFDs, pruned by R3) — both runs
        // must simply produce non-trivial output here.
        assert!(runs[0].result.n_ocs() + runs[0].result.n_ofds() > 0);
        assert!(runs[1].result.n_ocs() + runs[1].result.n_ofds() > 0);
    }

    #[test]
    fn timed_out_runs_get_a_star() {
        let t = Dataset::Flight.ranked_10(2000, 2);
        let runs = run_three_modes(&t, 0.1, Duration::ZERO);
        assert!(runs[2].result.stats.timed_out);
        assert!(runs[2].time_label().contains('*'));
    }
}
