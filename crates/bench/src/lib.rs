//! # aod-bench — experiment harness reproducing the paper's evaluation
//!
//! One binary per experiment (`exp1`..`exp6`, mapping to Figures 2–5 and
//! the Exp-1..Exp-6 discussion of Section 4) plus Criterion benches per
//! figure. Binaries print the same rows/series the paper reports; scales
//! default to laptop-friendly sizes and grow with `--scale`/`--rows`.
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

/// One measured discovery run in the parallel-scaling sweep — the record
/// format of `BENCH_parallel.json`, the machine-readable perf trajectory
/// tracked across PRs.
#[derive(Debug, Clone)]
pub struct ParallelSample {
    /// Dataset family name ("flight" / "ncvoter").
    pub dataset: String,
    /// Row count of the generated table.
    pub tuples: usize,
    /// Column count of the generated table.
    pub cols: usize,
    /// Approximation threshold the run used.
    pub epsilon: f64,
    /// Worker-thread count (`DiscoveryStats::threads_used`).
    pub threads: usize,
    /// End-to-end discovery wall time in milliseconds.
    pub wall_ms: f64,
    /// OCs found — a changed count across PRs flags a correctness drift,
    /// not just a perf one.
    pub n_ocs: usize,
}

impl ParallelSample {
    fn to_json(&self) -> String {
        // The shared escape-correct writer (`aod_core::json`): a dataset
        // name containing `"` or `\` stays valid JSON. `wall_ms` keeps its
        // fixed 3-decimal formatting via the raw-field escape hatch.
        let mut obj = aod_core::json::JsonObject::new();
        obj.str("dataset", &self.dataset)
            .num_u64("tuples", self.tuples as u64)
            .num_u64("cols", self.cols as u64)
            .num_f64("epsilon", self.epsilon)
            .num_u64("threads", self.threads as u64)
            .raw("wall_ms", &format!("{:.3}", self.wall_ms))
            .num_u64("n_ocs", self.n_ocs as u64);
        obj.finish()
    }
}

/// One measured run in the hybrid-vs-optimal dirty-data sweep — the
/// record format of `BENCH_hybrid.json` (emitted by the `exp_hybrid`
/// binary).
#[derive(Debug, Clone)]
pub struct HybridSample {
    /// Dataset family name.
    pub dataset: String,
    /// Row count of the generated table.
    pub tuples: usize,
    /// Column count of the generated table.
    pub cols: usize,
    /// Approximation threshold the run used.
    pub epsilon: f64,
    /// Strategy label ("optimal" or "hybrid").
    pub strategy: String,
    /// Initial sample stride (`None` for the optimal baseline).
    pub stride: Option<usize>,
    /// End-to-end discovery wall time in milliseconds.
    pub wall_ms: f64,
    /// OCs found — must match the optimal baseline exactly (the sweep
    /// self-checks full dependency-list equality, not just the count).
    pub n_ocs: usize,
    /// Candidates the sampling pre-check rejected outright.
    pub sample_hits: usize,
    /// Candidates whose sample passed (full validation ran anyway).
    pub sample_misses: usize,
}

impl HybridSample {
    fn to_json(&self) -> String {
        let mut obj = aod_core::json::JsonObject::new();
        obj.str("dataset", &self.dataset)
            .num_u64("tuples", self.tuples as u64)
            .num_u64("cols", self.cols as u64)
            .num_f64("epsilon", self.epsilon)
            .str("strategy", &self.strategy)
            .opt_u64("stride", self.stride.map(|s| s as u64))
            .raw("wall_ms", &format!("{:.3}", self.wall_ms))
            .num_u64("n_ocs", self.n_ocs as u64)
            .num_u64("sample_hits", self.sample_hits as u64)
            .num_u64("sample_misses", self.sample_misses as u64);
        obj.finish()
    }
}

/// Renders pre-encoded JSON object rows as one indented JSON array — the
/// shared shape of every `BENCH_*.json` emitter.
fn json_array_of(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|r| format!("  {r}")).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Serialises the hybrid sweep as a JSON array (same shape discipline as
/// [`parallel_json`]; parseable by `aod_core::json`).
pub fn hybrid_json(samples: &[HybridSample]) -> String {
    json_array_of(samples.iter().map(HybridSample::to_json))
}

/// Writes the hybrid sweep to `path` (conventionally `BENCH_hybrid.json`
/// at the workspace root).
pub fn write_hybrid_json(path: &str, samples: &[HybridSample]) -> std::io::Result<()> {
    std::fs::write(path, hybrid_json(samples))
}

/// Serialises samples as a JSON array (built on the shared
/// `aod_core::json` writer — the offline dependency policy excludes serde,
/// and the record is flat).
pub fn parallel_json(samples: &[ParallelSample]) -> String {
    json_array_of(samples.iter().map(ParallelSample::to_json))
}

/// Writes the sweep to `path` (conventionally `BENCH_parallel.json` at the
/// workspace root) so successive PRs can diff the perf trajectory.
pub fn write_parallel_json(path: &str, samples: &[ParallelSample]) -> std::io::Result<()> {
    std::fs::write(path, parallel_json(samples))
}

/// Minimal `--key value` argument parsing for the experiment binaries.
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
                 unknown --key value options are ignored; see the binary's\n\
                 module docs for which options it reads"
            );
            std::process::exit(0);
        }
        let mut args = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(name) = argv[i].strip_prefix("--") {
                let value = argv.get(i + 1).cloned().unwrap_or_default();
                args.push((name.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        ExpArgs { args }
    }

    /// Integer option with default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.args
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// String option with default.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.args
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }

    /// Float option with default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.args
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--epsilon` with range validation: a bad threshold is a usage error
    /// reported here, not a panic in the validators' `assert!`.
    pub fn epsilon(&self, default: f64) -> f64 {
        let epsilon = self.f64("epsilon", default);
        if !(0.0..=1.0).contains(&epsilon) {
            eprintln!("error: --epsilon: `{epsilon}` is not within [0, 1]");
            std::process::exit(2);
        }
        epsilon
    }
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
    fn parallel_json_is_machine_readable() {
        let samples = vec![
            ParallelSample {
                dataset: "flight".into(),
                tuples: 50_000,
                cols: 12,
                epsilon: 0.1,
                threads: 1,
                wall_ms: 1234.5678,
                n_ocs: 42,
            },
            ParallelSample {
                dataset: "flight".into(),
                tuples: 50_000,
                cols: 12,
                epsilon: 0.1,
                threads: 4,
                wall_ms: 345.6,
                n_ocs: 42,
            },
        ];
        let json = parallel_json(&samples);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"wall_ms\":1234.568")); // 3 decimals
        assert_eq!(json.matches("\"dataset\":\"flight\"").count(), 2);
        // Exactly one comma between the two records: valid JSON by shape.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn hybrid_json_is_machine_readable() {
        let samples = vec![
            HybridSample {
                dataset: "flight-dirty".into(),
                tuples: 20_000,
                cols: 8,
                epsilon: 0.05,
                strategy: "optimal".into(),
                stride: None,
                wall_ms: 900.5,
                n_ocs: 17,
                sample_hits: 0,
                sample_misses: 0,
            },
            HybridSample {
                dataset: "flight-dirty".into(),
                tuples: 20_000,
                cols: 8,
                epsilon: 0.05,
                strategy: "hybrid".into(),
                stride: Some(8),
                wall_ms: 500.25,
                n_ocs: 17,
                sample_hits: 40,
                sample_misses: 12,
            },
        ];
        let json = hybrid_json(&samples);
        let parsed = aod_core::json::JsonValue::parse(&json).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].get("stride").unwrap().is_null());
        assert_eq!(rows[1].get("stride").unwrap().as_u64(), Some(8));
        assert_eq!(rows[1].get("sample_hits").unwrap().as_u64(), Some(40));
        assert_eq!(rows[0].get("strategy").unwrap().as_str(), Some("optimal"));
        assert_eq!(rows[1].get("wall_ms").unwrap().as_f64(), Some(500.25));
    }

    #[test]
    fn parallel_json_escapes_hostile_dataset_names() {
        // Regression: the old `format!` emitter wrote names containing `"`
        // or `\` verbatim, producing unparseable output.
        let samples = vec![ParallelSample {
            dataset: "fli\"ght\\v2".into(),
            tuples: 10,
            cols: 2,
            epsilon: 0.1,
            threads: 1,
            wall_ms: 1.0,
            n_ocs: 0,
        }];
        let json = parallel_json(&samples);
        let parsed = aod_core::json::JsonValue::parse(&json).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(
            rows[0].get("dataset").unwrap().as_str(),
            Some("fli\"ght\\v2")
        );
    }

    #[test]
    fn timed_out_runs_get_a_star() {
        let t = Dataset::Flight.ranked_10(2000, 2);
        let runs = run_three_modes(&t, 0.1, Duration::ZERO);
        assert!(runs[2].result.stats.timed_out);
        assert!(runs[2].time_label().contains('*'));
    }
}
