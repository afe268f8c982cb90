//! The workloads and the CSV inputs they are generated from.
//!
//! Every input is a pure function of the workload and the seed. The
//! program under test sees only the CSV file written here.

use aod_datagen::dirty::{inject_concatenated_zero, inject_transpositions};
use aod_datagen::flight;
use aod_table::csv::{write_path, CsvOptions};
use aod_table::Table;
use std::path::{Path, PathBuf};

/// What a workload runs on its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Run {
    /// In-process discovery at one ε; `threads == 0` means one per core.
    Batch { epsilon: f64, threads: usize },
    /// HTTP jobs against a separate server process.
    Serve,
}

/// One flight-shaped input table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Input {
    pub rows: usize,
    pub cols: usize,
    /// Applies the dirt of the hybrid-sampling experiment: 20%
    /// transpositions on columns 1.., 10% concatenated zeros on column 1.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub run: Run,
}

/// Transposition rate of the dirty input; concatenated zeros get half.
const DIRT: f64 = 0.2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flight-deep",
        input: Input {
            rows: 50_000,
            cols: 12,
            dirty: false,
        },
        run: Run::Batch {
            epsilon: 0.1,
            threads: 1,
        },
    },
    Workload {
        name: "dirty-tall",
        input: Input {
            rows: 200_000,
            cols: 8,
            dirty: true,
        },
        run: Run::Batch {
            epsilon: 0.01,
            threads: 1,
        },
    },
    Workload {
        name: "flight-deep-par",
        input: Input {
            rows: 50_000,
            cols: 12,
            dirty: false,
        },
        run: Run::Batch {
            epsilon: 0.1,
            threads: 0,
        },
    },
    Workload {
        name: "serve-mix",
        input: Input {
            rows: 10_000,
            cols: 8,
            dirty: false,
        },
        run: Run::Serve,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Resolves a thread setting of 0 to the number of cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

impl Input {
    /// The generated table (all in memory; tests use it directly).
    pub fn table(&self, seed: u64) -> Table {
        let mut table = flight::flight(seed).table(self.rows);
        if self.dirty {
            for c in 1..self.cols.min(table.n_cols()) {
                inject_transpositions(&mut table, c, DIRT, seed ^ (c as u64).wrapping_mul(0x9e37));
            }
            inject_concatenated_zero(&mut table, 1, DIRT / 2.0, seed ^ 0xbeef);
        }
        let first: Vec<usize> = (0..self.cols).collect();
        table
            .project(&first)
            .expect("the flight preset has more columns than any workload uses")
    }

    pub fn csv_path(&self, dir: &Path, seed: u64) -> PathBuf {
        let kind = if self.dirty { "dirty" } else { "flight" };
        dir.join(format!("{kind}-{}x{}-seed{seed}.csv", self.rows, self.cols))
    }

    /// Writes the input CSV into `dir` and returns its path.
    pub fn write_csv(&self, dir: &Path, seed: u64) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = self.csv_path(dir, seed);
        write_path(&self.table(seed), &path, &CsvOptions::default())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// The ε of the `i`-th of `n` fresh serve jobs: distinct values spread
/// over [0.01, 0.2], visited in a fixed interleaved order so that cheap
/// and expensive configurations alternate through the run. `n` must be
/// coprime to 61 for the values to be distinct.
pub fn serve_epsilon(i: usize, n: usize) -> f64 {
    let k = (i * 61) % n;
    0.01 + 0.19 * k as f64 / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_epsilons_are_distinct_and_in_range() {
        let mut eps: Vec<f64> = (0..100).map(|i| serve_epsilon(i, 100)).collect();
        assert!(eps.iter().all(|e| (0.01..=0.2 + 1e-12).contains(e)));
        eps.sort_by(f64::total_cmp);
        eps.dedup();
        assert_eq!(eps.len(), 100);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let input = Input {
            rows: 300,
            cols: 8,
            dirty: true,
        };
        let (a, b, c) = (input.table(5), input.table(5), input.table(6));
        assert_eq!(a.n_cols(), 8);
        let rows = |t: &Table| (0..t.n_rows()).map(|r| t.row(r)).collect::<Vec<_>>();
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
    }
}
