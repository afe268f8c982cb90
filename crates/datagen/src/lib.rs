//! # aod-datagen — synthetic workloads shaped like the paper's datasets
//!
//! The paper evaluates on two real datasets (BTS `flight`, 1M×35; NC
//! `ncvoter`, 5M×30) that cannot be redistributed with this repository.
//! This crate provides deterministic generators whose outputs have the same
//! *structural* properties the algorithms are sensitive to — class-size
//! distributions, monotone correlations, hierarchies, and controlled dirt —
//! including the specific approximate OCs the paper calls out by name
//! (`arrDelay ~ lateAircraftDelay` ≈ 9.5%, `originAirport ~ IATACode` ≈ 8%,
//! `municipalityAbbrv ~ municipalityDesc`, `streetAddress ~ mailAddress` ≈
//! 18%).
//!
//! * [`Generator`] / [`ColumnKind`] — the composable column model.
//! * [`flight::flight`] and [`ncvoter::ncvoter`] — the two presets.
//! * [`dirty`] — error injectors (concatenated zeros, transpositions) for
//!   demonstrating cleaning workflows on any [`aod_table::Table`].
//!
//! ```
//! use aod_datagen::flight;
//!
//! let table = flight::flight(42).ranked(1_000);
//! assert_eq!(table.n_cols(), flight::N_COLS);
//! assert_eq!(table.n_rows(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dirty;
pub mod flight;
mod generic;
pub mod ncvoter;

pub use generic::{ColumnKind, ColumnSpec, Generator};
