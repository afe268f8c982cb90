//! # aod-table — relation substrate for order dependency discovery
//!
//! This crate provides the in-memory relational layer the rest of the
//! workspace builds on:
//!
//! * [`Value`] — a dynamically typed cell value with a **total** order
//!   (nulls first, numbers numerically, strings last), the one property
//!   order-dependency semantics require.
//! * [`Table`] — a columnar table whose [`Schema`] names its columns.
//! * [`csv`] — a hand-rolled RFC-4180-style reader/writer; each field is
//!   parsed into a [`Value`] on its own, with no type inferred per column.
//! * [`RankedTable`] — the order-preserving dense rank encoding
//!   (`Vec<u32>` per column) that every algorithm actually runs on.
//! * [`employee_table`] — Table 1 of the paper, the running example.
//!
//! ## Quick example
//!
//! ```
//! use aod_table::{employee_table, RankedTable};
//!
//! let table = employee_table();
//! let ranked = RankedTable::from_table(&table);
//! // salary is a key in Table 1: 9 distinct values over 9 rows
//! assert_eq!(ranked.column(2).n_distinct(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
mod error;
mod ranked;
mod schema;
mod table;
mod value;

pub use error::TableError;
pub use ranked::{RankedColumn, RankedTable};
pub use schema::Schema;
pub use table::{check_row_count, employee_table, Table, MAX_ROWS};
pub use value::Value;
