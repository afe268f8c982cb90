//! Error type for table construction and I/O.

use std::fmt;
use std::io;

/// Errors raised by table construction, projection and CSV ingestion.
#[derive(Debug)]
pub enum TableError {
    /// Two columns in a schema share the same name.
    DuplicateColumn(String),
    /// A row had a different number of fields than the schema.
    RowArity {
        /// 1-based row number (header is row 1 when present).
        row: usize,
        /// Fields found in the row.
        found: usize,
        /// Fields expected from the schema.
        expected: usize,
    },
    /// Column lengths disagree when assembling a table.
    ColumnLength {
        /// Offending column name.
        column: String,
        /// Rows in that column.
        found: usize,
        /// Rows expected.
        expected: usize,
    },
    /// The table has more rows than the `u32` row-id space supports.
    TooManyRows {
        /// Rows found.
        found: usize,
        /// The maximum supported row count ([`crate::MAX_ROWS`]).
        max: usize,
    },
    /// A column index is out of range.
    ColumnIndex(usize),
    /// Malformed CSV (e.g. unterminated quoted field).
    Csv {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DuplicateColumn(name) => write!(f, "duplicate column name `{name}`"),
            TableError::RowArity {
                row,
                found,
                expected,
            } => {
                write!(f, "row {row} has {found} fields, expected {expected}")
            }
            TableError::ColumnLength {
                column,
                found,
                expected,
            } => {
                write!(f, "column `{column}` has {found} rows, expected {expected}")
            }
            TableError::TooManyRows { found, max } => {
                write!(
                    f,
                    "table has {found} rows, more than the {max} supported by 32-bit row ids"
                )
            }
            TableError::ColumnIndex(idx) => write!(f, "column index {idx} out of range"),
            TableError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TableError {
    fn from(e: io::Error) -> Self {
        TableError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::RowArity {
            row: 3,
            found: 2,
            expected: 5,
        };
        assert_eq!(e.to_string(), "row 3 has 2 fields, expected 5");
        let e = TableError::Csv {
            line: 9,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 9"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        use std::error::Error;
        let e: TableError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
    }
}
