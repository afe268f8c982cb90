//! Columnar in-memory tables.
//!
//! A [`Table`] stores one `Vec<Value>` per column. It is the user-facing
//! representation: algorithms never run on it directly — they run on a
//! [`crate::ranked::RankedTable`] derived from it — but discovery results
//! refer back to the table for column names and example values.

use crate::error::TableError;
use crate::schema::Schema;
use crate::value::Value;

/// The largest row count the workspace supports: row ids are `u32`
/// throughout the hot paths (partitions, removal sets, rank permutations),
/// with `u32::MAX` reserved as a probe-table sentinel. Construction-time
/// guards ([`check_row_count`]) turn oversized inputs into a
/// [`TableError::TooManyRows`] instead of silently wrapping ids.
pub const MAX_ROWS: usize = u32::MAX as usize - 1;

/// Checks a prospective row count against [`MAX_ROWS`].
///
/// Every table/partition constructor funnels through this (directly or via
/// [`Table::new`]), so CSV ingestion, datagen and programmatic construction
/// all reject oversized relations with a clean error rather than truncating
/// `row as u32`.
///
/// # Errors
/// [`TableError::TooManyRows`] when `n_rows > MAX_ROWS`.
pub fn check_row_count(n_rows: usize) -> Result<(), TableError> {
    if n_rows > MAX_ROWS {
        return Err(TableError::TooManyRows {
            found: n_rows,
            max: MAX_ROWS,
        });
    }
    Ok(())
}

/// A columnar table: a schema plus one value vector per column.
#[derive(Debug, Clone, Default)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    n_rows: usize,
}

impl Table {
    /// Builds a table from a schema and columns.
    ///
    /// # Errors
    /// Returns [`TableError::ColumnLength`] when the column vectors disagree
    /// in length or their count differs from the schema, and
    /// [`TableError::TooManyRows`] when the rows exceed [`MAX_ROWS`].
    pub fn new(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Self, TableError> {
        if columns.len() != schema.len() {
            return Err(TableError::ColumnLength {
                column: "<schema>".into(),
                found: columns.len(),
                expected: schema.len(),
            });
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        check_row_count(n_rows)?;
        for (i, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(TableError::ColumnLength {
                    column: schema.name(i).to_string(),
                    found: col.len(),
                    expected: n_rows,
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            n_rows,
        })
    }

    /// Builds a table from rows (convenient for tests and examples).
    ///
    /// ```
    /// use aod_table::{Table, Value};
    /// let t = Table::from_rows(
    ///     &["a", "b"],
    ///     vec![
    ///         vec![Value::Int(1), Value::from("x")],
    ///         vec![Value::Int(2), Value::from("y")],
    ///     ],
    /// )
    /// .unwrap();
    /// assert_eq!(t.n_rows(), 2);
    /// ```
    ///
    /// # Errors
    /// Returns [`TableError::RowArity`] when a row length differs from the
    /// header length, [`TableError::DuplicateColumn`] for bad headers, or
    /// [`TableError::TooManyRows`] beyond [`MAX_ROWS`].
    pub fn from_rows<S: AsRef<str>>(
        names: &[S],
        rows: Vec<Vec<Value>>,
    ) -> Result<Self, TableError> {
        let schema = Schema::from_names(names)?;
        let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); names.len()];
        for (r, row) in rows.into_iter().enumerate() {
            if row.len() != names.len() {
                return Err(TableError::RowArity {
                    row: r + 1,
                    found: row.len(),
                    expected: names.len(),
                });
            }
            for (c, v) in row.into_iter().enumerate() {
                columns[c].push(v);
            }
        }
        Table::new(schema, columns)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// A column by index.
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// The value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Materialises a single row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[row].clone()).collect()
    }

    /// A new table containing only the given columns, in the given order.
    ///
    /// # Errors
    /// [`TableError::ColumnIndex`] for an out-of-range index.
    pub fn project(&self, indices: &[usize]) -> Result<Table, TableError> {
        for &i in indices {
            if i >= self.n_cols() {
                return Err(TableError::ColumnIndex(i));
            }
        }
        Ok(Table {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            n_rows: self.n_rows,
        })
    }

    /// A new table containing only the rows whose indices are given.
    pub fn take_rows(&self, rows: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| rows.iter().map(|&r| c[r].clone()).collect())
                .collect(),
            n_rows: rows.len(),
        }
    }

    /// Mutable access to a column (used by error injectors in `aod-datagen`).
    pub fn column_mut(&mut self, idx: usize) -> &mut Vec<Value> {
        &mut self.columns[idx]
    }
}

/// The running example of the paper (Table 1, employee salaries).
///
/// Used throughout tests, docs and the quickstart example. Columns:
/// `pos, exp, sal, taxGrp, perc, tax, bonus`; 9 tuples `t1..t9`.
pub fn employee_table() -> Table {
    let rows: Vec<Vec<Value>> = vec![
        // pos     exp  sal      taxGrp perc  tax      bonus
        vec![
            "sec".into(),
            1.into(),
            20_000.into(),
            "A".into(),
            10.into(),
            2_000.into(),
            1_000.into(),
        ],
        vec![
            "sec".into(),
            3.into(),
            25_000.into(),
            "A".into(),
            10.into(),
            2_500.into(),
            1_000.into(),
        ],
        vec![
            "dev".into(),
            1.into(),
            30_000.into(),
            "A".into(),
            1.into(),
            300.into(),
            3_000.into(),
        ],
        vec![
            "sec".into(),
            5.into(),
            40_000.into(),
            "B".into(),
            30.into(),
            12_000.into(),
            2_000.into(),
        ],
        vec![
            "dev".into(),
            3.into(),
            50_000.into(),
            "B".into(),
            3.into(),
            1_500.into(),
            4_000.into(),
        ],
        vec![
            "dev".into(),
            5.into(),
            55_000.into(),
            "B".into(),
            30.into(),
            16_500.into(),
            4_000.into(),
        ],
        vec![
            "dev".into(),
            5.into(),
            60_000.into(),
            "B".into(),
            3.into(),
            1_800.into(),
            4_000.into(),
        ],
        vec![
            "dev".into(),
            (-1).into(),
            90_000.into(),
            "C".into(),
            8.into(),
            7_200.into(),
            7_000.into(),
        ],
        vec![
            "dir".into(),
            8.into(),
            200_000.into(),
            "C".into(),
            8.into(),
            16_000.into(),
            10_000.into(),
        ],
    ];
    Table::from_rows(
        &["pos", "exp", "sal", "taxGrp", "perc", "tax", "bonus"],
        rows,
    )
    // aod-lint: allow(P2) -- literal 9x7 table; from_rows only errors on ragged rows or > MAX_ROWS
    .expect("employee table is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_guard_boundaries() {
        // The guard function is the testable unit (a real MAX_ROWS + 1
        // table would need ~16 GiB of ids): at the boundary it accepts,
        // one past it errors with the dedicated variant.
        assert!(check_row_count(0).is_ok());
        assert!(check_row_count(MAX_ROWS).is_ok());
        match check_row_count(MAX_ROWS + 1) {
            Err(TableError::TooManyRows { found, max }) => {
                assert_eq!(found, MAX_ROWS + 1);
                assert_eq!(max, MAX_ROWS);
            }
            other => panic!("expected TooManyRows, got {other:?}"),
        }
        // u32::MAX itself is reserved as the partition probe sentinel.
        assert_eq!(MAX_ROWS, u32::MAX as usize - 1);
        let msg = check_row_count(usize::MAX).unwrap_err().to_string();
        assert!(msg.contains("32-bit row ids"), "{msg}");
    }

    #[test]
    fn from_rows_builds_columns() {
        let t = Table::from_rows(
            &["a", "b"],
            vec![
                vec![Value::Int(1), "x".into()],
                vec![Value::Int(2), "y".into()],
            ],
        )
        .unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.column(0), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(t.value(1, 1), &Value::from("y"));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Table::from_rows(&["a", "b"], vec![vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(
            err,
            TableError::RowArity {
                row: 1,
                found: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn new_rejects_unequal_columns() {
        let s = Schema::from_names(&["a", "b"]).unwrap();
        let err = Table::new(s, vec![vec![Value::Int(1)], vec![]]).unwrap_err();
        assert!(matches!(err, TableError::ColumnLength { .. }));
    }

    #[test]
    fn projection_and_head() {
        let t = employee_table();
        let p = t.project(&[0, 2]).unwrap();
        assert_eq!(p.schema().names(), vec!["pos", "sal"]);
        assert_eq!(p.n_rows(), 9);
        let h = t.take_rows(&[0, 1, 2]);
        assert_eq!(h.n_rows(), 3);
        assert_eq!(h.value(2, 0), &Value::from("dev"));
        assert!(t.project(&[99]).is_err());
    }

    #[test]
    fn take_rows_reorders() {
        let t = employee_table();
        let sub = t.take_rows(&[8, 0]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.value(0, 0), &Value::from("dir"));
        assert_eq!(sub.value(1, 0), &Value::from("sec"));
    }

    #[test]
    fn employee_table_matches_paper() {
        let t = employee_table();
        assert_eq!(t.n_rows(), 9);
        assert_eq!(t.n_cols(), 7);
        // t8 is the dev with -1 years of experience and 90K salary.
        assert_eq!(t.value(7, 1), &Value::Int(-1));
        assert_eq!(t.value(7, 2), &Value::Int(90_000));
        // t9 earns 200K in tax group C.
        assert_eq!(t.value(8, 3), &Value::from("C"));
    }
}
