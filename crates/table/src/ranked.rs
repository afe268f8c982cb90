//! Order-preserving dense rank encoding.
//!
//! Every algorithm in this workspace (partitioning, swap detection, LNDS)
//! depends only on the *relative order* of values within a column, never on
//! the values themselves. [`RankedTable`] therefore dictionary-encodes each
//! column once, mapping values to dense `u32` ranks `0..n_distinct` such that
//! `rank(v1) < rank(v2)` iff `v1 < v2` under the [`crate::value::Value`]
//! total order.
//!
//! One routine ranks every column: it sorts the column's non-null
//! `(key, row)` pairs, stably, and gives each run of equal keys the next
//! rank, after the nulls at rank 0. A column whose non-null cells are all
//! `Int`s, and every column from [`RankedTable::from_u32_columns`], gets
//! an order-preserving `u64` key sorted by an LSD radix pass that skips
//! the bytes all keys share. Any other column sorts its values by
//! [`crate::value::Value`]'s own comparison.
//!
//! After encoding, all hot paths operate on flat `&[u32]` slices: cache
//! friendly, branch-predictable comparisons, and no `Value` clones. This is
//! the same trick the original FASTOD implementation and TANE use
//! ("translating to integers" before building partitions).

use crate::table::Table;
use crate::value::Value;

/// A single rank-encoded column.
#[derive(Debug, Clone)]
pub struct RankedColumn {
    ranks: Vec<u32>,
    n_distinct: u32,
    /// For each rank, the lowest row holding that rank (used to decode
    /// ranks back into printable values).
    witness: Vec<u32>,
}

impl RankedColumn {
    /// The dense ranks, one per row.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// Number of distinct values in the column.
    pub fn n_distinct(&self) -> u32 {
        self.n_distinct
    }

    /// The rank of row `row`.
    #[inline]
    pub fn rank(&self, row: usize) -> u32 {
        self.ranks[row]
    }

    /// The lowest row index whose value has the given rank.
    pub fn witness_row(&self, rank: u32) -> usize {
        self.witness[rank as usize] as usize
    }
}

/// A table with every column rank-encoded.
#[derive(Debug, Clone)]
pub struct RankedTable {
    columns: Vec<RankedColumn>,
    n_rows: usize,
}

impl RankedTable {
    /// Rank-encodes every column of `table`.
    ///
    /// Cost: one radix pass of at most eight byte-wise counting sorts per
    /// `Int` column, so `O(n)` for `n` rows; `O(n log n)` comparisons per
    /// column holding a `Float` or a string.
    ///
    /// # Panics
    /// If the table exceeds [`crate::MAX_ROWS`] — unreachable for tables
    /// built through [`Table::new`], which rejects oversized inputs with a
    /// [`crate::TableError::TooManyRows`] first.
    pub fn from_table(table: &Table) -> RankedTable {
        let n = table.n_rows();
        assert!(
            crate::table::check_row_count(n).is_ok(),
            "table exceeds MAX_ROWS; row ids would wrap past u32"
        );
        let columns = (0..table.n_cols())
            .map(|c| rank_values(table.column(c)))
            .collect();
        RankedTable { columns, n_rows: n }
    }

    /// Builds a ranked table directly from raw `u32` columns, densifying the
    /// values so ranks are `0..n_distinct`. Useful for synthetic workloads
    /// and benchmarks that never materialise `Value`s.
    pub fn from_u32_columns(cols: Vec<Vec<u32>>) -> RankedTable {
        let n = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        assert!(
            crate::table::check_row_count(n).is_ok(),
            "table exceeds MAX_ROWS; row ids would wrap past u32"
        );
        let columns = cols
            .iter()
            .map(|col| {
                let mut keyed = col
                    .iter()
                    .zip(0u32..)
                    .map(|(&v, row)| (u64::from(v), row))
                    .collect();
                radix_sort(&mut keyed);
                rank_sorted(n, &[], &keyed)
            })
            .collect();
        RankedTable { columns, n_rows: n }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// A rank-encoded column.
    pub fn column(&self, idx: usize) -> &RankedColumn {
        &self.columns[idx]
    }

    /// The rank of `(row, col)`.
    #[inline]
    pub fn rank(&self, row: usize, col: usize) -> u32 {
        self.columns[col].ranks[row]
    }

    /// Restricts the ranked table to its first `n_cols` columns — cheap way
    /// for experiments to sweep over attribute-count without re-encoding.
    pub fn with_first_columns(&self, n_cols: usize) -> RankedTable {
        RankedTable {
            columns: self.columns[..n_cols.min(self.columns.len())].to_vec(),
            n_rows: self.n_rows,
        }
    }

    /// Restricts the ranked table to its first `n` rows, re-densifying ranks.
    pub fn head(&self, n: usize) -> RankedTable {
        let k = n.min(self.n_rows);
        RankedTable::from_u32_columns(self.columns.iter().map(|c| c.ranks[..k].to_vec()).collect())
    }

    /// A content fingerprint of the encoded relation: 64-bit FNV-1a over
    /// the dimensions and every rank, column by column. Order-isomorphic
    /// tables (same relative order cell for cell — the equivalence
    /// discovery results depend on) always share a fingerprint; distinct
    /// tables can collide, as with any 64-bit non-cryptographic hash, so
    /// use it to *detect* "probably the same discovery input", scoped
    /// under an identity key (e.g. a dataset name) wherever a collision
    /// must not substitute one table's results for another's.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.n_rows as u64);
        eat(self.columns.len() as u64);
        for col in &self.columns {
            eat(u64::from(col.n_distinct));
            for &r in &col.ranks {
                eat(u64::from(r));
            }
        }
        h
    }
}

/// Ranks one column: nulls at rank 0, then one rank per distinct value in
/// [`Value`] order.
fn rank_values(col: &[Value]) -> RankedColumn {
    let mut nulls = Vec::new();
    let mut ints = Vec::with_capacity(col.len());
    let mut all_int = true;
    for (value, row) in col.iter().zip(0u32..) {
        match value {
            Value::Null => nulls.push(row),
            Value::Int(i) => ints.push((int_key(*i), row)),
            Value::Float(_) | Value::Str(_) => all_int = false,
        }
    }
    if all_int {
        radix_sort(&mut ints);
        return rank_sorted(col.len(), &nulls, &ints);
    }
    let mut values: Vec<(&Value, u32)> = col
        .iter()
        .zip(0u32..)
        .filter(|(value, _)| !value.is_null())
        .collect();
    values.sort_by(|a, b| a.0.cmp(b.0));
    rank_sorted(col.len(), &nulls, &values)
}

/// `i64` → `u64` preserving order: flipping the sign bit moves the
/// negatives below the non-negatives.
fn int_key(i: i64) -> u64 {
    (i as u64) ^ (1 << 63)
}

/// Sorts `(key, row)` pairs by key, stably: one counting pass per key byte,
/// least significant first, skipping every byte on which all keys agree.
fn radix_sort(pairs: &mut Vec<(u64, u32)>) {
    let Some(&(first, _)) = pairs.first() else {
        return;
    };
    let varying = pairs.iter().fold(0, |bits, &(key, _)| bits | (key ^ first));
    let mut buffer = Vec::new();
    for shift in (0..64).step_by(8) {
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let mut slots = [0usize; 256];
        for &(key, _) in pairs.iter() {
            slots[(key >> shift) as usize & 0xFF] += 1;
        }
        let mut next = 0;
        for slot in slots.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        buffer.resize(pairs.len(), (0, 0));
        for &(key, row) in pairs.iter() {
            let slot = &mut slots[(key >> shift) as usize & 0xFF];
            buffer[*slot] = (key, row);
            *slot += 1;
        }
        std::mem::swap(pairs, &mut buffer);
    }
}

/// The ranks of `n` rows: `nulls` (ascending) at rank 0, then one rank per
/// run of equal keys in `sorted`, whose equal keys are in row order.
fn rank_sorted<K: PartialEq>(n: usize, nulls: &[u32], sorted: &[(K, u32)]) -> RankedColumn {
    let mut ranks = vec![0u32; n];
    let mut witness: Vec<u32> = nulls.first().copied().into_iter().collect();
    for (i, (key, row)) in sorted.iter().enumerate() {
        if i == 0 || sorted[i - 1].0 != *key {
            witness.push(*row);
        }
        ranks[*row as usize] = witness.len() as u32 - 1;
    }
    RankedColumn {
        ranks,
        n_distinct: witness.len() as u32,
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::employee_table;
    use crate::value::Value;

    fn ranks_preserve_order(table: &Table, ranked: &RankedTable) {
        for c in 0..table.n_cols() {
            let col = table.column(c);
            for i in 0..table.n_rows() {
                for j in 0..table.n_rows() {
                    let vcmp = col[i].cmp(&col[j]);
                    let rcmp = ranked.rank(i, c).cmp(&ranked.rank(j, c));
                    assert_eq!(vcmp, rcmp, "col {c}, rows {i},{j}");
                }
            }
        }
    }

    #[test]
    fn encoding_preserves_order_on_employee_table() {
        let t = employee_table();
        let r = RankedTable::from_table(&t);
        assert_eq!(r.n_rows(), 9);
        assert_eq!(r.n_cols(), 7);
        ranks_preserve_order(&t, &r);
    }

    #[test]
    fn ranks_are_dense() {
        let t = Table::from_rows(
            &["a"],
            vec![
                vec![Value::Int(100)],
                vec![Value::Int(5)],
                vec![Value::Int(100)],
                vec![Value::Int(7)],
            ],
        )
        .unwrap();
        let r = RankedTable::from_table(&t);
        assert_eq!(r.column(0).ranks(), &[2, 0, 2, 1]);
        assert_eq!(r.column(0).n_distinct(), 3);
    }

    #[test]
    fn witness_rows_decode_ranks() {
        let t = employee_table();
        let r = RankedTable::from_table(&t);
        let col = r.column(2); // sal
        for row in 0..t.n_rows() {
            let rank = col.rank(row);
            let w = col.witness_row(rank);
            assert_eq!(t.value(w, 2), t.value(row, 2));
        }
    }

    #[test]
    fn nulls_rank_lowest() {
        let t = Table::from_rows(
            &["a"],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(0)]],
        )
        .unwrap();
        let r = RankedTable::from_table(&t);
        assert_eq!(r.column(0).ranks(), &[2, 0, 1]);
    }

    #[test]
    fn i64_max_and_two_to_the_63_rank_apart() {
        let csv = "x\n9223372036854775807\n9223372036854775808\n";
        let t = crate::csv::read_str(csv, &crate::csv::CsvOptions::default()).unwrap();
        let r = RankedTable::from_table(&t);
        assert_eq!(r.column(0).n_distinct(), 2);
        assert_eq!(r.column(0).ranks(), &[0, 1]);
    }

    #[test]
    fn from_u32_columns_densifies() {
        let r = RankedTable::from_u32_columns(vec![vec![10, 3, 10, 99]]);
        assert_eq!(r.column(0).ranks(), &[1, 0, 1, 2]);
        assert_eq!(r.column(0).n_distinct(), 3);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_u32_columns_rejects_ragged() {
        RankedTable::from_u32_columns(vec![vec![1, 2], vec![1]]);
    }

    #[test]
    fn head_and_column_subset() {
        let r = RankedTable::from_u32_columns(vec![vec![5, 4, 3, 2, 1], vec![1, 1, 2, 2, 3]]);
        let h = r.head(3);
        assert_eq!(h.n_rows(), 3);
        assert_eq!(h.column(0).ranks(), &[2, 1, 0]);
        let s = r.with_first_columns(1);
        assert_eq!(s.n_cols(), 1);
        assert_eq!(s.n_rows(), 5);
    }

    #[test]
    fn empty_table() {
        let r = RankedTable::from_u32_columns(vec![vec![]]);
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.column(0).n_distinct(), 0);
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let a = RankedTable::from_u32_columns(vec![vec![1, 2, 3], vec![3, 2, 1]]);
        // Order-isomorphic (raw values differ, ranks agree): same fingerprint.
        let b = RankedTable::from_u32_columns(vec![vec![10, 20, 30], vec![9, 8, 7]]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any cell order flip changes it.
        let c = RankedTable::from_u32_columns(vec![vec![1, 3, 2], vec![3, 2, 1]]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Shape changes change it, including column order.
        assert_ne!(a.fingerprint(), a.with_first_columns(1).fingerprint());
        let swapped = RankedTable::from_u32_columns(vec![vec![3, 2, 1], vec![1, 2, 3]]);
        assert_ne!(a.fingerprint(), swapped.fingerprint());
        // Deterministic across calls.
        assert_eq!(a.fingerprint(), a.fingerprint());
    }
}
