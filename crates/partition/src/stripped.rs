//! Stripped partitions (TANE-style equivalence-class indexes).
//!
//! A partition `Π_X` groups row ids by equal projections on the attribute
//! set `X` (Definition 2.8). *Stripped* partitions drop singleton classes —
//! a tuple alone in its class can participate in no split and no swap, so
//! every validator ignores it. Stripping is what keeps level-wise discovery
//! linear in practice: partitions shrink as contexts grow.
//!
//! Representation: one flat `Vec<u32>` of row ids plus class boundaries
//! (offsets), i.e. a CSR-style layout — single allocation, cache-friendly
//! scans, no per-class `Vec`.
//!
//! One routine builds every partition: [`Partition::refine`] splits each
//! class of `Π_X` on one more column `C`, giving `Π_{X ∪ {C}}`.
//!
//! Invariant: row ids within each class are in ascending order. Classes
//! come in the order of the classes they were split from, then by first
//! row; no reported value depends on class order.

use aod_table::{RankedColumn, RankedTable};

/// Marks a rank whose rows form a singleton while [`Partition::refine`]
/// places a class's rows. No output offset reaches it: every partition
/// descends from [`Partition::unit`], which caps `n_rows` at
/// [`aod_table::MAX_ROWS`] `= u32::MAX − 1`.
const NONE: u32 = u32::MAX;

/// A stripped partition of a relation's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Row ids, grouped by class.
    elems: Vec<u32>,
    /// Class `k` spans `elems[bounds[k] .. bounds[k+1]]`; `len = n_classes+1`.
    bounds: Vec<u32>,
    /// Total rows in the underlying relation (not just grouped ones).
    n_rows: usize,
}

impl Partition {
    /// The partition of the empty attribute set: one class holding all rows
    /// (stripped away when the relation has fewer than two rows).
    ///
    /// # Panics
    /// If `n_rows` exceeds [`aod_table::MAX_ROWS`] — row ids are `u32`
    /// (with `u32::MAX` reserved as [`Partition::refine`]'s singleton
    /// marker), so a larger relation would silently wrap ids. Table
    /// construction rejects such inputs with an error first; this guard is
    /// defence in depth for direct partition construction.
    pub fn unit(n_rows: usize) -> Partition {
        assert!(
            aod_table::check_row_count(n_rows).is_ok(),
            "{n_rows} rows exceed MAX_ROWS; u32 row ids would wrap"
        );
        if n_rows < 2 {
            return Partition {
                elems: Vec::new(),
                bounds: vec![0],
                n_rows,
            };
        }
        Partition {
            elems: (0..n_rows as u32).collect(),
            bounds: vec![0, n_rows as u32],
            n_rows,
        }
    }

    /// Builds `Π_{A}` for a single rank-encoded column: the unit
    /// partition refined on it, `O(n + n_distinct)`.
    pub fn from_ranked_column(col: &RankedColumn) -> Partition {
        Self::from_ranks(col.ranks(), col.n_distinct())
    }

    /// Builds a partition grouping rows with equal `ranks` values
    /// (values must be dense in `0..n_distinct`).
    ///
    /// # Panics
    /// If `ranks` names more rows than [`aod_table::MAX_ROWS`] (see
    /// [`Partition::unit`]).
    pub fn from_ranks(ranks: &[u32], n_distinct: u32) -> Partition {
        Partition::unit(ranks.len()).refine(ranks, n_distinct, &mut RefineScratch::default())
    }

    /// Builds `Π_X` for an arbitrary attribute set by refining the unit
    /// partition on each member column. Convenience for tests and one-off
    /// validation; the discovery driver refines cached partitions instead.
    pub fn for_attrs<I: IntoIterator<Item = usize>>(table: &RankedTable, attrs: I) -> Partition {
        let mut scratch = RefineScratch::default();
        attrs
            .into_iter()
            .fold(Partition::unit(table.n_rows()), |part, a| {
                let col = table.column(a);
                part.refine(col.ranks(), col.n_distinct(), &mut scratch)
            })
    }

    /// Number of (non-singleton) classes.
    pub fn n_classes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of rows contained in the stripped classes.
    pub fn n_grouped_rows(&self) -> usize {
        self.elems.len()
    }

    /// Number of singleton classes that were stripped.
    pub fn n_singletons(&self) -> usize {
        self.n_rows - self.n_grouped_rows()
    }

    /// Number of classes in the *unstripped* partition `Π_X`
    /// (`|Π_X|` in TANE's notation).
    pub fn n_classes_unstripped(&self) -> usize {
        self.n_classes() + self.n_singletons()
    }

    /// The rows of class `k` (ascending row ids).
    pub fn class(&self, k: usize) -> &[u32] {
        &self.elems[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// Iterates over classes as row-id slices.
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds
            .windows(2)
            .map(move |w| &self.elems[w[0] as usize..w[1] as usize])
    }

    /// `true` when `X` is a (super)key: every class is a singleton.
    pub fn is_key(&self) -> bool {
        self.elems.is_empty()
    }

    /// Minimum number of rows to remove so the FD `X -> A` holds, where
    /// `self = Π_X` and `rhs_ranks` are `A`'s dense ranks
    /// (`rhs_n_distinct` of them). This is TANE's `g₃` numerator and — per
    /// Definition 2.14 — the exact minimal-removal-set size for the OFD
    /// `X: [] -> A`:
    /// within each class, keep the most frequent `A` value, remove the rest.
    ///
    /// `O(grouped rows)` using a counting scratch of size `rhs_n_distinct`.
    pub fn fd_removal_count(&self, rhs_ranks: &[u32], rhs_n_distinct: u32) -> usize {
        let mut counts = vec![0u32; rhs_n_distinct as usize];
        let mut removed = 0usize;
        for class in self.classes() {
            let mut max = 0u32;
            for &row in class {
                let c = &mut counts[rhs_ranks[row as usize] as usize];
                *c += 1;
                if *c > max {
                    max = *c;
                }
            }
            removed += class.len() - max as usize;
            for &row in class {
                counts[rhs_ranks[row as usize] as usize] = 0;
            }
        }
        removed
    }

    /// `true` iff the FD `X -> A` holds exactly.
    pub fn fd_holds(&self, rhs_ranks: &[u32], rhs_n_distinct: u32) -> bool {
        self.fd_removal_count(rhs_ranks, rhs_n_distinct) == 0
    }

    /// Refines `self = Π_X` on a column `C` with dense `ranks` in
    /// `0..n_distinct`, giving the stripped `Π_{X ∪ {C}}`.
    ///
    /// Per class, for every class size: count each rank's rows (listing
    /// the ranks touched), give each rank of two or more rows a range of
    /// the output in first-row order, place the rows (so they stay
    /// ascending) and reset the touched counters. Linear in the grouped
    /// rows of `self`.
    ///
    /// # Panics
    /// If `ranks` covers a different number of rows than the relation.
    pub fn refine(&self, ranks: &[u32], n_distinct: u32, scratch: &mut RefineScratch) -> Partition {
        assert_eq!(ranks.len(), self.n_rows, "ranks over a different relation");
        let RefineScratch { slot, touched } = scratch;
        if slot.len() < n_distinct as usize {
            slot.resize(n_distinct as usize, 0);
        }
        debug_assert!(
            slot.iter().all(|&s| s == 0) && touched.is_empty(),
            "scratch not reset"
        );
        // Sized for the most the output can hold, then shrunk to fit, so
        // cached partitions carry no spare capacity.
        let mut elems = Vec::with_capacity(self.elems.len());
        let mut bounds = Vec::with_capacity(self.elems.len() / 2 + 1);
        bounds.push(0);
        for class in self.classes() {
            for &row in class {
                let rank = ranks[row as usize];
                if slot[rank as usize] == 0 {
                    touched.push(rank);
                }
                slot[rank as usize] += 1;
            }
            let mut end = elems.len() as u32;
            for &rank in touched.iter() {
                let count = slot[rank as usize];
                if count < 2 {
                    slot[rank as usize] = NONE;
                } else {
                    slot[rank as usize] = end;
                    end += count;
                    bounds.push(end);
                }
            }
            elems.resize(end as usize, 0);
            for &row in class {
                let next = &mut slot[ranks[row as usize] as usize];
                if *next != NONE {
                    elems[*next as usize] = row;
                    *next += 1;
                }
            }
            for &rank in touched.iter() {
                slot[rank as usize] = 0;
            }
            touched.clear();
        }
        elems.shrink_to_fit();
        bounds.shrink_to_fit();
        Partition {
            elems,
            bounds,
            n_rows: self.n_rows,
        }
    }
}

/// Reusable scratch space for [`Partition::refine`]: a per-rank table,
/// all zeros between calls, that grows to the largest `n_distinct` seen.
/// Holding one across a discovery level avoids reallocating it per
/// refinement (the perf-book "workhorse collection" pattern).
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Per rank: the current class's row count, then the next output
    /// position of its group (`NONE` for a singleton).
    slot: Vec<u32>,
    /// The ranks seen in the current class, in first-row order.
    touched: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn employee_ranked() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// Reference partition: rows grouped by their projection on `attrs`,
    /// singletons dropped, classes sorted.
    fn brute_partition(table: &RankedTable, attrs: &[usize]) -> Vec<Vec<u32>> {
        let mut groups: BTreeMap<Vec<u32>, Vec<u32>> = BTreeMap::new();
        for row in 0..table.n_rows() {
            let key = attrs.iter().map(|&a| table.rank(row, a)).collect();
            groups.entry(key).or_default().push(row as u32);
        }
        let mut classes: Vec<Vec<u32>> = groups.into_values().filter(|c| c.len() >= 2).collect();
        classes.sort();
        classes
    }

    /// The classes in sorted order; rows stay as stored (ascending).
    fn normalize(p: &Partition) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = p.classes().map(<[u32]>::to_vec).collect();
        classes.sort();
        classes
    }

    #[test]
    fn partition_on_pos_matches_paper_example_2_9() {
        // Π_pos = {{t1,t2,t4}, {t3,t5,t6,t7,t8}, {t9}}; stripped drops {t9}.
        let r = employee_ranked();
        let p = Partition::from_ranked_column(r.column(0));
        assert_eq!(p.n_classes(), 2);
        assert_eq!(p.n_singletons(), 1);
        assert_eq!(p.n_classes_unstripped(), 3);
        let classes = normalize(&p);
        assert!(classes.contains(&vec![0, 1, 3])); // the three `sec` rows
        assert!(classes.contains(&vec![2, 4, 5, 6, 7])); // the five `dev` rows
    }

    #[test]
    fn unit_partition() {
        let p = Partition::unit(5);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0), &[0, 1, 2, 3, 4]);
        assert!(!p.is_key());
        let tiny = Partition::unit(1);
        assert!(tiny.is_key());
        assert_eq!(tiny.n_classes_unstripped(), 1);
        let empty = Partition::unit(0);
        assert!(empty.is_key());
        assert_eq!(empty.n_classes_unstripped(), 0);
    }

    #[test]
    fn for_attrs_matches_brute_force_on_employee() {
        let r = employee_ranked();
        let attr_sets: &[&[usize]] = &[
            &[0, 1],
            &[0, 3],
            &[3, 4],
            &[0, 1, 3],
            &[0, 3, 4, 6],
            &[2, 3],
        ];
        for attrs in attr_sets {
            let brute = brute_partition(&r, attrs);
            let p = Partition::for_attrs(&r, attrs.iter().copied());
            assert_eq!(normalize(&p), brute, "attrs {attrs:?}");
        }
    }

    /// A rank column of `n` rows: all equal, all distinct, three values
    /// (classes of 64+ rows once `n` is large) or up to forty.
    fn column(n: usize) -> impl Strategy<Value = Vec<u32>> {
        (0u32..4, proptest::collection::vec(0u32..40, n)).prop_map(move |(kind, v)| match kind {
            0 => vec![0; n],
            1 => (0..n as u32).map(|i| i * 7919 % n as u32).collect(),
            2 => v.iter().map(|x| x % 3).collect(),
            _ => v,
        })
    }

    fn table() -> impl Strategy<Value = RankedTable> {
        (0usize..=300)
            .prop_flat_map(|n| (column(n), column(n), column(n)))
            .prop_map(|(a, b, c)| RankedTable::from_u32_columns(vec![a, b, c]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Refining column by column with one scratch (whose `n_distinct`
        /// changes from call to call) groups rows as brute force does,
        /// keeps rows ascending and strips every singleton; `for_attrs`
        /// agrees on every prefix.
        #[test]
        fn refine_matches_brute_force(t in table()) {
            let mut scratch = RefineScratch::default();
            let mut part = Partition::unit(t.n_rows());
            for attrs in [&[2usize][..], &[2, 0], &[2, 0, 1], &[2, 0, 1, 0]] {
                let col = t.column(attrs[attrs.len() - 1]);
                part = part.refine(col.ranks(), col.n_distinct(), &mut scratch);
                let brute = brute_partition(&t, attrs);
                prop_assert_eq!(&normalize(&part), &brute, "attrs {:?}", attrs);
                for class in part.classes() {
                    prop_assert!(class.len() >= 2 && class.windows(2).all(|w| w[0] < w[1]));
                }
                let for_attrs = Partition::for_attrs(&t, attrs.iter().copied());
                prop_assert_eq!(&normalize(&for_attrs), &brute);
            }
        }
    }

    #[test]
    fn key_detection() {
        let r = employee_ranked();
        // sal (col 2) has 9 distinct values over 9 rows -> key.
        let p = Partition::from_ranked_column(r.column(2));
        assert!(p.is_key());
        // pos is not a key: two of its classes hold more than one row.
        let q = Partition::from_ranked_column(r.column(0));
        assert!(!q.is_key());
    }

    #[test]
    fn fd_removal_count_examples() {
        let r = employee_ranked();
        let sal = r.column(2);
        // sal -> taxGrp holds (OD implies FD).
        let p_sal = Partition::from_ranked_column(sal);
        let tax_grp = r.column(3);
        assert!(p_sal.fd_holds(tax_grp.ranks(), tax_grp.n_distinct()));
        // pos,exp -> sal does NOT hold: t6,t7 split (same dev/5, salaries differ).
        let p = Partition::for_attrs(&r, [0, 1]);
        let sal_col = r.column(2);
        assert!(!p.fd_holds(sal_col.ranks(), sal_col.n_distinct()));
        assert_eq!(p.fd_removal_count(sal_col.ranks(), sal_col.n_distinct()), 1);
    }

    #[test]
    fn fd_removal_keeps_majority_value() {
        // Class {0,1,2,3} with A values [7,7,7,1]: remove 1 row.
        let ranks = vec![0u32, 0, 0, 0];
        let p = Partition::from_ranks(&ranks, 1);
        let a = vec![1u32, 1, 1, 0];
        assert_eq!(p.fd_removal_count(&a, 2), 1);
    }

    #[test]
    fn classes_have_ascending_row_ids() {
        let r = employee_ranked();
        let p = Partition::for_attrs(&r, [0, 3]);
        for class in p.classes() {
            assert!(class.windows(2).all(|w| w[0] < w[1]), "{class:?}");
        }
    }

    #[test]
    #[should_panic(expected = "u32 row ids would wrap")]
    fn unit_rejects_relations_beyond_u32_row_ids() {
        // The guard fires before any allocation, so the oversized count is
        // safe to pass in a test.
        let _ = Partition::unit(aod_table::MAX_ROWS + 1);
    }

    #[test]
    fn unit_accepts_up_to_max_rows_boundary_check() {
        // The check itself (not the allocation) is the contract: MAX_ROWS
        // passes, MAX_ROWS + 1 errors.
        assert!(aod_table::check_row_count(aod_table::MAX_ROWS).is_ok());
        assert!(aod_table::check_row_count(aod_table::MAX_ROWS + 1).is_err());
    }
}
