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
//! Invariant: row ids within each class are in ascending order (constructors
//! and [`Partition::product`] preserve this).

use aod_table::{RankedColumn, RankedTable};

/// Sentinel for "row not in any stripped class" in probe tables.
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
    /// (with `u32::MAX` reserved as the probe sentinel), so a larger
    /// relation would silently wrap ids. Table construction rejects such
    /// inputs with an error first; this guard is defence in depth for
    /// direct partition construction.
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

    /// Builds `Π_{A}` for a single rank-encoded column via counting sort:
    /// `O(n + n_distinct)`.
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
        let n = ranks.len();
        assert!(
            aod_table::check_row_count(n).is_ok(),
            "{n} rows exceed MAX_ROWS; u32 row ids would wrap"
        );
        let k = n_distinct as usize;
        let mut counts = vec![0u32; k + 1];
        for &r in ranks {
            counts[r as usize + 1] += 1;
        }
        // prefix sums -> start offset per rank
        for i in 0..k {
            counts[i + 1] += counts[i];
        }
        let mut grouped = vec![0u32; n];
        let mut offsets = counts.clone();
        for (row, &r) in ranks.iter().enumerate() {
            grouped[offsets[r as usize] as usize] = row as u32;
            offsets[r as usize] += 1;
        }
        // strip singletons while building CSR
        let mut elems = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0u32);
        for rank in 0..k {
            let (start, end) = (counts[rank] as usize, counts[rank + 1] as usize);
            if end - start >= 2 {
                elems.extend_from_slice(&grouped[start..end]);
                bounds.push(elems.len() as u32);
            }
        }
        Partition {
            elems,
            bounds,
            n_rows: n,
        }
    }

    /// Builds `Π_X` for an arbitrary attribute set by folding products over
    /// the member columns. Convenience for tests and one-off validation;
    /// the discovery driver uses cached level-wise products instead.
    pub fn for_attrs<I: IntoIterator<Item = usize>>(table: &RankedTable, attrs: I) -> Partition {
        let mut it = attrs.into_iter();
        let mut part = match it.next() {
            None => Partition::unit(table.n_rows()),
            Some(a) => Partition::from_ranked_column(table.column(a)),
        };
        let mut scratch = ProductScratch::default();
        for a in it {
            let single = Partition::from_ranked_column(table.column(a));
            part = part.product_with_scratch(&single, &mut scratch);
        }
        part
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

    /// Size of the largest class (0 when stripped empty).
    pub fn max_class_size(&self) -> usize {
        self.classes().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// `true` when `X` is a (super)key: every class is a singleton.
    pub fn is_key(&self) -> bool {
        self.elems.is_empty()
    }

    /// Minimum number of rows to remove so the attribute set becomes a key
    /// (one representative kept per class).
    pub fn key_removal_count(&self) -> usize {
        self.n_grouped_rows() - self.n_classes()
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

    /// The stripped product `Π_X · Π_Y = Π_{X ∪ Y}` (allocating a fresh
    /// scratch; prefer [`Partition::product_with_scratch`] in loops).
    pub fn product(&self, other: &Partition) -> Partition {
        self.product_with_scratch(other, &mut ProductScratch::default())
    }

    /// The stripped product using caller-provided scratch space.
    ///
    /// Linear in the grouped rows of both inputs (the classic TANE
    /// `STRIPPED_PRODUCT`): probe rows of `self` into a row→class table,
    /// split each class of `other` by it, keep sub-groups of size ≥ 2.
    pub fn product_with_scratch(
        &self,
        other: &Partition,
        scratch: &mut ProductScratch,
    ) -> Partition {
        assert_eq!(
            self.n_rows, other.n_rows,
            "partitions over different relations"
        );
        scratch.prepare(self.n_rows, self.n_classes());

        for (ci, class) in self.classes().enumerate() {
            for &t in class {
                scratch.probe[t as usize] = ci as u32;
            }
        }

        // These two become the returned partition's backing storage — they
        // are the *output*, not reusable scratch, so hoisting them onto
        // `ProductScratch` would just force a copy-out on return.
        // aod-lint: allow(A1) -- output buffers move into the returned Partition
        let mut elems = Vec::new();
        // aod-lint: allow(A1) -- output buffers move into the returned Partition
        let mut bounds = vec![0u32];
        for class in other.classes() {
            for &t in class {
                let ci = scratch.probe[t as usize];
                if ci != NONE {
                    scratch.groups[ci as usize].push(t);
                }
            }
            for &t in class {
                let ci = scratch.probe[t as usize];
                if ci != NONE {
                    let group = &mut scratch.groups[ci as usize];
                    if group.len() >= 2 {
                        elems.extend_from_slice(group);
                        bounds.push(elems.len() as u32);
                    }
                    group.clear();
                }
            }
        }

        for class in self.classes() {
            for &t in class {
                scratch.probe[t as usize] = NONE;
            }
        }

        Partition {
            elems,
            bounds,
            n_rows: self.n_rows,
        }
    }
}

/// Reusable scratch space for [`Partition::product_with_scratch`].
///
/// Holding one of these across a discovery level avoids reallocating the
/// `O(n)` probe table per product (the perf-book "workhorse collection"
/// pattern).
#[derive(Debug, Default)]
pub struct ProductScratch {
    probe: Vec<u32>,
    groups: Vec<Vec<u32>>,
}

impl ProductScratch {
    fn prepare(&mut self, n_rows: usize, n_classes: usize) {
        if self.probe.len() < n_rows {
            self.probe.resize(n_rows, NONE);
        }
        if self.groups.len() < n_classes {
            self.groups.resize_with(n_classes, Vec::new);
        }
        debug_assert!(self.probe.iter().all(|&p| p == NONE), "probe not reset");
        debug_assert!(self.groups.iter().all(Vec::is_empty), "groups not reset");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn employee_ranked() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// Reference partition via sorting whole projections.
    fn brute_partition(table: &RankedTable, attrs: &[usize]) -> Vec<Vec<u32>> {
        let n = table.n_rows();
        let key = |row: usize| -> Vec<u32> { attrs.iter().map(|&a| table.rank(row, a)).collect() };
        let mut rows: Vec<u32> = (0..n as u32).collect();
        rows.sort_by_key(|&r| key(r as usize));
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for &r in &rows {
            if let Some(last) = classes.last_mut() {
                if key(last[0] as usize) == key(r as usize) {
                    last.push(r);
                    continue;
                }
            }
            classes.push(vec![r]);
        }
        let mut stripped: Vec<Vec<u32>> = classes.into_iter().filter(|c| c.len() >= 2).collect();
        for c in &mut stripped {
            c.sort_unstable();
        }
        stripped.sort();
        stripped
    }

    fn normalize(p: &Partition) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = p.classes().map(<[u32]>::to_vec).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
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
    fn product_matches_brute_force_on_employee() {
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
            let p = Partition::for_attrs(&r, attrs.iter().copied());
            assert_eq!(normalize(&p), brute_partition(&r, attrs), "attrs {attrs:?}");
        }
    }

    #[test]
    fn product_is_commutative() {
        let r = employee_ranked();
        let a = Partition::from_ranked_column(r.column(0));
        let b = Partition::from_ranked_column(r.column(3));
        assert_eq!(normalize(&a.product(&b)), normalize(&b.product(&a)));
    }

    #[test]
    fn product_with_unit_is_identity() {
        let r = employee_ranked();
        let a = Partition::from_ranked_column(r.column(0));
        let u = Partition::unit(r.n_rows());
        assert_eq!(normalize(&a.product(&u)), normalize(&a));
        assert_eq!(normalize(&u.product(&a)), normalize(&a));
    }

    #[test]
    fn key_detection() {
        let r = employee_ranked();
        // sal (col 2) has 9 distinct values over 9 rows -> key.
        let p = Partition::from_ranked_column(r.column(2));
        assert!(p.is_key());
        assert_eq!(p.key_removal_count(), 0);
        // pos is not a key; removing all-but-one per class keys it.
        let q = Partition::from_ranked_column(r.column(0));
        assert_eq!(q.key_removal_count(), (3 - 1) + (5 - 1));
    }

    #[test]
    fn fd_removal_count_examples() {
        let r = employee_ranked();
        let t = employee_table();
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
        assert_eq!(t.n_rows(), 9);
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
    fn scratch_reuse_is_clean() {
        let r = employee_ranked();
        let mut scratch = ProductScratch::default();
        let a = Partition::from_ranked_column(r.column(0));
        let b = Partition::from_ranked_column(r.column(3));
        let c = Partition::from_ranked_column(r.column(1));
        let p1 = a.product_with_scratch(&b, &mut scratch);
        let p2 = a.product_with_scratch(&b, &mut scratch);
        assert_eq!(normalize(&p1), normalize(&p2));
        let p3 = p1.product_with_scratch(&c, &mut scratch);
        assert_eq!(normalize(&p3), brute_partition(&r, &[0, 1, 3]));
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

    #[test]
    fn max_class_size() {
        let r = employee_ranked();
        let p = Partition::from_ranked_column(r.column(0));
        assert_eq!(p.max_class_size(), 5);
        assert_eq!(Partition::unit(0).max_class_size(), 0);
    }
}
