//! Outlier detection from discovered approximate dependencies — the
//! downstream stage of the paper's Figure 1 pipeline ("Error Repair /
//! Outlier Detection").
//!
//! Discovered AODs that a domain expert deems semantically valid act as
//! soft integrity constraints: the tuples in their minimal removal sets are
//! the candidate errors. A row flagged by *several* independent
//! dependencies is a much stronger outlier signal than a row flagged by
//! one — so this module scores each row by the number of discovered
//! dependencies whose minimal removal set contains it, exactly the
//! evidence-accumulation scheme dependency-based cleaning systems use
//! (cf. the paper's [7] for OD-based repair).

use crate::dep::{OcDep, OfdDep};
use crate::result::DiscoveryResult;
use aod_partition::{AttrSetMap, Partition};
use aod_table::RankedTable;
use aod_validate::{removal_set_ofd, OcValidator};

/// Per-row outlier evidence aggregated over discovered dependencies.
#[derive(Debug, Clone)]
pub struct OutlierReport {
    /// `scores[row]` = number of dependencies whose minimal removal set
    /// contains `row`.
    pub scores: Vec<u32>,
    /// Number of dependencies that contributed (those with `factor > 0`;
    /// exact dependencies have empty removal sets and carry no signal).
    pub n_contributing: usize,
}

impl OutlierReport {
    /// Rows with a non-zero score, most-flagged first (ties by row id).
    pub fn ranked_rows(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = self
            .scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 0)
            .map(|(r, &s)| (r, s))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The `k` most-flagged rows.
    pub fn top(&self, k: usize) -> Vec<(usize, u32)> {
        let mut rows = self.ranked_rows();
        rows.truncate(k);
        rows
    }
}

/// Scores every row by how many of the discovered approximate dependencies
/// flag it (i.e. include it in their minimal removal set).
///
/// Exactly-holding dependencies are skipped — their removal sets are
/// empty. OC removal sets come from the optimal validator (Theorem 3.3
/// guarantees minimality); OFD removal sets keep each context class's
/// majority value. Each distinct context's partition is built once.
pub fn outlier_report(table: &RankedTable, result: &DiscoveryResult) -> OutlierReport {
    let mut scores = vec![0u32; table.n_rows()];
    let mut n_contributing = 0usize;
    let mut contexts: AttrSetMap<Partition> = AttrSetMap::default();
    let mut validator = OcValidator::new();

    for dep in &result.ocs {
        if dep.removed == 0 {
            continue;
        }
        n_contributing += 1;
        let ctx = contexts
            .entry(dep.context)
            .or_insert_with(|| Partition::for_attrs(table, dep.context.iter()));
        let removal = validator.removal_set_optimal(
            ctx,
            table.column(dep.a).ranks(),
            table.column(dep.b).ranks(),
        );
        for row in removal {
            scores[row as usize] += 1;
        }
    }
    for dep in &result.ofds {
        if dep.removed == 0 {
            continue;
        }
        n_contributing += 1;
        let ctx = contexts
            .entry(dep.context)
            .or_insert_with(|| Partition::for_attrs(table, dep.context.iter()));
        let col = table.column(dep.rhs);
        for row in removal_set_ofd(ctx, col.ranks(), col.n_distinct()) {
            scores[row as usize] += 1;
        }
    }
    OutlierReport {
        scores,
        n_contributing,
    }
}

/// Convenience filter: dependencies an expert would typically feed into
/// cleaning — approximate (non-zero factor) and interesting (within the
/// top `k` by the ranking measure).
pub fn cleaning_candidates(result: &DiscoveryResult, k: usize) -> (Vec<&OcDep>, Vec<&OfdDep>) {
    let ocs = result
        .ranked_ocs()
        .into_iter()
        .filter(|d| d.removed > 0)
        .take(k)
        .collect();
    let ofds = result
        .ranked_ofds()
        .into_iter()
        .filter(|d| d.removed > 0)
        .take(k)
        .collect();
    (ocs, ofds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscoveryBuilder;
    use aod_table::{employee_table, RankedTable};

    #[test]
    fn dirty_employee_rows_are_flagged() {
        let t = RankedTable::from_table(&employee_table());
        let result = DiscoveryBuilder::new().approximate(0.45).run(&t);
        let report = outlier_report(&t, &result);
        assert!(report.n_contributing > 0);
        assert_eq!(report.scores.len(), 9);
        // The scaled-percentage rows of Table 1 (t1, t2, t4, t6 carry the
        // concatenated-zero errors in perc/tax) must rank among the
        // flagged rows.
        let flagged: Vec<usize> = report.ranked_rows().iter().map(|&(r, _)| r).collect();
        assert!(!flagged.is_empty());
        let dirty = [0usize, 1, 3, 5];
        assert!(
            dirty.iter().filter(|r| flagged.contains(r)).count() >= 2,
            "flagged {flagged:?}"
        );
    }

    #[test]
    fn exact_dependencies_contribute_nothing() {
        let t = RankedTable::from_table(&employee_table());
        let result = DiscoveryBuilder::new().exact().run(&t);
        let report = outlier_report(&t, &result);
        assert_eq!(report.n_contributing, 0);
        assert!(report.scores.iter().all(|&s| s == 0));
        assert!(report.ranked_rows().is_empty());
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let report = OutlierReport {
            scores: vec![0, 3, 1, 3, 0, 2],
            n_contributing: 4,
        };
        let ranked = report.ranked_rows();
        assert_eq!(ranked, vec![(1, 3), (3, 3), (5, 2), (2, 1)]);
        assert_eq!(report.top(2), vec![(1, 3), (3, 3)]);
    }

    #[test]
    fn cleaning_candidates_filters_exact_deps() {
        let t = RankedTable::from_table(&employee_table());
        let result = DiscoveryBuilder::new().approximate(0.45).run(&t);
        let (ocs, ofds) = cleaning_candidates(&result, 5);
        assert!(ocs.len() <= 5 && ofds.len() <= 5);
        assert!(ocs.iter().all(|d| d.removed > 0));
        assert!(ofds.iter().all(|d| d.removed > 0));
    }
}
