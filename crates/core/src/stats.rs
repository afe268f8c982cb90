//! Per-run discovery statistics.
//!
//! Everything the paper's experiments report about a discovery run beyond
//! the dependency list itself: wall time broken down by phase (Exp-3's
//! "up to 99.6% of the total runtime is spent on validation"), per-level
//! candidate/hit counts (Figure 5), and average lattice levels (Exp-5).

use std::time::Duration;

/// Counters for one lattice level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// The lattice level (node size).
    pub level: usize,
    /// Nodes processed at this level.
    pub n_nodes: usize,
    /// OC candidates validated (after pruning). The count includes the
    /// candidates answered without a backend call, from an equal
    /// sub-context partition, as invalid from four cached class counts or
    /// as invalid from disjoint swapped row pairs, so it can exceed the
    /// backend's call count; the OC batch trace spans carry those three
    /// parts as their `inherited`, `bounded` and `paired` args.
    pub n_oc_candidates: usize,
    /// OC candidates skipped by pruning rules R2–R4.
    pub n_oc_pruned: usize,
    /// Valid OCs found.
    pub n_oc_found: usize,
    /// OFD candidates validated.
    pub n_ofd_candidates: usize,
    /// Valid OFDs found.
    pub n_ofd_found: usize,
    /// Partitions built to *materialize* this level (the
    /// `Frontier::advance` work that built its nodes), one per node: a
    /// node whose partition is shared with a parent counts as well as one
    /// that is refined. The previous level's `partitioning` trace span
    /// carries the shared part as its `shared` arg. Level 1 is seeded from
    /// single columns, so its count is 0. Deterministic across thread
    /// counts, like every other counter here.
    pub n_products: usize,
}

/// Aggregated statistics for a discovery run.
///
/// Every `Duration` here is read from the session's one clock (the trace
/// sink's, or a monotonic clock made at build) in whole microseconds; the
/// per-level [`EventSink::on_phase`](crate::EventSink::on_phase) micros and
/// the trace's phase spans are the same readings.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryStats {
    /// Session-clock time from the end of level-1 seeding to the last step.
    pub total: Duration,
    /// Time in the OC section of each fully processed node: the R2–R4
    /// pruning checks plus the backend's validations. Summed across
    /// workers, so with `threads_used > 1` this is aggregate worker time
    /// and can exceed `total`.
    pub oc_validation: Duration,
    /// Time in the OFD section of each fully processed node (summed
    /// across workers, like `oc_validation`).
    pub ofd_validation: Duration,
    /// Time advancing the frontier: retention, prefix join and building
    /// partitions (refined, or shared with a parent), one bracket per
    /// level.
    pub partitioning: Duration,
    /// Per-level counters, index 0 = level 1.
    pub per_level: Vec<LevelStats>,
    /// `true` when the run hit its wall-clock budget and returned early.
    pub timed_out: bool,
    /// `true` when the run was stopped before lattice exhaustion for a
    /// reason other than the timeout — a fired
    /// [`CancelToken`](crate::CancelToken) or a reached `top_k` target.
    pub stopped_early: bool,
    /// Resolved worker count of the session's executor (`0` requested
    /// resolves to the core count). A level runs at most one worker per
    /// node. Every other field is independent of this value, and under a
    /// manual clock the `Duration`s are too.
    pub threads_used: usize,
}

impl DiscoveryStats {
    /// `true` when the results are partial for *any* reason (timeout,
    /// cancellation or top-k). A `max_level` cap does not count: its
    /// results are complete up to the configured level.
    pub fn is_partial(&self) -> bool {
        self.timed_out || self.stopped_early
    }
    /// Share of total runtime spent validating OC candidates — within
    /// `[0, 1]` for one-thread runs; multi-thread runs divide
    /// worker-summed validation time by wall time, so the share can exceed
    /// 1 (that excess is exactly the parallel speedup of the validation
    /// phase).
    pub fn oc_validation_share(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.oc_validation.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Total OCs found across levels.
    pub fn n_ocs(&self) -> usize {
        self.per_level.iter().map(|l| l.n_oc_found).sum()
    }

    /// Total OFDs found across levels.
    pub fn n_ofds(&self) -> usize {
        self.per_level.iter().map(|l| l.n_ofd_found).sum()
    }

    /// Total partitions built across all `Frontier::advance` calls, one
    /// per node of level 2 and up, whether shared with a parent or refined
    /// (the `partitioning` trace spans' `shared` args give the split) —
    /// the denominator of the paper's "partitioning is cheap relative to
    /// validation" claim, exposed as a counter.
    pub fn n_partition_products(&self) -> usize {
        self.per_level.iter().map(|l| l.n_products).sum()
    }

    /// Average lattice level of found OCs (Exp-5's headline number);
    /// `None` when no OCs were found.
    pub fn avg_oc_level(&self) -> Option<f64> {
        let (mut weighted, mut count) = (0usize, 0usize);
        for l in &self.per_level {
            weighted += l.level * l.n_oc_found;
            count += l.n_oc_found;
        }
        (count > 0).then(|| weighted as f64 / count as f64)
    }

    /// Mutable counters for a level, growing the vector as needed.
    pub fn level_mut(&mut self, level: usize) -> &mut LevelStats {
        while self.per_level.len() < level {
            let l = self.per_level.len() + 1;
            self.per_level.push(LevelStats {
                level: l,
                ..LevelStats::default()
            });
        }
        &mut self.per_level[level - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_mut_grows_and_indexes() {
        let mut s = DiscoveryStats::default();
        s.level_mut(3).n_oc_found = 7;
        assert_eq!(s.per_level.len(), 3);
        assert_eq!(s.per_level[2].level, 3);
        assert_eq!(s.n_ocs(), 7);
        s.level_mut(1).n_oc_found = 2;
        assert_eq!(s.n_ocs(), 9);
    }

    #[test]
    fn avg_level_weighted() {
        let mut s = DiscoveryStats::default();
        s.level_mut(2).n_oc_found = 3;
        s.level_mut(4).n_oc_found = 1;
        // (2*3 + 4*1) / 4 = 2.5
        assert_eq!(s.avg_oc_level(), Some(2.5));
    }

    #[test]
    fn avg_level_empty() {
        let s = DiscoveryStats::default();
        assert_eq!(s.avg_oc_level(), None);
        assert_eq!(s.n_ocs(), 0);
        assert_eq!(s.oc_validation_share(), 0.0);
    }

    #[test]
    fn partial_flags() {
        let mut s = DiscoveryStats::default();
        assert!(!s.is_partial());
        s.timed_out = true;
        assert!(s.is_partial());
        s.timed_out = false;
        s.stopped_early = true;
        assert!(s.is_partial());
    }

    #[test]
    fn validation_share() {
        let s = DiscoveryStats {
            total: Duration::from_millis(100),
            oc_validation: Duration::from_millis(80),
            ofd_validation: Duration::from_millis(10),
            ..DiscoveryStats::default()
        };
        // OFD time does not count towards the OC share.
        assert!((s.oc_validation_share() - 0.8).abs() < 1e-9);
    }
}
