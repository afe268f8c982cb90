//! Pluggable OC-validation backends for the discovery engine.
//!
//! The level-wise driver in `aod-core` does not care *how* a candidate
//! `X: A ~ B` is validated — only that some algorithm reports the size of a
//! removal set within a budget. [`OcValidatorBackend`] captures exactly that
//! contract, so the three paper configurations (exact scan, **Algorithm 2**
//! optimal LNDS, **Algorithm 1** iterative baseline) become interchangeable
//! values, and future backends plug into the driver without touching it.
//!
//! ```
//! use aod_partition::Partition;
//! use aod_validate::{strategy_backend, AocStrategy, OcValidatorBackend};
//!
//! let mut backend = strategy_backend(AocStrategy::Optimal);
//! let ctx = Partition::unit(4);
//! // B = [0, 2, 1, 3] against ascending A: one removal repairs the OC.
//! let removed = backend.min_removal(&ctx, &[0, 1, 2, 3], &[0, 2, 1, 3], usize::MAX);
//! assert_eq!(removed, Some(1));
//! assert_eq!(backend.name(), "optimal");
//! ```

use crate::oc::OcValidator;
use crate::AocStrategy;
use aod_partition::Partition;

/// The verdict type of [`OcValidatorBackend::last_sample`].
///
/// No backend in this workspace runs a sampling pre-check any more; the
/// type remains only because the benchmark harness's timing decorator
/// (`perfbench/src/layers.rs`) names it when forwarding that hook, and
/// goes when the decorator is next revised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleVerdict {
    /// A sample alone proved the candidate invalid.
    ProvenInvalid,
    /// The sample was inconclusive and the full validator ran.
    NeedFullValidation,
}

/// A strategy object validating order-compatibility candidates.
///
/// Implementations are stateful (they may keep scratch buffers across
/// candidates — a fork validates every candidate its worker claims in one
/// level) and must be [`Send`] so they can move to worker threads.
///
/// ## Threading contract
///
/// The discovery engine never validates with the backend it was given:
/// that one is the template. At the start of each level the engine calls
/// [`fork`](OcValidatorBackend::fork) once per worker the level runs —
/// one fork for a one-thread session — and hands every worker its own
/// instance, so no backend is shared across threads (that would serialise
/// the hot path behind a lock). A fork must therefore behave
/// *identically* to its parent on every `min_removal` call — same
/// algorithm, same verdicts — but needs no shared mutable state: scratch
/// buffers start empty and refill on first use. This is what keeps
/// discovery bit-identical across thread counts.
pub trait OcValidatorBackend: Send {
    /// A short stable identifier ("exact", "optimal", "iterative", …) for
    /// logs and experiment tables.
    fn name(&self) -> &'static str;

    /// Size of the removal set this backend finds for `ctx: A ~ B`, or
    /// `None` once it can prove the size exceeds `limit` (the paper's
    /// "INVALID" early exit; pass `usize::MAX` for an unbounded search).
    ///
    /// Exact backends report `Some(0)` when the OC holds and `None`
    /// otherwise; approximate backends need not find a *minimal* set
    /// (Algorithm 1 overestimates) but must never underestimate.
    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize>;

    /// A fresh backend of the same kind for one worker of one level.
    ///
    /// Forks carry configuration but not scratch state, and must return
    /// the same verdict as `self` for every candidate (see the trait-level
    /// threading contract).
    fn fork(&self) -> Box<dyn OcValidatorBackend>;

    /// Always `None`: the discovery engine never calls this. It remains
    /// only for the benchmark harness's timing decorator
    /// (`perfbench/src/layers.rs`), which forwards it, and goes when that
    /// decorator is next revised.
    fn last_sample(&self) -> Option<SampleVerdict> {
        None
    }

    /// A no-op the discovery engine never calls. It remains only for the
    /// benchmark harness's timing decorator (`perfbench/src/layers.rs`),
    /// which forwards it, and goes when that decorator is next revised.
    fn level_feedback(&mut self, hits: usize, misses: usize) {
        let _ = (hits, misses);
    }
}

/// Exact validation: `Some(0)` iff no class contains a swap.
#[derive(Debug, Default)]
pub struct ExactOcBackend {
    validator: OcValidator,
}

impl OcValidatorBackend for ExactOcBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        _limit: usize,
    ) -> Option<usize> {
        self.validator
            .exact_oc_holds(ctx, a_ranks, b_ranks)
            .then_some(0)
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        Box::new(ExactOcBackend::default())
    }
}

/// **Algorithm 2** — the LNDS-based validator with provably minimal
/// removal sets, `O(m log m)` per class.
#[derive(Debug, Default)]
pub struct OptimalOcBackend {
    validator: OcValidator,
}

impl OcValidatorBackend for OptimalOcBackend {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        self.validator
            .min_removal_optimal(ctx, a_ranks, b_ranks, limit)
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        Box::new(OptimalOcBackend::default())
    }
}

/// **Algorithm 1** — the iterative PVLDB'17 baseline,
/// `O(m log m + ε m²)`, possibly overestimating.
#[derive(Debug, Default)]
pub struct IterativeOcBackend {
    validator: OcValidator,
}

impl OcValidatorBackend for IterativeOcBackend {
    fn name(&self) -> &'static str {
        "iterative"
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        self.validator
            .min_removal_iterative(ctx, a_ranks, b_ranks, limit)
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        Box::new(IterativeOcBackend::default())
    }
}

/// The backend implementing a configured [`AocStrategy`].
pub fn strategy_backend(strategy: AocStrategy) -> Box<dyn OcValidatorBackend> {
    match strategy {
        AocStrategy::Optimal => Box::new(OptimalOcBackend::default()),
        AocStrategy::Iterative => Box::new(IterativeOcBackend::default()),
    }
}

/// The backend for exact (ε = 0, scan-based) OC validation.
pub fn exact_backend() -> Box<dyn OcValidatorBackend> {
    Box::new(ExactOcBackend::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    const SAL: usize = 2;
    const TAX: usize = 5;

    fn backends() -> Vec<Box<dyn OcValidatorBackend>> {
        vec![
            exact_backend(),
            strategy_backend(AocStrategy::Optimal),
            strategy_backend(AocStrategy::Iterative),
        ]
    }

    #[test]
    fn backends_agree_with_their_validators() {
        // e(sal ~ tax) = 4/9: exact says no, optimal 4, iterative 5.
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(TAX).ranks());
        let results: Vec<Option<usize>> = backends()
            .iter_mut()
            .map(|v| v.min_removal(&ctx, a, b, usize::MAX))
            .collect();
        assert_eq!(results, vec![None, Some(4), Some(5)]);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["exact", "optimal", "iterative"]);
    }

    #[test]
    fn limits_turn_into_invalid() {
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(TAX).ranks());
        for mut backend in [
            strategy_backend(AocStrategy::Optimal),
            strategy_backend(AocStrategy::Iterative),
        ] {
            assert_eq!(backend.min_removal(&ctx, a, b, 3), None);
        }
    }

    #[test]
    fn forks_match_their_parents() {
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(TAX).ranks());
        for parent in backends().iter_mut() {
            let mut fork = parent.fork();
            assert_eq!(fork.name(), parent.name());
            for limit in [0, 3, usize::MAX] {
                assert_eq!(
                    fork.min_removal(&ctx, a, b, limit),
                    parent.min_removal(&ctx, a, b, limit),
                );
            }
        }
    }

    #[test]
    fn exact_backend_on_holding_oc() {
        // sal ~ taxGrp holds exactly (Example 2.4).
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(3).ranks());
        assert_eq!(exact_backend().min_removal(&ctx, a, b, 0), Some(0));
    }
}
