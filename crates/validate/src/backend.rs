//! Pluggable OC-validation backends for the discovery engine.
//!
//! The level-wise driver in `aod-core` does not care *how* a candidate
//! `X: A ~ B` is validated — only that some algorithm reports the size of a
//! removal set within a budget. [`OcValidatorBackend`] captures exactly that
//! contract, so the paper's two AOC validators (**Algorithm 2** optimal
//! LNDS, **Algorithm 1** iterative baseline) become interchangeable values,
//! and future backends plug into the driver without touching it. Exact
//! discovery needs no backend of its own: it runs either one with a
//! budget of 0.
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
///
/// ## Row numbering
///
/// A discovery session validates on its own copy of the table, with the
/// rows renumbered in lexicographic order of their ranks (see
/// `aod_core::DiscoverySession`). The `ctx` partition and the rank slices
/// a backend receives from the engine use that numbering, so a row id
/// names a session row, not a row of the caller's table. Each class's
/// rows are ascending in it.
///
/// ## What a verdict may depend on
///
/// A verdict must depend only on the context's classes as row sets, in
/// any class order, on the two rank slices and on `limit`. Two equal
/// partitions whose classes are listed in different orders must get the
/// same verdict. The engine relies on this: when a context's partition
/// equals that of a context one column smaller, the candidate repeats one
/// rejected a level down, and the engine answers it from that earlier
/// verdict without calling the backend (see the `prune_state.rs` module
/// docs in `aod-core`). The built-in backends sum per-class counts, which
/// meets the contract.
///
/// The engine also answers candidates from two lower bounds on the
/// minimal removal count, before any call:
/// [`oc_removal_lower_bound`](crate::oc_removal_lower_bound) and
/// [`oc_disjoint_swaps`](crate::oc_disjoint_swaps). Each depends on the
/// same inputs, so the earlier verdict a repeated candidate inherits is
/// one of the backend's or a rejection every backend makes.
pub trait OcValidatorBackend: Send {
    /// A short stable identifier ("optimal", "iterative", …) for logs and
    /// experiment tables.
    fn name(&self) -> &'static str;

    /// Size of the removal set this backend finds for `ctx: A ~ B`, or
    /// `None` once it can prove the size exceeds `limit` (the paper's
    /// "INVALID" early exit; pass `usize::MAX` for an unbounded search).
    ///
    /// With `limit = 0` this is exact validation: `Some(0)` when the OC
    /// holds and `None` otherwise. Backends need not find a *minimal* set
    /// (Algorithm 1 overestimates) but must never underestimate. The
    /// discovery engine relies on that: it answers a candidate as invalid
    /// without calling the backend when a lower bound on the minimal
    /// count already exceeds `limit`, either
    /// [`oc_removal_lower_bound`](crate::oc_removal_lower_bound), read from
    /// four cached class counts, or
    /// [`oc_disjoint_swaps`](crate::oc_disjoint_swaps), the disjoint
    /// swapped row pairs of one pass over `ctx`'s classes. So the
    /// candidates a backend sees are those neither bound refutes.
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

/// The built-in backend: one [`OcValidator`] run as the configured
/// [`AocStrategy`] — **Algorithm 2**, the LNDS-based validator with
/// provably minimal removal sets in `O(m log m)` per class, or
/// **Algorithm 1**, the iterative PVLDB'17 baseline in
/// `O(m log m + ε m²)`, possibly overestimating.
#[derive(Debug)]
struct StrategyBackend {
    strategy: AocStrategy,
    validator: OcValidator,
}

impl OcValidatorBackend for StrategyBackend {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        let v = &mut self.validator;
        match self.strategy {
            AocStrategy::Optimal => v.min_removal_optimal(ctx, a_ranks, b_ranks, limit),
            AocStrategy::Iterative => v.min_removal_iterative(ctx, a_ranks, b_ranks, limit),
        }
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        strategy_backend(self.strategy)
    }
}

/// The backend implementing a configured [`AocStrategy`].
pub fn strategy_backend(strategy: AocStrategy) -> Box<dyn OcValidatorBackend> {
    Box::new(StrategyBackend {
        strategy,
        validator: OcValidator::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    const SAL: usize = 2;
    const TAX: usize = 5;

    fn backends() -> Vec<Box<dyn OcValidatorBackend>> {
        vec![
            strategy_backend(AocStrategy::Optimal),
            strategy_backend(AocStrategy::Iterative),
        ]
    }

    #[test]
    fn backends_agree_with_their_validators() {
        // e(sal ~ tax) = 4/9: optimal 4, iterative 5.
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(TAX).ranks());
        let results: Vec<Option<usize>> = backends()
            .iter_mut()
            .map(|v| v.min_removal(&ctx, a, b, usize::MAX))
            .collect();
        assert_eq!(results, vec![Some(4), Some(5)]);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["optimal", "iterative"]);
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

    /// Exact validation is either backend at limit 0: sal ~ taxGrp holds
    /// exactly (Example 2.4), sal ~ tax does not.
    #[test]
    fn exact_backend_on_holding_oc() {
        let t = RankedTable::from_table(&employee_table());
        let ctx = Partition::unit(9);
        let (a, b) = (t.column(SAL).ranks(), t.column(3).ranks());
        let tax = t.column(TAX).ranks();
        for mut backend in backends() {
            assert_eq!(backend.min_removal(&ctx, a, b, 0), Some(0));
            assert_eq!(backend.min_removal(&ctx, a, tax, 0), None);
        }
    }
}
