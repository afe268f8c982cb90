//! Per-node evaluation: the body of every lattice level, at every thread
//! count.
//!
//! The level-wise traversal makes every lattice node of level `ℓ`
//! independent *within the level*: validation reads only the cached
//! partitions of levels `ℓ`/`ℓ−1`/`ℓ−2` and pruning facts recorded at
//! levels `< ℓ` — facts recorded *during* level `ℓ` cannot influence the
//! same level, because
//!
//! * an OC recorded at level `ℓ` has a context of size `ℓ−2`; rule R2
//!   asks whether a recorded context is a subset of a candidate context of
//!   the same size `ℓ−2`, i.e. *equal* — and each `(context, pair)`
//!   appears at exactly one node, checked before it could be recorded;
//! * an OFD recorded at level `ℓ` has a context of size `ℓ−1`, which can
//!   never be a subset of a same-level OC candidate context (size `ℓ−2`),
//!   so rule R3 is unaffected;
//! * keys feed rule R4 and node deletion through the cached *partitions*
//!   (`is_key`), and node deletion runs between levels on sets two levels
//!   down.
//!
//! The engine therefore runs [`eval_node`] over a level's nodes on its
//! executor — inline on the caller's thread for one worker, otherwise on
//! scoped workers that claim nodes from one shared counter — against
//! shared borrows of the partition cache and pruning state, and merges
//! the per-node [`NodeEval`]s **in node order** at the level barrier,
//! replaying recordings, events and counters. The output is the same at every thread count because every
//! thread count runs this code and that merge.
//!
//! The determinism this rests on is machine-checked: `aod-lint` rule D1
//! forbids hash-map/set iteration in this module (and the rest of the
//! determinism-critical set listed in the workspace `lint.toml`), D2
//! keeps wall-clock reads out of it (time comes only from the session's
//! injected [`Clock`]), and the executor's claim loop, which hands each
//! node to exactly one worker, is held to the sequential map by a
//! property test in `aod-exec`. See the "Static analysis & invariants"
//! section of the README.

use crate::candidates::{oc_candidates, ofd_candidates, OcCandidate};
use crate::config::PruneConfig;
use crate::engine::{CancelToken, StopReason};
use crate::frontier::Node;
use crate::prune_state::{PruneRule, PruneState};
use aod_obs::Clock;
use aod_partition::PartitionCache;
use aod_table::RankedTable;
use aod_validate::{min_removal_ofd, OcValidatorBackend};
use std::time::Duration;

/// Immutable level-wide inputs shared by every worker.
pub(crate) struct LevelCtx<'a> {
    pub table: &'a RankedTable,
    pub cache: &'a PartitionCache,
    pub prune: &'a PruneState,
    pub prune_cfg: PruneConfig,
    /// Removal budget `⌊ε·n⌋`; 0 for exact discovery.
    pub budget: usize,
    pub coverage_denominator: f64,
    pub level: usize,
    pub cancel: &'a CancelToken,
    pub timeout: Option<Duration>,
    /// The session clock: node timings and the timeout read it.
    pub clock: &'a dyn Clock,
    /// Session-clock reading at construction, the timeout's origin.
    pub started_us: u64,
}

/// One OFD candidate's verdict (`removed.is_some()` ⇔ it holds).
pub(crate) struct OfdEval {
    pub a: usize,
    pub removed: Option<usize>,
    pub coverage: f64,
}

/// One OC candidate's verdict.
pub(crate) enum OcEval {
    /// Skipped by a pruning rule (R2–R4).
    Pruned(PruneRule),
    /// Validated by the backend, or answered `None` without it when the
    /// context is not free (`removed.is_some()` ⇔ it holds).
    Validated {
        removed: Option<usize>,
        coverage: f64,
    },
}

/// Everything one node's validation produced, in candidate order.
pub(crate) struct NodeEval {
    pub ofds: Vec<OfdEval>,
    pub ocs: Vec<(OcCandidate, OcEval)>,
    /// OC candidates answered from an equal sub-context partition, without
    /// a backend call.
    pub n_inherited: usize,
    /// Session-clock micros of the node's OFD section. Feeds both
    /// `DiscoveryStats::ofd_validation` and the node's batch span, so the
    /// two agree; under a manual clock it is the same at every thread
    /// count.
    pub ofd_us: u64,
    /// Session-clock micros of the node's OC section, R2–R4 checks
    /// included.
    pub oc_us: u64,
}

/// A worker's result for one claimed node.
pub(crate) enum NodeResult {
    /// The node was fully evaluated.
    Done(NodeEval),
    /// The worker observed a stop condition *before* starting the node;
    /// the merge treats this node — and everything after it — as
    /// unprocessed.
    Interrupted(StopReason),
}

/// Evaluates one node against the cached partitions: its OFD candidates,
/// then its OC candidates (R2–R4 first, then the survivors whose context
/// is not free are rejected, and the backend validates the rest),
/// bracketed by three session-clock reads.
pub(crate) fn eval_node(
    ctx: &LevelCtx<'_>,
    node: &Node,
    backend: &mut dyn OcValidatorBackend,
) -> NodeEval {
    let set = node.set;
    let node_part = ctx.cache.get(set).expect("node partition is cached");
    let t0 = ctx.clock.now_us();

    // --- OFD candidates: X\{A}: [] |-> A for A in X ∩ Cc+(X) ---
    let mut ofds = Vec::new();
    for a in ofd_candidates(node) {
        let ctx_part = ctx
            .cache
            .get(set.without(a))
            .expect("parent partition is cached");
        // Each context class that A splits into k classes needs at least
        // k − 1 removals, so |Π_X| − |Π_{X\A}| (unstripped class counts)
        // bounds TANE's g₃ count from below and is 0 iff the OFD holds.
        // At ε = 0 it decides every candidate on its own.
        let lower = node_part.n_classes_unstripped() - ctx_part.n_classes_unstripped();
        let removed = if lower == 0 {
            Some(0)
        } else if lower > ctx.budget {
            None
        } else {
            let col = ctx.table.column(a);
            min_removal_ofd(ctx_part, col.ranks(), col.n_distinct(), ctx.budget)
        };
        let coverage = ctx_part.n_grouped_rows() as f64 / ctx.coverage_denominator;
        ofds.push(OfdEval {
            a,
            removed,
            coverage,
        });
    }

    let t1 = ctx.clock.now_us();

    // --- OC candidates: X\{A,B}: A ~ B for pairs {A,B} ⊆ X ---
    let mut ocs = Vec::new();
    let mut n_inherited = 0;
    if ctx.level >= 2 {
        for cand in oc_candidates(set) {
            let (a, b, ctx_set) = (cand.a, cand.b, cand.context);
            let ctx_part = || ctx.cache.get(ctx_set).expect("context partition is cached");
            let eval = if ctx.prune_cfg.r2_context_implication
                && ctx.prune.oc_implied(a, b, ctx_set)
            {
                OcEval::Pruned(PruneRule::ContextImplication)
            } else if ctx.prune_cfg.r3_constancy_implication
                && ctx.prune.constancy_implied(a, b, ctx_set)
            {
                OcEval::Pruned(PruneRule::ConstancyImplication)
            } else if ctx.prune_cfg.r4_key_pruning && ctx_part().is_key() {
                OcEval::Pruned(PruneRule::KeyPruning)
            } else {
                let ctx_part = ctx_part();
                // A context whose partition equals a smaller one's
                // repeats a candidate rejected one level down (see the
                // `prune_state.rs` module docs; R2 is the gate).
                let removed =
                    if ctx.prune_cfg.r2_context_implication && ctx.prune.is_non_free(ctx_set) {
                        n_inherited += 1;
                        None
                    } else {
                        let (ar, br) = (ctx.table.column(a).ranks(), ctx.table.column(b).ranks());
                        backend.min_removal(ctx_part, ar, br, ctx.budget)
                    };
                let coverage = ctx_part.n_grouped_rows() as f64 / ctx.coverage_denominator;
                OcEval::Validated { removed, coverage }
            };
            ocs.push((cand, eval));
        }
    }

    let t2 = ctx.clock.now_us();

    NodeEval {
        ofds,
        ocs,
        n_inherited,
        ofd_us: t1.saturating_sub(t0),
        oc_us: t2.saturating_sub(t1),
    }
}

/// The stop condition a worker must honour before claiming a node:
/// cancellation first, then the timeout, which fires once the session
/// clock has run `timeout` or more since the session was built.
pub(crate) fn stop_check(ctx: &LevelCtx<'_>) -> Option<StopReason> {
    if ctx.cancel.is_cancelled() {
        return Some(StopReason::Cancelled);
    }
    if let Some(timeout) = ctx.timeout {
        let elapsed_us = ctx.clock.now_us().saturating_sub(ctx.started_us);
        if Duration::from_micros(elapsed_us) >= timeout {
            return Some(StopReason::TimedOut);
        }
    }
    None
}
