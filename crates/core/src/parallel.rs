//! Per-node evaluation: the body of every lattice level, at every thread
//! count.
//!
//! The level-wise traversal makes every lattice node of level `ℓ`
//! independent *within the level*: validation reads only the frozen
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
//! * keyed-set facts feed rule R4 through the *partition* (`is_key`),
//!   not the recorded set, and node deletion only consults sets two
//!   levels down.
//!
//! The engine therefore runs [`eval_node`] over a level's nodes on its
//! executor — inline on the caller's thread for one worker, otherwise on
//! scoped workers that claim nodes from one shared counter — against
//! immutable snapshots, and merges the per-node [`NodeEval`]s **in node
//! order** at the level barrier, replaying recordings, events and
//! counters. The output is the same at every thread count because every
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
use crate::config::{Mode, PruneConfig};
use crate::engine::{CancelToken, StopReason};
use crate::frontier::Node;
use crate::prune_state::{PruneRule, PruneState};
use aod_obs::Clock;
use aod_partition::FrozenPartitions;
use aod_table::RankedTable;
use aod_validate::{min_removal_ofd, OcValidatorBackend};
use std::time::Duration;

/// Immutable level-wide inputs shared by every worker.
pub(crate) struct LevelCtx<'a> {
    pub table: &'a RankedTable,
    pub view: &'a FrozenPartitions,
    pub prune: &'a PruneState,
    pub prune_cfg: PruneConfig,
    pub mode: Mode,
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
    /// Validated by the backend (`removed.is_some()` ⇔ it holds).
    Validated {
        removed: Option<usize>,
        coverage: f64,
    },
}

/// Everything one node's validation produced, in candidate order.
pub(crate) struct NodeEval {
    pub ofds: Vec<OfdEval>,
    pub ocs: Vec<(OcCandidate, OcEval)>,
    pub is_key: bool,
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

/// Evaluates one node against the frozen snapshots: its OFD candidates,
/// then its OC candidates (R2–R4 first, the backend for the survivors),
/// bracketed by three session-clock reads.
pub(crate) fn eval_node(
    ctx: &LevelCtx<'_>,
    node: &Node,
    backend: &mut dyn OcValidatorBackend,
) -> NodeEval {
    let set = node.set;
    let t0 = ctx.clock.now_us();

    // --- OFD candidates: X\{A}: [] |-> A for A in X ∩ Cc+(X) ---
    let mut ofds = Vec::new();
    for a in ofd_candidates(node) {
        let ctx_set = set.without(a);
        let col = ctx.table.column(a);
        let ctx_part = ctx
            .view
            .get(ctx_set)
            .expect("parent partition is in the frozen view");
        let removed = match ctx.mode {
            Mode::Exact => {
                // FD X\{A} -> A holds iff |Π_{X\{A}}| == |Π_X|
                // (class-count check; both partitions are cached).
                let node_part = ctx
                    .view
                    .get(set)
                    .expect("node partition is in the frozen view");
                (ctx_part.n_classes_unstripped() == node_part.n_classes_unstripped()).then_some(0)
            }
            Mode::Approximate { .. } => {
                min_removal_ofd(ctx_part, col.ranks(), col.n_distinct(), ctx.budget)
            }
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
    if ctx.level >= 2 {
        for cand in oc_candidates(set) {
            let (a, b, ctx_set) = (cand.a, cand.b, cand.context);
            let eval =
                if ctx.prune_cfg.r2_context_implication && ctx.prune.oc_implied(a, b, ctx_set) {
                    OcEval::Pruned(PruneRule::ContextImplication)
                } else if ctx.prune_cfg.r3_constancy_implication
                    && ctx.prune.constancy_implied(a, b, ctx_set)
                {
                    OcEval::Pruned(PruneRule::ConstancyImplication)
                } else {
                    let ctx_part = ctx
                        .view
                        .get(ctx_set)
                        .expect("context partition is in the frozen view");
                    if ctx.prune_cfg.r4_key_pruning && ctx_part.is_key() {
                        OcEval::Pruned(PruneRule::KeyPruning)
                    } else {
                        let (ar, br) = (ctx.table.column(a).ranks(), ctx.table.column(b).ranks());
                        let removed = backend.min_removal(ctx_part, ar, br, ctx.budget);
                        let coverage = ctx_part.n_grouped_rows() as f64 / ctx.coverage_denominator;
                        OcEval::Validated { removed, coverage }
                    }
                };
            ocs.push((cand, eval));
        }
    }

    let t2 = ctx.clock.now_us();

    let is_key = ctx
        .view
        .get(set)
        .expect("node partition is in the frozen view")
        .is_key();

    NodeEval {
        ofds,
        ocs,
        is_key,
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
