//! The streaming level-wise discovery engine (Section 3.1, Figure 1).
//!
//! [`DiscoverySession`] runs the paper's set-based lattice traversal
//! **level by level**: every [`step`](DiscoverySession::step) processes one
//! lattice level (validating the level's OFD and OC candidates, applying
//! pruning rules R2–R4) and then advances the frontier. Callers observe
//! progress through a stream of [`DiscoveryEvent`]s — the session itself is
//! an `Iterator<Item = DiscoveryEvent>` — can stop early through a shared
//! [`CancelToken`], and can harvest well-formed partial results at any
//! point with [`result`](DiscoverySession::result).
//!
//! The per-candidate OC validation is delegated to a pluggable
//! [`OcValidatorBackend`], so Algorithm 2 and Algorithm 1 run behind the
//! same driver. Exact discovery is the same run at ε = 0: a removal budget
//! of 0 makes every validator an exact check.
//!
//! Sessions are built with [`DiscoveryBuilder`](crate::DiscoveryBuilder);
//! [`DiscoveryBuilder::run`](crate::DiscoveryBuilder::run) runs one to
//! completion.
//!
//! ## Threading and determinism contract
//!
//! Every session owns an [`aod_exec::Executor`] with
//! [`DiscoveryBuilder::parallelism`](crate::DiscoveryBuilder::parallelism)
//! workers (`0` = one per core), and every level runs the same two steps
//! on it, whatever the worker count. First the engine forks the
//! [`OcValidatorBackend`] once per worker the level runs and evaluates
//! each node against the partition cache, which every worker borrows
//! read-only for the level: one worker walks the nodes in order on the
//! calling thread, more workers claim them one at a time from a shared
//! counter. Then it **merges the per-node results in node
//! order at the level barrier**, replaying found-dependency recordings,
//! pruning facts and events. Results enter the session only through that
//! merge, so for every configuration the event stream, the dependency
//! lists (including `f64` factors and coverage) and all statistics
//! counters are **bit-identical** across thread counts. Only the
//! `Duration` timers (which sum per-worker time) and
//! [`DiscoveryStats::threads_used`] differ, and under a
//! [`ManualClock`](aod_obs::ManualClock) the timers agree as well.
//!
//! Early stops keep the same shape at every thread count. `top_k` cuts the
//! merge at the candidate that reaches `k`, once the level holding it has
//! been evaluated in full. Cancellation and timeout are checked before
//! each node and drop the interrupted node and every node after it (their
//! timing is inherently racy). A cancel fired from an [`EventSink`]
//! callback runs during the merge, so it lands at the next level's first
//! check.
//!
//! ## Row order
//!
//! A session reads the caller's table once, in
//! [`build`](crate::DiscoveryBuilder::build): it keeps a copy whose rows
//! are renumbered in lexicographic order of their ranks on the scope's
//! columns, in index order, ties by ascending row id
//! ([`RankedTable::sorted_rows`]). Every partition, refinement and
//! validation of the run reads the copy, so the context partitions and
//! rank slices an [`OcValidatorBackend`] receives use the session's row
//! numbering. A context class then lists its rows sorted on the lowest
//! scope column outside the context, so a candidate whose `A` is that
//! column gathers its `(A, B)` keys already sorted on `A`. Nothing a
//! session reports carries a row id; removal sets, as in
//! [`outlier_report`](crate::outlier_report), are computed on the
//! caller's table.
//!
//! ## One clock
//!
//! A session reads time from one [`Clock`]: the attached
//! [`TraceSink`]'s, or else a [`MonotonicClock`] made when the session is
//! built. The [`DiscoveryStats`] timers, the [`EventSink::on_phase`]
//! micros, the trace spans and the timeout all come from its readings, in
//! whole microseconds.
//!
//! ```
//! use aod_core::{DiscoveryBuilder, DiscoveryEvent};
//! use aod_table::{employee_table, RankedTable};
//!
//! let ranked = RankedTable::from_table(&employee_table());
//! let mut session = DiscoveryBuilder::new().approximate(0.15).build(&ranked);
//! let mut found = 0;
//! for event in session.by_ref() {
//!     if let DiscoveryEvent::OcFound(dep) = event {
//!         found += 1;
//!         assert!(dep.factor <= 0.15);
//!     }
//! }
//! assert_eq!(session.into_result().n_ocs(), found);
//! ```

use crate::candidates::OcCandidate;
use crate::config::{PruneConfig, Settings};
use crate::dep::{OcDep, OfdDep};
use crate::frontier::Frontier;
use crate::parallel::{eval_node, stop_check, LevelCtx, NodeEval, NodeResult, OcEval};
use crate::prune_state::{PruneRule, PruneState};
use crate::result::DiscoveryResult;
use crate::sink::{EventSink, Phase};
use crate::stats::{DiscoveryStats, LevelStats};
use aod_exec::Executor;
use aod_obs::trace::{span_id, Span, TraceSink};
use aod_obs::{Clock, MonotonicClock};
use aod_partition::{AttrSet, PartitionCache, MAX_ATTRS};
use aod_table::RankedTable;
use aod_validate::{removal_budget, strategy_backend, OcValidatorBackend};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cloneable handle that cancels a running [`DiscoverySession`].
///
/// Cancellation is checked before every lattice node, so a cancelled
/// session stops within one node's worth of validation work and its
/// partial results stay well-formed (flagged via
/// [`DiscoveryStats::stopped_early`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from another thread or from
    /// inside the event loop consuming the session.
    pub fn cancel(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }
}

/// Why a session stopped stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The lattice ran out of live nodes — the run is complete.
    Exhausted,
    /// The configured `max_level` was reached (complete up to that level).
    MaxLevel,
    /// The wall-clock budget was exceeded; results are partial.
    TimedOut,
    /// A [`CancelToken`] fired; results are partial.
    Cancelled,
    /// The `top_k` target was reached; results are partial.
    TopK,
}

/// What one [`DiscoverySession::step`] accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelOutcome {
    /// The lattice level this step processed.
    pub level: usize,
    /// Per-level counters for this level. `n_nodes` always reports the
    /// full frontier size; the candidate/prune/hit counters cover what
    /// was actually processed.
    pub stats: LevelStats,
    /// `false` when the level was interrupted mid-way (timeout, cancel,
    /// top-k) — the candidate/prune/hit counters then cover only the
    /// prefix of nodes processed before the interruption.
    pub completed: bool,
    /// Set when the session finished during or right after this level.
    pub stop: Option<StopReason>,
}

/// One observable increment of discovery progress.
///
/// Events stream in deterministic driver order, so replaying
/// `OcFound`/`OfdFound` events reconstructs exactly the dependency lists
/// of the final [`DiscoveryResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryEvent {
    /// A minimal valid (approximate) OC was found.
    OcFound(OcDep),
    /// A minimal valid (approximate) OFD was found.
    OfdFound(OfdDep),
    /// An OC candidate was skipped by a pruning rule.
    Pruned {
        /// Lattice level of the generating node.
        level: usize,
        /// The candidate's context set.
        context: AttrSet,
        /// First attribute of the pruned pair.
        a: usize,
        /// Second attribute of the pruned pair.
        b: usize,
        /// Which rule fired.
        rule: PruneRule,
    },
    /// A lattice level was fully processed.
    LevelComplete(LevelOutcome),
    /// The wall-clock budget expired mid-level.
    TimedOut {
        /// The level that was being processed.
        level: usize,
    },
    /// A [`CancelToken`] fired mid-run.
    Cancelled {
        /// The level that was being processed.
        level: usize,
    },
}

/// Per-node timings collected by the merge while a level runs, then laid
/// out as candidate-batch spans at the level barrier. Entries exist only
/// for **fully merged** nodes (an interruption or top-k cut skips the cut
/// node), like the stats timers they mirror.
struct NodeTrace {
    node: usize,
    /// Micros into the level's OFD phase at which the node's batch starts.
    ofd_at: u64,
    ofd_us: u64,
    /// Micros into the level's OC phase at which the node's batch starts.
    oc_at: u64,
    oc_us: u64,
    n_ofd: usize,
    n_oc: usize,
    /// OC candidates answered from an equal sub-context partition.
    n_inherited: usize,
    /// OC candidates answered as invalid from four cached class counts.
    n_bounded: usize,
    /// OC candidates answered as invalid from disjoint swapped row pairs.
    n_paired: usize,
}

/// A resumable, observable discovery run over one table.
///
/// Created by [`DiscoveryBuilder::build`](crate::DiscoveryBuilder::build).
/// Drive it with [`step`](DiscoverySession::step) (one lattice level at a
/// time), or consume it as an iterator of [`DiscoveryEvent`]s — iteration
/// steps the engine lazily whenever the event buffer runs dry. Partial
/// results are available at any point and always satisfy the same
/// minimality invariants as a completed run's.
///
/// The session validates on its own copy of the table with the rows
/// renumbered (see "Row order" in the module docs): the `ctx` partition
/// and the rank slices an [`OcValidatorBackend`] receives use the
/// session's row numbering, not the caller's.
pub struct DiscoverySession {
    /// The session's copy of the table, rows renumbered (see "Row order"
    /// in the module docs).
    table: RankedTable,
    max_level: Option<usize>,
    timeout: Option<Duration>,
    prune_cfg: PruneConfig,
    top_k: Option<usize>,
    cancel: CancelToken,
    /// The OC validation backend: the template the engine forks once per
    /// worker per level.
    backend: Box<dyn OcValidatorBackend>,
    budget: usize,
    coverage_denominator: f64,
    cache: PartitionCache,
    frontier: Frontier,
    prune: PruneState,
    /// Runs each level's node evaluation and the next level's partitions.
    executor: Executor,
    /// The session's only time source (see "One clock" above).
    clock: Arc<dyn Clock>,
    stats: DiscoveryStats,
    ocs: Vec<OcDep>,
    ofds: Vec<OfdDep>,
    events: VecDeque<DiscoveryEvent>,
    record_events: bool,
    sink: Option<Arc<dyn EventSink>>,
    trace: Option<Arc<TraceSink>>,
    /// Clock reading once level 1 is seeded: the origin of `total` and the
    /// timeout, and the job span's start.
    started_us: u64,
    /// Latest span end recorded so far; the job span must enclose it.
    trace_end_us: u64,
    /// Per-node timings of the level in flight (cleared each step).
    level_trace: Vec<NodeTrace>,
    /// Session-clock micros of the level in flight per phase, in
    /// [`Phase::ALL`] order (cleared each step). This one sum feeds the
    /// stats timers, [`EventSink::on_phase`] and the phase spans.
    phase_us: [u64; 3],
    finished: Option<StopReason>,
}

impl DiscoverySession {
    /// Builds a session at level 1, validating nothing yet.
    ///
    /// # Panics
    /// If the table has more than [`MAX_ATTRS`] columns, or the scope
    /// names a column the table doesn't have.
    pub(crate) fn new(table: &RankedTable, settings: Settings) -> DiscoverySession {
        let n_rows = table.n_rows();
        let n_attrs = table.n_cols();
        assert!(
            n_attrs <= MAX_ATTRS,
            "at most {MAX_ATTRS} attributes supported"
        );
        let scope = settings.scope.unwrap_or_else(|| AttrSet::full(n_attrs));
        assert!(
            scope.is_subset_of(AttrSet::full(n_attrs)),
            "scope contains column indices beyond the table's {n_attrs} columns"
        );
        let table = table.sorted_rows(&scope.iter().collect::<Vec<_>>());
        let mut cache = PartitionCache::new();
        let frontier = Frontier::seed(&table, scope, &mut cache);
        let mut executor = Executor::new(settings.threads);
        if let Some(gauge) = settings.queue_gauge {
            executor = executor.with_queue_gauge(gauge);
        }
        if let Some(trace) = &settings.trace {
            executor = executor.with_trace(Arc::clone(trace));
        }
        let clock: Arc<dyn Clock> = match &settings.trace {
            Some(trace) => Arc::clone(trace.clock()),
            None => Arc::new(MonotonicClock::new()),
        };
        let stats = DiscoveryStats {
            threads_used: executor.threads(),
            ..DiscoveryStats::default()
        };
        DiscoverySession {
            table,
            max_level: settings.max_level,
            timeout: settings.timeout,
            prune_cfg: settings.prune,
            top_k: settings.top_k,
            cancel: settings.cancel,
            backend: settings
                .backend
                .unwrap_or_else(|| strategy_backend(settings.strategy)),
            budget: removal_budget(n_rows, settings.epsilon),
            coverage_denominator: n_rows.max(1) as f64,
            cache,
            frontier,
            prune: PruneState::new(n_attrs),
            executor,
            started_us: clock.now_us(),
            clock,
            stats,
            ocs: Vec::new(),
            ofds: Vec::new(),
            events: VecDeque::new(),
            record_events: settings.record_events,
            trace_end_us: 0,
            level_trace: Vec::new(),
            phase_us: [0; 3],
            trace: settings.trace,
            sink: settings.sink,
            finished: None,
        }
    }

    /// The lattice level the next [`step`](DiscoverySession::step) will
    /// process.
    pub fn level(&self) -> usize {
        self.frontier.level
    }

    /// `true` once the session will make no further progress.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Why the session finished, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.finished
    }

    /// A clone of the session's cancellation handle; cancel it (from any
    /// thread) to stop the run at the next node boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DiscoveryStats {
        &self.stats
    }

    /// Advances the engine by one lattice level.
    ///
    /// Returns `None` when the session is already finished (or finishes
    /// without processing a level, e.g. an exhausted frontier); otherwise
    /// the [`LevelOutcome`] of the processed level, whose `stop` field
    /// reports whether — and why — this was the last one.
    pub fn step(&mut self) -> Option<LevelOutcome> {
        if self.finished.is_some() {
            return None;
        }
        if self.frontier.is_empty() {
            self.finish(StopReason::Exhausted);
            self.record_job_trace();
            return None;
        }
        if self.top_k.is_some_and(|k| self.ocs.len() >= k) {
            self.finish(StopReason::TopK);
            self.record_job_trace();
            return None;
        }

        let level = self.frontier.level;
        let n_nodes = self.frontier.nodes.len();
        self.stats.level_mut(level).n_nodes = n_nodes;
        if let Some(sink) = &self.sink {
            sink.on_level_start(level, n_nodes);
        }
        let level_start = self.clock.now_us();
        self.level_trace.clear();
        self.phase_us = [0; 3];
        let stop = self.process_level(level);
        self.stats.oc_validation +=
            Duration::from_micros(self.phase_us[Phase::OcValidation.index()]);
        self.stats.ofd_validation +=
            Duration::from_micros(self.phase_us[Phase::OfdValidation.index()]);

        let mut outcome = LevelOutcome {
            level,
            stats: self.stats.level_mut(level).clone(),
            completed: stop.is_none(),
            stop: None,
        };

        let mut n_shared = 0;
        match stop {
            Some(reason) => {
                match reason {
                    StopReason::TimedOut => self.emit(DiscoveryEvent::TimedOut { level }),
                    StopReason::Cancelled => self.emit(DiscoveryEvent::Cancelled { level }),
                    // A reached top-k target is not an interruption worth an
                    // event of its own: the outcome's `stop` field carries it.
                    _ => {}
                }
                self.finish(reason);
            }
            None => {
                if self.max_level.is_some_and(|m| level >= m) {
                    self.finish(StopReason::MaxLevel);
                } else {
                    let t0 = self.clock.now_us();
                    n_shared = self.frontier.advance(
                        &self.table,
                        &self.prune_cfg,
                        &mut self.cache,
                        &mut self.stats,
                        &self.executor,
                    );
                    let partition_us = self.clock.now_us().saturating_sub(t0);
                    self.phase_us[Phase::Partitioning.index()] = partition_us;
                    self.stats.partitioning += Duration::from_micros(partition_us);
                    if self.frontier.is_empty() {
                        self.finish(StopReason::Exhausted);
                    }
                }
            }
        }
        if let Some(sink) = &self.sink {
            for (phase, micros) in Phase::ALL.into_iter().zip(self.phase_us) {
                sink.on_phase(level, phase, micros);
            }
        }
        if let Some(trace) = self.trace.clone() {
            self.record_level_trace(&trace, level, level_start, n_nodes, n_shared);
        }
        if self.finished.is_some() {
            // The session finished during this step (it was unfinished on
            // entry), so this records the root span exactly once.
            self.record_job_trace();
        }
        outcome.stop = self.finished;
        if outcome.completed {
            self.emit(DiscoveryEvent::LevelComplete(outcome.clone()));
        }
        self.stats.total = self.elapsed();
        Some(outcome)
    }

    /// Session-clock time since the session was built.
    fn elapsed(&self) -> Duration {
        Duration::from_micros(self.clock.now_us().saturating_sub(self.started_us))
    }

    /// Runs one level: evaluate every node on the executor with a backend
    /// forked per worker, then merge the per-node results in node order
    /// (see the module-level determinism contract).
    fn process_level(&mut self, level: usize) -> Option<StopReason> {
        let lctx = LevelCtx {
            table: &self.table,
            cache: &self.cache,
            prune: &self.prune,
            prune_cfg: self.prune_cfg,
            budget: self.budget,
            coverage_denominator: self.coverage_denominator,
            level,
            cancel: &self.cancel,
            timeout: self.timeout,
            clock: self.clock.as_ref(),
            started_us: self.started_us,
        };
        let template = &self.backend;
        let results = self.executor.par_map_with_state(
            || template.fork(),
            &self.frontier.nodes,
            |backend, _idx, node| {
                // An interrupted node (and, after the merge cut,
                // everything beyond it) counts as unprocessed.
                match stop_check(&lctx) {
                    Some(reason) => NodeResult::Interrupted(reason),
                    None => NodeResult::Done(eval_node(&lctx, node, backend.as_mut())),
                }
            },
        );
        self.merge_level(level, results)
    }

    /// Replays per-node evaluations in node order: pushes found
    /// dependencies and events, applies TANE `Cc⁺` shrinking, records
    /// pruning facts and node timings, and stops at the first interrupted
    /// node or at the candidate that reaches `top_k`.
    fn merge_level(&mut self, level: usize, results: Vec<NodeResult>) -> Option<StopReason> {
        for (idx, result) in results.into_iter().enumerate() {
            let eval: NodeEval = match result {
                NodeResult::Interrupted(reason) => return Some(reason),
                NodeResult::Done(eval) => eval,
            };
            let set = self.frontier.nodes[idx].set;
            let (n_ofd, n_oc) = (eval.ofds.len(), eval.ocs.len());

            for ofd in eval.ofds {
                self.stats.level_mut(level).n_ofd_candidates += 1;
                let Some(removed) = ofd.removed else { continue };
                self.stats.level_mut(level).n_ofd_found += 1;
                let ctx_set = set.without(ofd.a);
                let dep = OfdDep {
                    context: ctx_set,
                    rhs: ofd.a,
                    removed,
                    factor: removed as f64 / self.coverage_denominator,
                    level,
                    coverage: ofd.coverage,
                };
                if self.observing() {
                    self.emit(DiscoveryEvent::OfdFound(dep.clone()));
                }
                self.ofds.push(dep);
                self.prune.record_constant(ofd.a, ctx_set);
                // TANE pruning: Cc+(X) := (Cc+(X) ∩ X) \ {A}.
                let node = &mut self.frontier.nodes[idx];
                node.rhs = node.rhs.intersect(set).without(ofd.a);
            }

            for (cand, oc) in eval.ocs {
                match oc {
                    OcEval::Pruned(rule) => self.prune_event(level, cand, rule),
                    OcEval::Validated { removed, coverage } => {
                        self.stats.level_mut(level).n_oc_candidates += 1;
                        let Some(removed) = removed else { continue };
                        self.stats.level_mut(level).n_oc_found += 1;
                        let dep = OcDep {
                            context: cand.context,
                            a: cand.a,
                            b: cand.b,
                            removed,
                            factor: removed as f64 / self.coverage_denominator,
                            level,
                            coverage,
                        };
                        if self.observing() {
                            self.emit(DiscoveryEvent::OcFound(dep.clone()));
                        }
                        self.ocs.push(dep);
                        self.prune.record_oc(cand.a, cand.b, cand.context);
                        if self.top_k.is_some_and(|k| self.ocs.len() >= k) {
                            return Some(StopReason::TopK);
                        }
                    }
                }
            }

            // Reached only for fully merged nodes: the cut node above
            // returns first, so its time counts neither in the stats nor
            // in the trace.
            let (oc, ofd) = (Phase::OcValidation.index(), Phase::OfdValidation.index());
            let (oc_at, ofd_at) = (self.phase_us[oc], self.phase_us[ofd]);
            self.phase_us[oc] += eval.oc_us;
            self.phase_us[ofd] += eval.ofd_us;
            if self.trace.is_some() {
                self.level_trace.push(NodeTrace {
                    node: idx,
                    ofd_at,
                    ofd_us: eval.ofd_us,
                    oc_at,
                    oc_us: eval.oc_us,
                    n_ofd,
                    n_oc,
                    n_inherited: eval.n_inherited,
                    n_bounded: eval.n_bounded,
                    n_paired: eval.n_paired,
                });
            }
        }
        None
    }

    /// Lays out this level's spans at the level barrier, from the
    /// [`NodeTrace`] entries the merge collected.
    ///
    /// Layout is the *sequential attribution view*: phase spans sit
    /// end-to-end from the level start in [`Phase::ALL`] order, each
    /// phase's candidate-batch spans sit at their node's offset within it,
    /// and every parent's end is pushed to `max(own bracket, children)` —
    /// so child-within-parent nesting holds by construction under any
    /// clock, even when per-node time summed over workers exceeds the
    /// level's wall time. A phase lasts the level's phase sum, which also
    /// feeds the stats timer and [`EventSink::on_phase`] (nodes without
    /// candidates get no batch span but keep their share).
    /// Recording order is parent-first and fully deterministic. A batch
    /// span carries its node and candidate count; an OC batch span also
    /// carries `inherited`, the candidates answered from an equal
    /// sub-context partition without a backend call, `bounded`, those
    /// answered as invalid from four cached class counts without one, and
    /// `paired`, those answered as invalid from disjoint swapped row pairs
    /// without one. The `partitioning` phase span carries `shared`, how
    /// many of the next level's partitions were shared with a parent
    /// instead of refined (0 when the level built none).
    fn record_level_trace(
        &mut self,
        trace: &TraceSink,
        level: usize,
        level_start: u64,
        n_nodes: usize,
        n_shared: usize,
    ) {
        let level_id = span_id::level(level);
        let mut phase_spans = Vec::new();
        let mut batch_spans = Vec::new();
        let mut cursor = level_start;
        for (phase_idx, phase) in Phase::ALL.into_iter().enumerate() {
            let phase_id = span_id::phase(level, phase_idx);
            let phase_start = cursor;
            let phase_us = self.phase_us[phase_idx];
            let mut args = vec![("level", level as u64)];
            match phase {
                Phase::OcValidation | Phase::OfdValidation => {
                    let oc = matches!(phase, Phase::OcValidation);
                    for entry in &self.level_trace {
                        let (at, us, candidates) = if oc {
                            (entry.oc_at, entry.oc_us, entry.n_oc)
                        } else {
                            (entry.ofd_at, entry.ofd_us, entry.n_ofd)
                        };
                        if candidates == 0 {
                            continue;
                        }
                        let mut args = vec![
                            ("node", entry.node as u64),
                            ("candidates", candidates as u64),
                        ];
                        if oc {
                            args.push(("inherited", entry.n_inherited as u64));
                            args.push(("bounded", entry.n_bounded as u64));
                            args.push(("paired", entry.n_paired as u64));
                        }
                        batch_spans.push(Span {
                            id: span_id::batch(level, entry.node, phase_idx),
                            parent: phase_id,
                            name: "candidates",
                            cat: "batch",
                            tid: 0,
                            start_us: phase_start + at,
                            dur_us: us,
                            args,
                        });
                    }
                }
                Phase::Partitioning => args.push(("shared", n_shared as u64)),
            }
            phase_spans.push(Span {
                id: phase_id,
                parent: level_id,
                name: phase.name(),
                cat: "phase",
                tid: 0,
                start_us: phase_start,
                dur_us: phase_us,
                args,
            });
            cursor = phase_start + phase_us;
        }
        let end = trace.now_us().max(cursor);
        trace.record(Span {
            id: level_id,
            parent: span_id::JOB,
            name: "level",
            cat: "level",
            tid: 0,
            start_us: level_start,
            dur_us: end.saturating_sub(level_start),
            args: vec![("level", level as u64), ("nodes", n_nodes as u64)],
        });
        for span in phase_spans {
            trace.record(span);
        }
        for span in batch_spans {
            trace.record(span);
        }
        self.trace_end_us = self.trace_end_us.max(end);
    }

    /// Records the root job span once the session finishes; its end is
    /// pushed to enclose every recorded child.
    fn record_job_trace(&mut self) {
        let Some(trace) = &self.trace else { return };
        let end = trace.now_us().max(self.trace_end_us);
        trace.record(Span {
            id: span_id::JOB,
            parent: 0,
            name: "discover",
            cat: "job",
            tid: 0,
            start_us: self.started_us,
            dur_us: end.saturating_sub(self.started_us),
            args: vec![
                ("ocs", self.ocs.len() as u64),
                ("ofds", self.ofds.len() as u64),
            ],
        });
    }

    fn prune_event(&mut self, level: usize, cand: OcCandidate, rule: PruneRule) {
        self.stats.level_mut(level).n_oc_pruned += 1;
        self.emit(DiscoveryEvent::Pruned {
            level,
            context: cand.context,
            a: cand.a,
            b: cand.b,
            rule,
        });
    }

    fn emit(&mut self, event: DiscoveryEvent) {
        if let Some(sink) = &self.sink {
            sink.on_event(&event);
        }
        if self.record_events {
            self.events.push_back(event);
        }
    }

    /// `true` when building an event is worthwhile at all — the guard the
    /// found-dependency hot paths use before cloning a dep into `emit`.
    fn observing(&self) -> bool {
        self.record_events || self.sink.is_some()
    }

    fn finish(&mut self, reason: StopReason) {
        self.finished = Some(reason);
        match reason {
            StopReason::TimedOut => self.stats.timed_out = true,
            StopReason::Cancelled | StopReason::TopK => self.stats.stopped_early = true,
            StopReason::Exhausted | StopReason::MaxLevel => {}
        }
        self.stats.total = self.elapsed();
        if let Some(sink) = &self.sink {
            sink.on_finish(&self.stats);
        }
    }

    /// Runs the remaining levels to completion and returns the result.
    /// Buffered events are discarded (use the iterator to observe them).
    pub fn run(mut self) -> DiscoveryResult {
        while self.step().is_some() {
            self.events.clear();
        }
        self.into_result()
    }

    /// A snapshot of the (possibly partial) results found so far. The
    /// session can keep stepping afterwards.
    pub fn result(&self) -> DiscoveryResult {
        let mut stats = self.stats.clone();
        if self.finished.is_none() {
            stats.total = self.elapsed();
        }
        DiscoveryResult {
            ocs: self.ocs.clone(),
            ofds: self.ofds.clone(),
            stats,
            n_rows: self.table.n_rows(),
            n_attrs: self.table.n_cols(),
        }
    }

    /// Consumes the session, harvesting the (possibly partial) results
    /// without cloning the dependency lists.
    pub fn into_result(mut self) -> DiscoveryResult {
        if self.finished.is_none() {
            self.stats.total = self.elapsed();
        }
        DiscoveryResult {
            ocs: self.ocs,
            ofds: self.ofds,
            stats: self.stats,
            n_rows: self.table.n_rows(),
            n_attrs: self.table.n_cols(),
        }
    }
}

impl Iterator for DiscoverySession {
    type Item = DiscoveryEvent;

    /// Pops the next buffered event, stepping the engine while the buffer
    /// is empty. Returns `None` once the session finished and every event
    /// was drained — use `session.by_ref()` in a `for` loop to keep the
    /// session afterwards.
    fn next(&mut self) -> Option<DiscoveryEvent> {
        loop {
            if let Some(event) = self.events.pop_front() {
                return Some(event);
            }
            if self.finished.is_some() {
                return None;
            }
            self.step();
        }
    }
}

impl std::fmt::Debug for DiscoverySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoverySession")
            .field("level", &self.frontier.level)
            .field("backend", &self.backend.name())
            .field("threads", &self.stats.threads_used)
            .field("n_ocs", &self.ocs.len())
            .field("n_ofds", &self.ofds.len())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DiscoveryBuilder;
    use crate::engine::DiscoveryEvent;
    use crate::sink::{DiscoveryMetrics, EventSink, NoopSink, Phase};
    use aod_obs::{MonotonicClock, TraceSink};
    use aod_table::{employee_table, RankedTable};
    use std::sync::Arc;

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// The determinism contract on the smallest real workload: events,
    /// dependency lists and counters are bit-identical across thread
    /// counts (the cross-config sweep lives in
    /// `tests/parallel_determinism.rs`).
    #[test]
    fn parallel_sessions_match_sequential_bit_for_bit() {
        let t = employee();
        let build = |threads: usize| {
            DiscoveryBuilder::new()
                .approximate(0.15)
                .parallelism(threads)
                .build(&t)
        };
        let mut seq = build(1);
        let seq_events: Vec<DiscoveryEvent> = seq.by_ref().collect();
        let seq_result = seq.into_result();
        for threads in [2usize, 4] {
            let mut par = build(threads);
            let par_events: Vec<DiscoveryEvent> = par.by_ref().collect();
            assert_eq!(par_events, seq_events, "threads = {threads}");
            let par_result = par.into_result();
            assert_eq!(par_result.ocs, seq_result.ocs);
            assert_eq!(par_result.ofds, seq_result.ofds);
            assert_eq!(par_result.stats.per_level, seq_result.stats.per_level);
            assert_eq!(par_result.stats.threads_used, threads);
        }
        assert_eq!(seq_result.stats.threads_used, 1);
    }

    /// `parallelism(0)` resolves to the machine's available parallelism
    /// and still reproduces the one-thread run.
    #[test]
    fn auto_parallelism_resolves_and_matches() {
        let t = employee();
        let auto = DiscoveryBuilder::new().exact().parallelism(0).run(&t);
        let seq = DiscoveryBuilder::new().exact().run(&t);
        assert!(auto.stats.threads_used >= 1);
        assert_eq!(auto.ocs, seq.ocs);
        assert_eq!(auto.ofds, seq.ofds);
    }

    /// The eviction invariant end-to-end: while the engine runs, the
    /// partition cache never holds a partition more than two levels below
    /// the frontier (peak residency = two completed levels + frontier),
    /// yet the level-`ℓ−2` context partitions the OC validator needs are
    /// always present.
    #[test]
    fn cache_residency_stays_within_two_levels_of_frontier() {
        let t = employee();
        for threads in [1usize, 4] {
            let mut session = DiscoveryBuilder::new()
                .approximate(0.1)
                .parallelism(threads)
                .record_events(false)
                .build(&t);
            while session.step().is_some() {
                let frontier_level = session.frontier.level;
                for set in session.cache.cached_sets() {
                    assert!(
                        set.len() + 2 >= frontier_level,
                        "level-{} partition resident at frontier level {frontier_level}",
                        set.len(),
                    );
                    assert!(set.len() <= frontier_level);
                }
                // The next level's OC contexts (ℓ−2) are already cached.
                if !session.frontier.is_empty() && frontier_level >= 2 {
                    for node in &session.frontier.nodes {
                        let attrs: Vec<usize> = node.set.iter().collect();
                        for (i, &a) in attrs.iter().enumerate() {
                            for &b in &attrs[i + 1..] {
                                let ctx = node.set.without(a).without(b);
                                assert!(
                                    session.cache.get(ctx).is_some(),
                                    "context {ctx} missing at level {frontier_level}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Attaching the no-op sink changes nothing: events, dependency lists
    /// and per-level counters stay bit-identical to a sink-less run, at
    /// every thread count.
    #[test]
    fn noop_sink_keeps_outputs_bit_identical() {
        let t = employee();
        for threads in [1usize, 2, 4] {
            let builder = || {
                DiscoveryBuilder::new()
                    .approximate(0.15)
                    .parallelism(threads)
            };
            let mut plain = builder().build(&t);
            let plain_events: Vec<DiscoveryEvent> = plain.by_ref().collect();
            let plain_result = plain.into_result();

            let mut observed = builder().event_sink(Arc::new(NoopSink)).build(&t);
            let observed_events: Vec<DiscoveryEvent> = observed.by_ref().collect();
            let observed_result = observed.into_result();

            assert_eq!(observed_events, plain_events, "threads = {threads}");
            assert_eq!(observed_result.ocs, plain_result.ocs);
            assert_eq!(observed_result.ofds, plain_result.ofds);
            assert_eq!(
                observed_result.stats.per_level,
                plain_result.stats.per_level
            );
        }
    }

    /// A recording sink sees exactly the event stream the iterator yields,
    /// in the same order — including on buffer-less (`record_events(false)`)
    /// runs, where the sink is the only observer — and its per-phase micros
    /// are the durations of the trace's phase spans, at every thread count.
    #[test]
    fn sink_sees_the_exact_event_stream() {
        #[derive(Default)]
        struct Recorder {
            events: std::sync::Mutex<Vec<DiscoveryEvent>>,
            levels: std::sync::Mutex<Vec<(usize, usize)>>,
            phases: std::sync::Mutex<Vec<(usize, Phase, u64)>>,
            finishes: std::sync::atomic::AtomicUsize,
        }
        impl EventSink for Recorder {
            fn on_level_start(&self, level: usize, n_nodes: usize) {
                self.levels.lock().unwrap().push((level, n_nodes));
            }
            fn on_event(&self, event: &DiscoveryEvent) {
                self.events.lock().unwrap().push(event.clone());
            }
            fn on_phase(&self, level: usize, phase: Phase, micros: u64) {
                self.phases.lock().unwrap().push((level, phase, micros));
            }
            fn on_finish(&self, _stats: &crate::stats::DiscoveryStats) {
                self.finishes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }

        let t = employee();
        let mut reference = DiscoveryBuilder::new().approximate(0.15).build(&t);
        let expected: Vec<DiscoveryEvent> = reference.by_ref().collect();

        for threads in [1usize, 4] {
            let recorder = Arc::new(Recorder::default());
            let trace = Arc::new(TraceSink::new(Arc::new(MonotonicClock::new())));
            let result = DiscoveryBuilder::new()
                .approximate(0.15)
                .parallelism(threads)
                .event_sink(recorder.clone())
                .trace_sink(Arc::clone(&trace))
                .record_events(false)
                .build(&t)
                .run();

            assert_eq!(*recorder.events.lock().unwrap(), expected);
            let levels = recorder.levels.lock().unwrap();
            assert_eq!(levels.len(), result.stats.per_level.len());
            assert!(levels.windows(2).all(|w| w[0].0 + 1 == w[1].0));
            // Three phase reports per processed level, grouped by level,
            // each read from the same clock brackets as its phase span.
            let phases = recorder.phases.lock().unwrap();
            assert_eq!(phases.len(), 3 * result.stats.per_level.len());
            let spans = trace.spans();
            for &(level, phase, micros) in phases.iter() {
                let span = spans
                    .iter()
                    .find(|s| {
                        s.cat == "phase"
                            && s.name == phase.name()
                            && s.args.contains(&("level", level as u64))
                    })
                    .expect("one phase span per reported phase");
                assert_eq!(
                    span.dur_us,
                    micros,
                    "level {level} {} at threads = {threads}",
                    phase.name()
                );
            }
            assert_eq!(
                recorder.finishes.load(std::sync::atomic::Ordering::Relaxed),
                1
            );
        }
    }

    /// The standard metrics sink converges on exactly the deterministic
    /// totals of the final stats.
    #[test]
    fn discovery_metrics_match_final_stats() {
        let t = employee();
        let candidates = |stats: &crate::DiscoveryStats| -> u64 {
            stats
                .per_level
                .iter()
                .map(|l| l.n_oc_candidates as u64)
                .sum()
        };
        let registry = aod_obs::Registry::new();
        let metrics = Arc::new(DiscoveryMetrics::new(&registry, &[]));
        let result = DiscoveryBuilder::new()
            .approximate(0.15)
            .parallelism(2)
            .event_sink(metrics.as_sink())
            .run(&t);

        let stats = &result.stats;
        assert_eq!(metrics.ocs_found().get(), stats.n_ocs() as u64);
        assert_eq!(metrics.ofds_found().get(), stats.n_ofds() as u64);
        assert_eq!(metrics.oc_candidates().get(), candidates(stats));
        let pruned: usize = stats.per_level.iter().map(|l| l.n_oc_pruned).sum();
        assert_eq!(metrics.oc_pruned().get(), pruned as u64);
        assert_eq!(
            metrics.levels_completed().get(),
            stats.per_level.len() as u64
        );
        for phase in Phase::ALL {
            assert_eq!(
                metrics.phase(phase).count(),
                stats.per_level.len() as u64,
                "one observation per level for {}",
                phase.name()
            );
        }

        // Runs share a series (serve makes one sink per job and one series
        // per dataset), and each adds its own levels' candidates: a later
        // run cut inside a level by `top_k` adds those of its cut level.
        let cut = DiscoveryBuilder::new()
            .approximate(0.15)
            .top_k(3)
            .event_sink(Arc::new(DiscoveryMetrics::new(&registry, &[])).as_sink())
            .run(&t);
        assert!(cut.stats.stopped_early);
        assert!(cut.stats.per_level.last().unwrap().n_oc_candidates > 0);
        assert_eq!(
            metrics.oc_candidates().get(),
            candidates(stats) + candidates(&cut.stats)
        );

        // A run that ends at its level cap counts its last level once,
        // though the engine reports the finish before that level's
        // `LevelComplete`.
        let capped_metrics = Arc::new(DiscoveryMetrics::new(&registry, &[("run", "capped")]));
        let capped = DiscoveryBuilder::new()
            .approximate(0.15)
            .max_level(2)
            .event_sink(capped_metrics.as_sink())
            .run(&t);
        assert!(capped.stats.per_level[1].n_oc_candidates > 0);
        assert_eq!(
            capped_metrics.oc_candidates().get(),
            candidates(&capped.stats)
        );
    }

    /// Runs that share a series leave no reading behind: two runs on one
    /// registry and label set, each with its own metrics sink and both on
    /// one queue gauge (as serve runs two jobs on a dataset), end with
    /// every gauge series at 0.
    #[test]
    fn runs_sharing_a_series_leave_every_gauge_at_zero() {
        let t = employee();
        let registry = aod_obs::Registry::new();
        let labels = [("dataset", "emp")];
        let queue = registry.gauge("aod_exec_queue_depth", "Unfinished items.", &labels);
        for (epsilon, threads) in [(0.15, 2), (0.1, 1)] {
            DiscoveryBuilder::new()
                .approximate(epsilon)
                .parallelism(threads)
                .event_sink(Arc::new(DiscoveryMetrics::new(&registry, &labels)).as_sink())
                .queue_depth_gauge(queue.clone())
                .run(&t);
        }
        let scrape = aod_obs::Scrape::parse(&registry.render()).unwrap();
        let mut gauges = scrape
            .samples()
            .iter()
            .filter(|s| scrape.family_type(&s.name) == Some("gauge"))
            .peekable();
        assert!(gauges.peek().is_some());
        for gauge in gauges {
            assert_eq!(gauge.value, 0.0, "{} {:?}", gauge.name, gauge.labels);
        }
    }

    /// Every OC candidate the engine answers without a backend call is
    /// one that both built-in validators reject at the session budget:
    /// those answered from an equal sub-context partition (they survive
    /// R2–R4 and their context is not free), those the class-count bound
    /// answers (they survive that check too, and their bound exceeds the
    /// budget) and those the disjoint swapped pairs answer (they survive
    /// the bound, and their pairs, recounted by the closed-form reference
    /// `brute_disjoint_swaps`, exceed the budget). The candidates are
    /// taken from the frontier, the cache (partitions and freeness) and
    /// the pruning state before each step, which is what that step's nodes
    /// read; their counts must equal the `inherited`, `bounded` and
    /// `paired` args of the OC batch spans. The first rule must fire on
    /// each input (employee at ε = 0.15 answers none: R2 and R3 take those
    /// candidates first), the bound on flight, and the pairs on flight at
    /// each ε.
    #[test]
    fn contexts_that_are_not_free_answer_only_rejected_candidates() {
        use crate::candidates::oc_candidates;
        use aod_obs::ManualClock;
        use aod_validate::{brute_disjoint_swaps, oc_removal_lower_bound, OcValidator};

        let flight = aod_datagen::flight::flight(7).table(2000);
        let flight =
            RankedTable::from_table(&flight.project(&(0..12).collect::<Vec<_>>()).unwrap());
        for (name, t, epsilons) in [
            ("employee", employee(), [0.0, 0.15]),
            ("flight", flight, [0.0, 0.1]),
        ] {
            let (mut fired, mut bound_fired) = (0usize, 0usize);
            for epsilon in epsilons {
                let trace = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
                let mut session = DiscoveryBuilder::new()
                    .approximate(epsilon)
                    .trace_sink(Arc::clone(&trace))
                    .record_events(false)
                    .build(&t);
                let mut validator = OcValidator::new();
                let (mut answered, mut bounded, mut paired) = (0usize, 0usize, 0usize);
                loop {
                    let (prune, table, budget) = (&session.prune, &session.table, session.budget);
                    let cached = |set| session.cache.get(set).expect("subset is cached");
                    for (node, cand) in session
                        .frontier
                        .nodes
                        .iter()
                        .flat_map(|n| oc_candidates(n.set).into_iter().map(move |c| (n.set, c)))
                    {
                        let (a, b, ctx) = (cand.a, cand.b, cand.context);
                        let part = cached(ctx);
                        if prune.oc_implied(a, b, ctx)
                            || prune.constancy_implied(a, b, ctx)
                            || part.is_key()
                        {
                            continue;
                        }
                        let (ar, br) = (table.column(a).ranks(), table.column(b).ranks());
                        if !session.cache.is_free(ctx) {
                            answered += 1;
                        } else if oc_removal_lower_bound(
                            part,
                            cached(node.without(b)),
                            cached(node.without(a)),
                            cached(node),
                        ) > budget
                        {
                            bounded += 1;
                        } else if brute_disjoint_swaps(part, ar, br) > budget {
                            paired += 1;
                        } else {
                            continue;
                        }
                        let at = format!("{name} ε {epsilon}: {ctx}: {a} ~ {b}");
                        let optimal = validator.min_removal_optimal(part, ar, br, budget);
                        assert_eq!(optimal, None, "{at}");
                        let iterative = validator.min_removal_iterative(part, ar, br, budget);
                        assert_eq!(iterative, None, "{at}");
                    }
                    if session.step().is_none() {
                        break;
                    }
                }
                let spans = trace.spans();
                let arg_sum = |name: &str| -> u64 {
                    spans
                        .iter()
                        .flat_map(|s| s.args.iter())
                        .filter(|(key, _)| *key == name)
                        .map(|(_, k)| k)
                        .sum()
                };
                assert_eq!(arg_sum("inherited"), answered as u64, "{name} ε {epsilon}");
                assert_eq!(arg_sum("bounded"), bounded as u64, "{name} ε {epsilon}");
                assert_eq!(arg_sum("paired"), paired as u64, "{name} ε {epsilon}");
                if name == "flight" {
                    assert!(paired > 0, "{name} ε {epsilon}: the pairs never fired");
                }
                fired += answered;
                bound_fired += bounded;
            }
            assert!(fired > 0, "{name}: the rule never fired");
            if name == "flight" {
                assert!(bound_fired > 0, "{name}: the bound never fired");
            }
        }
    }

    /// `n_products` counts the partitions built to materialize each
    /// level: zero for the seeded level 1, `n_nodes` of level ℓ for ℓ ≥ 2
    /// (every node counts once, whether its partition is refined or
    /// shared with a parent), at every thread count.
    #[test]
    fn n_products_counts_materializing_products() {
        let t = employee();
        for threads in [1usize, 4] {
            let result = DiscoveryBuilder::new()
                .approximate(0.1)
                .parallelism(threads)
                .run(&t);
            let per_level = &result.stats.per_level;
            assert_eq!(per_level[0].n_products, 0, "level 1 is seeded");
            assert!(per_level.iter().skip(1).any(|l| l.n_products > 0));
            for l in per_level.iter().skip(1) {
                assert_eq!(l.n_products, l.n_nodes, "threads = {threads}");
            }
            assert_eq!(
                result.stats.n_partition_products(),
                per_level.iter().map(|l| l.n_products).sum::<usize>()
            );
        }
    }
}
