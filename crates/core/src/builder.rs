//! Fluent construction of discovery runs.
//!
//! [`DiscoveryBuilder`] is the one way to configure a discovery run: it
//! collects the threshold, validator, lattice limits, column scope, top-k
//! target, cancellation handle and observability taps, and produces
//! either a streaming [`DiscoverySession`] or, via
//! [`run`](DiscoveryBuilder::run), a one-shot [`DiscoveryResult`].
//!
//! ```
//! use aod_core::DiscoveryBuilder;
//! use aod_table::{employee_table, RankedTable};
//!
//! let ranked = RankedTable::from_table(&employee_table());
//! let result = DiscoveryBuilder::new()
//!     .approximate(0.15)
//!     .max_level(3)
//!     .run(&ranked);
//! assert!(result.n_ocs() > 0);
//! ```

use crate::config::{PruneConfig, Settings};
use crate::engine::{CancelToken, DiscoverySession};
use crate::result::DiscoveryResult;
use crate::sink::EventSink;
use aod_partition::AttrSet;
use aod_table::RankedTable;
use aod_validate::{AocStrategy, OcValidatorBackend};
use std::sync::Arc;
use std::time::Duration;

/// Fluent builder for [`DiscoverySession`]s.
///
/// Defaults to exact discovery (ε = 0) with Algorithm 2 over all columns,
/// full lattice, no timeout, all pruning rules on.
#[must_use = "a builder does nothing until `build` or `run` is called"]
#[derive(Default)]
pub struct DiscoveryBuilder {
    /// What [`build`](DiscoveryBuilder::build) hands to the session.
    pub(crate) settings: Settings,
}

impl DiscoveryBuilder {
    /// A builder with the exact-discovery defaults.
    pub fn new() -> DiscoveryBuilder {
        DiscoveryBuilder::default()
    }

    /// Exact OD discovery: the spelling of
    /// [`approximate(0.0)`](DiscoveryBuilder::approximate), keeping the
    /// configured [`strategy`](DiscoveryBuilder::strategy). With a removal
    /// budget of 0 an OC is accepted iff no context class holds a swap
    /// (Algorithm 2's bounded kernel stops at the first descent, which is
    /// the swap scan) and an OFD iff `A` splits no context class.
    pub fn exact(self) -> DiscoveryBuilder {
        self.approximate(0.0)
    }

    /// Approximate discovery at the given threshold `ε ∈ [0, 1]`, keeping
    /// the configured [`strategy`](DiscoveryBuilder::strategy).
    ///
    /// # Panics
    /// If `epsilon` is outside `[0, 1]`.
    pub fn approximate(mut self, epsilon: f64) -> DiscoveryBuilder {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be within [0, 1]"
        );
        self.settings.epsilon = epsilon;
        self
    }

    /// Which AOC validation algorithm runs (ignored when a custom
    /// [`validator`](DiscoveryBuilder::validator) is set).
    pub fn strategy(mut self, strategy: AocStrategy) -> DiscoveryBuilder {
        self.settings.strategy = strategy;
        self
    }

    /// Overrides the pruning rules (ablation runs).
    pub fn prune(mut self, prune: PruneConfig) -> DiscoveryBuilder {
        self.settings.prune = prune;
        self
    }

    /// Stops after this lattice level (complete up to it).
    ///
    /// # Panics
    /// If `level` is 0: level 1 is the first the engine processes.
    pub fn max_level(mut self, level: usize) -> DiscoveryBuilder {
        assert!(level >= 1, "max_level must be at least 1");
        self.settings.max_level = Some(level);
        self
    }

    /// Aborts gracefully (partial results, flagged `timed_out`) once the
    /// run has used this budget. The budget runs on the session clock —
    /// the [`trace_sink`](DiscoveryBuilder::trace_sink)'s clock when one is
    /// attached, else a monotonic clock started at
    /// [`build`](DiscoveryBuilder::build) — from the end of level-1
    /// seeding, and is checked before each lattice node: the run stops at
    /// the first check whose elapsed time is at least the budget, so a
    /// zero budget validates nothing and [`Duration::MAX`] never fires.
    pub fn timeout(mut self, timeout: Duration) -> DiscoveryBuilder {
        self.settings.timeout = Some(timeout);
        self
    }

    /// Restricts discovery to these column indices; dependencies over
    /// other columns are neither generated nor validated. Indices refer to
    /// the original table, so reported dependencies keep their meaning.
    /// An index the table doesn't have makes
    /// [`build`](DiscoveryBuilder::build) panic rather than silently
    /// discover nothing.
    pub fn scope<I: IntoIterator<Item = usize>>(mut self, columns: I) -> DiscoveryBuilder {
        self.settings.scope = Some(AttrSet::from_attrs(columns));
        self
    }

    /// Stops the run (partial results, flagged `stopped_early`) as soon as
    /// `k` OCs have been found — early-exit serving for "give me the k
    /// most promising dependencies" workloads.
    ///
    /// # Panics
    /// If `k` is 0: such a run would stop before validating anything.
    pub fn top_k(mut self, k: usize) -> DiscoveryBuilder {
        assert!(k >= 1, "top_k must be at least 1");
        self.settings.top_k = Some(k);
        self
    }

    /// Attaches a cancellation handle. Without one the session creates its
    /// own, retrievable via
    /// [`DiscoverySession::cancel_token`].
    pub fn cancel_token(mut self, token: CancelToken) -> DiscoveryBuilder {
        self.settings.cancel = token;
        self
    }

    /// Plugs in a custom OC-validation backend, overriding the
    /// strategy's (Algorithm 2 / Algorithm 1). The removal budget still
    /// follows the configured ε.
    pub fn validator(mut self, backend: Box<dyn OcValidatorBackend>) -> DiscoveryBuilder {
        self.settings.backend = Some(backend);
        self
    }

    /// Worker threads per lattice level: `1` (the default) evaluates the
    /// level's nodes in order on the calling thread, `0` resolves to one
    /// worker per available core, `n > 1` runs up to `n` workers (never
    /// more than the level has nodes or children). Every setting runs
    /// the same per-node evaluation and node-order merge, so all yield
    /// **bit-identical** events, dependency lists and statistics counters
    /// — see the determinism contract on [`DiscoverySession`] — and this
    /// is purely a wall-clock knob.
    pub fn parallelism(mut self, threads: usize) -> DiscoveryBuilder {
        self.settings.threads = threads;
        self
    }

    /// Attaches an observability tap: the sink sees every
    /// [`DiscoveryEvent`](crate::DiscoveryEvent) plus level-progress and
    /// per-phase timing signals as the session runs (see
    /// [`EventSink`]). Purely passive — outputs are bit-identical with or
    /// without a sink — and independent of
    /// [`record_events`](DiscoveryBuilder::record_events), so a metrics
    /// sink works even on buffer-less one-shot runs.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> DiscoveryBuilder {
        self.settings.sink = Some(sink);
        self
    }

    /// Attaches a gauge tracking the executor's outstanding per-level work
    /// items (queue depth): each level's node batch and partition batch
    /// add their items and take them out as they complete, at every thread
    /// count. Sessions may share one gauge; it then reads their sum.
    pub fn queue_depth_gauge(mut self, gauge: aod_obs::Gauge) -> DiscoveryBuilder {
        self.settings.queue_gauge = Some(gauge);
        self
    }

    /// Attaches a span-trace sink: the session records a deterministic
    /// job → level → phase → candidate-batch span hierarchy into it (see
    /// [`aod_obs::trace`]), exportable via
    /// [`chrome_trace`](crate::chrome_trace) /
    /// [`trace_ndjson`](crate::trace_ndjson). Purely passive — discovery
    /// outputs are bit-identical with or without tracing — and under a
    /// manual clock the recorded spans are byte-stable across thread
    /// counts.
    pub fn trace_sink(mut self, trace: Arc<aod_obs::TraceSink>) -> DiscoveryBuilder {
        self.settings.trace = Some(trace);
        self
    }

    /// Whether the session buffers [`DiscoveryEvent`](crate::DiscoveryEvent)s
    /// (default `true`). Disable when driving the session purely through
    /// [`step`](DiscoverySession::step) so unobserved events don't
    /// accumulate.
    pub fn record_events(mut self, record: bool) -> DiscoveryBuilder {
        self.settings.record_events = record;
        self
    }

    /// Builds the streaming session (level 1 seeded, nothing validated).
    ///
    /// # Panics
    /// If the table has more than [`MAX_ATTRS`](aod_partition::MAX_ATTRS)
    /// columns, or the
    /// configured [`scope`](DiscoveryBuilder::scope) names a column the
    /// table doesn't have.
    #[must_use = "the session does nothing until stepped or iterated"]
    pub fn build(self, table: &RankedTable) -> DiscoverySession {
        DiscoverySession::new(table, self.settings)
    }

    /// Convenience: builds the session and runs it to completion.
    pub fn run(self, table: &RankedTable) -> DiscoveryResult {
        self.record_events(false).build(table).run()
    }
}

impl std::fmt::Debug for DiscoveryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.settings;
        f.debug_struct("DiscoveryBuilder")
            .field("epsilon", &s.epsilon)
            .field("strategy", &s.strategy)
            .field("max_level", &s.max_level)
            .field("timeout", &s.timeout)
            .field("scope", &s.scope)
            .field("top_k", &s.top_k)
            .field("parallelism", &s.threads)
            .field("custom_backend", &s.backend.as_ref().map(|b| b.name()))
            .field("has_sink", &s.sink.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    #[test]
    fn builder_encodes_configs() {
        let c = DiscoveryBuilder::new().settings;
        assert_eq!((c.epsilon, c.strategy), (0.0, AocStrategy::Optimal));
        let c = DiscoveryBuilder::new()
            .approximate(0.2)
            .strategy(AocStrategy::Iterative)
            .max_level(4)
            .timeout(Duration::from_secs(9))
            .settings;
        assert_eq!((c.epsilon, c.strategy), (0.2, AocStrategy::Iterative));
        assert_eq!(c.max_level, Some(4));
        assert_eq!(c.timeout, Some(Duration::from_secs(9)));
    }

    #[test]
    fn strategy_order_does_not_matter() {
        let a = DiscoveryBuilder::new()
            .approximate(0.1)
            .strategy(AocStrategy::Iterative)
            .settings;
        let b = DiscoveryBuilder::new()
            .strategy(AocStrategy::Iterative)
            .approximate(0.1)
            .settings;
        assert_eq!((a.epsilon, a.strategy), (b.epsilon, b.strategy));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_epsilon_panics_at_the_builder() {
        let _ = DiscoveryBuilder::new().approximate(1.5);
    }

    #[test]
    #[should_panic(expected = "top_k must be at least 1")]
    fn top_k_of_zero_panics_at_the_builder() {
        let _ = DiscoveryBuilder::new().top_k(0);
    }

    #[test]
    #[should_panic(expected = "max_level must be at least 1")]
    fn max_level_of_zero_panics_at_the_builder() {
        let _ = DiscoveryBuilder::new().max_level(0);
    }

    #[test]
    fn run_equals_session_run() {
        let t = employee();
        let via_run = DiscoveryBuilder::new().approximate(0.15).run(&t);
        let via_session = DiscoveryBuilder::new().approximate(0.15).build(&t).run();
        assert_eq!(via_run.ocs, via_session.ocs);
        assert_eq!(via_run.ofds, via_session.ofds);
    }

    #[test]
    fn scope_restricts_reported_attributes() {
        let t = employee();
        let scope = [0usize, 2, 3];
        let result = DiscoveryBuilder::new().scope(scope).run(&t);
        let allowed = AttrSet::from_attrs(scope);
        assert!(result.n_ocs() + result.n_ofds() > 0);
        for dep in &result.ocs {
            assert!(dep.context.is_subset_of(allowed));
            assert!(allowed.contains(dep.a) && allowed.contains(dep.b));
        }
        for dep in &result.ofds {
            assert!(dep.context.is_subset_of(allowed));
            assert!(allowed.contains(dep.rhs));
        }
    }

    #[test]
    #[should_panic(expected = "scope contains column indices beyond")]
    fn out_of_range_scope_panics_instead_of_discovering_nothing() {
        let t = employee(); // 7 columns
        let _ = DiscoveryBuilder::new().scope([0, 7]).build(&t);
    }

    #[test]
    fn custom_backend_is_used() {
        // An always-reject backend finds nothing.
        struct Reject;
        impl OcValidatorBackend for Reject {
            fn name(&self) -> &'static str {
                "reject"
            }
            fn min_removal(
                &mut self,
                _ctx: &aod_partition::Partition,
                _a: &[u32],
                _b: &[u32],
                _limit: usize,
            ) -> Option<usize> {
                None
            }
            fn fork(&self) -> Box<dyn OcValidatorBackend> {
                Box::new(Reject)
            }
        }
        let t = employee();
        let result = DiscoveryBuilder::new()
            .approximate(0.5)
            .validator(Box::new(Reject))
            .run(&t);
        assert_eq!(result.n_ocs(), 0);
        // OFD validation is independent of the OC backend.
        assert!(result.n_ofds() > 0);
    }
}
