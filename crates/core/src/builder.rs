//! Fluent construction of discovery runs.
//!
//! [`DiscoveryBuilder`] is the front door of the engine API: it collects a
//! [`DiscoveryConfig`] plus session-level options (column scope, top-k
//! target, cancellation handle, validation backend) and produces either a
//! streaming [`DiscoverySession`] or, via [`run`](DiscoveryBuilder::run),
//! a one-shot [`DiscoveryResult`].
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

use crate::config::{DiscoveryConfig, Mode, PruneConfig};
use crate::engine::{CancelToken, DiscoverySession, SessionOptions};
use crate::result::DiscoveryResult;
use crate::sink::EventSink;
use aod_partition::{AttrSet, MAX_ATTRS};
use aod_table::RankedTable;
use aod_validate::{exact_backend, strategy_backend, AocStrategy, OcValidatorBackend};
use std::sync::Arc;
use std::time::Duration;

/// Fluent builder for [`DiscoverySession`]s.
///
/// Defaults to exact discovery over all columns, full lattice, no timeout,
/// all pruning rules on — the same defaults as
/// [`DiscoveryConfig::exact`].
#[must_use = "a builder does nothing until `build` or `run` is called"]
pub struct DiscoveryBuilder {
    epsilon: Option<f64>,
    strategy: AocStrategy,
    prune: PruneConfig,
    max_level: Option<usize>,
    timeout: Option<Duration>,
    scope: Option<AttrSet>,
    top_k: Option<usize>,
    cancel: Option<CancelToken>,
    backend: Option<Box<dyn OcValidatorBackend>>,
    record_events: bool,
    parallelism: usize,
    sink: Option<Arc<dyn EventSink>>,
    queue_gauge: Option<aod_obs::Gauge>,
    trace: Option<Arc<aod_obs::TraceSink>>,
}

impl Default for DiscoveryBuilder {
    fn default() -> Self {
        DiscoveryBuilder {
            epsilon: None,
            strategy: AocStrategy::Optimal,
            prune: PruneConfig::default(),
            max_level: None,
            timeout: None,
            scope: None,
            top_k: None,
            cancel: None,
            backend: None,
            record_events: true,
            parallelism: 1,
            sink: None,
            queue_gauge: None,
            trace: None,
        }
    }
}

impl DiscoveryBuilder {
    /// A builder with the exact-discovery defaults.
    pub fn new() -> DiscoveryBuilder {
        DiscoveryBuilder::default()
    }

    /// A builder preloaded from an existing [`DiscoveryConfig`].
    pub fn from_config(config: DiscoveryConfig) -> DiscoveryBuilder {
        let mut b = DiscoveryBuilder::new();
        match config.mode {
            Mode::Exact => b.epsilon = None,
            Mode::Approximate { epsilon, strategy } => {
                b.epsilon = Some(epsilon);
                b.strategy = strategy;
            }
        }
        b.prune = config.prune;
        b.max_level = config.max_level;
        b.timeout = config.timeout;
        b.parallelism = config.threads;
        b
    }

    /// Exact OD discovery (ε = 0 with the cheap linear validators).
    pub fn exact(mut self) -> DiscoveryBuilder {
        self.epsilon = None;
        self
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
        self.epsilon = Some(epsilon);
        self
    }

    /// Which AOC validation algorithm approximate runs use (ignored in
    /// exact mode and when a custom
    /// [`validator`](DiscoveryBuilder::validator) is set).
    pub fn strategy(mut self, strategy: AocStrategy) -> DiscoveryBuilder {
        self.strategy = strategy;
        self
    }

    /// Overrides the pruning rules (ablation runs).
    pub fn prune(mut self, prune: PruneConfig) -> DiscoveryBuilder {
        self.prune = prune;
        self
    }

    /// Stops after this lattice level (complete up to it).
    pub fn max_level(mut self, level: usize) -> DiscoveryBuilder {
        self.max_level = Some(level);
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
        self.timeout = Some(timeout);
        self
    }

    /// Restricts discovery to these column indices; dependencies over
    /// other columns are neither generated nor validated. Indices refer to
    /// the original table, so reported dependencies keep their meaning.
    /// An index the table doesn't have makes
    /// [`build`](DiscoveryBuilder::build) panic rather than silently
    /// discover nothing.
    pub fn scope<I: IntoIterator<Item = usize>>(mut self, columns: I) -> DiscoveryBuilder {
        self.scope = Some(AttrSet::from_attrs(columns));
        self
    }

    /// Stops the run (partial results, flagged `stopped_early`) as soon as
    /// `k` OCs have been found — early-exit serving for "give me the k
    /// most promising dependencies" workloads.
    pub fn top_k(mut self, k: usize) -> DiscoveryBuilder {
        self.top_k = Some(k);
        self
    }

    /// Attaches a cancellation handle. Without one the session creates its
    /// own, retrievable via
    /// [`DiscoverySession::cancel_token`].
    pub fn cancel_token(mut self, token: CancelToken) -> DiscoveryBuilder {
        self.cancel = Some(token);
        self
    }

    /// Plugs in a custom OC-validation backend, overriding the
    /// mode-derived choice (exact scan / Algorithm 2 / Algorithm 1). The
    /// removal budget still follows the configured ε.
    pub fn validator(mut self, backend: Box<dyn OcValidatorBackend>) -> DiscoveryBuilder {
        self.backend = Some(backend);
        self
    }

    /// Worker threads per lattice level: `1` (the default) evaluates the
    /// level's nodes in order on the calling thread, `0` resolves to one
    /// worker per available core, `n > 1` runs up to `n` workers (never
    /// more than the level has nodes or products). Every setting runs
    /// the same per-node evaluation and node-order merge, so all yield
    /// **bit-identical** events, dependency lists and statistics counters
    /// — see the determinism contract on [`DiscoverySession`] — and this
    /// is purely a wall-clock knob.
    pub fn parallelism(mut self, threads: usize) -> DiscoveryBuilder {
        self.parallelism = threads;
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
        self.sink = Some(sink);
        self
    }

    /// Attaches a gauge tracking the executor's outstanding per-level work
    /// items (queue depth): each level's node batch and product batch
    /// fill it and drain it to zero, at every thread count.
    pub fn queue_depth_gauge(mut self, gauge: aod_obs::Gauge) -> DiscoveryBuilder {
        self.queue_gauge = Some(gauge);
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
        self.trace = Some(trace);
        self
    }

    /// Whether the session buffers [`DiscoveryEvent`](crate::DiscoveryEvent)s
    /// (default `true`). Disable when driving the session purely through
    /// [`step`](DiscoverySession::step) so unobserved events don't
    /// accumulate.
    pub fn record_events(mut self, record: bool) -> DiscoveryBuilder {
        self.record_events = record;
        self
    }

    /// The [`DiscoveryConfig`] this builder currently encodes.
    #[must_use]
    pub fn config(&self) -> DiscoveryConfig {
        DiscoveryConfig {
            mode: match self.epsilon {
                None => Mode::Exact,
                Some(epsilon) => Mode::Approximate {
                    epsilon,
                    strategy: self.strategy,
                },
            },
            max_level: self.max_level,
            timeout: self.timeout,
            prune: self.prune,
            threads: self.parallelism,
        }
    }

    /// Builds the streaming session (level 1 seeded, nothing validated).
    ///
    /// # Panics
    /// If the table has more than [`MAX_ATTRS`] columns, or the
    /// configured [`scope`](DiscoveryBuilder::scope) names a column the
    /// table doesn't have.
    #[must_use = "the session does nothing until stepped or iterated"]
    pub fn build<'t>(self, table: &'t RankedTable) -> DiscoverySession<'t> {
        let config = self.config();
        let backend = match self.backend {
            Some(backend) => backend,
            None => match config.mode {
                Mode::Exact => exact_backend(),
                Mode::Approximate { strategy, .. } => strategy_backend(strategy),
            },
        };
        let options = SessionOptions {
            scope: self
                .scope
                .unwrap_or_else(|| AttrSet::full(table.n_cols().min(MAX_ATTRS))),
            top_k: self.top_k,
            cancel: self.cancel.unwrap_or_default(),
            backend,
            record_events: self.record_events,
            sink: self.sink,
            queue_gauge: self.queue_gauge,
            trace: self.trace,
        };
        DiscoverySession::new(table, config, options)
    }

    /// Convenience: builds the session and runs it to completion.
    pub fn run(self, table: &RankedTable) -> DiscoveryResult {
        self.record_events(false).build(table).run()
    }
}

impl std::fmt::Debug for DiscoveryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryBuilder")
            .field("epsilon", &self.epsilon)
            .field("strategy", &self.strategy)
            .field("max_level", &self.max_level)
            .field("timeout", &self.timeout)
            .field("scope", &self.scope)
            .field("top_k", &self.top_k)
            .field("parallelism", &self.parallelism)
            .field("custom_backend", &self.backend.as_ref().map(|b| b.name()))
            .field("has_sink", &self.sink.is_some())
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
        let c = DiscoveryBuilder::new().config();
        assert_eq!(c.mode, Mode::Exact);
        let c = DiscoveryBuilder::new()
            .approximate(0.2)
            .strategy(AocStrategy::Iterative)
            .max_level(4)
            .timeout(Duration::from_secs(9))
            .config();
        assert_eq!(
            c.mode,
            Mode::Approximate {
                epsilon: 0.2,
                strategy: AocStrategy::Iterative
            }
        );
        assert_eq!(c.max_level, Some(4));
        assert_eq!(c.timeout, Some(Duration::from_secs(9)));
    }

    #[test]
    fn strategy_order_does_not_matter() {
        let a = DiscoveryBuilder::new()
            .approximate(0.1)
            .strategy(AocStrategy::Iterative)
            .config();
        let b = DiscoveryBuilder::new()
            .strategy(AocStrategy::Iterative)
            .approximate(0.1)
            .config();
        assert_eq!(a.mode, b.mode);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_epsilon_panics_at_the_builder() {
        let _ = DiscoveryBuilder::new().approximate(1.5);
    }

    #[test]
    fn from_config_round_trips() {
        for config in [
            DiscoveryConfig::exact().with_max_level(3),
            DiscoveryConfig::approximate(0.25),
            DiscoveryConfig::approximate_iterative(0.4)
                .with_timeout(Duration::from_secs(1))
                .with_pruning(PruneConfig::none()),
        ] {
            let round = DiscoveryBuilder::from_config(config.clone()).config();
            assert_eq!(round.mode, config.mode);
            assert_eq!(round.max_level, config.max_level);
            assert_eq!(round.timeout, config.timeout);
            assert_eq!(round.prune, config.prune);
        }
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
