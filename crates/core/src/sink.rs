//! Observability taps for a running [`DiscoverySession`].
//!
//! An [`EventSink`] sees every [`DiscoveryEvent`] as it is produced plus
//! the engine's per-level progress signals (level start, per-phase span
//! timings, final stats) — the quantities the paper's evaluation (§6) is
//! built on. Sinks observe; they cannot influence the run: all methods
//! take `&self`, return nothing, and the engine's outputs are
//! bit-identical with or without one attached (the default is no sink at
//! all, so the hot path pays a single branch).
//!
//! [`DiscoveryMetrics`] is the standard sink: it mirrors the stream into
//! [`aod_obs`] counters, gauges and phase-latency histograms, which is how
//! both the CLI's `--progress` renderer and `aod-serve`'s `GET /metrics`
//! endpoint are fed.
//!
//! [`DiscoverySession`]: crate::DiscoverySession

use std::sync::Arc;

use aod_obs::{Counter, Gauge, Histogram, Registry};

use crate::engine::DiscoveryEvent;
use crate::stats::DiscoveryStats;

/// The engine phases whose per-level time is reported to sinks.
///
/// These mirror the three duration fields of [`DiscoveryStats`]: OC
/// validation, OFD validation, and partition-product construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Order-compatibility validation (Algorithm 1/2 calls).
    OcValidation,
    /// OFD validation (class-count / removal checks).
    OfdValidation,
    /// Sorted-partition product construction in `Frontier::advance`.
    Partitioning,
}

impl Phase {
    /// Stable lowercase name, used as the `phase` label value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::OcValidation => "oc_validation",
            Phase::OfdValidation => "ofd_validation",
            Phase::Partitioning => "partitioning",
        }
    }

    /// All phases, in reporting order.
    pub const ALL: [Phase; 3] = [
        Phase::OcValidation,
        Phase::OfdValidation,
        Phase::Partitioning,
    ];

    fn index(self) -> usize {
        match self {
            Phase::OcValidation => 0,
            Phase::OfdValidation => 1,
            Phase::Partitioning => 2,
        }
    }
}

/// A passive observer of a discovery run.
///
/// Every method has an empty default body, so implementors opt into only
/// the signals they care about. Methods are called from the session's
/// driving thread (never from pool workers), in a deterministic order for
/// a given config + table; implementations must be cheap and must not
/// panic.
pub trait EventSink: Send + Sync {
    /// A level is about to be processed: its number and node count.
    fn on_level_start(&self, level: usize, n_nodes: usize) {
        let _ = (level, n_nodes);
    }

    /// One discovery event, in stream order (the same order the session's
    /// iterator yields).
    fn on_event(&self, event: &DiscoveryEvent) {
        let _ = event;
    }

    /// Session-clock micros one engine phase consumed while processing
    /// `level`, summed over workers: the level's share of the matching
    /// [`DiscoveryStats`] timer, and the duration of the level's phase
    /// span when a trace sink is attached.
    ///
    /// Reported once per phase per level, before that level's
    /// `LevelComplete` event, so a sink-driven renderer has the split
    /// available when the completion event arrives.
    fn on_phase(&self, level: usize, phase: Phase, micros: u64) {
        let _ = (level, phase, micros);
    }

    /// The run finished (any [`StopReason`](crate::StopReason)); `stats`
    /// is the final accumulated view.
    fn on_finish(&self, stats: &DiscoveryStats) {
        let _ = stats;
    }
}

/// The do-nothing sink. Attaching it is equivalent to attaching none:
/// outputs stay bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {}

/// An [`EventSink`] that mirrors the run into [`aod_obs`] instruments.
///
/// Registers, under the given constant labels:
///
/// | metric | kind | meaning |
/// |--------|------|---------|
/// | `aod_discovery_level` | gauge | level currently being processed |
/// | `aod_discovery_level_nodes` | gauge | nodes in the current level |
/// | `aod_discovery_ocs_found_total` | counter | OCs emitted |
/// | `aod_discovery_ofds_found_total` | counter | OFDs emitted |
/// | `aod_discovery_oc_candidates_total` | counter | OC candidates validated |
/// | `aod_discovery_oc_pruned_total` | counter | OC candidates pruned by axioms |
/// | `aod_discovery_levels_completed_total` | counter | levels fully processed |
/// | `aod_discovery_phase_duration_us{phase=...}` | histogram | per-level phase time (summed over workers) |
///
/// Candidate totals are folded in at each `LevelComplete` (from the
/// level's deterministic counters); found/pruned counters tick per event,
/// so rates are live within a level.
#[derive(Debug, Clone)]
pub struct DiscoveryMetrics {
    level: Gauge,
    level_nodes: Gauge,
    ocs_found: Counter,
    ofds_found: Counter,
    oc_candidates: Counter,
    oc_pruned: Counter,
    levels_completed: Counter,
    phases: [Histogram; 3],
}

impl DiscoveryMetrics {
    /// Registers the discovery instrument set in `registry`, with `labels`
    /// attached to every series (e.g. `[("dataset", name)]` in serve).
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> DiscoveryMetrics {
        let phase_histogram = |phase: Phase| {
            let mut with_phase: Vec<(&str, &str)> = labels.to_vec();
            with_phase.push(("phase", phase.name()));
            registry.histogram(
                "aod_discovery_phase_duration_us",
                "Per-level wall time spent in one engine phase, microseconds.",
                &with_phase,
            )
        };
        DiscoveryMetrics {
            level: registry.gauge(
                "aod_discovery_level",
                "Lattice level currently being processed.",
                labels,
            ),
            level_nodes: registry.gauge(
                "aod_discovery_level_nodes",
                "Nodes in the level currently being processed.",
                labels,
            ),
            ocs_found: registry.counter(
                "aod_discovery_ocs_found_total",
                "Order compatibilities found.",
                labels,
            ),
            ofds_found: registry.counter(
                "aod_discovery_ofds_found_total",
                "Order functional dependencies found.",
                labels,
            ),
            oc_candidates: registry.counter(
                "aod_discovery_oc_candidates_total",
                "OC candidates validated (post-pruning).",
                labels,
            ),
            oc_pruned: registry.counter(
                "aod_discovery_oc_pruned_total",
                "OC candidates pruned by axiom rules.",
                labels,
            ),
            levels_completed: registry.counter(
                "aod_discovery_levels_completed_total",
                "Lattice levels fully processed.",
                labels,
            ),
            phases: [
                phase_histogram(Phase::OcValidation),
                phase_histogram(Phase::OfdValidation),
                phase_histogram(Phase::Partitioning),
            ],
        }
    }

    /// Shares the sink as the `Arc<dyn EventSink>` a builder wants, while
    /// the caller keeps this handle for reading.
    pub fn as_sink(self: &Arc<Self>) -> Arc<dyn EventSink> {
        Arc::clone(self) as Arc<dyn EventSink>
    }

    /// The current-level gauge.
    pub fn level(&self) -> &Gauge {
        &self.level
    }

    /// The current level's node-count gauge.
    pub fn level_nodes(&self) -> &Gauge {
        &self.level_nodes
    }

    /// OCs found so far.
    pub fn ocs_found(&self) -> &Counter {
        &self.ocs_found
    }

    /// OFDs found so far.
    pub fn ofds_found(&self) -> &Counter {
        &self.ofds_found
    }

    /// OC candidates validated so far (folded in per completed level).
    pub fn oc_candidates(&self) -> &Counter {
        &self.oc_candidates
    }

    /// OC candidates pruned so far.
    pub fn oc_pruned(&self) -> &Counter {
        &self.oc_pruned
    }

    /// Levels fully processed so far.
    pub fn levels_completed(&self) -> &Counter {
        &self.levels_completed
    }

    /// The phase-duration histogram for one phase.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }
}

impl EventSink for DiscoveryMetrics {
    fn on_level_start(&self, level: usize, n_nodes: usize) {
        self.level.set(level as u64);
        self.level_nodes.set(n_nodes as u64);
    }

    fn on_event(&self, event: &DiscoveryEvent) {
        match event {
            DiscoveryEvent::OcFound(_) => self.ocs_found.inc(),
            DiscoveryEvent::OfdFound(_) => self.ofds_found.inc(),
            DiscoveryEvent::Pruned { .. } => self.oc_pruned.inc(),
            DiscoveryEvent::LevelComplete(outcome) => {
                self.levels_completed.inc();
                self.oc_candidates.add(outcome.stats.n_oc_candidates as u64);
            }
            DiscoveryEvent::TimedOut { .. } | DiscoveryEvent::Cancelled { .. } => {}
        }
    }

    fn on_phase(&self, _level: usize, phase: Phase, micros: u64) {
        self.phases[phase.index()].observe(micros);
    }

    fn on_finish(&self, stats: &DiscoveryStats) {
        // Candidate totals for an interrupted final level never get a
        // LevelComplete; reconcile against the authoritative stats so the
        // counter converges on the exact deterministic total.
        self.oc_candidates.record_total(
            stats
                .per_level
                .iter()
                .map(|l| l.n_oc_candidates as u64)
                .sum(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable_label_values() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["oc_validation", "ofd_validation", "partitioning"]);
        for phase in Phase::ALL {
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let sink = NoopSink;
        sink.on_level_start(1, 10);
        sink.on_phase(1, Phase::Partitioning, 42);
        sink.on_finish(&DiscoveryStats::default());
    }

    #[test]
    fn discovery_metrics_registers_expected_series() {
        let registry = Registry::new();
        let metrics = DiscoveryMetrics::new(&registry, &[("dataset", "t")]);
        metrics.on_level_start(3, 7);
        metrics.on_phase(3, Phase::OcValidation, 120);
        assert_eq!(metrics.level().get(), 3);
        assert_eq!(metrics.level_nodes().get(), 7);
        let text = registry.render();
        assert!(text.contains("# TYPE aod_discovery_level gauge"));
        assert!(text.contains("aod_discovery_level{dataset=\"t\"} 3"));
        assert!(text.contains(
            "aod_discovery_phase_duration_us_count{dataset=\"t\",phase=\"oc_validation\"} 1"
        ));
    }
}
