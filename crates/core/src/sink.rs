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

use aod_obs::{Counter, Histogram, Registry};

use crate::engine::DiscoveryEvent;
use crate::stats::DiscoveryStats;

/// The engine phases whose per-level time is reported to sinks.
///
/// These mirror the three duration fields of [`DiscoveryStats`]: OC
/// validation, OFD validation, and partition construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Order-compatibility validation (Algorithm 1/2 calls).
    OcValidation,
    /// OFD validation (class-count / removal checks).
    OfdValidation,
    /// Building the next level's partitions in `Frontier::advance`:
    /// refined, or shared with a parent.
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

    /// The phase's position in [`Phase::ALL`].
    pub(crate) fn index(self) -> usize {
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
/// | `aod_discovery_ocs_found_total` | counter | OCs emitted |
/// | `aod_discovery_ofds_found_total` | counter | OFDs emitted |
/// | `aod_discovery_oc_candidates_total` | counter | OC candidates validated |
/// | `aod_discovery_oc_pruned_total` | counter | OC candidates pruned by axioms |
/// | `aod_discovery_levels_completed_total` | counter | levels fully processed |
/// | `aod_discovery_phase_duration_us{phase=...}` | histogram | per-level phase time (summed over workers) |
///
/// Candidate totals are added once per level of the run: a completed
/// level's at its `LevelComplete` (from the level's deterministic
/// counters), and a level cut short by a timeout, a cancel or a reached
/// `top_k` at [`on_finish`](EventSink::on_finish). Found/pruned counters
/// tick per event, so rates are live within a level.
///
/// One sink observes one run. Several sinks may share a registry and
/// labels (serve makes one per job and one series per dataset): each adds
/// its own run's counts to the shared series. The set has no gauge, so
/// runs sharing a series cannot overwrite each other's readings; the
/// level a run is on and its node count come with each `LevelComplete`.
#[derive(Debug, Clone)]
pub struct DiscoveryMetrics {
    ocs_found: Counter,
    ofds_found: Counter,
    oc_candidates: Counter,
    oc_pruned: Counter,
    levels_completed: Counter,
    phases: [Histogram; 3],
    /// Levels of this run whose candidates are in `oc_candidates`: the
    /// `LevelComplete` events this sink has seen. Not registered.
    run_levels: Counter,
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
            run_levels: Counter::new(),
        }
    }

    /// Shares the sink as the `Arc<dyn EventSink>` a builder wants, while
    /// the caller keeps this handle for reading.
    pub fn as_sink(self: &Arc<Self>) -> Arc<dyn EventSink> {
        Arc::clone(self) as Arc<dyn EventSink>
    }

    /// OCs found so far.
    pub fn ocs_found(&self) -> &Counter {
        &self.ocs_found
    }

    /// OFDs found so far.
    pub fn ofds_found(&self) -> &Counter {
        &self.ofds_found
    }

    /// OC candidates validated so far (added once per level).
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
    fn on_event(&self, event: &DiscoveryEvent) {
        match event {
            DiscoveryEvent::OcFound(_) => self.ocs_found.inc(),
            DiscoveryEvent::OfdFound(_) => self.ofds_found.inc(),
            DiscoveryEvent::Pruned { .. } => self.oc_pruned.inc(),
            DiscoveryEvent::LevelComplete(outcome) => {
                self.levels_completed.inc();
                self.run_levels.inc();
                self.oc_candidates.add(outcome.stats.n_oc_candidates as u64);
            }
            DiscoveryEvent::TimedOut { .. } | DiscoveryEvent::Cancelled { .. } => {}
        }
    }

    fn on_phase(&self, _level: usize, phase: Phase, micros: u64) {
        self.phases[phase.index()].observe(micros);
    }

    fn on_finish(&self, stats: &DiscoveryStats) {
        // A level cut short never gets a LevelComplete, so its candidates
        // are added here. A run that ends after a completed level gets
        // that level's LevelComplete after this call, and adds nothing.
        if stats.timed_out || stats.stopped_early {
            let counted = self.run_levels.get() as usize;
            self.oc_candidates.add(
                stats
                    .per_level
                    .iter()
                    .skip(counted)
                    .map(|l| l.n_oc_candidates as u64)
                    .sum(),
            );
        }
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
        metrics.on_phase(3, Phase::OcValidation, 120);
        let text = registry.render();
        assert!(text.contains("# TYPE aod_discovery_ocs_found_total counter"));
        assert!(text.contains("aod_discovery_ocs_found_total{dataset=\"t\"} 0"));
        assert!(!text.contains(" gauge"), "the set registers no gauge");
        assert!(text.contains(
            "aod_discovery_phase_duration_us_count{dataset=\"t\",phase=\"oc_validation\"} 1"
        ));
    }
}
