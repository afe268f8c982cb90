//! The server's metric surface: one [`ServeMetrics`] per server, rendered
//! by `GET /metrics` in the Prometheus text exposition format.
//!
//! The registry's counters are the only cells of the server-wide counts.
//! The request handler counts requests,
//! [`JobManager::submit`](crate::JobManager::submit) counts submitted,
//! executed and rejected jobs, and
//! [`ResultCache::lookup`](crate::ResultCache::lookup) counts hits and
//! misses, each as the thing happens; `GET /stats` reads the same
//! counters. The three occupancy gauges (datasets, running jobs, cached
//! runs) are set from their owners just before either endpoint reads
//! them. Per-dataset series are registered on first use: job-latency
//! histograms (observed by runner threads as jobs finish), executor
//! queue-depth gauges and the discovery instruments ([`DiscoveryMetrics`]
//! sinks attached to each job's session).
//!
//! Time enters only through the injectable [`Clock`], keeping this module
//! out of the D2 timing allowlist.

use std::sync::Arc;

use crate::registry::MAX_DATASETS;
use aod_core::DiscoveryMetrics;
use aod_obs::{Clock, Counter, Gauge, MonotonicClock, Registry};

/// The server's metrics registry plus handles to its server-wide series.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Registry,
    clock: Arc<dyn Clock>,
    pub(crate) requests: Counter,
    pub(crate) datasets: Gauge,
    pub(crate) datasets_capacity: Gauge,
    pub(crate) jobs_submitted: Counter,
    pub(crate) jobs_executed: Counter,
    pub(crate) jobs_rejected: Counter,
    pub(crate) jobs_running: Gauge,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_entries: Gauge,
}

impl ServeMetrics {
    /// A fresh metric surface on a wall clock.
    pub fn new() -> ServeMetrics {
        ServeMetrics::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A metric surface on an injected clock (tests use
    /// [`ManualClock`](aod_obs::ManualClock)).
    pub fn with_clock(clock: Arc<dyn Clock>) -> ServeMetrics {
        let registry = Registry::new();
        let metrics = ServeMetrics {
            requests: registry.counter("aod_serve_requests_total", "HTTP requests accepted.", &[]),
            datasets: registry.gauge(
                "aod_serve_datasets",
                "Registered datasets (registry occupancy).",
                &[],
            ),
            datasets_capacity: registry.gauge(
                "aod_serve_datasets_capacity",
                "Maximum registerable datasets.",
                &[],
            ),
            jobs_submitted: registry.counter(
                "aod_serve_jobs_submitted_total",
                "Jobs submitted, cache hits included.",
                &[],
            ),
            jobs_executed: registry.counter(
                "aod_serve_jobs_executed_total",
                "Jobs that ran a discovery session (cache hits excluded).",
                &[],
            ),
            jobs_rejected: registry.counter(
                "aod_serve_jobs_rejected_total",
                "Jobs rejected at admission (capacity).",
                &[],
            ),
            jobs_running: registry.gauge("aod_serve_jobs_running", "Jobs currently running.", &[]),
            cache_hits: registry.counter("aod_serve_cache_hits_total", "Result-cache hits.", &[]),
            cache_misses: registry.counter(
                "aod_serve_cache_misses_total",
                "Result-cache misses.",
                &[],
            ),
            cache_entries: registry.gauge(
                "aod_serve_cache_entries",
                "Result-cache resident entries.",
                &[],
            ),
            registry,
            clock,
        };
        metrics.datasets_capacity.set(MAX_DATASETS as u64);
        metrics
    }

    /// The underlying registry (job sinks and tests register through it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Current clock reading, for bracketing a job's wall time.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The injected clock itself. Job trace sinks share it, so a
    /// [`ManualClock`](aod_obs::ManualClock) drives metrics and traces
    /// alike in tests.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// The per-dataset executor queue-depth gauge
    /// (`aod_exec_queue_depth{dataset=...}`), attached to every job's
    /// discovery session. Idempotent per dataset, so the dataset's jobs
    /// share it: each executor map of a job (a level's nodes, then its
    /// refinements) adds its items and takes them out as they complete, at
    /// every thread count, and the gauge reads the unfinished items of all
    /// the dataset's running jobs.
    pub fn queue_depth_gauge(&self, dataset: &str) -> Gauge {
        self.registry.gauge(
            "aod_exec_queue_depth",
            "Unfinished executor work items (a level's nodes or products), summed over the dataset's running jobs.",
            &[("dataset", dataset)],
        )
    }

    /// Records one finished job's wall time into the dataset's latency
    /// histogram (`aod_serve_job_duration_us{dataset=...}`). `started_us`
    /// is an earlier [`now_us`](ServeMetrics::now_us) reading.
    pub fn observe_job(&self, dataset: &str, started_us: u64) {
        let elapsed = self.now_us().saturating_sub(started_us);
        self.registry
            .histogram(
                "aod_serve_job_duration_us",
                "Job wall time from admission to completion, microseconds.",
                &[("dataset", dataset)],
            )
            .observe(elapsed);
    }

    /// The per-dataset discovery instrument set, for attaching to a job's
    /// session as an event sink. Idempotent per dataset: repeated jobs on
    /// one dataset accumulate into the same series.
    pub fn discovery_sink(&self, dataset: &str) -> Arc<DiscoveryMetrics> {
        Arc::new(DiscoveryMetrics::new(
            &self.registry,
            &[("dataset", dataset)],
        ))
    }

    /// Renders the full exposition text.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_obs::ManualClock;

    #[test]
    fn job_latency_lands_in_the_dataset_series() {
        let clock = Arc::new(ManualClock::new());
        let metrics = ServeMetrics::with_clock(clock.clone());
        let started = metrics.now_us();
        clock.advance_us(3000);
        metrics.observe_job("flight", started);
        let text = metrics.render();
        assert!(text.contains("aod_serve_job_duration_us_bucket{dataset=\"flight\",le=\"4096\"} 1"));
        assert!(text.contains("aod_serve_job_duration_us_sum{dataset=\"flight\"} 3000"));
    }
}
