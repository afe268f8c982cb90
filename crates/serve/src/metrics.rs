//! The server's metric surface: one [`ServeMetrics`] per server, rendered
//! by `GET /metrics` in the Prometheus text exposition format.
//!
//! Two kinds of series live here:
//!
//! * **owned** — per-dataset job-latency histograms (observed by runner
//!   threads as jobs finish) and the per-dataset discovery instruments
//!   ([`DiscoveryMetrics`] sinks attached to each job's session);
//! * **mirrored** — counters the registry/job-manager/cache subsystems
//!   already maintain for `GET /stats`. Those stay authoritative; at
//!   scrape time [`ServeMetrics::render`] copies them in via
//!   [`Counter::record_total`] (monotone set-to-max, so scrapes never
//!   regress even when racing the source) and plain gauge sets.
//!
//! Time enters only through the injectable [`Clock`], keeping this module
//! out of the D2 timing allowlist.

use std::sync::Arc;

use aod_core::DiscoveryMetrics;
use aod_obs::{Clock, Counter, Gauge, MonotonicClock, Registry};

/// Scrape-time values for the mirrored series, gathered by the request
/// handler from the authoritative subsystems.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSnapshot {
    /// Total HTTP requests accepted.
    pub requests: u64,
    /// Registered datasets (registry occupancy).
    pub datasets: u64,
    /// Maximum registerable datasets.
    pub datasets_capacity: u64,
    /// Jobs submitted (cache hits included).
    pub jobs_submitted: u64,
    /// Jobs that actually ran a discovery session.
    pub jobs_executed: u64,
    /// Jobs rejected at admission (capacity 429s).
    pub jobs_rejected: u64,
    /// Jobs currently running.
    pub jobs_running: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache resident entries.
    pub cache_entries: u64,
}

/// The server's metrics registry plus handles to every mirrored series.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Registry,
    clock: Arc<dyn Clock>,
    requests: Counter,
    datasets: Gauge,
    datasets_capacity: Gauge,
    jobs_submitted: Counter,
    jobs_executed: Counter,
    jobs_rejected: Counter,
    jobs_running: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_entries: Gauge,
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
        ServeMetrics {
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
        }
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
    /// discovery session. Idempotent per dataset; each lattice level's node
    /// batch and product batch fill it and drain it back to zero as their
    /// items complete, at every thread count.
    pub fn queue_depth_gauge(&self, dataset: &str) -> Gauge {
        self.registry.gauge(
            "aod_exec_queue_depth",
            "Work items remaining in the executor's current batch (a level's nodes or products).",
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

    /// Refreshes the mirrored series from `snapshot` and renders the full
    /// exposition text.
    pub fn render(&self, snapshot: &ServeSnapshot) -> String {
        self.requests.record_total(snapshot.requests);
        self.jobs_submitted.record_total(snapshot.jobs_submitted);
        self.jobs_executed.record_total(snapshot.jobs_executed);
        self.jobs_rejected.record_total(snapshot.jobs_rejected);
        self.cache_hits.record_total(snapshot.cache_hits);
        self.cache_misses.record_total(snapshot.cache_misses);
        self.datasets.set(snapshot.datasets);
        self.datasets_capacity.set(snapshot.datasets_capacity);
        self.jobs_running.set(snapshot.jobs_running);
        self.cache_entries.set(snapshot.cache_entries);
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
        let text = metrics.render(&ServeSnapshot::default());
        assert!(text.contains("aod_serve_job_duration_us_bucket{dataset=\"flight\",le=\"4096\"} 1"));
        assert!(text.contains("aod_serve_job_duration_us_sum{dataset=\"flight\"} 3000"));
    }

    #[test]
    fn mirrored_counters_stay_monotone_across_scrapes() {
        let metrics = ServeMetrics::new();
        let first = metrics.render(&ServeSnapshot {
            requests: 5,
            cache_hits: 2,
            ..ServeSnapshot::default()
        });
        assert!(first.contains("aod_serve_requests_total 5"));
        // A stale (smaller) snapshot cannot regress the scrape.
        let second = metrics.render(&ServeSnapshot {
            requests: 3,
            cache_hits: 2,
            ..ServeSnapshot::default()
        });
        assert!(second.contains("aod_serve_requests_total 5"));
        let third = metrics.render(&ServeSnapshot {
            requests: 9,
            cache_hits: 4,
            ..ServeSnapshot::default()
        });
        assert!(third.contains("aod_serve_requests_total 9"));
        assert!(third.contains("aod_serve_cache_hits_total 4"));
    }
}
