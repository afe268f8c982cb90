//! # aod-obs — dependency-free metrics core
//!
//! The paper's evaluation (§6) lives on per-level runtime breakdowns —
//! validation vs. partitioning time, pruning effectiveness, candidates per
//! lattice level. This crate is the substrate those signals flow through at
//! runtime: a tiny metrics registry (no crates.io access in the build
//! environment, so everything is `std` + atomics) with three instrument
//! kinds and a hand-rolled [Prometheus text exposition] writer.
//!
//! * [`Counter`] — monotone `u64`, lock-free ([`AtomicU64`]).
//! * [`Gauge`] — instantaneous `u64` (queue depth, occupancy).
//! * [`Histogram`] — latency distribution over **fixed log-spaced bucket
//!   boundaries** (powers of 4 in microseconds, see [`BUCKET_BOUNDS_US`]).
//!   Fixed boundaries make the wire output byte-stable: two processes — or
//!   two thread counts — observing the same multiset of samples render the
//!   same exposition text.
//!
//! Handles are cheap `Arc`-backed clones; recording is a handful of relaxed
//! atomic ops and never takes the registry lock. Time itself enters only
//! through the injectable [`Clock`] trait: the single `std::time::Instant`
//! reader lives in [`clock`] (registered in the workspace's D2 timing
//! allowlist), so everything else stays deterministic and testable with
//! [`ManualClock`].
//!
//! ```
//! use aod_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total", "Result-cache hits.", &[]);
//! let lat = registry.histogram("job_duration_us", "Job wall time.", &[("dataset", "flight")]);
//! hits.inc();
//! lat.observe(1500);
//! let text = registry.render();
//! assert!(text.contains("# TYPE cache_hits_total counter"));
//! assert!(text.contains("job_duration_us_bucket{dataset=\"flight\",le=\"4096\"} 1"));
//! ```
//!
//! [Prometheus text exposition]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod scrape;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use scrape::{Sample, Scrape, ScrapeError};
pub use trace::{Span, TraceSink};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Finite histogram bucket upper bounds, in microseconds: powers of 4 from
/// 1 µs to 4¹³ ≈ 67 s. Everything above falls into the implicit `+Inf`
/// bucket. The boundaries are a compile-time constant — never derived from
/// observed data — so bucket assignment is deterministic: the same samples
/// fill the same buckets whichever thread observed them.
pub const BUCKET_BOUNDS_US: [u64; 14] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
    67_108_864,
];

/// Number of buckets including the trailing `+Inf` bucket.
pub const N_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; all operations are relaxed atomics.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not registered anywhere). Useful for tests and
    /// as an inert default.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (queue depth, occupancy).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A detached gauge (not registered anywhere).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        // fetch_update never fails with a `Some`-returning closure.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency histogram over [`BUCKET_BOUNDS_US`].
///
/// Observations are microsecond values; each lands in the first bucket
/// whose bound is `>= value` (or `+Inf`). Internally buckets are
/// *non-cumulative* atomic cells — the cumulative `le=` view required by
/// the exposition format is computed at render/snapshot time — so
/// concurrent `observe` calls commute and the final state is independent
/// of thread interleaving.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

#[derive(Debug, Default)]
struct HistogramCells {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Index of the bucket a microsecond value falls into.
fn bucket_index(value_us: u64) -> usize {
    BUCKET_BOUNDS_US
        .iter()
        .position(|&bound| value_us <= bound)
        .unwrap_or(N_BUCKETS - 1)
}

impl Histogram {
    /// A detached histogram (not registered anywhere).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation, in microseconds.
    pub fn observe(&self, value_us: u64) {
        self.inner.buckets[bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value_us, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// Snapshots taken while observations are in flight are *consistent
    /// enough* for monitoring (each field is individually atomic); a
    /// quiesced histogram snapshots exactly.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.inner.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.inner.sum.load(Ordering::Relaxed),
            count: self.inner.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts (last entry is the `+Inf` bucket).
    pub buckets: [u64; N_BUCKETS],
    /// Sum of observed values, in microseconds.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Records one observation into the snapshot (same bucketing as
    /// [`Histogram::observe`]).
    pub fn observe(&mut self, value_us: u64) {
        self.buckets[bucket_index(value_us)] += 1;
        self.sum += value_us;
        self.count += 1;
    }
}

/// The instrument kinds a registry can hold.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: shared help text + kind, one instrument per label set.
#[derive(Debug)]
struct Family {
    help: String,
    series: BTreeMap<Vec<(String, String)>, Instrument>,
}

/// A registry of named metrics with a Prometheus text renderer.
///
/// `counter`/`gauge`/`histogram` are idempotent per `(name, labels)` key:
/// the first call creates the series, later calls return a handle to the
/// same cells. Label pairs are sorted by key on registration so the
/// identity of a series never depends on argument order. Cloning the
/// registry shares the underlying map.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            // Same name registered with a different kind: a programming
            // bug, but not worth a panic on a serve path — hand back a
            // detached instrument that records into the void.
            _ => Counter::new(),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Registers (or retrieves) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, labels, || {
            Instrument::Histogram(Histogram::new())
        }) {
            Instrument::Histogram(h) => h,
            _ => Histogram::new(),
        }
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = sorted_labels(labels);
        let mut families = self
            .families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Renders every registered series in the Prometheus text exposition
    /// format (version 0.0.4): one `# HELP`/`# TYPE` pair per family,
    /// then one sample line per series (histograms expand to cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`). Families and
    /// series render in `BTreeMap` order, so output is deterministic.
    pub fn render(&self) -> String {
        let families = self
            .families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.series.values().next() {
                Some(instrument) => instrument.type_name(),
                None => continue,
            };
            let _ = writeln!(out, "# HELP {} {}", name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", name, kind);
            for (labels, instrument) in family.series.iter() {
                match instrument {
                    Instrument::Counter(c) => render_sample(&mut out, name, labels, None, c.get()),
                    Instrument::Gauge(g) => render_sample(&mut out, name, labels, None, g.get()),
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &bucket) in snap.buckets.iter().enumerate() {
                            cumulative += bucket;
                            let le = match BUCKET_BOUNDS_US.get(i) {
                                Some(bound) => bound.to_string(),
                                None => "+Inf".to_string(),
                            };
                            render_bucket(&mut out, name, labels, &le, cumulative);
                        }
                        render_sample(&mut out, name, labels, Some("_sum"), snap.sum);
                        render_sample(&mut out, name, labels, Some("_count"), snap.count);
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value: backslash, double quote and newline, per the
/// exposition format.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and newline only (quotes are legal).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_label_set(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
    }
    out.push('}');
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    suffix: Option<&str>,
    value: u64,
) {
    out.push_str(name);
    if let Some(suffix) = suffix {
        out.push_str(suffix);
    }
    write_label_set(out, labels, None);
    let _ = writeln!(out, " {}", value);
}

fn render_bucket(out: &mut String, name: &str, labels: &[(String, String)], le: &str, value: u64) {
    out.push_str(name);
    out.push_str("_bucket");
    write_label_set(out, labels, Some(("le", le)));
    let _ = writeln!(out, " {}", value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.set(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
        g.add(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_assignment_is_boundary_inclusive() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(4), 1);
        assert_eq!(bucket_index(5), 2);
        assert_eq!(bucket_index(67_108_864), 13);
        assert_eq!(bucket_index(67_108_865), N_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn registry_handles_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "X.", &[("k", "v")]);
        let b = registry.counter("x_total", "X.", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        // Different labels are a different series.
        let other = registry.counter("x_total", "X.", &[("k", "w")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = Registry::new();
        let a = registry.gauge("g", "G.", &[("a", "1"), ("b", "2")]);
        let b = registry.gauge("g", "G.", &[("b", "2"), ("a", "1")]);
        a.set(9);
        assert_eq!(b.get(), 9);
    }

    #[test]
    fn kind_mismatch_returns_detached_instrument() {
        let registry = Registry::new();
        let c = registry.counter("dual", "D.", &[]);
        let g = registry.gauge("dual", "D.", &[]);
        g.set(100);
        assert_eq!(c.get(), 0);
        // The registered counter renders; the detached gauge is invisible.
        assert!(registry.render().contains("# TYPE dual counter"));
    }

    #[test]
    fn render_escapes_label_values_and_help() {
        let registry = Registry::new();
        let c = registry.counter(
            "esc_total",
            "Line one\nwith \\ backslash.",
            &[("path", "a\\b\"c\nd")],
        );
        c.inc();
        let text = registry.render();
        assert!(text.contains("# HELP esc_total Line one\\nwith \\\\ backslash."));
        assert!(text.contains("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("lat_us", "Latency.", &[]);
        h.observe(1); // bucket le="1"
        h.observe(3); // bucket le="4"
        h.observe(100_000_000); // +Inf
        let text = registry.render();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"67108864\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_us_sum 100000004\n"));
        assert!(text.contains("lat_us_count 3\n"));
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let build = || {
            let registry = Registry::new();
            registry.counter("b_total", "B.", &[]).add(2);
            registry.gauge("a_gauge", "A.", &[("z", "1")]).set(5);
            registry.gauge("a_gauge", "A.", &[("a", "1")]).set(6);
            registry.render()
        };
        let text = build();
        assert_eq!(text, build());
        let a_pos = text.find("# HELP a_gauge").expect("a_gauge present");
        let b_pos = text.find("# HELP b_total").expect("b_total present");
        assert!(a_pos < b_pos, "families render in name order");
    }

    /// Minimal structural validator for the exposition text: every line is
    /// a `# HELP`/`# TYPE` comment or `name[{labels}] value`, TYPE precedes
    /// its samples, and each family has exactly one HELP/TYPE pair, the
    /// TYPE line directly after its HELP line (the writer's layout).
    fn assert_valid_exposition(text: &str) {
        let mut typed: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        let mut pending_help: Option<&str> = None;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines emitted");
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let keyword = parts.next().expect("comment keyword");
                let name = parts.next().expect("comment metric name");
                let body = parts.next().unwrap_or("");
                assert!(keyword == "HELP" || keyword == "TYPE", "line: {line}");
                if keyword == "HELP" {
                    assert!(pending_help.is_none(), "HELP without TYPE before {line}");
                    pending_help = Some(name);
                } else {
                    assert_eq!(
                        pending_help.take(),
                        Some(name),
                        "TYPE not directly after its HELP: {line}"
                    );
                    assert!(
                        ["counter", "gauge", "histogram"].contains(&body),
                        "unknown type {body:?}"
                    );
                    let prior = typed.insert(name.to_string(), body.to_string());
                    assert!(prior.is_none(), "duplicate TYPE for {name}");
                }
                continue;
            }
            assert!(pending_help.is_none(), "HELP without TYPE before {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<u64>().expect("sample value is an integer");
            let base = match series.find('{') {
                Some(brace) => {
                    assert!(series.ends_with('}'), "label set closes: {line}");
                    &series[..brace]
                }
                None => series,
            };
            let family = base
                .strip_suffix("_bucket")
                .or_else(|| base.strip_suffix("_sum"))
                .or_else(|| base.strip_suffix("_count"))
                .filter(|stem| typed.get(*stem).map(String::as_str) == Some("histogram"))
                .unwrap_or(base);
            assert!(typed.contains_key(family), "sample before TYPE: {line}");
        }
    }

    #[test]
    fn exposition_conformance_and_counter_monotonicity_across_scrapes() {
        let registry = Registry::new();
        let c = registry.counter("req_total", "Requests.", &[("route", "/jobs")]);
        let h = registry.histogram("dur_us", "Duration.", &[("dataset", "a\"b")]);
        registry.gauge("depth", "Queue depth.", &[]).set(3);
        c.add(2);
        h.observe(10);

        let first = registry.render();
        assert_valid_exposition(&first);

        c.inc();
        h.observe(99);
        let second = registry.render();
        assert_valid_exposition(&second);

        let value_of = |text: &str, prefix: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("series present")
        };
        assert!(value_of(&second, "req_total{") > value_of(&first, "req_total{"));
        assert!(value_of(&second, "dur_us_count{") > value_of(&first, "dur_us_count{"));
    }

    #[test]
    fn concurrent_observes_match_sequential_across_thread_counts() {
        let samples: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(2654435761) % 10_000_000)
            .collect();
        let mut expected = HistogramSnapshot::empty();
        for &s in &samples {
            expected.observe(s);
        }
        for threads in [1usize, 2, 4, 8] {
            let h = Histogram::new();
            std::thread::scope(|scope| {
                for chunk in samples.chunks(samples.len().div_ceil(threads)) {
                    let h = h.clone();
                    scope.spawn(move || {
                        for &s in chunk {
                            h.observe(s);
                        }
                    });
                }
            });
            assert_eq!(h.snapshot(), expected, "threads={threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bucketing_is_deterministic(samples in proptest::collection::vec(0u64..100_000_000, 0..200)) {
            let a = Histogram::new();
            let b = Histogram::new();
            for &s in &samples {
                a.observe(s);
                b.observe(s);
            }
            prop_assert_eq!(a.snapshot(), b.snapshot());
            let snap = a.snapshot();
            prop_assert_eq!(snap.count, samples.len() as u64);
            prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
            prop_assert_eq!(snap.buckets.iter().sum::<u64>(), samples.len() as u64);
        }
    }
}
