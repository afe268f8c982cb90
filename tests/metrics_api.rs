//! End-to-end tests for `GET /metrics` (Prometheus text exposition) and
//! the extended `GET /stats` counters, over real loopback sockets.
//!
//! The acceptance bar: the scrape is structurally valid exposition text
//! (HELP and TYPE for every family, TYPE before its samples, parseable
//! values, no duplicate series, as read by `aod_obs::Scrape`),
//! carries the per-dataset job-latency histogram and the discovery
//! instruments populated by the job's event sink, every cumulative series
//! is monotone across scrapes, and `/stats` reads the same counters.

use aod::obs::{Registry, Scrape, BUCKET_BOUNDS_US};
use aod::serve::client::request;
use aod::serve::{ServeConfig, ServeMetrics, Server, ServerHandle, MAX_DATASETS};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server() -> ServerHandle {
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        max_jobs: 4,
    })
    .expect("bind ephemeral port");
    server.spawn().expect("spawn workers")
}

fn register_employee(addr: SocketAddr, name: &str) {
    let body = format!(r#"{{"name":"{name}","generate":{{"dataset":"employee"}}}}"#);
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
}

fn run_job(addr: SocketAddr, body: &str) -> u64 {
    let r = request(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let id = r.json().unwrap().get("id").unwrap().as_u64().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        let status = r
            .json()
            .unwrap()
            .get("status")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        if status != "running" {
            assert_eq!(status, "done", "{}", r.body);
            return id;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The family a sample belongs to: its name, or for a histogram's
/// `_bucket`, `_sum` and `_count` series, the histogram's name.
fn family<'a>(scrape: &Scrape, sample: &'a str) -> &'a str {
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| {
            sample
                .strip_suffix(suffix)
                .filter(|stem| scrape.family_type(stem) == Some("histogram"))
        })
        .unwrap_or(sample)
}

/// Scrapes `GET /metrics` through the conformant [`Scrape`] reader, which
/// rejects unparseable values, a TYPE after its samples and repeated
/// series, and asserts the rest of the exposition structure: no comment
/// but HELP and TYPE, and every sample's family announced by both, with a
/// known kind.
fn scrape(addr: SocketAddr) -> Scrape {
    let r = request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let content_type = r
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    assert!(
        content_type.starts_with("text/plain"),
        "wrong content type: {content_type}"
    );
    for line in r.body.lines().filter(|l| l.starts_with('#')) {
        assert!(
            line.starts_with("# HELP ") || line.starts_with("# TYPE "),
            "unexpected comment: {line}"
        );
    }
    let scrape = Scrape::parse(&r.body).unwrap_or_else(|e| panic!("scrape parses: {e}"));
    for sample in scrape.samples() {
        let family = family(&scrape, &sample.name);
        assert!(
            scrape.family_help(family).is_some(),
            "sample `{}` has no HELP",
            sample.name
        );
        assert!(
            matches!(
                scrape.family_type(family),
                Some("counter" | "gauge" | "histogram")
            ),
            "sample `{}` has no known TYPE",
            sample.name
        );
    }
    scrape
}

/// The value of one series, which must be present.
fn get(scrape: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
    scrape
        .value(name, labels)
        .unwrap_or_else(|| panic!("missing series `{name}` {labels:?}"))
}

/// Cumulative series (counters and histogram cells) must never regress
/// between two scrapes; gauges are exempt.
fn assert_monotone(first: &Scrape, second: &Scrape) {
    for sample in first.samples() {
        let kind = first.family_type(family(first, &sample.name));
        if !matches!(kind, Some("counter" | "histogram")) {
            continue;
        }
        let labels: Vec<(&str, &str)> = sample
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let now = second.value(&sample.name, &labels).unwrap_or_else(|| {
            panic!(
                "series `{}` {labels:?} vanished between scrapes",
                sample.name
            )
        });
        assert!(
            now >= sample.value,
            "cumulative series `{}` {labels:?} regressed: {} -> {now}",
            sample.name,
            sample.value
        );
    }
}

#[test]
fn metrics_scrape_carries_job_histograms_and_discovery_instruments() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    run_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.15}}"#);

    let first = scrape(addr);
    let emp = [("dataset", "emp")];
    // The finished job landed in the per-dataset latency histogram.
    assert_eq!(
        first.value("aod_serve_job_duration_us_count", &emp),
        Some(1.0)
    );
    let inf = first
        .value(
            "aod_serve_job_duration_us_bucket",
            &[("dataset", "emp"), ("le", "+Inf")],
        )
        .expect("+Inf bucket present");
    assert_eq!(inf, 1.0);
    // The event sink fed the discovery instruments for this dataset.
    assert!(get(&first, "aod_discovery_ocs_found_total", &emp) > 0.0);
    assert!(get(&first, "aod_discovery_levels_completed_total", &emp) >= 1.0);
    assert!(get(&first, "aod_discovery_oc_candidates_total", &emp) > 0.0);
    // Per-phase timing histograms exist for every phase label.
    for phase in ["oc_validation", "ofd_validation", "partitioning"] {
        let labels = [("dataset", "emp"), ("phase", phase)];
        assert!(get(&first, "aod_discovery_phase_duration_us_count", &labels) >= 1.0);
    }
    // Server-wide serve counters are present and plausible.
    assert!(get(&first, "aod_serve_requests_total", &[]) >= 3.0);
    assert_eq!(get(&first, "aod_serve_jobs_submitted_total", &[]), 1.0);
    assert_eq!(get(&first, "aod_serve_jobs_executed_total", &[]), 1.0);
    assert_eq!(get(&first, "aod_serve_datasets", &[]), 1.0);
    assert_eq!(
        get(&first, "aod_serve_datasets_capacity", &[]),
        MAX_DATASETS as f64
    );

    // A cache-hit resubmission and a fresh config both move counters the
    // right way, and nothing cumulative regresses.
    run_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.15}}"#);
    run_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.1,"max_level":3}}"#,
    );
    let second = scrape(addr);
    assert_monotone(&first, &second);
    assert_eq!(get(&second, "aod_serve_jobs_submitted_total", &[]), 3.0);
    assert_eq!(get(&second, "aod_serve_jobs_executed_total", &[]), 2.0);
    assert!(get(&second, "aod_serve_cache_hits_total", &[]) >= 1.0);
    assert_eq!(
        get(&second, "aod_serve_job_duration_us_count", &emp),
        2.0,
        "cache hits must not observe job latency"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn stats_reports_occupancy_capacity_and_rejections() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("datasets").unwrap().as_u64(), Some(1));
    assert_eq!(
        stats.get("registry_capacity").unwrap().as_u64(),
        Some(MAX_DATASETS as u64)
    );
    assert_eq!(stats.get("jobs_rejected").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("jobs_running").unwrap().as_u64(), Some(0));
    handle.shutdown();
    handle.join();
}

/// The figures `/stats` and `/metrics` share, as `(stats key, series)`.
const SHARED_FIGURES: [(&str, &str); 10] = [
    ("requests", "aod_serve_requests_total"),
    ("datasets", "aod_serve_datasets"),
    ("registry_capacity", "aod_serve_datasets_capacity"),
    ("jobs_submitted", "aod_serve_jobs_submitted_total"),
    ("jobs_executed", "aod_serve_jobs_executed_total"),
    ("jobs_rejected", "aod_serve_jobs_rejected_total"),
    ("jobs_running", "aod_serve_jobs_running"),
    ("cache_hits", "aod_serve_cache_hits_total"),
    ("cache_misses", "aod_serve_cache_misses_total"),
    ("cache_entries", "aod_serve_cache_entries"),
];

#[test]
fn admission_rejections_are_counted_in_stats_and_metrics() {
    // max_jobs = 1 and paced jobs make overflow deterministic.
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        max_jobs: 1,
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    register_employee(addr, "emp");
    // A completed job, then its resubmission answered from the cache.
    let quick = r#"{"dataset":"emp","config":{"epsilon":0.15}}"#;
    run_job(addr, quick);
    run_job(addr, quick);

    let slow = r#"{"dataset":"emp","config":{"epsilon":0.1,"level_delay_ms":1500}}"#;
    let r = request(addr, "POST", "/jobs", Some(slow)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let id = r.json().unwrap().get("id").unwrap().as_u64().unwrap();

    // While it runs, a second distinct job must be rejected with 429.
    let overflow = r#"{"dataset":"emp","config":{"epsilon":0.2,"level_delay_ms":1500}}"#;
    let rejected = request(addr, "POST", "/jobs", Some(overflow)).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.body);

    let metrics = scrape(addr);
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_rejected").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("jobs_running").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("jobs_submitted").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cache_misses").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));
    // Both endpoints read the same cells: every shared figure agrees,
    // except that the `/stats` request counts itself.
    for (key, series) in SHARED_FIGURES {
        let stat = stats.get(key).unwrap().as_u64().unwrap() as f64;
        let sample = get(&metrics, series, &[]);
        let expected = if key == "requests" {
            sample + 1.0
        } else {
            sample
        };
        assert_eq!(stat, expected, "/stats {key} against {series}");
    }

    // Let the paced job finish cleanly before shutdown.
    let _ = request(addr, "DELETE", &format!("/jobs/{id}"), None);
    handle.shutdown();
    handle.join();
}

/// A traced job serves its Chrome trace on `GET /jobs/{id}/trace`
/// (byte-stable across fetches), an untraced job answers 404, a running
/// job answers 409 — and the per-dataset executor queue-depth gauge
/// drains back to zero once the level batches complete.
#[test]
fn traced_jobs_serve_their_trace_and_the_queue_gauge_drains() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");

    let traced = r#"{"dataset":"emp","config":{"epsilon":0.15,"threads":2,"trace":true}}"#;
    let id = run_job(addr, traced);
    let first = request(addr, "GET", &format!("/jobs/{id}/trace"), None).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("content-type"), Some("application/json"));
    let events = first.json().expect("trace parses");
    let events = events
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace carries no spans");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("discover")),
        "trace has no job span"
    );
    // The endpoint serves the stored trace byte for byte, every time.
    let second = request(addr, "GET", &format!("/jobs/{id}/trace"), None).unwrap();
    assert_eq!(second.body, first.body);

    // The job's level batches filled and drained the dataset's
    // executor queue-depth gauge; after completion it must read zero.
    let metrics = scrape(addr);
    assert_eq!(
        metrics.value("aod_exec_queue_depth", &[("dataset", "emp")]),
        Some(0.0),
        "queue-depth gauge did not drain"
    );

    // An untraced job has no trace to serve.
    let plain_id = run_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.2}}"#);
    let missing = request(addr, "GET", &format!("/jobs/{plain_id}/trace"), None).unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);

    // While a job is running the trace is not yet available: 409.
    let paced = r#"{"dataset":"emp","config":{"epsilon":0.1,"trace":true,"level_delay_ms":1500}}"#;
    let r = request(addr, "POST", "/jobs", Some(paced)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let paced_id = r.json().unwrap().get("id").unwrap().as_u64().unwrap();
    let busy = request(addr, "GET", &format!("/jobs/{paced_id}/trace"), None).unwrap();
    assert_eq!(busy.status, 409, "{}", busy.body);
    let _ = request(addr, "DELETE", &format!("/jobs/{paced_id}"), None);

    handle.shutdown();
    handle.join();
}

/// Text-format conformance: a registered histogram with **zero
/// observations** still renders its full bucket ladder with `_sum 0` and
/// `_count 0`, and the `+Inf` bucket always equals `_count` — pinned
/// through the conformant [`Scrape`] reader, not string matching.
#[test]
fn zero_observation_histograms_render_a_complete_conformant_ladder() {
    let registry = Registry::new();
    let histogram = registry.histogram(
        "aod_serve_job_duration_us",
        "Job wall time from admission to completion, microseconds.",
        &[("dataset", "empty")],
    );
    let scrape = Scrape::parse(&registry.render()).expect("render parses");
    assert_eq!(
        scrape.family_type("aod_serve_job_duration_us"),
        Some("histogram")
    );
    for bound in BUCKET_BOUNDS_US {
        assert_eq!(
            scrape.value(
                "aod_serve_job_duration_us_bucket",
                &[("dataset", "empty"), ("le", &bound.to_string())],
            ),
            Some(0.0),
            "missing zero bucket le={bound}"
        );
    }
    let inf = scrape
        .value(
            "aod_serve_job_duration_us_bucket",
            &[("dataset", "empty"), ("le", "+Inf")],
        )
        .expect("+Inf bucket present");
    let count = scrape
        .value("aod_serve_job_duration_us_count", &[("dataset", "empty")])
        .expect("_count present");
    let sum = scrape
        .value("aod_serve_job_duration_us_sum", &[("dataset", "empty")])
        .expect("_sum present");
    assert_eq!((inf, count, sum), (0.0, 0.0, 0.0));

    // With observations — including one past the last finite bound —
    // the +Inf bucket still equals _count and the ladder stays
    // cumulative (monotone non-decreasing in `le`).
    histogram.observe(3);
    histogram.observe(5_000);
    histogram.observe(u64::MAX);
    let scrape = Scrape::parse(&registry.render()).expect("render parses");
    let mut previous = 0.0;
    for bound in BUCKET_BOUNDS_US {
        let cell = scrape
            .value(
                "aod_serve_job_duration_us_bucket",
                &[("dataset", "empty"), ("le", &bound.to_string())],
            )
            .expect("bucket present");
        assert!(cell >= previous, "ladder not cumulative at le={bound}");
        previous = cell;
    }
    let inf = scrape
        .value(
            "aod_serve_job_duration_us_bucket",
            &[("dataset", "empty"), ("le", "+Inf")],
        )
        .unwrap();
    let count = scrape
        .value("aod_serve_job_duration_us_count", &[("dataset", "empty")])
        .unwrap();
    assert_eq!(inf, 3.0);
    assert_eq!(inf, count, "+Inf bucket must equal _count");
}

/// Label escaping on per-dataset series round-trips through the
/// exposition: a dataset name containing the format's three escapes
/// (backslash, quote, newline) renders and parses back verbatim.
#[test]
fn per_dataset_gauge_labels_escape_and_round_trip() {
    let hostile = "flight \"2021\" \\ final\nbatch";
    let metrics = ServeMetrics::new();
    metrics.queue_depth_gauge(hostile).set(7);
    let text = metrics.render();
    let scrape = Scrape::parse(&text).expect("render with escaped labels parses");
    assert_eq!(
        scrape.value("aod_exec_queue_depth", &[("dataset", hostile)]),
        Some(7.0)
    );
    // The raw control characters never leak into the exposition text.
    for line in text.lines() {
        assert!(!line.contains('\u{0}'), "control character in exposition");
    }
}

/// The alerting rules and scrape config under `docs/observability/` can
/// only reference metric families the server actually exports: every
/// `aod_*` name in those files must appear in a populated registry
/// render. A rename in the code fails here, not in production.
#[test]
fn observability_docs_reference_only_exported_metric_names() {
    let docs_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/observability");
    let mut referenced = Vec::new();
    for file in ["rules.yml", "prometheus.yml"] {
        let path = format!("{docs_dir}/{file}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let bytes = text.as_bytes();
        let mut i = 0;
        while let Some(offset) = text[i..].find("aod_") {
            let start = i + offset;
            let mut end = start;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase()
                    || bytes[end].is_ascii_digit()
                    || bytes[end] == b'_')
            {
                end += 1;
            }
            referenced.push((file, text[start..end].to_string()));
            i = end;
        }
    }
    assert!(
        referenced.len() >= 5,
        "docs reference suspiciously few metrics: {referenced:?}"
    );

    // A render with every family the server can export: the server-wide
    // serve series, a per-dataset latency histogram, the discovery
    // instruments, and the executor queue gauge.
    let metrics = ServeMetrics::new();
    metrics.queue_depth_gauge("docs");
    let _ = metrics.discovery_sink("docs");
    metrics.observe_job("docs", 0);
    let rendered = metrics.render();
    for (file, name) in &referenced {
        assert!(
            rendered.contains(name),
            "{file} references `{name}`, which the server does not export"
        );
    }
}
