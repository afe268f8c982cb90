//! Loopback metrics smoke driver for a running `aod serve` instance — the
//! CI `metrics-smoke` step's client half.
//!
//! Usage: `cargo run -p aod-serve --example metrics_smoke -- 127.0.0.1:7172`
//!
//! Connects (retrying while the server starts), registers a generated
//! dataset, runs one discovery job to completion, then scrapes
//! `GET /metrics` twice and asserts, through `aod_obs::Scrape`, that the
//! scrape is well-formed Prometheus text exposition (HELP and TYPE for
//! every family, parseable samples, no repeated series) with monotone
//! counters across scrapes, a per-dataset job-latency histogram, and the
//! discovery instruments the job's event sink populated. After the second
//! scrape, `GET /stats` must read every figure it shares with the scrape
//! alike (`requests` one higher: the `/stats` request counts itself), and
//! the dataset's executor queue-depth gauge must read 0. Finishes with
//! `POST /shutdown` so the server process can be `wait`ed for a clean exit.

use aod_obs::Scrape;
use aod_serve::client::request;
use aod_serve::json::JsonValue;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

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

/// Scrapes `GET /metrics` through the conformant [`Scrape`] reader (which
/// rejects unparseable samples, a TYPE after its samples and repeated
/// series) and asserts the rest of the structure: no comment but HELP and
/// TYPE, and every sample's family announced by both, with a known kind.
fn scrape(addr: SocketAddr) -> Scrape {
    let response = request(addr, "GET", "/metrics", None).expect("scrape /metrics");
    assert_eq!(response.status, 200, "metrics: {}", response.body);
    for line in response.body.lines().filter(|l| l.starts_with('#')) {
        assert!(
            line.starts_with("# HELP ") || line.starts_with("# TYPE "),
            "unexpected comment line: {line}"
        );
    }
    let scrape = Scrape::parse(&response.body).unwrap_or_else(|e| panic!("scrape parses: {e}"));
    for sample in scrape.samples() {
        let family = family(&scrape, &sample.name);
        assert!(
            scrape.family_help(family).is_some()
                && matches!(
                    scrape.family_type(family),
                    Some("counter" | "gauge" | "histogram")
                ),
            "sample `{}` has no HELP or known TYPE for `{family}`",
            sample.name
        );
    }
    scrape
}

fn main() {
    let addr: SocketAddr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7172".to_string())
        .parse()
        .expect("usage: metrics_smoke <host:port>");

    // The server may still be binding; retry for up to 30 s.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match request(addr, "GET", "/health", None) {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(200)),
            Ok(r) => panic!("health check returned {}", r.status),
            Err(e) => panic!("server never became healthy: {e}"),
        }
    }
    println!("health: ok");

    let reg = request(
        addr,
        "POST",
        "/datasets",
        Some(r#"{"name":"obs-smoke","generate":{"dataset":"flight","rows":2000,"seed":7}}"#),
    )
    .expect("register dataset");
    assert_eq!(reg.status, 201, "register: {}", reg.body);

    const JOB: &str = r#"{"dataset":"obs-smoke","config":{"epsilon":0.1,"max_level":3,"columns":["year","month","dayOfWeek","originAirport","arrDelay","distance"]}}"#;
    let submit = request(addr, "POST", "/jobs", Some(JOB)).expect("submit job");
    assert_eq!(submit.status, 201, "submit: {}", submit.body);
    let id = submit
        .json()
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_u64)
        .expect("job id");

    // Poll until the job completes (the generated dataset is small).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let job = request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll job");
        let status = job
            .json()
            .unwrap()
            .get("status")
            .and_then(|v| v.as_str().map(String::from))
            .expect("job status");
        match status.as_str() {
            "done" => break,
            "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("job ended as `{other}`"),
        }
    }
    println!("job {id}: completed");

    let first = scrape(addr);
    let smoke = [("dataset", "obs-smoke")];
    // The per-dataset latency histogram recorded the finished job.
    let count = first
        .value("aod_serve_job_duration_us_count", &smoke)
        .expect("per-dataset job-duration histogram present");
    assert!(count >= 1.0, "job duration histogram is empty");
    // The job's event sink populated the discovery instruments.
    let ocs = first
        .value("aod_discovery_ocs_found_total", &smoke)
        .expect("discovery instruments present");
    assert!(ocs > 0.0, "discovery found no OCs on the smoke dataset");
    for series in [
        "aod_serve_requests_total",
        "aod_serve_jobs_submitted_total",
        "aod_serve_jobs_executed_total",
        "aod_serve_cache_misses_total",
        "aod_serve_datasets",
        "aod_serve_datasets_capacity",
    ] {
        assert!(
            first.value(series, &[]).is_some(),
            "missing series `{series}`"
        );
    }
    println!("first scrape: {} samples", first.samples().len());

    // A second, identical job must be a cache hit; the second scrape's
    // counters must be monotone over the first.
    let again = request(addr, "POST", "/jobs", Some(JOB)).expect("resubmit job");
    assert_eq!(again.status, 201);
    let second = scrape(addr);
    assert!(
        second.value("aod_serve_cache_hits_total", &[]) >= Some(1.0),
        "resubmission did not register as a cache hit"
    );
    for sample in first.samples() {
        // Gauges may move either way; counters and histogram cells are
        // cumulative and must never regress between scrapes.
        let kind = first.family_type(family(&first, &sample.name));
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
            "counter `{}` {labels:?} regressed: {} -> {now}",
            sample.name,
            sample.value
        );
    }
    println!("second scrape: monotone over first");

    // `/stats` reads the counters the scrape rendered, and the finished
    // jobs left no executor work queued.
    let stats = request(addr, "GET", "/stats", None).expect("fetch /stats");
    assert_eq!(stats.status, 200, "stats: {}", stats.body);
    let stats = stats.json().expect("stats parse");
    for (key, series) in [
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
    ] {
        let stat = stats
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("/stats has no `{key}`")) as f64;
        let sample = second
            .value(series, &[])
            .unwrap_or_else(|| panic!("missing series `{series}`"));
        let expected = if key == "requests" {
            sample + 1.0
        } else {
            sample
        };
        assert_eq!(stat, expected, "/stats `{key}` disagrees with `{series}`");
    }
    assert_eq!(
        second.value("aod_exec_queue_depth", &smoke),
        Some(0.0),
        "queue-depth gauge did not drain"
    );
    println!("stats: agree with the second scrape");

    // A traced job serves Chrome trace-event JSON on /jobs/{id}/trace;
    // self-parse it with the workspace JSON parser and check the shape
    // Perfetto expects (complete "X" events under `traceEvents`).
    const TRACED: &str = r#"{"dataset":"obs-smoke","config":{"epsilon":0.1,"max_level":2,"trace":true,"columns":["year","month","dayOfWeek","arrDelay"]}}"#;
    let submit = request(addr, "POST", "/jobs", Some(TRACED)).expect("submit traced job");
    assert_eq!(submit.status, 201, "traced submit: {}", submit.body);
    let traced_id = submit
        .json()
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_u64)
        .expect("traced job id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let job = request(addr, "GET", &format!("/jobs/{traced_id}"), None).expect("poll job");
        let status = job
            .json()
            .unwrap()
            .get("status")
            .and_then(|v| v.as_str().map(String::from))
            .expect("job status");
        match status.as_str() {
            "done" => break,
            "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("traced job ended as `{other}`"),
        }
    }
    let trace =
        request(addr, "GET", &format!("/jobs/{traced_id}/trace"), None).expect("fetch trace");
    assert_eq!(trace.status, 200, "trace: {}", trace.body);
    let parsed = JsonValue::parse(&trace.body).expect("trace self-parses");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace carries no spans");
    for event in events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "trace event missing `{key}`");
        }
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("discover")),
        "trace has no job span"
    );
    println!("traced job {traced_id}: {} spans served", events.len());

    let bye = request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(bye.status, 202);
    println!("metrics smoke ok");
}
