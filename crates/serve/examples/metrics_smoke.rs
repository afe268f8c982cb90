//! Loopback metrics smoke driver for a running `aod serve` instance — the
//! CI `metrics-smoke` step's client half.
//!
//! Usage: `cargo run -p aod-serve --example metrics_smoke -- 127.0.0.1:7172`
//!
//! Connects (retrying while the server starts), registers a generated
//! dataset, runs one discovery job to completion, then scrapes
//! `GET /metrics` twice and asserts the scrape is well-formed Prometheus
//! text exposition (HELP/TYPE lines, parseable samples) with monotone
//! counters across scrapes, a per-dataset job-latency histogram, and the
//! discovery instruments the job's event sink populated. After the second
//! scrape, `GET /stats` must read every figure it shares with the scrape
//! alike (`requests` one higher: the `/stats` request counts itself), and
//! the dataset's executor queue-depth gauge must read 0. Finishes with
//! `POST /shutdown` so the server process can be `wait`ed for a clean exit.

use aod_serve::client::request;
use aod_serve::json::JsonValue;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Parses one exposition scrape into `name{labels} -> value`, asserting
/// structural validity: every sample line is `name{labels} value`, every
/// metric family is preceded by `# HELP` and `# TYPE` lines, and no
/// sample appears twice.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP has a name");
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE has a name");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind: {line}"
            );
            typed.push(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable sample value in `{line}`: {e}");
        });
        let base = series
            .split(['{', '_'])
            .next()
            .map(|_| {
                // The family name is the series name minus `{labels}` and
                // any histogram suffix.
                let name = series.split('{').next().unwrap_or(series);
                name.trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count")
                    .to_string()
            })
            .unwrap_or_default();
        assert!(
            helped.contains(&base) && typed.contains(&base),
            "sample `{series}` has no preceding HELP/TYPE for `{base}`"
        );
        let dup = samples.insert(series.to_string(), value);
        assert!(dup.is_none(), "duplicate sample: {series}");
    }
    samples
}

fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let response = request(addr, "GET", "/metrics", None).expect("scrape /metrics");
    assert_eq!(response.status, 200, "metrics: {}", response.body);
    parse_exposition(&response.body)
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
    // The per-dataset latency histogram recorded the finished job.
    let count = first
        .get("aod_serve_job_duration_us_count{dataset=\"obs-smoke\"}")
        .copied()
        .expect("per-dataset job-duration histogram present");
    assert!(count >= 1.0, "job duration histogram is empty");
    // The job's event sink populated the discovery instruments.
    let ocs = first
        .get("aod_discovery_ocs_found_total{dataset=\"obs-smoke\"}")
        .copied()
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
        assert!(first.contains_key(series), "missing series `{series}`");
    }
    println!("first scrape: {} samples", first.len());

    // A second, identical job must be a cache hit; the second scrape's
    // counters must be monotone over the first.
    let again = request(addr, "POST", "/jobs", Some(JOB)).expect("resubmit job");
    assert_eq!(again.status, 201);
    let second = scrape(addr);
    assert!(
        second.get("aod_serve_cache_hits_total").copied() >= Some(1.0),
        "resubmission did not register as a cache hit"
    );
    for (series, value) in &first {
        // Gauges may move either way; counters and histogram cells are
        // cumulative and must never regress between scrapes.
        let cumulative = series.contains("_total")
            || series.contains("_bucket")
            || series.contains("_sum")
            || series.contains("_count");
        if !cumulative {
            continue;
        }
        let now = second
            .get(series)
            .copied()
            .unwrap_or_else(|| panic!("series `{series}` vanished between scrapes"));
        assert!(
            now >= *value,
            "counter `{series}` regressed: {value} -> {now}"
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
            .get(series)
            .copied()
            .unwrap_or_else(|| panic!("missing series `{series}`"));
        let expected = if key == "requests" {
            sample + 1.0
        } else {
            sample
        };
        assert_eq!(stat, expected, "/stats `{key}` disagrees with `{series}`");
    }
    assert_eq!(
        second
            .get("aod_exec_queue_depth{dataset=\"obs-smoke\"}")
            .copied(),
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
