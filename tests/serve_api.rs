//! End-to-end tests for the `aod-serve` HTTP service, driven over real
//! loopback sockets by the raw-`TcpStream` client in `aod_serve::client`.
//!
//! The acceptance bar: a job submitted over HTTP yields results
//! byte-identical (after a JSON round trip, timing fields excluded — they
//! are the one documented nondeterminism) to `DiscoveryBuilder` run
//! in-process with the same config; the NDJSON event stream matches an
//! in-process session replay bit for bit; `DELETE` cancels cooperatively
//! mid-run; malformed input maps to 400/404; concurrent identical clients
//! agree; repeats are answered from the result cache without
//! re-validating.

use aod::prelude::*;
use aod::serve::client::{request, EventStream};
use aod::serve::json::JsonValue;
use aod::serve::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server() -> ServerHandle {
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1".to_string(),
        port: 0,
        threads: 3,
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

fn submit_job(addr: SocketAddr, body: &str) -> u64 {
    let r = request(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    r.json().unwrap().get("id").unwrap().as_u64().unwrap()
}

/// Polls `GET /jobs/{id}` until the job leaves `running`.
fn wait_done(addr: SocketAddr, id: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let v = r.json().unwrap();
        let status = v.get("status").unwrap().as_str().unwrap().to_string();
        if status != "running" {
            assert_eq!(status, "done", "{}", r.body);
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Recursively zeroes every `*_ms` field — the documented timing-only
/// nondeterminism — so the rest of two documents can be compared bytewise.
fn zero_timings(value: &mut JsonValue) {
    match value {
        JsonValue::Object(fields) => {
            for (key, field) in fields.iter_mut() {
                if key.ends_with("_ms") {
                    *field = JsonValue::Number(0.0);
                } else {
                    zero_timings(field);
                }
            }
        }
        JsonValue::Array(items) => items.iter_mut().for_each(zero_timings),
        _ => {}
    }
}

fn canonical_sans_timings(json_text: &str) -> String {
    let mut v = JsonValue::parse(json_text).expect("valid JSON");
    zero_timings(&mut v);
    v.to_json()
}

#[test]
fn submit_poll_fetch_matches_in_process_run() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let id = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"optimal"}}"#,
    );
    let status = wait_done(addr, id);
    assert_eq!(status.get("cached").unwrap().as_bool(), Some(false));
    assert!(status.get("stats").unwrap().get("total_ms").is_some());

    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(result.status, 200);

    // The same config in-process, through the same wire encoding.
    let ranked = RankedTable::from_table(&employee_table());
    let local = DiscoveryBuilder::new().approximate(0.15).run(&ranked);
    assert_eq!(
        canonical_sans_timings(&result.body),
        canonical_sans_timings(&local.to_json()),
        "HTTP result must be byte-identical to the in-process run \
         (timing fields aside) after a JSON round trip"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn event_stream_matches_in_process_replay_bit_for_bit() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let id = submit_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.1}}"#);
    let mut stream = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    let streamed = stream.collect_lines().unwrap();

    let ranked = RankedTable::from_table(&employee_table());
    let mut session = DiscoveryBuilder::new().approximate(0.1).build(&ranked);
    let replay: Vec<String> = session.by_ref().map(|e| e.to_json()).collect();

    assert_eq!(streamed, replay, "NDJSON stream != in-process replay");

    // A second stream of the same finished job replays identically.
    let mut again = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    assert_eq!(again.collect_lines().unwrap(), replay);
    handle.shutdown();
    handle.join();
}

#[test]
fn delete_cancels_mid_run_with_partial_results() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    // Pace the job so "mid-run" is a wide, deterministic window.
    let id = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.1,"level_delay_ms":2000}}"#,
    );
    // Follow the live stream until the first completed level...
    let mut stream = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    let mut cancelled_at_level = 0u64;
    while let Some(line) = stream.next_line().unwrap() {
        let event = JsonValue::parse(&line).unwrap();
        if event.get("event").unwrap().as_str() == Some("level_complete") {
            cancelled_at_level = event.get("level").unwrap().as_u64().unwrap();
            // ...then cancel over a second connection while it pauses.
            let r = request(addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
            assert_eq!(r.status, 202, "{}", r.body);
            assert_eq!(
                r.json().unwrap().get("cancelled").unwrap().as_bool(),
                Some(true)
            );
            break;
        }
    }
    assert!(cancelled_at_level >= 1, "never saw a level_complete event");
    // The stream ends (instead of running the full lattice) and the final
    // events include the cancellation marker.
    let tail = stream.collect_lines().unwrap();
    assert!(
        tail.iter().any(
            |l| JsonValue::parse(l).unwrap().get("event").unwrap().as_str() == Some("cancelled")
        ),
        "no cancelled event in {tail:?}"
    );

    let status = wait_done(addr, id);
    assert_eq!(
        status.get("cancel_requested").unwrap().as_bool(),
        Some(true)
    );
    // Cancellation took effect within one lattice level of the request.
    let levels_completed = status.get("levels_completed").unwrap().as_u64().unwrap();
    assert!(
        levels_completed <= cancelled_at_level + 1,
        "cancel was not cooperative within one level: requested at level \
         {cancelled_at_level}, ran through {levels_completed}"
    );
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(result.status, 200);
    let result = result.json().unwrap();
    assert_eq!(
        result
            .get("stats")
            .unwrap()
            .get("stopped_early")
            .unwrap()
            .as_bool(),
        Some(true),
        "partial results must be flagged stopped_early"
    );
    // Partial: strictly fewer levels than the full 7-column lattice run.
    let full_levels = {
        let ranked = RankedTable::from_table(&employee_table());
        DiscoveryBuilder::new()
            .approximate(0.1)
            .run(&ranked)
            .stats
            .per_level
            .len()
    };
    let partial_levels = result
        .get("stats")
        .unwrap()
        .get("per_level")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert!(
        partial_levels < full_levels,
        "cancelled run processed {partial_levels} of {full_levels} levels — not partial"
    );
    handle.shutdown();
    handle.join();
}

/// `POST /datasets` answers a refused registration with the status the
/// registry gives it, whatever the request's text holds: a missing file
/// whose path reads "already registered" is a 400, and a taken name is a
/// 409 before any file is read.
#[test]
fn dataset_refusals_carry_their_status() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let post = |body: &str| request(addr, "POST", "/datasets", Some(body)).unwrap();
    let missing = post(r#"{"name":"x","csv":"/no/such/already registered.csv"}"#);
    assert_eq!(missing.status, 400, "{}", missing.body);
    assert!(
        missing.body.contains("reading `/no/such/"),
        "{}",
        missing.body
    );
    let taken = post(r#"{"name":"emp","csv":"/no/such/plain.csv"}"#);
    assert_eq!(taken.status, 409, "{}", taken.body);
    assert!(taken.body.contains("already registered"), "{}", taken.body);
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_bodies_are_400s() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    for (body, needle) in [
        ("{not json", "invalid JSON body"),
        ("[1,2,3]", "must be a JSON object"),
        ("", "must be a JSON object"),
        (r#"{"config":{}}"#, "missing string field `dataset`"),
        (
            r#"{"dataset":"emp","config":{"epsilon":7}}"#,
            "within [0, 1]",
        ),
        (
            // The validation-boundary regression: an out-of-range
            // threshold is a clean 400, never a panicking job thread.
            r#"{"dataset":"emp","config":{"epsilon":1.5}}"#,
            "within [0, 1]",
        ),
        (
            // The removed sampling strategy and its stride fail through
            // the generic unknown-name errors.
            r#"{"dataset":"emp","config":{"epsilon":0.1,"strategy":"hybrid"}}"#,
            "unknown strategy",
        ),
        (
            r#"{"dataset":"emp","config":{"epsilon":0.1,"sample_stride":8}}"#,
            "unknown config field",
        ),
        (
            r#"{"dataset":"emp","config":{"frobnicate":true}}"#,
            "unknown config field",
        ),
        (
            r#"{"dataset":"emp","config":{"columns":["nope"]}}"#,
            "unknown column",
        ),
    ] {
        let r = request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(r.status, 400, "{body:?} -> {}", r.body);
        assert!(r.body.contains(needle), "{body:?} -> {}", r.body);
    }
    // Dataset registration validates the same way.
    let r = request(addr, "POST", "/datasets", Some(r#"{"name":"x"}"#)).unwrap();
    assert_eq!(r.status, 400);
    let r = request(
        addr,
        "POST",
        "/datasets",
        Some(r#"{"name":"x","generate":{"dataset":"nope"}}"#),
    )
    .unwrap();
    assert_eq!(r.status, 400);
    // A device is never read: `/dev/zero` would fill memory.
    if cfg!(unix) {
        let r = request(
            addr,
            "POST",
            "/datasets",
            Some(r#"{"name":"z","csv":"/dev/zero"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("not a regular file"), "{}", r.body);
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn unknown_jobs_and_datasets_are_404s() {
    let handle = start_server();
    let addr = handle.addr();
    for (method, path) in [
        ("GET", "/jobs/999"),
        ("GET", "/jobs/999/result"),
        ("GET", "/jobs/999/events"),
        ("DELETE", "/jobs/999"),
        ("GET", "/jobs/abc"),
        ("GET", "/datasets/ghost"),
    ] {
        let r = request(addr, method, path, None).unwrap();
        assert_eq!(r.status, 404, "{method} {path} -> {}", r.body);
    }
    // Submitting against an unregistered dataset is a 404, not a 400.
    let r = request(addr, "POST", "/jobs", Some(r#"{"dataset":"ghost"}"#)).unwrap();
    assert_eq!(r.status, 404);
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_clients_on_one_dataset_agree() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let body = r#"{"dataset":"emp","config":{"epsilon":0.2,"strategy":"iterative"}}"#;
    let results: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let id = submit_job(addr, body);
                    wait_done(addr, id);
                    let r = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
                    assert_eq!(r.status, 200);
                    canonical_sans_timings(&r.body)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(
        results[0], results[1],
        "two concurrent clients saw different results"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn identical_requests_hit_the_result_cache() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let body = r#"{"dataset":"emp","config":{"epsilon":0.15,"max_level":3}}"#;
    let first = submit_job(addr, body);
    wait_done(addr, first);
    let first_result = request(addr, "GET", &format!("/jobs/{first}/result"), None).unwrap();

    // Equivalent spelling (different key order, explicit defaults) of the
    // same canonical config: must be a cache hit, not a re-run.
    let respelled = r#"{"dataset":"emp","config":{"max_level":3,"threads":1,"strategy":"optimal","epsilon":0.15}}"#;
    let r = request(addr, "POST", "/jobs", Some(respelled)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let v = r.json().unwrap();
    assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
    let second = v.get("id").unwrap().as_u64().unwrap();

    // Served without re-validating: the executed counter did not move.
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("jobs_submitted").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));

    // And the replay is byte-identical, events included (no timing fields
    // exist in either payload's deterministic part — compare raw bytes of
    // the events, canonical form of the results).
    let second_result = request(addr, "GET", &format!("/jobs/{second}/result"), None).unwrap();
    assert_eq!(
        canonical_sans_timings(&first_result.body),
        canonical_sans_timings(&second_result.body)
    );
    let mut a = EventStream::open(addr, &format!("/jobs/{first}/events")).unwrap();
    let mut b = EventStream::open(addr, &format!("/jobs/{second}/events")).unwrap();
    assert_eq!(a.collect_lines().unwrap(), b.collect_lines().unwrap());

    // A *different* config on the same dataset is not a hit.
    let third = submit_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.15}}"#);
    wait_done(addr, third);
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    handle.shutdown();
    handle.join();
}

#[test]
fn optimal_and_iterative_jobs_never_share_cache_entries() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let optimal = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"optimal"}}"#,
    );
    wait_done(addr, optimal);
    let iterative = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"iterative"}}"#,
    );
    wait_done(addr, iterative);

    // The strategy is part of the cache key: the iterative job executed
    // a fresh run instead of hitting the optimal job's entry.
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(0));

    // Resubmitting the same iterative config with its keys reordered
    // *is* a cache hit.
    let again = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"strategy":"iterative","epsilon":0.15}}"#,
    );
    wait_done(addr, again);
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn csv_registration_serves_scoped_jobs() {
    let dir = std::env::temp_dir().join(format!("aod_serve_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.csv");
    std::fs::write(&path, "x,y,z\n1,10,a\n2,20,a\n3,30,b\n4,40,b\n5,50,c\n").unwrap();

    let handle = start_server();
    let addr = handle.addr();
    let body = format!(
        r#"{{"name":"mini","csv":"{}"}}"#,
        path.display().to_string().replace('\\', "\\\\")
    );
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let listed = request(addr, "GET", "/datasets", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(listed.get("datasets").unwrap().as_array().unwrap().len(), 1);

    // Scope by column *names*, resolved against the CSV header.
    let id = submit_job(
        addr,
        r#"{"dataset":"mini","config":{"epsilon":0.0,"columns":["x","y"]}}"#,
    );
    wait_done(addr, id);
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None)
        .unwrap()
        .json()
        .unwrap();
    // x and y are monotonically correlated: the empty-context OC holds.
    let ocs = result.get("ocs").unwrap().as_array().unwrap();
    assert!(!ocs.is_empty());
    for oc in ocs {
        for key in ["a", "b"] {
            assert!(oc.get(key).unwrap().as_u64().unwrap() <= 1, "scope leaked");
        }
    }
    // Duplicate registration conflicts.
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 409);
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
