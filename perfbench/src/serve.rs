//! The `serve-mix` workload: one closed-loop client against a server
//! process on loopback. Each fresh job misses the result cache with a new
//! ε; an exact repeat of it follows and hits the cache.

use crate::batch::{discover, load};
use crate::clock::{now_us, secs_since};
use crate::digest::{fnv1a, Digest};
use crate::inputs::serve_epsilon;
use crate::layers::{figures, traced_run};
use crate::recorded::recorded_digest;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, tail_percentile};
use aod_core::json::{JsonObject, JsonValue};
use aod_serve::client::{request, EventStream};
use aod_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Fresh jobs per run (each followed by one cache hit): the least count
/// that leaves ten samples beyond the 90th percentile.
pub const FRESH_JOBS: usize = 100;
/// Server starts per untraced run; the median start-up is reported.
const SETUP_REPS: usize = 7;
const DATASET: &str = "mix";

/// The server process: binds an ephemeral loopback port, prints its
/// address on the first line of stdout, and serves until `POST /shutdown`.
pub fn server_main() -> Result<(), String> {
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        max_jobs: 4,
    })
    .map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{addr}");
    server.run().map_err(|e| e.to_string())
}

struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server process and registers the CSV dataset; returns
    /// once the registration is answered.
    fn start(csv: &Path) -> Result<(ServerProc, f64), String> {
        let t0 = now_us();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("server")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("server stdout is not piped")?;
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let proc = match line.trim().parse() {
            Ok(addr) => ServerProc { child, addr },
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no address: {line:?}"));
            }
        };
        let mut body = JsonObject::new();
        body.str("name", DATASET)
            .str("csv", &csv.display().to_string());
        let r = request(proc.addr, "POST", "/datasets", Some(&body.finish()));
        match r {
            Ok(r) if r.status == 201 => Ok((proc, secs_since(t0))),
            other => {
                let msg = format!("registering the dataset: {other:?}");
                proc.stop();
                Err(msg)
            }
        }
    }

    /// Asks the server to shut down and waits for the process to end.
    fn stop(mut self) {
        if request(self.addr, "POST", "/shutdown", None).is_ok() {
            let _ = self.child.wait();
        }
    }
}

impl Drop for ServerProc {
    /// Never leaves the server running, even when the client side fails:
    /// a no-op after a clean `stop`.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One job's round trips, measured from the client.
struct JobRun {
    cached: bool,
    total_ms: f64,
    post_ms: f64,
    events_ms: f64,
    result_ms: f64,
    n_events: usize,
    result: String,
}

fn ms_between(start_us: u64, end_us: u64) -> f64 {
    end_us.saturating_sub(start_us) as f64 / 1e3
}

/// `POST /jobs`, then the event stream to its end, then the result.
fn job(addr: SocketAddr, body: &str) -> Result<JobRun, String> {
    let t0 = now_us();
    let post = request(addr, "POST", "/jobs", Some(body)).map_err(|e| e.to_string())?;
    if post.status != 201 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            post.status, post.body
        ));
    }
    let v = post.json().map_err(|e| format!("{e:?}"))?;
    let id = v.get("id").and_then(JsonValue::as_u64).ok_or("no job id")?;
    let cached = v
        .get("cached")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let t1 = now_us();
    let events = EventStream::open(addr, &format!("/jobs/{id}/events"))
        .and_then(|mut s| s.collect_lines())
        .map_err(|e| e.to_string())?;
    let t2 = now_us();
    let result =
        request(addr, "GET", &format!("/jobs/{id}/result"), None).map_err(|e| e.to_string())?;
    let t3 = now_us();
    if result.status != 200 {
        return Err(format!("GET result answered {}", result.status));
    }
    Ok(JobRun {
        cached,
        total_ms: ms_between(t0, t3),
        post_ms: ms_between(t0, t1),
        events_ms: ms_between(t1, t2),
        result_ms: ms_between(t2, t3),
        n_events: events.len(),
        result: result.body,
    })
}

/// Zeroes every `*_ms` field, the one documented nondeterminism of the
/// wire encoding, and re-encodes.
fn sans_timings(json: &str) -> Option<String> {
    fn zero(value: &mut JsonValue) {
        match value {
            JsonValue::Object(fields) => {
                for (key, field) in fields.iter_mut() {
                    if key.ends_with("_ms") {
                        *field = JsonValue::Number(0.0);
                    } else {
                        zero(field);
                    }
                }
            }
            JsonValue::Array(items) => items.iter_mut().for_each(zero),
            _ => {}
        }
    }
    let mut v = JsonValue::parse(json).ok()?;
    zero(&mut v);
    Some(v.to_json())
}

/// The in-process run of one job config on the same table.
struct Reference {
    body: String,
    wire: String,
    digest: Digest,
    secs: f64,
}

/// The in-process run of the `i`-th of `n` fresh job configs.
fn reference(table: &aod_table::RankedTable, i: usize, n: usize) -> Reference {
    let epsilon = serve_epsilon(i, n);
    let (result, secs) = discover(table, epsilon, 1);
    let mut config = JsonObject::new();
    config.num_f64("epsilon", epsilon);
    let mut body = JsonObject::new();
    body.str("dataset", DATASET).raw("config", &config.finish());
    Reference {
        body: body.finish(),
        wire: sans_timings(&result.to_json()).unwrap_or_default(),
        digest: Digest::of(&result),
        secs,
    }
}

/// What the closed loop measured.
#[derive(Default)]
struct Load {
    fresh: Vec<JobRun>,
    hits: Vec<JobRun>,
    health_ms: Vec<f64>,
    /// Fresh-job latency minus the in-process run of the same config.
    overhead_ms: Vec<f64>,
    /// Jobs attempted, and those that failed or answered wrongly.
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Fresh jobs whose in-process references are made together, just before
/// the jobs are timed. Alternating the two spreads the timed jobs over
/// the whole run, so a slow spell of the machine weighs less.
const CHUNK: usize = 10;

/// Runs `n` fresh jobs, each followed by its cache hit, against the
/// server at `addr`; checks every answer against the in-process run of
/// its config on `table`. `GET /health` is probed before each pair when
/// `probe_health` is set.
fn closed_loop(
    addr: SocketAddr,
    table: &aod_table::RankedTable,
    n: usize,
    probe_health: bool,
) -> (Vec<Reference>, Load) {
    let mut load = Load::default();
    let mut refs = Vec::with_capacity(n);
    for first in (0..n).step_by(CHUNK) {
        let chunk: Vec<Reference> = (first..n.min(first + CHUNK))
            .map(|i| reference(table, i, n))
            .collect();
        for r in &chunk {
            load.pair(addr, r, probe_health);
        }
        refs.extend(chunk);
    }
    (refs, load)
}

impl Load {
    /// One fresh job and its cache hit, both checked against `r`.
    fn pair(&mut self, addr: SocketAddr, r: &Reference, probe_health: bool) {
        if probe_health {
            let t = now_us();
            if request(addr, "GET", "/health", None).is_ok_and(|h| h.status == 200) {
                self.health_ms.push(ms_between(t, now_us()));
            }
        }
        for want_cached in [false, true] {
            self.attempted += 1;
            let outcome = job(addr, &r.body).and_then(|run| {
                if run.cached != want_cached {
                    Err(format!(
                        "job cached = {}, expected {want_cached}",
                        run.cached
                    ))
                } else if sans_timings(&run.result).as_deref() != Some(r.wire.as_str()) {
                    Err(format!(
                        "result of {} differs from the in-process run",
                        r.body
                    ))
                } else {
                    Ok(run)
                }
            });
            match outcome {
                Ok(run) if want_cached => self.hits.push(run),
                Ok(run) => {
                    self.overhead_ms.push(run.total_ms - r.secs * 1e3);
                    self.fresh.push(run);
                }
                Err(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert(e);
                }
            }
        }
    }
}

/// Digest over every fresh config's output, in job order.
fn mix_digest(refs: &[Reference]) -> String {
    let all: String = refs.iter().map(|r| r.digest.text() + "\n").collect();
    format!("jobs:{}:{:016x}", refs.len(), fnv1a(all.as_bytes()))
}

fn check_outputs(report: &mut Report, seed: u64, refs: &[Reference], load: &Load) {
    let digest = mix_digest(refs);
    if let Some(expected) = recorded_digest("serve-mix", seed) {
        let ok = expected == digest;
        report.check("recorded_digest", ok, format!("recorded {expected}"));
        if !ok {
            report.failed = load.attempted;
        }
    }
    report.facts.push(("digest", digest));
    report.check(
        "jobs_match_in_process",
        load.failed == 0,
        load.first_error.clone().unwrap_or_default(),
    );
}

fn field(runs: &[JobRun], f: impl Fn(&JobRun) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

/// The untraced run: server start-up, then the closed loop.
pub fn run(csv: &Path, seed: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            ServerProc::stop(previous);
        }
        let (proc, secs) = ServerProc::start(csv)?;
        setup.push(secs);
        server = Some(proc);
    }
    let server = server.expect("at least one start");
    let loaded = match load(csv, 1) {
        Ok(loaded) => loaded,
        Err(e) => {
            server.stop();
            return Err(e);
        }
    };
    let (refs, load) = closed_loop(server.addr, &loaded.ranked, FRESH_JOBS, false);
    let rss = peak_rss_mb(Some(server.child.id()));
    server.stop();

    report.attempted = load.attempted;
    report.failed = load.failed;
    check_outputs(&mut report, seed, &refs, &load);
    report.add("setup_s", setup);
    report.add("discover_s", field(&load.fresh, |j| j.total_ms / 1e3));
    report.add(
        "peak_rss_mb",
        vec![rss.ok_or("peak RSS is unavailable on this platform")?],
    );
    Ok(report)
}

/// The traced run: in-process references untraced and traced, then the
/// closed loop with every round trip broken out.
pub fn run_traced(csv: &Path, seed: u64, trace_out: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (server, _) = ServerProc::start(csv)?;
    let loaded = match load(csv, 3) {
        Ok(loaded) => loaded,
        Err(e) => {
            server.stop();
            return Err(e);
        }
    };
    let (refs, load) = closed_loop(server.addr, &loaded.ranked, FRESH_JOBS, true);
    let traced: Vec<_> = (0..FRESH_JOBS)
        .map(|i| traced_run(&loaded.ranked, serve_epsilon(i, FRESH_JOBS), 1))
        .collect();
    server.stop();

    report.attempted = load.attempted + traced.len() as u64;
    report.failed = load.failed;
    check_outputs(&mut report, seed, &refs, &load);
    let unchanged = traced
        .iter()
        .zip(&refs)
        .filter(|(t, r)| Digest::of(&t.result) == r.digest && t.sink.dropped() == 0)
        .count();
    let disturbed = (traced.len() - unchanged) as u64;
    report.failed += disturbed;
    report.check(
        "trace_passive",
        disturbed == 0,
        format!("{disturbed} traced runs changed output or dropped spans"),
    );
    let trace: String = traced.iter().map(|t| t.ndjson()).collect();
    std::fs::write(trace_out, trace)
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    report
        .facts
        .push(("trace_file", trace_out.display().to_string()));

    let in_process_s: f64 = refs.iter().map(|r| r.secs).sum();
    let traced_s: f64 = traced.iter().map(|t| t.discover_s()).sum();
    let fresh_ms = field(&load.fresh, |j| j.total_ms);
    let hit_ms = field(&load.hits, |j| j.total_ms);
    let (job_p50, hit_p50) = (median(&fresh_ms), median(&hit_ms));
    let overhead_p50 = median(&load.overhead_ms);
    report.why = vec![
        ("hit_p50_ms < job_p50_ms", hit_p50 < job_p50),
        (
            "serve.overhead_ms > 0",
            overhead_p50.is_some_and(|o| o > 0.0),
        ),
    ];
    report.numbers.push(("in_process_s", in_process_s));
    let all: Vec<&JobRun> = load.fresh.iter().chain(&load.hits).collect();
    let per_job = |f: fn(&JobRun) -> f64| all.iter().map(|j| f(j)).collect::<Vec<f64>>();
    report.add_figures([
        ("table.parse_s", median(&loaded.parse_s).unwrap_or(0.0)),
        ("table.rank_s", median(&loaded.rank_s).unwrap_or(0.0)),
        (
            "table.csv_mb",
            std::fs::metadata(csv).map_or(0.0, |m| m.len() as f64 / 1e6),
        ),
        (
            "serve.job_p90_ms",
            tail_percentile(&fresh_ms, 0.9).unwrap_or(0.0),
        ),
        (
            "serve.hit_p90_ms",
            tail_percentile(&hit_ms, 0.9).unwrap_or(0.0),
        ),
        ("obs.trace_overhead_frac", traced_s / in_process_s - 1.0),
    ]);
    report.add("serve.job_p50_ms", fresh_ms);
    report.add("serve.hit_p50_ms", hit_ms);
    report.add("serve.post_ms", per_job(|j| j.post_ms));
    report.add("serve.result_ms", per_job(|j| j.result_ms));
    report.add("serve.replay_ms", field(&load.hits, |j| j.events_ms));
    report.add("serve.events_per_job", per_job(|j| j.n_events as f64));
    report.add("serve.result_kb", per_job(|j| j.result.len() as f64 / 1e3));
    report.add("serve.health_ms", load.health_ms);
    report.add("serve.overhead_ms", load.overhead_ms);
    report.add_figures(figures(&traced));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Input;

    /// A small twin of `serve-mix` through an in-process server: every
    /// fresh job and every cache hit answers exactly the in-process run.
    #[test]
    fn serve_twin_matches_in_process_runs() {
        let input = Input {
            rows: 1_000,
            cols: 8,
            dirty: false,
        };
        let dir = std::env::temp_dir().join(format!("perfbench-twin-{}", std::process::id()));
        let csv = input.write_csv(&dir, 3).unwrap();
        let server = Server::bind(&ServeConfig {
            bind: "127.0.0.1".to_string(),
            port: 0,
            threads: 2,
            max_jobs: 4,
        })
        .unwrap();
        server
            .register_csv(DATASET, &csv.display().to_string())
            .unwrap();
        let handle = server.spawn().unwrap();
        let (refs, load) = closed_loop(handle.addr(), &load(&csv, 1).unwrap().ranked, 4, true);
        assert_eq!(refs.len(), 4);
        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.first_error, None);
        assert_eq!((load.attempted, load.failed), (8, 0));
        assert_eq!((load.fresh.len(), load.hits.len()), (4, 4));
        assert!(load.hits.iter().all(|j| j.cached && j.n_events > 0));
        assert_eq!(load.health_ms.len(), 4);
    }
}
