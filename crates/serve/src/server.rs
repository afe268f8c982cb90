//! The HTTP server: accept workers, routing, and lifecycle.
//!
//! A [`Server`] binds a `TcpListener` and runs `threads` accept workers,
//! each handling one connection at a time (requests are short: job
//! submission/polling; the only long-lived response is the NDJSON event
//! stream, which a worker serves while the others keep accepting).
//! Discovery itself never runs on an accept worker — the
//! [`JobManager`](crate::jobs::JobManager) spawns one thread per job.
//!
//! Workers block in `accept`. Shutdown (`POST /shutdown` or
//! [`ServerHandle::shutdown`]) stores a flag and then opens one loopback
//! connection per worker: each worker blocked in `accept` takes one, sees
//! the flag and exits, and a worker busy with a request sees the flag when
//! it returns to its loop. Running jobs are then cancelled through their
//! `CancelToken`s, and every thread is joined before `run`/`join` returns
//! — the "clean shutdown" the CI smoke job asserts.

use crate::http::{read_request, write_json, write_response, ChunkedWriter, HttpError, Request};
use crate::jobs::{JobManager, JobSpec, JobStatus};
use crate::metrics::ServeMetrics;
use crate::registry::Registry;
use aod_core::json::{JsonArray, JsonObject, JsonValue};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long an accept worker backs off after a failed `accept` (such as
/// EMFILE), instead of spinning on the error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Upper bound on one shutdown wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How to bind and size a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default loopback).
    pub bind: String,
    /// TCP port (0 = ephemeral, for tests).
    pub port: u16,
    /// Accept-worker threads (0 = one per available core).
    pub threads: usize,
    /// Maximum concurrently running discovery jobs.
    pub max_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: "127.0.0.1".to_string(),
            port: 7171,
            threads: 2,
            max_jobs: 4,
        }
    }
}

/// Shared server state: registry, jobs, metrics, shutdown flag.
struct ServerCtx {
    registry: Registry,
    jobs: JobManager,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    /// Accept-worker count: one wake connection each at shutdown.
    workers: usize,
    /// Where shutdown connects to wake the workers: the bound address,
    /// with an unspecified IP mapped to the loopback address of its family.
    wake_addr: SocketAddr,
}

impl ServerCtx {
    /// Stores the shutdown flag, then opens one loopback connection per
    /// accept worker, so every worker blocked in `accept` wakes, sees the
    /// flag and exits. Connections nobody accepts close with the listener.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..self.workers {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }

    /// The metrics, with the occupancy gauges just set from their owners:
    /// what `GET /stats` and `GET /metrics` read.
    fn read_metrics(&self) -> &ServeMetrics {
        let metrics = &self.metrics;
        metrics.datasets.set(self.registry.len() as u64);
        metrics.jobs_running.set(self.jobs.running());
        metrics.cache_entries.set(self.jobs.cache.len() as u64);
        metrics
    }
}

/// A bound (but not yet serving) discovery service.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Binds the listener; no connections are accepted until
    /// [`run`](Server::run) or [`spawn`](Server::spawn).
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.bind.as_str(), config.port))?;
        let workers = if config.threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.threads
        };
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let metrics = Arc::new(ServeMetrics::new());
        Ok(Server {
            listener,
            ctx: Arc::new(ServerCtx {
                registry: Registry::new(),
                jobs: JobManager::new(config.max_jobs, metrics.clone()),
                metrics,
                shutdown: AtomicBool::new(false),
                workers,
                wake_addr,
            }),
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Pre-registers a CSV dataset before serving (the CLI's positional
    /// arguments).
    pub fn register_csv(&self, name: &str, path: &str) -> Result<(), String> {
        let registered = self.ctx.registry.register_csv(name, path);
        registered.map(drop).map_err(|(_, message)| message)
    }

    /// Serves until shutdown is requested, then joins every worker and
    /// runner thread.
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.join();
        Ok(())
    }

    /// Starts the accept workers and returns a handle (test/embedding
    /// entry point).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let listener = Arc::new(self.listener);
        let mut workers = Vec::with_capacity(self.ctx.workers);
        for i in 0..self.ctx.workers {
            let listener = listener.clone();
            let ctx = self.ctx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aod-serve-{i}"))
                    .spawn(move || accept_loop(&listener, &ctx))?,
            );
        }
        Ok(ServerHandle {
            addr,
            ctx: self.ctx,
            workers,
        })
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`shutdown`](ServerHandle::shutdown) + [`join`](ServerHandle::join) (or
/// just [`join`](ServerHandle::join) to block until an HTTP shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (same as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.ctx.request_shutdown();
    }

    /// Blocks until every accept worker exited (i.e. until shutdown), then
    /// cancels and joins all job threads.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        self.ctx.jobs.shutdown();
    }
}

/// One accept worker: blocks in `accept`, and re-checks the shutdown flag
/// after every accept, so the wake connections of
/// [`ServerCtx::request_shutdown`] end it. A panic while handling a
/// request (a registry/engine bug, not I/O) drops that connection but must
/// not kill the worker — the server keeps serving. A failed accept (such
/// as EMFILE) backs off briefly instead of spinning.
fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if ctx.shutdown.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, ctx);
                }));
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    ctx.metrics.requests.inc();
    match read_request(&mut stream) {
        Ok(request) => route(&mut stream, ctx, &request),
        Err(HttpError::TooLarge) => {
            let _ = write_json(&mut stream, 413, &error_json("request too large"));
        }
        Err(HttpError::Bad(msg)) => {
            let _ = write_json(&mut stream, 400, &error_json(&msg));
        }
        Err(HttpError::Io(_)) => {}
    }
}

fn error_json(message: &str) -> String {
    let mut obj = JsonObject::new();
    obj.str("error", message);
    obj.finish()
}

/// Dispatches one parsed request: resolve the resource first, then the
/// method — a known path with an unsupported method is a 405, not a 404
/// (so clients never mistake a method typo for "resource gone").
/// Responses are written directly to the stream; I/O errors mean the
/// client went away and are ignored.
fn route(stream: &mut TcpStream, ctx: &Arc<ServerCtx>, request: &Request) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let not_allowed =
        |stream: &mut TcpStream| write_json(stream, 405, &error_json("method not allowed"));
    let outcome: Result<(), std::io::Error> = match segments.as_slice() {
        ["health"] => match method {
            "GET" => {
                let mut obj = JsonObject::new();
                obj.str("status", "ok")
                    .num_u64("schema_version", aod_core::SCHEMA_VERSION);
                write_json(stream, 200, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["stats"] => match method {
            "GET" => write_json(stream, 200, &server_stats(ctx)),
            _ => not_allowed(stream),
        },
        ["metrics"] => match method {
            "GET" => write_response(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &ctx.read_metrics().render(),
            ),
            _ => not_allowed(stream),
        },
        ["shutdown"] => match method {
            "POST" => {
                ctx.request_shutdown();
                let mut obj = JsonObject::new();
                obj.str("status", "shutting down");
                write_json(stream, 202, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["datasets"] => match method {
            "POST" => post_datasets(stream, ctx, request),
            "GET" => {
                let mut arr = JsonArray::new();
                for dataset in ctx.registry.list() {
                    arr.push_raw(&dataset.to_json());
                }
                let mut obj = JsonObject::new();
                obj.raw("datasets", &arr.finish());
                write_json(stream, 200, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["datasets", name] => match method {
            "GET" => match ctx.registry.get(name) {
                Some(dataset) => write_json(stream, 200, &dataset.to_json()),
                None => write_json(stream, 404, &error_json(&format!("no dataset `{name}`"))),
            },
            "DELETE" => match ctx.registry.remove(name) {
                Some(dataset) => {
                    let mut obj = JsonObject::new();
                    obj.str("name", &dataset.name).bool("deregistered", true);
                    write_json(stream, 200, &obj.finish())
                }
                None => write_json(stream, 404, &error_json(&format!("no dataset `{name}`"))),
            },
            _ => not_allowed(stream),
        },
        ["jobs"] => match method {
            "POST" => post_jobs(stream, ctx, request),
            _ => not_allowed(stream),
        },
        ["jobs", id] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                write_json(stream, 200, &job.describe())
            }),
            "DELETE" => with_job(stream, ctx, id, |stream, job| {
                let was_running = job.status() == JobStatus::Running;
                job.cancel();
                let mut obj = JsonObject::new();
                obj.num_u64("id", job.id)
                    .bool("cancelled", was_running)
                    .str("status", job.status().wire_name());
                write_json(stream, 202, &obj.finish())
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "result"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| match job.result_json() {
                Some(result) => write_json(stream, 200, &result),
                None => {
                    let status = job.status();
                    write_json(
                        stream,
                        409,
                        &error_json(&format!("job is {}", status.wire_name())),
                    )
                }
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "events"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                stream_events(stream, ctx, &job)
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "trace"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                if job.status() == JobStatus::Running {
                    return write_json(stream, 409, &error_json("job is running"));
                }
                match ctx.jobs.traces.get(job.id) {
                    // The stored bytes verbatim — the same document a
                    // `--trace` file would hold, Perfetto-openable.
                    Some(trace) => write_response(stream, 200, "application/json", &trace),
                    None => write_json(
                        stream,
                        404,
                        &error_json(
                            "job has no trace (not requested, served from cache, or evicted)",
                        ),
                    ),
                }
            }),
            _ => not_allowed(stream),
        },
        _ => write_json(stream, 404, &error_json("no such endpoint")),
    };
    let _ = outcome;
}

/// `GET /stats`: the server-wide series of `GET /metrics`, as JSON.
fn server_stats(ctx: &ServerCtx) -> String {
    let m = ctx.read_metrics();
    let mut obj = JsonObject::new();
    obj.num_u64("requests", m.requests.get())
        .num_u64("datasets", m.datasets.get())
        .num_u64("registry_capacity", m.datasets_capacity.get())
        .num_u64("jobs_submitted", m.jobs_submitted.get())
        .num_u64("jobs_executed", m.jobs_executed.get())
        .num_u64("jobs_rejected", m.jobs_rejected.get())
        .num_u64("jobs_running", m.jobs_running.get())
        .num_u64("cache_hits", m.cache_hits.get())
        .num_u64("cache_misses", m.cache_misses.get())
        .num_u64("cache_entries", m.cache_entries.get());
    obj.finish()
}

/// Parses `{id}`, looks the job up, and 404s when absent.
fn with_job(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    id: &str,
    f: impl FnOnce(&mut TcpStream, Arc<crate::jobs::Job>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| ctx.jobs.get(id)) else {
        return write_json(stream, 404, &error_json(&format!("no job `{id}`")));
    };
    f(stream, job)
}

fn post_datasets(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    request: &Request,
) -> std::io::Result<()> {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    let Some(name) = body.get("name").and_then(|v| v.as_str()) else {
        return write_json(stream, 400, &error_json("missing string field `name`"));
    };
    let registered = match (body.get("csv"), body.get("generate")) {
        (Some(csv), None) => match csv.as_str() {
            Some(path) => ctx.registry.register_csv(name, path),
            None => Err((400, "`csv` must be a file-path string".to_string())),
        },
        (None, Some(generate)) => {
            let kind = generate.get("dataset").and_then(|v| v.as_str());
            let rows = generate
                .get("rows")
                .and_then(|v| v.as_u64())
                .unwrap_or(1000);
            let seed = generate.get("seed").and_then(|v| v.as_u64()).unwrap_or(42);
            // Generation runs synchronously on this accept worker; an
            // unbounded request-controlled row count is a DoS vector.
            const MAX_GENERATED_ROWS: u64 = 10_000_000;
            if rows > MAX_GENERATED_ROWS {
                return write_json(
                    stream,
                    400,
                    &error_json(&format!("`rows` must be at most {MAX_GENERATED_ROWS}")),
                );
            }
            match kind {
                Some(kind) => ctx
                    .registry
                    .register_generated(name, kind, rows as usize, seed),
                None => Err((400, "`generate` needs a `dataset` field".to_string())),
            }
        }
        _ => Err((
            400,
            "provide exactly one of `csv` or `generate`".to_string(),
        )),
    };
    match registered {
        Ok(dataset) => write_json(stream, 201, &dataset.to_json()),
        Err((status, msg)) => write_json(stream, status, &error_json(&msg)),
    }
}

fn post_jobs(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    request: &Request,
) -> std::io::Result<()> {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    let Some(name) = body.get("dataset").and_then(|v| v.as_str()) else {
        return write_json(stream, 400, &error_json("missing string field `dataset`"));
    };
    let Some(dataset) = ctx.registry.get(name) else {
        return write_json(stream, 404, &error_json(&format!("no dataset `{name}`")));
    };
    let empty = JsonValue::Object(Vec::new());
    let config = body.get("config").unwrap_or(&empty);
    let spec = match JobSpec::parse(config, &dataset) {
        Ok(spec) => spec,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    match ctx.jobs.submit(dataset, spec) {
        Ok(job) => {
            let mut obj = JsonObject::new();
            obj.num_u64("id", job.id)
                .str("status", job.status().wire_name())
                .bool("cached", job.cached)
                .raw("config", &job.config);
            write_json(stream, 201, &obj.finish())
        }
        Err((status, msg)) => write_json(stream, status, &error_json(&msg)),
    }
}

fn parse_body(request: &Request) -> Result<JsonValue, String> {
    let text = request.body_str()?;
    if text.trim().is_empty() {
        return Err("request body must be a JSON object".to_string());
    }
    let value = JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    if value.as_object().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    Ok(value)
}

/// Streams the job's NDJSON event log as chunked transfer encoding: replay
/// from the start, then follow live until the log completes (or the server
/// shuts down, which ends the stream cleanly). Each `events_after` batch
/// leaves as one chunk, and the cursor, a byte offset into the log,
/// advances by the text written.
fn stream_events(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    job: &crate::jobs::Job,
) -> std::io::Result<()> {
    let mut writer = ChunkedWriter::begin(stream, 200, "application/x-ndjson")?;
    let mut cursor = 0usize;
    loop {
        let (batch, done) = job.events_after(cursor, Duration::from_millis(100));
        writer.chunk(batch.text())?;
        cursor += batch.text().len();
        if done || ctx.shutdown.load(Ordering::SeqCst) {
            // Drain anything that landed between the last wait and `done`.
            let (rest, _) = job.events_after(cursor, Duration::ZERO);
            writer.chunk(rest.text())?;
            return writer.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, EventStream};
    use aod_core::DiscoveryBuilder;
    use std::io::{Read, Write};
    use std::sync::mpsc;

    /// How long a shutdown may take before the test calls the wake missed.
    const JOIN_LIMIT: Duration = Duration::from_secs(10);
    /// Time for freshly spawned workers to reach `accept`. A worker that
    /// has not yet entered its loop sees the flag without blocking, so
    /// shutting down sooner would leave the wake untested; waiting longer
    /// never changes whether the test passes.
    const SETTLE: Duration = Duration::from_millis(50);

    fn start() -> ServerHandle {
        start_on("127.0.0.1", 2)
    }

    fn start_on(bind: &str, threads: usize) -> ServerHandle {
        let server = Server::bind(&ServeConfig {
            bind: bind.to_string(),
            port: 0,
            threads,
            ..ServeConfig::default()
        })
        .unwrap();
        server.spawn().unwrap()
    }

    /// The address a client dials: the bound one, on loopback.
    fn dial(handle: &ServerHandle) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::LOCALHOST.into(), handle.addr().port())
    }

    /// Joins the server on a helper thread and fails when that takes
    /// longer than [`JOIN_LIMIT`], so a missed wake fails the test instead
    /// of stalling the suite.
    fn join_within_limit(handle: ServerHandle) {
        let (done, joined) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            handle.join();
            let _ = done.send(());
        });
        assert!(
            joined.recv_timeout(JOIN_LIMIT).is_ok(),
            "a worker still runs {JOIN_LIMIT:?} after shutdown"
        );
        joiner.join().unwrap();
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> JsonValue {
        let r = client::request(addr, "POST", path, Some(body)).unwrap();
        assert!(r.status == 201, "{} {}", r.status, r.body);
        r.json().unwrap()
    }

    fn submit(addr: SocketAddr, body: &str) -> u64 {
        post(addr, "/jobs", body)
            .get("id")
            .unwrap()
            .as_u64()
            .unwrap()
    }

    /// A server whose workers all block in `accept`.
    fn start_idle(bind: &str, threads: usize) -> ServerHandle {
        let handle = start_on(bind, threads);
        let health = client::request(dial(&handle), "GET", "/health", None).unwrap();
        assert_eq!(health.status, 200);
        std::thread::sleep(SETTLE);
        handle
    }

    #[test]
    fn shutdown_wakes_every_blocked_worker() {
        for threads in [1, 4] {
            for bind in ["127.0.0.1", "0.0.0.0"] {
                let handle = start_idle(bind, threads);
                handle.shutdown();
                join_within_limit(handle);
                // Through HTTP: the worker serving the request wakes the
                // others and then leaves its own loop.
                let handle = start_idle(bind, threads);
                let bye = client::request(dial(&handle), "POST", "/shutdown", None).unwrap();
                assert_eq!(bye.status, 202, "{threads} workers on {bind}");
                join_within_limit(handle);
            }
        }
    }

    #[test]
    fn http_shutdown_ends_a_live_event_stream() {
        for bind in ["127.0.0.1", "0.0.0.0"] {
            let handle = start_on(bind, 4);
            let addr = dial(&handle);
            post(
                addr,
                "/datasets",
                r#"{"name":"emp","generate":{"dataset":"employee"}}"#,
            );
            let id = submit(
                addr,
                r#"{"dataset":"emp","config":{"epsilon":0.1,"level_delay_ms":60000}}"#,
            );
            let mut events = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
            // A first line means a worker is streaming the paced job.
            assert!(events.next_line().unwrap().is_some());
            let bye = client::request(addr, "POST", "/shutdown", None).unwrap();
            assert_eq!(bye.status, 202);
            join_within_limit(handle);
            // The stream was ended cleanly, with the terminating chunk.
            events.collect_lines().unwrap();
        }
    }

    /// Flight rows and columns for the replay tests: enough for an event
    /// log larger than the chunk buffer and the client's 4 KiB reads.
    const FLIGHT_ROWS: usize = 400;
    const FLIGHT_COLS: usize = 6;

    /// The in-process event lines of the flight job the replay tests run.
    fn in_process_replay() -> Vec<String> {
        let table = aod_datagen::flight::flight(1).ranked(FLIGHT_ROWS);
        let mut session = DiscoveryBuilder::new()
            .approximate(0.1)
            .scope(0..FLIGHT_COLS)
            .build(&table);
        session.by_ref().map(|event| event.to_json()).collect()
    }

    fn flight_job(addr: SocketAddr, level_delay_ms: u64) -> u64 {
        let columns: Vec<String> = (0..FLIGHT_COLS).map(|c| c.to_string()).collect();
        submit(
            addr,
            &format!(
                r#"{{"dataset":"fl","config":{{"epsilon":0.1,"columns":[{}],"level_delay_ms":{level_delay_ms}}}}}"#,
                columns.join(",")
            ),
        )
    }

    /// Splits a raw chunked body into its data chunks; the terminating
    /// zero-size chunk must end the body exactly.
    fn chunks(mut body: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        loop {
            let line_end = body.windows(2).position(|w| w == b"\r\n").unwrap();
            let size_text = std::str::from_utf8(&body[..line_end]).unwrap();
            let size = usize::from_str_radix(size_text, 16).unwrap();
            body = &body[line_end + 2..];
            if size == 0 {
                assert_eq!(body, b"\r\n", "bytes after the terminating chunk");
                return out;
            }
            out.push(&body[..size]);
            assert_eq!(&body[size..size + 2], b"\r\n");
            body = &body[size + 2..];
        }
    }

    #[test]
    fn a_finished_replay_is_one_chunk() {
        let handle = start();
        let addr = handle.addr();
        post(
            addr,
            "/datasets",
            &format!(
                r#"{{"name":"fl","generate":{{"dataset":"flight","rows":{FLIGHT_ROWS},"seed":1}}}}"#
            ),
        );
        let id = flight_job(addr, 0);
        handle.ctx.jobs.get(id).unwrap().wait_done();
        let replay = in_process_replay();

        let mut raw_stream = TcpStream::connect(addr).unwrap();
        write!(
            raw_stream,
            "GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        let mut raw = Vec::new();
        raw_stream.read_to_end(&mut raw).unwrap();
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let chunks = chunks(&raw[head_end + 4..]);
        assert_eq!(chunks.len(), 1, "a finished replay is one data chunk");
        let data = std::str::from_utf8(chunks[0]).unwrap();
        assert!(data.len() > 8 * 1024, "log of {} bytes", data.len());
        let lines: Vec<&str> = data.split_terminator('\n').collect();
        assert_eq!(lines, replay, "replay != in-process run");

        // A paced job, read while it runs, decodes to the same lines.
        let live = flight_job(addr, 20);
        let mut events = EventStream::open(addr, &format!("/jobs/{live}/events")).unwrap();
        assert_eq!(events.collect_lines().unwrap(), replay);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn health_and_shutdown_round_trip() {
        let handle = start();
        let addr = handle.addr();
        let health = client::request(addr, "GET", "/health", None).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(
            health.json().unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
        let bye = client::request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(bye.status, 202);
        // Every worker joins — the clean-shutdown guarantee.
        handle.join();
    }

    #[test]
    fn unknown_endpoints_are_404() {
        let handle = start();
        let addr = handle.addr();
        for path in ["/nope", "/jobs/1/nope", "/datasets/extra/deep"] {
            let r = client::request(addr, "GET", path, None).unwrap();
            assert_eq!(r.status, 404, "{path}");
        }
        // Known resources with an unsupported method are 405, not 404.
        for (method, path) in [
            ("PUT", "/jobs"),
            ("DELETE", "/health"),
            ("GET", "/shutdown"),
            ("PUT", "/datasets/whatever"),
            ("POST", "/jobs/1/events"),
        ] {
            let r = client::request(addr, method, path, None).unwrap();
            assert_eq!(r.status, 405, "{method} {path}");
        }
        handle.shutdown();
        handle.join();
    }
}
