//! The job manager: JSON configs in, background discovery sessions out.
//!
//! A `POST /jobs` body is parsed into a [`JobSpec`] (strictly — unknown
//! keys, bad types and out-of-range values are 400s, mirroring the CLI's
//! unknown-flag discipline), canonicalized into the result-cache key, and
//! either replayed from the [`ResultCache`] or run on a background thread
//! as a streaming `DiscoverySession`:
//!
//! * every emitted `DiscoveryEvent` is serialized once (via the stable
//!   [`aod_core::wire`] encoding) into the job's [`EventLog`], one NDJSON
//!   buffer that `GET /jobs/{id}/events` streams — including to clients
//!   that attach mid-run or after completion (the log replays from the
//!   start);
//! * `DELETE /jobs/{id}` fires the session's `CancelToken`; the engine
//!   stops at the next node boundary and the job finishes with partial,
//!   well-formed results flagged `stopped_early`;
//! * a finished run is one [`CachedRun`] record — event log, result and
//!   stats — that the job shares with the cache when the run is complete
//!   (not partial), so an identical later request is answered from the
//!   same record without re-validating anything.

use crate::cache::{CachedRun, ResultCache};
use crate::metrics::ServeMetrics;
use crate::registry::Dataset;
use crate::sync::{lock_or_recover, wait_or_recover, wait_timeout_or_recover};
use aod_core::json::{JsonArray, JsonObject, JsonValue};
use aod_core::{AocStrategy, CancelToken, DiscoveryBuilder, DiscoveryEvent};
use aod_obs::TraceSink;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The discovery session is running (or about to).
    Running,
    /// Finished with a well-formed (possibly partial) result.
    Done,
    /// The runner thread failed; see the job's `error`.
    Failed,
}

impl JobStatus {
    /// Stable wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A fully validated, canonicalized job request.
///
/// Plain data (`Send`), so the runner thread can rebuild the
/// `DiscoveryBuilder` on its side of the spawn.
#[derive(Debug, Clone)]
pub struct JobSpec {
    epsilon: f64,
    strategy: AocStrategy,
    max_level: Option<usize>,
    timeout_ms: Option<u64>,
    top_k: Option<usize>,
    threads: usize,
    columns: Option<Vec<usize>>,
    /// Artificial pause between lattice levels — a pacing/debug knob that
    /// makes cooperative cancellation deterministic to exercise.
    level_delay_ms: u64,
    /// Record a span trace of the run, served by `GET /jobs/{id}/trace`.
    /// Part of the canonical form (a traced run is a distinct cache
    /// entry); a traced job answered from a *cached* traced run carries no
    /// trace of its own — the trace belongs to the job that executed.
    trace: bool,
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` `config` object against a
    /// dataset (column names resolve against its schema). Errors are
    /// user-facing 400 texts.
    pub fn parse(config: &JsonValue, dataset: &Dataset) -> Result<JobSpec, String> {
        let fields = config
            .as_object()
            .ok_or_else(|| "`config` must be a JSON object".to_string())?;
        const KNOWN: &[&str] = &[
            "epsilon",
            "strategy",
            "max_level",
            "timeout_ms",
            "top_k",
            "threads",
            "columns",
            "level_delay_ms",
            "trace",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown config field `{key}` (known: {})",
                    KNOWN.join(", ")
                ));
            }
        }

        // A missing `epsilon` is exact discovery, the threshold 0.
        let epsilon = match config.get("epsilon") {
            None => 0.0,
            Some(v) => {
                let e = v
                    .as_f64()
                    .ok_or_else(|| "`epsilon` must be a number".to_string())?;
                if !(0.0..=1.0).contains(&e) {
                    return Err(format!("`epsilon`: {e} is not within [0, 1]"));
                }
                e
            }
        };

        let uint = |key: &str| -> Result<Option<u64>, String> {
            match config.get(key) {
                None => Ok(None),
                Some(v) if v.is_null() => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };

        // One shared name→strategy mapping with the CLI
        // (`AocStrategy::from_name`), so the accepted set can't drift
        // between surfaces.
        let strategy = match config.get("strategy") {
            None => AocStrategy::Optimal,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| "`strategy` must be \"optimal\" or \"iterative\"".to_string())?;
                AocStrategy::from_name(name)?
            }
        };
        // `-0` is the threshold 0, and at a budget of 0 both validators are
        // the same exact check: every spelling of the ε = 0 run has one
        // canonical form, one cache entry, and echoes `"epsilon":0` with
        // the optimal strategy.
        let (epsilon, strategy) = if epsilon == 0.0 {
            (0.0, AocStrategy::Optimal)
        } else {
            (epsilon, strategy)
        };
        let max_level = uint("max_level")?.map(|v| v as usize);
        if max_level == Some(0) {
            return Err("`max_level` must be at least 1".to_string());
        }
        let timeout_ms = uint("timeout_ms")?;
        let top_k = uint("top_k")?.map(|v| v as usize);
        if top_k == Some(0) {
            return Err("`top_k` must be at least 1".to_string());
        }
        let threads = uint("threads")?.map_or(1, |v| v as usize);
        if threads > 256 {
            // The engine forks one validator backend per worker up front;
            // an unbounded request-controlled count is a DoS vector.
            return Err("`threads` must be at most 256 (0 = one per core)".to_string());
        }
        let level_delay_ms = uint("level_delay_ms")?.unwrap_or(0);
        if level_delay_ms > 60_000 {
            return Err("`level_delay_ms` must be at most 60000".to_string());
        }
        let trace = match config.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "`trace` must be a boolean".to_string())?,
        };

        let columns = match config.get("columns") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| "`columns` must be an array".to_string())?;
                if items.is_empty() {
                    return Err("`columns` must not be empty".to_string());
                }
                let mut indices = Vec::with_capacity(items.len());
                for item in items {
                    let idx = match item {
                        JsonValue::String(name) => dataset
                            .column_index(name)
                            .ok_or_else(|| format!("unknown column `{name}`"))?,
                        JsonValue::Number(_) => {
                            let idx = item.as_u64().ok_or_else(|| {
                                "`columns` entries must be names or indices".to_string()
                            })? as usize;
                            if idx >= dataset.table.n_cols() {
                                return Err(format!(
                                    "column index {idx} out of range (dataset has {} columns)",
                                    dataset.table.n_cols()
                                ));
                            }
                            idx
                        }
                        _ => return Err("`columns` entries must be names or indices".to_string()),
                    };
                    indices.push(idx);
                }
                indices.sort_unstable();
                indices.dedup();
                Some(indices)
            }
        };

        Ok(JobSpec {
            epsilon,
            strategy,
            max_level,
            timeout_ms,
            top_k,
            threads,
            columns,
            level_delay_ms,
            trace,
        })
    }

    /// The canonicalized config: every field present, fixed order,
    /// defaults resolved, columns as sorted indices. Two requests mean the
    /// same run iff their canonical forms are byte-equal — this is the
    /// config half of the result-cache key. The strategy is part of the
    /// form, so optimal and iterative runs at ε > 0 never share a cache
    /// entry.
    pub fn canonical(&self) -> String {
        let mut obj = JsonObject::new();
        obj.num_f64("epsilon", self.epsilon)
            .str("strategy", self.strategy.name())
            .opt_u64("max_level", self.max_level.map(|v| v as u64))
            .opt_u64("timeout_ms", self.timeout_ms)
            .opt_u64("top_k", self.top_k.map(|v| v as u64))
            .num_u64("threads", self.threads as u64);
        match &self.columns {
            None => obj.null("columns"),
            Some(cols) => {
                let mut arr = JsonArray::new();
                for &c in cols {
                    arr.push_u64(c as u64);
                }
                obj.raw("columns", &arr.finish())
            }
        };
        obj.num_u64("level_delay_ms", self.level_delay_ms);
        obj.bool("trace", self.trace);
        obj.finish()
    }

    /// Builds the discovery builder this spec encodes (called on the
    /// runner thread; `DiscoveryBuilder` itself is not `Send`).
    fn to_builder(&self, cancel: CancelToken) -> DiscoveryBuilder {
        let mut b = DiscoveryBuilder::new()
            .approximate(self.epsilon)
            .strategy(self.strategy);
        if let Some(level) = self.max_level {
            b = b.max_level(level);
        }
        if let Some(ms) = self.timeout_ms {
            b = b.timeout(Duration::from_millis(ms));
        }
        if let Some(k) = self.top_k {
            b = b.top_k(k);
        }
        if let Some(cols) = &self.columns {
            b = b.scope(cols.iter().copied());
        }
        b.parallelism(self.threads).cancel_token(cancel)
    }
}

/// A job's event log: append-only NDJSON text, every line ending in
/// `\n`, and its line count.
///
/// Readers resume at a byte offset: the lengths of the batches a streamer
/// has written add up to a line boundary, so the log keeps no per-line
/// offsets. A finished log is shared by `Arc` — between its job, its
/// [`CachedRun`] and every replay — and never copied. Only the runner
/// appends, and it stays the log's only owner while it does, because
/// [`Job::events_after`] copies a live log's tail instead of sharing it.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    text: String,
    lines: usize,
}

impl EventLog {
    /// Appends one event line (`line` holds no newline).
    pub fn push(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
        self.lines += 1;
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// `true` when no line was pushed.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// The NDJSON text from byte `from` on: whole lines when `from` is a
    /// line boundary, and empty at or past the end.
    pub fn text_from(&self, from: usize) -> &str {
        self.text.get(from..).unwrap_or_default()
    }
}

/// Event lines handed out by [`Job::events_after`], as NDJSON text.
#[derive(Debug)]
pub struct EventBatch {
    text: BatchText,
}

#[derive(Debug)]
enum BatchText {
    /// A finished log, shared: the batch is its text from this byte on.
    Shared(Arc<EventLog>, usize),
    /// The new tail of a live log, copied out.
    Copied(String),
}

impl EventBatch {
    /// The lines as NDJSON text, each ending in `\n`.
    pub fn text(&self) -> &str {
        match &self.text {
            BatchText::Shared(log, from) => log.text_from(*from),
            BatchText::Copied(text) => text,
        }
    }

    /// `true` when the batch holds no line.
    pub fn is_empty(&self) -> bool {
        self.text().is_empty()
    }
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    levels_completed: usize,
    /// `Arc` so a finished log is shared, not copied, by the job's run
    /// record, by the cache and by replays; a live runner is the unique
    /// owner, so `Arc::make_mut` appends in place.
    events: Arc<EventLog>,
    /// The finished run's record, once done.
    run: Option<Arc<CachedRun>>,
    error: Option<String>,
}

/// One submitted discovery job.
#[derive(Debug)]
pub struct Job {
    /// Job id (sequential, unique per server).
    pub id: u64,
    /// The dataset the job runs on.
    pub dataset: String,
    /// Canonicalized config (see [`JobSpec::canonical`]).
    pub config: String,
    /// `true` when the job was answered from the result cache.
    pub cached: bool,
    cancel: CancelToken,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl Job {
    fn new(id: u64, dataset: &str, config: String, cached: bool) -> Job {
        Job {
            id,
            dataset: dataset.to_string(),
            config,
            cached,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Running,
                levels_completed: 0,
                events: Arc::new(EventLog::default()),
                run: None,
                error: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        lock_or_recover(&self.state).status
    }

    /// Requests cooperative cancellation (idempotent).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The completed result's JSON, once done.
    pub fn result_json(&self) -> Option<Arc<String>> {
        let state = lock_or_recover(&self.state);
        state.run.as_ref().map(|run| Arc::clone(&run.result_json))
    }

    /// Status + progress description (`GET /jobs/{id}`).
    pub fn describe(&self) -> String {
        let state = lock_or_recover(&self.state);
        let mut obj = JsonObject::new();
        obj.num_u64("id", self.id)
            .str("dataset", &self.dataset)
            .str("status", state.status.wire_name())
            .bool("cached", self.cached)
            .bool("cancel_requested", self.cancel.is_cancelled())
            .num_u64("levels_completed", state.levels_completed as u64)
            .num_u64("n_events", state.events.len() as u64)
            .raw("config", &self.config);
        match &state.run {
            Some(run) => obj.raw("stats", &run.stats_json),
            None => obj.null("stats"),
        };
        match &state.error {
            Some(error) => obj.str("error", error),
            None => obj.null("error"),
        };
        obj.finish()
    }

    /// Event text from byte `from` onward, plus whether the log is
    /// complete (the job left `Running`). A streamer resumes at the sum of
    /// the text lengths it was handed. Blocks up to `wait` for news when
    /// there is none yet; a live job signals news once per completed level
    /// and when it ends, so a streamer gets a level's lines in one batch. A
    /// finished log's lines are handed out without copying; a live log's
    /// new tail is copied, so the runner stays the log's only owner.
    pub fn events_after(&self, from: usize, wait: Duration) -> (EventBatch, bool) {
        let state = lock_or_recover(&self.state);
        let state = if state.status == JobStatus::Running && state.events.text_from(from).is_empty()
        {
            wait_timeout_or_recover(&self.cond, state, wait)
        } else {
            state
        };
        let done = state.status != JobStatus::Running;
        let text = if done {
            BatchText::Shared(Arc::clone(&state.events), from)
        } else {
            BatchText::Copied(state.events.text_from(from).to_string())
        };
        (EventBatch { text }, done)
    }

    /// Blocks until the job leaves `Running` (test/smoke convenience).
    pub fn wait_done(&self) {
        let mut state = lock_or_recover(&self.state);
        while state.status == JobStatus::Running {
            state = wait_or_recover(&self.cond, state);
        }
    }

    /// Appends one event line. Streamers wake once per level, on the line
    /// that completes it: a session steps a whole level before its events
    /// come out, ending in that level's `LevelComplete`, so waking on each
    /// line would only make a streamer contend with the runner for the
    /// state lock and copy one line at a time. A run's last lines (a stop
    /// event) wake streamers through `finish` or `fail`.
    fn push_event(&self, line: &str, level_completed: bool) {
        let mut state = lock_or_recover(&self.state);
        Arc::make_mut(&mut state.events).push(line);
        if level_completed {
            state.levels_completed += 1;
            self.cond.notify_all();
        }
    }

    /// The one transition to `Done`: the job serves `run`'s log, result
    /// and stats from here on, whether it ran them or was answered from
    /// the cache.
    fn finish(&self, run: Arc<CachedRun>) {
        let mut state = lock_or_recover(&self.state);
        state.status = JobStatus::Done;
        state.events = Arc::clone(&run.events);
        state.levels_completed = run.levels_completed;
        state.run = Some(run);
        self.cond.notify_all();
    }

    fn fail(&self, message: String) {
        let mut state = lock_or_recover(&self.state);
        state.status = JobStatus::Failed;
        state.error = Some(message);
        self.cond.notify_all();
    }
}

/// How many job traces are retained, independently of
/// [`MAX_RETAINED_JOBS`] — a serialized trace is the largest per-job
/// payload (its sink keeps every span, so it grows with the job's lattice
/// nodes, as the job's event log does), so its bound is much tighter.
pub const MAX_RETAINED_TRACES: usize = 64;

/// How many bytes of serialized traces are retained. The count bound alone
/// does not bound memory: a `max_level` 4 trace of flight 2,000 × 35 with
/// OFDs is 11.9 MB.
pub const MAX_RETAINED_TRACE_BYTES: usize = 64 << 20;

/// Bounded per-job trace retention: serialized Chrome-trace documents
/// keyed by job id, evicted oldest-first while more than
/// [`MAX_RETAINED_TRACES`] traces or [`MAX_RETAINED_TRACE_BYTES`] bytes
/// are held — the same FIFO discipline as the [`ResultCache`]. A trace
/// larger than the whole byte budget is not kept.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<TraceStoreInner>,
}

#[derive(Debug, Default)]
struct TraceStoreInner {
    map: HashMap<u64, Arc<String>>,
    /// Insertion order (job ids), the FIFO eviction queue.
    order: VecDeque<u64>,
    /// Total length of the traces in `map`.
    bytes: usize,
}

impl TraceStore {
    /// Stores one finished job's serialized trace, evicting the oldest
    /// stored traces beyond the retention bounds. A trace over the byte
    /// budget is dropped, and evicts nothing.
    pub fn store(&self, job_id: u64, trace: Arc<String>) {
        if trace.len() > MAX_RETAINED_TRACE_BYTES {
            return;
        }
        let mut inner = lock_or_recover(&self.inner);
        inner.bytes += trace.len();
        match inner.map.insert(job_id, trace) {
            Some(replaced) => inner.bytes -= replaced.len(),
            None => inner.order.push_back(job_id),
        }
        while inner.map.len() > MAX_RETAINED_TRACES || inner.bytes > MAX_RETAINED_TRACE_BYTES {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&oldest) {
                inner.bytes -= evicted.len();
            }
        }
    }

    /// The stored trace for a job, if still retained.
    pub fn get(&self, job_id: u64) -> Option<Arc<String>> {
        lock_or_recover(&self.inner).map.get(&job_id).cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).map.len()
    }

    /// `true` when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Owns all jobs, their runner threads, and the result cache.
#[derive(Debug)]
pub struct JobManager {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    max_jobs: usize,
    /// The shared result cache.
    pub cache: Arc<ResultCache>,
    /// Bounded retention of per-job traces (`GET /jobs/{id}/trace`).
    pub traces: Arc<TraceStore>,
    metrics: Arc<ServeMetrics>,
}

impl JobManager {
    /// A manager allowing at most `max_jobs` concurrently running jobs,
    /// counting into the server-wide series of `metrics`: submitted,
    /// executed and rejected jobs, and the result cache's hits and misses.
    /// Each runner records its job's latency in the dataset's histogram,
    /// and its session feeds the dataset's discovery instruments and
    /// queue-depth gauge.
    pub fn new(max_jobs: usize, metrics: Arc<ServeMetrics>) -> JobManager {
        JobManager {
            jobs: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            max_jobs: max_jobs.max(1),
            cache: Arc::new(ResultCache::new(
                metrics.cache_hits.clone(),
                metrics.cache_misses.clone(),
            )),
            traces: Arc::new(TraceStore::default()),
            metrics,
        }
    }

    /// Jobs currently in the `Running` state.
    pub fn running(&self) -> u64 {
        lock_or_recover(&self.jobs)
            .values()
            .filter(|j| j.status() == JobStatus::Running)
            .count() as u64
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock_or_recover(&self.jobs).get(&id).cloned()
    }

    /// Submits a job: serves it from the cache when possible, otherwise
    /// spawns a runner thread. `Err` carries an HTTP status + message.
    pub fn submit(&self, dataset: Arc<Dataset>, spec: JobSpec) -> Result<Arc<Job>, (u16, String)> {
        let canonical = spec.canonical();
        let key = (dataset.name.clone(), dataset.fingerprint, canonical.clone());
        if let Some(cached) = self.cache.lookup(&key) {
            let id = self.next_id();
            let job = Arc::new(Job::new(id, &dataset.name, canonical, true));
            job.finish(cached);
            let mut map = lock_or_recover(&self.jobs);
            map.insert(id, job.clone());
            evict_completed(&mut map);
            return Ok(job);
        }
        // Capacity check and insert under one critical section, so two
        // concurrent submits cannot both slip under the limit.
        let job = {
            let mut map = lock_or_recover(&self.jobs);
            let running = map
                .values()
                .filter(|j| j.status() == JobStatus::Running)
                .count();
            if running >= self.max_jobs {
                self.metrics.jobs_rejected.inc();
                return Err((
                    429,
                    format!("at capacity: {} jobs already running", self.max_jobs),
                ));
            }
            let id = self.next_id();
            let job = Arc::new(Job::new(id, &dataset.name, canonical, false));
            map.insert(id, job.clone());
            evict_completed(&mut map);
            job
        };
        self.metrics.jobs_executed.inc();

        let cache = self.cache.clone();
        let traces = self.traces.clone();
        let metrics = self.metrics.clone();
        let runner_job = job.clone();
        let handle = std::thread::Builder::new()
            .name(format!("aod-job-{}", job.id))
            .spawn(move || run_job(runner_job, dataset, spec, key, cache, traces, metrics));
        let handle = match handle {
            Ok(handle) => handle,
            Err(e) => {
                // Undo the reservation: a job that never got a thread must
                // not sit in the map as eternally "running".
                lock_or_recover(&self.jobs).remove(&job.id);
                return Err((500, format!("spawning job thread: {e}")));
            }
        };
        // Reap finished runner threads so the handle list (and their OS
        // resources) doesn't grow for the lifetime of a resident server.
        let mut handles = lock_or_recover(&self.handles);
        let mut i = 0;
        while i < handles.len() {
            // aod-lint: allow(P1) -- i < handles.len() by the loop guard
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        handles.push(handle);
        Ok(job)
    }

    /// The next job id, counted as a submitted job.
    fn next_id(&self) -> u64 {
        self.metrics.jobs_submitted.inc();
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Cancels every running job and joins all runner threads.
    pub fn shutdown(&self) {
        for job in lock_or_recover(&self.jobs).values() {
            if job.status() == JobStatus::Running {
                job.cancel();
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *lock_or_recover(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// How many jobs (running + completed, with their event logs) are kept
/// for later polling/replay. Oldest *completed* jobs are evicted beyond
/// this — a resident server must not grow without bound.
pub const MAX_RETAINED_JOBS: usize = 1024;

/// Drops the oldest completed jobs once the map exceeds
/// [`MAX_RETAINED_JOBS`]; running jobs are never evicted.
fn evict_completed(map: &mut HashMap<u64, Arc<Job>>) {
    if map.len() <= MAX_RETAINED_JOBS {
        return;
    }
    let mut done: Vec<u64> = map
        .iter()
        .filter(|(_, job)| job.status() != JobStatus::Running)
        .map(|(&id, _)| id)
        .collect();
    done.sort_unstable();
    let excess = map.len() - MAX_RETAINED_JOBS;
    for id in done.into_iter().take(excess) {
        map.remove(&id);
    }
}

/// The runner-thread body: stream the session and log its events, then
/// build the run's record, feed the cache and finish the job.
fn run_job(
    job: Arc<Job>,
    dataset: Arc<Dataset>,
    spec: JobSpec,
    key: crate::cache::CacheKey,
    cache: Arc<ResultCache>,
    traces: Arc<TraceStore>,
    metrics: Arc<ServeMetrics>,
) {
    let started_us = metrics.now_us();
    // Traces share the metrics clock, so an injected manual clock drives
    // both surfaces (and makes trace bytes reproducible).
    let trace_sink = spec
        .trace
        .then(|| Arc::new(TraceSink::new(metrics.clock())));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let delay = Duration::from_millis(spec.level_delay_ms);
        let cancel = job.cancel.clone();
        // Per-dataset discovery instruments; the sink is passive, so the
        // job's event stream and results stay bit-identical.
        let mut builder = spec
            .to_builder(cancel.clone())
            .event_sink(metrics.discovery_sink(&dataset.name))
            .queue_depth_gauge(metrics.queue_depth_gauge(&dataset.name));
        if let Some(sink) = &trace_sink {
            builder = builder.trace_sink(Arc::clone(sink));
        }
        let mut session = builder.build(&dataset.table);
        for event in session.by_ref() {
            let level_completed = matches!(event, DiscoveryEvent::LevelComplete(_));
            job.push_event(&event.to_json(), level_completed);
            if level_completed && !delay.is_zero() {
                // Pace between levels, staying responsive to cancellation.
                let mut slept = Duration::ZERO;
                while slept < delay && !cancel.is_cancelled() {
                    let slice = (delay - slept).min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        }
        session.into_result()
    }));
    match outcome {
        Ok(result) => {
            // Everything a done job promises is in place before its status
            // changes: its run record, the cache entry of a complete run,
            // its trace and its latency in the dataset's histogram. So a
            // client that reads `done` finds each of them.
            let result_json = Arc::new(result.to_json());
            let stats_json = Arc::new(result.stats.to_json());
            let run = {
                let state = lock_or_recover(&job.state);
                Arc::new(CachedRun {
                    events: Arc::clone(&state.events),
                    result_json,
                    stats_json,
                    levels_completed: state.levels_completed,
                })
            };
            if !result.is_partial() {
                cache.store(key, Arc::clone(&run));
            }
            if let Some(sink) = &trace_sink {
                // Deterministic lane only — worker-lane spans are
                // scheduling-dependent and excluded from served bytes. A
                // trace over the byte budget is not kept.
                let chrome = aod_core::chrome_trace(&sink.spans());
                traces.store(job.id, Arc::new(chrome));
            }
            metrics.observe_job(&dataset.name, started_us);
            job.finish(run);
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "discovery session panicked".to_string());
            job.fail(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn employee_dataset() -> Arc<Dataset> {
        let registry = Registry::new();
        registry
            .register_generated("emp", "employee", 0, 0)
            .unwrap()
    }

    fn parse_spec(text: &str, dataset: &Dataset) -> Result<JobSpec, String> {
        JobSpec::parse(&JsonValue::parse(text).unwrap(), dataset)
    }

    fn new_manager(max_jobs: usize) -> JobManager {
        JobManager::new(max_jobs, Arc::new(ServeMetrics::new()))
    }

    #[test]
    fn spec_parses_and_canonicalizes() {
        let d = employee_dataset();
        let spec = parse_spec(r#"{"epsilon":0.15,"threads":2}"#, &d).unwrap();
        assert_eq!(
            spec.canonical(),
            "{\"epsilon\":0.15,\"strategy\":\"optimal\",\
             \"max_level\":null,\"timeout_ms\":null,\"top_k\":null,\"threads\":2,\
             \"columns\":null,\"level_delay_ms\":0,\"trace\":false}"
        );
        // Key order and equivalent spellings don't change the canonical form.
        let same = parse_spec(r#"{"threads":2,"strategy":"optimal","epsilon":0.15}"#, &d).unwrap();
        assert_eq!(spec.canonical(), same.canonical());
        // A missing `epsilon` is ε = 0, where the strategy is optimal.
        let exact = parse_spec(r#"{"strategy":"iterative"}"#, &d).unwrap();
        assert!(exact
            .canonical()
            .starts_with("{\"epsilon\":0,\"strategy\":\"optimal\","));
    }

    #[test]
    fn spec_resolves_columns_to_sorted_indices() {
        let d = employee_dataset();
        let by_name = parse_spec(r#"{"columns":["sal","pos","bonus"]}"#, &d).unwrap();
        let by_index = parse_spec(r#"{"columns":[6,0,2]}"#, &d).unwrap();
        assert_eq!(by_name.canonical(), by_index.canonical());
        assert!(by_name.canonical().contains("\"columns\":[0,2,6]"));
    }

    #[test]
    fn spec_rejects_bad_configs() {
        let d = employee_dataset();
        for bad in [
            r#"{"frobnicate":1}"#,
            r#"{"epsilon":1.5}"#,
            r#"{"epsilon":-0.5}"#,
            r#"{"epsilon":"high"}"#,
            r#"{"strategy":"fast"}"#,
            r#"{"max_level":0}"#,
            r#"{"columns":[]}"#,
            r#"{"columns":["nope"]}"#,
            r#"{"columns":[99]}"#,
            r#"{"columns":[true]}"#,
            r#"{"top_k":-1}"#,
            r#"{"level_delay_ms":600000}"#,
            r#"{"threads":300}"#,
            r#"{"trace":1}"#,
            r#"{"trace":"yes"}"#,
        ] {
            assert!(parse_spec(bad, &d).is_err(), "{bad} should be rejected");
        }
        // The removed sampling strategy and its stride, and the removed
        // `mode` (exact discovery is ε = 0), fail through the generic
        // unknown-name errors; a `top_k` of 0, which would admit a job
        // that ends with no dependency, fails like a `max_level` of 0.
        for (bad, needle) in [
            (r#"{"top_k":0}"#, "`top_k` must be at least 1"),
            (r#"{"epsilon":0.1,"strategy":"hybrid"}"#, "unknown strategy"),
            (
                r#"{"epsilon":0.1,"sample_stride":8}"#,
                "unknown config field",
            ),
            ("{\"mode\":\"exact\"}", "unknown config field `mode`"),
        ] {
            let err = parse_spec(bad, &d).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn jobs_run_to_done_and_cache() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let spec = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec.clone()).unwrap();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        assert!(!job.cached);
        let result = job.result_json().unwrap();
        assert!(result.contains("\"ocs\""));
        let metrics = &manager.metrics;
        assert_eq!(metrics.jobs_executed.get(), 1);

        // Identical resubmission: cache hit, no new execution, same bytes.
        let again = manager.submit(d.clone(), spec).unwrap();
        assert_eq!(again.status(), JobStatus::Done);
        assert!(again.cached);
        assert_eq!(metrics.jobs_executed.get(), 1);
        assert_eq!(metrics.cache_hits.get(), 1);
        assert_eq!(*again.result_json().unwrap(), *result);
        assert_eq!(metrics.jobs_submitted.get(), 2);
        manager.shutdown();
    }

    /// Every spelling of the ε = 0 run is one run: after a finished `{}`
    /// job, `{"epsilon":0}`, `{"epsilon":-0}` and an ε = 0 job that names
    /// the iterative strategy are answered from its cache entry, and all
    /// four echo the same config, `"epsilon":0` with the optimal strategy.
    #[test]
    fn a_negative_zero_epsilon_is_epsilon_zero() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let first = manager.submit(d.clone(), parse_spec("{}", &d).unwrap());
        let first = first.unwrap();
        first.wait_done();
        assert!(!first.cached);
        for spelling in [
            r#"{"epsilon":0}"#,
            r#"{"epsilon":-0}"#,
            r#"{"epsilon":0,"strategy":"iterative"}"#,
        ] {
            let job = manager.submit(d.clone(), parse_spec(spelling, &d).unwrap());
            let job = job.unwrap();
            assert!(job.cached, "{spelling}");
            assert_eq!(job.config, first.config, "{spelling}");
        }
        assert!(first
            .config
            .starts_with("{\"epsilon\":0,\"strategy\":\"optimal\","));
        assert_eq!(manager.metrics.jobs_executed.get(), 1);
        assert_eq!(manager.metrics.cache_hits.get(), 3);
        manager.shutdown();
    }

    #[test]
    fn cancel_mid_run_yields_partial_results() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let spec = parse_spec(r#"{"epsilon":0.1,"level_delay_ms":500}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec).unwrap();
        // Wait for the first level_complete, then cancel during the pause.
        let (first, _) = job.events_after(0, Duration::from_secs(30));
        assert!(!first.is_empty());
        job.cancel();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        let result = JsonValue::parse(&job.result_json().unwrap()).unwrap();
        let stats = result.get("stats").unwrap();
        assert_eq!(stats.get("stopped_early").unwrap().as_bool(), Some(true));
        // Partial runs must not poison the cache.
        assert!(manager.cache.is_empty());
        manager.shutdown();
    }

    #[test]
    fn event_log_hands_out_ndjson_tails() {
        let mut log = EventLog::default();
        assert!(log.is_empty());
        assert_eq!(log.text_from(0), "");
        for line in ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"] {
            log.push(line);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.text_from(0), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
        // Offsets are bytes: each line here is 8 bytes with its newline.
        assert_eq!(log.text_from(16), "{\"c\":3}\n");
        assert_eq!(log.text_from(24), "");
        assert_eq!(log.text_from(99), "");
    }

    #[test]
    fn live_batches_are_copied_and_finished_batches_shared() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let spec = parse_spec(r#"{"epsilon":0.1,"level_delay_ms":60000}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec).unwrap();
        let (first, done) = job.events_after(0, Duration::from_secs(30));
        assert!(!done && !first.is_empty());
        // A live batch is a copy: the runner still owns its log alone, so
        // its next push appends in place.
        assert_eq!(Arc::strong_count(&lock_or_recover(&job.state).events), 1);
        job.cancel();
        job.wait_done();
        let (all, done) = job.events_after(0, Duration::ZERO);
        assert!(done);
        assert!(all.text().starts_with(first.text()));
        // A finished batch shares the log of the job and its run record.
        assert_eq!(Arc::strong_count(&lock_or_recover(&job.state).events), 3);
        manager.shutdown();
    }

    #[test]
    fn a_done_job_has_its_latency_observed() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let observed = || {
            aod_obs::Scrape::parse(&manager.metrics.render())
                .unwrap()
                .value("aod_serve_job_duration_us_count", &[("dataset", "emp")])
                .unwrap_or(0.0)
        };
        for i in 0..300 {
            let spec = parse_spec(&format!(r#"{{"epsilon":{}}}"#, i as f64 / 1000.0), &d);
            let job = manager.submit(d.clone(), spec.unwrap()).unwrap();
            assert!(!job.cached);
            while job.status() == JobStatus::Running {
                std::hint::spin_loop();
            }
            assert_eq!(observed(), (i + 1) as f64, "job {i} read done first");
        }
        manager.shutdown();
    }

    #[test]
    fn completed_jobs_are_evicted_beyond_the_retention_cap() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let spec = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        // One real run to warm the cache, then a flood of cache-hit jobs.
        manager.submit(d.clone(), spec.clone()).unwrap().wait_done();
        for _ in 0..(MAX_RETAINED_JOBS + 40) {
            manager.submit(d.clone(), spec.clone()).unwrap();
        }
        let retained = manager.jobs.lock().unwrap().len();
        assert!(
            retained <= MAX_RETAINED_JOBS,
            "{retained} jobs retained (cap {MAX_RETAINED_JOBS})"
        );
        // The earliest jobs were the ones evicted.
        assert!(manager.get(1).is_none());
        assert!(manager.get((MAX_RETAINED_JOBS + 41) as u64).is_some());
        manager.shutdown();
    }

    #[test]
    fn traced_jobs_store_a_bounded_chrome_trace() {
        let d = employee_dataset();
        let manager = new_manager(2);
        let traced = parse_spec(r#"{"epsilon":0.15,"trace":true}"#, &d).unwrap();
        let plain = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        // Tracing is part of the canonical form: distinct cache entries.
        assert_ne!(traced.canonical(), plain.canonical());

        let job = manager.submit(d.clone(), traced.clone()).unwrap();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        let trace = manager.traces.get(job.id).expect("trace stored");
        let doc = JsonValue::parse(&trace).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // An untraced job stores nothing.
        let bare = manager.submit(d.clone(), plain).unwrap();
        bare.wait_done();
        assert!(manager.traces.get(bare.id).is_none());
        // A second identical traced submission adopts the cached run —
        // no re-execution, and no trace of its own.
        let adopted = manager.submit(d.clone(), traced).unwrap();
        assert!(adopted.cached);
        assert!(manager.traces.get(adopted.id).is_none());
        manager.shutdown();
    }

    #[test]
    fn trace_store_evicts_oldest_beyond_the_cap() {
        let store = TraceStore::default();
        for id in 0..(MAX_RETAINED_TRACES as u64 + 10) {
            store.store(id, Arc::new(format!("trace-{id}")));
        }
        assert_eq!(store.len(), MAX_RETAINED_TRACES);
        assert!(store.get(0).is_none(), "oldest evicted");
        assert!(store.get(9).is_none());
        assert!(store.get(10).is_some());
        assert!(store.get(MAX_RETAINED_TRACES as u64 + 9).is_some());

        // Bytes bound the store too: of two traces just over half the
        // budget each, only the newer is kept.
        let store = TraceStore::default();
        let half = MAX_RETAINED_TRACE_BYTES / 2 + 1;
        store.store(1, Arc::new("a".repeat(half)));
        store.store(2, Arc::new("b".repeat(half)));
        assert!(
            store.get(1).is_none(),
            "oldest evicted over the byte budget"
        );
        assert!(store.get(2).is_some());
        // A trace over the whole budget is not kept, and evicts nothing.
        store.store(3, Arc::new("c".repeat(MAX_RETAINED_TRACE_BYTES + 1)));
        assert!(store.get(3).is_none());
        assert!(store.get(2).is_some());
    }

    #[test]
    fn capacity_is_enforced() {
        let d = employee_dataset();
        let manager = new_manager(1);
        let slow = parse_spec(r#"{"epsilon":0.1,"level_delay_ms":2000}"#, &d).unwrap();
        let job = manager.submit(d.clone(), slow.clone()).unwrap();
        let err = manager
            .submit(d.clone(), parse_spec(r#"{"epsilon":0.2}"#, &d).unwrap())
            .unwrap_err();
        assert_eq!(err.0, 429);
        job.cancel();
        job.wait_done();
        manager.shutdown();
    }
}
