//! The traced run: a timing decorator around the OC validator, the
//! benchmark's own spans around each public call, and the per-layer
//! figures derived from them and from the engine's statistics.

use crate::clock::{clock, now_us};
use aod_core::{AocStrategy, DiscoveryBuilder, DiscoveryResult, OcValidatorBackend, SampleVerdict};
use aod_obs::TraceSink;
use aod_partition::Partition;
use aod_table::RankedTable;
use aod_validate::strategy_backend;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counters the decorator and its forks add to. Every field is a
/// statistic read only after the run, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct OcCounters {
    /// The lattice level of the step in progress, set by the benchmark
    /// before each `DiscoverySession::step`.
    pub level: AtomicUsize,
    pub calls: AtomicU64,
    pub rejects: AtomicU64,
    pub grouped_rows: AtomicU64,
    pub us: AtomicU64,
    pub l2_us: AtomicU64,
    pub deep_us: AtomicU64,
}

/// Times every `min_removal` of the wrapped backend and delegates
/// everything else, so verdicts are the wrapped backend's own.
pub struct TimedBackend {
    inner: Box<dyn OcValidatorBackend>,
    counters: Arc<OcCounters>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn OcValidatorBackend>, counters: Arc<OcCounters>) -> TimedBackend {
        TimedBackend { inner, counters }
    }
}

impl OcValidatorBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        let t0 = now_us();
        let verdict = self.inner.min_removal(ctx, a_ranks, b_ranks, limit);
        let us = now_us().saturating_sub(t0);
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.us.fetch_add(us, Ordering::Relaxed);
        c.grouped_rows
            .fetch_add(ctx.n_grouped_rows() as u64, Ordering::Relaxed);
        if verdict.is_none() {
            c.rejects.fetch_add(1, Ordering::Relaxed);
        }
        match c.level.load(Ordering::Relaxed) {
            2 => c.l2_us.fetch_add(us, Ordering::Relaxed),
            l if l >= 3 => c.deep_us.fetch_add(us, Ordering::Relaxed),
            _ => 0,
        };
        verdict
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        Box::new(TimedBackend::new(
            self.inner.fork(),
            Arc::clone(&self.counters),
        ))
    }

    fn last_sample(&self) -> Option<SampleVerdict> {
        self.inner.last_sample()
    }

    fn level_feedback(&mut self, hits: usize, misses: usize) {
        self.inner.level_feedback(hits, misses);
    }
}

/// A span the benchmark records around one public call.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub level: usize,
    pub start_us: u64,
    pub end_us: u64,
}

impl BenchSpan {
    pub fn secs(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }
}

/// Benchmark spans, kept in memory. They read the clock the trace sink
/// reads, so they line up with the engine's spans when written out.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<BenchSpan>,
}

/// Benchmark span ids live above the engine's id ranges.
const BENCH_ID_BASE: u64 = 5 << 60;

impl SpanLog {
    /// Runs `f` inside a span and returns its result and the span's id.
    pub fn span<T>(&mut self, name: &'static str, level: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let start_us = now_us();
        let out = f();
        (out, self.close(name, level, start_us))
    }

    /// Records a span from `start_us` to now and returns its id.
    fn close(&mut self, name: &'static str, level: usize, start_us: u64) -> u64 {
        let id = BENCH_ID_BASE | self.spans.len() as u64;
        self.spans.push(BenchSpan {
            id,
            parent: 0,
            name,
            level,
            start_us,
            end_us: now_us(),
        });
        id
    }

    pub fn get(&self, id: u64) -> &BenchSpan {
        &self.spans[(id & !BENCH_ID_BASE) as usize]
    }

    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut obj = aod_core::json::JsonObject::new();
            obj.num_u64("id", s.id)
                .num_u64("parent", s.parent)
                .str("name", s.name)
                .str("cat", "bench")
                .num_u64("level", s.level as u64)
                .num_u64("start_us", s.start_us)
                .num_u64("dur_us", s.end_us.saturating_sub(s.start_us));
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }
}

/// Ring size of the trace sink: far above the span count of any
/// workload, so nothing is dropped (checked after every run).
const TRACE_CAPACITY: usize = 1 << 22;

/// Everything one traced discovery run leaves behind.
pub struct TracedRun {
    pub result: DiscoveryResult,
    pub counters: Arc<OcCounters>,
    pub log: SpanLog,
    pub root: u64,
    pub build: u64,
    pub steps: Vec<u64>,
    pub sink: Arc<TraceSink>,
    pub threads: usize,
}

/// Runs discovery step by step with the timing decorator and a trace
/// sink attached, recording a benchmark span around every public call.
pub fn traced_run(table: &RankedTable, epsilon: f64, threads: usize) -> TracedRun {
    let sink = Arc::new(TraceSink::with_capacity(
        Arc::new(clock().clone()),
        TRACE_CAPACITY,
    ));
    let counters = Arc::new(OcCounters::default());
    let mut log = SpanLog::default();
    let backend = TimedBackend::new(strategy_backend(AocStrategy::Optimal), counters.clone());
    let start_us = now_us();
    let (mut session, build) = log.span("core.build", 0, || {
        DiscoveryBuilder::new()
            .approximate(epsilon)
            .parallelism(threads)
            .validator(Box::new(backend))
            .trace_sink(sink.clone())
            .record_events(false)
            .build(table)
    });
    let mut steps = Vec::new();
    while !session.is_finished() {
        let level = session.level();
        counters.level.store(level, Ordering::Relaxed);
        let (outcome, id) = log.span("core.step", level, || session.step());
        if outcome.is_none() {
            // The frontier ran dry before the level started: nothing was
            // processed, so the span is dropped.
            log.spans.pop();
            break;
        }
        steps.push(id);
    }
    let (result, _) = log.span("core.result", 0, || session.into_result());
    let root = log.close("core.discover", 0, start_us);
    for s in log.spans.iter_mut().filter(|s| s.id != root) {
        s.parent = root;
    }
    TracedRun {
        result,
        counters,
        log,
        root,
        build,
        steps,
        sink,
        threads,
    }
}

/// One named per-layer figure.
pub type Figure = (&'static str, f64);

impl TracedRun {
    pub fn discover_s(&self) -> f64 {
        self.log.get(self.root).secs()
    }

    /// The benchmark's spans and the engine's, as one NDJSON document.
    pub fn ndjson(&self) -> String {
        let mut out = self.log.ndjson();
        out.push_str(&aod_core::trace_ndjson(&self.sink.spans()));
        out.push_str(&aod_core::trace_ndjson(&self.sink.worker_spans()));
        out
    }

    fn step_s(&self, keep: impl Fn(usize) -> bool) -> f64 {
        self.steps
            .iter()
            .map(|&id| self.log.get(id))
            .filter(|s| keep(s.level))
            .map(BenchSpan::secs)
            .sum()
    }

    /// Busy time per worker during each step, weighted by the step's wall
    /// time: `(Σ wall · max/mean, Σ wall)`. Worker spans carry no level,
    /// so each is attributed to the step span that contains its start.
    fn imbalance_terms(&self, workers: &[aod_obs::Span]) -> (f64, f64) {
        let (mut weighted, mut weight) = (0.0, 0.0);
        for &id in &self.steps {
            let step = self.log.get(id);
            let mut per_worker = vec![0u64; self.threads];
            for s in workers
                .iter()
                .filter(|s| (step.start_us..step.end_us).contains(&s.start_us))
            {
                let lane = (s.tid as usize).checked_sub(1);
                if let Some(slot) = lane.and_then(|w| per_worker.get_mut(w)) {
                    *slot += s.dur_us;
                }
            }
            let total: u64 = per_worker.iter().sum();
            if total == 0 {
                continue;
            }
            let mean = total as f64 / self.threads as f64;
            let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
            weighted += step.secs() * max / mean;
            weight += step.secs();
        }
        (weighted, weight)
    }
}

/// Per-layer figures of the partition, validate, core and exec layers,
/// summed over `runs` before any ratio is taken. Exec figures are zero
/// for one-thread runs, which never enter the executor; `core.driver_s`
/// is zero for parallel runs, whose validation times are CPU-summed.
pub fn figures(runs: &[TracedRun]) -> Vec<Figure> {
    let sum = |f: &dyn Fn(&TracedRun) -> f64| -> f64 { runs.iter().map(f).sum() };
    let counter = |f: &dyn Fn(&OcCounters) -> &AtomicU64| -> f64 {
        sum(&|r| f(&r.counters).load(Ordering::Relaxed) as f64)
    };
    let per_level = |f: &dyn Fn(&aod_core::LevelStats) -> usize| -> f64 {
        sum(&|r| r.result.stats.per_level.iter().map(f).sum::<usize>() as f64)
    };
    let discover_s = sum(&|r| r.discover_s());
    let oc_s = counter(&|c| &c.us) / 1e6;
    let calls = counter(&|c| &c.calls);
    let ofd_s = sum(&|r| r.result.stats.ofd_validation.as_secs_f64());
    let product_s = sum(&|r| r.result.stats.partitioning.as_secs_f64());
    let pruned = per_level(&|l| l.n_oc_pruned);
    let validated = per_level(&|l| l.n_oc_candidates);
    let threads = runs.iter().map(|r| r.threads).max().unwrap_or(1);
    let driver_s = if threads == 1 {
        discover_s - oc_s - ofd_s - product_s
    } else {
        0.0
    };
    let mut figures = vec![
        ("partition.seed_s", sum(&|r| r.log.get(r.build).secs())),
        ("partition.product_s", product_s),
        ("partition.products", per_level(&|l| l.n_products)),
        ("validate.oc.s", oc_s),
        ("validate.oc.calls", calls),
        ("validate.oc.l2_s", counter(&|c| &c.l2_us) / 1e6),
        ("validate.oc.deep_s", counter(&|c| &c.deep_us) / 1e6),
        (
            "validate.oc.ns_per_row",
            ratio(oc_s * 1e9, counter(&|c| &c.grouped_rows)),
        ),
        (
            "validate.oc.reject_frac",
            ratio(counter(&|c| &c.rejects), calls),
        ),
        ("validate.ofd.s", ofd_s),
        ("validate.ofd.calls", per_level(&|l| l.n_ofd_candidates)),
        ("core.l2_s", sum(&|r| r.step_s(|l| l == 2))),
        ("core.deep_s", sum(&|r| r.step_s(|l| l >= 3))),
        ("core.driver_s", driver_s),
        ("core.pruned_frac", ratio(pruned, pruned + validated)),
    ];
    let (mut busy_us, mut steals, mut weighted, mut weight) = (0u64, 0usize, 0.0, 0.0);
    for run in runs.iter().filter(|r| r.threads > 1) {
        let workers = run.sink.worker_spans();
        busy_us += workers.iter().map(|s| s.dur_us).sum::<u64>();
        steals += workers.iter().filter(|s| s.name == "steal").count();
        let (w, t) = run.imbalance_terms(&workers);
        weighted += w;
        weight += t;
    }
    let busy_s = busy_us as f64 / 1e6;
    let idle_frac = if threads > 1 {
        1.0 - ratio(busy_s, threads as f64 * discover_s)
    } else {
        0.0
    };
    figures.extend([
        ("exec.busy_s", busy_s),
        ("exec.idle_frac", idle_frac),
        ("exec.steals", steals as f64),
        ("exec.imbalance", ratio(weighted, weight)),
    ]);
    figures
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
