//! `aod` — command-line (approximate) order dependency discovery.
//!
//! Subcommands:
//!
//! * `aod discover <file.csv>` — run the full Figure-1 pipeline on a CSV
//!   file and print ranked dependencies.
//! * `aod validate <file.csv> --pair A,B [--context C,...]` — validate one
//!   OC/OD candidate and print its approximation factor and removal set.
//! * `aod generate <flight|ncvoter|employee> --rows N [--out f.csv]` —
//!   materialise a synthetic dataset.
//! * `aod serve [file.csv ...] --port P` — run the resident HTTP discovery
//!   service (`aod-serve`): dataset registry, background jobs, streaming
//!   NDJSON events, result cache.
//! * `aod monitor <host:port>` — a live text dashboard over a running
//!   server's `GET /metrics` scrape: jobs running, executor queue depth,
//!   candidate throughput, per-phase time split.
//!
//! Argument parsing is hand-rolled (the offline dependency policy excludes
//! `clap`); see [`Args`].

#![forbid(unsafe_code)]

use aod_core::{
    outlier_report, AocStrategy, DiscoveryBuilder, DiscoveryEvent, DiscoveryMetrics,
    DiscoveryResult, Phase,
};
use aod_datagen::{flight, ncvoter};
use aod_partition::{AttrSet, Partition, MAX_ATTRS};
use aod_table::csv::{read_path, write_path, CsvOptions};
use aod_table::{employee_table, RankedTable, Table};
use aod_validate::{removal_budget, OcValidator};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

mod args;
use args::Args;

const USAGE: &str = "\
aod — approximate order dependency discovery (EDBT 2021 reproduction)

USAGE:
  aod discover <file.csv> [--epsilon E] [--strategy S]
               [--max-level N] [--timeout S] [--top K] [--top-k K]
               [--threads N] [--columns C1,C2,...] [--progress] [--ofds]
               [--trace FILE] [--no-header]
  aod validate <file.csv> --pair A,B [--context C1,C2,...] [--epsilon E]
               [--od] [--strategy S] [--show-removals] [--no-header]
  aod generate <flight|ncvoter|employee> [--rows N] [--seed S] [--out FILE]
  aod outliers <file.csv> [--epsilon E] [--strategy S]
               [--max-level N] [--timeout S] [--top K]
               [--top-k K] [--threads N] [--columns C1,C2,...]
               [--no-header]
  aod serve [file.csv ...] [--port P] [--bind ADDR] [--threads N]
            [--max-jobs M]
  aod monitor <host:port> [--interval S] [--once]

OPTIONS:
  --epsilon E       approximation threshold in [0,1] (default 0.1);
                    0 finds exact dependencies
  --strategy S      AOC validator: optimal (Algorithm 2, default) or
                    iterative (Algorithm 1)
  --max-level N     cap the lattice level (at least 1)
  --timeout S       wall-clock budget in seconds (partial results after)
  --top K           print only the K most interesting dependencies
  --top-k K         stop discovery once K OCs are found, K at least 1
                    (early exit after the lattice level holding the K-th)
  --threads N       worker threads for parallel validation (0 = all cores,
                    default 1; results are identical for any N)
  --columns C1,...  discover only over these columns
  --progress        stream per-level progress to stderr while running
  --ofds            also print discovered OFDs
  --trace FILE      write a span trace of the run as Chrome trace-event
                    JSON (open in Perfetto / chrome://tracing)
  --pair A,B        the candidate pair (column names)
  --context C1,...  context column names (default: empty context)
  --od              validate as OD (splits + swaps) instead of OC
                    (Algorithm 2 only; excludes an iterative strategy)
  --show-removals   print the rows of the minimal removal set
  --rows N          rows to generate (default 1000)
  --seed S          RNG seed (default 42)
  --out FILE        output CSV path (default stdout summary only)
  --no-header       input CSV has no header row
  --port P          serve: TCP port to listen on (default 7171)
  --bind ADDR       serve: interface to bind (default 127.0.0.1)
  --max-jobs M      serve: max concurrently running jobs (default 4)
                    (for serve, --threads N sets accept workers; 0 = cores)
  --interval S      monitor: seconds between scrapes (default 2)
  --once            monitor: render a single frame from two scrapes, then
                    exit (scripts and CI)
";

/// Why a command failed.
enum Error {
    /// A bad argument or input, reported with the usage text.
    Usage(String),
    /// Writing the report to stdout failed.
    Output(std::io::Error),
}

impl From<String> for Error {
    fn from(message: String) -> Error {
        Error::Usage(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Error {
        Error::Usage(message.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Output(e)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every report goes through this one handle, so a failed write is an
    // error value instead of `println!`'s panic.
    let mut out = std::io::stdout().lock();
    match run(&argv, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed stdout early (`aod discover … | head`): it has
        // all the output it wants.
        Err(Error::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Error::Output(e)) => {
            eprintln!("error: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "discover" => cmd_discover(&args, out),
        "validate" => cmd_validate(&args, out),
        "generate" => cmd_generate(&args, out),
        "outliers" => cmd_outliers(&args, out),
        "serve" => cmd_serve(&args),
        "monitor" => cmd_monitor(&args, out),
        "help" | "--help" | "-h" => Ok(write!(out, "{USAGE}")?),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// The threshold every command runs at: `--epsilon` with its default,
/// rejected before it can reach the validators' `assert!` (a bad threshold
/// is a usage error, not a panic). Exact discovery is `--epsilon 0`.
fn epsilon_arg(args: &Args) -> Result<f64, String> {
    let epsilon = args.float("epsilon")?.unwrap_or(0.1);
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(format!("--epsilon: `{epsilon}` is not within [0, 1]"));
    }
    // `-0` is the threshold 0, and the report prints it as such.
    Ok(if epsilon == 0.0 { 0.0 } else { epsilon })
}

fn load_table(args: &Args) -> Result<Table, String> {
    let path = args.positional.first().ok_or("missing input file")?;
    let options = CsvOptions {
        has_header: !args.flag("no-header"),
        ..CsvOptions::default()
    };
    read_path(path, &options).map_err(|e| format!("reading `{path}`: {e}"))
}

/// `--strategy` (default `optimal`) through the [`AocStrategy::from_name`]
/// parser the HTTP boundary shares.
fn strategy_arg(args: &Args) -> Result<AocStrategy, String> {
    AocStrategy::from_name(args.value("strategy").unwrap_or("optimal"))
}

/// The discovery options `discover` and `outliers` share: the threshold,
/// `--strategy`, `--max-level`, `--timeout`, `--top-k`,
/// `--threads` and `--columns` (names resolved against `table`). A table
/// wider than discovery takes is refused here, whatever `--columns` says.
fn discovery_builder(args: &Args, table: &Table) -> Result<DiscoveryBuilder, String> {
    if table.n_cols() > MAX_ATTRS {
        return Err(format!(
            "the table has {} columns; discovery takes at most {MAX_ATTRS}",
            table.n_cols()
        ));
    }
    let mut builder = DiscoveryBuilder::new()
        .approximate(epsilon_arg(args)?)
        .strategy(strategy_arg(args)?);
    if let Some(level) = args.int("max-level")? {
        if level == 0 {
            return Err("--max-level must be at least 1".into());
        }
        builder = builder.max_level(level);
    }
    if let Some(secs) = args.int("timeout")? {
        builder = builder.timeout(std::time::Duration::from_secs(secs as u64));
    }
    if let Some(k) = args.int("top-k")? {
        if k == 0 {
            return Err("--top-k must be at least 1".into());
        }
        builder = builder.top_k(k);
    }
    if let Some(threads) = args.int("threads")? {
        builder = builder.parallelism(threads);
    }
    if let Some(cols) = args.value("columns") {
        let mut scope = Vec::new();
        for name in cols.split(',') {
            scope.push(
                table
                    .schema()
                    .index_of(name.trim())
                    .ok_or_else(|| format!("--columns: unknown column `{}`", name.trim()))?,
            );
        }
        builder = builder.scope(scope);
    }
    Ok(builder)
}

fn cmd_discover(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let table = load_table(args)?;
    let ranked = RankedTable::from_table(&table);
    let epsilon = epsilon_arg(args)?;
    let mut builder = discovery_builder(args, &table)?;
    // The report prints no cell value, so the parsed table goes before
    // discovery runs; only its column names are kept.
    let schema = table.schema().clone();
    drop(table);
    // --trace records a deterministic span hierarchy (job → level → phase
    // → candidate batch) alongside the run; it never changes the
    // discovered dependencies.
    let trace_sink = args.value("trace").map(|path| {
        let clock: std::sync::Arc<dyn aod_obs::Clock> =
            std::sync::Arc::new(aod_obs::MonotonicClock::new());
        (
            path.to_string(),
            std::sync::Arc::new(aod_obs::TraceSink::new(clock)),
        )
    });
    if let Some((_, sink)) = &trace_sink {
        builder = builder.trace_sink(std::sync::Arc::clone(sink));
    }

    let result = if args.flag("progress") {
        // --progress narrates from the same observability surface
        // `aod-serve` exports on `GET /metrics`: a [`DiscoveryMetrics`]
        // event sink over a private registry.
        let registry = aod_obs::Registry::new();
        let metrics = std::sync::Arc::new(DiscoveryMetrics::new(&registry, &[]));
        let clock = aod_obs::MonotonicClock::new();
        builder = builder.event_sink(metrics.as_sink());
        run_with_progress(builder.build(&ranked), &metrics, &clock)
    } else {
        builder.run(&ranked)
    };
    if let Some((path, sink)) = &trace_sink {
        let spans = sink.spans();
        std::fs::write(path, aod_core::chrome_trace(&spans))
            .map_err(|e| format!("writing trace `{path}`: {e}"))?;
        eprintln!(
            "wrote {} spans to {path} (open in Perfetto or chrome://tracing)",
            spans.len()
        );
    }
    let names = schema.names();
    let top = args.int("top")?.unwrap_or(usize::MAX);

    if result.is_partial() {
        writeln!(
            out,
            "note: partial results ({})",
            if result.stats.timed_out {
                "wall-clock budget exceeded"
            } else {
                "stopped early"
            }
        )?;
    }
    writeln!(
        out,
        "{} rows × {} columns; mode: ε = {epsilon}; found {} OCs, {} OFDs in {:.3}s \
         ({:.1}% of {} in OC validation)",
        ranked.n_rows(),
        ranked.n_cols(),
        result.n_ocs(),
        result.n_ofds(),
        result.stats.total.as_secs_f64(),
        100.0 * result.stats.oc_validation_share(),
        // Parallel runs sum validator time across workers, so the share
        // is CPU-vs-wall and can top 100% — label it honestly.
        if result.stats.threads_used > 1 {
            "wall clock (CPU-summed over threads)"
        } else {
            "time"
        },
    )?;
    writeln!(out, "\norder compatibilities (most interesting first):")?;
    for dep in result.ranked_ocs().into_iter().take(top) {
        writeln!(out, "  {}", dep.display(&names))?;
    }
    if args.flag("ofds") {
        writeln!(out, "\norder functional dependencies:")?;
        for dep in result.ranked_ofds().into_iter().take(top) {
            writeln!(out, "  {}", dep.display(&names))?;
        }
    }
    Ok(())
}

/// Drains the session's event stream, narrating per-level progress (and
/// early stops) on stderr so long wide-schema runs stay observable.
///
/// The level and its node count come from the `LevelComplete` event.
/// Every other figure is read from the attached [`DiscoveryMetrics`] sink
/// — found/pruned/candidate counter deltas and the per-phase duration
/// histograms — so the narration exercises exactly the surface
/// `GET /metrics` scrapes. The candidates/sec rate brackets each level
/// with the injected [`Clock`](aod_obs::Clock).
fn run_with_progress(
    mut session: aod_core::DiscoverySession,
    metrics: &DiscoveryMetrics,
    clock: &dyn aod_obs::Clock,
) -> DiscoveryResult {
    let threads = session.stats().threads_used;
    eprintln!(
        "discovering with {threads} thread{}{}",
        if threads == 1 { "" } else { "s" },
        if threads == 1 {
            " (pass --threads N or --threads 0 to parallelise)"
        } else {
            " (parallel per-level validation)"
        },
    );
    let phase_sums = |m: &DiscoveryMetrics| -> [u64; 3] { Phase::ALL.map(|p| m.phase(p).sum_us()) };
    let mut last_us = clock.now_us();
    let mut seen_candidates = 0u64;
    let mut seen_pruned = 0u64;
    let mut seen_ocs = 0u64;
    let mut seen_ofds = 0u64;
    let mut seen_phases = phase_sums(metrics);
    for event in session.by_ref() {
        match event {
            DiscoveryEvent::LevelComplete(outcome) => {
                let now_us = clock.now_us();
                let level_us = now_us.saturating_sub(last_us).max(1);
                last_us = now_us;
                let candidates = metrics.oc_candidates().get();
                let pruned = metrics.oc_pruned().get();
                let ocs = metrics.ocs_found().get();
                let ofds = metrics.ofds_found().get();
                let phases = phase_sums(metrics);
                let rate = (candidates - seen_candidates) as f64 * 1e6 / level_us as f64;
                let split: Vec<u64> = phases
                    .iter()
                    .zip(seen_phases)
                    .map(|(now, before)| now.saturating_sub(before))
                    .collect();
                let split_total = split.iter().sum::<u64>().max(1) as f64;
                eprintln!(
                    "level {:>2}: {:>6} nodes, {:>6} OC candidates ({} pruned), +{} OCs, \
                     +{} OFDs | {:>7.0} cand/s | oc {:>2.0}% ofd {:>2.0}% part {:>2.0}%",
                    outcome.level,
                    outcome.stats.n_nodes,
                    candidates - seen_candidates,
                    pruned - seen_pruned,
                    ocs - seen_ocs,
                    ofds - seen_ofds,
                    rate,
                    100.0 * split[0] as f64 / split_total,
                    100.0 * split[1] as f64 / split_total,
                    100.0 * split[2] as f64 / split_total,
                );
                seen_candidates = candidates;
                seen_pruned = pruned;
                seen_ocs = ocs;
                seen_ofds = ofds;
                seen_phases = phases;
            }
            DiscoveryEvent::TimedOut { level } => {
                eprintln!("level {level:>2}: wall-clock budget exceeded, stopping");
            }
            DiscoveryEvent::Cancelled { level } => {
                eprintln!("level {level:>2}: stopped early");
            }
            _ => {}
        }
    }
    session.into_result()
}

fn cmd_validate(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let table = load_table(args)?;
    let ranked = RankedTable::from_table(&table);
    let epsilon = epsilon_arg(args)?;
    let strategy = strategy_arg(args)?;
    let pair = args.value("pair").ok_or("missing --pair A,B")?;
    let (a_name, b_name) = pair
        .split_once(',')
        .ok_or("expected --pair A,B with two column names")?;
    let col = |name: &str| -> Result<usize, String> {
        table
            .schema()
            .index_of(name.trim())
            .ok_or_else(|| format!("unknown column `{}`", name.trim()))
    };
    let (a, b) = (col(a_name)?, col(b_name)?);
    let mut context = AttrSet::EMPTY;
    if let Some(ctx) = args.value("context") {
        for name in ctx.split(',') {
            let c = col(name)?;
            if c >= MAX_ATTRS {
                return Err(format!(
                    "--context: `{}` is column {c}; a context takes only the first {MAX_ATTRS} columns",
                    name.trim()
                )
                .into());
            }
            context = context.with(c);
        }
    }
    // A canonical `X: A ~ B` (or `X: A |-> B`) has A ≠ B and A, B ∉ X;
    // any other candidate holds trivially.
    if a == b {
        return Err(format!("--pair names `{}` twice", a_name.trim()).into());
    }
    for (name, c) in [(a_name, a), (b_name, b)] {
        if context.contains(c) {
            return Err(format!("--context holds `{}`, a column of --pair", name.trim()).into());
        }
    }

    let ctx_partition = Partition::for_attrs(&ranked, context.iter());
    let budget = removal_budget(table.n_rows(), epsilon);
    let mut v = OcValidator::new();
    let (ar, br) = (ranked.column(a).ranks(), ranked.column(b).ranks());
    let removal = match (args.flag("od"), strategy) {
        (true, AocStrategy::Optimal) => v.removal_set_od(&ctx_partition, ar, br),
        (true, AocStrategy::Iterative) => {
            return Err("--od has no iterative validator (Algorithm 1 checks OCs only)".into())
        }
        (false, AocStrategy::Optimal) => v.removal_set_optimal(&ctx_partition, ar, br),
        (false, AocStrategy::Iterative) => v.removal_set_iterative(&ctx_partition, ar, br),
    };
    let kind = if args.flag("od") { "OD" } else { "OC" };
    let rel = if args.flag("od") { "|->" } else { "~" };
    writeln!(
        out,
        "{kind} {}: {} {rel} {}  removal set size {} / {} rows  (e = {:.4}, budget {budget})  => {}",
        context.display_with(&table.schema().names()),
        a_name.trim(),
        b_name.trim(),
        removal.len(),
        table.n_rows(),
        removal.len() as f64 / table.n_rows().max(1) as f64,
        if removal.len() <= budget { "VALID" } else { "INVALID" },
    )?;
    if args.flag("show-removals") {
        for &row in &removal {
            let values: Vec<String> = table
                .row(row as usize)
                .iter()
                .map(ToString::to_string)
                .collect();
            writeln!(out, "  row {:>6}: {}", row, values.join(", "))?;
        }
    }
    Ok(())
}

/// Figure 1's downstream stage: flag rows that discovered approximate
/// dependencies mark as exceptions, ranked by evidence count.
fn cmd_outliers(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let table = load_table(args)?;
    let ranked = RankedTable::from_table(&table);
    let epsilon = epsilon_arg(args)?;
    let top = args.int("top")?.unwrap_or(20);
    let result = discovery_builder(args, &table)?.run(&ranked);
    let report = outlier_report(&ranked, &result);
    writeln!(
        out,
        "{} approximate dependencies contribute outlier evidence (ε = {epsilon})",
        report.n_contributing
    )?;
    for (row, score) in report.top(top) {
        let values: Vec<String> = table.row(row).iter().map(ToString::to_string).collect();
        writeln!(
            out,
            "  row {row:>6} flagged by {score:>3} deps: {}",
            values.join(", ")
        )?;
    }
    Ok(())
}

/// `aod serve`: run the resident HTTP discovery service. Positional CSV
/// paths are pre-registered as datasets (named by file stem); everything
/// else is registered over the API. Blocks until `POST /shutdown`.
fn cmd_serve(args: &Args) -> Result<(), Error> {
    let port = args.int("port")?.unwrap_or(7171);
    let port =
        u16::try_from(port).map_err(|_| format!("--port: `{port}` is not a valid TCP port"))?;
    let bind = args.value("bind").unwrap_or("127.0.0.1").to_string();
    let threads = args.int("threads")?.unwrap_or(2);
    let max_jobs = args.int("max-jobs")?.unwrap_or(4);
    if max_jobs == 0 {
        return Err("--max-jobs must be at least 1".into());
    }
    let config = aod_serve::ServeConfig {
        bind,
        port,
        threads,
        max_jobs,
    };
    let server = aod_serve::Server::bind(&config)
        .map_err(|e| format!("binding {}:{}: {e}", config.bind, config.port))?;
    for path in &args.positional {
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a dataset name from `{path}`"))?
            .to_string();
        server
            .register_csv(&name, path)
            .map_err(|e| format!("registering `{path}`: {e}"))?;
        eprintln!("registered dataset `{name}` from {path}");
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if !addr.ip().is_loopback() {
        eprintln!(
            "warning: binding {addr} exposes an UNAUTHENTICATED API: any client \
             can register server-side CSV paths, run jobs, and POST /shutdown. \
             Keep non-loopback binds behind a trusted network or proxy."
        );
    }
    eprintln!(
        "aod-serve listening on http://{addr} (max {max_jobs} concurrent jobs; \
         POST /shutdown to stop)"
    );
    server.run().map_err(|e| e.to_string().into())
}

/// `aod monitor <host:port>`: a live text dashboard over a running
/// server's `GET /metrics`.
///
/// Each frame is the delta between two consecutive scrapes, read back
/// through the conformant [`aod_obs::Scrape`] parser: jobs currently
/// running, executor queue depth summed over datasets, candidate
/// throughput, and the per-phase time split — the same figures
/// `--progress` narrates in-process, but observed from the outside with
/// no privileged access. Elapsed time between scrapes comes from the
/// injectable [`aod_obs::Clock`] family, like every other timing in the
/// observability layer.
fn cmd_monitor(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    use aod_obs::Clock;
    use std::net::ToSocketAddrs;
    let target = args
        .positional
        .first()
        .ok_or("missing server address (aod monitor <host:port>)")?;
    let bare = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .trim_end_matches('/');
    let addr = bare
        .to_socket_addrs()
        .map_err(|e| format!("resolving `{bare}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{bare}` resolved to no address"))?;
    let interval = args.int("interval")?.unwrap_or(2).max(1) as u64;
    let once = args.flag("once");
    let clock = aod_obs::MonotonicClock::new();
    let scrape = || -> Result<aod_obs::Scrape, String> {
        let response = aod_serve::client::request(addr, "GET", "/metrics", None)
            .map_err(|e| format!("scraping http://{bare}/metrics: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET /metrics answered {}", response.status));
        }
        aod_obs::Scrape::parse(&response.body).map_err(|e| format!("parsing /metrics: {e}"))
    };
    eprintln!("monitoring http://{bare}/metrics every {interval}s (ctrl-c to stop)");
    // Monitors are often started alongside the server; retry the first
    // scrape for a few seconds instead of racing the bind. Later
    // failures are fatal — a dead server mid-watch should be loud.
    let mut prev = loop {
        match scrape() {
            Ok(scrape) => break scrape,
            Err(_) if clock.now_us() < 10_000_000 => {
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            Err(e) => return Err(e.into()),
        }
    };
    let mut prev_us = clock.now_us();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval));
        let current = scrape()?;
        let now_us = clock.now_us();
        render_monitor_frame(out, &prev, &current, now_us.saturating_sub(prev_us).max(1))?;
        prev = current;
        prev_us = now_us;
        if once {
            return Ok(());
        }
    }
}

/// One monitor frame: the delta between two scrapes over `elapsed_us`.
fn render_monitor_frame(
    out: &mut dyn Write,
    prev: &aod_obs::Scrape,
    current: &aod_obs::Scrape,
    elapsed_us: u64,
) -> std::io::Result<()> {
    // Per-dataset series fold into one figure; a job's phase histograms
    // carry `{dataset=...,phase=...}` so the phase split filters on the
    // phase label across all datasets.
    let phase_sum = |scrape: &aod_obs::Scrape, phase: Phase| -> f64 {
        scrape
            .series("aod_discovery_phase_duration_us_sum")
            .filter(|s| {
                s.labels
                    .iter()
                    .any(|(k, v)| k == "phase" && v == phase.name())
            })
            .map(|s| s.value)
            .sum()
    };
    let jobs_running = current.value("aod_serve_jobs_running", &[]).unwrap_or(0.0);
    // An empty fold is `-0.0` (std's float sum identity); clamp so an
    // idle server reads `0`, not `-0`.
    let queue_depth = current.sum("aod_exec_queue_depth").max(0.0);
    let candidates = current.sum("aod_discovery_oc_candidates_total")
        - prev.sum("aod_discovery_oc_candidates_total");
    let rate = candidates.max(0.0) * 1e6 / elapsed_us as f64;
    let split = Phase::ALL.map(|p| (phase_sum(current, p) - phase_sum(prev, p)).max(0.0));
    let split_total = split.iter().sum::<f64>().max(1.0);
    writeln!(
        out,
        "jobs {:>2} | queue {:>4} | {:>7.0} cand/s | oc {:>2.0}% ofd {:>2.0}% part {:>2.0}%",
        jobs_running,
        queue_depth,
        rate,
        100.0 * split[0] / split_total,
        100.0 * split[1] / split_total,
        100.0 * split[2] / split_total,
    )
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let which = args.positional.first().ok_or("missing dataset name")?;
    let rows = args.int("rows")?.unwrap_or(1000);
    let seed = args.int("seed")?.unwrap_or(42) as u64;
    let table = match which.as_str() {
        "flight" => flight::flight(seed).table(rows),
        "ncvoter" => ncvoter::ncvoter(seed).table(rows),
        "employee" => employee_table(),
        other => return Err(format!("unknown dataset `{other}` (flight|ncvoter|employee)").into()),
    };
    match args.value("out") {
        Some(path) => {
            write_path(&table, path, &CsvOptions::default())
                .map_err(|e| format!("writing `{path}`: {e}"))?;
            writeln!(
                out,
                "wrote {} rows × {} columns to {path}",
                table.n_rows(),
                table.n_cols()
            )?;
        }
        None => {
            writeln!(
                out,
                "generated {} rows × {} columns (pass --out FILE to save)",
                table.n_rows(),
                table.n_cols()
            )?;
            writeln!(out, "columns: {}", table.schema().names().join(", "))?;
        }
    }
    Ok(())
}
