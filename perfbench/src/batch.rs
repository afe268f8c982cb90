//! The in-process workloads: CSV in, dependencies out.

use crate::clock::{now_us, secs_since};
use crate::digest::{revalidate, Digest};
use crate::inputs::resolve_threads;
use crate::layers::{figures, ratio, traced_run};
use crate::recorded::recorded_digest;
use crate::report::{peak_rss_mb, Report};
use crate::stats::median;
use aod_core::{AocStrategy, DiscoveryBuilder, DiscoveryResult};
use aod_table::csv::{read_path, CsvOptions};
use aod_table::RankedTable;
use std::hint::black_box;
use std::path::Path;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 11;
/// Timed discovery runs per run at the least, however long they take.
const MIN_RUNS: usize = 3;

pub struct Loaded {
    pub ranked: RankedTable,
    pub parse_s: Vec<f64>,
    pub rank_s: Vec<f64>,
}

/// `csv::read_path` then `RankedTable::from_table`, `reps` times.
pub fn load(csv: &Path, reps: usize) -> Result<Loaded, String> {
    let (mut parse_s, mut rank_s) = (Vec::new(), Vec::new());
    let mut ranked = None;
    for _ in 0..reps.max(1) {
        let t0 = now_us();
        let table = read_path(csv, &CsvOptions::default())
            .map_err(|e| format!("reading {}: {e}", csv.display()))?;
        parse_s.push(secs_since(t0));
        let t1 = now_us();
        ranked = Some(black_box(RankedTable::from_table(&table)));
        rank_s.push(secs_since(t1));
    }
    Ok(Loaded {
        ranked: ranked.expect("at least one repetition ran"),
        parse_s,
        rank_s,
    })
}

/// `DiscoveryBuilder::run` from the ranked table to the result, untraced.
pub fn discover(table: &RankedTable, epsilon: f64, threads: usize) -> (DiscoveryResult, f64) {
    let t0 = now_us();
    let result = DiscoveryBuilder::new()
        .approximate(epsilon)
        .strategy(AocStrategy::Optimal)
        .parallelism(threads)
        .run(black_box(table));
    (result, secs_since(t0))
}

/// Checks a run's reference output: every dependency re-validates, and
/// the digest equals the one recorded for this seed, if any. Returns
/// whether it passed.
fn check_reference(
    report: &mut Report,
    workload: &str,
    seed: u64,
    table: &RankedTable,
    epsilon: f64,
    result: &DiscoveryResult,
) -> bool {
    let digest = Digest::of(result);
    report.facts.push(("digest", digest.text()));
    let failures = revalidate(table, epsilon, result);
    let revalidated = failures.is_empty();
    report.check(
        "revalidate",
        revalidated,
        failures.first().cloned().unwrap_or_default(),
    );
    let matches_record = match recorded_digest(workload, seed) {
        Some(expected) => {
            let ok = expected == digest.text();
            report.check("recorded_digest", ok, format!("recorded {expected}"));
            ok
        }
        None => true,
    };
    revalidated && matches_record
}

/// The untraced run: set-up and discovery timings, output checks.
pub fn run(
    workload: &str,
    csv: &Path,
    epsilon: f64,
    threads: usize,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let mut report = Report::default();
    let loaded = load(csv, SETUP_REPS)?;
    let table = &loaded.ranked;
    let setup: Vec<f64> = loaded
        .parse_s
        .iter()
        .zip(&loaded.rank_s)
        .map(|(p, r)| p + r)
        .collect();
    let threads = resolve_threads(threads);
    report.numbers.push(("threads", threads as f64));

    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    let mut rss = None;
    let start = now_us();
    while times.len() < MIN_RUNS || secs_since(start) < seconds {
        let (result, secs) = discover(table, epsilon, threads);
        times.push(secs);
        digests.push(Digest::of(&result));
        if first.is_none() {
            // The peak of a process that has loaded the input and run
            // discovery once; later runs would add allocator retention
            // that depends on how many runs fit in the time.
            rss = peak_rss_mb(None);
            first = Some(result);
        }
    }
    // A parallel workload must reproduce the one-thread output.
    let reference = if threads > 1 {
        report.attempted += 1;
        discover(table, epsilon, 1).0
    } else {
        first.expect("at least one run")
    };
    report.attempted += times.len() as u64;
    let expected = Digest::of(&reference);
    let mismatched = digests.iter().filter(|d| **d != expected).count();
    report.check(
        "runs_agree",
        mismatched == 0,
        format!(
            "{mismatched} of {} runs differ from the reference",
            digests.len()
        ),
    );
    report.failed = if check_reference(&mut report, workload, seed, table, epsilon, &reference) {
        mismatched as u64
    } else {
        report.attempted
    };

    report.add("setup_s", setup);
    report.add("discover_s", times);
    let rss = rss.ok_or("peak RSS is unavailable on this platform")?;
    report.add("peak_rss_mb", vec![rss]);
    Ok(report)
}

/// The traced run: one untraced and one traced discovery, per-layer
/// figures from the traced one, and the passivity check between them.
pub fn run_traced(
    workload: &str,
    csv: &Path,
    epsilon: f64,
    threads: usize,
    seed: u64,
    trace_out: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let loaded = load(csv, 3)?;
    let table = &loaded.ranked;
    let threads = resolve_threads(threads);
    report.numbers.push(("threads", threads as f64));
    let csv_mb = std::fs::metadata(csv).map_err(|e| e.to_string())?.len() as f64 / 1e6;

    let (untraced, untraced_s) = discover(table, epsilon, threads);
    let traced = traced_run(table, epsilon, threads);
    report.attempted = 2;
    let passive = Digest::of(&traced.result) == Digest::of(&untraced);
    let dropped = traced.sink.dropped();
    report.check(
        "trace_passive",
        passive && dropped == 0,
        format!("digest unchanged: {passive}; spans dropped: {dropped}"),
    );
    let reference_ok = check_reference(&mut report, workload, seed, table, epsilon, &untraced);
    report.failed = if !reference_ok {
        2
    } else {
        u64::from(!(passive && dropped == 0))
    };
    std::fs::write(trace_out, traced.ndjson())
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    report
        .facts
        .push(("trace_file", trace_out.display().to_string()));

    let parse_s = median(&loaded.parse_s).unwrap_or(0.0);
    let rank_s = median(&loaded.rank_s).unwrap_or(0.0);
    let figs = figures(std::slice::from_ref(&traced));
    let fig = |name: &str| figs.iter().find(|f| f.0 == name).map_or(0.0, |f| f.1);
    let oc_s = fig("validate.oc.s");
    report.why = why(workload, &fig, untraced_s, parse_s + rank_s);
    report.numbers.push(("discover_s", untraced_s));
    report
        .numbers
        .push(("traced_discover_s", traced.discover_s()));
    report
        .numbers
        .push(("oc_share_of_discover", ratio(oc_s, untraced_s)));
    report.add_figures([
        ("table.parse_s", parse_s),
        ("table.rank_s", rank_s),
        ("table.csv_mb", csv_mb),
        (
            "obs.trace_overhead_frac",
            traced.discover_s() / untraced_s - 1.0,
        ),
    ]);
    report.add_figures(figs);
    Ok(report)
}

/// The measured reasons each batch workload was chosen.
fn why(
    workload: &str,
    fig: &dyn Fn(&str) -> f64,
    discover_s: f64,
    setup_s: f64,
) -> Vec<(&'static str, bool)> {
    let oc_s = fig("validate.oc.s");
    let l2_share = ratio(fig("validate.oc.l2_s"), oc_s);
    match workload {
        "flight-deep" => vec![
            (
                "validate.oc.s >= 75% of discover_s",
                oc_s >= 0.75 * discover_s,
            ),
            ("validate.oc.l2_s <= 15% of validate.oc.s", l2_share <= 0.15),
        ],
        "dirty-tall" => vec![
            ("validate.oc.l2_s >= 30% of validate.oc.s", l2_share >= 0.30),
            (
                "setup_s >= 15% of setup_s + discover_s",
                setup_s >= 0.15 * (setup_s + discover_s),
            ),
        ],
        "flight-deep-par" => vec![("exec.steals > 0", fig("exec.steals") > 0.0)],
        _ => Vec::new(),
    }
}
