//! The span-tracing subsystem's determinism contract.
//!
//! Three properties, mirroring the executor's bit-identical guarantee:
//!
//! 1. **Byte-stable exports** — under a [`ManualClock`], the Chrome
//!    trace-event and NDJSON exports of a traced run are *byte-identical*
//!    across thread counts; timing enters only through the injected
//!    clock, never through wall time.
//! 2. **Passive tracing** — attaching a trace sink changes nothing about
//!    the discovery itself: the event stream, the dependency lists and the
//!    order-insensitive counters match an untraced run bit for bit.
//! 3. **Well-nested spans** — job → level → phase → candidate-batch spans
//!    form a proper tree (every child's interval inside its parent's) for
//!    random tables and random cancel points.

use aod::core::{chrome_trace, trace_ndjson};
use aod::obs::{ManualClock, MonotonicClock, Span, TraceSink};
use aod::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Runs traced discovery on `ranked` and returns the deterministic-lane
/// spans plus the result.
fn traced_run(
    ranked: &RankedTable,
    strategy: AocStrategy,
    threads: usize,
    clock: Arc<dyn aod::obs::Clock>,
) -> (Vec<Span>, DiscoveryResult) {
    let sink = Arc::new(TraceSink::new(clock));
    let result = DiscoveryBuilder::new()
        .approximate(0.15)
        .strategy(strategy)
        .parallelism(threads)
        .trace_sink(Arc::clone(&sink))
        .run(ranked);
    (sink.spans(), result)
}

/// Byte-stable exports: the employee-dataset golden trace is identical
/// across threads {1, 4}.
#[test]
fn manual_clock_trace_is_byte_identical_across_threads() {
    let ranked = RankedTable::from_table(&employee_table());
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let (spans, result) = traced_run(
            &ranked,
            AocStrategy::Optimal,
            threads,
            Arc::new(ManualClock::new()),
        );
        assert!(!spans.is_empty(), "trace recorded no spans");
        assert!(result.n_ocs() > 0, "discovery found nothing");
        exports.push((threads, chrome_trace(&spans), trace_ndjson(&spans)));
    }
    let (_, golden_chrome, golden_ndjson) = &exports[0];
    for (threads, chrome, ndjson) in &exports {
        assert_eq!(
            chrome, golden_chrome,
            "chrome export diverged at {threads} threads"
        );
        assert_eq!(
            ndjson, golden_ndjson,
            "ndjson export diverged at {threads} threads"
        );
    }
}

/// The Chrome export self-parses with the workspace JSON parser and has
/// the `trace_event` shape Perfetto expects: a `traceEvents` array of
/// complete (`"ph":"X"`) events with name/cat/ts/dur/pid/tid.
#[test]
fn chrome_export_self_parses_with_the_expected_shape() {
    let ranked = RankedTable::from_table(&employee_table());
    let (spans, _) = traced_run(
        &ranked,
        AocStrategy::Optimal,
        1,
        Arc::new(ManualClock::new()),
    );
    let parsed = aod::core::json::JsonValue::parse(&chrome_trace(&spans)).expect("export parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(event.get("pid").and_then(|v| v.as_u64()), Some(1));
        for key in ["name", "cat", "ts", "dur", "tid", "args"] {
            assert!(event.get(key).is_some(), "event missing `{key}`");
        }
    }
    // The hierarchy's roll-up span is present exactly once.
    let jobs = spans.iter().filter(|s| s.cat == "job").count();
    assert_eq!(jobs, 1, "expected exactly one job span");
}

/// OC candidate-batch spans carry `inherited`, the node's candidates
/// answered from an equal sub-context partition without a backend call,
/// `bounded`, those answered as invalid from four cached class counts,
/// and `paired`, those answered as invalid from disjoint swapped row
/// pairs; the three sum to at most the candidates, and OFD batch spans
/// carry none of them. `partitioning` phase spans carry `shared`, the
/// partitions of the next level shared with a parent, at most that
/// level's `n_products`. On employee at ε = 0 `inherited`, `bounded` and
/// `shared` fire, `paired` sums to 55 (a pass that paired tied rows or
/// rows of two classes would refute more), and the export stays
/// byte-identical across threads {1, 4}.
#[test]
fn oc_batch_spans_count_inherited_candidates() {
    let ranked = RankedTable::from_table(&employee_table());
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
        let result = DiscoveryBuilder::new()
            .exact()
            .parallelism(threads)
            .trace_sink(Arc::clone(&sink))
            .run(&ranked);
        let spans = sink.spans();
        let phase: HashMap<u64, &str> = spans
            .iter()
            .filter(|s| s.cat == "phase")
            .map(|s| (s.id, s.name))
            .collect();
        let arg = |s: &Span, key: &str| s.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let (mut inherited, mut bounded, mut paired) = (0, 0, 0);
        for batch in spans.iter().filter(|s| s.cat == "batch") {
            match (
                phase[&batch.parent],
                arg(batch, "inherited"),
                arg(batch, "bounded"),
                arg(batch, "paired"),
            ) {
                ("oc_validation", Some(i), Some(b), Some(p)) => {
                    assert!(i + b + p <= arg(batch, "candidates").unwrap());
                    inherited += i;
                    bounded += b;
                    paired += p;
                }
                ("ofd_validation", None, None, None) => {}
                (name, i, b, p) => panic!(
                    "{name} batch span with inherited = {i:?}, bounded = {b:?}, paired = {p:?}"
                ),
            }
        }
        assert!(inherited > 0, "the rule never fired at {threads} threads");
        assert!(bounded > 0, "the bound never fired at {threads} threads");
        assert_eq!(paired, 55, "{threads} threads");
        let mut shared = 0;
        for span in spans.iter().filter(|s| s.name == "partitioning") {
            let (level, k) = (arg(span, "level").unwrap(), arg(span, "shared").unwrap());
            // Level ℓ's partitioning builds level ℓ + 1, at index ℓ.
            let built = result.stats.per_level.get(level as usize);
            assert!(
                k as usize <= built.map_or(0, |l| l.n_products),
                "level {level}"
            );
            shared += k;
        }
        assert!(shared > 0, "no partition was shared at {threads} threads");
        exports.push(chrome_trace(&spans));
    }
    assert_eq!(exports[0], exports[1]);
}

/// A sink from `TraceSink::new` keeps every span. A run of a 20 × 24
/// table of two-valued columns to level 4 records about 25,000 spans,
/// most of them in level 4's batches, which are recorded last: a ring of
/// 8,192 spans would keep none of the level spans.
#[test]
fn a_wide_run_keeps_every_level_and_phase_span() {
    let columns: Vec<Vec<u32>> = (0..24u64)
        .map(|c| {
            (0..20u64)
                .map(|r| ((r * 0x9E37_79B9 + c * 0x85EB_CA6B + r * c) >> 7) as u32 & 1)
                .collect()
        })
        .collect();
    let ranked = RankedTable::from_u32_columns(columns);
    let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
    let result = DiscoveryBuilder::new()
        .max_level(4)
        .trace_sink(Arc::clone(&sink))
        .run(&ranked);
    let spans = sink.spans();
    assert!(spans.len() > 8_192, "{} spans", spans.len());
    assert_eq!(sink.dropped(), 0);
    let levels = result.stats.per_level.len() as u64;
    assert_eq!(levels, 4);
    let level_of = |s: &Span| s.args.iter().find(|(k, _)| *k == "level").map(|(_, v)| *v);
    let level_spans: Vec<Option<u64>> = spans
        .iter()
        .filter(|s| s.cat == "level")
        .map(level_of)
        .collect();
    assert_eq!(level_spans, (1..=levels).map(Some).collect::<Vec<_>>());
    for level in 1..=levels {
        let phases = spans
            .iter()
            .filter(|s| s.cat == "phase" && level_of(s) == Some(level))
            .count();
        assert_eq!(phases, 3, "level {level}");
    }
    assert_well_nested(&spans);
}

/// Attaching a trace sink is observationally free: events, dependencies
/// and order-insensitive stats are bit-identical with tracing on or off,
/// at one thread and at four.
#[test]
fn tracing_leaves_discovery_output_bit_identical() {
    let ranked = RankedTable::from_table(&employee_table());
    for threads in [1usize, 4] {
        let build = || {
            DiscoveryBuilder::new()
                .approximate(0.15)
                .parallelism(threads)
        };
        let mut plain_session = build().build(&ranked);
        let plain_events: Vec<DiscoveryEvent> = plain_session.by_ref().collect();
        let plain = plain_session.into_result();

        let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
        let mut traced_session = build().trace_sink(Arc::clone(&sink)).build(&ranked);
        let traced_events: Vec<DiscoveryEvent> = traced_session.by_ref().collect();
        let traced = traced_session.into_result();

        assert_eq!(traced_events, plain_events, "{threads} threads");
        assert_eq!(traced.ocs, plain.ocs, "{threads} threads");
        assert_eq!(traced.ofds, plain.ofds, "{threads} threads");
        assert_eq!(traced.stats.per_level, plain.stats.per_level);
        assert!(!sink.spans().is_empty(), "the sink did record spans");
    }
}

/// Asserts the span tree invariants: unique ids, every non-root span's
/// parent present with the right category, every child's interval inside
/// its parent's.
fn assert_well_nested(spans: &[Span]) {
    let mut by_id: HashMap<u64, &Span> = HashMap::new();
    for span in spans {
        assert!(
            by_id.insert(span.id, span).is_none(),
            "duplicate span id {} ({})",
            span.id,
            span.name
        );
    }
    for span in spans {
        if span.parent == 0 {
            assert_eq!(span.cat, "job", "only the job span may be a root");
            continue;
        }
        let parent = by_id
            .get(&span.parent)
            .unwrap_or_else(|| panic!("span `{}` has an orphan parent id", span.name));
        let expected_parent_cat = match span.cat {
            "level" => "job",
            "phase" => "level",
            "batch" => "phase",
            other => panic!("unexpected span category `{other}`"),
        };
        assert_eq!(parent.cat, expected_parent_cat, "span `{}`", span.name);
        assert!(
            span.start_us >= parent.start_us
                && span.start_us + span.dur_us <= parent.start_us + parent.dur_us,
            "span `{}` [{}, {}] escapes parent `{}` [{}, {}]",
            span.name,
            span.start_us,
            span.start_us + span.dur_us,
            parent.name,
            parent.start_us,
            parent.start_us + parent.dur_us,
        );
    }
    if !spans.is_empty() {
        assert_eq!(
            spans.iter().filter(|s| s.cat == "job").count(),
            1,
            "expected exactly one job span"
        );
    }
}

/// A small random table shaped like the parallel-determinism suite's:
/// two payload columns and a low-cardinality context column.
fn small_table() -> impl Strategy<Value = RankedTable> {
    (2usize..12)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..5, n),
                proptest::collection::vec(0u32..5, n),
                proptest::collection::vec(0u32..3, n),
            )
        })
        .prop_map(|(a, b, c)| RankedTable::from_u32_columns(vec![a, b, c]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spans stay well-nested for random tables, thread counts, level
    /// caps, top-k cuts and mid-run cancellation — every way a session
    /// can stop early.
    #[test]
    fn spans_nest_properly_under_random_cancel_points(
        table in small_table(),
        threads in 1usize..5,
        max_level in 1usize..4,
        top_k in 0usize..6,
        cancel_level in 0usize..4,
    ) {
        let sink = Arc::new(TraceSink::new(Arc::new(MonotonicClock::new())));
        let mut builder = DiscoveryBuilder::new()
            .approximate(0.2)
            .parallelism(threads)
            .max_level(max_level)
            .trace_sink(Arc::clone(&sink));
        if top_k > 0 {
            builder = builder.top_k(top_k);
        }
        let mut session = builder.build(&table);
        let token = session.cancel_token();
        for event in session.by_ref() {
            if let DiscoveryEvent::LevelComplete(outcome) = &event {
                if cancel_level > 0 && outcome.level == cancel_level {
                    token.cancel();
                }
            }
        }
        let _ = session.into_result();
        assert_well_nested(&sink.spans());
    }
}
