//! The executor's determinism contract: for every configuration,
//! discovery with `parallelism(4)` must be **bit-identical** to
//! `parallelism(1)` — the event stream, the dependency lists (including
//! their `f64` factors/coverage) and every statistics counter. Only
//! `threads_used` and the `Duration` timers may differ, and under a
//! `ManualClock` the timers agree too, as do timeout cut points.

use aod::core::EventSink;
use aod::obs::{ManualClock, TraceSink};
use aod::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A small random table: two payload columns and a low-cardinality
/// context column, so lattice contexts have multiple classes.
fn small_table() -> impl Strategy<Value = RankedTable> {
    (1usize..14)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..6, n),
                proptest::collection::vec(0u32..6, n),
                proptest::collection::vec(0u32..3, n),
            )
        })
        .prop_map(|(a, b, c)| RankedTable::from_u32_columns(vec![a, b, c]))
}

/// The acceptance matrix: ε ∈ {0, 0.1, 0.3} × both AOC strategies.
fn configs() -> Vec<DiscoveryConfig> {
    let mut out = Vec::new();
    for eps in [0.0, 0.1, 0.3] {
        out.push(DiscoveryConfig::approximate(eps));
        out.push(DiscoveryConfig::approximate_iterative(eps));
    }
    out
}

fn run_collect(
    table: &RankedTable,
    config: &DiscoveryConfig,
    threads: usize,
) -> (Vec<DiscoveryEvent>, DiscoveryResult) {
    let mut session = DiscoveryBuilder::from_config(config.clone())
        .parallelism(threads)
        .build(table);
    let events: Vec<DiscoveryEvent> = session.by_ref().collect();
    (events, session.into_result())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four workers, one worker: same events, same dependencies, same
    /// counters — across the full ε × strategy acceptance matrix.
    #[test]
    fn four_threads_bit_identical_to_one(table in small_table()) {
        for config in configs() {
            let (seq_events, seq) = run_collect(&table, &config, 1);
            let (par_events, par) = run_collect(&table, &config, 4);

            prop_assert_eq!(&par_events, &seq_events, "config {:?}", &config);
            prop_assert_eq!(&par.ocs, &seq.ocs, "config {:?}", &config);
            prop_assert_eq!(&par.ofds, &seq.ofds, "config {:?}", &config);
            // Order-insensitive stats: per-level counters and the flags.
            prop_assert_eq!(&par.stats.per_level, &seq.stats.per_level);
            prop_assert_eq!(par.stats.timed_out, seq.stats.timed_out);
            prop_assert_eq!(par.stats.stopped_early, seq.stats.stopped_early);
            // The thread knob is the *only* visible difference.
            prop_assert_eq!(par.stats.threads_used, 4);
            prop_assert_eq!(seq.stats.threads_used, 1);
        }
    }

    /// The parallel run also matches the one-shot compat `discover()`
    /// (one thread by default), transitively pinning all three paths.
    #[test]
    fn parallel_matches_one_shot_discover(table in small_table()) {
        for config in configs() {
            let one_shot = discover(&table, &config);
            let (_, par) = run_collect(&table, &config, 4);
            prop_assert_eq!(&par.ocs, &one_shot.ocs, "config {:?}", &config);
            prop_assert_eq!(&par.ofds, &one_shot.ofds, "config {:?}", &config);
        }
    }
}

/// `top_k` cuts the merge at the same candidate at every thread count:
/// the early-exit prefix is identical.
#[test]
fn parallel_top_k_serves_the_same_prefix() {
    let ranked = RankedTable::from_table(&employee_table());
    let full = DiscoveryBuilder::new().approximate(0.15).run(&ranked);
    assert!(full.n_ocs() > 3, "need enough OCs for the scenario");
    for k in [1usize, 3, full.n_ocs()] {
        let seq = DiscoveryBuilder::new()
            .approximate(0.15)
            .top_k(k)
            .parallelism(1)
            .run(&ranked);
        let par = DiscoveryBuilder::new()
            .approximate(0.15)
            .top_k(k)
            .parallelism(4)
            .run(&ranked);
        assert_eq!(par.ocs, seq.ocs, "k = {k}");
        assert_eq!(par.ofds, seq.ofds, "k = {k}");
        assert_eq!(par.stats.per_level, seq.stats.per_level, "k = {k}");
        assert_eq!(par.ocs, full.ocs[..k.min(full.n_ocs())].to_vec());
    }
}

/// A pre-cancelled parallel session stops before validating anything and
/// reports well-formed flagged partials, like a one-thread one.
#[test]
fn parallel_pre_cancelled_session_is_empty_and_flagged() {
    let ranked = RankedTable::from_table(&employee_table());
    let token = CancelToken::new();
    token.cancel();
    let result = DiscoveryBuilder::new()
        .approximate(0.2)
        .parallelism(4)
        .cancel_token(token)
        .build(&ranked)
        .run();
    assert_eq!(result.n_ocs() + result.n_ofds(), 0);
    assert!(result.is_partial() && result.stats.stopped_early);
}

/// Cancelling between levels lands the parallel session on the same level
/// boundary as a one-thread one (the acceptance scenario of the session
/// API, re-run with 4 workers).
#[test]
fn parallel_cancel_after_level_two_equals_max_level_two() {
    let ranked = RankedTable::from_table(&employee_table());
    let capped = discover(
        &ranked,
        &DiscoveryConfig::approximate(0.15).with_max_level(2),
    );
    let mut session = DiscoveryBuilder::new()
        .approximate(0.15)
        .parallelism(4)
        .build(&ranked);
    let token = session.cancel_token();
    for event in session.by_ref() {
        if let DiscoveryEvent::LevelComplete(outcome) = &event {
            if outcome.level == 2 {
                token.cancel();
            }
        }
    }
    assert_eq!(session.stop_reason(), Some(StopReason::Cancelled));
    let partial = session.into_result();
    assert_eq!(partial.ocs, capped.ocs);
    assert_eq!(partial.ofds, capped.ofds);
    assert!(partial.is_partial());
}

/// `with_threads` on the plain config plumbs through `discover()` et al.
#[test]
fn config_threads_plumb_through_from_config() {
    let ranked = RankedTable::from_table(&employee_table());
    let seq = discover(&ranked, &DiscoveryConfig::approximate(0.15));
    let par = discover(&ranked, &DiscoveryConfig::approximate(0.15).with_threads(4));
    assert_eq!(par.stats.threads_used, 4);
    assert_eq!(par.ocs, seq.ocs);
    assert_eq!(par.ofds, seq.ofds);
}

/// Advances a manual clock as one lattice level starts, so a timeout
/// expires at an exact point that does not depend on the thread count.
struct AdvanceAtLevel {
    clock: Arc<ManualClock>,
    level: usize,
    us: u64,
}

impl EventSink for AdvanceAtLevel {
    fn on_level_start(&self, level: usize, _n_nodes: usize) {
        if level == self.level {
            self.clock.advance_us(self.us);
        }
    }
}

/// A 100 µs budget and a clock that jumps 101 µs as level 3 starts: the
/// first node check of level 3 times out at every thread count, leaving
/// exactly the dependencies of a run capped at level 2.
#[test]
fn manual_clock_timeout_cuts_at_level_three() {
    let ranked = RankedTable::from_table(&employee_table());
    let capped = DiscoveryBuilder::new()
        .approximate(0.15)
        .max_level(2)
        .run(&ranked);
    assert!(capped.n_ocs() > 0, "need level-2 OCs for the scenario");
    for threads in [1usize, 4] {
        let clock = Arc::new(ManualClock::new());
        let mut session = DiscoveryBuilder::new()
            .approximate(0.15)
            .parallelism(threads)
            .timeout(Duration::from_micros(100))
            .trace_sink(Arc::new(TraceSink::new(clock.clone())))
            .event_sink(Arc::new(AdvanceAtLevel {
                clock,
                level: 3,
                us: 101,
            }))
            .build(&ranked);
        let events: Vec<DiscoveryEvent> = session.by_ref().collect();
        assert_eq!(
            session.stop_reason(),
            Some(StopReason::TimedOut),
            "threads = {threads}"
        );
        assert_eq!(
            events.last(),
            Some(&DiscoveryEvent::TimedOut { level: 3 }),
            "threads = {threads}"
        );
        let partial = session.into_result();
        assert!(partial.stats.timed_out);
        assert_eq!(partial.ocs, capped.ocs, "threads = {threads}");
        assert_eq!(partial.ofds, capped.ofds, "threads = {threads}");
    }
}

/// The session clock is the engine's only time source: with a manual
/// clock that never moves, every `Duration` in the stats is zero at every
/// thread count. A `Duration::MAX` budget never fires.
#[test]
fn manual_clock_leaves_every_timer_at_zero() {
    let ranked = RankedTable::from_table(&employee_table());
    let full = DiscoveryBuilder::new().approximate(0.15).run(&ranked);
    for threads in [1usize, 4] {
        let result = DiscoveryBuilder::new()
            .approximate(0.15)
            .parallelism(threads)
            .trace_sink(Arc::new(TraceSink::new(Arc::new(ManualClock::new()))))
            .run(&ranked);
        let stats = &result.stats;
        assert_eq!(
            [
                stats.total,
                stats.oc_validation,
                stats.ofd_validation,
                stats.partitioning
            ],
            [Duration::ZERO; 4],
            "threads = {threads}"
        );
        assert_eq!(result.ocs, full.ocs);

        let unbounded = DiscoveryBuilder::new()
            .approximate(0.15)
            .parallelism(threads)
            .timeout(Duration::MAX)
            .run(&ranked);
        assert!(!unbounded.is_partial(), "threads = {threads}");
        assert_eq!(unbounded.ocs, full.ocs);
        assert_eq!(unbounded.ofds, full.ofds);
    }
}
