//! The streaming `DiscoverySession` API versus the one-shot
//! `DiscoveryBuilder::run`:
//! event replay must be lossless, cancellation/top-k must yield
//! well-formed flagged partial results, and stepping must be observable
//! level by level.

use aod::obs::{ManualClock, TraceSink};
use aod::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Worker threads for the sessions under test. The CI parallel smoke job
/// sets `AOD_TEST_THREADS=4` to re-run this whole suite on four
/// executor workers — every assertion must keep passing unchanged,
/// which is exactly the engine's determinism contract.
fn test_threads() -> usize {
    std::env::var("AOD_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// A fresh builder at the suite's thread count.
fn builder() -> DiscoveryBuilder {
    DiscoveryBuilder::new().parallelism(test_threads())
}

/// ε ∈ {0, 0.1, 0.3} × both AOC strategies (ε = 0 is exact discovery).
fn configs() -> Vec<(f64, AocStrategy)> {
    let strategies = [AocStrategy::Optimal, AocStrategy::Iterative];
    [0.0, 0.1, 0.3]
        .into_iter()
        .flat_map(|eps| strategies.map(|s| (eps, s)))
        .collect()
}

/// A builder for one `(ε, strategy)` configuration.
fn configured((eps, strategy): (f64, AocStrategy)) -> DiscoveryBuilder {
    DiscoveryBuilder::new().approximate(eps).strategy(strategy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replaying the event stream to completion yields bit-identical
    /// results to the one-shot `run()` across ε ∈ {0, 0.1, 0.3} and both
    /// AOC strategies.
    #[test]
    fn event_replay_is_bit_identical_to_one_shot(table in small_table()) {
        for config in configs() {
            let one_shot = configured(config).run(&table);

            let mut session = configured(config)
                .parallelism(test_threads())
                .build(&table);
            let mut streamed_ocs: Vec<OcDep> = Vec::new();
            let mut streamed_ofds: Vec<OfdDep> = Vec::new();
            let mut last_level = 0usize;
            for event in session.by_ref() {
                match event {
                    DiscoveryEvent::OcFound(dep) => streamed_ocs.push(dep),
                    DiscoveryEvent::OfdFound(dep) => streamed_ofds.push(dep),
                    DiscoveryEvent::LevelComplete(outcome) => {
                        prop_assert!(outcome.level > last_level);
                        last_level = outcome.level;
                    }
                    _ => {}
                }
            }
            let replayed = session.into_result();

            // The final result is bit-identical (deps are f64-carrying
            // structs compared with ==, so this covers factors/coverage).
            prop_assert_eq!(&replayed.ocs, &one_shot.ocs, "config {:?}", &config);
            prop_assert_eq!(&replayed.ofds, &one_shot.ofds, "config {:?}", &config);
            prop_assert_eq!(replayed.n_rows, one_shot.n_rows);
            prop_assert_eq!(replayed.n_attrs, one_shot.n_attrs);
            // And the event stream itself carried every dependency, in
            // driver order.
            prop_assert_eq!(&streamed_ocs, &one_shot.ocs);
            prop_assert_eq!(&streamed_ofds, &one_shot.ofds);
            prop_assert!(!replayed.is_partial());
        }
    }
}

/// The acceptance scenario: consume events, cancel after level 2, and get
/// partial results equal to a `max_level: Some(2)` one-shot run.
#[test]
fn cancel_after_level_two_equals_max_level_two() {
    let ranked = RankedTable::from_table(&employee_table());
    let capped = DiscoveryBuilder::new()
        .approximate(0.15)
        .max_level(2)
        .run(&ranked);

    let mut session = builder().approximate(0.15).build(&ranked);
    let token = session.cancel_token();
    let mut saw_cancelled_event = false;
    for event in session.by_ref() {
        match event {
            DiscoveryEvent::LevelComplete(outcome) if outcome.level == 2 => token.cancel(),
            DiscoveryEvent::Cancelled { level } => {
                assert_eq!(level, 3, "cancellation lands at the next level");
                saw_cancelled_event = true;
            }
            _ => {}
        }
    }
    assert!(saw_cancelled_event);
    assert_eq!(session.stop_reason(), Some(StopReason::Cancelled));

    let partial = session.into_result();
    assert!(partial.n_ocs() > 0);
    assert_eq!(partial.ocs, capped.ocs);
    assert_eq!(partial.ofds, capped.ofds);
    // Cancelled runs are flagged partial; max-level runs are not.
    assert!(partial.is_partial() && partial.stats.stopped_early);
    assert!(!capped.is_partial());
}

#[test]
fn top_k_stops_early_with_flagged_prefix() {
    let ranked = RankedTable::from_table(&employee_table());
    let full = builder().approximate(0.15).run(&ranked);
    assert!(full.n_ocs() > 3, "need enough OCs for the scenario");

    let top = builder().approximate(0.15).top_k(3).build(&ranked);
    let result = top.run();
    assert_eq!(result.n_ocs(), 3);
    // Early exit serves a prefix of the full run's stream.
    assert_eq!(result.ocs, full.ocs[..3].to_vec());
    assert!(result.is_partial() && result.stats.stopped_early);
    assert!(!result.stats.timed_out);
}

#[test]
fn top_k_beyond_total_is_a_complete_run() {
    let ranked = RankedTable::from_table(&employee_table());
    let full = builder().approximate(0.15).run(&ranked);
    let generous = builder().approximate(0.15).top_k(10_000).run(&ranked);
    assert_eq!(generous.ocs, full.ocs);
    assert!(!generous.is_partial());
}

#[test]
fn pre_cancelled_session_returns_empty_flagged_results() {
    let ranked = RankedTable::from_table(&employee_table());
    let token = CancelToken::new();
    token.cancel();
    let session = builder()
        .approximate(0.2)
        .cancel_token(token)
        .build(&ranked);
    let result = session.run();
    assert_eq!(result.n_ocs() + result.n_ofds(), 0);
    assert!(result.is_partial() && result.stats.stopped_early);
}

#[test]
fn step_reports_level_outcomes_in_order() {
    let ranked = RankedTable::from_table(&employee_table());
    let mut session = builder().exact().record_events(false).build(&ranked);
    let mut levels = Vec::new();
    while let Some(outcome) = session.step() {
        levels.push(outcome.level);
        if outcome.stop.is_none() {
            assert!(outcome.completed);
        }
    }
    assert_eq!(session.stop_reason(), Some(StopReason::Exhausted));
    let expected: Vec<usize> = (1..=levels.len()).collect();
    assert_eq!(levels, expected);
    // Stepping a finished session is a no-op.
    assert!(session.step().is_none());
    let result = session.into_result();
    let one_shot = DiscoveryBuilder::new().exact().run(&ranked);
    assert_eq!(result.ocs, one_shot.ocs);
    assert_eq!(result.ofds, one_shot.ofds);
}

#[test]
fn partial_snapshots_are_well_formed_mid_run() {
    let ranked = RankedTable::from_table(&employee_table());
    let mut session = builder().approximate(0.15).build(&ranked);
    session.step();
    session.step();
    let snapshot = session.result();
    assert!(snapshot.n_ofds() > 0 || snapshot.n_ocs() > 0);
    assert!(snapshot.ocs.iter().all(|d| d.level <= 2));
    // The session keeps going after a snapshot.
    let final_result = session.run();
    assert!(final_result.n_ocs() >= snapshot.n_ocs());
}

#[test]
fn pruned_events_report_rules() {
    let ranked = RankedTable::from_table(&employee_table());
    let session = builder().approximate(0.15).build(&ranked);
    let mut rules = Vec::new();
    let mut n_pruned_events = 0usize;
    let mut session = session;
    for event in session.by_ref() {
        if let DiscoveryEvent::Pruned { rule, level, .. } = event {
            assert!(level >= 2);
            n_pruned_events += 1;
            if !rules.contains(&rule) {
                rules.push(rule);
            }
        }
    }
    let total_pruned: usize = session
        .stats()
        .per_level
        .iter()
        .map(|l| l.n_oc_pruned)
        .sum();
    assert_eq!(n_pruned_events, total_pruned);
    assert!(!rules.is_empty(), "employee data triggers pruning rules");
}

/// A backend that counts the calls reaching it, across all its forks.
struct Counting {
    inner: Box<dyn OcValidatorBackend>,
    calls: Arc<AtomicUsize>,
}

impl OcValidatorBackend for Counting {
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
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.min_removal(ctx, a_ranks, b_ranks, limit)
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        Box::new(Counting {
            inner: self.inner.fork(),
            calls: Arc::clone(&self.calls),
        })
    }
}

/// On flight 1,000 × 10 at ε = 0.1, candidates whose context partition
/// equals a one-smaller context's are counted as validated but never reach
/// the backend, for both strategies. With R2 off they must: a valid OC one
/// level down is then not pruned above it. Under every `PruneConfig` the
/// candidates the class-count bound or the disjoint swapped pairs reject
/// skip the backend as well, so each validated candidate is a backend
/// call, `inherited`, `bounded` or `paired` (the OC batch span args of a
/// `ManualClock` trace), and the pairs fire in every configuration.
#[test]
fn contexts_that_are_not_free_skip_the_backend_only_under_r2() {
    let table = aod::datagen::flight::flight(7).table(1000);
    let table = RankedTable::from_table(&table.project(&(0..10).collect::<Vec<_>>()).unwrap());
    let without_r2 = PruneConfig {
        r2_context_implication: false,
        ..PruneConfig::default()
    };
    for strategy in [AocStrategy::Optimal, AocStrategy::Iterative] {
        for (prune, skips) in [(PruneConfig::default(), true), (without_r2, false)] {
            let calls = Arc::new(AtomicUsize::new(0));
            let backend = Counting {
                inner: strategy_backend(strategy),
                calls: Arc::clone(&calls),
            };
            let trace = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
            let result = builder()
                .approximate(0.1)
                .prune(prune)
                .validator(Box::new(backend))
                .trace_sink(Arc::clone(&trace))
                .record_events(false)
                .run(&table);
            let validated: usize = result
                .stats
                .per_level
                .iter()
                .map(|l| l.n_oc_candidates)
                .sum();
            let spans = trace.spans();
            let arg_sum = |name: &str| -> usize {
                spans
                    .iter()
                    .flat_map(|s| s.args.iter())
                    .filter(|(key, _)| *key == name)
                    .map(|(_, k)| *k as usize)
                    .sum()
            };
            let (inherited, bounded) = (arg_sum("inherited"), arg_sum("bounded"));
            let paired = arg_sum("paired");
            let calls = calls.load(Ordering::Relaxed);
            let at = format!(
                "{strategy:?}, R2 {skips}: {calls} calls, {inherited} inherited, \
                 {bounded} bounded, {paired} paired"
            );
            assert!(paired > 0, "{at}");
            if skips {
                assert!(inherited > 0, "{at}");
                assert_eq!(calls + inherited + bounded + paired, validated, "{at}");
            } else {
                assert_eq!(calls + bounded + paired, validated, "{at}");
            }
        }
    }
}
