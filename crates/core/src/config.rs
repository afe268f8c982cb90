//! Discovery configuration: the settings a
//! [`DiscoveryBuilder`](crate::DiscoveryBuilder) hands to its session, and
//! the pruning-rule toggles.

use crate::engine::CancelToken;
use crate::sink::EventSink;
use aod_obs::{Gauge, TraceSink};
use aod_partition::AttrSet;
use aod_validate::{AocStrategy, OcValidatorBackend};
use std::sync::Arc;
use std::time::Duration;

/// Everything a [`DiscoveryBuilder`](crate::DiscoveryBuilder) collects for
/// one session; see the builder's methods for what each field means.
///
/// Exact discovery is `epsilon = 0` (the default) on the configured
/// strategy: with a removal budget of 0 the validators accept exactly the
/// dependencies that hold.
pub(crate) struct Settings {
    pub epsilon: f64,
    pub strategy: AocStrategy,
    pub prune: PruneConfig,
    pub max_level: Option<usize>,
    pub timeout: Option<Duration>,
    /// `None` = every column of the table.
    pub scope: Option<AttrSet>,
    pub top_k: Option<usize>,
    pub cancel: CancelToken,
    /// `None` = the [`strategy`](Settings::strategy)'s backend.
    pub backend: Option<Box<dyn OcValidatorBackend>>,
    pub record_events: bool,
    pub threads: usize,
    pub sink: Option<Arc<dyn EventSink>>,
    pub queue_gauge: Option<Gauge>,
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            epsilon: 0.0,
            strategy: AocStrategy::Optimal,
            prune: PruneConfig::default(),
            max_level: None,
            timeout: None,
            scope: None,
            top_k: None,
            cancel: CancelToken::default(),
            backend: None,
            record_events: true,
            threads: 1,
            sink: None,
            queue_gauge: None,
            trace: None,
        }
    }
}

/// Which pruning rules the lattice driver applies (see the `prune_state.rs`
/// module docs for the rules and their soundness arguments).
///
/// Defaults to everything on — the paper-faithful configuration. Disabling
/// rules exists for **ablation measurements** (`aod-bench`'s `ablation`
/// binary): with a rule off, the candidates it would have skipped are
/// validated (and, being valid, reported), so the output additionally
/// contains implied/trivial dependencies while runtime shows the rule's
/// contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneConfig {
    /// R2 — skip OCs implied by a valid sub-context OC.
    pub r2_context_implication: bool,
    /// R3 — skip OCs implied by an (approximately) constant attribute.
    pub r3_constancy_implication: bool,
    /// R4 — skip OCs whose context partition is a key (trivially valid).
    pub r4_key_pruning: bool,
    /// Drop dead lattice nodes (no OFD candidates and all pair contexts
    /// keyed) before generating the next level.
    pub node_deletion: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            r2_context_implication: true,
            r3_constancy_implication: true,
            r4_key_pruning: true,
            node_deletion: true,
        }
    }
}

impl PruneConfig {
    /// All pruning disabled (exhaustive validation; ablation baseline).
    #[must_use]
    pub fn none() -> PruneConfig {
        PruneConfig {
            r2_context_implication: false,
            r3_constancy_implication: false,
            r4_key_pruning: false,
            node_deletion: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscoveryBuilder;

    #[test]
    fn constructors() {
        let exact = DiscoveryBuilder::new().exact().settings;
        assert_eq!(exact.epsilon, 0.0);
        let a = DiscoveryBuilder::new().approximate(0.1).settings;
        assert_eq!(a.strategy, AocStrategy::Optimal);
        assert!((a.epsilon - 0.1).abs() < 1e-12);
        let i = DiscoveryBuilder::new()
            .approximate(0.2)
            .strategy(AocStrategy::Iterative)
            .settings;
        assert_eq!(i.strategy, AocStrategy::Iterative);
        // `exact()` is `approximate(0.0)` and keeps the strategy.
        let e = DiscoveryBuilder::new()
            .approximate(0.3)
            .strategy(AocStrategy::Iterative)
            .exact()
            .settings;
        assert_eq!((e.epsilon, e.strategy), (0.0, AocStrategy::Iterative));
    }

    #[test]
    fn builders() {
        let c = DiscoveryBuilder::new()
            .max_level(4)
            .timeout(Duration::from_secs(1))
            .settings;
        assert_eq!(c.max_level, Some(4));
        assert_eq!(c.timeout, Some(Duration::from_secs(1)));
        assert_eq!(c.prune, PruneConfig::default());
    }

    #[test]
    fn default_is_exact() {
        let d = Settings::default();
        assert_eq!(d.epsilon, 0.0, "exact discovery unless asked otherwise");
        assert_eq!(d.strategy, AocStrategy::Optimal);
        assert_eq!(d.max_level, None);
        assert_eq!(d.timeout, None);
        assert_eq!(d.prune, PruneConfig::default());
        assert_eq!(d.threads, 1, "one worker unless asked otherwise");
        assert!(d.record_events);
    }

    #[test]
    fn threads_builder() {
        assert_eq!(DiscoveryBuilder::new().parallelism(4).settings.threads, 4);
        assert_eq!(DiscoveryBuilder::new().parallelism(0).settings.threads, 0);
    }

    #[test]
    fn prune_toggles() {
        let all = PruneConfig::default();
        assert!(all.r2_context_implication && all.node_deletion);
        let none = PruneConfig::none();
        assert!(!none.r2_context_implication && !none.r4_key_pruning);
        let c = DiscoveryBuilder::new()
            .approximate(0.1)
            .prune(none)
            .settings;
        assert_eq!(c.prune, none);
    }
}
