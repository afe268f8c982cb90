//! Discovery configuration.

use aod_validate::AocStrategy;
use std::time::Duration;

/// Exact vs. approximate discovery, and which AOC validator to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Discover exact ODs (ε = 0 with the cheap linear validators) —
    /// the paper's "OD" curves.
    Exact,
    /// Discover approximate ODs with the given threshold and validator —
    /// the paper's "AOD (optimal)" / "AOD (iterative)" curves.
    Approximate {
        /// The approximation threshold `ε ∈ [0, 1]`.
        epsilon: f64,
        /// Which AOC validation algorithm runs (Algorithm 2 or 1).
        strategy: AocStrategy,
    },
}

impl Mode {
    /// Convenience constructor for the optimal approximate mode.
    #[must_use]
    pub fn approximate(epsilon: f64) -> Mode {
        Mode::Approximate {
            epsilon,
            strategy: AocStrategy::Optimal,
        }
    }

    /// Convenience constructor for the iterative-baseline approximate mode.
    #[must_use]
    pub fn approximate_iterative(epsilon: f64) -> Mode {
        Mode::Approximate {
            epsilon,
            strategy: AocStrategy::Iterative,
        }
    }

    /// The threshold (0 for exact mode).
    pub fn epsilon(&self) -> f64 {
        match self {
            Mode::Exact => 0.0,
            Mode::Approximate { epsilon, .. } => *epsilon,
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

/// Full configuration of a discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Discovery mode (exact / approximate-optimal / approximate-iterative).
    pub mode: Mode,
    /// Stop after this lattice level (None = full lattice). Caps the
    /// exponential tail in wide-schema experiments, like the paper's level
    /// cut in Figure 5.
    pub max_level: Option<usize>,
    /// Abort (gracefully, returning partial results flagged `timed_out`)
    /// once the run has used this budget on the session clock (see
    /// [`DiscoveryBuilder::timeout`](crate::DiscoveryBuilder::timeout)) —
    /// the experiments use it to emulate the paper's 24-hour cap on the
    /// iterative baseline.
    pub timeout: Option<Duration>,
    /// Pruning-rule toggles (all on by default).
    pub prune: PruneConfig,
    /// Worker threads per lattice level: `1` (the default) evaluates the
    /// level's nodes in order on the calling thread, `0` resolves to
    /// [`std::thread::available_parallelism`], `n > 1` runs up to `n`
    /// workers (never more than a level has work items). Every setting
    /// runs the same per-node evaluation and node-order merge, so results
    /// are bit-identical across all settings — see the determinism
    /// contract on [`DiscoverySession`](crate::DiscoverySession).
    pub threads: usize,
}

/// The default configuration is exact discovery ([`DiscoveryConfig::exact`]).
impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig::exact()
    }
}

impl DiscoveryConfig {
    /// Exact OD discovery, full lattice, no timeout.
    #[must_use]
    pub fn exact() -> DiscoveryConfig {
        DiscoveryConfig {
            mode: Mode::Exact,
            max_level: None,
            timeout: None,
            prune: PruneConfig::default(),
            threads: 1,
        }
    }

    /// Approximate discovery with Algorithm 2 at the given threshold.
    #[must_use]
    pub fn approximate(epsilon: f64) -> DiscoveryConfig {
        DiscoveryConfig {
            mode: Mode::approximate(epsilon),
            ..DiscoveryConfig::exact()
        }
    }

    /// Approximate discovery with the iterative baseline (Algorithm 1).
    #[must_use]
    pub fn approximate_iterative(epsilon: f64) -> DiscoveryConfig {
        DiscoveryConfig {
            mode: Mode::approximate_iterative(epsilon),
            ..DiscoveryConfig::exact()
        }
    }

    /// Builder: cap the lattice level.
    #[must_use = "with_* returns a new config instead of mutating in place"]
    pub fn with_max_level(mut self, level: usize) -> DiscoveryConfig {
        self.max_level = Some(level);
        self
    }

    /// Builder: set the wall-clock budget.
    #[must_use = "with_* returns a new config instead of mutating in place"]
    pub fn with_timeout(mut self, timeout: Duration) -> DiscoveryConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Builder: override the pruning rules (ablation).
    #[must_use = "with_* returns a new config instead of mutating in place"]
    pub fn with_pruning(mut self, prune: PruneConfig) -> DiscoveryConfig {
        self.prune = prune;
        self
    }

    /// Builder: set the worker-thread count (`0` = one per available
    /// core).
    #[must_use = "with_* returns a new config instead of mutating in place"]
    pub fn with_threads(mut self, threads: usize) -> DiscoveryConfig {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DiscoveryConfig::exact().mode, Mode::Exact);
        let a = DiscoveryConfig::approximate(0.1);
        assert!(matches!(
            a.mode,
            Mode::Approximate {
                strategy: AocStrategy::Optimal,
                ..
            }
        ));
        assert!((a.mode.epsilon() - 0.1).abs() < 1e-12);
        let i = DiscoveryConfig::approximate_iterative(0.2);
        assert!(matches!(
            i.mode,
            Mode::Approximate {
                strategy: AocStrategy::Iterative,
                ..
            }
        ));
        assert_eq!(Mode::Exact.epsilon(), 0.0);
    }

    #[test]
    fn builders() {
        let c = DiscoveryConfig::exact()
            .with_max_level(4)
            .with_timeout(Duration::from_secs(1));
        assert_eq!(c.max_level, Some(4));
        assert_eq!(c.timeout, Some(Duration::from_secs(1)));
        assert_eq!(c.prune, PruneConfig::default());
    }

    #[test]
    fn default_is_exact() {
        let d = DiscoveryConfig::default();
        assert_eq!(d.mode, Mode::Exact);
        assert_eq!(d.max_level, None);
        assert_eq!(d.timeout, None);
        assert_eq!(d.prune, PruneConfig::default());
        assert_eq!(d.threads, 1, "one worker unless asked otherwise");
    }

    #[test]
    fn threads_builder() {
        let c = DiscoveryConfig::exact().with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(DiscoveryConfig::exact().with_threads(0).threads, 0);
    }

    #[test]
    fn prune_toggles() {
        let all = PruneConfig::default();
        assert!(all.r2_context_implication && all.node_deletion);
        let none = PruneConfig::none();
        assert!(!none.r2_context_implication && !none.r4_key_pruning);
        let c = DiscoveryConfig::approximate(0.1).with_pruning(none);
        assert_eq!(c.prune, none);
    }
}
