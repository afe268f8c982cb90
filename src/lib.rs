//! # aod — efficient discovery of approximate order dependencies
//!
//! A Rust reproduction of *Efficient Discovery of Approximate Order
//! Dependencies* (Karegar, Godfrey, Golab, Kargar, Srivastava, Szlichta —
//! EDBT 2021). This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`table`] | total-ordered values, columnar tables, CSV, rank encoding |
//! | [`partition`] | attribute sets, stripped partitions built by refinement, cache |
//! | [`lis`] | LNDS/LIS (patience), inversion counting |
//! | [`exec`] | scoped thread pool with one claim counter for per-level parallelism |
//! | [`obs`] | dependency-free metrics: counters, gauges, histograms, Prometheus exposition |
//! | [`validate`] | exact + approximate OC/OFD/OD validators (Algorithms 1 & 2) |
//! | [`core`] | the set-based lattice discovery framework |
//! | [`datagen`] | synthetic `flight`/`ncvoter`-shaped workloads |
//! | [`serve`] | HTTP discovery service: registry, jobs, NDJSON events, cache |
//!
//! ## Quickstart
//!
//! Discovery is driven by a fluent [`DiscoveryBuilder`](core::DiscoveryBuilder)
//! producing either a one-shot result or a streaming
//! [`DiscoverySession`](core::DiscoverySession):
//!
//! ```
//! use aod::prelude::*;
//!
//! // Table 1 of the paper.
//! let table = employee_table();
//! let ranked = RankedTable::from_table(&table);
//!
//! // Discover approximate ODs at a 15% threshold with the paper's
//! // optimal (LNDS-based) validator.
//! let result = DiscoveryBuilder::new().approximate(0.15).run(&ranked);
//! assert!(result.n_ocs() > 0);
//!
//! // Or stream the same run: observe events, cancel anytime, harvest
//! // well-formed partial results.
//! let mut session = DiscoveryBuilder::new().approximate(0.15).build(&ranked);
//! let n_found = session
//!     .by_ref()
//!     .filter(|e| matches!(e, DiscoveryEvent::OcFound(_)))
//!     .count();
//! assert_eq!(session.into_result().n_ocs(), n_found);
//!
//! // Exact discovery is the same run at ε = 0.
//! let exact = DiscoveryBuilder::new().exact().run(&ranked);
//! assert!(exact.ocs.iter().all(|d| d.removed == 0));
//!
//! // Validate one candidate directly: e(sal ~ tax) = 4/9 (Example 2.15).
//! let outcome = validate_aoc(&ranked, AttrSet::EMPTY, 2, 5, 0.5, AocStrategy::Optimal);
//! assert_eq!(outcome.removed, Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Relation substrate (re-export of `aod-table`).
pub use aod_table as table;

/// Partition machinery (re-export of `aod-partition`).
pub use aod_partition as partition;

/// Subsequence algorithms (re-export of `aod-lis`).
pub use aod_lis as lis;

/// Scoped claim-counter executor (re-export of `aod-exec`).
pub use aod_exec as exec;

/// Metrics and structured observability (re-export of `aod-obs`).
pub use aod_obs as obs;

/// Dependency validators (re-export of `aod-validate`).
pub use aod_validate as validate;

/// Discovery framework (re-export of `aod-core`).
pub use aod_core as core;

/// Synthetic dataset generators (re-export of `aod-datagen`).
pub use aod_datagen as datagen;

/// HTTP discovery service (re-export of `aod-serve`).
pub use aod_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use aod_core::{
        AocStrategy, CancelToken, DiscoveryBuilder, DiscoveryEvent, DiscoveryResult,
        DiscoverySession, LevelOutcome, OcDep, OfdDep, PruneConfig, PruneRule, StopReason,
    };
    pub use aod_partition::{AttrSet, Partition, PartitionCache};
    pub use aod_table::{employee_table, RankedTable, Schema, Table, Value};
    pub use aod_validate::{
        list_od_holds, list_od_min_removal, removal_budget, strategy_backend, validate_aoc,
        validate_aod, validate_aofd, OcValidator, OcValidatorBackend, Outcome,
    };
}
