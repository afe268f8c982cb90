//! # aod-core — set-based discovery of (approximate) order dependencies
//!
//! The paper's discovery framework (Section 3.1, Figure 1): a level-wise
//! traversal of the attribute-set lattice that validates canonical OC and
//! OFD candidates, prunes by axioms, and ranks results by interestingness.
//!
//! The framework is exposed as a **streaming engine**: a
//! [`DiscoveryBuilder`] produces a [`DiscoverySession`] that runs level by
//! level, emits [`DiscoveryEvent`]s, honours a [`CancelToken`] and serves
//! well-formed partial results at any point. Swapping the AOC validator
//! between **Algorithm 2** (optimal, LNDS-based) and **Algorithm 1** (the
//! iterative baseline) — or running in exact mode, or plugging in a custom
//! [`OcValidatorBackend`] — reproduces every experimental configuration
//! from the same driver, so measured differences are purely algorithmic.
//!
//! ## Builder quickstart
//!
//! ```
//! use aod_core::DiscoveryBuilder;
//! use aod_table::{employee_table, RankedTable};
//!
//! let table = employee_table();
//! let ranked = RankedTable::from_table(&table);
//!
//! // Approximate ODs at ε = 10% with the paper's optimal validator.
//! let result = DiscoveryBuilder::new().approximate(0.10).run(&ranked);
//!
//! let names = table.schema().names();
//! println!("{}", result.report(&names));
//! ```
//!
//! ## Streaming event loop
//!
//! ```
//! use aod_core::{DiscoveryBuilder, DiscoveryEvent};
//! use aod_table::{employee_table, RankedTable};
//!
//! let ranked = RankedTable::from_table(&employee_table());
//! let mut session = DiscoveryBuilder::new().approximate(0.10).build(&ranked);
//! let token = session.cancel_token();
//! for event in session.by_ref() {
//!     match event {
//!         DiscoveryEvent::OcFound(dep) => println!("found {:?}", dep),
//!         DiscoveryEvent::LevelComplete(outcome) if outcome.level >= 3 => token.cancel(),
//!         _ => {}
//!     }
//! }
//! let partial = session.into_result(); // well-formed at any stopping point
//! assert!(partial.n_ocs() > 0);
//! ```
//!
//! The one-shot [`discover`] is the compat shorthand for
//! `DiscoveryBuilder::from_config(config.clone()).run(table)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod candidates;
mod canonical;
mod config;
mod dep;
mod discover;
pub mod engine;
mod frontier;
pub mod json;
mod parallel;
mod prune_state;
mod repair;
mod result;
pub mod sink;
mod stats;
pub mod trace_export;
pub mod wire;

pub use builder::DiscoveryBuilder;
pub use canonical::{canonicalize, check_list_od, CanonicalDep};
pub use config::{DiscoveryConfig, Mode, PruneConfig};
pub use dep::{OcDep, OfdDep};
pub use discover::discover;
pub use engine::{CancelToken, DiscoveryEvent, DiscoverySession, LevelOutcome, StopReason};
pub use prune_state::PruneRule;
pub use repair::{cleaning_candidates, outlier_report, OutlierReport};
pub use result::DiscoveryResult;
pub use sink::{DiscoveryMetrics, EventSink, NoopSink, Phase};
pub use stats::{DiscoveryStats, LevelStats};
pub use trace_export::{chrome_trace, trace_ndjson};
pub use wire::SCHEMA_VERSION;

// Re-exports so callers can configure runs and inspect lattices with one import.
pub use aod_exec::Executor;
pub use aod_partition::{prefix_join, JoinedChild};
pub use aod_validate::{AocStrategy, OcValidatorBackend, SampleVerdict};
