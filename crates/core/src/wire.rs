//! Stable JSON serialization of discovery types — the wire contract.
//!
//! `aod-serve` exposes discovery over HTTP, which turns these structures
//! into a versioned public API: field names and value encodings here are a
//! **contract**, changed only by bumping [`SCHEMA_VERSION`]. The encoders
//! use [`crate::json`], so strings are escape-correct and floats print in
//! Rust's shortest round-trip form (`parse` recovers the exact bits —
//! which is what makes "results byte-identical after a JSON round trip"
//! testable end to end).
//!
//! Encodings:
//!
//! * `Duration`s → **integer milliseconds** (`*_ms` fields, truncated).
//! * Attribute sets → ascending arrays of 0-based column indices.
//! * Enums ([`PruneRule`], [`StopReason`]) → `snake_case` string names.
//! * Dependency floats (`factor`, `coverage`) → shortest round-trip form.
//!
//! Field names, per type:
//!
//! | type | fields |
//! |------|--------|
//! | [`OcDep`] | `context`, `a`, `b`, `removed`, `factor`, `level`, `coverage` |
//! | [`OfdDep`] | `context`, `rhs`, `removed`, `factor`, `level`, `coverage` |
//! | [`LevelStats`] | `level`, `n_nodes`, `n_oc_candidates`, `n_oc_pruned`, `n_oc_found`, `n_ofd_candidates`, `n_ofd_found`, `n_products` |
//! | [`DiscoveryStats`] | `total_ms`, `oc_validation_ms`, `ofd_validation_ms`, `partitioning_ms`, `timed_out`, `stopped_early`, `threads_used`, `per_level` |
//! | [`DiscoveryResult`] | `schema_version`, `n_rows`, `n_attrs`, `ocs`, `ofds`, `stats` |
//! | [`DiscoveryEvent`] | `event` tag + per-variant payload (see [`DiscoveryEvent::to_json`]) |
//!
//! Everything except the `*_ms` timing fields is deterministic for a given
//! (table, config) pair — the engine's determinism contract carried onto
//! the wire.

use crate::dep::{OcDep, OfdDep};
use crate::engine::{DiscoveryEvent, LevelOutcome, StopReason};
use crate::json::{fmt_f64, JsonArray, JsonObject};
use crate::prune_state::PruneRule;
use crate::result::DiscoveryResult;
use crate::stats::{DiscoveryStats, LevelStats};
use aod_partition::AttrSet;
use std::time::Duration;

/// Version of the wire encoding documented in this module. Bumped whenever
/// a field is renamed, removed, or re-encoded. Version 2 dropped the two
/// sampling pre-check counters from [`LevelStats`].
pub const SCHEMA_VERSION: u64 = 2;

/// An attribute set as a JSON array of ascending column indices.
fn attrs_json(set: AttrSet) -> String {
    let mut arr = JsonArray::new();
    for attr in set.iter() {
        arr.push_u64(attr as u64);
    }
    arr.finish()
}

/// A `Duration` as integer milliseconds (the wire encoding for all timers).
fn millis(d: Duration) -> u64 {
    d.as_millis() as u64
}

impl PruneRule {
    /// Stable `snake_case` wire name of the rule.
    pub fn wire_name(self) -> &'static str {
        match self {
            PruneRule::ContextImplication => "context_implication",
            PruneRule::ConstancyImplication => "constancy_implication",
            PruneRule::KeyPruning => "key_pruning",
        }
    }
}

impl StopReason {
    /// Stable `snake_case` wire name of the stop reason.
    pub fn wire_name(self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::MaxLevel => "max_level",
            StopReason::TimedOut => "timed_out",
            StopReason::Cancelled => "cancelled",
            StopReason::TopK => "top_k",
        }
    }
}

impl OcDep {
    /// Wire encoding: `{"context":[..],"a":..,"b":..,"removed":..,
    /// "factor":..,"level":..,"coverage":..}`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.raw("context", &attrs_json(self.context))
            .num_u64("a", self.a as u64)
            .num_u64("b", self.b as u64)
            .num_u64("removed", self.removed as u64)
            .raw("factor", &fmt_f64(self.factor))
            .num_u64("level", self.level as u64)
            .raw("coverage", &fmt_f64(self.coverage));
        obj.finish()
    }
}

impl OfdDep {
    /// Wire encoding: `{"context":[..],"rhs":..,"removed":..,"factor":..,
    /// "level":..,"coverage":..}`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.raw("context", &attrs_json(self.context))
            .num_u64("rhs", self.rhs as u64)
            .num_u64("removed", self.removed as u64)
            .raw("factor", &fmt_f64(self.factor))
            .num_u64("level", self.level as u64)
            .raw("coverage", &fmt_f64(self.coverage));
        obj.finish()
    }
}

impl LevelStats {
    /// Wire encoding of the per-level counters.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.num_u64("level", self.level as u64)
            .num_u64("n_nodes", self.n_nodes as u64)
            .num_u64("n_oc_candidates", self.n_oc_candidates as u64)
            .num_u64("n_oc_pruned", self.n_oc_pruned as u64)
            .num_u64("n_oc_found", self.n_oc_found as u64)
            .num_u64("n_ofd_candidates", self.n_ofd_candidates as u64)
            .num_u64("n_ofd_found", self.n_ofd_found as u64)
            .num_u64("n_products", self.n_products as u64);
        obj.finish()
    }
}

impl DiscoveryStats {
    /// Wire encoding: timers as integer milliseconds (`*_ms`), flags, the
    /// resolved thread count, and the per-level counter array. Only the
    /// `*_ms` fields vary between identical runs.
    pub fn to_json(&self) -> String {
        let mut levels = JsonArray::new();
        for level in &self.per_level {
            levels.push_raw(&level.to_json());
        }
        let mut obj = JsonObject::new();
        obj.num_u64("total_ms", millis(self.total))
            .num_u64("oc_validation_ms", millis(self.oc_validation))
            .num_u64("ofd_validation_ms", millis(self.ofd_validation))
            .num_u64("partitioning_ms", millis(self.partitioning))
            .bool("timed_out", self.timed_out)
            .bool("stopped_early", self.stopped_early)
            .num_u64("threads_used", self.threads_used as u64)
            .raw("per_level", &levels.finish());
        obj.finish()
    }
}

impl LevelOutcome {
    /// Wire encoding: `{"level":..,"completed":..,"stop":null|"..",
    /// "stats":{..}}`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.num_u64("level", self.level as u64)
            .bool("completed", self.completed);
        match self.stop {
            Some(reason) => obj.str("stop", reason.wire_name()),
            None => obj.null("stop"),
        };
        obj.raw("stats", &self.stats.to_json());
        obj.finish()
    }
}

impl DiscoveryEvent {
    /// Wire encoding, tagged by an `event` field:
    ///
    /// * `{"event":"oc_found","dep":{..}}` / `{"event":"ofd_found","dep":{..}}`
    /// * `{"event":"pruned","level":..,"context":[..],"a":..,"b":..,"rule":".."}`
    /// * `{"event":"level_complete", ..}` ([`LevelOutcome`] fields inline)
    /// * `{"event":"timed_out","level":..}` / `{"event":"cancelled","level":..}`
    ///
    /// For a given (table, config) pair the encoded event stream is
    /// byte-identical across runs and thread counts: no timers appear in
    /// any variant.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        match self {
            DiscoveryEvent::OcFound(dep) => {
                obj.str("event", "oc_found").raw("dep", &dep.to_json());
            }
            DiscoveryEvent::OfdFound(dep) => {
                obj.str("event", "ofd_found").raw("dep", &dep.to_json());
            }
            DiscoveryEvent::Pruned {
                level,
                context,
                a,
                b,
                rule,
            } => {
                obj.str("event", "pruned")
                    .num_u64("level", *level as u64)
                    .raw("context", &attrs_json(*context))
                    .num_u64("a", *a as u64)
                    .num_u64("b", *b as u64)
                    .str("rule", rule.wire_name());
            }
            DiscoveryEvent::LevelComplete(outcome) => {
                obj.str("event", "level_complete")
                    .num_u64("level", outcome.level as u64)
                    .bool("completed", outcome.completed);
                match outcome.stop {
                    Some(reason) => obj.str("stop", reason.wire_name()),
                    None => obj.null("stop"),
                };
                obj.raw("stats", &outcome.stats.to_json());
            }
            DiscoveryEvent::TimedOut { level } => {
                obj.str("event", "timed_out")
                    .num_u64("level", *level as u64);
            }
            DiscoveryEvent::Cancelled { level } => {
                obj.str("event", "cancelled")
                    .num_u64("level", *level as u64);
            }
        }
        obj.finish()
    }
}

impl DiscoveryResult {
    /// Wire encoding of a complete (or well-formed partial) result:
    /// `{"schema_version":2,"n_rows":..,"n_attrs":..,"ocs":[..],
    /// "ofds":[..],"stats":{..}}`. Dependency lists keep discovery order
    /// (replaying `oc_found`/`ofd_found` events reconstructs them), so for
    /// a given (table, config) everything except the timing fields inside
    /// `stats` is byte-identical across runs.
    pub fn to_json(&self) -> String {
        let mut ocs = JsonArray::new();
        for dep in &self.ocs {
            ocs.push_raw(&dep.to_json());
        }
        let mut ofds = JsonArray::new();
        for dep in &self.ofds {
            ofds.push_raw(&dep.to_json());
        }
        let mut obj = JsonObject::new();
        obj.num_u64("schema_version", SCHEMA_VERSION)
            .num_u64("n_rows", self.n_rows as u64)
            .num_u64("n_attrs", self.n_attrs as u64)
            .raw("ocs", &ocs.finish())
            .raw("ofds", &ofds.finish())
            .raw("stats", &self.stats.to_json());
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DiscoveryBuilder;
    use crate::json::JsonValue;
    use aod_table::{employee_table, RankedTable};

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    #[test]
    fn dep_encodings_parse_back_exactly() {
        let dep = OcDep {
            context: AttrSet::from_attrs([1, 3]),
            a: 0,
            b: 5,
            removed: 4,
            factor: 4.0 / 9.0,
            level: 4,
            coverage: 0.123456789,
        };
        let v = JsonValue::parse(&dep.to_json()).unwrap();
        assert_eq!(
            v.get("context").unwrap().as_array().unwrap(),
            &[JsonValue::Number(1.0), JsonValue::Number(3.0)]
        );
        assert_eq!(v.get("a").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("removed").unwrap().as_u64(), Some(4));
        assert_eq!(
            v.get("factor").unwrap().as_f64().unwrap().to_bits(),
            (4.0f64 / 9.0).to_bits()
        );
        assert_eq!(
            v.get("coverage").unwrap().as_f64().unwrap().to_bits(),
            0.123456789f64.to_bits()
        );
    }

    #[test]
    fn stats_render_durations_as_integer_millis() {
        let mut stats = DiscoveryStats {
            total: Duration::from_micros(2499),
            oc_validation: Duration::from_millis(7),
            threads_used: 2,
            ..DiscoveryStats::default()
        };
        stats.level_mut(1).n_nodes = 3;
        let v = JsonValue::parse(&stats.to_json()).unwrap();
        assert_eq!(v.get("total_ms").unwrap().as_u64(), Some(2)); // truncated
        assert_eq!(v.get("oc_validation_ms").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("threads_used").unwrap().as_u64(), Some(2));
        let levels = v.get("per_level").unwrap().as_array().unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].get("n_nodes").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn level_stats_round_trip_including_n_products() {
        let stats = LevelStats {
            level: 3,
            n_nodes: 20,
            n_oc_candidates: 41,
            n_oc_pruned: 7,
            n_oc_found: 5,
            n_ofd_candidates: 12,
            n_ofd_found: 2,
            n_products: 20,
        };
        let v = JsonValue::parse(&stats.to_json()).unwrap();
        // Exactly the fields of the module's field table, in order.
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "level",
                "n_nodes",
                "n_oc_candidates",
                "n_oc_pruned",
                "n_oc_found",
                "n_ofd_candidates",
                "n_ofd_found",
                "n_products"
            ]
        );
        assert_eq!(v.get("level").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n_products").unwrap().as_u64(), Some(20));
        // The additive field also flows through a real run's encoding.
        let result = DiscoveryBuilder::new().approximate(0.1).run(&employee());
        let run = JsonValue::parse(&result.to_json()).unwrap();
        let levels = run
            .get("stats")
            .unwrap()
            .get("per_level")
            .unwrap()
            .as_array()
            .unwrap();
        let products: u64 = levels
            .iter()
            .map(|l| l.get("n_products").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(products, result.stats.n_partition_products() as u64);
        assert!(products > 0);
    }

    #[test]
    fn event_stream_encoding_is_deterministic_and_parseable() {
        let t = employee();
        let encode = || -> Vec<String> {
            let mut session = DiscoveryBuilder::new().approximate(0.15).build(&t);
            session.by_ref().map(|e| e.to_json()).collect()
        };
        let first = encode();
        assert_eq!(first, encode(), "event encoding must be run-deterministic");
        assert!(!first.is_empty());
        let mut tags = std::collections::BTreeSet::new();
        for line in &first {
            let v = JsonValue::parse(line).unwrap();
            tags.insert(v.get("event").unwrap().as_str().unwrap().to_string());
        }
        assert!(tags.contains("oc_found"));
        assert!(tags.contains("level_complete"));
    }

    #[test]
    fn result_encoding_round_trips_and_matches_replay() {
        let t = employee();
        let result = DiscoveryBuilder::new().approximate(0.15).run(&t);
        let v = JsonValue::parse(&result.to_json()).unwrap();
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(v.get("n_rows").unwrap().as_u64(), Some(9));
        assert_eq!(
            v.get("ocs").unwrap().as_array().unwrap().len(),
            result.n_ocs()
        );
        assert_eq!(
            v.get("ofds").unwrap().as_array().unwrap().len(),
            result.n_ofds()
        );
        // The deps arrays are deterministic: a second run encodes them
        // byte-identically.
        let again = DiscoveryBuilder::new().approximate(0.15).run(&t);
        let deps = |r: &DiscoveryResult| {
            let v = JsonValue::parse(&r.to_json()).unwrap();
            (
                v.get("ocs").unwrap().to_json(),
                v.get("ofds").unwrap().to_json(),
            )
        };
        assert_eq!(deps(&result), deps(&again));
    }

    #[test]
    fn wire_names_are_stable() {
        assert_eq!(
            PruneRule::ContextImplication.wire_name(),
            "context_implication"
        );
        assert_eq!(
            PruneRule::ConstancyImplication.wire_name(),
            "constancy_implication"
        );
        assert_eq!(PruneRule::KeyPruning.wire_name(), "key_pruning");
        assert_eq!(StopReason::Exhausted.wire_name(), "exhausted");
        assert_eq!(StopReason::MaxLevel.wire_name(), "max_level");
        assert_eq!(StopReason::TimedOut.wire_name(), "timed_out");
        assert_eq!(StopReason::Cancelled.wire_name(), "cancelled");
        assert_eq!(StopReason::TopK.wire_name(), "top_k");
    }
}
