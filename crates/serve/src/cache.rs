//! The result cache: identical requests never recompute.
//!
//! Interactive profiling workloads re-run the same configurations over the
//! same datasets; a completed run's record ([`CachedRun`]: result JSON,
//! final stats JSON and the full NDJSON event log, shared by `Arc` with
//! the job that ran it) is therefore stored under
//! `(dataset fingerprint, canonicalized config)` and replayed without
//! touching the engine. Only **complete** runs are cached: partial results
//! (cancelled / timed-out / top-k-stopped) depend on when the interruption
//! landed, so caching them would serve non-deterministic answers.
//! (`max_level`-capped runs are complete *up to that level* and the level
//! cap is part of the canonical config, so they cache fine.)
//!
//! Each lookup adds to a hit or a miss counter. In a server these are the
//! registry's `aod_serve_cache_{hits,misses}_total` counters, which
//! `GET /stats` and `GET /metrics` both read.
//!
//! The cache is bounded ([`MAX_CACHED_RUNS`], FIFO eviction): a resident
//! server sweeping configs must not grow without bound. The key includes
//! the dataset *name* in addition to its content fingerprint, so a
//! 64-bit fingerprint collision between two different datasets can never
//! serve one dataset's results for the other; the fingerprint in turn
//! protects against a name being deregistered and re-registered with
//! different content.

use crate::jobs::EventLog;
use crate::sync::lock_or_recover;
use aod_obs::Counter;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Maximum completed runs retained; beyond it the oldest entry is evicted.
pub const MAX_CACHED_RUNS: usize = 256;

/// Cache key: dataset name + content fingerprint + canonicalized config.
pub type CacheKey = (String, u64, String);

/// The record of one finished run: everything needed to serve or replay
/// it without recomputation.
///
/// Every finished job holds its run's record by `Arc`, partial runs
/// included. A complete run's record is also the cache entry, so the job
/// that ran it, the jobs answered from the cache and every replay share
/// one record and copy no event.
#[derive(Debug)]
pub struct CachedRun {
    /// The run's NDJSON event log.
    pub events: Arc<EventLog>,
    /// `DiscoveryResult::to_json` of the completed run.
    pub result_json: Arc<String>,
    /// `DiscoveryStats::to_json` of the completed run.
    pub stats_json: Arc<String>,
    /// Lattice levels the run completed.
    pub levels_completed: usize,
}

/// Thread-safe bounded key → completed-run map that counts its hits and
/// misses. The default cache counts into detached counters.
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    hits: Counter,
    misses: Counter,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Arc<CachedRun>>,
    /// Insertion order, for FIFO eviction at [`MAX_CACHED_RUNS`].
    order: VecDeque<CacheKey>,
}

impl ResultCache {
    /// An empty cache whose lookups add to `hits` or `misses`.
    pub fn new(hits: Counter, misses: Counter) -> ResultCache {
        ResultCache {
            inner: Mutex::default(),
            hits,
            misses,
        }
    }

    /// Looks up a completed run, adding one to the hit or the miss counter.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedRun>> {
        let found = lock_or_recover(&self.inner).map.get(key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores a complete run's record, the same `Arc` its job holds
    /// (first writer wins; identical by determinism, so losing a race is
    /// harmless), evicting the oldest entry beyond [`MAX_CACHED_RUNS`].
    pub fn store(&self, key: CacheKey, run: Arc<CachedRun>) {
        let mut inner = lock_or_recover(&self.inner);
        if inner.map.contains_key(&key) {
            return;
        }
        inner.map.insert(key.clone(), run);
        inner.order.push_back(key);
        while inner.map.len() > MAX_CACHED_RUNS {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).map.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Arc<CachedRun> {
        let mut events = EventLog::default();
        events.push("{\"event\":\"x\"}");
        Arc::new(CachedRun {
            events: Arc::new(events),
            result_json: Arc::new("{}".to_string()),
            stats_json: Arc::new("{}".to_string()),
            levels_completed: 3,
        })
    }

    fn key(name: &str, fp: u64, cfg: &str) -> CacheKey {
        (name.to_string(), fp, cfg.to_string())
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let (hits, misses) = (Counter::new(), Counter::new());
        let cache = ResultCache::new(hits.clone(), misses.clone());
        let k = key("d", 42, "{\"epsilon\":0}");
        assert!(cache.lookup(&k).is_none());
        cache.store(k.clone(), run());
        let got = cache.lookup(&k).unwrap();
        assert_eq!(got.levels_completed, 3);
        assert_eq!((hits.get(), misses.get()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_names_configs_and_fingerprints_miss() {
        let cache = ResultCache::default();
        cache.store(key("d", 1, "a"), run());
        assert!(cache.lookup(&key("d", 1, "b")).is_none());
        assert!(cache.lookup(&key("d", 2, "a")).is_none());
        assert!(cache.lookup(&key("e", 1, "a")).is_none());
        assert!(cache.lookup(&key("d", 1, "a")).is_some());
    }

    #[test]
    fn oldest_entries_are_evicted_beyond_the_cap() {
        let cache = ResultCache::default();
        for i in 0..(MAX_CACHED_RUNS + 10) {
            cache.store(key("d", i as u64, "cfg"), run());
        }
        assert_eq!(cache.len(), MAX_CACHED_RUNS);
        assert!(cache.lookup(&key("d", 0, "cfg")).is_none()); // evicted
        assert!(cache
            .lookup(&key("d", (MAX_CACHED_RUNS + 9) as u64, "cfg"))
            .is_some());
    }
}
