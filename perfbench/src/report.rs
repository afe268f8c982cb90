//! The two lines a run prints: a detail line (every sample summary,
//! digest and check) and, last, the result line the contract asks for.

use crate::stats::Summary;
use aod_core::json::{JsonArray, JsonObject};

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("discover_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports. A layer a workload
/// does not exercise reports 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("table.parse_s", "s"),
    ("table.rank_s", "s"),
    ("table.csv_mb", "MB"),
    ("partition.seed_s", "s"),
    ("partition.product_s", "s"),
    ("partition.products", "count"),
    ("validate.oc.s", "s"),
    ("validate.oc.calls", "count"),
    ("validate.oc.l2_s", "s"),
    ("validate.oc.deep_s", "s"),
    ("validate.oc.ns_per_row", "ns/row"),
    ("validate.oc.reject_frac", "frac"),
    ("validate.ofd.s", "s"),
    ("validate.ofd.calls", "count"),
    ("core.l2_s", "s"),
    ("core.deep_s", "s"),
    ("core.driver_s", "s"),
    ("core.pruned_frac", "frac"),
    ("exec.busy_s", "s"),
    ("exec.idle_frac", "frac"),
    ("exec.steals", "count"),
    ("exec.imbalance", "ratio"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.health_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.events_per_job", "count"),
    ("serve.result_kb", "KB"),
    ("obs.trace_overhead_frac", "frac"),
    ("error_rate", "frac"),
];

#[derive(Default)]
pub struct Report {
    /// Samples per metric name; a metric measured once has one sample.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Operations run (discovery runs or serve jobs) and how many of them
    /// produced wrong or no output.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks: name, outcome, message.
    pub checks: Vec<(String, bool, String)>,
    /// The reasons a workload was chosen, as measured by its traced run.
    pub why: Vec<(&'static str, bool)>,
    /// Extra string facts for the detail line (digests, paths).
    pub facts: Vec<(&'static str, String)>,
    /// Extra numbers for the detail line.
    pub numbers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, samples: Vec<f64>) {
        self.samples.push((name, samples));
    }

    pub fn add_figures(&mut self, figures: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in figures {
            self.add(name, vec![value]);
        }
    }

    /// The declared metrics of this mode with their summaries, in
    /// declaration order.
    fn metrics(&self, trace: bool) -> Vec<(&'static str, &'static str, Summary)> {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        declared
            .iter()
            .map(|&(name, unit)| {
                let samples = self.samples.iter().find(|(n, _)| *n == name);
                let summary = samples
                    .and_then(|(_, s)| Summary::of(s))
                    .unwrap_or(Summary {
                        n: 0,
                        median: 0.0,
                        q1: 0.0,
                        q3: 0.0,
                    });
                (name, unit, summary)
            })
            .collect()
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, message: impl Into<String>) {
        self.checks.push((name.into(), ok, message.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.1)
    }

    pub fn print(&mut self, workload: &str, seed: u64, trace: bool) {
        if trace {
            let rate = self.failed as f64 / self.attempted.max(1) as f64;
            self.add("error_rate", vec![rate]);
        }
        let declared = self.metrics(trace);
        let mut metrics = JsonObject::new();
        for &(name, unit, s) in &declared {
            let mut o = JsonObject::new();
            o.num_f64("value", finite(s.median))
                .str("unit", unit)
                .num_u64("n", s.n as u64)
                .num_f64("median", finite(s.median))
                .num_f64("q1", finite(s.q1))
                .num_f64("q3", finite(s.q3));
            metrics.raw(name, &o.finish());
        }
        let mut checks = JsonArray::new();
        for (name, ok, message) in &self.checks {
            let mut o = JsonObject::new();
            o.str("name", name).bool("ok", *ok).str("message", message);
            checks.push_raw(&o.finish());
        }
        let mut why = JsonArray::new();
        for (claim, holds) in &self.why {
            let mut o = JsonObject::new();
            o.str("claim", claim).bool("holds", *holds);
            why.push_raw(&o.finish());
        }
        let mut detail = JsonObject::new();
        detail
            .str("workload", workload)
            .num_u64("seed", seed)
            .bool("trace", trace);
        for (key, value) in &self.facts {
            detail.str(key, value);
        }
        for (key, value) in &self.numbers {
            detail.num_f64(key, finite(*value));
        }
        detail
            .raw("metrics", &metrics.finish())
            .raw("checks", &checks.finish())
            .raw("why", &why.finish());
        let mut line = JsonObject::new();
        line.raw("detail", &detail.finish());
        println!("{}", line.finish());

        let mut values = JsonObject::new();
        for &(name, unit, s) in &declared {
            let mut o = JsonObject::new();
            o.num_f64("value", finite(s.median)).str("unit", unit);
            values.raw(name, &o.finish());
        }
        let mut result = JsonObject::new();
        result
            .bool("correct", self.correct())
            .num_u64("attempted", self.attempted)
            .num_u64("failed", self.failed)
            .raw("metrics", &values.finish());
        println!("{}", result.finish());
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Peak resident set of a process in MB (`VmHWM`), `None` off Linux.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
