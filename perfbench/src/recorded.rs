//! Output digests recorded for the default seed and one held-out seed.
//!
//! A claim tuned on the default seed can be re-checked on the held-out
//! one. A run on either seed fails its correctness check when its digest
//! differs from the one recorded here.

pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 2027;

/// `(input workload, seed, digest)`. `flight-deep-par` shares the
/// `flight-deep` input and must reproduce its output.
const RECORDED: &[(&str, u64, &str)] = &[
    (
        "flight-deep",
        DEFAULT_SEED,
        "oc:103:efd1832ebcc5a003/ofd:189:46dc370b08e42032",
    ),
    (
        "flight-deep",
        HELD_OUT_SEED,
        "oc:108:a4f5806ba6ccbddf/ofd:188:a56d876f933d4f96",
    ),
    (
        "dirty-tall",
        DEFAULT_SEED,
        "oc:30:8a438163a57fcfd5/ofd:22:e7da63259175cc61",
    ),
    (
        "dirty-tall",
        HELD_OUT_SEED,
        "oc:31:85e5ce90ae68b14e/ofd:22:7a60c56a8279d096",
    ),
    ("serve-mix", DEFAULT_SEED, "jobs:100:aa68ea1c9aca46f0"),
    ("serve-mix", HELD_OUT_SEED, "jobs:100:522f7fefd7b7d8ba"),
];

pub fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    let workload = match workload {
        "flight-deep-par" => "flight-deep",
        other => other,
    };
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}
