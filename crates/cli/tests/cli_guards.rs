//! Boundary regression tests for the `aod` binary: bad `--epsilon`,
//! `--strategy` and option spellings must exit with a clean usage error
//! (never a panic/abort), and discovery must run end to end from the
//! command line.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn aod(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aod"))
        .args(args)
        .output()
        .expect("spawn aod")
}

/// A small CSV on disk shared by the tests (generated once via the
/// binary's own `generate` subcommand).
fn sample_csv() -> &'static str {
    static CSV: OnceLock<PathBuf> = OnceLock::new();
    CSV.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("aod_cli_guards_{}.csv", std::process::id()));
        let out = aod(&[
            "generate",
            "flight",
            "--rows",
            "200",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "generate failed: {out:?}");
        path
    })
    .to_str()
    .unwrap()
}

/// The paper's employee table (Table 1) on disk, written once by the
/// binary's `generate` subcommand.
fn employee_csv() -> &'static str {
    static CSV: OnceLock<PathBuf> = OnceLock::new();
    CSV.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("aod_cli_guards_emp_{}.csv", std::process::id()));
        let out = aod(&["generate", "employee", "--out", path.to_str().unwrap()]);
        assert!(out.status.success(), "generate failed: {out:?}");
        path
    })
    .to_str()
    .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn epsilon_out_of_range_is_a_clean_error_not_a_panic() {
    for bad in ["1.5", "-0.2", "NaN", "inf"] {
        let out = aod(&["discover", sample_csv(), "--epsilon", bad]);
        assert!(!out.status.success(), "--epsilon {bad} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("not within [0, 1]"),
            "--epsilon {bad}: expected a range error, got: {err}"
        );
        assert!(!err.contains("panicked"), "--epsilon {bad} panicked: {err}");
    }
}

#[test]
fn unknown_strategy_and_bad_stride_are_usage_errors() {
    // Unknown strategies, including the removed sampling `hybrid` and
    // its `--sample-stride` option, fail with the generic errors.
    for (extra, needle) in [
        (&["--strategy", "sorta"][..], "unknown strategy"),
        (&["--strategy", "hybrid"][..], "unknown strategy"),
        (
            &["--sample-stride", "8"][..],
            "unknown option `--sample-stride`",
        ),
        (&["--max-level", "0"][..], "must be at least 1"),
    ] {
        let out = aod(&[&["discover", sample_csv()], extra].concat());
        assert!(!out.status.success(), "{extra:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{extra:?}: {err:?}");
        assert!(!err.contains("panicked"), "{extra:?} panicked: {err}");
    }

    // So is combining the legacy flag with a contradicting strategy.
    let out = aod(&[
        "discover",
        sample_csv(),
        "--iterative",
        "--strategy",
        "optimal",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("conflicts"), "{:?}", stderr(&out));

    // And exact mode rejects approximate-only options instead of silently
    // ignoring them (parity with the HTTP boundary's 400).
    for extra in [
        &["--exact", "--strategy", "optimal"][..],
        &["--exact", "--iterative"][..],
        &["--exact", "--epsilon", "0.3"][..],
    ] {
        let out = aod(&[&["discover", sample_csv()], extra].concat());
        assert!(!out.status.success(), "{extra:?} must fail");
        assert!(
            stderr(&out).contains("meaningless with --exact"),
            "{extra:?}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn optimal_discovery_runs_from_the_cli() {
    // Scope to a handful of columns so the debug-profile run stays fast.
    const SCOPE: &[&str] = &["--columns", "year,month,dayOfWeek,flightNum,arrDelay"];
    const RUN: &[&str] = &["--epsilon", "0.1", "--ofds"];
    let optimal = aod(&[&["discover", sample_csv()], RUN, SCOPE].concat());
    assert!(optimal.status.success(), "{optimal:?}");
    let out = String::from_utf8_lossy(&optimal.stdout).into_owned();
    assert!(out.contains("order compatibilities"), "{out}");

    // A thread count far beyond the work runs at most one worker per work
    // item: no per-thread allocation, no overflow, the same dependencies.
    const WIDE: &[&str] = &["--threads", "18446744073709551615"];
    let wide = aod(&[&["discover", sample_csv()], WIDE, RUN, SCOPE].concat());
    assert!(wide.status.success(), "{wide:?}");
    let wide_out = String::from_utf8_lossy(&wide.stdout).into_owned();
    let deps = |out: &str| {
        out.split_once("order compatibilities")
            .map(|(_, listing)| listing.to_string())
    };
    assert_eq!(deps(&wide_out), deps(&out));
}

/// `aod validate` runs the strategy it is given, whichever way it is
/// spelled: Example 3.1's `sal ~ tax` needs 4 removals under Algorithm 2
/// (valid at ε = 0.5) and 5 under Algorithm 1 (invalid).
#[test]
fn validate_runs_the_requested_strategy() {
    const PAIR: &[&str] = &["--pair", "sal,tax", "--epsilon", "0.5"];
    let run = |extra: &[&str]| aod(&[&["validate", employee_csv()], PAIR, extra].concat());
    for (extra, size, verdict) in [
        (&[][..], 4, "VALID"),
        (&["--strategy", "optimal"][..], 4, "VALID"),
        (&["--strategy", "iterative"][..], 5, "INVALID"),
        (&["--iterative"][..], 5, "INVALID"),
    ] {
        let out = run(extra);
        assert!(out.status.success(), "{extra:?}: {out:?}");
        let text = stdout(&out);
        assert!(
            text.contains(&format!("removal set size {size} ")),
            "{extra:?}: {text}"
        );
        assert!(text.trim_end().ends_with(verdict), "{extra:?}: {text}");
    }
}

/// There is no iterative OD validator, so `--od` with an iterative
/// strategy is a usage error instead of silently running Algorithm 2.
#[test]
fn validate_od_with_an_iterative_strategy_is_a_usage_error() {
    for extra in [&["--iterative"][..], &["--strategy", "iterative"][..]] {
        let args = [
            &["validate", employee_csv(), "--pair", "sal,taxGrp", "--od"],
            extra,
        ]
        .concat();
        let out = aod(&args);
        assert!(!out.status.success(), "{extra:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("--od has no iterative validator"),
            "{extra:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{extra:?} panicked: {err}");
    }
    let od = aod(&["validate", employee_csv(), "--pair", "sal,taxGrp", "--od"]);
    assert!(od.status.success(), "{od:?}");
    assert!(
        stdout(&od).contains("removal set size 0 "),
        "{}",
        stdout(&od)
    );
}

/// `--exact` is ε = 0 for every command that takes a threshold: `validate`
/// and `outliers` print what `--epsilon 0` prints. On the 200-row sample
/// the default ε = 0.1 would allow 20 removals.
#[test]
fn exact_is_epsilon_zero_for_validate_and_outliers() {
    const PAIR: &[&str] = &["--pair", "originAirport,originIATA"];
    let validate = |extra: &[&str]| aod(&[&["validate", sample_csv()], PAIR, extra].concat());
    let (exact, zero) = (validate(&["--exact"]), validate(&["--epsilon", "0"]));
    assert!(exact.status.success(), "{exact:?}");
    assert!(stdout(&exact).contains("budget 0)"), "{}", stdout(&exact));
    assert_eq!(stdout(&exact), stdout(&zero));

    let outliers = |extra: &[&str]| aod(&[&["outliers", employee_csv()], extra].concat());
    let (exact, zero) = (outliers(&["--exact"]), outliers(&["--epsilon", "0"]));
    assert!(exact.status.success(), "{exact:?}");
    assert!(stdout(&exact).contains("(ε = 0)"), "{}", stdout(&exact));
    assert_eq!(stdout(&exact), stdout(&zero));
}
