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
        (&["--top-k", "0"][..], "--top-k must be at least 1"),
    ] {
        let out = aod(&[&["discover", sample_csv()], extra].concat());
        assert!(!out.status.success(), "{extra:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{extra:?}: {err:?}");
        assert!(!err.contains("panicked"), "{extra:?} panicked: {err}");
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
    let out = aod(&[
        "validate",
        employee_csv(),
        "--pair",
        "sal,taxGrp",
        "--od",
        "--strategy",
        "iterative",
    ]);
    assert!(!out.status.success(), "--od --strategy iterative must fail");
    let err = stderr(&out);
    assert!(err.contains("--od has no iterative validator"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let od = aod(&["validate", employee_csv(), "--pair", "sal,taxGrp", "--od"]);
    assert!(od.status.success(), "{od:?}");
    assert!(
        stdout(&od).contains("removal set size 0 "),
        "{}",
        stdout(&od)
    );
}

/// `aod validate` takes only canonical candidates: `X: A ~ B` (and
/// `X: A |-> B`) needs `A ≠ B` and `A, B ∉ X`, and anything else holds
/// trivially. It refuses the rest the way it refuses an unknown column:
/// an error line, the usage text and exit status 1, with nothing on
/// stdout.
#[test]
fn validate_refuses_candidates_that_are_not_canonical() {
    for (extra, needle) in [
        (
            &["--pair", "sal,nosuchcol"][..],
            "unknown column `nosuchcol`",
        ),
        (&["--pair", "sal,sal"][..], "--pair names `sal` twice"),
        (
            &["--pair", "sal,sal", "--od"][..],
            "--pair names `sal` twice",
        ),
        (
            &["--pair", "sal,tax", "--context", "sal"][..],
            "--context holds `sal`",
        ),
        (
            &["--pair", "sal,tax", "--context", "pos,tax", "--od"][..],
            "--context holds `tax`",
        ),
    ] {
        let out = aod(&[&["validate", employee_csv()], extra].concat());
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
        assert_eq!(stdout(&out), "", "{extra:?}");
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("error: {needle}")),
            "{extra:?}: {err}"
        );
        assert!(err.contains("USAGE:"), "{extra:?}: {err}");
    }
}

/// Exact discovery is spelled `--epsilon 0` and nothing else: `validate`
/// then has a budget of 0 (the default ε = 0.1 would allow 20 removals on
/// the 200-row sample) and `outliers` reports ε = 0, while the flags
/// `exact` and `iterative` are unknown options for every command, not
/// panics.
#[test]
fn exact_is_epsilon_zero_for_validate_and_outliers() {
    const PAIR: &[&str] = &["--pair", "originAirport,originIATA"];
    let zero = aod(&[&["validate", sample_csv()], PAIR, &["--epsilon", "0"]].concat());
    assert!(zero.status.success(), "{zero:?}");
    assert!(stdout(&zero).contains("budget 0)"), "{}", stdout(&zero));

    let zero = aod(&["outliers", employee_csv(), "--epsilon", "0"]);
    assert!(zero.status.success(), "{zero:?}");
    assert!(stdout(&zero).contains("(ε = 0)"), "{}", stdout(&zero));

    for command in ["discover", "validate", "outliers"] {
        for name in ["exact", "iterative"] {
            let flag = format!("--{name}");
            let out = aod(&[command, sample_csv(), &flag]);
            assert_eq!(out.status.code(), Some(1), "{command} {flag}: {out:?}");
            let err = stderr(&out);
            assert!(
                err.starts_with(&format!("error: unknown option `{flag}`")),
                "{command} {flag}: {err}"
            );
            assert!(!err.contains("panicked"), "{command} {flag}: {err}");
        }
    }
}

/// `--epsilon -0` is the threshold 0, and the reports print it as `0`.
#[test]
fn a_negative_zero_epsilon_is_epsilon_zero() {
    let discover = aod(&["discover", employee_csv(), "--epsilon", "-0"]);
    assert!(discover.status.success(), "{discover:?}");
    let text = stdout(&discover);
    assert!(text.contains("mode: ε = 0;"), "{text}");
    let outliers = aod(&["outliers", employee_csv(), "--epsilon", "-0"]);
    assert!(outliers.status.success(), "{outliers:?}");
    let text = stdout(&outliers);
    assert!(text.contains("(ε = 0)"), "{text}");
}

/// Discovery takes tables of at most 64 columns, and a context is a set
/// of the first 64. On a 70-column file `discover` and `outliers` (even
/// scoped by `--columns`) and a `validate` context at column 65 are usage
/// errors, not panics; a `validate --pair` beyond column 64 still runs.
#[test]
fn tables_wider_than_64_columns_are_refused_not_a_panic() {
    let path = std::env::temp_dir().join(format!("aod_cli_guards_wide_{}.csv", std::process::id()));
    let header: Vec<String> = (0..70).map(|c| format!("c{c}")).collect();
    let row = vec!["1"; 70].join(",");
    std::fs::write(&path, format!("{}\n{row}\n{row}\n", header.join(","))).unwrap();
    let csv = path.to_str().unwrap();
    for (args, needle) in [
        (&["discover", csv][..], "discovery takes at most 64"),
        (
            &["discover", csv, "--columns", "c0,c1,c2"][..],
            "discovery takes at most 64",
        ),
        (&["outliers", csv][..], "discovery takes at most 64"),
        (
            &["validate", csv, "--pair", "c0,c1", "--context", "c65"][..],
            "only the first 64 columns",
        ),
    ] {
        let out = aod(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let pair = aod(&["validate", csv, "--pair", "c0,c66"]);
    assert!(pair.status.success(), "{pair:?}");
    assert!(stdout(&pair).contains("c0 ~ c66"), "{}", stdout(&pair));
    std::fs::remove_file(&path).ok();
}

/// `aod outliers` runs discovery with the options `discover` takes: a
/// zero level cap or top-k and an unknown column are refused, and at
/// ε = 0.3 on the employee table a level-2 cap leaves fewer contributing
/// dependencies than the uncapped run.
#[test]
fn outliers_honours_the_discovery_options() {
    for (extra, needle) in [
        (&["--max-level", "0"][..], "must be at least 1"),
        (&["--top-k", "0"][..], "--top-k must be at least 1"),
        (&["--columns", "sal,nosuchcol"][..], "unknown column"),
    ] {
        let out = aod(&[&["outliers", employee_csv()], extra].concat());
        assert!(!out.status.success(), "{extra:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?} panicked: {err}");
    }
    let contributing = |extra: &[&str]| {
        let out = aod(&[&["outliers", employee_csv(), "--epsilon", "0.3"], extra].concat());
        assert!(out.status.success(), "{extra:?}: {out:?}");
        let text = stdout(&out);
        let count = text
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<usize>().ok());
        count.unwrap_or_else(|| panic!("{extra:?}: no count in {text}"))
    };
    let (capped, uncapped) = (contributing(&["--max-level", "2"]), contributing(&[]));
    assert!(capped < uncapped, "capped {capped}, uncapped {uncapped}");
}

/// A reader that closes stdout early (`aod discover … | head`) ends the
/// output: the binary exits 0 with nothing on stderr instead of panicking
/// on "Broken pipe". The employee CSV arrives on stdin only after the
/// pipe's read end is dropped, so no write can reach the pipe before it
/// closes.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_aod"))
        .args(["discover", "/dev/stdin", "--epsilon", "0.15", "--ofds"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aod");
    drop(child.stdout.take());
    let csv = std::fs::read(employee_csv()).expect("read the employee CSV");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(&csv).expect("send the CSV");
    drop(stdin);
    let out = child.wait_with_output().expect("wait for aod");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
    assert!(err.is_empty(), "{err}");
}
