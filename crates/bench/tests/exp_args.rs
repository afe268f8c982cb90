//! Boundary regression tests for the experiment drivers' shared option
//! parser (`ExpArgs`), run through the `exp2` binary: a malformed value or
//! a flag without a value must exit 2 with a usage message before any
//! experiment starts, never fall back to a default.

use std::process::{Command, Output};

fn exp2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp2"))
        .args(args)
        .output()
        .expect("spawn exp2")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_values_are_usage_errors() {
    for (args, needle) in [
        (
            &["--rows", "abc", "--max-attrs", "5"][..],
            "--rows: `abc` is not an integer",
        ),
        (
            &["--max-attrs", "5", "--timeout", "-3"][..],
            "--timeout: `-3` is not an integer",
        ),
        (
            &["--epsilon", "tenth"][..],
            "--epsilon: `tenth` is not a number",
        ),
        (
            &["--epsilon", "2"][..],
            "--epsilon: `2` is not within [0, 1]",
        ),
    ] {
        let out = exp2(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = stderr(&out);
        assert!(
            err.contains(needle),
            "{args:?}: expected `{needle}`, got: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started the experiment");
    }
}

#[test]
fn flags_without_values_are_usage_errors() {
    for (args, needle) in [
        // The next flag is not a value: `--max-attrs` must not become the
        // row count (which used to drop the `5` and run all 35 attributes).
        (&["--rows", "--max-attrs", "5"][..], "--rows: missing value"),
        (&["--max-attrs", "5", "--rows"][..], "--rows: missing value"),
        (
            &["--max-attrs", "5", "1000"][..],
            "unexpected argument `1000`",
        ),
    ] {
        let out = exp2(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = stderr(&out);
        assert!(
            err.contains(needle),
            "{args:?}: expected `{needle}`, got: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started the experiment");
    }
}

#[test]
fn help_still_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = exp2(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("--epsilon E"), "{flag}: {text}");
        assert!(text.contains("exits 2"), "{flag}: {text}");
    }
}
