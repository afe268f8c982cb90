//! D2 — no wall-clock reads outside the registered timing allowlist.
//!
//! `Instant::now` / `SystemTime` on an unregistered path is how
//! nondeterminism sneaks into output (timestamps in wire JSON, timing-
//! dependent branching in pruning decisions). The module that
//! legitimately reads the clock — the observability `Clock` module — is
//! listed in `lint.toml` under `[rules.D2] allow`; everything else is
//! flagged.
//!
//! The allowlist is kept tight from the other side too: an entry under
//! which no non-test line names a time source is reported, like A1's
//! unmatched roots, so the list never licenses a module that does not
//! read the clock.

use super::word_positions;
use crate::lexer::Line;
use crate::report::Finding;
use crate::waiver::Waivers;

const RULE: &str = "D2";

const TIME_SOURCES: [&str; 2] = ["Instant", "SystemTime"];

/// The time sources named on line `line`, skipping test code.
fn sources_on(line: &Line) -> impl Iterator<Item = &'static str> + '_ {
    TIME_SOURCES
        .into_iter()
        .filter(move |source| !line.in_test && !word_positions(&line.code, source).is_empty())
}

/// `true` when a non-test line of an allowlisted file names a time source.
pub fn reads_time(lines: &[Line]) -> bool {
    lines.iter().any(|line| sources_on(line).next().is_some())
}

/// Reports each `[rules.D2] allow` entry whose `covered` flag is unset:
/// no non-test line of any file under it reads the clock.
pub fn check_allowlist(allow: &[String], covered: &[bool], findings: &mut Vec<Finding>) {
    for (entry, &covered) in allow.iter().zip(covered) {
        if covered {
            continue;
        }
        findings.push(Finding::new(
            RULE,
            "lint.toml",
            0,
            format!(
                "[rules.D2] allow entry `{entry}` covers no `Instant`/`SystemTime` read; remove it"
            ),
        ));
    }
}

/// Runs D2 over one non-allowlisted file.
pub fn check(file: &str, lines: &[Line], waivers: &Waivers, findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        for source in sources_on(line) {
            if waivers.covers(RULE, line_no) {
                continue;
            }
            findings.push(Finding::new(
                RULE,
                file,
                line_no,
                format!(
                    "`{source}` used outside the timing allowlist; add the module to \
                     `[rules.D2] allow` in lint.toml if it legitimately measures time"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lines = lex(src);
        let mut findings = Vec::new();
        let waivers = Waivers::parse("f.rs", &lines, &mut findings);
        check("f.rs", &lines, &waivers, &mut findings);
        findings
    }

    #[test]
    fn instant_and_system_time_are_flagged() {
        let f = run("let t0 = Instant::now();\nlet wall = SystemTime::now();\n");
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("Instant"));
        assert!(f[1].message.contains("SystemTime"));
    }

    #[test]
    fn mentions_in_comments_strings_and_tests_pass() {
        let f = run("// Instant::now is banned here\nlet s = \"SystemTime\";\n\
                     #[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unrelated_identifiers_do_not_match() {
        let f = run("let my_instant_count = 3; let InstantX = 1;\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allowlisted_reads_are_recognised_outside_tests_only() {
        assert!(reads_time(&lex("let t0 = std::time::Instant::now();\n")));
        assert!(!reads_time(&lex(
            "// Instant\n#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n"
        )));
    }

    #[test]
    fn waivers_apply() {
        let f = run(
            "// aod-lint: allow(D2) -- log line timestamps never reach wire output\n\
                     let t = SystemTime::now();\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
