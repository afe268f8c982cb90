//! A1 — no per-call allocation in fns reachable from hot-path roots.
//!
//! The ROADMAP's raw-speed item lives or dies on the per-candidate
//! validation path staying allocation-free: one `Vec::new()` in an
//! inner loop turns into millions of allocator round-trips per level.
//! The registered roots (`lint.toml [rules.A1] roots`) name the
//! per-candidate entry points; everything reachable from them through
//! the item graph (within the `[rules.A1] paths` scope) must not use
//! the owned-allocation idioms — `Vec::new` / `String::new` / `vec!` /
//! `.to_vec()` / `.clone()` / `format!` / `String::from` / `Box::new`.
//!
//! The scratch-buffer pattern (a `&mut` scratch argument, as in
//! `Partition::refine`'s `RefineScratch`) is the standard fix;
//! output buffers that are handed to the caller are waived at the site
//! with that reasoning. Growth-only calls (`with_capacity`, `resize`,
//! `collect` into a reused buffer) are deliberately not flagged: the
//! rule targets per-call churn, not capacity management.

use crate::graph::Graph;
use crate::policy::in_scope;
use crate::report::Finding;
use crate::waiver::WaiverSet;

const RULE: &str = "A1";

const IDIOMS: &[(&str, &str)] = &[
    ("Vec::new(", "`Vec::new()`"),
    ("String::new(", "`String::new()`"),
    ("vec!", "`vec!`"),
    (".to_vec(", "`.to_vec()`"),
    (".clone(", "`.clone()`"),
    ("format!(", "`format!`"),
    ("String::from(", "`String::from`"),
    ("Box::new(", "`Box::new()`"),
];

/// Runs A1: flags allocation idioms in fns reachable from `roots`.
pub fn check(
    graph: &Graph,
    roots: &[String],
    paths: &[String],
    waivers: &WaiverSet,
    findings: &mut Vec<Finding>,
) {
    let mut root_fns = Vec::new();
    for pat in roots {
        let hits = graph.find_fns(pat);
        if hits.is_empty() {
            findings.push(Finding::new(
                RULE,
                "lint.toml",
                0,
                format!("[rules.A1] root `{pat}` matches no fn in the parsed scope; fix the root or widen [rules.A1] paths"),
            ));
        }
        root_fns.extend(hits);
    }
    let reach = graph.reachable_from(&root_fns, |i| in_scope(&graph.fns[i].file.path, paths));
    for &idx in reach.keys() {
        let f = &graph.fns[idx];
        for line_no in f.item.body_range.0..=f.item.body_range.1 {
            let Some(line) = f.file.lines.get(line_no - 1) else {
                continue;
            };
            if line.in_test {
                continue;
            }
            for (needle, label) in IDIOMS {
                let mut from = 0;
                while let Some(rel) = line.code[from..].find(needle) {
                    let pos = from + rel;
                    from = pos + needle.len();
                    // `vec!` must be the macro, not an ident suffix.
                    if *needle == "vec!"
                        && pos > 0
                        && crate::lexer::is_ident_char(line.code.as_bytes()[pos - 1] as char)
                    {
                        continue;
                    }
                    if waivers.covers(&f.file.path, RULE, line_no) {
                        continue;
                    }
                    findings.push(Finding::new(
                        RULE,
                        &f.file.path,
                        line_no,
                        format!(
                            "{label} allocates on the hot path ({}); hoist onto \
                             caller-provided scratch, or waive with the reasoning",
                            graph.witness(&reach, idx)
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::{parse, ParsedFile};

    fn run(src: &str, roots: &[&str]) -> Vec<Finding> {
        let files: Vec<ParsedFile> = vec![parse("crates/a/src/lib.rs", &lex(src))];
        let g = Graph::build(&files);
        let mut findings = Vec::new();
        check(
            &g,
            &roots.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &["crates/a/".to_string()],
            &WaiverSet::default(),
            &mut findings,
        );
        findings
    }

    #[test]
    fn allocations_reachable_from_roots_are_flagged_with_witness() {
        let f = run(
            "pub fn hot_entry(n: usize) { helper(n); }\n\
             fn helper(n: usize) {\n\
                 let tmp: Vec<u32> = Vec::new();\n\
             }\n\
             fn cold() { let v = vec![1, 2]; }\n",
            &["hot_entry"],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("aod_a::hot_entry -> aod_a::helper"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn scratch_reuse_and_capacity_calls_pass() {
        let f = run(
            "pub fn hot(buf: &mut Vec<u32>) {\n\
                 buf.clear();\n\
                 buf.reserve(16);\n\
                 let mut out = Vec::with_capacity(4);\n\
                 out.resize(4, 0);\n\
             }\n",
            &["hot"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unmatched_roots_are_reported() {
        let f = run("fn a() {}\n", &["no_such_root"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("matches no fn"));
        assert_eq!(f[0].file, "lint.toml");
    }

    #[test]
    fn every_idiom_fires() {
        let f = run(
            "pub fn hot(s: &str, v: &[u32]) {\n\
                 let a = vec![0u8; 4];\n\
                 let b = v.to_vec();\n\
                 let c = s.clone();\n\
                 let d = format!(\"x{}\", 1);\n\
                 let e = String::from(s);\n\
                 let f = Box::new(1u32);\n\
                 let g = String::new();\n\
             }\n",
            &["hot"],
        );
        assert_eq!(f.len(), 7, "{f:?}");
    }
}
