//! `aod-lint` — the workspace invariant checker.
//!
//! The discovery engine's load-bearing promises — bit-identical output
//! across runs and thread counts, a versioned wire contract, a serve
//! layer that degrades instead of panicking, vendored stubs that stay
//! auditable — are invariants the compiler cannot check. This crate
//! checks them lexically, with zero dependencies, so the check itself
//! never becomes a supply-chain or build-environment liability:
//!
//! * **D1** — no hash-map/set iteration in determinism-critical modules
//!   ([`rules::d1_hash_iteration`]).
//! * **D2** — no `Instant::now` / `SystemTime` outside the registered
//!   timing allowlist, and no allowlist entry that covers no such read
//!   ([`rules::d2_time_sources`]).
//! * **W1** — wire-schema additivity against the committed
//!   `wire_schema.lock` ([`rules::w1_wire_schema`]).
//! * **P1** — no `unwrap` / `expect` / `panic!` / slice-indexing in
//!   serve request and job paths ([`rules::p1_panic_paths`]).
//! * **V1** — vendored stubs gain no dependencies and no `unsafe`
//!   ([`rules::v1_vendor_hygiene`]).
//!
//! On top of the lexical pass, a semantic pass parses the scoped files
//! into an item graph ([`syntax`], [`graph`]) and checks:
//!
//! * **L1** — no cycles (and no re-entry) in the lock-acquisition
//!   order graph ([`rules::l1_lock_order`]).
//! * **O1** — no `Ordering::Relaxed` loads guarding cross-thread
//!   control flow ([`rules::o1_atomic_ordering`]).
//! * **A1** — no allocation idioms in fns reachable from registered
//!   hot-path roots ([`rules::a1_hot_alloc`]).
//! * **P2** — no panic idioms reachable from request handlers, beyond
//!   the files P1 already patrols ([`rules::p2_panic_reach`]).
//!
//! Scopes live in the checked-in [`lint.toml`](crate::policy); per-site
//! exceptions are [waivers](crate::waiver) with mandatory justifications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod waiver;

use std::path::{Path, PathBuf};

use policy::{in_scope, Policy};
use report::Finding;
use waiver::WaiverSet;

/// Runs every rule over the workspace rooted at `root` (the directory
/// holding `lint.toml`) and returns the sorted findings.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let policy = load_policy(root)?;
    let mut findings = Vec::new();
    let mut waivers = WaiverSet::default();
    let mut parsed: Vec<syntax::ParsedFile> = Vec::new();
    // Per `[rules.D2] allow` entry: does any file under it read the clock?
    let mut d2_covered = vec![false; policy.d2_allow.len()];

    // Phase 1: lexical rules per file; files in any semantic scope are
    // parsed into items for phase 2.
    for rel in walk(root)? {
        if rel.ends_with(".rs") {
            scan_source(
                root,
                &rel,
                &policy,
                &mut d2_covered,
                &mut waivers,
                &mut parsed,
                &mut findings,
            )?;
        } else if rel.ends_with("Cargo.toml") && in_scope(&rel, &policy.v1_paths) {
            let text = read(root, &rel)?;
            rules::v1_vendor_hygiene::check_manifest(&rel, &text, &mut findings);
        }
    }

    rules::d2_time_sources::check_allowlist(&policy.d2_allow, &d2_covered, &mut findings);

    // Phase 2: semantic rules over the item graph.
    let item_graph = graph::Graph::build(&parsed);
    rules::l1_lock_order::check(&item_graph, &policy.l1_paths, &waivers, &mut findings);
    rules::o1_atomic_ordering::check(&item_graph, &policy.o1_paths, &waivers, &mut findings);
    rules::a1_hot_alloc::check(
        &item_graph,
        &policy.a1_roots,
        &policy.a1_paths,
        &waivers,
        &mut findings,
    );
    rules::p2_panic_reach::check(
        &item_graph,
        &policy.p2_roots,
        &policy.p2_paths,
        &policy.p1_paths,
        &policy.p1_exclude,
        &waivers,
        &mut findings,
    );

    // A waiver is unused only once every rule has had its chance.
    waivers.report_unused(&mut findings);
    check_wire_schema(root, &policy, &mut findings)?;
    report::sort(&mut findings);
    Ok(findings)
}

/// Regenerates the wire-schema lock from the wire source. Returns the
/// workspace-relative lock path.
pub fn write_schema_lock(root: &Path) -> Result<String, String> {
    let policy = load_policy(root)?;
    let wire = read(root, &policy.w1_wire)?;
    let manifest =
        rules::w1_wire_schema::extract(&wire).map_err(|e| format!("{}: {e}", policy.w1_wire))?;
    let lock = rules::w1_wire_schema::to_lock_string(&manifest);
    std::fs::write(root.join(&policy.w1_lock), lock)
        .map_err(|e| format!("writing {}: {e}", policy.w1_lock))?;
    Ok(policy.w1_lock)
}

fn load_policy(root: &Path) -> Result<Policy, String> {
    let text = read(root, "lint.toml")?;
    Policy::from_toml(&text)
}

fn scan_source(
    root: &Path,
    rel: &str,
    policy: &Policy,
    d2_covered: &mut [bool],
    waiver_set: &mut WaiverSet,
    parsed: &mut Vec<syntax::ParsedFile>,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    if policy.is_excluded(rel) {
        return Ok(());
    }
    let d1 = in_scope(rel, &policy.d1_paths);
    let p1 = in_scope(rel, &policy.p1_paths) && !in_scope(rel, &policy.p1_exclude);
    let v1 = in_scope(rel, &policy.v1_paths);
    let parse = policy.needs_parse(rel);
    // Every scanned file is D2's business: outside the allowlist it must
    // not read the clock, inside it marks the entries that cover it.
    let text = read(root, rel)?;
    let lines = lexer::lex(&text);
    let waivers = waiver::Waivers::parse(rel, &lines, findings);
    if d1 {
        rules::d1_hash_iteration::check(rel, &lines, &waivers, findings);
    }
    if !in_scope(rel, &policy.d2_allow) {
        rules::d2_time_sources::check(rel, &lines, &waivers, findings);
    } else if rules::d2_time_sources::reads_time(&lines) {
        for (prefix, covered) in policy.d2_allow.iter().zip(d2_covered.iter_mut()) {
            *covered |= rel.starts_with(prefix.as_str());
        }
    }
    if p1 {
        rules::p1_panic_paths::check(rel, &lines, &waivers, findings);
    }
    if v1 {
        rules::v1_vendor_hygiene::check(rel, &lines, &waivers, findings);
    }
    if parse {
        parsed.push(syntax::parse(rel, &lines));
    }
    // Unused-waiver reporting is deferred to the waiver set so the
    // semantic rules (which run after every file is read) get their
    // chance to consume waivers first.
    waiver_set.insert(rel.to_string(), waivers);
    Ok(())
}

fn check_wire_schema(
    root: &Path,
    policy: &Policy,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let wire = read(root, &policy.w1_wire)?;
    let manifest =
        rules::w1_wire_schema::extract(&wire).map_err(|e| format!("{}: {e}", policy.w1_wire))?;
    let lock_path = root.join(&policy.w1_lock);
    if !lock_path.exists() {
        findings.push(Finding::new(
            "W1",
            &policy.w1_lock,
            0,
            "wire schema lock is missing; generate it with `aod-lint --write-schema-lock`",
        ));
        return Ok(());
    }
    let lock_text = read(root, &policy.w1_lock)?;
    match rules::w1_wire_schema::parse_lock(&lock_text) {
        Ok(lock) => {
            findings.extend(rules::w1_wire_schema::diff(
                &manifest,
                &lock,
                &policy.w1_lock,
            ));
        }
        Err(e) => findings.push(Finding::new("W1", &policy.w1_lock, 0, e)),
    }
    Ok(())
}

/// Workspace-relative paths (forward slashes) of every `.rs` and
/// `Cargo.toml` file under `root`, sorted, skipping build output, VCS
/// metadata, and hidden directories.
fn walk(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(dir) = stack.pop() {
        let abs = root.join(&dir);
        let entries =
            std::fs::read_dir(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", abs.display()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let file_type = entry.file_type().map_err(|e| format!("stat {name}: {e}"))?;
            let rel = if dir.as_os_str().is_empty() {
                PathBuf::from(name)
            } else {
                dir.join(name)
            };
            if file_type.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                stack.push(rel);
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn read(root: &Path, rel: impl AsRef<Path>) -> Result<String, String> {
    let path = root.join(rel.as_ref());
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}
