//! Output digests and the independent re-validation of reported
//! dependencies.

use aod_core::DiscoveryResult;
use aod_table::RankedTable;
use aod_validate::{validate_aoc, validate_aofd, AocStrategy};
use std::fmt::Write as _;

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a run's OC and OFD lists: context, attributes and removal
/// count of every dependency, in the order the engine reports them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub n_ocs: usize,
    pub n_ofds: usize,
    pub oc: u64,
    pub ofd: u64,
}

impl Digest {
    pub fn of(result: &DiscoveryResult) -> Digest {
        let mut oc = String::new();
        for d in &result.ocs {
            let _ = writeln!(oc, "{:?}:{}~{}:{}", attrs(d.context), d.a, d.b, d.removed);
        }
        let mut ofd = String::new();
        for d in &result.ofds {
            let _ = writeln!(ofd, "{:?}:{}:{}", attrs(d.context), d.rhs, d.removed);
        }
        Digest {
            n_ocs: result.ocs.len(),
            n_ofds: result.ofds.len(),
            oc: fnv1a(oc.as_bytes()),
            ofd: fnv1a(ofd.as_bytes()),
        }
    }

    /// `oc:<count>:<hex>/ofd:<count>:<hex>`, the form recorded for seeds.
    pub fn text(&self) -> String {
        format!(
            "oc:{}:{:016x}/ofd:{}:{:016x}",
            self.n_ocs, self.oc, self.n_ofds, self.ofd
        )
    }
}

fn attrs(set: aod_partition::AttrSet) -> Vec<usize> {
    set.iter().collect()
}

/// Re-validates every reported dependency from scratch through
/// `validate_aoc` / `validate_aofd` and returns one message per
/// dependency that does not hold with exactly the reported removal count.
pub fn revalidate(table: &RankedTable, epsilon: f64, result: &DiscoveryResult) -> Vec<String> {
    let mut failures = Vec::new();
    for d in &result.ocs {
        let out = validate_aoc(table, d.context, d.a, d.b, epsilon, AocStrategy::Optimal);
        if !out.is_valid() || out.removed != Some(d.removed) {
            failures.push(format!(
                "OC {:?}: {}~{} reported {} removals, re-validation found {:?}",
                attrs(d.context),
                d.a,
                d.b,
                d.removed,
                out.removed
            ));
        }
    }
    for d in &result.ofds {
        let out = validate_aofd(table, d.context, d.rhs, epsilon);
        if !out.is_valid() || out.removed != Some(d.removed) {
            failures.push(format!(
                "OFD {:?}: [] -> {} reported {} removals, re-validation found {:?}",
                attrs(d.context),
                d.rhs,
                d.removed,
                out.removed
            ));
        }
    }
    failures
}
