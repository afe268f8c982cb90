//! Cross-crate property tests: the lattice discovery driver against
//! brute-force specifications of its two outputs, enumerated over every
//! context of small tables.
//!
//! **OCs.** The specification of the discovered AOC set (the pruning rules
//! and their soundness arguments are in `aod-core`'s `prune_state.rs`):
//! report every candidate `C: A ~ B` such that
//!
//! 1. its minimal removal set is within the ε-budget (**valid** — decided
//!    by the provably-minimal Algorithm 2 validator),
//! 2. the context partition is not a key (R4 — otherwise trivial),
//! 3. no strict sub-context is valid for the same pair (R2 — implied), and
//! 4. no attribute of the pair is (approximately) constant in any
//!    sub-context (R3 — implied by an OFD).
//!
//! The driver must report **at least** this set (completeness), and
//! everything it reports must be valid, non-trivial and R2-minimal
//! (soundness). In exact mode the two sets coincide exactly; in
//! approximate mode the driver may additionally report candidates that
//! rule 4 would have suppressed, because its R3 uses *reported* OFDs
//! rather than all valid ones — extra output, never missing output.
//!
//! **OFDs.** The specification is every `X: [] |-> A` with `A ∉ X` whose
//! g₃ count ([`Partition::fd_removal_count`]: per class, the rows outside
//! its most frequent `A` value) fits the budget while no `X \ {x}`'s count
//! does, together with that count. In exact mode the driver reports
//! exactly this set. In approximate mode it reports a subset: every OFD it
//! reports is valid, strictly minimal and carries the right count, but its
//! TANE-style `C⁺` pruning skips some minimal approximate OFDs. On columns
//! `[[1,2,2,2,2],[1,0,3,3,0],[0,2,2,2,3]]` at ε = 0.22, `{0}: [] |-> 2` is
//! valid and minimal, yet the driver never checks it: once `{}: [] |-> 0`
//! holds, `C⁺({0})` is empty and so is `C⁺({0,2})`.

use aod_bench::Dataset;
use aod_core::{discover, DiscoveryConfig, DiscoveryResult};
use aod_partition::Partition;
use aod_table::RankedTable;
use aod_validate::{removal_budget, OcValidator};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Candidate = (u64, usize, usize); // (context bits, a, b)
type Ofd = (u64, usize, usize); // (context bits, rhs, removed)

/// Everything the specifications look up, each computed once and indexed
/// by attribute-set bits: the 2ⁿ context partitions and the g₃ count of
/// every `X: [] |-> A`.
struct Lattice {
    n_attrs: usize,
    partitions: Vec<Partition>,
    /// `g3[bits][a]`: the rows to remove so that `bits: [] |-> a` holds.
    g3: Vec<Vec<usize>>,
}

impl Lattice {
    fn new(table: &RankedTable) -> Lattice {
        let n_attrs = table.n_cols();
        let partitions: Vec<Partition> = (0..1u64 << n_attrs)
            .map(|bits| Partition::for_attrs(table, (0..n_attrs).filter(|&a| bits & (1 << a) != 0)))
            .collect();
        let g3 = partitions
            .iter()
            .map(|p| {
                (0..n_attrs)
                    .map(|a| {
                        let col = table.column(a);
                        p.fd_removal_count(col.ranks(), col.n_distinct())
                    })
                    .collect()
            })
            .collect();
        Lattice {
            n_attrs,
            partitions,
            g3,
        }
    }

    /// The attribute sets of the lattice, as bits.
    fn sets(&self) -> std::ops::Range<u64> {
        0..1u64 << self.n_attrs
    }
}

/// The brute-force OC specification set (rules 1–4 above).
fn spec_ocs(table: &RankedTable, lattice: &Lattice, budget: usize) -> BTreeSet<Candidate> {
    let n_attrs = lattice.n_attrs;
    let mut validator = OcValidator::new();
    let oc_valid = |v: &mut OcValidator, bits: u64, a: usize, b: usize| -> bool {
        v.min_removal_optimal(
            &lattice.partitions[bits as usize],
            table.column(a).ranks(),
            table.column(b).ranks(),
            budget,
        )
        .is_some()
    };
    let ofd_valid = |bits: u64, rhs: usize| lattice.g3[bits as usize][rhs] <= budget;

    let mut out = BTreeSet::new();
    for bits in lattice.sets() {
        for a in 0..n_attrs {
            for b in a + 1..n_attrs {
                if bits & (1 << a) != 0 || bits & (1 << b) != 0 {
                    continue;
                }
                // rule 2: non-key context
                if lattice.partitions[bits as usize].is_key() {
                    continue;
                }
                // rule 1: valid
                if !oc_valid(&mut validator, bits, a, b) {
                    continue;
                }
                // rule 3: no valid strict sub-context for the same pair
                let strict_subsets = |sub: u64| sub != bits && sub & bits == sub;
                let r2 = lattice
                    .sets()
                    .filter(|&sub| strict_subsets(sub))
                    .any(|sub| oc_valid(&mut validator, sub, a, b));
                if r2 {
                    continue;
                }
                // rule 4: no valid OFD on a or b in any sub-context
                let r3 = (0..=bits)
                    .filter(|&sub| sub & bits == sub)
                    .any(|sub| ofd_valid(sub, a) || ofd_valid(sub, b));
                if r3 {
                    continue;
                }
                out.insert((bits, a, b));
            }
        }
    }
    out
}

/// The brute-force OFD specification set: every valid, strictly minimal
/// `X: [] |-> A` with `A ∉ X`, with its g₃ count.
fn spec_ofds(lattice: &Lattice, budget: usize) -> BTreeSet<Ofd> {
    let mut out = BTreeSet::new();
    for bits in lattice.sets() {
        for rhs in (0..lattice.n_attrs).filter(|&a| bits & (1 << a) == 0) {
            let removed = lattice.g3[bits as usize][rhs];
            let minimal = (0..lattice.n_attrs)
                .filter(|&x| bits & (1 << x) != 0)
                .all(|x| lattice.g3[(bits & !(1 << x)) as usize][rhs] > budget);
            if removed <= budget && minimal {
                out.insert((bits, rhs, removed));
            }
        }
    }
    out
}

fn driver_ocs(result: &DiscoveryResult) -> BTreeSet<Candidate> {
    result
        .ocs
        .iter()
        .map(|d| (d.context.bits(), d.a, d.b))
        .collect()
}

fn driver_ofds(result: &DiscoveryResult) -> BTreeSet<Ofd> {
    result
        .ofds
        .iter()
        .map(|d| (d.context.bits(), d.rhs, d.removed))
        .collect()
}

/// Checks the OCs for two-sided containment (and exact equality for
/// ε = 0), and the OFDs for equality (ε = 0) or inclusion in the spec.
fn check_table(columns: Vec<Vec<u32>>, epsilon: f64) -> Result<(), TestCaseError> {
    let table = RankedTable::from_u32_columns(columns);
    let budget = removal_budget(table.n_rows(), epsilon);
    let lattice = Lattice::new(&table);
    let spec = spec_ocs(&table, &lattice, budget);
    let config = if epsilon == 0.0 {
        DiscoveryConfig::exact()
    } else {
        DiscoveryConfig::approximate(epsilon)
    };
    let result = discover(&table, &config);
    let reported = driver_ocs(&result);

    // completeness: spec ⊆ reported
    for cand in &spec {
        prop_assert!(
            reported.contains(cand),
            "missing spec candidate {cand:?} (eps {epsilon})"
        );
    }
    // soundness: reported candidates are valid, non-trivial, R2-minimal
    let mut validator = OcValidator::new();
    for &(bits, a, b) in &reported {
        let ctx = &lattice.partitions[bits as usize];
        prop_assert!(!ctx.is_key(), "keyed context reported: {bits:#b} {a} {b}");
        let removed = validator
            .min_removal_optimal(
                ctx,
                table.column(a).ranks(),
                table.column(b).ranks(),
                usize::MAX,
            )
            .expect("no limit");
        prop_assert!(
            removed <= budget,
            "invalid OC reported ({removed} > {budget})"
        );
        for &(bits2, a2, b2) in &reported {
            if (a2, b2) == (a, b) && bits2 != bits {
                prop_assert!(
                    bits2 & bits != bits2,
                    "non-minimal pair: {bits2:#b} ⊆ {bits:#b} for ({a},{b})"
                );
            }
        }
    }

    let spec_ofds = spec_ofds(&lattice, budget);
    let reported_ofds = driver_ofds(&result);
    if epsilon == 0.0 {
        // exact mode: both sets coincide exactly
        prop_assert_eq!(&reported, &spec);
        prop_assert_eq!(&reported_ofds, &spec_ofds);
    } else {
        // approximate mode: every reported OFD is valid, strictly minimal
        // and carries its g₃ count
        for ofd in &reported_ofds {
            prop_assert!(
                spec_ofds.contains(ofd),
                "reported OFD {ofd:?} is not in the spec (eps {epsilon})"
            );
        }
    }
    Ok(())
}

fn small_table() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (2usize..14, 2usize..5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(proptest::collection::vec(0u32..4, rows), cols)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_discovery_matches_spec(columns in small_table()) {
        check_table(columns, 0.0)?;
    }

    #[test]
    fn approximate_discovery_covers_spec(columns in small_table(), pct in 5u32..40) {
        check_table(columns, pct as f64 / 100.0)?;
    }
}

/// Columns of the employee table (Table 1), projected to five to keep the
/// 2^5 × pairs brute force quick.
fn employee_columns(cols: [usize; 5]) -> Vec<Vec<u32>> {
    let ranked = RankedTable::from_table(&aod_table::employee_table());
    cols.iter()
        .map(|&c| ranked.column(c).ranks().to_vec())
        .collect()
}

#[test]
fn employee_exact_matches_spec() {
    check_table(employee_columns([0, 1, 2, 3, 5]), 0.0).unwrap();
}

#[test]
fn employee_approximate_covers_spec() {
    for eps in [0.12, 0.25, 0.45] {
        check_table(employee_columns([0, 1, 3, 5, 6]), eps).unwrap();
    }
}

/// The OFD example of the module docs: the spec holds `{0}: [] |-> 2`
/// with one row removed, and the driver's output still passes the
/// approximate-mode check.
#[test]
fn approximate_ofds_are_a_subset_of_the_spec() {
    let columns = vec![
        vec![1, 2, 2, 2, 2],
        vec![1, 0, 3, 3, 0],
        vec![0, 2, 2, 2, 3],
    ];
    let table = RankedTable::from_u32_columns(columns.clone());
    let budget = removal_budget(table.n_rows(), 0.22);
    let spec = spec_ofds(&Lattice::new(&table), budget);
    assert!(spec.contains(&(0b001, 2, 1)), "{spec:?}");
    assert!(spec.contains(&(0b000, 0, 1)), "{spec:?}");
    check_table(columns, 0.22).unwrap();
}

/// The OFD spec as the FD oracle at scale: exact discovery on the 10-column
/// flight and ncvoter projections reports exactly the minimal exact FDs.
#[test]
fn exact_ofds_match_spec_at_scale() {
    for ds in [Dataset::Flight, Dataset::Ncvoter] {
        let table = ds.ranked_10(1_000, 9);
        let spec = spec_ofds(&Lattice::new(&table), 0);
        assert!(!spec.is_empty(), "{}", ds.name());
        let result = discover(&table, &DiscoveryConfig::exact());
        assert_eq!(driver_ofds(&result), spec, "{}", ds.name());
    }
}

#[test]
fn iterative_driver_reports_subset_of_valid() {
    // Whatever the iterative validator reports must still be genuinely
    // valid (its estimates only over-count, so anything accepted within
    // budget is truly within budget).
    let ranked = RankedTable::from_table(&aod_table::employee_table());
    let eps = 0.3;
    let budget = removal_budget(9, eps);
    let result = discover(&ranked, &DiscoveryConfig::approximate_iterative(eps));
    let mut validator = OcValidator::new();
    for dep in &result.ocs {
        let ctx = Partition::for_attrs(&ranked, dep.context.iter());
        let true_removed = validator
            .min_removal_optimal(
                &ctx,
                ranked.column(dep.a).ranks(),
                ranked.column(dep.b).ranks(),
                usize::MAX,
            )
            .expect("no limit");
        assert!(
            true_removed <= dep.removed,
            "iterative under-reported {dep:?}"
        );
        assert!(dep.removed <= budget);
    }
}
