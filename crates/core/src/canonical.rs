//! The polynomial canonical mapping of list-based ODs (Section 2.2).
//!
//! A list-based OD `X |-> Y` is logically equivalent to a set of canonical
//! ODs:
//!
//! * `X: [] |-> A` for every `A ∈ Y` (the FD part `X |-> XY`), and
//! * `{X₁..Xᵢ₋₁} ∪ {Y₁..Yⱼ₋₁}: Xᵢ ~ Yⱼ` for all `i, j` (the OC part
//!   `X ~ Y`).
//!
//! This is the mapping of [Szlichta et al., PVLDB'17] the discovery
//! framework is built on; [`canonicalize`] materialises it (Example 2.13)
//! and [`check_list_od`] validates a list OD by validating the mapped
//! canonical dependencies — cross-checked in tests against the direct
//! list validator of `aod-validate`.

use aod_partition::{AttrSet, Partition};
use aod_table::RankedTable;
use aod_validate::{min_removal_ofd, OcValidator};

/// One canonical dependency produced by the mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonicalDep {
    /// `context: [] |-> rhs`.
    Ofd {
        /// The context set.
        context: AttrSet,
        /// The attribute constant within each context class.
        rhs: usize,
    },
    /// `context: a ~ b`.
    Oc {
        /// The context set.
        context: AttrSet,
        /// First attribute of the pair.
        a: usize,
        /// Second attribute of the pair.
        b: usize,
    },
}

/// Maps the list-based OD `X |-> Y` to its equivalent set of canonical
/// dependencies. Trivial OCs with `a == b` are kept out of the output
/// (they always hold).
pub fn canonicalize(x: &[usize], y: &[usize]) -> Vec<CanonicalDep> {
    let mut out = Vec::new();
    let context_x = AttrSet::from_attrs(x.iter().copied());
    for &a in y {
        out.push(CanonicalDep::Ofd {
            context: context_x,
            rhs: a,
        });
    }
    for (i, &xi) in x.iter().enumerate() {
        for (j, &yj) in y.iter().enumerate() {
            if xi == yj {
                continue; // A ~ A is trivial
            }
            let mut context = AttrSet::from_attrs(x[..i].iter().copied());
            context = context.union(AttrSet::from_attrs(y[..j].iter().copied()));
            out.push(CanonicalDep::Oc {
                context,
                a: xi,
                b: yj,
            });
        }
    }
    out
}

/// Validates a list-based OD by exactly validating every canonical
/// dependency in its mapping.
pub fn check_list_od(table: &RankedTable, x: &[usize], y: &[usize]) -> bool {
    let mut validator = OcValidator::new();
    for dep in canonicalize(x, y) {
        match dep {
            CanonicalDep::Ofd { context, rhs } => {
                let ctx = Partition::for_attrs(table, context.iter());
                let col = table.column(rhs);
                if min_removal_ofd(&ctx, col.ranks(), col.n_distinct(), 0) != Some(0) {
                    return false;
                }
            }
            CanonicalDep::Oc { context, a, b } => {
                // An attribute inside its own context is constant per class,
                // making the OC trivial — skip (can arise with repeated
                // attributes across X and Y).
                if context.contains(a) || context.contains(b) {
                    continue;
                }
                let ctx = Partition::for_attrs(table, context.iter());
                if !validator.exact_oc_holds(&ctx, table.column(a).ranks(), table.column(b).ranks())
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};
    use aod_validate::list_od_holds;

    #[test]
    fn example_2_13_mapping() {
        // [A,B] |-> [C,D] with A=0, B=1, C=2, D=3.
        let deps = canonicalize(&[0, 1], &[2, 3]);
        // The paper lists the six canonical ODs of Example 2.13; compare as
        // sets (the mapping's emission order is i-major, the paper groups
        // differently).
        let expect = [
            CanonicalDep::Ofd {
                context: AttrSet::from_attrs([0, 1]),
                rhs: 2,
            },
            CanonicalDep::Ofd {
                context: AttrSet::from_attrs([0, 1]),
                rhs: 3,
            },
            CanonicalDep::Oc {
                context: AttrSet::EMPTY,
                a: 0,
                b: 2,
            },
            CanonicalDep::Oc {
                context: AttrSet::singleton(0),
                a: 1,
                b: 2,
            },
            CanonicalDep::Oc {
                context: AttrSet::singleton(2),
                a: 0,
                b: 3,
            },
            CanonicalDep::Oc {
                context: AttrSet::from_attrs([0, 2]),
                a: 1,
                b: 3,
            },
        ];
        assert_eq!(deps.len(), expect.len());
        for e in &expect {
            assert!(deps.contains(e), "missing {e:?}");
        }
    }

    #[test]
    fn repeated_attributes_skip_trivial_ocs() {
        // [A] |-> [A] maps to the OFD {A}: [] |-> A only (A ~ A is trivial).
        let deps = canonicalize(&[0], &[0]);
        assert_eq!(
            deps,
            vec![CanonicalDep::Ofd {
                context: AttrSet::singleton(0),
                rhs: 0
            }]
        );
    }

    #[test]
    fn canonical_check_agrees_with_direct_validation_on_employee() {
        let t = RankedTable::from_table(&employee_table());
        // Check every 1-1 and a sample of 2-2 list ODs both ways.
        for a in 0..7 {
            for b in 0..7 {
                assert_eq!(
                    check_list_od(&t, &[a], &[b]),
                    list_od_holds(&t, &[a], &[b]),
                    "[{a}] |-> [{b}]"
                );
            }
        }
        let lists: &[(&[usize], &[usize])] = &[
            (&[0, 1], &[0, 2]),
            (&[2], &[3, 6]),
            (&[0, 2], &[0, 3]),
            (&[3, 2], &[3, 6]),
            (&[2, 0], &[3, 1]),
        ];
        for (x, y) in lists {
            assert_eq!(
                check_list_od(&t, x, y),
                list_od_holds(&t, x, y),
                "{x:?} |-> {y:?}"
            );
        }
    }

    #[test]
    fn mapping_size_is_polynomial() {
        let x: Vec<usize> = (0..5).collect();
        let y: Vec<usize> = (5..10).collect();
        let deps = canonicalize(&x, &y);
        assert_eq!(deps.len(), 5 + 25); // |Y| OFDs + |X||Y| OCs
    }
}
