//! Discovered dependency types.
//!
//! The framework reports canonical set-based dependencies (Section 2.2):
//! order compatibilities `X: A ~ B` and order functional dependencies
//! `X: [] |-> A`, each with the context set `X`, the approximation evidence
//! (removal count / factor) and the lattice metadata the experiments report.

use aod_partition::AttrSet;
use std::fmt;

/// A discovered (approximate) canonical order compatibility `X: A ~ B`.
#[derive(Debug, Clone, PartialEq)]
pub struct OcDep {
    /// The context set `X`.
    pub context: AttrSet,
    /// First attribute of the order-compatible pair (`a < b`).
    pub a: usize,
    /// Second attribute of the pair.
    pub b: usize,
    /// Size of the minimal removal set found by the validator
    /// (0 for exactly-holding OCs).
    pub removed: usize,
    /// Approximation factor `e(φ) = removed / n` (0 when exact).
    pub factor: f64,
    /// Lattice level of the node that produced the candidate
    /// (`|context| + 2`, matching Figure 5's x-axis).
    pub level: usize,
    /// Fraction of tuples inside non-singleton context classes; feeds the
    /// interestingness score.
    pub coverage: f64,
}

/// A discovered (approximate) order functional dependency `X: [] |-> A`.
#[derive(Debug, Clone, PartialEq)]
pub struct OfdDep {
    /// The context set `X`.
    pub context: AttrSet,
    /// The attribute that is (approximately) constant per context class.
    pub rhs: usize,
    /// Size of the minimal removal set.
    pub removed: usize,
    /// Approximation factor `e(φ) = removed / n`.
    pub factor: f64,
    /// Lattice level of the producing node (`|context| + 1`).
    pub level: usize,
    /// Context coverage (as for [`OcDep`]).
    pub coverage: f64,
}

impl OcDep {
    /// Interestingness score: context coverage damped by lattice level —
    /// dependencies in lower levels with broad contexts rank first,
    /// matching the ranking intuition of the paper's Section 4.3.
    pub fn interestingness(&self) -> f64 {
        self.coverage * (2f64).powi(-(self.level as i32))
    }

    /// Formats with column names, e.g. `{pos}: sal ~ bonus (e=0.000)`.
    pub fn display<'a>(&'a self, names: &'a [&'a str]) -> DisplayOc<'a> {
        DisplayOc { dep: self, names }
    }
}

impl OfdDep {
    /// Interestingness score (same shape as [`OcDep::interestingness`]).
    pub fn interestingness(&self) -> f64 {
        self.coverage * (2f64).powi(-(self.level as i32))
    }

    /// Formats with column names, e.g. `{pos,sal}: [] -> bonus (e=0.000)`.
    pub fn display<'a>(&'a self, names: &'a [&'a str]) -> DisplayOfd<'a> {
        DisplayOfd { dep: self, names }
    }
}

/// Name-resolving display adaptor for [`OcDep`].
pub struct DisplayOc<'a> {
    dep: &'a OcDep,
    names: &'a [&'a str],
}

impl fmt::Display for DisplayOc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |i: usize| self.names.get(i).copied().unwrap_or("?");
        write!(
            f,
            "{}: {} ~ {} (e={:.3})",
            self.dep.context.display_with(self.names),
            name(self.dep.a),
            name(self.dep.b),
            self.dep.factor
        )
    }
}

/// Name-resolving display adaptor for [`OfdDep`].
pub struct DisplayOfd<'a> {
    dep: &'a OfdDep,
    names: &'a [&'a str],
}

impl fmt::Display for DisplayOfd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [] -> {} (e={:.3})",
            self.dep.context.display_with(self.names),
            self.names.get(self.dep.rhs).copied().unwrap_or("?"),
            self.dep.factor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oc(level: usize, coverage: f64) -> OcDep {
        OcDep {
            context: AttrSet::EMPTY,
            a: 0,
            b: 1,
            removed: 0,
            factor: 0.0,
            level,
            coverage,
        }
    }

    #[test]
    fn interestingness_prefers_lower_levels() {
        assert!(oc(2, 1.0).interestingness() > oc(3, 1.0).interestingness());
        assert!(oc(2, 1.0).interestingness() > oc(2, 0.5).interestingness());
    }

    #[test]
    fn display_uses_names() {
        let dep = OcDep {
            context: AttrSet::singleton(0),
            a: 2,
            b: 6,
            removed: 0,
            factor: 0.0,
            level: 3,
            coverage: 1.0,
        };
        let names = ["pos", "exp", "sal", "taxGrp", "perc", "tax", "bonus"];
        assert_eq!(
            dep.display(&names).to_string(),
            "{pos}: sal ~ bonus (e=0.000)"
        );
        let ofd = OfdDep {
            context: AttrSet::from_attrs([0, 2]),
            rhs: 6,
            removed: 1,
            factor: 1.0 / 9.0,
            level: 3,
            coverage: 0.9,
        };
        assert_eq!(
            ofd.display(&names).to_string(),
            "{pos,sal}: [] -> bonus (e=0.111)"
        );
    }
}
