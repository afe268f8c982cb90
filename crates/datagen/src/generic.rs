//! Configurable synthetic table generator.
//!
//! The paper evaluates on two real CSV dumps (BTS `flight`, NC `ncvoter`)
//! that are not redistributable here. What the algorithms are sensitive to
//! is *structure*, not provenance:
//!
//! * equivalence-class size distributions per context (drives partition and
//!   validation cost),
//! * monotone correlations between columns (drives how many OCs/ODs exist
//!   and at which lattice levels),
//! * controlled dirt rates (drives the difference between exact and
//!   approximate discovery).
//!
//! [`Generator`] builds tables from a list of [`ColumnKind`]s that express
//! exactly those properties; the `flight`/`ncvoter` presets compose them
//! into schemas shaped like the paper's datasets.

use aod_table::{RankedTable, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How one column's values are produced.
#[derive(Debug, Clone)]
pub enum ColumnKind {
    /// A unique row identifier in random order (a key; no non-trivial
    /// dependencies into or out of it except through keys).
    Key,
    /// Uniform categorical values in `0..cardinality`.
    Uniform {
        /// Number of distinct values.
        cardinality: u32,
    },
    /// Skewed (power-law) categorical values in `0..cardinality`:
    /// `P(v) ∝ (v+1)^-s`. Produces the few-large-many-small class
    /// distributions typical of real categorical columns.
    Zipf {
        /// Number of distinct values.
        cardinality: u32,
        /// Skew exponent (`1.0` is classic Zipf; larger is more skewed).
        s: f64,
    },
    /// A strictly monotone transform of another column, with a fraction of
    /// rows replaced by uniform noise. Creates the OC
    /// `source ~ this` with approximation factor ≈ `noise_rate`
    /// (`noise_rate = 0` makes it exact).
    MonotoneOf {
        /// Index of the source column (must precede this one).
        source: usize,
        /// Fraction of rows whose value is replaced by noise.
        noise_rate: f64,
    },
    /// The source column coarsened into `buckets` buckets by integer
    /// division — a monotone *many-to-one* map, so both the OC
    /// `source ~ this` and the OFD `{source}: [] |-> this` hold, i.e. the
    /// OD `source |-> this` (like `sal |-> taxGrp` in Table 1). Noise is
    /// injected at `noise_rate`.
    CoarsenOf {
        /// Index of the source column (must precede this one).
        source: usize,
        /// Number of buckets (distinct output values).
        buckets: u32,
        /// Fraction of rows whose value is replaced by noise.
        noise_rate: f64,
    },
    /// A random bijective re-labelling of another column: the FDs
    /// `source -> this` and `this -> source` hold but the *order* is
    /// scrambled (an FD without an OC — distinguishes the two discovery
    /// problems).
    RelabelOf {
        /// Index of the source column (must precede this one).
        source: usize,
        /// Cardinality of the source column's domain (upper bound is fine).
        cardinality: u32,
    },
    /// A noisy copy: equal to the source except on a `noise_rate` fraction
    /// of rows (models near-duplicate columns like street vs. mail address).
    NoisyCopyOf {
        /// Index of the source column (must precede this one).
        source: usize,
        /// Fraction of rows replaced by noise.
        noise_rate: f64,
    },
    /// A refinement of a parent column: `parent * fanout + uniform(fanout)`.
    /// Partition-wise this behaves like month-within-year; the OD
    /// `this |-> parent` holds exactly.
    RefineOf {
        /// Index of the parent column (must precede this one).
        parent: usize,
        /// Children per parent value.
        fanout: u32,
    },
    /// The paper's "concatenated zero" data-entry error (Table 1's `perc`
    /// column): a monotone copy of the source whose value is multiplied by
    /// `factor` on an `error_rate` fraction of rows. The scaled values form
    /// a second, overlapping increasing run — exactly the structure on
    /// which the iterative validator's greedy removal overestimates
    /// (Example 3.1).
    ScaledErrorOf {
        /// Index of the source column (must precede this one).
        source: usize,
        /// Fraction of rows with the error.
        error_rate: f64,
        /// Multiplier applied on erroneous rows (10 = concatenated zero).
        factor: u32,
    },
}

/// A named column specification.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name (becomes the schema name).
    pub name: String,
    /// Value generator.
    pub kind: ColumnKind,
}

impl ColumnSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: ColumnKind) -> ColumnSpec {
        ColumnSpec {
            name: name.into(),
            kind,
        }
    }
}

/// A deterministic synthetic table generator.
#[derive(Debug, Clone)]
pub struct Generator {
    specs: Vec<ColumnSpec>,
    seed: u64,
}

impl Generator {
    /// Builds a generator from column specs and an RNG seed.
    ///
    /// # Panics
    /// If a derived column references a source at or after its own position.
    pub fn new(specs: Vec<ColumnSpec>, seed: u64) -> Generator {
        for (i, spec) in specs.iter().enumerate() {
            let source = match spec.kind {
                ColumnKind::MonotoneOf { source, .. }
                | ColumnKind::CoarsenOf { source, .. }
                | ColumnKind::RelabelOf { source, .. }
                | ColumnKind::NoisyCopyOf { source, .. }
                | ColumnKind::ScaledErrorOf { source, .. }
                | ColumnKind::RefineOf { parent: source, .. } => Some(source),
                _ => None,
            };
            if let Some(s) = source {
                assert!(
                    s < i,
                    "column {i} ({}) references source {s} not before it",
                    spec.name
                );
            }
        }
        Generator { specs, seed }
    }

    /// Number of columns this generator produces.
    pub fn n_cols(&self) -> usize {
        self.specs.len()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Generates raw `u32` columns (the fast path used by benchmarks).
    pub fn generate_u32(&self, rows: usize) -> Vec<Vec<u32>> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut cols: Vec<Vec<u32>> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let col = match spec.kind {
                ColumnKind::Key => {
                    let mut ids: Vec<u32> = (0..rows as u32).collect();
                    shuffle(&mut ids, &mut rng);
                    ids
                }
                ColumnKind::Uniform { cardinality } => {
                    let card = cardinality.max(1);
                    (0..rows).map(|_| rng.gen_range(0..card)).collect()
                }
                ColumnKind::Zipf { cardinality, s } => {
                    let sampler = ZipfSampler::new(cardinality.max(1), s);
                    (0..rows).map(|_| sampler.sample(&mut rng)).collect()
                }
                ColumnKind::MonotoneOf { source, noise_rate } => {
                    let src = &cols[source];
                    let max = src.iter().copied().max().unwrap_or(0);
                    src.iter()
                        .map(|&v| {
                            if rng.gen_bool(noise_rate.clamp(0.0, 1.0)) {
                                // Noise spans the transformed domain so it can
                                // land on either side of the clean values.
                                rng.gen_range(0..=monotone(max).max(1))
                            } else {
                                monotone(v)
                            }
                        })
                        .collect()
                }
                ColumnKind::CoarsenOf {
                    source,
                    buckets,
                    noise_rate,
                } => {
                    let src = &cols[source];
                    let max = src.iter().copied().max().unwrap_or(0);
                    let div = (max / buckets.max(1)).max(1);
                    src.iter()
                        .map(|&v| {
                            if rng.gen_bool(noise_rate.clamp(0.0, 1.0)) {
                                rng.gen_range(0..buckets.max(1))
                            } else {
                                v / div
                            }
                        })
                        .collect()
                }
                ColumnKind::RelabelOf {
                    source,
                    cardinality,
                } => {
                    let mut perm: Vec<u32> = (0..cardinality.max(1)).collect();
                    shuffle(&mut perm, &mut rng);
                    cols[source]
                        .iter()
                        .map(|&v| perm[(v as usize) % perm.len()])
                        .collect()
                }
                ColumnKind::NoisyCopyOf { source, noise_rate } => {
                    let src = &cols[source];
                    let max = src.iter().copied().max().unwrap_or(0);
                    src.iter()
                        .map(|&v| {
                            if rng.gen_bool(noise_rate.clamp(0.0, 1.0)) {
                                rng.gen_range(0..=max.max(1))
                            } else {
                                v
                            }
                        })
                        .collect()
                }
                ColumnKind::RefineOf { parent, fanout } => {
                    let f = fanout.max(1);
                    cols[parent]
                        .iter()
                        .map(|&v| v * f + rng.gen_range(0..f))
                        .collect()
                }
                ColumnKind::ScaledErrorOf {
                    source,
                    error_rate,
                    factor,
                } => {
                    let src = &cols[source];
                    src.iter()
                        .map(|&v| {
                            let clean = monotone(v);
                            if rng.gen_bool(error_rate.clamp(0.0, 1.0)) {
                                clean.saturating_mul(factor.max(2))
                            } else {
                                clean
                            }
                        })
                        .collect()
                }
            };
            cols.push(col);
        }
        cols
    }

    /// Generates a [`RankedTable`] directly (densified ranks).
    pub fn ranked(&self, rows: usize) -> RankedTable {
        RankedTable::from_u32_columns(self.generate_u32(rows))
    }

    /// Generates a [`Table`] of integer [`Value`]s with the spec's column
    /// names (for examples, the CLI and CSV export).
    pub fn table(&self, rows: usize) -> Table {
        let cols = self.generate_u32(rows);
        let names = self.names();
        let columns: Vec<Vec<Value>> = cols
            .into_iter()
            .map(|c| c.into_iter().map(|v| Value::Int(v as i64)).collect())
            .collect();
        let schema = aod_table::Schema::from_names(&names).expect("spec names are unique");
        let mut t = Table::new(schema, columns).expect("columns are rectangular");
        t.infer_types();
        t
    }
}

/// The strictly monotone transform used by `MonotoneOf`
/// (affine, so it is order-preserving and collision-free).
#[inline]
fn monotone(v: u32) -> u32 {
    v.saturating_mul(3).saturating_add(11)
}

/// Fisher–Yates shuffle (avoids depending on `rand`'s `SliceRandom` trait
/// so the crate keeps a minimal feature surface).
fn shuffle<T>(data: &mut [T], rng: &mut SmallRng) {
    for i in (1..data.len()).rev() {
        let j = rng.gen_range(0..=i);
        data.swap(i, j);
    }
}

/// Inverse-CDF sampler for a discrete power law `P(v) ∝ (v+1)^{-s}`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(cardinality: u32, s: f64) -> ZipfSampler {
        let mut cumulative = Vec::with_capacity(cardinality as usize);
        let mut total = 0.0;
        for v in 0..cardinality {
            total += 1.0 / ((v as f64 + 1.0).powf(s));
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut SmallRng) -> u32 {
        let u: f64 = rng.gen();
        self.cumulative.partition_point(|&c| c < u) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_partition::Partition;
    use aod_validate::{list_od_holds, OcValidator};

    fn gen(specs: Vec<ColumnSpec>) -> Generator {
        Generator::new(specs, 42)
    }

    #[test]
    fn key_column_is_a_permutation() {
        let g = gen(vec![ColumnSpec::new("id", ColumnKind::Key)]);
        let mut col = g.generate_u32(100).pop().unwrap();
        col.sort_unstable();
        assert_eq!(col, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn deterministic_across_calls() {
        let specs = vec![
            ColumnSpec::new("a", ColumnKind::Uniform { cardinality: 10 }),
            ColumnSpec::new(
                "b",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate: 0.2,
                },
            ),
        ];
        let g1 = Generator::new(specs.clone(), 7);
        let g2 = Generator::new(specs, 7);
        assert_eq!(g1.generate_u32(50), g2.generate_u32(50));
    }

    #[test]
    fn different_seeds_differ() {
        let specs = vec![ColumnSpec::new(
            "a",
            ColumnKind::Uniform { cardinality: 1000 },
        )];
        let g1 = Generator::new(specs.clone(), 1);
        let g2 = Generator::new(specs, 2);
        assert_ne!(g1.generate_u32(50), g2.generate_u32(50));
    }

    #[test]
    fn clean_monotone_column_is_order_compatible() {
        let g = gen(vec![
            ColumnSpec::new("a", ColumnKind::Uniform { cardinality: 50 }),
            ColumnSpec::new(
                "b",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate: 0.0,
                },
            ),
        ]);
        let t = g.ranked(500);
        let mut v = OcValidator::new();
        assert!(v.exact_oc_holds(
            &Partition::unit(500),
            t.column(0).ranks(),
            t.column(1).ranks()
        ));
    }

    #[test]
    fn noisy_monotone_column_has_roughly_matching_factor() {
        let g = gen(vec![
            ColumnSpec::new("a", ColumnKind::Uniform { cardinality: 1000 }),
            ColumnSpec::new(
                "b",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate: 0.10,
                },
            ),
        ]);
        let t = g.ranked(2000);
        let mut v = OcValidator::new();
        let removed = v
            .min_removal_optimal(
                &Partition::unit(2000),
                t.column(0).ranks(),
                t.column(1).ranks(),
                usize::MAX,
            )
            .unwrap();
        let factor = removed as f64 / 2000.0;
        // A noise flip doesn't always create a swap (it can land in order),
        // so the factor is below the noise rate but near it.
        assert!(factor > 0.02 && factor <= 0.12, "factor {factor}");
    }

    #[test]
    fn coarsen_creates_exact_od() {
        let g = gen(vec![
            ColumnSpec::new(
                "sal",
                ColumnKind::Uniform {
                    cardinality: 10_000,
                },
            ),
            ColumnSpec::new(
                "taxGrp",
                ColumnKind::CoarsenOf {
                    source: 0,
                    buckets: 5,
                    noise_rate: 0.0,
                },
            ),
        ]);
        let t = g.ranked(1000);
        assert!(list_od_holds(&t, &[0], &[1]));
        assert!(t.column(1).n_distinct() <= 6);
    }

    #[test]
    fn refine_creates_exact_od_to_parent() {
        let g = gen(vec![
            ColumnSpec::new("year", ColumnKind::Uniform { cardinality: 5 }),
            ColumnSpec::new(
                "month",
                ColumnKind::RefineOf {
                    parent: 0,
                    fanout: 12,
                },
            ),
        ]);
        let t = g.ranked(600);
        assert!(list_od_holds(&t, &[1], &[0]));
    }

    #[test]
    fn relabel_keeps_fd_but_breaks_order() {
        let g = gen(vec![
            ColumnSpec::new("code", ColumnKind::Uniform { cardinality: 200 }),
            ColumnSpec::new(
                "label",
                ColumnKind::RelabelOf {
                    source: 0,
                    cardinality: 200,
                },
            ),
        ]);
        let t = g.ranked(2000);
        // FD both ways:
        let p = Partition::from_ranks(t.column(0).ranks(), t.column(0).n_distinct());
        assert!(p.fd_holds(t.column(1).ranks(), t.column(1).n_distinct()));
        // but with 200 shuffled labels the OC is all but surely broken:
        let mut v = OcValidator::new();
        assert!(!v.exact_oc_holds(
            &Partition::unit(2000),
            t.column(0).ranks(),
            t.column(1).ranks()
        ));
    }

    #[test]
    fn zipf_is_skewed() {
        let g = gen(vec![ColumnSpec::new(
            "z",
            ColumnKind::Zipf {
                cardinality: 100,
                s: 1.5,
            },
        )]);
        let col = g.generate_u32(10_000).pop().unwrap();
        let zero_share = col.iter().filter(|&&v| v == 0).count() as f64 / 10_000.0;
        // With s = 1.5 the head value should dominate clearly.
        assert!(zero_share > 0.2, "share {zero_share}");
        assert!(col.iter().all(|&v| v < 100));
    }

    #[test]
    fn noisy_copy_mostly_equals_source() {
        let g = gen(vec![
            ColumnSpec::new("street", ColumnKind::Uniform { cardinality: 500 }),
            ColumnSpec::new(
                "mail",
                ColumnKind::NoisyCopyOf {
                    source: 0,
                    noise_rate: 0.18,
                },
            ),
        ]);
        let cols = g.generate_u32(5000);
        let equal = cols[0].iter().zip(&cols[1]).filter(|(a, b)| a == b).count() as f64 / 5000.0;
        assert!(equal > 0.78 && equal < 0.88, "equal share {equal}");
    }

    #[test]
    fn table_conversion_has_names_and_types() {
        let g = gen(vec![
            ColumnSpec::new("x", ColumnKind::Uniform { cardinality: 4 }),
            ColumnSpec::new(
                "y",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate: 0.0,
                },
            ),
        ]);
        let t = g.table(10);
        assert_eq!(t.schema().names(), vec!["x", "y"]);
        assert_eq!(t.n_rows(), 10);
    }

    #[test]
    fn scaled_error_triggers_iterative_overestimation() {
        // The whole point of ScaledErrorOf: on this structure the greedy
        // max-swap heuristic (Algorithm 1) removes more tuples than the
        // minimal removal set found by the LNDS validator (Algorithm 2).
        let g = gen(vec![
            ColumnSpec::new("sal", ColumnKind::Uniform { cardinality: 500 }),
            ColumnSpec::new(
                "tax",
                ColumnKind::ScaledErrorOf {
                    source: 0,
                    error_rate: 0.1,
                    factor: 10,
                },
            ),
        ]);
        let t = g.ranked(800);
        let ctx = Partition::unit(800);
        let mut v = OcValidator::new();
        let opt = v
            .min_removal_optimal(&ctx, t.column(0).ranks(), t.column(1).ranks(), usize::MAX)
            .unwrap();
        let it = v
            .min_removal_iterative(&ctx, t.column(0).ranks(), t.column(1).ranks(), usize::MAX)
            .unwrap();
        assert!(opt > 0);
        assert!(it >= opt);
    }

    #[test]
    #[should_panic(expected = "references source")]
    fn forward_references_rejected() {
        Generator::new(
            vec![ColumnSpec::new(
                "bad",
                ColumnKind::MonotoneOf {
                    source: 0,
                    noise_rate: 0.0,
                },
            )],
            1,
        );
    }
}
