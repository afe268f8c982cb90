//! Error injectors for [`Table`]s.
//!
//! These reproduce, at scale, the kinds of dirt the paper's motivating
//! example shows in Table 1: the `perc` column contains "a concatenated
//! zero in some rows due to data entry errors (e.g., 10% instead of 1%)".
//! Injecting such errors into clean data lets examples and experiments
//! demonstrate that exact OD discovery loses dependencies a single bad cell
//! breaks, while AOD discovery retains them.

use aod_table::{Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Multiplies a fraction of a numeric column's values by 10 — the paper's
/// "concatenated zero" data-entry error. Returns the affected row ids.
pub fn inject_concatenated_zero(table: &mut Table, col: usize, rate: f64, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut affected = Vec::new();
    let column = table.column_mut(col);
    for (row, v) in column.iter_mut().enumerate() {
        if rng.gen_bool(rate.clamp(0.0, 1.0)) {
            match v {
                Value::Int(i) => {
                    *i = i.saturating_mul(10);
                    affected.push(row);
                }
                Value::Float(f) => {
                    *f *= 10.0;
                    affected.push(row);
                }
                _ => {}
            }
        }
    }
    affected
}

/// Swaps the values of random row pairs within one column — classic
/// transposition noise that creates swaps w.r.t. any OC the column takes
/// part in. Returns the affected row ids.
pub fn inject_transpositions(table: &mut Table, col: usize, rate: f64, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = table.n_rows();
    let column = table.column_mut(col);
    let n_pairs = ((n as f64) * rate.clamp(0.0, 1.0) / 2.0).round() as usize;
    let mut affected = Vec::new();
    for _ in 0..n_pairs {
        if n < 2 {
            break;
        }
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            column.swap(i, j);
            affected.push(i);
            affected.push(j);
        }
    }
    affected.sort_unstable();
    affected.dedup();
    affected
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::employee_table;

    #[test]
    fn concatenated_zero_scales_ints() {
        let mut t = employee_table();
        let before: Vec<Value> = t.column(5).to_vec(); // tax
        let affected = inject_concatenated_zero(&mut t, 5, 0.5, 42);
        assert!(!affected.is_empty());
        for &row in &affected {
            let expected = match &before[row] {
                Value::Int(i) => Value::Int(i * 10),
                _ => unreachable!(),
            };
            assert_eq!(t.value(row, 5), &expected);
        }
        // Unaffected rows untouched.
        for (row, prev) in before.iter().enumerate() {
            if !affected.contains(&row) {
                assert_eq!(t.value(row, 5), prev);
            }
        }
    }

    #[test]
    fn concatenated_zero_skips_strings() {
        let mut t = employee_table();
        let before: Vec<Value> = t.column(0).to_vec(); // pos (strings)
        let affected = inject_concatenated_zero(&mut t, 0, 1.0, 1);
        assert!(affected.is_empty());
        assert_eq!(t.column(0), before.as_slice());
    }

    #[test]
    fn transpositions_permute_multiset() {
        let mut t = employee_table();
        let mut before: Vec<Value> = t.column(2).to_vec();
        inject_transpositions(&mut t, 2, 0.8, 3);
        let mut after: Vec<Value> = t.column(2).to_vec();
        before.sort();
        after.sort();
        assert_eq!(before, after); // same values, different order
    }

    #[test]
    fn injectors_are_deterministic() {
        let mut t1 = employee_table();
        let mut t2 = employee_table();
        let a1 = inject_concatenated_zero(&mut t1, 5, 0.4, 7);
        let a2 = inject_concatenated_zero(&mut t2, 5, 0.4, 7);
        assert_eq!(a1, a2);
        assert_eq!(t1.column(5), t2.column(5));
    }
}
