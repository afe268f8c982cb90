//! A dynamically typed cell value with a *total* order.
//!
//! Order dependencies are statements about the relative order of values, so
//! the single property everything in this workspace relies on is that values
//! drawn from a column can be compared with a total order. [`Value`] provides
//! that order across types:
//!
//! * `Null` sorts before everything (SQL `NULLS FIRST`),
//! * numbers (`Int`, `Float`) compare numerically with each other,
//! * `NaN` sorts after every other number,
//! * strings sort after all numbers, lexicographically among themselves.
//!
//! Columns produced by the CSV reader are homogeneous, but the order must be
//! total even for mixed columns so that rank encoding (see
//! [`crate::ranked`]) never panics.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing value; sorts before everything else.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is permitted and sorts after all other numbers.
    Float(f64),
    /// UTF-8 string; sorts after all numbers.
    Str(String),
}

impl Value {
    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A small integer encoding the type class used as the major sort key:
    /// nulls < numbers < strings.
    fn type_class(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }

    /// Compares two numeric values (`Int`/`Float`) numerically.
    ///
    /// An `i64` cannot always be represented exactly as an `f64`, so the
    /// comparison widens through `f64` only when the integer round-trips;
    /// otherwise it falls back to comparing against the float's truncation.
    fn cmp_numeric(a: &Value, b: &Value) -> Ordering {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Float(x), Value::Float(y)) => total_cmp_f64(*x, *y),
            (Value::Int(x), Value::Float(y)) => cmp_int_float(*x, *y),
            (Value::Float(x), Value::Int(y)) => cmp_int_float(*y, *x).reverse(),
            _ => unreachable!("cmp_numeric called on non-numeric values"),
        }
    }

    /// Parses a string slice into the most specific value type.
    ///
    /// Empty strings (and a few common markers) become `Null`; values that
    /// parse as `i64` become `Int`; values that parse as `f64` become
    /// `Float`; everything else is kept as a string.
    pub fn parse(s: &str) -> Value {
        let t = s.trim();
        if t.is_empty() || t == "NULL" || t == "null" || t == "NA" || t == "N/A" {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(t.to_string())
    }
}

/// Total order for `f64` values: `-inf < .. < -0.0 = 0.0 < .. < inf < NaN`.
///
/// Unlike [`f64::total_cmp`], negative and positive zero compare equal, which
/// matches the semantics of equality classes over data values (a column
/// holding `0.0` and `-0.0` should form one equivalence class).
fn total_cmp_f64(x: f64, y: f64) -> Ordering {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => x.partial_cmp(&y).expect("non-NaN floats always compare"),
    }
}

/// Compares an integer with a float numerically, NaN greater than any int.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    // i64 -> f64 can lose precision above 2^53; compare via the float's
    // integer bracket to stay exact.
    if f.is_infinite() {
        return if f > 0.0 {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    let fi = f.floor();
    if fi < i64::MIN as f64 {
        return Ordering::Greater;
    }
    // `i64::MAX as f64` rounds up to 2^63, which `fi as i64` would
    // saturate back to `i64::MAX`: every float from 2^63 up is greater.
    if fi >= i64::MAX as f64 {
        return Ordering::Less;
    }
    let fi_int = fi as i64;
    match i.cmp(&fi_int) {
        Ordering::Equal => {
            // i == floor(f): i < f iff f has a fractional part.
            if f > fi {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        other => other,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        let tc = self.type_class().cmp(&other.type_class());
        if tc != Ordering::Equal {
            return tc;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => Value::cmp_numeric(self, other),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// The logical type of a column, inferred during CSV ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// All non-null values are integers.
    Int,
    /// All non-null values are numeric, at least one a float.
    Float,
    /// At least one non-null value is a string (the catch-all type).
    Str,
    /// Column contains only nulls (or no rows).
    Null,
}

impl ValueType {
    /// The join of two types in the inference lattice `Null < Int < Float < Str`.
    pub fn unify(self, other: ValueType) -> ValueType {
        use ValueType::*;
        match (self, other) {
            (Null, t) | (t, Null) => t,
            (Str, _) | (_, Str) => Str,
            (Float, _) | (_, Float) => Float,
            (Int, Int) => Int,
        }
    }

    /// The type of a single value.
    pub fn of(v: &Value) -> ValueType {
        match v {
            Value::Null => ValueType::Null,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
            ValueType::Null => "null",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Null < Value::Str(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn ints_and_floats_compare_numerically() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Float(-0.5) < Value::Int(0));
        assert!(Value::Int(0) == Value::Float(-0.0));
    }

    #[test]
    fn large_ints_compare_exactly_with_floats() {
        // 2^53 + 1 is not representable as f64.
        let big = (1i64 << 53) + 1;
        assert!(Value::Int(big) > Value::Float((1i64 << 53) as f64));
        assert!(Value::Int(big) < Value::Float(((1i64 << 53) + 2) as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn i64_extremes_compare_exactly_with_their_float_neighbours() {
        let two_63 = 9_223_372_036_854_775_808.0_f64;
        assert!(Value::Int(i64::MAX) < Value::Float(two_63));
        assert!(Value::Float(two_63) > Value::Int(i64::MAX));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-two_63));
        assert!(Value::Int(i64::MIN) > Value::Float(-two_63 - 4096.0));
    }

    #[test]
    fn nan_sorts_after_all_numbers_before_strings() {
        let nan = Value::Float(f64::NAN);
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(nan > Value::Int(i64::MAX));
        assert!(nan < Value::Str("a".into()));
        assert_eq!(nan, Value::Float(f64::NAN));
    }

    #[test]
    fn strings_sort_after_numbers() {
        assert!(Value::Str("0".into()) > Value::Int(999));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
    }

    #[test]
    fn parse_infers_types() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-17"), Value::Int(-17));
        assert_eq!(Value::parse("3.25"), Value::Float(3.25));
        assert_eq!(Value::parse("1e3"), Value::Float(1000.0));
        assert_eq!(Value::parse("abc"), Value::Str("abc".into()));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("  "), Value::Null);
        assert_eq!(Value::parse("NULL"), Value::Null);
        assert_eq!(Value::parse("N/A"), Value::Null);
        assert_eq!(Value::parse(" 7 "), Value::Int(7));
    }

    #[test]
    fn ordering_is_total_and_antisymmetric() {
        let vals = [
            Value::Null,
            Value::Int(-3),
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Str("".into()),
            Value::Str("zz".into()),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse(), "antisymmetry for {a:?} vs {b:?}");
                for c in &vals {
                    // transitivity of <=
                    if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                        assert_ne!(
                            a.cmp(c),
                            Ordering::Greater,
                            "transitivity {a:?} {b:?} {c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn type_unification() {
        use ValueType::*;
        assert_eq!(Null.unify(Int), Int);
        assert_eq!(Int.unify(Float), Float);
        assert_eq!(Float.unify(Str), Str);
        assert_eq!(Int.unify(Int), Int);
        assert_eq!(Null.unify(Null), Null);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }
}
