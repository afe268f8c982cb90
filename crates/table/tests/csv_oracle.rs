//! Differential oracle for CSV ingestion and rank encoding.
//!
//! The reference below is the reader and ranking this crate shipped
//! before the slicing reader and the radix rank routine: a state machine
//! that copies every field into a `String`, a row-major `read_str` that
//! hands rows to [`Table::from_rows`], and one comparison sort over
//! [`Value`]s per column. The properties hold the library to it:
//!
//! * (a) on generated CSVs, `read_str` returns the reference's table bit
//!   for bit (variant and `f64` bits) or its exact error, and
//!   `RankedTable::from_table` returns its ranks and distinct counts, with
//!   every witness row holding its rank;
//! * (b) `read_str` never panics on arbitrary text;
//! * (c) `read_str(write_to(t))` has `t`'s ranks;
//! * (d) a quoted field of a million newlines under a wide header, and a
//!   short first record before long ones, read into columns with room for
//!   at most twice their values: the reader sizes nothing from a guess.

use aod_table::csv::{read_str, write_to, CsvOptions};
use aod_table::{RankedTable, Table, TableError, Value};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference reader and ranking.
// ---------------------------------------------------------------------

/// Parses CSV text into records of string fields.
fn reference_records(input: &str, delimiter: u8) -> Result<Vec<Vec<String>>, TableError> {
    let bytes = input.as_bytes();
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut in_quotes = false;
    let mut any_field_on_line = false;

    while i < bytes.len() {
        let b = bytes[i];
        if in_quotes {
            match b {
                b'"' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                        field.push('"');
                        i += 2;
                    } else {
                        in_quotes = false;
                        i += 1;
                    }
                }
                b'\n' => {
                    field.push('\n');
                    line += 1;
                    i += 1;
                }
                _ => {
                    let ch_len = utf8_len(b);
                    field.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
            }
        } else {
            match b {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    any_field_on_line = true;
                    i += 1;
                }
                b'\r' => {
                    i += 1;
                }
                b'\n' => {
                    if any_field_on_line || !field.is_empty() || !record.is_empty() {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    any_field_on_line = false;
                    line += 1;
                    i += 1;
                }
                d if d == delimiter => {
                    record.push(std::mem::take(&mut field));
                    any_field_on_line = true;
                    i += 1;
                }
                _ => {
                    let ch_len = utf8_len(b);
                    field.push_str(&input[i..i + ch_len]);
                    any_field_on_line = true;
                    i += ch_len;
                }
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if any_field_on_line || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Reads a table row by row through [`Table::from_rows`].
fn reference_read(input: &str, options: &CsvOptions) -> Result<Table, TableError> {
    let mut records = reference_records(input, options.delimiter)?;
    if records.is_empty() {
        return Table::from_rows::<&str>(&[], Vec::new());
    }
    let names: Vec<String> = if options.has_header {
        records.remove(0)
    } else {
        (0..records[0].len()).map(|i| format!("c{i}")).collect()
    };
    let expected = names.len();
    let mut rows = Vec::with_capacity(records.len());
    for (idx, rec) in records.into_iter().enumerate() {
        if rec.len() != expected {
            return Err(TableError::RowArity {
                row: idx + if options.has_header { 2 } else { 1 },
                found: rec.len(),
                expected,
            });
        }
        rows.push(rec.iter().map(|f| Value::parse(f)).collect());
    }
    Table::from_rows(&names, rows)
}

/// Dense ranks of one column by a comparison sort, and the distinct count.
fn reference_ranks(col: &[Value]) -> (Vec<u32>, u32) {
    let n = col.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| col[a as usize].cmp(&col[b as usize]));
    let mut ranks = vec![0u32; n];
    let mut next_rank = 0u32;
    for (i, &row) in order.iter().enumerate() {
        if i > 0 && col[order[i - 1] as usize] != col[row as usize] {
            next_rank += 1;
        }
        ranks[row as usize] = next_rank;
    }
    (ranks, if n == 0 { 0 } else { next_rank + 1 })
}

// ---------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------

/// `Value` equality is order equality (`Int(2) == Float(2.0)`); the
/// reader must reproduce the variant and the exact bits.
fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn same_table(got: &Table, want: &Table) -> Result<(), String> {
    if got.schema() != want.schema() {
        return Err(format!("schema {:?} != {:?}", got.schema(), want.schema()));
    }
    if got.n_rows() != want.n_rows() {
        return Err(format!("{} rows != {}", got.n_rows(), want.n_rows()));
    }
    for c in 0..want.n_cols() {
        for r in 0..want.n_rows() {
            let (g, w) = (got.value(r, c), want.value(r, c));
            if !same_cell(g, w) {
                return Err(format!("cell ({r}, {c}): {g:?} != {w:?}"));
            }
        }
    }
    Ok(())
}

/// The ranks and distinct counts of `ranked` equal `expected`, and every
/// witness row holds its rank.
fn check_ranks(ranked: &RankedTable, expected: &[(Vec<u32>, u32)]) -> Result<(), String> {
    if ranked.n_cols() != expected.len() {
        return Err(format!(
            "{} ranked columns != {}",
            ranked.n_cols(),
            expected.len()
        ));
    }
    for (c, (ranks, n_distinct)) in expected.iter().enumerate() {
        let col = ranked.column(c);
        if col.ranks() != ranks.as_slice() || col.n_distinct() != *n_distinct {
            return Err(format!(
                "column {c}: ranks {:?} ({} distinct) != {ranks:?} ({n_distinct} distinct)",
                col.ranks(),
                col.n_distinct()
            ));
        }
        for rank in 0..col.n_distinct() {
            let w = col.witness_row(rank);
            if col.rank(w) != rank {
                return Err(format!("column {c}: witness row {w} of rank {rank}"));
            }
        }
    }
    Ok(())
}

fn reference_rank_table(table: &Table) -> Vec<(Vec<u32>, u32)> {
    (0..table.n_cols())
        .map(|c| reference_ranks(table.column(c)))
        .collect()
}

/// Reads `text` with the library and the reference and compares tables,
/// errors and ranks.
fn differential(text: &str, options: &CsvOptions) -> Result<(), String> {
    match (read_str(text, options), reference_read(text, options)) {
        (Ok(got), Ok(want)) => {
            same_table(&got, &want)?;
            check_ranks(&RankedTable::from_table(&got), &reference_rank_table(&want))
        }
        (Err(got), Err(want)) => {
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            if got == want {
                Ok(())
            } else {
                Err(format!("error {got} != {want}"))
            }
        }
        (got, want) => Err(format!(
            "outcome {:?} != {:?}",
            got.map(|t| t.n_rows()),
            want.map(|t| t.n_rows())
        )),
    }
}

// ---------------------------------------------------------------------
// Generated CSV text.
// ---------------------------------------------------------------------

/// Draws from a fixed list of random numbers; zeros once it runs out.
struct Draws<'a> {
    values: &'a [u32],
    next: usize,
}

impl Draws<'_> {
    fn below(&mut self, bound: usize) -> usize {
        let v = self.values.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        v as usize % bound
    }

    fn percent(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn pick<'t>(&mut self, items: &[&'t str]) -> &'t str {
        items[self.below(items.len())]
    }
}

const NULLS: &[&str] = &["", "NULL", "null", "NA", "N/A", "  ", " NULL "];
const INTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "42",
    "7",
    "-17",
    "+5",
    "007",
    " 3 ",
    "9223372036854775807",
    "-9223372036854775808",
    "1000000",
    "-0",
];
const FLOATS: &[&str] = &[
    "1.5",
    "-0.0",
    "0.0",
    "-1.5",
    "2.5e3",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e400",
    "-1e-400",
    "9223372036854775808",
    "-9223372036854775809",
    "9223372036854775807.0",
    "4.0",
    ".5",
    "5.",
    "1e15",
    " -0.0 ",
    "0.1",
];
const STRS: &[&str] = &[
    "a",
    "b",
    "zz",
    "héllo",
    "日本語",
    "x,y",
    "x;y",
    "say \"hi\"",
    "two\nlines",
    "cr\rhere",
    " padded ",
    "Inf1",
    "1a",
    "é",
    "a\r\nb",
];
const NAMES: &[&str] = &["a", "b", "c", "id", "x y", "", "na,me", "é", "q\"t", "a"];

/// One cell's text for a column of the given kind.
fn cell<'t>(d: &mut Draws, kind: usize) -> &'t str {
    if d.percent(15) {
        return d.pick(NULLS);
    }
    match kind {
        0 => d.pick(INTS),
        1 => d.pick(FLOATS),
        2 => d.pick(STRS),
        3 => {
            if d.percent(50) {
                d.pick(INTS)
            } else {
                d.pick(FLOATS)
            }
        }
        4 => match d.below(3) {
            0 => d.pick(INTS),
            1 => d.pick(FLOATS),
            _ => d.pick(STRS),
        },
        _ => d.pick(NULLS),
    }
}

/// Writes `text` as one field: plain when that reads back, quoted with
/// doubled quotes, padded, or one of the shapes the state machine treats
/// specially (a quote after content, text after a closing quote, a CR
/// before an opening quote or inside unquoted text).
fn encode(out: &mut String, d: &mut Draws, text: &str, delimiter: char) {
    let needs_quotes = text.contains([delimiter, '"', '\n', '\r']);
    let quoted = format!("\"{}\"", text.replace('"', "\"\""));
    match d.below(12) {
        0..=5 if !needs_quotes => out.push_str(text),
        0..=7 => out.push_str(&quoted),
        8 => {
            if needs_quotes {
                out.push_str(&format!(" {quoted} "));
            } else {
                out.push_str(&format!(" {text}\t"));
            }
        }
        9 => {
            // A quote after content is content: `ab"c`.
            out.push_str("x\"");
            out.push_str(if needs_quotes { "y" } else { text });
        }
        10 => {
            // Text after a closing quote joins the field: `"a"b`.
            out.push_str(&quoted);
            out.push_str(d.pick(&["b", "\"", "7", "\"\""]));
        }
        _ => {
            // A skipped CR before a quote or inside unquoted text.
            if d.percent(50) {
                out.push('\r');
                out.push_str(&quoted);
            } else if needs_quotes {
                out.push_str("1\r2");
            } else {
                out.push_str(text);
                out.push('\r');
                out.push_str(d.pick(&["5", "x", ""]));
            }
        }
    }
}

fn terminator(out: &mut String, d: &mut Draws) {
    out.push_str(match d.below(10) {
        0..=5 => "\n",
        6..=7 => "\r\n",
        8 => "\n\n",
        _ => {
            if d.percent(50) {
                "\r\n\r\n"
            } else {
                "\r"
            }
        }
    });
}

/// A CSV text and the options to read it with, built from `draws`.
fn generated_csv(draws: &[u32]) -> (String, CsvOptions) {
    let mut d = Draws {
        values: draws,
        next: 0,
    };
    let options = CsvOptions {
        delimiter: if d.percent(70) { b',' } else { b';' },
        has_header: d.percent(75),
    };
    let delimiter = char::from(options.delimiter);
    let n_cols = 1 + d.below(5);
    let kinds: Vec<usize> = (0..n_cols).map(|_| d.below(6)).collect();
    let mut out = String::new();
    if d.percent(10) {
        terminator(&mut out, &mut d);
    }
    if options.has_header {
        for c in 0..n_cols {
            if c > 0 {
                out.push(delimiter);
            }
            let name = if d.percent(90) {
                format!("c{c}")
            } else {
                d.pick(NAMES).to_string()
            };
            encode(&mut out, &mut d, &name, delimiter);
        }
        terminator(&mut out, &mut d);
    }
    let n_rows = d.below(14);
    for r in 0..n_rows {
        let arity = match d.below(40) {
            0 => n_cols + 1,
            1 => n_cols.saturating_sub(1).max(1),
            _ => n_cols,
        };
        for c in 0..arity {
            if c > 0 {
                out.push(delimiter);
            }
            let text = cell(&mut d, kinds[c.min(n_cols - 1)]);
            encode(&mut out, &mut d, text, delimiter);
        }
        if r + 1 < n_rows || d.percent(80) {
            terminator(&mut out, &mut d);
        }
    }
    if d.percent(4) {
        out.push_str("\"unterminated");
    }
    (out, options)
}

/// Characters arbitrary text is drawn from: the CSV structure, the null
/// and number spellings, and multi-byte characters.
const ALPHABET: &[char] = &[
    '"',
    '"',
    ',',
    ';',
    '\n',
    '\n',
    '\r',
    ' ',
    '\t',
    '0',
    '1',
    '9',
    '-',
    '.',
    'e',
    'N',
    'a',
    'n',
    'f',
    'é',
    '日',
    '\u{10348}',
];

fn arbitrary_text(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| match char::from_u32(c % 0x11_0000) {
            Some(ch) if c % 4 == 0 => ch,
            _ => ALPHABET[c as usize % ALPHABET.len()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn reader_and_ranks_match_the_reference(draws in vec(0u32..u32::MAX, 0..400)) {
        let (text, options) = generated_csv(&draws);
        differential(&text, &options).map_err(|e| TestCaseError::fail(format!("{e}\n text: {text:?}")))?;
    }

    #[test]
    fn arbitrary_text_never_panics(codes in vec(0u32..u32::MAX, 0..300), pick in 0usize..12) {
        let text = arbitrary_text(&codes);
        let delimiter = [b',', b';', b'"', b'\t', b'\n', b'\r', b' ', b'a', 0xE6, 0x97, 0xFF, b','][pick];
        for has_header in [true, false] {
            let options = CsvOptions { delimiter, has_header };
            if delimiter.is_ascii() {
                differential(&text, &options).map_err(|e| TestCaseError::fail(format!("{e}\n text: {text:?}")))?;
            } else if let Ok(table) = read_str(&text, &options) {
                // A non-ASCII byte would split a character: it never delimits.
                prop_assert!(table.n_cols() <= 1);
                RankedTable::from_table(&table);
            }
        }
    }

    #[test]
    fn written_tables_read_back_with_their_ranks(draws in vec(0u32..u32::MAX, 0..400)) {
        let (text, options) = generated_csv(&draws);
        let Ok(table) = read_str(&text, &options) else { return Ok(()); };
        let mut out = Vec::new();
        write_to(&table, &mut out, &options).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let written = String::from_utf8(out).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back = read_str(&written, &options)
            .map_err(|e| TestCaseError::fail(format!("{e}\n written: {written:?}")))?;
        prop_assert_eq!(back.n_rows(), table.n_rows(), "written: {:?}", written);
        let ranked = RankedTable::from_table(&table);
        let want: Vec<(Vec<u32>, u32)> = (0..ranked.n_cols())
            .map(|c| (ranked.column(c).ranks().to_vec(), ranked.column(c).n_distinct()))
            .collect();
        check_ranks(&RankedTable::from_table(&back), &want)
            .map_err(|e| TestCaseError::fail(format!("{e}\n written: {written:?}")))?;
    }
}

#[test]
fn a_million_quoted_newlines_under_a_wide_header_read_in_bounded_memory() {
    const COLS: usize = 10_000;
    const NEWLINES: usize = 1_000_000;
    let header: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    let mut text = header.join(",");
    text.push('\n');
    text.push_str("\"x");
    text.push_str(&"\n".repeat(NEWLINES));
    text.push_str("y\"");
    text.push_str(&",".repeat(COLS - 1));
    text.push('\n');
    assert!(text.len() > 1_000_000);
    let mut table = read_str(&text, &CsvOptions::default()).expect("a well-formed record");
    assert_eq!((table.n_rows(), table.n_cols()), (1, COLS));
    assert_columns_fit(&mut table);
    match table.value(0, 0) {
        Value::Str(s) => assert_eq!(s.len(), NEWLINES + 2),
        other => panic!("expected a string, got {other:?}"),
    }
    assert!(table.value(0, COLS - 1).is_null());
    let ranked = RankedTable::from_table(&table);
    assert_eq!(ranked.column(0).n_distinct(), 1);
}

#[test]
fn a_short_first_record_does_not_size_the_columns() {
    // Sizing the columns from the first record's three bytes would make
    // room for about 35 values per record that follows.
    let mut text = String::from("id,note\n1,\n");
    for id in 2..=10_000 {
        text.push_str(&format!("{id},{}\n", "n".repeat(100)));
    }
    let mut table = read_str(&text, &CsvOptions::default()).expect("well-formed records");
    assert_eq!((table.n_rows(), table.n_cols()), (10_000, 2));
    assert!(table.value(0, 1).is_null());
    assert_columns_fit(&mut table);
}

/// No column has room for more than twice its values, which is what
/// growth by doubling leaves.
fn assert_columns_fit(table: &mut Table) {
    let rows = table.n_rows();
    for c in 0..table.n_cols() {
        let capacity = table.column_mut(c).capacity();
        assert!(
            capacity <= 2 * rows.max(4),
            "column {c}: room for {capacity} values, {rows} rows"
        );
    }
}
