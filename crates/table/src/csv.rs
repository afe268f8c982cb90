//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Hand-rolled (the workspace's offline dependency policy excludes the `csv`
//! crate) but complete for the datasets this project handles: quoted fields,
//! embedded separators/newlines/escaped quotes, configurable delimiter and
//! CRLF tolerance. Each field is parsed on its own by [`Value::parse`]; no
//! type is inferred per column, so one column may hold several variants.
//!
//! The reader makes one pass over the input bytes. It copies each run of
//! field text between two stop bytes (quote, CR, LF, delimiter) into one
//! reused buffer, and each finished field goes through [`Value::parse`]
//! straight into its column, so no per-field strings, no row vectors and
//! no transpose are built. Columns grow as values arrive. A quote opens a
//! quoted section only at the start of a field, a CR outside quotes is
//! dropped, and blank lines are skipped. A non-ASCII delimiter byte never
//! delimits, because it would split a character.

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Whether the first record is a header (default `true`). Without a
    /// header, columns are named `c0, c1, ...`.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
        }
    }
}

/// Reads a [`Table`] from CSV text.
///
/// Errors come in this order: an unterminated quoted field anywhere in
/// the input, then the first record whose field count differs from the
/// first record's, then a duplicate header name.
///
/// # Errors
/// [`TableError::Csv`] for malformed input, [`TableError::RowArity`] when a
/// record's field count differs from the header's,
/// [`TableError::DuplicateColumn`] for a repeated header name.
pub fn read_str(input: &str, options: &CsvOptions) -> Result<Table, TableError> {
    let bytes = input.as_bytes();
    // LF stands in for a non-ASCII delimiter: the LF branch claims it first.
    let delimiter = if options.delimiter.is_ascii() {
        options.delimiter
    } else {
        b'\n'
    };
    let mut stops = [false; 256];
    for b in [b'"', b'\r', b'\n', delimiter] {
        stops[usize::from(b)] = true;
    }
    let mut columns = Columns {
        has_header: options.has_header,
        ..Columns::default()
    };
    let mut field = String::new();
    let mut line_has_field = false;
    // Start of the next unquoted run of field text.
    let mut run = 0;
    loop {
        // A quote after field text is text, unless it is the delimiter.
        let mut end = run;
        loop {
            while end < bytes.len() && !stops[usize::from(bytes[end])] {
                end += 1;
            }
            let quote_is_text = bytes.get(end) == Some(&b'"')
                && delimiter != b'"'
                && (end > run || !field.is_empty());
            if !quote_is_text {
                break;
            }
            end += 1;
        }
        line_has_field |= end > run;
        field.push_str(&input[run..end]);
        let Some(&stop) = bytes.get(end) else {
            break;
        };
        run = end + 1;
        match stop {
            b'"' if field.is_empty() => {
                line_has_field = true;
                run = read_quoted(input, run, &mut field)?;
            }
            b'\r' => {}
            b'\n' => {
                if line_has_field {
                    columns.field(&field);
                    field.clear();
                    columns.end_record();
                }
                line_has_field = false;
            }
            _ => {
                columns.field(&field);
                field.clear();
                line_has_field = true;
            }
        }
    }
    if line_has_field {
        columns.field(&field);
        columns.end_record();
    }
    columns.finish()
}

/// Appends the text of a quoted section, which starts at `from` (just
/// past the opening quote), to `field`, and returns the position after
/// its closing quote. A doubled quote is one quote of text.
fn read_quoted(input: &str, mut from: usize, field: &mut String) -> Result<usize, TableError> {
    let bytes = input.as_bytes();
    loop {
        let Some(quote) = bytes[from..].iter().position(|&b| b == b'"') else {
            return Err(TableError::Csv {
                line: 1 + bytes.iter().filter(|&&b| b == b'\n').count(),
                message: "unterminated quoted field".into(),
            });
        };
        let quote = from + quote;
        field.push_str(&input[from..quote]);
        if bytes.get(quote + 1) != Some(&b'"') {
            return Ok(quote + 1);
        }
        field.push('"');
        from = quote + 2;
    }
}

/// Receives fields in order and fills the columns. The first record
/// names the columns (or, without a header, fixes their count and is the
/// first row); every later record must have as many fields.
#[derive(Default)]
struct Columns {
    has_header: bool,
    names: Vec<String>,
    values: Vec<Vec<Value>>,
    /// Fields seen in the current record.
    fields: usize,
    /// Records ended so far, the header included.
    records: usize,
    /// The first record with the wrong field count; once set, values are
    /// no longer parsed, but the rest of the input is still read for an
    /// unterminated quote, which takes precedence.
    arity: Option<TableError>,
}

impl Columns {
    fn field(&mut self, text: &str) {
        let f = self.fields;
        self.fields += 1;
        if self.records == 0 && self.has_header {
            self.names.push(text.to_string());
            return;
        }
        if self.records == 0 {
            self.values.push(Vec::new());
        }
        if self.arity.is_none() && f < self.values.len() {
            self.values[f].push(Value::parse(text));
        }
    }

    /// Ends the current record.
    fn end_record(&mut self) {
        let found = std::mem::take(&mut self.fields);
        if self.records == 0 && self.has_header {
            self.values = vec![Vec::new(); found];
        } else if found != self.values.len() && self.arity.is_none() {
            self.arity = Some(TableError::RowArity {
                row: self.records + 1,
                found,
                expected: self.values.len(),
            });
        }
        self.records += 1;
    }

    fn finish(self) -> Result<Table, TableError> {
        if let Some(error) = self.arity {
            return Err(error);
        }
        let names = if self.has_header {
            self.names
        } else {
            (0..self.values.len()).map(|i| format!("c{i}")).collect()
        };
        Table::new(Schema::from_names(&names)?, self.values)
    }
}

/// Reads a [`Table`] from any reader.
///
/// # Errors
/// Propagates I/O errors plus everything [`read_str`] returns.
pub fn read_from<R: Read>(mut reader: R, options: &CsvOptions) -> Result<Table, TableError> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    read_str(&buf, options)
}

/// Reads a [`Table`] from a file path.
///
/// # Errors
/// Propagates I/O errors plus everything [`read_str`] returns.
pub fn read_path<P: AsRef<Path>>(path: P, options: &CsvOptions) -> Result<Table, TableError> {
    read_from(File::open(path)?, options)
}

/// Quotes a field if it contains the delimiter, quotes or newlines.
fn quote_field(field: &str, delimiter: u8) -> String {
    let needs_quotes = field
        .bytes()
        .any(|b| b == delimiter || b == b'"' || b == b'\n' || b == b'\r');
    if needs_quotes {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes a [`Table`] as CSV (header included).
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_to<W: Write>(
    table: &Table,
    writer: W,
    options: &CsvOptions,
) -> Result<(), TableError> {
    let mut w = BufWriter::new(writer);
    let d = options.delimiter as char;
    if options.has_header {
        let header: Vec<String> = table
            .schema()
            .names()
            .iter()
            .map(|n| quote_field(n, options.delimiter))
            .collect();
        write_line(&mut w, &header.join(&d.to_string()), table.n_cols())?;
    }
    let mut line = String::new();
    for r in 0..table.n_rows() {
        line.clear();
        for c in 0..table.n_cols() {
            if c > 0 {
                line.push(d);
            }
            line.push_str(&quote_field(
                &table.value(r, c).to_string(),
                options.delimiter,
            ));
        }
        write_line(&mut w, &line, table.n_cols())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes one record. An empty line reads back as no record at all, so a
/// record of one empty field is written as `""`.
fn write_line(w: &mut impl Write, line: &str, n_fields: usize) -> std::io::Result<()> {
    if line.is_empty() && n_fields == 1 {
        writeln!(w, "\"\"")
    } else {
        writeln!(w, "{line}")
    }
}

/// Writes a [`Table`] to a file path as CSV.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_path<P: AsRef<Path>>(
    table: &Table,
    path: P,
    options: &CsvOptions,
) -> Result<(), TableError> {
    write_to(table, File::create(path)?, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv() {
        let t = read_str("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.schema().names(), vec!["a", "b"]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(0, 0), &Value::Int(1));
        assert_eq!(t.value(1, 1), &Value::from("y"));
    }

    #[test]
    fn parses_quoted_fields() {
        let t = read_str(
            "name,note\n\"Smith, John\",\"said \"\"hi\"\"\"\n\"multi\nline\",plain\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.value(0, 0), &Value::from("Smith, John"));
        assert_eq!(t.value(0, 1), &Value::from("said \"hi\""));
        assert_eq!(t.value(1, 0), &Value::from("multi\nline"));
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let t = read_str("a,b\r\n1,2\r\n3,4", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(1, 1), &Value::Int(4));
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let t = read_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.schema().names(), vec!["c0", "c1"]);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions {
            delimiter: b';',
            ..CsvOptions::default()
        };
        let t = read_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(t.value(0, 1), &Value::Int(2));
    }

    #[test]
    fn type_inference_over_rows() {
        // Each field keeps the type it parses to, whatever its column
        // holds elsewhere: an `Int` stays an `Int` under a `Float`.
        let t = read_str("a,b,c\n1,1.5,x\n2,,y\n3,4,5\n", &CsvOptions::default()).unwrap();
        assert!(matches!(t.value(0, 0), Value::Int(1)));
        assert!(matches!(t.value(0, 1), Value::Float(f) if *f == 1.5));
        assert!(t.value(1, 1).is_null());
        assert!(matches!(t.value(2, 1), Value::Int(4)));
        assert!(matches!(t.value(1, 2), Value::Str(s) if s == "y"));
        assert!(matches!(t.value(2, 2), Value::Int(5)));
    }

    #[test]
    fn arity_errors_report_row_numbers() {
        let err = read_str("a,b\n1,2\n3\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            TableError::RowArity {
                row: 3,
                found: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_str("a\n\"oops\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn round_trip_through_writer() {
        let t = read_str("name,qty\n\"a,b\",3\nplain,4\n", &CsvOptions::default()).unwrap();
        let mut out = Vec::new();
        write_to(&t, &mut out, &CsvOptions::default()).unwrap();
        let back = read_str(std::str::from_utf8(&out).unwrap(), &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), t.n_rows());
        assert_eq!(back.value(0, 0), &Value::from("a,b"));
        assert_eq!(back.value(1, 1), &Value::Int(4));
    }

    #[test]
    fn a_lone_null_cell_survives_the_writer() {
        let t = read_str("x\n3\n\"\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
        let mut out = Vec::new();
        write_to(&t, &mut out, &CsvOptions::default()).unwrap();
        assert_eq!(out, b"x\n3\n\"\"\n");
    }

    #[test]
    fn a_header_of_100_000_distinct_names_reads() {
        const COLS: usize = 100_000;
        let header = (0..COLS)
            .map(|c| format!("c{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let row = vec!["1"; COLS].join(",");
        let t = read_str(&format!("{header}\n{row}\n"), &CsvOptions::default()).unwrap();
        assert_eq!((t.n_rows(), t.n_cols()), (1, COLS));
        assert_eq!(t.schema().name(COLS - 1), "c99999");
        let err = read_str(&format!("{header},c7\n"), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(n) if n == "c7"));
    }

    #[test]
    fn empty_input_yields_empty_table() {
        let t = read_str("", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 0);
    }

    #[test]
    fn unicode_fields_survive() {
        let t = read_str("a\nhéllo\n日本語\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 0), &Value::from("héllo"));
        assert_eq!(t.value(1, 0), &Value::from("日本語"));
    }
}
