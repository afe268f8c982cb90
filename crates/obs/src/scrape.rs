//! A small conformant reader for the Prometheus text exposition format.
//!
//! The write side lives in [`Registry::render`](crate::Registry::render);
//! this is its inverse, used by `aod monitor` to consume a live
//! `GET /metrics` scrape and by tests to round-trip the exposition. It
//! accepts the text-format grammar the ecosystem actually emits:
//!
//! * `# HELP` / `# TYPE` metadata lines (retained per family) and other
//!   `#` comments (skipped);
//! * samples with an optional `{label="value",...}` set, where label
//!   values may contain the three escapes of the format (`\\`, `\"`,
//!   `\n`) — the exact escapes the registry's label writer emits;
//! * values in any float syntax Prometheus allows, including `+Inf`,
//!   `-Inf`, and `NaN`;
//! * an optional trailing integer timestamp (parsed and ignored).
//!
//! Malformed lines are hard errors carrying the line number — a monitor
//! silently misreading a scrape is worse than one that says why it can't.
//! So are three things the format forbids in well-formed lines: a second
//! `# TYPE` for a family, a `# TYPE` after the family's first sample, and
//! a series (name and label set) that repeats.

use std::collections::{BTreeMap, BTreeSet};

/// One parsed sample line: series name, sorted label set, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric name (for histograms, including the `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs, sorted by label name for order-insensitive lookup.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// `true` when the sample carries exactly these labels (order
    /// insensitive).
    pub fn labels_match(&self, labels: &[(&str, &str)]) -> bool {
        self.labels.len() == labels.len()
            && labels
                .iter()
                .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }
}

/// A parsed scrape: every sample plus the announced family types and
/// help texts.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
    types: BTreeMap<String, String>,
    helps: BTreeMap<String, String>,
}

/// A parse failure, with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Scrape {
    /// Parses exposition text into samples, rejecting malformed lines.
    pub fn parse(text: &str) -> Result<Scrape, ScrapeError> {
        let mut scrape = Scrape::default();
        // Every series seen so far, as (name, sorted labels).
        let mut series: BTreeSet<(String, Vec<(String, String)>)> = BTreeSet::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |message: String| ScrapeError {
                line: lineno,
                message,
            };
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| err("TYPE line without a metric name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err(format!("TYPE line for `{name}` without a kind")))?;
                if scrape.types.contains_key(name) {
                    return Err(err(format!("second TYPE line for `{name}`")));
                }
                let suffixes: &[&str] = match kind {
                    "histogram" => &["", "_bucket", "_sum", "_count"],
                    "summary" => &["", "_sum", "_count"],
                    _ => &[""],
                };
                if suffixes
                    .iter()
                    .any(|suffix| has_series(&series, &format!("{name}{suffix}")))
                {
                    return Err(err(format!("TYPE line for `{name}` after its samples")));
                }
                scrape.types.insert(name.to_string(), kind.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                scrape.helps.insert(name.to_string(), help.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue; // free-form comments
            }
            let sample = parse_sample(line).map_err(err)?;
            if !series.insert((sample.name.clone(), sample.labels.clone())) {
                return Err(err(format!("series `{}` repeats", sample.name)));
            }
            scrape.samples.push(sample);
        }
        Ok(scrape)
    }

    /// All samples, in document order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The announced `# TYPE` kind of a family, if any.
    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.types.get(name).map(String::as_str)
    }

    /// The announced `# HELP` text of a family, if any, with its escapes
    /// as written.
    pub fn family_help(&self, name: &str) -> Option<&str> {
        self.helps.get(name).map(String::as_str)
    }

    /// The value of the series with exactly this name and label set.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels_match(labels))
            .map(|s| s.value)
    }

    /// The sum of every series of this name, across all label sets —
    /// how a monitor folds per-dataset series into one figure.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// All samples of one series name, across label sets.
    pub fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }
}

/// `true` when `series` holds a series of this name, whatever its labels:
/// the empty label set sorts first among a name's series.
fn has_series(series: &BTreeSet<(String, Vec<(String, String)>)>, name: &str) -> bool {
    series
        .range((name.to_string(), Vec::new())..)
        .next()
        .is_some_and(|(first, _)| first == name)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ' || b == b'\t')
        .ok_or_else(|| format!("sample `{line}` has no value"))?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(body) = rest.strip_prefix('{') {
        let (parsed, after) = parse_labels(body)?;
        labels = parsed;
        rest = after;
    }
    let mut fields = rest.split_whitespace();
    let value_text = fields
        .next()
        .ok_or_else(|| format!("series `{name}` has no value"))?;
    let value = parse_value(value_text)
        .ok_or_else(|| format!("`{value_text}` is not a valid sample value"))?;
    if let Some(ts) = fields.next() {
        // Optional timestamp: validated, then ignored.
        ts.parse::<i64>()
            .map_err(|_| format!("`{ts}` is not a valid timestamp"))?;
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage after sample for `{name}`"));
    }
    labels.sort();
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Label pairs plus the remainder of the line after the closing brace.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses `name="value",...}` (the `{` already consumed); returns the
/// pairs and the remainder after the closing brace.
fn parse_labels(body: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    let mut chars = body.char_indices().peekable();
    loop {
        // Closing brace (also accepts a trailing comma before it).
        while let Some(&(_, c)) = chars.peek() {
            if c == ',' || c == ' ' {
                chars.next();
            } else {
                break;
            }
        }
        let Some(&(start, c)) = chars.peek() else {
            return Err("unterminated label set".into());
        };
        if c == '}' {
            chars.next();
            let after_idx = chars.peek().map_or(body.len(), |&(i, _)| i);
            return Ok((labels, &body[after_idx..]));
        }
        // Label name up to '='.
        let mut name_end = start;
        for (i, c) in chars.by_ref() {
            if c == '=' {
                name_end = i;
                break;
            }
            if !(c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("invalid character `{c}` in label name"));
            }
            name_end = body.len();
        }
        if name_end >= body.len() {
            return Err("label name without `=`".into());
        }
        let name = &body[start..name_end];
        if name.is_empty() {
            return Err("empty label name".into());
        }
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label `{name}` value is not quoted")),
        }
        // Quoted value with \\ \" \n escapes.
        let mut value = String::new();
        let mut closed = false;
        while let Some((_, c)) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "invalid escape `\\{}` in label `{name}`",
                            other.map_or(String::new(), |(_, c)| c.to_string())
                        ))
                    }
                },
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated value for label `{name}`"));
        }
        labels.push((name.to_string(), value));
    }
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn parses_the_registry_render_round_trip() {
        let registry = crate::Registry::new();
        registry
            .counter("aod_test_total", "Things counted.", &[("ds", "a")])
            .add(7);
        registry
            .gauge(
                "aod_depth",
                "A gauge.",
                &[("ds", "with \"quotes\" and \\slash\\\n")],
            )
            .set(3);
        registry.histogram("aod_lat_us", "Latency.", &[]).observe(5);
        let scrape = Scrape::parse(&registry.render()).expect("render parses");
        assert_eq!(scrape.value("aod_test_total", &[("ds", "a")]), Some(7.0));
        assert_eq!(
            scrape.value("aod_depth", &[("ds", "with \"quotes\" and \\slash\\\n")]),
            Some(3.0)
        );
        assert_eq!(scrape.family_type("aod_lat_us"), Some("histogram"));
        assert_eq!(scrape.value("aod_lat_us_count", &[]), Some(1.0));
        assert_eq!(
            scrape.value("aod_lat_us_bucket", &[("le", "+Inf")]),
            Some(1.0)
        );
        assert_eq!(scrape.sum("aod_test_total"), 7.0);
    }

    #[test]
    fn accepts_inf_nan_and_timestamps() {
        let text = "m_bucket{le=\"+Inf\"} +Inf 1712345678901\nnan_metric NaN\nneg -Inf\n";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(
            scrape.value("m_bucket", &[("le", "+Inf")]),
            Some(f64::INFINITY)
        );
        assert!(scrape.value("nan_metric", &[]).unwrap().is_nan());
        assert_eq!(scrape.value("neg", &[]), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn sums_fold_label_sets() {
        let text = "q{ds=\"a\"} 2\nq{ds=\"b\"} 5\nother 9\n";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(scrape.sum("q"), 7.0);
        assert_eq!(scrape.series("q").count(), 2);
    }

    #[test]
    fn label_lookup_is_order_insensitive() {
        let text = "m{b=\"2\",a=\"1\"} 4\n";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(scrape.value("m", &[("a", "1"), ("b", "2")]), Some(4.0));
        assert_eq!(scrape.value("m", &[("b", "2"), ("a", "1")]), Some(4.0));
        assert_eq!(scrape.value("m", &[("a", "1")]), None);
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        for (text, line) in [
            ("ok 1\n9bad_name 2\n", 2),
            ("m{a=\"unterminated} 1\n", 1),
            ("ok 1\n\nm{a=\"x\"} notanumber\n", 3),
            ("m{a=\"x\" 1\n", 1),
            ("m 1 2 3\n", 1),
            ("m{=\"x\"} 1\n", 1),
        ] {
            let err = Scrape::parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text}: {err}");
        }
    }

    #[test]
    fn comments_are_skipped_help_and_types_retained() {
        let text = "# HELP m Things \\\\ more.\n# TYPE m counter\n# arbitrary comment\nm 3\n";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(scrape.family_type("m"), Some("counter"));
        assert_eq!(scrape.family_help("m"), Some("Things \\\\ more."));
        assert_eq!(scrape.family_help("other"), None);
        assert_eq!(scrape.value("m", &[]), Some(3.0));
        assert_eq!(scrape.samples().len(), 1);
    }

    #[test]
    fn a_second_type_line_for_a_family_is_rejected() {
        let text = "# TYPE m counter\nm 1\n# TYPE m counter\n";
        let err = Scrape::parse(text).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains("second TYPE"), "{err}");
    }

    #[test]
    fn a_type_line_after_its_family_samples_is_rejected() {
        for text in [
            "m 1\n# TYPE m gauge\n",
            "h_bucket{le=\"+Inf\"} 1\n# TYPE h histogram\n",
            "h_count 1\n# TYPE h histogram\n",
        ] {
            let err = Scrape::parse(text).expect_err(text);
            assert_eq!(err.line, 2, "{text}: {err}");
            assert!(err.message.contains("after its samples"), "{err}");
        }
        // Only a histogram's TYPE covers `_count`: here `m_count` is
        // another family.
        let ok = "m_count 1\n# TYPE m counter\nm 2\n";
        assert!(Scrape::parse(ok).is_ok());
    }

    #[test]
    fn a_repeated_series_is_rejected() {
        let text = "q{a=\"1\",b=\"2\"} 1\nq{a=\"2\"} 1\nq{b=\"2\",a=\"1\"} 3\n";
        let err = Scrape::parse(text).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains("repeats"), "{err}");
    }

    /// How generated lines start: metric names with and without a label
    /// set, comment and metadata prefixes, and names the grammar rejects.
    const HEADS: &[&str] = &[
        "m",
        "m{",
        "m_x{le=\"",
        "# TYPE ",
        "# HELP ",
        "#",
        "",
        " ",
        "9m{",
    ];

    /// What follows a line's start: label, value and timestamp spellings,
    /// the grammar's punctuation, escapes, line endings and multi-byte
    /// characters.
    const TOKENS: &[&str] = &[
        "m",
        "a=\"",
        "\"}",
        "} ",
        "\",",
        " 1",
        " +Inf",
        " 7 1712345678901",
        "9",
        " ",
        "\t",
        "{",
        "}",
        "\"",
        "\\",
        "=",
        ",",
        "#",
        "NaN",
        "-Inf",
        "1.5e3",
        "-",
        ".",
        "\n",
        "\r",
        "\r\n",
        "\\n",
        "\\\"",
        "é",
        "日",
        "😀",
    ];

    /// Characters label values are drawn from: the three the writer
    /// escapes, control and punctuation characters it passes through raw,
    /// and multi-byte characters.
    const LABEL_CHARS: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '{', '}', ',', '=', ' ', '#', 'a', 'Z', '0', 'é', '日', '😀',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Arbitrary text is answered with `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_text_never_panics(
            lines in vec((0usize..HEADS.len(), vec(0usize..TOKENS.len(), 0..10)), 0..12),
        ) {
            let mut text = String::new();
            for (head, picks) in &lines {
                text.push_str(HEADS[*head]);
                text.extend(picks.iter().map(|&k| TOKENS[k]));
                text.push('\n');
            }
            let _ = Scrape::parse(&text);
        }

        /// A counter, a gauge and a histogram registered with generated
        /// label values render and parse back to the same values.
        #[test]
        fn generated_label_values_round_trip(
            picks in vec(vec(0usize..LABEL_CHARS.len(), 0..12), 3),
            (c, g, h) in (0u64..1_000_000, 0u64..1_000_000, 0u64..100_000),
        ) {
            let v: Vec<String> = picks
                .iter()
                .map(|p| p.iter().map(|&k| LABEL_CHARS[k]).collect())
                .collect();
            let registry = crate::Registry::new();
            registry.counter("aod_c_total", "A counter.", &[("v", &v[0])]).add(c);
            registry.gauge("aod_g", "A gauge.", &[("v", &v[1]), ("w", &v[0])]).set(g);
            registry.histogram("aod_h_us", "A histogram.", &[("v", &v[2])]).observe(h);
            let scrape = Scrape::parse(&registry.render());
            prop_assert!(scrape.is_ok(), "{:?}", scrape.err());
            let scrape = scrape.unwrap();
            prop_assert_eq!(scrape.value("aod_c_total", &[("v", &v[0])]), Some(c as f64));
            prop_assert_eq!(scrape.value("aod_g", &[("v", &v[1]), ("w", &v[0])]), Some(g as f64));
            prop_assert_eq!(scrape.value("aod_h_us_count", &[("v", &v[2])]), Some(1.0));
            prop_assert_eq!(scrape.value("aod_h_us_sum", &[("v", &v[2])]), Some(h as f64));
            let inf = scrape.value("aod_h_us_bucket", &[("v", &v[2]), ("le", "+Inf")]);
            prop_assert_eq!(inf, Some(1.0));
        }
    }
}
