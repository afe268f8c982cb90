//! Minimal command-line argument parser.
//!
//! Grammar: `aod <command> [positional...] [--flag] [--key value]...`.
//! Boolean flags and valued options are distinguished by fixed lists of
//! known names, so `--ofds file.csv` parses unambiguously, a valued
//! option can never swallow a following `--flag` as its value, and a
//! mistyped option is an error instead of a silent no-op.

/// Flags that never take a value.
const BOOL_FLAGS: &[&str] = &[
    "ofds",
    "od",
    "progress",
    "show-removals",
    "no-header",
    "once",
    "help",
];

/// Options that always take a value.
const VALUE_OPTIONS: &[&str] = &[
    "epsilon",
    "strategy",
    "max-level",
    "timeout",
    "top",
    "top-k",
    "threads",
    "columns",
    "pair",
    "context",
    "rows",
    "seed",
    "out",
    "port",
    "bind",
    "max-jobs",
    "trace",
    "interval",
];

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
    /// `--flag` booleans.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            command: argv.first().cloned().unwrap_or_else(|| "help".into()),
            ..Args::default()
        };
        let mut i = 1;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(name) = token.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    args.flags.push(name.to_string());
                } else if VALUE_OPTIONS.contains(&name) {
                    let value = argv
                        .get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("option --{name} needs a value"))?;
                    args.options.push((name.to_string(), value.clone()));
                    i += 1;
                } else {
                    return Err(format!("unknown option `--{name}` (see `aod help`)"));
                }
            } else {
                args.positional.push(token.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// `true` when a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of a `--key value` option.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A float-valued option.
    pub fn float(&self, name: &str) -> Result<Option<f64>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--{name}: `{v}` is not a number"))
            })
            .transpose()
    }

    /// An integer-valued option.
    pub fn int(&self, name: &str) -> Result<Option<usize>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{name}: `{v}` is not an integer"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn parses_command_and_positional() {
        let a = parse(&["discover", "data.csv"]);
        assert_eq!(a.command, "discover");
        assert_eq!(a.positional, vec!["data.csv"]);
    }

    #[test]
    fn parses_flags_and_options() {
        let a = parse(&["discover", "f.csv", "--progress", "--top", "5", "--ofds"]);
        assert!(a.flag("progress"));
        assert!(a.flag("ofds"));
        assert!(!a.flag("once"));
        assert_eq!(a.int("top").unwrap(), Some(5));
    }

    #[test]
    fn last_option_wins() {
        let a = parse(&["x", "--epsilon", "0.1", "--epsilon", "0.2"]);
        assert_eq!(a.float("epsilon").unwrap(), Some(0.2));
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse(&["x", "--epsilon", "abc"]);
        assert!(a.float("epsilon").is_err());
        let a = parse(&["x", "--rows", "1.5"]);
        assert!(a.int("rows").is_err());
    }

    #[test]
    fn missing_value_errors() {
        let argv = vec!["x".to_string(), "--rows".to_string()];
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn option_cannot_swallow_a_flag() {
        // `--epsilon --ofds file.csv` must not consume `--ofds` as the
        // epsilon value.
        let argv: Vec<String> = ["discover", "--epsilon", "--ofds", "f.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("--epsilon needs a value"), "{err}");
    }

    #[test]
    fn unknown_options_error_instead_of_vanishing() {
        let argv: Vec<String> = ["discover", "f.csv", "--epsilonn", "0.1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("unknown option `--epsilonn`"), "{err}");
    }

    #[test]
    fn new_session_flags_parse() {
        let a = parse(&[
            "discover",
            "f.csv",
            "--progress",
            "--top-k",
            "7",
            "--columns",
            "a,b,c",
        ]);
        assert!(a.flag("progress"));
        assert_eq!(a.int("top-k").unwrap(), Some(7));
        assert_eq!(a.value("columns"), Some("a,b,c"));
    }

    #[test]
    fn threads_option_parses_and_validates() {
        let a = parse(&["discover", "f.csv", "--threads", "4"]);
        assert_eq!(a.int("threads").unwrap(), Some(4));
        // 0 is valid input (auto-detect); non-integers are usage errors.
        let a = parse(&["discover", "f.csv", "--threads", "0"]);
        assert_eq!(a.int("threads").unwrap(), Some(0));
        let a = parse(&["discover", "f.csv", "--threads", "many"]);
        assert!(a.int("threads").is_err());
        // A following flag is never swallowed as the thread count.
        let argv: Vec<String> = ["discover", "--threads", "--progress", "f.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
    }

    #[test]
    fn empty_argv_is_help() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.command, "help");
    }

    #[test]
    fn serve_options_parse_with_the_same_strictness() {
        let a = parse(&[
            "serve",
            "--port",
            "8080",
            "--bind",
            "0.0.0.0",
            "--threads",
            "4",
            "--max-jobs",
            "2",
        ]);
        assert_eq!(a.int("port").unwrap(), Some(8080));
        assert_eq!(a.value("bind"), Some("0.0.0.0"));
        assert_eq!(a.int("max-jobs").unwrap(), Some(2));
        // Value-swallowing stays an error for the new options too.
        let argv: Vec<String> = ["serve", "--port", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("--port needs a value"), "{err}");
        // And a mistyped serve option is an error, not a silent no-op.
        let argv: Vec<String> = ["serve", "--prot", "8080"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn strategy_options_parse_strictly() {
        let a = parse(&["discover", "f.csv", "--strategy", "iterative"]);
        assert_eq!(a.value("strategy"), Some("iterative"));
        // Value-swallowing stays an error for the new options.
        let argv: Vec<String> = ["discover", "--strategy", "--progress", "f.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("--strategy needs a value"), "{err}");
    }

    #[test]
    fn trace_and_monitor_options_parse_strictly() {
        let a = parse(&["discover", "f.csv", "--trace", "out.json"]);
        assert_eq!(a.value("trace"), Some("out.json"));
        let a = parse(&["monitor", "127.0.0.1:7171", "--interval", "5", "--once"]);
        assert_eq!(a.command, "monitor");
        assert_eq!(a.positional, vec!["127.0.0.1:7171"]);
        assert_eq!(a.int("interval").unwrap(), Some(5));
        assert!(a.flag("once"));
        // `--trace` takes a path; it must never swallow a following flag.
        let argv: Vec<String> = ["discover", "--trace", "--progress", "f.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = Args::parse(&argv).unwrap_err();
        assert!(err.contains("--trace needs a value"), "{err}");
    }

    #[test]
    fn flag_then_positional_is_unambiguous() {
        let a = parse(&["validate", "--od", "f.csv", "--pair", "a,b"]);
        assert!(a.flag("od"));
        assert_eq!(a.positional, vec!["f.csv"]);
        assert_eq!(a.value("pair"), Some("a,b"));
    }
}
