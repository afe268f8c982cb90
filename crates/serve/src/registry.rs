//! The dataset registry: load once, rank once, share everywhere.
//!
//! The paper observes that sorted-partition construction dominates cost on
//! wide schemas; for a resident service the first lever is therefore to
//! amortize table load + rank encoding across requests. The registry keeps
//! every registered dataset as an `Arc<RankedTable>` that job threads
//! share without copying, alongside the metadata requests need (column
//! names for scope resolution, the content [fingerprint] for result-cache
//! keys).
//!
//! [fingerprint]: aod_table::RankedTable::fingerprint

use crate::sync::lock_or_recover;
use aod_core::json::{JsonArray, JsonObject};
use aod_datagen::{flight, ncvoter};
use aod_table::csv::{read_str, CsvOptions};
use aod_table::{employee_table, RankedTable, Table, TableError};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read};
use std::sync::{Arc, Mutex};

/// A registered dataset: the shared ranked table plus its metadata.
#[derive(Debug)]
pub struct Dataset {
    /// Registry name (unique).
    pub name: String,
    /// The rank-encoded table discovery runs on.
    pub table: Arc<RankedTable>,
    /// Column names, in table order (used to resolve `columns` scopes).
    pub columns: Vec<String>,
    /// Content fingerprint (result-cache key component).
    pub fingerprint: u64,
    /// Where the data came from (`csv:<path>` / `generate:<kind>`).
    pub source: String,
}

impl Dataset {
    /// The dataset's JSON description (`GET /datasets` entries).
    pub fn to_json(&self) -> String {
        let mut cols = JsonArray::new();
        for name in &self.columns {
            cols.push_str(name);
        }
        let mut obj = JsonObject::new();
        obj.str("name", &self.name)
            .num_u64("rows", self.table.n_rows() as u64)
            .num_u64("cols", self.table.n_cols() as u64)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .str("source", &self.source)
            .raw("columns", &cols.finish());
        obj.finish()
    }

    /// Resolves a column name (exact match) to its index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Maximum datasets a registry holds; registration beyond it is refused
/// (each dataset pins a full `Arc<RankedTable>` for the server's
/// lifetime, so the aggregate must be bounded). `DELETE /datasets/{name}`
/// frees a slot.
pub const MAX_DATASETS: usize = 64;

/// Thread-safe name → dataset map (bounded by [`MAX_DATASETS`]).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<HashMap<String, Arc<Dataset>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a dataset loaded from a CSV file (header row expected;
    /// types inferred), which must be a regular file of at most 1 GiB.
    /// Errors are user-facing strings for 4xx responses.
    pub fn register_csv(&self, name: &str, path: &str) -> Result<Arc<Dataset>, String> {
        self.admit(name)?;
        let table =
            read_regular_file(path, MAX_CSV_BYTES).map_err(|e| format!("reading `{path}`: {e}"))?;
        let columns: Vec<String> = table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ranked = RankedTable::from_table(&table);
        self.insert(name, ranked, columns, format!("csv:{path}"))
    }

    /// Registers a synthesized dataset (`flight` / `ncvoter` via
    /// `aod-datagen`, or the paper's `employee` running example).
    pub fn register_generated(
        &self,
        name: &str,
        kind: &str,
        rows: usize,
        seed: u64,
    ) -> Result<Arc<Dataset>, String> {
        self.admit(name)?;
        let (ranked, columns) = match kind {
            "flight" => {
                let g = flight::flight(seed);
                let columns = g.names().iter().map(|s| s.to_string()).collect();
                (g.ranked(rows), columns)
            }
            "ncvoter" => {
                let g = ncvoter::ncvoter(seed);
                let columns = g.names().iter().map(|s| s.to_string()).collect();
                (g.ranked(rows), columns)
            }
            "employee" => {
                let table = employee_table();
                let columns = table
                    .schema()
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                (RankedTable::from_table(&table), columns)
            }
            other => {
                return Err(format!(
                    "unknown generated dataset `{other}` (flight|ncvoter|employee)"
                ))
            }
        };
        self.insert(
            name,
            ranked,
            columns,
            format!("generate:{kind}:rows={rows}:seed={seed}"),
        )
    }

    /// Refuses, before any table is loaded, a registration that would be
    /// refused anyway; `insert` checks again under the lock, for
    /// concurrent registrations.
    fn admit(&self, name: &str) -> Result<(), String> {
        validate_name(name)?;
        vacancy(&lock_or_recover(&self.inner), name)
    }

    fn insert(
        &self,
        name: &str,
        ranked: RankedTable,
        columns: Vec<String>,
        source: String,
    ) -> Result<Arc<Dataset>, String> {
        let fingerprint = ranked.fingerprint();
        let dataset = Arc::new(Dataset {
            name: name.to_string(),
            table: Arc::new(ranked),
            columns,
            fingerprint,
            source,
        });
        let mut map = lock_or_recover(&self.inner);
        vacancy(&map, name)?;
        map.insert(name.to_string(), dataset.clone());
        Ok(dataset)
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        lock_or_recover(&self.inner).get(name).cloned()
    }

    /// Deregisters a dataset, returning it if it existed. In-flight jobs
    /// keep their own `Arc` and finish unaffected.
    pub fn remove(&self, name: &str) -> Option<Arc<Dataset>> {
        lock_or_recover(&self.inner).remove(name)
    }

    /// All datasets, sorted by name.
    pub fn list(&self) -> Vec<Arc<Dataset>> {
        let map = lock_or_recover(&self.inner);
        let mut all: Vec<Arc<Dataset>> = map.values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The largest CSV file [`Registry::register_csv`] reads.
const MAX_CSV_BYTES: u64 = 1 << 30;

/// Reads a CSV table from `path`, which must name a regular file of at
/// most `limit` bytes. The path comes from the client: opening a FIFO
/// blocks until a writer comes, a device such as `/dev/zero` never ends,
/// and a procfs file such as `/proc/self/pagemap` is regular, reports no
/// length and reads on for hundreds of GiB.
fn read_regular_file(path: &str, limit: u64) -> Result<Table, TableError> {
    let not_regular = || io::Error::new(io::ErrorKind::InvalidInput, "not a regular file");
    // `stat` does not block on a FIFO; the open handle is checked again
    // in case the path changed in between.
    if !std::fs::metadata(path)?.is_file() {
        return Err(not_regular().into());
    }
    let file = File::open(path)?;
    if !file.metadata()?.is_file() {
        return Err(not_regular().into());
    }
    let mut text = String::new();
    file.take(limit + 1).read_to_string(&mut text)?;
    if text.len() as u64 > limit {
        let message = format!("larger than {limit} bytes");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message).into());
    }
    read_str(&text, &CsvOptions::default())
}

/// Whether `map` has room for a dataset called `name`.
fn vacancy(map: &HashMap<String, Arc<Dataset>>, name: &str) -> Result<(), String> {
    if map.contains_key(name) {
        return Err(format!("dataset `{name}` is already registered"));
    }
    if map.len() >= MAX_DATASETS {
        return Err(format!(
            "registry is full ({MAX_DATASETS} datasets); deregister one first"
        ));
    }
    Ok(())
}

fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 128 {
        return Err("dataset name must be 1..=128 characters".to_string());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    {
        return Err(format!(
            "dataset name `{name}` may only contain [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_core::json::JsonValue;

    #[test]
    fn registers_generated_datasets() {
        let r = Registry::new();
        let d = r.register_generated("emp", "employee", 0, 0).unwrap();
        assert_eq!(d.table.n_rows(), 9);
        assert_eq!(d.columns.len(), 7);
        assert_eq!(d.column_index("sal"), Some(2));
        let f = r.register_generated("fl", "flight", 200, 1).unwrap();
        assert_eq!(f.table.n_rows(), 200);
        assert_eq!(r.list().len(), 2);
        assert_eq!(r.list()[0].name, "emp"); // sorted
        assert!(r.get("fl").is_some());
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let r = Registry::new();
        r.register_generated("d", "employee", 0, 0).unwrap();
        assert!(r.register_generated("d", "employee", 0, 0).is_err());
        assert!(r.register_generated("", "employee", 0, 0).is_err());
        assert!(r.register_generated("a b", "employee", 0, 0).is_err());
        assert!(r.register_generated("x", "nope", 10, 0).is_err());
    }

    #[test]
    fn registry_is_bounded_and_supports_removal() {
        let r = Registry::new();
        for i in 0..MAX_DATASETS {
            r.register_generated(&format!("d{i}"), "employee", 0, 0)
                .unwrap();
        }
        let err = r
            .register_generated("one-more", "employee", 0, 0)
            .unwrap_err();
        assert!(err.contains("registry is full"), "{err}");
        // Removing a dataset frees its slot.
        assert!(r.remove("d0").is_some());
        assert!(r.remove("d0").is_none());
        r.register_generated("one-more", "employee", 0, 0).unwrap();
        assert_eq!(r.len(), MAX_DATASETS);
    }

    #[test]
    fn registers_csv_files() {
        let dir = std::env::temp_dir().join(format!("aod_serve_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "a,b\n1,2\n2,1\n3,3\n").unwrap();
        let r = Registry::new();
        let d = r.register_csv("t", path.to_str().unwrap()).unwrap();
        assert_eq!(d.table.n_rows(), 3);
        assert_eq!(d.columns, vec!["a", "b"]);
        assert!(r.register_csv("miss", "/nonexistent/x.csv").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn only_regular_files_are_read() {
        let r = Registry::new();
        for path in ["/dev/zero", "/"] {
            let err = r.register_csv("z", path).unwrap_err();
            assert!(err.contains("not a regular file"), "{path}: {err}");
        }
        assert!(r.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn endless_and_blocking_files_are_refused() {
        // Regular, length 0, and about 256 GiB of page entries. The
        // kernel serves only whole 8-byte entries, so the limit is one
        // short of a multiple of 8: every read, up to limit + 1, is whole.
        let err = read_regular_file("/proc/self/pagemap", (1 << 20) - 1).unwrap_err();
        assert!(
            err.to_string().contains("larger than 1048575 bytes"),
            "{err}"
        );
        let dir = std::env::temp_dir().join(format!("aod_serve_fifo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("f.csv");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        if made.is_ok_and(|status| status.success()) {
            // Opening a FIFO with no writer would block for good.
            let (tx, rx) = std::sync::mpsc::channel();
            let path = fifo.to_str().unwrap().to_string();
            let reader =
                std::thread::spawn(move || tx.send(read_regular_file(&path, 1 << 20).map(drop)));
            let result = rx.recv_timeout(std::time::Duration::from_secs(10));
            let err = result.expect("the FIFO is refused unopened").unwrap_err();
            let sent = reader.join().expect("the reader thread ends");
            sent.expect("the receiver waits");
            assert!(err.to_string().contains("not a regular file"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_taken_name_is_refused_before_the_csv_is_read() {
        let r = Registry::new();
        r.register_generated("t", "employee", 0, 0).unwrap();
        // The path does not exist: reading it first would answer 400.
        let err = r.register_csv("t", "/nonexistent/x.csv").unwrap_err();
        assert!(err.contains("already registered"), "{err}");
    }

    #[test]
    fn a_full_registry_is_refused_before_the_csv_is_read() {
        let r = Registry::new();
        for i in 0..MAX_DATASETS {
            r.register_generated(&format!("d{i}"), "employee", 0, 0)
                .unwrap();
        }
        let err = r.register_csv("more", "/nonexistent/x.csv").unwrap_err();
        assert!(err.contains("registry is full"), "{err}");
        // Nor is a table generated for it.
        let err = r
            .register_generated("more", "flight", 1_000_000, 1)
            .unwrap_err();
        assert!(err.contains("registry is full"), "{err}");
    }

    #[test]
    fn description_json_parses() {
        let r = Registry::new();
        let d = r.register_generated("emp", "employee", 0, 0).unwrap();
        let v = JsonValue::parse(&d.to_json()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("emp"));
        assert_eq!(v.get("rows").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("columns").unwrap().as_array().unwrap().len(), 7);
        assert_eq!(v.get("fingerprint").unwrap().as_str().unwrap().len(), 16);
    }

    #[test]
    fn fingerprints_agree_for_identical_sources() {
        let r = Registry::new();
        let a = r.register_generated("a", "flight", 100, 7).unwrap();
        let b = r.register_generated("b", "flight", 100, 7).unwrap();
        let c = r.register_generated("c", "flight", 100, 8).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
