//! Relation schemas: ordered lists of column names.

use crate::error::TableError;
use std::collections::HashSet;

/// An ordered list of unique column names.
///
/// Attribute indices used throughout the workspace (`usize` column ids,
/// `aod-partition`'s `AttrSet` bit positions) are positions in this list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    /// Creates a schema from column names.
    ///
    /// # Errors
    /// Returns [`TableError::DuplicateColumn`] naming the first column
    /// whose name appeared earlier.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<Self, TableError> {
        let mut seen = HashSet::with_capacity(names.len());
        if let Some(dup) = names.iter().map(AsRef::as_ref).find(|&n| !seen.insert(n)) {
            return Err(TableError::DuplicateColumn(dup.to_string()));
        }
        Ok(Schema {
            names: names.iter().map(|n| n.as_ref().to_string()).collect(),
        })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Column name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Finds a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// All column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// Returns a schema restricted to the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            names: indices.iter().map(|&i| self.names[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::from_names(&["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(n) if n == "a"));
        // The first column whose name appeared earlier is the one named.
        let err = Schema::from_names(&["a", "b", "a", "b"]).unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(n) if n == "a"));
    }

    #[test]
    fn index_lookup() {
        let s = Schema::from_names(&["pos", "exp", "sal"]).unwrap();
        assert_eq!(s.index_of("exp"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(2), "sal");
    }

    #[test]
    fn projection_keeps_order() {
        let s = Schema::from_names(&["a", "b", "c", "d"]).unwrap();
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), vec!["c", "a"]);
    }
}
