//! Relation schemas: ordered lists of named, typed columns.

use crate::error::TableError;
use crate::value::ValueType;
use std::collections::HashSet;
use std::fmt;

/// Metadata for a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column name, unique within a schema.
    pub name: String,
    /// Inferred or declared logical type.
    pub ty: ValueType,
}

/// An ordered list of column descriptions.
///
/// Attribute indices used throughout the workspace (`usize` column ids,
/// `aod-partition`'s `AttrSet` bit positions) are positions in this list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnMeta>,
}

impl Schema {
    /// Creates a schema from column metadata.
    ///
    /// # Errors
    /// Returns [`TableError::DuplicateColumn`] naming the first column
    /// whose name appeared earlier.
    pub fn new(columns: Vec<ColumnMeta>) -> Result<Self, TableError> {
        let mut seen = HashSet::with_capacity(columns.len());
        if let Some(dup) = columns.iter().find(|c| !seen.insert(c.name.as_str())) {
            return Err(TableError::DuplicateColumn(dup.name.clone()));
        }
        Ok(Schema { columns })
    }

    /// Creates a schema from names only, with all types `Str`.
    /// Types are typically refined later by inference.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<Self, TableError> {
        Schema::new(
            names
                .iter()
                .map(|n| ColumnMeta {
                    name: n.as_ref().to_string(),
                    ty: ValueType::Str,
                })
                .collect(),
        )
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column metadata by index.
    pub fn column(&self, idx: usize) -> &ColumnMeta {
        &self.columns[idx]
    }

    /// Column name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }

    /// Finds a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Iterates over column metadata.
    pub fn iter(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.columns.iter()
    }

    /// All column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Updates the type of a column (used by type inference).
    pub fn set_type(&mut self, idx: usize, ty: ValueType) {
        self.columns[idx].ty = ty;
    }

    /// Returns a schema restricted to the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.columns {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", c.name, c.ty)?;
            first = false;
        }
        Ok(())
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

    #[test]
    fn display_lists_columns() {
        let s = Schema::from_names(&["x", "y"]).unwrap();
        assert_eq!(s.to_string(), "x:str, y:str");
    }
}
