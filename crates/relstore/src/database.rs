//! A catalog of named tables.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::Tuple;
use std::collections::BTreeMap;

/// A database: a catalog of named [`Table`]s.
///
/// In DeepDive, "all data … is stored in a relational database" (§2.2); the user
/// schema, the evidence relations, the candidate/feature relations, and the delta
/// relations used by incremental grounding all live side by side here.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a new table; errors if one with the same name exists.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> RelResult<()> {
        if self.tables.contains_key(name) {
            return Err(RelError::TableExists(name.to_string()));
        }
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    /// Create a table, replacing any previous one with the same name.
    pub fn create_or_replace_table(&mut self, name: &str, schema: Schema) {
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
    }

    /// Drop a table; errors if absent.
    pub fn drop_table(&mut self, name: &str) -> RelResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// True if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// Insert one tuple into a named table.
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> RelResult<()> {
        self.table_mut(table)?.insert(tuple)
    }

    /// Bulk-insert tuples into a named table.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        table: &str,
        tuples: I,
    ) -> RelResult<usize> {
        self.table_mut(table)?.extend(tuples)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Total number of stored tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::tuple;

    #[test]
    fn create_insert_lookup() {
        let mut db = Database::new();
        db.create_table(
            "Sentence",
            Schema::of(&[("id", DataType::Int), ("content", DataType::Text)]),
        )
        .unwrap();
        db.insert(
            "Sentence",
            tuple![1i64, "B. Obama and Michelle were married"],
        )
        .unwrap();
        assert_eq!(db.table("Sentence").unwrap().len(), 1);
        assert!(db.has_table("Sentence"));
        assert!(!db.has_table("Missing"));
    }

    #[test]
    fn duplicate_table_creation_errors() {
        let mut db = Database::new();
        db.create_table("T", Schema::of(&[("x", DataType::Int)]))
            .unwrap();
        let err = db
            .create_table("T", Schema::of(&[("x", DataType::Int)]))
            .unwrap_err();
        assert_eq!(err, RelError::TableExists("T".into()));
        // but replace works
        db.create_or_replace_table("T", Schema::of(&[("y", DataType::Text)]));
        assert_eq!(db.table("T").unwrap().schema().columns()[0].name, "y");
    }

    #[test]
    fn missing_table_errors() {
        let mut db = Database::new();
        assert!(matches!(db.table("X"), Err(RelError::NoSuchTable(_))));
        assert!(matches!(
            db.insert("X", tuple![1i64]),
            Err(RelError::NoSuchTable(_))
        ));
        assert!(matches!(db.drop_table("X"), Err(RelError::NoSuchTable(_))));
    }

    #[test]
    fn drop_and_totals() {
        let mut db = Database::new();
        db.create_table("A", Schema::of(&[("x", DataType::Int)]))
            .unwrap();
        db.create_table("B", Schema::of(&[("x", DataType::Int)]))
            .unwrap();
        db.insert_all("A", (0..3).map(|i| tuple![i as i64]))
            .unwrap();
        db.insert_all("B", (0..2).map(|i| tuple![i as i64]))
            .unwrap();
        assert_eq!(db.total_tuples(), 5);
        assert_eq!(db.table_names(), vec!["A".to_string(), "B".to_string()]);
        db.drop_table("A").unwrap();
        assert_eq!(db.total_tuples(), 2);
    }
}
