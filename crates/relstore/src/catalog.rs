//! The database catalog: tables, their indexes and statistics.

use crate::index::Index;
use crate::schema::ColId;
use crate::stats::TableStats;
use crate::table::Table;

/// Handle to a table in a [`Database`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TableId(pub usize);

/// Handle to an index in a [`Database`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndexId(pub usize);

struct IndexEntry {
    table: TableId,
    name: String,
    index: Index,
}

/// A collection of frozen tables with secondary indexes and statistics.
#[derive(Default)]
pub struct Database {
    tables: Vec<(String, Table)>,
    indexes: Vec<IndexEntry>,
    stats: Vec<Option<TableStats>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a (fully loaded and clustered) table.
    pub fn add_table(&mut self, name: impl Into<String>, table: Table) -> TableId {
        let id = TableId(self.tables.len());
        self.tables.push((name.into(), table));
        self.stats.push(None);
        id
    }

    /// One table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0].1
    }

    /// A table's registered name.
    pub fn table_name(&self, id: TableId) -> &str {
        &self.tables[id.0].0
    }

    /// Look a table up by name.
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|(n, _)| n == name).map(TableId)
    }

    /// Build and register an ordered index over `key` columns.
    pub fn add_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        key: Vec<ColId>,
    ) -> IndexId {
        let index = Index::build(self.table(table), key);
        let id = IndexId(self.indexes.len());
        self.indexes.push(IndexEntry {
            table,
            name: name.into(),
            index,
        });
        id
    }

    /// One index by id (a catalog accessor, not `std::ops::Index`).
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: IndexId) -> &Index {
        &self.indexes[id.0].index
    }

    /// An index's registered name.
    pub fn index_name(&self, id: IndexId) -> &str {
        &self.indexes[id.0].name
    }

    /// All indexes available on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = IndexId> + '_ {
        self.indexes
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.table == table)
            .map(|(i, _)| IndexId(i))
    }

    /// Collect frequency statistics for `cols` of `table`.
    pub fn analyze(&mut self, table: TableId, cols: &[ColId]) {
        let stats = TableStats::analyze(self.table(table), cols);
        self.stats[table.0] = Some(stats);
    }

    /// Statistics, if [`Database::analyze`] ran for this table.
    pub fn stats(&self, table: TableId) -> Option<&TableStats> {
        self.stats[table.0].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn db() -> (Database, TableId) {
        let mut t = Table::new(Schema::new(&["name", "tid", "id"]));
        for row in [[1, 1, 1], [1, 1, 2], [2, 1, 3], [1, 2, 1]] {
            t.push_row(&row);
        }
        t.cluster_by(&[ColId(0), ColId(1), ColId(2)]);
        let mut db = Database::new();
        let id = db.add_table("node", t);
        (db, id)
    }

    #[test]
    fn table_registration_and_lookup() {
        let (db, id) = db();
        assert_eq!(db.table_by_name("node"), Some(id));
        assert_eq!(db.table_by_name("missing"), None);
        assert_eq!(db.table_name(id), "node");
        assert_eq!(db.table(id).num_rows(), 4);
    }

    #[test]
    fn index_registration() {
        let (mut db, id) = db();
        let i1 = db.add_index(id, "by_name", vec![ColId(0)]);
        let i2 = db.add_index(id, "by_tid_id", vec![ColId(1), ColId(2)]);
        let on: Vec<IndexId> = db.indexes_on(id).collect();
        assert_eq!(on, [i1, i2]);
        assert_eq!(db.index_name(i2), "by_tid_id");
        assert_eq!(db.index(i1).equal_range(db.table(id), &[1]).len(), 3);
    }

    #[test]
    fn analyze_and_stats() {
        let (mut db, id) = db();
        assert!(db.stats(id).is_none());
        db.analyze(id, &[ColId(0)]);
        let st = db.stats(id).unwrap();
        assert_eq!(st.est_eq(ColId(0), 1), 3);
        assert_eq!(st.est_eq(ColId(0), 2), 1);
    }
}
