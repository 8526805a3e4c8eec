//! Per-column frequency statistics.
//!
//! The planner orders joins by estimated input cardinality (paper §5.2's
//! observation: queries over low-selectivity tags like `NP` produce huge
//! intermediate results). Statistics are exact value→count histograms
//! over the columns the catalog was asked to analyze — affordable
//! because the interned `name` and `value` domains are small relative to
//! the table.

use std::collections::HashMap;

use crate::schema::ColId;
use crate::table::Table;
use crate::value::Value;

/// Exact frequency histogram of one column.
#[derive(Clone, Debug, Default)]
pub struct ColumnStats {
    counts: HashMap<Value, u32>,
    total: usize,
}

impl ColumnStats {
    /// Scan one column and collect its value frequencies.
    pub fn build(table: &Table, col: ColId) -> Self {
        let column = table.column(col);
        let mut counts: HashMap<Value, u32> = HashMap::new();
        for &v in column {
            *counts.entry(v).or_insert(0) += 1;
        }
        ColumnStats {
            counts,
            total: column.len(),
        }
    }

    /// Rows with this exact value.
    pub fn count(&self, v: Value) -> usize {
        self.counts.get(&v).copied().unwrap_or(0) as usize
    }

    /// Total rows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` most frequent values, descending.
    pub fn top(&self, k: usize) -> Vec<(Value, u32)> {
        let mut v: Vec<(Value, u32)> = self.counts.iter().map(|(&a, &b)| (a, b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

/// Statistics for the analyzed columns of one table.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    cols: HashMap<ColId, ColumnStats>,
    rows: usize,
}

impl TableStats {
    /// Collect statistics for the listed columns.
    pub fn analyze(table: &Table, cols: &[ColId]) -> Self {
        TableStats {
            cols: cols
                .iter()
                .map(|&c| (c, ColumnStats::build(table, c)))
                .collect(),
            rows: table.num_rows(),
        }
    }

    /// Table row count at analysis time.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Statistics for one column, if analyzed.
    pub fn column(&self, col: ColId) -> Option<&ColumnStats> {
        self.cols.get(&col)
    }

    /// Estimated rows matching `col = v`: the exact count when the
    /// column was analyzed, otherwise a uniformity guess of
    /// `rows / 10`.
    pub fn est_eq(&self, col: ColId, v: Value) -> usize {
        match self.cols.get(&col) {
            Some(s) => s.count(v),
            None => self.rows / 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(&["name", "value"]));
        for row in [[1, 9], [1, 9], [1, 8], [2, 9], [3, 7], [1, 7]] {
            t.push_row(&row);
        }
        t
    }

    #[test]
    fn counts_and_totals() {
        let s = ColumnStats::build(&sample(), ColId(0));
        assert_eq!(s.total(), 6);
        assert_eq!(s.count(1), 4);
        assert_eq!(s.count(2), 1);
        assert_eq!(s.count(99), 0);
        assert_eq!(s.distinct(), 3);
    }

    #[test]
    fn top_values_sorted() {
        let s = ColumnStats::build(&sample(), ColId(0));
        assert_eq!(s.top(2), [(1, 4), (2, 1)]);
    }

    #[test]
    fn table_stats_estimates() {
        let t = sample();
        let st = TableStats::analyze(&t, &[ColId(0)]);
        assert_eq!(st.rows(), 6);
        assert_eq!(st.est_eq(ColId(0), 1), 4);
        // Unanalyzed column falls back to a fraction of the table.
        assert_eq!(st.est_eq(ColId(1), 9), 0);
        assert!(st.column(ColId(1)).is_none());
    }
}
