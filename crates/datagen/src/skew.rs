//! A synthetic table with *positionally clustered* predicate matches —
//! the workload shape that would starve a contiguous per-worker split
//! and that morsel-driven claiming balances. Shared by the `bench_groupby`
//! perf tracker and the criterion `groupby` bench so the regression
//! baseline and the criterion numbers measure the identical workload.

use std::sync::Arc;
use zv_storage::{Column, DataType, Field, Schema, Table};

/// Fraction of the table (leading rows) matched by [`hot_predicate`].
pub const HOT_FRACTION: usize = 8;

/// Distinct group keys in the `key` column.
pub const KEY_CARDINALITY: usize = 500;

/// Build the skewed table: `key = i % 500` (the group axis), `hot = 1`
/// for the first eighth of the rows and `0` after (the clustered,
/// selective filter column), `val = (i % 1013) · 0.25` (an exactly
/// representable measure, so parallel sums can be compared bit-for-bit
/// against the serial scan).
pub fn generate(rows: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("hot", DataType::Int),
        Field::new("val", DataType::Float),
    ]);
    let columns = vec![
        Column::Int((0..rows).map(|i| (i % KEY_CARDINALITY) as i64).collect()),
        Column::Int(
            (0..rows)
                .map(|i| i64::from(i < rows / HOT_FRACTION))
                .collect(),
        ),
        Column::Float((0..rows).map(|i| (i % 1013) as f64 * 0.25).collect()),
    ];
    Arc::new(Table::from_columns(schema, columns).expect("skew table schema is consistent"))
}

/// The selective predicate whose matches all sit in the leading hot
/// region: `hot = 1`.
pub fn hot_predicate() -> zv_storage::Predicate {
    zv_storage::Predicate::num_eq("hot", 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_cluster_in_the_leading_region() {
        let t = generate(8000);
        assert_eq!(t.num_rows(), 8000);
        let hot = match t.column("hot").unwrap() {
            Column::Int(v) => v.to_vec(),
            _ => panic!("hot is an int column"),
        };
        assert!(hot[..1000].iter().all(|&h| h == 1));
        assert!(hot[1000..].iter().all(|&h| h == 0));
    }
}
