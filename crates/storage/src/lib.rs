//! # zv-storage
//!
//! The storage and query-execution substrate of the zenvisage
//! reproduction: an in-memory columnar store serving the canonical
//! grouped-aggregate query shape that every ZQL visualization compiles
//! to (thesis §5.1):
//!
//! ```sql
//! SELECT X, F(Y) [, Z] WHERE ... GROUP BY Z, X ORDER BY Z, X
//! ```
//!
//! One engine core ([`engine`]) owns the versioned table, appends,
//! durability ([`persist`]), snapshot pinning and the [`Database`] impl.
//! It comes with two row indexes, and they are the only difference
//! between the two engines the paper compares (§6, Figure 7.5):
//!
//! * [`ScanDb`] has none: every query visits every row through its
//!   compiled predicate — the stand-in for the paper's PostgreSQL;
//! * [`BitmapDb`] keeps from-scratch Roaring bitmaps ([`roaring`]) per
//!   value of each indexed column and visits only the rows they select.
//!
//! Both scan through the same window loop and aggregation kernels
//! ([`exec`]), and answer repeats from the same result cache ([`cache`]).
//!
//! ## Quick example
//!
//! ```
//! use zv_storage::{
//!     BitmapDb, Database, DataType, Field, Predicate, Schema, SelectQuery,
//!     TableBuilder, Value, XSpec, YSpec,
//! };
//!
//! let schema = Schema::new(vec![
//!     Field::new("year", DataType::Int),
//!     Field::new("product", DataType::Cat),
//!     Field::new("sales", DataType::Float),
//! ]);
//! let mut b = TableBuilder::new(schema);
//! b.push_row(vec![Value::Int(2015), Value::str("chair"), Value::Float(3.0)]).unwrap();
//! b.push_row(vec![Value::Int(2016), Value::str("chair"), Value::Float(5.0)]).unwrap();
//! let db = BitmapDb::new(b.finish_shared());
//!
//! let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
//!     .with_predicate(Predicate::cat_eq("product", "chair"));
//! let result = db.execute(&q).unwrap();
//! assert_eq!(result.groups[0].ys[0], vec![3.0, 5.0]);
//! ```

pub mod bitmap_db;
pub mod cache;
pub mod column;
pub mod db;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod json;
pub mod lifecycle;
pub mod parallel;
pub mod persist;
pub mod predicate;
pub mod query;
pub mod roaring;
pub mod scan_db;
pub mod stats;
pub mod table;
pub mod value;

pub use bitmap_db::{BitmapDb, BitmapDbConfig};
pub use cache::{
    ivm_finalize, ivm_form, CacheConfig, CacheKey, CacheStats, InsertOutcome, IvmForm, IvmSource,
    QueryKey, ResultCache,
};
pub use column::{
    CatColumn, ChunkEncoding, CodeColumn, Column, EncodePolicy, EncodingCounts, EncodingMode,
    FloatColumn, IntColumn,
};
pub use db::{Database, DynDatabase};
pub use engine::Pinned;
pub use exec::{GroupStrategy, MorselMetrics, ParallelConfig};
pub use fault::{FaultPoint, FaultSpec};
pub use json::{Json, JsonError};
pub use lifecycle::{CancelReason, QueryCtx, QueryCtxStats};
pub use persist::{PersistOptions, PersistStats, Persistence, RecoveryReport};
pub use predicate::{Atom, CmpOp, Predicate};
pub use query::{Agg, GroupSeries, ResultTable, SelectQuery, XSpec, YSpec};
pub use roaring::RoaringBitmap;
pub use scan_db::{ScanDb, ScanDbConfig};
pub use stats::{ExecStats, StatsSnapshot};
pub use table::{Field, Schema, StorageError, Table, TableBuilder};
pub use value::{DataType, Value};

#[cfg(test)]
mod engine_equivalence {
    //! Both engines must produce identical results for any query — the
    //! load-bearing invariant behind Figure 7.5's apples-to-apples
    //! comparison.

    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn build_table(rows: &[(i64, u8, u8, i16)]) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("location", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for &(y, p, l, s) in rows {
            b.push_row(vec![
                Value::Int(y),
                Value::str(format!("p{p}")),
                Value::str(format!("loc{l}")),
                // Exact dyadic measures: float sums stay associative, so
                // bit-for-bit equality holds across engines regardless of
                // how each one splits its scan (the CI scheduling matrix
                // forces parallel routing even on these tiny tables).
                Value::Float(s as f64 * 0.25),
            ])
            .unwrap();
        }
        b.finish_shared()
    }

    fn arb_rows() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
        prop::collection::vec((2010i64..2020, 0u8..6, 0u8..3, -400i16..400), 1..200)
    }

    fn arb_pred() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::True),
            (0u8..8).prop_map(|p| Predicate::cat_eq("product", format!("p{p}"))),
            (2008i64..2022).prop_map(|y| Predicate::num_eq("year", y as f64)),
            ((0u8..8), (0u8..4)).prop_map(|(p, l)| {
                Predicate::cat_eq("product", format!("p{p}"))
                    .and(Predicate::cat_eq("location", format!("loc{l}")))
            }),
            ((0u8..8), (0u8..8)).prop_map(|(a, b)| {
                Predicate::Or(vec![
                    vec![Atom::CatEq {
                        col: "product".into(),
                        value: format!("p{a}"),
                    }],
                    vec![Atom::CatEq {
                        col: "product".into(),
                        value: format!("p{b}"),
                    }],
                ])
            }),
            (-50.0f64..50.0).prop_map(|t| {
                Predicate::atom(Atom::NumCmp {
                    col: "sales".into(),
                    op: CmpOp::Gt,
                    value: t,
                })
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bitmap_and_scan_agree(rows in arb_rows(), pred in arb_pred(), with_z in any::<bool>()) {
            let table = build_table(&rows);
            let bdb = BitmapDb::new(table.clone());
            let sdb = ScanDb::new(table.clone());
            let mut q = SelectQuery::new(
                XSpec::raw("year"),
                vec![YSpec::sum("sales"), YSpec::avg("sales")],
            )
            .with_predicate(pred);
            if with_z {
                q = q.with_z("product");
            }
            let a = bdb.execute(&q).unwrap();
            let b = sdb.execute(&q).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn hash_and_dense_strategies_agree(rows in arb_rows()) {
            let table = build_table(&rows);
            // Force the bitmap engine into each strategy via config.
            let dense = BitmapDb::with_config(
                table.clone(),
                BitmapDbConfig { dense_group_limit: u128::MAX, ..Default::default() },
            );
            let hash = BitmapDb::with_config(
                table.clone(),
                BitmapDbConfig { dense_group_limit: 0, ..Default::default() },
            );
            let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
                .with_z("product")
                .with_z("location");
            prop_assert_eq!(dense.execute(&q).unwrap(), hash.execute(&q).unwrap());
        }
    }
}
