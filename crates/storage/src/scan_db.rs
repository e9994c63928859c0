//! The conventional comparator engine: no index, so every query visits
//! every row through its compiled predicate. It stands in for the
//! paper's PostgreSQL backend. Its aggregation is cardinality-aware —
//! dense group arrays up to 2²⁴ slots, against the bitmap engine's
//! 2¹⁰ — which is what lets it overtake the bitmap engine at 100%
//! selectivity with many groups (Figure 7.5a).
//!
//! `ScanDb` is the shared [`Engine`] core with no row index: state,
//! appends, durability and pinning are described in [`crate::engine`].

use crate::cache::CacheConfig;
use crate::engine::{Engine, EngineConfig};
use crate::exec::ParallelConfig;
use std::time::Duration;

/// Scan-based reference engine.
pub type ScanDb = Engine<ScanDbConfig>;

/// Tuning knobs for [`ScanDb`].
#[derive(Clone, Debug)]
pub struct ScanDbConfig {
    /// Group-key spaces up to this size use dense accumulation.
    pub dense_group_limit: u128,
    /// Simulated client↔server round-trip latency added per request
    /// (a stand-in for the paper's networked PostgreSQL).
    pub request_overhead: Duration,
    /// Parallel-scan tuning (thread count, serial threshold, morsel
    /// size). The default consults the `ZV_SCHED_*` environment
    /// overrides ([`ParallelConfig::from_env`]) so CI can force a
    /// scheduling configuration across whole test suites.
    pub parallel: ParallelConfig,
    /// Engine-level result cache bounds ([`CacheConfig::disabled`] turns
    /// the cache off, e.g. for raw-engine benchmarks).
    pub cache: CacheConfig,
}

impl Default for ScanDbConfig {
    fn default() -> Self {
        ScanDbConfig {
            dense_group_limit: 1 << 24,
            request_overhead: Duration::ZERO,
            parallel: ParallelConfig::from_env(),
            cache: CacheConfig::default(),
        }
    }
}

impl ScanDbConfig {
    /// Default config with the result cache off — for benchmarks and
    /// tests that measure (or compare against) raw engine behaviour.
    pub fn uncached() -> Self {
        ScanDbConfig {
            cache: CacheConfig::disabled(),
            ..Default::default()
        }
    }
}

impl EngineConfig for ScanDbConfig {
    const NAME: &'static str = "scan-db";
    const INDEXED: bool = false;

    fn parts(&self) -> (u128, Duration, ParallelConfig, &CacheConfig) {
        (
            self.dense_group_limit,
            self.request_overhead,
            self.parallel,
            &self.cache,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::predicate::Predicate;
    use crate::query::SelectQuery;
    use crate::query::{XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> ScanDb {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (y, p, s) in [
            (2014, "chair", 10.0),
            (2015, "chair", 20.0),
            (2014, "desk", 7.0),
            (2015, "desk", 9.0),
        ] {
            b.push_row(vec![Value::Int(y), Value::str(p), Value::Float(s)])
                .unwrap();
        }
        // The fixture is 4 rows: disable cost-based admission so the
        // cache-behaviour tests below still exercise warm hits.
        ScanDb::with_config(
            b.finish_shared(),
            ScanDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn always_scans_all_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "desk"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 4, "scan engine visits every row");
        assert_eq!(rt.groups[0].ys[0], vec![7.0, 9.0]);
    }

    #[test]
    fn grouped_output_matches_expectation() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups.len(), 2);
        let chair = rt.group(&[Value::str("chair")]).unwrap();
        assert_eq!(chair.ys[0], vec![10.0, 20.0]);
    }

    #[test]
    fn warm_request_skips_the_scan() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let cold = db.run_request(std::slice::from_ref(&q)).unwrap();
        let before = db.stats().snapshot();
        let warm = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(cold, warm);
        assert_eq!(delta.rows_scanned, 0, "warm repeat must not scan");
        assert_eq!(delta.queries, 0);
        assert_eq!(delta.cache_hits, 1);
    }

    #[test]
    fn append_refreshes_results_and_version() {
        let db = db();
        let v0 = db.table().version();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let before = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(before[0].groups[0].ys[0], vec![17.0, 29.0]);
        db.append_rows(&[vec![
            Value::Int(2014),
            Value::str("lamp"),
            Value::Float(3.0),
        ]])
        .unwrap();
        assert!(db.table().version() > v0);
        assert_eq!(db.table().num_rows(), 5);
        let after = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            after[0].groups[0].ys[0],
            vec![20.0, 29.0],
            "post-append request must see the new row, not the cached result"
        );
    }
}
