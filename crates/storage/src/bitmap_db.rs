//! The Roaring Bitmap Database (thesis §6.2): a column store that keeps
//! one roaring bitmap per distinct value of every indexed column, answers
//! selection predicates with bitmap algebra, and aggregates by visiting
//! only qualifying rows.
//!
//! Per the paper's default policy, every categorical column is indexed
//! and measure columns are left unindexed; we additionally index integer
//! columns spanning at most 4096 values (year, month, ...) because they
//! appear as equality predicates in the canonical query.
//!
//! `BitmapDb` is the shared [`Engine`] core with this module's bitmap
//! index as its row index: state, appends, durability and pinning are
//! described in [`crate::engine`]. The index is derived state, rebuilt
//! on open and refreshed *incrementally* on append: appended row ids are
//! strictly ascending, so each new row is an O(1) `push_ascending` into
//! its value bitmap; only an integer column whose value range grew out
//! of its existing code space pays a full per-column rebuild. Each value
//! bitmap sits behind an `Arc`, so the next version's index shares every
//! bitmap the append did not touch and copies only the ones it did.

use crate::cache::CacheConfig;
use crate::column::Column;
use crate::engine::{Engine, EngineConfig};
use crate::exec::{compile_pred, ParallelConfig, RowSource};
use crate::predicate::{Atom, CmpOp, Predicate};
use crate::roaring::RoaringBitmap;
use crate::table::{StorageError, Table};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// In-memory database with roaring-bitmap secondary indexes.
pub type BitmapDb = Engine<BitmapDbConfig>;

/// Tuning knobs for [`BitmapDb`]: the fields of
/// [`ScanDbConfig`](crate::ScanDbConfig), with a smaller default
/// `dense_group_limit`.
#[derive(Clone, Debug)]
pub struct BitmapDbConfig {
    /// Group-key spaces up to this size use dense accumulation; beyond it
    /// the engine pays a hash lookup per row — the behaviour the paper
    /// observed "as the number of groups increases" (Figure 7.5a).
    pub dense_group_limit: u128,
    /// Simulated client↔server round-trip latency added per request
    /// (a stand-in for the paper's networked PostgreSQL).
    pub request_overhead: Duration,
    /// Parallel-scan tuning; the default consults the `ZV_SCHED_*`
    /// environment overrides ([`ParallelConfig::from_env`]).
    pub parallel: ParallelConfig,
    /// Engine-level result cache bounds ([`CacheConfig::disabled`] turns
    /// the cache off, e.g. for raw-engine benchmarks).
    pub cache: CacheConfig,
}

impl Default for BitmapDbConfig {
    fn default() -> Self {
        BitmapDbConfig {
            dense_group_limit: 1 << 10,
            request_overhead: Duration::ZERO,
            parallel: ParallelConfig::from_env(),
            cache: CacheConfig::default(),
        }
    }
}

impl BitmapDbConfig {
    /// Default config with the result cache off — for benchmarks and
    /// tests that measure (or compare against) raw engine behaviour.
    pub fn uncached() -> Self {
        BitmapDbConfig {
            cache: CacheConfig::disabled(),
            ..Default::default()
        }
    }
}

impl EngineConfig for BitmapDbConfig {
    const NAME: &'static str = "roaring-bitmap-db";
    const INDEXED: bool = true;

    fn parts(&self) -> (u128, Duration, ParallelConfig, &CacheConfig) {
        (
            self.dense_group_limit,
            self.request_overhead,
            self.parallel,
            &self.cache,
        )
    }
}

/// Integer columns spanning at most this many values get bitmap indexes.
const INT_INDEX_MAX_CARD: u128 = 4096;

/// One indexed column: a bitmap of row ids per distinct-value code.
/// Cloning it copies one pointer per bitmap.
#[derive(Clone)]
struct ColumnIndex {
    /// `bitmaps[code]` = rows where the column equals the value with that
    /// code. For int columns the code is `value - min`.
    bitmaps: Vec<Arc<RoaringBitmap>>,
    /// For integer indexes: the value of code 0.
    int_min: i64,
    is_int: bool,
}

impl ColumnIndex {
    fn lookup_cat(&self, code: u32) -> Option<&RoaringBitmap> {
        self.bitmaps.get(code as usize).map(|b| &**b)
    }

    fn lookup_int(&self, value: i64) -> Option<&RoaringBitmap> {
        if !self.is_int {
            return None;
        }
        let off = value.checked_sub(self.int_min)?;
        if off < 0 {
            return None;
        }
        self.bitmaps.get(off as usize).map(|b| &**b)
    }

    /// Append the rows `(row, code)` of one batch, ascending by row:
    /// each touched bitmap is copied once if an older version still
    /// shares it, grown in place, and re-compressed once (appends
    /// devolve run containers).
    fn push_batch(&mut self, batch: &[(u32, usize)]) {
        for &(row, code) in batch {
            Arc::make_mut(&mut self.bitmaps[code]).push_ascending(row);
        }
        let mut touched: Vec<usize> = batch.iter().map(|&(_, code)| code).collect();
        touched.sort_unstable();
        touched.dedup();
        for code in touched {
            Arc::make_mut(&mut self.bitmaps[code]).run_optimize();
        }
    }
}

/// Seal freshly built bitmaps into a [`ColumnIndex`]: run-optimize each
/// one and put it behind its `Arc`.
fn seal_index(bitmaps: Vec<RoaringBitmap>, int_min: i64, is_int: bool) -> ColumnIndex {
    ColumnIndex {
        bitmaps: bitmaps
            .into_iter()
            .map(|mut bm| {
                bm.run_optimize();
                Arc::new(bm)
            })
            .collect(),
        int_min,
        is_int,
    }
}

/// The bitmap row index of one table version: a [`ColumnIndex`] per
/// indexed column. Each bitmap is run-optimized (RLE) where runs
/// compress better.
#[derive(Clone)]
pub(crate) struct BitmapIndex {
    indexes: HashMap<String, ColumnIndex>,
    /// Int columns whose value range already exceeded the cardinality
    /// budget. A column's range only ever grows, so once a build fails it
    /// can never succeed again — remembering that spares every later
    /// append the O(n) min/max rescan of the column.
    unindexable: HashSet<String>,
}

fn build_cat_index(c: &crate::column::CatColumn) -> ColumnIndex {
    let mut bitmaps: Vec<RoaringBitmap> =
        (0..c.cardinality()).map(|_| RoaringBitmap::new()).collect();
    c.codes().for_each_range(0, c.len(), |row, code| {
        bitmaps[code as usize].push_ascending(row as u32);
    });
    seal_index(bitmaps, 0, false)
}

fn build_int_index(v: &crate::column::IntColumn) -> Option<ColumnIndex> {
    // Chunk-stat fold: O(chunks + tail), not a full O(n) value scan.
    let (lo, hi) = v.minmax(0, v.len())?;
    // i128 arithmetic: the value range can exceed i64 (e.g. a sentinel
    // near i64::MAX next to negative values).
    let card = (hi as i128 - lo as i128 + 1) as u128;
    if card > INT_INDEX_MAX_CARD {
        return None;
    }
    let mut bitmaps: Vec<RoaringBitmap> =
        (0..card as usize).map(|_| RoaringBitmap::new()).collect();
    v.for_each_range(0, v.len(), |row, val| {
        bitmaps[(val - lo) as usize].push_ascending(row as u32);
    });
    Some(seal_index(bitmaps, lo, true))
}

fn all_rows(table: &Table) -> RoaringBitmap {
    RoaringBitmap::from_sorted_iter(0..table.num_rows() as u32)
}

impl BitmapIndex {
    pub(crate) fn build(table: &Table) -> BitmapIndex {
        let mut indexes = HashMap::new();
        let mut unindexable = HashSet::new();
        for field in table.schema().fields() {
            match table.column(&field.name).unwrap() {
                Column::Cat(c) => {
                    indexes.insert(field.name.clone(), build_cat_index(c));
                }
                Column::Int(v) => match build_int_index(v) {
                    Some(ix) => {
                        indexes.insert(field.name.clone(), ix);
                    }
                    // Empty columns may become indexable after an append;
                    // budget-exceeding ones never can (the range only grows).
                    None if !v.is_empty() => {
                        unindexable.insert(field.name.clone());
                    }
                    None => {}
                },
                Column::Float(_) => {}
            }
        }
        BitmapIndex {
            indexes,
            unindexable,
        }
    }

    pub(crate) fn is_indexed(&self, col: &str) -> bool {
        self.indexes.contains_key(col)
    }

    /// The value bitmaps of indexed column `col`, by value code.
    pub(crate) fn bitmaps(&self, col: &str) -> Option<&[Arc<RoaringBitmap>]> {
        self.indexes.get(col).map(|ix| ix.bitmaps.as_slice())
    }

    /// Bring the indexes up to date after rows `old_rows..` were appended
    /// to `table`. Appended row ids are ascending and larger than
    /// anything indexed, so the common case is an O(1) tail append per
    /// row into the value bitmaps the batch touches — copied first if
    /// the previous version still shares them; the rest stay shared. An
    /// integer index whose value range grew falls back to a full
    /// per-column rebuild (or is dropped if it outgrew the cardinality
    /// budget — residual predicate scans stay correct without it).
    pub(crate) fn refresh(&mut self, table: &Table, old_rows: usize) {
        let indexes = &mut self.indexes;
        let unindexable = &mut self.unindexable;
        for field in table.schema().fields() {
            match table.column(&field.name).unwrap() {
                Column::Cat(c) => {
                    let ix = indexes
                        .get_mut(&field.name)
                        .expect("categorical columns are always indexed");
                    // New dictionary codes get fresh (empty) bitmaps.
                    while ix.bitmaps.len() < c.cardinality() {
                        ix.bitmaps.push(Arc::default());
                    }
                    let mut batch = Vec::new();
                    c.codes().for_each_range(old_rows, c.len(), |row, code| {
                        batch.push((row as u32, code as usize));
                    });
                    ix.push_batch(&batch);
                }
                Column::Int(v) => {
                    if unindexable.contains(&field.name) {
                        // A previously failed build can never succeed —
                        // the range only grows. Skip the O(n) rescan.
                        continue;
                    }
                    if let Some(ix) = indexes.get_mut(&field.name) {
                        let len = ix.bitmaps.len() as i64;
                        let int_min = ix.int_min;
                        // checked_sub: the offset can overflow i64 for
                        // extreme appended values; overflow means
                        // out-of-range, never a panic.
                        let mut in_range = true;
                        v.for_each_range(old_rows, v.len(), |_, x| {
                            in_range &= matches!(
                                x.checked_sub(int_min), Some(o) if (0..len).contains(&o)
                            );
                        });
                        if in_range {
                            let mut batch = Vec::new();
                            v.for_each_range(old_rows, v.len(), |row, val| {
                                batch.push((row as u32, (val - int_min) as usize));
                            });
                            ix.push_batch(&batch);
                            continue;
                        }
                        indexes.remove(&field.name);
                    }
                    // Out-of-range append, or the column only now became
                    // indexable (e.g. it was empty at build time).
                    match build_int_index(v) {
                        Some(ix) => {
                            indexes.insert(field.name.clone(), ix);
                        }
                        None if !v.is_empty() => {
                            unindexable.insert(field.name.clone());
                        }
                        None => {}
                    }
                }
                Column::Float(_) => {}
            }
        }
    }

    /// Resolve one atom via the indexes, if possible.
    fn atom_bitmap(&self, table: &Table, atom: &Atom) -> Option<RoaringBitmap> {
        let ix = self.indexes.get(atom.column())?;
        match atom {
            Atom::CatEq { col, value } => {
                let c = table.column(col).ok()?.as_cat()?;
                match c.code_of(value) {
                    Some(code) => ix.lookup_cat(code).cloned(),
                    None => Some(RoaringBitmap::new()),
                }
            }
            Atom::CatNeq { col, value } => {
                let c = table.column(col).ok()?.as_cat()?;
                let all = all_rows(table);
                match c.code_of(value) {
                    Some(code) => Some(all.and_not(ix.lookup_cat(code)?)),
                    None => Some(all),
                }
            }
            Atom::CatIn { col, values } => {
                let c = table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for v in values {
                    if let Some(code) = c.code_of(v) {
                        acc = acc.or(ix.lookup_cat(code)?);
                    }
                }
                Some(acc)
            }
            Atom::NumCmp {
                op: CmpOp::Eq,
                value,
                ..
            } if ix.is_int => {
                if value.fract() != 0.0 {
                    return Some(RoaringBitmap::new());
                }
                Some(ix.lookup_int(*value as i64).cloned().unwrap_or_default())
            }
            Atom::NumBetween { lo, hi, .. } if ix.is_int => {
                let lo_i = lo.ceil() as i64;
                let hi_i = hi.floor() as i64;
                let mut acc = RoaringBitmap::new();
                for v in lo_i..=hi_i {
                    if let Some(bm) = ix.lookup_int(v) {
                        acc = acc.or(bm);
                    }
                }
                Some(acc)
            }
            Atom::StrPrefix { col, prefix } => {
                let c = table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for (code, s) in c.dict().iter().enumerate() {
                    if s.starts_with(prefix.as_str()) {
                        acc = acc.or(ix.lookup_cat(code as u32)?);
                    }
                }
                Some(acc)
            }
            _ => None,
        }
    }

    /// Build the row source: bitmap-resolved atoms ANDed, residual atoms
    /// left as a per-row filter.
    pub(crate) fn row_source<'t>(
        &self,
        table: &'t Table,
        pred: &Predicate,
    ) -> Result<RowSource<'t>, StorageError> {
        let n = table.num_rows();
        match pred {
            Predicate::True => Ok(RowSource::All(n)),
            Predicate::And(atoms) => {
                let mut bitmaps: Vec<RoaringBitmap> = Vec::new();
                let mut residual: Vec<Atom> = Vec::new();
                for a in atoms {
                    match self.atom_bitmap(table, a) {
                        Some(bm) => bitmaps.push(bm),
                        None => residual.push(a.clone()),
                    }
                }
                if bitmaps.is_empty() {
                    let pred = compile_pred(table, &Predicate::And(residual.clone()))?;
                    return Ok(RowSource::Filtered { n_rows: n, pred });
                }
                // AND cheapest-first.
                bitmaps.sort_by_key(|b| b.len());
                let mut acc = bitmaps[0].clone();
                for bm in &bitmaps[1..] {
                    acc = acc.and(bm);
                    if acc.is_empty() {
                        break;
                    }
                }
                if residual.is_empty() {
                    Ok(RowSource::Bitmap(acc))
                } else {
                    let pred = compile_pred(table, &Predicate::And(residual))?;
                    Ok(RowSource::BitmapFiltered { rows: acc, pred })
                }
            }
            Predicate::Or(disj) => {
                // Fully-indexable disjunctions resolve via bitmap algebra;
                // otherwise fall back to a filtered scan.
                let mut acc = RoaringBitmap::new();
                for conj in disj {
                    let mut conj_bm: Option<RoaringBitmap> = None;
                    for a in conj {
                        match self.atom_bitmap(table, a) {
                            Some(bm) => {
                                conj_bm = Some(match conj_bm {
                                    Some(prev) => prev.and(&bm),
                                    None => bm,
                                })
                            }
                            None => {
                                let pred = compile_pred(table, pred)?;
                                return Ok(RowSource::Filtered { n_rows: n, pred });
                            }
                        }
                    }
                    acc = acc.or(&conj_bm.unwrap_or_else(|| all_rows(table)));
                }
                Ok(RowSource::Bitmap(acc))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::query::{SelectQuery, XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> BitmapDb {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("location", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        let rows = [
            (2014, "chair", "US", 10.0),
            (2014, "chair", "US", 5.0),
            (2015, "chair", "US", 20.0),
            (2014, "desk", "US", 7.0),
            (2015, "desk", "UK", 9.0),
            (2015, "chair", "UK", 11.0),
        ];
        for (y, p, l, s) in rows {
            b.push_row(vec![
                Value::Int(y),
                Value::str(p),
                Value::str(l),
                Value::Float(s),
            ])
            .unwrap();
        }
        // The fixture is 6 rows: disable cost-based admission so the
        // cache-behaviour tests below still exercise warm hits.
        BitmapDb::with_config(
            b.finish_shared(),
            BitmapDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn builds_indexes_for_cat_and_small_int() {
        let db = db();
        assert!(db.is_indexed("product"));
        assert!(db.is_indexed("location"));
        assert!(db.is_indexed("year")); // card 2 ≤ 4096
        assert!(!db.is_indexed("sales")); // measure column unindexed
    }

    #[test]
    fn bitmap_selection_scans_only_matching_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(
            delta.rows_scanned, 2,
            "only the two UK rows should be visited"
        );
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn conjunction_of_indexed_atoms() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::cat_eq("location", "US")),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![15.0, 20.0]);
    }

    #[test]
    fn int_equality_uses_index() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3);
        assert_eq!(rt.groups[0].ys[0], vec![40.0]);
    }

    #[test]
    fn residual_predicate_on_measure_column() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::atom(Atom::NumCmp {
                col: "sales".into(),
                op: CmpOp::Gt,
                value: 9.0,
            })),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        // chair rows with sales > 9: (2014,10), (2015,20), (2015,11)
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![10.0, 31.0]);
    }

    #[test]
    fn indexed_disjunction() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::Or(vec![
                vec![Atom::CatEq {
                    col: "product".into(),
                    value: "desk".into(),
                }],
                vec![Atom::CatEq {
                    col: "location".into(),
                    value: "UK".into(),
                }],
            ]),
        );
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3); // rows 3,4,5
        let g = &rt.groups[0];
        assert_eq!(g.ys[0], vec![7.0, 20.0]);
    }

    #[test]
    fn missing_dictionary_value_yields_empty() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        assert!(db.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn request_counting() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        db.run_request(&[q.clone(), q.clone(), q]).unwrap();
        let snap = db.stats().snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.queries, 3);
    }

    #[test]
    fn append_extends_indexes_incrementally() {
        let db = db();
        // New product ("sofa") and a new location code appear only in the
        // appended rows; the year range stays inside the existing index.
        db.append_rows(&[
            vec![
                Value::Int(2015),
                Value::str("sofa"),
                Value::str("FR"),
                Value::Float(4.0),
            ],
            vec![
                Value::Int(2014),
                Value::str("chair"),
                Value::str("UK"),
                Value::Float(6.0),
            ],
        ])
        .unwrap();
        assert!(db.is_indexed("product"));
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1, "new code must be index-resolved");
        assert_eq!(rt.groups[0].ys[0], vec![4.0]);
        // Existing codes see the appended rows too.
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![6.0, 20.0]);
    }

    #[test]
    fn append_outside_int_range_rebuilds_that_index() {
        let db = db();
        assert!(db.is_indexed("year"));
        db.append_rows(&[vec![
            Value::Int(2020),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.0),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "widened range still fits the budget");
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2020.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1);
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);

        // Blow past the cardinality budget: the index must be dropped and
        // the query answered by a residual scan, still correctly.
        db.append_rows(&[vec![
            Value::Int(2014 + 1_000_000),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);
    }

    #[test]
    fn extreme_int_append_does_not_overflow_the_range_check() {
        // Regression: `value - int_min` used to overflow i64 when an
        // appended sentinel sat near i64::MAX with a negative int_min,
        // panicking inside the mutation path. It must instead be treated
        // as out-of-range (index dropped, residual scan stays correct).
        let db = db();
        // Widen the year index to a *negative* int_min first…
        db.append_rows(&[vec![
            Value::Int(-10),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(0.25),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "negative-min range still fits");
        // …then append the overflow-triggering sentinel.
        db.append_rows(&[vec![
            Value::Int(i64::MAX),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.5),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 9.0]);
        // A follow-up append still works (engine not poisoned).
        db.append_rows(&[vec![
            Value::Int(2015),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 11.0]);
    }

    #[test]
    fn empty_append_is_a_version_preserving_noop() {
        let db = db();
        let v0 = db.table().version();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(db.append_rows(&[]).unwrap(), 0);
        assert_eq!(db.table().version(), v0);
        let before = db.stats().snapshot();
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.cache_hits, 1, "cache must survive a no-op append");
    }
}
