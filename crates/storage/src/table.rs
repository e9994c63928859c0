//! Relations: schema + columns, with a builder and CSV import/export used
//! by the examples.

use crate::column::Column;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global snapshot counter backing [`Table::version`]. Every table
/// construction *and* every mutation draws a fresh value, so a version
/// number identifies one immutable snapshot of one table's contents
/// process-wide — two tables (or two states of the same table) never
/// share a version. Within a single table's lifetime the version is
/// strictly increasing, which is what lets result caches treat
/// `(version, query)` as a self-invalidating key: once a table mutates,
/// its old version is never current again, so entries recorded under it
/// can never be served stale.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// One attribute of a relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// Column names and types of a [`Table`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        let by_name = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        Schema { fields, by_name }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }
}

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    UnknownColumn(String),
    TypeMismatch(String),
    Malformed(String),
    Unsupported(String),
    /// The query's [`crate::lifecycle::QueryCtx`] was cancelled
    /// (explicitly, by deadline, by supersession, or by row budget)
    /// before the scan finished; any partial result was discarded and
    /// never reached the result cache.
    Cancelled,
    /// A parallel worker panicked mid-scan and was contained by the
    /// scheduler's `catch_unwind` boundary: siblings stopped claiming,
    /// partial accumulators were dropped before the merge, and nothing
    /// reached the result cache. `morsel` is the lowest-indexed morsel
    /// whose scan panicked; `payload` is the panic message. Transient:
    /// `zv-server`'s retry policy may re-run the query (parallel again,
    /// then serial).
    WorkerPanicked {
        /// Stringified panic payload of the first failing worker.
        payload: String,
        /// Index of the morsel whose scan panicked.
        morsel: u64,
    },
    /// A transient resource failure — e.g. worker fan-out could not
    /// start. The query did no partial work; retrying is safe.
    ResourceExhausted(String),
    /// A durable-storage failure (snapshot/WAL I/O, CRC mismatch, or
    /// an unusable data directory). Not transient: the persistence
    /// layer is fail-stop — a failed WAL append leaves the in-memory
    /// table unchanged, and repair goes through `checkpoint` or a
    /// restart-time recovery, never a blind retry.
    Io(String),
}

impl StorageError {
    /// True for errors a retry may cure (worker panics, resource
    /// exhaustion); false for deterministic failures (bad queries,
    /// cancellation) where retrying would just repeat the outcome.
    /// `zv-server`'s retry/degrade ladder keys on this split.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StorageError::WorkerPanicked { .. } | StorageError::ResourceExhausted(_)
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            StorageError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            StorageError::Malformed(m) => write!(f, "malformed input: {m}"),
            StorageError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            StorageError::Cancelled => write!(f, "query cancelled"),
            StorageError::WorkerPanicked { payload, morsel } => {
                write!(f, "worker panicked at morsel {morsel}: {payload}")
            }
            StorageError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            StorageError::Io(m) => write!(f, "storage i/o: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Ancestor snapshots remembered per table for incremental view
/// maintenance ([`Table::ancestor_rows`]). Old entries age out oldest
/// first; a version that fell off the chain simply stops being provable
/// as a pure-append ancestor, so IVM declines and recomputes — never a
/// correctness hazard.
const LINEAGE_CAP: usize = 64;

/// An in-memory relation: schema + columns + a snapshot version.
///
/// A `Table` is immutable through shared references; owners can grow it
/// with [`Table::append_rows`] / [`Table::append_table`], each of which
/// bumps [`Table::version`] to a fresh process-unique value. Engines use
/// the version as the invalidation half of their result-cache keys.
///
/// Every version-bumping append also records `(old version, old row
/// count)` on an in-table lineage chain, which is what lets the result
/// cache *prove* "this snapshot is the ancestor plus appended rows
/// `[rows(v_old), rows(v_new))` and nothing else" — the precondition for
/// delta-merging a cached result instead of rescanning the table
/// ([`crate::cache`]'s incremental view maintenance).
///
/// Cloning a table is cheap: every column shares its sealed chunks and
/// its dictionary with the clone (see [`crate::column`]), so a clone
/// copies one pointer per sealed chunk plus each column's unsealed tail
/// (under one chunk of rows). Engines derive each new version by
/// cloning the current one and appending to the clone, which leaves the
/// current version, and any reader pinned to it, untouched.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    version: u64,
    /// `(version, rows)` of ancestor snapshots, oldest first. Appends are
    /// the only writers, so membership proves pure-append reachability.
    lineage: Vec<(u64, usize)>,
}

impl Table {
    /// Assemble a table from pre-built columns (the fast generator path).
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table, StorageError> {
        if schema.len() != columns.len() {
            return Err(StorageError::Malformed(format!(
                "{} fields but {} columns",
                schema.len(),
                columns.len()
            )));
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.dtype != c.dtype() {
                return Err(StorageError::TypeMismatch(format!(
                    "column {} declared {} but built {}",
                    f.name,
                    f.dtype,
                    c.dtype()
                )));
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(StorageError::Malformed(
                "columns have differing lengths".into(),
            ));
        }
        Ok(Table {
            schema,
            columns,
            rows,
            version: next_version(),
            lineage: Vec::new(),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The snapshot version of this table's contents: process-unique, and
    /// strictly increasing across mutations of the same table. See
    /// [`crate::cache`] for how engines key result caches on it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Restore a durable snapshot version recorded by the persistence
    /// layer (`crate::persist` recovery only). Overwrites the freshly
    /// drawn version *and* advances the process-wide counter past it,
    /// so every version minted after a recovery is still unique and
    /// strictly greater — cached results keyed under restored versions
    /// keep their meaning across restarts.
    pub(crate) fn restore_version(&mut self, version: u64) {
        self.version = version;
        // Replayed appends recorded temporary versions no cached result
        // was ever keyed under; recovery is not a provable pure append
        // from anything cached, so the chain restarts empty.
        self.lineage.clear();
        NEXT_VERSION.fetch_max(version + 1, Ordering::Relaxed);
    }

    /// The row count this table had at ancestor snapshot `version`, or
    /// `None` if that version is not on the pure-append lineage chain
    /// (too old, from another table, or severed by recovery). The current
    /// version answers with the current row count. `Some(r)` is a proof
    /// that rows `0..r` of this table are bit-for-bit the rows of
    /// `version` — appends only ever push — which is the soundness
    /// condition for the cache's delta maintenance.
    pub fn ancestor_rows(&self, version: u64) -> Option<usize> {
        if version == self.version {
            return Some(self.rows);
        }
        self.lineage
            .iter()
            .rev()
            .find(|&&(v, _)| v == version)
            .map(|&(_, r)| r)
    }

    /// Record the retiring snapshot on the lineage chain (append paths
    /// only — callers bump the version right after).
    fn push_lineage(&mut self) {
        if self.lineage.len() == LINEAGE_CAP {
            self.lineage.remove(0);
        }
        self.lineage.push((self.version, self.rows));
    }

    /// Append rows (each a full-width `Vec<Value>`) and bump the version.
    ///
    /// The append is atomic: every row is validated against the schema
    /// (width and type, with the same Int↔Float coercions as
    /// [`TableBuilder::push_row`]) before any row is stored, so a failed
    /// append leaves the table untouched. Returns the number of rows
    /// appended. An empty batch is a no-op: the version is *not* bumped,
    /// so cached results stay valid.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        if rows.is_empty() {
            return Ok(0);
        }
        for (ri, row) in rows.iter().enumerate() {
            if row.len() != self.columns.len() {
                return Err(StorageError::Malformed(format!(
                    "append row {ri} has width {}, schema width {}",
                    row.len(),
                    self.columns.len()
                )));
            }
            for (col, v) in self.columns.iter().zip(row) {
                if !col.accepts(v) {
                    return Err(StorageError::TypeMismatch(format!(
                        "append row {ri}: cannot store {v:?} in {} column",
                        col.dtype()
                    )));
                }
            }
        }
        self.push_lineage();
        for row in rows {
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push(v).map_err(StorageError::TypeMismatch)?;
            }
        }
        self.rows += rows.len();
        self.version = next_version();
        Ok(rows.len())
    }

    /// Append every row of `other` (whose schema must match exactly) and
    /// bump the version. Columnar fast path: numeric columns are extended
    /// slice-at-a-time and categorical codes are remapped through a
    /// per-dictionary translation table instead of re-hashing row strings.
    pub fn append_table(&mut self, other: &Table) -> Result<usize, StorageError> {
        if self.schema != other.schema {
            return Err(StorageError::Malformed(format!(
                "append_table schema mismatch: [{}] vs [{}]",
                self.schema.names().collect::<Vec<_>>().join(", "),
                other.schema.names().collect::<Vec<_>>().join(", ")
            )));
        }
        if other.rows == 0 {
            // No-op append: keep the version (and cached results) intact.
            return Ok(0);
        }
        self.push_lineage();
        for (col, oc) in self.columns.iter_mut().zip(&other.columns) {
            col.append(oc).map_err(StorageError::TypeMismatch)?;
        }
        self.rows += other.rows;
        self.version = next_version();
        Ok(other.rows)
    }

    pub fn column(&self, name: &str) -> Result<&Column, StorageError> {
        self.schema
            .index_of(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// All attribute names usable as an axis (the `*` attribute set).
    pub fn attribute_names(&self) -> Vec<String> {
        self.schema.names().map(str::to_string).collect()
    }

    /// Names of categorical attributes (candidate Z axes).
    pub fn categorical_names(&self) -> Vec<String> {
        self.schema
            .fields()
            .iter()
            .filter(|f| f.dtype == DataType::Cat)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Names of numeric attributes (candidate Y measures).
    pub fn numeric_names(&self) -> Vec<String> {
        self.schema
            .fields()
            .iter()
            .filter(|f| f.dtype != DataType::Cat)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Serialize to CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.schema.names().collect::<Vec<_>>().join(","));
        out.push('\n');
        for r in 0..self.rows {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(r).to_string()).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Parse a CSV string; column types are inferred from the first data
    /// row (int, then float, then categorical).
    pub fn from_csv(csv: &str) -> Result<Table, StorageError> {
        let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| StorageError::Malformed("empty csv".into()))?;
        let names: Vec<&str> = header.split(',').map(str::trim).collect();
        let rows: Vec<Vec<&str>> = lines
            .map(|l| l.split(',').map(str::trim).collect())
            .collect();
        if rows.is_empty() {
            return Err(StorageError::Malformed("csv has no data rows".into()));
        }
        let mut fields = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            // Infer the narrowest type every data row satisfies.
            let mut dtype = DataType::Int;
            for row in &rows {
                let cell = *row
                    .get(i)
                    .ok_or_else(|| StorageError::Malformed(format!("row missing column {name}")))?;
                if dtype == DataType::Int && cell.parse::<i64>().is_err() {
                    dtype = DataType::Float;
                }
                if dtype == DataType::Float && cell.parse::<f64>().is_err() {
                    dtype = DataType::Cat;
                    break;
                }
            }
            fields.push(Field::new(*name, dtype));
        }
        let mut builder = TableBuilder::new(Schema::new(fields));
        for (ri, raw) in rows.iter().enumerate() {
            if raw.len() != names.len() {
                return Err(StorageError::Malformed(format!(
                    "row {ri} has {} cells, expected {}",
                    raw.len(),
                    names.len()
                )));
            }
            let vals: Result<Vec<Value>, StorageError> = raw
                .iter()
                .zip(builder.schema.fields())
                .map(|(cell, f)| parse_cell(cell, f.dtype))
                .collect();
            builder.push_row(vals?)?;
        }
        Ok(builder.finish())
    }
}

fn parse_cell(cell: &str, dtype: DataType) -> Result<Value, StorageError> {
    match dtype {
        DataType::Int => cell
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| StorageError::Malformed(format!("bad int: {cell}"))),
        DataType::Float => cell
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| StorageError::Malformed(format!("bad float: {cell}"))),
        DataType::Cat => Ok(Value::str(cell)),
    }
}

/// Row-at-a-time or column-at-a-time construction of a [`Table`].
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    /// Columns encode under the process-wide `ZV_ENCODING` policy (see
    /// [`crate::column::EncodePolicy::from_env`]).
    pub fn new(schema: Schema) -> Self {
        Self::with_encoding(schema, crate::column::EncodePolicy::from_env())
    }

    /// Like [`TableBuilder::new`] but with an explicit per-chunk
    /// encoding policy, so one process can build encoded and plain
    /// twins of the same table without racing on the environment.
    pub fn with_encoding(schema: Schema, policy: crate::column::EncodePolicy) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_policy(f.dtype, policy))
            .collect();
        TableBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::Malformed(format!(
                "row width {} != schema width {}",
                values.len(),
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(&values) {
            col.push(v).map_err(StorageError::TypeMismatch)?;
        }
        self.rows += 1;
        Ok(())
    }

    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
            version: next_version(),
            lineage: Vec::new(),
        }
    }

    pub fn finish_shared(self) -> Arc<Table> {
        Arc::new(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![
            Value::Int(2015),
            Value::str("chair"),
            Value::Float(10.0),
        ])
        .unwrap();
        b.push_row(vec![
            Value::Int(2016),
            Value::str("desk"),
            Value::Float(20.5),
        ])
        .unwrap();
        b.finish()
    }

    #[test]
    fn build_and_read_back() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(
            t.row(1),
            vec![Value::Int(2016), Value::str("desk"), Value::Float(20.5)]
        );
        assert_eq!(t.column("product").unwrap().cardinality(), 2);
        assert!(t.column("nope").is_err());
    }

    #[test]
    fn attribute_classification() {
        let t = sample();
        assert_eq!(t.categorical_names(), vec!["product"]);
        assert_eq!(t.numeric_names(), vec!["year", "sales"]);
        assert_eq!(t.attribute_names(), vec!["year", "product", "sales"]);
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let csv = t.to_csv();
        let t2 = Table::from_csv(&csv).unwrap();
        assert_eq!(t2.num_rows(), 2);
        assert_eq!(t2.schema().field("year").unwrap().dtype, DataType::Int);
        assert_eq!(t2.schema().field("product").unwrap().dtype, DataType::Cat);
        assert_eq!(t2.schema().field("sales").unwrap().dtype, DataType::Float);
        assert_eq!(t2.row(0), t.row(0));
    }

    #[test]
    fn append_rows_bumps_version_and_validates_atomically() {
        let mut t = sample();
        let v0 = t.version();
        let n = t
            .append_rows(&[
                vec![Value::Int(2017), Value::str("lamp"), Value::Float(3.5)],
                vec![Value::Int(2018), Value::str("chair"), Value::Float(4.0)],
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.num_rows(), 4);
        assert!(t.version() > v0, "append must advance the version");
        assert_eq!(
            t.row(2),
            vec![Value::Int(2017), Value::str("lamp"), Value::Float(3.5)]
        );

        // A bad row anywhere in the batch must leave the table untouched.
        let v1 = t.version();
        let err = t.append_rows(&[
            vec![Value::Int(2019), Value::str("desk"), Value::Float(1.0)],
            vec![Value::Int(2019), Value::Float(9.9), Value::Float(1.0)],
        ]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 4, "failed append must be atomic");
        assert_eq!(t.version(), v1, "failed append must not bump the version");
        assert!(t
            .append_rows(&[vec![Value::Int(2019), Value::str("desk")]])
            .is_err());
    }

    #[test]
    fn append_table_remaps_dictionaries() {
        let mut a = sample();
        let mut b = TableBuilder::new(a.schema().clone());
        // "desk" and "sofa" intern in a different order than in `a`.
        b.push_row(vec![
            Value::Int(2017),
            Value::str("desk"),
            Value::Float(1.0),
        ])
        .unwrap();
        b.push_row(vec![
            Value::Int(2018),
            Value::str("sofa"),
            Value::Float(2.0),
        ])
        .unwrap();
        let b = b.finish();
        let v0 = a.version();
        assert_eq!(a.append_table(&b).unwrap(), 2);
        assert_eq!(a.num_rows(), 4);
        assert!(a.version() > v0);
        assert_eq!(a.row(2)[1], Value::str("desk"));
        assert_eq!(a.row(3)[1], Value::str("sofa"));
        assert_eq!(a.column("product").unwrap().cardinality(), 3);

        // Mismatched schema rejected.
        let other = Table::from_csv("a\n1\n").unwrap();
        assert!(a.append_table(&other).is_err());
    }

    #[test]
    fn empty_appends_do_not_bump_the_version() {
        let mut t = sample();
        let v = t.version();
        assert_eq!(t.append_rows(&[]).unwrap(), 0);
        assert_eq!(t.version(), v, "empty batch must not retire the snapshot");
        let empty = TableBuilder::new(t.schema().clone()).finish();
        assert_eq!(t.append_table(&empty).unwrap(), 0);
        assert_eq!(t.version(), v);
    }

    #[test]
    fn lineage_proves_pure_append_ancestry() {
        let mut t = sample();
        let v0 = t.version();
        assert_eq!(t.ancestor_rows(v0), Some(2), "current version is trivial");
        t.append_rows(&[vec![
            Value::Int(2017),
            Value::str("lamp"),
            Value::Float(3.5),
        ]])
        .unwrap();
        let v1 = t.version();
        assert_eq!(t.ancestor_rows(v0), Some(2), "v0 had two rows");
        assert_eq!(t.ancestor_rows(v1), Some(3));
        let other = sample();
        assert_eq!(
            t.ancestor_rows(other.version()),
            None,
            "foreign versions are not ancestors"
        );
        // Failed and empty appends leave the chain untouched.
        assert!(t
            .append_rows(&[vec![Value::Int(1), Value::Float(2.0), Value::Float(3.0)]])
            .is_err());
        assert_eq!(t.append_rows(&[]).unwrap(), 0);
        assert_eq!(t.ancestor_rows(v0), Some(2));
        assert_eq!(t.version(), v1);
    }

    #[test]
    fn lineage_ages_out_oldest_first() {
        let mut t = sample();
        let v0 = t.version();
        for i in 0..super::LINEAGE_CAP as i64 {
            t.append_rows(&[vec![
                Value::Int(2020 + i),
                Value::str("x"),
                Value::Float(1.0),
            ]])
            .unwrap();
        }
        // The chain holds exactly LINEAGE_CAP entries, v0 still among
        // them; the next append pushes it out.
        assert_eq!(t.ancestor_rows(v0), Some(2));
        t.append_rows(&[vec![Value::Int(1), Value::str("y"), Value::Float(1.0)]])
            .unwrap();
        assert_eq!(
            t.ancestor_rows(v0),
            None,
            "the original snapshot fell off the capped chain"
        );
        // The most recent retirees are still provable.
        let vn = t.version();
        t.append_rows(&[vec![Value::Int(1), Value::str("y"), Value::Float(1.0)]])
            .unwrap();
        assert_eq!(t.ancestor_rows(vn), Some(3 + super::LINEAGE_CAP));
    }

    #[test]
    fn versions_are_process_unique() {
        let t1 = sample();
        let t2 = sample();
        assert_ne!(
            t1.version(),
            t2.version(),
            "independent builds must not share a version"
        );
    }

    #[test]
    fn mismatched_row_width_rejected() {
        let t = sample();
        let mut b = TableBuilder::new(t.schema().clone());
        assert!(b.push_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn csv_bad_rows_rejected() {
        assert!(Table::from_csv("").is_err());
        assert!(Table::from_csv("a,b\n1").is_err());
        assert!(Table::from_csv("a\nx\n").is_ok());
        // mixed int/text column falls back to categorical
        let t = Table::from_csv("a\n1\nnot_an_int\n").unwrap();
        assert_eq!(t.schema().field("a").unwrap().dtype, DataType::Cat);
        // mixed int/float column falls back to float
        let t = Table::from_csv("a\n1\n2.5\n").unwrap();
        assert_eq!(t.schema().field("a").unwrap().dtype, DataType::Float);
    }
}
