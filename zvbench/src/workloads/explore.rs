//! `explore_cold` and `explore_warm`: one analyst, closed loop,
//! in-process `ZqlEngine::execute_text` on a 500-product sales `BitmapDb`
//! with the shipped defaults.
//!
//! * cold — 1 M rows, constants never repeat, so every op is a true
//!   scan: `storage.exec` does the work and the cache none (the run is
//!   invalid if more than 5 % of lookups were answered without a scan);
//! * warm — the same templates drawn Zipf(1.1) from 4096 distinct
//!   queries, four times the cache's default 1024 entries: hits, derived
//!   hits, evictions and admission all happen. Its table is 50 k rows:
//!   at Zipf(1.1) one lookup in seven still misses, and on the 1 M-row
//!   table those scans were 84 % of the window — the workload measured
//!   scan kernels, not the cache. With a miss a twentieth the price the
//!   cache and the ZQL executor do most of the work and `storage.exec`
//!   about a third.

use std::sync::Arc;
use std::time::Instant;

use zql::{ZqlEngine, ZqlOutput};
use zv_datagen::sales::{self, SalesConfig};
use zv_storage::{BitmapDb, Database, ScanDb, SelectQuery, Table};

use crate::common::{self, ClosedLoop, Outcome, RunCfg};
use crate::ops::{ExploreOp, NeverRepeat, ZipfStream, WARMUP_BASE};
use crate::oracle;
use crate::stats;
use crate::trace::{Scope, Tracer};

pub const ROWS: usize = 1_000_000;
pub const ROWS_WARM: usize = 50_000;
pub const PRODUCTS: usize = 500;
/// explore_warm's universe: 4× `CacheConfig::default().max_entries`.
pub const UNIVERSE: usize = 4096;
pub const ZIPF_S: f64 = 1.1;
/// Untimed ops before the window: enough for lazy set-up (cold) or for
/// the cache to fill and start evicting (warm).
const WARMUP_COLD: u64 = 64;
const WARMUP_WARM: u64 = 2048;
/// Ops whose queries feed the scan / cache-hit probes of a traced run.
const PROBE_OPS: usize = 64;
const _: () = assert!(PROBE_OPS <= UNIVERSE);

const TAG_TABLE: u64 = 0x7ab1e;
const TAG_STREAM: u64 = 0x0b5;

pub struct Built {
    pub table: Arc<Table>,
    pub db: Arc<BitmapDb>,
    pub engine: ZqlEngine,
    pub gen_s: f64,
}

pub fn build(cfg: &RunCfg, rows: usize, products: usize, table_seed: u64) -> Built {
    let t = Instant::now();
    let table = sales::generate(&SalesConfig {
        rows: cfg.rows(rows),
        products,
        seed: table_seed,
        ..Default::default()
    });
    let gen_s = t.elapsed().as_secs_f64();
    let db = Arc::new(BitmapDb::new(table.clone()));
    let engine = ZqlEngine::new(db.clone());
    Built {
        table,
        db,
        engine,
        gen_s,
    }
}

enum Stream {
    Cold(NeverRepeat),
    Warm(Box<ZipfStream>),
}

struct Explore {
    engine: ZqlEngine,
    oracle: ScanDb,
    stream: Stream,
    /// The op that just ran and what it answered, for the oracle.
    last: Option<(ExploreOp, ZqlOutput)>,
}

impl Explore {
    fn next_op(&mut self, id: u64) -> ExploreOp {
        match &mut self.stream {
            Stream::Cold(s) => s.op(id),
            Stream::Warm(s) => s.next_op(),
        }
    }
}

/// One ZQL op. Untraced it is `execute_text` and nothing else; traced,
/// parse and execute get a span each and the in-process callees' time
/// comes from the report the call returns.
pub fn zql_op(engine: &ZqlEngine, text: &str, scope: &mut Scope<'_>) -> Result<ZqlOutput, String> {
    let Some((tracer, root)) = scope else {
        return engine.execute_text(text).map_err(|e| e.to_string());
    };
    let op_id = tracer.spans[*root as usize].op_id;
    let p = tracer.open(op_id, "zql.parse", Some(*root));
    let query = zql::parse_query(text);
    tracer.close(p);
    let query = query.map_err(|e| e.to_string())?;
    let e = tracer.open(op_id, "zql.execute", Some(*root));
    let out = engine.execute(&query);
    tracer.close(e);
    let out = out.map_err(|e| e.to_string())?;
    report_spans(tracer, e, &out.report);
    Ok(out)
}

/// Split an execute span by the `ExecReport` it returned.
pub fn report_spans(tracer: &mut Tracer, execute: u32, r: &zql::ExecReport) {
    let op_id = tracer.spans[execute as usize].op_id;
    tracer.child_of(execute, "exec.db", r.db_time.as_nanos() as u64);
    tracer.child_of(execute, "zql.compute", r.compute_time.as_nanos() as u64);
    tracer.count(op_id, "sql_queries", r.sql_queries as f64);
    tracer.count(op_id, "requests", r.requests as f64);
}

impl ClosedLoop for Explore {
    fn op(&mut self, id: u64, mut tracer: Scope<'_>) -> Result<(), String> {
        let op = self.next_op(id);
        let out = zql_op(&self.engine, &op.text, &mut tracer)?;
        self.last = Some((op, out));
        Ok(())
    }

    fn check(&mut self, _id: u64) -> Result<(), String> {
        let (op, out) = self.last.as_ref().ok_or("no op to check")?;
        oracle::check_explore(&oracle::seen_of_output(out), &op.expects, &self.oracle)
    }
}

pub fn run(cfg: &RunCfg, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let rows = if warm { ROWS_WARM } else { ROWS };
    let (built, build_s) =
        common::timed_setups(|| build(cfg, rows, PRODUCTS, cfg.table_seed(TAG_TABLE)));
    let Built {
        table,
        db,
        engine,
        gen_s,
    } = built;

    let mut w = Explore {
        engine,
        oracle: common::oracle_db(table.clone()),
        stream: if warm {
            Stream::Warm(Box::new(ZipfStream::new(
                cfg.seed, TAG_STREAM, UNIVERSE, ZIPF_S,
            )))
        } else {
            Stream::Cold(NeverRepeat::new(cfg.seed, TAG_STREAM))
        },
        last: None,
    };
    let t = Instant::now();
    for i in 0..if warm { WARMUP_WARM } else { WARMUP_COLD } {
        let op = match &mut w.stream {
            Stream::Cold(s) => s.op(WARMUP_BASE + i),
            Stream::Warm(s) => s.next_op(),
        };
        if let Err(e) = w.engine.execute_text(&op.text) {
            out.fail(format!("warm-up op {i}: {e}"));
        }
    }
    let setup_s = build_s + t.elapsed().as_secs_f64();

    let before = db.stats().snapshot();
    let res = common::run_closed(&mut w, cfg.seconds, cfg.trace);
    let delta = db.stats().snapshot().since(&before);
    common::report_closed(&mut out, cfg, setup_s, &res);

    // Validity gates on the window's own ledger, traced or not.
    let lookups = common::lookups(&delta);
    let scan_free = (delta.cache_hits + delta.cache_derived_hits) as f64 / lookups.max(1) as f64;
    out.note(format!(
        "cache ledger: {} hits, {} derived, {} misses, {} evictions over {} ops (scan-free {:.3})",
        delta.cache_hits,
        delta.cache_derived_hits,
        delta.cache_misses,
        delta.cache_evictions,
        res.attempted,
        scan_free
    ));
    if !warm && scan_free > 0.05 {
        out.invalid.push(format!(
            "explore_cold answered {scan_free:.3} of lookups without a scan (limit 0.05)"
        ));
    }
    if warm && !cfg.smoke && (scan_free < 0.70 || delta.cache_evictions == 0) {
        out.invalid.push(format!(
            "explore_warm scan-free ratio {scan_free:.3} (need >= 0.70) with {} evictions (need > 0)",
            delta.cache_evictions
        ));
    }

    if cfg.trace {
        out.set("datagen.rows_per_s", table.num_rows() as f64 / gen_s);
        common::layer_times(&mut out, &res.tracer);
        common::cache_ledger(&mut out, &delta, db.cache_stats(), res.attempted);
        common::column_footprint(&mut out, &table);
        // The probes replay the queries behind the stream's first ops.
        let probe: Vec<SelectQuery> = (0..PROBE_OPS as u64)
            .flat_map(|i| match &w.stream {
                Stream::Cold(s) => s.op(i).expects,
                Stream::Warm(s) => s.universe.by_rank(i as usize).expects,
            })
            .map(|e| e.query)
            .collect();
        common::probe_scan_and_hit(&mut out, table.clone(), &probe);
        // Lookups × the probed exact-hit cost: what of the executor's
        // self time the cache accounts for, as far as the outside sees.
        let ops = res.attempted.max(1) as f64;
        let hit_ms = out.metrics["cache.hit_us"] / 1e3;
        let op_ms = stats::mean(&stats::ms_of(&res.traced));
        out.set(
            "share.cache_est",
            (lookups as f64 / ops) * hit_ms / op_ms.max(1e-12),
        );
    }
    out
}
