//! `cold_start`: recovery and nothing else. A directory holding a
//! snapshot plus a 128-frame × 64-row WAL, built during set-up; each op
//! is `BitmapDb::open_durable` → first dashboard query answered → drop.
//! Every op checks the `RecoveryReport` (version, frames and rows
//! replayed) and a checksum group-by against the state acknowledged at
//! set-up.
//!
//! `persist` recovery and index rebuild do all the work — mmap or
//! incremental-snapshot work shows here. Reads come from the OS page
//! cache, so the number is this sandbox's, not a device's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_storage::{BitmapDb, BitmapDbConfig, Database, RecoveryReport, ResultTable, Value};

use crate::common::{self, ClosedLoop, Outcome, RunCfg};
use crate::oracle;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{spanned, Scope};
use crate::workloads::explore::zql_op;
use crate::workloads::live::{dir_bytes, panels, table_user_bytes, user_bytes};

/// Snapshot rows. The issue's 500 k would leave ~130 ops in a 20 s
/// window; 50 k puts several hundred samples (three slices) behind p95
/// inside the contract's run time, with snapshot load and WAL replay
/// each about half of a recovery.
pub const ROWS: usize = 50_000;
pub const PRODUCTS: usize = 50;
pub const WAL_FRAMES: u64 = 128;
pub const FRAME_ROWS: usize = 64;
const TAG_TABLE: u64 = 0xc01d;

/// What set-up acknowledged: every op must recover exactly this.
struct Acked {
    version: u64,
    rows: usize,
    /// Raw serial answer of the first dashboard query on that state.
    checksum: ResultTable,
    user_bytes: u64,
    gen_s: f64,
}

fn seed_dir(cfg: &RunCfg, dir: &Path) -> Result<Acked, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let table = sales::generate(&SalesConfig {
        rows: cfg.rows(ROWS),
        products: PRODUCTS,
        seed: cfg.table_seed(TAG_TABLE),
        ..Default::default()
    });
    let gen_s = t.elapsed().as_secs_f64();
    let mut user = if cfg.trace {
        table_user_bytes(&table)
    } else {
        0
    };
    let seed_table = table.clone();
    let db = BitmapDb::open_durable(dir, BitmapDbConfig::default(), move || seed_table)
        .map_err(|e| format!("open_durable: {e}"))?;
    let mut rng = Rng::new(cfg.seed, TAG_TABLE);
    for _ in 0..WAL_FRAMES {
        let batch: Vec<Vec<Value>> = (0..FRAME_ROWS)
            .map(|_| table.row(rng.below(table.num_rows() as u64) as usize))
            .collect();
        db.append_rows(&batch)
            .map_err(|e| format!("append_rows: {e}"))?;
        user += user_bytes(&batch);
    }
    let acked = db.table();
    let (_, first) = &panels()[0];
    let checksum = common::oracle_db(acked.clone())
        .execute(&first.query)
        .map_err(|e| e.to_string())?;
    Ok(Acked {
        version: acked.version(),
        rows: acked.num_rows(),
        checksum,
        user_bytes: user,
        gen_s,
    })
}

struct Cold {
    dir: PathBuf,
    acked: Acked,
    first_query: String,
    last: Option<(RecoveryReport, usize, zql::ZqlOutput)>,
}

impl ClosedLoop for Cold {
    fn op(&mut self, _id: u64, mut tracer: Scope<'_>) -> Result<(), String> {
        let db = spanned(&mut tracer, "persist.open", || {
            BitmapDb::open_durable(&self.dir, BitmapDbConfig::default(), || {
                unreachable!("the directory was seeded at set-up")
            })
        });
        let db = Arc::new(db.map_err(|e| format!("open_durable: {e}"))?);
        let report = db
            .persistence()
            .ok_or("no persistence handle")?
            .recovery_report();
        let rows = db.table().num_rows();
        let engine = ZqlEngine::new(db.clone());
        let out = zql_op(&engine, &self.first_query, &mut tracer)?;
        spanned(&mut tracer, "persist.drop", || {
            drop(engine);
            drop(db);
        });
        self.last = Some((report, rows, out));
        Ok(())
    }

    fn check(&mut self, _id: u64) -> Result<(), String> {
        let (report, rows, out) = self.last.as_ref().ok_or("no op to check")?;
        let a = &self.acked;
        if report.recovered_version != Some(a.version)
            || report.frames_replayed != WAL_FRAMES
            || report.rows_replayed != WAL_FRAMES * FRAME_ROWS as u64
            || report.torn_bytes_truncated != 0
            || *rows != a.rows
        {
            return Err(format!(
                "recovered {rows} rows, {report:?}; acknowledged {} rows at version {}",
                a.rows, a.version
            ));
        }
        let seen = oracle::seen_of_output(out);
        let want = a
            .checksum
            .groups
            .first()
            .map_or(Vec::new(), |g| g.points(0));
        if seen.len() == 1 && oracle::same_points(&seen[0].points, &want) {
            Ok(())
        } else {
            Err("first query after recovery disagrees with the acknowledged state".to_string())
        }
    }

    /// Every op is checked: the comparison is against stored state and
    /// costs microseconds.
    fn wants_check(&self, _id: u64) -> bool {
        true
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.scratch("cold");
    let (acked, build_s) = common::timed_setups(|| seed_dir(cfg, &dir));
    let acked = match acked {
        Ok(a) => a,
        Err(e) => {
            out.invalid.push(e);
            return out;
        }
    };
    let mut w = Cold {
        dir: dir.clone(),
        acked,
        first_query: panels()[0].0.clone(),
        last: None,
    };
    // Warm-up: two untimed recoveries pull the files into the page cache.
    let t = Instant::now();
    for i in 0..2u64 {
        if let Err(e) = w.op(common::WARMUP_ID + i, None).and_then(|()| w.check(i)) {
            out.fail(format!("warm-up recovery {i}: {e}"));
        }
    }
    let setup_s = build_s + t.elapsed().as_secs_f64();

    let res = common::run_closed(&mut w, cfg.seconds, cfg.trace);
    common::report_closed(&mut out, cfg, setup_s, &res);

    if cfg.trace {
        out.set("datagen.rows_per_s", cfg.rows(ROWS) as f64 / w.acked.gen_s);
        common::layer_times(&mut out, &res.tracer);
        let own = res.tracer.self_ms();
        let open = own.get("persist.open").map_or(0.0, |v| stats::median(v));
        out.set("persist.open_ms", open);
        let op = stats::median(&stats::ms_of(&res.traced));
        out.set("persist.first_query_ms", (op - open).max(0.0));
        out.set(
            "persist.frames_replayed",
            w.last.as_ref().map_or(0.0, |l| l.0.frames_replayed as f64),
        );
        let snapshot: u64 = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path() != dir.join("wal.log"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        out.set(
            "persist.snapshot_bytes_per_row",
            snapshot as f64 / cfg.rows(ROWS).max(1) as f64,
        );
        out.set(
            "persist.disk_bytes_per_user_byte",
            dir_bytes(&dir) as f64 / w.acked.user_bytes.max(1) as f64,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
