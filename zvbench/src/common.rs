//! Pieces every workload shares: run configuration, the result a run
//! reports, repeated set-up timing, the closed-loop driver, the counter
//! ledgers read at window boundaries, and the direct lower-layer probes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zv_storage::{
    BitmapDb, CacheStats, Database, ParallelConfig, ScanDb, ScanDbConfig, SelectQuery,
    StatsSnapshot, Table,
};

use crate::spec;
use crate::stats::{self, Latency, Sample};
use crate::trace::{Scope, Tracer};

/// How often a set-up is rebuilt so `setup_s` can be a median.
pub const SETUP_REPEATS: usize = 3;
/// Ids of untimed warm-up ops start here, far above any window's.
pub const WARMUP_ID: u64 = 1 << 40;
/// Every this-many-th op is re-answered by the oracle.
pub const ORACLE_EVERY: u64 = 64;
/// Traced runs alternate traced and untraced slices of this length, so
/// `trace.overhead_ratio` compares like with like inside one run.
const TRACE_SLICE: Duration = Duration::from_millis(250);

#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: tables a tenth the size (windows are the caller's).
    pub smoke: bool,
    /// Where scratch data directories and the trace file go.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// A table size, a tenth of it under `--smoke`.
    pub fn rows(&self, full: usize) -> usize {
        if self.smoke {
            full / 10
        } else {
            full
        }
    }

    /// The run seed folded into a datagen config seed.
    pub fn table_seed(&self, tag: u64) -> u64 {
        crate::rng::mix(self.seed ^ crate::rng::mix(tag))
    }

    /// A fresh scratch directory for this run (removed by the caller).
    pub fn scratch(&self, what: &str) -> PathBuf {
        self.out_dir.join(format!(
            "scratch-{}-{}-{}-{what}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Validity gates that did not hold (the run is then not `correct`).
    pub invalid: Vec<String>,
    /// Human-readable lines for stderr: sample counts, p99/max, notes.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(spec::unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed op with its cause (first few are printed).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 8 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// The end-to-end metrics every untraced run reports.
    pub fn end_to_end(&mut self, setup_s: f64, lat: &Latency, throughput: f64) {
        self.set("setup_s", setup_s);
        self.set("latency_p50_ms", lat.p50);
        self.set("latency_p95_ms", lat.p95);
        self.set("throughput_ops_s", throughput);
        self.set("peak_rss_mb", peak_rss_mb());
        self.note(format!(
            "latency: n={} p50={:.4} ms p{:.0}={:.4} ms over {} slice(s); p99={} max={:.3} ms (information only)",
            lat.n,
            lat.p50,
            lat.p95_q * 100.0,
            lat.p95,
            lat.slices,
            lat.p99.map_or("n/a".to_string(), |v| format!("{v:.3} ms")),
            lat.max
        ));
        if lat.p95_q < 0.95 {
            self.note(format!(
                "WARNING: only {} samples — latency_p95_ms is really p{:.1}",
                lat.n,
                lat.p95_q * 100.0
            ));
        }
    }
}

/// Keep glibc malloc's big buffers on the heap, and the heap in the
/// process: mmap threshold at its 32 MiB maximum, trim threshold out of
/// reach. Only `live_tick` does this.
///
/// Every `append_rows` copies the table, each float column as one
/// buffer (8 MiB at 1 M rows, where these numbers were taken). Where
/// such a buffer comes from is up to glibc's *dynamic* mmap threshold,
/// and where that settles depends on the order of the first few frees:
/// left alone, p50 read 20.6 or 25.5 ms on one commit and seed (2.2 M or
/// 2.7 M minor faults). Pinned at the 128 KiB defaults every copy is a
/// fresh `mmap`, faulted in page by page and unmapped on free — 5 M
/// faults in 15 s, two thirds of every tick in the kernel — and the cost
/// of a fault on this shared VM drifts between 1.6 and 2.7 us within
/// minutes: ten runs of one commit spread 40 % of their median. Pinned
/// high, a freed copy's pages stay mapped and the next copy reuses them:
/// 0.1 M faults (set-up's, and the table's growth), p50 6.7 ms for
/// 12.6 ms, and what is timed is the program's own copying, encoding and
/// fsync. It is also where a long-lived `zv-serve` ends up: the adjuster
/// only ever raises the thresholds, to the largest mmapped block freed.
///
/// The price is `peak_rss_mb`: the heap keeps what ticks free, in holes
/// whose layout differs by run (same seed, same bytes in use, main arena
/// 47 to 64 MiB), so ten seeds read 62 to 74 MiB where fresh mmaps
/// repeated within 0.2 %. Thresholds of 4 or 8 MiB, which send the checkpoint's
/// and set-up's buffers back to `mmap`, narrowed that by a third at
/// most, and bring this cliff nearer: a buffer above the threshold is
/// mmapped, and `Vec` doubles when the copy's first row is pushed, so
/// at 32 MiB it stands at a 16 MiB column, 2 M rows. A 20 s window ends
/// at 320 k.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented, thread-safe tuning entry
    // point (it takes the arena lock); it takes two ints and changes
    // allocator parameters only.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() {}

/// `VmHWM` of this process in MiB — each workload runs in a process of
/// its own, so the peak is the workload's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build the workload's state [`SETUP_REPEATS`] times (dropping each
/// before the next so peak memory stays one copy) and keep the last.
/// Returns the state and the median build time in seconds.
pub fn timed_setups<S>(mut build: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS > 0"), stats::median(&times))
}

/// A closed-loop workload: one client, the next op starts when the
/// previous one completes — or, if the workload is paced, at the op's
/// due time when that is later.
pub trait ClosedLoop {
    /// Paced loops: op `id` is due `id` periods into the window. The
    /// client thinks (spins) until then; an op that is already late goes
    /// out at once, and latency is the op's own time either way.
    fn period(&self) -> Option<Duration> {
        None
    }

    /// One timed op. With a tracer, record spans around every call into
    /// a layer; the root span is opened and closed by the driver.
    fn op(&mut self, id: u64, tracer: Scope<'_>) -> Result<(), String>;
    /// Untimed: re-answer the op that just ran and compare.
    fn check(&mut self, id: u64) -> Result<(), String>;
    /// Whether op `id` gets an oracle check.
    fn wants_check(&self, id: u64) -> bool {
        id.is_multiple_of(ORACLE_EVERY)
    }
}

pub struct LoopResult {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Samples of untraced ops (all ops of an untraced run).
    pub plain: Vec<Sample>,
    /// Samples of traced ops (empty in an untraced run).
    pub traced: Vec<Sample>,
    /// Window length with oracle pauses taken out.
    pub window_s: f64,
    /// Part of the window a paced client spent waiting for due times.
    pub think_s: f64,
    pub tracer: Tracer,
}

impl LoopResult {
    /// Ops per second of the time the client waited for the program:
    /// the window, less a paced client's think time.
    pub fn throughput(&self) -> f64 {
        self.attempted as f64 / (self.window_s - self.think_s).max(1e-9)
    }

    /// p50(traced) ÷ p50(untraced) over the alternating slices.
    pub fn overhead_ratio(&self) -> f64 {
        let p50 = |s: &[Sample]| stats::median(&stats::ms_of(s));
        if self.plain.is_empty() || self.traced.is_empty() {
            return 0.0;
        }
        p50(&self.traced) / p50(&self.plain).max(1e-12)
    }
}

/// Run `w` closed-loop for `seconds`. Oracle checks run between ops
/// with the window clock stopped, so they cost neither latency nor
/// throughput.
pub fn run_closed(w: &mut impl ClosedLoop, seconds: f64, trace: bool) -> LoopResult {
    let mut res = LoopResult {
        attempted: 0,
        failures: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        window_s: 0.0,
        think_s: 0.0,
        tracer: Tracer::new(),
    };
    let period = w.period();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut id = 0u64;
    loop {
        let mut at = start.elapsed() - paused;
        if let Some(p) = period {
            // Spin, not sleep: a sleeping vCPU wakes late and cold.
            let due = p.mul_f64(id as f64);
            if due.as_secs_f64() >= seconds {
                break;
            }
            let from = at;
            while at < due {
                std::hint::spin_loop();
                at = start.elapsed() - paused;
            }
            res.think_s += (at - from).as_secs_f64();
        }
        if at.as_secs_f64() >= seconds {
            break;
        }
        let traced = trace && (at.as_millis() / TRACE_SLICE.as_millis()) % 2 == 1;
        let t = Instant::now();
        let outcome = if traced {
            let root = res.tracer.open(id, "op", None);
            let r = w.op(id, Some((&mut res.tracer, root)));
            res.tracer.close(root);
            r
        } else {
            w.op(id, None)
        };
        let sample = Sample {
            at_s: at.as_secs_f64(),
            ms: t.elapsed().as_secs_f64() * 1e3,
        };
        res.attempted += 1;
        if traced {
            &mut res.traced
        } else {
            &mut res.plain
        }
        .push(sample);
        if let Err(e) = outcome {
            res.failures.push(format!("op {id}: {e}"));
        } else if w.wants_check(id) {
            let t = Instant::now();
            if let Err(e) = w.check(id) {
                res.failures.push(format!("op {id} oracle: {e}"));
            }
            paused += t.elapsed();
        }
        id += 1;
    }
    res.window_s = (start.elapsed() - paused).as_secs_f64();
    res
}

/// Fold a closed loop's result into the outcome: failures, then the
/// end-to-end metrics (untraced) or the trace bookkeeping (traced).
pub fn report_closed(out: &mut Outcome, cfg: &RunCfg, setup_s: f64, res: &LoopResult) {
    out.attempted = res.attempted;
    for f in &res.failures {
        out.fail(f.clone());
    }
    if cfg.trace {
        out.set("trace.overhead_ratio", res.overhead_ratio());
        out.set("trace.ops", res.traced.len() as f64);
        out.set("trace.spans", res.tracer.spans.len() as f64);
        match res.tracer.write_jsonl(&cfg.trace_path()) {
            Ok(()) => out.note(format!("trace written to {}", cfg.trace_path().display())),
            Err(e) => out.note(format!("WARNING: trace not written: {e}")),
        }
    } else {
        match stats::summarize(&res.plain, res.window_s) {
            Some(lat) => out.end_to_end(setup_s, &lat, res.throughput()),
            None => out
                .invalid
                .push(format!("only {} samples in the window", res.plain.len())),
        }
    }
}

/// Cache lookups of a window: the four classes of the ledger.
pub fn lookups(d: &StatsSnapshot) -> u64 {
    d.cache_hits + d.cache_derived_hits + d.ivm_hits + d.cache_misses
}

/// The cache's four-class ledger and friends over a window, from the
/// engine's public counters.
pub fn cache_ledger(out: &mut Outcome, d: &StatsSnapshot, cache: Option<CacheStats>, ops: u64) {
    let lookups = lookups(d) as f64;
    let share = |n: u64| {
        if lookups > 0.0 {
            n as f64 / lookups
        } else {
            0.0
        }
    };
    out.set("cache.hit_ratio", share(d.cache_hits));
    out.set("cache.derived_ratio", share(d.cache_derived_hits));
    out.set("cache.ivm_ratio", share(d.ivm_hits));
    out.set("cache.miss_ratio", share(d.cache_misses));
    out.set(
        "cache.scan_free_ratio",
        share(d.cache_hits + d.cache_derived_hits),
    );
    out.set(
        "cache.evictions_per_kop",
        d.cache_evictions as f64 * 1000.0 / ops.max(1) as f64,
    );
    out.set(
        "cache.admission_reject_ratio",
        if d.cache_misses > 0 {
            d.cache_admission_rejects as f64 / d.cache_misses as f64
        } else {
            0.0
        },
    );
    out.set(
        "cache.resident_bytes",
        cache.map_or(0.0, |c| c.bytes as f64),
    );
    out.set(
        "exec.rows_scanned_per_op",
        d.rows_scanned as f64 / ops.max(1) as f64,
    );
    let per = |n: u64, of: u64| if of > 0 { n as f64 / of as f64 } else { 0.0 };
    out.set(
        "exec.morsels_per_scan",
        per(d.morsels_dispatched, d.morsel_scans),
    );
    out.set(
        "exec.morsel_steal_ratio",
        per(d.morsel_steals, d.morsels_dispatched),
    );
    // Workers that found the scan already drained, per parallel scan.
    out.set(
        "exec.idle_worker_ratio",
        per(d.morsel_idle_workers, d.morsel_scans),
    );
}

/// Column-store footprint of a loaded table.
pub fn column_footprint(out: &mut Outcome, table: &Table) {
    let (mut bytes, mut encoded, mut chunks) = (0usize, 0usize, 0usize);
    for i in 0..table.schema().len() {
        let col = table.column_at(i);
        bytes += col.heap_bytes();
        if let Some(c) = col.encoding_counts() {
            encoded += c.packed + c.rle;
            chunks += c.packed + c.rle + c.plain;
        }
    }
    out.set(
        "column.resident_bytes_per_row",
        bytes as f64 / table.num_rows().max(1) as f64,
    );
    out.set(
        "column.encoded_chunk_ratio",
        if chunks > 0 {
            encoded as f64 / chunks as f64
        } else {
            0.0
        },
    );
}

/// Fold the traced ops' `ExecReport`-derived spans into the per-layer
/// time metrics and the self-time shares.
pub fn layer_times(out: &mut Outcome, tracer: &Tracer) {
    let own = tracer.self_ms();
    let med = |name: &str| own.get(name).map_or(0.0, |v| stats::median(v));
    out.set("zql.parse_us", med("zql.parse") * 1e3);
    out.set("zql.exec_self_ms", med("zql.execute"));
    out.set("zql.compute_ms", med("zql.compute"));
    out.set("exec.db_ms", med("exec.db"));
    let shares = tracer.shares();
    let sh = |names: &[&str]| {
        names
            .iter()
            .map(|n| shares.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    out.set("share.zql_parse", sh(&["zql.parse"]));
    out.set("share.zql_exec_self", sh(&["zql.execute"]));
    out.set("share.zql_compute", sh(&["zql.compute"]));
    out.set("share.exec", sh(&["exec.db"]));
    out.set(
        "share.persist",
        sh(&[
            "persist.append",
            "persist.checkpoint",
            "persist.open",
            "persist.drop",
        ]),
    );
    out.set("share.server", sh(&["net.roundtrip", "net.wait"]));
    out.set("share.harness", sh(&["op"]));
    let ops = tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count()
        .max(1) as f64;
    out.set("zql.sql_queries_per_op", tracer.total("sql_queries") / ops);
    out.set("zql.requests_per_op", tracer.total("requests") / ops);
}

/// The oracle's engine: an uncached, strictly serial `ScanDb` over the
/// same table snapshot — nothing it shares with the measured engine but
/// the rows.
pub fn oracle_db(table: Arc<Table>) -> ScanDb {
    ScanDb::with_config(
        table,
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 1,
                min_parallel_rows: usize::MAX,
                ..ParallelConfig::default()
            },
            ..ScanDbConfig::uncached()
        },
    )
}

/// `exec.scan_ns_per_row` and `cache.hit_us`, probed on a second
/// `BitmapDb` over the same table so the measured engine's cache never
/// sees them: raw cache-bypassing `Database::execute` per scanned row,
/// and `run_request` on a key made resident a moment before.
pub fn probe_scan_and_hit(out: &mut Outcome, table: Arc<Table>, queries: &[SelectQuery]) {
    if queries.is_empty() {
        return;
    }
    let db = BitmapDb::new(table);
    let mut ns_per_row = Vec::new();
    for q in queries {
        let before = db.stats().snapshot();
        let t = Instant::now();
        let ok = db.execute(q).is_ok();
        let ns = t.elapsed().as_nanos() as f64;
        let rows = db.stats().snapshot().since(&before).rows_scanned;
        if ok && rows > 0 {
            ns_per_row.push(ns / rows as f64);
        }
    }
    out.set("exec.scan_ns_per_row", stats::median(&ns_per_row));
    let mut hit_us = Vec::new();
    for q in queries {
        let one = std::slice::from_ref(q);
        if db.run_request(one).is_err() {
            continue;
        }
        let before = db.stats().snapshot();
        let t = Instant::now();
        let _ = std::hint::black_box(db.run_request(one));
        let us = t.elapsed().as_secs_f64() * 1e6;
        // Only a real exact hit counts (tiny results may be refused
        // admission and rescanned).
        if db.stats().snapshot().since(&before).cache_hits == 1 {
            hit_us.push(us);
        }
    }
    out.set("cache.hit_us", stats::median(&hit_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Paced;

    impl ClosedLoop for Paced {
        fn period(&self) -> Option<Duration> {
            Some(Duration::from_millis(2))
        }
        fn op(&mut self, id: u64, _: Scope<'_>) -> Result<(), String> {
            if id == 10 {
                std::thread::sleep(Duration::from_millis(7));
            }
            Ok(())
        }
        fn check(&mut self, _: u64) -> Result<(), String> {
            Ok(())
        }
        fn wants_check(&self, _: u64) -> bool {
            false
        }
    }

    #[test]
    fn a_paced_loop_never_issues_an_op_before_it_is_due() {
        let res = run_closed(&mut Paced, 0.1, false);
        // 50 periods fit; a stalled box may cut the last ones off.
        assert!(res.attempted > 11 && res.attempted <= 50);
        for (i, s) in res.plain.iter().enumerate() {
            assert!(s.at_s >= 0.002 * i as f64, "op {i} went out early");
        }
        // Op 11 fell due while op 10 ran, and went out at once.
        assert!(res.plain[11].at_s >= res.plain[10].at_s + 0.007);
        // Thinking is part of the window and no part of the throughput.
        assert!(res.think_s > 0.0 && res.think_s < res.window_s);
        assert!(res.throughput() > res.attempted as f64 / res.window_s);
    }
}
