//! Chaos suite for the session layer: retry, degradation, and breaker
//! policies under deterministic fault injection.
//!
//! Engine-level containment is proven in `zv-storage`'s chaos suite;
//! here the subject is the policy ladder above it — a transient failure
//! is retried on a re-rolled fault epoch, exhausted retries degrade to
//! the injection-free serial path, repeat offenders open a breaker that
//! routes queries serial pre-emptively, and every admitted query still
//! ends in exactly one outcome with exact `SessionStats` bookkeeping.
//!
//! Determinism comes from the same replay trick as the storage suite:
//! [`FaultSpec::fires`] is pure, so tests *search* for a seed with the
//! failure shape they need (fails at epoch 0, clean at epoch 1, …) and
//! then assert exact attempt counts via the engine's cache-miss counter
//! (every real attempt probes the cache exactly once before scanning).

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use zql::{QueryBuilder, ZqlEngine, ZqlError, ZqlQuery};
use zv_datagen::sales::{self, SalesConfig};
use zv_server::{RetryPolicy, SessionConfig, SessionManager, SubmitOptions};
use zv_storage::exec::ParallelConfig;
use zv_storage::fault::{self, FaultPoint, FaultSpec};
use zv_storage::{BitmapDb, BitmapDbConfig, CacheConfig, CancelReason, StorageError};

const ROWS: usize = 30_000;
const MORSEL_ROWS: usize = 4096;

fn dataset() -> Arc<zv_storage::Table> {
    static TABLE: std::sync::OnceLock<Arc<zv_storage::Table>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| {
            sales::generate(&SalesConfig {
                rows: ROWS,
                products: 20,
                ..Default::default()
            })
        })
        .clone()
}

/// Morsels a full-table scan splits into under [`MORSEL_ROWS`].
fn n_morsels() -> usize {
    ROWS.div_ceil(MORSEL_ROWS)
}

fn chaos_engine(spec: FaultSpec, threads: usize) -> Arc<ZqlEngine> {
    Arc::new(ZqlEngine::new(Arc::new(BitmapDb::with_config(
        dataset(),
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads,
                min_parallel_rows: 0,
                morsel_rows: MORSEL_ROWS,
                fault: spec,
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    ))))
}

/// One unconstrained full-table visualization: its storage query scans
/// all [`ROWS`] units, so the morsel count — and with it every fault
/// decision — is known exactly.
fn full_scan_query() -> ZqlQuery {
    QueryBuilder::new()
        .output_row("f1", |r| r.x("year").y("sales"))
        .build()
}

fn lowest_firing(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> Option<u64> {
    (0..n_morsels as u64).find(|&m| spec.fires(FaultPoint::ChunkScanPanic, m, epoch))
}

fn spawn_fires(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> bool {
    spec.fires(FaultPoint::WorkerSpawn, n_morsels as u64, epoch)
}

fn attempt_fails(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> bool {
    spawn_fires(spec, n_morsels, epoch) || lowest_firing(spec, n_morsels, epoch).is_some()
}

/// A query whose first attempt is killed by an injected worker panic
/// retries on an advanced fault epoch and succeeds — returning
/// bit-for-bit what a fault-free engine returns, with exact retry
/// bookkeeping on both the session and engine stats.
#[test]
fn transient_failure_retries_to_exact_result() {
    fault::silence_injected_panics();
    let nm = n_morsels();
    // Deterministic search: a seed whose epoch 0 panics (not a spawn
    // failure) and whose epoch 1 is clean — one retry lands it.
    let seed = (1u64..)
        .find(|&sd| {
            let s = FaultSpec::with_rate(sd, 0.15);
            !spawn_fires(&s, nm, 0)
                && lowest_firing(&s, nm, 0).is_some()
                && !attempt_fails(&s, nm, 1)
        })
        .unwrap();
    let spec = FaultSpec::with_rate(seed, 0.15);
    let engine = chaos_engine(spec, 2);
    let db_before = engine.database().stats().snapshot();
    let mgr = SessionManager::new(
        Arc::clone(&engine),
        SessionConfig {
            max_concurrent: 1,
            max_queued: 16,
            breaker_threshold: 0,
            breaker_window: 0,
        },
    );
    let h = mgr
        .submit_with(
            1,
            full_scan_query(),
            SubmitOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    backoff_base: Duration::from_millis(1),
                    jitter_seed: 42,
                    serial_fallback: false,
                },
                ..Default::default()
            },
        )
        .expect("admitted");
    let out = h.wait().expect("the retry lands on the clean epoch");

    let reference = chaos_engine(FaultSpec::disabled(), 2)
        .execute(&full_scan_query())
        .expect("fault-free reference");
    assert_eq!(
        out.visualizations[0].series, reference.visualizations[0].series,
        "a retried query returns bit-for-bit the fault-free result"
    );

    let stats = mgr.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retried, 1, "counted once however many attempts");
    assert_eq!(stats.degraded, 0, "the retry succeeded in parallel mode");
    let delta = engine.database().stats().snapshot().since(&db_before);
    assert_eq!(delta.worker_panics, 1, "exactly the epoch-0 panic");
    assert_eq!(delta.queries_retried, 1);
    assert_eq!(delta.queries_degraded, 0);
}

/// With injection at rate 1.0 every parallel fan-out fails, so every
/// query must degrade to serial — and after `breaker_threshold`
/// consecutive trips the breaker routes the next `breaker_window`
/// queries serial *without* burning a parallel attempt. Attempt counts
/// are asserted exactly through the cache-miss counter (one probe per
/// real attempt; rate-1.0 cache faults drop every insert, so no attempt
/// is ever served from cache).
#[test]
fn breaker_routes_repeat_offenders_serial() {
    fault::silence_injected_panics();
    let spec = FaultSpec::with_rate(0xB0B, 1.0);
    let engine = chaos_engine(spec, 2);
    let db_before = engine.database().stats().snapshot();
    let mgr = SessionManager::new(
        Arc::clone(&engine),
        SessionConfig {
            max_concurrent: 1,
            max_queued: 16,
            breaker_threshold: 2,
            breaker_window: 3,
        },
    );
    let policy = RetryPolicy {
        max_retries: 0,
        serial_fallback: true,
        ..Default::default()
    };
    for session in 0..7u64 {
        let h = mgr
            .submit_with(
                session,
                full_scan_query(),
                SubmitOptions {
                    retry: policy,
                    ..Default::default()
                },
            )
            .expect("admitted");
        h.wait().expect("serial always serves");
    }
    let stats = mgr.stats();
    assert_eq!(stats.completed, 7, "the engine never stopped serving");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retried, 0, "max_retries 0: degrade, don't retry");
    assert_eq!(
        stats.degraded, 7,
        "every query ran serial — by fallback or by open breaker"
    );
    let delta = engine.database().stats().snapshot().since(&db_before);
    // Queries 1–2 each burn a parallel attempt, trip the breaker
    // (threshold 2), then succeed serially. Queries 3–4 are routed
    // serial by the open breaker (window 3 → 2 → 1). Query 5 finds
    // half the window served and becomes the half-open probe: its
    // parallel attempt fails (the fault rate is still 1.0), re-arming
    // a full window before its serial fallback. Queries 6–7 are routed
    // serial again. 3×2 + 4×1 = 10 attempts.
    assert_eq!(
        delta.cache_misses, 10,
        "the breaker saved exactly 4 parallel attempts"
    );
    assert_eq!(
        stats.breaker,
        zv_server::BreakerView::Open {
            serial_left: 1,
            probing: false
        },
        "the failed probe re-armed a full window (3), spent by Q6–Q7"
    );
    assert_eq!(
        delta.worker_panics, 0,
        "rate-1.0 parallel failures are spawn failures, not panics"
    );
    assert_eq!(delta.queries_degraded, 7);
}

/// Satellite: a deadline that expires while the query sits in the
/// overflow queue is finished at pop time — counted `expired` (a
/// subset of `cancelled`) and the engine is never woken for it.
#[test]
fn expired_deadline_is_skipped_at_pop() {
    let engine = chaos_engine(FaultSpec::disabled(), 2);
    let mgr = SessionManager::new(
        Arc::clone(&engine),
        SessionConfig {
            max_concurrent: 1,
            max_queued: 16,
            ..Default::default()
        },
    );
    // Occupy the single worker so the doomed query has to queue.
    let blocker = mgr.submit(1, full_scan_query()).expect("admitted");
    let doomed = mgr
        .submit_with(
            2,
            full_scan_query(),
            SubmitOptions {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .expect("admitted");
    let ctx = doomed.ctx().clone();
    blocker.wait().expect("blocker completes");
    let err = doomed.wait().expect_err("expired deadline cancels");
    assert!(matches!(err, ZqlError::Storage(StorageError::Cancelled)));
    assert_eq!(ctx.cancel_reason(), Some(CancelReason::Deadline));
    assert_eq!(ctx.stats().rows_scanned, 0, "the engine was never woken");
    let stats = mgr.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.cancelled, 1, "expired is a subset of cancelled");
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.completed + stats.cancelled + stats.failed,
        stats.submitted,
        "exactly-once accounting holds"
    );
}

/// A query that exhausts retries with serial fallback disabled fails —
/// and leaves the result cache bit-for-bit untouched.
#[test]
fn exhausted_retries_fail_without_touching_the_cache() {
    fault::silence_injected_panics();
    let spec = FaultSpec::with_rate(0xFA11, 1.0);
    let engine = chaos_engine(spec, 2);
    let mgr = SessionManager::new(
        Arc::clone(&engine),
        SessionConfig {
            max_concurrent: 1,
            max_queued: 16,
            breaker_threshold: 0,
            breaker_window: 0,
        },
    );
    let h = mgr
        .submit_with(
            1,
            full_scan_query(),
            SubmitOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    serial_fallback: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("admitted");
    let err = h
        .wait()
        .expect_err("no serial fallback: the failure surfaces");
    match err {
        ZqlError::Storage(e) => assert!(e.is_transient(), "got {e:?}"),
        other => panic!("expected a storage error, got {other}"),
    }
    let stats = mgr.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.degraded, 0);
    let cache = engine.database().cache_stats().expect("engine has a cache");
    assert_eq!(cache.entries, 0, "nothing cached by failed attempts");
    assert_eq!(cache.insertions, 0);
}

/// The PR-7 slot-pinning fix: a retry backoff must never sleep on a
/// pool worker. With ONE worker and a retrying query in a multi-second
/// backoff, a different session's query must be served *during* the
/// backoff — the retrying job is visible in `retried` and sits in the
/// queue (`queued`) rather than occupying the slot.
#[test]
fn backoff_requeues_instead_of_pinning_the_slot() {
    fault::silence_injected_panics();
    let nm = n_morsels();
    // Same seed shape as the retry test: epoch 0 panics, epoch 1 clean.
    let seed = (1u64..)
        .find(|&sd| {
            let s = FaultSpec::with_rate(sd, 0.15);
            !spawn_fires(&s, nm, 0)
                && lowest_firing(&s, nm, 0).is_some()
                && !attempt_fails(&s, nm, 1)
        })
        .unwrap();
    let engine = chaos_engine(FaultSpec::with_rate(seed, 0.15), 2);
    let mgr = SessionManager::new(
        Arc::clone(&engine),
        SessionConfig {
            max_concurrent: 1,
            max_queued: 16,
            breaker_threshold: 0,
            breaker_window: 0,
        },
    );
    let t0 = std::time::Instant::now();
    let retrying = mgr
        .submit_with(
            1,
            full_scan_query(),
            SubmitOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    // Generous: the other session's scan fits inside it.
                    backoff_base: Duration::from_secs(2),
                    jitter_seed: 7,
                    serial_fallback: false,
                },
                ..Default::default()
            },
        )
        .expect("admitted");
    // Wait until the first attempt failed and the job went back to the
    // queue with its not-before stamp.
    loop {
        let s = mgr.stats();
        if s.retried == 1 && s.queued == 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "first attempt never failed/requeued: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The single worker slot must now be free: another session's query
    // completes while the retrying job waits out its backoff. (Its
    // own epoch-0 attempt fails identically — fault decisions are pure
    // — and the default policy degrades it to a serial success.)
    let other = mgr.submit(2, full_scan_query()).expect("admitted");
    other.wait().expect("the freed slot serves other sessions");
    assert!(
        !retrying.is_finished(),
        "the other query finished during the backoff, not after it"
    );
    retrying.wait().expect("the retry lands on the clean epoch");
    assert!(
        t0.elapsed() >= Duration::from_secs(2),
        "the retry waited out its backoff"
    );
    let stats = mgr.stats();
    assert_eq!(stats.completed, 2, "both sessions served by one slot");
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.failed, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A burst of queries under arbitrary fault seeds and mixed
    /// policies: whatever fails, retries, or degrades, every admitted
    /// query ends in exactly one outcome, the counters match the
    /// observed results exactly, and the manager keeps serving.
    #[test]
    fn burst_under_faults_accounts_every_query_exactly_once(
        seed in 1u64..u64::MAX,
        rate in 0.05f64..0.4,
    ) {
        fault::silence_injected_panics();
        let spec = FaultSpec::with_rate(seed, rate);
        let engine = chaos_engine(spec, 2);
        let mgr = SessionManager::new(
            Arc::clone(&engine),
            SessionConfig {
                max_concurrent: 2,
                max_queued: 32,
                breaker_threshold: 2,
                breaker_window: 4,
            },
        );
        const BURST: usize = 6;
        let handles: Vec<_> = (0..BURST)
            .map(|i| {
                mgr.submit_with(
                    i as u64, // distinct sessions: no supersession noise
                    full_scan_query(),
                    SubmitOptions {
                        retry: RetryPolicy {
                            max_retries: (i % 3) as u32,
                            serial_fallback: i % 2 == 0,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                )
                .expect("admitted")
            })
            .collect();
        let mut completed = 0u64;
        let mut failed = 0u64;
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(ZqlError::Storage(e)) => {
                    prop_assert!(e.is_transient(), "only injected failures: {:?}", e);
                    failed += 1;
                }
                Err(other) => prop_assert!(false, "unexpected: {}", other),
            }
        }
        let stats = mgr.stats();
        prop_assert_eq!(stats.submitted, BURST as u64);
        prop_assert_eq!(stats.completed, completed);
        prop_assert_eq!(stats.failed, failed);
        prop_assert_eq!(stats.cancelled, 0);
        prop_assert_eq!(
            stats.completed + stats.cancelled + stats.failed,
            stats.submitted,
            "exactly-once accounting"
        );
        // Queries with serial fallback can never fail on injected faults.
        prop_assert!(completed >= (BURST as u64).div_ceil(2));
        // And the manager still serves a fresh query afterwards.
        let h = mgr
            .submit_with(
                99,
                full_scan_query(),
                SubmitOptions {
                    retry: RetryPolicy { serial_fallback: true, ..Default::default() },
                    ..Default::default()
                },
            )
            .expect("still admitting");
        prop_assert!(h.wait().is_ok(), "still serving");
    }
}
