//! Deterministic fault injection and lock-poison recovery.
//!
//! An always-on interactive engine (ROADMAP north star: millions of
//! concurrent zenvisage sessions) cannot afford for a single panicking
//! worker or a poisoned lock to take the process down or corrupt shared
//! bookkeeping. This module supplies the two halves of that guarantee:
//!
//! 1. **Injection** — a seeded, purely functional fault source
//!    ([`FaultSpec`]) that the execution stack consults at well-defined
//!    points ([`FaultPoint`]): chunk-scan panics, cache-insert failures,
//!    worker-spawn failures, and per-morsel delays. Whether a given
//!    (point, index, epoch) triple fires is a pure hash of the seed — no
//!    clocks, no global RNG state — so a chaos test can *predict* exactly
//!    which morsels will fail and assert exact bookkeeping. With
//!    `seed == 0` (the default) every check is a single branch on a
//!    `Copy` struct: injection compiles down to a no-op on the hot path.
//!
//! 2. **Recovery** — [`lock_recover`] / [`read_recover`] /
//!    [`write_recover`] convert a poisoned `Mutex`/`RwLock` back into a
//!    usable guard (clearing the poison flag) instead of unwrapping. They
//!    are correct only where every critical section leaves the protected
//!    value consistent at every panic point (e.g. replacing an `Arc`);
//!    state that can be torn mid-mutation (the cache's intrusive LRU
//!    slab) must rebuild instead — see `ResultCache::lock_lru`.
//!
//! Injection is enabled per engine via `ParallelConfig::fault`, or
//! process-wide through the environment (read once per
//! `ParallelConfig::from_env`):
//!
//! * `ZV_FAULT_SEED` — non-zero integer seed; `0`/unset disables.
//! * `ZV_FAULT_RATE` — fraction of indices that fire, `0.0..=1.0`
//!   (default `0`).
//! * `ZV_FAULT_DELAY_US` — microseconds injected per firing
//!   [`FaultPoint::MorselDelay`] (default `0`).
//!
//! The *epoch* argument to [`FaultSpec::fires`] comes from
//! `QueryCtx::fault_epoch` and is advanced by the retry machinery in
//! `zv-server`, so a retried query re-rolls every fault decision — a
//! deterministic stand-in for "the transient condition may have passed".

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Marker embedded in every injected panic payload; the quiet panic hook
/// ([`silence_injected_panics`]) and assertions key on it.
pub const PANIC_MARKER: &str = "[zv-fault]";

/// An injection point in the execution stack. Each point hashes with a
/// distinct salt so firing decisions are independent across points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Panic inside a parallel worker just before it scans a morsel
    /// (index = morsel index).
    ChunkScanPanic,
    /// Fail a result-cache insert (index = per-cache insert sequence
    /// number). The query still succeeds; the result just isn't cached.
    CacheInsert,
    /// Fail parallel fan-out before any worker starts (index = morsel
    /// count). Surfaces as `StorageError::ResourceExhausted`.
    WorkerSpawn,
    /// Sleep `delay_us` before scanning a morsel — stretches scans to
    /// exercise cancellation latency and queue backpressure.
    MorselDelay,
    /// Sever a network connection mid-response (index = the
    /// connection's response sequence number): `zv-server`'s wire
    /// writer emits a truncated frame and shuts the socket down, so
    /// chaos tests can replay exactly which response dies and assert
    /// the server cancels the session's remaining work
    /// (`CancelReason::ConnectionLost`) without leaking a pool slot or
    /// touching the result cache.
    ConnDrop,
    /// Fail a snapshot-file write short (index = the persistence
    /// layer's disk-write sequence number): only a prefix of the bytes
    /// reaches the temp file before the write errors, modeling ENOSPC
    /// or a dying disk. Recovery ignores the damaged temp file — the
    /// previous snapshot (plus the WAL) stays authoritative.
    DiskWriteFail,
    /// Fail an `fsync` (index = the persistence layer's fsync sequence
    /// number). A WAL append whose fsync fails is rolled back (the
    /// frame is truncated away) and reported failed — disk and memory
    /// agree the batch never committed; a snapshot fsync failure
    /// aborts the checkpoint before the rename.
    FsyncFail,
    /// Crash between writing a complete, fsynced snapshot temp file
    /// and renaming it into place (index = the persistence layer's
    /// checkpoint sequence number). The `.tmp` file is left behind;
    /// recovery must ignore it and serve the previous snapshot plus
    /// the full WAL.
    CrashBeforeRename,
    /// Tear the tail of a WAL append at an arbitrary byte (index = the
    /// persistence layer's WAL append sequence number; the torn offset
    /// is [`crate::persist::wal_tear_offset`]). The torn bytes stay on
    /// disk and the log is poisoned fail-stop — recovery truncates the
    /// tail at the last CRC-valid frame boundary.
    WalTearTail,
    /// Abandon a result-cache derivation mid-plan (index = the cache's
    /// derivation attempt sequence number): `lookup_derived` returns
    /// `None` as if no superset candidate existed, so the query falls
    /// back to a real scan and the cache is left bit-untouched.
    CacheDerive,
    /// A client that trickles half a frame and then stalls (index =
    /// the chaos driver's connection index). Consulted by test load
    /// drivers — not the server — to decide deterministically which
    /// connections misbehave; the server side under test is the
    /// reader deadline (`NetServerConfig::read_deadline`).
    ReadStall,
    /// Abandon an incremental-view-maintenance delta merge mid-flight
    /// (index = the cache's IVM merge attempt sequence number): the
    /// merged result is discarded before anything is published, the
    /// cache is left bit-untouched, and the query silently falls back
    /// to a full recompute — correct, just slower.
    IvmMerge,
}

impl FaultPoint {
    fn salt(self) -> u64 {
        match self {
            FaultPoint::ChunkScanPanic => 0x5ca7_da7a_0001,
            FaultPoint::CacheInsert => 0x5ca7_da7a_0002,
            FaultPoint::WorkerSpawn => 0x5ca7_da7a_0003,
            FaultPoint::MorselDelay => 0x5ca7_da7a_0004,
            FaultPoint::ConnDrop => 0x5ca7_da7a_0005,
            FaultPoint::DiskWriteFail => 0x5ca7_da7a_0006,
            FaultPoint::FsyncFail => 0x5ca7_da7a_0007,
            FaultPoint::CrashBeforeRename => 0x5ca7_da7a_0008,
            FaultPoint::WalTearTail => 0x5ca7_da7a_0009,
            FaultPoint::CacheDerive => 0x5ca7_da7a_000a,
            FaultPoint::ReadStall => 0x5ca7_da7a_000b,
            FaultPoint::IvmMerge => 0x5ca7_da7a_000c,
        }
    }
}

/// Seeded fault-injection configuration. `Copy`, cheap to pass by value;
/// the all-zero default ([`FaultSpec::disabled`]) never fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Non-zero arms injection; `0` disables it entirely (every
    /// [`FaultSpec::fires`] call short-circuits before hashing).
    pub seed: u64,
    /// Firing probability in parts-per-million (`1_000_000` = every
    /// index fires). A seed may be armed with rate `0`: every hook is
    /// consulted and none fires, so answers equal the disabled spec's
    /// (`morsel_equivalence::engines_agree_serial_and_morsel_under_skew`).
    pub rate_ppm: u32,
    /// Microseconds slept when [`FaultPoint::MorselDelay`] fires.
    pub delay_us: u32,
}

impl FaultSpec {
    /// The never-firing default.
    pub const fn disabled() -> FaultSpec {
        FaultSpec {
            seed: 0,
            rate_ppm: 0,
            delay_us: 0,
        }
    }

    /// Spec firing a `rate` fraction of indices (clamped to `0.0..=1.0`)
    /// under `seed`.
    pub fn with_rate(seed: u64, rate: f64) -> FaultSpec {
        FaultSpec {
            seed,
            rate_ppm: rate_to_ppm(rate),
            delay_us: 0,
        }
    }

    /// True when injection is armed (hooks evaluate their hash).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.seed != 0
    }

    /// Read `ZV_FAULT_SEED` / `ZV_FAULT_RATE` / `ZV_FAULT_DELAY_US`.
    /// Unset or empty variables mean "disabled"; present-but-invalid
    /// values panic loudly (same convention as the `ZV_SCHED_*` knobs —
    /// a silently ignored typo in CI would fake chaos coverage).
    pub fn from_env() -> FaultSpec {
        FaultSpec::from_env_spec(
            std::env::var("ZV_FAULT_SEED").ok().as_deref(),
            std::env::var("ZV_FAULT_RATE").ok().as_deref(),
            std::env::var("ZV_FAULT_DELAY_US").ok().as_deref(),
        )
    }

    /// Testable core of [`FaultSpec::from_env`].
    pub fn from_env_spec(
        seed: Option<&str>,
        rate: Option<&str>,
        delay_us: Option<&str>,
    ) -> FaultSpec {
        let seed = match non_empty(seed) {
            None => 0,
            Some(s) => s
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("ZV_FAULT_SEED must be an integer, got {s:?}")),
        };
        let rate_ppm = match non_empty(rate) {
            None => 0,
            Some(s) => {
                let r = s
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("ZV_FAULT_RATE must be a number, got {s:?}"));
                assert!(
                    (0.0..=1.0).contains(&r),
                    "ZV_FAULT_RATE must be in 0.0..=1.0, got {s:?}"
                );
                rate_to_ppm(r)
            }
        };
        let delay_us = match non_empty(delay_us) {
            None => 0,
            Some(s) => s
                .parse::<u32>()
                .unwrap_or_else(|_| panic!("ZV_FAULT_DELAY_US must be an integer, got {s:?}")),
        };
        FaultSpec {
            seed,
            rate_ppm,
            delay_us,
        }
    }

    /// Does `point` fire for `index` in retry-`epoch`? Pure: the same
    /// `(spec, point, index, epoch)` always answers the same, so tests
    /// replay the exact decision sequence the engine saw. Disabled specs
    /// answer in one branch.
    #[inline]
    pub fn fires(&self, point: FaultPoint, index: u64, epoch: u64) -> bool {
        if self.seed == 0 || self.rate_ppm == 0 {
            return false;
        }
        let h = mix64(
            self.seed
                ^ point.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ epoch.wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        h % 1_000_000 < u64::from(self.rate_ppm)
    }

    /// Sleep the configured injected delay (no-op at `delay_us == 0`).
    pub fn delay(&self) {
        if self.delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(u64::from(self.delay_us)));
        }
    }
}

fn rate_to_ppm(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

fn non_empty(v: Option<&str>) -> Option<&str> {
    v.map(str::trim).filter(|s| !s.is_empty())
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Raise the injected worker panic for `index` (marked payload so the
/// quiet hook and `WorkerPanicked` assertions can recognize it).
#[cold]
pub fn injected_panic(index: u64) -> ! {
    panic!("{PANIC_MARKER} injected chunk-scan panic at morsel {index}");
}

/// Render a `catch_unwind` payload as a string for
/// `StorageError::WorkerPanicked` (`&str` and `String` payloads pass
/// through; anything else gets a placeholder).
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Install (once, process-wide) a panic hook that swallows the default
/// stderr backtrace for *injected* panics — payloads containing
/// [`PANIC_MARKER`] — while delegating everything else to the previous
/// hook. Chaos tests and benches call this so thousands of expected
/// panics don't drown real failures in noise.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Lock a `Mutex`, recovering from poison. Use only where every critical
/// section leaves the value consistent at every panic point.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Read-lock an `RwLock`, recovering from poison (see [`lock_recover`]).
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => {
            l.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Write-lock an `RwLock`, recovering from poison (see [`lock_recover`]).
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => {
            l.clear_poison();
            poisoned.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spec_never_fires() {
        let spec = FaultSpec::disabled();
        assert!(!spec.is_enabled());
        for i in 0..1000 {
            assert!(!spec.fires(FaultPoint::ChunkScanPanic, i, 0));
        }
        // Armed seed but zero rate: hooks evaluate, nothing fires.
        let armed = FaultSpec {
            seed: 1,
            rate_ppm: 0,
            delay_us: 0,
        };
        assert!(armed.is_enabled());
        for i in 0..1000 {
            assert!(!armed.fires(FaultPoint::CacheInsert, i, 0));
        }
    }

    #[test]
    fn firing_is_deterministic_and_point_independent() {
        let spec = FaultSpec::with_rate(0xDEAD_BEEF, 0.25);
        let a: Vec<bool> = (0..256)
            .map(|i| spec.fires(FaultPoint::ChunkScanPanic, i, 3))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|i| spec.fires(FaultPoint::ChunkScanPanic, i, 3))
            .collect();
        assert_eq!(a, b, "same inputs, same decisions");
        let c: Vec<bool> = (0..256)
            .map(|i| spec.fires(FaultPoint::CacheInsert, i, 3))
            .collect();
        assert_ne!(a, c, "distinct salts decorrelate points");
    }

    #[test]
    fn epoch_rerolls_decisions() {
        let spec = FaultSpec::with_rate(42, 0.5);
        let by_epoch: Vec<Vec<bool>> = (0..4)
            .map(|e| {
                (0..128)
                    .map(|i| spec.fires(FaultPoint::ChunkScanPanic, i, e))
                    .collect()
            })
            .collect();
        assert!(
            by_epoch.windows(2).any(|w| w[0] != w[1]),
            "retry epochs must re-roll fault decisions"
        );
    }

    #[test]
    fn rate_is_roughly_respected() {
        let spec = FaultSpec::with_rate(7, 0.1);
        let fired = (0..10_000)
            .filter(|&i| spec.fires(FaultPoint::ChunkScanPanic, i, 0))
            .count();
        assert!(
            (700..1300).contains(&fired),
            "~10% of 10k indices should fire, got {fired}"
        );
        let every = FaultSpec::with_rate(7, 1.0);
        assert!((0..100).all(|i| every.fires(FaultPoint::MorselDelay, i, 0)));
    }

    #[test]
    fn env_parsing() {
        assert_eq!(
            FaultSpec::from_env_spec(None, None, None),
            FaultSpec::disabled()
        );
        assert_eq!(
            FaultSpec::from_env_spec(Some(""), Some(" "), None),
            FaultSpec::disabled()
        );
        let spec = FaultSpec::from_env_spec(Some("99"), Some("0.125"), Some("250"));
        assert_eq!(
            spec,
            FaultSpec {
                seed: 99,
                rate_ppm: 125_000,
                delay_us: 250,
            }
        );
    }

    #[test]
    #[should_panic(expected = "ZV_FAULT_RATE")]
    fn env_rate_out_of_range_panics() {
        let _ = FaultSpec::from_env_spec(Some("1"), Some("1.5"), None);
    }

    #[test]
    #[should_panic(expected = "ZV_FAULT_SEED")]
    fn env_seed_garbage_panics() {
        let _ = FaultSpec::from_env_spec(Some("not-a-number"), None, None);
    }

    #[test]
    fn payload_string_roundtrip() {
        silence_injected_panics();
        let err = std::panic::catch_unwind(|| injected_panic(17)).unwrap_err();
        let s = panic_payload_string(err.as_ref());
        assert!(s.contains(PANIC_MARKER), "payload: {s}");
        assert!(s.contains("morsel 17"), "payload: {s}");
    }

    #[test]
    fn poisoned_locks_recover() {
        use std::sync::{Mutex, RwLock};
        let m = Mutex::new(5u32);
        let l = RwLock::new(7u32);
        silence_injected_panics();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("{PANIC_MARKER} deliberate poison");
        }));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = l.write().unwrap();
            panic!("{PANIC_MARKER} deliberate poison");
        }));
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
        assert_eq!(*read_recover(&l), 7);
        *write_recover(&l) = 8;
        assert_eq!(*read_recover(&l), 8);
        assert!(!m.is_poisoned() && !l.is_poisoned());
        // And plain locking works again afterwards.
        assert_eq!(*m.lock().unwrap(), 5);
    }
}
