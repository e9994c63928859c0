//! The backend abstraction: "zenvisage can use as a backend any
//! traditional relational database" (thesis §2). The ZQL executor, VEA
//! and the server only speak [`Database`] (held as [`DynDatabase`]).
//! Its one implementation is the shared engine core
//! ([`crate::engine::Engine`]), used as `ScanDb` (no row index) and
//! `BitmapDb` (a roaring-bitmap row index).
//!
//! # Snapshots and batch pinning
//!
//! [`Database::pin`] returns a [`Pinned`] version: one immutable table
//! plus the row index built over exactly that table.
//! [`Database::run_request`] pins **once per batch**, so every query of
//! a batch — cache hits, derived hits, and fresh executions alike — is
//! answered against the same table version even while appends race the
//! batch; a single [`Database::execute`] pins per call.
//!
//! # Caching
//!
//! `run_request` is also where cross-query caching happens: each query
//! is looked up under `(engine, table version, canonical query)` before
//! any scan, and an exact-key miss is offered to the subsumption-based
//! derivation path ([`crate::cache::ResultCache::lookup_derived`]) which
//! answers subset-predicate and per-Z-slice queries by post-filtering a
//! cached superset result. A miss that still has a cached result at an
//! *ancestor* table version — the table proving the gap is pure appends
//! — is answered by incremental view maintenance: scan only the
//! appended rows ([`Pinned::execute_range`]) and merge the delta into
//! the cached aggregate. Results flow as `Arc<ResultTable>` end to end:
//! a warm hit is a pointer bump, never a deep copy. See
//! [`crate::cache`] for the version-key invalidation scheme, the
//! subsumption rules, the IVM rules table, and cost-based admission.

use crate::cache::{CacheKey, QueryKey, ResultCache};
use crate::engine::Pinned;
use crate::lifecycle::QueryCtx;
use crate::query::{Agg, ResultTable, SelectQuery};
use crate::stats::ExecStats;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One committed IVM answer: the user-visible result plus the cache
/// inserts (state and, for AVG queries, the finalized result) to apply
/// once the whole batch commits.
struct IvmAnswer {
    result: Arc<ResultTable>,
    inserts: Vec<(CacheKey, Arc<ResultTable>, u64)>,
}

/// Try to answer an exact-key miss at `version` by delta-merging the
/// appended row range into a cached ancestor-version result. `Ok(None)`
/// declines (no mergeable form, no provable ancestor, a failed delta
/// scan, or an injected merge fault) and the caller falls back to
/// a full scan; only cancellation is an error. On success the delta's
/// visited rows are recorded as `ivm_rows_scanned` — deliberately *not*
/// as `rows_scanned` or a query, so full-scan ledgers stay exact.
fn try_ivm(
    stats: &ExecStats,
    cache: &ResultCache,
    snap: &Pinned,
    engine: &'static str,
    version: u64,
    query: &SelectQuery,
    ctx: &QueryCtx,
) -> Result<Option<IvmAnswer>, StorageError> {
    let Some(form) = crate::cache::ivm_form(query) else {
        return Ok(None);
    };
    let state_key = QueryKey::of(&form.state_query);
    let sources = cache.ivm_sources(engine, &state_key, version);
    if sources.is_empty() {
        return Ok(None);
    }
    let table = snap.table();
    let new_rows = table.num_rows();
    for src in sources {
        // The lineage proof: the table remembers the row count it had
        // at `src.version` only if every step since was a pure append.
        let Some(old_rows) = table.ancestor_rows(src.version) else {
            continue;
        };
        let (delta, scanned) = match snap.execute_range(&form.state_query, ctx, old_rows, new_rows)
        {
            Ok(out) => out,
            Err(StorageError::Cancelled) => {
                stats.record_query_cancelled();
                return Err(StorageError::Cancelled);
            }
            Err(_) => return Ok(None),
        };
        let aggs: Vec<Agg> = form.state_query.ys.iter().map(|y| y.agg).collect();
        let Some(merged) = cache.try_ivm_merge(&src.state, &delta, &aggs) else {
            // Injected merge fault: silent fallback to the full scan.
            return Ok(None);
        };
        // The merged entry stands in for a full recompute at `version`:
        // its cost is everything the chain has scanned so far.
        let cost = src.cost.saturating_add(scanned);
        let merged = Arc::new(merged);
        let mut inserts = Vec::with_capacity(2);
        let result = if form.augmented {
            let user = Arc::new(crate::cache::ivm_finalize(&merged, query));
            // The state entry is what the *next* tick merges into; the
            // finalized entry is what exact repeats hit.
            inserts.push((
                CacheKey {
                    engine,
                    table_version: version,
                    query: state_key,
                },
                Arc::clone(&merged),
                cost,
            ));
            inserts.push((
                CacheKey::new(engine, version, query),
                Arc::clone(&user),
                cost,
            ));
            user
        } else {
            inserts.push((
                CacheKey::new(engine, version, query),
                Arc::clone(&merged),
                cost,
            ));
            merged
        };
        stats.record_ivm_hit(scanned);
        return Ok(Some(IvmAnswer { result, inserts }));
    }
    Ok(None)
}

/// Execute against a snapshot, recording query count / rows / latency —
/// or, for a cancelled query, the `queries_cancelled` counter.
fn execute_recorded(
    stats: &ExecStats,
    snap: &Pinned,
    query: &SelectQuery,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64), StorageError> {
    let start = Instant::now();
    match snap.execute(query, ctx) {
        Ok((result, scanned)) => {
            stats.record_query(scanned, start.elapsed());
            Ok((result, scanned))
        }
        Err(StorageError::Cancelled) => {
            stats.record_query_cancelled();
            Err(StorageError::Cancelled)
        }
        Err(e) => Err(e),
    }
}

/// A queryable backend holding one relation.
pub trait Database: Send + Sync {
    /// Stable engine identifier (used in experiment output and as the
    /// engine half of result-cache keys).
    fn name(&self) -> &'static str;

    /// Pin the engine's current version. Cheap (two `Arc` bumps); the
    /// returned snapshot stays valid and unchanged however many appends
    /// land after it.
    fn pin(&self) -> Pinned;

    /// The current snapshot of the relation this engine serves. Returned
    /// by value because engines swap the snapshot on append.
    fn table(&self) -> Arc<Table>;

    /// Execute one canonical grouped-aggregate query, bypassing the
    /// result cache (the raw path; also what equivalence tests compare
    /// cached results against).
    fn execute(&self, query: &SelectQuery) -> Result<ResultTable, StorageError> {
        self.execute_ctx(query, &QueryCtx::new())
    }

    /// [`Database::execute`] under an explicit lifecycle ctx: the scan
    /// observes cancellation / deadline / row budget and returns
    /// [`StorageError::Cancelled`] once tripped.
    fn execute_ctx(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<ResultTable, StorageError> {
        execute_recorded(self.stats(), &self.pin(), query, ctx).map(|(rt, _)| rt)
    }

    /// Execution counters.
    fn stats(&self) -> &ExecStats;

    /// The engine-level result cache, if this engine carries one.
    fn result_cache(&self) -> Option<&ResultCache>;

    /// Point-in-time counters of the result cache, if any.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.result_cache().map(ResultCache::stats)
    }

    /// Append rows to the relation: bumps the table version
    /// (invalidating cached results for free) and refreshes the index.
    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize, StorageError>;

    /// Append a whole same-schema table. Same contract as
    /// [`Database::append_rows`].
    fn append_table(&self, other: &Table) -> Result<usize, StorageError>;

    /// Simulated round-trip latency per batched request, standing in
    /// for the paper's client↔PostgreSQL round trip.
    fn request_overhead(&self) -> Duration;

    /// Execute a batch of queries as one round trip. The external
    /// optimizations of §5.2 work by shrinking the number of calls made
    /// here; the engine-level result cache shrinks the *scans* behind
    /// them.
    ///
    /// Per query: look up the result cache exactly, then via predicate
    /// subsumption (both answered without touching a base row), then fan
    /// the true misses across the shared pool — multi-query batches use
    /// one worker per query, while a single missing query parallelizes
    /// *inside* the scan (morsel-claimed; see `exec::run`), so
    /// the hardware is saturated either way.
    /// Fresh results are offered to
    /// the cache under the pinned snapshot's version at their scan cost
    /// (cost-based admission may decline them): the version only ever
    /// advances, so an entry can never be served after its snapshot is
    /// retired (see [`crate::cache`]).
    ///
    /// Consistency: one snapshot is pinned for the whole batch, so every
    /// answer — hit, derived, or fresh — describes the same table
    /// version even when appends race the request, and that version is
    /// at least as new as the engine's state at request start.
    ///
    /// Results are shared `Arc`s: an exact warm hit returns the cached
    /// allocation itself (pointer bump, zero copies).
    fn run_request(&self, queries: &[SelectQuery]) -> Result<Vec<Arc<ResultTable>>, StorageError> {
        self.run_request_ctx(queries, &QueryCtx::new())
    }

    /// [`Database::run_request`] under an explicit lifecycle ctx. One
    /// ctx covers the whole batch (it represents one user interaction):
    /// cancelling it aborts every in-flight scan of the batch at the
    /// next cancellation point, the request returns
    /// [`StorageError::Cancelled`], and **no** result of the batch —
    /// complete or partial — is inserted into the result cache, so a
    /// cancelled request leaves the cache bit-for-bit as if it never
    /// ran.
    fn run_request_ctx(
        &self,
        queries: &[SelectQuery],
        ctx: &QueryCtx,
    ) -> Result<Vec<Arc<ResultTable>>, StorageError> {
        self.stats().record_request();
        if ctx.is_cancelled() {
            self.stats().record_query_cancelled();
            return Err(StorageError::Cancelled);
        }
        let overhead = self.request_overhead();
        if !overhead.is_zero() {
            std::thread::sleep(overhead);
        }
        let snap = self.pin();
        let Some(cache) = self.result_cache() else {
            return crate::parallel::try_parallel_map(queries.len(), 0, |i| {
                execute_recorded(self.stats(), &snap, &queries[i], ctx).map(|(rt, _)| Arc::new(rt))
            });
        };
        let version = snap.table().version();
        let engine = self.name();
        let mut results: Vec<Option<Arc<ResultTable>>> = Vec::with_capacity(queries.len());
        let mut misses: Vec<(usize, CacheKey, Option<crate::cache::IvmForm>)> = Vec::new();
        // Derived results are re-inserted only once the whole batch has
        // succeeded: a batch cancelled (or failed) after the probes must
        // leave the cache exactly as it found it.
        let mut derived_inserts: Vec<(CacheKey, Arc<ResultTable>, u64)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let key = CacheKey::new(engine, version, q);
            if let Some(hit) = cache.get(&key) {
                self.stats().record_cache_hit();
                results.push(Some(hit));
            } else if let Some(derived) = cache.lookup_derived(&key) {
                self.stats().record_cache_derived_hit();
                results.push(Some(Arc::clone(&derived.result)));
                derived_inserts.push((key, derived.result, derived.cost));
            } else if let Some(ivm) = try_ivm(self.stats(), cache, &snap, engine, version, q, ctx)?
            {
                results.push(Some(Arc::clone(&ivm.result)));
                derived_inserts.extend(ivm.inserts);
            } else {
                self.stats().record_cache_miss();
                results.push(None);
                // An AVG query's miss executes its IVM *state* form
                // (AVG→SUM plus a COUNT(*) companion — the same
                // accumulators the kernel keeps anyway) so the state
                // gets cached alongside the finalized result and the
                // next append can delta-merge instead of rescanning.
                let form = crate::cache::ivm_form(q).filter(|f| f.augmented);
                misses.push((i, key, form));
            }
        }
        let fresh = crate::parallel::try_parallel_map(misses.len(), 0, |j| {
            let (i, _, form) = &misses[j];
            match form {
                Some(f) => execute_recorded(self.stats(), &snap, &f.state_query, ctx).map(
                    |(state, scanned)| {
                        // `sum / n` on the very values the kernel's own
                        // finalize divides — bit-identical to executing
                        // the user query directly.
                        let user = crate::cache::ivm_finalize(&state, &queries[*i]);
                        (user, Some(state), scanned)
                    },
                ),
                None => execute_recorded(self.stats(), &snap, &queries[*i], ctx)
                    .map(|(rt, scanned)| (rt, None, scanned)),
            }
        })?;
        // The batch committed: make derived answers exact entries (so
        // repeats are plain hits) and offer the fresh scans to the
        // cache at their scan cost.
        let inserts = derived_inserts.into_iter().map(|(key, rt, cost)| {
            let outcome = cache.insert(key, rt, cost);
            (None, outcome)
        });
        let fresh_inserts =
            misses
                .into_iter()
                .zip(fresh)
                .flat_map(|((i, key, form), (rt, state, scanned))| {
                    let rt = Arc::new(rt);
                    let mut out = Vec::with_capacity(2);
                    if let (Some(f), Some(state)) = (form, state) {
                        let state_key = CacheKey {
                            engine,
                            table_version: version,
                            query: QueryKey::of(&f.state_query),
                        };
                        out.push((None, cache.insert(state_key, Arc::new(state), scanned)));
                    }
                    out.push((
                        Some((i, rt.clone())),
                        cache.insert(key, Arc::clone(&rt), scanned),
                    ));
                    out
                });
        for (slot, outcome) in inserts.chain(fresh_inserts) {
            if !outcome.admitted {
                self.stats().record_cache_admission_reject();
            }
            self.stats().record_cache_evictions(outcome.evicted);
            if let Some((i, rt)) = slot {
                results[i] = Some(rt);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every query either hit or was executed"))
            .collect())
    }
}

/// Convenience alias used throughout the ZQL executor.
pub type DynDatabase = Arc<dyn Database>;
