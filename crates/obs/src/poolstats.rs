//! Thread-pool scheduling telemetry, read from the vendored rayon pool.
//!
//! The pool shows up in both operational surfaces:
//!
//! * `/metrics` — [`sync`] (called by the exporter on every `/metrics`
//!   scrape) converts [`rayon::pool_stats`] readings into registry
//!   counters/gauges: `pool_tasks_total`, `pool_steals_total`,
//!   `pool_parks_total`, `pool_unparks_total`, `pool_jobs_total`,
//!   `pool_workers`, `pool_queued_jobs`, and per-worker
//!   `pool_worker_busy_us_total{worker="N"}`.
//! * `/statusz` — the built-in `"pool"` field, the same reading with busy
//!   time in whole milliseconds.
//!
//! Counters are delta-synced against the last reading taken while
//! metrics were enabled, so pool activity that happens between scrapes
//! (or across `Registry::reset` in tests) is never double-counted and
//! never lost while enabled.

use rayon::PoolStats;
use serde::Serialize;
use std::sync::Mutex;

static LAST: Mutex<Option<PoolStats>> = Mutex::new(None);

/// The pool's scheduling counters now. Always `Some`; the `Option` is
/// kept for callers written when the reading could be absent.
pub fn snapshot() -> Option<PoolStats> {
    Some(rayon::pool_stats())
}

/// Fold the pool's counters into the global metrics registry. Called by
/// the exporter on every `/metrics` scrape; safe (and cheap) to call
/// anytime. No-op while metrics are disabled.
pub fn sync() {
    if crate::metrics::is_enabled() {
        sync_from(rayon::pool_stats());
    }
}

fn sync_from(snap: PoolStats) {
    let reg = crate::metrics::global();
    let mut last = LAST.lock().unwrap_or_else(|e| e.into_inner());
    let prev = last.take().unwrap_or_default();
    let d = |new: u64, old: u64| new.saturating_sub(old);

    reg.counter(
        "pool_jobs_total",
        "Parallel jobs submitted to the pool.",
        &[],
    )
    .add(d(snap.jobs_submitted, prev.jobs_submitted));
    reg.counter("pool_tasks_total", "Pool task chunks executed.", &[])
        .add(d(snap.tasks_executed, prev.tasks_executed));
    reg.counter(
        "pool_steals_total",
        "Task chunks stolen from another participant's lane.",
        &[],
    )
    .add(d(snap.steals, prev.steals));
    reg.counter("pool_parks_total", "Worker park transitions.", &[])
        .add(d(snap.parks, prev.parks));
    reg.counter("pool_unparks_total", "Worker unpark transitions.", &[])
        .add(d(snap.unparks, prev.unparks));
    reg.gauge("pool_workers", "Worker threads spawned.", &[])
        .set(snap.workers as i64);
    reg.gauge(
        "pool_queued_jobs",
        "Jobs published and not yet fully claimed.",
        &[],
    )
    .set(snap.queued_jobs as i64);
    for (i, &busy) in snap.busy_ns.iter().enumerate() {
        let old = prev.busy_ns.get(i).copied().unwrap_or(0);
        let worker = i.to_string();
        reg.counter(
            "pool_worker_busy_us_total",
            "Per-worker busy time in microseconds.",
            &[("worker", &worker)],
        )
        .add(d(busy / 1_000, old / 1_000));
    }
    *last = Some(snap);
}

/// The `"pool"` `/statusz` field: a live [`PoolStats`] reading with busy
/// time in whole milliseconds.
#[derive(Serialize)]
pub(crate) struct PoolStatus {
    workers: usize,
    queued_jobs: usize,
    jobs_submitted: u64,
    tasks_executed: u64,
    steals: u64,
    parks: u64,
    unparks: u64,
    worker_busy_ms: Vec<u64>,
}

pub(crate) fn status() -> PoolStatus {
    status_of(&rayon::pool_stats())
}

fn status_of(s: &PoolStats) -> PoolStatus {
    PoolStatus {
        workers: s.workers,
        queued_jobs: s.queued_jobs,
        jobs_submitted: s.jobs_submitted,
        tasks_executed: s.tasks_executed,
        steals: s.steals,
        parks: s.parks,
        unparks: s.unparks,
        worker_busy_ms: s.busy_ns.iter().map(|ns| ns / 1_000_000).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(tasks_executed: u64) -> PoolStats {
        PoolStats {
            workers: 2,
            queued_jobs: 1,
            jobs_submitted: 4,
            tasks_executed,
            steals: 3,
            parks: 5,
            unparks: 5,
            busy_ns: vec![2_000_000, 7_500_000],
        }
    }

    #[test]
    fn sync_exports_counters_and_status_converts_busy_time() {
        let _l = crate::test_lock();
        let reg = crate::metrics::global();
        let tasks = reg.counter("pool_tasks_total", "Pool task chunks executed.", &[]);
        let busy1 = reg.counter(
            "pool_worker_busy_us_total",
            "Per-worker busy time in microseconds.",
            &[("worker", "1")],
        );
        let (tasks0, busy0) = (tasks.get(), busy1.get());
        *LAST.lock().unwrap() = None;
        crate::metrics::set_enabled(true);
        // Absolute on the first reading, then only the movement.
        sync_from(reading(10));
        assert_eq!(tasks.get() - tasks0, 10);
        sync_from(reading(25));
        assert_eq!(tasks.get() - tasks0, 25);
        let text = reg.render();
        crate::metrics::set_enabled(false);
        *LAST.lock().unwrap() = None;
        assert_eq!(busy1.get() - busy0, 7_500, "ns → µs, counted once");
        assert!(text.contains("pool_workers 2"), "{text}");
        assert!(
            text.contains("pool_worker_busy_us_total{worker=\"1\"}"),
            "{text}"
        );
        let status = crate::to_json(&status_of(&reading(25)));
        assert!(status.contains("\"workers\":2"), "{status}");
        assert!(status.contains("\"worker_busy_ms\":[2,7]"), "{status}");
        assert!(snapshot().is_some());
    }

    /// The exported busy time is `busy_ns / 1_000` after any sequence of
    /// scrapes: sub-microsecond remainders carry over instead of being
    /// dropped at every scrape.
    #[test]
    fn busy_time_is_not_truncated_per_scrape() {
        let _l = crate::test_lock();
        let busy0 = crate::metrics::global().counter(
            "pool_worker_busy_us_total",
            "Per-worker busy time in microseconds.",
            &[("worker", "0")],
        );
        let start = busy0.get();
        *LAST.lock().unwrap() = None;
        crate::metrics::set_enabled(true);
        for ns in [1_500, 3_000, 3_999, 10_001] {
            sync_from(PoolStats {
                busy_ns: vec![ns],
                ..reading(0)
            });
            assert_eq!(busy0.get() - start, ns / 1_000, "after a {ns} ns reading");
        }
        crate::metrics::set_enabled(false);
        *LAST.lock().unwrap() = None;
    }
}
