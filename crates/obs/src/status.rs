//! `/statusz` composition: process-wide status plus pluggable sections.
//!
//! `ns-obs` knows nothing about the streaming engine, so the status page
//! is open for extension: any crate can [`register_section`] a named
//! closure returning a JSON [`Value`], and [`render`] adds every section
//! to one status object next to the built-in fields (uptime, readiness,
//! journal and recorder bookkeeping, the thread pool). The streaming
//! engine registers a `"stream"` section with its shard queue depths,
//! live connections, fault counters, model fingerprint, and last
//! checkpoint.
//!
//! Readiness ([`set_ready`]) is a plain process flag: `/readyz` reports
//! 503 until the owner flips it (the engine does so once spawned).

use crate::{events, incident, poolstats};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static READY: AtomicBool = AtomicBool::new(true);

type Section = Box<dyn Fn() -> Value + Send + Sync>;

fn sections() -> &'static Mutex<BTreeMap<String, Section>> {
    static SECTIONS: OnceLock<Mutex<BTreeMap<String, Section>>> = OnceLock::new();
    SECTIONS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_sections() -> MutexGuard<'static, BTreeMap<String, Section>> {
    sections().lock().unwrap_or_else(|e| e.into_inner())
}

/// The process epoch used for the `uptime_s` field — pinned on first
/// access, so call early (the exporter and `enable_all` both do).
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since [`process_epoch`] was first touched.
pub fn uptime_seconds() -> f64 {
    process_epoch().elapsed().as_secs_f64()
}

/// Wall-clock now, in milliseconds since the Unix epoch (0 if the clock
/// reads before it).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Flip the `/readyz` flag. Defaults to ready so a bare exporter (no
/// engine) still answers 200.
pub fn set_ready(on: bool) {
    READY.store(on, Ordering::Relaxed);
}

/// Whether `/readyz` currently answers 200.
pub fn is_ready() -> bool {
    READY.load(Ordering::Relaxed)
}

/// Install (or replace) a named status section. `f` is called on every
/// `/statusz` render, so keep it to atomic reads and registry lookups.
pub fn register_section(name: &str, f: impl Fn() -> Value + Send + Sync + 'static) {
    lock_sections().insert(name.to_string(), Box::new(f));
}

/// Drop a section (tests; engines that shut down).
pub fn unregister_section(name: &str) {
    lock_sections().remove(name);
}

/// The built-in `/statusz` fields.
#[derive(Serialize)]
struct Builtins {
    uptime_s: f64,
    ready: bool,
    trace_enabled: bool,
    metrics_enabled: bool,
    events: Journal,
    incidents: incident::RecorderStats,
    pool: poolstats::PoolStatus,
}

/// The `"events"` field: [`events::JournalStats`] under its `/statusz` keys.
#[derive(Serialize)]
struct Journal {
    enabled: bool,
    recorded: u64,
    buffered: usize,
    dropped: u64,
    capacity: usize,
}

/// Render the full `/statusz` JSON object: the built-ins, then every
/// registered section under its name.
pub fn render() -> String {
    let ev = events::stats();
    let builtins = Builtins {
        // Millisecond resolution is all an uptime needs.
        uptime_s: (uptime_seconds() * 1e3).round() / 1e3,
        ready: is_ready(),
        trace_enabled: crate::trace::is_enabled(),
        metrics_enabled: crate::metrics::is_enabled(),
        events: Journal {
            enabled: ev.enabled,
            recorded: ev.recorded,
            buffered: ev.len,
            dropped: ev.dropped,
            capacity: ev.capacity,
        },
        incidents: incident::stats(),
        pool: poolstats::status(),
    };
    let mut doc = builtins.to_value();
    if let Value::Object(fields) = &mut doc {
        fields.extend(lock_sections().iter().map(|(name, f)| (name.clone(), f())));
    }
    crate::to_json(&doc) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parses_with_builtins_and_sections() {
        let _l = crate::test_lock();
        register_section("unit_test", || serde_json::json!({ "answer": 42 }));
        let doc = render();
        unregister_section("unit_test");
        assert!(doc.ends_with('\n'), "{doc}");
        let v: Value = serde_json::from_str(&doc).expect("valid JSON");
        let keys = |v: &Value| match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let top = keys(&v);
        for key in [
            "uptime_s",
            "ready",
            "trace_enabled",
            "metrics_enabled",
            "events",
            "incidents",
            "pool",
            "unit_test",
        ] {
            assert!(top.iter().any(|k| k == key), "statusz misses {key}: {doc}");
        }
        let field = |name: &str| v.get(name).expect(name);
        assert_eq!(
            keys(field("events")),
            ["enabled", "recorded", "buffered", "dropped", "capacity"]
        );
        assert_eq!(
            keys(field("incidents")),
            ["armed", "captured", "retained", "suppressed"]
        );
        assert_eq!(
            keys(field("pool")),
            [
                "workers",
                "queued_jobs",
                "jobs_submitted",
                "tasks_executed",
                "steals",
                "parks",
                "unparks",
                "worker_busy_ms"
            ]
        );
        assert_eq!(
            field("unit_test").get("answer").and_then(|a| a.as_u64()),
            Some(42)
        );
        assert!(field("uptime_s").as_f64().is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn ready_flag_roundtrips() {
        let _l = crate::test_lock();
        assert!(is_ready(), "default ready");
        set_ready(false);
        assert!(!is_ready());
        assert!(render().contains("\"ready\":false"));
        set_ready(true);
    }
}
