//! `ns-obs` — observability for the NodeSentry stack.
//!
//! Every piece is process-global and cheap enough to ride inside every
//! hot path:
//!
//! * [`trace`] — a hierarchical span tracer. [`span!`] opens a
//!   [`trace::SpanGuard`] that records wall time into a thread-safe span
//!   tree keyed by `parent/child` paths; [`trace::report`] renders a
//!   flamegraph-style text breakdown.
//! * [`metrics`] — a registry of named counters, gauges and log-bucketed
//!   histograms. Every update is a single atomic op behind one relaxed
//!   enabled-flag load, cheap enough for per-tick hot paths.
//!   [`metrics::Registry::render`] emits Prometheus text exposition
//!   format (0.0.4).
//! * [`events`] — a bounded structured event journal (fixed-size
//!   records, monotonic sequence numbers, typed kinds) — the flight
//!   recorder's tape.
//! * [`incident`] — flight-recorder capture: armed trigger predicates
//!   snapshot recent events, metric deltas, the span report, and engine
//!   context into bounded JSONL incident dumps.
//! * [`status`] — `/statusz` composition: process uptime/readiness, the
//!   thread pool, plus pluggable sections registered by other crates.
//! * [`poolstats`] — the vendored rayon pool's scheduling counters
//!   (tasks, steals, park/unpark, per-worker busy time), read directly
//!   into `/metrics` and `/statusz`.
//! * [`exporter`] — a `std::net::TcpListener` HTTP surface serving the
//!   global registry at `/metrics` plus the operational routes
//!   (`/healthz`, `/readyz`, `/statusz`, `/debug/events`,
//!   `/debug/incidents`), spawnable from the streaming engine.
//!
//! Every JSON document served is a `#[derive(Serialize)]` value written
//! by the vendored `serde_json`, so it is valid JSON by construction.
//!
//! # The no-op-when-disabled guarantee
//!
//! Every subsystem starts **disabled**. While disabled, a span guard is
//! two `Instant::now` calls and a metric update or event append is one
//! relaxed atomic load; none takes a lock, allocates, or touches shared
//! state.
//! Observability never reads or writes pipeline data in either state, so
//! enabling it cannot change a single verdict bit —
//! `tests/obs_equivalence.rs` holds the streaming engine to that
//! contract with `f64::to_bits` equality.
//!
//! ```
//! ns_obs::enable_all();
//! {
//!     let _outer = ns_obs::trace::span("demo");
//!     let _inner = ns_obs::trace::span("step");
//!     ns_obs::metrics::global()
//!         .counter("demo_total", "Demo events.", &[])
//!         .inc();
//! }
//! assert!(ns_obs::trace::stats("demo/step").is_some());
//! assert!(ns_obs::metrics::global().render().contains("demo_total 1"));
//! ns_obs::disable_all();
//! ```

pub mod events;
pub mod exporter;
pub mod incident;
pub mod metrics;
pub mod poolstats;
pub mod status;
pub mod trace;

pub use events::{EventKind, EventRecord};
pub use incident::Incident;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::SpanGuard;

/// Switch tracing, metrics, and the event journal on together (the
/// usual deployment mode). Incident capture stays disarmed — arming the
/// flight recorder ([`incident::set_armed`]) is a separate decision.
/// Also pins the [`status::process_epoch`] so `/statusz` uptime counts
/// from enablement at the latest.
pub fn enable_all() {
    status::process_epoch();
    trace::set_enabled(true);
    metrics::set_enabled(true);
    events::set_enabled(true);
}

/// Switch tracing, metrics, and the event journal off together (and
/// disarm incident capture). Already-recorded spans, metric values,
/// events, and incidents are retained (use [`trace::reset`] /
/// [`metrics::Registry::reset`] / [`events::reset`] /
/// [`incident::reset`] to clear them).
pub fn disable_all() {
    trace::set_enabled(false);
    metrics::set_enabled(false);
    events::set_enabled(false);
    incident::set_armed(false);
}

/// Open a named [`trace::SpanGuard`] covering the rest of the enclosing
/// scope:
///
/// ```
/// fn stage() {
///     ns_obs::span!("pipeline.stage");
///     // ... the whole function body is timed ...
/// }
/// stage();
/// ```
///
/// The guard is bound to a hidden local so a bare `span!(...)` statement
/// is enough; use [`trace::span`] directly when the guard itself is
/// needed (early `drop`, [`trace::SpanGuard::finish_seconds`]).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _ns_obs_span_guard = $crate::trace::span($name);
    };
}

/// Compact JSON text of `value` (the vendored writer cannot fail).
pub(crate) fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("the JSON writer is infallible")
}

/// Unit tests toggle the process-wide enable flags, so they serialize on
/// one lock to stay independent of the harness thread count.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_disable_roundtrip() {
        let _l = crate::test_lock();
        crate::enable_all();
        assert!(crate::trace::is_enabled());
        assert!(crate::metrics::is_enabled());
        assert!(crate::events::is_enabled());
        assert!(
            !crate::incident::is_armed(),
            "arming the recorder is a separate decision"
        );
        crate::disable_all();
        assert!(!crate::trace::is_enabled());
        assert!(!crate::metrics::is_enabled());
        assert!(!crate::events::is_enabled());
    }
}
