//! Flight-recorder incident capture.
//!
//! When something operationally interesting fires — a quarantine, a wire
//! error burst, a Degraded-rate spike, a checkpoint failure — the owner
//! of that signal calls [`capture`]. If the recorder is **armed** and the
//! trigger is not inside its debounce window, the capture snapshots:
//!
//! * the recent [`events`] ring contents (bounded to
//!   [`MAX_EVENTS_PER_INCIDENT`] records),
//! * deltas of every registered metric since the previous capture
//!   (absolute values on the first capture),
//! * the current [`crate::trace::report`],
//! * the process context installed via [`set_context`] (the streaming
//!   engine stores its config + model fingerprint there).
//!
//! Storage is bounded: the newest [`MAX_INCIDENTS`] incidents are kept,
//! rendered on demand as JSONL by [`render_jsonl`] and served at
//! `/debug/incidents`. Like the rest of the crate everything defaults
//! off — a disarmed [`capture`] is one relaxed atomic load — and capture
//! only ever *reads* pipeline-adjacent state, so arming it cannot change
//! a verdict bit.

use crate::events::{self, EventRecord};
use crate::metrics::{self, MetricValue};
use crate::{status, trace};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Newest incidents retained in memory.
pub const MAX_INCIDENTS: usize = 8;
/// Journal records snapshotted into one incident.
pub const MAX_EVENTS_PER_INCIDENT: usize = 512;
/// Default per-trigger debounce window.
pub const DEFAULT_MIN_INTERVAL: Duration = Duration::from_secs(30);

/// Arm or disarm incident capture process-wide.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Whether triggers currently capture incidents.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// One captured incident: the flight-recorder dump unit.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Process-monotonic capture id (0, 1, …).
    pub id: u64,
    /// Which predicate fired (`"quarantine"`, `"wire_error_burst"`, …).
    pub trigger: &'static str,
    /// Human-oriented one-liner from the trigger site.
    pub reason: String,
    /// Monotonic nanoseconds since the event-journal epoch.
    pub t_ns: u64,
    /// Wall-clock capture time (milliseconds since the Unix epoch).
    pub unix_ms: u64,
    /// Recent journal records, oldest first.
    pub events: Vec<EventRecord>,
    /// Per-series metric movement since the previous capture (`value` is
    /// the delta; series that did not move are omitted).
    pub metrics_delta: Vec<MetricValue>,
    /// `trace::report()` at capture time.
    pub span_report: String,
    /// Compact JSON text of the context installed via [`set_context`]
    /// (`{}` if unset).
    pub context: String,
}

/// The JSONL unit: an [`Incident`] with each metric movement keyed
/// `delta` and the context as the JSON value it is.
#[derive(Serialize)]
struct IncidentLine<'a> {
    id: u64,
    trigger: &'a str,
    reason: &'a str,
    t_ns: u64,
    unix_ms: u64,
    context: Value,
    metrics_delta: Vec<Delta<'a>>,
    events: &'a [EventRecord],
    span_report: &'a str,
}

#[derive(Serialize)]
struct Delta<'a> {
    name: &'a str,
    labels: &'a str,
    /// Non-finite movements (a histogram that observed ±∞) write `null`.
    delta: f64,
}

impl Incident {
    /// Render as one JSON object (no trailing newline) — the JSONL unit
    /// served by `/debug/incidents`.
    pub fn to_json(&self) -> String {
        crate::to_json(&IncidentLine {
            id: self.id,
            trigger: self.trigger,
            reason: &self.reason,
            t_ns: self.t_ns,
            unix_ms: self.unix_ms,
            // `set_context` wrote this text, so it parses. An `Incident`
            // built by hand with a blank context writes `{}`; with other
            // text, it carries the text as a string.
            context: if self.context.trim().is_empty() {
                Value::Object(Vec::new())
            } else {
                serde_json::from_str(&self.context)
                    .unwrap_or_else(|_| Value::Str(self.context.clone()))
            },
            metrics_delta: self
                .metrics_delta
                .iter()
                .map(|m| Delta {
                    name: &m.name,
                    labels: &m.labels,
                    delta: m.value,
                })
                .collect(),
            events: &self.events,
            span_report: &self.span_report,
        })
    }
}

struct Recorder {
    incidents: Vec<Incident>,
    next_id: u64,
    suppressed: u64,
    min_interval: Duration,
    last_fire: BTreeMap<&'static str, Instant>,
    /// `(name, labels) → value` at the previous capture; deltas diff
    /// against this.
    baseline: BTreeMap<(String, String), f64>,
    /// Compact JSON text of the installed context (`{}` if unset).
    context: String,
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| {
        Mutex::new(Recorder {
            incidents: Vec::new(),
            next_id: 0,
            suppressed: 0,
            min_interval: DEFAULT_MIN_INTERVAL,
            last_fire: BTreeMap::new(),
            baseline: BTreeMap::new(),
            context: "{}".to_string(),
        })
    })
}

fn lock_recorder() -> MutexGuard<'static, Recorder> {
    recorder().lock().unwrap_or_else(|e| e.into_inner())
}

/// Install the process context embedded in every dump (the engine stores
/// its config + model fingerprint as an object).
pub fn set_context<T: Serialize + ?Sized>(context: &T) {
    lock_recorder().context = crate::to_json(context);
}

/// Override the per-trigger debounce window (tests use `ZERO`).
pub fn set_min_interval(d: Duration) {
    lock_recorder().min_interval = d;
}

/// Fire `trigger`. Returns `true` if an incident was captured, `false`
/// when disarmed or debounced. Disarmed cost: one relaxed atomic load.
pub fn capture(trigger: &'static str, reason: &str) -> bool {
    if !is_armed() {
        return false;
    }
    // Debounce bookkeeping first, holding only the recorder lock.
    {
        let mut rec = lock_recorder();
        let now = Instant::now();
        if let Some(&prev) = rec.last_fire.get(trigger) {
            if now.duration_since(prev) < rec.min_interval {
                rec.suppressed += 1;
                return false;
            }
        }
        rec.last_fire.insert(trigger, now);
    }
    // Snapshot the other subsystems without holding our lock: each takes
    // (and releases) its own, so there is no lock-order coupling.
    let events = events::recent(MAX_EVENTS_PER_INCIDENT);
    let t_ns = events.last().map(|e| e.t_ns).unwrap_or(0);
    let values = metrics::global().values();
    let span_report = trace::report();
    let unix_ms = status::unix_ms();

    let mut rec = lock_recorder();
    let mut metrics_delta = Vec::new();
    for v in &values {
        let key = (v.name.clone(), v.labels.clone());
        let prev = rec.baseline.get(&key).copied().unwrap_or(0.0);
        // Compared, not subtracted: an infinite value that has not moved
        // would read `inf - inf = NaN`, a delta that is not zero.
        if v.value != prev {
            metrics_delta.push(MetricValue {
                name: v.name.clone(),
                labels: v.labels.clone(),
                value: v.value - prev,
            });
        }
        rec.baseline.insert(key, v.value);
    }
    let id = rec.next_id;
    rec.next_id += 1;
    let incident = Incident {
        id,
        trigger,
        reason: reason.to_string(),
        t_ns,
        unix_ms,
        events,
        metrics_delta,
        span_report,
        context: rec.context.clone(),
    };
    if rec.incidents.len() == MAX_INCIDENTS {
        rec.incidents.remove(0);
    }
    rec.incidents.push(incident);
    drop(rec);
    // The capture itself goes on the tape, so later incidents show it.
    events::record(events::EventKind::Incident, trigger, -1, -1, id, 0);
    true
}

/// Clone of the retained incidents, oldest first.
pub fn incidents() -> Vec<Incident> {
    lock_recorder().incidents.clone()
}

/// Capture bookkeeping — the `"incidents"` field of `/statusz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RecorderStats {
    pub armed: bool,
    /// Incidents ever captured (== the next id).
    pub captured: u64,
    /// Incidents currently retained.
    pub retained: usize,
    /// Trigger firings swallowed by the debounce window.
    pub suppressed: u64,
}

/// Snapshot the recorder bookkeeping.
pub fn stats() -> RecorderStats {
    let rec = lock_recorder();
    RecorderStats {
        captured: rec.next_id,
        retained: rec.incidents.len(),
        suppressed: rec.suppressed,
        armed: is_armed(),
    }
}

/// Render every retained incident as JSON Lines, oldest first, followed
/// by one meta line with the capture totals.
pub fn render_jsonl() -> String {
    #[derive(Serialize)]
    struct Meta {
        meta: &'static str,
        captured: u64,
        retained: usize,
        suppressed: u64,
    }
    let rec = lock_recorder();
    let mut out = String::new();
    for i in &rec.incidents {
        out.push_str(&i.to_json());
        out.push('\n');
    }
    out.push_str(&crate::to_json(&Meta {
        meta: "ns-obs-incidents",
        captured: rec.next_id,
        retained: rec.incidents.len(),
        suppressed: rec.suppressed,
    }));
    out.push('\n');
    out
}

/// Discard incidents, debounce history, the metrics baseline, and the
/// context (armed flag and interval untouched).
pub fn reset() {
    let mut rec = lock_recorder();
    rec.incidents.clear();
    rec.next_id = 0;
    rec.suppressed = 0;
    rec.last_fire.clear();
    rec.baseline.clear();
    rec.context = "{}".to_string();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_capture_is_a_noop() {
        let _l = crate::test_lock();
        set_armed(false);
        reset();
        assert!(!capture("quarantine", "node 3 panicked"));
        assert_eq!(stats().captured, 0);
    }

    #[test]
    fn capture_snapshots_events_metrics_and_context() {
        let _l = crate::test_lock();
        reset();
        events::set_enabled(true);
        events::reset();
        metrics::set_enabled(true);
        metrics::global()
            .counter("incident_test_total", "Incident smoke counter.", &[])
            .add(3);
        events::record(events::EventKind::Quarantine, "", 1, 9, 40, 0);
        set_armed(true);
        set_min_interval(Duration::ZERO);
        set_context(&serde_json::json!({ "fingerprint": "abc" }));
        assert!(capture("quarantine", "node 9 panicked at step 40"));
        metrics::set_enabled(false);
        events::set_enabled(false);
        set_armed(false);

        let all = incidents();
        assert_eq!(all.len(), 1);
        let inc = &all[0];
        assert_eq!(inc.id, 0);
        assert_eq!(inc.trigger, "quarantine");
        assert!(inc.reason.contains("node 9"));
        assert!(inc
            .events
            .iter()
            .any(|e| e.kind == events::EventKind::Quarantine && e.node == 9));
        assert!(inc
            .metrics_delta
            .iter()
            .any(|m| m.name == "incident_test_total" && m.value == 3.0));
        assert_eq!(inc.context, r#"{"fingerprint":"abc"}"#);
        let line: Value = serde_json::from_str(&inc.to_json()).expect("valid JSON");
        for key in [
            "id",
            "trigger",
            "reason",
            "t_ns",
            "unix_ms",
            "context",
            "metrics_delta",
            "events",
            "span_report",
        ] {
            assert!(line.get(key).is_some(), "incident misses {key}: {line:?}");
        }
        let fingerprint = line.get("context").and_then(|c| c.get("fingerprint"));
        assert_eq!(fingerprint.and_then(|f| f.as_str()), Some("abc"));
        let Some(Value::Array(deltas)) = line.get("metrics_delta") else {
            panic!("no metrics_delta array: {line:?}");
        };
        assert!(deltas.iter().any(|d| {
            d.get("name").and_then(|n| n.as_str()) == Some("incident_test_total")
                && d.get("labels").and_then(|l| l.as_str()) == Some("")
                && d.get("delta").and_then(|v| v.as_f64()) == Some(3.0)
        }));
        let dump = render_jsonl();
        let lines: Vec<Value> = dump
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line parses"))
            .collect();
        assert_eq!(lines.len(), 2, "{dump}");
        let meta = &lines[1];
        assert_eq!(
            meta.get("meta").and_then(|m| m.as_str()),
            Some("ns-obs-incidents")
        );
        for key in ["captured", "retained", "suppressed"] {
            assert!(meta.get(key).is_some(), "meta misses {key}: {dump}");
        }
        reset();
        events::reset();
    }

    /// An infinite observation reaches both exports through a histogram's
    /// `_sum`: the incident dump must still parse (the delta writes
    /// `null`), and `/metrics` must spell it the Prometheus way.
    #[test]
    fn non_finite_metric_keeps_both_exports_parseable() {
        let _l = crate::test_lock();
        reset();
        metrics::set_enabled(true);
        metrics::global()
            .histogram("incident_inf_seconds", "Non-finite smoke.", &[], &[1.0])
            .observe(f64::INFINITY);
        set_armed(true);
        set_min_interval(Duration::ZERO);
        assert!(capture("quarantine", "an infinite observation"));
        metrics::set_enabled(false);
        set_armed(false);
        set_min_interval(DEFAULT_MIN_INTERVAL);

        let sum = incidents()[0]
            .metrics_delta
            .iter()
            .find(|m| m.name == "incident_inf_seconds_sum")
            .map(|m| m.value);
        assert_eq!(sum, Some(f64::INFINITY));
        let dump = render_jsonl();
        for line in dump.lines() {
            if let Err(e) = serde_json::from_str::<Value>(line) {
                panic!("{e}: {line}");
            }
        }
        let text = metrics::global().render();
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("incident_inf_seconds_sum"))
            .expect("a _sum line");
        assert!(sum_line.ends_with(" +Inf"), "{sum_line}");
        reset();
    }

    #[test]
    fn blank_context_writes_an_empty_object() {
        let inc = Incident {
            id: 0,
            trigger: "quarantine",
            reason: String::new(),
            t_ns: 0,
            unix_ms: 0,
            events: Vec::new(),
            metrics_delta: Vec::new(),
            span_report: String::new(),
            context: " ".to_string(),
        };
        assert!(
            inc.to_json().contains(r#""context":{},"#),
            "{}",
            inc.to_json()
        );
    }

    #[test]
    fn debounce_suppresses_repeat_triggers_and_deltas_reset() {
        let _l = crate::test_lock();
        reset();
        set_armed(true);
        set_min_interval(Duration::from_secs(3600));
        assert!(capture("wire_error_burst", "first"));
        assert!(!capture("wire_error_burst", "second"), "debounced");
        // A different trigger is independent.
        assert!(capture("checkpoint_failure", "other"));
        let s = stats();
        assert_eq!(s.captured, 2);
        assert_eq!(s.suppressed, 1);
        // Second capture saw no metric movement → empty delta.
        assert!(incidents()[1].metrics_delta.is_empty());
        set_armed(false);
        set_min_interval(DEFAULT_MIN_INTERVAL);
        reset();
    }

    #[test]
    fn storage_is_bounded_to_newest() {
        let _l = crate::test_lock();
        reset();
        set_armed(true);
        set_min_interval(Duration::ZERO);
        for _ in 0..(MAX_INCIDENTS + 3) {
            assert!(capture("quarantine", "again"));
        }
        let all = incidents();
        assert_eq!(all.len(), MAX_INCIDENTS);
        assert_eq!(all.last().unwrap().id, (MAX_INCIDENTS + 2) as u64);
        set_armed(false);
        set_min_interval(DEFAULT_MIN_INTERVAL);
        reset();
    }
}
