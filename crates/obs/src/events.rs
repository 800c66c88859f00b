//! Bounded structured event journal — the flight recorder's tape.
//!
//! A process-global ring of fixed-size [`EventRecord`]s. Producers call
//! [`record`] from hot paths (shard workers, connection threads); each
//! record carries a process-monotonic sequence number, a monotonic
//! timestamp relative to the journal epoch, a typed [`EventKind`], a
//! `&'static str` detail label, shard / node attribution, and two
//! free-form `u64` payload slots. When the ring is full the oldest
//! record is overwritten and a dropped counter advances, so memory is
//! bounded regardless of event rate.
//!
//! The journal obeys the crate-wide no-op-when-disabled contract: it
//! starts **disabled**, and a disabled [`record`] is exactly one relaxed
//! atomic load — no lock, no allocation, no timestamp. Enabled appends
//! take one short `Mutex` critical section (push + maybe pop, no
//! allocation in steady state) — cheap relative to the work that emits
//! events (verdict batches, faults, connection lifecycle), and never on
//! the data path itself, so enabling the journal cannot change a verdict
//! bit (`tests/obs_equivalence.rs` pins this).

use serde::{Serialize, Sink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default ring capacity: at ~64 bytes per record this is ~256 KiB of
/// tape, enough for several seconds of steady-state traffic around an
/// incident while staying irrelevant next to model memory.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Enable or disable event recording process-wide. Reads ([`recent`],
/// [`stats`], …) always work.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether events are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What happened. Kinds are closed-set and fixed-size on purpose: the
/// journal never stores per-event strings beyond `&'static` labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A verdict left the engine (`a` = step, `b` = verdict discriminant).
    Verdict,
    /// A fault counter advanced (`label` = fault class, `a` = delta,
    /// `b` = new total).
    FaultDetected,
    /// A node was quarantined after a scoring panic (`a` = step).
    Quarantine,
    /// A blackout gap was detected on a node (`a` = gap length in steps).
    Blackout,
    /// A blacked-out node resynced (`a` = resync step).
    Resync,
    /// An engine checkpoint completed or failed (`label` = "ok"/"failed",
    /// `a` = snapshot bytes, `b` = nodes captured).
    Checkpoint,
    /// An engine restored from a snapshot (`a` = nodes, `b` = shards).
    Restore,
    /// A restore changed the shard count (`a` = from, `b` = to).
    Reshard,
    /// A wire connection opened (`node` = connection id).
    ConnOpen,
    /// A wire connection closed (`label` = exit class).
    ConnClose,
    /// A wire frame failed to decode or violated the protocol
    /// (`label` = error class).
    ProtocolError,
    /// A verdict subscriber attached (`node` = connection id).
    SubscriberJoin,
    /// The flight recorder captured an incident (`label` = trigger).
    Incident,
    /// The engine clamped per-shard kernel parallelism to avoid
    /// oversubscribing `shards × pool threads` past the machine
    /// (`a` = uncapped kernel width, `b` = clamped width).
    PoolClamp,
}

impl EventKind {
    /// Stable lowercase name used in JSON exports and filters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Verdict => "verdict",
            EventKind::FaultDetected => "fault_detected",
            EventKind::Quarantine => "quarantine",
            EventKind::Blackout => "blackout",
            EventKind::Resync => "resync",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Restore => "restore",
            EventKind::Reshard => "reshard",
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
            EventKind::ProtocolError => "protocol_error",
            EventKind::SubscriberJoin => "subscriber_join",
            EventKind::Incident => "incident",
            EventKind::PoolClamp => "pool_clamp",
        }
    }

    /// Every kind, for exhaustive tests and docs.
    pub const ALL: [EventKind; 14] = [
        EventKind::Verdict,
        EventKind::FaultDetected,
        EventKind::Quarantine,
        EventKind::Blackout,
        EventKind::Resync,
        EventKind::Checkpoint,
        EventKind::Restore,
        EventKind::Reshard,
        EventKind::ConnOpen,
        EventKind::ConnClose,
        EventKind::ProtocolError,
        EventKind::SubscriberJoin,
        EventKind::Incident,
        EventKind::PoolClamp,
    ];
}

/// A kind serializes as its [`label`](EventKind::label).
impl Serialize for EventKind {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.str(self.label())
    }
}

/// One fixed-size journal record. `Copy`, no heap payload: the detail
/// label is `&'static`, attribution is numeric, and kind-specific data
/// rides in the `a`/`b` slots (see [`EventKind`] for their meaning).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EventRecord {
    /// Process-monotonic sequence number (gaps mean overwritten tape).
    pub seq: u64,
    /// Monotonic nanoseconds since the journal epoch.
    pub t_ns: u64,
    pub kind: EventKind,
    /// Kind-specific detail tag (fault class, wire error class, …) or "".
    pub label: &'static str,
    /// Owning shard, or `-1` when not shard-scoped.
    pub shard: i64,
    /// Node id — or connection id for wire events — or `-1`.
    pub node: i64,
    /// First kind-specific payload slot.
    pub a: u64,
    /// Second kind-specific payload slot.
    pub b: u64,
}

impl EventRecord {
    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        crate::to_json(self)
    }
}

struct Journal {
    ring: VecDeque<EventRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    epoch: Instant,
}

fn journal() -> &'static Mutex<Journal> {
    static JOURNAL: OnceLock<Mutex<Journal>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        Mutex::new(Journal {
            ring: VecDeque::with_capacity(DEFAULT_CAPACITY),
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            dropped: 0,
            epoch: Instant::now(),
        })
    })
}

fn lock_journal() -> MutexGuard<'static, Journal> {
    journal().lock().unwrap_or_else(|e| e.into_inner())
}

/// Append one record. Disabled: one relaxed atomic load, nothing else.
pub fn record(kind: EventKind, label: &'static str, shard: i64, node: i64, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    let mut j = lock_journal();
    let t_ns = j.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let seq = j.next_seq;
    j.next_seq += 1;
    if j.ring.len() == j.capacity {
        j.ring.pop_front();
        j.dropped += 1;
    }
    j.ring.push_back(EventRecord {
        seq,
        t_ns,
        kind,
        label,
        shard,
        node,
        a,
        b,
    });
}

/// The newest `n` records, oldest first (all of them when `n` exceeds
/// the ring occupancy).
pub fn recent(n: usize) -> Vec<EventRecord> {
    let j = lock_journal();
    let skip = j.ring.len().saturating_sub(n);
    j.ring.iter().skip(skip).copied().collect()
}

/// Journal occupancy and bookkeeping, for `/statusz` and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalStats {
    /// Total records ever appended (== the next sequence number).
    pub recorded: u64,
    /// Records currently on the ring.
    pub len: usize,
    /// Records overwritten by ring wrap-around.
    pub dropped: u64,
    pub capacity: usize,
    pub enabled: bool,
}

/// Snapshot the journal bookkeeping.
pub fn stats() -> JournalStats {
    let j = lock_journal();
    JournalStats {
        recorded: j.next_seq,
        len: j.ring.len(),
        dropped: j.dropped,
        capacity: j.capacity,
        enabled: is_enabled(),
    }
}

/// Resize the ring (trimming the oldest records if shrinking). Intended
/// for setup, not hot paths.
pub fn set_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    let mut j = lock_journal();
    while j.ring.len() > capacity {
        j.ring.pop_front();
        j.dropped += 1;
    }
    j.capacity = capacity;
}

/// Discard all records and restart sequence numbers and the epoch (the
/// enabled flag and capacity are untouched).
pub fn reset() {
    let mut j = lock_journal();
    j.ring.clear();
    j.next_seq = 0;
    j.dropped = 0;
    j.epoch = Instant::now();
}

/// Render the newest `n` records as one JSON document:
/// `{"recorded":…,"dropped":…,"events":[…]}` with events oldest first.
pub fn render_json(n: usize) -> String {
    #[derive(Serialize)]
    struct Doc {
        recorded: u64,
        dropped: u64,
        events: Vec<EventRecord>,
    }
    let events = recent(n);
    let s = stats();
    let doc = Doc {
        recorded: s.recorded,
        dropped: s.dropped,
        events,
    };
    crate::to_json(&doc) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_record_is_a_noop() {
        let _l = crate::test_lock();
        set_enabled(false);
        reset();
        record(EventKind::Verdict, "", 0, 1, 2, 3);
        let s = stats();
        assert_eq!(s.recorded, 0);
        assert_eq!(s.len, 0);
        assert!(!s.enabled);
    }

    #[test]
    fn records_carry_monotonic_seq_and_time() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        record(EventKind::ConnOpen, "", -1, 7, 0, 0);
        record(EventKind::Quarantine, "", 2, 41, 99, 0);
        set_enabled(false);
        let got = recent(10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 0);
        assert_eq!(got[1].seq, 1);
        assert!(got[1].t_ns >= got[0].t_ns, "monotonic timestamps");
        assert_eq!(got[1].kind, EventKind::Quarantine);
        assert_eq!(got[1].shard, 2);
        assert_eq!(got[1].node, 41);
        assert_eq!(got[1].a, 99);
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        set_capacity(8);
        for i in 0..20 {
            record(EventKind::Verdict, "", 0, i, 0, 0);
        }
        set_enabled(false);
        let s = stats();
        assert_eq!(s.len, 8);
        assert_eq!(s.recorded, 20);
        assert_eq!(s.dropped, 12);
        let got = recent(100);
        assert_eq!(got.first().unwrap().seq, 12, "oldest survivor");
        assert_eq!(got.last().unwrap().seq, 19);
        set_capacity(DEFAULT_CAPACITY);
        reset();
    }

    #[test]
    fn json_export_parses_with_the_documented_keys() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        record(EventKind::ProtocolError, "bad_checksum", -1, 3, 1, 0);
        set_enabled(false);
        let doc = render_json(10);
        assert!(doc.ends_with('\n'), "{doc}");
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(v.get("recorded").and_then(|r| r.as_u64()), Some(1));
        assert_eq!(v.get("dropped").and_then(|d| d.as_u64()), Some(0));
        let Some(serde_json::Value::Array(events)) = v.get("events") else {
            panic!("no events array: {doc}");
        };
        let e = &events[0];
        for key in ["seq", "t_ns", "kind", "label", "shard", "node", "a", "b"] {
            assert!(e.get(key).is_some(), "event misses {key}: {doc}");
        }
        assert_eq!(
            e.get("kind").and_then(|k| k.as_str()),
            Some("protocol_error")
        );
        assert_eq!(
            e.get("label").and_then(|l| l.as_str()),
            Some("bad_checksum")
        );
        assert_eq!(e.get("shard").and_then(|s| s.as_i64()), Some(-1));
        for k in EventKind::ALL {
            assert!(!k.label().is_empty());
        }
    }
}
