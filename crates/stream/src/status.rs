//! Engine-side operational status and flight-recorder trigger
//! predicates.
//!
//! Two jobs live here:
//!
//! * **`/statusz` section** — `register_statusz` installs a `"stream"`
//!   section into [`ns_obs::status`] exposing the live shard /
//!   connection view: model fingerprint, shard count, per-shard queue
//!   depths and reorder occupancy, active wire connections, verdict and
//!   fault counters, and the last checkpoint. Everything is read from
//!   atomics and through the metric writers' own handles and
//!   constructors, so a page rendered before the engine has written a
//!   series registers it with the writer's help text — rendering the
//!   page never touches engine state.
//! * **Trigger predicates** — the two flight-recorder triggers that need
//!   windowed state: a Degraded-rate spike (`note_verdicts`: ≥ 50%
//!   degraded over a ≥ [`SPIKE_WINDOW`]-verdict window) and a wire-error
//!   burst (`note_wire_error`: ≥ [`BURST_THRESHOLD`] protocol errors
//!   inside [`BURST_WINDOW`]). Quarantine (in `shard.rs`),
//!   checkpoint-failure and restore-failure (in `engine.rs`) fire
//!   unconditionally at their sites.
//!   All predicates are no-ops while the recorder is disarmed — one
//!   relaxed atomic load.

use crate::metrics::{node_metrics, wire_metrics, FaultMeters, ShardMetrics};
use crate::{EngineConfig, FaultCounters};
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Verdict window the Degraded-spike predicate evaluates over.
pub const SPIKE_WINDOW: u64 = 64;
/// Wire protocol errors within [`BURST_WINDOW`] that constitute a burst.
pub const BURST_THRESHOLD: usize = 8;
/// Sliding time window for the wire-error burst predicate.
pub const BURST_WINDOW: Duration = Duration::from_secs(10);

/// Live engine facts mirrored into atomics at spawn / checkpoint /
/// restore time so `/statusz` renders without touching engine state.
pub(crate) struct EngineStatus {
    pub model_fingerprint: AtomicU64,
    pub n_shards: AtomicUsize,
    pub spawns: AtomicU64,
    pub checkpoints: AtomicU64,
    pub restores: AtomicU64,
    /// Restores refused (bad bytes, wrong model, wrong config).
    pub restore_failures: AtomicU64,
    /// 0 = never checkpointed, 1 = last succeeded, 2 = last failed.
    pub last_ckpt_state: AtomicU64,
    pub last_ckpt_unix_ms: AtomicU64,
    pub last_ckpt_bytes: AtomicU64,
}

pub(crate) fn engine_status() -> &'static EngineStatus {
    static CELL: OnceLock<EngineStatus> = OnceLock::new();
    CELL.get_or_init(|| EngineStatus {
        model_fingerprint: AtomicU64::new(0),
        n_shards: AtomicUsize::new(0),
        spawns: AtomicU64::new(0),
        checkpoints: AtomicU64::new(0),
        restores: AtomicU64::new(0),
        restore_failures: AtomicU64::new(0),
        last_ckpt_state: AtomicU64::new(0),
        last_ckpt_unix_ms: AtomicU64::new(0),
        last_ckpt_bytes: AtomicU64::new(0),
    })
}

/// The flight recorder's context: what every incident dump says about the
/// engine that captured it.
#[derive(Serialize)]
struct EngineContext {
    /// 16 hex digits, as `/statusz` shows it.
    model_fingerprint: String,
    n_shards: usize,
    split: usize,
    smooth_window: usize,
    reorder_bound: usize,
    blackout_gap: usize,
    /// The lowercase [`ScoringPrecision::as_str`](crate::ScoringPrecision::as_str)
    /// label, not the enum's own `F64` spelling.
    scoring_precision: &'static str,
}

impl EngineContext {
    fn new(fingerprint: u64, n_shards: usize, cfg: &EngineConfig) -> Self {
        EngineContext {
            model_fingerprint: format!("{fingerprint:016x}"),
            n_shards,
            split: cfg.split,
            smooth_window: cfg.smooth_window,
            reorder_bound: cfg.reorder_bound,
            blackout_gap: cfg.blackout_gap,
            scoring_precision: cfg.scoring_precision.as_str(),
        }
    }
}

/// Record a spawned engine: update the status atomics, install the
/// `/statusz` section (once per process), flip readiness, and hand the
/// flight recorder its context (config + fingerprint) for incident
/// dumps. `fingerprint` is the digest the engine computed at
/// construction; the copy kept here is for display only — restore never
/// reads it, it recomputes the digest from the model.
pub(crate) fn on_engine_spawn(fingerprint: u64, n_shards: usize, cfg: &EngineConfig) {
    let st = engine_status();
    st.model_fingerprint.store(fingerprint, Ordering::Relaxed);
    st.n_shards.store(n_shards, Ordering::Relaxed);
    st.spawns.fetch_add(1, Ordering::Relaxed);
    register_statusz();
    ns_obs::status::set_ready(true);
    ns_obs::incident::set_context(&EngineContext::new(fingerprint, n_shards, cfg));
}

/// Record a checkpoint outcome for the `/statusz` `last_checkpoint`
/// block.
pub(crate) fn note_checkpoint(ok: bool, bytes: usize) {
    let st = engine_status();
    st.checkpoints.fetch_add(1, Ordering::Relaxed);
    st.last_ckpt_state
        .store(if ok { 1 } else { 2 }, Ordering::Relaxed);
    st.last_ckpt_bytes.store(bytes as u64, Ordering::Relaxed);
    st.last_ckpt_unix_ms
        .store(ns_obs::status::unix_ms(), Ordering::Relaxed);
}

/// The `"stream"` `/statusz` section.
#[derive(Serialize)]
struct StreamSection {
    model_fingerprint: String,
    n_shards: usize,
    engines_spawned: u64,
    shard_queue_depths: Vec<i64>,
    shard_reorder_occupancy: Vec<i64>,
    shard_ticks_total: Vec<u64>,
    active_connections: i64,
    verdicts: Verdicts,
    /// Every [`FaultCounters`] class, in declaration order.
    faults: Value,
    last_checkpoint: LastCheckpoint,
}

#[derive(Serialize)]
struct Verdicts {
    ok: u64,
    degraded: u64,
}

#[derive(Serialize)]
struct LastCheckpoint {
    state: &'static str,
    unix_ms: u64,
    bytes: u64,
    checkpoints: u64,
    restores: u64,
    restore_failures: u64,
}

/// Read the `"stream"` `/statusz` section. Every series is read through
/// the handles its writer uses (registration is idempotent), so series the
/// engine has not touched yet simply read zero and carry their help text.
fn section() -> StreamSection {
    let st = engine_status();
    let n_shards = st.n_shards.load(Ordering::Relaxed);
    let (mut queue, mut reorder, mut ticks) = (Vec::new(), Vec::new(), Vec::new());
    for shard in 0..n_shards {
        let m = ShardMetrics::new(shard);
        queue.push(m.queue_depth.get());
        reorder.push(m.reorder_occupancy.get());
        ticks.push(m.ticks_total.get());
    }
    let node = node_metrics();
    let faults = FaultMeters::new(-1);
    StreamSection {
        model_fingerprint: format!("{:016x}", st.model_fingerprint.load(Ordering::Relaxed)),
        n_shards,
        engines_spawned: st.spawns.load(Ordering::Relaxed),
        shard_queue_depths: queue,
        shard_reorder_occupancy: reorder,
        shard_ticks_total: ticks,
        active_connections: wire_metrics().active_connections.get(),
        verdicts: Verdicts {
            ok: node.verdicts_ok.get(),
            degraded: node.verdicts_degraded.get(),
        },
        faults: Value::Object(
            FaultCounters::default()
                .as_pairs()
                .iter()
                .zip(&faults.counters)
                .map(|((class, _), c)| (class.to_string(), Value::U64(c.get())))
                .collect(),
        ),
        last_checkpoint: LastCheckpoint {
            state: match st.last_ckpt_state.load(Ordering::Relaxed) {
                0 => "never",
                1 => "ok",
                _ => "failed",
            },
            unix_ms: st.last_ckpt_unix_ms.load(Ordering::Relaxed),
            bytes: st.last_ckpt_bytes.load(Ordering::Relaxed),
            checkpoints: st.checkpoints.load(Ordering::Relaxed),
            restores: st.restores.load(Ordering::Relaxed),
            restore_failures: st.restore_failures.load(Ordering::Relaxed),
        },
    }
}

/// Install the `"stream"` section into the process `/statusz` (idempotent).
pub(crate) fn register_statusz() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        ns_obs::status::register_section("stream", || section().to_value());
    });
}

// ---------------------------------------------------------------------
// Trigger predicates
// ---------------------------------------------------------------------

#[derive(Default)]
struct SpikeWindow {
    ok: u64,
    degraded: u64,
}

fn spike_window() -> &'static Mutex<SpikeWindow> {
    static CELL: OnceLock<Mutex<SpikeWindow>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(SpikeWindow::default()))
}

/// Feed the Degraded-spike predicate. Once the accumulated window holds
/// at least [`SPIKE_WINDOW`] verdicts it is evaluated and drained:
/// ≥ 50% degraded captures a `degraded_spike` incident. Disarmed cost:
/// one relaxed atomic load.
pub(crate) fn note_verdicts(ok: u64, degraded: u64) {
    if !ns_obs::incident::is_armed() {
        return;
    }
    let mut w = spike_window().lock().unwrap_or_else(|e| e.into_inner());
    w.ok += ok;
    w.degraded += degraded;
    let total = w.ok + w.degraded;
    if total < SPIKE_WINDOW {
        return;
    }
    let fired = w.degraded * 2 >= total;
    let (wok, wdeg) = (w.ok, w.degraded);
    w.ok = 0;
    w.degraded = 0;
    drop(w);
    if fired {
        ns_obs::incident::capture(
            "degraded_spike",
            &format!(
                "{wdeg} of {} verdicts degraded in the last window",
                wok + wdeg
            ),
        );
    }
}

fn burst_window() -> &'static Mutex<VecDeque<Instant>> {
    static CELL: OnceLock<Mutex<VecDeque<Instant>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Feed the wire-error burst predicate: [`BURST_THRESHOLD`] protocol
/// errors inside [`BURST_WINDOW`] capture a `wire_error_burst` incident
/// and drain the window. Disarmed cost: one relaxed atomic load.
pub(crate) fn note_wire_error() {
    if !ns_obs::incident::is_armed() {
        return;
    }
    let now = Instant::now();
    let mut w = burst_window().lock().unwrap_or_else(|e| e.into_inner());
    w.push_back(now);
    while let Some(&front) = w.front() {
        if now.duration_since(front) > BURST_WINDOW {
            w.pop_front();
        } else {
            break;
        }
    }
    let fired = w.len() >= BURST_THRESHOLD;
    let count = w.len();
    if fired {
        w.clear();
    }
    drop(w);
    if fired {
        ns_obs::incident::capture(
            "wire_error_burst",
            &format!("{count} wire protocol errors within {BURST_WINDOW:?}"),
        );
    }
}

/// Drain both predicate windows (tests).
#[cfg(test)]
pub(crate) fn reset_triggers() {
    let mut w = spike_window().lock().unwrap_or_else(|e| e.into_inner());
    w.ok = 0;
    w.degraded = 0;
    drop(w);
    burst_window()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests flip process-global recorder state; serialize them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `"stream"` field of a parsed `/statusz` document.
    fn statusz_stream() -> Value {
        register_statusz();
        let doc = ns_obs::status::render();
        let v: Value = serde_json::from_str(&doc).expect("/statusz parses");
        v.get("stream").cloned().expect("a stream section")
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn statusz_section_renders_valid_shape() {
        let _l = test_lock();
        let st = engine_status();
        st.model_fingerprint.store(0xabcd, Ordering::Relaxed);
        st.n_shards.store(2, Ordering::Relaxed);
        let stream = statusz_stream();
        assert_eq!(
            keys(&stream),
            [
                "model_fingerprint",
                "n_shards",
                "engines_spawned",
                "shard_queue_depths",
                "shard_reorder_occupancy",
                "shard_ticks_total",
                "active_connections",
                "verdicts",
                "faults",
                "last_checkpoint"
            ]
        );
        let field = |name: &str| stream.get(name).expect(name);
        assert_eq!(
            field("model_fingerprint").as_str(),
            Some("000000000000abcd")
        );
        assert_eq!(field("n_shards").as_u64(), Some(2));
        for per_shard in [
            "shard_queue_depths",
            "shard_reorder_occupancy",
            "shard_ticks_total",
        ] {
            assert!(
                matches!(field(per_shard), Value::Array(a) if a.len() == 2),
                "{per_shard}: {stream:?}"
            );
        }
        assert_eq!(keys(field("verdicts")), ["ok", "degraded"]);
        let classes: Vec<_> = FaultCounters::default()
            .as_pairs()
            .iter()
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(keys(field("faults")), classes);
        assert_eq!(
            keys(field("last_checkpoint")),
            [
                "state",
                "unix_ms",
                "bytes",
                "checkpoints",
                "restores",
                "restore_failures"
            ]
        );
    }

    #[test]
    fn engine_context_keeps_the_lowercase_precision_and_hex_fingerprint() {
        let cfg = EngineConfig {
            scoring_precision: crate::ScoringPrecision::F32,
            ..EngineConfig::new(10)
        };
        let text = serde_json::to_string(&EngineContext::new(0xabcd, 3, &cfg)).unwrap();
        let context: Value = serde_json::from_str(&text).expect("context parses");
        assert_eq!(
            keys(&context),
            [
                "model_fingerprint",
                "n_shards",
                "split",
                "smooth_window",
                "reorder_bound",
                "blackout_gap",
                "scoring_precision"
            ]
        );
        let field = |name: &str| context.get(name).expect(name);
        assert_eq!(
            field("model_fingerprint").as_str(),
            Some("000000000000abcd")
        );
        assert_eq!(field("n_shards").as_u64(), Some(3));
        assert_eq!(field("scoring_precision").as_str(), Some("f32"));
    }

    #[test]
    fn refused_restore_leaves_an_event_a_count_and_an_incident() {
        use crate::snapshot::{EngineSnapshot, SnapshotError};
        use crate::{Engine, EngineError, ScoringPrecision};
        let _l = test_lock();
        // One flipped bit in an otherwise good snapshot: the decode that
        // `restore_bytes` starts with refuses it, and the refusal goes
        // through the one exit both restores share.
        let mut bytes = EngineSnapshot {
            model_fingerprint: 7,
            split: 10,
            smooth_window: 1,
            scoring_precision: ScoringPrecision::F64,
            n_shards: 1,
            nodes: Vec::new(),
            quarantined: vec![3],
            carried_stats: Default::default(),
            carried_faults: Default::default(),
        }
        .to_bytes();
        bytes[20] ^= 0x10;
        let refusal = EngineSnapshot::from_bytes(&bytes).expect_err("bit flip");
        assert_eq!(refusal, SnapshotError::ChecksumMismatch);

        ns_obs::events::set_enabled(true);
        ns_obs::incident::set_armed(true);
        ns_obs::incident::set_min_interval(std::time::Duration::ZERO);
        let failures = || engine_status().restore_failures.load(Ordering::Relaxed);
        let (failed, restored) = (failures(), engine_status().restores.load(Ordering::Relaxed));
        let incidents = ns_obs::incident::stats().captured;
        match Engine::restore_noted(Err(EngineError::from(refusal))) {
            Err(EngineError::Snapshot(SnapshotError::ChecksumMismatch)) => {}
            other => panic!("refusal changed on the way out: {:?}", other.err()),
        }
        assert_eq!(failures(), failed + 1);
        assert_eq!(engine_status().restores.load(Ordering::Relaxed), restored);
        let last = section().last_checkpoint;
        assert_eq!(
            (last.restores, last.restore_failures),
            (restored, failed + 1)
        );
        let journal = ns_obs::events::recent(256);
        let event = journal
            .iter()
            .rfind(|e| e.kind == ns_obs::events::EventKind::Restore)
            .expect("a restore event");
        assert_eq!(event.label, "failed");
        assert_eq!(ns_obs::incident::stats().captured, incidents + 1);
        let incident = ns_obs::incident::incidents().pop().expect("captured");
        assert_eq!(incident.trigger, "restore_failure");
        assert!(
            incident.reason.contains("checksum mismatch"),
            "{}",
            incident.reason
        );
        ns_obs::incident::set_armed(false);
        ns_obs::events::set_enabled(false);
    }

    #[test]
    fn spike_predicate_needs_arming_and_majority() {
        let _l = test_lock();
        ns_obs::incident::set_armed(false);
        reset_triggers();
        note_verdicts(0, SPIKE_WINDOW * 2);
        {
            let w = spike_window().lock().unwrap();
            assert_eq!(w.degraded, 0, "disarmed predicate records nothing");
        }
        ns_obs::incident::set_armed(true);
        ns_obs::incident::set_min_interval(std::time::Duration::ZERO);
        let before = ns_obs::incident::stats().captured;
        // Healthy window: no fire, window drained.
        note_verdicts(SPIKE_WINDOW, 0);
        assert_eq!(ns_obs::incident::stats().captured, before);
        // Majority-degraded window: fires.
        note_verdicts(0, SPIKE_WINDOW);
        assert_eq!(ns_obs::incident::stats().captured, before + 1);
        ns_obs::incident::set_armed(false);
        reset_triggers();
    }

    #[test]
    fn burst_predicate_counts_within_window() {
        let _l = test_lock();
        ns_obs::incident::set_armed(true);
        ns_obs::incident::set_min_interval(std::time::Duration::ZERO);
        reset_triggers();
        let before = ns_obs::incident::stats().captured;
        for _ in 0..BURST_THRESHOLD - 1 {
            note_wire_error();
        }
        assert_eq!(
            ns_obs::incident::stats().captured,
            before,
            "below threshold"
        );
        note_wire_error();
        assert_eq!(
            ns_obs::incident::stats().captured,
            before + 1,
            "burst fires"
        );
        assert!(burst_window().lock().unwrap().is_empty(), "window drained");
        ns_obs::incident::set_armed(false);
        reset_triggers();
    }
}
