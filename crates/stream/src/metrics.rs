//! Live metrics for the streaming engine.
//!
//! Every series lives in the [global ns-obs
//! registry](ns_obs::metrics::global) so one `/metrics` endpoint
//! ([`Engine::serve_metrics`](crate::Engine::serve_metrics)) exposes
//! all engines in the process. The constants below are the single
//! source of truth for metric names — tests and dashboards key off
//! them.
//!
//! | metric | type | labels | meaning |
//! |---|---|---|---|
//! | [`QUEUE_DEPTH`] | gauge | `shard` | tick batches waiting in a shard's bounded queue |
//! | [`REORDER_OCCUPANCY`] | gauge | `shard` | ticks parked in the shard's per-node reorder buffers |
//! | [`INGEST_SECONDS`] | histogram | — | wall time of one `Engine::ingest` call (includes backpressure blocking) |
//! | [`MATCH_SECONDS`] | histogram | — | one probe feature-extraction + library-match cycle |
//! | [`SCORE_SECONDS`] | histogram | — | one segment scored through its shared model (its job's own elapsed time) |
//! | [`POINT_SECONDS`] | histogram | — | scoring compute attributed per emitted point |
//! | [`SCORE_BATCH_SEGMENTS`] | histogram | — | segment jobs handed out by one submission (a shard's batch boundary, end-of-stream flush, or one node's drain) |
//! | [`MATCH_BATCH_PROBES`] | histogram | — | probe matches handed out by one submission (burst size) |
//! | [`TICKS_TOTAL`] | counter | `shard` | ticks accepted off the queue |
//! | [`VERDICTS_TOTAL`] | counter | `kind` (`ok`/`degraded`) | verdicts emitted |
//! | [`FAULTS_TOTAL`] | counter | `class` | live view of every [`FaultCounters`] field |
//! | [`SNAPSHOT_BYTES`] | histogram | — | encoded engine snapshot size |
//! | [`CHECKPOINT_SECONDS`] | histogram | — | one checkpoint barrier, end to end |
//! | [`RESTORE_SECONDS`] | histogram | — | one restore from snapshot bytes |
//! | [`WIRE_CONNECTIONS_TOTAL`] | counter | `role` (`ingest`/`verdicts`) | connections accepted by the ingest server |
//! | [`WIRE_ACTIVE_CONNECTIONS`] | gauge | — | connections currently open (RAII-balanced) |
//! | [`WIRE_RX_BYTES_TOTAL`] | counter | — | bytes read off ingest sockets |
//! | [`WIRE_TX_BYTES_TOTAL`] | counter | — | bytes written to clients (verdicts, pongs, errors) |
//! | [`WIRE_FRAMES_TOTAL`] | counter | `kind` | frames decoded, by frame kind |
//! | [`WIRE_ERRORS_TOTAL`] | counter | `class` | wire protocol errors, by [`WireError::class`](ns_wire::WireError::class) |
//! | [`WIRE_TORN_FRAMES_TOTAL`] | counter | — | connections that hit EOF mid-frame |
//! | [`WIRE_INGEST_BATCH_TICKS`] | histogram | — | ticks per socket-read batch handed to `Engine::ingest` |
//!
//! The thread pool's scheduling series (`pool_tasks_total`,
//! `pool_steals_total`, `pool_parks_total`, `pool_unparks_total`,
//! `pool_jobs_total`, `pool_workers`, `pool_queued_jobs`,
//! `pool_worker_busy_us_total{worker}`) and the `"pool"` `/statusz` field
//! are [`ns_obs::poolstats`]'s, read straight from the vendored rayon
//! pool on every scrape.
//!
//! All updates are no-ops while `ns_obs` metrics are disabled; nothing
//! here reads or writes pipeline data, which is how the engine keeps its
//! bit-exactness contract with observability on
//! (`tests/obs_equivalence.rs`).

use crate::FaultCounters;
use ns_obs::metrics::{global, latency_buckets, size_buckets, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Gauge: tick batches currently queued for a shard (`shard` label).
pub const QUEUE_DEPTH: &str = "ns_stream_shard_queue_depth";
/// Gauge: ticks waiting in a shard's per-node reorder buffers.
pub const REORDER_OCCUPANCY: &str = "ns_stream_reorder_occupancy";
/// Histogram: seconds one `ingest` call took, blocking included.
pub const INGEST_SECONDS: &str = "ns_stream_ingest_seconds";
/// Histogram: seconds per pattern-matching cycle.
pub const MATCH_SECONDS: &str = "ns_stream_match_seconds";
/// Histogram: seconds per segment scoring pass.
pub const SCORE_SECONDS: &str = "ns_stream_score_seconds";
/// Histogram: scoring seconds attributed to each emitted point.
pub const POINT_SECONDS: &str = "ns_stream_point_seconds";
/// Histogram: segment jobs handed out by one submission.
pub const SCORE_BATCH_SEGMENTS: &str = "ns_stream_score_batch_segments";
/// Histogram: probe matches handed out by one submission.
pub const MATCH_BATCH_PROBES: &str = "ns_stream_match_batch_probes";
/// Counter: ticks accepted by shard workers (`shard` label).
pub const TICKS_TOTAL: &str = "ns_stream_ticks_total";
/// Counter: verdicts emitted, labeled `kind="ok"|"degraded"`.
pub const VERDICTS_TOTAL: &str = "ns_stream_verdicts_total";
/// Counter: absorbed stream faults, labeled `class=<FaultCounters field>`.
pub const FAULTS_TOTAL: &str = "ns_stream_faults_total";
/// Histogram: encoded size of one engine snapshot, bytes.
pub const SNAPSHOT_BYTES: &str = "ns_stream_snapshot_bytes";
/// Histogram: seconds one `Engine::checkpoint` barrier took end to end.
pub const CHECKPOINT_SECONDS: &str = "ns_stream_checkpoint_seconds";
/// Histogram: seconds one restore took, one observation per restored
/// engine: `Engine::restore_bytes` from its entry (decode + model check +
/// state rebuild + worker spawn), `Engine::restore` on an already decoded
/// snapshot from its own.
pub const RESTORE_SECONDS: &str = "ns_stream_restore_seconds";
/// Counter: connections the ingest server accepted, labeled
/// `role="ingest"|"verdicts"`.
pub const WIRE_CONNECTIONS_TOTAL: &str = "ns_wire_connections_total";
/// Gauge: connections currently open on the ingest server.
pub const WIRE_ACTIVE_CONNECTIONS: &str = "ns_wire_active_connections";
/// Counter: bytes read off ingest sockets.
pub const WIRE_RX_BYTES_TOTAL: &str = "ns_wire_rx_bytes_total";
/// Counter: bytes written back to clients.
pub const WIRE_TX_BYTES_TOTAL: &str = "ns_wire_tx_bytes_total";
/// Counter: frames decoded, labeled `kind=<frame kind>`.
pub const WIRE_FRAMES_TOTAL: &str = "ns_wire_frames_total";
/// Counter: wire protocol errors, labeled `class=<WireError class>`.
pub const WIRE_ERRORS_TOTAL: &str = "ns_wire_errors_total";
/// Counter: connections that ended mid-frame (peer died while writing).
pub const WIRE_TORN_FRAMES_TOTAL: &str = "ns_wire_torn_frames_total";
/// Histogram: ticks per socket-read batch handed to `Engine::ingest`.
pub const WIRE_INGEST_BATCH_TICKS: &str = "ns_wire_ingest_batch_ticks";

/// Handles used from per-node pipeline code (match/score/verdict path).
/// One set per process — every engine and shard shares them.
pub(crate) struct NodeMetrics {
    pub match_seconds: Histogram,
    pub score_seconds: Histogram,
    pub point_seconds: Histogram,
    pub batch_segments: Histogram,
    pub batch_probes: Histogram,
    pub verdicts_ok: Counter,
    pub verdicts_degraded: Counter,
}

/// Power-of-two count buckets (1, 2, 4, …, 1024) for batch-occupancy
/// and burst-size distributions.
fn count_buckets() -> Vec<f64> {
    (0..11).map(|i| (1u64 << i) as f64).collect()
}

pub(crate) fn node_metrics() -> &'static NodeMetrics {
    static CELL: OnceLock<NodeMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = global();
        let buckets = latency_buckets();
        let counts = count_buckets();
        NodeMetrics {
            match_seconds: reg.histogram(
                MATCH_SECONDS,
                "Seconds per probe pattern-matching cycle.",
                &[],
                &buckets,
            ),
            score_seconds: reg.histogram(
                SCORE_SECONDS,
                "Seconds per segment scoring pass through the shared model.",
                &[],
                &buckets,
            ),
            point_seconds: reg.histogram(
                POINT_SECONDS,
                "Scoring seconds attributed per emitted detection point.",
                &[],
                &buckets,
            ),
            batch_segments: reg.histogram(
                SCORE_BATCH_SEGMENTS,
                "Segment jobs handed out by one submission.",
                &[],
                &counts,
            ),
            batch_probes: reg.histogram(
                MATCH_BATCH_PROBES,
                "Probe matches handed out by one submission.",
                &[],
                &counts,
            ),
            verdicts_ok: reg.counter(
                VERDICTS_TOTAL,
                "Verdicts emitted by kind.",
                &[("kind", "ok")],
            ),
            verdicts_degraded: reg.counter(
                VERDICTS_TOTAL,
                "Verdicts emitted by kind.",
                &[("kind", "degraded")],
            ),
        }
    })
}

/// Handles for the checkpoint/restore lifecycle path.
pub(crate) struct SnapshotMetrics {
    pub snapshot_bytes: Histogram,
    pub checkpoint_seconds: Histogram,
    pub restore_seconds: Histogram,
}

pub(crate) fn snapshot_metrics() -> &'static SnapshotMetrics {
    static CELL: OnceLock<SnapshotMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = global();
        let lat = latency_buckets();
        SnapshotMetrics {
            snapshot_bytes: reg.histogram(
                SNAPSHOT_BYTES,
                "Encoded engine snapshot size in bytes.",
                &[],
                &size_buckets(),
            ),
            checkpoint_seconds: reg.histogram(
                CHECKPOINT_SECONDS,
                "Seconds per engine checkpoint barrier, end to end.",
                &[],
                &lat,
            ),
            restore_seconds: reg.histogram(
                RESTORE_SECONDS,
                "Seconds per engine restore from a snapshot.",
                &[],
                &lat,
            ),
        }
    })
}

/// One live counter per [`FaultCounters`] field, bridged by delta so the
/// `/metrics` view moves while the engine runs instead of only in the
/// end-of-run [`EngineReport`](crate::EngineReport).
pub(crate) struct FaultMeters {
    /// Index-aligned with [`FaultCounters::as_pairs`].
    pub counters: Vec<Counter>,
    /// Shard attribution for journal events.
    shard: i64,
}

impl FaultMeters {
    pub fn new(shard: i64) -> Self {
        let reg = global();
        let counters = FaultCounters::default()
            .as_pairs()
            .iter()
            .map(|(class, _)| {
                reg.counter(
                    FAULTS_TOTAL,
                    "Stream faults absorbed by the engine, by class.",
                    &[("class", class)],
                )
            })
            .collect();
        FaultMeters { counters, shard }
    }

    /// Add the per-class deltas between two cumulative snapshots, and
    /// append one `fault_detected` journal event per advancing class
    /// (counter adds and event appends are each self-gated on their own
    /// enabled flag).
    pub fn publish(&self, prev: &FaultCounters, cur: &FaultCounters) {
        let events_on = ns_obs::events::is_enabled();
        for ((_, p), ((class, c), counter)) in prev
            .as_pairs()
            .iter()
            .zip(cur.as_pairs().iter().zip(&self.counters))
        {
            // Counters only move forward; saturate defensively anyway.
            let d = c.saturating_sub(*p);
            if d > 0 {
                counter.add(d);
                if events_on {
                    ns_obs::events::record(
                        ns_obs::events::EventKind::FaultDetected,
                        class,
                        self.shard,
                        -1,
                        d,
                        *c,
                    );
                }
            }
        }
    }
}

/// Per-shard worker handles; also how the engine and `/statusz` reach a
/// shard's series.
pub(crate) struct ShardMetrics {
    pub queue_depth: Gauge,
    pub reorder_occupancy: Gauge,
    pub ticks_total: Counter,
    pub faults: FaultMeters,
}

impl ShardMetrics {
    pub fn new(shard: usize) -> Self {
        let reg = global();
        let label = shard.to_string();
        ShardMetrics {
            queue_depth: reg.gauge(
                QUEUE_DEPTH,
                "Tick batches waiting in a shard's bounded queue.",
                &[("shard", &label)],
            ),
            reorder_occupancy: reg.gauge(
                REORDER_OCCUPANCY,
                "Ticks parked in the shard's per-node reorder buffers.",
                &[("shard", &label)],
            ),
            ticks_total: reg.counter(
                TICKS_TOTAL,
                "Ticks accepted by shard workers.",
                &[("shard", &label)],
            ),
            faults: FaultMeters::new(shard as i64),
        }
    }
}

/// Handles for the socket ingest path. One set per process; the
/// per-kind/per-class counters for rare frames are fetched on demand
/// (registration is idempotent), only the per-tick-hot handles live here.
pub(crate) struct WireMetrics {
    pub connections_ingest: Counter,
    pub connections_verdicts: Counter,
    pub active_connections: Gauge,
    pub rx_bytes: Counter,
    pub tx_bytes: Counter,
    pub frames_tick: Counter,
    pub torn_frames: Counter,
    pub batch_ticks: Histogram,
}

impl WireMetrics {
    /// Counter for a non-tick frame kind (control frames — cold path).
    pub fn frames(&self, kind: &'static str) -> Counter {
        if kind == "tick" {
            return self.frames_tick.clone();
        }
        global().counter(
            WIRE_FRAMES_TOTAL,
            "Wire frames decoded, by kind.",
            &[("kind", kind)],
        )
    }

    /// Counter for one wire error class.
    pub fn errors(&self, class: &'static str) -> Counter {
        global().counter(
            WIRE_ERRORS_TOTAL,
            "Wire protocol errors, by class.",
            &[("class", class)],
        )
    }
}

pub(crate) fn wire_metrics() -> &'static WireMetrics {
    static CELL: OnceLock<WireMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = global();
        WireMetrics {
            connections_ingest: reg.counter(
                WIRE_CONNECTIONS_TOTAL,
                "Connections accepted by the ingest server, by role.",
                &[("role", "ingest")],
            ),
            connections_verdicts: reg.counter(
                WIRE_CONNECTIONS_TOTAL,
                "Connections accepted by the ingest server, by role.",
                &[("role", "verdicts")],
            ),
            active_connections: reg.gauge(
                WIRE_ACTIVE_CONNECTIONS,
                "Connections currently open on the ingest server.",
                &[],
            ),
            rx_bytes: reg.counter(WIRE_RX_BYTES_TOTAL, "Bytes read off ingest sockets.", &[]),
            tx_bytes: reg.counter(WIRE_TX_BYTES_TOTAL, "Bytes written back to clients.", &[]),
            frames_tick: reg.counter(
                WIRE_FRAMES_TOTAL,
                "Wire frames decoded, by kind.",
                &[("kind", "tick")],
            ),
            torn_frames: reg.counter(
                WIRE_TORN_FRAMES_TOTAL,
                "Connections that ended mid-frame.",
                &[],
            ),
            batch_ticks: reg.histogram(
                WIRE_INGEST_BATCH_TICKS,
                "Ticks per socket-read batch handed to Engine::ingest.",
                &[],
                &count_buckets(),
            ),
        }
    })
}

/// The ingest-side histogram (created once per process).
pub(crate) fn ingest_seconds() -> Histogram {
    static CELL: OnceLock<Histogram> = OnceLock::new();
    CELL.get_or_init(|| {
        global().histogram(
            INGEST_SECONDS,
            "Seconds one Engine::ingest call took, backpressure blocking included.",
            &[],
            &latency_buckets(),
        )
    })
    .clone()
}
