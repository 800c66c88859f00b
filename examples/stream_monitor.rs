//! Streaming deployment: train a detector offline, then run the held-out
//! window through the sharded `ns-stream` engine one sampling tick at a
//! time, exactly as a live monitoring service would.
//!
//! ```sh
//! cargo run --release --example stream_monitor
//! ```
//!
//! The engine shards nodes across worker threads, assembles job segments
//! on the fly, pattern-matches each post-transition probe against the
//! cluster library, scores through the matched shared model, and emits a
//! `Verdict` per test-window point — bit-identical to batch scoring
//! (`tests/stream_equivalence.rs` proves it).
//!
//! Observability is switched on for the whole run: training stages land
//! in the span report printed at the end, the engine's live metrics
//! (queue depths, latency histograms, fault counters) are served on a
//! local HTTP endpoint while the stream runs, and the example polls its
//! own `/statusz` mid-replay to print the live shard view — exactly what
//! an operator's `watch curl :port/statusz` would see. The flight
//! recorder is armed; the event-journal tail and incident count are
//! printed at the end.

use nodesentry::core::{NodeSentry, NodeSentryConfig};
use nodesentry::obs;
use nodesentry::stream::{Engine, EngineConfig};
use nodesentry::telemetry::{http_get, DatasetProfile};
use serde_json::Value;
use std::sync::Arc;

/// The compact JSON text of the field at `path` in a `/statusz` document.
fn field(doc: &Value, path: &[&str]) -> String {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .map_or("?".into(), |v| {
            serde_json::to_string(v).expect("infallible")
        })
}

fn main() {
    obs::enable_all();
    obs::incident::set_armed(true);
    // 1. A small simulated cluster with injected anomalies.
    let mut profile = DatasetProfile::tiny();
    profile.name = "stream_monitor".into();
    profile.schedule.n_nodes = 6;
    profile.schedule.horizon = 1200;
    profile.events_per_node = 2.0;
    let dataset = profile.generate();
    println!(
        "cluster: {} nodes × {} steps, split at {}",
        dataset.n_nodes(),
        dataset.horizon(),
        dataset.split
    );

    // 2. Offline phase, as in examples/quickstart.rs.
    let groups = dataset.catalog.group_ids();
    let inputs: Vec<nodesentry::core::NodeInput> = (0..dataset.n_nodes())
        .map(|n| nodesentry::core::NodeInput {
            raw: dataset.raw_node(n),
            transitions: dataset.transitions(n),
        })
        .collect();
    let model = NodeSentry::fit(NodeSentryConfig::default(), &inputs, &groups, dataset.split);
    println!("trained: {} pattern clusters", model.n_clusters());

    // 3. Online phase: feed the telemetry step-major (all nodes at step t,
    //    then step t+1, …) through the engine, one step per `ingest`.
    //    `ingest` blocks when a shard's bounded queue is full —
    //    backpressure, not buffering.
    let feed = dataset.ticks();
    let mut cfg = EngineConfig::new(dataset.split);
    cfg.n_shards = 3;
    cfg.smooth_window = model.cfg.smooth_window; // flag on smoothed scores, as detect_node does
    let engine = Engine::new(Arc::new(model), cfg);
    // Live operational surface: scrape `curl localhost:<port>/statusz`
    // (or /metrics, /healthz, /debug/events, /debug/incidents) while the
    // replay below runs (ephemeral port so repeated runs never collide).
    let metrics_server = Engine::serve_metrics("127.0.0.1:0").expect("bind metrics endpoint");
    let addr = metrics_server.local_addr();
    println!("operational surface: http://{addr}/statusz  (also /metrics /healthz /debug/events /debug/incidents)");
    let poll_every = dataset.horizon() / 4;
    for (step, batch) in feed.chunks(dataset.n_nodes()).enumerate() {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
        // Poll our own /statusz a few times mid-replay: the live shard
        // view an operator would watch.
        if step > 0 && step % poll_every == 0 {
            match http_get(addr, "/statusz") {
                Ok(body) => {
                    let doc: Value = serde_json::from_str(&body).expect("/statusz is JSON");
                    println!(
                        "statusz @ step {step}: uptime {} s, queues {}, ticks {}, verdicts {}",
                        field(&doc, &["uptime_s"]),
                        field(&doc, &["stream", "shard_queue_depths"]),
                        field(&doc, &["stream", "shard_ticks_total"]),
                        field(&doc, &["stream", "verdicts"]),
                    );
                }
                Err(e) => println!("statusz @ step {step}: poll failed: {e}"),
            }
        }
    }
    let report = engine.finish();
    assert!(
        report.faults.is_clean(),
        "clean feed must trip no fault counters: {:?}",
        report.faults
    );

    // 4. Verdicts arrive sorted by (node, step); summarize per node.
    for node in 0..dataset.n_nodes() {
        let truth = dataset.labels(node);
        let flagged: Vec<usize> = report
            .verdicts
            .iter()
            .filter(|v| v.node == node && v.anomalous)
            .map(|v| v.step)
            .collect();
        let hits = flagged.iter().filter(|&&s| truth[s]).count();
        println!(
            "node {node}: {} points flagged, {} on injected anomalies",
            flagged.len(),
            hits
        );
    }
    println!(
        "engine: {} ticks over {} shards in {:.2} s, match {:.3} s/cycle, {:.3} ms/point",
        report.stats.n_ticks,
        3,
        report.wall_seconds,
        report.stats.match_s_per_cycle(),
        report.stats.point_latency_ms()
    );

    // 5. What observability saw: p50/p99 per-point latency from the live
    //    histogram, then the span report for the offline fit.
    let reg = obs::metrics::global();
    let q = |q: f64| {
        reg.histogram_quantile(nodesentry::stream::metrics::POINT_SECONDS, &[], q)
            .unwrap_or(0.0)
    };
    println!(
        "live histogram: point latency p50 {:.3} ms / p99 {:.3} ms",
        q(0.50) * 1e3,
        q(0.99) * 1e3
    );
    metrics_server.shutdown();

    // 6. The flight recorder's view of the run: journal tail + incidents
    //    (a clean feed arms the triggers but should fire none).
    let js = obs::events::stats();
    println!(
        "\nevent journal: {} recorded ({} dropped); tail:",
        js.recorded, js.dropped
    );
    for e in obs::events::recent(5) {
        println!("  {}", e.to_json());
    }
    let inc = obs::incident::stats();
    println!(
        "incidents: {} captured, {} suppressed (armed, clean feed)",
        inc.captured, inc.suppressed
    );

    println!("\n--- span report ---");
    print!("{}", obs::trace::report());
}
