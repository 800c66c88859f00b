//! §5.1 deployment — the month-long online monitoring loop in miniature:
//! a LAMMPS-like compute workload runs while ChaosBlade-style faults are
//! injected; telemetry streams tick by tick through the sharded
//! `ns-stream` engine, which pattern-matches each post-transition probe
//! and emits per-point verdicts. Prints the paper's three rows —
//! matching cost per cycle, detection latency per sampling point,
//! precision/recall on the injections — and nothing else: throughput,
//! wire cost, precision tiers, shard scaling and recorder overhead are
//! `nsbench` metrics (CHANGES.md, PR 18, has the name of each).

use nodesentry_core::{NodeSentry, NodeSentryConfig};
use ns_bench::{evaluate_flags, write_json, DatasetSource};
use ns_stream::{Engine, EngineConfig};
use ns_telemetry::DatasetProfile;
use serde_json::json;
use std::sync::Arc;

fn main() {
    // D2-like cluster (the deployment monitored a D2-sized system).
    let mut profile = DatasetProfile::d2_prime();
    profile.name = "deployment".into();
    profile.events_per_node = 3.0;
    let ds = profile.generate();
    let steps_per_hour = (3600.0 / profile.interval_s) as usize;

    println!(
        "=== §5.1 deployment simulation ({} nodes, {:.1} simulated days) ===",
        ds.n_nodes(),
        ds.horizon() as f64 * profile.interval_s / 86_400.0
    );
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(
        NodeSentryConfig::default(),
        &DatasetSource(&ds),
        &groups,
        ds.split,
    );
    println!("offline phase done: {} clusters", model.n_clusters());

    // Online loop through the streaming engine: nodes are sharded across
    // workers and ticks arrive in step-major monitoring cycles (every
    // node's sample for one step in one batch — the collector's real
    // cadence), one `ingest` per monitoring hour. The feed is generated
    // before the engine starts, so generation stays out of its timed
    // stages. Shards cap at the machine's parallelism: oversubscribed
    // worker threads preempt each other inside the timed match and score
    // stages.
    let feed = ds.ticks();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut engine_cfg = EngineConfig::new(ds.split);
    engine_cfg.n_shards = ds.n_nodes().clamp(2, 4).min(cores);
    engine_cfg.smooth_window = 1; // raw k-sigma verdicts, as in the paper's loop
    let engine = Engine::new(Arc::new(model), engine_cfg);
    for cycle in feed.chunks(ds.n_nodes() * steps_per_hour) {
        engine.ingest(cycle.to_vec()).expect("stream shard alive");
    }
    let report = engine.finish();

    // Verdicts against the injected ground truth, by the harness's one
    // evaluation protocol (affected nodes only). A clean feed yields
    // each node's verdicts in step order, one per test-window point.
    let mut flags = vec![Vec::new(); ds.n_nodes()];
    for v in &report.verdicts {
        flags[v.node].push(v.anomalous);
    }
    assert!(flags.iter().all(|f| f.len() == ds.horizon() - ds.split));
    let agg = evaluate_flags(&ds, &flags, None, |_, _| 0.0);
    let match_avg = report.stats.match_s_per_cycle();
    let point_ms = report.stats.point_latency_ms();

    println!(
        "streaming engine: {} shards, {} ticks",
        report.n_shards, report.stats.n_ticks
    );
    println!(
        "pattern matching per cycle: {:.2} s   ({} cycles; paper: 5.11 s)",
        match_avg, report.stats.n_matches
    );
    println!(
        "detection latency per sampling point: {:.2} ms (paper: 36 ms)",
        point_ms
    );
    println!(
        "precision {:.3} / recall {:.3}            (paper: 0.857 / 0.923)",
        agg.precision, agg.recall
    );
    write_json(
        "deployment",
        &json!({
            "match_s_per_cycle": match_avg,
            "point_latency_ms": point_ms,
            "precision": agg.precision,
            "recall": agg.recall,
            // Effective worker count from the report — the config ask and
            // the spawned pool can differ (max(1) clamp), and only the
            // engine knows what it actually ran with.
            "n_shards": report.n_shards,
        }),
    );
}
