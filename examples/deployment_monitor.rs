//! Deployment-style monitoring loop (paper §5.1): NodeSentry watches a
//! small production-like cluster in hourly cycles, matching each new job
//! against its pattern library, scoring points in real time, raising
//! alerts, and adapting incrementally when an unseen pattern appears.
//!
//! ```sh
//! cargo run --release --example deployment_monitor
//! ```

use nodesentry::core::{NodeSentry, NodeSentryConfig};
use nodesentry::eval::timing::format_duration;
use nodesentry::telemetry::DatasetProfile;
use std::time::Instant;

fn main() {
    let mut profile = DatasetProfile::tiny();
    profile.name = "deployment-demo".into();
    profile.schedule.horizon = 900;
    profile.events_per_node = 2.0;
    let dataset = profile.generate();
    let steps_per_cycle = 60; // one "monitoring cycle" of the demo

    // Offline training on the historical window.
    let cfg = NodeSentryConfig::default();
    let groups = dataset.catalog.group_ids();
    let inputs: Vec<nodesentry::core::NodeInput> = (0..dataset.n_nodes())
        .map(|n| nodesentry::core::NodeInput {
            raw: dataset.raw_node(n),
            transitions: dataset.transitions(n),
        })
        .collect();
    let sw = Instant::now();
    let mut model = NodeSentry::fit(cfg, &inputs, &groups, dataset.split);
    println!(
        "offline training done in {} — {} clusters in the pattern library",
        format_duration(sw.elapsed().as_secs_f64()),
        model.n_clusters()
    );

    // Online loop: score each node cycle by cycle; alert on threshold
    // crossings; verify against ground truth at the end.
    let mut alerts = 0usize;
    let mut true_alerts = 0usize;
    for (n, input) in inputs.iter().enumerate() {
        let sw = Instant::now();
        let (scores, matches) = model.score_node(&input.raw, &input.transitions, dataset.split);
        let per_point_ms = sw.elapsed().as_secs_f64() * 1e3 / scores.len().max(1) as f64;
        let flags = model.cfg.flag_scores(&scores).1;
        let truth = dataset.labels(n);
        for (cycle_start, chunk) in flags.chunks(steps_per_cycle).enumerate() {
            if let Some(offset) = chunk.iter().position(|&f| f) {
                let step = dataset.split + cycle_start * steps_per_cycle + offset;
                alerts += 1;
                if truth[step.min(truth.len() - 1)] {
                    true_alerts += 1;
                }
                println!(
                    "  ALERT node {n} cycle {cycle_start}: anomaly signature at step {step} \
                     ({} matched segments, {per_point_ms:.2} ms/point)",
                    matches.len()
                );
            }
        }
    }
    println!("alerts raised: {alerts} ({true_alerts} inside labelled anomaly intervals)");

    // Incremental adaptation: a brand-new workload pattern arrives.
    let alien = nodesentry::linalg::Matrix::from_fn(80, model.preprocessor.out_dim(), |t, m| {
        ((t as f64) * 2.2 + m as f64).sin() * 4.0
    });
    let before = model.n_clusters();
    let (cluster, was_new) = model.incremental_update(&alien, 3);
    println!(
        "incremental update: unseen pattern → cluster {cluster} (new: {was_new}), library {} → {}",
        before,
        model.n_clusters()
    );
    // A repeat of the same pattern now matches without spawning a model.
    let (cluster2, was_new2) = model.incremental_update(&alien, 1);
    assert_eq!(cluster, cluster2);
    assert!(!was_new2, "repeat pattern must match the new cluster");
    println!("repeat of that pattern matched cluster {cluster2} — no retraining needed");
}
