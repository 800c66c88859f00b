//! Quickstart: generate a small synthetic HPC cluster, train NodeSentry,
//! and detect injected anomalies — the whole pipeline in ~40 lines of
//! user code.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nodesentry::core::{NodeSentry, NodeSentryConfig};
use nodesentry::eval::metrics::{adjusted_confusion, aggregate, NodeScores};
use nodesentry::telemetry::DatasetProfile;

fn main() {
    // 1. A small simulated cluster (stands in for Slurm + Prometheus):
    //    jobs with sub-patterns, anomalies injected into the test window
    //    with exact ground truth.
    let mut profile = DatasetProfile::tiny();
    profile.name = "quickstart".into();
    profile.schedule.n_nodes = 6;
    profile.schedule.horizon = 1600;
    profile.events_per_node = 2.5;
    let dataset = profile.generate();
    println!(
        "cluster: {} nodes × {} steps, {} jobs, {} raw metrics, {} injected anomalies",
        dataset.n_nodes(),
        dataset.horizon(),
        dataset.schedule.jobs.len(),
        dataset.catalog.len(),
        dataset.events.len()
    );

    // 2. Offline phase: preprocessing → coarse clustering → one shared
    //    Transformer+MoE model per cluster.
    let cfg = NodeSentryConfig::default();
    let groups = dataset.catalog.group_ids();
    let inputs: Vec<nodesentry::core::NodeInput> = (0..dataset.n_nodes())
        .map(|n| nodesentry::core::NodeInput {
            raw: dataset.raw_node(n),
            transitions: dataset.transitions(n),
        })
        .collect();
    let model = NodeSentry::fit(cfg, &inputs, &groups, dataset.split);
    println!(
        "trained: {} pattern clusters (silhouette {:.2}), {} reduced metrics",
        model.n_clusters(),
        model.cluster_model.silhouette,
        model.preprocessor.out_dim()
    );

    // 3. Online phase: per-node detection over the test window
    //    (averaging over the nodes that actually saw an anomaly).
    let mut node_scores = Vec::new();
    for (n, input) in inputs.iter().enumerate() {
        let pred = model.detect_node(&input.raw, &input.transitions, dataset.split);
        let truth = dataset.labels(n);
        let positives = truth[dataset.split..].iter().filter(|&&b| b).count();
        let c = adjusted_confusion(&pred, &truth[dataset.split..], None);
        println!(
            "node {n}: precision {:.2} recall {:.2} ({positives} anomalous points)",
            c.precision(),
            c.recall(),
        );
        if positives > 0 {
            node_scores.push(NodeScores {
                precision: c.precision(),
                recall: c.recall(),
                auc: 0.0,
            });
        }
    }
    let agg = aggregate(&node_scores);
    println!(
        "overall: P {:.2} / R {:.2} / F1 {:.2}",
        agg.precision, agg.recall, agg.f1
    );
}
