//! Diagnostic: inspect NodeSentry score distributions on one sweep node.

use nodesentry_core::{NodeSentry, NodeSentryConfig};
use ns_bench::DatasetSource;

fn main() {
    let ds = ns_bench::sweep_profile_d1().generate();
    let cfg = NodeSentryConfig::default();
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
    eprintln!(
        "clusters: {} silhouette {:.3}",
        model.n_clusters(),
        model.cluster_model.silhouette
    );
    eprintln!("segments: {}", model.train_segments.len());
    for (c, m) in model.shared_models.iter().enumerate() {
        eprintln!(
            "cluster {c}: members {} loss history {:?}",
            model
                .cluster_model
                .labels
                .iter()
                .filter(|&&l| l == c)
                .count(),
            m.loss_history
        );
    }
    for node in 0..3 {
        let raw = ds.raw_node(node);
        let (scores, matches) = model.score_node(&raw, &ds.transitions(node), ds.split);
        let labels = ds.labels(node);
        let truth = &labels[ds.split..];
        let mut normal = Vec::new();
        let mut anom = Vec::new();
        for (i, &s) in scores.iter().enumerate() {
            if truth[i] {
                anom.push(s);
            } else {
                normal.push(s);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let mx = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        eprintln!(
            "node {node}: segments {} | normal mean {:.4} p99 {:.4} max {:.4} | anomaly mean {:.4} max {:.4} (n={})",
            matches.len(),
            mean(&normal),
            {
                let mut v = normal.clone();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                ns_linalg::stats::quantile_sorted(&v, 0.99)
            },
            mx(&normal),
            mean(&anom),
            mx(&anom),
            anom.len()
        );
        // Score profile around each event of this node.
        for e in ds.events.iter().filter(|e| e.node == node) {
            let lo = e.start - ds.split;
            let hi = (e.end - ds.split).min(scores.len());
            eprintln!(
                "  event {:?} {}..{}: mean score {:.4}",
                e.kind,
                e.start,
                e.end,
                mean(&scores[lo..hi])
            );
        }
    }
}
