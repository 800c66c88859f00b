//! Diagnostic: per-test-segment matching quality and scores.

use nodesentry_core::{NodeSentry, NodeSentryConfig};
use ns_bench::DatasetSource;

fn main() {
    let ds = ns_bench::sweep_profile_d1().generate();
    let cfg = NodeSentryConfig::default();
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
    eprintln!("clusters: {}", model.n_clusters());
    // Map training segments to archetypes for reference.
    let arch_of = |node: usize, start: usize| {
        ds.schedule
            .job_at(node, start)
            .map(|j| format!("{:?}", ds.schedule.jobs[j].archetype))
            .unwrap_or_else(|| "Idle".into())
    };
    // Cluster → archetype histogram of training segments.
    for c in 0..model.n_clusters() {
        let mut hist: std::collections::BTreeMap<String, usize> = Default::default();
        for (i, seg) in model.train_segments.iter().enumerate() {
            if model.cluster_model.labels[i] == c {
                *hist.entry(arch_of(seg.node, seg.start)).or_default() += 1;
            }
        }
        eprintln!("cluster {c}: {hist:?}");
    }
    for node in 0..2 {
        let raw = ds.raw_node(node);
        let (scores, matches) = model.score_node(&raw, &ds.transitions(node), ds.split);
        let labels = ds.labels(node);
        eprintln!("--- node {node} test segments ---");
        for (start, end, cluster) in matches {
            let arch = arch_of(node, start);
            let lo = start - ds.split;
            let hi = end - ds.split;
            let seg_scores = &scores[lo..hi];
            let n_anom = (start..end).filter(|&t| labels[t]).count();
            let mean_normal: f64 = {
                let v: Vec<f64> = (lo..hi)
                    .filter(|&i| !labels[i + ds.split])
                    .map(|i| scores[i])
                    .collect();
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            let max_s = seg_scores.iter().cloned().fold(0.0f64, f64::max);
            eprintln!(
                "  seg {start}..{end} ({arch}) → cluster {cluster} | normal-mean {mean_normal:.2} max {max_s:.2} anom_pts {n_anom}"
            );
        }
    }
}
