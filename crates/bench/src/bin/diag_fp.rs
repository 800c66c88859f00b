//! Diagnostic: where do NodeSentry's false positives come from on the
//! full profiles, and which anomaly kinds get missed?

use nodesentry_core::{NodeSentry, NodeSentryConfig};
use ns_bench::{score_nodes, DatasetSource};
use ns_telemetry::DatasetProfile;
use std::collections::BTreeMap;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let ds = if full {
        DatasetProfile::d1_prime().generate()
    } else {
        ns_bench::sweep_profile_d1().generate()
    };
    let cfg = NodeSentryConfig::default();
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
    eprintln!(
        "clusters: {} segments {}",
        model.n_clusters(),
        model.train_segments.len()
    );

    let mut fp_by_arch: BTreeMap<String, usize> = BTreeMap::new();
    let mut events_hit: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut total_fp = 0usize;
    let mut total_tp = 0usize;
    for (node, scores) in score_nodes(&ds, &model).iter().enumerate() {
        let pred = model.cfg.flag_scores(scores).1;
        let truth = ds.labels(node);
        for (i, &p) in pred.iter().enumerate() {
            let t = i + ds.split;
            if p && !truth[t] {
                total_fp += 1;
                let arch = ds
                    .schedule
                    .job_at(node, t)
                    .map(|j| format!("{:?}", ds.schedule.jobs[j].archetype))
                    .unwrap_or_else(|| "Idle".into());
                *fp_by_arch.entry(arch).or_default() += 1;
            }
            if p && truth[t] {
                total_tp += 1;
            }
        }
        for e in ds.events.iter().filter(|e| e.node == node) {
            let hit =
                (e.start..e.end.min(ds.horizon())).any(|t| t >= ds.split && pred[t - ds.split]);
            let entry = events_hit.entry(e.kind.name().to_string()).or_default();
            entry.1 += 1;
            if hit {
                entry.0 += 1;
            }
        }
    }
    eprintln!("total flagged: TP {total_tp} FP {total_fp}");
    eprintln!("FP points by running archetype: {fp_by_arch:?}");
    eprintln!("event detection by kind:");
    for (k, (hit, tot)) in events_hit {
        eprintln!("  {k:<24} {hit}/{tot}");
    }
}
