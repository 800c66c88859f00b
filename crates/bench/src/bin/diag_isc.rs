//! Diagnostic: which anomaly kinds remain pointwise-visible to ISC'20?

use nodesentry_core::NodeSentryConfig;
use ns_baselines::{Detector, Isc20};
use ns_bench::preprocessed_nodes;
use ns_telemetry::DatasetProfile;
use std::collections::BTreeMap;

fn main() {
    let ds = DatasetProfile::d1_prime().generate();
    let nodes = preprocessed_nodes(&ds);
    let mut det = Isc20::default();
    det.fit(&nodes, ds.split);
    let cfg = NodeSentryConfig::default();
    let mut per_kind: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut fp = 0usize;
    for (n, data) in nodes.iter().enumerate() {
        let scores = det.score_node(n, data, ds.split);
        let pred = cfg.flag_scores(&scores).1;
        let truth = ds.labels(n);
        for (i, &p) in pred.iter().enumerate() {
            if p && !truth[i + ds.split] {
                fp += 1;
            }
        }
        for e in ds.events.iter().filter(|e| e.node == n) {
            let hit =
                (e.start..e.end.min(ds.horizon())).any(|t| t >= ds.split && pred[t - ds.split]);
            let entry = per_kind.entry(e.kind.name()).or_default();
            entry.1 += 1;
            if hit {
                entry.0 += 1;
            }
        }
    }
    println!("ISC20 FP points: {fp}");
    for (k, (hit, tot)) in per_kind {
        println!("  {k:<24} {hit}/{tot}");
    }
}
