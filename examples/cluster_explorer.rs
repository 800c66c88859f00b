//! Cluster exploration + operator adjustment (the artifact-A2 workflow,
//! headless): extract features from job segments, cluster them, inspect
//! the silhouette, move a segment between clusters like an operator
//! would in the GUI, and persist the adjusted assignment.
//!
//! ```sh
//! cargo run --release --example cluster_explorer
//! ```

use nodesentry::cluster::{linkage, Linkage};
use nodesentry::core::coarse::SAMPLE_RATE_HZ;
use nodesentry::features::FeatureCatalog;
use nodesentry::label::ClusterAdjustment;
use nodesentry::telemetry::DatasetProfile;

fn main() {
    let dataset = DatasetProfile::tiny().generate();
    let catalog = FeatureCatalog::compact();

    // Collect per-segment feature vectors from every node's training
    // window (latent signals stand in for preprocessed metrics here).
    let mut features: Vec<Vec<f64>> = Vec::new();
    let mut descriptions: Vec<String> = Vec::new();
    for node in 0..dataset.n_nodes() {
        for seg in dataset.schedule.node_timeline(node) {
            if seg.end > dataset.split || seg.len() < 20 {
                continue;
            }
            let m = nodesentry::linalg::Matrix::from_fn(seg.len(), 6, |r, c| {
                dataset.latent[node][seg.start + r][c]
            });
            features.push(catalog.extract_mts(&m, SAMPLE_RATE_HZ));
            let label = match seg.job {
                Some(j) => format!("{:?}", dataset.schedule.jobs[j].archetype),
                None => "Idle".into(),
            };
            descriptions.push(format!("node{node} {}..{} {label}", seg.start, seg.end));
        }
    }
    println!("collected {} segments", features.len());

    // Standardize features and cluster with HAC (Ward).
    let dim = features[0].len();
    for j in 0..dim {
        let col: Vec<f64> = features.iter().map(|f| f[j]).collect();
        let m = nodesentry::linalg::stats::mean(&col);
        let s = nodesentry::linalg::stats::std_dev(&col).max(1e-9);
        for f in features.iter_mut() {
            f[j] = (f[j] - m) / s;
        }
    }
    let dendrogram = linkage(&features, Linkage::Ward);
    let labels = dendrogram.cut_k(5.min(features.len()));

    // Hand the result to the adjustment tool.
    let mut adjust = ClusterAdjustment::new(features, labels);
    println!(
        "automatic clustering: k = {}, silhouette = {:.3}",
        adjust.k(),
        adjust.silhouette()
    );
    for c in 0..adjust.k() {
        let members: Vec<&String> = adjust
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| &descriptions[i])
            .collect();
        println!(
            "  cluster {c} ({} members): {}",
            members.len(),
            members.first().map(|s| s.as_str()).unwrap_or("-")
        );
    }

    // Operator move: reassign segment 0 into a fresh cluster, watch the
    // silhouette diagnostic, then undo by restoring the original label.
    let original = adjust.labels()[0];
    adjust.reassign(0, adjust.k());
    println!(
        "after moving segment 0 to a new cluster: k = {}, silhouette = {:.3}, overrides = {:?}",
        adjust.k(),
        adjust.silhouette(),
        adjust.overrides()
    );
    adjust.reassign(0, original);
    println!("restored: overrides = {:?}", adjust.overrides());

    // Persist in the tool's exchange format and read it back.
    let exported = adjust.export(false);
    let parsed = ClusterAdjustment::parse_labels(&exported).expect("roundtrip");
    assert_eq!(&parsed, adjust.labels());
    println!(
        "assignment export/import roundtrip OK ({} rows)",
        parsed.len()
    );
}
