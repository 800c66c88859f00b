//! §2.1 cost argument — DTW-based clustering of variable-length segments
//! is infeasible at HPC scale ("a week's worth of data would take 3.8
//! months"), while feature-extraction + Euclidean HAC is cheap.
//!
//! We measure per-pair DTW cost vs per-segment feature extraction +
//! per-pair Euclidean cost on real simulated segments, then extrapolate
//! both to the paper's segment population.

use nodesentry_core::coarse::SAMPLE_RATE_HZ;
use ns_bench::write_json;
use ns_cluster::dtw::{dtw_distance_mts, dtw_distance_mts_cutoff};
use ns_features::FeatureCatalog;
use ns_linalg::vecops;
use ns_telemetry::DatasetProfile;
use serde_json::json;
use std::time::Instant;

fn main() {
    let ds = DatasetProfile::d2_prime().generate();
    // Gather preprocample segments (latent-level is fine for cost).
    let mut segments: Vec<Vec<Vec<f64>>> = Vec::new();
    for node in 0..ds.n_nodes() {
        let mut cuts = vec![0usize];
        cuts.extend(ds.transitions(node));
        cuts.push(ds.horizon());
        for w in cuts.windows(2) {
            if w[1] - w[0] < 20 {
                continue;
            }
            let rows: Vec<Vec<f64>> = (w[0]..w[1])
                .map(|t| ds.latent[node][t][..8].to_vec())
                .collect();
            segments.push(rows);
            if segments.len() >= 40 {
                break;
            }
        }
        if segments.len() >= 40 {
            break;
        }
    }
    let n = segments.len();
    println!("=== DTW vs feature clustering cost ({n} segments, 8 metrics) ===");

    // DTW pair cost.
    let sw = Instant::now();
    let mut pairs = 0usize;
    for i in 0..n.min(12) {
        for j in i + 1..n.min(12) {
            let _ = dtw_distance_mts(&segments[i], &segments[j], Some(20));
            pairs += 1;
        }
    }
    let dtw_per_pair = sw.elapsed().as_secs_f64() / pairs.max(1) as f64;

    // Same pairs through the early-abandon variant, nearest-neighbor
    // style: each row of the pair loop carries its running best as the
    // cutoff, so hopeless alignments abandon as soon as a full DP row
    // exceeds it. Exact where it matters — the winning distance is
    // bit-identical to the unconstrained call.
    let sw = Instant::now();
    let mut cpairs = 0usize;
    for i in 0..n.min(12) {
        let mut best = f64::INFINITY;
        for j in i + 1..n.min(12) {
            let d = dtw_distance_mts_cutoff(
                &segments[i],
                &segments[j],
                Some(20),
                (best < f64::INFINITY).then_some(best),
            );
            best = best.min(d);
            cpairs += 1;
        }
    }
    let dtw_cutoff_per_pair = sw.elapsed().as_secs_f64() / cpairs.max(1) as f64;

    // Feature extraction + Euclidean pair cost.
    let catalog = FeatureCatalog::standard();
    let sw = Instant::now();
    let feats: Vec<Vec<f64>> = segments
        .iter()
        .map(|rows| {
            let m = ns_linalg::matrix::Matrix::from_rows(rows);
            catalog.extract_mts(&m, SAMPLE_RATE_HZ)
        })
        .collect();
    let feat_per_segment = sw.elapsed().as_secs_f64() / n as f64;
    let sw = Instant::now();
    let mut epairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let _ = vecops::euclidean(&feats[i], &feats[j]);
            epairs += 1;
        }
    }
    let euclid_per_pair = sw.elapsed().as_secs_f64() / epairs.max(1) as f64;

    println!(
        "DTW (banded, 8 metrics):      {:>12.3} ms / pair",
        dtw_per_pair * 1e3
    );
    println!(
        "DTW (banded + early-abandon): {:>12.3} ms / pair",
        dtw_cutoff_per_pair * 1e3
    );
    println!(
        "134-feature extraction:       {:>12.3} ms / segment",
        feat_per_segment * 1e3
    );
    println!(
        "Euclidean over features:      {:>12.6} ms / pair",
        euclid_per_pair * 1e3
    );

    // Extrapolate to the paper's D1 week: 13,379 jobs → ~13k segments.
    let big_n = 13_379f64;
    let big_pairs = big_n * (big_n - 1.0) / 2.0;
    // Paper segments are ~82 metrics post-reduction, ours 8 → scale DTW
    // linearly in metric count; lengths are ~10× longer → DTW scales
    // quadratically in length.
    let dtw_scale = (82.0 / 8.0) * 10.0 * 10.0;
    let dtw_total_days = big_pairs * dtw_per_pair * dtw_scale / 86_400.0;
    let feat_total_h =
        (big_n * feat_per_segment * (82.0 / 8.0) * 10.0 + big_pairs * euclid_per_pair) / 3600.0;
    println!();
    println!("extrapolated to D1 scale (13,379 segments, 82 metrics, 10x longer):");
    println!("  DTW clustering:      {dtw_total_days:>10.1} days  (paper: ~3.8 months ≈ 115 days)");
    println!("  feature clustering:  {feat_total_h:>10.1} hours");
    let ratio = dtw_total_days * 24.0 / feat_total_h;
    println!("  speedup: {ratio:.0}x");
    write_json(
        "dtw_cost",
        &json!({
            "dtw_ms_per_pair": dtw_per_pair * 1e3,
            "dtw_cutoff_ms_per_pair": dtw_cutoff_per_pair * 1e3,
            "feature_ms_per_segment": feat_per_segment * 1e3,
            "euclid_ms_per_pair": euclid_per_pair * 1e3,
            "extrapolated_dtw_days": dtw_total_days,
            "extrapolated_feature_hours": feat_total_h,
        }),
    );
    assert!(
        dtw_total_days * 24.0 > feat_total_h * 10.0,
        "DTW must be dramatically slower"
    );
}
