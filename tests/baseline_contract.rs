//! Cross-crate contract: every baseline detector produces finite scores of
//! the right length and separates an easy synthetic anomaly. That the
//! baselines consume the same preprocessed representation NodeSentry uses
//! is checked where the harness builds it:
//! `baselines_get_the_detectors_preprocessing` in `crates/bench/src/harness.rs`.

use nodesentry::baselines::{
    Detector, Examon, ExamonConfig, Isc20, Isc20Config, Prodigy, ProdigyConfig, Ruad, RuadConfig,
};
use nodesentry::linalg::Matrix;

fn easy_nodes() -> (Vec<Matrix>, usize, usize, usize) {
    let horizon = 300;
    let split = 200;
    let (a0, a1) = (250, 280);
    let nodes = (0..2)
        .map(|n| {
            Matrix::from_fn(horizon, 4, |t, m| {
                let base = ((t as f64) * 0.3 + (m + n) as f64).sin() * 0.5;
                if n == 0 && (a0..a1).contains(&t) {
                    base + 4.0
                } else {
                    base
                }
            })
        })
        .collect();
    (nodes, split, a0, a1)
}

fn detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(Prodigy::new(ProdigyConfig {
            epochs: 30,
            ..Default::default()
        })),
        Box::new(Ruad::new(RuadConfig {
            epochs: 2,
            max_windows_per_node: 20,
            ..Default::default()
        })),
        Box::new(Examon::new(ExamonConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(Isc20::new(Isc20Config {
            max_iter: 20,
            ..Default::default()
        })),
    ]
}

#[test]
fn all_baselines_fit_and_score() {
    let (nodes, split, a0, a1) = easy_nodes();
    for mut det in detectors() {
        det.fit(&nodes, split);
        for (n, data) in nodes.iter().enumerate() {
            let scores = det.score_node(n, data, split);
            assert_eq!(scores.len(), data.rows() - split, "{}", det.name());
            assert!(
                scores.iter().all(|s| s.is_finite()),
                "{} emitted NaN",
                det.name()
            );
        }
        // Node 0 carries the anomaly: its scores there should beat the
        // clean region on average.
        let scores = det.score_node(0, &nodes[0], split);
        let anom: f64 = scores[a0 - split..a1 - split].iter().sum::<f64>() / (a1 - a0) as f64;
        let clean: f64 = scores[..a0 - split].iter().sum::<f64>() / (a0 - split) as f64;
        assert!(
            anom > clean,
            "{}: anomaly region {anom} not above clean {clean}",
            det.name()
        );
    }
}

/// Each baseline's scores of both `easy_nodes`, pinned by FNV-1a over
/// their bits: the baselines' tiling and thinning cannot move a window
/// without this failing.
#[test]
fn baseline_score_bits_are_pinned() {
    let (nodes, split, _, _) = easy_nodes();
    let digests: Vec<String> = detectors()
        .into_iter()
        .map(|mut det| {
            det.fit(&nodes, split);
            let mut h = nodesentry::wire::FNV_OFFSET;
            for (n, data) in nodes.iter().enumerate() {
                for s in det.score_node(n, data, split) {
                    h = nodesentry::wire::fnv1a64_from(h, &s.to_bits().to_le_bytes());
                }
            }
            format!("{}:{h:016x}", det.name())
        })
        .collect();
    assert_eq!(
        digests,
        [
            "Prodigy:04674f10e66fe805",
            "RUAD:7f1f60d69f386f6d",
            "ExaMon:5494d713adcadde6",
            "ISC 20:f50bc92085fdfb6d",
        ]
    );
}

#[test]
fn baseline_names_match_table4_rows() {
    let names: Vec<&str> = detectors().iter().map(|d| d.name()).collect();
    assert_eq!(names, vec!["Prodigy", "RUAD", "ExaMon", "ISC 20"]);
}
