//! Experiment harness: dataset adapters, the shared evaluation protocol,
//! and runners for NodeSentry, its ablation variants, and the baselines.
//!
//! Every experiment binary prints the paper's rows to stdout and writes
//! a JSON record to `target/experiments/<name>.json` for EXPERIMENTS.md.
//!
//! Every method is judged at a [`NodeSentryConfig`]'s operating point
//! ([`NodeSentryConfig::flag_scores`]: score smoothing, then the k-sigma
//! threshold): NodeSentry at its own config's, the baselines at
//! `NodeSentryConfig::default()`'s.

use nodesentry_core::{fit_preprocessor, NodeSentry, NodeSentryConfig, NodeSource};
use ns_baselines::Detector;
use ns_eval::metrics::{
    adjusted_confusion, aggregate, roc_auc_adjusted, transition_mask, AggregateScores, NodeScores,
};
use ns_linalg::matrix::Matrix;
use ns_telemetry::{Dataset, DatasetProfile};
use serde::Serialize;

/// Boundary-exclusion radius in steps: the paper excludes 1 minute on
/// each side of pattern transitions; at 30 s sampling that is 2 steps.
pub const BOUNDARY_RADIUS: usize = 2;

/// Adapter exposing a generated [`Dataset`] through [`NodeSource`]
/// (raw matrices expand lazily per node).
pub struct DatasetSource<'a>(pub &'a Dataset);

impl NodeSource for DatasetSource<'_> {
    fn n_nodes(&self) -> usize {
        self.0.n_nodes()
    }

    fn raw(&self, node: usize) -> Matrix {
        self.0.raw_node(node)
    }

    fn transitions(&self, node: usize) -> Vec<usize> {
        self.0.transitions(node)
    }
}

/// One method's evaluated outcome (Table 4 row).
#[derive(Clone, Debug, Serialize)]
pub struct MethodResult {
    pub method: String,
    pub dataset: String,
    pub precision: f64,
    pub recall: f64,
    pub auc: f64,
    pub f1: f64,
    /// Offline training wall-clock (seconds).
    pub offline_s: f64,
    /// Online detection wall-clock per node (seconds).
    pub online_s_per_node: f64,
}

/// The shared tail of the evaluation protocol, over per-node test-window
/// flag vectors: point-adjusted confusion per node (restricted to
/// `per_node_masks[n]` when given), averaged over *affected* nodes only.
/// A node with no labelled anomaly in the test span has nothing to
/// recall and reads `precision() = recall() = 0.0` by the 0/0
/// convention whatever it flagged, so it is left out of the average
/// rather than counted as a zero. `auc(n, truth)` supplies an affected
/// node's AUC where scores exist; callers that only have verdict flags
/// pass `|_, _| 0.0`.
pub fn evaluate_flags(
    ds: &Dataset,
    per_node_flags: &[Vec<bool>],
    per_node_masks: Option<&[Vec<bool>]>,
    auc: impl Fn(usize, &[bool]) -> f64,
) -> AggregateScores {
    let nodes: Vec<NodeScores> = per_node_flags
        .iter()
        .enumerate()
        .filter_map(|(n, pred)| {
            let truth_full = ds.labels(n);
            let truth = &truth_full[ds.split..];
            if !truth.iter().any(|&b| b) {
                return None;
            }
            let mask = per_node_masks.map(|m| m[n].as_slice());
            let c = adjusted_confusion(pred, truth, mask);
            Some(NodeScores {
                precision: c.precision(),
                recall: c.recall(),
                auc: auc(n, truth),
            })
        })
        .collect();
    aggregate(&nodes)
}

/// Evaluate per-node score series against the dataset's ground truth
/// with the paper's protocol: `cfg`'s operating point
/// ([`NodeSentryConfig::flag_scores`]; AUC ranks the smoothed scores),
/// point adjustment, transition-boundary exclusion, per-node averaging
/// ([`evaluate_flags`]).
pub fn evaluate_scores(
    ds: &Dataset,
    per_node_scores: &[Vec<f64>],
    cfg: &NodeSentryConfig,
) -> AggregateScores {
    let split = ds.split;
    let (smoothed, flags): (Vec<Vec<f64>>, Vec<Vec<bool>>) = per_node_scores
        .iter()
        .map(|scores| cfg.flag_scores(scores))
        .unzip();
    let masks: Vec<Vec<bool>> = smoothed
        .iter()
        .enumerate()
        .map(|(n, scores)| {
            let transitions: Vec<usize> = ds
                .transitions(n)
                .into_iter()
                .filter(|&t| t >= split)
                .map(|t| t - split)
                .collect();
            transition_mask(scores.len(), &transitions, BOUNDARY_RADIUS)
        })
        .collect();
    evaluate_flags(ds, &flags, Some(&masks), |n, truth| {
        roc_auc_adjusted(&smoothed[n], truth, Some(&masks[n]))
    })
}

/// Every node's test-span scores under `model`, in node order. Nodes
/// score independently, in parallel; the order-preserving collection
/// makes the result the serial loop's.
pub fn score_nodes(ds: &Dataset, model: &NodeSentry) -> Vec<Vec<f64>> {
    use rayon::prelude::*;
    (0..ds.n_nodes())
        .into_par_iter()
        .map(|n| {
            let raw = ds.raw_node(n);
            model.score_node(&raw, &ds.transitions(n), ds.split).0
        })
        .collect()
}

/// Train + evaluate NodeSentry (or a variant) on a dataset.
pub fn run_nodesentry(ds: &Dataset, cfg: NodeSentryConfig) -> (MethodResult, NodeSentry) {
    let variant = cfg.variant;
    // Timed via ns-obs spans: the durations come back directly from the
    // guard, and with tracing enabled the core pipeline's own `fit/...`
    // stage spans nest under `offline` in `ns_obs::trace::report()`.
    let offline_span = ns_obs::trace::span("offline");
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(ds), &groups, ds.split);
    let offline_s = offline_span.finish_seconds();

    let online_span = ns_obs::trace::span("online");
    let per_node = score_nodes(ds, &model);
    let online_s_per_node = online_span.finish_seconds() / ds.n_nodes().max(1) as f64;

    let agg = evaluate_scores(ds, &per_node, &model.cfg);
    (
        MethodResult {
            method: variant.name().to_string(),
            dataset: ds.profile.name.clone(),
            precision: agg.precision,
            recall: agg.recall,
            auc: agg.auc,
            f1: agg.f1,
            offline_s,
            online_s_per_node,
        },
        model,
    )
}

/// Preprocess every node once with the preprocessor every NodeSentry fit
/// builds ([`fit_preprocessor`]): the baselines consume the same
/// reduced representation, bit for bit.
pub fn preprocessed_nodes(ds: &Dataset) -> Vec<Matrix> {
    ns_obs::span!("preprocess_nodes");
    let groups = ds.catalog.group_ids();
    let pp = fit_preprocessor(&DatasetSource(ds), &groups, ds.split);
    {
        use rayon::prelude::*;
        (0..ds.n_nodes())
            .into_par_iter()
            .map(|n| pp.transform(&ds.raw_node(n)))
            .collect()
    }
}

/// Train + evaluate one baseline detector at the default operating point.
pub fn run_baseline(ds: &Dataset, det: &mut dyn Detector) -> MethodResult {
    let offline_span = ns_obs::trace::span("baseline_offline");
    let nodes = preprocessed_nodes(ds);
    det.fit(&nodes, ds.split);
    let offline_s = offline_span.finish_seconds();

    let online_span = ns_obs::trace::span("baseline_online");
    let per_node: Vec<Vec<f64>> = nodes
        .iter()
        .enumerate()
        .map(|(n, data)| det.score_node(n, data, ds.split))
        .collect();
    let online_s_per_node = online_span.finish_seconds() / ds.n_nodes().max(1) as f64;

    let agg = evaluate_scores(ds, &per_node, &NodeSentryConfig::default());
    MethodResult {
        method: det.name().to_string(),
        dataset: ds.profile.name.clone(),
        precision: agg.precision,
        recall: agg.recall,
        auc: agg.auc,
        f1: agg.f1,
        offline_s,
        online_s_per_node,
    }
}

/// A reduced-size dataset profile for the hyperparameter sweeps of
/// Fig. 6 (each sweep retrains NodeSentry several times).
pub fn sweep_profile_d1() -> DatasetProfile {
    let mut p = DatasetProfile::d1_prime();
    p.name = "D1'-sweep".into();
    p.schedule.n_nodes = 10;
    p.schedule.horizon = 2880;
    p
}

/// Reduced D2 profile for sweeps.
pub fn sweep_profile_d2() -> DatasetProfile {
    let mut p = DatasetProfile::d2_prime();
    p.name = "D2'-sweep".into();
    p.schedule.n_nodes = 6;
    p.schedule.horizon = 2880;
    p
}

/// Write an experiment record under `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    write_pretty("target/experiments", &format!("{name}.json"), "json", value);
}

/// Write a machine-readable benchmark record as `BENCH_<name>.json` in
/// the current working directory. Unlike [`write_json`] (which files
/// experiment records under `target/experiments/` for EXPERIMENTS.md),
/// these land where CI and regression tooling can pick them up by the
/// `BENCH_` prefix alone.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T) {
    write_pretty("", &format!("BENCH_{name}.json"), "bench", value);
}

/// The one record writer: `value` as pretty JSON at `dir/file` (`dir`
/// created first; `""` is the working directory), logged as `[tag]
/// wrote <path>`. A failure only warns: a record is a by-product of the
/// run, never a reason to abort it.
fn write_pretty<T: Serialize>(dir: &str, file: &str, tag: &str, value: &T) {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warn: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(file);
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warn: cannot write {path:?}: {e}");
            } else {
                eprintln!("[{tag}] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warn: serialisation failed: {e}"),
    }
}

/// Best of seven samples of `iters` calls of `f` (after one warm-up
/// call), in ns per call — the micro-benchmarks' own timing rule.
pub fn best_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..7)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Print a Table 4-style row.
pub fn print_method_row(r: &MethodResult) {
    println!(
        "{:<12} {:<10} P={:.3} R={:.3} AUC={:.3} F1={:.3}  offline={}  online/node={}",
        r.method,
        r.dataset,
        r.precision,
        r.recall,
        r.auc,
        r.f1,
        ns_eval::timing::format_duration(r.offline_s),
        ns_eval::timing::format_duration(r.online_s_per_node),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesentry_core::{CoarseConfig, SharingConfig};
    use ns_features::FeatureCatalog;

    /// A small, fast NodeSentry configuration for the `tiny` profile.
    fn small_cfg() -> NodeSentryConfig {
        NodeSentryConfig {
            coarse: CoarseConfig {
                catalog: FeatureCatalog::compact(),
                k_max: 3,
                ..Default::default()
            },
            sharing: SharingConfig {
                window: 12,
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                hidden: 8,
                n_experts: 2,
                epochs: 1,
                k_nearest: 2,
                ..Default::default()
            },
            match_period: 40,
            ..Default::default()
        }
    }

    /// The baselines' input is what a default-config NodeSentry fit feeds
    /// its own models: `preprocessed_nodes` equals `NodeSentry::preprocess`
    /// of the same fit bit for bit, on every node. The tiny profile gets
    /// more nodes than the fit samples, so a sample of the wrong size
    /// changes the statistics.
    #[test]
    fn baselines_get_the_detectors_preprocessing() {
        let mut profile = DatasetProfile::tiny();
        profile.schedule.n_nodes = 6;
        let ds = profile.generate();
        let cfg = small_cfg();
        assert!(nodesentry_core::detector::FIT_SAMPLE_NODES < ds.n_nodes());
        let groups = ds.catalog.group_ids();
        let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let nodes = preprocessed_nodes(&ds);
        assert_eq!(nodes.len(), ds.n_nodes());
        for (n, got) in nodes.iter().enumerate() {
            let want = model.preprocess(&ds.raw_node(n));
            assert_eq!(got.shape(), want.shape(), "node {n}");
            assert_eq!(bits(got), bits(&want), "node {n}");
        }
    }

    /// The evaluation reads the smoothing window from the config it is
    /// given: the same scores rank differently, so the AUC moves.
    #[test]
    fn evaluation_smooths_at_the_configs_window() {
        let ds = DatasetProfile::tiny().generate();
        let groups = ds.catalog.group_ids();
        let model =
            NodeSentry::fit_from_source(small_cfg(), &DatasetSource(&ds), &groups, ds.split);
        let scores = score_nodes(&ds, &model);
        let auc_at = |smooth_window| {
            let cfg = NodeSentryConfig {
                smooth_window,
                ..small_cfg()
            };
            evaluate_scores(&ds, &scores, &cfg).auc
        };
        let (raw, smoothed) = (auc_at(1), auc_at(9));
        assert_ne!(
            raw.to_bits(),
            smoothed.to_bits(),
            "AUC {raw} at both windows"
        );
    }
}
