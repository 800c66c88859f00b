//! Experiment harness: dataset adapters, the shared evaluation protocol,
//! and runners for NodeSentry, its ablation variants, and the baselines.
//!
//! Every experiment binary prints the paper's rows to stdout and writes
//! a JSON record to `target/experiments/<name>.json` for EXPERIMENTS.md.
//!
//! Every method is judged at a [`NodeSentryConfig`]'s operating point
//! ([`NodeSentryConfig::flag_scores`]: score smoothing, then the k-sigma
//! threshold): NodeSentry at its own config's, the baselines at
//! `NodeSentryConfig::default()`'s. Each row carries the [`Breakdown`]
//! behind its F1, and a NodeSentry row its [`ClusterTable`].

use nodesentry_core::{fit_preprocessor, NodeSentry, NodeSentryConfig, NodeSource};
use ns_baselines::Detector;
use ns_eval::metrics::{
    adjusted_confusion, aggregate, roc_auc_adjusted, transition_mask, AggregateScores, NodeScores,
};
use ns_linalg::{matrix::Matrix, stats};
use ns_telemetry::{Dataset, DatasetProfile};
use serde::Serialize;
use std::collections::BTreeMap;

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
    pub breakdown: Breakdown,
    /// NodeSentry rows only: the fit's cluster library.
    pub clusters: Option<ClusterTable>,
}

/// Where a method's F1 comes from, counted over the points the protocol
/// scores: affected nodes' test spans inside their transition masks.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Breakdown {
    /// `[detected, total]` test-span events per `AnomalyKind::name()`; an
    /// event is detected when any of its steps is flagged (the point
    /// adjustment's rule).
    pub events: BTreeMap<String, [usize; 2]>,
    /// False-positive points by the archetype running at that step.
    pub fp_by_archetype: BTreeMap<String, usize>,
    /// Smoothed score over normal points: mean and p99.
    pub normal_mean: f64,
    pub normal_p99: f64,
    /// Smoothed score over anomalous points: mean.
    pub anomaly_mean: f64,
}

/// A NodeSentry fit's cluster library: its `k`, its silhouette and one row
/// per cluster.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterTable {
    pub k: usize,
    pub silhouette: f64,
    pub rows: Vec<ClusterRow>,
}

/// One cluster, by the archetype running at each segment's first step.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ClusterRow {
    /// Training segments that are members.
    pub train: BTreeMap<String, usize>,
    /// Test segments matched to it.
    pub matched: BTreeMap<String, usize>,
    /// Its shared model's last epoch loss.
    pub final_loss: Option<f64>,
}

/// `JobArchetype::name()` of the job running on `node` at `step`, `"idle"`
/// between jobs.
fn archetype_at(ds: &Dataset, node: usize, step: usize) -> String {
    let archetype = ds
        .schedule
        .job_at(node, step)
        .map(|j| ds.schedule.jobs[j].archetype);
    archetype.map_or("idle", |a| a.name()).to_string()
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

/// The one tail from per-node test-span scores to a Table 4 row, with the
/// paper's protocol: each node smoothed and flagged once at `cfg`'s
/// operating point ([`NodeSentryConfig::flag_scores`]; AUC ranks the
/// smoothed scores), its transition-boundary mask built once, then point
/// adjustment and per-node averaging ([`evaluate_flags`]) and the
/// [`Breakdown`], all from those flags and masks. Returns the row (no
/// cluster table) and the flags.
fn method_result(
    method: &str,
    ds: &Dataset,
    per_node_scores: &[Vec<f64>],
    cfg: &NodeSentryConfig,
    offline_s: f64,
    online_s_per_node: f64,
) -> (MethodResult, Vec<Vec<bool>>) {
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
    let agg = evaluate_flags(ds, &flags, Some(&masks), |n, truth| {
        roc_auc_adjusted(&smoothed[n], truth, Some(&masks[n]))
    });

    let mut breakdown = Breakdown::default();
    let (mut normal, mut anomalous) = (Vec::new(), Vec::new());
    for (n, pred) in flags.iter().enumerate() {
        let truth = &ds.labels(n)[split..];
        if !truth.contains(&true) {
            continue;
        }
        for e in ds.events.iter().filter(|e| e.node == n && e.end > split) {
            let hit =
                pred[e.start.max(split) - split..e.end.min(ds.horizon()) - split].contains(&true);
            let tally = breakdown
                .events
                .entry(e.kind.name().to_string())
                .or_default();
            tally[0] += usize::from(hit);
            tally[1] += 1;
        }
        for (i, &anomalous_point) in truth.iter().enumerate().filter(|&(i, _)| masks[n][i]) {
            if anomalous_point {
                anomalous.push(smoothed[n][i]);
                continue;
            }
            normal.push(smoothed[n][i]);
            if pred[i] {
                *breakdown
                    .fp_by_archetype
                    .entry(archetype_at(ds, n, split + i))
                    .or_default() += 1;
            }
        }
    }
    breakdown.normal_mean = stats::mean(&normal);
    breakdown.normal_p99 = stats::quantile(&normal, 0.99);
    breakdown.anomaly_mean = stats::mean(&anomalous);

    let result = MethodResult {
        method: method.to_string(),
        dataset: ds.profile.name.clone(),
        precision: agg.precision,
        recall: agg.recall,
        auc: agg.auc,
        f1: agg.f1,
        offline_s,
        online_s_per_node,
        breakdown,
        clusters: None,
    };
    (result, flags)
}

/// One node's [`NodeSentry::score_node`]: its test-span scores and its
/// matched test segments, `(start, end, cluster)`.
type NodeScoring = (Vec<f64>, Vec<(usize, usize, usize)>);

/// Every node's [`NodeScoring`] under `model`, in node order. Nodes score
/// independently, in parallel; the order-preserving collection makes the
/// result the serial loop's.
fn score_nodes(ds: &Dataset, model: &NodeSentry) -> Vec<NodeScoring> {
    use rayon::prelude::*;
    (0..ds.n_nodes())
        .into_par_iter()
        .map(|n| model.score_node(&ds.raw_node(n), &ds.transitions(n), ds.split))
        .collect()
}

/// Train NodeSentry (or a variant) on `[0, fit_split)` and evaluate it on
/// the dataset's test span. Returns the row with its cluster table, the
/// model, and every node's test-span flags.
pub fn run_nodesentry(
    ds: &Dataset,
    cfg: NodeSentryConfig,
    fit_split: usize,
) -> (MethodResult, NodeSentry, Vec<Vec<bool>>) {
    // Timed via ns-obs spans: the durations come back directly from the
    // guard, and with tracing enabled the core pipeline's own `fit/...`
    // stage spans nest under `offline` in `ns_obs::trace::report()`.
    let offline_span = ns_obs::trace::span("offline");
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(ds), &groups, fit_split);
    let offline_s = offline_span.finish_seconds();

    let online_span = ns_obs::trace::span("online");
    let (scores, matches): (Vec<_>, Vec<_>) = score_nodes(ds, &model).into_iter().unzip();
    let online_s_per_node = online_span.finish_seconds() / ds.n_nodes().max(1) as f64;

    let (mut result, flags) = method_result(
        model.cfg.variant.name(),
        ds,
        &scores,
        &model.cfg,
        offline_s,
        online_s_per_node,
    );
    let library = &model.cluster_model;
    let mut rows = vec![ClusterRow::default(); library.k()];
    for (seg, &c) in model.train_segments.iter().zip(&library.labels) {
        *rows[c]
            .train
            .entry(archetype_at(ds, seg.node, seg.start))
            .or_default() += 1;
    }
    for (node, segments) in matches.iter().enumerate() {
        for &(start, _, c) in segments {
            *rows[c]
                .matched
                .entry(archetype_at(ds, node, start))
                .or_default() += 1;
        }
    }
    for (row, shared) in rows.iter_mut().zip(&model.shared_models) {
        row.final_loss = shared.final_loss();
    }
    result.clusters = Some(ClusterTable {
        k: library.k(),
        silhouette: library.silhouette,
        rows,
    });
    (result, model, flags)
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

    let cfg = NodeSentryConfig::default();
    method_result(
        det.name(),
        ds,
        &per_node,
        &cfg,
        offline_s,
        online_s_per_node,
    )
    .0
}

/// The two datasets of a Table 4 / Table 5 run: D1′ and D2′, or the
/// reduced sweep profiles when the binary is given `--sweep-profiles` (a
/// faster smoke run).
pub fn table_profiles() -> Vec<DatasetProfile> {
    if std::env::args().any(|a| a == "--sweep-profiles") {
        vec![sweep_profile_d1(), sweep_profile_d2()]
    } else {
        vec![DatasetProfile::d1_prime(), DatasetProfile::d2_prime()]
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

/// Print a Table 4-style row and its breakdown (and cluster table) under it.
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
    let counts = |m: &BTreeMap<String, usize>| {
        let v: Vec<String> = m.iter().map(|(k, n)| format!("{k} {n}")).collect();
        v.join(", ")
    };
    let b = &r.breakdown;
    let events: Vec<String> = b
        .events
        .iter()
        .map(|(k, [hit, n])| format!("{k} {hit}/{n}"))
        .collect();
    println!("    events detected: {}", events.join(", "));
    println!("    FP points: {}", counts(&b.fp_by_archetype));
    println!(
        "    smoothed score: normal mean {:.3} p99 {:.3}, anomalous mean {:.3}",
        b.normal_mean, b.normal_p99, b.anomaly_mean
    );
    if let Some(t) = &r.clusters {
        println!("    clusters: k={} silhouette {:.3}", t.k, t.silhouette);
        for (c, row) in t.rows.iter().enumerate() {
            let loss = row
                .final_loss
                .map_or("-".to_string(), |l| format!("{l:.4}"));
            println!(
                "      {c}: train [{}] matched [{}] final loss {loss}",
                counts(&row.train),
                counts(&row.matched)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesentry_core::{CoarseConfig, SharingConfig};
    use ns_baselines::Isc20;
    use ns_features::FeatureCatalog;
    use std::sync::OnceLock;

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

    /// The one fit every test here shares: the `tiny` profile with more
    /// nodes than the fit samples, NodeSentry at `small_cfg()` and ISC'20
    /// at its defaults, each through its harness runner.
    struct Tiny {
        ds: Dataset,
        model: NodeSentry,
        nodesentry: MethodResult,
        isc20: MethodResult,
    }

    fn tiny() -> &'static Tiny {
        static TINY: OnceLock<Tiny> = OnceLock::new();
        TINY.get_or_init(|| {
            let mut profile = DatasetProfile::tiny();
            profile.schedule.n_nodes = 6;
            let ds = profile.generate();
            let (nodesentry, model, _) = run_nodesentry(&ds, small_cfg(), ds.split);
            let isc20 = run_baseline(&ds, &mut Isc20::default());
            Tiny {
                ds,
                model,
                nodesentry,
                isc20,
            }
        })
    }

    /// Every node's test-span scores under ISC'20, refitted as
    /// `run_baseline` fits it.
    fn isc20_scores(ds: &Dataset) -> Vec<Vec<f64>> {
        let nodes = preprocessed_nodes(ds);
        let mut det = Isc20::default();
        det.fit(&nodes, ds.split);
        let scores = nodes.iter().enumerate();
        scores
            .map(|(n, data)| det.score_node(n, data, ds.split))
            .collect()
    }

    /// The baselines' input is what a default-config NodeSentry fit feeds
    /// its own models: `preprocessed_nodes` equals `NodeSentry::preprocess`
    /// of the same fit bit for bit, on every node. The tiny profile gets
    /// more nodes than the fit samples, so a sample of the wrong size
    /// changes the statistics.
    #[test]
    fn baselines_get_the_detectors_preprocessing() {
        let Tiny { ds, model, .. } = tiny();
        assert!(nodesentry_core::detector::FIT_SAMPLE_NODES < ds.n_nodes());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let nodes = preprocessed_nodes(ds);
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
        let Tiny { ds, model, .. } = tiny();
        let scores: Vec<Vec<f64>> = score_nodes(ds, model).into_iter().map(|s| s.0).collect();
        let auc_at = |smooth_window| {
            let cfg = NodeSentryConfig {
                smooth_window,
                ..small_cfg()
            };
            method_result("", ds, &scores, &cfg, 0.0, 0.0).0.auc
        };
        let (raw, smoothed) = (auc_at(1), auc_at(9));
        assert_ne!(
            raw.to_bits(),
            smoothed.to_bits(),
            "AUC {raw} at both windows"
        );
    }

    /// The harness's accuracy at one fixed point. P / R / AUC / F1 were
    /// read before the breakdown existed and have not moved; a change that
    /// moves any of them, or a breakdown count, re-pins here and says so.
    #[test]
    fn accuracy_bits_are_pinned() {
        let Tiny {
            nodesentry, isc20, ..
        } = tiny();
        let bits = |r: &MethodResult| {
            let v = [r.precision, r.recall, r.auc, r.f1];
            v.map(|x| format!("{:016x}", x.to_bits())).join(" ")
        };
        assert_eq!(
            bits(nodesentry),
            "3fd38b2af3f920a5 3fe0000000000000 3fee6817e4ff2117 3fd8444444444445"
        );
        assert_eq!(
            bits(isc20),
            "3fe3be5be5be5be6 3fe22983759f2298 3fedd8a9c00067d8 3fe2eb7dbd4c129c"
        );
        let counts = |r: &MethodResult| {
            let b = &r.breakdown;
            let events = b
                .events
                .iter()
                .map(|(k, [hit, n])| format!("{k} {hit}/{n}"));
            let fp = b.fp_by_archetype.iter().map(|(k, n)| format!("{k} {n}"));
            events.chain(fp).collect::<Vec<_>>().join(", ")
        };
        assert_eq!(
            counts(nodesentry),
            "disk_full 1/2, memory_exhaustion 2/2, network_congestion 0/1, \
             page_allocation_error 0/1, compute_bound 62, data_analytics 54, idle 16, \
             io_heavy 68, network_heavy 161"
        );
        assert_eq!(
            counts(isc20),
            "disk_full 1/2, memory_exhaustion 2/2, network_congestion 0/1, \
             page_allocation_error 1/1, compute_bound 9, data_analytics 4, io_heavy 2, \
             network_heavy 2"
        );
    }

    /// The breakdown counts what the protocol scores: its event totals
    /// are the test-span events of affected nodes, and its false-positive
    /// points sum to the confusions' `fp` under the transition masks. The
    /// cluster table accounts for every training member and matched
    /// segment.
    #[test]
    fn breakdown_reconciles_with_the_protocol() {
        let Tiny {
            ds,
            model,
            nodesentry,
            isc20,
        } = tiny();
        let (scores, matches): (Vec<_>, Vec<_>) = score_nodes(ds, model).into_iter().unzip();
        let runs = [
            (nodesentry, scores, small_cfg()),
            (isc20, isc20_scores(ds), NodeSentryConfig::default()),
        ];
        for (result, scores, cfg) in runs {
            let mut events: BTreeMap<String, usize> = BTreeMap::new();
            let mut fp = 0;
            for (n, scores) in scores.iter().enumerate() {
                let truth = &ds.labels(n)[ds.split..];
                if !truth.contains(&true) {
                    continue;
                }
                for e in ds.events.iter().filter(|e| e.node == n && e.end > ds.split) {
                    *events.entry(e.kind.name().to_string()).or_default() += 1;
                }
                let transitions: Vec<usize> = ds
                    .transitions(n)
                    .into_iter()
                    .filter(|&t| t >= ds.split)
                    .map(|t| t - ds.split)
                    .collect();
                let mask = transition_mask(truth.len(), &transitions, BOUNDARY_RADIUS);
                fp += adjusted_confusion(&cfg.flag_scores(scores).1, truth, Some(&mask)).fp;
            }
            let b = &result.breakdown;
            let totals: BTreeMap<String, usize> =
                b.events.iter().map(|(k, [_, n])| (k.clone(), *n)).collect();
            assert_eq!(totals, events, "{}", result.method);
            assert!(b.events.values().all(|[hit, n]| hit <= n));
            assert_eq!(
                b.fp_by_archetype.values().sum::<usize>(),
                fp,
                "{}",
                result.method
            );
        }

        let table = nodesentry
            .clusters
            .as_ref()
            .expect("a NodeSentry row has a cluster table");
        assert!(isc20.clusters.is_none());
        assert_eq!(table.rows.len(), table.k);
        let members = table
            .rows
            .iter()
            .flat_map(|r| r.train.values())
            .sum::<usize>();
        assert_eq!(members, model.train_segments.len());
        let matched = table
            .rows
            .iter()
            .flat_map(|r| r.matched.values())
            .sum::<usize>();
        assert_eq!(matched, matches.iter().map(Vec::len).sum::<usize>());
    }
}
