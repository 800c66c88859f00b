//! Fig. 6 / RQ3 — hyperparameter sensitivity, one panel per letter:
//! `exp_fig6 [a-f…]` runs the named panels (default: all six) on the two
//! reduced sweep profiles, generated once per run, prints each panel's
//! series beside the paper's expected shape and writes
//! `target/experiments/fig6<panel>.json`.

use nodesentry_core::NodeSentryConfig;
use ns_bench::{run_nodesentry, write_json};
use ns_telemetry::Dataset;
use serde::Serialize;
use serde_json::{json, to_value, Value};

struct Panel {
    id: char,
    title: &'static str,
    paper_shape: &'static str,
    run: fn(&[Dataset]) -> Vec<Value>,
}

const PANELS: [Panel; 6] = [
    // Also the incremental-training experiment of §4.5: smaller training
    // sets degrade performance, recovering as data accumulates.
    Panel {
        id: 'a',
        title: "F1 vs training set size",
        paper_shape: "F1 rises steeply with training size, saturating near 100%",
        run: |dss| {
            let label = |frac: f64| format!("{:.0}%", frac * 100.0);
            row_sweep(
                dss,
                "fraction",
                &[0.2, 0.4, 0.6, 0.8, 1.0],
                label,
                f1_with_fraction,
            )
        },
    },
    // Multiples ×0.1–×2 of the silhouette-selected count: too few
    // clusters hurt badly; extra clusters plateau.
    Panel {
        id: 'b',
        title: "F1 vs number of clusters (x of auto-k)",
        paper_shape: "performance collapses below the optimal k, stabilises above it",
        run: cluster_count_sweep,
    },
    // The paper finds 3 optimal: fewer under-represent the sub-patterns,
    // more overfit.
    Panel {
        id: 'c',
        title: "F1 vs number of experts",
        paper_shape: "best at 3 experts",
        run: |dss| {
            row_sweep(
                dss,
                "experts",
                &[1usize, 2, 3, 4, 5],
                |n| n.to_string(),
                |ds, n| {
                    f1_with(ds, |cfg| {
                        cfg.sharing.n_experts = n;
                        cfg.sharing.top_k = 1;
                    })
                },
            )
        },
    },
    // The paper finds top-1 optimal: blending specialists adds complexity
    // without accuracy.
    Panel {
        id: 'd',
        title: "F1 vs experts assigned per token (5-expert pool)",
        paper_shape: "best with a single expert per token",
        run: |dss| {
            row_sweep(
                dss,
                "top_k",
                &[1usize, 2, 3, 4, 5],
                |k| format!("k={k}"),
                |ds, k| {
                    f1_with(ds, |cfg| {
                        cfg.sharing.n_experts = 5;
                        cfg.sharing.top_k = k;
                    })
                },
            )
        },
    },
    // Hours of post-transition data used for online cluster matching, at
    // 30 s sampling (120 steps an hour): short periods lack context.
    Panel {
        id: 'e',
        title: "F1 vs pattern-matching period",
        paper_shape: "rises to ~1 h, then flat — 1 h recommended",
        run: |dss| {
            row_sweep(
                dss,
                "hours",
                &[0.5, 1.0, 1.5, 2.0],
                |h| format!("{h}h"),
                |ds, h| f1_with(ds, |cfg| cfg.match_period = (h * 120.0) as usize),
            )
        },
    },
    // Minutes of k-sigma reference window, at 2 steps a minute: shorter
    // windows are recommended for cost.
    Panel {
        id: 'f',
        title: "F1 vs threshold-selection time window",
        paper_shape: "flat — robust to the window; short windows suffice",
        run: |dss| {
            row_sweep(
                dss,
                "minutes",
                &[15.0, 20.0, 30.0, 45.0],
                |m| format!("{m}min"),
                |ds, m| f1_with(ds, |cfg| cfg.threshold.window = (m * 2.0) as usize),
            )
        },
    },
];

/// F1 of a default-config detector after `tweak`.
fn f1_with(ds: &Dataset, tweak: impl FnOnce(&mut NodeSentryConfig)) -> f64 {
    let mut cfg = NodeSentryConfig::default();
    tweak(&mut cfg);
    run_nodesentry(ds, cfg, ds.split).0.f1
}

/// F1 when only the first `frac` of the training window is fitted on;
/// scoring and evaluation still start at the dataset's split.
fn f1_with_fraction(ds: &Dataset, frac: f64) -> f64 {
    let fit_split = ((ds.split as f64) * frac) as usize;
    run_nodesentry(ds, NodeSentryConfig::default(), fit_split.max(100))
        .0
        .f1
}

/// One printed row and one `{dataset, series: [{<key>, f1}]}` record per
/// dataset, one retrain per point.
fn row_sweep<X: Copy + Serialize>(
    dss: &[Dataset],
    key: &str,
    points: &[X],
    label: impl Fn(X) -> String,
    f1_at: impl Fn(&Dataset, X) -> f64,
) -> Vec<Value> {
    let out = dss
        .iter()
        .map(|ds| {
            print!("{:<10}", ds.profile.name);
            let series: Vec<Value> = points
                .iter()
                .map(|&x| {
                    let f1 = f1_at(ds, x);
                    print!("  {}: {:.3}", label(x), f1);
                    Value::Object(vec![
                        (key.to_string(), to_value(&x)),
                        ("f1".to_string(), to_value(&f1)),
                    ])
                })
                .collect();
            println!();
            json!({ "dataset": ds.profile.name, "series": series })
        })
        .collect();
    println!();
    out
}

/// Panel (b): discover the auto-selected k, then force multiples of it.
fn cluster_count_sweep(dss: &[Dataset]) -> Vec<Value> {
    dss.iter()
        .map(|ds| {
            let (auto, model, _) = run_nodesentry(ds, NodeSentryConfig::default(), ds.split);
            let k_auto = model.n_clusters();
            println!("{}: auto k = {k_auto} (F1 {:.3})", ds.profile.name, auto.f1);
            let mut series = vec![json!({ "factor": 1.0, "k": k_auto, "f1": auto.f1 })];
            for factor in [0.1, 0.5, 1.5, 2.0] {
                let k = ((k_auto as f64 * factor).round() as usize).max(1);
                let f1 = f1_with(ds, |cfg| cfg.coarse.force_k = Some(k));
                println!("  x{factor:<4} (k={k}): F1 {f1:.3}");
                series.push(json!({ "factor": factor, "k": k, "f1": f1 }));
            }
            println!();
            json!({ "dataset": ds.profile.name, "k_auto": k_auto, "series": series })
        })
        .collect()
}

fn main() {
    let asked: String = std::env::args().skip(1).collect();
    if let Some(bad) = asked.chars().find(|c| !PANELS.iter().any(|p| p.id == *c)) {
        eprintln!("unknown panel `{bad}`; usage: exp_fig6 [a-f…] (default: all six)");
        std::process::exit(2);
    }
    let dss = [
        ns_bench::sweep_profile_d1().generate(),
        ns_bench::sweep_profile_d2().generate(),
    ];
    for panel in PANELS
        .iter()
        .filter(|p| asked.is_empty() || asked.contains(p.id))
    {
        println!("=== Fig. 6({}): {} ===\n", panel.id, panel.title);
        let out = (panel.run)(&dss);
        println!("paper shape: {}", panel.paper_shape);
        write_json(&format!("fig6{}", panel.id), &out);
    }
}
