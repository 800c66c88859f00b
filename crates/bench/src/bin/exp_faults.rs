//! Robustness experiment: how much detection quality does each telemetry
//! fault class cost, as a function of fault rate?
//!
//! A detector is trained once on a clean simulated cluster. The held-out
//! window is then replayed through the hardened `ns-stream` engine — once
//! clean (baseline) and once per (fault class × fault rate) cell, with
//! faults injected by `ns-telemetry::faults`. Missing verdicts (dropped
//! ticks, blackout gaps) count as "not flagged", exactly what an operator
//! dashboard would show. For every cell the experiment reports:
//!
//! * adjusted precision/recall against the injected anomaly ground
//!   truth, overall and restricted to steps *outside* the fault windows
//!   (via `interval_mask`) — the latter shows the engine's containment:
//!   outside the windows, quality should stay at baseline;
//! * the engine's fault counters (synthesized rows, blackouts,
//!   degraded/suppressed verdicts, …), which is how a deployment
//!   observes its own degradation.
//!
//! Results land in `target/experiments/faults.json`.

use nodesentry_core::{NodeSentry, NodeSentryConfig};
use ns_bench::{evaluate_flags, write_bench_json, write_json, DatasetSource};
use ns_eval::metrics::interval_mask;
use ns_stream::{Engine, EngineConfig, FaultCounters, Tick};
use ns_telemetry::{DatasetProfile, FaultInjector, FaultPlan, FaultPlanSpec, ALL_FAULTS};
use serde_json::json;
use std::sync::Arc;

const RATES: [f64; 3] = [0.02, 0.05, 0.10];
const N_SHARDS: usize = 3;

/// Every fault counter as a JSON object keyed by its class name — the
/// one shape of a cell's `counters` and of the BENCH record's `faults`.
fn counters_json(faults: &FaultCounters) -> serde_json::Value {
    serde_json::Value::Object(
        faults
            .as_pairs()
            .iter()
            .map(|&(class, v)| (class.to_string(), serde_json::to_value(&v)))
            .collect(),
    )
}

fn engine_cfg(split: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(split);
    cfg.n_shards = N_SHARDS;
    cfg.smooth_window = 1;
    cfg.reorder_bound = 16;
    cfg.blackout_gap = 60;
    cfg
}

struct Cell {
    precision: f64,
    recall: f64,
    outside_precision: f64,
    outside_recall: f64,
}

/// Replay `stream` through a fresh engine and score the verdicts against
/// ground truth, overall and outside the per-node `dirty` windows.
fn run_cell(
    model: &Arc<NodeSentry>,
    ds: &ns_telemetry::Dataset,
    stream: &[Tick],
    dirty: &[Vec<(usize, usize)>],
) -> (Cell, ns_stream::FaultCounters) {
    let engine = Engine::new(Arc::clone(model), engine_cfg(ds.split));
    for chunk in stream.chunks(512) {
        engine.ingest(chunk.to_vec()).expect("stream shard alive");
    }
    let report = engine.finish();
    let span = ds.horizon() - ds.split;
    // Missing verdicts (dropped ticks, blackouts) read as "not flagged" —
    // the operator-visible default.
    let mut flags = vec![vec![false; span]; ds.n_nodes()];
    for v in &report.verdicts {
        flags[v.node][v.step - ds.split] = v.anomalous;
    }
    let outside_masks: Vec<Vec<bool>> = dirty
        .iter()
        .map(|node_dirty| {
            let local: Vec<(usize, usize)> = node_dirty
                .iter()
                .map(|&(s, e)| (s.saturating_sub(ds.split), e.saturating_sub(ds.split)))
                .collect();
            interval_mask(span, &local)
        })
        .collect();
    let all = evaluate_flags(ds, &flags, None, |_, _| 0.0);
    let out = evaluate_flags(ds, &flags, Some(&outside_masks), |_, _| 0.0);
    (
        Cell {
            precision: all.precision,
            recall: all.recall,
            outside_precision: out.precision,
            outside_recall: out.recall,
        },
        report.faults,
    )
}

fn main() {
    // Live metrics + spans; verdict equivalence with observability off is
    // pinned by tests/obs_equivalence.rs.
    ns_obs::enable_all();
    let sweep_span = ns_obs::trace::span("fault_sweep");
    let mut profile = DatasetProfile::tiny();
    profile.name = "faults".into();
    profile.schedule.n_nodes = 6;
    profile.schedule.horizon = 1200;
    profile.events_per_node = 2.0;
    let ds = profile.generate();

    // Trimmed hyperparameters: the experiment needs a competent detector,
    // not a paper-scale one, and it replays the stream 25 times.
    let mut cfg = NodeSentryConfig::default();
    cfg.sharing.epochs = 8;
    cfg.sharing.n_experts = 2;
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
    println!(
        "=== fault robustness: {} nodes × {} steps, {} clusters ===",
        ds.n_nodes(),
        ds.horizon(),
        model.n_clusters()
    );
    let model = Arc::new(model);
    let clean = ds.ticks();

    let pp = &model.preprocessor;
    let n_cols = pp.groups.len();
    let counter_cols: Vec<usize> = (0..n_cols)
        .filter(|&c| pp.counters[pp.groups[c]] && pp.kept.contains(&pp.groups[c]))
        .collect();

    let no_dirty = vec![Vec::new(); ds.n_nodes()];
    let (base, base_faults) = run_cell(&model, &ds, &clean, &no_dirty);
    assert!(base_faults.is_clean(), "clean replay must trip no counters");
    println!(
        "baseline (clean stream): precision {:.3} / recall {:.3}",
        base.precision, base.recall
    );
    println!(
        "{:<14} {:>5}  {:>6} {:>6}  {:>6} {:>6}  {:>6} {:>6}  engine counters",
        "class", "rate", "prec", "rec", "Δprec", "Δrec", "o.prec", "o.rec"
    );

    let mut records = Vec::new();
    let mut total_faults = ns_stream::FaultCounters::default();
    let mut n_cells = 0usize;
    for (ki, kind) in ALL_FAULTS.iter().enumerate() {
        for (ri, &rate) in RATES.iter().enumerate() {
            let spec = FaultPlanSpec {
                seed: 0x0FA17 + (ki as u64) * 31 + ri as u64,
                window: (ds.split, ds.horizon()),
                kinds: vec![*kind],
                rate,
                event_len: (4, 40),
                n_cols,
                counter_cols: counter_cols.clone(),
            };
            let plan = FaultPlan::random(&spec, ds.n_nodes());
            if plan.events.is_empty() {
                // CounterReset is skipped when the catalog keeps no
                // counter groups; keep the sweep honest about it.
                println!(
                    "{:<14} {:>5.2}  (no events generated, skipped)",
                    format!("{kind:?}"),
                    rate
                );
                continue;
            }
            let dirty: Vec<Vec<(usize, usize)>> =
                (0..ds.n_nodes()).map(|n| plan.dirty_windows(n)).collect();
            let outcome = FaultInjector::new(plan).apply(&clean);
            let (cell, faults) = run_cell(&model, &ds, &outcome.stream, &dirty);
            total_faults.merge(&faults);
            n_cells += 1;
            println!(
                "{:<14} {:>5.2}  {:>6.3} {:>6.3}  {:>+6.3} {:>+6.3}  {:>6.3} {:>6.3}  syn {} nan {} rst {} stk {} blk {} degr {} supp {} quar {}",
                format!("{kind:?}"),
                rate,
                cell.precision,
                cell.recall,
                cell.precision - base.precision,
                cell.recall - base.recall,
                cell.outside_precision,
                cell.outside_recall,
                faults.synthesized_rows,
                faults.nan_rows,
                faults.counter_resets,
                faults.stuck_rows,
                faults.blackouts,
                faults.degraded_verdicts,
                faults.suppressed_verdicts,
                faults.quarantined_nodes,
            );
            records.push(json!({
                "class": format!("{kind:?}"),
                "rate": rate,
                "precision": cell.precision,
                "recall": cell.recall,
                "precision_drop": base.precision - cell.precision,
                "recall_drop": base.recall - cell.recall,
                "outside_precision": cell.outside_precision,
                "outside_recall": cell.outside_recall,
                "counters": counters_json(&faults),
            }));
        }
    }
    let baseline = json!({ "precision": base.precision, "recall": base.recall });
    write_json(
        "faults",
        &json!({
            "baseline": baseline,
            "rates": RATES.to_vec(),
            "cells": records,
            "n_shards": N_SHARDS,
        }),
    );

    // Machine-readable benchmark record: sweep wall time, the per-point
    // latency distribution accumulated across every replay (read back
    // from the live ns-obs histograms), and summed fault counters.
    let wall_s = sweep_span.finish_seconds();
    let reg = ns_obs::metrics::global();
    let q = |q: f64| {
        reg.histogram_quantile(ns_stream::metrics::POINT_SECONDS, &[], q)
            .unwrap_or(0.0)
    };
    let point_latency = json!({
        "p50_ms": q(0.50) * 1e3,
        "p90_ms": q(0.90) * 1e3,
        "p99_ms": q(0.99) * 1e3,
    });
    write_bench_json(
        "faults",
        &json!({
            "wall_s": wall_s,
            "n_cells": n_cells,
            "n_shards": N_SHARDS,
            "baseline": baseline,
            "point_latency": point_latency,
            "faults": counters_json(&total_faults),
        }),
    );

    println!("\n--- span report ---");
    print!("{}", ns_obs::trace::report());
}
