//! §5.1 deployment — the month-long online monitoring loop in miniature:
//! a LAMMPS-like compute workload runs while ChaosBlade-style faults are
//! injected; telemetry streams tick by tick through the sharded
//! `ns-stream` engine, which pattern-matches each post-transition probe
//! and emits per-point verdicts. Reports matching latency, per-point
//! detection latency, streaming throughput, and precision/recall on the
//! injections.

use nodesentry_core::NodeSentry;
use ns_bench::{default_ns_config, transitions_of, write_bench_json, write_json, DatasetSource};
use ns_eval::metrics::{adjusted_confusion, aggregate, NodeScores};
use ns_stream::{Engine, EngineConfig, EngineReport, ScoringPrecision, Tick};
use ns_telemetry::{DatasetProfile, IngestClient};
use serde_json::json;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Percentile of an unsorted sample, in place.
fn pctl(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

/// The same D2′ replay, but over TCP: the engine sits behind
/// [`Engine::serve_ingest`], every tick crosses the `ns-wire` framed
/// protocol through the blocking [`IngestClient`], and one ping per
/// monitoring cycle measures end-to-end ingestion RTT (a pong proves
/// every frame sent before it was consumed by the engine, so the RTT
/// covers framing, TCP, reassembly, and the sharded ingest — not just
/// the socket). Asserts the verdict stream is bit-identical to the
/// in-process baseline before reporting any numbers.
#[allow(clippy::too_many_arguments)]
fn over_the_wire(
    model: &Arc<NodeSentry>,
    baseline: &EngineReport,
    baseline_ticks_per_s: f64,
    engine_cfg: EngineConfig,
    raws: &[ns_linalg::Matrix],
    transition_sets: &[HashSet<usize>],
    horizon: usize,
    steps_per_hour: usize,
) -> serde_json::Value {
    let engine = Engine::new(Arc::clone(model), engine_cfg);
    let server = engine
        .serve_ingest("127.0.0.1:0")
        .expect("bind ingest server");
    let mut client = IngestClient::connect(server.local_addr()).expect("connect ingest client");

    let t0 = Instant::now();
    let mut rtts_ms: Vec<f64> = Vec::new();
    // Send + ping cadence: fine enough that the RTT p99 is backed by
    // >=100 samples across the horizon. One ping per monitoring hour
    // gave ~24, so the reported p99 was whichever single RTT happened
    // to be slowest that run.
    let wire_cadence = (horizon / 120).max(1).min(steps_per_hour.max(1));
    let mut cycle: Vec<Tick> = Vec::with_capacity(raws.len() * wire_cadence);
    for step in 0..horizon {
        for (n, raw) in raws.iter().enumerate() {
            cycle.push(Tick {
                node: n,
                step,
                values: raw.row(step).to_vec(),
                transition: transition_sets[n].contains(&step),
            });
        }
        if (step + 1) % wire_cadence == 0 {
            client
                .send_cycle(&std::mem::take(&mut cycle))
                .expect("send cycle over the wire");
            let rtt = client.ping().expect("ping");
            rtts_ms.push(rtt.as_secs_f64() * 1e3);
        }
    }
    client.send_cycle(&cycle).expect("send tail cycle");
    let (verdicts, wire_report) = client.finish().expect("finish over the wire");
    let wall_s = t0.elapsed().as_secs_f64();
    server.shutdown();

    // Hard bit-identity gate: the transport must be invisible.
    assert_eq!(
        verdicts.len(),
        baseline.verdicts.len(),
        "over-the-wire verdict count diverged"
    );
    for (w, b) in verdicts.iter().zip(&baseline.verdicts) {
        assert_eq!(w.node, b.node as u64, "wire verdict node diverged");
        assert_eq!(w.step, b.step as u64, "wire verdict step diverged");
        assert_eq!(
            w.score_bits,
            b.score.to_bits(),
            "wire verdict score bits diverged at node {} step {}",
            b.node,
            b.step
        );
        assert_eq!(w.anomalous, b.anomalous, "wire verdict flag diverged");
    }

    let ticks_per_s = wire_report.n_ticks as f64 / wall_s.max(1e-9);
    let (p50, p90, p99) = (
        pctl(&mut rtts_ms, 0.50),
        pctl(&mut rtts_ms, 0.90),
        pctl(&mut rtts_ms, 0.99),
    );
    println!(
        "over the wire: {} ticks in {:.1} s ({:.0} ticks/s, {:.2}x in-process), \
         e2e ingest RTT p50 {:.2} ms / p90 {:.2} ms / p99 {:.2} ms",
        wire_report.n_ticks,
        wall_s,
        ticks_per_s,
        baseline_ticks_per_s / ticks_per_s.max(1e-9),
        p50,
        p90,
        p99,
    );
    println!(
        "over the wire: verdict stream bit-identical to in-process ({} verdicts)",
        verdicts.len()
    );

    json!({
        "wall_s": wall_s,
        "ticks_per_s": ticks_per_s,
        "n_ticks": wire_report.n_ticks,
        "n_verdicts": wire_report.n_verdicts,
        "n_shards": wire_report.n_shards,
        "in_process_over_wire_speedup": baseline_ticks_per_s / ticks_per_s.max(1e-9),
        "e2e_rtt_ms": json!({ "p50_ms": p50, "p90_ms": p90, "p99_ms": p99 }),
        "rtt_samples": rtts_ms.len(),
        "bit_identical": true,
    })
}

/// Shard scaling sweep: the same monitoring feed replayed through a
/// fresh engine at every shard count from 1 to the machine's effective
/// parallelism (at least 2, so the multi-shard machinery is exercised
/// even on one core — the speedup there is just ~1x). Each point
/// records throughput, the score/match p50 read back from the ns-obs
/// histograms, and the thread-pool counter deltas (jobs, tasks, steals,
/// queue depth) from the `ns-obs` pool provider the engine installs.
/// `NS_SCALING_MAX_SHARDS` caps the sweep for CI smoke runs.
fn shard_scaling(
    model: &Arc<NodeSentry>,
    split: usize,
    raws: &[ns_linalg::Matrix],
    transition_sets: &[HashSet<usize>],
    horizon: usize,
    steps_per_hour: usize,
) -> serde_json::Value {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_shards: usize = std::env::var("NS_SCALING_MAX_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| cores.max(2));
    let reg = ns_obs::metrics::global();
    let q = |name: &str, q: f64| reg.histogram_quantile(name, &[], q).unwrap_or(0.0);

    println!("\n=== shard scaling sweep (1..={max_shards} shards, {cores} cores) ===");
    let mut points = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    let mut base_ticks_per_s = 0.0f64;
    for n_shards in 1..=max_shards {
        reg.reset();
        let pool_before = ns_obs::poolstats::snapshot().unwrap_or_default();
        let mut engine_cfg = EngineConfig::new(split);
        engine_cfg.n_shards = n_shards;
        engine_cfg.smooth_window = 1;
        let engine = Engine::new(Arc::clone(model), engine_cfg);
        let t0 = Instant::now();
        let mut cycle: Vec<Tick> = Vec::with_capacity(raws.len() * steps_per_hour);
        for step in 0..horizon {
            for (n, raw) in raws.iter().enumerate() {
                cycle.push(Tick {
                    node: n,
                    step,
                    values: raw.row(step).to_vec(),
                    transition: transition_sets[n].contains(&step),
                });
            }
            if (step + 1) % steps_per_hour == 0 {
                engine
                    .ingest(std::mem::take(&mut cycle))
                    .expect("stream shard alive");
            }
        }
        engine.ingest(cycle).expect("stream shard alive");
        let report = engine.finish();
        let wall_s = t0.elapsed().as_secs_f64();
        let pool_after = ns_obs::poolstats::snapshot().unwrap_or_default();

        let ticks_per_s = report.stats.n_ticks as f64 / wall_s.max(1e-9);
        if n_shards == 1 {
            base_ticks_per_s = ticks_per_s;
        }
        let score_p50 = q(ns_stream::metrics::SCORE_SECONDS, 0.50) * 1e3;
        let match_p50 = q(ns_stream::metrics::MATCH_SECONDS, 0.50) * 1e3;
        let steals = pool_after.steals.saturating_sub(pool_before.steals);
        let jobs = pool_after
            .jobs_submitted
            .saturating_sub(pool_before.jobs_submitted);
        let tasks = pool_after
            .tasks_executed
            .saturating_sub(pool_before.tasks_executed);
        println!(
            "  {n_shards} shard{}: {:.0} ticks/s ({:.2}x vs 1), score p50 {score_p50:.2} ms, \
             match p50 {match_p50:.3} ms, pool jobs {jobs} tasks {tasks} steals {steals}",
            if n_shards == 1 { "" } else { "s" },
            ticks_per_s,
            ticks_per_s / base_ticks_per_s.max(1e-9),
        );
        speedups.push((report.n_shards, ticks_per_s / base_ticks_per_s.max(1e-9)));
        points.push(json!({
            "n_shards": report.n_shards,
            "wall_s": wall_s,
            "ticks_per_s": ticks_per_s,
            "speedup_vs_1": ticks_per_s / base_ticks_per_s.max(1e-9),
            "score_p50_ms": score_p50,
            "match_p50_ms": match_p50,
            "pool": json!({
                "jobs": jobs,
                "tasks": tasks,
                "steals": steals,
                "queued_jobs": pool_after.queued_jobs,
                "workers": pool_after.workers,
            }),
        }));
    }
    reg.reset();

    let (best_shards, best_speedup) = speedups
        .iter()
        .skip(1)
        .copied()
        .fold((1, 1.0), |acc, (s, v)| if v > acc.1 { (s, v) } else { acc });
    println!("  best multi-shard point: {best_shards} shards at {best_speedup:.2}x");

    json!({
        "available_parallelism": cores,
        "max_shards_swept": max_shards,
        "points": points,
        "best_shards": best_shards,
        "best_speedup_vs_1": best_speedup,
    })
}

fn main() {
    // Full observability: stage spans for the offline fit, live latency
    // histograms + fault bridging for the online loop. Equivalence with
    // the disabled path is pinned by tests/obs_equivalence.rs.
    ns_obs::enable_all();
    // `enable_all` now brings the event journal along; keep it off for
    // the baseline replays so they measure the recorder-off path. A
    // dedicated recorder-on replay below measures the journal's cost.
    ns_obs::events::set_enabled(false);
    // D2-like cluster (the deployment monitored a D2-sized system).
    let mut profile = DatasetProfile::d2_prime();
    profile.name = "deployment".into();
    profile.events_per_node = 3.0;
    let ds = profile.generate();
    let cfg = default_ns_config();
    let steps_per_hour = (3600.0 / profile.interval_s) as usize;

    println!(
        "=== §5.1 deployment simulation ({} nodes, {:.1} simulated days) ===",
        ds.n_nodes(),
        ds.horizon() as f64 * profile.interval_s / 86_400.0
    );
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(&ds), &groups, ds.split);
    println!("offline phase done: {} clusters", model.n_clusters());

    // Online loop through the streaming engine: nodes are sharded across
    // workers, ticks arrive in step-major monitoring cycles (every
    // node's sample for one step in one batch — the collector's real
    // cadence), so job-transition bursts across nodes land in the same
    // scoring phase and exercise the batched forward.
    // Shards cap at the machine's actual parallelism: oversubscribed
    // worker threads preempt each other mid-measurement and inflate the
    // wall-clock latency histograms (the shards' scoring phases align at
    // tick-batch boundaries).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n_shards = ds.n_nodes().clamp(2, 4).min(cores.max(1));
    let model = Arc::new(model);
    let raws: Vec<_> = (0..ds.n_nodes()).map(|n| ds.raw_node(n)).collect();
    let transition_sets: Vec<HashSet<usize>> = (0..ds.n_nodes())
        .map(|n| transitions_of(&ds, n).into_iter().collect())
        .collect();
    let replay = |span_name: &'static str, precision: ScoringPrecision| {
        let mut engine_cfg = EngineConfig::new(ds.split);
        engine_cfg.n_shards = n_shards;
        engine_cfg.smooth_window = 1; // raw k-sigma verdicts, as in the paper's loop
        engine_cfg.scoring_precision = precision;
        let engine = Engine::new(Arc::clone(&model), engine_cfg);
        let replay_span = ns_obs::trace::span(span_name);
        let mut cycle: Vec<Tick> = Vec::with_capacity(ds.n_nodes() * steps_per_hour);
        for step in 0..ds.horizon() {
            for (n, raw) in raws.iter().enumerate() {
                cycle.push(Tick {
                    node: n,
                    step,
                    values: raw.row(step).to_vec(),
                    transition: transition_sets[n].contains(&step),
                });
            }
            if (step + 1) % steps_per_hour == 0 {
                engine
                    .ingest(std::mem::take(&mut cycle))
                    .expect("stream shard alive");
            }
        }
        engine.ingest(cycle).expect("stream shard alive");
        let report = engine.finish();
        (report, replay_span.finish_seconds())
    };
    let reg = ns_obs::metrics::global();
    let q = |name: &str, q: f64| reg.histogram_quantile(name, &[], q).unwrap_or(0.0);

    let (report, stream_wall) = replay("stream_replay", ScoringPrecision::F64);

    // Evaluate verdicts against the injected ground truth — shared by
    // the headline replay and the precision-tier pass below.
    let eval_verdicts = |report: &EngineReport| {
        let mut node_scores = Vec::new();
        for n in 0..ds.n_nodes() {
            let pred: Vec<bool> = report
                .verdicts
                .iter()
                .filter(|v| v.node == n)
                .map(|v| v.anomalous)
                .collect();
            assert_eq!(pred.len(), ds.horizon() - ds.split);
            let truth_full = ds.labels(n);
            let c = adjusted_confusion(&pred, &truth_full[ds.split..], None);
            node_scores.push(NodeScores {
                precision: c.precision(),
                recall: c.recall(),
                auc: 0.0,
            });
        }
        aggregate(&node_scores)
    };
    let agg = eval_verdicts(&report);
    let match_avg = report.stats.match_s_per_cycle();
    let point_ms = report.stats.point_latency_ms();
    let throughput = report.stats.n_ticks as f64 / stream_wall.max(1e-9);

    println!(
        "streaming engine: {} shards, {} ticks in {:.1} s ({:.0} ticks/s)",
        report.n_shards, report.stats.n_ticks, stream_wall, throughput
    );
    println!(
        "pattern matching per cycle: {:.2} s   ({} cycles; paper: 5.11 s)",
        match_avg, report.stats.n_matches
    );
    println!(
        "detection latency per sampling point: {:.2} ms (paper: 36 ms)",
        point_ms
    );
    println!(
        "precision {:.3} / recall {:.3}            (paper: 0.857 / 0.923)",
        agg.precision, agg.recall
    );
    write_json(
        "deployment",
        &json!({
            "match_s_per_cycle": match_avg,
            "point_latency_ms": point_ms,
            "precision": agg.precision,
            "recall": agg.recall,
            // Effective worker count from the report — the config ask and
            // the spawned pool can differ (max(1) clamp), and only the
            // engine knows what it actually ran with.
            "n_shards": report.n_shards,
            "ticks_per_s": throughput,
            "stream_wall_s": stream_wall,
        }),
    );

    // Machine-readable benchmark record: wall time, the per-point and
    // per-match latency distribution read back from the live ns-obs
    // histograms, and every fault counter (all zero on this clean feed).
    let latency = |name: &str| {
        json!({
            "p50_ms": q(name, 0.50) * 1e3,
            "p90_ms": q(name, 0.90) * 1e3,
            "p99_ms": q(name, 0.99) * 1e3,
        })
    };
    let occupancy = |name: &str| {
        json!({
            "p50": q(name, 0.50),
            "p90": q(name, 0.90),
            "p99": q(name, 0.99),
        })
    };
    println!(
        "batch occupancy: p50 {:.1} / p90 {:.1} / p99 {:.1} segments per batched forward",
        q(ns_stream::metrics::SCORE_BATCH_SEGMENTS, 0.50),
        q(ns_stream::metrics::SCORE_BATCH_SEGMENTS, 0.90),
        q(ns_stream::metrics::SCORE_BATCH_SEGMENTS, 0.99),
    );
    let faults = serde_json::Value::Object(
        report
            .faults
            .as_pairs()
            .iter()
            .map(|&(class, v)| (class.to_string(), serde_json::to_value(&v)))
            .collect(),
    );

    // The same feed once more, over TCP through the ns-wire protocol —
    // bit-identity against the in-process report is asserted inside.
    let mut wire_cfg = EngineConfig::new(ds.split);
    wire_cfg.n_shards = n_shards;
    wire_cfg.smooth_window = 1;
    let wire = over_the_wire(
        &model,
        &report,
        throughput,
        wire_cfg,
        &raws,
        &transition_sets,
        ds.horizon(),
        steps_per_hour,
    );

    // Flight-recorder overhead: the same feed twice more, back to back —
    // once recorder-off, once with the event journal on and incident
    // triggers armed (the full operational posture). The pairing matters:
    // the replay window is sub-second, so comparing against the headline
    // replay from minutes earlier would measure machine drift, not the
    // journal. Verdict bit-identity under the recorder is pinned by
    // tests/obs_equivalence.rs; here we measure what it costs.
    let (off_report, off_wall) = replay("stream_replay_recorder_off", ScoringPrecision::F64);
    let recorder_off_throughput = off_report.stats.n_ticks as f64 / off_wall.max(1e-9);
    ns_obs::events::set_enabled(true);
    ns_obs::incident::set_armed(true);
    let (recorder_report, recorder_wall) = replay("stream_replay_recorder", ScoringPrecision::F64);
    ns_obs::incident::set_armed(false);
    ns_obs::events::set_enabled(false);
    let recorder_throughput = recorder_report.stats.n_ticks as f64 / recorder_wall.max(1e-9);
    let recorder_overhead_pct =
        (recorder_off_throughput / recorder_throughput.max(1e-9) - 1.0) * 100.0;
    let journal = ns_obs::events::stats();
    let recorder = ns_obs::incident::stats();
    println!(
        "flight recorder on: {:.0} ticks/s vs {:.0} off ({:+.1}% overhead), {} events journaled ({} dropped), {} incidents",
        recorder_throughput,
        recorder_off_throughput,
        recorder_overhead_pct,
        journal.recorded,
        journal.dropped,
        recorder.captured,
    );

    // Freeze the latency blocks before the scaling sweep: the sweep
    // resets the registry per point, which would empty these histograms.
    let point_latency = latency(ns_stream::metrics::POINT_SECONDS);
    let score_latency = latency(ns_stream::metrics::SCORE_SECONDS);
    let match_latency = latency(ns_stream::metrics::MATCH_SECONDS);
    let batch_occupancy = json!({
        "score_segments": occupancy(ns_stream::metrics::SCORE_BATCH_SEGMENTS),
        "match_probes": occupancy(ns_stream::metrics::MATCH_BATCH_PROBES),
    });
    // Precision-tier pass: the same feed under both scoring tiers, back
    // to back so the ratio is not machine drift (the f64 leg re-runs
    // rather than reusing the headline numbers for the same reason).
    // The f32 tier trades bit-stability for kernel bandwidth, so its
    // verdicts may legitimately differ from the f64 oracle; the record
    // carries the agreement rate and the precision/recall delta right
    // next to the speedup that buys them.
    println!("\n=== precision tiers (f64 vs f32 scoring) ===");
    reg.reset();
    let (tier64_report, tier64_wall) = replay("stream_replay_tier_f64", ScoringPrecision::F64);
    let tier64_tp = tier64_report.stats.n_ticks as f64 / tier64_wall.max(1e-9);
    let tier_lat = |name: &str| (q(name, 0.50) * 1e3, q(name, 0.99) * 1e3);
    let (t64_score_p50, t64_score_p99) = tier_lat(ns_stream::metrics::SCORE_SECONDS);
    reg.reset();
    let (tier32_report, tier32_wall) = replay("stream_replay_tier_f32", ScoringPrecision::F32);
    let tier32_tp = tier32_report.stats.n_ticks as f64 / tier32_wall.max(1e-9);
    let (t32_score_p50, t32_score_p99) = tier_lat(ns_stream::metrics::SCORE_SECONDS);
    reg.reset();

    assert_eq!(
        tier64_report.verdicts.len(),
        tier32_report.verdicts.len(),
        "tier passes emitted different verdict counts"
    );
    let mut agree = 0usize;
    for (a, b) in tier64_report.verdicts.iter().zip(&tier32_report.verdicts) {
        assert_eq!(
            (a.node, a.step),
            (b.node, b.step),
            "tier verdict streams misaligned"
        );
        agree += (a.anomalous == b.anomalous) as usize;
    }
    let agreement = agree as f64 / tier64_report.verdicts.len().max(1) as f64;
    let agg64 = eval_verdicts(&tier64_report);
    let agg32 = eval_verdicts(&tier32_report);
    println!(
        "f64: {:.0} ticks/s, score p50 {:.3} ms | f32: {:.0} ticks/s, score p50 {:.3} ms \
         ({:.2}x score stage)",
        tier64_tp,
        t64_score_p50,
        tier32_tp,
        t32_score_p50,
        t64_score_p50 / t32_score_p50.max(1e-12),
    );
    println!(
        "verdict agreement {:.4} ({agree} of {}), precision {:+.4} / recall {:+.4} vs the f64 oracle",
        agreement,
        tier64_report.verdicts.len(),
        agg32.precision - agg64.precision,
        agg32.recall - agg64.recall,
    );
    let precision_tiers = json!({
        "f64": json!({
            "wall_s": tier64_wall,
            "ticks_per_s": tier64_tp,
            "score_p50_ms": t64_score_p50,
            "score_p99_ms": t64_score_p99,
            "precision": agg64.precision,
            "recall": agg64.recall,
        }),
        "f32": json!({
            "wall_s": tier32_wall,
            "ticks_per_s": tier32_tp,
            "score_p50_ms": t32_score_p50,
            "score_p99_ms": t32_score_p99,
            "precision": agg32.precision,
            "recall": agg32.recall,
        }),
        "score_stage_speedup_p50": t64_score_p50 / t32_score_p50.max(1e-12),
        "score_stage_speedup_p99": t64_score_p99 / t32_score_p99.max(1e-12),
        "throughput_ratio_f32_over_f64": tier32_tp / tier64_tp.max(1e-9),
        "n_verdicts": tier64_report.verdicts.len(),
        "verdict_agreement": agreement,
        "precision_delta": agg32.precision - agg64.precision,
        "recall_delta": agg32.recall - agg64.recall,
    });

    let scaling = shard_scaling(
        &model,
        ds.split,
        &raws,
        &transition_sets,
        ds.horizon(),
        steps_per_hour,
    );
    write_bench_json(
        "stream",
        &json!({
            "wall_s": stream_wall,
            "ticks_per_s": throughput,
            "n_shards": report.n_shards,
            "per_shard_ticks":
                report.per_shard.iter().map(|s| s.n_ticks).collect::<Vec<_>>(),
            "n_ticks": report.stats.n_ticks,
            "point_latency": point_latency,
            "score_latency": score_latency,
            "match_latency": match_latency,
            "batch_occupancy": batch_occupancy,
            "precision": agg.precision,
            "recall": agg.recall,
            "faults": faults,
            "over_the_wire": wire,
            "precision_tiers": precision_tiers,
            "shard_scaling": scaling,
            "observability": json!({
                "recorder_off_ticks_per_s": recorder_off_throughput,
                "recorder_on_ticks_per_s": recorder_throughput,
                "overhead_pct": recorder_overhead_pct,
                "events_recorded": journal.recorded,
                "events_dropped": journal.dropped,
                "incidents_captured": recorder.captured,
            }),
        }),
    );

    println!("\n--- span report ---");
    print!("{}", ns_obs::trace::report());
}
