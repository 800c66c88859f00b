//! The traced run: every layer timed from outside through its public
//! functions, one benchmark-side span per call, and the stage budget those
//! spans add up to.
//!
//! Five sections run on every workload's feed, so every per-layer metric is
//! defined on every workload:
//!
//! 1. set-up, once, with ns-obs tracing on so the fit's own spans can be read;
//! 2. the snapshot layer: one elastic round, the codec timed on each cut;
//! 3. the per-node pipeline: a stage-by-stage replay built from public
//!    functions (checked bit-equal to the oracle, so the stages are known to
//!    do the engine's work) beside `NodeState::offer` driven inline;
//! 4. the engine: obs-off against obs-on, F32, two shards;
//! 5. the wire: codec on the first 4,096 ticks, one closed-loop replay, one
//!    open-loop replay paced from a monotonic start.

use crate::metrics::Report;
use crate::setup::{common_setup, digest, Feed, Gate, Oracle, Outcome, Sizes, Workload};
use crate::spans::{print_budget, Recorder};
use crate::stats;
use crate::workloads::{
    check_wire, elastic_round, engine_config, replay_inproc, replay_wire, Pace, Replay,
};
use crate::{Args, RunOutput};
use nodesentry_core::{coarse, NodeSentry};
use ns_eval::{StreamingKSigma, StreamingSmoother};
use ns_linalg::matrix::Matrix;
use ns_stream::snapshot::EngineSnapshot;
use ns_stream::{NodeState, ScoringPrecision, StreamingPreprocessor, Tick};
use ns_wire::{encode_frame, fnv1a64, Frame, FrameAssembler};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The traced run profiles at most this many nodes of a feed (the elastic
/// feed is four times as wide; its full width goes through section 2).
const PROFILE_NODES: usize = 32;
/// Ticks the wire codec is timed on.
const CODEC_TICKS: usize = 4096;
/// Open-loop pacing: one cycle every 10.67 ms, as a collector sampling 64
/// nodes at 6,000 ticks/s would send them; a fifth or less of capacity.
const PACED_CYCLES_PER_S: f64 = 93.75;

const MIB: f64 = 1024.0 * 1024.0;

struct Tracer<'a> {
    args: &'a Args,
    sizes: &'a Sizes,
    model: Arc<NodeSentry>,
    report: Report,
    gate: Gate,
    rec: Recorder,
}

pub fn run_traced(args: &Args, sizes: &Sizes) -> RunOutput {
    let mut report = Report::default();

    // 1. Set-up, once. ns-obs tracing is on for the fit only: the `fit/*`
    // spans already exist in the program and are read here, not added.
    ns_obs::trace::reset();
    ns_obs::trace::enable();
    let (model, timing) = common_setup(sizes);
    ns_obs::trace::set_enabled(false);
    report.scalar("setup.datagen_s", timing.datagen_s);
    report.scalar("setup.fit_s", timing.fit_s);
    report.scalar("setup.warmup_s", timing.warmup_s);
    for (name, path) in [
        ("core.fit.preprocess_s", "fit/preprocess"),
        ("core.fit.segment_s", "fit/segment"),
        ("core.fit.coarse_features_s", "fit/coarse/features"),
        ("core.fit.coarse_linkage_s", "fit/coarse/linkage"),
        ("core.fit.fine_train_s", "fit/fine"),
    ] {
        if let Some(stat) = ns_obs::trace::stats(path) {
            report.scalar(name, stat.total_seconds());
        }
    }
    report.scalar("core.fit.clusters", model.n_clusters() as f64);
    report.scalar("core.fit.segments", model.train_segments.len() as f64);

    let t = Instant::now();
    let full = Feed::generate(args.workload, sizes, args.seed.wrapping_add(1));
    // The lifecycle round streams exactly the elastic horizon; the other
    // sections profile a bounded slice of the feed.
    let lifecycle = match args.workload {
        Workload::Elastic128 => None,
        _ => Some(full.head(full.n_nodes(), sizes.elastic_horizon())),
    };
    let profile = match args.workload {
        Workload::Elastic128 => Some(full.head(PROFILE_NODES, full.horizon)),
        _ => None,
    };
    report.scalar("setup.materialise_s", t.elapsed().as_secs_f64());
    let lifecycle = lifecycle.as_ref().unwrap_or(&full);
    let profile = profile.as_ref().unwrap_or(&full);

    let t = Instant::now();
    let profile_oracle = Oracle::compute(&model, profile);
    let lifecycle_oracle = Oracle::compute(&model, lifecycle);
    report.scalar("setup.oracle_s", t.elapsed().as_secs_f64());
    println!(
        "profile feed: {} nodes x {} steps ({} ticks, {:.4} flagged); lifecycle feed: {} nodes x {} steps",
        profile.n_nodes(),
        profile.horizon,
        profile.n_ticks(),
        profile_oracle.flagged_share(),
        lifecycle.n_nodes(),
        lifecycle.horizon
    );

    let mut t = Tracer {
        args,
        sizes,
        model,
        report,
        gate: Gate::default(),
        rec: Recorder::new(),
    };
    // The snapshot layer goes first, while the heap is as small as it will
    // be: `engine_rss_mib` is a resident-set difference.
    t.snapshot_layer(lifecycle, &lifecycle_oracle);
    let inline_wall_s = t.node_pipeline(profile, &profile_oracle);
    t.engine(profile, &profile_oracle, inline_wall_s);
    t.wire(profile, &profile_oracle);

    match t.rec.save(args.workload.name()) {
        Ok(path) => println!("{} spans written to {}", t.rec.len(), path.display()),
        Err(e) => eprintln!("nsbench: spans not written: {e}"),
    }
    t.report.scalar("failed_share", t.gate.failed_share());
    RunOutput {
        report: t.report,
        gate: t.gate,
    }
}

/// Per-segment baseline normalisation, as the engine applies it after the
/// forward: divide by the probe head's median, floored at one.
fn normalize_segment_scores(scores: &mut [f64], probe_len: usize) {
    let mut head = scores[..probe_len].to_vec();
    head.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let baseline = ns_linalg::stats::quantile_sorted(&head, 0.5).max(1.0);
    for v in scores.iter_mut() {
        *v /= baseline;
    }
}

/// Deterministic in-place shuffle (Fisher–Yates over splitmix64).
fn shuffle(items: &mut [usize], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// The feed's steps in an order that displaces every tick by less than
/// `block` steps: each block of `block` consecutive steps is shuffled.
fn reordered_steps(horizon: usize, block: usize, seed: u64) -> Vec<usize> {
    let mut steps: Vec<usize> = (0..horizon).collect();
    let mut state = seed;
    for chunk in steps.chunks_mut(block.max(1)) {
        shuffle(chunk, &mut state);
    }
    steps
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

impl Tracer<'_> {
    /// Section 2: one elastic round; `to_bytes`/`from_bytes` timed on each
    /// sampled checkpoint's own snapshot.
    fn snapshot_layer(&mut self, feed: &Feed, oracle: &Oracle) {
        self.rec.next_run();
        let (mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new());
        let round = elastic_round(
            &self.model,
            feed,
            self.sizes,
            oracle,
            &mut self.gate,
            &mut self.rec,
            |rec, cycle, ck| {
                if cycle == 0 {
                    return;
                }
                let span = rec.enter("snapshot.encode");
                let bytes = ck.snapshot.to_bytes();
                encode_ms.push(rec.exit(span) as f64 * 1e-6);
                let span = rec.enter("snapshot.decode");
                let decoded = EngineSnapshot::from_bytes(&bytes);
                decode_ms.push(rec.exit(span) as f64 * 1e-6);
                std::hint::black_box((bytes.len(), decoded.is_ok()));
            },
        );
        let cycles = round.sampled();
        let of = |f: fn(&crate::workloads::CycleSample) -> f64| -> Vec<f64> {
            cycles.iter().map(f).collect()
        };
        let checkpoint = of(|c| c.checkpoint_ms);
        let restore = of(|c| c.restore_ms);
        let r = &mut self.report;
        r.series("checkpoint_ms", &checkpoint);
        r.series("restore_ms", &restore);
        r.series("snapshot.encode_ms", &encode_ms);
        r.series("snapshot.decode_ms", &decode_ms);
        let capture: Vec<f64> = checkpoint
            .iter()
            .zip(&encode_ms)
            .map(|(c, e)| c - e)
            .collect();
        let rebuild: Vec<f64> = restore.iter().zip(&decode_ms).map(|(r, d)| r - d).collect();
        r.series("snapshot.capture_ms", &capture);
        r.series("snapshot.rebuild_ms", &rebuild);
        r.series(
            "snapshot.checkpoint_mib_per_s",
            &of(|c| c.snapshot_bytes as f64 / MIB / (c.checkpoint_ms * 1e-3)),
        );
        r.series(
            "snapshot.restore_mib_per_s",
            &of(|c| c.snapshot_bytes as f64 / MIB / (c.restore_ms * 1e-3)),
        );
        // Ticks of a tail over the time from restore start until the tail
        // is handed over.
        r.series(
            "snapshot.resume_ticks_per_s",
            &of(|c| c.n_ticks as f64 / ((c.restore_ms + c.resume_ms) * 1e-3)),
        );
        if let Some(first) = round.cycles.first() {
            let bytes = first.snapshot_bytes as f64;
            r.scalar("snapshot_mib", bytes / MIB);
            r.scalar(
                "snapshot.kib_per_node",
                bytes / 1024.0 / feed.n_nodes() as f64,
            );
        }
        if let Some(rss) = round.engine_rss_mib {
            r.scalar("engine_rss_mib", rss);
            r.scalar(
                "engine.rss_kib_per_node",
                rss * 1024.0 / feed.n_nodes() as f64,
            );
        }
    }

    /// Section 3. Returns the inline wall: the time `NodeState::offer` and
    /// `flush` took for the whole feed, one state per node.
    fn node_pipeline(&mut self, feed: &Feed, oracle: &Oracle) -> f64 {
        let stages_run = self.stage_replay(feed, oracle);
        let inline_run = self.inline_pass(feed, oracle, None);
        let block = (engine_config(feed.split, 1, ScoringPrecision::F64).reorder_bound / 2).max(2);
        let shuffled = reordered_steps(feed.horizon, block, self.args.seed);
        let reordered_run = self.inline_pass(feed, oracle, Some(&shuffled));

        let ticks = feed.n_ticks() as f64;
        let offers = self.rec.durations(inline_run, "node.offer");
        let flushes: Vec<f64> = self
            .rec
            .durations(inline_run, "node.flush")
            .iter()
            .map(|ns| ns * 1e-6)
            .collect();
        let inline_wall_s = sum(&offers) * 1e-9 + sum(&flushes) * 1e-3;
        let r = &mut self.report;
        r.percentile("node.offer_ns_per_tick_p50", &offers, 0.5);
        r.series("node.flush_ms_p50", &flushes);
        r.percentile("node.flush_ms_p90", &flushes, 0.9);
        r.scalar(
            "node.offer_reordered_ns_per_tick",
            sum(&self.rec.durations(reordered_run, "node.offer")) / ticks,
        );

        let stages = self.rec.stages(stages_run);
        let self_s = |names: &[&str]| -> f64 {
            names
                .iter()
                .filter_map(|n| stages.get(n))
                .map(|s| s.self_s())
                .sum()
        };
        let features = self_s(&["features.assemble", "features.extract", "coarse.match"]);
        let sharing = self_s(&["sharing.assemble", "sharing.score_batch"]);
        let covered = features + sharing + self_s(&["preprocess.push", "eval.threshold"]);
        r.scalar("budget.features_share", features / inline_wall_s);
        r.scalar("budget.sharing_share", sharing / inline_wall_s);
        r.scalar("budget.coverage", covered / inline_wall_s);
        r.scalar("node.unattributed_share", 1.0 - covered / inline_wall_s);
        print_budget(
            "stage replay against the inline wall",
            &stages,
            inline_wall_s,
        );
        inline_wall_s
    }

    /// The per-node pipeline rebuilt from the layers' public functions, one
    /// span per call. Its scores and flags must equal the oracle's, which
    /// shows the stages timed here are the work the engine does.
    fn stage_replay(&mut self, feed: &Feed, oracle: &Oracle) -> u32 {
        let model = Arc::clone(&self.model);
        // Standalone calls made on the side are filed under `micro` so they
        // stay out of the budget of `run`.
        let micro = self.rec.next_run();
        let run = self.rec.next_run();
        let rec = &mut self.rec;
        let period = model.cfg.match_period;
        let n_models = model.shared_models.len();
        let mut outcomes = Vec::with_capacity(feed.n_verdicts());
        let (mut rows_out, mut n_probes, mut feat_dim) = (0usize, 0usize, 0usize);
        let mut seg_lens = Vec::new();
        let mut scratch = Vec::new();
        let mut std_scratch = Vec::new();
        for node in 0..feed.n_nodes() {
            // preprocess: one push per tick, then the tail flush.
            let mut pre = StreamingPreprocessor::new(&model.preprocessor);
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(feed.horizon);
            for step in 0..feed.horizon {
                let raw = feed.raw(node).row(step);
                let out = rec.call("preprocess.push", || pre.push(raw));
                rows.extend(out.into_iter().map(|r| r.values));
            }
            let tail = rec.call("preprocess.push", || pre.flush());
            rows.extend(tail.into_iter().map(|r| r.values));
            rows_out += rows.len();

            // Segment the test span at the node's transitions.
            let mut bounds = vec![feed.split];
            bounds.extend(
                feed.transitions(node)
                    .iter()
                    .copied()
                    .filter(|&t| t > feed.split && t < feed.horizon),
            );
            bounds.push(feed.horizon);
            let segments: Vec<&[Vec<f64>]> = bounds.windows(2).map(|w| &rows[w[0]..w[1]]).collect();

            // features + coarse: one probe per segment.
            let mut by_cluster: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut clusters = Vec::with_capacity(segments.len());
            for (i, seg) in segments.iter().enumerate() {
                let probe_len = period.clamp(1, seg.len());
                let probe = rec.call("features.assemble", || Matrix::from_rows(&seg[..probe_len]));
                let feat = rec.call("features.extract", || {
                    coarse::segment_features(&model.cfg.coarse, &probe)
                });
                let (cluster, _) = rec.call("coarse.match", || {
                    model.cluster_model.match_pattern_into(&feat, &mut scratch)
                });
                // `match_pattern_into` standardizes first; the standalone
                // call sizes that part and stays out of the budget.
                rec.call_in(micro, "coarse.standardize", || {
                    model
                        .cluster_model
                        .standardize_probe_into(&feat, &mut std_scratch)
                });
                feat_dim = feat.len();
                n_probes += 1;
                seg_lens.push(seg.len() as f64);
                clusters.push(cluster);
                by_cluster
                    .entry(cluster.min(n_models - 1))
                    .or_default()
                    .push(i);
            }

            // sharing: one batched forward per matched cluster, as
            // `NodeState::flush` groups a node's closed segments.
            let mut scores: Vec<Vec<f64>> = vec![Vec::new(); segments.len()];
            for (&cluster, idxs) in &by_cluster {
                let mats: Vec<Matrix> = rec.call("sharing.assemble", || {
                    idxs.iter()
                        .map(|&i| Matrix::from_rows(segments[i]))
                        .collect()
                });
                let refs: Vec<&Matrix> = mats.iter().collect();
                let many = rec.call("sharing.score_batch", || {
                    model.shared_models[cluster].score_series_batch(&refs)
                });
                for (&i, mut s) in idxs.iter().zip(many) {
                    normalize_segment_scores(&mut s, period.clamp(1, segments[i].len()));
                    scores[i] = s;
                }
                // The same segments one at a time (B = 1), outside the budget.
                for m in &mats {
                    std::hint::black_box(rec.call_in(micro, "sharing.score", || {
                        model.shared_models[cluster].score_series(m)
                    }));
                }
            }

            // eval: smoothing (window 1, as `EngineConfig::new`) → k-sigma.
            let mut smoother = StreamingSmoother::new(1);
            let mut detector = StreamingKSigma::new(model.cfg.threshold);
            let flat: Vec<f64> = scores.iter().flatten().copied().collect();
            let mut flags = Vec::with_capacity(flat.len());
            for &s in &flat {
                rec.call("eval.threshold", || {
                    for sv in smoother.push(s) {
                        flags.push(detector.push(sv));
                    }
                });
            }
            for sv in smoother.flush() {
                flags.push(detector.push(sv));
            }
            outcomes.extend(
                flat.iter()
                    .zip(flags)
                    .enumerate()
                    .map(|(k, (s, anomalous))| Outcome {
                        node,
                        step: feed.split + k,
                        score_bits: s.to_bits(),
                        anomalous,
                    }),
            );
            // The oracle's segmentation must be the one replayed here.
            let want: Vec<usize> = oracle.segments[node].iter().map(|s| s.2).collect();
            self.gate.attempted += 1;
            self.gate.fail((want != clusters) as u64, || {
                format!("stage replay: node {node} matched {clusters:?}, oracle {want:?}")
            });
        }
        self.gate.attempted += feed.n_ticks() as u64;
        self.gate
            .check_outcomes("stage replay", &outcomes, oracle, true);

        let stages = rec.stages(run);
        let micro_stages = rec.stages(micro);
        let per = |st: Option<&crate::spans::Stage>, unit: f64, n: f64| {
            st.map_or(0.0, |s| s.self_ns as f64 / unit / n.max(1.0))
        };
        let (ticks, probes) = (feed.n_ticks() as f64, n_probes as f64);
        let scored_rows = sum(&seg_lens);
        let r = &mut self.report;
        r.scalar(
            "preprocess.push_ns_per_tick",
            per(stages.get("preprocess.push"), 1.0, ticks),
        );
        r.scalar("preprocess.rows_out", rows_out as f64);
        r.scalar(
            "features.assemble_us_per_probe",
            per(stages.get("features.assemble"), 1e3, probes),
        );
        r.scalar(
            "features.extract_us_per_probe",
            per(stages.get("features.extract"), 1e3, probes),
        );
        r.scalar("features.dim", feat_dim as f64);
        r.scalar(
            "coarse.standardize_ns_per_probe",
            per(micro_stages.get("coarse.standardize"), 1.0, probes),
        );
        r.scalar(
            "coarse.match_ns_per_probe",
            per(stages.get("coarse.match"), 1.0, probes),
        );
        r.scalar("coarse.probes", probes);
        r.scalar("coarse.k", model.cluster_model.k() as f64);
        r.scalar(
            "sharing.score_us_per_row",
            per(micro_stages.get("sharing.score"), 1e3, scored_rows),
        );
        r.scalar(
            "sharing.score_batch_us_per_row",
            per(stages.get("sharing.score_batch"), 1e3, scored_rows),
        );
        r.series("sharing.rows_per_segment_p50", &seg_lens);
        r.scalar(
            "eval.threshold_ns_per_point",
            per(stages.get("eval.threshold"), 1.0, scored_rows),
        );
        run
    }

    /// `NodeState::offer` driven inline, one state per node, step-major as a
    /// shard worker sees the ticks; then `flush` per node. `order` replays
    /// the same ticks out of order (the reorder guard).
    fn inline_pass(&mut self, feed: &Feed, oracle: &Oracle, order: Option<&[usize]>) -> u32 {
        let run = self.rec.next_run();
        let cfg = engine_config(feed.split, 1, ScoringPrecision::F64);
        let mut states: Vec<NodeState> = (0..feed.n_nodes())
            .map(|n| NodeState::new(Arc::clone(&self.model), n, &cfg))
            .collect();
        let mut verdicts = Vec::with_capacity(feed.n_verdicts());
        let in_order: Vec<usize>;
        let steps = match order {
            Some(o) => o,
            None => {
                in_order = (0..feed.horizon).collect();
                &in_order
            }
        };
        for &step in steps {
            for (node, state) in states.iter_mut().enumerate() {
                let tick: Tick = feed.tick(node, step);
                verdicts.extend(self.rec.call("node.offer", || state.offer(&tick)));
            }
        }
        let what = if order.is_some() {
            "inline reordered"
        } else {
            "inline"
        };
        for state in states.iter_mut() {
            verdicts.extend(self.rec.call("node.flush", || state.flush()));
            self.gate.check_faults(what, &state.faults, order.is_some());
        }
        let mut outcomes: Vec<Outcome> = verdicts.iter().map(Outcome::from).collect();
        outcomes.sort_unstable();
        self.gate.attempted += feed.n_ticks() as u64;
        self.gate.check_outcomes(what, &outcomes, oracle, true);
        run
    }

    /// Section 4: the sharded engine around the per-node pipeline.
    fn engine(&mut self, feed: &Feed, oracle: &Oracle, inline_wall_s: f64) {
        let pairs = if self.args.smoke { 1 } else { 3 };
        let variants = if self.args.smoke { 1 } else { 2 };
        let f64_tier = ScoringPrecision::F64;
        let n_ticks = feed.n_ticks();
        let mut reference = None;
        let mut base: Option<Vec<Outcome>> = None;
        let (mut off, mut on): (Vec<Replay>, Vec<f64>) = (Vec::new(), Vec::new());
        let registry = ns_obs::metrics::global();
        let pool_before = ns_obs::poolstats::snapshot().unwrap_or_default();
        let mut pool_after = None;
        // obs-off against obs-on, interleaved so drift hits both alike.
        for _ in 0..pairs {
            let r = replay_inproc(&self.model, feed, 1, f64_tier);
            let out = self
                .gate
                .check_report("engine", &r.report, n_ticks, oracle, true);
            self.gate
                .check_digest("engine", &mut reference, digest(&out));
            base.get_or_insert(out);
            off.push(r);
            pool_after.get_or_insert_with(|| ns_obs::poolstats::snapshot().unwrap_or_default());

            registry.reset();
            ns_obs::enable_all();
            let r = replay_inproc(&self.model, feed, 1, f64_tier);
            ns_obs::disable_all();
            let out = self
                .gate
                .check_report("engine obs-on", &r.report, n_ticks, oracle, true);
            self.gate
                .check_digest("engine obs-on", &mut reference, digest(&out));
            on.push(r.ticks_per_s(feed));
        }
        let quantile = |name: &str| registry.histogram_quantile(name, &[], 0.5).unwrap_or(0.0);
        let batch_segments = quantile(ns_stream::metrics::SCORE_BATCH_SEGMENTS);
        let batch_probes = quantile(ns_stream::metrics::MATCH_BATCH_PROBES);

        let tps: Vec<f64> = off.iter().map(|r| r.ticks_per_s(feed)).collect();
        let walls: Vec<f64> = off.iter().map(|r| r.wall_s).collect();
        let wall = stats::median(&walls).unwrap_or(f64::NAN);
        let base_tps = stats::median(&tps).unwrap_or(f64::NAN);
        let calls: Vec<f64> = off.iter().flat_map(|r| r.call_us.iter().copied()).collect();
        let pool = pool_after.unwrap_or_default();
        let st = &off[0].report.stats;
        let r = &mut self.report;
        r.series("engine.ticks_per_s", &tps);
        r.scalar(
            "obs.trace_overhead_pct",
            (base_tps - stats::median(&on).unwrap_or(f64::NAN)) / base_tps * 100.0,
        );
        if let Some(spread) = stats::iqr_share(&tps) {
            println!(
                "obs.trace_overhead_pct spread: obs-off runs differ by {:.2} % (IQR/median, n={})",
                spread * 100.0,
                tps.len()
            );
        }
        r.scalar("engine.overhead_share", 1.0 - inline_wall_s / wall);
        r.percentile("engine.ingest_call_us_p50", &calls, 0.5);
        r.series(
            "engine.blocked_share",
            &off.iter()
                .map(|r| r.in_call_s / r.ingest_s)
                .collect::<Vec<_>>(),
        );
        r.series(
            "engine.drain_ms",
            &off.iter().map(|r| r.drain_s * 1e3).collect::<Vec<_>>(),
        );
        r.scalar(
            "stream.report.match_ms_per_probe",
            st.match_s_per_cycle() * 1e3,
        );
        r.scalar(
            "stream.report.score_us_per_point",
            st.point_latency_ms() * 1e3,
        );
        r.scalar(
            "stream.report.match_share",
            st.match_seconds / off[0].wall_s,
        );
        r.scalar(
            "stream.report.score_share",
            st.score_seconds / off[0].wall_s,
        );
        r.scalar("stream.batch_segments_p50", batch_segments);
        r.scalar("stream.batch_probes_p50", batch_probes);
        r.scalar(
            "pool.jobs",
            (pool.jobs_submitted - pool_before.jobs_submitted) as f64,
        );
        r.scalar(
            "pool.tasks",
            (pool.tasks_executed - pool_before.tasks_executed) as f64,
        );
        r.scalar("pool.steals", (pool.steals - pool_before.steals) as f64);

        // F32 tier: its own digest, placement gated, flags compared with F64.
        let base = base.unwrap_or_default();
        let mut f32_reference = None;
        let (mut f32_tps, mut agreement, mut f32_point_us) = (Vec::new(), 0.0, 0.0);
        for _ in 0..variants {
            let r = replay_inproc(&self.model, feed, 1, ScoringPrecision::F32);
            let out = self
                .gate
                .check_report("engine f32", &r.report, n_ticks, oracle, false);
            self.gate
                .check_digest("engine f32", &mut f32_reference, digest(&out));
            let same = out
                .iter()
                .zip(&base)
                .filter(|(a, b)| a.anomalous == b.anomalous)
                .count();
            agreement = same as f64 / base.len().max(1) as f64;
            f32_point_us = r.report.stats.point_latency_ms() * 1e3;
            f32_tps.push(r.ticks_per_s(feed));
        }
        // Two shards: the generator shares a core with them on a two-core
        // box, so scaling is reported only as a ratio with its base.
        let mut two_tps = Vec::new();
        for _ in 0..variants {
            let r = replay_inproc(&self.model, feed, 2, f64_tier);
            let out = self
                .gate
                .check_report("engine 2-shard", &r.report, n_ticks, oracle, true);
            self.gate
                .check_digest("engine 2-shard", &mut reference, digest(&out));
            two_tps.push(r.ticks_per_s(feed));
        }
        let r = &mut self.report;
        r.series("ticks_per_s_f32", &f32_tps);
        r.scalar("f32_flag_agreement", agreement);
        r.scalar("stream.report.score_us_per_point_f32", f32_point_us);
        r.series("ticks_per_s_2shard", &two_tps);
        r.scalar(
            "engine.shard_speedup_2",
            stats::median(&two_tps).unwrap_or(f64::NAN) / base_tps,
        );
    }

    /// Section 5: codec, closed loop, open loop.
    fn wire(&mut self, feed: &Feed, oracle: &Oracle) {
        let codec_run = self.rec.next_run();
        let n_ticks = feed.n_ticks();
        // Codec on the first ticks of the feed, step-major as they are sent.
        let frames: Vec<Frame> = (0..feed.horizon)
            .flat_map(|step| (0..feed.n_nodes()).map(move |node| (node, step)))
            .take(CODEC_TICKS)
            .map(|(node, step)| Frame::Tick(feed.tick(node, step)))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend(self.rec.call("wire.encode", || encode_frame(f)));
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = 0usize;
        for chunk in stream.chunks(64 * 1024) {
            match self.rec.call("wire.decode", || asm.push(chunk)) {
                Ok(got) => decoded += got.len(),
                Err(e) => self
                    .gate
                    .fail(1, || format!("wire codec: decode failed: {e}")),
            }
        }
        self.gate.attempted += frames.len() as u64;
        let lost = (frames.len() - decoded.min(frames.len())) as u64;
        self.gate.fail(lost, || {
            format!("wire codec: {lost} frames lost in reassembly")
        });
        let span = self.rec.enter("wire.fnv");
        std::hint::black_box(fnv1a64(&stream));
        let fnv_s = self.rec.exit(span) as f64 * 1e-9;
        let codec = self.rec.stages(codec_run);
        let n = frames.len() as f64;
        let encode_us = codec["wire.encode"].self_ns as f64 / 1e3 / n;
        let decode_us = codec["wire.decode"].self_ns as f64 / 1e3 / n;
        let r = &mut self.report;
        r.scalar("wire.encode_ns_per_tick", encode_us * 1e3);
        r.scalar("wire.decode_ns_per_tick", decode_us * 1e3);
        r.scalar("wire.bytes_per_tick", stream.len() as f64 / n);
        r.scalar("wire.fnv_mib_per_s", stream.len() as f64 / MIB / fnv_s);

        // Closed loop, everything in ns-obs off, beside one in-process
        // replay of the same feed.
        let inproc = replay_inproc(&self.model, feed, 1, ScoringPrecision::F64);
        let mut reference = None;
        let out = self
            .gate
            .check_report("in-process", &inproc.report, n_ticks, oracle, true);
        self.gate
            .check_digest("in-process", &mut reference, digest(&out));
        match replay_wire(&self.model, feed, None) {
            Ok(w) => {
                check_wire(&mut self.gate, "wire closed loop", &w, n_ticks, oracle);
                self.gate
                    .check_digest("wire closed loop", &mut reference, digest(&w.outcomes));
                let r = &mut self.report;
                r.scalar("wire.ticks_per_s", n_ticks as f64 / w.wall_s);
                r.scalar("wire.drain_ms", w.drain_s * 1e3);
                // Wire wall − in-process wall − encode − decode, per tick.
                // Negative when a spare core hides the wire work.
                r.scalar(
                    "ingest.residual_us_per_tick",
                    (w.wall_s - inproc.wall_s) * 1e6 / n_ticks as f64 - encode_us - decode_us,
                );
            }
            Err(e) => self.gate.fail_all(n_ticks, e),
        }

        // Open loop over a head of the feed. ns-obs *metrics* are on here
        // (tracing and the journal stay off): the byte, frame and batch
        // counts are read from the public wire counters.
        let steps = if self.args.smoke { 120 } else { 220 };
        let head = feed.head(feed.n_nodes(), steps.min(feed.horizon));
        let head_oracle = Oracle::compute(&self.model, &head);
        let pace = Pace::per_second(PACED_CYCLES_PER_S * head.n_nodes() as f64, head.n_nodes());
        let registry = ns_obs::metrics::global();
        registry.reset();
        ns_obs::metrics::set_enabled(true);
        let paced = replay_wire(&self.model, &head, Some(pace));
        ns_obs::metrics::set_enabled(false);
        match paced {
            Ok(w) => {
                check_wire(
                    &mut self.gate,
                    "wire open loop",
                    &w,
                    head.n_ticks(),
                    &head_oracle,
                );
                let counter = |name: &str, labels: &str| -> f64 {
                    registry
                        .values()
                        .iter()
                        .find(|v| v.name == name && v.labels == labels)
                        .map_or(0.0, |v| v.value)
                };
                let interval = pace.interval_ms();
                let late = w.lag_ms.iter().filter(|&&l| l > interval).count();
                let r = &mut self.report;
                r.scalar(
                    "wire.frames_per_cycle",
                    counter(ns_stream::metrics::WIRE_FRAMES_TOTAL, "{kind=\"tick\"}")
                        / head.horizon as f64,
                );
                r.scalar(
                    "wire.rx_bytes",
                    counter(ns_stream::metrics::WIRE_RX_BYTES_TOTAL, ""),
                );
                r.scalar(
                    "wire.tx_bytes",
                    counter(ns_stream::metrics::WIRE_TX_BYTES_TOTAL, ""),
                );
                r.scalar(
                    "ingest.batch_ticks_p50",
                    registry
                        .histogram_quantile(ns_stream::metrics::WIRE_INGEST_BATCH_TICKS, &[], 0.5)
                        .unwrap_or(0.0),
                );
                r.percentile("cycle_rtt_ms_p50", &w.rtt_ms, 0.5);
                r.percentile("cycle_rtt_ms_p90", &w.rtt_ms, 0.9);
                r.percentile("wire.cycle_rtt_ms_p99", &w.rtt_ms, 0.99);
                r.percentile("wire.generator_lag_ms_p90", &w.lag_ms, 0.9);
                r.percentile("wire.generator_lag_ms_p99", &w.lag_ms, 0.99);
                r.scalar(
                    "wire.late_cycle_share",
                    late as f64 / w.lag_ms.len().max(1) as f64,
                );
                // A generator that runs a whole interval late is measuring
                // itself, not the engine.
                if r.get("wire.generator_lag_ms_p90")
                    .is_some_and(|lag| lag > interval)
                {
                    for name in [
                        "cycle_rtt_ms_p50",
                        "cycle_rtt_ms_p90",
                        "wire.cycle_rtt_ms_p99",
                    ] {
                        r.annotate(name, "unresolved: generator lag exceeds one cycle interval");
                    }
                }
            }
            Err(e) => self.gate.fail_all(head.n_ticks(), e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordered_steps_stay_inside_their_block() {
        let steps = reordered_steps(100, 16, 11);
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "a permutation");
        for (pos, &step) in steps.iter().enumerate() {
            assert_eq!(pos / 16, step / 16, "step {step} left its block");
        }
        assert_ne!(steps, sorted, "and actually shuffled");
        assert_eq!(steps, reordered_steps(100, 16, 11), "same seed, same order");
        assert_ne!(steps, reordered_steps(100, 16, 12));
    }

    #[test]
    fn segment_scores_are_normalized_by_the_probe_median() {
        let mut s = vec![2.0, 4.0, 6.0, 100.0];
        normalize_segment_scores(&mut s, 3);
        assert_eq!(s, vec![0.5, 1.0, 1.5, 25.0]);
        // A well-reconstructed segment stays on the calibrated scale.
        let mut s = vec![0.1, 0.2, 0.3];
        normalize_segment_scores(&mut s, 3);
        assert_eq!(s, vec![0.1, 0.2, 0.3]);
    }
}
