//! The replays the metrics are measured on: closed-loop in-process, closed-
//! and open-loop over loopback TCP, and the elastic checkpoint/restore
//! cycle. Each one takes the fitted model and a materialised feed, drives
//! the engine through its public API only, and hands back raw samples.

use crate::setup::{Feed, Gate, Oracle, Outcome, Sizes, ELASTIC_TAIL_STEPS};
use crate::spans::Recorder;
use nodesentry_core::NodeSentry;
use ns_stream::ingest::FinishedRun;
use ns_stream::{Engine, EngineCheckpoint, EngineConfig, EngineReport, ScoringPrecision, Tick};
use ns_telemetry::IngestClient;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `EngineConfig::new` defaults; the benchmark sets only the shard count and
/// the scoring tier.
pub fn engine_config(split: usize, n_shards: usize, precision: ScoringPrecision) -> EngineConfig {
    let mut cfg = EngineConfig::new(split);
    cfg.n_shards = n_shards;
    cfg.scoring_precision = precision;
    cfg
}

/// One closed-loop in-process replay.
pub struct Replay {
    /// `Engine::new` to the end of `finish()`.
    pub wall_s: f64,
    /// The ingest loop alone.
    pub ingest_s: f64,
    /// Time spent inside `Engine::ingest` calls (queueing + backpressure).
    pub in_call_s: f64,
    /// `finish()`: queue backlog plus the flush of every open segment.
    pub drain_s: f64,
    /// Duration of each `Engine::ingest` call, microseconds.
    pub call_us: Vec<f64>,
    pub report: EngineReport,
}

impl Replay {
    pub fn ticks_per_s(&self, feed: &Feed) -> f64 {
        feed.n_ticks() as f64 / self.wall_s
    }
}

pub fn replay_inproc(
    model: &Arc<NodeSentry>,
    feed: &Feed,
    n_shards: usize,
    precision: ScoringPrecision,
) -> Replay {
    let mut call_us = Vec::with_capacity(feed.horizon);
    let t0 = Instant::now();
    let engine = Engine::new(
        Arc::clone(model),
        engine_config(feed.split, n_shards, precision),
    );
    let t_loop = Instant::now();
    for step in 0..feed.horizon {
        let cycle = feed.cycle(step);
        let t = Instant::now();
        engine.ingest(cycle).expect("stream shard alive");
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let ingest_s = t_loop.elapsed().as_secs_f64();
    let t_drain = Instant::now();
    let report = engine.finish();
    Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        ingest_s,
        in_call_s: call_us.iter().sum::<f64>() * 1e-6,
        drain_s: t_drain.elapsed().as_secs_f64(),
        call_us,
        report,
    }
}

/// Pacing of the open-loop phase: cycle `i` is due at `i` whole intervals
/// after a monotonic start, so a slow cycle never shifts the schedule of the
/// ones after it (no sleep drift).
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    pub interval_ns: u64,
}

impl Pace {
    pub fn per_second(ticks_per_s: f64, ticks_per_cycle: usize) -> Pace {
        Pace {
            interval_ns: (ticks_per_cycle as f64 / ticks_per_s * 1e9).round() as u64,
        }
    }

    pub fn due(&self, start: Instant, i: usize) -> Instant {
        start + Duration::from_nanos(self.interval_ns * i as u64)
    }

    pub fn interval_ms(&self) -> f64 {
        self.interval_ns as f64 * 1e-6
    }
}

/// Sleep to just short of `due`, then spin: a timer wake-up alone lands up
/// to a scheduler quantum late and that lateness would be charged to the
/// engine.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One replay over loopback TCP: `IngestClient` → `Engine::serve_ingest`,
/// one connection.
pub struct WireReplay {
    /// First frame written to every verdict and the report received.
    pub wall_s: f64,
    /// `Finish` sent to the last verdict received.
    pub drain_s: f64,
    pub outcomes: Vec<Outcome>,
    /// The server's own view of the run (fault counters, tick count).
    pub run: Option<Arc<FinishedRun>>,
    /// Open loop only: due time to Pong, per cycle, milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Open loop only: how late the generator started each cycle,
    /// milliseconds.
    pub lag_ms: Vec<f64>,
}

/// Closed loop when `pace` is `None` (the socket's backpressure is the only
/// throttle); otherwise open loop, each cycle followed by a ping and timed
/// from its due time.
pub fn replay_wire(
    model: &Arc<NodeSentry>,
    feed: &Feed,
    pace: Option<Pace>,
) -> Result<WireReplay, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("wire {what}: {e}");
    let engine = Engine::new(
        Arc::clone(model),
        engine_config(feed.split, 1, ScoringPrecision::F64),
    );
    let server = engine
        .serve_ingest("127.0.0.1:0")
        .map_err(|e| err("bind", &e))?;
    let mut client = IngestClient::connect(server.local_addr()).map_err(|e| err("connect", &e))?;
    let mut rtt_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let t0 = Instant::now();
    for step in 0..feed.horizon {
        let cycle = feed.cycle(step);
        match pace {
            None => client.send_cycle(&cycle).map_err(|e| err("send", &e))?,
            Some(p) => {
                let due = p.due(t0, step);
                wait_until(due);
                lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                client.send_cycle(&cycle).map_err(|e| err("send", &e))?;
                client.ping().map_err(|e| err("ping", &e))?;
                rtt_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
            }
        }
    }
    let t_drain = Instant::now();
    let (verdicts, _report) = client.finish().map_err(|e| err("finish", &e))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let drain_s = t_drain.elapsed().as_secs_f64();
    let run = server.shutdown();
    Ok(WireReplay {
        wall_s,
        drain_s,
        outcomes: verdicts.iter().map(Outcome::from).collect(),
        run,
        rtt_ms,
        lag_ms,
    })
}

/// Gate a wire replay: the client's verdict stream against the oracle, the
/// server's counters against a clean feed.
pub fn check_wire(gate: &mut Gate, what: &str, w: &WireReplay, n_ticks: usize, oracle: &Oracle) {
    gate.attempted += n_ticks as u64;
    match &w.run {
        Some(run) => {
            let short = (n_ticks as u64).saturating_sub(run.report.stats.n_ticks);
            gate.fail(short, || format!("{what}: {short} ticks never ingested"));
            gate.check_faults(what, &run.report.faults, false);
        }
        None => gate.fail(n_ticks as u64, || {
            format!("{what}: server never finalized the run")
        }),
    }
    gate.check_outcomes(what, &w.outcomes, oracle, true);
}

/// One lifecycle cycle of the elastic workload.
#[derive(Clone, Copy, Debug)]
pub struct CycleSample {
    pub checkpoint_ms: f64,
    pub restore_ms: f64,
    /// Handing the tail's ticks to the restored engine.
    pub resume_ms: f64,
    pub snapshot_bytes: usize,
    pub n_ticks: usize,
}

impl CycleSample {
    /// Ticks streamed per second of lifecycle work.
    pub fn ticks_per_s(&self) -> f64 {
        self.n_ticks as f64 / ((self.checkpoint_ms + self.restore_ms + self.resume_ms) * 1e-3)
    }
}

pub struct ElasticRound {
    /// Every cycle in order; the first is warm-up and is not a timing
    /// sample.
    pub cycles: Vec<CycleSample>,
    /// VmRSS at the first cut minus VmRSS before `Engine::new`, MiB.
    pub engine_rss_mib: Option<f64>,
}

impl ElasticRound {
    pub fn sampled(&self) -> &[CycleSample] {
        self.cycles.get(1..).unwrap_or(&[])
    }
}

/// One elastic round: stream to the first cut, then `elastic_cycles` times
/// `checkpoint()` → tear the engine down → `restore_bytes` at the other
/// shard count → stream the next tail. `inspect` sees every checkpoint with
/// its cycle index (the traced run times the codec on it).
///
/// The torn-down engine is finished, not dropped, and outside the timed
/// regions: a dropped engine's workers keep flushing in the background and
/// would bleed into the next restore.
pub fn elastic_round(
    model: &Arc<NodeSentry>,
    feed: &Feed,
    sizes: &Sizes,
    oracle: &Oracle,
    gate: &mut Gate,
    rec: &mut Recorder,
    mut inspect: impl FnMut(&mut Recorder, usize, &EngineCheckpoint),
) -> ElasticRound {
    let ms = |ns: u64| ns as f64 * 1e-6;
    let mut cfg = engine_config(feed.split, 1, ScoringPrecision::F64);
    let rss_before = rss_mib();
    let mut engine = Engine::new(Arc::clone(model), cfg);
    for step in 0..sizes.elastic_cut {
        engine.ingest(feed.cycle(step)).expect("stream shard alive");
    }
    let mut round = ElasticRound {
        cycles: Vec::with_capacity(sizes.elastic_cycles),
        engine_rss_mib: rss_before
            .zip(rss_mib())
            .map(|((before, _), (at_cut, _))| at_cut - before),
    };
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(feed.n_verdicts());
    let mut step = sizes.elastic_cut;
    for cycle in 0..sizes.elastic_cycles {
        let tail: Vec<Vec<Tick>> = (step..step + ELASTIC_TAIL_STEPS)
            .map(|s| feed.cycle(s))
            .collect();
        step += ELASTIC_TAIL_STEPS;
        let n_ticks = tail.iter().map(Vec::len).sum();

        let span = rec.enter("snapshot.checkpoint");
        let checkpointed = engine.checkpoint();
        let checkpoint_ms = ms(rec.exit(span));
        std::hint::black_box(engine.finish());
        let ck = match checkpointed {
            Ok(ck) => ck,
            Err(e) => {
                gate.attempted += 1;
                gate.fail(1, || format!("elastic: checkpoint failed: {e}"));
                return round;
            }
        };

        // Nothing else runs here: the old engine is joined and the new one
        // does not exist yet.
        inspect(rec, cycle, &ck);

        cfg.n_shards = 3 - cfg.n_shards;
        let span = rec.enter("snapshot.restore");
        let restored = Engine::restore_bytes(Arc::clone(model), cfg, &ck.bytes);
        let restore_ms = ms(rec.exit(span));
        engine = match restored {
            Ok(e) => e,
            Err(e) => {
                gate.attempted += 1;
                gate.fail(1, || format!("elastic: restore failed: {e}"));
                return round;
            }
        };
        let span = rec.enter("snapshot.resume");
        for ticks in tail {
            engine.ingest(ticks).expect("restored shard alive");
        }
        let resume_ms = ms(rec.exit(span));

        outcomes.extend(ck.verdicts.iter().map(Outcome::from));
        round.cycles.push(CycleSample {
            checkpoint_ms,
            restore_ms,
            resume_ms,
            snapshot_bytes: ck.bytes.len(),
            n_ticks,
        });
    }
    let report = engine.finish();
    outcomes.extend(report.verdicts.iter().map(Outcome::from));
    outcomes.sort_unstable();
    // Prefixes plus the tail must cover every (node, step) exactly once.
    gate.attempted += feed.n_ticks() as u64;
    let short = (feed.n_ticks() as u64).saturating_sub(report.stats.n_ticks);
    gate.fail(short, || format!("elastic: {short} ticks never ingested"));
    gate.check_faults("elastic", &report.faults, false);
    gate.check_outcomes("elastic", &outcomes, oracle, true);
    round
}

/// Resident and peak resident set of this process, MiB. `None` off Linux.
pub fn rss_mib() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_scheduled_from_the_start_not_from_the_last_cycle() {
        // 64-tick cycles at 6,000 ticks/s: one every 10.67 ms.
        let pace = Pace::per_second(6000.0, 64);
        assert_eq!(pace.interval_ns, 10_666_667);
        let start = Instant::now();
        assert_eq!(pace.due(start, 0), start);
        // Due times are exact multiples, however late earlier cycles ran.
        for i in [1usize, 7, 1440] {
            assert_eq!(
                pace.due(start, i) - start,
                Duration::from_nanos(10_666_667 * i as u64)
            );
        }
        assert!((pace.interval_ms() - 10.666667).abs() < 1e-9);
    }

    #[test]
    fn wait_until_returns_at_or_after_the_due_time() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
        // A due time in the past returns at once.
        let t = Instant::now();
        wait_until(t - Duration::from_millis(1));
        assert!(t.elapsed() < Duration::from_millis(50));
    }
}
