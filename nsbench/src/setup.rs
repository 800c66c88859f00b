//! Set-up shared by every workload: the fitted model, the materialised feed,
//! the batch oracle and the correctness gate every replay goes through.

use nodesentry_core::{NodeInput, NodeSentry, NodeSentryConfig};
use ns_linalg::matrix::Matrix;
use ns_stream::{Engine, EngineConfig, EngineReport, FaultCounters, Tick, Verdict, VerdictKind};
use ns_telemetry::{CatalogSpec, Dataset, DatasetProfile, ScheduleConfig};
use ns_wire::fnv1a64;
use std::sync::Arc;
use std::time::Instant;

/// The model is the program's configuration, not its input: it is fitted
/// from one fixed dataset so that `--seed` moves only the ticks. (Fitting
/// from the run seed moves the pruned metric width between 139 and 273
/// columns, which doubles the per-tick cost from one seed to the next.)
const FIT_SEED: u64 = 11;

/// How many times the common set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyLong,
    ChurnShort,
    WireSteady,
    Elastic128,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyLong,
        Workload::ChurnShort,
        Workload::WireSteady,
        Workload::Elastic128,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyLong => "steady_long",
            Workload::ChurnShort => "churn_short",
            Workload::WireSteady => "wire_steady",
            Workload::Elastic128 => "elastic_128",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyLong => {
                "in-process closed loop, long jobs: few probes, so the model forward does most of the work"
            }
            Workload::ChurnShort => {
                "in-process closed loop, jobs shorter than match_period: feature extraction and many small forwards do most of the work"
            }
            Workload::WireSteady => {
                "steady_long's exact feed over loopback TCP: framing, decode and the ingest server do the added work"
            }
            Workload::Elastic128 => {
                "128 nodes cycling checkpoint, drop, restore at alternating shard counts: the snapshot layer does the timed work"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Steps streamed between two checkpoints of the elastic workload.
pub const ELASTIC_TAIL_STEPS: usize = 24;

/// Dataset shapes. `--smoke` shrinks every dimension and keeps every code
/// path.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fit_nodes: usize,
    pub fit_horizon: usize,
    pub nodes: usize,
    pub horizon: usize,
    pub elastic_nodes: usize,
    /// Lifecycle cycles per elastic round; the first is warm-up.
    pub elastic_cycles: usize,
    /// Step of the first cut; the horizon is the cut plus the cycles' tails.
    pub elastic_cut: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                fit_nodes: 3,
                fit_horizon: 240,
                nodes: 8,
                horizon: 240,
                elastic_nodes: 16,
                elastic_cycles: 3,
                elastic_cut: 96,
            }
        } else {
            Sizes {
                fit_nodes: 4,
                fit_horizon: 480,
                nodes: 16,
                horizon: 1440,
                elastic_nodes: 128,
                elastic_cycles: 8,
                elastic_cut: 168,
            }
        }
    }

    pub fn elastic_horizon(&self) -> usize {
        self.elastic_cut + self.elastic_cycles * ELASTIC_TAIL_STEPS
    }
}

fn d2_profile(schedule: ScheduleConfig, train_frac: f64) -> DatasetProfile {
    let d2 = DatasetProfile::d2_prime();
    DatasetProfile {
        name: "nsbench".into(),
        spec: CatalogSpec::small(),
        seed: schedule.seed,
        schedule,
        train_frac,
        ..d2
    }
}

fn transitions_of(ds: &Dataset, node: usize) -> Vec<usize> {
    ds.schedule
        .node_timeline(node)
        .iter()
        .map(|s| s.start)
        .filter(|&s| s > 0)
        .collect()
}

/// Wall time of one common set-up, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTiming {
    pub datagen_s: f64,
    pub fit_s: f64,
    pub warmup_s: f64,
}

impl SetupTiming {
    pub fn total_s(&self) -> f64 {
        self.datagen_s + self.fit_s + self.warmup_s
    }
}

/// The common set-up, once: generate the fit dataset, fit with the
/// program's default configuration, bring an engine up and stream the fit
/// dataset's own test span through it so lazy initialisation is paid here.
pub fn common_setup(sizes: &Sizes) -> (Arc<NodeSentry>, SetupTiming) {
    let t0 = Instant::now();
    // D2' job mix, with the longest job capped so that a short training
    // span still holds several segments per node.
    let ds = d2_profile(
        ScheduleConfig {
            n_nodes: sizes.fit_nodes,
            horizon: sizes.fit_horizon,
            mean_interarrival: 10.0,
            min_duration: 40,
            max_duration: 300,
            max_width: 4,
            seed: FIT_SEED,
        },
        0.6,
    )
    .generate();
    let inputs: Vec<NodeInput> = (0..ds.n_nodes())
        .map(|n| NodeInput {
            raw: ds.raw_node(n),
            transitions: transitions_of(&ds, n),
        })
        .collect();
    let datagen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let model = Arc::new(NodeSentry::fit(
        NodeSentryConfig::default(),
        &inputs,
        &ds.catalog.group_ids(),
        ds.split,
    ));
    let fit_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut cfg = EngineConfig::new(ds.split);
    cfg.n_shards = 1;
    let engine = Engine::new(Arc::clone(&model), cfg);
    let feed = Feed::from_inputs(inputs, ds.split);
    for step in 0..feed.horizon {
        engine
            .ingest(feed.cycle(step))
            .expect("warm-up shard alive");
    }
    std::hint::black_box(engine.finish());
    let warmup_s = t2.elapsed().as_secs_f64();
    (
        model,
        SetupTiming {
            datagen_s,
            fit_s,
            warmup_s,
        },
    )
}

/// A workload's ticks, materialised before any timing: one raw matrix per
/// node, so building a `Tick` is one row copy and the generator does not
/// compete with the engine.
pub struct Feed {
    raws: Vec<Matrix>,
    /// Per node, the job-transition steps in ascending order.
    transitions: Vec<Vec<usize>>,
    pub split: usize,
    pub horizon: usize,
}

impl Feed {
    fn from_inputs(inputs: Vec<NodeInput>, split: usize) -> Feed {
        let horizon = inputs[0].raw.rows();
        let (raws, transitions) = inputs.into_iter().map(|i| (i.raw, i.transitions)).unzip();
        Feed {
            raws,
            transitions,
            split,
            horizon,
        }
    }

    /// Generate a workload's feed from the run seed. The split sits at a
    /// tenth of the horizon: the engine needs it only as warm-up context,
    /// and nine ticks in ten receive a verdict.
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64) -> Feed {
        let (n_nodes, horizon) = match workload {
            Workload::Elastic128 => (sizes.elastic_nodes, sizes.elastic_horizon()),
            _ => (sizes.nodes, sizes.horizon),
        };
        let schedule = match workload {
            // Jobs shorter than match_period (120): every probe is a whole
            // segment matched at close, and forwards see many short series.
            Workload::ChurnShort => ScheduleConfig {
                n_nodes,
                horizon,
                mean_interarrival: 2.0,
                min_duration: 30,
                max_duration: 90,
                max_width: 4,
                seed,
            },
            // Long jobs: few transitions, long segments.
            _ => ScheduleConfig {
                n_nodes,
                horizon,
                mean_interarrival: 10.0,
                min_duration: 600,
                max_duration: 900,
                max_width: 8,
                seed,
            },
        };
        let ds = d2_profile(schedule, 0.1).generate();
        let inputs = (0..ds.n_nodes())
            .map(|n| NodeInput {
                raw: ds.raw_node(n),
                transitions: transitions_of(&ds, n),
            })
            .collect();
        Feed::from_inputs(inputs, ds.split)
    }

    pub fn n_nodes(&self) -> usize {
        self.raws.len()
    }

    pub fn n_ticks(&self) -> usize {
        self.n_nodes() * self.horizon
    }

    /// Verdicts a clean replay must produce.
    pub fn n_verdicts(&self) -> usize {
        self.n_nodes() * (self.horizon - self.split)
    }

    pub fn tick(&self, node: usize, step: usize) -> Tick {
        Tick {
            node,
            step,
            values: self.raws[node].row(step).to_vec(),
            transition: self.transitions[node].binary_search(&step).is_ok(),
        }
    }

    /// One monitoring cycle: every node's tick for `step`, in node order.
    pub fn cycle(&self, step: usize) -> Vec<Tick> {
        (0..self.n_nodes()).map(|n| self.tick(n, step)).collect()
    }

    pub fn raw(&self, node: usize) -> &Matrix {
        &self.raws[node]
    }

    pub fn transitions(&self, node: usize) -> &[usize] {
        &self.transitions[node]
    }

    /// The first `n_nodes` nodes and `steps` steps as a feed of its own
    /// (the traced run profiles a bounded slice of the wide elastic feed,
    /// and the open-loop phase streams a head of the horizon).
    pub fn head(&self, n_nodes: usize, steps: usize) -> Feed {
        let inputs = (0..n_nodes.min(self.n_nodes()))
            .map(|n| NodeInput {
                raw: self.raws[n].slice_rows(0, steps.min(self.horizon)),
                transitions: self.transitions[n]
                    .iter()
                    .copied()
                    .filter(|&t| t < steps)
                    .collect(),
            })
            .collect();
        Feed::from_inputs(inputs, self.split)
    }
}

/// What a verdict must equal: the batch pipeline's score bits and flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub score_bits: u64,
    pub anomalous: bool,
}

/// Batch oracle: `NodeSentry::score_node` plus unsmoothed `ksigma_detect`
/// per node, which is what `EngineConfig::new` (smoothing window 1) must
/// reproduce bit for bit (`tests/stream_equivalence.rs`).
pub struct Oracle {
    /// `per_node[node][step - split]`.
    pub per_node: Vec<Vec<Expected>>,
    pub split: usize,
    /// Per node, `(start, end, cluster)` of every scored segment.
    pub segments: Vec<Vec<(usize, usize, usize)>>,
}

impl Oracle {
    pub fn compute(model: &NodeSentry, feed: &Feed) -> Oracle {
        let mut per_node = Vec::with_capacity(feed.n_nodes());
        let mut segments = Vec::with_capacity(feed.n_nodes());
        for node in 0..feed.n_nodes() {
            let (scores, matches) =
                model.score_node(feed.raw(node), feed.transitions(node), feed.split);
            let flags = ns_eval::ksigma_detect(&scores, &model.cfg.threshold);
            per_node.push(
                scores
                    .iter()
                    .zip(flags)
                    .map(|(s, anomalous)| Expected {
                        score_bits: s.to_bits(),
                        anomalous,
                    })
                    .collect(),
            );
            segments.push(matches);
        }
        Oracle {
            per_node,
            split: feed.split,
            segments,
        }
    }

    pub fn n_verdicts(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum()
    }

    /// Share of oracle points flagged anomalous.
    pub fn flagged_share(&self) -> f64 {
        let flagged = self
            .per_node
            .iter()
            .flatten()
            .filter(|e| e.anomalous)
            .count();
        flagged as f64 / self.n_verdicts().max(1) as f64
    }
}

/// One verdict reduced to what the gate compares, whichever transport
/// delivered it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    pub node: usize,
    pub step: usize,
    pub score_bits: u64,
    pub anomalous: bool,
}

impl From<&Verdict> for Outcome {
    fn from(v: &Verdict) -> Outcome {
        Outcome {
            node: v.node,
            step: v.step,
            score_bits: v.score.to_bits(),
            anomalous: v.anomalous,
        }
    }
}

impl From<&ns_wire::VerdictMsg> for Outcome {
    fn from(m: &ns_wire::VerdictMsg) -> Outcome {
        Outcome {
            node: m.node as usize,
            step: m.step as usize,
            score_bits: m.score_bits,
            anomalous: m.anomalous,
        }
    }
}

/// fnv1a64 over `(node, step, score bits, flag)` of every outcome in order.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let mut bytes = Vec::with_capacity(outcomes.len() * 25);
    for o in outcomes {
        bytes.extend_from_slice(&(o.node as u64).to_le_bytes());
        bytes.extend_from_slice(&(o.step as u64).to_le_bytes());
        bytes.extend_from_slice(&o.score_bits.to_le_bytes());
        bytes.push(o.anomalous as u8);
    }
    fnv1a64(&bytes)
}

/// Operations attempted and failed so far; the run's exit code and
/// `failed_share` come from here.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// A replay that could not run at all: every one of its `n` operations
    /// failed.
    pub fn fail_all(&mut self, n: usize, note: String) {
        self.attempted += n as u64;
        self.fail(n as u64, || note);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every `(node, step)` of the test span exactly once, in order, and
    /// (for F64) bit-equal to the oracle. `outcomes` must be sorted by
    /// `(node, step)`. Counts one attempted operation per expected verdict.
    pub fn check_outcomes(
        &mut self,
        what: &str,
        outcomes: &[Outcome],
        oracle: &Oracle,
        bit_exact: bool,
    ) {
        let expected = oracle.n_verdicts();
        self.attempted += expected as u64;
        let mut bad = outcomes.len().abs_diff(expected) as u64;
        let mut first = None;
        let mut it = outcomes.iter();
        'nodes: for (node, points) in oracle.per_node.iter().enumerate() {
            for (k, want) in points.iter().enumerate() {
                let Some(got) = it.next() else {
                    break 'nodes;
                };
                let placed = got.node == node && got.step == oracle.split + k;
                let equal = !bit_exact
                    || (got.score_bits == want.score_bits && got.anomalous == want.anomalous);
                if !(placed && equal) {
                    bad += 1;
                    first.get_or_insert((node, oracle.split + k, *got));
                }
            }
        }
        self.fail(bad, || {
            format!(
                "{what}: {bad} of {expected} verdicts missing, duplicated or not bit-equal \
                 (got {}, first bad {first:?})",
                outcomes.len()
            )
        });
    }

    /// A clean feed must trip no fault path and degrade nothing.
    /// `reorder_ok` admits the reorder counter (the shuffled-feed guard).
    pub fn check_faults(&mut self, what: &str, faults: &FaultCounters, reorder_ok: bool) {
        let mut f = *faults;
        if reorder_ok {
            f.reordered_ticks = 0;
        }
        let bad: u64 = f.as_pairs().iter().map(|&(_, v)| v).sum();
        self.fail(bad, || format!("{what}: fault counters not clean: {f:?}"));
    }

    /// Gate one in-process report against the oracle.
    pub fn check_report(
        &mut self,
        what: &str,
        report: &EngineReport,
        n_ticks: usize,
        oracle: &Oracle,
        bit_exact: bool,
    ) -> Vec<Outcome> {
        self.attempted += n_ticks as u64;
        let short = (n_ticks as u64).saturating_sub(report.stats.n_ticks);
        self.fail(short, || format!("{what}: {short} ticks never ingested"));
        self.check_faults(what, &report.faults, false);
        let degraded = report
            .verdicts
            .iter()
            .filter(|v| v.kind != VerdictKind::Ok)
            .count() as u64;
        self.fail(degraded, || format!("{what}: {degraded} degraded verdicts"));
        let outcomes: Vec<Outcome> = report.verdicts.iter().map(Outcome::from).collect();
        self.check_outcomes(what, &outcomes, oracle, bit_exact);
        outcomes
    }

    /// All replays of one precision must agree to the bit.
    pub fn check_digest(&mut self, what: &str, reference: &mut Option<u64>, got: u64) {
        self.attempted += 1;
        match reference {
            None => *reference = Some(got),
            Some(want) if *want == got => {}
            Some(want) => {
                let want = *want;
                self.fail(1, || {
                    format!("{what}: verdict digest {got:016x} differs from {want:016x}")
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_oracle() -> Oracle {
        let point = |s: f64, anomalous| Expected {
            score_bits: s.to_bits(),
            anomalous,
        };
        Oracle {
            per_node: vec![
                vec![point(0.5, false), point(2.0, true)],
                vec![point(0.25, false), point(0.75, false)],
            ],
            split: 10,
            segments: Vec::new(),
        }
    }

    fn outcomes_of(oracle: &Oracle) -> Vec<Outcome> {
        oracle
            .per_node
            .iter()
            .enumerate()
            .flat_map(|(node, pts)| {
                pts.iter().enumerate().map(move |(k, e)| Outcome {
                    node,
                    step: 10 + k,
                    score_bits: e.score_bits,
                    anomalous: e.anomalous,
                })
            })
            .collect()
    }

    #[test]
    fn gate_passes_the_oracle_itself() {
        let oracle = toy_oracle();
        let mut gate = Gate::default();
        gate.check_outcomes("t", &outcomes_of(&oracle), &oracle, true);
        assert_eq!((gate.attempted, gate.failed), (4, 0));
    }

    #[test]
    fn one_flipped_oracle_bit_fails_the_gate() {
        let mut oracle = toy_oracle();
        let outcomes = outcomes_of(&oracle);
        oracle.per_node[1][0].score_bits ^= 1;
        let mut gate = Gate::default();
        gate.check_outcomes("t", &outcomes, &oracle, true);
        assert_eq!(gate.failed, 1);
        assert!(gate.failed_share() > 0.0);
        // The F32 gate checks placement only, so the same flip passes it.
        let mut gate = Gate::default();
        gate.check_outcomes("t", &outcomes, &oracle, false);
        assert_eq!(gate.failed, 0);
    }

    #[test]
    fn missing_duplicated_and_flag_flipped_verdicts_fail() {
        let oracle = toy_oracle();
        let full = outcomes_of(&oracle);

        let mut gate = Gate::default();
        gate.check_outcomes("missing", &full[..3], &oracle, true);
        assert!(gate.failed >= 1);

        let mut dup = full.clone();
        dup.insert(1, full[0]);
        let mut gate = Gate::default();
        gate.check_outcomes("dup", &dup, &oracle, true);
        assert!(gate.failed >= 1);

        let mut flipped = full.clone();
        flipped[3].anomalous = true;
        let mut gate = Gate::default();
        gate.check_outcomes("flag", &flipped, &oracle, true);
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn digest_sees_every_field_and_the_order() {
        let a = outcomes_of(&toy_oracle());
        let base = digest(&a);
        assert_eq!(base, digest(&a.clone()));
        let mut b = a.clone();
        b[2].score_bits ^= 1 << 40;
        assert_ne!(base, digest(&b));
        let mut c = a.clone();
        c[0].anomalous = !c[0].anomalous;
        assert_ne!(base, digest(&c));
        let mut d = a.clone();
        d.swap(0, 1);
        assert_ne!(base, digest(&d));

        let mut gate = Gate::default();
        let mut reference = None;
        gate.check_digest("first", &mut reference, base);
        gate.check_digest("same", &mut reference, base);
        assert_eq!(gate.failed, 0);
        gate.check_digest("other", &mut reference, digest(&b));
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn fault_counters_gate_admits_only_reorders_when_asked() {
        let faults = FaultCounters {
            reordered_ticks: 5,
            ..Default::default()
        };
        let mut gate = Gate::default();
        gate.check_faults("shuffled", &faults, true);
        assert_eq!(gate.failed, 0);
        gate.check_faults("clean", &faults, false);
        assert_eq!(gate.failed, 5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("elastic_256"), None);
    }
}
