//! Dataset profiles and generation — the stand-in for the paper's D1/D2
//! production datasets from NG-Tianhe.

use crate::anomaly::{labels_for_node, plan_events_in_spans, AnomalyEvent, InjectionConfig};
use crate::catalog::{splitmix64, CatalogSpec, MetricCatalog};
use crate::schedule::{Schedule, ScheduleConfig};
use crate::signals::SignalFrame;
use crate::simulator::simulate_cluster;
use ns_linalg::matrix::Matrix;
use ns_wire::Tick;

/// Everything needed to generate a dataset deterministically.
#[derive(Clone, Debug)]
pub struct DatasetProfile {
    pub name: String,
    pub spec: CatalogSpec,
    pub schedule: ScheduleConfig,
    /// Sampling interval in seconds (paper: 15 s; scaled profiles use 30 s).
    pub interval_s: f64,
    /// Fraction of the horizon used for training (paper: first 60%).
    pub train_frac: f64,
    /// Expected injected anomaly events per node in the test window.
    pub events_per_node: f64,
    /// Anomaly event duration range in steps.
    pub event_duration: (usize, usize),
    /// Probability that any raw sample is lost in collection (cleaned by
    /// the preprocessing interpolation step).
    pub missing_rate: f64,
    pub seed: u64,
}

impl DatasetProfile {
    /// Scaled-down D1: one array, many nodes, wide metric catalog.
    pub fn d1_prime() -> Self {
        Self {
            name: "D1'".into(),
            spec: CatalogSpec::scaled(),
            schedule: ScheduleConfig {
                n_nodes: 16,
                horizon: 2880, // 1 simulated day at 30 s
                mean_interarrival: 6.0,
                min_duration: 40,
                max_duration: 900,
                max_width: 8,
                seed: 101,
            },
            interval_s: 30.0,
            train_frac: 0.6,
            events_per_node: 2.0,
            event_duration: (15, 60),
            missing_rate: 0.001,
            seed: 101,
        }
    }

    /// Scaled-down D2: few nodes, narrower catalog, longer window.
    pub fn d2_prime() -> Self {
        Self {
            name: "D2'".into(),
            spec: CatalogSpec::small(),
            schedule: ScheduleConfig {
                n_nodes: 8,
                horizon: 2880, // 1 simulated day at 30 s
                mean_interarrival: 10.0,
                min_duration: 40,
                max_duration: 700,
                max_width: 4,
                seed: 202,
            },
            interval_s: 30.0,
            train_frac: 0.6,
            events_per_node: 2.5,
            event_duration: (15, 80),
            missing_rate: 0.001,
            seed: 202,
        }
    }

    /// Tiny profile for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            spec: CatalogSpec::small(),
            schedule: ScheduleConfig {
                n_nodes: 4,
                horizon: 600,
                mean_interarrival: 6.0,
                min_duration: 30,
                max_duration: 150,
                max_width: 2,
                seed: 7,
            },
            interval_s: 30.0,
            train_frac: 0.6,
            events_per_node: 1.5,
            event_duration: (10, 30),
            missing_rate: 0.002,
            seed: 7,
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let schedule = Schedule::generate(&self.schedule);
        let split = (self.schedule.horizon as f64 * self.train_frac) as usize;
        let injection = InjectionConfig {
            window_start: split,
            window_end: self.schedule.horizon,
            events_per_node: self.events_per_node,
            min_duration: self.event_duration.0,
            max_duration: self.event_duration.1,
            seed: self.seed ^ 0xEE,
        };
        // Events land inside job spans of the test window: the paper's
        // performance anomalies manifest against running workloads.
        let spans_per_node: Vec<Vec<(usize, usize)>> = (0..self.schedule.n_nodes)
            .map(|n| {
                schedule
                    .node_timeline(n)
                    .iter()
                    .filter(|seg| seg.job.is_some())
                    .map(|seg| (seg.start.max(split), seg.end))
                    .filter(|&(s, e)| e > s)
                    .collect()
            })
            .collect();
        let events = plan_events_in_spans(&spans_per_node, &injection);
        let latent = simulate_cluster(&schedule, &events, self.interval_s, self.seed);
        let catalog = MetricCatalog::build(self.spec);
        Dataset {
            profile: self.clone(),
            catalog,
            schedule,
            latent,
            events,
            split,
        }
    }
}

/// Summary statistics (Table 2 row).
#[derive(Clone, Debug)]
pub struct DatasetStats {
    pub name: String,
    pub nodes: usize,
    pub jobs: usize,
    pub metrics: usize,
    pub total_points: usize,
    pub anomaly_ratio: f64,
}

/// A generated dataset: latent state for every node plus the machinery to
/// expand raw metrics on demand (the full raw tensor is never held for
/// all nodes at once).
pub struct Dataset {
    pub profile: DatasetProfile,
    pub catalog: MetricCatalog,
    pub schedule: Schedule,
    /// Post-injection latent timelines, indexed `[node][step]`.
    pub latent: Vec<Vec<SignalFrame>>,
    pub events: Vec<AnomalyEvent>,
    /// First step of the test split.
    pub split: usize,
}

impl Dataset {
    pub fn n_nodes(&self) -> usize {
        self.schedule.n_nodes
    }

    pub fn horizon(&self) -> usize {
        self.schedule.horizon
    }

    /// Raw `T × M` metric matrix for a node, with collection losses
    /// punched in as NaN at `missing_rate` (cleaned by preprocessing): a
    /// pure per-cell hash of the node, step and metric.
    pub fn raw_node(&self, node: usize) -> Matrix {
        let mut m = self.catalog.expand(
            &self.latent[node],
            self.profile.seed ^ ((node as u64) << 16),
        );
        if self.profile.missing_rate > 0.0 {
            let threshold = (self.profile.missing_rate * u32::MAX as f64) as u32;
            let cols = m.cols();
            for t in 0..m.rows() {
                for j in 0..cols {
                    let h = splitmix64(
                        self.profile.seed
                            ^ 0xBAD
                            ^ ((node as u64) << 48)
                            ^ ((t as u64) << 20)
                            ^ j as u64,
                    );
                    if (h as u32) < threshold {
                        m[(t, j)] = f64::NAN;
                    }
                }
            }
        }
        m
    }

    /// The node's job transitions, ascending: every step where a segment
    /// of its timeline starts, except step 0. The schedule stands in for
    /// the sacct records the paper segments at (§3.2).
    pub fn transitions(&self, node: usize) -> Vec<usize> {
        self.schedule
            .node_timeline(node)
            .iter()
            .map(|seg| seg.start)
            .filter(|&s| s > 0)
            .collect()
    }

    /// The clean feed: one tick per node per step, step-major and
    /// node-ascending within a step. Values are [`raw_node`](Self::raw_node)
    /// rows, and `transition` marks the steps in
    /// [`transitions`](Self::transitions). Built one node at a time, so the
    /// peak is the feed plus one node's matrix.
    pub fn ticks(&self) -> Vec<Tick> {
        let n_nodes = self.n_nodes();
        let mut feed: Vec<Tick> = (0..self.horizon())
            .flat_map(|step| {
                (0..n_nodes).map(move |node| Tick {
                    node,
                    step,
                    values: Vec::new(),
                    transition: false,
                })
            })
            .collect();
        for node in 0..n_nodes {
            let raw = self.raw_node(node);
            for (step, tick) in feed.iter_mut().skip(node).step_by(n_nodes).enumerate() {
                tick.values = raw.row(step).to_vec();
            }
            for step in self.transitions(node) {
                feed[step * n_nodes + node].transition = true;
            }
        }
        feed
    }

    /// Ground-truth point labels for a node over the full horizon.
    pub fn labels(&self, node: usize) -> Vec<bool> {
        labels_for_node(&self.events, node, self.horizon())
    }

    /// If an anomaly event overlaps a running job, the job is considered
    /// to fail at the earlier of job end and event end (case-study §5.2).
    pub fn failure_step(&self, event: &AnomalyEvent) -> Option<usize> {
        self.schedule
            .jobs
            .iter()
            .filter(|j| j.nodes.contains(&event.node))
            .find(|j| j.start < event.end && event.start < j.end)
            .map(|j| j.end.min(event.end))
    }

    /// Table 2 statistics.
    pub fn stats(&self) -> DatasetStats {
        let total_points = self.n_nodes() * self.horizon() * self.catalog.len();
        let test_points: usize = self.n_nodes() * (self.horizon() - self.split);
        let anomalous: usize = (0..self.n_nodes())
            .map(|n| self.labels(n)[self.split..].iter().filter(|&&b| b).count())
            .sum();
        DatasetStats {
            name: self.profile.name.clone(),
            nodes: self.n_nodes(),
            jobs: self.schedule.jobs.len(),
            metrics: self.catalog.len(),
            total_points,
            anomaly_ratio: anomalous as f64 / test_points.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_generates_consistently() {
        let ds = DatasetProfile::tiny().generate();
        assert_eq!(ds.n_nodes(), 4);
        assert_eq!(ds.latent.len(), 4);
        assert_eq!(ds.latent[0].len(), ds.horizon());
        assert!(ds.split > 0 && ds.split < ds.horizon());
        // Deterministic regeneration.
        let ds2 = DatasetProfile::tiny().generate();
        assert_eq!(ds.latent, ds2.latent);
        assert_eq!(ds.events, ds2.events);
    }

    #[test]
    fn anomalies_only_in_test_window() {
        let ds = DatasetProfile::tiny().generate();
        for e in &ds.events {
            assert!(
                e.start >= ds.split,
                "event {e:?} starts in the training split"
            );
        }
        for n in 0..ds.n_nodes() {
            let labels = ds.labels(n);
            assert!(labels[..ds.split].iter().all(|&b| !b));
        }
    }

    #[test]
    fn transitions_are_the_segment_starts_inside_the_horizon() {
        let ds = DatasetProfile::tiny().generate();
        for node in 0..ds.n_nodes() {
            let tr = ds.transitions(node);
            assert!(!tr.is_empty(), "node {node} has no transition");
            assert!(tr.windows(2).all(|w| w[0] < w[1]), "node {node}: {tr:?}");
            assert!(tr.iter().all(|&t| t > 0 && t < ds.horizon()));
            let starts: Vec<usize> = ds
                .schedule
                .node_timeline(node)
                .iter()
                .map(|seg| seg.start)
                .collect();
            assert_eq!(starts[0], 0);
            assert_eq!(tr, starts[1..]);
        }
    }

    #[test]
    fn ticks_are_the_raw_rows_step_major_with_transition_flags() {
        let ds = DatasetProfile::tiny().generate();
        let (n_nodes, horizon) = (ds.n_nodes(), ds.horizon());
        let feed = ds.ticks();
        assert_eq!(feed.len(), n_nodes * horizon);
        for node in 0..n_nodes {
            let raw = ds.raw_node(node);
            let tr = ds.transitions(node);
            for step in 0..horizon {
                let tick = &feed[step * n_nodes + node];
                assert_eq!((tick.node, tick.step), (node, step));
                let want: Vec<u64> = raw.row(step).iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = tick.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "values of node {node} step {step}");
                assert_eq!(
                    tick.transition,
                    tr.contains(&step),
                    "node {node} step {step}"
                );
            }
        }
    }

    /// FNV-1a of the tiny profile's encoded clean feed, as the hand-built
    /// step-major loop over `raw_node` rows and segment starts produced it.
    #[test]
    fn tiny_feed_digest_is_pinned() {
        let mut bytes = Vec::new();
        ns_wire::encode_ticks_into(&DatasetProfile::tiny().generate().ticks(), &mut bytes);
        assert_eq!(
            format!("{:016x}", ns_wire::fnv1a64(&bytes)),
            "b31e510ee5d1244b"
        );
    }

    #[test]
    fn raw_node_has_missing_values_at_low_rate() {
        let ds = DatasetProfile::tiny().generate();
        let raw = ds.raw_node(0);
        let nan_count = raw.as_slice().iter().filter(|v| v.is_nan()).count();
        let rate = nan_count as f64 / raw.len() as f64;
        assert!(nan_count > 0, "missing-value corruption should occur");
        assert!(rate < 0.01, "rate {rate} too high");
    }

    #[test]
    fn stats_reflect_generation() {
        let ds = DatasetProfile::tiny().generate();
        let st = ds.stats();
        assert_eq!(st.nodes, 4);
        assert_eq!(st.jobs, ds.schedule.jobs.len());
        assert_eq!(st.metrics, ds.catalog.len());
        assert!(st.anomaly_ratio > 0.0 && st.anomaly_ratio < 0.5);
        assert_eq!(st.total_points, 4 * ds.horizon() * ds.catalog.len());
    }

    #[test]
    fn failure_step_found_for_overlapping_job() {
        let ds = DatasetProfile::tiny().generate();
        // At least one event should overlap a job in a busy tiny cluster.
        let overlapping = ds.events.iter().find(|e| ds.failure_step(e).is_some());
        if let Some(e) = overlapping {
            let f = ds.failure_step(e).unwrap();
            assert!(f >= e.start);
        }
    }
}
