//! Anomaly injection — the ChaosBlade substitute.
//!
//! Every anomaly class of the paper's Table 1 has an injector that
//! perturbs a node's latent signals over a labelled interval. Injection
//! happens on the latent state *before* raw-metric expansion, so the
//! perturbation propagates to every correlated raw metric exactly as a
//! real fault would.

use crate::archetype::JobArchetype;
use crate::signals::{clamp_frame, Signal, SignalFrame};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Anomaly classes (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyKind {
    // CPU level
    CpuOverload,
    CacheFailure,
    // Memory level
    MemoryExhaustion,
    MemoryLeak,
    // Disk level
    DiskFull,
    SilentDataCorruption,
    // Network level
    NetworkCongestion,
    NetworkPartition,
    // Kernel / OS level
    ResourceContention,
    PageAllocationError,
}

/// All injectable anomaly kinds.
pub const ALL_ANOMALIES: [AnomalyKind; 10] = [
    AnomalyKind::CpuOverload,
    AnomalyKind::CacheFailure,
    AnomalyKind::MemoryExhaustion,
    AnomalyKind::MemoryLeak,
    AnomalyKind::DiskFull,
    AnomalyKind::SilentDataCorruption,
    AnomalyKind::NetworkCongestion,
    AnomalyKind::NetworkPartition,
    AnomalyKind::ResourceContention,
    AnomalyKind::PageAllocationError,
];

impl AnomalyKind {
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::CpuOverload => "cpu_overload",
            AnomalyKind::CacheFailure => "cache_failure",
            AnomalyKind::MemoryExhaustion => "memory_exhaustion",
            AnomalyKind::MemoryLeak => "memory_leak",
            AnomalyKind::DiskFull => "disk_full",
            AnomalyKind::SilentDataCorruption => "silent_data_corruption",
            AnomalyKind::NetworkCongestion => "network_congestion",
            AnomalyKind::NetworkPartition => "network_partition",
            AnomalyKind::ResourceContention => "resource_contention",
            AnomalyKind::PageAllocationError => "page_allocation_error",
        }
    }

    /// Table 1 level this anomaly belongs to.
    pub fn level(self) -> &'static str {
        match self {
            AnomalyKind::CpuOverload | AnomalyKind::CacheFailure => "CPU",
            AnomalyKind::MemoryExhaustion | AnomalyKind::MemoryLeak => "Memory",
            AnomalyKind::DiskFull | AnomalyKind::SilentDataCorruption => "Disk",
            AnomalyKind::NetworkCongestion | AnomalyKind::NetworkPartition => "Network",
            AnomalyKind::ResourceContention | AnomalyKind::PageAllocationError => "Kernel/OS",
        }
    }

    /// Perturb the latent frames of one node over the event window.
    /// `frames` spans exactly the injection interval.
    ///
    /// Injections are deliberately **contextual** ("performance
    /// anomalies... not necessarily failures", §4.1.1): most kinds
    /// *replace* the node's behaviour with statistically valid frames of
    /// the *wrong* workload — each anomalous frame lies on the global
    /// normal manifold, so pointwise detectors (GMM/AE over instantaneous
    /// vectors) see nothing, and only a method that knows which pattern
    /// the node *should* be running can flag the stretch. The remaining
    /// kinds are subtle in-envelope perturbations (leaks, sporadic retry
    /// storms).
    pub fn inject(self, frames: &mut [SignalFrame], rng: &mut ChaCha8Rng) {
        let n = frames.len();
        if n == 0 {
            return;
        }
        // Replace a frame with another archetype's frame at relative
        // position `rel`, preserving the monotone uptime signal.
        let replace = |f: &mut SignalFrame,
                       arch: JobArchetype,
                       rel: f64,
                       inten: f64,
                       rng: &mut ChaCha8Rng| {
            let uptime = f[Signal::Uptime as usize];
            *f = arch.frame(rel, inten, 0, 30.0, rng);
            f[Signal::Uptime as usize] = uptime;
        };
        let set_add = |f: &mut SignalFrame, s: Signal, v: f64| f[s as usize] += v;
        // Per-event intensity drawn from the same distribution normal jobs
        // use, so the replaced behaviour carries no intensity signature.
        let inten: f64 = rng.gen_range(0.75..1.05);
        for (t, f) in frames.iter_mut().enumerate() {
            let prog = t as f64 / n.max(1) as f64; // 0..1 through the event
            match self {
                AnomalyKind::CpuOverload => {
                    // A rogue compute process: the node behaves exactly
                    // like a ComputeBound compute phase.
                    replace(f, JobArchetype::ComputeBound, 0.1, inten, rng);
                }
                AnomalyKind::CacheFailure => {
                    // Thrashing looks like an analytics shuffle: high
                    // system time + switches, little useful work.
                    replace(f, JobArchetype::DataAnalytics, 0.6, inten, rng);
                }
                AnomalyKind::MemoryExhaustion => {
                    // The node drifts into memory-workload behaviour:
                    // allocation ramp, then sustained high residency.
                    let rel = 0.05 + 0.6 * prog;
                    replace(f, JobArchetype::MemoryIntensive, rel, inten, rng);
                }
                AnomalyKind::MemoryLeak => {
                    // Subtle in-envelope creep (no replacement).
                    set_add(f, Signal::MemUsed, 0.3 * prog);
                    set_add(f, Signal::MemKernel, 0.12 * prog);
                }
                AnomalyKind::DiskFull => {
                    // Scratch filling up: IoHeavy write-phase behaviour
                    // regardless of what should run.
                    replace(f, JobArchetype::IoHeavy, 0.15, inten, rng);
                    f[Signal::DiskUsedFrac as usize] =
                        f[Signal::DiskUsedFrac as usize].max(0.55 + 0.15 * prog);
                }
                AnomalyKind::SilentDataCorruption => {
                    // Sporadic re-read retry storms: brief IoHeavy
                    // read-phase frames inside the running job.
                    if (t * 7) % 13 < 5 {
                        replace(f, JobArchetype::IoHeavy, 0.05, inten, rng);
                    }
                }
                AnomalyKind::NetworkCongestion => {
                    // Congested exchange: NetworkHeavy at degraded
                    // throughput with elevated (but in-envelope) retrans.
                    replace(f, JobArchetype::NetworkHeavy, 0.5, 0.72 * inten, rng);
                    // Retrans stays inside the lossy-exchange envelope
                    // (0.18·i for i ≤ 1.1): congested but plausible.
                    f[Signal::NetRetrans as usize] = 0.18 * inten;
                    set_add(f, Signal::ProcsBlocked, 0.08);
                }
                AnomalyKind::NetworkPartition => {
                    // Traffic gone: the node looks idle mid-job.
                    replace(f, JobArchetype::Idle, 0.5, 1.0, rng);
                }
                AnomalyKind::ResourceContention => {
                    // Noisy neighbour: behaviour oscillates between a
                    // compute beat and a shuffle beat.
                    if (t / 3) % 2 == 0 {
                        replace(f, JobArchetype::ComputeBound, 0.1, 0.9 * inten, rng);
                    } else {
                        replace(f, JobArchetype::DataAnalytics, 0.6, 0.95 * inten, rng);
                    }
                }
                AnomalyKind::PageAllocationError => {
                    // Sporadic allocation-ramp behaviour with kernel
                    // memory pressure.
                    if (t * 5) % 11 < 4 {
                        replace(f, JobArchetype::MemoryIntensive, 0.1, inten, rng);
                    }
                }
            }
            clamp_frame(f);
        }
    }
}

/// A labelled injected anomaly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyEvent {
    pub node: usize,
    pub kind: AnomalyKind,
    /// Inclusive start step.
    pub start: usize,
    /// Exclusive end step.
    pub end: usize,
}

/// Injection plan configuration.
#[derive(Clone, Debug)]
pub struct InjectionConfig {
    /// Steps of the window in which anomalies may occur (typically the
    /// test split).
    pub window_start: usize,
    pub window_end: usize,
    /// Expected number of events per node over the window.
    pub events_per_node: f64,
    /// Event duration range in steps.
    pub min_duration: usize,
    pub max_duration: usize,
    pub seed: u64,
}

/// Sample a non-overlapping per-node injection plan where each event
/// lands inside one of the node's allowed spans (typically job spans in
/// the test window: performance anomalies manifest against a running
/// workload). A node with no allowed spans receives no events.
pub fn plan_events_in_spans(
    spans_per_node: &[Vec<(usize, usize)>],
    cfg: &InjectionConfig,
) -> Vec<AnomalyEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    for (node, spans) in spans_per_node.iter().enumerate() {
        let usable: Vec<(usize, usize)> = spans
            .iter()
            .copied()
            .filter(|&(s, e)| {
                e > s && e - s > cfg.min_duration && s >= cfg.window_start && e <= cfg.window_end
            })
            .collect();
        if usable.is_empty() {
            continue;
        }
        let count = poisson_like(&mut rng, cfg.events_per_node);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        for _ in 0..count {
            for _attempt in 0..12 {
                let &(lo, hi) = &usable[rng.gen_range(0..usable.len())];
                let max_dur = cfg.max_duration.min(hi - lo - 1).max(cfg.min_duration);
                let dur = rng.gen_range(cfg.min_duration..=max_dur);
                if dur >= hi - lo {
                    continue;
                }
                let start = lo + rng.gen_range(0..hi - lo - dur);
                let end = start + dur;
                if taken.iter().all(|&(s, e)| end <= s || start >= e) {
                    taken.push((start, end));
                    let kind = ALL_ANOMALIES[rng.gen_range(0..ALL_ANOMALIES.len())];
                    events.push(AnomalyEvent {
                        node,
                        kind,
                        start,
                        end,
                    });
                    break;
                }
            }
        }
    }
    events.sort_by_key(|e| (e.node, e.start));
    events
}

fn poisson_like(rng: &mut ChaCha8Rng, lambda: f64) -> usize {
    let mut c = 0usize;
    let mut acc = 1.0f64;
    let limit = (-lambda).exp();
    loop {
        acc *= rng.gen_range(0.0..1.0f64);
        if acc <= limit {
            break;
        }
        c += 1;
        if c > 20 {
            break;
        }
    }
    c
}

/// Point-wise ground-truth labels for one node over `[0, horizon)`.
pub fn labels_for_node(events: &[AnomalyEvent], node: usize, horizon: usize) -> Vec<bool> {
    let mut labels = vec![false; horizon];
    for e in events.iter().filter(|e| e.node == node) {
        for slot in labels[e.start.min(horizon)..e.end.min(horizon)].iter_mut() {
            *slot = true;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::idle_frame;
    use rand::SeedableRng;

    fn busy_frames(n: usize) -> Vec<SignalFrame> {
        (0..n)
            .map(|t| {
                let mut f = idle_frame(t, 30.0);
                f[Signal::CpuUser as usize] = 0.6;
                f[Signal::NetRxBytes as usize] = 0.5;
                f[Signal::NetTxBytes as usize] = 0.5;
                f[Signal::DiskWriteBytes as usize] = 0.4;
                f[Signal::MemUsed as usize] = 0.4;
                f
            })
            .collect()
    }

    #[test]
    fn every_kind_changes_the_signals() {
        for kind in ALL_ANOMALIES {
            let clean = busy_frames(40);
            let mut dirty = clean.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            kind.inject(&mut dirty, &mut rng);
            let delta: f64 = clean
                .iter()
                .zip(&dirty)
                .map(|(a, b)| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| (x - y).abs())
                        .sum::<f64>()
                })
                .sum();
            assert!(delta > 0.5, "{kind:?} produced no visible perturbation");
            for f in &dirty {
                assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
    }

    #[test]
    fn memory_exhaustion_ramps_memory_and_swap() {
        let mut frames = busy_frames(60);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        AnomalyKind::MemoryExhaustion.inject(&mut frames, &mut rng);
        assert!(frames[59][Signal::MemUsed as usize] > frames[0][Signal::MemUsed as usize]);
        assert!(frames[59][Signal::SwapUsed as usize] > 0.1);
    }

    #[test]
    fn network_partition_kills_traffic() {
        let mut frames = busy_frames(30);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        AnomalyKind::NetworkPartition.inject(&mut frames, &mut rng);
        let mid = &frames[15];
        assert!(mid[Signal::NetRxBytes as usize] < 0.1);
        assert!(mid[Signal::NetTxBytes as usize] < 0.1);
    }

    /// Job spans for `n` nodes: three usable jobs inside the window
    /// `[100, 1000)`, one job before it, one too short to hold an event,
    /// and a last node with no spans at all.
    fn job_spans(n: usize) -> Vec<Vec<(usize, usize)>> {
        let mut spans: Vec<Vec<(usize, usize)>> = (0..n)
            .map(|i| vec![(0, 90), (100 + i, 400), (400, 408), (420, 700), (700, 1000)])
            .collect();
        spans.push(Vec::new());
        spans
    }

    fn span_cfg(seed: u64) -> InjectionConfig {
        InjectionConfig {
            window_start: 100,
            window_end: 1000,
            events_per_node: 3.0,
            min_duration: 10,
            max_duration: 60,
            seed,
        }
    }

    #[test]
    fn plan_is_non_overlapping_within_node_and_inside_one_span() {
        let spans = job_spans(20);
        let cfg = span_cfg(9);
        let events = plan_events_in_spans(&spans, &cfg);
        assert!(!events.is_empty());
        for e in &events {
            assert!(e.start >= 100 && e.end <= 1000);
            assert!(e.end > e.start);
            let inside = spans[e.node]
                .iter()
                .filter(|&&(s, end)| s >= 100 && end - s > cfg.min_duration)
                .any(|&(s, end)| e.start >= s && e.end <= end);
            assert!(inside, "{e:?} lies in no allowed span");
        }
        assert!(
            events.iter().all(|e| e.node < 20),
            "a node without spans got events"
        );
        for node in 0..20 {
            let mut taken: Vec<(usize, usize)> = events
                .iter()
                .filter(|e| e.node == node)
                .map(|e| (e.start, e.end))
                .collect();
            taken.sort_unstable();
            for w in taken.windows(2) {
                assert!(w[0].1 <= w[1].0, "node {node} overlap");
            }
        }
    }

    #[test]
    fn labels_mark_exactly_the_event_spans() {
        let events = vec![
            AnomalyEvent {
                node: 0,
                kind: AnomalyKind::CpuOverload,
                start: 5,
                end: 8,
            },
            AnomalyEvent {
                node: 1,
                kind: AnomalyKind::DiskFull,
                start: 0,
                end: 2,
            },
        ];
        let l0 = labels_for_node(&events, 0, 10);
        assert_eq!(l0.iter().filter(|&&b| b).count(), 3);
        assert!(l0[5] && l0[7] && !l0[8] && !l0[4]);
        let l2 = labels_for_node(&events, 2, 10);
        assert!(l2.iter().all(|&b| !b));
    }

    #[test]
    fn plan_is_deterministic() {
        let spans = job_spans(10);
        assert_eq!(
            plan_events_in_spans(&spans, &span_cfg(11)),
            plan_events_in_spans(&spans, &span_cfg(11))
        );
    }

    #[test]
    fn replacement_anomalies_stay_on_the_global_manifold() {
        // Pattern-replacement injections must produce frames whose values
        // individually lie inside the envelope spanned by normal
        // archetype frames — that is what makes them contextual.
        use crate::archetype::{JobArchetype, SCHEDULABLE_ARCHETYPES};
        let mut lo = [f64::INFINITY; crate::signals::NUM_SIGNALS];
        let mut hi = [f64::NEG_INFINITY; crate::signals::NUM_SIGNALS];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for arch in SCHEDULABLE_ARCHETYPES
            .iter()
            .copied()
            .chain([JobArchetype::Idle])
        {
            for k in 0..400 {
                let rel = (k % 100) as f64 / 99.0;
                let inten = 0.7 + 0.4 * ((k / 100) as f64 / 3.0);
                let f = arch.frame(rel, inten, k, 30.0, &mut rng);
                for (i, v) in f.iter().enumerate() {
                    lo[i] = lo[i].min(*v);
                    hi[i] = hi[i].max(*v);
                }
            }
        }
        let margin = 0.12; // noise + clamp slack
        for kind in [
            AnomalyKind::CpuOverload,
            AnomalyKind::CacheFailure,
            AnomalyKind::MemoryExhaustion,
            AnomalyKind::NetworkCongestion,
            AnomalyKind::NetworkPartition,
            AnomalyKind::ResourceContention,
        ] {
            let mut frames = busy_frames(50);
            let mut krng = ChaCha8Rng::seed_from_u64(9);
            kind.inject(&mut frames, &mut krng);
            for f in &frames {
                for (i, v) in f.iter().enumerate() {
                    if i == Signal::Uptime as usize {
                        continue;
                    }
                    assert!(
                        *v >= lo[i] - margin && *v <= hi[i] + margin,
                        "{kind:?}: signal {i} value {v} outside normal envelope [{}, {}]",
                        lo[i],
                        hi[i]
                    );
                }
            }
        }
    }

    #[test]
    fn table1_levels_are_complete() {
        let levels: std::collections::BTreeSet<&str> =
            ALL_ANOMALIES.iter().map(|k| k.level()).collect();
        assert_eq!(levels.len(), 5);
        assert!(levels.contains("CPU") && levels.contains("Kernel/OS"));
    }
}
