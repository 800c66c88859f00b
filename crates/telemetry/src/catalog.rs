//! The raw metric catalog: thousands of Prometheus-node-exporter-style
//! metrics expanded deterministically from the latent node state.
//!
//! Real HPC telemetry is wide because hardware is replicated (cores, NUMA
//! nodes, mounts, NICs) and because the same underlying quantity is
//! exported in many forms (gauge, cumulative counter, smoothed, lagged).
//! The catalog models exactly that: each raw metric binds to one latent
//! [`Signal`] through a *transform family*, and per-unit metrics split
//! their signal across cores/NUMA nodes/mounts/interfaces. With the
//! [`CatalogSpec::full`] hardware shape the catalog has exactly **3,014**
//! metrics with the paper's Table 3 category counts.

use crate::signals::{Signal, SignalFrame};
use ns_linalg::matrix::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Metric category (paper Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    Cpu,
    Memory,
    Filesystem,
    Network,
    Process,
    System,
}

impl Category {
    pub fn name(self) -> &'static str {
        match self {
            Category::Cpu => "CPU",
            Category::Memory => "Memory",
            Category::Filesystem => "Filesystem",
            Category::Network => "Network",
            Category::Process => "Process",
            Category::System => "System",
        }
    }
}

/// How a raw metric derives from its latent signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transform {
    /// Direct gauge: `a·s + b + noise`.
    Gauge,
    /// Cumulative counter: running sum of the (scaled) rate — the
    /// `*_total` metrics.
    Counter,
    /// Gauge observed with a small collection lag.
    Lagged(usize),
    /// Gauge saturating at a cap (queue depths, clamped utilisations).
    Saturated,
    /// Gauge with heavy observation noise.
    Noisy,
}

/// One raw metric definition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RawMetric {
    pub name: String,
    pub category: Category,
    /// Latent signal index this metric projects.
    pub signal: usize,
    /// Semantic group: metrics with the same group id measure the same
    /// quantity (possibly per-unit) and are merged by the reduction step.
    pub group: usize,
    pub transform: Transform,
    pub scale: f64,
    pub offset: f64,
    pub noise: f64,
    /// `Some((unit, total_units))` for per-core / per-NUMA / per-mount /
    /// per-interface metrics: the node-level signal splits across units.
    pub share: Option<(usize, usize)>,
}

/// Hardware shape driving catalog width.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CatalogSpec {
    pub cores: usize,
    pub numa_nodes: usize,
    pub mounts: usize,
    pub interfaces: usize,
}

impl CatalogSpec {
    /// D1's hardware: 64 cores, 8 NUMA nodes, 4 mounts, 3 NICs →
    /// exactly 3,014 metrics (Table 3 counts).
    pub fn full() -> Self {
        Self {
            cores: 64,
            numa_nodes: 8,
            mounts: 4,
            interfaces: 3,
        }
    }

    /// Scaled-down default for laptop-scale experiments.
    pub fn scaled() -> Self {
        Self {
            cores: 8,
            numa_nodes: 2,
            mounts: 2,
            interfaces: 2,
        }
    }

    /// Small shape for the D2-like profile.
    pub fn small() -> Self {
        Self {
            cores: 4,
            numa_nodes: 1,
            mounts: 1,
            interfaces: 1,
        }
    }
}

/// Number of per-core CPU metric kinds.
const CPU_PER_CORE_KINDS: usize = 21;
const CPU_GLOBAL_KINDS: usize = 34;
const MEM_GLOBAL_KINDS: usize = 65;
const MEM_PER_NUMA_KINDS: usize = 110;
const FS_GLOBAL_KINDS: usize = 14;
const FS_PER_MOUNT_KINDS: usize = 60;
const NET_GLOBAL_KINDS: usize = 21;
const NET_PER_IFACE_KINDS: usize = 120;
const PROC_KINDS: usize = 12;
const SYS_KINDS: usize = 44;

/// A deterministic 64-bit mix (splitmix64) for per-metric parameters,
/// observation noise and collection losses — far cheaper than a full RNG
/// per sample.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1]` from a key.
#[inline]
fn noise_from(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// The full metric catalog.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricCatalog {
    pub spec: CatalogSpec,
    metrics: Vec<RawMetric>,
    n_groups: usize,
}

/// Realistic base names cycled through for generated kinds.
fn kind_name(category: Category, k: usize) -> String {
    let cpu = [
        "cpu_seconds_user",
        "cpu_seconds_system",
        "cpu_seconds_iowait",
        "cpu_seconds_idle",
        "cpu_seconds_irq",
        "cpu_seconds_softirq",
        "cpu_seconds_steal",
        "perf_cpu_cycles",
        "perf_instructions",
        "perf_cache_references",
        "perf_cache_misses",
        "perf_branch_misses",
        "perf_cpu_migrations_total",
        "cpu_frequency_hertz",
        "cpu_scaling_governor_perf",
        "cpu_throttles_total",
        "cpu_core_throttle_seconds",
        "schedstat_running_seconds",
        "schedstat_waiting_seconds",
        "cpu_guest_seconds",
        "cpu_nice_seconds",
    ];
    let mem = [
        "memory_active_bytes",
        "memory_inactive_bytes",
        "memory_dirty_bytes",
        "memory_writeback_bytes",
        "memory_kernel_stack_bytes",
        "memory_slab_bytes",
        "memory_page_tables_bytes",
        "numa_foreign_total",
        "numa_hit_total",
        "numa_miss_total",
        "vmstat_pgfault",
        "vmstat_pgmajfault",
        "vmstat_pswpin",
        "vmstat_pswpout",
    ];
    let fs = [
        "filesystem_files_free",
        "filesystem_free_bytes",
        "filesystem_size_bytes",
        "filefd_allocated",
        "disk_reads_completed_total",
        "disk_writes_completed_total",
        "disk_read_time_seconds",
        "disk_write_time_seconds",
        "disk_io_now",
    ];
    let net = [
        "network_receive_bytes_total",
        "network_transmit_bytes_total",
        "network_receive_packets_total",
        "network_transmit_packets_total",
        "network_receive_errs_total",
        "network_transmit_errs_total",
        "network_receive_drop_total",
        "sockstat_sockets_used",
        "netstat_tcp_retrans_segs",
        "netstat_tcp_in_segs",
    ];
    let proc = [
        "procs_running",
        "procs_blocked",
        "processes_state_running",
        "processes_state_sleeping",
        "processes_state_zombie",
        "processes_threads",
        "forks_total",
        "processes_max_processes",
        "processes_pids",
        "procs_running_max",
        "context_switches_total",
        "interrupts_total",
    ];
    let sys = [
        "system_uptime",
        "timex_status",
        "ksmd_run",
        "boot_time_seconds",
        "entropy_available_bits",
        "time_seconds",
        "load1",
        "load5",
        "load15",
        "thermal_zone_temp",
        "power_supply_watts",
        "hwmon_temp_celsius",
        "edac_correctable_errors_total",
        "edac_uncorrectable_errors_total",
    ];
    let pool: &[&str] = match category {
        Category::Cpu => &cpu,
        Category::Memory => &mem,
        Category::Filesystem => &fs,
        Category::Network => &net,
        Category::Process => &proc,
        Category::System => &sys,
    };
    if k < pool.len() {
        pool[k].to_string()
    } else {
        format!("{}_stat_{:03}", pool[k % pool.len()], k)
    }
}

/// Which latent signal a kind of a category binds to.
fn signal_for(category: Category, k: usize) -> usize {
    let cands: &[Signal] = match category {
        Category::Cpu => &[
            Signal::CpuUser,
            Signal::CpuSystem,
            Signal::CpuIoWait,
            Signal::CpuIdle,
            Signal::LoadAvg,
            Signal::CtxSwitches,
            Signal::CpuTemp,
            Signal::PowerWatts,
        ],
        Category::Memory => &[
            Signal::MemUsed,
            Signal::MemCache,
            Signal::MemKernel,
            Signal::SwapUsed,
            Signal::PageFaults,
        ],
        Category::Filesystem => &[
            Signal::DiskReadBytes,
            Signal::DiskWriteBytes,
            Signal::DiskUsedFrac,
            Signal::OpenFds,
            Signal::CpuIoWait,
        ],
        Category::Network => &[
            Signal::NetRxBytes,
            Signal::NetTxBytes,
            Signal::NetSockets,
            Signal::NetRetrans,
        ],
        Category::Process => &[
            Signal::ProcsRunning,
            Signal::ProcsBlocked,
            Signal::CtxSwitches,
        ],
        Category::System => &[
            Signal::Uptime,
            Signal::CpuTemp,
            Signal::PowerWatts,
            Signal::LoadAvg,
            Signal::CtxSwitches,
        ],
    };
    cands[k % cands.len()] as usize
}

/// Transform family for a kind, chosen deterministically.
fn transform_for(category: Category, k: usize) -> Transform {
    match splitmix64((category as u64) << 32 | k as u64) % 10 {
        0..=3 => Transform::Gauge,
        4 | 5 => Transform::Counter,
        6 => Transform::Lagged(1 + (k % 3)),
        7 => Transform::Saturated,
        _ => Transform::Noisy,
    }
}

impl MetricCatalog {
    /// Build the catalog for a hardware shape.
    pub fn build(spec: CatalogSpec) -> Self {
        let mut metrics = Vec::new();
        let mut group = 0usize;
        let push_kind = |metrics: &mut Vec<RawMetric>,
                         group: &mut usize,
                         category: Category,
                         k: usize,
                         units: usize,
                         unit_label: &str| {
            let sig = signal_for(category, k);
            let tr = transform_for(category, k);
            let h = splitmix64((category as u64) << 40 | (k as u64) << 8 | units as u64);
            let scale = 0.5 + (h % 1000) as f64 / 500.0; // 0.5 .. 2.5
            let offset = ((h >> 10) % 100) as f64 / 200.0; // 0 .. 0.5
            let noise = match tr {
                Transform::Noisy => 0.08,
                _ => 0.004 + ((h >> 20) % 10) as f64 / 2000.0,
            };
            let base = kind_name(category, k);
            if units <= 1 {
                metrics.push(RawMetric {
                    name: base,
                    category,
                    signal: sig,
                    group: *group,
                    transform: tr,
                    scale,
                    offset,
                    noise,
                    share: None,
                });
            } else {
                for u in 0..units {
                    metrics.push(RawMetric {
                        name: format!("{base}_{unit_label}{u}"),
                        category,
                        signal: sig,
                        group: *group,
                        transform: tr,
                        scale,
                        offset,
                        noise,
                        share: Some((u, units)),
                    });
                }
            }
            *group += 1;
        };

        for k in 0..CPU_PER_CORE_KINDS {
            push_kind(
                &mut metrics,
                &mut group,
                Category::Cpu,
                k,
                spec.cores,
                "cpu",
            );
        }
        for k in 0..CPU_GLOBAL_KINDS {
            push_kind(
                &mut metrics,
                &mut group,
                Category::Cpu,
                CPU_PER_CORE_KINDS + k,
                1,
                "",
            );
        }
        for k in 0..MEM_GLOBAL_KINDS {
            push_kind(&mut metrics, &mut group, Category::Memory, k, 1, "");
        }
        for k in 0..MEM_PER_NUMA_KINDS {
            push_kind(
                &mut metrics,
                &mut group,
                Category::Memory,
                MEM_GLOBAL_KINDS + k,
                spec.numa_nodes,
                "numa",
            );
        }
        for k in 0..FS_GLOBAL_KINDS {
            push_kind(&mut metrics, &mut group, Category::Filesystem, k, 1, "");
        }
        for k in 0..FS_PER_MOUNT_KINDS {
            push_kind(
                &mut metrics,
                &mut group,
                Category::Filesystem,
                FS_GLOBAL_KINDS + k,
                spec.mounts,
                "mnt",
            );
        }
        for k in 0..NET_GLOBAL_KINDS {
            push_kind(&mut metrics, &mut group, Category::Network, k, 1, "");
        }
        for k in 0..NET_PER_IFACE_KINDS {
            push_kind(
                &mut metrics,
                &mut group,
                Category::Network,
                NET_GLOBAL_KINDS + k,
                spec.interfaces,
                "eth",
            );
        }
        for k in 0..PROC_KINDS {
            push_kind(&mut metrics, &mut group, Category::Process, k, 1, "");
        }
        for k in 0..SYS_KINDS {
            push_kind(&mut metrics, &mut group, Category::System, k, 1, "");
        }
        Self {
            spec,
            metrics,
            n_groups: group,
        }
    }

    /// Number of raw metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of semantic groups (the post-aggregation dimension).
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Metric definitions.
    pub fn metrics(&self) -> &[RawMetric] {
        &self.metrics
    }

    /// `(category, count, example names)` rows — Table 3.
    pub fn category_table(&self) -> Vec<(Category, usize, Vec<String>)> {
        let cats = [
            Category::Cpu,
            Category::Memory,
            Category::Filesystem,
            Category::Network,
            Category::Process,
            Category::System,
        ];
        cats.iter()
            .map(|&c| {
                let members: Vec<&RawMetric> =
                    self.metrics.iter().filter(|m| m.category == c).collect();
                let examples = members.iter().take(2).map(|m| m.name.clone()).collect();
                (c, members.len(), examples)
            })
            .collect()
    }

    /// Expand a node's latent signal timeline into the raw `T × M` metric
    /// matrix. Deterministic in `(node_seed, metric, t)`. Parallel over
    /// metrics.
    pub fn expand(&self, latent: &[SignalFrame], node_seed: u64) -> Matrix {
        let t_len = latent.len();
        let m = self.metrics.len();
        let mut out = Matrix::zeros(t_len, m);
        if t_len == 0 || m == 0 {
            return out;
        }
        // Column-parallel fill into a transposed scratch, then transpose:
        // each metric owns a contiguous row there.
        let mut scratch = vec![0.0f64; m * t_len];
        scratch
            .par_chunks_mut(t_len)
            .enumerate()
            .for_each(|(j, col)| {
                let def = &self.metrics[j];
                let share_w = match def.share {
                    Some((u, total)) => {
                        // Deterministic near-uniform share for this unit.
                        let w = 1.0 / total as f64;
                        w * (1.0 + 0.25 * noise_from(node_seed ^ splitmix64(j as u64) ^ u as u64))
                    }
                    None => 1.0,
                };
                // Counters accumulate from t = 0.
                let mut counter_acc = 0.0f64;
                for (t, frame) in latent.iter().enumerate() {
                    let sig_t = match def.transform {
                        Transform::Lagged(lag) => {
                            let idx = t.saturating_sub(lag);
                            latent[idx][def.signal]
                        }
                        _ => frame[def.signal],
                    };
                    let base = def.scale * sig_t * share_w + def.offset;
                    let n = def.noise * noise_from(node_seed ^ ((j as u64) << 32) ^ t as u64);
                    let v = match def.transform {
                        Transform::Counter => {
                            counter_acc += base.max(0.0);
                            counter_acc
                        }
                        Transform::Saturated => (base + n).min(def.scale * 0.7 + def.offset),
                        _ => base + n,
                    };
                    col[t] = v;
                }
            });
        for t in 0..t_len {
            for j in 0..m {
                out[(t, j)] = scratch[j * t_len + t];
            }
        }
        out
    }

    /// Group ids per raw metric, for the semantic-aggregation step.
    pub fn group_ids(&self) -> Vec<usize> {
        self.metrics.iter().map(|m| m.group).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::idle_frame;

    #[test]
    fn full_catalog_matches_table3_exactly() {
        let cat = MetricCatalog::build(CatalogSpec::full());
        assert_eq!(cat.len(), 3014, "paper Table 2/3: 3,014 metrics");
        let table = cat.category_table();
        let counts: Vec<usize> = table.iter().map(|(_, c, _)| *c).collect();
        assert_eq!(counts, vec![1378, 945, 254, 381, 12, 44]);
    }

    #[test]
    fn metric_names_are_unique() {
        let cat = MetricCatalog::build(CatalogSpec::scaled());
        let mut names: Vec<&String> = cat.metrics().iter().map(|m| &m.name).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate raw metric names");
    }

    #[test]
    fn groups_partition_metrics() {
        let cat = MetricCatalog::build(CatalogSpec::scaled());
        let gids = cat.group_ids();
        assert_eq!(gids.len(), cat.len());
        let max = *gids.iter().max().unwrap();
        assert_eq!(max + 1, cat.n_groups());
        // Per-core kinds form groups of `cores` members.
        let counts = {
            let mut c = vec![0usize; cat.n_groups()];
            for &g in &gids {
                c[g] += 1;
            }
            c
        };
        assert!(counts.contains(&cat.spec.cores));
        assert!(counts.contains(&1));
    }

    fn ramp_latent(t_len: usize) -> Vec<SignalFrame> {
        (0..t_len)
            .map(|t| {
                let mut f = idle_frame(t, 30.0);
                f[Signal::CpuUser as usize] = t as f64 / t_len as f64;
                f[Signal::MemUsed as usize] = 0.5;
                f
            })
            .collect()
    }

    #[test]
    fn expansion_shape_and_determinism() {
        let cat = MetricCatalog::build(CatalogSpec::small());
        let latent = ramp_latent(50);
        let a = cat.expand(&latent, 42);
        let b = cat.expand(&latent, 42);
        assert_eq!(a.shape(), (50, cat.len()));
        assert_eq!(a, b);
        let c = cat.expand(&latent, 43);
        assert_ne!(a, c, "different node seeds must differ");
    }

    #[test]
    fn per_core_members_are_highly_correlated() {
        // Metrics of the same group track the same signal → the semantic
        // aggregation premise holds.
        let cat = MetricCatalog::build(CatalogSpec::small());
        let latent = ramp_latent(200);
        let m = cat.expand(&latent, 7);
        // Find a per-core gauge group bound to CpuUser.
        let defs = cat.metrics();
        let group = defs
            .iter()
            .find(|d| {
                d.share.is_some()
                    && d.signal == Signal::CpuUser as usize
                    && matches!(d.transform, Transform::Gauge)
            })
            .map(|d| d.group)
            .expect("per-core cpu gauge group exists");
        let members: Vec<usize> = defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.group == group)
            .map(|(i, _)| i)
            .collect();
        assert!(members.len() >= 2);
        let x = m.col(members[0]);
        let y = m.col(members[1]);
        let r = ns_linalg::stats::pearson(&x, &y);
        assert!(r > 0.95, "same-group correlation {r}");
    }

    #[test]
    fn counters_are_monotone() {
        let cat = MetricCatalog::build(CatalogSpec::small());
        let latent = ramp_latent(100);
        let m = cat.expand(&latent, 3);
        let counter_idx = cat
            .metrics()
            .iter()
            .position(|d| matches!(d.transform, Transform::Counter))
            .expect("counter metric exists");
        let col = m.col(counter_idx);
        for w in col.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "counter decreased");
        }
    }

    #[test]
    fn all_values_finite() {
        let cat = MetricCatalog::build(CatalogSpec::scaled());
        let latent = ramp_latent(60);
        let m = cat.expand(&latent, 1);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
    }
}
