//! Latent node-state signals.
//!
//! The simulator does not synthesise 3,014 raw metrics independently —
//! real node metrics are highly redundant projections of a much smaller
//! underlying state (which is exactly why the paper's reduction step
//! lands at ~1/10 of the raw dimension). We model that state explicitly:
//! every node carries [`NUM_SIGNALS`] latent signals over time, job
//! archetypes drive the signals, anomalies perturb them, and the metric
//! catalog expands them into thousands of correlated raw metrics.

use serde::{Deserialize, Serialize};

/// Indices into a signal frame. Values are *rates or fractions in
/// steady-state units*: CPU fractions in `[0, 1]`, byte rates normalised
/// to a 0–1 typical envelope, counts scaled similarly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum Signal {
    CpuUser = 0,
    CpuSystem = 1,
    CpuIoWait = 2,
    CpuIdle = 3,
    LoadAvg = 4,
    CtxSwitches = 5,
    MemUsed = 6,
    MemCache = 7,
    MemKernel = 8,
    SwapUsed = 9,
    PageFaults = 10,
    DiskReadBytes = 11,
    DiskWriteBytes = 12,
    DiskUsedFrac = 13,
    OpenFds = 14,
    NetRxBytes = 15,
    NetTxBytes = 16,
    NetSockets = 17,
    NetRetrans = 18,
    ProcsRunning = 19,
    ProcsBlocked = 20,
    CpuTemp = 21,
    PowerWatts = 22,
    Uptime = 23,
}

/// Number of latent signals per node.
pub const NUM_SIGNALS: usize = 24;

/// All signals, in index order.
pub const ALL_SIGNALS: [Signal; NUM_SIGNALS] = [
    Signal::CpuUser,
    Signal::CpuSystem,
    Signal::CpuIoWait,
    Signal::CpuIdle,
    Signal::LoadAvg,
    Signal::CtxSwitches,
    Signal::MemUsed,
    Signal::MemCache,
    Signal::MemKernel,
    Signal::SwapUsed,
    Signal::PageFaults,
    Signal::DiskReadBytes,
    Signal::DiskWriteBytes,
    Signal::DiskUsedFrac,
    Signal::OpenFds,
    Signal::NetRxBytes,
    Signal::NetTxBytes,
    Signal::NetSockets,
    Signal::NetRetrans,
    Signal::ProcsRunning,
    Signal::ProcsBlocked,
    Signal::CpuTemp,
    Signal::PowerWatts,
    Signal::Uptime,
];

impl Signal {
    /// Canonical snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Signal::CpuUser => "cpu_user",
            Signal::CpuSystem => "cpu_system",
            Signal::CpuIoWait => "cpu_iowait",
            Signal::CpuIdle => "cpu_idle",
            Signal::LoadAvg => "load_avg",
            Signal::CtxSwitches => "ctx_switches",
            Signal::MemUsed => "mem_used",
            Signal::MemCache => "mem_cache",
            Signal::MemKernel => "mem_kernel",
            Signal::SwapUsed => "swap_used",
            Signal::PageFaults => "page_faults",
            Signal::DiskReadBytes => "disk_read_bytes",
            Signal::DiskWriteBytes => "disk_write_bytes",
            Signal::DiskUsedFrac => "disk_used_frac",
            Signal::OpenFds => "open_fds",
            Signal::NetRxBytes => "net_rx_bytes",
            Signal::NetTxBytes => "net_tx_bytes",
            Signal::NetSockets => "net_sockets",
            Signal::NetRetrans => "net_retrans",
            Signal::ProcsRunning => "procs_running",
            Signal::ProcsBlocked => "procs_blocked",
            Signal::CpuTemp => "cpu_temp",
            Signal::PowerWatts => "power_watts",
            Signal::Uptime => "uptime",
        }
    }
}

/// One timestamp's worth of latent state.
pub type SignalFrame = [f64; NUM_SIGNALS];

/// A zeroed frame with baseline idle values.
pub fn idle_frame(t_index: usize, interval_s: f64) -> SignalFrame {
    let mut f = [0.0; NUM_SIGNALS];
    f[Signal::CpuUser as usize] = 0.02;
    f[Signal::CpuSystem as usize] = 0.01;
    f[Signal::CpuIdle as usize] = 0.97;
    f[Signal::LoadAvg as usize] = 0.02;
    f[Signal::CtxSwitches as usize] = 0.05;
    f[Signal::MemUsed as usize] = 0.08;
    f[Signal::MemCache as usize] = 0.10;
    f[Signal::MemKernel as usize] = 0.05;
    f[Signal::OpenFds as usize] = 0.05;
    f[Signal::NetSockets as usize] = 0.03;
    f[Signal::ProcsRunning as usize] = 0.02;
    f[Signal::CpuTemp as usize] = 0.30;
    f[Signal::PowerWatts as usize] = 0.15;
    f[Signal::DiskUsedFrac as usize] = 0.40;
    f[Signal::Uptime as usize] = t_index as f64 * interval_s / 1e7;
    f
}

/// Clamp frame entries to physically sensible ranges (fractions to
/// `[0, 1.5]` to keep saturation effects visible, counters non-negative).
pub fn clamp_frame(f: &mut SignalFrame) {
    for v in f.iter_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
        *v = v.clamp(0.0, 1.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_indices_are_dense_and_unique() {
        for (i, s) in ALL_SIGNALS.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = ALL_SIGNALS.iter().map(|s| s.name()).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn idle_frame_is_mostly_idle() {
        let f = idle_frame(0, 30.0);
        assert!(f[Signal::CpuIdle as usize] > 0.9);
        assert!(f[Signal::CpuUser as usize] < 0.1);
        assert!(f[Signal::SwapUsed as usize] == 0.0);
    }

    #[test]
    fn clamp_fixes_hostile_values() {
        let mut f = [0.0; NUM_SIGNALS];
        f[0] = f64::NAN;
        f[1] = -3.0;
        f[2] = 99.0;
        clamp_frame(&mut f);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 1.5);
    }
}
