//! Diagnostic: isolate which scale dimension degrades precision.

use nodesentry_core::NodeSentryConfig;
use ns_bench::run_nodesentry;
use ns_telemetry::DatasetProfile;

fn main() {
    for (label, nodes, horizon) in [
        ("10n-2880h", 10usize, 2880usize),
        ("24n-2880h", 24, 2880),
        ("10n-4320h", 10, 4320),
    ] {
        let mut p = DatasetProfile::d1_prime();
        p.name = label.into();
        p.schedule.n_nodes = nodes;
        p.schedule.horizon = horizon;
        let ds = p.generate();
        let (r, _) = run_nodesentry(&ds, NodeSentryConfig::default());
        println!(
            "{label}: P={:.3} R={:.3} AUC={:.3} F1={:.3} (offline {:.0}s)",
            r.precision, r.recall, r.auc, r.f1, r.offline_s
        );
    }
}
