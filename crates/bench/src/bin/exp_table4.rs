//! Table 4 — overall effectiveness: NodeSentry vs Prodigy, RUAD, ExaMon
//! and ISC'20 on D1′ and D2′ (P / R / AUC / F1 + offline/online cost).
//!
//! Pass `--sweep-profiles` to run on the smaller sweep datasets instead
//! (faster smoke run).

use nodesentry_core::NodeSentryConfig;
use ns_baselines::{Detector, Examon, Isc20, Prodigy, Ruad};
use ns_bench::{
    print_method_row, run_baseline, run_nodesentry, sweep_profile_d1, sweep_profile_d2, write_json,
    MethodResult,
};
use ns_telemetry::DatasetProfile;

fn main() {
    let quick = std::env::args().any(|a| a == "--sweep-profiles");
    let profiles = if quick {
        vec![sweep_profile_d1(), sweep_profile_d2()]
    } else {
        vec![DatasetProfile::d1_prime(), DatasetProfile::d2_prime()]
    };
    println!("=== Table 4: effectiveness of anomaly detection ===\n");
    let mut results: Vec<MethodResult> = Vec::new();
    for profile in profiles {
        println!(
            "--- dataset {} ({} nodes, {} steps) ---",
            profile.name, profile.schedule.n_nodes, profile.schedule.horizon
        );
        let ds = profile.generate();

        let (r, _model) = run_nodesentry(&ds, NodeSentryConfig::default());
        print_method_row(&r);
        results.push(r);

        let mut baselines: Vec<Box<dyn Detector>> = vec![
            Box::new(Prodigy::default()),
            Box::new(Ruad::default()),
            Box::new(Examon::default()),
            Box::new(Isc20::default()),
        ];
        for det in baselines.iter_mut() {
            let r = run_baseline(&ds, det.as_mut());
            print_method_row(&r);
            results.push(r);
        }
        println!();
    }
    println!("paper reference (D1): NodeSentry F1 0.876 | Prodigy 0.167 | RUAD 0.314 | ExaMon 0.210 | ISC20 0.045");
    println!("paper reference (D2): NodeSentry F1 0.891 | Prodigy 0.199 | RUAD 0.333 | ExaMon 0.282 | ISC20 0.012");
    write_json("table4", &results);
}
