//! Table 4 — overall effectiveness: NodeSentry vs Prodigy, RUAD, ExaMon
//! and ISC'20 on D1′ and D2′ (P / R / AUC / F1 + offline/online cost).
//!
//! Each row is printed with its breakdown (and NodeSentry's with its
//! cluster table) and written to `table4.json`. Pass `--sweep-profiles` to
//! run on the smaller sweep datasets instead (faster smoke run).

use nodesentry_core::NodeSentryConfig;
use ns_baselines::{Detector, Examon, Isc20, Prodigy, Ruad};
use ns_bench::{
    print_method_row, run_baseline, run_nodesentry, table_profiles, write_json, MethodResult,
};

fn main() {
    println!("=== Table 4: effectiveness of anomaly detection ===\n");
    let mut results: Vec<MethodResult> = Vec::new();
    for profile in table_profiles() {
        println!(
            "--- dataset {} ({} nodes, {} steps) ---",
            profile.name, profile.schedule.n_nodes, profile.schedule.horizon
        );
        let ds = profile.generate();

        let (r, _, _) = run_nodesentry(&ds, NodeSentryConfig::default(), ds.split);
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
