//! Table 5 — ablation study: the full pipeline vs variants C1–C5 on D1′
//! and D2′ (paper §4.4), each row with its breakdown and cluster table.
//! `--sweep-profiles` runs on the smaller sweep datasets instead.

use nodesentry_core::{NodeSentryConfig, Variant};
use ns_bench::{print_method_row, run_nodesentry, table_profiles, write_json, MethodResult};

fn main() {
    println!("=== Table 5: ablation study (C1 no clustering, C2 random groups, C3 equal-length, C4 no segment PE, C5 dense FFN) ===\n");
    let mut results: Vec<MethodResult> = Vec::new();
    for profile in table_profiles() {
        println!("--- dataset {} ---", profile.name);
        let ds = profile.generate();
        for variant in [
            Variant::Full,
            Variant::C1SingleModel,
            Variant::C2RandomGroups,
            Variant::C3EqualLength,
            Variant::C4NoSegmentPe,
            Variant::C5DenseFfn,
        ] {
            let cfg = NodeSentryConfig::default().with_variant(variant);
            let (r, _, _) = run_nodesentry(&ds, cfg, ds.split);
            print_method_row(&r);
            results.push(r);
        }
        println!();
    }
    println!("paper reference (D1 F1): Full 0.876 | C1 0.301 | C2 0.427 | C3 0.751 | C4 0.470 | C5 0.378");
    println!("paper reference (D2 F1): Full 0.891 | C1 0.359 | C2 0.611 | C3 0.780 | C4 0.599 | C5 0.504");
    write_json("table5", &results);
}
