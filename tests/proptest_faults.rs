//! Property-based fault tolerance: the hardened streaming engine must
//! survive *arbitrary* seeded fault plans — every class at once, random
//! rates, random shard counts — and uphold its structural invariants:
//!
//! * the engine terminates (no deadlock, no panic escaping a worker);
//! * per node, verdict steps are strictly increasing (which also rules
//!   out duplicate verdicts) and confined to the test window;
//! * a step that was never delivered never gets a verdict.

mod common;

use common::setup;
use nodesentry::stream::{Engine, EngineConfig};
use nodesentry::telemetry::{FaultInjector, FaultPlan, FaultPlanSpec, ALL_FAULTS};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn random_fault_plans_uphold_engine_invariants(
        seed in any::<u64>(),
        rate_pct in 2usize..14,
        shards in 1usize..5,
        len_lo in 2usize..10,
        len_span in 1usize..40,
        chunk in 16usize..400,
    ) {
        let h = setup();
        let spec = FaultPlanSpec {
            seed,
            window: (1, h.ds.horizon()),
            kinds: ALL_FAULTS.to_vec(),
            rate: rate_pct as f64 / 100.0,
            event_len: (len_lo, len_lo + len_span),
            n_cols: h.n_cols,
            counter_cols: h.counter_cols.clone(),
        };
        let plan = FaultPlan::random(&spec, h.ds.n_nodes());
        prop_assert!(!plan.events.is_empty(), "spec must yield events");
        let outcome = FaultInjector::new(plan).apply(&h.clean);

        let mut cfg = EngineConfig::new(h.ds.split);
        cfg.n_shards = shards;
        cfg.smooth_window = 1;
        cfg.reorder_bound = 16;
        cfg.blackout_gap = 48;
        let engine = Engine::new(Arc::clone(&h.model), cfg);
        for chunk in outcome.stream.chunks(chunk) {
            engine.ingest(chunk.to_vec()).expect("shard must survive any fault plan");
        }
        // Reaching this point at all is the termination property: finish()
        // joins every worker.
        let report = engine.finish();

        let mut last: HashMap<usize, usize> = HashMap::new();
        for v in &report.verdicts {
            prop_assert!(
                v.step >= h.ds.split && v.step < h.ds.horizon(),
                "verdict outside test span: node {} step {}", v.node, v.step
            );
            prop_assert!(
                !outcome.dropped.contains(&(v.node, v.step)),
                "verdict for a tick that never arrived: node {} step {}", v.node, v.step
            );
            if let Some(&prev) = last.get(&v.node) {
                prop_assert!(
                    v.step > prev,
                    "verdict steps not strictly increasing for node {}: {} after {}",
                    v.node, v.step, prev
                );
            }
            last.insert(v.node, v.step);
        }
        // Verdicts can only come from delivered steps, so the count is
        // bounded by the horizon even under duplication faults.
        for (&node, _) in last.iter() {
            let n = report.verdicts.iter().filter(|v| v.node == node).count();
            prop_assert!(n <= h.ds.horizon() - h.ds.split);
        }
    }

    #[test]
    fn clean_streams_stay_clean_under_any_sharding(
        shards in 1usize..5,
        chunk in 16usize..400,
    ) {
        let h = setup();
        let mut cfg = EngineConfig::new(h.ds.split);
        cfg.n_shards = shards;
        cfg.smooth_window = 1;
        let engine = Engine::new(Arc::clone(&h.model), cfg);
        for chunk in h.clean.chunks(chunk) {
            engine.ingest(chunk.to_vec()).expect("clean feed never kills a shard");
        }
        let report = engine.finish();
        prop_assert!(report.faults.is_clean(), "clean feed tripped counters: {:?}", report.faults);
        prop_assert_eq!(
            report.verdicts.len(),
            h.ds.n_nodes() * (h.ds.horizon() - h.ds.split)
        );
    }
}
